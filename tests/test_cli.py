"""End-to-end command-line runs over a shared phantom workspace."""

import dataclasses

import numpy as np
import pytest

from msseg import train as train_module
from msseg.checkpoint import load_checkpoint
from msseg.cli import main
from msseg.data import (
    MaskVolume,
    load_mask,
    load_volume,
    make_folds,
    parse_manifest,
    save_mask,
    write_manifest,
)

MINI_CFG = """\
num_scales = 2
layers_per_dense_block = 2
growth_rate = 4
first_conv_filters = 8
convlstm_hidden = 6
dropout_p = 0.0
seed = 5
epochs = 2
lr = 0.001
batch_size = 4
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    raw = root / "raw"
    proc = root / "proc"
    run = root / "run"
    assert (
        main(["phantom", "--seed", "3", "--count", "10", "--dims", "10x16x16",
              "--out", str(raw)]) == 0
    )
    assert (
        main(["preprocess", "--manifest", str(raw / "manifest.tsv"),
              "--out", str(proc), "--target", "16"]) == 0
    )
    cfg = root / "mini.cfg"
    cfg.write_text(MINI_CFG)
    assert (
        main(["train", "--manifest", str(proc / "manifest.tsv"), "--fold", "1",
              "--config", str(cfg), "--out", str(run)]) == 0
    )
    return {"root": root, "raw": raw, "proc": proc, "run": run, "cfg": cfg}


# ---------------------------------------------------------------------------
# phantom


def test_phantom_writes_pairs_and_manifest(tmp_path):
    out = tmp_path / "ph"
    assert main(["phantom", "--seed", "1", "--count", "5", "--dims", "8x32x32",
                 "--out", str(out)]) == 0
    entries = parse_manifest(str(out / "manifest.tsv"))
    assert len(entries) == 5
    for e in entries:
        assert load_volume(str(out / e.image_path)).dims == (8, 32, 32)
        assert load_mask(str(out / e.mask_path)).dims == (8, 32, 32)
    patients = [e.patient for e in entries]
    assert patients == ["1", "2", "3", "4", "5"]


def test_phantom_same_seed_bit_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["phantom", "--seed", "7", "--count", "2", "--dims", "8x32x32",
                     "--out", str(out)]) == 0
    for name in ("p1t1.msvol", "p1t1.msmsk", "p2t1.msvol", "manifest.tsv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_phantom_bad_dims_is_item_failure(tmp_path, capsys):
    for dims in ("8x32", "0x32x32", "12x32x0"):
        assert main(["phantom", "--dims", dims, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "dims" in err and dims in err
    for count in ("0", "-2"):
        assert main(["phantom", "--count", count, "--out", str(tmp_path / "y")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "count" in captured.err
        assert count in captured.err and captured.out == ""
    assert not (tmp_path / "y").exists()


# ---------------------------------------------------------------------------
# preprocess


def test_preprocess_outputs_and_summary(workspace):
    proc = workspace["proc"]
    entries = parse_manifest(str(proc / "manifest.tsv"))
    assert len(entries) == 10
    for e in entries:
        dims = load_volume(str(proc / e.image_path)).dims
        assert dims[1:] == (16, 16)
        assert dims[0] < 10
    summary = (proc / "summary.txt").read_text()
    for e in entries:
        assert e.id in summary
    first = summary.splitlines()[0]
    assert "kept" in first and "dropped" in first
    kept = int(first.split("kept")[1].split()[0])
    dropped = int(first.split("dropped")[1].split()[0])
    assert kept + dropped == 10
    assert dropped >= 2


def test_preprocess_idempotent(workspace, tmp_path):
    proc = workspace["proc"]
    again = tmp_path / "proc2"
    assert main(["preprocess", "--manifest", str(proc / "manifest.tsv"),
                 "--out", str(again), "--target", "16"]) == 0
    for name in ("p1t1.msvol", "p1t1.msmsk", "p3t2.msvol"):
        assert (again / name).read_bytes() == (proc / name).read_bytes()


def test_preprocess_continues_after_item_failure(workspace, tmp_path, capsys):
    proc = workspace["proc"]
    entries = parse_manifest(str(proc / "manifest.tsv"))
    broken = [
        e if i else type(e)(e.id, e.patient, e.timepoint, "missing.msvol", e.mask_path)
        for i, e in enumerate(entries)
    ]
    # the manifest must sit next to the data so relative paths resolve
    man2 = proc / "broken.tsv"
    write_manifest(broken, str(man2))
    out = tmp_path / "out"
    code = main(["preprocess", "--manifest", str(man2), "--out", str(out), "--target", "16"])
    assert code == 1
    err = capsys.readouterr().err
    assert "missing.msvol" in err
    survivors = parse_manifest(str(out / "manifest.tsv"))
    assert len(survivors) == len(entries) - 1


def test_preprocess_bad_target_fails_before_writing(workspace, tmp_path, capsys):
    for target in ("0", "-4"):
        out = tmp_path / f"t{target}"
        assert main(["preprocess", "--manifest", str(workspace["raw"] / "manifest.tsv"),
                     "--out", str(out), "--target", target]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: target must be at least 1, got {target}\n"
        assert captured.out == ""
        assert not out.exists()


# ---------------------------------------------------------------------------
# train


def test_train_csv_and_summary(workspace, capsys):
    run = workspace["run"]
    csv = (run / "fold1_curve.csv").read_text().splitlines()
    assert csv[0] == "epoch,train_loss,val_dice"
    assert len(csv) == 1 + 2
    dices = [float(line.split(",")[2]) for line in csv[1:]]
    ckpt = load_checkpoint(str(run / "fold1.msckpt"))
    assert ckpt.best_val_dice == max(dices)
    assert ckpt.train_cfg.epochs == 2
    assert ckpt.model_cfg.growth_rate == 4


def test_train_is_rerunnable_bit_identical(workspace, tmp_path):
    proc = workspace["proc"]
    out2 = tmp_path / "run2"
    assert main(["train", "--manifest", str(proc / "manifest.tsv"), "--fold", "1",
                 "--config", str(workspace["cfg"]), "--out", str(out2)]) == 0
    for name in ("fold1_curve.csv", "fold1.msckpt"):
        assert (out2 / name).read_bytes() == (workspace["run"] / name).read_bytes()


def test_train_needs_only_the_folds_volumes(workspace, tmp_path):
    proc = workspace["proc"]
    entries = parse_manifest(str(proc / "manifest.tsv"))
    # fold 1 tests on p1t2, so training it never reads that volume
    rows = []
    for e in entries:
        image = tmp_path / "absent.msvol" if e.id == "p1t2" else proc / e.image_path
        mask = proc / e.mask_path
        rows.append(dataclasses.replace(e, image_path=str(image), mask_path=str(mask)))
    write_manifest(rows, str(tmp_path / "manifest.tsv"))
    assert main(["train", "--manifest", str(tmp_path / "manifest.tsv"), "--fold", "1",
                 "--config", str(workspace["cfg"]), "--out", str(tmp_path / "o"),
                 "--epochs", "0"]) == 0
    assert (tmp_path / "o" / "fold1.msckpt").exists()


def test_train_zero_epochs(workspace, tmp_path):
    out = tmp_path / "zero"
    assert main(["train", "--manifest", str(workspace["proc"] / "manifest.tsv"),
                 "--fold", "2", "--config", str(workspace["cfg"]),
                 "--out", str(out), "--epochs", "0"]) == 0
    csv = (out / "fold2_curve.csv").read_text().splitlines()
    assert csv == ["epoch,train_loss,val_dice"]
    ckpt = load_checkpoint(str(out / "fold2.msckpt"))
    assert ckpt.best_val_dice is None
    assert ckpt.epoch == 0


def test_train_config_errors_surface(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("growht_rate = 4\n")
    code = main(["train", "--manifest", str(workspace["proc"] / "manifest.tsv"),
                 "--fold", "1", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "growht_rate" in err and "line 1" in err


def test_train_refuses_a_job_that_cannot_step_before_building(workspace, tmp_path, capsys,
                                                             monkeypatch):
    proc = workspace["proc"]
    entries = parse_manifest(str(proc / "manifest.tsv"))
    fold = make_folds(entries)[0]
    n_samples = sum(load_volume(str(proc / e.image_path)).dims[0]
                    for e in entries if e.id in fold.train)
    monkeypatch.setattr(train_module, "build_model",
                        lambda cfg: pytest.fail("built the model before checking the job"))
    # four scales take the 16x16 crops to a 1x1 bottleneck map
    for batch_size in (1, n_samples - 1):
        cfg = tmp_path / f"deep{batch_size}.cfg"
        cfg.write_text(MINI_CFG.replace("num_scales = 2", "num_scales = 4")
                       .replace("batch_size = 4", f"batch_size = {batch_size}"))
        out = tmp_path / f"o{batch_size}"
        assert main(["train", "--manifest", str(proc / "manifest.tsv"), "--fold", "1",
                     "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert all(key in err for key in ("batch_size", "num_scales", "use_sa"))
        assert list(out.glob("*.msckpt")) == []
        assert not out.exists()


@pytest.mark.parametrize(
    "command, says",
    [
        (["ablate", "--folds", "2"], "use_sa"),
        (["train", "--fold", "1", "--epochs", "-1"], "epochs must be >= 0"),
        (["phantom", "--dims", "4x8x8"], "leave no room for lesions"),
    ],
    ids=["ablate-cannot-step", "train-negative-epochs", "phantom-no-room"],
)
def test_refused_job_leaves_no_out_dir(workspace, tmp_path, capsys, monkeypatch, command, says):
    monkeypatch.setattr(train_module, "build_model",
                        lambda cfg: pytest.fail("built the model before checking the job"))
    if command[0] != "phantom":
        # four scales take the 16x16 crops to a 1x1 bottleneck map
        cfg = tmp_path / "deep.cfg"
        cfg.write_text(MINI_CFG.replace("num_scales = 2", "num_scales = 4")
                       .replace("batch_size = 4", "batch_size = 1"))
        command = command + ["--manifest", str(workspace["proc"] / "manifest.tsv"),
                             "--config", str(cfg)]
    out = tmp_path / "out"
    assert main(command + ["--out", str(out)]) == 1
    assert says in capsys.readouterr().err
    assert not out.exists()


def test_config_validator_refusal_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("lr = -1\n")
    assert main(["param-count", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and "lr must be finite" in err


def test_train_missing_manifest(tmp_path, capsys):
    code = main(["train", "--manifest", str(tmp_path / "nope.tsv"), "--fold", "1",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "nope.tsv" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval and predict


def test_eval_reports(workspace, tmp_path, capsys):
    proc = workspace["proc"]
    entries = parse_manifest(str(proc / "manifest.tsv"))
    fold1_test = [e for e in entries if e.id == "p1t2"]
    write_manifest(fold1_test, str(proc / "eval.tsv"))
    out = tmp_path / "eval"
    assert main(["eval", "--ckpt", str(workspace["run"] / "fold1.msckpt"),
                 "--manifest", str(proc / "eval.tsv"), "--out", str(out)]) == 0
    text = (out / "report.txt").read_text()
    for name in ("dice", "sensitivity", "specificity", "iou", "ef", "ppv", "npv", "accuracy"):
        assert name in text
    kv = dict(
        line.split(" = ") for line in (out / "report.kv").read_text().strip().splitlines()
    )
    assert float(kv["aggregate.dice.sd"]) == 0.0
    assert float(kv["volume.p1t2.dice"]) == float(kv["aggregate.dice.mean"])


def test_predict_outputs_and_overlays(workspace, tmp_path):
    proc = workspace["proc"]
    out = tmp_path / "pred"
    assert main(["predict", "--ckpt", str(workspace["run"] / "fold1.msckpt"),
                 "--volume", str(proc / "p1t2.msvol"), "--out", str(out),
                 "--mask", str(proc / "p1t2.msmsk")]) == 0
    dims = load_volume(str(proc / "p1t2.msvol")).dims
    pred = load_mask(str(out / "prediction.msmsk"))
    assert pred.dims == dims
    overlays = sorted(p.name for p in out.iterdir() if p.suffix == ".ppm")
    assert len(overlays) == dims[0]
    raw = (out / overlays[0]).read_bytes()
    header = f"P6\n{dims[2]} {dims[1]}\n255\n".encode()
    assert raw.startswith(header)
    assert len(raw) == len(header) + 3 * dims[1] * dims[2]


def test_overlay_of_perfect_prediction_is_grayscale(workspace, tmp_path):
    proc = workspace["proc"]
    first = tmp_path / "first"
    assert main(["predict", "--ckpt", str(workspace["run"] / "fold1.msckpt"),
                 "--volume", str(proc / "p1t2.msvol"), "--out", str(first)]) == 0
    second = tmp_path / "second"
    assert main(["predict", "--ckpt", str(workspace["run"] / "fold1.msckpt"),
                 "--volume", str(proc / "p1t2.msvol"), "--out", str(second),
                 "--mask", str(first / "prediction.msmsk")]) == 0
    dims = load_volume(str(proc / "p1t2.msvol")).dims
    for ppm in second.glob("overlay_*.ppm"):
        raw = ppm.read_bytes()
        body = raw.split(b"\n", 3)[3]
        rgb = np.frombuffer(body, dtype=np.uint8).reshape(dims[1], dims[2], 3)
        assert np.array_equal(rgb[..., 0], rgb[..., 1])
        assert np.array_equal(rgb[..., 1], rgb[..., 2])


@pytest.mark.parametrize("extra", [-2, 2])
def test_predict_refuses_mask_of_other_dims_before_writing(workspace, tmp_path, capsys, extra):
    proc = workspace["proc"]
    s, h, w = load_volume(str(proc / "p1t2.msvol")).dims
    mask = tmp_path / "other.msmsk"
    save_mask(MaskVolume(np.zeros((s + extra, h, w), dtype=np.uint8)), str(mask))
    out = tmp_path / "pred"
    assert main(["predict", "--ckpt", str(workspace["run"] / "fold1.msckpt"),
                 "--volume", str(proc / "p1t2.msvol"), "--out", str(out),
                 "--mask", str(mask)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"image dims {(s, h, w)} and mask dims {(s + extra, h, w)} differ" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# ablate and param-count


def test_ablate_grid(workspace, tmp_path):
    root = workspace["root"]
    cfg = root / "ablate.cfg"
    cfg.write_text(MINI_CFG.replace("epochs = 2", "epochs = 1"))
    out = tmp_path / "abl"
    assert main(["ablate", "--manifest", str(workspace["proc"] / "manifest.tsv"),
                 "--folds", "2", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "ablation.tsv").read_text().splitlines()
    assert lines[0] == "variant\tfold2\tmean"
    labels = [line.split("\t")[0] for line in lines[1:]]
    assert labels == [
        "FC-DenseNet",
        "FC-DenseNet + C-LSTM",
        "FC-DenseNet + SA",
        "FC-DenseNet + SA + C-LSTM",
    ]
    for line in lines[1:]:
        _, cell, mean = line.split("\t")
        assert np.isfinite(float(cell)) and 0.0 <= float(cell) <= 1.0
        assert float(mean) == float(cell)


def test_ablate_rejects_bad_folds(workspace, tmp_path, capsys):
    code = main(["ablate", "--manifest", str(workspace["proc"] / "manifest.tsv"),
                 "--folds", "two", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "--folds" in capsys.readouterr().err


def test_ablate_refuses_repeated_fold_before_training(workspace, tmp_path, capsys):
    out = tmp_path / "twice"
    code = main(["ablate", "--manifest", str(workspace["proc"] / "manifest.tsv"),
                 "--folds", "1,1", "--config", str(workspace["cfg"]), "--out", str(out)])
    assert code == 1
    assert "--folds names a fold more than once, got '1,1'" in capsys.readouterr().err
    assert not (out / "ablation.tsv").exists()


def test_param_count_default_prints_calibrated_total(capsys):
    assert main(["param-count"]) == 0
    out = capsys.readouterr().out
    rows = {line.split()[0]: int(line.split()[1]) for line in out.strip().splitlines()}
    assert list(rows) == ["Downsampling", "Bottleneck", "Upsampling", "Total"]
    assert rows["Total"] == 13_242_779
    assert rows["Total"] == rows["Downsampling"] + rows["Bottleneck"] + rows["Upsampling"]


def test_param_count_with_config(workspace, capsys):
    assert main(["param-count", "--config", str(workspace["cfg"])]) == 0
    out = capsys.readouterr().out
    rows = {line.split()[0]: int(line.split()[1]) for line in out.strip().splitlines()}
    assert rows["Total"] == sum(rows[k] for k in ("Downsampling", "Bottleneck", "Upsampling"))


# ---------------------------------------------------------------------------
# usage


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["train", "--nonsense"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "phantom" in capsys.readouterr().out
