"""Loss function, training loop determinism, inference, and evaluation."""

import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest

from msseg import rng as rngmod
from msseg import train as train_module
from msseg.checkpoint import load_checkpoint, save_checkpoint
from msseg.config import TrainConfig
from msseg.data import (
    FoldSpec,
    ManifestEntry,
    MaskVolume,
    PhantomSpec,
    Volume,
    generate_phantom,
    load_mask,
    make_folds,
    make_triplets,
    save_mask,
)
from msseg.errors import ShapeError, TrainingDivergedError
from msseg.metrics import compute_all, confusion
from msseg.model import (
    ModelConfig,
    ablation_variants,
    build_model,
    decode,
    encode,
    forward,
    snapshot_arrays,
)
from msseg.tensor import Tensor, softmax_channels
from msseg.train import (
    _slice_samples,
    _training_batch,
    evaluate,
    predict,
    predict_with_params,
    run_ablation,
    soft_dice_loss,
    train,
)

import oracles

MINI = dataclasses.replace(oracles.MINI, seed=31)


def phantom_dataset(seed, n_patients=5, timepoints=2, dims=(12, 16, 16)):
    """Tiny phantom volumes keyed like a manifest, plus fold specs."""
    dataset = {}
    entries = []
    i = 0
    for p in range(1, n_patients + 1):
        for t in range(1, timepoints + 1):
            vid = f"p{p}t{t}"
            vol, msk = generate_phantom(
                PhantomSpec(
                    seed=seed + i,
                    dims=dims,
                    n_lesions=(1, 3),
                    lesion_radius=(0.8, 1.2),
                )
            )
            dataset[vid] = (vol, msk)
            entries.append(ManifestEntry(vid, str(p), t, "", ""))
            i += 1
    return dataset, make_folds(entries)


# ---------------------------------------------------------------------------
# soft dice loss


def test_loss_zero_on_exact_match():
    rng = rngmod.stream(60, "loss")
    g = (rng.random((2, 8, 8)) < 0.4).astype(np.float64)
    prob = Tensor(np.stack([1.0 - g, g], axis=1))
    loss = soft_dice_loss(prob, g)
    assert abs(float(loss.data)) < 1e-6


def test_loss_half_when_uniform_on_half_set_mask():
    g = np.zeros((1, 4, 4))
    g[0, :2, :] = 1.0
    prob = Tensor(np.full((1, 2, 4, 4), 0.5))
    loss = soft_dice_loss(prob, g)
    assert abs(float(loss.data) - 0.5) < 1e-6


def test_loss_range_and_worst_case():
    rng = rngmod.stream(61, "loss-range")
    for _ in range(20):
        z = rng.standard_normal((2, 2, 6, 6))
        g = (rng.random((2, 6, 6)) < 0.5).astype(np.float64)
        prob = softmax_channels(Tensor(z))
        v = float(soft_dice_loss(prob, g).data)
        assert 0.0 <= v <= 1.0 + 1e-9
    # everything predicted lesion, nothing is: loss near 1
    g = np.zeros((1, 4, 4))
    prob = Tensor(np.stack([np.zeros((1, 4, 4)), np.ones((1, 4, 4))], axis=1))
    assert float(soft_dice_loss(prob, g).data) > 0.99


def test_loss_shape_checks():
    prob = Tensor(np.full((2, 2, 4, 4), 0.5))
    with pytest.raises(ShapeError):
        soft_dice_loss(prob, np.zeros((2, 4, 5)))
    with pytest.raises(ShapeError):
        soft_dice_loss(Tensor(np.zeros((2, 3, 4, 4))), np.zeros((2, 4, 4)))


def test_loss_gradient_matches_finite_differences():
    rng = rngmod.stream(62, "loss-fd")
    z = Tensor(rng.standard_normal((2, 2, 8, 8)), requires_grad=True)
    g = (rng.random((2, 8, 8)) < 0.4).astype(np.float64)
    err = oracles.gradient_error(lambda: soft_dice_loss(softmax_channels(z), g), [z], seed=62)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# training loop


def run_small(dataset, folds, tcfg, mcfg=MINI):
    history = []
    ckpt = train(
        folds[0], dataset, mcfg, tcfg, sink=lambda e, tl, vd: history.append((e, tl, vd))
    )
    return ckpt, history


def test_lr_zero_leaves_parameters_unchanged():
    dataset, folds = phantom_dataset(100)
    before = snapshot_arrays(build_model(MINI))
    tcfg = TrainConfig(epochs=1, lr=0.0, weight_decay=1e-4, batch_size=6, seed=5)
    ckpt, _ = run_small(dataset, folds, tcfg)
    assert set(ckpt.arrays) == set(before)
    for name, arr in before.items():
        if name.endswith(("running_mean", "running_var")):
            continue
        np.testing.assert_array_equal(ckpt.arrays[name], arr, err_msg=name)


def test_fixed_seed_gives_bit_identical_loss_sequences():
    tcfg = TrainConfig(epochs=2, lr=1e-3, batch_size=5, seed=9)
    dataset, folds = phantom_dataset(101)
    _, h1 = run_small(dataset, folds, tcfg)
    _, h2 = run_small(dataset, folds, tcfg)
    assert h1 == h2
    assert len(h1) == 2
    _, h3 = run_small(dataset, folds, TrainConfig(epochs=2, lr=1e-3, batch_size=5, seed=10))
    assert h3 != h1


def test_best_checkpoint_tracks_max_validation_dice():
    dataset, folds = phantom_dataset(102)
    tcfg = TrainConfig(epochs=3, lr=1e-3, batch_size=6, seed=3)
    ckpt, history = run_small(dataset, folds, tcfg)
    dices = [vd for _, _, vd in history]
    assert ckpt.best_val_dice == max(dices)
    assert ckpt.epoch == int(np.argmax(dices)) + 1
    assert ckpt.step > 0


def test_zero_epochs_returns_initialized_model():
    dataset, folds = phantom_dataset(103)
    ckpt, history = run_small(dataset, folds, TrainConfig(epochs=0, seed=31))
    assert history == []
    assert ckpt.best_val_dice is None
    assert (ckpt.epoch, ckpt.step) == (0, 0)
    init = snapshot_arrays(build_model(MINI))
    for name, arr in init.items():
        np.testing.assert_array_equal(ckpt.arrays[name], arr, err_msg=name)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_diagnostics():
    dataset, folds = phantom_dataset(104)
    tcfg = TrainConfig(epochs=2, lr=1e155, weight_decay=1e-4, batch_size=4, seed=1)
    with pytest.raises(TrainingDivergedError) as exc:
        run_small(dataset, folds, tcfg)
    assert exc.value.epoch >= 1
    assert exc.value.step >= 1


def test_missing_volume_reported():
    dataset, folds = phantom_dataset(105)
    dataset.pop(folds[0].train[0])
    with pytest.raises(ValueError, match="not in the dataset"):
        run_small(dataset, folds, TrainConfig(epochs=1))


@pytest.mark.parametrize(
    "part,ids,match",
    [
        ("train", [], "no training volumes"),
        ("val", [], "no validation volumes"),
        ("val", ["absent"], "not in the dataset"),
        ("train", ["p1t1", "narrow"], "one geometry"),
    ],
)
def test_bad_fold_list_refused_before_training(part, ids, match, monkeypatch):
    dataset, folds = phantom_dataset(105)
    dataset["narrow"] = generate_phantom(
        PhantomSpec(seed=106, dims=(12, 16, 8), n_lesions=(1, 1), lesion_radius=(0.8, 1.2))
    )
    fold = dataclasses.replace(folds[0], **{part: ids})

    def no_model(cfg):
        raise AssertionError("build_model ran before the fold was checked")

    monkeypatch.setattr(train_module, "build_model", no_model)
    epochs = []
    with pytest.raises(ValueError, match=match):
        train(fold, dataset, MINI, TrainConfig(epochs=1), sink=lambda *row: epochs.append(row))
    assert epochs == []


# Four scales take a 16x16 crop to a 1x1 bottleneck map, where the first
# decoder attention branch's batchnorm sees one value per channel per sample.
DEEP = dataclasses.replace(MINI, num_scales=4)


def _small_fold(folds):
    """One training volume (12 samples) and one validation volume."""
    return dataclasses.replace(folds[0], train=folds[0].train[:1], val=folds[0].val[:1])


@pytest.mark.parametrize(
    "mcfg,batch_size,named",
    [
        (DEEP, 1, ("batch_size", "num_scales", "use_sa")),
        (DEEP, 11, ("batch_size", "num_scales", "use_sa")),  # the 12th sample rides alone
        (dataclasses.replace(MINI, num_scales=5), 4, ("divisible by 2^num_scales",)),
    ],
    ids=["batch-1", "last-batch-1", "crop"],
)
def test_train_refuses_a_job_that_cannot_step(mcfg, batch_size, named, monkeypatch):
    dataset, folds = phantom_dataset(107)

    def no_model(cfg):
        raise AssertionError("build_model ran before the job was checked")

    monkeypatch.setattr(train_module, "build_model", no_model)
    with pytest.raises(ShapeError) as exc:
        train(_small_fold(folds), dataset, mcfg, TrainConfig(epochs=1, batch_size=batch_size))
    assert all(word in str(exc.value) for word in named)


@pytest.mark.parametrize(
    "mcfg,batch_size,steps",
    [(DEEP, 4, 3), (dataclasses.replace(DEEP, use_sa=False), 1, 12)],
    ids=["sa-batch-4", "no-sa-batch-1"],
)
def test_train_takes_every_step_of_a_job_it_accepts(mcfg, batch_size, steps):
    dataset, folds = phantom_dataset(107)
    ckpt = train(_small_fold(folds), dataset, mcfg, TrainConfig(epochs=1, batch_size=batch_size))
    assert ckpt.step == steps


def test_training_batch_is_time_major_triplets():
    dataset, folds = phantom_dataset(111)
    ids = folds[0].train[:2]
    samples = _slice_samples(ids, dataset)
    triplets = [pair for vid in ids for pair in make_triplets(*dataset[vid])]
    assert len(samples) == len(triplets) == 24
    # both edge slices of both volumes, where the triplet repeats a slice
    idx = [11, 0, 5, 12, 23]
    x, gt = _training_batch(samples, idx)
    assert x.dtype == np.float64
    assert x.shape == (3 * len(idx), 1, 16, 16)
    for k, i in enumerate(idx):
        stack, mask = triplets[i]
        for step in range(3):
            np.testing.assert_array_equal(x[step * len(idx) + k, 0], stack[step])
        np.testing.assert_array_equal(gt[k], mask)


def test_training_holds_no_copy_of_the_training_voxels():
    rng = rngmod.stream(112, "memory")
    dataset = {}
    for vid in ("a", "b", "c", "d", "v"):
        vox = rng.random((32, 64, 64), dtype=np.float32)
        dataset[vid] = (Volume(vox), MaskVolume((vox > 0.9).astype(np.uint8)))
    fold = FoldSpec(0, ["a", "b", "c", "d"], ["v"], [])
    voxel_bytes = sum(dataset[vid][0].voxels.nbytes for vid in fold.train)
    tiny = ModelConfig(num_scales=1, layers_per_dense_block=1, growth_rate=2,
                       first_conv_filters=2, convlstm_hidden=2, dropout_p=0.0)
    held = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        train(fold, dataset, tiny, TrainConfig(epochs=1, batch_size=2, seed=3),
              sink=lambda *_: held.append(tracemalloc.get_traced_memory()[0] - base))
    finally:
        tracemalloc.stop()
    assert len(held) == 1
    assert held[0] < voxel_bytes


# ---------------------------------------------------------------------------
# prediction


def test_predict_dims_and_determinism(tmp_path):
    dataset, folds = phantom_dataset(106)
    tcfg = TrainConfig(epochs=1, lr=1e-3, batch_size=6, seed=2)
    ckpt, _ = run_small(dataset, folds, tcfg)
    vol, _ = dataset[folds[0].test[0]]
    pred = predict(ckpt, vol)
    assert pred.dims == vol.dims

    path = str(tmp_path / "ck.msckpt")
    save_checkpoint(ckpt, path)
    again = predict(load_checkpoint(path), vol)
    np.testing.assert_array_equal(again.labels, pred.labels)


def test_predict_resolves_exact_ties_to_background():
    params = build_model(MINI)
    params.head.w.data[:] = 0.0
    params.head.b.data[:] = 0.0
    vol = Volume(rngmod.stream(63, "tie").random((4, 16, 16), dtype=np.float32))
    pred = predict_with_params(params, vol)
    assert pred.labels.sum() == 0


# Centers per decode that the chunk tests below set through PREDICT_PIXELS,
# so that their depths cover several chunks at any slice area.
CHUNK = 4


def chunk_centers(monkeypatch, h, w):
    """Make volume inference on H x W slices decode CHUNK centers at a time."""
    monkeypatch.setattr(train_module, "PREDICT_PIXELS", CHUNK * h * w)


@pytest.mark.parametrize("variant", range(4), ids=["plain", "clstm", "sa", "sa_clstm"])
@pytest.mark.parametrize("depth", [1, 2, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_predict_batches_match_per_triplet_forward(depth, variant, monkeypatch):
    # The depths cover one slice, one partial and one full chunk of CHUNK
    # centers, a trailing one-center chunk whose triplet needs no new
    # encoding, and a third chunk. The variants without the ConvLSTM decode
    # from the center step alone.
    chunk_centers(monkeypatch, 16, 16)
    params = build_model(ablation_variants(MINI)[variant])
    vol = Volume(rngmod.stream(64, "batch").random((depth, 16, 16), dtype=np.float32))
    msk = MaskVolume(np.zeros(vol.dims, dtype=np.uint8))
    stacks = [Tensor(stack[:, None].astype(np.float64)) for stack, _ in make_triplets(vol, msk)]
    # Shift the lesion logit so that about half the pixels come out lesion.
    probe = forward(params, stacks[0], "eval").data
    params.head.b.data[1] += np.median(np.log(probe[:, 0]) - np.log(probe[:, 1]))
    pred = predict_with_params(params, vol)
    assert 0 < pred.labels.sum() < pred.labels.size
    for i, stack in enumerate(stacks):
        prob = forward(params, stack, "eval").data
        np.testing.assert_array_equal(
            pred.labels[i], np.argmax(prob[0], axis=0).astype(np.uint8), err_msg=f"slice {i}"
        )


def test_predict_encodes_each_slice_once_within_a_bounded_window(monkeypatch):
    chunk_centers(monkeypatch, 32, 32)
    depth = 3 * CHUNK + 2
    params = build_model(MINI)
    vox = rngmod.stream(65, "once").random((depth, 32, 32), dtype=np.float32)
    skips, db = encode(params, Tensor(vox[:1, None].astype(np.float64)), "eval")
    slice_bytes = sum(t.data.nbytes for t in skips + [db])
    encoded, held = [], []

    def recording(params, x, mode, rng=None):
        # the slices are distinct, so each input row names its slice
        for row in x.data[:, 0]:
            encoded.append(int(np.flatnonzero((vox == row).all(axis=(1, 2)))[0]))
        held.append(tracemalloc.get_traced_memory()[0] - base)
        return encode(params, x, mode, rng)

    monkeypatch.setattr(train_module, "encode", recording)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        predict_with_params(params, Volume(vox))
    finally:
        tracemalloc.stop()
    assert encoded == list(range(depth))
    # Before each encoding, the window of earlier features that is still
    # alive spans at most CHUNK + 2 slices; the slack covers the new
    # slices' float64 input and the output mask.
    assert len(held) == 4
    assert max(held) < (CHUNK + 3) * slice_bytes


def test_predict_decodes_center_skips_from_the_encoded_window(monkeypatch):
    # two chunks; the first decodes from the first encoding's features as
    # they are, and no chunk copies its centers' skips out of the window
    chunk_centers(monkeypatch, 16, 16)
    depth = CHUNK + 3
    params = build_model(MINI)
    vox = rngmod.stream(66, "views").random((depth, 16, 16), dtype=np.float32)
    encoded, decoded = [], []

    def encoding(params, x, mode, rng=None):
        out = encode(params, x, mode, rng)
        encoded.append([t.data for t in out[0]])
        return out

    def decoding(params, center_skips, steps, mode, rng=None):
        decoded.append([t.data for t in center_skips])
        return decode(params, center_skips, steps, mode, rng)

    monkeypatch.setattr(train_module, "encode", encoding)
    monkeypatch.setattr(train_module, "decode", decoding)
    predict_with_params(params, Volume(vox))
    assert len(decoded) == 2
    for skip, feature in zip(decoded[0], encoded[0]):
        assert np.shares_memory(skip, feature)
    for skips in decoded:
        assert not any(skip.flags.owndata for skip in skips)


@pytest.mark.parametrize("depth, side, sizes", [(3, 160, [1, 1, 1]), (12, 32, [12])])
def test_predict_chunk_follows_slice_area(depth, side, sizes, monkeypatch):
    # the paper's 160x160 crop decodes one center at a time, and a small
    # volume of 32x32 slices decodes in one call
    params = build_model(MINI)
    vox = rngmod.stream(67, "area").random((depth, side, side), dtype=np.float32)
    decoded = []

    def decoding(params, center_skips, steps, mode, rng=None):
        decoded.append(center_skips[0].data.shape[0])
        return decode(params, center_skips, steps, mode, rng)

    monkeypatch.setattr(train_module, "decode", decoding)
    predict_with_params(params, Volume(vox))
    assert decoded == sizes


def test_predict_rejects_bad_geometry():
    params = build_model(MINI)
    with pytest.raises(ShapeError, match="spatial extents"):
        predict_with_params(params, Volume(np.ones((3, 15, 16))))


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_single_volume_aggregate():
    dataset, folds = phantom_dataset(107)
    ckpt, _ = run_small(dataset, folds, TrainConfig(epochs=1, lr=1e-3, batch_size=6, seed=4))
    vid = folds[0].test[0]
    vol, gt = dataset[vid]
    report = evaluate(ckpt, {vid: (vol, gt)})
    assert list(report.per_volume) == [vid]
    row = report.per_volume[vid]
    assert set(row) == {
        "dice", "sensitivity", "specificity", "iou", "ef", "ppv", "npv", "accuracy"
    }
    for name, (mean, sd) in report.aggregates().items():
        assert mean == row[name]
        assert sd == 0.0


def test_evaluate_matches_saved_mask_recomputation(tmp_path):
    dataset, folds = phantom_dataset(108)
    ckpt, _ = run_small(dataset, folds, TrainConfig(epochs=1, lr=1e-3, batch_size=6, seed=6))
    ids = folds[0].val
    report = evaluate(ckpt, {vid: dataset[vid] for vid in ids})
    assert list(report.per_volume) == ids

    for vid in ids:
        vol, gt = dataset[vid]
        pred = predict(ckpt, vol)
        path = str(tmp_path / f"{vid}.msmsk")
        save_mask(pred, path)
        again = compute_all(confusion(load_mask(path), gt))
        assert report.per_volume[vid] == again


def test_evaluate_input_validation():
    dataset, folds = phantom_dataset(109)
    ckpt, _ = run_small(dataset, folds, TrainConfig(epochs=0))
    with pytest.raises(ValueError, match="at least one"):
        evaluate(ckpt, {})


def test_evaluate_predicts_on_the_calling_thread(monkeypatch):
    dataset, folds = phantom_dataset(111)
    ckpt, _ = run_small(dataset, folds, TrainConfig(epochs=0))
    threads = []

    def recording(params, vol):
        threads.append(threading.get_ident())
        return real(params, vol)

    real = train_module.predict_with_params
    monkeypatch.setattr(train_module, "predict_with_params", recording)
    report = evaluate(ckpt, dataset)
    assert list(report.per_volume) == list(dataset)
    assert threads == [threading.get_ident()] * len(dataset)


# ---------------------------------------------------------------------------
# ablation


def test_ablation_grid_shape_and_labels():
    dataset, folds = phantom_dataset(110)
    tcfg = TrainConfig(epochs=1, lr=1e-3, batch_size=8, seed=7)
    rows = run_ablation(folds[1:2], dataset, MINI, tcfg)
    assert [label for label, _, _ in rows] == [
        "FC-DenseNet",
        "FC-DenseNet + C-LSTM",
        "FC-DenseNet + SA",
        "FC-DenseNet + SA + C-LSTM",
    ]
    for _, cells, mean in rows:
        assert len(cells) == 1
        assert all(np.isfinite(c) and 0.0 <= c <= 1.0 for c in cells)
        assert mean == pytest.approx(np.mean(cells))
    with pytest.raises(ValueError, match="at least one fold"):
        run_ablation([], dataset, MINI, tcfg)


@pytest.mark.parametrize("ids,match", [([], "no test volumes"), (["absent"], "not in the dataset")])
def test_ablation_checks_every_test_list_before_training(monkeypatch, ids, match):
    dataset, folds = phantom_dataset(110)
    folds = [folds[0], dataclasses.replace(folds[1], test=ids)]
    monkeypatch.setattr(train_module, "train", lambda *a, **k: pytest.fail("trained first"))
    with pytest.raises(ValueError, match=match):
        run_ablation(folds, dataset, MINI, TrainConfig(epochs=1))


@pytest.mark.parametrize("part", ["train", "val"])
def test_ablation_checks_every_fold_list_before_training(monkeypatch, part):
    dataset, folds = phantom_dataset(110)
    late = dataclasses.replace(folds[1], **{part: getattr(folds[1], part) + ["absent"]})
    monkeypatch.setattr(train_module, "train", lambda *a, **k: pytest.fail("trained first"))
    with pytest.raises(ValueError, match="not in the dataset"):
        run_ablation([folds[0], late], dataset, MINI, TrainConfig(epochs=1))


def test_ablation_checks_every_variant_can_step_before_training(monkeypatch):
    dataset, folds = phantom_dataset(110)
    base = dataclasses.replace(MINI, num_scales=4, use_sa=False)
    monkeypatch.setattr(train_module, "train", lambda *a, **k: pytest.fail("trained first"))
    with pytest.raises(ShapeError, match="use_sa"):
        run_ablation(folds[:1], dataset, base, TrainConfig(epochs=1, batch_size=1))
