"""Config parsing and bit-exact checkpoint round trips."""

import struct
import zlib

import numpy as np
import pytest

from msseg import rng as rngmod
from msseg.checkpoint import (
    Checkpoint,
    checkpoint_from_model,
    load_checkpoint,
    restore_into_model,
    save_checkpoint,
)
from msseg.config import TrainConfig, parse_config_text
from msseg.errors import ConfigError, FileFormatError
from msseg.model import ModelConfig, build_model, forward, named_tensors
from msseg.tensor import Tensor

MINI = ModelConfig(
    num_scales=2,
    layers_per_dense_block=2,
    growth_rate=4,
    first_conv_filters=8,
    convlstm_hidden=6,
    dropout_p=0.0,
    seed=21,
)


# ---------------------------------------------------------------------------
# config


def test_empty_config_gives_defaults():
    mcfg, tcfg = parse_config_text("")
    assert mcfg == ModelConfig()
    assert tcfg == TrainConfig()


def test_config_overrides_and_shared_seed():
    text = """
# comment line

growth_rate = 7
use_sa = false
lr = 0.001
seed = 42
threshold = argmax
"""
    mcfg, tcfg = parse_config_text(text)
    assert mcfg.growth_rate == 7
    assert mcfg.use_sa is False
    assert tcfg.lr == 0.001
    assert mcfg.seed == 42 and tcfg.seed == 42
    assert mcfg.num_scales == ModelConfig().num_scales


def test_config_errors_name_key_and_line():
    with pytest.raises(ConfigError, match="'growht_rate' \\(line 2\\)"):
        parse_config_text("\ngrowht_rate = 12\n")
    with pytest.raises(ConfigError, match="'epochs' \\(line 1\\).*int"):
        parse_config_text("epochs = soon\n")
    with pytest.raises(ConfigError, match="'use_sa'.*true or false"):
        parse_config_text("use_sa = yes\n")
    with pytest.raises(ConfigError, match="appears twice"):
        parse_config_text("lr = 0.1\nlr = 0.2\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words\n")


def test_config_validation_propagates():
    with pytest.raises(ValueError, match="lr"):
        parse_config_text("lr = -1.0\n")
    for text in ("lr = nan", "lr = inf", "eps_dice = nan", "weight_decay = inf"):
        with pytest.raises(ValueError, match=f"{text.split()[0]} must be finite"):
            parse_config_text(text + "\n")


def test_retired_keys_accept_only_their_one_value():
    mcfg, tcfg = parse_config_text("num_classes = 2\nthreshold = argmax\n")
    assert (mcfg, tcfg) == (ModelConfig(), TrainConfig())
    with pytest.raises(ConfigError, match="'num_classes' \\(line 2\\)"):
        parse_config_text("lr = 0.1\nnum_classes = 3\n")
    with pytest.raises(ConfigError, match="'threshold'"):
        parse_config_text("threshold = fixed\n")
    with pytest.raises(ConfigError, match="'num_classes'.*int"):
        parse_config_text("num_classes = two\n")


# ---------------------------------------------------------------------------
# checkpoints


def make_checkpoint():
    params = build_model(MINI)
    gen = rngmod.stream(50, "trainer")
    gen.random(17)
    return params, checkpoint_from_model(
        params,
        TrainConfig(epochs=2, seed=21),
        epoch=2,
        step=57,
        rng_state=rngmod.state_to_text(gen),
        best_val_dice=0.8125,
    )


def test_checkpoint_round_trip(tmp_path):
    params, ckpt = make_checkpoint()
    path = str(tmp_path / "model.msckpt")
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    assert back.model_cfg == ckpt.model_cfg
    assert back.train_cfg == ckpt.train_cfg
    assert (back.epoch, back.step) == (2, 57)
    assert back.best_val_dice == 0.8125
    assert list(back.arrays) == list(ckpt.arrays)
    for name, arr in ckpt.arrays.items():
        assert back.arrays[name].tobytes() == arr.tobytes(), name

    gen = rngmod.state_from_text(back.rng_state)
    ref = rngmod.stream(50, "trainer")
    ref.random(17)
    np.testing.assert_array_equal(gen.random(5), ref.random(5))


def test_checkpoint_restores_forward_bit_identically(tmp_path):
    params, ckpt = make_checkpoint()
    path = str(tmp_path / "model.msckpt")
    save_checkpoint(ckpt, path)
    x = Tensor(rngmod.stream(51, "x").standard_normal((3, 1, 32, 32)))
    want = forward(params, x, "eval").data
    rebuilt = restore_into_model(load_checkpoint(path))
    np.testing.assert_array_equal(forward(rebuilt, x, "eval").data, want)


def test_checkpoint_save_load_save_byte_identical(tmp_path):
    _, ckpt = make_checkpoint()
    p1 = tmp_path / "a.msckpt"
    p2 = tmp_path / "b.msckpt"
    save_checkpoint(ckpt, str(p1))
    save_checkpoint(load_checkpoint(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_none_best_round_trips(tmp_path):
    params = build_model(MINI)
    ckpt = checkpoint_from_model(params, TrainConfig())
    path = str(tmp_path / "init.msckpt")
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    assert back.best_val_dice is None
    assert (back.epoch, back.step) == (0, 0)


def test_checkpoint_corruption_codes(tmp_path):
    _, ckpt = make_checkpoint()
    path = tmp_path / "c.msckpt"
    save_checkpoint(ckpt, str(path))
    raw = bytearray(path.read_bytes())

    bad = bytearray(raw)
    bad[0] ^= 0xFF
    path.write_bytes(bytes(bad))
    with pytest.raises(FileFormatError) as exc:
        load_checkpoint(str(path))
    assert exc.value.code == "bad-magic"

    bad = bytearray(raw)
    bad[7] = 3
    path.write_bytes(bytes(bad))
    with pytest.raises(FileFormatError) as exc:
        load_checkpoint(str(path))
    assert exc.value.code in ("bad-version", "bad-crc")

    bad = bytearray(raw)
    bad[len(bad) // 2] ^= 0x01
    path.write_bytes(bytes(bad))
    with pytest.raises(FileFormatError) as exc:
        load_checkpoint(str(path))
    assert exc.value.code == "bad-crc"

    path.write_bytes(bytes(raw[:6]))
    with pytest.raises(FileFormatError) as exc:
        load_checkpoint(str(path))
    assert exc.value.code == "truncated"


def test_restore_rejects_divergent_records(tmp_path):
    _, ckpt = make_checkpoint()

    missing = Checkpoint(**{**ckpt.__dict__, "arrays": dict(ckpt.arrays)})
    dropped = next(iter(missing.arrays))
    del missing.arrays[dropped]
    with pytest.raises(ValueError, match=f"missing parameter '{dropped}'"):
        restore_into_model(missing)

    extra = Checkpoint(**{**ckpt.__dict__, "arrays": dict(ckpt.arrays)})
    extra.arrays["head.extra"] = np.zeros(3)
    with pytest.raises(ValueError, match="unexpected record 'head.extra'"):
        restore_into_model(extra)

    warped = Checkpoint(**{**ckpt.__dict__, "arrays": dict(ckpt.arrays)})
    warped.arrays["stem.w"] = warped.arrays["stem.w"][:, :, :2, :2].copy()
    with pytest.raises(ValueError, match="'stem.w' has shape"):
        restore_into_model(warped)


def write_with_doc(path, ckpt, edit):
    """Save `ckpt` with its config document passed through `edit`, fixing
    the length prefix and the CRC."""
    save_checkpoint(ckpt, str(path))
    raw = path.read_bytes()
    (doc_len,) = struct.unpack_from("<I", raw, 8)
    doc = edit(raw[12 : 12 + doc_len].decode("utf-8")).encode("utf-8")
    body = raw[:8] + struct.pack("<I", len(doc)) + doc + raw[12 + doc_len : -4]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def test_checkpoint_rejects_unknown_doc_key(tmp_path):
    _, ckpt = make_checkpoint()
    path = tmp_path / "d.msckpt"
    write_with_doc(path, ckpt, lambda doc: doc + "model.bogus = 1\n")
    with pytest.raises(ConfigError, match="model.bogus"):
        load_checkpoint(str(path))


def test_checkpoint_with_retired_keys_loads_bit_identically(tmp_path):
    params, ckpt = make_checkpoint()
    path = tmp_path / "old.msckpt"
    # the document as older versions wrote it
    write_with_doc(path, ckpt, lambda doc: doc.replace(
        "model.use_sa", "model.num_classes = 2\nmodel.use_sa"
    ).replace("cursor.epoch", "train.threshold = argmax\ncursor.epoch"))
    back = load_checkpoint(str(path))
    assert (back.model_cfg, back.train_cfg) == (ckpt.model_cfg, ckpt.train_cfg)
    x = Tensor(rngmod.stream(52, "x").standard_normal((3, 1, 32, 32)))
    want = forward(params, x, "eval").data
    np.testing.assert_array_equal(forward(restore_into_model(back), x, "eval").data, want)

    for line in ("model.num_classes = 3", "train.threshold = fixed"):
        write_with_doc(path, ckpt, lambda doc: doc + line + "\n")
        with pytest.raises(ConfigError, match=line.split()[0]):
            load_checkpoint(str(path))


def test_checkpoint_doc_is_validated(tmp_path):
    _, ckpt = make_checkpoint()
    path = tmp_path / "v.msckpt"
    for key, bad in (("train.lr", "nan"), ("model.num_scales", "0")):
        write_with_doc(path, ckpt, lambda doc: "\n".join(
            f"{key} = {bad}" if line.startswith(key + " ") else line
            for line in doc.splitlines()
        ) + "\n")
        with pytest.raises(ValueError, match=key.split(".")[1]):
            load_checkpoint(str(path))
