"""Config parsing and bit-exact checkpoint round trips."""

import dataclasses
import math
import pathlib
import re
import struct
import tempfile
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msseg import rng as rngmod
from msseg.checkpoint import (
    Checkpoint,
    _doc_text,
    checkpoint_from_model,
    load_checkpoint,
    restore_into_model,
    save_checkpoint,
)
from msseg.config import TrainConfig, format_value, load_config, parse_config_text
from msseg.errors import ConfigError, FileFormatError
from msseg.model import ModelConfig, build_model, forward
from msseg.tensor import Tensor

import oracles

MINI = dataclasses.replace(oracles.MINI, seed=21)


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


def test_load_config_errors_name_the_file(tmp_path):
    path = tmp_path / "bad.cfg"
    for text in ("lr = -1\n", "growht_rate = 4\n", "epochs = soon\n"):
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            load_config(str(path))


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

    stretched = Checkpoint(**{**ckpt.__dict__, "arrays": dict(ckpt.arrays)})
    buffer = [name for name in stretched.arrays if name.endswith(".running_var")][-1]
    stretched.arrays[buffer] = np.ones(stretched.arrays[buffer].size + 1)
    with pytest.raises(ValueError, match=rf"'{buffer}' has shape \(\d+,\), the model expects"):
        restore_into_model(stretched)


def seal(path, body):
    """Write `body` followed by its CRC32, as a checkpoint ends."""
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def write_with_doc(path, ckpt, edit):
    """Save `ckpt` with its config document passed through `edit`, fixing
    the length prefix and the CRC.  A surrogate escape such as "\\udcff" in
    the edited text becomes that raw byte."""
    save_checkpoint(ckpt, str(path))
    raw = path.read_bytes()
    (doc_len,) = struct.unpack_from("<I", raw, 8)
    doc = edit(raw[12 : 12 + doc_len].decode("utf-8")).encode("utf-8", "surrogateescape")
    seal(path, raw[:8] + struct.pack("<I", len(doc)) + doc + raw[12 + doc_len : -4])


def record_bytes(name: bytes, arr) -> bytes:
    """One checkpoint record: u16 name length, name, u8 rank, u32 dims, payload."""
    return (
        struct.pack("<H", len(name))
        + name
        + struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape)
        + np.ascontiguousarray(arr, dtype="<f8").tobytes()
    )


def test_checkpoint_save_streams_its_arrays(tmp_path):
    _, ckpt = make_checkpoint()
    path = tmp_path / "model.msckpt"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        save_checkpoint(ckpt, str(path))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # a save that joins the records, or copies one array, holds the payload again
    assert peak < 0.25 * sum(a.nbytes for a in ckpt.arrays.values())
    doc = _doc_text(ckpt).encode("utf-8")
    body = b"MSCKPT1\x01" + struct.pack("<I", len(doc)) + doc + b"".join(
        record_bytes(name.encode("utf-8"), arr) for name, arr in ckpt.arrays.items()
    )
    assert path.read_bytes() == body + struct.pack("<I", zlib.crc32(body))


def test_checkpoint_load_holds_the_payload_once(tmp_path):
    # 3.6 MB over the miniature's 182 records, so their fixed cost of about
    # 0.6 KB each is 3% of it
    wide = dataclasses.replace(MINI, growth_rate=12, first_conv_filters=24, convlstm_hidden=24)
    ckpt = checkpoint_from_model(build_model(wide), TrainConfig())
    path = tmp_path / "model.msckpt"
    save_checkpoint(ckpt, str(path))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loaded = load_checkpoint(str(path))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the records are views of the one read buffer; a read then a copy of
    # each record, or a second read, holds the payload twice
    assert peak < 1.1 * sum(a.nbytes for a in ckpt.arrays.values())
    assert loaded.arrays.keys() == ckpt.arrays.keys()
    for name, arr in ckpt.arrays.items():
        assert loaded.arrays[name].tobytes() == arr.tobytes()


def test_checkpoint_refuses_repeated_record(tmp_path):
    _, ckpt = make_checkpoint()
    path = tmp_path / "dup.msckpt"
    save_checkpoint(ckpt, str(path))
    # a CRC-valid file whose last record repeats a name with other values,
    # so a silent last-wins load would change the head bias
    seal(path, path.read_bytes()[:-4] + record_bytes(b"head.b", np.full(2, 7.0)))
    with pytest.raises(FileFormatError, match="'head.b'") as err:
        load_checkpoint(str(path))
    assert err.value.code == "duplicate-record"
    assert str(err.value).startswith(f"{path}: ")


def test_checkpoint_refuses_non_utf8_text(tmp_path):
    _, ckpt = make_checkpoint()
    path = tmp_path / "bytes.msckpt"
    write_with_doc(path, ckpt, lambda doc: doc.replace("cursor.rng = ", "cursor.rng = \udcff"))
    with pytest.raises(FileFormatError, match="config document is not UTF-8") as err:
        load_checkpoint(str(path))
    assert (err.value.code, str(err.value).split(": ")[0]) == ("bad-utf8", str(path))

    save_checkpoint(ckpt, str(path))
    seal(path, path.read_bytes()[:-4] + record_bytes(b"head.\xff", np.zeros(2)))
    with pytest.raises(FileFormatError, match="record name is not UTF-8") as err:
        load_checkpoint(str(path))
    assert (err.value.code, str(err.value).split(": ")[0]) == ("bad-utf8", str(path))


def test_checkpoint_truncation_names_what_ran_short(tmp_path):
    _, ckpt = make_checkpoint()
    path = tmp_path / "short.msckpt"
    save_checkpoint(ckpt, str(path))
    body = path.read_bytes()[:-4]
    name, arr = list(ckpt.arrays.items())[-1]
    start = len(body) - len(record_bytes(name.encode(), arr))
    after_name = start + 2 + len(name)
    cuts = {
        12 + 5: "config document truncated",
        start + 1: "record header truncated",
        start + 3: "record name truncated",
        after_name: f"record '{name}' rank truncated",
        after_name + 2: f"record '{name}' dims truncated",
        len(body) - 1: f"record '{name}' payload truncated",
    }
    for cut, what in cuts.items():
        seal(path, body[:cut])
        with pytest.raises(FileFormatError, match=re.escape(f"{path}: {what}")) as err:
            load_checkpoint(str(path))
        assert err.value.code == "truncated"


def test_checkpoint_rejects_unknown_doc_key(tmp_path):
    _, ckpt = make_checkpoint()
    path = tmp_path / "d.msckpt"
    write_with_doc(path, ckpt, lambda doc: doc + "model.bogus = 1\n")
    with pytest.raises(ConfigError, match="model.bogus"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_repeated_doc_key(tmp_path):
    _, ckpt = make_checkpoint()
    path = tmp_path / "twice.msckpt"
    lineno = len(_doc_text(ckpt).splitlines()) + 1
    for line in ("model.num_scales = 2", "cursor.epoch = 4"):
        # the repeat comes last, so a silent last-wins parse would keep it
        write_with_doc(path, ckpt, lambda doc: doc + line + "\n")
        key = line.split()[0]
        with pytest.raises(ConfigError, match=rf"'{key}' \(line {lineno}\) appears twice") as err:
            load_checkpoint(str(path))
        assert str(err.value).startswith(f"{path}: ")


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
    for key, bad in (
        ("train.lr", "nan"),
        ("model.num_scales", "0"),
        ("cursor.epoch", "soon"),
        ("best.val_dice", "high"),
    ):
        write_with_doc(path, ckpt, lambda doc: "\n".join(
            f"{key} = {bad}" if line.startswith(key + " ") else line
            for line in doc.splitlines()
        ) + "\n")
        with pytest.raises(ConfigError, match=key.split(".")[1]) as err:
            load_checkpoint(str(path))
        assert str(err.value).startswith(f"{path}: ")


# Refusal lines as a config file writes them, each with the prefix that a
# checkpoint document puts on its key.  Both files end in "epochs = 2" and
# then the line; the checkpoint document first drops its own lines for those
# two keys.  Every refusal the reader makes names the file, the key and the
# line; a validation refusal names the file and the field, as no one line is
# at fault.
REFUSAL_LINES = [
    ("epochs = 3", "train.", "appears twice"),
    ("growht_rate = 4", "model.", "unknown key"),
    ("growth_rate = x", "model.", "expected int, got 'x'"),
    ("use_sa = yes", "model.", "expected true or false, got 'yes'"),
    ("num_classes = 3", "model.", "is retired; only '2' is accepted, got '3'"),
    ("lr = nan", "train.", "lr must be finite"),
]


@pytest.mark.parametrize("line, prefix, says", REFUSAL_LINES)
def test_config_and_checkpoint_refuse_alike(tmp_path, line, prefix, says):
    key = line.split()[0]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs = 2\n" + line + "\n")
    _, ckpt = make_checkpoint()
    kept = [
        old for old in _doc_text(ckpt).splitlines()
        if old.split()[0] not in ("train.epochs", prefix + key)
    ]
    ck = tmp_path / "bad.msckpt"
    write_with_doc(ck, ckpt, lambda doc: "\n".join(kept + ["train.epochs = 2", prefix + line]))
    for path, load, shown, lineno in (
        (cfg, load_config, key, 2),
        (ck, load_checkpoint, prefix + key, len(kept) + 2),
    ):
        with pytest.raises(ConfigError, match=re.escape(says)) as err:
            load(str(path))
        msg = str(err.value)
        assert msg.startswith(f"{path}: "), msg
        if not says.startswith("lr "):
            assert f"key {shown!r} (line {lineno})" in msg, msg


def test_checkpoint_document_text_is_pinned():
    # Files already written carry these keys in this order with these
    # prefixes and value spellings; a reader must keep accepting them.
    ckpt = Checkpoint(
        model_cfg=dataclasses.replace(MINI, use_clstm=False),
        train_cfg=TrainConfig(epochs=2, lr=0.001, seed=21),
        arrays={},
        epoch=2,
        step=57,
        rng_state="0,0,0,0;5280826718281506501,18288271643785651914;4;0,0,0,0;0;0",
        best_val_dice=0.8125,
    )
    assert _doc_text(ckpt) == """\
model.num_scales = 2
model.layers_per_dense_block = 2
model.growth_rate = 4
model.first_conv_filters = 8
model.convlstm_hidden = 6
model.dropout_p = 0.0
model.use_sa = true
model.use_clstm = false
model.seed = 21
train.epochs = 2
train.lr = 0.001
train.weight_decay = 0.0001
train.batch_size = 4
train.seed = 21
train.eps_dice = 1e-06
cursor.epoch = 2
cursor.step = 57
cursor.rng = 0,0,0,0;5280826718281506501,18288271643785651914;4;0,0,0,0;0;0
best.val_dice = 0.8125
"""
    ckpt.best_val_dice = None
    assert _doc_text(ckpt).endswith("\nbest.val_dice = none\n")


# ---------------------------------------------------------------------------
# every numeric setting's range, wherever a config is made

_BELOW_ONE = st.integers(max_value=0)
_NEGATIVE = st.floats(max_value=-5e-324)  # below zero, where -0.0 is zero
_NOT_FINITE = st.sampled_from([math.nan, math.inf])

# field -> (config class, out-of-range values, the refusal for a value v).
# Each `seed` takes any int, so it has no out-of-range value.
OUT_OF_RANGE = {
    "num_scales": (ModelConfig, _BELOW_ONE, "num_scales must be >= 1, got {v}"),
    "layers_per_dense_block": (
        ModelConfig, _BELOW_ONE, "layers_per_dense_block must be >= 1, got {v}"
    ),
    **{
        field: (ModelConfig, _BELOW_ONE,
                "growth_rate, first_conv_filters, convlstm_hidden must be >= 1")
        for field in ("growth_rate", "first_conv_filters", "convlstm_hidden")
    },
    "dropout_p": (
        ModelConfig,
        _NEGATIVE | st.floats(min_value=1.0) | st.just(math.nan),
        "dropout_p must be in [0, 1), got {v}",
    ),
    "epochs": (TrainConfig, st.integers(max_value=-1), "epochs must be >= 0"),
    "lr": (TrainConfig, _NEGATIVE | _NOT_FINITE, "lr must be finite and >= 0, got {v!r}"),
    "weight_decay": (
        TrainConfig, _NEGATIVE | _NOT_FINITE, "weight_decay must be finite and >= 0, got {v!r}"
    ),
    "batch_size": (TrainConfig, _BELOW_ONE, "batch_size must be >= 1"),
    "eps_dice": (
        TrainConfig,
        st.floats(max_value=0.0) | _NOT_FINITE,
        "eps_dice must be finite and positive, got {v!r}",
    ),
}


@st.composite
def out_of_range(draw):
    field = draw(st.sampled_from(sorted(OUT_OF_RANGE)))
    cls, values, says = OUT_OF_RANGE[field]
    v = draw(values)
    return cls, field, v, says.format(v=v)


@settings(max_examples=200, deadline=None)
@given(out_of_range())
def test_every_out_of_range_setting_is_refused_wherever_a_config_is_made(case):
    cls, field, v, says = case
    want = re.escape(says)
    with pytest.raises(ValueError, match=want):
        cls(**{field: v})
    with pytest.raises(ValueError, match=want):
        dataclasses.replace(cls(), **{field: v})
    with pytest.raises(ValueError, match=want):
        parse_config_text(f"{field} = {format_value(v)}\n")

    key = ("model." if cls is ModelConfig else "train.") + field
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "edited.msckpt"
        write_with_doc(path, make_checkpoint()[1], lambda doc: "".join(
            f"{key} = {format_value(v)}\n" if line.split()[0] == key else line + "\n"
            for line in doc.splitlines()
        ))
        with pytest.raises(ConfigError, match=want) as err:
            load_checkpoint(str(path))
    assert str(err.value).startswith(f"{path}: ")

    if cls is ModelConfig:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ModelConfig(), field, v)
