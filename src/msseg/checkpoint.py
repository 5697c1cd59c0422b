"""Bit-exact model checkpoints.

Layout: magic, version byte, a u32-length-prefixed `key = value` document
(configs, training cursor, rng state, best validation Dice), then one record
per parameter or batchnorm buffer (u16 name length, UTF-8 name, u8 rank, u32
dims, float64 little-endian payload), and a trailing CRC32 over everything
before it.  Records are walked until exactly four bytes remain.

The document follows a config file's key rules (``config.read_keys``), with
model and training keys under ``model.`` and ``train.``; the other
``Checkpoint`` fields it carries are listed once, in ``_OWN_KEYS``.  Every
refusal is a ``ConfigError`` naming the file.  Damaged bytes raise
``FileFormatError``: "truncated", "bad-magic", "bad-version", "bad-crc",
"bad-utf8" for a document or record name that is not UTF-8, and
"duplicate-record" for a name stored twice.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .config import (
    MODEL_KEYS,
    RETIRED_KEYS,
    TRAIN_KEYS,
    TrainConfig,
    build_configs,
    format_value,
    read_keys,
)
from .data import atomic_write_bytes
from .errors import ConfigError, FileFormatError
from .model import ModelConfig, ModelParams, build_model, restore_arrays, snapshot_arrays

MAGIC = b"MSCKPT1"
VERSION = 1

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


@dataclass
class Checkpoint:
    """Everything needed to rebuild the model and resume or evaluate."""

    model_cfg: ModelConfig
    train_cfg: TrainConfig
    arrays: dict[str, np.ndarray]
    epoch: int = 0
    step: int = 0
    rng_state: str = ""
    best_val_dice: float | None = None


# The document's own keys, after the two configs', in the order it lists
# them: key -> (``Checkpoint`` field, type). Files already written carry
# these names, so a key may be added here but not renamed.
_OWN_KEYS: dict[str, tuple[str, type]] = {
    "cursor.epoch": ("epoch", int),
    "cursor.step": ("step", int),
    "cursor.rng": ("rng_state", str),
    "best.val_dice": ("best_val_dice", float | None),
}


def checkpoint_from_model(params: ModelParams, train_cfg: TrainConfig, **cursor) -> Checkpoint:
    """A checkpoint of ``params`` now; ``cursor`` sets any of ``epoch``,
    ``step``, ``rng_state`` and ``best_val_dice``."""
    return Checkpoint(params.cfg, train_cfg, snapshot_arrays(params), **cursor)


def restore_into_model(ckpt: Checkpoint) -> ModelParams:
    """Build the model from the stored config and load every array into it."""
    params = build_model(ckpt.model_cfg)
    restore_arrays(params, ckpt.arrays)
    return params


def _doc_text(ckpt: Checkpoint) -> str:
    values = {f"model.{k}": getattr(ckpt.model_cfg, k) for k in MODEL_KEYS}
    values.update({f"train.{k}": getattr(ckpt.train_cfg, k) for k in TRAIN_KEYS})
    values.update({key: getattr(ckpt, field) for key, (field, _) in _OWN_KEYS.items()})
    return "".join(f"{k} = {format_value(v)}\n" for k, v in values.items())


# What `_doc_text` writes, as `config.read_keys` reads it back.
_DOC_KEYS: dict[str, type] = {
    **{f"model.{k}": t for k, t in MODEL_KEYS.items()},
    **{f"train.{k}": t for k, t in TRAIN_KEYS.items()},
    **{key: t for key, (_, t) in _OWN_KEYS.items()},
}
_DOC_RETIRED: dict[str, object] = {
    f"{group}.{k}": v for group in ("model", "train") for k, v in RETIRED_KEYS.items()
}


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    """Write ``ckpt`` in the layout above. Each array's buffer is written
    as it is, not copied, so the save holds no second copy of the payload."""
    doc = _doc_text(ckpt).encode("utf-8")
    chunks: list[bytes | np.ndarray] = [MAGIC, _U8.pack(VERSION), _U32.pack(len(doc)), doc]
    for name, arr in ckpt.arrays.items():
        payload = np.ascontiguousarray(arr, dtype="<f8")
        encoded = name.encode("utf-8")
        dims = struct.pack(f"<B{payload.ndim}I", payload.ndim, *payload.shape)
        chunks += [_U16.pack(len(encoded)) + encoded + dims, payload]
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    atomic_write_bytes(path, *chunks, _U32.pack(crc))


def load_checkpoint(path: str) -> Checkpoint:
    """Read ``path`` into one buffer; each returned array is a view of its
    record's payload there, so the load holds no second copy of it."""
    with open(path, "rb") as fh:
        raw = bytearray(os.fstat(fh.fileno()).st_size)
        got = fh.readinto(raw)
    if got < len(raw):
        raise FileFormatError(f"{path}: read {got} of {len(raw)} bytes", code="truncated")
    if len(raw) < len(MAGIC) + 1 + 2 * _U32.size:
        raise FileFormatError(f"{path}: file shorter than the header", code="truncated")
    if raw[: len(MAGIC)] != MAGIC:
        raise FileFormatError(f"{path}: bad magic {bytes(raw[:len(MAGIC)])!r}", code="bad-magic")
    version = raw[len(MAGIC)]
    if version != VERSION:
        raise FileFormatError(
            f"{path}: unsupported version {version}, expected {VERSION}",
            code="bad-version",
        )
    body = memoryview(raw)[: -_U32.size]
    if zlib.crc32(body) != _U32.unpack_from(raw, len(body))[0]:
        raise FileFormatError(f"{path}: CRC mismatch", code="bad-crc")

    pos = len(MAGIC) + 1

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if pos + n > len(body):
            raise FileFormatError(f"{path}: {what} truncated", code="truncated")
        pos += n
        return body[pos - n : pos]

    def text(n: int, what: str) -> str:
        try:
            return str(take(n, what), "utf-8")
        except UnicodeDecodeError:
            raise FileFormatError(f"{path}: {what} is not UTF-8", code="bad-utf8") from None

    doc = text(_U32.unpack(take(_U32.size, "header"))[0], "config document")
    arrays: dict[str, np.ndarray] = {}
    while pos < len(body):
        name = text(_U16.unpack(take(_U16.size, "record header"))[0], "record name")
        if name in arrays:
            raise FileFormatError(
                f"{path}: record {name!r} is stored twice", code="duplicate-record"
            )
        (rank,) = take(1, f"record {name!r} rank")
        dims = struct.unpack(f"<{rank}I", take(rank * _U32.size, f"record {name!r} dims"))
        payload = take(8 * math.prod(dims), f"record {name!r} payload")
        arrays[name] = np.frombuffer(payload, dtype="<f8").reshape(dims)

    try:
        values = read_keys(doc, _DOC_KEYS, _DOC_RETIRED)
        mcfg, tcfg = build_configs(values, "model.", "train.")
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None
    cursor = {field: values[key] for key, (field, _) in _OWN_KEYS.items() if key in values}
    return Checkpoint(mcfg, tcfg, arrays, **cursor)
