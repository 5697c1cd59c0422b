"""Bit-exact model checkpoints.

Layout: magic, version byte, a u32-length-prefixed `key = value` document
(configs, training cursor, rng state, best validation Dice), then one record
per parameter or batchnorm buffer (u16 name length, name, u8 rank, u32 dims,
float64 little-endian payload), and a trailing CRC32 over everything before
it.  Records are walked until exactly four bytes remain.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .config import (
    MODEL_KEYS,
    RETIRED_KEYS,
    TRAIN_KEYS,
    TrainConfig,
    check_retired,
    format_value,
    parse_kv_text,
    parse_value,
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
    epoch: int
    step: int
    rng_state: str
    best_val_dice: float | None
    arrays: dict[str, np.ndarray]


def checkpoint_from_model(
    params: ModelParams,
    train_cfg: TrainConfig,
    epoch: int = 0,
    step: int = 0,
    rng_state: str = "",
    best_val_dice: float | None = None,
) -> Checkpoint:
    return Checkpoint(
        model_cfg=params.cfg,
        train_cfg=train_cfg,
        epoch=epoch,
        step=step,
        rng_state=rng_state,
        best_val_dice=best_val_dice,
        arrays=snapshot_arrays(params),
    )


def restore_into_model(ckpt: Checkpoint) -> ModelParams:
    """Build the model from the stored config and load every array into it."""
    params = build_model(ckpt.model_cfg)
    restore_arrays(params, ckpt.arrays)
    return params


def _doc_text(ckpt: Checkpoint) -> str:
    lines = [
        f"model.{key} = {format_value(getattr(ckpt.model_cfg, key))}"
        for key in MODEL_KEYS
    ]
    lines += [
        f"train.{key} = {format_value(getattr(ckpt.train_cfg, key))}"
        for key in TRAIN_KEYS
    ]
    lines.append(f"cursor.epoch = {ckpt.epoch}")
    lines.append(f"cursor.step = {ckpt.step}")
    lines.append(f"cursor.rng = {ckpt.rng_state}")
    best = "none" if ckpt.best_val_dice is None else repr(float(ckpt.best_val_dice))
    lines.append(f"best.val_dice = {best}")
    return "\n".join(lines) + "\n"


def _parse_doc(text: str, path: str) -> tuple[ModelConfig, TrainConfig, int, int, str, float | None]:
    model_over: dict = {}
    train_over: dict = {}
    cursor = {"epoch": 0, "step": 0, "rng": ""}
    best: float | None = None
    seen: set[str] = set()
    for lineno, key, raw in parse_kv_text(text):
        if key in seen:
            raise ConfigError(f"{path}: checkpoint key {key!r} (line {lineno}) appears twice")
        seen.add(key)
        group, _, field = key.partition(".")
        if group == "model" and field in MODEL_KEYS:
            model_over[field] = parse_value(raw, MODEL_KEYS[field], key, lineno)
        elif group == "train" and field in TRAIN_KEYS:
            train_over[field] = parse_value(raw, TRAIN_KEYS[field], key, lineno)
        elif group in ("model", "train") and field in RETIRED_KEYS:
            check_retired(field, raw, key, lineno)
        elif group == "cursor" and field in ("epoch", "step"):
            cursor[field] = parse_value(raw, int, key, lineno)
        elif group == "cursor" and field == "rng":
            cursor["rng"] = raw
        elif key == "best.val_dice":
            best = None if raw == "none" else parse_value(raw, float, key, lineno)
        else:
            raise ConfigError(f"{path}: unknown checkpoint key {key!r} (line {lineno})")
    mcfg = ModelConfig(**model_over)
    tcfg = TrainConfig(**train_over)
    try:
        mcfg.validate()
        tcfg.validate()
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None
    return mcfg, tcfg, cursor["epoch"], cursor["step"], cursor["rng"], best


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    doc = _doc_text(ckpt).encode("utf-8")
    parts = [MAGIC, _U8.pack(VERSION), _U32.pack(len(doc)), doc]
    for name, arr in ckpt.arrays.items():
        payload = np.ascontiguousarray(arr, dtype="<f8")
        encoded = name.encode("utf-8")
        parts.append(_U16.pack(len(encoded)))
        parts.append(encoded)
        parts.append(_U8.pack(payload.ndim))
        for d in payload.shape:
            parts.append(_U32.pack(d))
        parts.append(payload.tobytes())
    body = b"".join(parts)
    atomic_write_bytes(path, body + _U32.pack(zlib.crc32(body)))


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        raw = fh.read()
    head = len(MAGIC) + 1 + _U32.size
    if len(raw) < head + _U32.size:
        raise FileFormatError(f"{path}: file shorter than the header", code="truncated")
    if raw[: len(MAGIC)] != MAGIC:
        raise FileFormatError(f"{path}: bad magic {raw[:len(MAGIC)]!r}", code="bad-magic")
    version = raw[len(MAGIC)]
    if version != VERSION:
        raise FileFormatError(
            f"{path}: unsupported version {version}, expected {VERSION}",
            code="bad-version",
        )
    stored_crc = _U32.unpack_from(raw, len(raw) - _U32.size)[0]
    if zlib.crc32(raw[: -_U32.size]) != stored_crc:
        raise FileFormatError(f"{path}: CRC mismatch", code="bad-crc")

    (doc_len,) = _U32.unpack_from(raw, len(MAGIC) + 1)
    pos = head
    end = len(raw) - _U32.size
    if pos + doc_len > end:
        raise FileFormatError(f"{path}: config document truncated", code="truncated")
    doc = raw[pos : pos + doc_len].decode("utf-8")
    pos += doc_len

    arrays: dict[str, np.ndarray] = {}
    while pos < end:
        if pos + _U16.size > end:
            raise FileFormatError(f"{path}: record header truncated", code="truncated")
        (name_len,) = _U16.unpack_from(raw, pos)
        pos += _U16.size
        if pos + name_len + _U8.size > end:
            raise FileFormatError(f"{path}: record name truncated", code="truncated")
        name = raw[pos : pos + name_len].decode("utf-8")
        pos += name_len
        rank = raw[pos]
        pos += 1
        if pos + rank * _U32.size > end:
            raise FileFormatError(f"{path}: record dims truncated", code="truncated")
        dims = struct.unpack_from(f"<{rank}I", raw, pos) if rank else ()
        pos += rank * _U32.size
        count = 1
        for d in dims:
            count *= d
        nbytes = 8 * count
        if pos + nbytes > end:
            raise FileFormatError(
                f"{path}: record {name!r} payload truncated", code="truncated"
            )
        arrays[name] = np.frombuffer(raw, dtype="<f8", count=count, offset=pos).reshape(dims).copy()
        pos += nbytes
    if pos != end:
        raise FileFormatError(f"{path}: trailing bytes after records", code="size-mismatch")

    mcfg, tcfg, epoch, step, rng_state, best = _parse_doc(doc, path)
    return Checkpoint(mcfg, tcfg, epoch, step, rng_state, best, arrays)
