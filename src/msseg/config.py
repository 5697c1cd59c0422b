"""Line-oriented `key = value` configuration for model and training settings.

Unknown keys are hard errors: a typo in a hyperparameter name should stop the
run, not silently train with defaults.  The single `seed` key feeds both the
model initialization and the training shuffle.  Both configs check their
values when made, so a constructor call, ``dataclasses.replace``, a config
file and a checkpoint document refuse a bad value with the same message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import get_type_hints

from .errors import ConfigError
from .model import ModelConfig


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    lr: float = 1e-4
    weight_decay: float = 1e-4
    batch_size: int = 4
    seed: int = 0
    eps_dice: float = 1e-6

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0 <= self.lr < math.inf:
            raise ValueError(f"lr must be finite and >= 0, got {self.lr!r}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.eps_dice < math.inf:
            raise ValueError(f"eps_dice must be finite and positive, got {self.eps_dice!r}")


# The schema is the two dataclasses' fields, in declaration order, which is
# also the order a checkpoint document lists them in.
MODEL_KEYS: dict[str, type] = get_type_hints(ModelConfig)
TRAIN_KEYS: dict[str, type] = get_type_hints(TrainConfig)

# Keys that older config files and checkpoints carry, each with the one value
# that ever worked: the binary lesion/background head and argmax labelling.
# That value is accepted and ignored; any other is refused.
RETIRED_KEYS: dict[str, object] = {
    "num_classes": 2,
    "threshold": "argmax",
}


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    return "none" if v is None else str(v)


def parse_value(raw: str, typ):
    """``raw`` as a ``typ``: bool, int, float, str, or ``float | None``
    (written ``none``)."""
    if typ == float | None:
        return None if raw == "none" else parse_value(raw, float)
    if typ is bool:
        if raw in ("true", "false"):
            return raw == "true"
        raise ValueError(f"expected true or false, got {raw!r}")
    if typ is str:
        return raw
    try:
        return typ(raw)
    except ValueError:
        raise ValueError(f"expected {typ.__name__}, got {raw!r}") from None


def read_keys(text: str, keys: dict[str, type], retired: dict[str, object]) -> dict:
    """Parse ``key = value`` lines (blank lines and ``#`` comments skipped)
    into a dict of typed values.

    Each key must be in ``keys`` (its type) or ``retired`` (its one legal
    value, which is checked and then kept like any other value) and may
    appear once.  Every refusal is a ``ConfigError`` naming the key and line.
    """
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip()[:1] in ("", "#"):
            continue
        key, sep, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        where = f"key {key!r} (line {lineno})"
        if key in values:
            raise ConfigError(f"{where} appears twice")
        if key not in keys and key not in retired:
            raise ConfigError(f"unknown {where}")
        try:
            values[key] = parse_value(raw, keys[key] if key in keys else type(retired[key]))
        except ValueError as e:
            raise ConfigError(f"{where}: {e}") from None
        if key in retired and values[key] != retired[key]:
            raise ConfigError(
                f"{where} is retired; only {format_value(retired[key])!r} is accepted, "
                f"got {raw!r}"
            )
    return values


def build_configs(
    values: dict, model_prefix: str, train_prefix: str
) -> tuple[ModelConfig, TrainConfig]:
    """Make both configs from ``values`` read under the given key prefixes;
    absent keys keep their defaults."""
    def fields(keys: dict, prefix: str) -> dict:
        return {k: values[prefix + k] for k in keys if prefix + k in values}

    mcfg = ModelConfig(**fields(MODEL_KEYS, model_prefix))
    tcfg = TrainConfig(**fields(TRAIN_KEYS, train_prefix))
    return mcfg, tcfg


def parse_config_text(text: str) -> tuple[ModelConfig, TrainConfig]:
    return build_configs(read_keys(text, {**MODEL_KEYS, **TRAIN_KEYS}, RETIRED_KEYS), "", "")


def load_config(path: str) -> tuple[ModelConfig, TrainConfig]:
    """Parse a config file; every refusal is a ``ConfigError`` that names
    ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None
