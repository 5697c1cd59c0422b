"""Line-oriented `key = value` configuration for model and training settings.

Unknown keys are hard errors: a typo in a hyperparameter name should stop the
run, not silently train with defaults.  The single `seed` key feeds both the
model initialization and the training shuffle.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

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

    def validate(self) -> None:
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


MODEL_KEYS: dict[str, type] = {
    "num_scales": int,
    "layers_per_dense_block": int,
    "growth_rate": int,
    "first_conv_filters": int,
    "convlstm_hidden": int,
    "dropout_p": float,
    "use_sa": bool,
    "use_clstm": bool,
    "seed": int,
}

TRAIN_KEYS: dict[str, type] = {
    "epochs": int,
    "lr": float,
    "weight_decay": float,
    "batch_size": int,
    "seed": int,
    "eps_dice": float,
}

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
        return repr(v)
    return str(v)


def parse_value(raw: str, typ: type, key: str, lineno: int | None = None):
    where = f" (line {lineno})" if lineno is not None else ""
    if typ is bool:
        if raw == "true":
            return True
        if raw == "false":
            return False
        raise ConfigError(f"config key {key!r}{where}: expected true or false, got {raw!r}")
    if typ is str:
        return raw
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError(
            f"config key {key!r}{where}: expected {typ.__name__}, got {raw!r}"
        ) from None


def check_retired(field: str, raw: str, key: str, lineno: int) -> None:
    """Refuse retired key `field` (shown as `key`) unless it holds its one value."""
    legal = RETIRED_KEYS[field]
    if parse_value(raw, type(legal), key, lineno) != legal:
        raise ConfigError(
            f"config key {key!r} (line {lineno}) is retired; only "
            f"{format_value(legal)!r} is accepted, got {raw!r}"
        )


def parse_kv_text(text: str) -> list[tuple[int, str, str]]:
    """Split `key = value` lines, skipping blanks and # comments."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        out.append((lineno, key.strip(), value.strip()))
    return out


def parse_config_text(
    text: str,
    model_base: ModelConfig | None = None,
    train_base: TrainConfig | None = None,
) -> tuple[ModelConfig, TrainConfig]:
    model_over: dict = {}
    train_over: dict = {}
    seen: set[str] = set()
    for lineno, key, raw in parse_kv_text(text):
        if key in seen:
            raise ConfigError(f"config key {key!r} (line {lineno}) appears twice")
        seen.add(key)
        if key in RETIRED_KEYS:
            check_retired(key, raw, key, lineno)
            continue
        known = False
        if key in MODEL_KEYS:
            model_over[key] = parse_value(raw, MODEL_KEYS[key], key, lineno)
            known = True
        if key in TRAIN_KEYS:
            train_over[key] = parse_value(raw, TRAIN_KEYS[key], key, lineno)
            known = True
        if not known:
            raise ConfigError(f"unknown config key {key!r} (line {lineno})")
    mcfg = dataclasses.replace(model_base or ModelConfig(), **model_over)
    tcfg = dataclasses.replace(train_base or TrainConfig(), **train_over)
    mcfg.validate()
    tcfg.validate()
    return mcfg, tcfg


def load_config(path: str) -> tuple[ModelConfig, TrainConfig]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())

