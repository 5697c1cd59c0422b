"""Confusion counts, the eight evaluation ratios, and mean/SD aggregation.

Degenerate denominators follow one convention throughout: an empty comparison
(no voxels on either side of the ratio) counts as a correct prediction and
scores 1.  The one exception is `extra_fraction`: its ratio fp/(tn+fn) has no
sensible fallback value, so a zero denominator raises instead.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from .data import MaskVolume
from .errors import ShapeError


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(pred: MaskVolume, gt: MaskVolume) -> ConfusionCounts:
    """Voxel-wise tallies with label 1 as the positive (lesion) class."""
    if pred.dims != gt.dims:
        raise ShapeError(f"prediction dims {pred.dims} and truth dims {gt.dims} differ")
    p = pred.labels.astype(bool)
    g = gt.labels.astype(bool)
    return ConfusionCounts(
        tp=int(np.count_nonzero(p & g)),
        fp=int(np.count_nonzero(p & ~g)),
        fn=int(np.count_nonzero(~p & g)),
        tn=int(np.count_nonzero(~p & ~g)),
    )


def _ratio(num: int, den: int) -> float:
    return 1.0 if den == 0 else num / den


def dice(c: ConfusionCounts) -> float:
    return _ratio(2 * c.tp, 2 * c.tp + c.fp + c.fn)


def sensitivity(c: ConfusionCounts) -> float:
    return _ratio(c.tp, c.tp + c.fn)


def specificity(c: ConfusionCounts) -> float:
    return _ratio(c.tn, c.tn + c.fp)


def extra_fraction(c: ConfusionCounts) -> float:
    den = c.tn + c.fn
    if den == 0:
        raise ValueError("extra fraction is undefined when tn + fn == 0")
    return c.fp / den


def iou(c: ConfusionCounts) -> float:
    return _ratio(c.tp, c.tp + c.fn + c.fp)


def ppv(c: ConfusionCounts) -> float:
    return _ratio(c.tp, c.tp + c.fp)


def npv(c: ConfusionCounts) -> float:
    return _ratio(c.tn, c.tn + c.fn)


def accuracy(c: ConfusionCounts) -> float:
    return _ratio(c.tp + c.tn, c.total)


_FUNCS = {
    "dice": dice,
    "sensitivity": sensitivity,
    "specificity": specificity,
    "iou": iou,
    "ef": extra_fraction,
    "ppv": ppv,
    "npv": npv,
    "accuracy": accuracy,
}
METRIC_ORDER = tuple(_FUNCS)


def compute_all(c: ConfusionCounts) -> dict[str, float]:
    return {name: _FUNCS[name](c) for name in METRIC_ORDER}


def aggregate(values: list[float]) -> tuple[float, float]:
    """Arithmetic mean and population standard deviation (divisor N)."""
    if not values:
        raise ValueError("aggregate needs at least one value")
    return statistics.fmean(values), statistics.pstdev(values)


@dataclass
class MetricsReport:
    """Per-volume metric values plus a mean/SD row over the volumes."""

    per_volume: dict[str, dict[str, float]]

    @classmethod
    def from_counts(cls, counts: dict[str, ConfusionCounts]) -> "MetricsReport":
        return cls({vid: compute_all(c) for vid, c in counts.items()})

    def aggregates(self) -> dict[str, tuple[float, float]]:
        out = {}
        for name in METRIC_ORDER:
            out[name] = aggregate([row[name] for row in self.per_volume.values()])
        return out

    def to_text(self) -> str:
        lines = []
        for vid, row in self.per_volume.items():
            lines.append(f"volume {vid}")
            for name in METRIC_ORDER:
                lines.append(f"  {name:<12s} {row[name]:.4f}")
        lines.append("aggregate")
        for name, (mean, sd) in self.aggregates().items():
            lines.append(f"  {name:<12s} {mean:.4f} +/- {sd:.4f}")
        return "\n".join(lines) + "\n"

    def to_kv(self) -> str:
        lines = []
        for vid, row in self.per_volume.items():
            for name in METRIC_ORDER:
                lines.append(f"volume.{vid}.{name} = {row[name]!r}")
        for name, (mean, sd) in self.aggregates().items():
            lines.append(f"aggregate.{name}.mean = {mean!r}")
            lines.append(f"aggregate.{name}.sd = {sd!r}")
        return "\n".join(lines) + "\n"
