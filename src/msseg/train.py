"""Dice-loss training loop, inference, evaluation, and the ablation grid.

The loop is deliberately plain: seeded shuffle each epoch, forward in train
mode, soft Dice loss summed jointly over the batch, SGD with weight decay,
then a full validation pass in eval mode.  The parameter snapshot with the
strictly highest validation Dice is what the returned checkpoint carries.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

import numpy as np

from . import rng as rngmod
from .checkpoint import Checkpoint, checkpoint_from_model, restore_into_model
from .config import TrainConfig
from .data import FoldSpec, MaskVolume, Volume, _require_paired, _triplet_indices
from .errors import ShapeError, TrainingDivergedError
from .metrics import MetricsReport, ConfusionCounts, confusion, dice
from .model import (
    ABLATION_LABELS,
    ModelConfig,
    ModelParams,
    ablation_variants,
    build_model,
    decode,
    encode,
    forward,
    named_tensors,
    require_trainable,
)
from .tensor import (
    Graph,
    Tensor,
    add_scalar,
    backward,
    div,
    mul,
    mul_scalar,
    sgd_step,
    slice_channels,
    sum_all,
)

ProgressSink = Callable[[int, float, float], None]

Dataset = Mapping[str, tuple[Volume, MaskVolume]]

# Volume inference decodes max(1, PREDICT_PIXELS // (H*W)) center slices at a
# time and encodes the new slices they need in the same chunks: one center at
# the paper's 160x160 crop, whose ops write arrays too large to gain from a
# batch, 4 at 64x64 and 16 at 32x32, where per-op overhead dominates. Eval
# mode is batch-invariant, so this sets only peak memory and time, not the
# mask.
PREDICT_PIXELS = 128 * 128


def worker_count() -> int:
    """Threads ``evaluate`` predicts on: always 1, the calling thread. The
    convolutions' BLAS calls do not keep every core busy (README,
    "Determinism"); predicting samples in parallel waits on a cut in
    inference memory."""
    return 1


def soft_dice_loss(prob: Tensor, gt: np.ndarray, eps: float = 1e-6) -> Tensor:
    """1 minus the smoothed Dice of the lesion channel, summed over the batch."""
    if prob.data.ndim != 4 or prob.data.shape[1] != 2:
        raise ShapeError(f"expected (B, 2, H, W) probabilities, got {prob.shape}")
    gt = np.asarray(gt, dtype=np.float64)
    if gt.shape != (prob.data.shape[0],) + prob.data.shape[2:]:
        raise ShapeError(
            f"truth shape {gt.shape} does not match probabilities {prob.shape}"
        )
    p1 = slice_channels(prob, 1, 2)
    target = Tensor(gt.reshape(p1.data.shape))
    inter = sum_all(mul(p1, target))
    psum = sum_all(p1)
    gsum = float(gt.sum())
    smoothed = div(add_scalar(mul_scalar(inter, 2.0), eps), add_scalar(psum, gsum + eps))
    return add_scalar(mul_scalar(smoothed, -1.0), 1.0)


def _require_ids(ids: list[str], dataset: Dataset, role: str) -> None:
    """Refuse a fold list that is empty or names a volume the dataset lacks."""
    if not ids:
        raise ValueError(f"fold has no {role} volumes")
    for vid in ids:
        if vid not in dataset:
            raise ValueError(f"volume {vid!r} named by the fold is not in the dataset")


def _checked_job(
    fold: FoldSpec, dataset: Dataset, cfgs: Iterable[ModelConfig], batch_size: int
) -> list:
    """Refuse, before anything is built, a training job on ``fold`` that
    cannot run under every config in ``cfgs``: its fold lists, the training
    volumes' shared geometry, then ``require_trainable``. Returns the
    training samples."""
    _require_ids(fold.train, dataset, "training")
    _require_ids(fold.val, dataset, "validation")
    samples = _slice_samples(fold.train, dataset)
    crop = dataset[fold.train[0]][0].dims[1:]
    for cfg in cfgs:
        require_trainable(cfg, crop, batch_size, len(samples))
    return samples


def _slice_samples(ids: list[str], dataset: Dataset) -> list:
    """One (voxels, labels, triplet row) sample per slice, in id then slice
    order. Samples share the volumes' arrays; batches gather rows from them."""
    samples = []
    hw = dataset[ids[0]][0].dims[1:]
    for vid in ids:
        vol, msk = dataset[vid]
        _require_paired(vol, msk)
        if vol.dims[1:] != hw:
            raise ShapeError(
                f"volume {vid!r} is {vol.dims[1]}x{vol.dims[2]}, other volumes are "
                f"{hw[0]}x{hw[1]}; training requires one geometry"
            )
        samples += [(vol.voxels, msk.labels, row) for row in _triplet_indices(vol.dims[0])]
    return samples


def _training_batch(samples: list, idx: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """Model input and center-slice truth for the chosen samples.

    The input is the (3B, 1, H, W) float64 triplet batch ``forward`` takes,
    time-major: all previous slices, then all centers, then all next slices.
    """
    chosen = [samples[i] for i in idx]
    triplets = np.stack([vox[row] for vox, _, row in chosen])
    h, w = triplets.shape[2:]
    x = np.ascontiguousarray(triplets.swapaxes(0, 1), dtype=np.float64).reshape(-1, 1, h, w)
    return x, np.stack([lab[row[1]] for _, lab, row in chosen])


def _encoded_features(params: ModelParams, voxels: np.ndarray) -> list[np.ndarray]:
    """Eval-mode encoder features of consecutive slices (N, H, W): the skip
    tensors, shallowest first, then the bottleneck output."""
    skips, db = encode(params, Tensor(voxels[:, None].astype(np.float64)), "eval")
    return [t.data for t in skips + [db]]


def predict_with_params(params: ModelParams, v: Volume) -> MaskVolume:
    """Slice-triplet inference over a whole volume, argmax with ties to 0.

    Each slice is encoded once, in slice order. The triplets of ``chunk``
    centers at a time, ``chunk`` = max(1, PREDICT_PIXELS // (H*W)), are
    decoded from a window that holds the features of at most ``chunk`` + 2
    slices: those centers and their outer neighbours, edges replicated as
    in ``_triplet_indices``.
    """
    depth, h, w = v.dims
    chunk = max(1, PREDICT_PIXELS // (h * w))
    triplets = _triplet_indices(depth)
    out = np.empty(v.dims, dtype=np.uint8)
    lo, hi, window = 0, 0, []  # window[k][i] is feature k of slice lo + i
    for start in range(0, len(triplets), chunk):
        rows = triplets[start : start + chunk]
        first, stop = rows[0, 0], rows[-1, 2] + 1
        if stop > hi:
            fresh = _encoded_features(params, v.voxels[hi:stop])
            if window:
                fresh = [np.concatenate([f[first - lo :], g]) for f, g in zip(window, fresh)]
            window, lo, hi = fresh, first, stop
        rows = rows - lo
        # the chunk's centers are consecutive slices, so their skips are views
        c0 = rows[0, 1]
        center_skips = [Tensor(f[c0 : c0 + len(rows)]) for f in window[:-1]]
        steps = [Tensor(window[-1][rows[:, k]]) for k in range(3)]
        prob = decode(params, center_skips, steps, "eval").data
        out[start : start + len(rows)] = np.argmax(prob, axis=1).astype(np.uint8)
        del center_skips, steps, prob  # freed before the next chunk encodes
    return MaskVolume(out)


def predict(ckpt: Checkpoint, v: Volume) -> MaskVolume:
    return predict_with_params(restore_into_model(ckpt), v)


def _confusions(
    params: ModelParams, ids: Iterable[str], dataset: Dataset
) -> dict[str, ConfusionCounts]:
    """Confusion counts of the model's prediction for each named volume, in
    ``ids`` order, one volume at a time on the calling thread."""
    counts = {}
    for vid in ids:
        vol, gt = dataset[vid]
        counts[vid] = confusion(predict_with_params(params, vol), gt)
    return counts


def _mean_dice(params: ModelParams, ids: list[str], dataset: Dataset) -> float:
    """Mean Dice of the model's predictions over the named volumes."""
    return float(np.mean([dice(c) for c in _confusions(params, ids, dataset).values()]))


def train(
    fold: FoldSpec,
    dataset: Dataset,
    mcfg: ModelConfig,
    tcfg: TrainConfig,
    sink: ProgressSink | None = None,
) -> Checkpoint:
    """Optimize on the fold's training volumes; keep the best-validation model."""
    samples = _checked_job(fold, dataset, [mcfg], tcfg.batch_size)
    params = build_model(mcfg)

    shuffle_rng = rngmod.stream(tcfg.seed, "train-shuffle")
    dropout_rng = rngmod.stream(tcfg.seed, "train-dropout")
    named = list(named_tensors(params))

    best: Checkpoint | None = None
    step = 0
    for epoch in range(1, tcfg.epochs + 1):
        order = shuffle_rng.permutation(len(samples))
        losses = []
        for start in range(0, len(order), tcfg.batch_size):
            x, gt = _training_batch(samples, order[start : start + tcfg.batch_size])
            with Graph():
                prob = forward(params, Tensor(x), "train", dropout_rng)
                loss = soft_dice_loss(prob, gt, tcfg.eps_dice)
            value = float(loss.data)
            step += 1
            if not np.isfinite(value):
                raise TrainingDivergedError(epoch, step, value)
            backward(loss)
            sgd_step(named, tcfg.lr, tcfg.weight_decay)
            losses.append(value)

        train_loss = float(np.mean(losses)) if losses else 0.0
        val_dice = _mean_dice(params, fold.val, dataset)
        if sink is not None:
            sink(epoch, train_loss, val_dice)
        if val_dice > (-1.0 if best is None else best.best_val_dice):
            rng_text = rngmod.state_to_text(shuffle_rng)
            best = checkpoint_from_model(
                params, tcfg, epoch=epoch, step=step, rng_state=rng_text, best_val_dice=val_dice
            )

    if best is None:
        return checkpoint_from_model(params, tcfg, rng_state=rngmod.state_to_text(shuffle_rng))
    return best


def evaluate(ckpt: Checkpoint, dataset: Dataset) -> MetricsReport:
    """Per-volume confusion and metrics, predicted one volume at a time on
    the calling thread, as validation does.

    Report rows follow the dataset's key order.
    """
    if not dataset:
        raise ValueError("evaluate needs at least one volume")
    return MetricsReport.from_counts(_confusions(restore_into_model(ckpt), dataset, dataset))


def run_ablation(
    folds: list[FoldSpec],
    dataset: Dataset,
    base: ModelConfig,
    tcfg: TrainConfig,
    sink: Callable[[str, int, float], None] | None = None,
) -> list[tuple[str, list[float], float]]:
    """Train every architecture variant on every fold; report test Dice.

    Returns one row per variant: (label, per-fold Dice values, mean).
    """
    if not folds:
        raise ValueError("ablation needs at least one fold")
    for fold in folds:
        _require_ids(fold.test, dataset, "test")
        _checked_job(fold, dataset, ablation_variants(base), tcfg.batch_size)
    rows = []
    for label, variant in zip(ABLATION_LABELS, ablation_variants(base)):
        cells = []
        for fold in folds:
            ckpt = train(fold, dataset, variant, tcfg)
            score = _mean_dice(restore_into_model(ckpt), fold.test, dataset)
            cells.append(score)
            if sink is not None:
                sink(label, fold.fold_id, score)
        rows.append((label, cells, float(np.mean(cells))))
    return rows
