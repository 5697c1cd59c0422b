"""Dice-loss training loop, inference, evaluation, and the ablation grid.

The loop is deliberately plain: seeded shuffle each epoch, forward in train
mode, soft Dice loss summed jointly over the batch, SGD with weight decay,
then a full validation pass in eval mode.  The parameter snapshot with the
strictly highest validation Dice is what the returned checkpoint carries.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Mapping

import numpy as np

from . import rng as rngmod
from .checkpoint import Checkpoint, checkpoint_from_model, restore_into_model
from .config import TrainConfig
from .data import FoldSpec, MaskVolume, Volume, make_triplets
from .errors import ShapeError, TrainingDivergedError
from .metrics import MetricsReport, ConfusionCounts, confusion, dice
from .model import (
    ABLATION_LABELS,
    ModelConfig,
    ModelParams,
    ablation_variants,
    build_model,
    forward,
    named_tensors,
    restore_arrays,
    snapshot_arrays,
)
from .tensor import Graph, Tensor, backward, sgd_step, slice_channels, sum_all

ProgressSink = Callable[[int, float, float], None]

Dataset = Mapping[str, tuple[Volume, MaskVolume]]


def worker_count() -> int:
    """Thread budget for per-volume fan-out, capped by MSSEG_THREADS."""
    env = os.environ.get("MSSEG_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(f"MSSEG_THREADS must be an integer, got {env!r}") from None
        if n < 1:
            raise ValueError("MSSEG_THREADS must be >= 1")
        return n
    return os.cpu_count() or 1


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
    inter = sum_all(p1 * target)
    psum = sum_all(p1)
    gsum = float(gt.sum())
    return 1.0 - (2.0 * inter + eps) / (psum + (gsum + eps))


def _gather_samples(ids: list[str], dataset: Dataset):
    stacks = []
    masks = []
    hw = None
    for vid in ids:
        if vid not in dataset:
            raise ValueError(f"volume {vid!r} named by the fold is not in the dataset")
        vol, msk = dataset[vid]
        if hw is None:
            hw = vol.dims[1:]
        elif vol.dims[1:] != hw:
            raise ShapeError(
                f"volume {vid!r} is {vol.dims[1]}x{vol.dims[2]}, other volumes are "
                f"{hw[0]}x{hw[1]}; training requires one geometry"
            )
        for stack, mask in make_triplets(vol, msk):
            stacks.append(stack)
            masks.append(mask)
    return stacks, masks


def _batch_input(stacks: list[np.ndarray], idx: np.ndarray) -> np.ndarray:
    """Arrange a sample subset time-major: all previous, all center, all next."""
    chosen = [stacks[i] for i in idx]
    prev = np.stack([s[0] for s in chosen])
    cent = np.stack([s[1] for s in chosen])
    nxt = np.stack([s[2] for s in chosen])
    return np.concatenate([prev, cent, nxt])[:, None, :, :].astype(np.float64)


def predict_with_params(params: ModelParams, v: Volume, chunk: int = 4) -> MaskVolume:
    """Slice-triplet inference over a whole volume, argmax with ties to 0."""
    samples = make_triplets(v, MaskVolume(np.zeros(v.dims, dtype=np.uint8)))
    stacks = [s for s, _ in samples]
    out = np.empty(v.dims, dtype=np.uint8)
    for start in range(0, len(stacks), chunk):
        idx = np.arange(start, min(start + chunk, len(stacks)))
        x = Tensor(_batch_input(stacks, idx))
        prob = forward(params, x, "eval").data
        out[idx[0] : idx[-1] + 1] = np.argmax(prob, axis=1).astype(np.uint8)
    return MaskVolume(out)


def predict(ckpt: Checkpoint, v: Volume) -> MaskVolume:
    return predict_with_params(restore_into_model(ckpt), v)


def _validation_dice(params: ModelParams, ids: list[str], dataset: Dataset) -> float:
    scores = []
    for vid in ids:
        vol, gt = dataset[vid]
        pred = predict_with_params(params, vol)
        scores.append(dice(confusion(pred, gt)))
    return float(np.mean(scores))


def train(
    fold: FoldSpec,
    dataset: Dataset,
    mcfg: ModelConfig,
    tcfg: TrainConfig,
    sink: ProgressSink | None = None,
) -> Checkpoint:
    """Optimize on the fold's training volumes; keep the best-validation model."""
    tcfg.validate()
    params = build_model(mcfg)
    stacks, masks = _gather_samples(fold.train, dataset)
    for vid in fold.val:
        if vid not in dataset:
            raise ValueError(f"volume {vid!r} named by the fold is not in the dataset")

    shuffle_rng = rngmod.stream(tcfg.seed, "train-shuffle")
    dropout_rng = rngmod.stream(tcfg.seed, "train-dropout")
    named = list(named_tensors(params))

    best: dict | None = None
    best_dice = -1.0
    step = 0
    for epoch in range(1, tcfg.epochs + 1):
        order = shuffle_rng.permutation(len(stacks))
        losses = []
        for start in range(0, len(order), tcfg.batch_size):
            idx = order[start : start + tcfg.batch_size]
            x = Tensor(_batch_input(stacks, idx))
            gt = np.stack([masks[i] for i in idx])
            with Graph():
                prob = forward(params, x, "train", dropout_rng)
                loss = soft_dice_loss(prob, gt, tcfg.eps_dice)
            value = float(loss.data)
            step += 1
            if not np.isfinite(value):
                raise TrainingDivergedError(epoch, step, value)
            backward(loss)
            sgd_step(named, tcfg.lr, tcfg.weight_decay)
            losses.append(value)

        train_loss = float(np.mean(losses)) if losses else 0.0
        val_dice = _validation_dice(params, fold.val, dataset)
        if sink is not None:
            sink(epoch, train_loss, val_dice)
        if val_dice > best_dice:
            best_dice = val_dice
            best = {
                "arrays": snapshot_arrays(params),
                "epoch": epoch,
                "step": step,
                "rng": rngmod.state_to_text(shuffle_rng),
            }

    if best is None:
        return checkpoint_from_model(params, tcfg, rng_state=rngmod.state_to_text(shuffle_rng))
    return Checkpoint(
        model_cfg=mcfg,
        train_cfg=tcfg,
        epoch=best["epoch"],
        step=best["step"],
        rng_state=best["rng"],
        best_val_dice=best_dice,
        arrays=best["arrays"],
    )


def evaluate(
    ckpt: Checkpoint,
    volumes: list[Volume],
    gts: list[MaskVolume],
    ids: list[str] | None = None,
) -> MetricsReport:
    """Per-volume confusion and metrics, volumes fanned out across threads."""
    if not volumes:
        raise ValueError("evaluate needs at least one volume")
    if len(volumes) != len(gts):
        raise ValueError(f"{len(volumes)} volumes but {len(gts)} ground truths")
    if ids is None:
        ids = [f"volume{i + 1}" for i in range(len(volumes))]
    elif len(ids) != len(volumes):
        raise ValueError(f"{len(volumes)} volumes but {len(ids)} ids")
    params = restore_into_model(ckpt)

    def one(pair: tuple[Volume, MaskVolume]) -> ConfusionCounts:
        vol, gt = pair
        return confusion(predict_with_params(params, vol), gt)

    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        counts = list(pool.map(one, zip(volumes, gts)))
    return MetricsReport.from_counts(dict(zip(ids, counts)))


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
    rows = []
    for label, variant in zip(ABLATION_LABELS, ablation_variants(base)):
        cells = []
        for fold in folds:
            ckpt = train(fold, dataset, variant, tcfg)
            params = restore_into_model(ckpt)
            vol, gt = dataset[fold.test[0]]
            score = dice(confusion(predict_with_params(params, vol), gt))
            cells.append(score)
            if sink is not None:
                sink(label, fold.fold_id, score)
        rows.append((label, cells, float(np.mean(cells))))
    return rows
