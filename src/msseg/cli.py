"""Command-line surface: phantoms, preprocessing, training, evaluation.

Every command is a pure function of its inputs and seed; rerunning with the
same arguments produces bit-identical outputs.  Exit codes: 0 on success,
1 when any item failed, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import data as dio
from .checkpoint import load_checkpoint, save_checkpoint
from .config import TrainConfig, load_config
from .data import FoldSpec, ManifestEntry, MaskVolume, PhantomSpec, Volume
from .errors import TrainingDivergedError
from .metrics import confusion, dice
from .model import ModelConfig, count_params
from .train import evaluate, predict, run_ablation, train


def _resolve(path: str, manifest_path: str) -> str:
    """Manifest entries may use paths relative to the manifest's directory."""
    if os.path.isabs(path):
        return path
    return os.path.join(os.path.dirname(os.path.abspath(manifest_path)), path)


def _parse_dims(text: str) -> tuple[int, int, int]:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise ValueError(f"dims must look like 8x32x32, got {text!r}")
    try:
        s, h, w = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"dims must be integers, got {text!r}") from None
    if min(s, h, w) < 1:
        raise ValueError(f"dims must all be at least 1, got {text!r}")
    return s, h, w


def _load_configs(path: str | None) -> tuple[ModelConfig, TrainConfig]:
    if path is None:
        return ModelConfig(), TrainConfig()
    return load_config(path)


def _load_dataset(entries: list[ManifestEntry], manifest_path: str, ids):
    dataset = {}
    for e in entries:
        if e.id in ids:
            vol = dio.load_volume(_resolve(e.image_path, manifest_path))
            msk = dio.load_mask(_resolve(e.mask_path, manifest_path))
            dataset[e.id] = (vol, msk)
    return dataset


# ---------------------------------------------------------------------------
# commands


def cmd_phantom(args) -> int:
    dims = _parse_dims(args.dims)
    if args.count < 1:
        raise ValueError(f"count must be at least 1, got {args.count}")
    radius = dio._lesion_radius(dims)
    entries = []
    for i in range(args.count):
        patient = i % 5 + 1
        timepoint = i // 5 + 1
        vid = f"p{patient}t{timepoint}"
        spec = PhantomSpec(seed=args.seed + i, dims=dims, lesion_radius=radius)
        vol, msk = dio.generate_phantom(spec)
        image_name = f"{vid}.msvol"
        mask_name = f"{vid}.msmsk"
        dio.save_volume(vol, os.path.join(args.out, image_name))
        dio.save_mask(msk, os.path.join(args.out, mask_name))
        entries.append(ManifestEntry(vid, str(patient), timepoint, image_name, mask_name))
    dio.write_manifest(entries, os.path.join(args.out, "manifest.tsv"))
    print(f"wrote {args.count} volume/mask pairs and manifest.tsv to {args.out}")
    return 0


def cmd_preprocess(args) -> int:
    if args.target < 1:
        raise ValueError(f"target must be at least 1, got {args.target}")
    entries = dio.parse_manifest(args.manifest)
    failures = 0
    processed = []
    summary = []
    for e in entries:
        try:
            vol = dio.load_volume(_resolve(e.image_path, args.manifest))
            msk = dio.load_mask(_resolve(e.mask_path, args.manifest))
            before = vol.dims[0]
            pv, pm = dio.preprocess_pair(vol, msk, (args.target, args.target))
            kept = pv.dims[0]
            image_name = f"{e.id}.msvol"
            mask_name = f"{e.id}.msmsk"
            dio.save_volume(pv, os.path.join(args.out, image_name))
            dio.save_mask(pm, os.path.join(args.out, mask_name))
            processed.append(
                ManifestEntry(e.id, e.patient, e.timepoint, image_name, mask_name)
            )
            summary.append(f"{e.id}\tkept {kept}\tdropped {before - kept}")
        except (ValueError, OSError) as exc:
            failures += 1
            summary.append(f"{e.id}\tfailed: {exc}")
            print(f"error: {e.id}: {exc}", file=sys.stderr)
    dio.write_manifest(processed, os.path.join(args.out, "manifest.tsv"))
    text = "\n".join(summary) + "\n"
    dio.atomic_write_bytes(os.path.join(args.out, "summary.txt"), text.encode("utf-8"))
    print(text, end="")
    return 1 if failures else 0


def _folds(entries) -> dict[int, FoldSpec]:
    """Every fold by id, built from the manifest rows alone: no volume file is
    opened, so only the chosen fold's volumes need to exist."""
    return {f.fold_id: f for f in dio.make_folds(entries)}


def _pick_fold(folds: dict[int, FoldSpec], fold_id: int) -> FoldSpec:
    if fold_id not in folds:
        raise ValueError(f"fold must be 1..5, got {fold_id}")
    return folds[fold_id]


def cmd_train(args) -> int:
    mcfg, tcfg = _load_configs(args.config)
    if args.epochs is not None:
        tcfg = dataclasses.replace(tcfg, epochs=args.epochs)
    entries = dio.parse_manifest(args.manifest)
    fold = _pick_fold(_folds(entries), args.fold)
    dataset = _load_dataset(entries, args.manifest, set(fold.train) | set(fold.val))
    rows = []

    def sink(epoch, train_loss, val_dice):
        rows.append((epoch, train_loss, val_dice))
        print(f"epoch {epoch}: train_loss {train_loss:.6f} val_dice {val_dice:.6f}")

    ckpt = train(fold, dataset, mcfg, tcfg, sink)

    csv_lines = ["epoch,train_loss,val_dice"]
    csv_lines += [f"{e},{tl!r},{vd!r}" for e, tl, vd in rows]
    csv_path = os.path.join(args.out, f"fold{fold.fold_id}_curve.csv")
    dio.atomic_write_bytes(csv_path, ("\n".join(csv_lines) + "\n").encode("utf-8"))

    ckpt_path = os.path.join(args.out, f"fold{fold.fold_id}.msckpt")
    save_checkpoint(ckpt, ckpt_path)
    if ckpt.best_val_dice is None:
        print(f"fold {fold.fold_id}: initialized checkpoint written to {ckpt_path}")
    else:
        print(
            f"fold {fold.fold_id}: best val_dice {ckpt.best_val_dice!r} "
            f"at epoch {ckpt.epoch}; checkpoint written to {ckpt_path}"
        )
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    entries = dio.parse_manifest(args.manifest)
    if not entries:
        raise ValueError("manifest lists no volumes")
    dataset = _load_dataset(entries, args.manifest, {e.id for e in entries})
    report = evaluate(ckpt, dataset)
    dio.atomic_write_bytes(
        os.path.join(args.out, "report.txt"), report.to_text().encode("utf-8")
    )
    dio.atomic_write_bytes(
        os.path.join(args.out, "report.kv"), report.to_kv().encode("utf-8")
    )
    mean, sd = report.aggregates()["dice"]
    print(report.to_text(), end="")
    print(f"mean dice {mean:.4f} +/- {sd:.4f} over {len(dataset)} volumes")
    return 0


def _write_overlays(out_dir, vol: Volume, pred: MaskVolume, gt: MaskVolume | None):
    s, h, w = vol.dims
    base = np.clip(vol.voxels, 0.0, 1.0)
    for i in range(s):
        gray = np.round(base[i] * 255.0).astype(np.uint8)
        rgb = np.stack([gray, gray, gray], axis=-1)
        p = pred.labels[i].astype(bool)
        if gt is None:
            rgb[p] = (255, 0, 0)
        else:
            g = gt.labels[i].astype(bool)
            rgb[p & ~g] = (255, 0, 0)
            rgb[~p & g] = (0, 255, 0)
        header = f"P6\n{w} {h}\n255\n".encode("ascii")
        dio.atomic_write_bytes(os.path.join(out_dir, f"overlay_{i:04d}.ppm"), header, rgb)


def cmd_predict(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    vol = dio.load_volume(args.volume)
    gt = None
    if args.mask:
        gt = dio.load_mask(args.mask)
        dio._require_paired(vol, gt)
    pred = predict(ckpt, vol)
    pred_path = os.path.join(args.out, "prediction.msmsk")
    dio.save_mask(pred, pred_path)
    _write_overlays(args.out, vol, pred, gt)
    print(f"wrote {pred_path} and {vol.dims[0]} overlay rasters to {args.out}")
    if gt is not None:
        print(f"dice against given mask: {dice(confusion(pred, gt))!r}")
    return 0


def cmd_ablate(args) -> int:
    mcfg, tcfg = _load_configs(args.config)
    try:
        fold_ids = [int(p) for p in args.folds.split(",") if p.strip()]
    except ValueError:
        raise ValueError(f"--folds must be comma-separated integers, got {args.folds!r}") from None
    if not fold_ids:
        raise ValueError("--folds named no folds")
    if len(set(fold_ids)) < len(fold_ids):
        raise ValueError(f"--folds names a fold more than once, got {args.folds!r}")
    entries = dio.parse_manifest(args.manifest)
    folds = _folds(entries)
    chosen = [_pick_fold(folds, fid) for fid in fold_ids]
    needed = set()
    for f in chosen:
        needed |= set(f.train) | set(f.val) | set(f.test)
    dataset = _load_dataset(entries, args.manifest, needed)

    def sink(label, fold_id, score):
        print(f"{label} / fold {fold_id}: test dice {score:.4f}")

    rows = run_ablation(chosen, dataset, mcfg, tcfg, sink)
    header = "variant\t" + "\t".join(f"fold{f.fold_id}" for f in chosen) + "\tmean"
    lines = [header]
    for label, cells, mean in rows:
        lines.append(label + "\t" + "\t".join(repr(c) for c in cells) + f"\t{mean!r}")
    grid = "\n".join(lines) + "\n"
    dio.atomic_write_bytes(os.path.join(args.out, "ablation.tsv"), grid.encode("utf-8"))
    print(grid, end="")
    return 0


def cmd_param_count(args) -> int:
    mcfg, _ = _load_configs(args.config)
    got = count_params(mcfg)
    print(f"Downsampling {got['downsampling']}")
    print(f"Bottleneck   {got['bottleneck']}")
    print(f"Upsampling   {got['upsampling']}")
    print(f"Total        {got['total']}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msseg",
        description="Lesion segmentation pipeline: phantom data, preprocessing, "
        "training, evaluation, prediction, and ablation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate synthetic volume/mask pairs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--dims", default="24x64x64", help="slices x height x width")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("preprocess", help="black-slice removal, crop, normalize")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--target", type=int, default=160)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train one cross-validation fold")
    p.add_argument("--manifest", required=True)
    p.add_argument("--fold", type=int, required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, help="override the configured epoch count")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="metrics report over a manifest")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="segment one volume and write overlays")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--volume", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mask", help="ground truth for red/green error overlays")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("ablate", help="architecture ablation grid over folds")
    p.add_argument("--manifest", required=True)
    p.add_argument("--folds", default="2,4", help="comma-separated fold ids")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("param-count", help="parameter total and breakdown")
    p.add_argument("--config")
    p.set_defaults(func=cmd_param_count)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, TrainingDivergedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
