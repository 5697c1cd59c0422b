"""Run one benchmark workload in this (fresh) process and write its record.

    python3 perfbench/worker.py --workload train_full --seed 1 --seconds 15 \
        --traced 0 --smoke 0 --out perfbench/out/record.json

``perfbench/run.py`` starts one of these per workload run (two with
``--trace 1``: untraced, then traced). The record holds the set-up samples,
the probes (import time and reference-kernel times from a
``perfbench/calib.py`` process, taken between timed operations), one entry
per timed operation with its window and pass/fail, the output checks, peak
RSS, the environment and, when traced, the per-layer table.
Inputs come only from ``--seed``; the program sees nothing but the
generated phantom data.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import msseg  # noqa: E402
from msseg import cli, data, model, train  # noqa: E402
from msseg.config import load_config  # noqa: E402
from msseg.tensor import Tensor  # noqa: E402

import tracer as tr  # noqa: E402

FULL_CFG = os.path.join(ROOT, "configs", "full.cfg")
MINI_CFG = os.path.join(ROOT, "configs", "miniature.cfg")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
CALIB = os.path.join(os.path.dirname(os.path.abspath(__file__)), "calib.py")
CALIB_PER_PROBE = 2
DEFAULT_SEED = 1

LESION = (1.2, 2.2)  # fits every phantom size below
# Set-up repetitions before and after the timed loop. Each also times
# ``import msseg.cli`` in a fresh interpreter, and one more import probe
# follows every timed operation, so the median set-up time samples the
# machine across the whole run, not in one burst. Each probe then times
# the reference kernel CALIB_PER_PROBE times.
SETUP_REPS = (3, 2)
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import msseg.cli; "
    "print(repr(time.perf_counter() - t))"
)
# Paper-scale sizes; --smoke shrinks the workloads that can shrink. Full
# config extents must divide by 2**5, and a batch-1 train step needs 64x64
# so that train-mode batchnorm sees more than one value at the deepest scale.
SIZES = {
    False: {"train_dims": (12, 72, 72), "train_crop": 64,
            "predict_dims": (12, 192, 192), "predict_crop": 160, "predict_slices": 2,
            "pipe_dims": "12x32x32", "min_ops": {"train_full": 5, "predict_full": 2, "pipeline_mini": 3}},
    True: {"train_dims": (12, 72, 72), "train_crop": 64,
           "predict_dims": (12, 40, 40), "predict_crop": 32, "predict_slices": 2,
           "pipe_dims": "12x32x32", "min_ops": {"train_full": 5, "predict_full": 2, "pipeline_mini": 1}},
}
# One epoch keeps a pipeline pass near 5 s, so a run's median is taken over
# several passes; it still runs validation, checkpointing and evaluate.
PIPE_EPOCHS = "1"

# Op structure of the full config at the commit that defined this
# benchmark: conv2d calls in one forward, tape nodes in one batch-1 step.
FULL_CONV2D_PER_FORWARD = 114
FULL_TAPE_NODES_PER_STEP = 554
MIN_COVERAGE = 0.95

# Boundary spans the untraced run keeps, to time pipeline_mini's train
# steps and volume predictions from outside.
BOUNDARY = frozenset({"model.forward", "tensor.sgd_step", "train.predict_with_params", "train.evaluate"})


class Run:
    """What one workload run measured and checked."""

    def __init__(self, calibrator: "Calibrator"):
        self.calibrator = calibrator
        # Each probe: {"t", "import_s", "calib": [[duration of each calib.PARTS], ...]}.
        self.probes: list[dict] = []
        # Each set-up repetition: {"s": seconds, "probe": index of the probe just before it}.
        self.setup_s: list[dict] = []
        self.setup_windows: list[tuple[float, float]] = []
        self.ops: list[dict] = []
        self.checks: list[dict] = []
        self.extra: dict = {}

    def op(self, kind: str, t0: float, t1: float, ok: bool, items: int, cpu_s: float) -> None:
        self.ops.append({"kind": kind, "t0": t0, "t1": t1, "ok": bool(ok), "items": items,
                         "cpu_s": cpu_s})

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)


def _reference(workload: str) -> dict | None:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def _phantom(seed: int, dims, crop: int):
    vol, msk = data.generate_phantom(data.PhantomSpec(seed=seed, dims=dims, lesion_radius=LESION))
    return data.preprocess_pair(vol, msk, (crop, crop))


class Calibrator:
    """A ``perfbench/calib.py`` process that times the reference kernel on request."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, CALIB], cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("calibration process failed to start")

    def sample(self) -> list[float]:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration process exited {self.proc.wait()}")
        return [float(d) for d in line.split()]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _probe(run: Run) -> None:
    """Time ``import msseg.cli`` in a fresh interpreter, then the reference kernel."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise RuntimeError(f"importing msseg failed:\n{done.stderr}")
    run.probes.append({"t": t, "import_s": float(done.stdout.strip().splitlines()[-1]),
                       "calib": [run.calibrator.sample() for _ in range(CALIB_PER_PROBE)]})


def _repeat_setup(run: Run, prepare, reps: int):
    """Run an import probe and ``prepare`` ``reps`` times, keeping each
    duration and the last result. ``reps`` = 0 returns None."""
    result = None
    for _ in range(reps):
        _probe(run)
        result = None  # let the previous model go before building the next
        t0 = time.perf_counter()
        result = prepare()
        t1 = time.perf_counter()
        run.setup_s.append({"s": t1 - t0, "probe": len(run.probes) - 1})
        run.setup_windows.append((t0, t1))
    return result


def _timed_loop(run: Run, seconds: float, min_ops: int, smoke: bool):
    """Operation indices for ``seconds``, at least ``min_ops``; an import
    probe follows each operation outside its timing, except in smoke runs."""
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        yield i
        if not smoke:
            _probe(run)
        i += 1


# ---------------------------------------------------------------------------
# workloads


def train_full(run: Run, seed: int, seconds: float, smoke: bool) -> None:
    size = SIZES[smoke]

    def prepare():
        mcfg, tcfg = load_config(FULL_CFG)
        vol, msk = _phantom(seed, size["train_dims"], size["train_crop"])
        triplets = data.make_triplets(vol, msk)
        return tcfg, triplets, model.build_model(mcfg)

    tcfg, triplets, params = _repeat_setup(run, prepare, 1 if smoke else SETUP_REPS[0])
    named = list(model.named_tensors(params))
    order = np.random.default_rng(seed).permutation(len(triplets))
    dropout_rng = np.random.Generator(np.random.Philox(seed))

    def step(i):
        stack, gt = triplets[order[i % len(order)]]
        x = Tensor(stack[:, None].astype(np.float64))
        with msseg.Graph() as graph:
            prob = model.forward(params, x, "train", dropout_rng)
            loss = train.soft_dice_loss(prob, gt[None].astype(np.float64), tcfg.eps_dice)
        nodes = len(graph)
        msseg.backward(loss)
        msseg.sgd_step(named, tcfg.lr, tcfg.weight_decay)
        return float(loss.data), nodes

    step(0)  # warm-up, untimed
    losses, nodes = [], []
    for i in _timed_loop(run, seconds, size["min_ops"]["train_full"], smoke):
        c0, t0 = time.process_time(), time.perf_counter()
        value, n = step(i + 1)
        t1 = time.perf_counter()
        losses.append(value)
        nodes.append(n)
        run.op("train_step", t0, t1, math.isfinite(value), 1, time.process_time() - c0)
    _repeat_setup(run, prepare, 0 if smoke else SETUP_REPS[1])
    run.check("losses finite", all(math.isfinite(v) for v in losses), repr(losses))
    run.extra["losses"] = losses
    run.extra["graph_nodes"] = nodes
    if seed == DEFAULT_SEED and not smoke:
        ref = _reference("train_full")
        want = ref["losses"] if ref else []
        run.check("reference recorded", bool(want))
        for k, (got, expect) in enumerate(zip(losses, want)):
            if not run.check(f"loss {k} matches reference",
                             math.isclose(got, expect, rel_tol=1e-9), f"{got!r} vs {expect!r}"):
                run.ops[k]["ok"] = False


def _triplet_input(voxels: np.ndarray, i: int) -> np.ndarray:
    """Slice i with its neighbours, edges replicated, as a (3, 1, H, W) batch."""
    s = voxels.shape[0]
    stack = np.stack([voxels[max(i - 1, 0)], voxels[i], voxels[min(i + 1, s - 1)]])
    return stack[:, None].astype(np.float64)


def predict_full(run: Run, seed: int, seconds: float, smoke: bool) -> None:
    size = SIZES[smoke]

    def prepare():
        mcfg, _ = load_config(FULL_CFG)
        vol, _ = _phantom(seed, size["predict_dims"], size["predict_crop"])
        k = size["predict_slices"]
        lo = vol.dims[0] // 2 - k // 2
        return data.Volume(vol.voxels[lo : lo + k]), model.build_model(mcfg)

    vol, params = _repeat_setup(run, prepare, 1 if smoke else SETUP_REPS[0])
    last = vol.dims[0] - 1
    # Untimed per-triplet forwards on the first and last slice; they also
    # warm the allocator before the timed predictions.
    expected = {}
    for i in (0, last):
        prob = model.forward(params, Tensor(_triplet_input(vol.voxels, i)), "eval").data
        expected[i] = np.argmax(prob[0], axis=0).astype(np.uint8)

    check_ref = seed == DEFAULT_SEED and not smoke
    ref = _reference("predict_full") if check_ref else None
    if check_ref:
        run.check("reference recorded", ref is not None)
    first_digest = None
    for _ in _timed_loop(run, seconds, size["min_ops"]["predict_full"], smoke):
        c0, t0 = time.process_time(), time.perf_counter()
        pred = train.predict_with_params(params, vol)
        t1 = time.perf_counter()
        cpu_s = time.process_time() - c0
        labels = pred.labels
        digest = hashlib.sha256(labels.tobytes()).hexdigest()
        first_digest = first_digest or digest
        ok = run.check("mask matches per-triplet forward on first and last slice",
                       all(np.array_equal(labels[i], expected[i]) for i in (0, last)))
        ok &= run.check("mask repeats bit for bit", digest == first_digest)
        if check_ref:
            ok &= run.check("mask matches reference", ref is not None and digest == ref["mask_sha256"], digest)
        run.op("predict_volume", t0, t1, ok, vol.dims[0], cpu_s)
    run.extra["mask_sha256"] = first_digest
    params = None  # let the timed model go before the trailing set-ups
    _repeat_setup(run, prepare, 0 if smoke else SETUP_REPS[1])


def _read_kv(path: str) -> dict[str, str]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition(" = ")
            out[key.strip()] = value.strip()
    return out


def pipeline_mini(run: Run, seed: int, seconds: float, smoke: bool, workdir: str) -> None:
    size = SIZES[smoke]

    def prepare():
        load_config(MINI_CFG)
        os.makedirs(workdir, exist_ok=True)

    _repeat_setup(run, prepare, 1 if smoke else SETUP_REPS[0])
    check_ref = seed == DEFAULT_SEED and not smoke
    ref = _reference("pipeline_mini") if check_ref else None
    if check_ref:
        run.check("reference recorded", ref is not None)
    first = None
    commands = {}
    for k in _timed_loop(run, seconds, size["min_ops"]["pipeline_mini"], smoke):
        base = os.path.join(workdir, f"pass{k}")
        raw, proc, out = (os.path.join(base, d) for d in ("raw", "proc", "fold1"))
        argvs = [
            ["phantom", "--seed", str(seed), "--count", "10", "--dims", size["pipe_dims"], "--out", raw],
            ["preprocess", "--manifest", os.path.join(raw, "manifest.tsv"), "--out", proc, "--target", "32"],
            ["train", "--manifest", os.path.join(proc, "manifest.tsv"), "--fold", "1",
             "--config", MINI_CFG, "--out", out, "--epochs", PIPE_EPOCHS],
            ["eval", "--ckpt", os.path.join(out, "fold1.msckpt"),
             "--manifest", os.path.join(proc, "manifest.tsv"), "--out", out],
            ["predict", "--ckpt", os.path.join(out, "fold1.msckpt"),
             "--volume", os.path.join(proc, "p1t1.msvol"), "--mask", os.path.join(proc, "p1t1.msmsk"),
             "--out", os.path.join(out, "pred")],
        ]
        ok = True
        c0, t0 = time.process_time(), time.perf_counter()
        for argv in argvs:
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
            commands.setdefault(argv[0], []).append(time.perf_counter() - start)
            ok &= run.check(f"msseg {argv[0]} exits 0", rc == 0, f"exit {rc}")
        t1 = time.perf_counter()
        cpu_s = time.process_time() - c0
        try:
            kv = _read_kv(os.path.join(out, "report.kv"))
            mean_dice = float(kv["aggregate.dice.mean"])
            with open(os.path.join(out, "pred", "prediction.msmsk"), "rb") as fh:
                prediction = fh.read()
        except (OSError, KeyError, ValueError) as exc:
            ok &= run.check("report.kv and prediction.msmsk readable", False, str(exc))
        else:
            ok &= run.check("report.kv covers 10 volumes with dice in [0, 1]",
                            sum(key.endswith(".dice") for key in kv) == 10 and 0.0 <= mean_dice <= 1.0)
            if first is None:
                first = (kv, prediction)
                run.extra["mean_dice"] = mean_dice
            else:
                ok &= run.check("pass repeats bit for bit", (kv, prediction) == first)
            if check_ref:
                ok &= run.check("mean dice matches reference", ref is not None and
                                math.isclose(mean_dice, ref["mean_dice"], rel_tol=1e-9), repr(mean_dice))
        run.op("pipeline", t0, t1, ok, 1, cpu_s)
        shutil.rmtree(base, ignore_errors=True)
    run.extra["command_s"] = commands
    _repeat_setup(run, prepare, 0 if smoke else SETUP_REPS[1])


WORKLOADS = {"train_full": train_full, "predict_full": predict_full, "pipeline_mini": pipeline_mini}


# ---------------------------------------------------------------------------
# reductions over spans


def _boundary_samples(spans: list[list], windows) -> dict:
    """Train steps (train-mode forward start to sgd_step end) and volume
    predictions outside ``evaluate``, from the spans inside ``windows``."""
    inside = tr.select(spans, windows)
    steps, batch = [], []
    fwd = None
    for rec in sorted(inside, key=lambda r: r[tr.START]):
        if rec[tr.NAME] == "model.forward.train":
            fwd = rec
        elif rec[tr.NAME] == "tensor.sgd_step" and fwd is not None:
            steps.append(rec[tr.END] - fwd[tr.START])
            batch.append(fwd[tr.ROWS])
            fwd = None
    volumes = [
        rec[tr.END] - rec[tr.START] for rec in inside
        if rec[tr.NAME] == "train.predict_with_params"
        and not any(a[tr.NAME] == "train.evaluate" for a in tr.ancestors(rec))
    ]
    return {"train_step_s": steps, "train_batch": batch, "predict_volume_s": volumes}


def _invariants(run: Run, spans: list[list], windows, workload: str) -> dict:
    per_forward = {id(r): 0 for r in spans if r[tr.NAME].startswith("model.forward.")}
    for r in spans:
        if r[tr.NAME] == "tensor.conv2d":
            for a in tr.ancestors(r):
                if id(a) in per_forward:
                    per_forward[id(a)] += 1
                    break
    conv_counts = sorted(set(per_forward.values()))
    step_nodes = []
    for op in run.ops:
        if op["kind"] == "train_step":
            step_nodes.append(sum(1 for r in tr.select(spans, [(op["t0"], op["t1"])]) if r[tr.TAPED]))
    wall = sum(t1 - t0 for t0, t1 in windows)
    coverage = tr.top_level_cover(spans, windows) / wall if wall else 0.0
    run.check(f"top-level spans cover >= {MIN_COVERAGE} of timed wall time", coverage >= MIN_COVERAGE,
              f"{coverage:.4f}")
    if workload in ("train_full", "predict_full"):
        run.check(f"every full-config forward makes {FULL_CONV2D_PER_FORWARD} conv2d calls",
                  conv_counts == [FULL_CONV2D_PER_FORWARD], repr(conv_counts))
    if workload == "train_full":
        graph_nodes = run.extra["graph_nodes"]
        run.check("traced tape nodes equal the graph's length every step",
                  step_nodes == graph_nodes, f"{step_nodes} vs {graph_nodes}")
        run.check(f"one full-config train step records {FULL_TAPE_NODES_PER_STEP} tape nodes",
                  set(graph_nodes) == {FULL_TAPE_NODES_PER_STEP}, repr(sorted(set(graph_nodes))))
    return {"conv2d_per_forward": conv_counts, "tape_nodes_per_step": step_nodes,
            "coverage": coverage}


def _encoded_per_predicted(spans: list[list]) -> float:
    """Images entering the single-channel stem conv per slice predicted, in
    eval-mode volume prediction."""
    predicted = sum(r[tr.ROWS] for r in spans if r[tr.NAME] == "train.predict_with_params")
    if not predicted:
        return 0.0
    encoded = 0
    for r in spans:
        shape = r[tr.IN_SHAPE]
        if r[tr.NAME] == "tensor.conv2d" and shape is not None and len(shape) == 4 and shape[1] == 1:
            if any(a[tr.NAME] == "train.predict_with_params" for a in tr.ancestors(r)):
                encoded += shape[0]
    return encoded / predicted


def _validation_s(spans: list[list]) -> float:
    """Eval-mode prediction and scoring that training runs each epoch."""
    total = 0.0
    for r in spans:
        parent = r[tr.PARENT]
        if parent is not None and parent[tr.NAME] == "train.train" and r[tr.NAME] in (
            "train.predict_with_params", "metrics.confusion", "metrics.dice"
        ):
            total += r[tr.END] - r[tr.START]
    return total


def _write_spans(path: str, spans: list[list]) -> None:
    index = {id(r): i for i, r in enumerate(spans)}
    names: dict[str, int] = {}
    threads: dict[int, int] = {}
    rows = []
    for r in spans:
        parent = r[tr.PARENT]
        rows.append([
            names.setdefault(r[tr.NAME], len(names)),
            round(r[tr.START], 7), round(r[tr.END], 7),
            -1 if parent is None else index[id(parent)],
            threads.setdefault(r[tr.THREAD], len(threads)),
            r[tr.OUT_BYTES], int(r[tr.TAPED]),
        ])
    doc = {"fields": ["name", "start", "end", "parent", "thread", "out_bytes", "taped"],
           "names": list(names), "spans": rows}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# environment


def _openblas_threads() -> int | None:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    mem_kb = None
    try:
        with open("/proc/meminfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_kb = int(line.split()[1])
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "nproc": os.cpu_count(),
        "mem_total_mb": None if mem_kb is None else round(mem_kb / 1024),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "MSSEG_THREADS": os.environ.get("MSSEG_THREADS"),
        "openblas_threads": _openblas_threads(),
        "evaluate_pool_threads": train.worker_count(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    traced = bool(args.traced)
    tracer = tr.Tracer(None if traced else BOUNDARY)
    tracer.install()
    calibrator = Calibrator()
    run = Run(calibrator)
    fn = WORKLOADS[args.workload]
    workdir = os.path.join(os.path.dirname(os.path.abspath(args.out)), f"work-{os.getpid()}")
    try:
        if args.workload == "pipeline_mini":
            fn(run, args.seed, args.seconds, bool(args.smoke), workdir)
        else:
            fn(run, args.seed, args.seconds, bool(args.smoke))
    finally:
        calibrator.close()
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    windows = [(o["t0"], o["t1"]) for o in run.ops]
    spans = tracer.spans
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": traced,
        "smoke": bool(args.smoke),
        "env": environment(),
        "probes": run.probes,
        "setup_s": run.setup_s,
        "ops": run.ops,
        "boundary": _boundary_samples(spans, windows),
        "peak_rss_mb": peak_rss_mb,
        "extra": run.extra,
        "patched_sites": tracer.patched,
        "layers": {},
        "setup_layers": {},
        "invariants": {},
        "derived": {},
        "checks": run.checks,
    }
    if traced:
        inside = tr.select(spans, windows)
        record["invariants"] = _invariants(run, spans, windows, args.workload)
        record["layers"] = tr.layer_table(inside)
        record["setup_layers"] = tr.layer_table(tr.select(spans, run.setup_windows))
        record["derived"] = {
            "encoded_slices_per_slice": _encoded_per_predicted(inside),
            "validation_s": _validation_s(inside),
            "spans": len(inside),
        }
        _write_spans(os.path.splitext(args.out)[0] + ".spans.json", spans)
    record["checks"] = run.checks
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
