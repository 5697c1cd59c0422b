"""The msseg benchmark: one workload run per invocation, in fresh subprocesses.

    python3 perfbench/run.py --workload train_full --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Run it from the repository root. One client thread drives the program in a
closed loop: each operation starts when the previous one has finished.
The workload runs in a fresh ``perfbench/worker.py`` process; with
``--trace 1`` a second, traced process follows the untraced one, and the
difference between the two is the tracing overhead.

The report goes to standard output, and its last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The
metrics are BENCHMARK.json's ``end_to_end`` list with ``--trace 0`` and
its ``per_layer`` list with ``--trace 1``. The full record, including the
per-layer table and the spans, is written under ``perfbench/out/``.
``--self-test`` runs every workload at its smallest size, traced and
untraced, and checks that every metric is emitted with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("train_full", "predict_full", "pipeline_mini")
REQUIRED = ("BENCHMARK.json", "src/msseg/__init__.py", "configs/full.cfg", "configs/miniature.cfg")
DEADLINE_S = 170.0
MB = float(1 << 20)
PARTS = ("blas", "py", "mem")  # calib.PARTS
# Median times of the parts of perfbench/calib.py's reference kernel on the
# box that defined the benchmark, and the parts whose kind of work matches
# each workload's. Gated times are scaled by the matching parts' nominal
# total over their mean total in the run: seconds at that box's speed.
CALIB_NOMINAL_S = {"blas": 0.104, "py": 0.109, "mem": 0.132}
CALIB_PARTS = {"train_full": ("blas", "mem"), "predict_full": ("blas", "mem"),
               "pipeline_mini": ("blas", "py")}

# The workload-level metrics each workload reports, beside the generic
# end-to-end ones that BENCHMARK.json gates (see perfbench/NOTES.md).
NAMED = {
    "train_full": ("setup_s", "train_step_s", "train_samples_per_s", "peak_rss_mb", "ops_failed_frac"),
    "predict_full": ("setup_s", "predict_volume_s", "predict_slices_per_s", "peak_rss_mb", "ops_failed_frac"),
    "pipeline_mini": ("setup_s", "train_step_s", "train_samples_per_s", "predict_volume_s", "eval_s",
                      "pipeline_s", "peak_rss_mb", "ops_failed_frac"),
}
UNITS = {"setup_s": "s", "train_step_s": "s", "train_samples_per_s": "1/s", "predict_volume_s": "s",
         "predict_slices_per_s": "1/s", "eval_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB",
         "ops_failed_frac": "ratio"}

ELEMENTWISE = ("add", "add_scalar", "mul", "mul_scalar", "div", "sum_all", "relu", "sigmoid",
               "tanh", "dropout2d", "softmax_channels")
SHAPE_OPS = ("slice_batch", "slice_channels", "crop_spatial", "upsample_nearest")
BLOCKS = ("dense_block", "sa_block", "transition_down", "transition_up", "convlstm_forward")
INCLUSIVE = (
    "model.build_model", "train.soft_dice_loss", "train.predict_with_params", "train.evaluate",
    "train.train", "data.generate_phantom", "data.preprocess_pair", "data.load_volume",
    "data.save_volume", "data.make_triplets", "checkpoint.save_checkpoint",
    "checkpoint.load_checkpoint", "checkpoint.restore_into_model", "metrics.confusion",
    "cli.phantom", "cli.preprocess", "cli.train", "cli.eval", "cli.predict",
)


class BenchError(Exception):
    pass


def summarize(values: list[float]) -> dict:
    """Median, sample count and the highest of p90/p99/p99.9 that has at
    least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    ordered = sorted(values)
    for p in (99.9, 99.0, 90.0):
        if len(values) * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = ordered[min(len(ordered) - 1, math.ceil(len(ordered) * p / 100) - 1)]
            break
    return out


def run_worker(workload: str, seed: int, seconds: float, traced: bool, smoke: bool,
               deadline: float) -> dict:
    tag = f"{workload}-seed{seed}-{'traced' if traced else 'untraced'}{'-smoke' if smoke else ''}"
    path = os.path.join(OUT, tag + ".json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--traced", str(int(traced)),
           "--smoke", str(int(smoke)), "--out", path]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to start the {tag} run")
    # The worker leads a process group of its own, with its calibration and
    # import-probe children, so that every path out of here can end them all.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag} run did not finish within {timeout:.0f} s") from None
    finally:
        end_group(proc)
    if proc.returncode != 0:
        raise BenchError(f"{tag} run exited {proc.returncode}:\n{stderr[-4000:]}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def end_group(proc: subprocess.Popen) -> None:
    """Kill what is left of ``proc``'s process group and wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    if proc.returncode is None:
        proc.communicate()
    give_up = time.monotonic() + 10.0
    while time.monotonic() < give_up:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def failures(record: dict) -> int:
    """Failed operations; a failed check that marked no operation fails them all."""
    failed = sum(not op["ok"] for op in record["ops"])
    if failed == 0 and not all(c["ok"] for c in record["checks"]):
        failed = len(record["ops"])
    return failed


def named_metrics(record: dict) -> dict[str, dict]:
    """The workload-level end-to-end metrics of one workload, as measured,
    with sample counts."""
    imports = [p["import_s"] for p in record["probes"]]
    prepares = [rep["s"] for rep in record["setup_s"]]
    wl = record["workload"]
    ops = record["ops"]
    times = [op["t1"] - op["t0"] for op in ops]
    items = sum(op["items"] for op in ops)
    b = record["boundary"]
    med = statistics.median(times)
    out = {
        "setup_s": {"median": statistics.median(imports) + statistics.median(prepares),
                    "n": len(prepares), "import_n": len(imports),
                    "import_s": statistics.median(imports), "prepare_s": statistics.median(prepares)},
        "peak_rss_mb": {"median": record["peak_rss_mb"], "n": 1},
        "ops_failed_frac": {"median": failures(record) / len(ops), "n": len(ops)},
    }
    # Rates are per-operation items over the median operation time, so a
    # single slow operation moves them no more than it moves the median.
    if wl == "train_full":
        out["train_step_s"] = summarize(times)
        out["train_samples_per_s"] = {"median": items / len(ops) / med, "n": len(times)}
    elif wl == "predict_full":
        out["predict_volume_s"] = summarize(times)
        out["predict_slices_per_s"] = {"median": items / len(ops) / med, "n": len(times)}
    else:
        out["pipeline_s"] = summarize(times)
        out["train_step_s"] = summarize(b["train_step_s"])
        out["train_samples_per_s"] = {
            "median": statistics.median(n / t for n, t in zip(b["train_batch"], b["train_step_s"])),
            "n": len(b["train_step_s"])}
        out["predict_volume_s"] = summarize(b["predict_volume_s"])
        out["eval_s"] = summarize(record["extra"]["command_s"]["eval"])
    for name, value in out.items():
        value["unit"] = UNITS[name]
    return out


def _kernel_s(sample: list[float], parts) -> float:
    return sum(sample[PARTS.index(p)] for p in parts)


def _speed(samples: list[list[float]], parts, average) -> float:
    """Nominal time of the kernel ``parts`` over their ``average`` time in
    ``samples``: below 1 when the machine ran slower than the defining box."""
    nominal = sum(CALIB_NOMINAL_S[p] for p in parts)
    return nominal / average([_kernel_s(c, parts) for c in samples])


def speed_factor(record: dict) -> float:
    """The whole run's speed, for its timed operations: the median over all
    calibration samples of the parts that match the workload."""
    samples = [c for probe in record["probes"] for c in probe["calib"]]
    return _speed(samples, CALIB_PARTS[record["workload"]], statistics.median)


def scaled_setup_s(record: dict) -> float:
    """Set-up time at the reference speed. Each sample is scaled by the
    calibration of its own probe, because set-up samples are short: the
    import by the ``py`` part (interpreter and file work), the in-process
    preparation by the workload's parts."""
    probes = record["probes"]
    imports = [p["import_s"] * _speed(p["calib"], ("py",), statistics.fmean) for p in probes]
    parts = CALIB_PARTS[record["workload"]]
    prepares = [rep["s"] * _speed(probes[rep["probe"]]["calib"], parts, statistics.fmean)
                for rep in record["setup_s"]]
    return statistics.median(imports) + statistics.median(prepares)


def end_to_end(record: dict, named: dict) -> dict[str, float]:
    """The generic metrics BENCHMARK.json gates, which every workload emits:
    its unit operation is a train step, a volume prediction or a pipeline pass.
    Times and rates are scaled to the reference speed."""
    workload = record["workload"]
    factor = speed_factor(record)
    op = {"train_full": "train_step_s", "predict_full": "predict_volume_s",
          "pipeline_mini": "pipeline_s"}[workload]
    work = {"train_full": "train_samples_per_s", "predict_full": "predict_slices_per_s",
            "pipeline_mini": "train_samples_per_s"}[workload]
    return {
        "setup_s": scaled_setup_s(record),
        "op_s": named[op]["median"] * factor,
        "work_per_s": named[work]["median"] / factor,
        "peak_rss_mb": named["peak_rss_mb"]["median"],
    }


def per_layer(traced: dict, untraced: dict) -> dict[str, float]:
    """BENCHMARK.json's per-layer metrics from the traced record, per operation."""
    table = traced["layers"]
    n = len(traced["ops"])
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "out_bytes": 0, "tape_nodes": 0, "tape_bytes": 0}

    def per_op(names, key: str, scale: float = 1.0) -> float:
        names = [names] if isinstance(names, str) else names
        return sum(table.get(name, zero)[key] for name in names) / n / scale

    ops = [name for name in table if name.startswith("tensor.")
           and name not in ("tensor.backward", "tensor.sgd_step")]
    m = {
        "tensor.conv2d.calls": per_op("tensor.conv2d", "calls"),
        "tensor.conv2d.out_mb": per_op("tensor.conv2d", "out_bytes", MB),
        "tensor.tape_nodes": per_op(ops, "tape_nodes"),
        "tensor.tape_out_mb": per_op(ops, "tape_bytes", MB),
        "tensor.concat_channels.out_mb": per_op("tensor.concat_channels", "out_bytes", MB),
        "tensor.batchnorm2d.calls": per_op("tensor.batchnorm2d", "calls"),
        "tensor.elementwise.s": per_op([f"tensor.{o}" for o in ELEMENTWISE], "self_s"),
        "tensor.shape_ops.s": per_op([f"tensor.{o}" for o in SHAPE_OPS], "self_s"),
        "tensor.ops.calls": per_op(ops, "calls"),
        "tensor.ops.s": per_op(ops, "self_s"),
        "model.forward.calls": per_op(["model.forward.train", "model.forward.eval"], "calls"),
        "model.encoded_slices_per_slice": traced["derived"]["encoded_slices_per_slice"],
        "model.conv2d_per_forward": float(max(traced["invariants"]["conv2d_per_forward"], default=0)),
        "train.validation.s": traced["derived"]["validation_s"] / n,
    }
    for op in ("conv2d", "backward", "concat_channels", "batchnorm2d", "maxpool2d", "avgpool2d",
               "conv_transpose2d", "sgd_step"):
        m[f"tensor.{op}.s"] = per_op(f"tensor.{op}", "self_s")
    for block in BLOCKS:
        for key in ("s", "self_s", "calls"):
            m[f"blocks.{block}.{key}"] = per_op(f"blocks.{block}", key)
    for name in ("model.forward.train", "model.forward.eval") + INCLUSIVE:
        m[f"{name}.s"] = per_op(name, "s")
    reps = len(traced["setup_s"])
    m["setup.import.s"] = statistics.median(p["import_s"] for p in traced["probes"])
    m["setup.prepare.s"] = statistics.median(rep["s"] for rep in traced["setup_s"])
    for name in ("model.build_model", "data.generate_phantom", "data.preprocess_pair"):
        m[f"setup.{name}.s"] = traced["setup_layers"].get(name, zero)["s"] / reps
    # Both at the reference speed, so that the machine's drift between the
    # two runs does not pass for tracing overhead.
    op_traced = statistics.median(op["t1"] - op["t0"] for op in traced["ops"]) * speed_factor(traced)
    op_untraced = (statistics.median(op["t1"] - op["t0"] for op in untraced["ops"])
                   * speed_factor(untraced))
    m["trace.overhead_s"] = op_traced - op_untraced
    m["trace.overhead_frac"] = op_traced / op_untraced - 1.0
    m["trace.coverage_frac"] = traced["invariants"]["coverage"]
    m["trace.spans_per_op"] = traced["derived"]["spans"] / n
    return m


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def as_metrics(values: dict[str, float], spec_list: list[dict]) -> dict:
    missing = [m["name"] for m in spec_list if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_list}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload: str, records: list[dict], named: dict, layers: dict | None) -> None:
    env = records[0]["env"]
    print(f"# workload {workload}, seed {records[0]['seed']}")
    print("# env " + " ".join(f"{k}={v if v is not None else 'unset'}" for k, v in env.items()))
    samples = [c for probe in records[0]["probes"] for c in probe["calib"]]
    parts = CALIB_PARTS[workload]
    print(f"# speed factor {speed_factor(records[0]):.4f}: median of kernel parts {'+'.join(parts)} "
          f"over {len(samples)} samples, {statistics.median(_kernel_s(c, parts) for c in samples):.4f} s; "
          f"nominal {sum(CALIB_NOMINAL_S[p] for p in parts):.3f} s. Times below are as measured, "
          f"the JSON line's are scaled")
    for name, value in named.items():
        rest = " ".join(f"{k}={_fmt(v)}" for k, v in value.items() if k not in ("median", "unit"))
        print(f"{name:<22} {value['median']:.6g} {value['unit']}  {rest}")
    for rec in records:
        kind = "traced" if rec["traced"] else "untraced"
        for c in rec["checks"]:
            if not c["ok"] or rec is records[0]:
                status = "ok  " if c["ok"] else "FAIL"
                print(f"check {status} [{kind}] {c['name']} {c['detail'][:120]}")
    if layers is not None:
        for name, value in layers.items():
            print(f"layer {name:<36} {_fmt(value)}")


def run_workload(args, spec: dict) -> int:
    deadline = time.monotonic() + DEADLINE_S
    untraced = run_worker(args.workload, args.seed, args.seconds, False, False, deadline)
    records = [untraced]
    named = named_metrics(untraced)
    layers = None
    if args.trace:
        traced = run_worker(args.workload, args.seed, args.seconds, True, False, deadline)
        records.append(traced)
        layers = per_layer(traced, untraced)
        metrics = as_metrics(layers, spec["per_layer"])
    else:
        metrics = as_metrics(end_to_end(untraced, named), spec["end_to_end"])
    attempted = sum(len(r["ops"]) for r in records)
    failed = sum(failures(r) for r in records)
    correct = failed == 0 and all(c["ok"] for r in records for c in r["checks"])
    report(args.workload, records, named, layers)
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "env": untraced["env"], "speed_factor": speed_factor(untraced), "named": named,
               "metrics": metrics,
               "layer_table": records[-1]["layers"] if args.trace else None}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.summary.json"),
              "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _schema(record: dict) -> dict:
    """Top-level keys and value types, and the keys of the nested records
    that both runs fill (the per-layer ones are empty when untraced)."""
    out = {k: type(v).__name__ for k, v in record.items()}
    for k in ("env", "boundary", "extra"):
        out[k] = sorted(record[k])
    return out


def self_test(spec: dict) -> int:
    """Every workload at its smallest size, untraced and traced."""
    deadline = time.monotonic() + 600.0
    problems = []
    for wl in WORKLOADS:
        untraced = run_worker(wl, 1, 0.0, False, True, deadline)
        traced = run_worker(wl, 1, 0.0, True, True, deadline)
        for rec in (untraced, traced):
            kind = "traced" if rec["traced"] else "untraced"
            problems += [f"{wl} [{kind}] check failed: {c['name']} {c['detail']}"
                         for c in rec["checks"] if not c["ok"]]
            named = named_metrics(rec)
            if sorted(named) != sorted(NAMED[wl]):
                problems.append(f"{wl} [{kind}] named metrics {sorted(named)} != {sorted(NAMED[wl])}")
            problems += [f"{wl} [{kind}] {k} has unit {v['unit']}, not {UNITS[k]}"
                         for k, v in named.items() if v["unit"] != UNITS[k]]
            for m in as_metrics(end_to_end(rec, named), spec["end_to_end"]).items():
                if not (math.isfinite(m[1]["value"]) and m[1]["value"] > 0):
                    problems.append(f"{wl} [{kind}] end-to-end {m[0]} = {m[1]['value']}")
        if _schema(untraced) != _schema(traced):
            problems.append(f"{wl}: traced and untraced records differ in schema")
        layers = as_metrics(per_layer(traced, untraced), spec["per_layer"])
        problems += [f"{wl} per-layer {k} = {v['value']}" for k, v in layers.items()
                     if not math.isfinite(v["value"])]
        print(f"self-test {wl}: {'ok' if not problems else 'problems so far: ' + str(len(problems))}")
    for p in problems:
        print("FAIL " + p)
    print("self-test " + ("passed" if not problems else f"failed ({len(problems)} problems)"))
    return 0 if not problems else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="msseg benchmark (see perfbench/NOTES.md)")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: run from a full checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    os.makedirs(OUT, exist_ok=True)
    spec = load_spec()
    try:
        return self_test(spec) if args.self_test else run_workload(args, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
