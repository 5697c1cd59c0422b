"""Span tracing of the msseg package from outside its source.

``Tracer.install`` replaces public functions of the msseg modules with
wrappers that record one span per call: name, start, end, parent span,
thread, output bytes and whether the call appended a node to the active
autodiff tape. A function is patched at every import site, that is at each
module attribute bound to it (``msseg.tensor.conv2d``, ``msseg.blocks.conv2d``,
``msseg.model.conv2d``, ``msseg.backward`` ...), so no call escapes through a
name imported before the patch. Spans stay in memory; ``layer_table``
reduces them at the end.

Self time is a span's duration minus the union of the intervals its
children cover. Spans started on a pool thread with nothing open on that
thread take as parent the innermost span open on the main thread (the
``evaluate`` call that submitted them).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time

LAYERS = ("tensor", "blocks", "model", "train", "data", "checkpoint", "metrics", "cli")

# Span record fields (a list per span, mutated in place while it is open).
# ROWS is the leading extent of the result (batch of a Tensor, slices of a
# volume); IN_SHAPE is the shape of a tensor op's first input.
NAME, START, END, PARENT, THREAD, OUT_BYTES, TAPED, ROWS, IN_SHAPE = range(9)


def _span_name(module: str, fn_name: str, args, kwargs) -> str:
    layer = module.rsplit(".", 1)[-1]
    if layer == "cli" and fn_name.startswith("cmd_"):
        return "cli." + fn_name[4:].replace("_", "-")
    if layer == "model" and fn_name == "forward":
        mode = kwargs.get("mode", args[2] if len(args) > 2 else "?")
        return f"model.forward.{mode}"
    return f"{layer}.{fn_name}"


def _flat_inputs(args):
    for a in args:
        if isinstance(a, (list, tuple)):
            yield from a
        else:
            yield a


class Tracer:
    """Records spans for the functions it patches.

    ``only`` restricts patching to the given ``layer.function`` names; the
    untraced run uses that to keep just the boundary spans it times
    operations by.
    """

    def __init__(self, only: frozenset[str] | None = None):
        self.only = only
        self.spans: list[list] = []
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list = []
        self.patched: dict[str, int] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.get_ident() == self._main_ident:
                stack = self._main_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def _wrap(self, fn, tensor_cls, is_tensor_op: bool):
        spans = self.spans
        stack_of = self._stack
        main_stack = self._main_stack
        clock = time.perf_counter
        module, fn_name = fn.__module__, fn.__name__
        fixed_name = None
        if not (module.endswith(".model") and fn_name == "forward"):
            fixed_name = _span_name(module, fn_name, (), {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            elif stack is not main_stack and main_stack:
                parent = main_stack[-1]
            else:
                parent = None
            name = fixed_name or _span_name(module, fn_name, args, kwargs)
            first = args[0] if args else None
            in_shape = first.data.shape if is_tensor_op and isinstance(first, tensor_cls) else None
            rec = [name, clock(), 0.0, parent, threading.get_ident(), 0, False, 0, in_shape]
            spans.append(rec)
            stack.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if isinstance(out, tensor_cls):
                rec[ROWS] = out.data.shape[0] if out.data.ndim else 1
                if is_tensor_op:
                    rec[OUT_BYTES] = out.data.nbytes
                    rec[TAPED] = out.graph is not None and all(
                        out is not a for a in _flat_inputs(args)
                    )
            elif hasattr(out, "dims"):
                rec[ROWS] = out.dims[0]
            return out

        return traced

    def install(self) -> None:
        """Patch every selected public function at every msseg import site."""
        tensor_mod = importlib.import_module("msseg.tensor")
        for layer in LAYERS:
            importlib.import_module(f"msseg.{layer}")
        sites = [m for n, m in list(sys.modules.items()) if n == "msseg" or n.startswith("msseg.")]
        for layer in LAYERS:
            mod = sys.modules[f"msseg.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                key = f"{layer}.{attr}"
                if self.only is not None and key not in self.only:
                    continue
                is_op = layer == "tensor" and attr not in ("backward", "sgd_step")
                wrapper = self._wrap(fn, tensor_mod.Tensor, is_op)
                count = 0
                for site in sites:
                    for site_attr, value in list(vars(site).items()):
                        if value is fn:
                            setattr(site, site_attr, wrapper)
                            count += 1
                self.patched[key] = count


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def select(spans: list[list], windows: list[tuple[float, float]]) -> list[list]:
    """Spans that start inside one of the (start, end) windows."""
    if not windows:
        return []
    windows = sorted(windows)
    out = []
    for rec in spans:
        s = rec[START]
        for ws, we in windows:
            if ws <= s <= we:
                out.append(rec)
                break
    return out


def layer_table(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds, output bytes,
    taped nodes and their output bytes."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec[PARENT] is not None:
            children.setdefault(id(rec[PARENT]), []).append((rec[START], rec[END]))
    table: dict[str, dict[str, float]] = {}
    for rec in spans:
        row = table.get(rec[NAME])
        if row is None:
            row = table[rec[NAME]] = {
                "calls": 0, "s": 0.0, "self_s": 0.0, "out_bytes": 0,
                "tape_nodes": 0, "tape_bytes": 0,
            }
        dur = rec[END] - rec[START]
        kids = children.get(id(rec))
        row["calls"] += 1
        row["s"] += dur
        row["self_s"] += dur - (_union_length(kids) if kids else 0.0)
        row["out_bytes"] += rec[OUT_BYTES]
        if rec[TAPED]:
            row["tape_nodes"] += 1
            row["tape_bytes"] += rec[OUT_BYTES]
    return table


def ancestors(rec: list):
    p = rec[PARENT]
    while p is not None:
        yield p
        p = p[PARENT]


def top_level_cover(spans: list[list], windows: list[tuple[float, float]]) -> float:
    """Seconds of the windows covered by spans that have no parent."""
    covered = 0.0
    tops = [(r[START], r[END]) for r in spans if r[PARENT] is None]
    for ws, we in windows:
        inside = [(max(s, ws), min(e, we)) for s, e in tops if e > ws and s < we]
        covered += _union_length(inside)
    return covered
