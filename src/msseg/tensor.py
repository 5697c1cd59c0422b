"""Reverse-mode automatic differentiation over float64 numpy arrays.

Design in one paragraph: a ``Tensor`` wraps an ndarray. Operations are
plain functions. While a ``Graph`` is active (it is a context manager),
every operation whose inputs require gradients appends one node to the
graph's tape: the output's gradient slot, one slot per input (None if it
needs no gradient) and a closure that maps the output gradient to input
gradients. Only the closures hold arrays, each just what it reads. The tape
is append-only, so reverse insertion order is a valid topological order,
and ``backward`` is a single reversed sweep that pops each node as it runs
it, freeing the node's closure on the way down. Only leaves get ``grad``.
With no graph active, operations are pure evaluation and keep no references.
``conv2d``'s docstring says how the convolutions run. The 2x2 pools read
the input's four strided quarters in place and copy no windows.
Batchnorm and ReLU make the fewest passes over memory they can: both
``batchnorm2d`` modes write one output array, and its one vjp for both
modes rebuilds xhat from the input instead of keeping a copy of it;
``relu`` is one ``np.fmax`` pass. ``concat_channels`` can write into a
buffer the caller owns: its output is then a channel-prefix view of the
buffer, and a piece that already lies in place is not copied. ``dense_block``
grows one such buffer per call, so each layer's output is copied once and a
taped block keeps one feed array. No op writes into the memory of its inputs.

Everything computes in float64. Gradients accumulate additively across
fan-out; a parameter used twice sees the sum of both contributions.

Importing this module sets one glibc allocator policy for the whole process,
where libc has ``mallopt``: blocks up to ``MMAP_THRESHOLD`` (48 MiB) come
from the heap rather than from their own mapping, and the heap returns free
memory to the system only once ``TRIM_THRESHOLD`` (1 GiB) lies free at its
top. A freed activation then backs the next one instead of being unmapped
and faulted back a page at a time; at the paper's 160x160 crop that cuts a
batch-1 train step's minor faults about a hundredfold, with the same results
bit for bit. The cap is 48 MiB because the widest activation of one 160x160
slice, a 199-channel dense-block feed, is 40.8 MB, and volume inference at
that crop decodes one center at a time and, after its first two slices,
encodes one slice at a time: a smaller cap maps that feed afresh on every
use. A larger cap lets the heap of a batch-4 train step,
which runs to gigabytes, fragment past the memory the step otherwise needs.
"""

from __future__ import annotations

import ctypes
import threading
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ShapeError

MMAP_THRESHOLD = 48 << 20
TRIM_THRESHOLD = 1 << 30
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's malloc.h parameter numbers


def _keep_freed_memory() -> None:
    """Apply the module docstring's allocator policy; a no-op without ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no process handle to look in
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


_keep_freed_memory()

_ACTIVE = threading.local()


def _active_graph() -> Optional["Graph"]:
    stack = getattr(_ACTIVE, "stack", None)
    return stack[-1] if stack else None


class Graph:
    """Append-only tape of recorded operations.

    Use as a context manager around the forward pass that should be
    differentiated::

        with Graph() as g:
            loss = ...
        backward(loss)

    Nested graphs are allowed; operations record onto the innermost one.
    """

    __slots__ = ("_nodes", "_consumed")

    def __init__(self):
        self._nodes: list[tuple[_Slot, list, Callable]] = []
        self._consumed = False

    def __enter__(self) -> "Graph":
        stack = getattr(_ACTIVE, "stack", None)
        if stack is None:
            stack = _ACTIVE.stack = []
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE.stack.pop()
        return False

    def __len__(self) -> int:
        return len(self._nodes)


class _Slot:
    """Where the sweep gathers a taped op output's gradient; it holds no data."""

    __slots__ = ("grad", "shape")

    def __init__(self, shape: tuple[int, ...]):
        self.grad: Optional[np.ndarray] = None
        self.shape = shape


class Tensor:
    """A float64 array. A leaf that requires gradients is its own gradient
    slot and gets ``grad``; a taped op output gets a ``_Slot`` in ``slot``
    and the ``graph`` that recorded it, and never a ``grad``."""

    __slots__ = ("data", "grad", "requires_grad", "graph", "slot")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self.graph: Optional[Graph] = None
        self.slot: Optional[_Slot] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _emit(data: np.ndarray, inputs: Sequence[Tensor], vjp: Callable) -> Tensor:
    """Wrap op output; if a graph is active, record (out slot, input slots,
    vjp), with None for each input that needs no gradient.

    ``vjp(out_grad)`` must return one gradient array (or None) per input,
    in order.
    """
    out = Tensor(data)
    g = _active_graph()
    if g is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.graph = g
        out.slot = _Slot(out.data.shape)
        # a leaf is its own slot, and not its own ``slot``, which would be a cycle
        ins = [(t.slot or t) if t.requires_grad else None for t in inputs]
        g._nodes.append((out.slot, ins, vjp))
    return out


def _accumulate(slot: "_Slot | Tensor | None", g: Optional[np.ndarray]) -> None:
    if g is None or slot is None:
        return
    if g.shape != slot.shape:
        raise ShapeError(f"gradient shape {g.shape} does not match tensor shape {slot.shape}")
    slot.grad = g if slot.grad is None else slot.grad + g


def backward(loss: Tensor) -> None:
    """Reverse sweep from a scalar loss, filling each leaf's ``grad``.

    Op outputs get no ``grad``: their gradients live in the tape's slots.
    Leaf gradients add up across separate graphs (micro-batch accumulation
    works by running several forward/backward pairs before one
    ``sgd_step``), but each graph can be swept only once: the sweep pops
    each node off the tape as it runs it, which frees that node's closure
    and the arrays it holds before the earlier nodes run, so a second
    backward over the same graph raises instead of silently returning
    zeros. It also raises when an earlier sweep stopped on an exception.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.graph is None:
        raise ValueError(
            "loss has no recorded graph; run the forward pass inside a Graph context"
        )
    if loss.graph._consumed:
        raise ValueError(
            "this graph was already swept by backward; rerun the forward pass"
        )
    # marked before the sweep: a vjp that raises leaves a half-emptied tape,
    # and sweeping only its remainder would give wrong gradients
    loss.graph._consumed = True
    loss.slot.grad = np.ones(loss.slot.shape)
    nodes = loss.graph._nodes
    while nodes:
        # popping frees each node's closure, and its output slot once
        # unreferenced, before the earlier nodes run
        out, inputs, vjp = nodes.pop()
        if out.grad is None:
            continue
        for slot, g in zip(inputs, vjp(out.grad)):
            _accumulate(slot, g)


SGD_CHUNK = 1 << 14


def sgd_step(named_params: Iterable[tuple[str, Tensor]], lr: float, weight_decay: float = 0.0) -> None:
    """One SGD update: p <- p - lr * (grad + weight_decay * p).

    Each parameter is updated ``SGD_CHUNK`` elements at a time: a chunk's
    step is built in one fixed scratch array, which stays in cache, in the
    order of that expression, so the result is the expression's bit for bit.
    Clears every gradient afterwards. A parameter without a gradient is a
    bug in the caller's graph wiring, so it raises by name instead of
    silently skipping.
    """
    pairs = list(named_params)
    for name, p in pairs:
        if p.grad is None:
            raise ValueError(f"parameter {name!r} has no gradient; was backward run?")
    scratch = np.empty(SGD_CHUNK)
    for name, p in pairs:
        if not p.data.flags.c_contiguous:
            p.data = np.ascontiguousarray(p.data)
        data, grad = p.data.reshape(-1), p.grad.reshape(-1)
        for lo in range(0, data.size, SGD_CHUNK):
            chunk = data[lo:lo + SGD_CHUNK]
            step = scratch[:chunk.size]
            np.multiply(chunk, weight_decay, out=step)
            step += grad[lo:lo + SGD_CHUNK]
            step *= lr
            chunk -= step
        p.grad = None


# ---------------------------------------------------------------------------
# elementwise plumbing


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add needs matching shapes, got {a.shape} and {b.shape}")
    return _emit(a.data + b.data, (a, b), lambda go: (go, go))


def add_scalar(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _emit(a.data + s, (a,), lambda go: (go,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul needs matching shapes, got {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def vjp(go):
        return go * bd if need_a else None, go * ad if need_b else None

    return _emit(ad * bd, (a, b), vjp)


def mul_scalar(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _emit(a.data * s, (a,), lambda go: (go * s,))


def div(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"div needs matching shapes, got {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    out = ad / bd

    def vjp(go):
        return go / bd, -go * ad / (bd * bd)

    return _emit(out, (a, b), vjp)


def sum_all(a: Tensor) -> Tensor:
    shape = a.data.shape
    return _emit(np.asarray(a.data.sum()), (a,), lambda go: (np.full(shape, float(go)),))


def relu(x: Tensor) -> Tensor:
    """max(x, 0) in one ``np.fmax`` pass; NaN, -0.0 and every x <= 0 give
    +0.0. The vjp masks with ``out > 0``, which holds exactly where x > 0,
    so it keeps no mask beside the output."""
    out = np.fmax(x.data, 0.0)
    return _emit(out, (x,), lambda go: (go * (out > 0.0),))


def sigmoid(x: Tensor) -> Tensor:
    # numerically stable on both tails
    xd = x.data
    out = np.empty_like(xd)
    pos = xd >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _emit(out, (x,), lambda go: (go * out * (1.0 - out),))


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return _emit(out, (x,), lambda go: (go * (1.0 - out * out),))


# ---------------------------------------------------------------------------
# shape plumbing


def _sub_box(x: Tensor, box) -> Tensor:
    """Copy ``x.data[box]`` out; the gradient scatters back into zeros."""
    full_shape = x.data.shape

    def vjp(go):
        g = np.zeros(full_shape)
        g[box] = go
        return (g,)

    return _emit(x.data[box].copy(), (x,), vjp)


def slice_batch(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous sub-range along the batch axis (axis 0), as a copy."""
    n = x.data.shape[0]
    if not (0 <= start < stop <= n):
        raise ShapeError(f"batch slice [{start}:{stop}] out of range for size {n}")
    return _sub_box(x, np.s_[start:stop])


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous sub-range along the channel axis (axis 1), as a copy."""
    if x.data.ndim < 2:
        raise ShapeError(f"channel slice needs rank >= 2, got shape {x.shape}")
    c = x.data.shape[1]
    if not (0 <= start < stop <= c):
        raise ShapeError(f"channel slice [{start}:{stop}] out of range for {c} channels")
    return _sub_box(x, np.s_[:, start:stop])


def crop_spatial(x: Tensor, height: int, width: int) -> Tensor:
    """Keep the leading ``height`` x ``width`` corner of an NCHW tensor."""
    if x.data.ndim != 4:
        raise ShapeError(f"crop_spatial needs NCHW input, got shape {x.shape}")
    h, w = x.data.shape[2:]
    if not (0 <= height <= h and 0 <= width <= w):
        raise ShapeError(f"crop window {height}x{width} outside {h}x{w}")
    return _sub_box(x, np.s_[:, :, :height, :width])


def concat_channels(xs: Sequence[Tensor], into: Optional[np.ndarray] = None) -> Tensor:
    """Concatenate along axis 1. A single input passes through unchanged.

    With ``into``, a float64 array of the same batch and spatial shape and
    at least as many channels, the output is the view ``into[:, :width]``
    and each piece is copied into its channel range in order, except a
    piece that already lies exactly there (same address, same strides),
    which is not copied. A piece may overlap ``into`` only where no earlier
    piece is copied. Channels past ``width`` are not written, so the
    prefixes that earlier calls returned keep their values (``dense_block``).
    """
    if len(xs) == 0:
        raise ShapeError("concat_channels needs at least one tensor")
    if len(xs) == 1:
        return xs[0]
    first = xs[0].data.shape
    for t in xs[1:]:
        s = t.data.shape
        if len(s) != len(first) or s[0] != first[0] or s[2:] != first[2:]:
            raise ShapeError(
                f"concat_channels needs matching batch/spatial shapes, got {first} and {s}"
            )
    widths = [t.data.shape[1] for t in xs]
    offsets = np.cumsum([0] + widths)

    def vjp(go):
        return tuple(go[:, offsets[i]:offsets[i + 1]] for i in range(len(widths)))

    if into is None:
        return _emit(np.concatenate([t.data for t in xs], axis=1), tuple(xs), vjp)
    s = into.shape
    if (into.dtype != np.float64 or len(s) != len(first) or s[0] != first[0]
            or s[2:] != first[2:] or s[1] < offsets[-1]):
        raise ShapeError(
            f"concat_channels into needs float64 with at least {offsets[-1]} channels "
            f"and the pieces' batch/spatial shape {first}, got {into.dtype} {s}"
        )
    for t, lo, hi in zip(xs, offsets[:-1], offsets[1:]):
        dst = into[:, lo:hi]
        src = t.data
        if src.ctypes.data != dst.ctypes.data or src.strides != dst.strides:
            dst[...] = src
    return _emit(into[:, :offsets[-1]], tuple(xs), vjp)


def _repeat2(a: np.ndarray) -> np.ndarray:
    """Repeat every pixel of an NCHW array into a 2x2 block."""
    return np.repeat(np.repeat(a, 2, axis=2), 2, axis=3)


def upsample_nearest(x: Tensor) -> Tensor:
    """Nearest-neighbour upsampling of both spatial axes by 2."""
    if x.data.ndim != 4:
        raise ShapeError(f"upsample_nearest needs NCHW input, got shape {x.shape}")
    n, c, h, w = x.data.shape

    def vjp(go):
        # each input pixel fans out to a 2x2 tile; its gradient is the tile sum
        return (go.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)),)

    return _emit(_repeat2(x.data), (x,), vjp)


# ---------------------------------------------------------------------------
# convolution


def _tap_windows(k: int, h: int, w: int) -> list[tuple]:
    """The "same" k x k correlation over an H x W image, tap by tap in
    (i, j) row-major order: for each tap, the (output window, input window)
    pair of index tuples over the last two axes. Tap (i, j) reads input
    pixel (y + i - k//2, x + j - k//2) for output pixel (y, x); the output
    window holds the pixels whose read lies in the image, and a tap that
    misses the image has two empty windows."""

    def spans(d: int, n: int) -> tuple[slice, slice]:
        lo, hi = max(0, -d), min(n, n - d)
        if hi <= lo:
            lo = hi = 0
        return slice(lo, hi), slice(lo + d, hi + d)

    p = k // 2
    table = []
    for i in range(k):
        out_y, in_y = spans(i - p, h)
        for j in range(k):
            out_x, in_x = spans(j - p, w)
            table.append(((..., out_y, out_x), (..., in_y, in_x)))
    return table


def _tap_gemms(windows, src: np.ndarray, hw: tuple, wmat=None, other=None):
    """The products of each sample's tap matrix: the gather half of every
    convolution product.

    For each sample s of ``src`` (N, F, ...), the T taps of ``windows``
    (as ``_tap_windows`` lays them out) are copied into one reused, zeroed
    (F*T, prod(hw)) buffer B, rows in (f, tap) order, so that what lies
    outside a tap's window stays zero; a lone tap whose window is the whole
    of ``src[s]`` is read in place. Returns the (N, rows, prod(hw)) stack of
    wmat @ B and the sum of other[s] @ B.T, the first sample's product
    written straight into the result; each is None without its operand.
    """
    n, f = src.shape[:2]
    taps, cols = len(windows), int(np.prod(hw))
    in_place = taps == 1 and src.shape[2:] == tuple(hw)
    buf = None if in_place else np.zeros((f, taps, *hw))
    left = None if wmat is None else np.empty((n, wmat.shape[0], cols))
    right = prod = None
    for s in range(n):
        sample = src[s]
        if in_place:
            patches = sample.reshape(f, cols)
        else:
            for t, (into, read) in enumerate(windows):
                buf[:, t][into] = sample[read]
            patches = buf.reshape(f * taps, cols)
        if wmat is not None:
            np.matmul(wmat, patches, out=left[s])
        if other is not None:
            rows = other[s].reshape(-1, cols)
            if s == 0:
                right = rows @ patches.T
                prod = np.empty_like(right) if n > 1 else None
            else:
                right += np.matmul(rows, patches.T, out=prod)
    return left, right


def _tap_scatter(windows, wmat: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
    """The adjoint of ``_tap_gemms``' gather, the scatter half of every
    convolution product: for each sample s of ``src`` (N, C, ...), the
    (F*T, ...) tap matrix wmat.T @ src[s], rows in (f, tap) order, is
    computed into one reused buffer, and each tap's buffer window is added
    into its window of ``dst[s]`` (N, F, ...) in tap order."""
    n, c = src.shape[:2]
    f, taps = dst.shape[1], len(windows)
    prod = np.empty((wmat.shape[1], int(np.prod(src.shape[2:]))))
    by_tap = prod.reshape(f, taps, *src.shape[2:])
    wt = wmat.T
    for s in range(n):
        np.matmul(wt, src[s].reshape(c, -1), out=prod)
        into_dst = dst[s]
        for t, (into, read) in enumerate(windows):
            into_dst[read] += by_tap[:, t][into]


def _shifted_correlate(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The "same" correlation of each sample of ``a`` (N, C, H, W) with the
    (F, C, k, k) kernel ``w`` by kn2row, reading the sample in place.

    Per sample, one GEMM multiplies the tap-stacked (k*k*F, C) weight with
    the sample read as (C, H*W). It writes into the rows of one reused flat
    buffer that begins with a gap of zeros and follows every H*W-column row
    with one more, gap = (k//2)*(W+1). Tap (i, j)'s contribution to the
    output is its (F, H*W) rows read at the flat shift (i - k//2)*W +
    (j - k//2): a read above or below the image lands in a gap, and a read
    past the left or right edge lands in the neighbouring image row, in
    columns that are zeroed after each GEMM for that tap column. So each
    tap is one contiguous run over all F rows, and the runs are summed in
    tap order into one (F, H*W + gap) buffer whose first H*W columns per
    row are the output. The kernel is larger than 1x1."""
    f, c, k, _ = w.shape
    n, _, h, wd = a.shape
    hw = h * wd
    # tap-major (k*k*F, C) copy: row t*F + f is w[f, :, i, j] for tap t = (i, j)
    wtaps = np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(k * k * f, c)
    res = np.empty((n, f, h, wd))
    p = k // 2
    gap = p * (wd + 1)
    row = hw + gap
    # the GEMM writes every product column, so only the gaps are zeroed;
    # the buffer may hold stale values from the heap
    flat = np.empty(gap + k * k * f * row)
    flat[:gap] = 0.0
    rows = flat[gap:].reshape(k * k * f, row)
    rows[:, hw:] = 0.0
    prod = rows[:, :hw]
    # tap column j reads column x + j - p for output column x; where that
    # passes an edge it reads the neighbouring image row's first j - p
    # (j > p) or last p - j (j < p) columns, which are zeroed
    by_col = prod.reshape(k, k, f, h, wd)
    wraps = [by_col[:, j, :, :, :j - p] for j in range(p + 1, k)]
    wraps += [by_col[:, j, :, :, max(0, wd - p + j):] for j in range(p)]
    run = (f - 1) * row + hw
    # tap (i, j)'s run starts (i - p)*W + j - p past its first row, which
    # starts at gap + (i*k + j)*F*row
    shifts = [(i * k + j) * f * row + (i - p) * wd + j - p for i in range(k) for j in range(k)]
    slabs = [flat[gap + o:gap + o + run] for o in shifts]
    acc = np.empty((f, row))
    acc_run = acc.reshape(-1)[:run]
    acc_out = acc[:, :hw]
    for s in range(n):
        np.matmul(wtaps, a[s].reshape(c, hw), out=prod)
        for wrap in wraps:
            wrap.fill(0.0)
        np.add(slabs[0], slabs[1], out=acc_run)
        for slab in slabs[2:]:
            acc_run += slab
        res[s].reshape(f, hw)[...] = acc_out
    return res


def _square_kernel(x: Tensor, w: Tensor, op: str, channel_axis: int) -> int:
    """Check that ``x`` and ``w`` are 4-d, that axis ``channel_axis`` of ``w``
    matches ``x``'s channels and that the kernel is square; return its side."""
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"{op} needs 4-d x and w, got {x.shape} and {w.shape}")
    c, cw = x.data.shape[1], w.data.shape[channel_axis]
    if cw != c:
        raise ShapeError(f"{op} channel mismatch: x has {c}, w expects {cw}")
    kh, kw = w.data.shape[2:]
    if kh != kw:
        raise ShapeError(f"{op} needs a square kernel, got {kh}x{kw}")
    return kh


def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Stride-1 "same" 2-D cross-correlation (no kernel flip) with bias.

    x: (N, C, H, W), w: (F, C, k, k) with k odd, b: (F,). The input is
    zero-padded by k // 2 on every side, so the output is (N, F, H, W).

    The algorithm follows from the shapes alone, never from the batch size,
    so a sample's output is the same bit for bit in any batch. Every path
    reads the input where it lies, pads nothing, and runs the forward one
    sample at a time. Each patch-matrix product is one of two helpers:
    ``_tap_gemms`` gathers a tensor's taps into a zero-bordered buffer and
    multiplies it from the left and from the right, and ``_tap_scatter``,
    its adjoint, multiplies and adds each tap back into its window.

    - Forward, weight-bound (H*W < F, a sample's patch matrix is smaller
      than the weight), 1x1, or fewer input channels than filters (C < F,
      the (C*k*k, H*W) patch matrix is smaller than kn2row's (k*k*F, H*W)
      product, as in the one-channel stem): ``_tap_gemms`` on x, with the
      weight read as (F, C*k*k) where it lies; a 1x1 kernel's patch matrix
      is the sample.
    - Forward, otherwise: kn2row (``_shifted_correlate``). One GEMM per
      sample multiplies the weight, copied tap-major as (k*k*F, C), with the
      sample read as (C, H*W); the output is the sum of the product's k*k
      shifted (F, H, W) blocks, added in tap order, where zeroed gaps and
      columns stand in for the padding, so no patch matrix is built.
    - Backward, weight-bound: the batch is read as one sample of (N, H, W)
      pixels, so each gradient is one GEMM: the weight gradient is the right
      product of ``_tap_gemms`` on x with the output gradient, and the input
      gradient is ``_tap_scatter`` of the output gradient (col2im).
    - Backward, otherwise: both gradients are correlations with the output
      gradient, so ``_tap_gemms`` gathers its taps per sample, and its left
      product, with the kernel rotated 180 degrees and its channel axes
      swapped, is the input gradient, and its right product, with the
      sample, the weight gradient.
    """
    k = _square_kernel(x, w, "conv2d", 1)
    if k % 2 == 0:
        raise ShapeError(f"conv2d needs an odd kernel, got {k}x{k}")
    n, c, h, wd = x.data.shape
    f = w.data.shape[0]
    if b.data.shape != (f,):
        raise ShapeError(f"conv2d bias must have shape ({f},), got {b.shape}")
    xd, wdata = x.data, w.data
    weight_bound = h * wd < f
    if weight_bound or k == 1 or c < f:
        out = _tap_gemms(_tap_windows(k, h, wd), xd, (h, wd), wmat=wdata.reshape(f, -1))[0]
        out = out.reshape(n, f, h, wd)
    else:
        out = _shifted_correlate(wdata, xd)
    out += b.data[None, :, None, None]

    need_x, need_w, need_b = x.requires_grad, w.requires_grad, b.requires_grad

    def vjp(go):
        gb = go.sum(axis=(0, 2, 3)) if need_b else None
        if not (need_x or need_w):
            return None, None, gb
        windows = _tap_windows(k, h, wd)
        if weight_bound:
            # the batch as one sample of (N, H, W) pixels, so each gradient
            # is one GEMM: gw = G @ P.T for the batch's patch matrix P, and
            # each tap's window of w.T @ G is added back (col2im) into a
            # contiguous (C, N, H, W) array, whose adds numpy runs unbuffered,
            # and gx is one copy of it in (N, C, H, W) order
            g = np.ascontiguousarray(go.transpose(1, 0, 2, 3))[None]
            gx = gw = None
            if need_w:
                by_channel = xd.transpose(1, 0, 2, 3)[None]
                gw = _tap_gemms(windows, by_channel, (n, h, wd), other=g)[1].reshape(wdata.shape)
            if need_x:
                cols = np.zeros((1, c, n, h, wd))
                _tap_scatter(windows, wdata.reshape(f, -1), g, cols)
                gx = np.ascontiguousarray(cols[0].transpose(1, 0, 2, 3))
            return gx, gw, gb
        # kernel rotated 180 degrees, channel axes swapped, columns (f, i, j)
        wt = wdata[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1) if need_x else None
        gx, gw = _tap_gemms(windows, go, (h, wd), wt, xd if need_w else None)
        if need_x:
            gx = gx.reshape(n, c, h, wd)
        if need_w:
            # tap (i, j) of the buffer pairs with kernel entry (k-1-i, k-1-j)
            gw = gw.reshape(c, f, k, k)[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            gw = np.ascontiguousarray(gw)
        return gx, gw, gb

    return _emit(out, (x, w, b), vjp)


def conv_transpose2d(x: Tensor, w: Tensor) -> Tensor:
    """Stride-2 transposed 2-D convolution, no bias.

    x: (N, C, H, W), w: (C, F, k, k); output is (N, F, 2*(H-1) + k,
    2*(W-1) + k). It is the exact adjoint of the unpadded stride-2
    cross-correlation with the same weight array read as (F, C, k, k):
    <xcorr(a; w), y> == <a, conv_transpose2d(y; w)>.

    Like conv2d it works one sample at a time, with the same two helpers
    over stride-2 windows: tap (i, j) pairs its whole (F, H, W) block of
    the tap matrix with the output's stride-2 window at offset (i, j). The
    forward is ``_tap_scatter`` of wmat.T @ x[s] into those windows. The
    vjp's ``_tap_gemms`` gathers the same windows of the output gradient,
    which is that stride-2 cross-correlation's patch matrix, and its left
    and right products are the input and weight gradients.
    """
    k = _square_kernel(x, w, "conv_transpose2d", 0)
    n, c, h, wd = x.data.shape
    f = w.data.shape[1]
    xd = x.data
    wmat = w.data.reshape(c, f * k * k)
    # per tap (i, j): its whole (F, H, W) block of a tap buffer, and its
    # stride-2 window of the output
    windows = [(..., np.s_[..., i:i + 2 * h:2, j:j + 2 * wd:2]) for i in range(k) for j in range(k)]
    out = np.zeros((n, f, 2 * (h - 1) + k, 2 * (wd - 1) + k))
    _tap_scatter(windows, wmat, xd, out)

    need_x, need_w = x.requires_grad, w.requires_grad
    wshape = w.data.shape

    def vjp(go):
        gx, gw = _tap_gemms(windows, go, (h, wd), wmat if need_x else None, xd if need_w else None)
        return (gx.reshape(n, c, h, wd) if need_x else None), (gw.reshape(wshape) if need_w else None)

    return _emit(out, (x, w), vjp)


# ---------------------------------------------------------------------------
# normalization and regularization


BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def batchnorm2d(
    x: Tensor, gamma: Tensor, beta: Tensor, running_mean: Tensor, running_var: Tensor, mode: str
) -> Tensor:
    """Per-channel batch normalization over (N, H, W), with ``BN_EPS`` added
    to the variance.

    ``running_mean`` and ``running_var`` are the site's non-trainable (C,)
    buffers. Train mode normalizes with the biased batch statistics and
    replaces each buffer's ``data`` with new = (1 - BN_MOMENTUM) * old +
    BN_MOMENTUM * batch (the running variance gets the unbiased estimate).
    Eval mode normalizes with the buffers and treats them as constants. In
    both modes the buffers are not inputs of the recorded node.

    Both modes write one output array: eval mode's is one per-channel
    affine map; train mode takes the variance from a centred copy of x and
    scales that copy in place by inv_std, then gamma. One vjp serves both.
    Instead of keeping xhat it rebuilds xhat = (x - mean) * inv_std from x
    with the forward's own ops, takes ggamma = sum(go * xhat) and gbeta =
    sum(go), and writes gx into xhat's buffer: go * gamma * inv_std in eval
    mode, gamma * inv_std * (go - (gbeta + xhat * ggamma) / m) in train.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"batchnorm2d mode must be 'train' or 'eval', got {mode!r}")
    if x.data.ndim != 4:
        raise ShapeError(f"batchnorm2d needs NCHW input, got shape {x.shape}")
    n, c, h, w = x.data.shape
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(
            f"batchnorm2d gamma/beta must have shape ({c},), got {gamma.shape}/{beta.shape}"
        )
    m = n * h * w
    if mode == "train" and m < 2:
        raise ShapeError(f"batchnorm2d train mode needs at least 2 values per channel, got {m}")
    xd, gdata, need_x = x.data, gamma.data, x.requires_grad
    if mode == "eval":
        mean = running_mean.data
        inv_std = 1.0 / np.sqrt(running_var.data + BN_EPS)
        scale = (gdata * inv_std)[None, :, None, None]
        out = np.subtract(xd, mean[None, :, None, None])
        out *= scale
    else:
        mean = xd.mean(axis=(0, 2, 3))
        out = np.subtract(xd, mean[None, :, None, None])
        var = _channel_dot(out, out) / m
        unbiased = var * (m / (m - 1))
        running_mean.data = (1.0 - BN_MOMENTUM) * running_mean.data + BN_MOMENTUM * mean
        running_var.data = (1.0 - BN_MOMENTUM) * running_var.data + BN_MOMENTUM * unbiased
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        scale = (gdata * inv_std)[None, :, None, None]
        # two multiplies, not one by scale, so out is exactly xhat * gamma +
        # beta for the xhat the vjp rebuilds
        out *= inv_std[None, :, None, None]
        out *= gdata[None, :, None, None]
    out += beta.data[None, :, None, None]

    def vjp(go):
        xhat = np.subtract(xd, mean[None, :, None, None])
        xhat *= inv_std[None, :, None, None]
        ggamma = _channel_dot(go, xhat)
        gbeta = go.sum(axis=(0, 2, 3))
        if not need_x:
            return None, ggamma, gbeta
        # xhat's buffer becomes gx; go is never written, since add's vjp
        # hands one array to both inputs
        if mode == "eval":
            return np.multiply(go, scale, out=xhat), ggamma, gbeta
        xhat *= (-ggamma / m)[None, :, None, None]
        xhat += go
        xhat -= (gbeta / m)[None, :, None, None]
        xhat *= scale
        return xhat, ggamma, gbeta

    return _emit(out, (x, gamma, beta), vjp)


def _channel_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-channel sum of a * b over (N, H, W), with no product array."""
    n, c = a.shape[:2]
    return np.einsum("nci,nci->c", a.reshape(n, c, -1), b.reshape(n, c, -1))


def dropout2d(x: Tensor, p: float, mode: str, rng: np.random.Generator | None = None) -> Tensor:
    """Channel dropout: zero whole (sample, channel) planes with probability p.

    Kept planes are rescaled by 1/(1-p) so the expected value matches the
    input. Eval mode and p == 0 pass the tensor through unchanged. The mask
    is drawn fresh from ``rng`` on every train-mode call.
    """
    if not (0.0 <= p < 1.0):
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if mode not in ("train", "eval"):
        raise ValueError(f"dropout2d mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or p == 0.0:
        return x
    if x.data.ndim != 4:
        raise ShapeError(f"dropout2d needs NCHW input, got shape {x.shape}")
    if rng is None:
        raise ValueError("dropout2d in train mode needs an rng")
    n, c = x.data.shape[:2]
    keep = rng.random((n, c)) >= p
    scale = keep.astype(np.float64)[:, :, None, None] / (1.0 - p)
    return _emit(x.data * scale, (x,), lambda go: (go * scale,))


def softmax_channels(x: Tensor) -> Tensor:
    """Softmax across the channel axis, max-shifted for stability."""
    if x.data.ndim != 4:
        raise ShapeError(f"softmax_channels needs NCHW input, got shape {x.shape}")
    if x.data.shape[1] < 2:
        raise ShapeError("softmax_channels needs at least 2 channels")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=1, keepdims=True)

    def vjp(go):
        dot = (go * out).sum(axis=1, keepdims=True)
        return (out * (go - dot),)

    return _emit(out, (x,), vjp)


# ---------------------------------------------------------------------------
# pooling over non-overlapping 2x2 windows
#
# Both pools read a window's four pixels as four strided quarters of the
# input, x[:, :, i::2, j::2] for (i, j) in row-major order, in place. Each
# backward adds 0.0 to the output gradient, so a -0.0 lands as +0.0: the
# value a sum of contributions into a zero buffer gives.

_QUARTERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _quarters(x: Tensor, op: str) -> list[np.ndarray]:
    """(N, C, H, W) -> four (N, C, H/2, W/2) views: each window's pixel
    (i, j) for (i, j) in ``_QUARTERS``."""
    if x.data.ndim != 4:
        raise ShapeError(f"{op} needs NCHW input, got shape {x.shape}")
    h, w = x.data.shape[2:]
    if h % 2 or w % 2:
        raise ShapeError(f"{op} needs spatial extents divisible by 2, got {h}x{w}")
    return [x.data[:, :, i::2, j::2] for i, j in _QUARTERS]


def maxpool2d(x: Tensor) -> Tensor:
    """Maximum over non-overlapping 2x2 windows.

    Ties go to the first maximum in row-major order within the window, so
    the backward routing target is unambiguous, and a NaN propagates. The
    maximum is a chain of ``np.maximum(later, best)`` calls, which keep
    ``best`` on a tie, -0.0 against +0.0 included. When x needs a gradient,
    the window index of each maximum (of the first NaN in a NaN window) is
    kept as one byte per output, and the vjp scatters into those quarters.
    """
    qs = _quarters(x, "maxpool2d")
    out = np.maximum(qs[1], qs[0])
    for q in qs[2:]:
        np.maximum(q, out, out=out)
    idx = None
    if x.requires_grad:
        # the first quarter holding the maximum, or a NaN, wins
        idx = np.full(out.shape, 3, dtype=np.uint8)
        for t in (2, 1, 0):
            np.copyto(idx, t, where=(qs[t] == out) | np.isnan(qs[t]))
    full_shape = x.data.shape

    def vjp(go):
        g = np.zeros(full_shape)
        routed = 0.0 + go
        for t, (i, j) in enumerate(_QUARTERS):
            np.copyto(g[:, :, i::2, j::2], routed, where=idx == t)
        return (g,)

    return _emit(out, (x,), vjp)


def avgpool2d(x: Tensor) -> Tensor:
    """Mean over non-overlapping 2x2 windows, summed in row-major order:
    ((((0.0 + q0) + q1) + q2) + q3) / 4."""
    qs = _quarters(x, "avgpool2d")
    out = np.add(qs[0], 0.0)
    for q in qs[1:]:
        out += q
    out /= 4
    return _emit(out, (x,), lambda go: (_repeat2(0.0 + go * 0.25),))
