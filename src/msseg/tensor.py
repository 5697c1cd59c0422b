"""Reverse-mode automatic differentiation over float64 numpy arrays.

Design in one paragraph: a ``Tensor`` wraps an ndarray plus an optional
gradient. Operations are plain functions. While a ``Graph`` is active (it
is a context manager), every operation whose inputs require gradients
appends one node to the graph's tape; a node is the output tensor, the
input tensors, and a closure that maps the output gradient to input
gradients. The tape is append-only, so reverse insertion order is a valid
topological order, and ``backward`` is a single reversed sweep that pops
each node as it runs it, freeing the node's closure on the way down. With
no graph active, operations are pure evaluation and keep no references.
Both convolution ops, ``conv2d`` and ``conv_transpose2d``, work one sample
at a time, so their temporaries cover one sample, not the batch. They share
one backward (``_grads_from_taps``): per sample, one gather of the output
gradient's taps and two GEMMs, one for each gradient. Only the ``conv2d``
forward reads the input's zero-padded canvas (``_shifted_taps``).
Batchnorm and ReLU make the fewest passes over memory they can: both
``batchnorm2d`` modes write one output array, and its one vjp for both
modes rebuilds xhat from the input instead of keeping a copy on the tape;
``relu`` is one ``np.fmax`` pass.

Everything computes in float64. Gradients accumulate additively across
fan-out; a parameter used twice sees the sum of both contributions.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ShapeError

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
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
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


class Tensor:
    """A float64 array with an optional gradient of the same shape."""

    __slots__ = ("data", "grad", "requires_grad", "graph")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self.graph: Optional[Graph] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; the named functions below do the real work
    def __add__(self, other):
        return add(self, other) if isinstance(other, Tensor) else add_scalar(self, other)

    def __radd__(self, other):
        return add_scalar(self, other)

    def __mul__(self, other):
        return mul(self, other) if isinstance(other, Tensor) else mul_scalar(self, other)

    def __rmul__(self, other):
        return mul_scalar(self, other)

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return add(self, mul_scalar(other, -1.0))
        return add_scalar(self, -float(other))

    def __rsub__(self, other):
        return add_scalar(mul_scalar(self, -1.0), float(other))

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return div(self, other)
        return mul_scalar(self, 1.0 / float(other))

    def __neg__(self):
        return mul_scalar(self, -1.0)


def _emit(data: np.ndarray, inputs: Sequence[Tensor], vjp: Callable) -> Tensor:
    """Wrap op output; record (out, inputs, vjp) if a graph is active.

    ``vjp(out_grad)`` must return one gradient array (or None) per input,
    in order.
    """
    out = Tensor(data)
    g = _active_graph()
    if g is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.graph = g
        g._nodes.append((out, tuple(inputs), vjp))
    return out


def _accumulate(t: Tensor, g: Optional[np.ndarray]) -> None:
    if g is None or not t.requires_grad:
        return
    if g.shape != t.data.shape:
        raise ShapeError(
            f"gradient shape {g.shape} does not match tensor shape {t.data.shape}"
        )
    t.grad = g if t.grad is None else t.grad + g


def backward(loss: Tensor) -> None:
    """Reverse sweep from a scalar loss, filling ``grad`` on the way down.

    Gradients add up across separate graphs (micro-batch accumulation works
    by running several forward/backward pairs before one ``sgd_step``), but
    each graph can be swept only once: the sweep pops each node off the tape
    as it runs it, which frees that node's closure and the arrays it holds
    before the earlier nodes run, so a second backward over the same graph
    raises instead of silently returning zeros. It also raises when an
    earlier sweep stopped on an exception.
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
    loss.grad = np.ones_like(loss.data) if loss.grad is None else loss.grad + np.ones_like(loss.data)
    nodes = loss.graph._nodes
    while nodes:
        # popping frees each node's closure, and its output once unreferenced,
        # before the earlier nodes run
        out, inputs, vjp = nodes.pop()
        if out.grad is None:
            continue
        for t, g in zip(inputs, vjp(out.grad)):
            _accumulate(t, g)


def sgd_step(named_params: Iterable[tuple[str, Tensor]], lr: float, weight_decay: float = 0.0) -> None:
    """One SGD update: p <- p - lr * (grad + weight_decay * p).

    Clears every gradient afterwards. A parameter without a gradient is a
    bug in the caller's graph wiring, so it raises by name instead of
    silently skipping.
    """
    pairs = list(named_params)
    for name, p in pairs:
        if p.grad is None:
            raise ValueError(f"parameter {name!r} has no gradient; was backward run?")
    for name, p in pairs:
        p.data -= lr * (p.grad + weight_decay * p.data)
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


def concat_channels(xs: Sequence[Tensor]) -> Tensor:
    """Concatenate along axis 1. A single input passes through unchanged."""
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

    return _emit(np.concatenate([t.data for t in xs], axis=1), tuple(xs), vjp)


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


def _shifted_taps(a: np.ndarray, k: int):
    """For each (C, H, W) sample of ``a``, yield its k*k "same"-correlation
    taps, read in place from one flat zero-padded canvas.

    The sample is padded by k // 2 into a (C, (Hp+1)*Wp) canvas; tap (i, j)
    is the (C, H*Wp) slice at offset i*Wp + j, whose column y*Wp + x lines
    up with output pixel (y, x). Columns with x >= W are junk. The spare row
    keeps the last tap in bounds. One canvas is reused across samples: only
    its interior is rewritten, so its border stays zero. A 1x1 kernel needs
    no padding, so its one tap is the sample itself and no canvas is built.
    """
    n, c, h, w = a.shape
    if k == 1:
        for s in range(n):
            yield [a[s].reshape(c, -1)]
        return
    pad = k // 2
    wp = w + 2 * pad
    padded = np.zeros((c, h + 2 * pad + 1, wp))
    flat = padded.reshape(c, -1)
    offsets = [i * wp + j for i in range(k) for j in range(k)]
    for s in range(n):
        padded[:, pad:pad + h, pad:pad + w] = a[s]
        yield [flat[:, o:o + h * wp] for o in offsets]


def _shifted_correlate(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The "same" correlation of each sample of ``a`` (N, C, H, W) with the
    (F, C, k, k) kernel ``w``: the sum over taps of w[:, :, i, j] @ tap(i, j),
    accumulated in one (F, H*Wp) buffer whose first W columns of each image
    row are the output row."""
    f, c, k, _ = w.shape
    n, _, h, wd = a.shape
    wp = wd + 2 * (k // 2)
    # tap-major (k*k, F, C) copy, so each tap's weights are one BLAS operand
    wtaps = np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(k * k, f, c)
    res = np.empty((n, f, h, wd))
    acc = np.empty((f, h, wp))
    acc_flat, prod = acc.reshape(f, -1), np.empty((f, h * wp))
    for s, taps in enumerate(_shifted_taps(a, k)):
        np.matmul(wtaps[0], taps[0], out=acc_flat)
        for wt, tap in zip(wtaps[1:], taps[1:]):
            acc_flat += np.matmul(wt, tap, out=prod)
        res[s] = acc[:, :, :wd]
    return res


def _grads_from_taps(sample_taps, xd, wmat, f, k, need_x, need_w):
    """Both gradients of a convolution from its output gradient's taps.

    ``sample_taps`` yields each sample's k*k (F, H, W) output-gradient taps.
    Per sample they are copied into one reused (F*k*k, H*W) buffer, rows in
    (f, tap) order; then gx[s] = wmat @ buf and gw += xd[s] @ buf.T. Returns
    gx as (N, C, H, W) and gw as (C, F*k*k), each None when not needed.
    """
    n, c, h, wd = xd.shape
    gx = np.empty((n, c, h * wd)) if need_x else None
    gw = np.zeros((c, f * k * k)) if need_w else None
    buf = np.empty((f * k * k, h * wd))
    by_tap = buf.reshape(f, k * k, h, wd)
    for s, taps in enumerate(sample_taps):
        for t, tap in enumerate(taps):
            by_tap[:, t] = tap
        if need_x:
            np.matmul(wmat, buf, out=gx[s])
        if need_w:
            gw += xd[s].reshape(c, -1) @ buf.T
    return (gx.reshape(n, c, h, wd) if need_x else None), gw


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

    Forward and backward run one sample at a time. The forward is shifted
    GEMMs over the input's zero-padded canvas (``_shifted_taps``), so no
    patch matrix of the input is built. Both gradients are correlations with
    the output gradient, so the backward copies its k*k taps, minus their
    junk columns, into one small (F*k*k, H*W) buffer per sample, and two
    GEMMs read it (``_grads_from_taps``): the input gradient's, with the
    kernel rotated 180 degrees and its channel axes swapped, and the weight
    gradient's, with the sample.
    """
    k = _square_kernel(x, w, "conv2d", 1)
    if k % 2 == 0:
        raise ShapeError(f"conv2d needs an odd kernel, got {k}x{k}")
    _, c, h, wd = x.data.shape
    f = w.data.shape[0]
    if b.data.shape != (f,):
        raise ShapeError(f"conv2d bias must have shape ({f},), got {b.shape}")
    xd, wdata = x.data, w.data
    out = _shifted_correlate(wdata, xd)
    out += b.data[None, :, None, None]

    need_x, need_w, need_b = x.requires_grad, w.requires_grad, b.requires_grad

    def vjp(go):
        gb = go.sum(axis=(0, 2, 3)) if need_b else None
        if not (need_x or need_w):
            return None, None, gb
        # kernel rotated 180 degrees, channel axes swapped, columns (f, i, j)
        wt = wdata[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1) if need_x else None
        sample_taps = (
            [tap.reshape(f, h, -1)[:, :, :wd] for tap in taps] for taps in _shifted_taps(go, k)
        )
        gx, gw = _grads_from_taps(sample_taps, xd, wt, f, k, need_x, need_w)
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

    Like conv2d it works one sample at a time. The forward puts a sample's
    taps, wmat.T @ x[s], in one (F*k*k, H*W) buffer and scatters tap (i, j)
    into the stride-2 window at offset (i, j). The vjp reads the same
    windows of the output gradient back into such a buffer, which is that
    stride-2 cross-correlation's patch matrix, and both gradients are GEMMs
    over that one gather (``_grads_from_taps``, as for ``conv2d``).
    """
    k = _square_kernel(x, w, "conv_transpose2d", 0)
    n, c, h, wd = x.data.shape
    f = w.data.shape[1]
    xd = x.data
    wmat = w.data.reshape(c, f * k * k)
    windows = [np.s_[:, i:i + 2 * h:2, j:j + 2 * wd:2] for i in range(k) for j in range(k)]
    out = np.zeros((n, f, 2 * (h - 1) + k, 2 * (wd - 1) + k))
    # one reused buffer holds each sample's taps, rows in (f, i, j) order
    cols = np.empty((f * k * k, h * wd))
    taps = cols.reshape(f, k * k, h, wd)
    for s in range(n):
        np.matmul(wmat.T, xd[s].reshape(c, h * wd), out=cols)
        for t, win in enumerate(windows):
            out[s][win] += taps[:, t]

    need_x, need_w = x.requires_grad, w.requires_grad
    wshape = w.data.shape

    def vjp(go):
        sample_taps = ([go[s][win] for win in windows] for s in range(n))
        gx, gw = _grads_from_taps(sample_taps, xd, wmat, f, k, need_x, need_w)
        return gx, (gw.reshape(wshape) if need_w else None)

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
# Each backward adds 0.0 to the output gradient, so a -0.0 lands as +0.0:
# the value a sum of contributions into a zero buffer gives.


def _windows2(x: Tensor, op: str) -> np.ndarray:
    """(N, C, H, W) -> (N, C, H/2, W/2, 4): each 2x2 window in row-major order."""
    if x.data.ndim != 4:
        raise ShapeError(f"{op} needs NCHW input, got shape {x.shape}")
    n, c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ShapeError(f"{op} needs spatial extents divisible by 2, got {h}x{w}")
    blocks = x.data.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return blocks.reshape(n, c, h // 2, w // 2, 4)


def maxpool2d(x: Tensor) -> Tensor:
    """Maximum over non-overlapping 2x2 windows.

    Ties go to the first maximum in row-major order within the window, so
    the backward routing target is unambiguous.
    """
    flat = _windows2(x, "maxpool2d")
    n, c, ho, wo, _ = flat.shape
    idx = flat.argmax(axis=-1)[..., None]
    out = np.take_along_axis(flat, idx, axis=-1)[..., 0]

    def vjp(go):
        g = np.where(idx == np.arange(4), 0.0 + go[..., None], 0.0)
        g = g.reshape(n, c, ho, wo, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        return (g.reshape(n, c, 2 * ho, 2 * wo),)

    return _emit(out, (x,), vjp)


def avgpool2d(x: Tensor) -> Tensor:
    """Mean over non-overlapping 2x2 windows."""
    out = _windows2(x, "avgpool2d").mean(axis=-1)
    return _emit(out, (x,), lambda go: (_repeat2(0.0 + go * 0.25),))
