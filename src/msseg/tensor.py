"""Reverse-mode automatic differentiation over float64 numpy arrays.

Design in one paragraph: a ``Tensor`` wraps an ndarray plus an optional
gradient. Operations are plain functions. While a ``Graph`` is active (it
is a context manager), every operation whose inputs require gradients
appends one node to the graph's tape; a node is the output tensor, the
input tensors, and a closure that maps the output gradient to input
gradients. The tape is append-only, so reverse insertion order is a valid
topological order, and ``backward`` is a single reversed sweep. With no
graph active, operations are pure evaluation and keep no references.

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

    __slots__ = ("data", "grad", "requires_grad", "graph", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self.graph: Optional[Graph] = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{label})"

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


class BatchNormStats:
    """Running mean/variance buffers for one batchnorm site.

    ``initialized(c)`` gives the conventional starting point (zero mean,
    unit variance). A site whose buffers are still ``None`` cannot run in
    eval mode.
    """

    __slots__ = ("mean", "var")

    def __init__(self, mean: Optional[np.ndarray] = None, var: Optional[np.ndarray] = None):
        self.mean = None if mean is None else np.asarray(mean, dtype=np.float64)
        self.var = None if var is None else np.asarray(var, dtype=np.float64)

    @classmethod
    def initialized(cls, channels: int) -> "BatchNormStats":
        return cls(np.zeros(channels), np.ones(channels))


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
    each graph can be swept only once: the sweep releases the tape and the
    arrays its closures hold, so a second backward over the same graph
    raises instead of silently returning zeros.
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
    loss.grad = np.ones_like(loss.data) if loss.grad is None else loss.grad + np.ones_like(loss.data)
    for out, inputs, vjp in reversed(loss.graph._nodes):
        if out.grad is None:
            continue
        for t, g in zip(inputs, vjp(out.grad)):
            _accumulate(t, g)
    loss.graph._consumed = True
    loss.graph._nodes.clear()


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
    return _emit(ad * bd, (a, b), lambda go: (go * bd, go * ad))


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
    keep = x.data > 0.0
    return _emit(np.where(keep, x.data, 0.0), (x,), lambda go: (go * keep,))


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


def slice_batch(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous sub-range along the batch axis (axis 0), as a copy."""
    n = x.data.shape[0]
    if not (0 <= start < stop <= n):
        raise ShapeError(f"batch slice [{start}:{stop}] out of range for size {n}")
    full_shape = x.data.shape

    def vjp(go):
        g = np.zeros(full_shape)
        g[start:stop] = go
        return (g,)

    return _emit(x.data[start:stop].copy(), (x,), vjp)


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous sub-range along the channel axis (axis 1), as a copy."""
    if x.data.ndim < 2:
        raise ShapeError(f"channel slice needs rank >= 2, got shape {x.shape}")
    c = x.data.shape[1]
    if not (0 <= start < stop <= c):
        raise ShapeError(f"channel slice [{start}:{stop}] out of range for {c} channels")
    full_shape = x.data.shape

    def vjp(go):
        g = np.zeros(full_shape)
        g[:, start:stop] = go
        return (g,)

    return _emit(x.data[:, start:stop].copy(), (x,), vjp)


def crop_spatial(x: Tensor, top: int, left: int, height: int, width: int) -> Tensor:
    """Crop a window from the two spatial axes of an NCHW tensor."""
    if x.data.ndim != 4:
        raise ShapeError(f"crop_spatial needs NCHW input, got shape {x.shape}")
    n, c, h, w = x.data.shape
    if not (0 <= top and top + height <= h and 0 <= left and left + width <= w):
        raise ShapeError(
            f"crop window [{top}:{top + height}, {left}:{left + width}] outside {h}x{w}"
        )
    full_shape = x.data.shape

    def vjp(go):
        g = np.zeros(full_shape)
        g[:, :, top:top + height, left:left + width] = go
        return (g,)

    return _emit(x.data[:, :, top:top + height, left:left + width].copy(), (x,), vjp)


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


def upsample_nearest(x: Tensor, factor: int) -> Tensor:
    """Nearest-neighbour upsampling of both spatial axes by an integer factor."""
    if x.data.ndim != 4:
        raise ShapeError(f"upsample_nearest needs NCHW input, got shape {x.shape}")
    f = int(factor)
    if f < 1:
        raise ShapeError(f"upsample factor must be >= 1, got {factor}")
    if f == 1:
        return x
    n, c, h, w = x.data.shape
    out = np.repeat(np.repeat(x.data, f, axis=2), f, axis=3)

    def vjp(go):
        # each input pixel fans out to an f*f tile; its gradient is the tile sum
        return (go.reshape(n, c, h, f, w, f).sum(axis=(3, 5)),)

    return _emit(out, (x,), vjp)


# ---------------------------------------------------------------------------
# convolution


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """(N, C, Hp, Wp) -> (N, C*kh*kw, L) patch matrix, L = Ho*Wo."""
    n, c, hp, wp = xp.shape
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    sn, sc, sh, sw = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, kh, kw, ho, wo),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    return win.reshape(n, c * kh * kw, ho * wo)


def _col2im(
    cols: np.ndarray, n: int, c: int, hp: int, wp: int, kh: int, kw: int, stride: int,
    ho: int, wo: int,
) -> np.ndarray:
    """Adjoint of _im2col: scatter-add patches back onto the padded canvas."""
    x = np.zeros((n, c, hp, wp))
    cols = cols.reshape(n, c, kh, kw, ho, wo)
    for i in range(kh):
        for j in range(kw):
            x[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += cols[:, :, i, j]
    return x


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation (no kernel flip) with bias.

    x: (N, C, H, W), w: (F, C, kh, kw), b: (F,). Output spatial extent is
    (H + 2*pad - kh) // stride + 1 per axis; the kernel must fit at least
    once.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(
            f"conv2d needs 4-d x and w, got {x.shape} and {w.shape}"
        )
    n, c, h, wd = x.data.shape
    f, cw, kh, kw = w.data.shape
    if cw != c:
        raise ShapeError(f"conv2d channel mismatch: x has {c}, w expects {cw}")
    if b.data.shape != (f,):
        raise ShapeError(f"conv2d bias must have shape ({f},), got {b.shape}")
    if stride < 1 or pad < 0:
        raise ShapeError(f"conv2d: bad stride {stride} or pad {pad}")
    if kh > h + 2 * pad or kw > wd + 2 * pad:
        raise ShapeError(
            f"conv2d kernel ({kh}x{kw}) larger than padded input ({h + 2 * pad}x{wd + 2 * pad})"
        )
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x.data
    hp, wp = xp.shape[2], xp.shape[3]
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    cols = _im2col(xp, kh, kw, stride)
    wmat = w.data.reshape(f, -1)
    out = (wmat @ cols).reshape(n, f, ho, wo) + b.data[None, :, None, None]

    need_x, need_w, need_b = x.requires_grad, w.requires_grad, b.requires_grad
    wshape = w.data.shape

    def vjp(go):
        gof = go.reshape(n, f, -1)
        gb = go.sum(axis=(0, 2, 3)) if need_b else None
        gw = (
            np.einsum("nfl,nkl->fk", gof, cols).reshape(wshape) if need_w else None
        )
        gx = None
        if need_x:
            gcols = np.matmul(wmat.T, gof)
            gxp = _col2im(gcols, n, c, hp, wp, kh, kw, stride, ho, wo)
            gx = gxp[:, :, pad:hp - pad, pad:wp - pad] if pad else gxp
        return gx, gw, gb

    return _emit(out, (x, w, b), vjp)


def conv_transpose2d(x: Tensor, w: Tensor, stride: int = 1) -> Tensor:
    """Transposed 2-D convolution, the exact adjoint of ``conv2d``'s linear map.

    x: (N, C, H, W), w: (C, F, kh, kw); output is (N, F, (H-1)*stride + kh,
    (W-1)*stride + kw). No bias. The same weight array satisfies
    <conv2d(a; w'), b> == <a, conv_transpose2d(b; w)> when w' is w viewed
    from the opposite side, which is what the gradient of conv2d needs.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(
            f"conv_transpose2d needs 4-d x and w, got {x.shape} and {w.shape}"
        )
    n, c, h, wd = x.data.shape
    cw, f, kh, kw = w.data.shape
    if cw != c:
        raise ShapeError(f"conv_transpose2d channel mismatch: x has {c}, w expects {cw}")
    if stride < 1:
        raise ShapeError(f"conv_transpose2d: bad stride {stride}")
    ho = (h - 1) * stride + kh
    wo = (wd - 1) * stride + kw
    xf = x.data.reshape(n, c, h * wd)
    wmat = w.data.reshape(c, f * kh * kw)
    cols = np.matmul(wmat.T, xf)  # (N, F*kh*kw, H*W)
    out = _col2im(cols, n, f, ho, wo, kh, kw, stride, h, wd)

    need_x, need_w = x.requires_grad, w.requires_grad
    wshape = w.data.shape

    def vjp(go):
        patches = _im2col(go, kh, kw, stride)  # (N, F*kh*kw, H*W)
        gx = np.matmul(wmat, patches).reshape(n, c, h, wd) if need_x else None
        gw = (
            np.einsum("ncl,nkl->ck", xf, patches).reshape(wshape) if need_w else None
        )
        return gx, gw

    return _emit(out, (x, w), vjp)


# ---------------------------------------------------------------------------
# normalization and regularization


def batchnorm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    stats: BatchNormStats,
    mode: str,
    eps: float = 1e-5,
    momentum: float = 0.1,
) -> Tensor:
    """Per-channel batch normalization over (N, H, W).

    Train mode normalizes with the biased batch statistics and folds them
    into the running buffers as new = (1 - momentum) * old + momentum *
    batch (the running variance gets the unbiased estimate). Eval mode
    normalizes with the running buffers and treats them as constants.
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
    if mode == "train":
        if m < 2:
            raise ShapeError(
                f"batchnorm2d train mode needs at least 2 values per channel, got {m}"
            )
        mean = x.data.mean(axis=(0, 2, 3))
        centered = x.data - mean[None, :, None, None]
        var = (centered * centered).mean(axis=(0, 2, 3))
        if stats.mean is None or stats.var is None:
            stats.mean = np.zeros(c)
            stats.var = np.ones(c)
        unbiased = var * (m / (m - 1))
        stats.mean = (1.0 - momentum) * stats.mean + momentum * mean
        stats.var = (1.0 - momentum) * stats.var + momentum * unbiased
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = centered * inv_std[None, :, None, None]
        out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

        need_x = x.requires_grad
        gdata = gamma.data

        def vjp(go):
            ggamma = (go * xhat).sum(axis=(0, 2, 3))
            gbeta = go.sum(axis=(0, 2, 3))
            gx = None
            if need_x:
                # standard batchnorm gradient, everything per channel
                gxhat = go * gdata[None, :, None, None]
                s1 = gxhat.sum(axis=(0, 2, 3), keepdims=True)
                s2 = (gxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
                gx = (inv_std[None, :, None, None] / m) * (m * gxhat - s1 - xhat * s2)
            return gx, ggamma, gbeta

        return _emit(out, (x, gamma, beta), vjp)

    if stats.mean is None or stats.var is None:
        raise ValueError(
            "batchnorm2d eval mode before any training step: initialize the "
            "running statistics to mean 0, variance 1 first"
        )
    inv_std = 1.0 / np.sqrt(stats.var + eps)
    xhat = (x.data - stats.mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    need_x = x.requires_grad
    gdata = gamma.data

    def vjp_eval(go):
        ggamma = (go * xhat).sum(axis=(0, 2, 3))
        gbeta = go.sum(axis=(0, 2, 3))
        gx = go * (gdata * inv_std)[None, :, None, None] if need_x else None
        return gx, ggamma, gbeta

    return _emit(out, (x, gamma, beta), vjp_eval)


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
# pooling


def _pool_prep(x: Tensor, k: int, stride: int):
    if x.data.ndim != 4:
        raise ShapeError(f"pooling needs NCHW input, got shape {x.shape}")
    if k < 1 or stride < 1:
        raise ShapeError(f"pooling: bad window {k} or stride {stride}")
    n, c, h, w = x.data.shape
    if k > h or k > w:
        raise ShapeError(f"pooling window {k} larger than input {h}x{w}")
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    sn, sc, sh, sw = x.data.strides
    win = np.lib.stride_tricks.as_strided(
        x.data,
        shape=(n, c, ho, wo, k, k),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    return n, c, h, w, ho, wo, win.reshape(n, c, ho, wo, k * k)


def maxpool2d(x: Tensor, k: int, stride: int) -> Tensor:
    """Window maximum; rows/cols past the last full window are dropped.

    Ties go to the first maximum in row-major order within the window, so
    the backward scatter target is unambiguous.
    """
    n, c, h, w, ho, wo, flat = _pool_prep(x, k, stride)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    def vjp(go):
        gx = np.zeros((n, c, h, w))
        ii = idx // k + (np.arange(ho) * stride)[None, None, :, None]
        jj = idx % k + (np.arange(wo) * stride)[None, None, None, :]
        nn = np.arange(n)[:, None, None, None]
        cc = np.arange(c)[None, :, None, None]
        np.add.at(gx, (nn, cc, ii, jj), go)
        return (gx,)

    return _emit(out, (x,), vjp)


def avgpool2d(x: Tensor, k: int, stride: int) -> Tensor:
    """Window mean; rows/cols past the last full window are dropped."""
    n, c, h, w, ho, wo, flat = _pool_prep(x, k, stride)
    out = flat.mean(axis=-1)
    inv = 1.0 / (k * k)

    def vjp(go):
        gx = np.zeros((n, c, h, w))
        share = go * inv
        for i in range(k):
            for j in range(k):
                gx[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += share
        return (gx,)

    return _emit(out, (x,), vjp)
