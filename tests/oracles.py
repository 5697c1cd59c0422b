"""Independent reference implementations used as test oracles.

Everything in here is written the slow, obvious way (explicit loops,
two-pass statistics) precisely so it shares no code or vectorization
tricks with the library under test. ``gradient_error`` is the suite's one
finite-difference check of the tape, and ``MINI`` its one miniature model.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from msseg import rng as rngmod
from msseg.config import load_config
from msseg.tensor import Graph, Tensor, add, backward, mul, sum_all

# the shipped desk-scale config; tests vary it with dataclasses.replace
MINI = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "miniature.cfg"))[0]


def conv2d_loops(x, w, b, stride=1, pad=0):
    """Cross-correlation with six nested loops."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    xp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + wd] = x
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, f, ho, wo))
    for ni in range(n):
        for fi in range(f):
            for oi in range(ho):
                for oj in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += (
                                    xp[ni, ci, oi * stride + ki, oj * stride + kj]
                                    * w[fi, ci, ki, kj]
                                )
                    out[ni, fi, oi, oj] = acc + b[fi]
    return out


def conv_transpose2d_loops(x, w, stride=1):
    """Transposed convolution by scattering each input pixel's stamp."""
    n, c, h, wd = x.shape
    _, f, kh, kw = w.shape
    ho = (h - 1) * stride + kh
    wo = (wd - 1) * stride + kw
    out = np.zeros((n, f, ho, wo))
    for ni in range(n):
        for ci in range(c):
            for i in range(h):
                for j in range(wd):
                    v = x[ni, ci, i, j]
                    for fi in range(f):
                        for ki in range(kh):
                            for kj in range(kw):
                                out[ni, fi, i * stride + ki, j * stride + kj] += (
                                    v * w[ci, fi, ki, kj]
                                )
    return out


def maxpool2d_loops(x, k, stride):
    n, c, h, w = x.shape
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    out = np.zeros((n, c, ho, wo))
    for ni in range(n):
        for ci in range(c):
            for oi in range(ho):
                for oj in range(wo):
                    best = -np.inf
                    for ki in range(k):
                        for kj in range(k):
                            v = x[ni, ci, oi * stride + ki, oj * stride + kj]
                            if v > best:
                                best = v
                    out[ni, ci, oi, oj] = best
    return out


def maxpool2d_first_max_loops(x):
    """2x2 max pooling that scans each window in row-major order and moves
    to a later pixel only if it is larger, or if it is the window's first
    NaN. Returns the pooled values and, per output, the (row, column) of the
    pixel it came from."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // 2, w // 2))
    src = np.zeros((n, c, h // 2, w // 2, 2), dtype=np.int64)
    for ni in range(n):
        for ci in range(c):
            for oi in range(h // 2):
                for oj in range(w // 2):
                    best, at = None, None
                    for ki in range(2):
                        for kj in range(2):
                            v = x[ni, ci, 2 * oi + ki, 2 * oj + kj]
                            if best is None or v > best or (np.isnan(v) and not np.isnan(best)):
                                best, at = v, (ki, kj)
                    out[ni, ci, oi, oj] = best
                    src[ni, ci, oi, oj] = at
    return out, src


def avgpool2d_loops(x, k, stride):
    n, c, h, w = x.shape
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    out = np.zeros((n, c, ho, wo))
    for ni in range(n):
        for ci in range(c):
            for oi in range(ho):
                for oj in range(wo):
                    acc = 0.0
                    for ki in range(k):
                        for kj in range(k):
                            acc += x[ni, ci, oi * stride + ki, oj * stride + kj]
                    out[ni, ci, oi, oj] = acc / (k * k)
    return out


def batchnorm_train_twopass(x, gamma, beta, eps=1e-5):
    """Train-mode batchnorm with explicit two-pass per-channel statistics."""
    n, c, h, w = x.shape
    out = np.zeros_like(x)
    for ci in range(c):
        vals = x[:, ci, :, :]
        mean = vals.sum() / vals.size
        var = ((vals - mean) ** 2).sum() / vals.size
        out[:, ci, :, :] = gamma[ci] * (vals - mean) / np.sqrt(var + eps) + beta[ci]
    return out


def batchnorm_eval_direct(x, gamma, beta, run_mean, run_var, eps=1e-5):
    n, c, h, w = x.shape
    out = np.zeros_like(x)
    for ci in range(c):
        out[:, ci, :, :] = (
            gamma[ci] * (x[:, ci, :, :] - run_mean[ci]) / np.sqrt(run_var[ci] + eps)
            + beta[ci]
        )
    return out


def batchnorm_grads_textbook(x, gamma, go, run_mean=None, run_var=None, eps=1e-5):
    """(gx, ggamma, gbeta) of batchnorm for the output gradient ``go``, one
    channel at a time.

    Without running statistics this is train mode: biased two-pass batch
    statistics, and the input gradient through gxhat = go * gamma,
    gx = inv_std / m * (m * gxhat - sum(gxhat) - xhat * sum(gxhat * xhat)).
    With them it is eval mode, where the statistics are constants and
    gx = gxhat * inv_std.
    """
    n, c, h, w = x.shape
    m = n * h * w
    gx = np.zeros_like(x)
    ggamma = np.zeros(c)
    gbeta = np.zeros(c)
    for ci in range(c):
        vals = x[:, ci, :, :]
        g = go[:, ci, :, :]
        if run_mean is None:
            mean = vals.sum() / m
            var = ((vals - mean) ** 2).sum() / m
        else:
            mean, var = run_mean[ci], run_var[ci]
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (vals - mean) * inv_std
        ggamma[ci] = (g * xhat).sum()
        gbeta[ci] = g.sum()
        gxhat = g * gamma[ci]
        if run_mean is None:
            s1 = gxhat.sum()
            s2 = (gxhat * xhat).sum()
            gx[:, ci, :, :] = (inv_std / m) * (m * gxhat - s1 - xhat * s2)
        else:
            gx[:, ci, :, :] = gxhat * inv_std
    return gx, ggamma, gbeta


def confusion_loops(pred, gt):
    """(tp, fp, fn, tn) by scanning every element."""
    tp = fp = fn = tn = 0
    for p, g in zip(np.asarray(pred).ravel(), np.asarray(gt).ravel()):
        if p == 1 and g == 1:
            tp += 1
        elif p == 1 and g == 0:
            fp += 1
        elif p == 0 and g == 1:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def rel_err(a, b):
    """Scale-aware worst-case relative error between two arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def gradient_error(make, leaves, seed, samples=None, h=1e-6):
    """Worst relative error between the tape gradient and central
    differences of sum(out * R) over each output of ``make()``, with each R
    standard normal from ``seed``.

    ``make`` returns a Tensor or a tuple of them and must be a pure function
    of the leaves' contents, any randomness re-derived inside. Each probed
    entry of a leaf's data is perturbed in place and restored, so the leaves
    may be parameters inside a tree. Every entry of every leaf is probed,
    or ``samples`` entries, each of a leaf drawn from ``seed``. A step of 1e-6
    rather than 1e-5 keeps the dense_block row's perturbations from
    crossing a ReLU kink inside the block.
    """
    weights = []

    def loss():
        outs = make()
        outs = outs if isinstance(outs, tuple) else (outs,)
        if not weights:
            r = rngmod.stream(seed, "fd-projection")
            weights.extend(Tensor(r.standard_normal(o.data.shape)) for o in outs)
        total = sum_all(mul(outs[0], weights[0]))
        for o, w in zip(outs[1:], weights[1:]):
            total = add(total, sum_all(mul(o, w)))
        return total

    with Graph():
        scalar = loss()
    backward(scalar)
    tape = []
    for j, t in enumerate(leaves):
        assert t.grad is not None, f"leaf {j} got no gradient"
        tape.append(t.grad)
        t.grad = None
    if samples is None:
        probes = [(j, ix) for j, t in enumerate(leaves) for ix in np.ndindex(t.data.shape)]
    else:
        r = rngmod.stream(seed, "fd-probes")
        probes = []
        for _ in range(samples):
            j = int(r.integers(len(leaves)))
            data = leaves[j].data
            probes.append((j, np.unravel_index(int(r.integers(data.size)), data.shape)))
    got, want = [], []
    for j, ix in probes:
        data = leaves[j].data
        keep = data[ix]
        data[ix] = keep + h
        fp = float(loss().data)
        data[ix] = keep - h
        fm = float(loss().data)
        data[ix] = keep
        got.append(tape[j][ix])
        want.append((fp - fm) / (2.0 * h))
    return rel_err(got, want)
