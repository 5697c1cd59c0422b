"""Forward semantics of the tensor core against independent oracles."""

import json
import mmap
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from msseg import rng as rngmod
from msseg.errors import ShapeError
from msseg.tensor import (
    Graph,
    Tensor,
    avgpool2d,
    backward,
    batchnorm2d,
    concat_channels,
    conv2d,
    conv_transpose2d,
    dropout2d,
    maxpool2d,
    mul,
    relu,
    sigmoid,
    softmax_channels,
    sum_all,
    tanh,
    upsample_nearest,
)

import oracles


def t(a):
    return Tensor(np.asarray(a, dtype=np.float64))


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_identity_kernel():
    x = t([[[[1.0, 2.0], [3.0, 4.0]]]])
    w = t([[[[1.0]]]])
    b = t([0.0])
    out = conv2d(x, w, b)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv2d_all_ones_window():
    # every zero-padded 3x3 window over a 2x2 input covers all four pixels
    x = t([[[[1.0, 2.0], [3.0, 4.0]]]])
    w = t(np.ones((1, 1, 3, 3)))
    b = t([0.0])
    out = conv2d(x, w, b)
    np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 10.0))


def test_conv2d_zero_kernel_gives_bias():
    rng = rngmod.stream(11, "conv-zero")
    x = t(rng.standard_normal((2, 3, 5, 5)))
    w = t(np.zeros((4, 3, 3, 3)))
    b = t([1.0, -2.0, 0.5, 3.0])
    out = conv2d(x, w, b)
    for fi, c in enumerate([1.0, -2.0, 0.5, 3.0]):
        np.testing.assert_array_equal(out.data[:, fi], np.full((2, 5, 5), c))


def test_conv2d_channel_mismatch_rejected():
    x = t(np.zeros((1, 3, 4, 4)))
    b = t(np.zeros(2))
    # wrong channel count, even kernel, non-square kernel
    for shape in ((2, 4, 3, 3), (2, 3, 2, 2), (2, 3, 3, 1)):
        with pytest.raises(ShapeError):
            conv2d(x, t(np.zeros(shape)), b)
    with pytest.raises(ShapeError):
        conv_transpose2d(x, t(np.zeros((3, 2, 3, 1))))


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_conv2d_shifted_taps_match_loop_oracle(n, k):
    # at 1x1 and 2x2 (the ConvLSTM and bottleneck scale) a k > H kernel has
    # taps wholly in the padding; 5x4 is non-square; C = 1 is the stem;
    # H*W < F (1x1 with F = 3, and F = 5 at 2x2 and 1x3) is weight-bound;
    # at 1x3, 3x1 and 2x7 with F <= H*W a k = 5 kernel on the kn2row path
    # reaches past the image on every side, and a k = 7 one reaches more
    # than a whole 2-pixel extent past it
    rng = rngmod.stream(13, f"conv-taps-{n}-{k}")
    shapes = ((2, 3, 1, 1), (2, 3, 2, 2), (2, 3, 5, 4), (1, 4, 5, 4), (2, 5, 2, 2), (2, 5, 1, 3),
              (2, 3, 1, 3), (2, 3, 3, 1), (2, 4, 2, 7))
    for c, f, h, w_ in shapes:
        x = rng.standard_normal((n, c, h, w_))
        wt = rng.standard_normal((f, c, k, k))
        b = rng.standard_normal(f)
        got = conv2d(t(x), t(wt), t(b)).data
        want = oracles.conv2d_loops(x, wt, b, stride=1, pad=k // 2)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_weight_bound_conv2d_is_batch_invariant():
    # H*W < F takes the per-sample patch-matrix GEMM; each sample's output
    # must not depend on the batch it rides in, nor on its place there
    rng = rngmod.stream(14, "conv-weight-bound-batch")
    perm = [2, 0, 1]
    for c, f, h, w_, k in ((7, 11, 2, 2, 3), (7, 11, 1, 3, 5), (7, 11, 2, 2, 1)):
        x = rng.standard_normal((3, c, h, w_))
        wt, b = t(rng.standard_normal((f, c, k, k))), t(rng.standard_normal(f))
        batch = conv2d(t(x), wt, b).data
        permuted = conv2d(t(x[perm]), wt, b).data
        for s in range(3):
            alone = conv2d(t(x[s:s + 1]), wt, b).data[0]
            np.testing.assert_array_equal(batch[s], alone)
            np.testing.assert_array_equal(permuted[perm.index(s)], alone)


def test_shifted_conv2d_is_batch_invariant():
    # H*W >= F takes the per-sample kn2row GEMM on the sample in place; each
    # sample's output must not depend on the batch it rides in, nor on its
    # place there. 4x3 with F = 12 is the boundary of the weight-bound path;
    # at 1x3, 3x1 and 2x7 a 5x5 kernel reaches past the image on every side.
    rng = rngmod.stream(15, "conv-shifted-batch")
    perm = [2, 0, 1]
    shapes = ((7, 12, 5, 4, 1), (7, 12, 4, 3, 3), (9, 12, 6, 5, 5), (16, 3, 9, 7, 3),
              (7, 3, 1, 3, 5), (7, 3, 3, 1, 5), (7, 4, 2, 7, 5))
    for c, f, h, w_, k in shapes:
        x = rng.standard_normal((3, c, h, w_))
        wt, b = t(rng.standard_normal((f, c, k, k))), t(rng.standard_normal(f))
        batch = conv2d(t(x), wt, b).data
        permuted = conv2d(t(x[perm]), wt, b).data
        for s in range(3):
            alone = conv2d(t(x[s:s + 1]), wt, b).data[0]
            np.testing.assert_array_equal(batch[s], alone)
            np.testing.assert_array_equal(permuted[perm.index(s)], alone)


def test_shifted_conv2d_does_not_depend_on_reused_heap_memory():
    # kn2row's product and accumulator come from np.empty; under the import's
    # heap policy a freed block of their size backs them next, so a value it
    # reads but never writes, such as a gap standing in for the padding,
    # would carry these NaNs into the second call's output
    rng = rngmod.stream(16, "conv-poisoned-heap")
    n, c, f, h, w_, k = 2, 48, 12, 32, 32, 3
    x = t(rng.standard_normal((n, c, h, w_)))
    wt, b = t(rng.standard_normal((f, c, k, k))), t(rng.standard_normal(f))
    first = conv2d(x, wt, b).data
    gap = (k // 2) * (w_ + 1)
    row = h * w_ + gap
    poison = [np.full(size, np.nan) for size in (gap + k * k * f * row, f * row)]
    del poison
    second = conv2d(x, wt, b).data
    assert second.tobytes() == first.tobytes()


# ---------------------------------------------------------------------------
# conv_transpose2d


def test_conv_transpose_single_pixel_broadcasts_kernel():
    x = t([[[[1.0]]]])
    w = t(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
    out = conv_transpose2d(x, w)
    np.testing.assert_array_equal(out.data, [[[[1.0, 2.0], [3.0, 4.0]]]])


def test_conv_transpose_stride_two_spreads():
    x = t(np.array([[1.0, 1.0]]).reshape(1, 1, 1, 2))
    w = t(np.array([[[[1.0]]]]))
    out = conv_transpose2d(x, w)
    np.testing.assert_array_equal(out.data, np.array([[1.0, 0.0, 1.0]]).reshape(1, 1, 1, 3))


def test_conv_adjoint_identity():
    # <xcorr(a; w), y> == <a, conv_transpose2d(y; w)> for the unpadded
    # stride-2 cross-correlation: the very same weight array serves both
    # sides, its first axis read as the transpose's input channels
    rng = rngmod.stream(14, "adjoint")
    for _ in range(30):
        c = int(rng.integers(1, 3))
        f = int(rng.integers(1, 3))
        k = int(rng.integers(1, 4))
        a = rng.standard_normal((2, c, 4, 4))
        w = rng.standard_normal((f, c, k, k))
        b = np.zeros(f)
        fwd = oracles.conv2d_loops(a, w, b, stride=2, pad=0)
        y = rng.standard_normal(fwd.shape)
        back = conv_transpose2d(t(y), t(w)).data
        # rows/cols the strided conv never read get zero adjoint
        full = np.zeros_like(a)
        full[:, :, : back.shape[2], : back.shape[3]] = back
        back = full
        lhs = float((fwd * y).sum())
        rhs = float((a * back).sum())
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# batchnorm2d


def test_batchnorm_constant_channel_is_zero():
    x = t(np.full((2, 1, 3, 3), 7.0))
    out = batchnorm2d(x, t([1.0]), t([0.0]), t([0.0]), t([1.0]), "train")
    assert np.max(np.abs(out.data)) < 1e-9


def test_batchnorm_standardized_input_passthrough():
    rng = rngmod.stream(15, "bn-std")
    x = rng.standard_normal((4, 2, 5, 5))
    x -= x.mean(axis=(0, 2, 3), keepdims=True)
    x /= x.std(axis=(0, 2, 3), keepdims=True)
    out = batchnorm2d(t(x), t(np.ones(2)), t(np.zeros(2)), t(np.zeros(2)), t(np.ones(2)), "train")
    assert oracles.rel_err(out.data, x / np.sqrt(1.0 + 1e-5)) < 1e-9


def test_batchnorm_eval_uses_running_stats():
    rng = rngmod.stream(17, "bn-eval")
    x = rng.standard_normal((2, 3, 4, 4))
    gamma = rng.standard_normal(3)
    beta = rng.standard_normal(3)
    rm = rng.standard_normal(3)
    rv = rng.random(3) + 0.5
    rmean, rvar = t(rm.copy()), t(rv.copy())
    got = batchnorm2d(t(x), t(gamma), t(beta), rmean, rvar, "eval").data
    want = oracles.batchnorm_eval_direct(x, gamma, beta, rm, rv)
    assert oracles.rel_err(got, want) < 1e-12
    # eval must not touch the buffers
    np.testing.assert_array_equal(rmean.data, rm)
    np.testing.assert_array_equal(rvar.data, rv)


def test_batchnorm_running_update_rule():
    rng = rngmod.stream(18, "bn-run")
    x = rng.standard_normal((2, 1, 3, 3))
    rmean, rvar = t(np.zeros(1)), t(np.ones(1))
    batchnorm2d(t(x), t(np.ones(1)), t(np.zeros(1)), rmean, rvar, "train")
    m = x.size
    mean = x.mean()
    unbiased = x.var() * m / (m - 1)
    assert abs(rmean.data[0] - 0.1 * mean) < 1e-12
    assert abs(rvar.data[0] - (0.9 + 0.1 * unbiased)) < 1e-12


# ---------------------------------------------------------------------------
# elementwise activations


def test_relu_values():
    out = relu(t([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])
    # signed zeros, NaNs, infinities and subnormals land on the exact bytes
    # of np.where(x > 0, x, 0.0), and the gradient on those of go * (x > 0)
    x = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-320, -1e-320, 2.5, -2.5])
    go = rngmod.stream(20, "relu-go").standard_normal(x.shape)
    xt = Tensor(x, requires_grad=True)
    with Graph():
        loss = sum_all(mul(relu(xt), t(go)))
    backward(loss)
    assert relu(t(x)).data.tobytes() == np.where(x > 0, x, 0.0).tobytes()
    assert xt.grad.tobytes() == (go * (x > 0)).tobytes()


def test_sigmoid_tanh_at_zero():
    assert sigmoid(t([0.0])).data[0] == 0.5
    assert tanh(t([0.0])).data[0] == 0.0


def test_sigmoid_extreme_inputs_stay_finite():
    out = sigmoid(t([-1000.0, 1000.0])).data
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[1] == 1.0


# ---------------------------------------------------------------------------
# softmax


def test_softmax_symmetry_and_shift_invariance():
    x = t(np.zeros((1, 2, 1, 1)))
    out = softmax_channels(x).data
    np.testing.assert_allclose(out, 0.5)

    rng = rngmod.stream(19, "softmax")
    z = rng.standard_normal((2, 3, 4, 4))
    a = softmax_channels(t(z)).data
    b = softmax_channels(t(z + 100.0)).data
    assert oracles.rel_err(a, b) < 1e-12


def test_softmax_known_ratio():
    x = t(np.array([np.log(1.0), np.log(3.0)]).reshape(1, 2, 1, 1))
    out = softmax_channels(x).data.ravel()
    np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)


def test_softmax_sums_to_one():
    rng = rngmod.stream(20, "softmax-sum")
    x = rng.standard_normal((2, 5, 3, 3)) * 50
    out = softmax_channels(t(x)).data
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# pooling


def test_pool_tiny_windows():
    x = t([[[[1.0, 2.0], [3.0, 4.0]]]])
    np.testing.assert_array_equal(maxpool2d(x).data, [[[[4.0]]]])
    np.testing.assert_array_equal(avgpool2d(x).data, [[[[2.5]]]])


def test_pool_special_values_match_window_scan_bytes():
    # ties, -0.0 against +0.0 and NaN: maxpool keeps the first maximum in
    # row-major order, value and gradient route, and a NaN propagates; the
    # average's bytes, signed zeros included, are the row-major sum's
    rng = rngmod.stream(22, "pool-special")
    vals = np.array([-0.0, 0.0, 1.0, -1.0, 2.0, 2.0, np.nan])
    seen = []
    for shape in ((2, 3, 4, 6), (1, 2, 8, 34), (3, 2, 2, 2)):
        x = vals[rng.integers(0, len(vals), shape)]
        # channel 0 holds no positive value, so its windows tie at zero
        x[:, 0] = vals[rng.integers(0, 4, x[:, 0].shape)]
        go = rng.standard_normal((shape[0], shape[1], shape[2] // 2, shape[3] // 2))
        go[go > 1.0] = -0.0
        xt = Tensor(x, requires_grad=True)
        with Graph():
            got = maxpool2d(xt)
            loss = sum_all(mul(got, Tensor(go)))
        backward(loss)
        want, src = oracles.maxpool2d_first_max_loops(x)
        want_grad = np.zeros(shape)
        for b, c, i, j in np.ndindex(go.shape):
            di, dj = src[b, c, i, j]
            want_grad[b, c, 2 * i + di, 2 * j + dj] = 0.0 + go[b, c, i, j]
        seen.extend(got.data.ravel())
        assert got.data.tobytes() == want.tobytes()
        assert xt.grad.tobytes() == want_grad.tobytes()
        avg = avgpool2d(t(x)).data
        assert avg.tobytes() == oracles.avgpool2d_loops(x, 2, 2).tobytes()
    # the draws did reach NaN maxima and zero maxima of both signs
    seen = np.array(seen)
    zero = seen == 0.0
    assert np.isnan(seen).any()
    assert (zero & np.signbit(seen)).any() and (zero & ~np.signbit(seen)).any()


def test_pool_rejects_odd_extents():
    for shape in [(1, 1, 5, 5), (1, 1, 4, 5), (2, 1, 3, 4)]:
        x = t(np.zeros(shape))
        for pool in (maxpool2d, avgpool2d):
            with pytest.raises(ShapeError, match="divisible by 2"):
                pool(x)


# ---------------------------------------------------------------------------
# dropout


def test_dropout_identity_cases():
    x = t(np.ones((2, 3, 2, 2)))
    assert dropout2d(x, 0.0, "train", rngmod.stream(1, "d")) is x
    assert dropout2d(x, 0.5, "eval") is x
    with pytest.raises(ValueError):
        dropout2d(x, 1.0, "train", rngmod.stream(1, "d"))


def test_dropout_zeroes_whole_channels_and_rescales():
    rng = rngmod.stream(22, "drop-shape")
    x = np.ones((4, 6, 3, 3))
    out = dropout2d(t(x), 0.5, "train", rng).data
    for ni in range(4):
        for ci in range(6):
            plane = out[ni, ci]
            assert np.all(plane == 0.0) or np.all(plane == 2.0)


def test_dropout_monte_carlo_expectation():
    x = np.full((1, 8, 2, 2), 3.0)
    total = np.zeros_like(x)
    draws = 10_000
    rng = rngmod.stream(23, "drop-mc")
    for _ in range(draws):
        total += dropout2d(t(x), 0.5, "train", rng).data
    mean = total / draws
    assert np.max(np.abs(mean - x) / x) < 0.02


# ---------------------------------------------------------------------------
# concat / upsample


def test_concat_single_is_identity():
    x = t(np.ones((1, 3, 2, 2)))
    assert concat_channels([x]) is x


def test_concat_block_layout():
    a = np.zeros((2, 3, 2, 2))
    b = np.ones((2, 5, 2, 2))
    out = concat_channels([t(a), t(b)])
    assert out.data.shape == (2, 8, 2, 2)
    np.testing.assert_array_equal(out.data[:, :3], a)
    np.testing.assert_array_equal(out.data[:, 3:], b)


def test_concat_spatial_mismatch_rejected():
    with pytest.raises(ShapeError):
        concat_channels([t(np.zeros((1, 1, 2, 2))), t(np.zeros((1, 1, 3, 2)))])


class _LoggedWrites(np.ndarray):
    """An array whose views share one log of the item assignments into
    them, as (address of the first item, channel count)."""

    def __array_finalize__(self, obj):
        self.writes = getattr(obj, "writes", None)

    def __setitem__(self, key, value):
        self.writes.append((self.ctypes.data, self.shape[1]))
        super().__setitem__(key, value)


def _logged_buffer(shape):
    buf = np.full(shape, np.nan).view(_LoggedWrites)
    buf.writes = []
    return buf


def test_concat_into_is_a_view_that_copies_only_pieces_not_in_place():
    rng = rngmod.stream(60, "concat-into")
    buf = _logged_buffer((2, 7, 3, 3))
    at = buf.ctypes.data
    a = t(rng.standard_normal((2, 3, 3, 3)))
    b = t(rng.standard_normal((2, 2, 3, 3)))
    c = t(rng.standard_normal((2, 2, 3, 3)))
    first = concat_channels([a, b], into=buf)
    assert first.data.shape == (2, 5, 3, 3)
    assert first.data.ctypes.data == buf.ctypes.data and np.shares_memory(first.data, buf)
    np.testing.assert_array_equal(first.data, np.concatenate([a.data, b.data], axis=1))
    assert np.isnan(buf[:, 5:]).all()
    assert buf.writes == [(at, 3), (at + 3 * 9 * 8, 2)]

    # the first piece already lies where it goes: only the second is copied
    buf.writes.clear()
    second = concat_channels([first, c], into=buf)
    assert second.data.shape == (2, 7, 3, 3) and second.data.ctypes.data == buf.ctypes.data
    np.testing.assert_array_equal(second.data, np.concatenate([a.data, b.data, c.data], axis=1))
    assert buf.writes == [(at + 5 * 9 * 8, 2)]
    # the earlier prefix kept its values
    np.testing.assert_array_equal(first.data, np.concatenate([a.data, b.data], axis=1))


def test_concat_into_copies_a_piece_at_another_address_or_with_other_strides():
    rng = rngmod.stream(61, "concat-into-moved")
    buf = _logged_buffer((2, 5, 3, 3))
    at = buf.ctypes.data
    g = t(rng.standard_normal((2, 2, 3, 3)))
    want = rng.standard_normal((2, 3, 3, 3))
    buf[:, :3] = want
    buf.writes.clear()
    # the same values at another address
    out = concat_channels([t(np.array(want)), g], into=buf)
    assert buf.writes == [(at, 3), (at + 3 * 9 * 8, 2)]
    np.testing.assert_array_equal(out.data, np.concatenate([want, g.data], axis=1))

    # the right start address but a contiguous (2, 3, 3, 3) layout, whose
    # sample 1 starts among sample 0's channels: copied, overlap and all
    buf.writes.clear()
    flat = np.asarray(buf).reshape(-1)
    packed = flat[:2 * 3 * 9].reshape(2, 3, 3, 3)
    assert packed.ctypes.data == buf.ctypes.data and packed.strides != buf[:, :3].strides
    expect = np.concatenate([packed.copy(), g.data], axis=1)
    out = concat_channels([t(packed), g], into=buf)
    assert buf.writes == [(at, 3), (at + 3 * 9 * 8, 2)]
    np.testing.assert_array_equal(out.data, expect)


def test_concat_into_gradients_match_the_copying_path():
    rng = rngmod.stream(62, "concat-into-grad")
    a0, b0 = rng.standard_normal((2, 3, 4, 4)), rng.standard_normal((2, 2, 4, 4))
    r = rng.standard_normal((2, 5, 4, 4))
    grads = []
    for into in (None, np.empty((2, 6, 4, 4))):
        a, b = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
        with Graph():
            loss = sum_all(mul(concat_channels([a, b], into=into), t(r)))
        backward(loss)
        grads.append((a.grad, b.grad))
    for want, got in zip(grads[0], grads[1]):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize(
    "shape", [(2, 4, 3, 3), (1, 9, 3, 3), (2, 9, 3, 4)], ids=["narrow", "batch", "spatial"]
)
def test_concat_into_shape_mismatch_rejected(shape):
    pieces = [t(np.zeros((2, 3, 3, 3))), t(np.zeros((2, 2, 3, 3)))]
    with pytest.raises(ShapeError, match="into"):
        concat_channels(pieces, into=np.empty(shape))
    with pytest.raises(ShapeError, match="into"):
        concat_channels(pieces, into=np.empty((2, 9, 3, 3), dtype=np.float32))


def test_upsample_blocks_and_inverse_pair():
    x = t([[[[1.0, 2.0], [3.0, 4.0]]]])
    up = upsample_nearest(x)
    want = np.array(
        [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=np.float64
    ).reshape(1, 1, 4, 4)
    np.testing.assert_array_equal(up.data, want)
    down = avgpool2d(up)
    np.testing.assert_array_equal(down.data, x.data)


# ---------------------------------------------------------------------------
# determinism


def test_fixed_seed_bit_identical_op_sequence():
    def run():
        rng = rngmod.stream(99, "det")
        x = t(rng.standard_normal((2, 3, 8, 8)))
        w = t(rng.standard_normal((4, 3, 3, 3)))
        b = t(rng.standard_normal(4))
        rmean, rvar = t(np.zeros(4)), t(np.ones(4))
        y = conv2d(x, w, b)
        y = batchnorm2d(y, t(np.ones(4)), t(np.zeros(4)), rmean, rvar, "train")
        y = relu(y)
        y = maxpool2d(y)
        y = dropout2d(y, 0.3, "train", rngmod.stream(99, "det-drop"))
        y = softmax_channels(y)
        return y.data, rmean.data.copy(), rvar.data.copy()

    first = run()
    second = run()
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)


def test_graph_context_records_only_inside():
    x = Tensor(np.ones(3), requires_grad=True)
    outside = sum_all(x)
    assert outside.graph is None
    with Graph() as g:
        inside = sum_all(x)
    assert inside.graph is g and len(g) == 1


# ---------------------------------------------------------------------------
# allocator policy


REFILL_FAULTS = """\
import json, resource
import numpy as np
import msseg
from numpy._core.multiarray import _set_madvise_hugepage

_set_madvise_hugepage(False)  # count base-page faults, not huge pages

def fill_faults(mib):
    a = np.empty(mib << 20, np.uint8)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    a.fill(1)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    del a
    return faults

print(json.dumps({mib: [fill_faults(mib), fill_faults(mib)] for mib in (40, 100)}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
def test_import_keeps_freed_arrays_under_the_cap_in_the_process():
    """A freed 40 MiB array backs the next one with no new page faults; a
    100 MiB one, past the 48 MiB cap, is unmapped and faulted back."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", REFILL_FAULTS], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    faults = json.loads(run.stdout)
    first, second = faults["40"]
    assert first >= 0.9 * (40 << 20) / mmap.PAGESIZE
    assert second < 0.01 * first
    first, second = faults["100"]
    assert first >= 0.9 * (100 << 20) / mmap.PAGESIZE
    assert second >= 0.9 * first
