"""Backward-pass correctness: tape mechanics and finite-difference checks."""

import numpy as np
import pytest

from msseg import rng as rngmod
from msseg.errors import ShapeError
from msseg.tensor import (
    BatchNormStats,
    Graph,
    Tensor,
    avgpool2d,
    backward,
    batchnorm2d,
    concat_channels,
    conv2d,
    conv_transpose2d,
    div,
    dropout2d,
    maxpool2d,
    mul,
    relu,
    sgd_step,
    sigmoid,
    slice_batch,
    slice_channels,
    softmax_channels,
    sum_all,
    tanh,
    upsample_nearest,
)

import oracles


def gradcheck(make_loss, arrays, h=1e-5, tol=1e-4):
    """Compare tape gradients against central finite differences.

    ``make_loss`` maps a list of Tensors to a scalar Tensor and must be a
    pure function of its inputs (any randomness fixed inside).
    """
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Graph():
        loss = make_loss(tensors)
    backward(loss)

    def f(arrs):
        return float(make_loss([Tensor(a) for a in arrs]).data)

    for i, t in enumerate(tensors):
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        fd = oracles.fd_gradient(f, arrays, i, h=h)
        err = oracles.rel_err(analytic, fd)
        assert err < tol, f"input {i}: worst relative error {err}"


def projection(out, seed):
    """Scalar loss sum(out * R) with a fixed random projection R."""
    r = rngmod.stream(seed, "projection").standard_normal(out.data.shape)
    return sum_all(mul(out, Tensor(r)))


# ---------------------------------------------------------------------------
# tape mechanics


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
    with Graph():
        loss = sum_all(x)
    backward(loss)
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_half_square_gives_x():
    x = Tensor(np.arange(5, dtype=np.float64), requires_grad=True)
    with Graph():
        loss = sum_all(mul(x, x)) * 0.5
    backward(loss)
    np.testing.assert_allclose(x.grad, x.data, atol=1e-15)


def test_backward_accumulates_across_fanout():
    x = Tensor(np.array([2.0]), requires_grad=True)
    with Graph():
        loss = sum_all(x + x)
    backward(loss)
    np.testing.assert_array_equal(x.grad, [2.0])


def test_backward_rejects_nonscalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with Graph():
        y = mul(x, x)
    with pytest.raises(ShapeError):
        backward(y)


def test_backward_without_graph_rejected():
    x = Tensor(np.ones(1), requires_grad=True)
    y = sum_all(x)
    with pytest.raises(ValueError, match="Graph"):
        backward(y)


def test_sgd_basic_steps():
    p = Tensor(np.array([1.0]), requires_grad=True, name="p")
    p.grad = np.array([1.0])
    sgd_step([("p", p)], lr=0.1, weight_decay=0.0)
    np.testing.assert_allclose(p.data, [0.9])
    assert p.grad is None

    q = Tensor(np.array([1.0]), requires_grad=True, name="q")
    q.grad = np.array([0.0])
    sgd_step([("q", q)], lr=0.1, weight_decay=1e-4)
    np.testing.assert_allclose(q.data, [0.99999])


def test_sgd_lr_zero_is_noop():
    p = Tensor(np.array([3.0, -1.0]), requires_grad=True)
    p.grad = np.array([5.0, 5.0])
    sgd_step([("p", p)], lr=0.0, weight_decay=0.5)
    np.testing.assert_array_equal(p.data, [3.0, -1.0])


def test_sgd_missing_grad_names_parameter():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([1.0])
    q = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ValueError, match="head.w"):
        sgd_step([("p", p), ("head.w", q)], lr=0.1)
    # the failed step must not have moved anything
    np.testing.assert_array_equal(p.data, [1.0])


def test_sgd_halved_lr_twice_differs_from_full_step():
    # weight decay compounds, so two half steps land elsewhere; pinned values
    def run(lrs):
        p = Tensor(np.array([1.0]), requires_grad=True)
        for lr in lrs:
            p.grad = np.array([1.0])
            sgd_step([("p", p)], lr=lr, weight_decay=0.5)
        return float(p.data[0])

    full = run([0.2])
    halves = run([0.1, 0.1])
    assert abs(full - 0.7) < 1e-15
    assert abs(halves - 0.7075) < 1e-15
    assert full != halves


# ---------------------------------------------------------------------------
# per-op finite-difference checks (20+ instances each)


def _rand(rng, *shape):
    return rng.standard_normal(shape)


def test_grad_conv2d():
    rng = rngmod.stream(31, "g-conv")
    for case in range(20):
        k = 2 * int(rng.integers(0, 3)) + 1
        x = _rand(rng, 2, 2, 5, 5)
        w = _rand(rng, 2, 2, k, k)
        b = _rand(rng, 2)
        gradcheck(
            lambda ts: projection(conv2d(ts[0], ts[1], ts[2]), 100 + case),
            [x, w, b],
        )


def test_grad_conv_transpose2d():
    rng = rngmod.stream(32, "g-convt")
    for case in range(20):
        k = int(rng.integers(1, 4))
        x = _rand(rng, 2, 2, 3, 3)
        w = _rand(rng, 2, 2, k, k)
        gradcheck(
            lambda ts: projection(conv_transpose2d(ts[0], ts[1]), 200 + case),
            [x, w],
        )


def test_grad_batchnorm_train():
    rng = rngmod.stream(33, "g-bn")
    for case in range(20):
        x = _rand(rng, 2, 2, 3, 3)
        gamma = _rand(rng, 2) + 1.5
        beta = _rand(rng, 2)

        def make(ts):
            stats = BatchNormStats.initialized(2)
            return projection(batchnorm2d(ts[0], ts[1], ts[2], stats, "train"), 300 + case)

        gradcheck(make, [x, gamma, beta])


def test_grad_batchnorm_eval():
    rng = rngmod.stream(34, "g-bn-eval")
    for case in range(20):
        x = _rand(rng, 2, 2, 3, 3)
        gamma = _rand(rng, 2) + 1.5
        beta = _rand(rng, 2)
        rm = _rand(rng, 2)
        rv = rng.random(2) + 0.5

        def make(ts):
            stats = BatchNormStats(rm.copy(), rv.copy())
            return projection(batchnorm2d(ts[0], ts[1], ts[2], stats, "eval"), 400 + case)

        gradcheck(make, [x, gamma, beta])


def test_grad_activations():
    rng = rngmod.stream(35, "g-act")
    for case in range(20):
        x = _rand(rng, 3, 4)
        # keep relu inputs away from the kink
        x = np.where(np.abs(x) < 0.05, 0.1, x)
        gradcheck(lambda ts: projection(relu(ts[0]), 500 + case), [x])
        gradcheck(lambda ts: projection(sigmoid(ts[0]), 501 + case), [x])
        gradcheck(lambda ts: projection(tanh(ts[0]), 502 + case), [x])


def test_grad_softmax():
    rng = rngmod.stream(36, "g-softmax")
    for case in range(20):
        x = _rand(rng, 2, 3, 2, 2)
        gradcheck(lambda ts: projection(softmax_channels(ts[0]), 600 + case), [x])


def test_grad_pooling():
    rng = rngmod.stream(37, "g-pool")
    for case in range(20):
        x = _rand(rng, 2, 2, 6, 6) * 3.0
        gradcheck(lambda ts: projection(maxpool2d(ts[0]), 700 + case), [x])
        gradcheck(lambda ts: projection(avgpool2d(ts[0]), 701 + case), [x])


def test_grad_maxpool_routes_to_first_argmax():
    # tied 2x2 windows, each paired with the row-major slot of its first maximum
    windows = [
        ([[5.0, 5.0], [5.0, 5.0]], (0, 0)),
        ([[1.0, 5.0], [5.0, 2.0]], (0, 1)),
        ([[1.0, 2.0], [5.0, 5.0]], (1, 0)),
        ([[-3.0, -3.0], [-3.0, 7.0]], (1, 1)),
        ([[-0.0, 0.0], [-1.0, -1.0]], (0, 0)),
        ([[-2.0, 0.0], [0.0, -0.0]], (0, 1)),
    ]
    n, c, ho, wo = 2, 3, 2, 3
    x = np.empty((n, c, 2 * ho, 2 * wo))
    go = np.arange(1.0, 1.0 + n * c * ho * wo).reshape(n, c, ho, wo)
    want = np.zeros_like(x)
    for k, (b, ci, i, j) in enumerate(np.ndindex(n, c, ho, wo)):
        vals, (di, dj) = windows[k % len(windows)]
        x[b, ci, 2 * i:2 * i + 2, 2 * j:2 * j + 2] = vals
        want[b, ci, 2 * i + di, 2 * j + dj] = go[b, ci, i, j]
    xt = Tensor(x, requires_grad=True)
    with Graph():
        loss = sum_all(mul(maxpool2d(xt), Tensor(go)))
    backward(loss)
    np.testing.assert_array_equal(xt.grad, want)


def test_grad_dropout():
    rng = rngmod.stream(38, "g-drop")
    for case in range(20):
        x = _rand(rng, 2, 3, 2, 2)

        def make(ts):
            # same mask on every evaluation: fresh generator, fixed seed
            r = rngmod.stream(case, "drop-fd")
            return projection(dropout2d(ts[0], 0.4, "train", r), 800 + case)

        gradcheck(make, [x])


def test_grad_concat_and_slices():
    rng = rngmod.stream(39, "g-concat")
    for case in range(20):
        a = _rand(rng, 2, 2, 3, 3)
        b = _rand(rng, 2, 3, 3, 3)
        gradcheck(
            lambda ts: projection(concat_channels([ts[0], ts[1]]), 900 + case), [a, b]
        )
        x = _rand(rng, 4, 2, 3, 3)
        gradcheck(lambda ts: projection(slice_batch(ts[0], 1, 3), 901 + case), [x])
        gradcheck(lambda ts: projection(slice_channels(ts[0], 0, 1), 902 + case), [x])


def test_grad_upsample():
    rng = rngmod.stream(40, "g-up")
    for case in range(20):
        x = _rand(rng, 2, 2, 3, 3)
        gradcheck(lambda ts: projection(upsample_nearest(ts[0]), 1000 + case), [x])


def test_grad_elementwise_arithmetic():
    rng = rngmod.stream(41, "g-arith")
    for case in range(20):
        a = _rand(rng, 3, 3)
        b = _rand(rng, 3, 3)
        b = np.where(np.abs(b) < 0.2, 0.5, b)  # keep divisors away from zero
        gradcheck(lambda ts: projection(mul(ts[0], ts[1]), 1100 + case), [a, b])
        gradcheck(lambda ts: projection(div(ts[0], ts[1]), 1101 + case), [a, b])
        gradcheck(
            lambda ts: projection(ts[0] * 2.0 + (ts[1] - 1.5), 1102 + case), [a, b]
        )


def test_grad_through_composition():
    # one deeper chain mixing most ops, to catch wrong chaining between rules
    rng = rngmod.stream(42, "g-chain")
    x = _rand(rng, 2, 2, 4, 4)
    w = _rand(rng, 3, 2, 3, 3)
    b = _rand(rng, 3)
    gamma = _rand(rng, 3) + 1.5
    beta = _rand(rng, 3)

    def make(ts):
        stats = BatchNormStats.initialized(3)
        y = conv2d(ts[0], ts[1], ts[2])
        y = batchnorm2d(y, ts[3], ts[4], stats, "train")
        y = relu(y)
        y = maxpool2d(y)
        y = upsample_nearest(y)
        y = softmax_channels(y)
        return projection(y, 4242)

    gradcheck(make, [x, w, b, gamma, beta], tol=1e-4)
