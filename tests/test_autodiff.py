"""Backward-pass correctness: tape mechanics, retained memory, and exact
gradient oracles. Every op's finite-difference check is a gradient row in
test_acceptance."""

import tracemalloc
import weakref

import numpy as np
import pytest

from msseg import rng as rngmod
from msseg.errors import ShapeError
from msseg.tensor import (
    SGD_CHUNK,
    Graph,
    Tensor,
    _emit,
    add,
    backward,
    batchnorm2d,
    conv2d,
    conv_transpose2d,
    maxpool2d,
    mul,
    mul_scalar,
    relu,
    sgd_step,
    softmax_channels,
    sum_all,
    upsample_nearest,
)

import oracles


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
        loss = mul_scalar(sum_all(mul(x, x)), 0.5)
    backward(loss)
    np.testing.assert_allclose(x.grad, x.data, atol=1e-15)


def test_backward_accumulates_across_fanout():
    x = Tensor(np.array([2.0]), requires_grad=True)
    with Graph():
        loss = sum_all(add(x, x))
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


def test_backward_after_failed_sweep_rejected():
    x = Tensor(np.ones(3), requires_grad=True)

    def failing_vjp(go):
        raise RuntimeError("vjp failed")

    with Graph():
        loss = sum_all(_emit(x.data * 2.0, (x,), failing_vjp))
    with pytest.raises(RuntimeError, match="vjp failed"):
        backward(loss)
    # the tape is half swept; sweeping its remainder would be silently wrong
    with pytest.raises(ValueError, match="already swept"):
        backward(loss)


def test_backward_frees_later_nodes_before_earlier_vjps_run():
    x = Tensor(np.ones(4), requires_grad=True)
    later_freed = []

    def probe_vjp(go):
        later_freed.append(later_data() is None)
        return (go,)

    with Graph():
        first = _emit(x.data.copy(), (x,), probe_vjp)
        later = mul_scalar(first, 3.0)
        later_data = weakref.ref(later.data)
        loss = sum_all(later)
    del first, later
    backward(loss)
    assert later_freed == [True]
    np.testing.assert_array_equal(x.grad, np.full(4, 3.0))


def test_tape_keeps_only_what_vjps_read():
    # no vjp reads a batchnorm output, so once the caller drops it nothing
    # holds it; relu's vjp reads its own output, which stays alive
    rng = rngmod.stream(7, "tape-keeps")
    x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
    gamma = Tensor(np.ones(3), requires_grad=True)
    beta = Tensor(np.zeros(3), requires_grad=True)
    stats = Tensor(np.zeros(3)), Tensor(np.ones(3))
    with Graph():
        normed = batchnorm2d(x, gamma, beta, *stats, "train")
        rectified = relu(normed)
        loss = sum_all(rectified)
    normed_data, rectified_data = weakref.ref(normed.data), weakref.ref(rectified.data)
    del normed, rectified
    assert normed_data() is None
    assert rectified_data() is not None
    backward(loss)
    assert x.grad is not None and gamma.grad is not None


@pytest.mark.parametrize("input_kind", ["leaf", "op output"])
def test_wrong_gradient_shape_raises(input_kind):
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    with Graph():
        inp = x if input_kind == "leaf" else mul_scalar(x, 2.0)
        out = _emit(inp.data.sum(axis=0), (inp,), lambda go: (np.ones(4),))
        loss = sum_all(out)
    want = r"gradient shape \(4,\) does not match tensor shape \(2, 3\)"
    with pytest.raises(ShapeError, match=want):
        backward(loss)


def test_gradients_accumulate_across_graphs_until_sgd_step():
    rng = rngmod.stream(7, "micro-batch")
    leaves = [Tensor(rng.standard_normal(5), requires_grad=True) for _ in range(2)]
    batches = [rng.standard_normal(5), rng.standard_normal(5)]

    def step(b):
        w, v = leaves
        with Graph():
            loss = sum_all(mul(mul(w, v), Tensor(b)))
        backward(loss)

    alone = []
    for b in batches:
        step(b)
        alone.append([t.grad for t in leaves])
        for t in leaves:
            t.grad = None
    for b in batches:
        step(b)
    for t, first, second in zip(leaves, *alone):
        assert t.grad.tobytes() == (first + second).tobytes()
    sgd_step([("w", leaves[0]), ("v", leaves[1])], lr=0.5)
    assert all(t.grad is None for t in leaves)


def test_sgd_step_by_chunks_is_the_update_expression_bit_for_bit():
    # one parameter spans three whole chunks and part of a fourth, one is
    # column-major, one is smaller than a chunk
    rng = rngmod.stream(8, "sgd-chunks")
    lr, wd = 0.05, 1e-4
    arrays = [rng.standard_normal((7, SGD_CHUNK // 2 + 3)),
              np.asfortranarray(rng.standard_normal((9, 4001))),
              rng.standard_normal(5)]
    params = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    grads = [rng.standard_normal(a.shape) for a in arrays]
    for p, g in zip(params, grads):
        p.grad = g
    sgd_step([(str(i), p) for i, p in enumerate(params)], lr, wd)
    for a, g, p in zip(arrays, grads, params):
        assert p.data.shape == a.shape and p.grad is None
        assert p.data.tobytes() == (a - lr * (g + wd * a)).tobytes()


# ---------------------------------------------------------------------------
# convolution backward: retained memory and exact loop-oracle gradients


def test_conv2d_keeps_no_patch_matrix_for_backward():
    rng = rngmod.stream(34, "conv-retained")
    x = Tensor(rng.standard_normal((2, 8, 16, 16)), requires_grad=True)
    w = Tensor(rng.standard_normal((8, 8, 3, 3)), requires_grad=True)
    b = Tensor(np.zeros(8), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Graph():
            out = conv2d(x, w, b)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the output is as large as the input; a kept 3x3 patch matrix adds 9x it
    assert out.data.nbytes == x.data.nbytes
    assert retained < 2 * x.data.nbytes


def _unit_probe(loss_at, shape):
    """The gradient of a loss linear in one array: its loss at each unit array."""
    want = np.zeros(shape)
    for idx in np.ndindex(*shape):
        unit = np.zeros(shape)
        unit[idx] = 1.0
        want[idx] = loss_at(unit)
    return want


def _check_conv2d_grads(rng, n, k, needs):
    """Checks conv2d's input and weight gradients against the loop oracle
    for each (need_x, need_w) in needs; a gradient not asked for stays None."""
    # 5x4 is non-square; at 2x2 and 1x1 a k > H kernel's taps fall wholly
    # in the padding; H*W < F (1x1 with F = 3, and F = 5 at 2x2 and 1x3)
    # is weight-bound; at 1x3, 3x1 and 2x7 with F <= H*W a k = 5 kernel on
    # the kn2row path reaches past the image on every side
    shapes = (
        (3, 5, 4), (3, 2, 2), (3, 1, 1), (5, 2, 2), (5, 1, 3), (3, 1, 3), (3, 3, 1), (4, 2, 7)
    )
    for f, h, wd in shapes:
        zero_bias = np.zeros(f)
        x = rng.standard_normal((n, 2, h, wd))
        r = rng.standard_normal((n, f, h, wd))
        w = rng.standard_normal((f, 2, k, k))
        want_x = want_w = None
        if any(need_x for need_x, _ in needs):
            want_x = _unit_probe(
                lambda u: np.sum(oracles.conv2d_loops(u, w, zero_bias, pad=k // 2) * r), x.shape
            )
        if any(need_w for _, need_w in needs):
            want_w = _unit_probe(
                lambda u: np.sum(oracles.conv2d_loops(x, u, zero_bias, pad=k // 2) * r), w.shape
            )
        for need_x, need_w in needs:
            xt, wt = Tensor(x, requires_grad=need_x), Tensor(w, requires_grad=need_w)
            with Graph():
                loss = sum_all(mul(conv2d(xt, wt, Tensor(zero_bias)), Tensor(r)))
            backward(loss)
            for t, need, want in ((xt, need_x, want_x), (wt, need_w, want_w)):
                if need:
                    np.testing.assert_allclose(t.grad, want, rtol=0.0, atol=1e-12)
                else:
                    assert t.grad is None


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv2d_weight_grad_matches_loop_oracle(n, k):
    # alone, then together with the input gradient
    needs = ((False, True), (True, True))
    _check_conv2d_grads(rngmod.stream(35, f"conv-wgrad-{n}-{k}"), n, k, needs)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv2d_input_grad_matches_loop_oracle(n, k):
    _check_conv2d_grads(rngmod.stream(36, f"conv-xgrad-{n}-{k}"), n, k, ((True, False),))


@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv2d_bias_only_grad(k):
    rng = rngmod.stream(39, f"conv-bgrad-{k}")
    for h, wd in ((5, 4), (1, 1), (1, 3), (3, 1), (2, 7)):
        x = Tensor(rng.standard_normal((2, 2, h, wd)))
        w = Tensor(rng.standard_normal((3, 2, k, k)))
        b = Tensor(np.zeros(3), requires_grad=True)
        r = rng.standard_normal((2, 3, h, wd))
        with Graph():
            loss = sum_all(mul(conv2d(x, w, b), Tensor(r)))
        backward(loss)
        assert x.grad is None and w.grad is None
        np.testing.assert_array_equal(b.grad, r.sum(axis=(0, 2, 3)))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_conv_transpose2d_grads_match_loop_oracle(n, k):
    rng = rngmod.stream(38, f"convt-grads-{n}-{k}")
    # C = 2 input channels, F = 3 output channels, a non-square 3x2 input
    x = rng.standard_normal((n, 2, 3, 2))
    w = rng.standard_normal((2, 3, k, k))
    r = rng.standard_normal((n, 3, 4 + k, 2 + k))
    want_x = _unit_probe(lambda u: np.sum(oracles.conv_transpose2d_loops(u, w, 2) * r), x.shape)
    want_w = _unit_probe(lambda u: np.sum(oracles.conv_transpose2d_loops(x, u, 2) * r), w.shape)
    for need_x, need_w in ((True, True), (True, False), (False, True)):
        xt, wt = Tensor(x, requires_grad=need_x), Tensor(w, requires_grad=need_w)
        with Graph():
            loss = sum_all(mul(conv_transpose2d(xt, wt), Tensor(r)))
        backward(loss)
        for t, need, want in ((xt, need_x, want_x), (wt, need_w, want_w)):
            if need:
                np.testing.assert_allclose(t.grad, want, rtol=0.0, atol=1e-12)
            else:
                assert t.grad is None


def _conv_transient_case(op, n=4):
    """A dense-layer-like conv2d, an (n, 48, 32, 32) input with 12 3x3
    filters; a weight-bound conv2d like the ConvLSTM gates', an (n, 48, 2, 2)
    input with 64 3x3 filters; a stem-like conv2d with fewer input channels
    than filters, an (n, 1, 32, 32) input with 19 3x3 filters; or a
    transition-up-like conv_transpose2d, an (n, 48, 16, 16) input with 48
    3x3 filters. Returns the op call, its inputs and the bounds, in bytes,
    on its forward and its backward temporaries beyond its own output and
    gradient arrays."""
    rng = rngmod.stream(37, "conv-transient")
    if op == "conv2d":
        x = Tensor(rng.standard_normal((n, 48, 32, 32)), requires_grad=True)
        w = Tensor(rng.standard_normal((12, 48, 3, 3)), requires_grad=True)
        inputs, call = (x, w, Tensor(np.zeros(12), requires_grad=True)), conv2d
        # kn2row reads the sample in place: the (9F, H*W + gap) product of
        # the tap-stacked weight with it, gap = W + 1, about 2.3x its input,
        # and the (F, H*W + gap) accumulator, 0.26x; a padded copy of the
        # input would add 1.2x, and a batch's product 9x. A quarter of a
        # sample input more covers the gaps and the tap-major weight copy.
        fwd = (9 * 12 + 12) * (32 * 32 + 33) * 8 + x.data[0].nbytes // 4
        # one zero-bordered buffer of the 12-channel output gradient's 9
        # taps, 2.25x, serves both the input and the weight gradient; half a
        # sample input more covers the weight gradient's small buffers
        bwd = 9 * 12 * 32 * 32 * 8 + x.data[0].nbytes // 2
    elif op == "conv2d_weight_bound":
        x = Tensor(rng.standard_normal((n, 48, 2, 2)), requires_grad=True)
        w = Tensor(rng.standard_normal((64, 48, 3, 3)), requires_grad=True)
        inputs, call = (x, w, Tensor(np.zeros(64), requires_grad=True)), conv2d
        # the forward gathers one sample's (C*k*k, H*W) tap buffer; half of
        # one more covers the tap table and the views
        taps = 48 * 9 * 2 * 2 * 8
        fwd = taps + taps // 2
        # the backward reads the batch as one sample: the batch's tap buffer,
        # gathered for the weight gradient, and the input gradient's col2im
        # product of the same size exist one at a time, beside one copy of
        # the output gradient read as (F, N*H*W) and the contiguous
        # (C, N, H, W) array the col2im adds into, the size of gx; a quarter
        # tap buffer more covers the tap table and the small products.
        # Keeping the gathered buffer while the col2im product exists, or
        # adding each tap into a transposed view of gx, which numpy buffers,
        # would exceed it.
        bwd = n * taps + n * 64 * 2 * 2 * 8 + x.data.nbytes + n * taps // 4
    elif op == "conv2d_few_channels":
        x = Tensor(rng.standard_normal((n, 1, 32, 32)), requires_grad=True)
        w = Tensor(rng.standard_normal((19, 1, 3, 3)), requires_grad=True)
        inputs, call = (x, w, Tensor(np.zeros(19), requires_grad=True)), conv2d
        # the forward gathers one sample's (C*k*k, H*W) tap buffer, 9x its
        # input; half of one more covers the tap table and the views.
        # kn2row's (9F, H*W + gap) product would be 19x that buffer.
        taps = 9 * 32 * 32 * 8
        fwd = taps + taps // 2
        # as for the dense-layer-like case: one buffer of the 19-channel
        # output gradient's 9 taps, and half a tap buffer more
        bwd = 9 * 19 * 32 * 32 * 8 + taps // 2
    else:
        x = Tensor(rng.standard_normal((n, 48, 16, 16)), requires_grad=True)
        w = Tensor(rng.standard_normal((48, 48, 3, 3)), requires_grad=True)
        inputs, call = (x, w), conv_transpose2d
        # one sample's (F*k*k, H*W) tap buffer is 9x its input; a batch's would be 36x
        fwd = bwd = 18 * x.data[0].nbytes
    return lambda: call(*inputs), inputs, fwd, bwd


CONV_TRANSIENT_CASES = ["conv2d", "conv2d_weight_bound", "conv2d_few_channels", "conv_transpose2d"]


@pytest.mark.parametrize("op", CONV_TRANSIENT_CASES)
def test_conv2d_forward_transient_covers_one_sample(op):
    transient = {}
    for n in (1, 4):
        run, _, bound, _ = _conv_transient_case(op, n)
        run()  # an untraced call first, so one-time caches are not counted
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = run()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        transient[n] = peak - out.data.nbytes
        assert transient[n] < bound
    # the buffers are sized by one sample, so the batch does not grow them
    assert abs(transient[4] - transient[1]) < 0.01 * bound


@pytest.mark.parametrize("op", CONV_TRANSIENT_CASES)
def test_conv2d_backward_transient_covers_one_sample(op):
    run, inputs, _, bound = _conv_transient_case(op)
    with Graph():
        out = run()
        loss = sum_all(out)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the sweep allocates the op's output gradient and one gradient per input
    held = out.data.nbytes + sum(t.grad.nbytes for t in inputs)
    assert peak - held < bound


# both modes' forward writes one output array; the train backward holds the
# output gradient and the rebuilt xhat, which becomes the input gradient in
# place, with no full-size product
@pytest.mark.parametrize(
    "case, bound", [("eval forward", 1.25), ("train forward", 1.25), ("train backward", 2.25)]
)
def test_batchnorm_transient_in_inputs(case, bound):
    """tracemalloc peak of one batchnorm2d step on a (4, 48, 32, 32) input,
    in units of that input: a forward with its output, or the backward of
    sum_all(bn(x)) with its output gradient and input gradient."""
    rng = rngmod.stream(38, "bn-transient")
    x = Tensor(rng.standard_normal((4, 48, 32, 32)), requires_grad=True)
    gamma = Tensor(rng.random(48) + 0.5, requires_grad=True)
    beta = Tensor(rng.standard_normal(48), requires_grad=True)

    def bn(mode):
        return batchnorm2d(x, gamma, beta, Tensor(np.zeros(48)), Tensor(np.ones(48)), mode)

    if case == "train backward":
        with Graph():
            loss = sum_all(bn("train"))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        if case == "train backward":
            backward(loss)
        else:
            bn(case.split()[0])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / x.data.nbytes < bound


def test_batchnorm_train_keeps_no_xhat():
    rng = rngmod.stream(40, "bn-retained")
    x = Tensor(rng.standard_normal((4, 48, 32, 32)), requires_grad=True)
    gamma = Tensor(rng.random(48) + 0.5, requires_grad=True)
    beta = Tensor(rng.standard_normal(48), requires_grad=True)
    rmean, rvar = Tensor(np.zeros(48)), Tensor(np.ones(48))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Graph():
            out = batchnorm2d(x, gamma, beta, rmean, rvar, "train")
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the vjp rebuilds xhat from x, so only the output stays; a kept xhat
    # would add a whole input
    assert out.data.nbytes == x.data.nbytes
    assert (retained - out.data.nbytes) / x.data.nbytes < 0.25


def test_mul_backward_skips_constant_input():
    # the output gradient and x's gradient are 2x the array; a product for
    # the constant r would make it 3x
    rng = rngmod.stream(36, "mul-const")
    x = Tensor(rng.standard_normal((16, 64, 64)), requires_grad=True)
    r = Tensor(rng.standard_normal((16, 64, 64)))
    with Graph():
        loss = sum_all(mul(x, r))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * x.data.nbytes
    np.testing.assert_array_equal(x.grad, r.data)


# ---------------------------------------------------------------------------
# sgd


def test_sgd_basic_steps():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([1.0])
    sgd_step([("p", p)], lr=0.1, weight_decay=0.0)
    np.testing.assert_allclose(p.data, [0.9])
    assert p.grad is None

    q = Tensor(np.array([1.0]), requires_grad=True)
    q.grad = np.array([0.0])
    sgd_step([("q", q)], lr=0.1, weight_decay=1e-4)
    np.testing.assert_allclose(q.data, [0.99999])


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4, 0.5])
def test_sgd_step_matches_expression_bit_for_bit(weight_decay):
    rng = rngmod.stream(40, f"sgd-bits-{weight_decay}")
    # parameters of several sizes share the step's scratch array
    shapes = ((4, 3, 3, 3), (4,), (2, 5), (), (7, 4, 1, 1))
    params = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    grads = [rng.standard_normal(s) for s in shapes]
    want = [p.data - 0.05 * (g + weight_decay * p.data) for p, g in zip(params, grads)]
    for p, g in zip(params, grads):
        p.grad = g
    sgd_step([(f"p{i}", p) for i, p in enumerate(params)], lr=0.05, weight_decay=weight_decay)
    for p, w in zip(params, want):
        assert p.grad is None
        assert p.data.tobytes() == w.tobytes()


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
# exact gradient oracles


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_batchnorm_grads_match_textbook_oracle(mode):
    rng = rngmod.stream(39, f"bn-oracle-{mode}")
    # (1, 3, 1, 2) is the smallest train batch: m = 2 values per channel
    shapes = [(1, 3, 1, 2), (1, 2, 2, 1)] + [
        tuple(int(v) for v in rng.integers([1, 1, 2, 1], 6)) for _ in range(8)
    ]
    for shape in shapes:
        c = shape[1]
        xd = rng.standard_normal(shape) * 3.0 + 1.0
        gd, bd = rng.standard_normal(c), rng.standard_normal(c)
        go = rng.standard_normal(shape)
        rm, rv = rng.standard_normal(c), rng.random(c) + 0.5
        stats = (None, None) if mode == "train" else (rm, rv)
        want = oracles.batchnorm_grads_textbook(xd, gd, go, *stats)
        # a constant x gets no gradient and leaves gamma's and beta's as they are
        for need_x in (True, False):
            x = Tensor(xd, requires_grad=need_x)
            gamma = Tensor(gd, requires_grad=True)
            beta = Tensor(bd, requires_grad=True)
            with Graph():
                out = batchnorm2d(x, gamma, beta, Tensor(rm.copy()), Tensor(rv.copy()), mode)
                loss = sum_all(mul(out, Tensor(go)))
            backward(loss)
            if need_x:
                assert oracles.rel_err(x.grad, want[0]) < 1e-12, shape
            else:
                assert x.grad is None
            for got, ref in zip((gamma.grad, beta.grad), want[1:]):
                assert oracles.rel_err(got, ref) < 1e-12, (shape, need_x)


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


def test_grad_through_composition():
    # one deeper chain mixing most ops, to catch wrong chaining between rules
    rng = rngmod.stream(42, "g-chain")
    x, w, b, gamma, beta = (
        Tensor(rng.standard_normal(s), requires_grad=True)
        for s in ((2, 2, 4, 4), (3, 2, 3, 3), (3,), (3,), (3,))
    )
    gamma.data += 1.5

    def make():
        rmean, rvar = Tensor(np.zeros(3)), Tensor(np.ones(3))
        y = conv2d(x, w, b)
        y = batchnorm2d(y, gamma, beta, rmean, rvar, "train")
        y = relu(y)
        y = maxpool2d(y)
        y = upsample_nearest(y)
        return softmax_channels(y)

    err = oracles.gradient_error(make, [x, w, b, gamma, beta], seed=4242)
    assert err < 1e-4, f"worst relative error {err}"
