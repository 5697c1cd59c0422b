"""Composite block semantics and oracles. Each block's finite-difference
check is a gradient row in test_acceptance."""

import math
import tracemalloc

import numpy as np
import pytest

from msseg import blocks
from msseg import rng as rngmod
from msseg.blocks import (
    BatchNormParams,
    ConvBlockParams,
    ConvLSTMParams,
    ConvParams,
    DenseLayerParams,
    SABlockParams,
    TransitionUpParams,
    conv_block,
    convlstm_forward,
    convlstm_step,
    dense_block,
    dense_block_params,
    dense_layer,
    sa_block,
    transition_down,
    transition_up,
)
from msseg.errors import ShapeError
from msseg.tensor import Graph, Tensor, backward, batchnorm2d, concat_channels, mul, sum_all

import oracles


def t(a):
    return Tensor(np.asarray(a, dtype=np.float64))


def down_params(rng, channels: int) -> DenseLayerParams:
    """Transition-down parameters as build_model makes them: 1x1, channel-preserving."""
    return DenseLayerParams(
        BatchNormParams.create(channels), ConvParams.create(rng, channels, channels, 1), 0.0
    )


def zero_conv(p: ConvParams):
    p.w.data[:] = 0.0
    p.b.data[:] = 0.0


# ---------------------------------------------------------------------------
# dense layer / dense block


def test_dense_layer_zero_weights_zero_output():
    rng = rngmod.stream(50, "dl")
    p = DenseLayerParams.create(rng, 3, 4, dropout_p=0.0)
    zero_conv(p.conv)
    x = t(rng.standard_normal((2, 3, 6, 6)))
    out = dense_layer(x, p, "eval")
    assert out.data.shape == (2, 4, 6, 6)
    np.testing.assert_array_equal(out.data, 0.0)


def test_dense_layer_preserves_spatial_dims():
    rng = rngmod.stream(51, "dl2")
    p = DenseLayerParams.create(rng, 2, 3, dropout_p=0.2)
    x = t(rng.standard_normal((1, 2, 5, 7)))
    out = dense_layer(x, p, "train", rngmod.stream(51, "drop"))
    assert out.data.shape == (1, 3, 5, 7)


def test_dense_layer_channel_mismatch_rejected():
    rng = rngmod.stream(52, "dl3")
    p = DenseLayerParams(BatchNormParams.create(3), ConvParams.create(rng, 4, 2, 3), 0.0)
    with pytest.raises(ShapeError, match="conv2d channel mismatch"):
        dense_layer(t(rng.standard_normal((1, 3, 4, 4))), p, "eval")


def test_dense_block_channel_accounting():
    rng = rngmod.stream(53, "db")
    for g in (1, 3, 4):
        p = dense_block_params(rng, 6, 5, g, 0.0)
        x = t(rng.standard_normal((1, 6, 4, 4)))
        out = dense_block(x, p, "eval")
        assert out.data.shape == (1, 5 * g, 4, 4)


def test_dense_block_zero_convs_ignore_input():
    rng = rngmod.stream(54, "db0")
    p = dense_block_params(rng, 2, 3, 2, 0.0)
    for lay in p:
        zero_conv(lay.conv)
    a = dense_block(t(rng.standard_normal((1, 2, 4, 4))), p, "eval").data
    b = dense_block(t(rng.standard_normal((1, 2, 4, 4))), p, "eval").data
    np.testing.assert_array_equal(a, b)
    # every output channel is a constant plane
    for ci in range(a.shape[1]):
        assert np.ptp(a[0, ci]) == 0.0


def test_dense_block_matches_hand_unrolled_two_layers():
    rng = rngmod.stream(55, "db-unroll")
    p = dense_block_params(rng, 3, 2, 4, 0.0)
    x = t(rng.standard_normal((2, 3, 5, 5)))

    got = dense_block(x, p, "eval").data

    y0 = dense_layer(x, p[0], "eval")
    feed1 = concat_channels([x, y0])
    y1 = dense_layer(feed1, p[1], "eval")
    want = np.concatenate([y0.data, y1.data], axis=1)
    np.testing.assert_array_equal(got, want)


def _fresh_concat_ladder(x, p, mode, rng=None):
    """The dense block as a ladder of fresh concats: every feed a new array."""
    feed = x
    outputs = []
    for lay in p:
        y = dense_layer(feed, lay, mode, rng)
        outputs.append(y)
        feed = concat_channels([feed, y])
    return concat_channels(outputs)


def _train_dense_step(block_fn):
    """One train-mode block forward and backward at N = 3 with 3 layers and
    dropout; returns the output, the running statistics and every gradient."""
    p = dense_block_params(rngmod.stream(58, "db-ladder"), 5, 3, 4, 0.2)
    x = rngmod.stream(58, "db-ladder-x").standard_normal((3, 5, 6, 7))
    x = Tensor(x, requires_grad=True)
    with Graph():
        out = block_fn(x, p, "train", rngmod.stream(58, "db-ladder-drop"))
        r = rngmod.stream(58, "db-ladder-r").standard_normal(out.data.shape)
        loss = sum_all(mul(out, Tensor(r)))
    backward(loss)
    leaves = [x] + [a for lay in p for a in (lay.bn.gamma, lay.bn.beta, lay.conv.w, lay.conv.b)]
    stats = [a.data for lay in p for a in (lay.bn.running_mean, lay.bn.running_var)]
    return [out.data] + stats + [a.grad for a in leaves]


def test_train_dense_block_is_bit_identical_to_a_fresh_concat_ladder():
    got, want = _train_dense_step(dense_block), _train_dense_step(_fresh_concat_ladder)
    assert len(got) == len(want) == 1 + 6 + 13
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_dense_block_feeds_share_one_buffer(monkeypatch):
    seen = []

    def spy(x, *rest):
        seen.append(x.data)
        return batchnorm2d(x, *rest)

    monkeypatch.setattr(blocks, "batchnorm2d", spy)
    rng = rngmod.stream(59, "db-share")
    p = dense_block_params(rng, 3, 4, 2, 0.0)
    x = t(rng.standard_normal((2, 3, 4, 4)))
    dense_block(x, p, "eval")
    assert seen[0] is x.data
    base = seen[1].base
    assert base is not None and base.shape == (2, 3 + 4 * 2, 4, 4)
    for i, feed in enumerate(seen[1:], start=1):
        assert feed.base is base and feed.ctypes.data == base.ctypes.data
        assert feed.shape[1] == 3 + i * 2


def test_train_dense_block_tape_keeps_one_feed():
    """What a taped block keeps once its output is dropped: each layer's
    ReLU output (its conv's input) and one feed buffer, not one feed per
    layer. The fresh-concat ladder keeps 5 feeds of 8 to 24 channels."""
    n, c0, layers, g, hw = 2, 4, 6, 4, 32
    plane = n * hw * hw * 8
    relu_outputs = sum(c0 + i * g for i in range(layers)) * plane
    feeds = (c0 + layers * g) * plane
    bound = relu_outputs + 1.5 * feeds
    for block_fn, fits in ((dense_block, True), (_fresh_concat_ladder, False)):
        p = dense_block_params(rngmod.stream(60, "db-tape"), c0, layers, g, 0.0)
        x = rngmod.stream(60, "db-tape-x").standard_normal((n, c0, hw, hw))
        x = Tensor(x, requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Graph() as graph:
                out = block_fn(x, p, "train")
            del out
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(graph) > 0
        assert (kept < bound) == fits, (block_fn.__name__, kept / plane, bound / plane)


@pytest.mark.parametrize(
    "in_ch, growth, match",
    [(7, 2, "batchnorm2d"), (6, 3, "concat_channels")],  # layer 1 should be 6 -> 2
)
def test_dense_block_bad_ladder_rejected_at_first_forward(in_ch, growth, match):
    rng = rngmod.stream(56, "db-bad")
    good = DenseLayerParams.create(rng, 4, 2, 0.0)
    bad = DenseLayerParams.create(rng, in_ch, growth, 0.0)
    with pytest.raises(ShapeError, match=match):
        dense_block(t(rng.standard_normal((1, 4, 4, 4))), [good, bad], "eval")


# ---------------------------------------------------------------------------
# transitions


def test_transition_down_halves_geometry():
    rng = rngmod.stream(58, "td")
    p = down_params(rng, 3)
    x = t(rng.standard_normal((1, 3, 8, 8)))
    out = transition_down(x, p, "eval")
    assert out.data.shape == (1, 3, 4, 4)


def test_transition_down_constant_input_stays_constant():
    rng = rngmod.stream(59, "td2")
    p = down_params(rng, 2)
    # identity-like 1x1 conv: w = I, b = 0
    p.conv.w.data[:] = 0.0
    for c in range(2):
        p.conv.w.data[c, c, 0, 0] = 1.0
    p.conv.b.data[:] = 0.0
    x = t(np.full((1, 2, 4, 4), 3.0))
    out = transition_down(x, p, "eval").data
    for ci in range(2):
        assert np.ptp(out[0, ci]) == 0.0


def test_transition_down_tiny_input_rejected():
    rng = rngmod.stream(60, "td3")
    p = down_params(rng, 1)
    with pytest.raises(ShapeError):
        transition_down(t(np.ones((1, 1, 1, 4))), p, "eval")


def test_transition_up_doubles_geometry_and_round_trip():
    rng = rngmod.stream(62, "tu")
    p = TransitionUpParams.create(rng, 3)
    x = t(rng.standard_normal((2, 3, 5, 7)))
    out = transition_up(x, p)
    assert out.data.shape == (2, 3, 10, 14)

    td = down_params(rng, 3)
    down = transition_down(out, td, "eval")
    assert down.data.shape == x.data.shape


def test_transition_up_zero_kernel():
    rng = rngmod.stream(63, "tu0")
    p = TransitionUpParams.create(rng, 2)
    p.w.data[:] = 0.0
    out = transition_up(t(rng.standard_normal((1, 2, 4, 4))), p)
    np.testing.assert_array_equal(out.data, 0.0)


# ---------------------------------------------------------------------------
# conv_block and squeeze attention


def test_conv_block_nonnegative_and_shape():
    rng = rngmod.stream(65, "cb")
    p = ConvBlockParams.create(rng, 3, 5)
    x = t(rng.standard_normal((2, 3, 6, 6)))
    out = conv_block(x, p, "train")
    assert out.data.shape == (2, 5, 6, 6)
    assert np.all(out.data >= 0.0)


def zeroed_sa(rng, channels):
    p = SABlockParams.create(rng, channels)
    for cb in (p.attn1, p.attn2):
        zero_conv(cb.conv1)
        zero_conv(cb.conv2)
        cb.bn1.beta.data[:] = 0.0
        cb.bn2.beta.data[:] = 0.0
    return p


def test_sa_block_zero_attention_collapses_to_zero():
    rng = rngmod.stream(67, "sa0")
    p = zeroed_sa(rng, 3)
    x = t(rng.standard_normal((2, 3, 4, 4)))
    out = sa_block(x, p, "eval")
    np.testing.assert_array_equal(out.data, 0.0)


def test_sa_block_unit_attention_adds_one():
    rng = rngmod.stream(68, "sa1")
    p = zeroed_sa(rng, 2)
    # last stage: bn2 beta 1 -> relu(1) = 1 everywhere
    p.attn2.bn2.beta.data[:] = 1.0
    x = t(rngmod.stream(68, "sa1-x").standard_normal((1, 2, 6, 6)))
    out = sa_block(x, p, "eval")
    np.testing.assert_allclose(out.data, x.data + 1.0, atol=1e-12)


def test_sa_block_matches_scalar_combine_oracle():
    rng = rngmod.stream(69, "sa-oracle")
    from msseg.tensor import avgpool2d, upsample_nearest

    p = SABlockParams.create(rng, 3)
    x = t(rng.standard_normal((2, 3, 4, 4)))
    a = avgpool2d(x)
    a = conv_block(a, p.attn1, "eval")
    a = conv_block(a, p.attn2, "eval")
    a = upsample_nearest(a)

    got = sa_block(x, p, "eval").data
    want = np.empty_like(got)
    for idx in np.ndindex(got.shape):
        want[idx] = x.data[idx] * a.data[idx] + a.data[idx]
    assert oracles.rel_err(got, want) < 1e-12


def test_sa_block_divisibility_enforced():
    rng = rngmod.stream(70, "sa-div")
    p = SABlockParams.create(rng, 1)
    with pytest.raises(ShapeError, match="divisible"):
        sa_block(t(np.ones((1, 1, 5, 4))), p, "eval")


# ---------------------------------------------------------------------------
# ConvLSTM


def test_convlstm_zero_weights_zero_state():
    rng = rngmod.stream(73, "lstm0")
    p = ConvLSTMParams.create(rng, 2, 3)
    for gate in (p.input, p.forget, p.cell, p.output):
        zero_conv(gate)
    x = t(rng.standard_normal((1, 2, 4, 4)))
    h0 = t(np.zeros((1, 3, 4, 4)))
    c0 = t(np.zeros((1, 3, 4, 4)))
    h1, c1 = convlstm_step(x, h0, c0, p)
    np.testing.assert_array_equal(c1.data, 0.0)
    np.testing.assert_array_equal(h1.data, 0.0)


def test_convlstm_forget_bias_initialized_to_one():
    rng = rngmod.stream(74, "lstm-bias")
    p = ConvLSTMParams.create(rng, 2, 3)
    np.testing.assert_array_equal(p.forget.b.data, 1.0)
    np.testing.assert_array_equal(p.input.b.data, 0.0)
    np.testing.assert_array_equal(p.cell.b.data, 0.0)
    np.testing.assert_array_equal(p.output.b.data, 0.0)


def test_convlstm_saturated_forget_gate_keeps_cell():
    rng = rngmod.stream(75, "lstm-sat")
    p = ConvLSTMParams.create(rng, 1, 2)
    p.forget.w.data[:] = 0.0
    p.forget.b.data[:] = 20.0  # sigmoid(20) within 1e-6 of 1
    x = t(rng.standard_normal((1, 1, 3, 3)) * 0.1)
    h0 = t(np.zeros((1, 2, 3, 3)))
    c0 = t(rng.standard_normal((1, 2, 3, 3)))

    h1, c1 = convlstm_step(x, h0, c0, p)

    xh = np.concatenate([x.data, h0.data], axis=1)
    i = oracles.conv2d_loops(
        np.pad(xh, ((0, 0), (0, 0), (1, 1), (1, 1))), p.input.w.data, p.input.b.data
    )
    i = 1.0 / (1.0 + np.exp(-i))
    g = oracles.conv2d_loops(
        np.pad(xh, ((0, 0), (0, 0), (1, 1), (1, 1))), p.cell.w.data, p.cell.b.data
    )
    g = np.tanh(g)
    want = c0.data + i * g
    assert np.max(np.abs(c1.data - want)) < 1e-6


def test_convlstm_single_pixel_scalar_oracle():
    rng = rngmod.stream(76, "lstm-pixel")
    p = ConvLSTMParams.create(rng, 2, 2)
    # 1x1 spatial input: only the kernel centers touch the data
    x = rng.standard_normal((1, 2, 1, 1))
    h0 = rng.standard_normal((1, 2, 1, 1))
    c0 = rng.standard_normal((1, 2, 1, 1))

    h1, c1 = convlstm_step(t(x), t(h0), t(c0), p)

    xh = np.concatenate([x, h0], axis=1)[0, :, 0, 0]
    for hc in range(2):
        def gate(cp):
            acc = cp.b.data[hc]
            for ic in range(4):
                acc += xh[ic] * cp.w.data[hc, ic, 1, 1]
            return acc

        i = 1.0 / (1.0 + math.exp(-gate(p.input)))
        f = 1.0 / (1.0 + math.exp(-gate(p.forget)))
        g = math.tanh(gate(p.cell))
        o = 1.0 / (1.0 + math.exp(-gate(p.output)))
        c_want = f * c0[0, hc, 0, 0] + i * g
        h_want = o * math.tanh(c_want)
        assert abs(c1.data[0, hc, 0, 0] - c_want) < 1e-12
        assert abs(h1.data[0, hc, 0, 0] - h_want) < 1e-12


def test_convlstm_forward_base_case_and_unroll():
    rng = rngmod.stream(77, "lstm-unroll")
    p = ConvLSTMParams.create(rng, 2, 3)
    seq = [t(rng.standard_normal((2, 2, 4, 4))) for _ in range(3)]

    single = convlstm_forward(seq[:1], p)
    h0 = t(np.zeros((2, 3, 4, 4)))
    c0 = t(np.zeros((2, 3, 4, 4)))
    h1, _ = convlstm_step(seq[0], h0, c0, p)
    np.testing.assert_array_equal(single.data, h1.data)

    full = convlstm_forward(seq, p)
    h, c = t(np.zeros((2, 3, 4, 4))), t(np.zeros((2, 3, 4, 4)))
    for x_t in seq:
        h, c = convlstm_step(x_t, h, c, p)
    np.testing.assert_array_equal(full.data, h.data)


def test_convlstm_forward_batch_equivariance():
    rng = rngmod.stream(78, "lstm-perm")
    p = ConvLSTMParams.create(rng, 2, 2)
    seq = [rng.standard_normal((3, 2, 4, 4)) for _ in range(3)]
    out = convlstm_forward([t(s) for s in seq], p).data
    perm = [2, 0, 1]
    out_p = convlstm_forward([t(s[perm]) for s in seq], p).data
    np.testing.assert_array_equal(out_p, out[perm])


def test_convlstm_forward_empty_rejected():
    rng = rngmod.stream(79, "lstm-empty")
    p = ConvLSTMParams.create(rng, 1, 1)
    with pytest.raises(ShapeError):
        convlstm_forward([], p)


@pytest.mark.parametrize("bad, says", [("h", "concat_channels"), ("c", "mul")])
def test_convlstm_step_refuses_a_state_of_other_spatial_dims(bad, says):
    p = ConvLSTMParams.create(rngmod.stream(81, "lstm-shape"), 2, 3)
    shapes = {"x": (1, 2, 4, 4), "h": (1, 3, 4, 4), "c": (1, 3, 4, 4)}
    shapes[bad] = (1, 3, 4, 3)
    x, h, c = (t(np.zeros(s)) for s in shapes.values())
    # the ops' own shape checks are the step's: x and h meet in the concat,
    # the cell state in the forget product
    with pytest.raises(ShapeError, match=says):
        convlstm_step(x, h, c, p)


def test_convlstm_cell_bound_invariant():
    rng = rngmod.stream(80, "lstm-bound")
    p = ConvLSTMParams.create(rng, 2, 2)
    x = t(rng.standard_normal((2, 2, 4, 4)) * 3)
    h0 = t(rng.standard_normal((2, 2, 4, 4)))
    c0 = t(rng.standard_normal((2, 2, 4, 4)) * 2)
    _, c1 = convlstm_step(x, h0, c0, p)
    assert np.all(np.abs(c1.data) <= np.abs(c0.data) + 1.0 + 1e-12)


