"""Architecture assembly: geometry, wiring oracles, parameter accounting."""

import dataclasses
import hashlib
import weakref
from pathlib import Path

import numpy as np
import pytest

from msseg import blocks, model
from msseg import rng as rngmod
from msseg.config import load_config
from msseg.errors import ShapeError
from msseg.model import (
    ABLATION_LABELS,
    ModelConfig,
    ablation_variants,
    build_model,
    count_params,
    forward,
    named_buffers,
    named_tensors,
    param_count,
    restore_arrays,
    snapshot_arrays,
)
from msseg.tensor import (
    Graph,
    Tensor,
    _Slot,
    backward,
    batchnorm2d,
    concat_channels,
    conv2d,
    conv_transpose2d,
    crop_spatial,
    maxpool2d,
    relu,
    slice_batch,
    softmax_channels,
)
from msseg.train import soft_dice_loss

import oracles


MINI = dataclasses.replace(oracles.MINI, seed=7)


def triplet(rng, b, h, w):
    return Tensor(rng.standard_normal((3 * b, 1, h, w)))


# ---------------------------------------------------------------------------
# flag wiring and names


def test_flag_wiring_drops_sa_and_lstm_subtrees():
    plain = build_model(
        ModelConfig(num_scales=2, layers_per_dense_block=2, growth_rate=4,
                    first_conv_filters=8, convlstm_hidden=6, use_sa=False, use_clstm=False)
    )
    segments = {seg for name, _ in named_tensors(plain) for seg in name.split(".")}
    assert "sa" not in segments and "lstm" not in segments

    both = build_model(MINI)
    segments = {seg for name, _ in named_tensors(both) for seg in name.split(".")}
    assert "sa" in segments and "lstm" in segments


def test_names_unique_and_stable():
    m = build_model(MINI)
    names = [n for n, _ in named_tensors(m)]
    assert len(names) == len(set(names))
    assert names == [n for n, _ in named_tensors(m)]
    for _, t in named_tensors(m):
        assert np.all(np.isfinite(t.data))


# Checkpoint records are the file format: a field rename that moves a name,
# its order or its shape must fail here rather than in a user's load.
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
FULL_RECORDS_SHA256 = "05cd90f8d6a58270447ba01e09fd0d0046009cf2d91a1806bb10db886a1ff363"
MINIATURE_RECORDS = """
    stem.w stem.b
    downsampling.0.dense.0.bn.gamma downsampling.0.dense.0.bn.beta
    downsampling.0.dense.0.conv.w downsampling.0.dense.0.conv.b
    downsampling.0.dense.1.bn.gamma downsampling.0.dense.1.bn.beta
    downsampling.0.dense.1.conv.w downsampling.0.dense.1.conv.b
    downsampling.0.sa.attn1.conv1.w downsampling.0.sa.attn1.conv1.b
    downsampling.0.sa.attn1.bn1.gamma downsampling.0.sa.attn1.bn1.beta
    downsampling.0.sa.attn1.conv2.w downsampling.0.sa.attn1.conv2.b
    downsampling.0.sa.attn1.bn2.gamma downsampling.0.sa.attn1.bn2.beta
    downsampling.0.sa.attn2.conv1.w downsampling.0.sa.attn2.conv1.b
    downsampling.0.sa.attn2.bn1.gamma downsampling.0.sa.attn2.bn1.beta
    downsampling.0.sa.attn2.conv2.w downsampling.0.sa.attn2.conv2.b
    downsampling.0.sa.attn2.bn2.gamma downsampling.0.sa.attn2.bn2.beta
    downsampling.0.down.bn.gamma downsampling.0.down.bn.beta
    downsampling.0.down.conv.w downsampling.0.down.conv.b
    downsampling.1.dense.0.bn.gamma downsampling.1.dense.0.bn.beta
    downsampling.1.dense.0.conv.w downsampling.1.dense.0.conv.b
    downsampling.1.dense.1.bn.gamma downsampling.1.dense.1.bn.beta
    downsampling.1.dense.1.conv.w downsampling.1.dense.1.conv.b
    downsampling.1.sa.attn1.conv1.w downsampling.1.sa.attn1.conv1.b
    downsampling.1.sa.attn1.bn1.gamma downsampling.1.sa.attn1.bn1.beta
    downsampling.1.sa.attn1.conv2.w downsampling.1.sa.attn1.conv2.b
    downsampling.1.sa.attn1.bn2.gamma downsampling.1.sa.attn1.bn2.beta
    downsampling.1.sa.attn2.conv1.w downsampling.1.sa.attn2.conv1.b
    downsampling.1.sa.attn2.bn1.gamma downsampling.1.sa.attn2.bn1.beta
    downsampling.1.sa.attn2.conv2.w downsampling.1.sa.attn2.conv2.b
    downsampling.1.sa.attn2.bn2.gamma downsampling.1.sa.attn2.bn2.beta
    downsampling.1.down.bn.gamma downsampling.1.down.bn.beta
    downsampling.1.down.conv.w downsampling.1.down.conv.b
    bottleneck.dense.0.bn.gamma bottleneck.dense.0.bn.beta
    bottleneck.dense.0.conv.w bottleneck.dense.0.conv.b
    bottleneck.dense.1.bn.gamma bottleneck.dense.1.bn.beta
    bottleneck.dense.1.conv.w bottleneck.dense.1.conv.b
    bottleneck.lstm.input.w bottleneck.lstm.input.b
    bottleneck.lstm.forget.w bottleneck.lstm.forget.b
    bottleneck.lstm.cell.w bottleneck.lstm.cell.b
    bottleneck.lstm.output.w bottleneck.lstm.output.b
    upsampling.0.up.w
    upsampling.0.dense.0.bn.gamma upsampling.0.dense.0.bn.beta
    upsampling.0.dense.0.conv.w upsampling.0.dense.0.conv.b
    upsampling.0.dense.1.bn.gamma upsampling.0.dense.1.bn.beta
    upsampling.0.dense.1.conv.w upsampling.0.dense.1.conv.b
    upsampling.0.sa.attn1.conv1.w upsampling.0.sa.attn1.conv1.b
    upsampling.0.sa.attn1.bn1.gamma upsampling.0.sa.attn1.bn1.beta
    upsampling.0.sa.attn1.conv2.w upsampling.0.sa.attn1.conv2.b
    upsampling.0.sa.attn1.bn2.gamma upsampling.0.sa.attn1.bn2.beta
    upsampling.0.sa.attn2.conv1.w upsampling.0.sa.attn2.conv1.b
    upsampling.0.sa.attn2.bn1.gamma upsampling.0.sa.attn2.bn1.beta
    upsampling.0.sa.attn2.conv2.w upsampling.0.sa.attn2.conv2.b
    upsampling.0.sa.attn2.bn2.gamma upsampling.0.sa.attn2.bn2.beta
    upsampling.1.up.w
    upsampling.1.dense.0.bn.gamma upsampling.1.dense.0.bn.beta
    upsampling.1.dense.0.conv.w upsampling.1.dense.0.conv.b
    upsampling.1.dense.1.bn.gamma upsampling.1.dense.1.bn.beta
    upsampling.1.dense.1.conv.w upsampling.1.dense.1.conv.b
    upsampling.1.sa.attn1.conv1.w upsampling.1.sa.attn1.conv1.b
    upsampling.1.sa.attn1.bn1.gamma upsampling.1.sa.attn1.bn1.beta
    upsampling.1.sa.attn1.conv2.w upsampling.1.sa.attn1.conv2.b
    upsampling.1.sa.attn1.bn2.gamma upsampling.1.sa.attn1.bn2.beta
    upsampling.1.sa.attn2.conv1.w upsampling.1.sa.attn2.conv1.b
    upsampling.1.sa.attn2.bn1.gamma upsampling.1.sa.attn2.bn1.beta
    upsampling.1.sa.attn2.conv2.w upsampling.1.sa.attn2.conv2.b
    upsampling.1.sa.attn2.bn2.gamma upsampling.1.sa.attn2.bn2.beta
    head.w head.b
    downsampling.0.dense.0.bn.running_mean downsampling.0.dense.0.bn.running_var
    downsampling.0.dense.1.bn.running_mean downsampling.0.dense.1.bn.running_var
    downsampling.0.sa.attn1.bn1.running_mean downsampling.0.sa.attn1.bn1.running_var
    downsampling.0.sa.attn1.bn2.running_mean downsampling.0.sa.attn1.bn2.running_var
    downsampling.0.sa.attn2.bn1.running_mean downsampling.0.sa.attn2.bn1.running_var
    downsampling.0.sa.attn2.bn2.running_mean downsampling.0.sa.attn2.bn2.running_var
    downsampling.0.down.bn.running_mean downsampling.0.down.bn.running_var
    downsampling.1.dense.0.bn.running_mean downsampling.1.dense.0.bn.running_var
    downsampling.1.dense.1.bn.running_mean downsampling.1.dense.1.bn.running_var
    downsampling.1.sa.attn1.bn1.running_mean downsampling.1.sa.attn1.bn1.running_var
    downsampling.1.sa.attn1.bn2.running_mean downsampling.1.sa.attn1.bn2.running_var
    downsampling.1.sa.attn2.bn1.running_mean downsampling.1.sa.attn2.bn1.running_var
    downsampling.1.sa.attn2.bn2.running_mean downsampling.1.sa.attn2.bn2.running_var
    downsampling.1.down.bn.running_mean downsampling.1.down.bn.running_var
    bottleneck.dense.0.bn.running_mean bottleneck.dense.0.bn.running_var
    bottleneck.dense.1.bn.running_mean bottleneck.dense.1.bn.running_var
    upsampling.0.dense.0.bn.running_mean upsampling.0.dense.0.bn.running_var
    upsampling.0.dense.1.bn.running_mean upsampling.0.dense.1.bn.running_var
    upsampling.0.sa.attn1.bn1.running_mean upsampling.0.sa.attn1.bn1.running_var
    upsampling.0.sa.attn1.bn2.running_mean upsampling.0.sa.attn1.bn2.running_var
    upsampling.0.sa.attn2.bn1.running_mean upsampling.0.sa.attn2.bn1.running_var
    upsampling.0.sa.attn2.bn2.running_mean upsampling.0.sa.attn2.bn2.running_var
    upsampling.1.dense.0.bn.running_mean upsampling.1.dense.0.bn.running_var
    upsampling.1.dense.1.bn.running_mean upsampling.1.dense.1.bn.running_var
    upsampling.1.sa.attn1.bn1.running_mean upsampling.1.sa.attn1.bn1.running_var
    upsampling.1.sa.attn1.bn2.running_mean upsampling.1.sa.attn1.bn2.running_var
    upsampling.1.sa.attn2.bn1.running_mean upsampling.1.sa.attn2.bn1.running_var
    upsampling.1.sa.attn2.bn2.running_mean upsampling.1.sa.attn2.bn2.running_var
""".split()


def _record_lines(cfg_file):
    mcfg, _ = load_config(str(CONFIGS / cfg_file))
    return [f"{name} {t.data.shape}" for name, t in model._named_arrays(build_model(mcfg))]


def test_record_names_are_pinned():
    full = _record_lines("full.cfg")
    assert len(full) == 617
    digest = hashlib.sha256("".join(line + "\n" for line in full).encode()).hexdigest()
    assert digest == FULL_RECORDS_SHA256
    assert [line.split()[0] for line in _record_lines("miniature.cfg")] == MINIATURE_RECORDS


def _crawl_tensors(obj, found, seen):
    """Every Tensor reachable through instance attributes, lists, tuples and
    dicts, independent of how the model walks its tree."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, Tensor):
        found.append(obj)
        return
    children = []
    if isinstance(obj, (list, tuple)):
        children += obj
    elif isinstance(obj, dict):
        children += [*obj.keys(), *obj.values()]
    if hasattr(obj, "__dict__"):
        children += vars(obj).values()
    for child in children:
        _crawl_tensors(child, found, seen)


@pytest.mark.parametrize("cfg", ablation_variants(MINI), ids=ABLATION_LABELS)
def test_walk_yields_every_tensor_in_the_tree(cfg):
    params = build_model(cfg)
    walked = {id(t) for _, t in model._named_arrays(params)}
    assert len(walked) == len(list(model._named_arrays(params)))
    found = []
    _crawl_tensors(params, found, set())
    assert {id(t) for t in found} == walked

def test_init_is_seed_deterministic():
    a = build_model(MINI)
    b = build_model(MINI)
    for (na, ta), (nb, tb) in zip(named_tensors(a), named_tensors(b)):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)
    c = build_model(dataclasses.replace(MINI, seed=8))
    diffs = sum(
        not np.array_equal(ta.data, tc.data)
        for (_, ta), (_, tc) in zip(named_tensors(a), named_tensors(c))
    )
    assert diffs > 0


# ---------------------------------------------------------------------------
# geometry


def test_miniature_forward_geometry_batch1_and_2():
    m = build_model(MINI)
    rng = rngmod.stream(90, "geom")
    out = forward(m, triplet(rng, 1, 32, 32), "eval")
    assert out.data.shape == (1, 2, 32, 32)
    out = forward(m, triplet(rng, 2, 32, 32), "eval")
    assert out.data.shape == (2, 2, 32, 32)


@pytest.mark.parametrize("size", [32, 64, 160])
def test_geometry_across_sizes(size):
    m = build_model(MINI)
    rng = rngmod.stream(91, "geom-size", size)
    out = forward(m, triplet(rng, 1, size, size), "eval")
    assert out.data.shape == (1, 2, size, size)


def test_five_scale_geometry_at_160():
    cfg = ModelConfig(
        num_scales=5, layers_per_dense_block=2, growth_rate=2,
        first_conv_filters=4, convlstm_hidden=4, dropout_p=0.0, seed=3,
    )
    m = build_model(cfg)
    rng = rngmod.stream(92, "geom-160")
    out = forward(m, triplet(rng, 1, 160, 160), "eval")
    assert out.data.shape == (1, 2, 160, 160)


def test_forward_rejects_bad_inputs():
    m = build_model(MINI)
    rng = rngmod.stream(93, "rejects")
    with pytest.raises(ShapeError, match="3 time steps"):
        forward(m, Tensor(rng.standard_normal((4, 1, 32, 32))), "eval")
    with pytest.raises(ShapeError, match="divisible"):
        forward(m, Tensor(rng.standard_normal((3, 1, 30, 30))), "eval")
    with pytest.raises(ShapeError):
        forward(m, Tensor(rng.standard_normal((3, 2, 32, 32))), "eval")
    with pytest.raises(ValueError, match="mode"):
        forward(m, triplet(rng, 1, 32, 32), "predict")


# ---------------------------------------------------------------------------
# forward semantics


def test_output_is_probability_map():
    m = build_model(MINI)
    rng = rngmod.stream(94, "prob")
    out = forward(m, triplet(rng, 2, 32, 32), "train", rngmod.stream(94, "drop")).data
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)


def test_batch_permutation_equivariance():
    m = build_model(MINI)
    rng = rngmod.stream(95, "perm")
    b = 3
    groups = [rng.standard_normal((b, 1, 32, 32)) for _ in range(3)]
    x = Tensor(np.concatenate(groups, axis=0))
    out = forward(m, x, "eval").data

    perm = [2, 0, 1]
    xp = Tensor(np.concatenate([g[perm] for g in groups], axis=0))
    out_p = forward(m, xp, "eval").data
    np.testing.assert_array_equal(out_p, out[perm])


def test_without_clstm_output_depends_only_on_center_slice():
    cfg = dataclasses.replace(MINI, use_clstm=False)
    m = build_model(cfg)
    rng = rngmod.stream(96, "center")
    center = rng.standard_normal((1, 1, 32, 32))
    a = Tensor(np.concatenate([rng.standard_normal((1, 1, 32, 32)), center,
                               rng.standard_normal((1, 1, 32, 32))]))
    b = Tensor(np.concatenate([rng.standard_normal((1, 1, 32, 32)), center,
                               rng.standard_normal((1, 1, 32, 32))]))
    np.testing.assert_array_equal(forward(m, a, "eval").data, forward(m, b, "eval").data)


def test_eval_forward_deterministic():
    m = build_model(MINI)
    rng = rngmod.stream(97, "det")
    x = triplet(rng, 1, 32, 32)
    np.testing.assert_array_equal(forward(m, x, "eval").data, forward(m, x, "eval").data)


def test_eval_forward_frees_encoder_features_after_their_last_reader(monkeypatch):
    # Weakrefs to arrays that must be dead when the next block runs: each
    # encoder scale's dense-block output once the skip concat has copied it,
    # its attention output once transition_down has read it, and, at decode
    # entry, encode's full-batch skips and bottleneck output.
    real = {name: getattr(model, name)
            for name in ("encode", "decode", "dense_block", "sa_block", "transition_down")}
    spent, readers, encoding, attention = [], [], [], []

    def reader(name):
        live = [what for what, ref in spent if ref() is not None]
        assert not live, f"{name} runs while {live} are alive"
        readers.append(name)

    def spend(what, t):
        spent.append((what, weakref.ref(t.data)))

    def encode(*args, **kwargs):
        encoding.append(True)
        skips, db = real["encode"](*args, **kwargs)
        encoding.clear()
        for i, sk in enumerate(skips):
            spend(f"full-batch skip {i}", sk)
        spend("full-batch bottleneck output", db)
        return skips, db

    def decode(*args, **kwargs):
        reader("decode")
        return real["decode"](*args, **kwargs)

    def dense_block(*args, **kwargs):
        reader("dense_block")
        out = real["dense_block"](*args, **kwargs)
        if encoding:
            spend(f"encoder dense block {readers.count('dense_block') - 1} output", out)
        return out

    def sa_block(*args, **kwargs):
        reader("sa_block")
        out = real["sa_block"](*args, **kwargs)
        if encoding:
            attention.append(out)
        return out

    def transition_down(*args, **kwargs):
        reader("transition_down")
        out = real["transition_down"](*args, **kwargs)
        spend(f"encoder attention {readers.count('transition_down') - 1} output", attention.pop())
        return out

    for name, fn in (("encode", encode), ("decode", decode), ("dense_block", dense_block),
                     ("sa_block", sa_block), ("transition_down", transition_down)):
        monkeypatch.setattr(model, name, fn)
    assert MINI.use_sa and MINI.use_clstm and MINI.num_scales == 2
    forward(build_model(MINI), triplet(rngmod.stream(98, "liveness"), 2, 16, 16), "eval")
    # 3 encoder dense blocks, 2 attention outputs, 2 skips, the bottleneck
    assert len(spent) == 8
    assert readers == ["dense_block", "sa_block", "transition_down"] * 2 + [
        "dense_block", "decode"] + ["dense_block", "sa_block"] * 2


# ---------------------------------------------------------------------------
# parameter accounting


def test_param_count_miniature_hand_arithmetic():
    # spelled out per position for the 2-scale miniature
    stem = 8 * 1 * 9 + 8
    dense_s0 = (2 * 8 + 4 * 8 * 9 + 4) + (2 * 12 + 4 * 12 * 9 + 4)
    sa_16 = 2 * ((16 * 16 * 9 + 16) + 2 * 16 + (16 * 16 * 9 + 16) + 2 * 16)
    td_16 = 2 * 16 + (16 * 16 + 16)
    dense_s1 = (2 * 16 + 4 * 16 * 9 + 4) + (2 * 20 + 4 * 20 * 9 + 4)
    sa_24 = 2 * ((24 * 24 * 9 + 24) + 2 * 24 + (24 * 24 * 9 + 24) + 2 * 24)
    td_24 = 2 * 24 + (24 * 24 + 24)
    down = stem + dense_s0 + sa_16 + td_16 + dense_s1 + sa_24 + td_24

    dense_bott = (2 * 24 + 4 * 24 * 9 + 4) + (2 * 28 + 4 * 28 * 9 + 4)
    lstm = 4 * (6 * (8 + 6) * 9 + 6)
    bott = dense_bott + lstm

    tu_6 = 6 * 6 * 9
    dense_u0 = (2 * 30 + 4 * 30 * 9 + 4) + (2 * 34 + 4 * 34 * 9 + 4)
    sa_8 = 2 * ((8 * 8 * 9 + 8) + 2 * 8 + (8 * 8 * 9 + 8) + 2 * 8)
    tu_8 = 8 * 8 * 9
    dense_u1 = (2 * 24 + 4 * 24 * 9 + 4) + (2 * 28 + 4 * 28 * 9 + 4)
    head = 2 * 8 * 1 + 2
    up = tu_6 + dense_u0 + sa_8 + tu_8 + dense_u1 + sa_8 + head

    got = count_params(MINI)
    assert got["downsampling"] == down
    assert got["bottleneck"] == bott
    assert got["upsampling"] == up
    assert got["total"] == down + bott + up
    assert param_count(build_model(MINI)) == got["total"]


@pytest.mark.parametrize("use_sa,use_clstm", [(False, False), (False, True), (True, False), (True, True)])
def test_count_routes_agree_across_flags(use_sa, use_clstm):
    cfg = ModelConfig(
        num_scales=2, layers_per_dense_block=3, growth_rate=3,
        first_conv_filters=5, convlstm_hidden=7, use_sa=use_sa, use_clstm=use_clstm,
    )
    assert param_count(build_model(cfg)) == count_params(cfg)["total"]


def test_calibrated_full_config_count():
    got = count_params(ModelConfig())
    assert got["total"] == 13_242_779
    assert abs(got["total"] - 13_242_782) / 13_242_782 < 0.02


# ---------------------------------------------------------------------------
# hand-wired plain FC-DenseNet oracle


def test_plain_variant_matches_hand_wired_network():
    cfg = ModelConfig(
        num_scales=2, layers_per_dense_block=2, growth_rate=4,
        first_conv_filters=8, convlstm_hidden=6, dropout_p=0.0,
        use_sa=False, use_clstm=False, seed=5,
    )
    m = build_model(cfg)
    rng = rngmod.stream(99, "handwire")
    x = Tensor(rng.standard_normal((3, 1, 16, 16)))

    got = forward(m, x, "eval").data

    def bn(tin, bnp):
        return batchnorm2d(tin, bnp.gamma, bnp.beta, bnp.running_mean, bnp.running_var, "eval")

    def dense2(tin, blk):
        # two layers unrolled by hand
        l0, l1 = blk
        y0 = conv2d(relu(bn(tin, l0.bn)), l0.conv.w, l0.conv.b)
        f1 = concat_channels([tin, y0])
        y1 = conv2d(relu(bn(f1, l1.bn)), l1.conv.w, l1.conv.b)
        return concat_channels([y0, y1])

    def tdown(tin, td):
        h = conv2d(relu(bn(tin, td.bn)), td.conv.w, td.conv.b)
        return maxpool2d(h)

    def tup(tin, tu):
        out = conv_transpose2d(tin, tu.w)
        return crop_spatial(out, 2 * tin.data.shape[2], 2 * tin.data.shape[3])

    s = conv2d(x, m.stem.w, m.stem.b)
    sk0 = concat_channels([s, dense2(s, m.downsampling[0].dense)])
    s1 = tdown(sk0, m.downsampling[0].down)
    sk1 = concat_channels([s1, dense2(s1, m.downsampling[1].dense)])
    s2 = tdown(sk1, m.downsampling[1].down)

    db = dense2(s2, m.bottleneck.dense)
    u = slice_batch(db, 1, 2)

    u = tup(u, m.upsampling[0].up)
    u = concat_channels([u, slice_batch(sk1, 1, 2)])
    u = dense2(u, m.upsampling[0].dense)

    u = tup(u, m.upsampling[1].up)
    u = concat_channels([u, slice_batch(sk0, 1, 2)])
    u = dense2(u, m.upsampling[1].dense)

    logits = conv2d(u, m.head.w, m.head.b)
    want = softmax_channels(logits).data

    assert oracles.rel_err(got, want) < 1e-12


# ---------------------------------------------------------------------------
# gradients through the whole stack


def test_full_model_gradient_spot_check():
    m = build_model(MINI)
    rng = rngmod.stream(100, "full-fd")
    x = Tensor(rng.standard_normal((3, 1, 16, 16)))
    leaves = [t for _, t in named_tensors(m)]
    err = oracles.gradient_error(lambda: forward(m, x, "train"), leaves, 100, samples=8)
    assert err < 1e-3


def _full_structure_train_forward():
    """A width-1 model with the full config's structure, and the graph,
    output and loss of one taped train forward on a batch of 2."""
    m = build_model(ModelConfig(growth_rate=1, first_conv_filters=1, convlstm_hidden=1))
    rng = rngmod.stream(101, "op-graph")
    x = Tensor(rng.standard_normal((6, 1, 32, 32)))
    gt = (rng.random((2, 32, 32)) < 0.1).astype(np.float64)
    with Graph() as g:
        prob = forward(m, x, "train", rngmod.stream(101, "op-graph-drop"))
        loss = soft_dice_loss(prob, gt)
    return m, g, prob, loss


def test_full_structure_train_step_op_graph(monkeypatch):
    # the full config's structure at width 1 records the op graph a
    # full-config train step does: 114 conv2d calls per forward and 554 tape
    # nodes from the input to the loss
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return conv2d(*args, **kwargs)

    monkeypatch.setattr(blocks, "conv2d", counted)
    monkeypatch.setattr(model, "conv2d", counted)
    _, g, _, loss = _full_structure_train_forward()
    assert len(calls) == 114
    assert len(g) == 554
    backward(loss)


def test_full_structure_tape_holds_no_op_outputs():
    # a tape node is (output slot, input slots, vjp): no op output Tensor is
    # on it, and after backward only the leaves have gradients
    m, g, prob, loss = _full_structure_train_forward()
    for out, inputs, _ in g._nodes:
        for s in (out, *inputs):
            assert s is None or isinstance(s, _Slot) or (isinstance(s, Tensor) and s.graph is None)
    backward(loss)
    assert prob.grad is None and loss.grad is None
    assert all(t.grad is not None for _, t in named_tensors(m))


# ---------------------------------------------------------------------------
# snapshots and ablation variants


def test_snapshot_restore_round_trip():
    m = build_model(MINI)
    snap = snapshot_arrays(m)
    rng = rngmod.stream(101, "snap")
    x = triplet(rng, 1, 32, 32)
    before = forward(m, x, "eval").data
    # perturb everything, then restore
    for _, t in named_tensors(m):
        t.data += 0.25
    for _, b in named_buffers(m):
        b.data += 0.5
    assert not np.array_equal(forward(m, x, "eval").data, before)
    restore_arrays(m, snap)
    np.testing.assert_array_equal(forward(m, x, "eval").data, before)


def test_ablation_variants_order_and_flags():
    base = ModelConfig()
    variants = ablation_variants(base)
    assert len(variants) == 4
    assert (variants[0].use_sa, variants[0].use_clstm) == (False, False)
    assert (variants[1].use_sa, variants[1].use_clstm) == (False, True)
    assert (variants[2].use_sa, variants[2].use_clstm) == (True, False)
    assert (variants[3].use_sa, variants[3].use_clstm) == (True, True)
    assert len(ABLATION_LABELS) == 4
    for v in variants:
        assert v.growth_rate == base.growth_rate
