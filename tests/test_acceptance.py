"""Desk-scale acceptance gate.

Eight checks, one pass/fail line each on the terminal summary (conftest
prints the scoreboard once capture is released). They exercise gradient
correctness, oracle equivalence, metric algebra, the calibrated parameter
count, overfit capacity of the miniature model, the ablation grid, bit-exact
determinism, and the preprocessing/fold pipeline end to end. Everything is
seeded; a green run is reproducible bit for bit.
"""

import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

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
from msseg.checkpoint import (
    checkpoint_from_model,
    load_checkpoint,
    restore_into_model,
    save_checkpoint,
)
from msseg.cli import main as cli_main
from msseg.config import TrainConfig
from msseg.data import (
    ManifestEntry,
    MaskVolume,
    PhantomSpec,
    generate_phantom,
    load_mask,
    load_volume,
    make_folds,
    parse_manifest,
    preprocess_pair,
    save_mask,
    save_volume,
)
from msseg.metrics import (
    ConfusionCounts,
    accuracy,
    compute_all,
    confusion,
    dice,
    extra_fraction,
    iou,
    npv,
    ppv,
    sensitivity,
    specificity,
)
from msseg.model import (
    ModelConfig,
    build_model,
    count_params,
    forward,
    named_tensors,
)
from msseg.tensor import (
    Graph,
    Tensor,
    add,
    add_scalar,
    avgpool2d,
    backward,
    batchnorm2d,
    concat_channels,
    conv2d,
    conv_transpose2d,
    crop_spatial,
    div,
    dropout2d,
    maxpool2d,
    mul,
    mul_scalar,
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
from msseg.train import (
    _slice_samples,
    _training_batch,
    predict_with_params,
    soft_dice_loss,
)

import oracles


MINI = ModelConfig(
    num_scales=2,
    layers_per_dense_block=2,
    growth_rate=4,
    first_conv_filters=8,
    convlstm_hidden=6,
    dropout_p=0.0,
    seed=7,
)


RESULTS: list[str] = []


@contextmanager
def criterion(n, label):
    note = {}
    try:
        yield note
    except BaseException:
        RESULTS.append(f"[FAIL] criterion {n}: {label}")
        raise
    RESULTS.append(f"[PASS] criterion {n}: {label}{note.get('detail', '')}")


# ---------------------------------------------------------------------------
# shared in-place finite-difference machinery


def check_gradients(make_scalar, tensors, h=1e-5, tol=1e-4):
    """Tape gradients vs central differences, perturbing tensors in place.

    ``make_scalar`` must be a pure function of the current tensor contents
    (any randomness re-derived inside). Tensors must require grad.
    """
    with Graph():
        loss = make_scalar()
    backward(loss)
    grads = []
    for t in tensors:
        assert t.grad is not None, "missing gradient"
        grads.append(t.grad.copy())
        t.grad = None
    for t, g in zip(tensors, grads):
        fd = np.zeros_like(t.data)
        it = np.nditer(t.data, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            keep = t.data[ix]
            t.data[ix] = keep + h
            fp = float(make_scalar().data)
            t.data[ix] = keep - h
            fm = float(make_scalar().data)
            t.data[ix] = keep
            fd[ix] = (fp - fm) / (2.0 * h)
            it.iternext()
        err = oracles.rel_err(g, fd)
        assert err < tol, f"worst relative error {err}"


def projected(out, seed):
    r = rngmod.stream(seed, "acceptance-projection").standard_normal(out.data.shape)
    return sum_all(mul(out, Tensor(r)))


def leaf(rng, shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


# ---------------------------------------------------------------------------
# criterion 1: gradients


def _op_instances(rng, i):
    """One randomized gradcheck instance per call for every tensor op."""
    n = int(rng.integers(1, 3))
    c = int(rng.integers(1, 4))
    h = int(rng.integers(3, 6))
    w = int(rng.integers(3, 6))
    x = leaf(rng, (n, c, h, w))
    y = leaf(rng, (n, c, h, w))
    cases = []

    cases.append(("add", lambda: projected(add(x, y), i), [x, y]))
    cases.append(("add_scalar", lambda: projected(add_scalar(x, 1.7), i), [x]))
    cases.append(("mul", lambda: projected(mul(x, y), i), [x, y]))
    cases.append(("mul_scalar", lambda: projected(mul_scalar(x, -0.6), i), [x]))
    yd = leaf(rng, (n, c, h, w))
    yd.data[np.abs(yd.data) < 0.3] = 0.7
    cases.append(("div", lambda: projected(div(x, yd), i), [x, yd]))
    cases.append(("sum_all", lambda: mul_scalar(sum_all(x), 0.5), [x]))
    xs = leaf(rng, (n, c, h, w))
    xs.data[np.abs(xs.data) < 0.2] = 0.5  # keep clear of the relu kink
    cases.append(("relu", lambda: projected(relu(xs), i), [xs]))
    cases.append(("sigmoid", lambda: projected(sigmoid(x), i), [x]))
    cases.append(("tanh", lambda: projected(tanh(x), i), [x]))
    xb = leaf(rng, (2, c, h, w))
    cases.append(("slice_batch", lambda: projected(slice_batch(xb, 1, 2), i), [xb]))
    cases.append(("slice_channels", lambda: projected(slice_channels(x, 0, c), i), [x]))
    cases.append(
        ("crop_spatial", lambda: projected(crop_spatial(x, h - 1, w - 1), i), [x])
    )
    z = leaf(rng, (n, 2, h, w))
    cases.append(("concat_channels", lambda: projected(concat_channels([x, z]), i), [x, z]))
    cases.append(("upsample_nearest", lambda: projected(upsample_nearest(x), i), [x]))
    xm = leaf(rng, (n, c + 1, h, w))
    cases.append(("softmax_channels", lambda: projected(softmax_channels(xm), i), [xm]))

    f = int(rng.integers(1, 4))
    k = 2 * int(rng.integers(0, 2)) + 1
    cw = leaf(rng, (f, c, k, k))
    cb = leaf(rng, (f,))
    cases.append(("conv2d", lambda: projected(conv2d(x, cw, cb), i), [x, cw, cb]))
    kt = int(rng.integers(1, 4))
    tw = leaf(rng, (c, f, kt, kt))
    cases.append(
        ("conv_transpose2d", lambda: projected(conv_transpose2d(x, tw), i), [x, tw])
    )

    gamma = leaf(rng, (c,))
    beta = leaf(rng, (c,))
    rmean, rvar = Tensor(np.zeros(c)), Tensor(np.ones(c))
    cases.append(
        (
            "batchnorm2d_train",
            lambda: projected(batchnorm2d(x, gamma, beta, rmean, rvar, "train"), i),
            [x, gamma, beta],
        )
    )
    emean = Tensor(rng.standard_normal(c))
    evar = Tensor(0.5 + rng.random(c))
    cases.append(
        (
            "batchnorm2d_eval",
            lambda: projected(batchnorm2d(x, gamma, beta, emean, evar, "eval"), i),
            [x, gamma, beta],
        )
    )
    cases.append(
        (
            "dropout2d",
            lambda: projected(
                dropout2d(x, 0.4, "train", rngmod.stream(i, "acc-drop")), i
            ),
            [x],
        )
    )
    xp = leaf(rng, (n, c, 6, 6))
    xp.data[:] = np.argsort(
        rng.permutation(xp.data.size)
    ).reshape(xp.data.shape) * 0.37  # distinct values keep the max unique
    cases.append(("maxpool2d", lambda: projected(maxpool2d(xp), i), [xp]))
    cases.append(("avgpool2d", lambda: projected(avgpool2d(xp), i), [xp]))
    return cases


def _block_instances(rng, i):
    """One randomized gradcheck instance per call for every composite block."""
    cases = []
    x = leaf(rng, (2, 2, 4, 4))

    dl = DenseLayerParams.create(rng, 2, 2, 0.3)
    dl_t = [dl.bn.gamma, dl.bn.beta, dl.conv.w, dl.conv.b]
    cases.append(
        (
            "dense_layer",
            lambda: projected(dense_layer(x, dl, "train", rngmod.stream(i, "acc-dl")), i),
            [x] + dl_t,
        )
    )

    db = dense_block_params(rng, 2, 2, 2, 0.0)
    db_t = [t for lay in db for t in (lay.bn.gamma, lay.bn.beta, lay.conv.w, lay.conv.b)]
    cases.append(("dense_block", lambda: projected(dense_block(x, db, "train"), i), [x] + db_t))

    td = DenseLayerParams(BatchNormParams.create(2), ConvParams.create(rng, 2, 2, 1), 0.0)
    td_t = [td.bn.gamma, td.bn.beta, td.conv.w, td.conv.b]
    cases.append(
        ("transition_down", lambda: projected(transition_down(x, td, "train"), i), [x] + td_t)
    )

    tu = TransitionUpParams.create(rng, 2)
    cases.append(("transition_up", lambda: projected(transition_up(x, tu), i), [x, tu.w]))

    cb = ConvBlockParams.create(rng, 2, 2)
    cb_t = [
        cb.conv1.w, cb.conv1.b, cb.bn1.gamma, cb.bn1.beta,
        cb.conv2.w, cb.conv2.b, cb.bn2.gamma, cb.bn2.beta,
    ]
    cases.append(("conv_block", lambda: projected(conv_block(x, cb, "train"), i), [x] + cb_t))

    sa = SABlockParams.create(rng, 2)
    sa_t = []
    for blk in (sa.attn1, sa.attn2):
        sa_t.extend(
            [
                blk.conv1.w, blk.conv1.b, blk.bn1.gamma, blk.bn1.beta,
                blk.conv2.w, blk.conv2.b, blk.bn2.gamma, blk.bn2.beta,
            ]
        )
    cases.append(("sa_block", lambda: projected(sa_block(x, sa, "train"), i), [x] + sa_t))

    lp = ConvLSTMParams.create(rng, 2, 2)
    lp_t = []
    for gate in (lp.input, lp.forget, lp.cell, lp.output):
        lp_t.extend([gate.w, gate.b])
    h0 = leaf(rng, (2, 2, 4, 4))
    c0 = leaf(rng, (2, 2, 4, 4))

    def step_loss():
        h1, c1 = convlstm_step(x, h0, c0, lp)
        return add(projected(h1, i), projected(c1, i + 1))

    cases.append(("convlstm_step", step_loss, [x, h0, c0] + lp_t))

    seq = [x, leaf(rng, (2, 2, 4, 4)), leaf(rng, (2, 2, 4, 4))]
    cases.append(
        ("convlstm_forward", lambda: projected(convlstm_forward(seq, lp), i), seq + lp_t)
    )
    return cases


def test_gradient_suite():
    with criterion(1, "finite-difference gradient suite") as note:
        t0 = time.time()
        rounds = 20
        seen = set()
        for i in range(rounds):
            rng = rngmod.stream(4000 + i, "acceptance-grad")
            for name, make, tensors in _op_instances(rng, i):
                seen.add(name)
                check_gradients(make, tensors, tol=1e-4)
        for i in range(rounds):
            rng = rngmod.stream(5000 + i, "acceptance-grad-block")
            for name, make, tensors in _block_instances(rng, i):
                seen.add(name)
                check_gradients(make, tensors, tol=1e-4)

        # the assembled miniature model, spot checked on sampled parameters
        params = build_model(MINI)
        prng = rngmod.stream(6000, "acceptance-grad-model")
        x = Tensor(prng.standard_normal((6, 1, 16, 16)))

        def model_loss():
            return projected(forward(params, x, "train"), 60)

        with Graph():
            loss = model_loss()
        backward(loss)
        named = list(named_tensors(params))
        analytic = {name: t.grad.copy() for name, t in named}
        for _, t in named:
            t.grad = None
        worst = 0.0
        for _ in range(30):
            name, t = named[int(prng.integers(len(named)))]
            flat = int(prng.integers(t.data.size))
            ix = np.unravel_index(flat, t.data.shape)
            keep = t.data[ix]
            h = 1e-5
            t.data[ix] = keep + h
            fp = float(model_loss().data)
            t.data[ix] = keep - h
            fm = float(model_loss().data)
            t.data[ix] = keep
            fd = (fp - fm) / (2.0 * h)
            a = analytic[name][ix]
            err = abs(a - fd) / max(1.0, abs(a), abs(fd))
            worst = max(worst, err)
            assert err < 1e-3, f"{name}[{ix}]: analytic {a}, fd {fd}"
        elapsed = time.time() - t0
        assert elapsed < 300.0, f"gradient suite took {elapsed:.0f}s"
        assert len(seen) == 22 + 8
        note["detail"] = (
            f" ({rounds} instances x {len(seen)} ops/blocks, model worst "
            f"rel err {worst:.2e}, {elapsed:.0f}s)"
        )


# ---------------------------------------------------------------------------
# criterion 2: oracle equivalence


def test_oracle_equivalence():
    with criterion(2, "brute-force oracle equivalence") as note:
        t0 = time.time()
        rng = rngmod.stream(41, "acceptance-oracle")
        worst = 0.0

        for _ in range(1000):
            n = int(rng.integers(1, 3))
            c = int(rng.integers(1, 4))
            f = int(rng.integers(1, 4))
            k = 2 * int(rng.integers(0, 3)) + 1
            h = int(rng.integers(1, 7))
            w = int(rng.integers(1, 7))
            x = rng.standard_normal((n, c, h, w))
            wt = rng.standard_normal((f, c, k, k))
            b = rng.standard_normal(f)
            got = conv2d(Tensor(x), Tensor(wt), Tensor(b))
            ref = oracles.conv2d_loops(x, wt, b, stride=1, pad=k // 2)
            worst = max(worst, oracles.rel_err(got.data, ref))

        for j in range(1000):
            n = int(rng.integers(1, 3))
            c = int(rng.integers(1, 4))
            h = 2 * int(rng.integers(1, 4))
            w = 2 * int(rng.integers(1, 4))
            x = rng.standard_normal((n, c, h, w))
            if j % 2:
                got = maxpool2d(Tensor(x))
                ref = oracles.maxpool2d_loops(x, 2, 2)
            else:
                got = avgpool2d(Tensor(x))
                ref = oracles.avgpool2d_loops(x, 2, 2)
            worst = max(worst, oracles.rel_err(got.data, ref))

        for j in range(1000):
            n = int(rng.integers(2, 4))
            c = int(rng.integers(1, 4))
            h = int(rng.integers(2, 6))
            w = int(rng.integers(2, 6))
            x = rng.standard_normal((n, c, h, w))
            gamma = rng.standard_normal(c)
            beta = rng.standard_normal(c)
            if j % 2:
                rmean, rvar = Tensor(np.zeros(c)), Tensor(np.ones(c))
                got = batchnorm2d(Tensor(x), Tensor(gamma), Tensor(beta), rmean, rvar, "train")
                ref = oracles.batchnorm_train_twopass(x, gamma, beta)
            else:
                rm = rng.standard_normal(c)
                rv = 0.5 + rng.random(c)
                rmean, rvar = Tensor(rm), Tensor(rv)
                got = batchnorm2d(Tensor(x), Tensor(gamma), Tensor(beta), rmean, rvar, "eval")
                ref = oracles.batchnorm_eval_direct(x, gamma, beta, rm, rv)
            worst = max(worst, oracles.rel_err(got.data, ref))

        for _ in range(1000):
            dims = tuple(int(rng.integers(1, 5)) for _ in range(3))
            a = (rng.random(dims) < 0.4).astype(np.uint8)
            b = (rng.random(dims) < 0.4).astype(np.uint8)
            got = confusion(MaskVolume(a), MaskVolume(b))
            ref = oracles.confusion_loops(a, b)
            assert (got.tp, got.fp, got.fn, got.tn) == ref

        elapsed = time.time() - t0
        assert worst <= 1e-12, f"worst oracle disagreement {worst}"
        assert elapsed < 120.0, f"oracle suite took {elapsed:.0f}s"
        note["detail"] = f" (4000 cases, worst rel err {worst:.2e}, {elapsed:.0f}s)"


# ---------------------------------------------------------------------------
# criterion 3: metric algebra and the frozen aggregate


def test_metric_identities_and_reported_aggregate():
    with criterion(3, "metric identities on 10,000 count tuples") as note:
        rng = rngmod.stream(42, "acceptance-metrics")
        for _ in range(10_000):
            scale = 10 ** int(rng.integers(0, 7))
            tp, fp, fn, tn = (int(rng.integers(0, scale + 1)) for _ in range(4))
            c = ConfusionCounts(tp, fp, fn, tn)

            d, j = dice(c), iou(c)
            assert abs(d - 2.0 * j / (1.0 + j)) < 1e-12

            if tp > 0:
                p, s = ppv(c), sensitivity(c)
                assert abs(d - 2.0 * p * s / (p + s)) < 1e-12

            k = int(rng.integers(2, 9))
            ck = ConfusionCounts(tp * k, fp * k, fn * k, tn * k)
            for f in (dice, sensitivity, specificity, iou, ppv, npv, accuracy):
                assert abs(f(c) - f(ck)) < 1e-12
            if tn + fn > 0:
                assert abs(extra_fraction(c) - extra_fraction(ck)) < 1e-12
            else:
                with pytest.raises(ValueError):
                    extra_fraction(c)
                with pytest.raises(ValueError):
                    extra_fraction(ck)

            sw = ConfusionCounts(tp, fn, fp, tn)
            assert dice(sw) == pytest.approx(d, abs=1e-12)
            assert iou(sw) == pytest.approx(j, abs=1e-12)
            assert sensitivity(sw) == pytest.approx(ppv(c), abs=1e-12)
            assert specificity(sw) == pytest.approx(npv(c), abs=1e-12)
            assert accuracy(sw) == pytest.approx(accuracy(c), abs=1e-12)
            assert 0.0 <= accuracy(c) <= 1.0

            if tn + fn > 0:
                assert set(compute_all(c)) == {
                    "dice", "sensitivity", "specificity", "iou",
                    "ef", "ppv", "npv", "accuracy",
                }

        column = [0.8448, 0.8900, 0.8855, 0.8101, 0.8190]
        mean = statistics.fmean(column)
        sd = statistics.pstdev(column)
        assert abs(mean - 0.8499) <= 1e-4
        assert abs(sd - 0.0330) <= 1e-4
        note["detail"] = f" (reference Dice column: mean {mean:.4f}, sd {sd:.4f})"


# ---------------------------------------------------------------------------
# criterion 4: parameter-count calibration


def test_parameter_count_calibration():
    with criterion(4, "parameter-count calibration") as note:
        target = 13_242_782
        got = count_params(ModelConfig())
        achieved = got["total"]
        assert abs(achieved - target) / target <= 0.02
        assert achieved == 13_242_779

        mini = count_params(MINI)
        stem = 8 * 1 * 9 + 8
        dense0 = (2 * 8 + 4 * 8 * 9 + 4) + (2 * 12 + 4 * 12 * 9 + 4)
        sa_16 = 2 * ((16 * 16 * 9 + 16) + 2 * 16 + (16 * 16 * 9 + 16) + 2 * 16)
        td_16 = 2 * 16 + (16 * 16 + 16)
        dense1 = (2 * 16 + 4 * 16 * 9 + 4) + (2 * 20 + 4 * 20 * 9 + 4)
        sa_24 = 2 * ((24 * 24 * 9 + 24) + 2 * 24 + (24 * 24 * 9 + 24) + 2 * 24)
        td_24 = 2 * 24 + (24 * 24 + 24)
        down = stem + dense0 + sa_16 + td_16 + dense1 + sa_24 + td_24
        bott_dense = (2 * 24 + 4 * 24 * 9 + 4) + (2 * 28 + 4 * 28 * 9 + 4)
        lstm = 4 * (6 * (8 + 6) * 9 + 6)
        assert mini["downsampling"] == down == 33_608
        assert mini["bottleneck"] == bott_dense + lstm == 5_032
        assert mini["total"] == 48_782
        note["detail"] = f" (full config: {achieved:,} against target {target:,})"


# ---------------------------------------------------------------------------
# criterion 5: overfit capacity


def _overfit_volumes():
    vols = {}
    for i in range(8):
        v, m = generate_phantom(
            PhantomSpec(seed=100 + i, dims=(16, 32, 32), n_lesions=(3, 5),
                        lesion_radius=(2.2, 3.0))
        )
        vols[f"v{i}"] = preprocess_pair(v, m, (32, 32))
    return vols


def test_overfit_capacity():
    with criterion(5, "miniature overfit capacity") as note:
        t0 = time.time()
        vols = _overfit_volumes()
        samples = _slice_samples(sorted(vols), vols)
        n = len(samples)

        cfg = ModelConfig(num_scales=2, layers_per_dense_block=2, growth_rate=4,
                          first_conv_filters=8, convlstm_hidden=6, dropout_p=0.0,
                          seed=0)
        params = build_model(cfg)
        named = list(named_tensors(params))
        shuffle = rngmod.stream(0, "overfit-shuffle")
        order = shuffle.permutation(n)
        pos = 0
        reached = None
        for step in range(1, 201):
            if pos + 8 > n:
                order = shuffle.permutation(n)
                pos = 0
            idx = order[pos:pos + 8]
            pos += 8
            x, gt = _training_batch(samples, idx)
            with Graph():
                prob = forward(params, Tensor(x), "train")
                loss = soft_dice_loss(prob, gt)
            backward(loss)
            assert np.isfinite(float(loss.data))
            sgd_step(named, 0.2)
            if step % 25 == 0:
                scores = [
                    dice(confusion(predict_with_params(params, v), m))
                    for v, m in vols.values()
                ]
                d = float(np.mean(scores))
                if d >= 0.95:
                    reached = (step, d)
                    break
        elapsed = time.time() - t0
        assert reached is not None, "training Dice never reached 0.95 in 200 steps"
        assert elapsed < 600.0, f"overfit run took {elapsed:.0f}s"

        # the plain variant must also learn: loss down after 50 steps
        pcfg = ModelConfig(num_scales=2, layers_per_dense_block=2, growth_rate=4,
                           first_conv_filters=8, convlstm_hidden=6, dropout_p=0.0,
                           use_sa=False, use_clstm=False, seed=0)
        pparams = build_model(pcfg)
        pnamed = list(named_tensors(pparams))
        probe_x, probe_gt = _training_batch(samples, np.arange(8))

        def probe_loss():
            prob = forward(pparams, Tensor(probe_x), "train")
            return float(soft_dice_loss(prob, probe_gt).data)

        first = probe_loss()
        shuffle = rngmod.stream(0, "overfit-shuffle")
        order = shuffle.permutation(n)
        pos = 0
        for _ in range(50):
            if pos + 8 > n:
                order = shuffle.permutation(n)
                pos = 0
            idx = order[pos:pos + 8]
            pos += 8
            x, gt = _training_batch(samples, idx)
            with Graph():
                prob = forward(pparams, Tensor(x), "train")
                loss = soft_dice_loss(prob, gt)
            backward(loss)
            sgd_step(pnamed, 0.2)
        after = probe_loss()
        assert after < first, f"plain variant did not improve: {first} -> {after}"
        note["detail"] = (
            f" (Dice {reached[1]:.4f} at step {reached[0]}, {elapsed:.0f}s; "
            f"plain variant loss {first:.4f} -> {after:.4f})"
        )


# ---------------------------------------------------------------------------
# criteria 6 and 7 share a small processed phantom workspace


@pytest.fixture(scope="module")
def small_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptws")
    raw = root / "raw"
    proc = root / "proc"
    assert cli_main(["phantom", "--seed", "3", "--count", "10",
                     "--dims", "10x16x16", "--out", str(raw)]) == 0
    assert cli_main(["preprocess", "--manifest", str(raw / "manifest.tsv"),
                     "--out", str(proc), "--target", "16"]) == 0
    cfg = root / "mini.cfg"
    cfg.write_text(
        "num_scales = 2\nlayers_per_dense_block = 2\ngrowth_rate = 4\n"
        "first_conv_filters = 8\nconvlstm_hidden = 6\ndropout_p = 0.0\n"
        "seed = 5\nepochs = 1\nlr = 0.001\nbatch_size = 4\n"
    )
    return {"root": root, "proc": proc, "cfg": cfg}


def test_ablation_grid(small_workspace, tmp_path):
    with criterion(6, "ablation grid over phantom folds") as note:
        out = tmp_path / "abl"
        assert cli_main(["ablate", "--manifest", str(small_workspace["proc"] / "manifest.tsv"),
                         "--config", str(small_workspace["cfg"]), "--out", str(out)]) == 0
        lines = (out / "ablation.tsv").read_text().splitlines()
        assert lines[0] == "variant\tfold2\tfold4\tmean"
        assert len(lines) == 5
        labels = [line.split("\t")[0] for line in lines[1:]]
        assert labels == [
            "FC-DenseNet",
            "FC-DenseNet + C-LSTM",
            "FC-DenseNet + SA",
            "FC-DenseNet + SA + C-LSTM",
        ]
        for line in lines[1:]:
            cells = [float(v) for v in line.split("\t")[1:]]
            assert len(cells) == 3
            assert all(np.isfinite(v) for v in cells)
            assert cells[2] == pytest.approx(statistics.fmean(cells[:2]), abs=1e-15)
        note["detail"] = " (4 variants x 2 folds + mean, all finite)"


def test_determinism_and_persistence(small_workspace, tmp_path):
    with criterion(7, "bit-exact determinism and persistence") as note:
        proc = small_workspace["proc"]
        entries = parse_manifest(str(proc / "manifest.tsv"))
        vols = {
            e.id: (load_volume(str(proc / e.image_path)), load_mask(str(proc / e.mask_path)))
            for e in entries[:4]
        }
        samples = _slice_samples(sorted(vols), vols)
        n = len(samples)
        cfg = ModelConfig(num_scales=2, layers_per_dense_block=2, growth_rate=4,
                          first_conv_filters=8, convlstm_hidden=6, dropout_p=0.0, seed=9)

        def ten_losses():
            params = build_model(cfg)
            named = list(named_tensors(params))
            shuffle = rngmod.stream(9, "determinism-shuffle")
            order = shuffle.permutation(n)
            pos = 0
            out = []
            for _ in range(10):
                if pos + 4 > n:
                    order = shuffle.permutation(n)
                    pos = 0
                idx = order[pos:pos + 4]
                pos += 4
                x, gt = _training_batch(samples, idx)
                with Graph():
                    prob = forward(params, Tensor(x), "train")
                    loss = soft_dice_loss(prob, gt)
                backward(loss)
                sgd_step(named, 0.05)
                out.append(float(loss.data))
            return params, out

        params_a, run_a = ten_losses()
        params_b, run_b = ten_losses()
        assert run_a == run_b

        ckpt = checkpoint_from_model(params_a, TrainConfig(), epoch=1, step=10,
                                     rng_state="", best_val_dice=None)
        path = tmp_path / "model.msckpt"
        save_checkpoint(ckpt, str(path))
        vol = next(iter(vols.values()))[0]
        before = predict_with_params(params_a, vol)
        params_c = restore_into_model(load_checkpoint(str(path)))
        after = predict_with_params(params_c, vol)
        assert np.array_equal(before.labels, after.labels)

        vpath = tmp_path / "v.msvol"
        save_volume(vol, str(vpath))
        first_bytes = vpath.read_bytes()
        save_volume(load_volume(str(vpath)), str(vpath))
        assert vpath.read_bytes() == first_bytes
        msk = next(iter(vols.values()))[1]
        mpath = tmp_path / "m.msmsk"
        save_mask(msk, str(mpath))
        mbytes = mpath.read_bytes()
        save_mask(load_mask(str(mpath)), str(mpath))
        assert mpath.read_bytes() == mbytes
        note["detail"] = " (loss sequences, checkpoint, and file round trips all bit-exact)"


# ---------------------------------------------------------------------------
# criterion 8: pipeline audit on a dataset shaped like the clinical one


def test_pipeline_audit():
    with criterion(8, "fold and preprocessing pipeline audit") as note:
        timepoints = {"1": 4, "2": 4, "3": 4, "4": 4, "5": 5}
        entries = []
        volumes = {}
        k = 0
        for patient, count in timepoints.items():
            for t in range(1, count + 1):
                vid = f"p{patient}t{t}"
                v, m = generate_phantom(
                    PhantomSpec(seed=900 + k, dims=(16, 181, 190),
                                n_lesions=(2, 4), lesion_radius=(2.0, 3.0))
                )
                volumes[vid] = (v, m)
                entries.append(ManifestEntry(vid, patient, t, f"{vid}.msvol", f"{vid}.msmsk"))
                k += 1
        assert len(entries) == 21

        folds = make_folds(entries)
        assert len(folds) == 5
        finals = {f"p{p}t{c}" for p, c in timepoints.items()}
        seen_tests = set()
        for fold in folds:
            assert len(fold.test) == 1
            assert fold.test[0] in finals
            seen_tests.add(fold.test[0])
            groups = (set(fold.train), set(fold.val), set(fold.test))
            assert groups[0] | groups[1] | groups[2] == {e.id for e in entries}
            assert not (groups[0] & groups[1])
            assert not (groups[1] & groups[2])
            assert not (groups[0] & groups[2])
        assert seen_tests == finals

        dropped_checks = 0
        for vid, (v, m) in volumes.items():
            nonzero = int(np.count_nonzero(v.voxels.reshape(v.dims[0], -1).any(axis=1)))
            pv, pm = preprocess_pair(v, m, (160, 160))
            assert pv.dims == (nonzero, 160, 160)
            assert pm.dims == pv.dims
            dropped_checks += v.dims[0] - nonzero
        assert dropped_checks > 0
        note["detail"] = (
            f" (5 folds over 21 volumes, {dropped_checks} all-zero slices dropped)"
        )
