"""Desk-scale acceptance gate.

Eight criteria, one pass/fail line each on the terminal summary (conftest
prints the scoreboard once capture is released). Criteria 1 and 2 are
tables with one test per op or block row. They exercise gradient
correctness, oracle equivalence, metric algebra, the calibrated parameter
count, overfit capacity of the miniature model, the ablation grid, bit-exact
determinism, and the preprocessing/fold pipeline end to end. Everything is
seeded; a green run is reproducible bit for bit.
"""

import dataclasses
import inspect
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from msseg import blocks, tensor
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


MINI = dataclasses.replace(oracles.MINI, seed=7)


# criterion number -> (label, failed checks by row name, None for a whole
# test, and the passing checks' details)
RESULTS: dict[int, tuple[str, list, list[str]]] = {}


@contextmanager
def criterion(n, label, check=None):
    """Scores one check of criterion ``n``; a row test is one check."""
    _, failed, details = RESULTS.setdefault(n, (label, [], []))
    note = {}
    try:
        yield note
    except BaseException:
        failed.append(check)
        raise
    details.append(note.get("detail", ""))


def scoreboard():
    """One pass/fail line per criterion that ran."""
    for n, (label, failed, details) in sorted(RESULTS.items()):
        if failed:
            rows = ", ".join(check for check in failed if check)
            yield f"[FAIL] criterion {n}: {label}" + (f" (failed: {rows})" if rows else "")
        else:
            yield f"[PASS] criterion {n}: {label}{''.join(details)}"


# ---------------------------------------------------------------------------
# criterion 1: gradients
#
# One row per public op of msseg.tensor and per apply function of
# msseg.blocks. A row's build(rng, i) draws instance i and returns the call
# to check and its leaves; oracles.gradient_error checks the call on every
# entry of every leaf, ROUNDS instances per row.

GRADIENT = "finite-difference gradient suite"
ROUNDS = 20
# not differentiable functions of tensors: the sweep, the update and initializers
NO_GRADIENT_ROW = {"backward", "sgd_step", "he_uniform", "dense_block_params"}


def _leaves(rng, *shapes):
    return [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]


def _nchw(rng, n_min=1, c_min=1):
    n, c = int(rng.integers(n_min, n_min + 2)), int(rng.integers(c_min, 4))
    return n, c, int(rng.integers(3, 6)), int(rng.integers(3, 6))


def _unary(call, n_min=1, c_min=1):
    def build(rng, i):
        (x,) = _leaves(rng, _nchw(rng, n_min, c_min))
        return lambda: call(x), [x]

    return build


def _binary(call):
    def build(rng, i):
        s = _nchw(rng)
        x, y = _leaves(rng, s, s)
        return lambda: call(x, y), [x, y]

    return build


def _div(rng, i):
    s = _nchw(rng)
    x, y = _leaves(rng, s, s)
    y.data[np.abs(y.data) < 0.3] = 0.7  # keep divisors away from zero
    return lambda: div(x, y), [x, y]


def _relu(rng, i):
    (x,) = _leaves(rng, _nchw(rng))
    x.data[np.abs(x.data) < 0.2] = 0.5  # keep clear of the kink
    return lambda: relu(x), [x]


def _concat(rng, i):
    n, c, h, w = _nchw(rng)
    x, z = _leaves(rng, (n, c, h, w), (n, 2, h, w))
    return lambda: concat_channels([x, z]), [x, z]


def _conv2d(rng, i):
    n, c, h, w = _nchw(rng)
    f, k = int(rng.integers(1, 4)), (1, 3, 5)[i % 3]
    if i % 4 == 0:  # weight-bound: fewer pixels than filters
        h, w, f = 1, 2, 3
    x, cw, cb = _leaves(rng, (n, c, h, w), (f, c, k, k), (f,))
    return lambda: conv2d(x, cw, cb), [x, cw, cb]


def _conv_transpose2d(rng, i):
    n, c, h, w = _nchw(rng)
    f, k = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    x, tw = _leaves(rng, (n, c, h, w), (c, f, k, k))
    return lambda: conv_transpose2d(x, tw), [x, tw]


def _batchnorm2d(mode):
    def build(rng, i):
        n, c, h, w = _nchw(rng)
        x, gamma, beta = _leaves(rng, (n, c, h, w), (c,), (c,))
        if mode == "train":
            stats = Tensor(np.zeros(c)), Tensor(np.ones(c))
        else:
            stats = Tensor(rng.standard_normal(c)), Tensor(0.5 + rng.random(c))
        return lambda: batchnorm2d(x, gamma, beta, *stats, mode), [x, gamma, beta]

    return build


def _dropout2d(rng, i):
    (x,) = _leaves(rng, _nchw(rng))
    # a fresh generator per call draws the same mask every time
    return lambda: dropout2d(x, 0.4, "train", rngmod.stream(i, "acc-drop")), [x]


def _pool(call):
    def build(rng, i):
        n, c, _, _ = _nchw(rng)
        (x,) = _leaves(rng, (n, c, 6, 6))
        # distinct entries give every window a unique max
        x.data[:] = np.argsort(rng.permutation(x.data.size)).reshape(x.data.shape) * 0.37
        return lambda: call(x), [x]

    return build


def _block(make_params, call):
    """A block on a (2, 2, 4, 4) input; its leaves are the input and every
    trainable tensor of its parameters. call(x, p, i) runs the block."""
    def build(rng, i):
        p = make_params(rng)
        (x,) = _leaves(rng, (2, 2, 4, 4))
        return lambda: call(x, p, i), [x] + [t for _, t in named_tensors(p)]

    return build


def _convlstm(call):
    def build(rng, i):
        p = ConvLSTMParams.create(rng, 2, 2)
        xs = _leaves(rng, *[(2, 2, 4, 4)] * 3)
        return lambda: call(xs, p), xs + [t for _, t in named_tensors(p)]

    return build


# row name -> (the function it checks, build)
GRADIENT_ROWS = {
    "add": (add, _binary(add)),
    "mul": (mul, _binary(mul)),
    "div": (div, _div),
    "add_scalar": (add_scalar, _unary(lambda x: add_scalar(x, 1.7))),
    "mul_scalar": (mul_scalar, _unary(lambda x: mul_scalar(x, -0.6))),
    "sum_all": (sum_all, _unary(sum_all)),
    "relu": (relu, _relu),
    "sigmoid": (sigmoid, _unary(sigmoid)),
    "tanh": (tanh, _unary(tanh)),
    "softmax_channels": (softmax_channels, _unary(softmax_channels, c_min=2)),
    "slice_batch": (slice_batch, _unary(lambda x: slice_batch(x, 1, x.shape[0]), n_min=2)),
    "slice_channels": (
        slice_channels, _unary(lambda x: slice_channels(x, 1, x.shape[1]), c_min=2)
    ),
    "crop_spatial": (crop_spatial, _unary(lambda x: crop_spatial(x, 2, 2))),
    "concat_channels": (concat_channels, _concat),
    "upsample_nearest": (upsample_nearest, _unary(upsample_nearest)),
    "conv2d": (conv2d, _conv2d),
    "conv_transpose2d": (conv_transpose2d, _conv_transpose2d),
    "batchnorm2d_train": (batchnorm2d, _batchnorm2d("train")),
    "batchnorm2d_eval": (batchnorm2d, _batchnorm2d("eval")),
    "dropout2d": (dropout2d, _dropout2d),
    "maxpool2d": (maxpool2d, _pool(maxpool2d)),
    "avgpool2d": (avgpool2d, _pool(avgpool2d)),
    "dense_layer": (dense_layer, _block(
        lambda rng: DenseLayerParams.create(rng, 2, 2, 0.3),
        lambda x, p, i: dense_layer(x, p, "train", rngmod.stream(i, "acc-dl")),
    )),
    "dense_block": (dense_block, _block(
        lambda rng: dense_block_params(rng, 2, 2, 2, 0.0),
        lambda x, p, i: dense_block(x, p, "train"),
    )),
    "transition_down": (transition_down, _block(
        lambda rng: DenseLayerParams(
            BatchNormParams.create(2), ConvParams.create(rng, 2, 2, 1), 0.0
        ),
        lambda x, p, i: transition_down(x, p, "train"),
    )),
    "transition_up": (transition_up, _block(
        lambda rng: TransitionUpParams.create(rng, 2), lambda x, p, i: transition_up(x, p)
    )),
    "conv_block": (conv_block, _block(
        lambda rng: ConvBlockParams.create(rng, 2, 2), lambda x, p, i: conv_block(x, p, "train")
    )),
    "sa_block": (sa_block, _block(
        lambda rng: SABlockParams.create(rng, 2), lambda x, p, i: sa_block(x, p, "train")
    )),
    # x, h and c; both outputs are checked
    "convlstm_step": (convlstm_step, _convlstm(lambda xs, p: convlstm_step(*xs, p))),
    "convlstm_forward": (convlstm_forward, _convlstm(convlstm_forward)),
}


@pytest.mark.parametrize("row", GRADIENT_ROWS)
def test_gradient_row(row):
    with criterion(1, GRADIENT, row):
        _, build = GRADIENT_ROWS[row]
        for i in range(ROUNDS):
            make, leaves = build(rngmod.stream(4000 + i, "acceptance-grad", row), i)
            err = oracles.gradient_error(make, leaves, seed=i)
            assert err < 1e-4, f"instance {i}: worst relative error {err}"


def test_gradient_suite():
    """Every public op and block has a gradient row, and the assembled
    miniature model's gradient holds at sampled parameter entries."""
    with criterion(1, GRADIENT) as note:
        public = {
            name
            for module in (tensor, blocks)
            for name, fn in inspect.getmembers(module, inspect.isfunction)
            if fn.__module__ == module.__name__ and not name.startswith("_")
        }
        covered = {fn.__name__ for fn, _ in GRADIENT_ROWS.values()}
        assert covered == public - NO_GRADIENT_ROW, (
            f"without a gradient row: {sorted(public - NO_GRADIENT_ROW - covered)}; "
            f"rows of no public function: {sorted(covered - public)}"
        )

        params = build_model(MINI)
        x = Tensor(rngmod.stream(6000, "acceptance-grad-model").standard_normal((6, 1, 16, 16)))
        leaves = [t for _, t in named_tensors(params)]
        worst = oracles.gradient_error(lambda: forward(params, x, "train"), leaves, 60, samples=30)
        assert worst < 1e-3, f"model worst relative error {worst}"
        note["detail"] = (
            f" ({len(GRADIENT_ROWS)} rows x {ROUNDS} instances, model worst rel err {worst:.2e})"
        )


# ---------------------------------------------------------------------------
# criterion 2: oracle equivalence
#
# One row per op with a loop oracle: case(rng) draws one instance and returns
# the op's output array and the oracle's. The shapes must agree, and the
# values to a relative 1e-12, or bit for bit where the oracle does the op's
# arithmetic in the op's order.

ORACLE = "brute-force oracle equivalence"
CASES = 1000


def _conv2d_case(rng):
    n, c, f = (int(v) for v in rng.integers(1, [3, 4, 4]))
    k = 2 * int(rng.integers(0, 3)) + 1
    h, w = (int(v) for v in rng.integers(1, 7, 2))
    x, wt, b = (rng.standard_normal(s) for s in ((n, c, h, w), (f, c, k, k), (f,)))
    got = conv2d(Tensor(x), Tensor(wt), Tensor(b)).data
    return got, oracles.conv2d_loops(x, wt, b, pad=k // 2)


def _conv_transpose2d_case(rng):
    n, c, f, k = (int(v) for v in rng.integers(1, [3, 4, 4, 4]))
    h, w = (int(v) for v in rng.integers(1, 6, 2))
    x, wt = rng.standard_normal((n, c, h, w)), rng.standard_normal((c, f, k, k))
    return conv_transpose2d(Tensor(x), Tensor(wt)).data, oracles.conv_transpose2d_loops(x, wt, 2)


def _pool_case(op, oracle):
    def case(rng):
        n, c = (int(v) for v in rng.integers(1, [3, 4]))
        h, w = (2 * int(v) for v in rng.integers(1, 5, 2))
        x = rng.standard_normal((n, c, h, w))
        return op(Tensor(x)).data, oracle(x, 2, 2)

    return case


def _batchnorm2d_case(mode):
    def case(rng):
        n, c, h, w = (int(v) for v in rng.integers([2, 1, 2, 2], [4, 4, 6, 6]))
        x, gamma, beta = (rng.standard_normal(s) for s in ((n, c, h, w), c, c))
        if mode == "train":
            stats = np.zeros(c), np.ones(c)
            want = oracles.batchnorm_train_twopass(x, gamma, beta)
        else:
            stats = rng.standard_normal(c), 0.5 + rng.random(c)
            want = oracles.batchnorm_eval_direct(x, gamma, beta, *stats)
        args = (Tensor(a) for a in (x, gamma, beta, *stats))
        return batchnorm2d(*args, mode).data, want

    return case


# row name -> (case, compare bytes); the pooling oracles scan each window in
# row-major order from 0.0, as the ops do
ORACLE_ROWS = {
    "conv2d": (_conv2d_case, False),
    "conv_transpose2d": (_conv_transpose2d_case, False),
    "maxpool2d": (_pool_case(maxpool2d, oracles.maxpool2d_loops), True),
    "avgpool2d": (_pool_case(avgpool2d, oracles.avgpool2d_loops), True),
    "batchnorm2d_train": (_batchnorm2d_case("train"), False),
    "batchnorm2d_eval": (_batchnorm2d_case("eval"), False),
}


@pytest.mark.parametrize("row", ORACLE_ROWS)
def test_oracle_row(row):
    with criterion(2, ORACLE, row):
        case, exact = ORACLE_ROWS[row]
        rng = rngmod.stream(41, "acceptance-oracle", row)
        for j in range(CASES):
            got, want = case(rng)
            assert got.shape == want.shape, f"case {j}: shape {got.shape}, oracle {want.shape}"
            if exact:
                assert got.tobytes() == want.tobytes(), f"case {j}"
            else:
                err = oracles.rel_err(got, want)
                assert err <= 1e-12, f"case {j}: relative error {err}"


def test_oracle_equivalence():
    """The confusion counts against a scan of every voxel."""
    with criterion(2, ORACLE) as note:
        rng = rngmod.stream(41, "acceptance-oracle")
        for _ in range(CASES):
            dims = tuple(int(rng.integers(1, 5)) for _ in range(3))
            a = (rng.random(dims) < 0.4).astype(np.uint8)
            b = (rng.random(dims) < 0.4).astype(np.uint8)
            got = confusion(MaskVolume(a), MaskVolume(b))
            assert (got.tp, got.fp, got.fn, got.tn) == oracles.confusion_loops(a, b)
        note["detail"] = f" ({len(ORACLE_ROWS)} op rows and confusion, {CASES} cases each)"


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

        params = build_model(dataclasses.replace(MINI, seed=0))
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
        pparams = build_model(dataclasses.replace(MINI, use_sa=False, use_clstm=False, seed=0))
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
        cfg = dataclasses.replace(MINI, seed=9)

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
