"""The full segmentation network.

Assembly has two stages. ``encode`` maps single slices to features: a 3x3
stem conv lifts the one input channel to ``first_conv_filters``; each
encoder scale runs DenseBlock, records the concat of its input with the
dense-path output as the skip tensor, applies squeeze attention (when
enabled) and TransitionDown; the bottleneck DenseBlock closes the stage.
``decode`` fuses a triplet and segments its center slice: a ConvLSTM over
the three bottleneck time steps (when enabled; otherwise the center step
goes on alone), then each decoder scale runs TransitionUp, concatenates the
center slice's skip tensor, DenseBlock, and squeeze attention; a 1x1 conv
plus channel softmax emits the two-class probability map.

``forward`` runs both on a triplet batch: the 3B slices ride through the
encoder as one batch (previous slices first, then centers, then next
slices), which is what makes the per-slice encoder weights shared by
construction. Eval mode holds each activation only until its last reader:
``encode`` lets a scale's dense-block output go once the skip concat has
copied it and its attention output once ``transition_down`` has read it,
and an eval forward keeps only the center slices' skips and the bottleneck
time steps through ``decode``. A train-mode tape holds what its vjps read
either way. Nothing in ``encode`` mixes samples in eval mode, so a
slice's features are the same in every triplet that holds it; volume
inference (``train.predict_with_params``) therefore encodes each slice
once and decodes every triplet from those features.

``ModelParams`` holds the parameters in the same layout (``stem``,
``downsampling``, ``bottleneck``, ``upsampling``, ``head``). A tensor's
dotted field path, such as ``downsampling.0.sa.attn1.bn1.gamma``, is its
checkpoint record name, so renaming a field renames its records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Optional

import numpy as np

from . import rng as rngmod
from .blocks import (
    BatchNormParams,
    ConvLSTMParams,
    ConvParams,
    DenseLayerParams,
    SABlockParams,
    TransitionUpParams,
    dense_block,
    dense_block_params,
    sa_block,
    transition_down,
    transition_up,
    convlstm_forward,
)
from .errors import ShapeError
from .tensor import Tensor, concat_channels, conv2d, slice_batch, softmax_channels

ABLATION_LABELS = (
    "FC-DenseNet",
    "FC-DenseNet + C-LSTM",
    "FC-DenseNet + SA",
    "FC-DenseNet + SA + C-LSTM",
)

# Initial probability assigned to the lesion class by a freshly built model
# (applied through the head bias; see build_model).
FOREGROUND_PRIOR = 0.01


@dataclass(frozen=True)
class ModelConfig:
    """Architecture settings. A value out of range is refused when the config
    is made, also by ``dataclasses.replace``, so ``build_model`` takes any."""

    num_scales: int = 5
    layers_per_dense_block: int = 5
    growth_rate: int = 12
    first_conv_filters: int = 19
    convlstm_hidden: int = 203
    dropout_p: float = 0.2
    use_sa: bool = True
    use_clstm: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_scales < 1:
            raise ValueError(f"num_scales must be >= 1, got {self.num_scales}")
        if self.layers_per_dense_block < 1:
            raise ValueError(
                f"layers_per_dense_block must be >= 1, got {self.layers_per_dense_block}"
            )
        if self.growth_rate < 1 or self.first_conv_filters < 1 or self.convlstm_hidden < 1:
            raise ValueError("growth_rate, first_conv_filters, convlstm_hidden must be >= 1")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")


@dataclass
class EncoderScaleParams:
    dense: list  # of DenseLayerParams
    sa: Optional[SABlockParams]
    down: DenseLayerParams


@dataclass
class DecoderScaleParams:
    up: TransitionUpParams
    dense: list  # of DenseLayerParams
    sa: Optional[SABlockParams]


@dataclass
class BottleneckParams:
    dense: list  # of DenseLayerParams
    lstm: Optional[ConvLSTMParams]


@dataclass
class ModelParams:
    cfg: ModelConfig
    stem: ConvParams
    downsampling: list  # of EncoderScaleParams
    bottleneck: BottleneckParams
    upsampling: list  # of DecoderScaleParams
    head: ConvParams


def build_model(cfg: ModelConfig) -> ModelParams:
    """Construct and He-uniform-initialize the parameter tree.

    All draws come from one stream keyed by cfg.seed, in a fixed build
    order, so the same config always yields the same initial weights.
    """
    rng = rngmod.stream(cfg.seed, "model-init")
    g = cfg.growth_rate
    nl = cfg.layers_per_dense_block
    block_out = nl * g

    stem = ConvParams.create(rng, 1, cfg.first_conv_filters, 3)
    c = cfg.first_conv_filters
    downsampling = []
    skip_channels = []
    for _ in range(cfg.num_scales):
        dense = dense_block_params(rng, c, nl, g, cfg.dropout_p)
        skip = c + block_out
        sa = SABlockParams.create(rng, skip) if cfg.use_sa else None
        down = DenseLayerParams(
            BatchNormParams.create(skip), ConvParams.create(rng, skip, skip, 1), cfg.dropout_p
        )
        downsampling.append(EncoderScaleParams(dense, sa, down))
        skip_channels.append(skip)
        c = skip

    bottleneck = BottleneckParams(
        dense_block_params(rng, c, nl, g, cfg.dropout_p),
        ConvLSTMParams.create(rng, block_out, cfg.convlstm_hidden) if cfg.use_clstm else None,
    )

    stream = cfg.convlstm_hidden if cfg.use_clstm else block_out
    upsampling = []
    for j in range(cfg.num_scales):
        up = TransitionUpParams.create(rng, stream)
        concat_ch = stream + skip_channels[cfg.num_scales - 1 - j]
        dense = dense_block_params(rng, concat_ch, nl, g, cfg.dropout_p)
        sa = SABlockParams.create(rng, block_out) if cfg.use_sa else None
        upsampling.append(DecoderScaleParams(up, dense, sa))
        stream = block_out

    # two output channels: background, lesion
    head = ConvParams.create(rng, block_out, 2, 1)
    # Lesions cover a tiny fraction of any scan, so start the classes at a
    # low foreground prior instead of 50/50. Without this the first phase
    # of training is spent suppressing the foreground map globally, which
    # plain SGD tends to overshoot into a saturated all-background state.
    head.b.data[1] = math.log(FOREGROUND_PRIOR / (1.0 - FOREGROUND_PRIOR))
    return ModelParams(cfg, stem, downsampling, bottleneck, upsampling, head)


# ---------------------------------------------------------------------------
# parameter tree traversal


def _tree_tensors(node, path: tuple = ()):
    """Every Tensor under ``node`` with its dotted path: dataclass fields in
    declaration order, list entries by index. Other values hold none."""
    if isinstance(node, Tensor):
        yield ".".join(path), node
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _tree_tensors(child, path + (str(i),))
    elif is_dataclass(node):
        for f in fields(node):
            yield from _tree_tensors(getattr(node, f.name), path + (f.name,))


def named_tensors(params: ModelParams):
    """Every trainable tensor with its tree path, in build order."""
    return ((name, t) for name, t in _tree_tensors(params) if t.requires_grad)


def named_buffers(params: ModelParams):
    """Every BN running statistic with its tree path, in build order."""
    return ((name, t) for name, t in _tree_tensors(params) if not t.requires_grad)


def _named_arrays(params: ModelParams):
    """Trainable tensors, then BN buffers: the records of a snapshot."""
    yield from named_tensors(params)
    yield from named_buffers(params)


def snapshot_arrays(params: ModelParams) -> dict:
    """Copy every trainable tensor and BN buffer, keyed by tree name."""
    return {name: t.data.copy() for name, t in _named_arrays(params)}


def restore_arrays(params: ModelParams, snap: dict) -> None:
    """Load a copy of every trainable tensor and BN buffer from ``snap``,
    which must hold exactly the model's names at the model's shapes."""
    rest = dict(snap)
    for name, t in _named_arrays(params):
        got = rest.pop(name, None)
        if got is None:
            raise ValueError(f"checkpoint is missing parameter {name!r}")
        if got.shape != t.data.shape:
            raise ValueError(
                f"checkpoint parameter {name!r} has shape {got.shape}, "
                f"the model expects {t.data.shape}"
            )
        t.data = got.copy()
        t.grad = None
    if rest:
        raise ValueError(f"checkpoint has unexpected record {next(iter(rest))!r}")


def param_count(params: ModelParams) -> int:
    """Total trainable elements."""
    return sum(int(np.prod(t.data.shape)) for _, t in named_tensors(params))


# ---------------------------------------------------------------------------
# closed-form count (independent of tensor allocation, used for calibration)


def _cc_conv(i, o, k, bias=True):
    return o * i * k * k + (o if bias else 0)


def _cc_bn(c):
    return 2 * c


def _cc_dense_block(in_ch, nl, g):
    total = 0
    c = in_ch
    for _ in range(nl):
        total += _cc_bn(c) + _cc_conv(c, g, 3)
        c += g
    return total


def _cc_conv_block(i, o):
    return _cc_conv(i, o, 3) + _cc_bn(o) + _cc_conv(o, o, 3) + _cc_bn(o)


def _cc_sa(c):
    return 2 * _cc_conv_block(c, c)


def count_params(cfg: ModelConfig) -> dict:
    """Element counts by position, computed arithmetically from the config.

    Returns {"downsampling": n, "bottleneck": n, "upsampling": n, "total": n}.
    Kept deliberately separate from the tensor-walking ``param_count`` so
    each audits the other.
    """
    g = cfg.growth_rate
    nl = cfg.layers_per_dense_block
    block_out = nl * g

    down = _cc_conv(1, cfg.first_conv_filters, 3)
    c = cfg.first_conv_filters
    skip_channels = []
    for _ in range(cfg.num_scales):
        down += _cc_dense_block(c, nl, g)
        skip = c + block_out
        if cfg.use_sa:
            down += _cc_sa(skip)
        down += _cc_bn(skip) + _cc_conv(skip, skip, 1)
        skip_channels.append(skip)
        c = skip

    bottleneck = _cc_dense_block(c, nl, g)
    if cfg.use_clstm:
        q = cfg.convlstm_hidden
        bottleneck += 4 * _cc_conv(block_out + q, q, 3)

    up = 0
    stream = cfg.convlstm_hidden if cfg.use_clstm else block_out
    for j in range(cfg.num_scales):
        up += _cc_conv(stream, stream, 3, bias=False)
        concat_ch = stream + skip_channels[cfg.num_scales - 1 - j]
        up += _cc_dense_block(concat_ch, nl, g)
        if cfg.use_sa:
            up += _cc_sa(block_out)
        stream = block_out
    up += _cc_conv(block_out, 2, 1)

    return {
        "downsampling": down,
        "bottleneck": bottleneck,
        "upsampling": up,
        "total": down + bottleneck + up,
    }


# ---------------------------------------------------------------------------
# forward


def _require_divisible(cfg: ModelConfig, h: int, w: int) -> None:
    div = 1 << cfg.num_scales
    if h % div or w % div:
        raise ShapeError(
            f"spatial extents must be divisible by 2^num_scales = 2^{cfg.num_scales} = {div}, "
            f"got {h}x{w}"
        )


def require_trainable(cfg: ModelConfig, crop: tuple, batch_size: int, n_samples: int) -> None:
    """Refuse, before the first step, a training job whose steps cannot run.

    The crop must divide by 2^num_scales, as ``encode`` requires. With
    squeeze attention, the first decoder scale's attention branch pools to
    the bottleneck's (H/2^S, W/2^S) map, and its train-mode batchnorm needs
    2 values per channel from the epoch's smallest batch. Every other
    batchnorm sees at least 3 once the crop divides.
    """
    h, w = crop
    _require_divisible(cfg, h, w)
    div = 1 << cfg.num_scales
    smallest = n_samples % batch_size or batch_size
    if cfg.use_sa and smallest * (h // div) * (w // div) < 2:
        raise ShapeError(
            f"a batch of {smallest} {h}x{w} slices leaves a squeeze-attention batchnorm "
            f"one value per channel at num_scales = {cfg.num_scales}, and it needs 2: the "
            f"epoch's smallest batch holds {smallest} of {n_samples} samples at batch_size = "
            f"{batch_size}; raise batch_size, lower num_scales or set use_sa = false"
        )


def encode(params: ModelParams, x: Tensor, mode: str, rng=None) -> tuple[list, Tensor]:
    """Map slices (N, 1, H, W) to their per-scale skip tensors, shallowest
    first, and the bottleneck dense-block output."""
    if x.data.ndim != 4 or x.data.shape[1] != 1:
        raise ShapeError(f"encode expects (N, 1, H, W) slices, got {x.shape}")
    _require_divisible(params.cfg, *x.data.shape[2:])
    stream = conv2d(x, params.stem.w, params.stem.b)
    skips = []
    for sc in params.downsampling:
        # ``stream`` is rebound as each stage's one reader returns, so the
        # scale's input, its dense-block output and its attention output are
        # each let go after their last read
        stream = concat_channels([stream, dense_block(stream, sc.dense, mode, rng)])
        skips.append(stream)
        if sc.sa is not None:
            stream = sa_block(stream, sc.sa, mode)
        stream = transition_down(stream, sc.down, mode, rng)
    return skips, dense_block(stream, params.bottleneck.dense, mode, rng)


def decode(params: ModelParams, center_skips: list, steps: list, mode: str, rng=None) -> Tensor:
    """Map B triplets' encoder features to (B, 2, H, W) center-slice
    probabilities.

    ``center_skips`` are the center slices' skip tensors as ``encode``
    orders them; ``steps`` are the bottleneck features of the time steps
    in order (previous, center, next). Without the ConvLSTM only the
    middle step is read, so a caller may pass the center step alone.
    """
    if params.bottleneck.lstm is not None:
        u = convlstm_forward(steps, params.bottleneck.lstm)
    else:
        u = steps[len(steps) // 2]
    for sc, skip in zip(params.upsampling, reversed(center_skips)):
        u = transition_up(u, sc.up)
        u = concat_channels([u, skip])
        u = dense_block(u, sc.dense, mode, rng)
        if sc.sa is not None:
            u = sa_block(u, sc.sa, mode)
    logits = conv2d(u, params.head.w, params.head.b)
    return softmax_channels(logits)


def forward(params: ModelParams, x: Tensor, mode: str, rng=None) -> Tensor:
    """Map an input triplet batch (3B, 1, H, W) to (B, 2, H, W) probabilities.

    The batch axis is time-major: the first B samples are the previous
    slices, the middle B the centers, the last B the next slices. In eval
    mode only the center slices' skips and the bottleneck time steps are
    held through ``decode``; the 3B-slice encoder features are freed first.
    """
    if x.data.ndim != 4 or x.data.shape[1] != 1:
        raise ShapeError(f"forward expects (3B, 1, H, W) input, got {x.shape}")
    b3 = x.data.shape[0]
    if b3 % 3:
        raise ShapeError(
            f"forward expects 3 time steps stacked on the batch axis, got batch {b3}"
        )
    b = b3 // 3

    skips, db = encode(params, x, mode, rng)
    center_skips = [slice_batch(sk, b, 2 * b) for sk in skips]
    # without the ConvLSTM, decode reads the center step only
    ks = range(3) if params.bottleneck.lstm is not None else (1,)
    steps = [slice_batch(db, k * b, (k + 1) * b) for k in ks]
    # the slices above are copies, so in eval mode this frees the 3B-slice features
    del skips, db
    return decode(params, center_skips, steps, mode, rng)


def ablation_variants(base: ModelConfig) -> list:
    """The four flag combinations, in the fixed report order:
    plain FC-DenseNet, + C-LSTM, + SA, + SA + C-LSTM."""
    return [
        replace(base, use_sa=False, use_clstm=False),
        replace(base, use_sa=False, use_clstm=True),
        replace(base, use_sa=True, use_clstm=False),
        replace(base, use_sa=True, use_clstm=True),
    ]
