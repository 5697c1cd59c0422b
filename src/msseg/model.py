"""The full segmentation network.

Assembly: a 3x3 stem conv lifts the single input channel to
``first_conv_filters``; each encoder scale runs DenseBlock, records the
concat of its input with the dense-path output as the skip tensor, applies
squeeze attention (when enabled) and TransitionDown; the bottleneck runs a
DenseBlock and then a ConvLSTM over the three time steps (when enabled);
each decoder scale runs TransitionUp, concatenates the center slice's skip
tensor, DenseBlock, and squeeze attention; a 1x1 conv plus channel softmax
emits the two-class probability map for the center slice.

The input triplet rides through the encoder as one batch of 3B samples
(previous slices first, then centers, then next slices), which is what
makes the per-slice encoder weights shared by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import rng as rngmod
from .blocks import (
    BatchNormParams,
    ConvLSTMParams,
    ConvParams,
    DenseBlockParams,
    SABlockParams,
    TransitionDownParams,
    TransitionUpParams,
    dense_block,
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


@dataclass
class ModelConfig:
    num_scales: int = 5
    layers_per_dense_block: int = 5
    growth_rate: int = 12
    first_conv_filters: int = 19
    convlstm_hidden: int = 203
    dropout_p: float = 0.2
    use_sa: bool = True
    use_clstm: bool = True
    seed: int = 0

    def validate(self) -> None:
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
    dense: DenseBlockParams
    sa: Optional[SABlockParams]
    down: TransitionDownParams


@dataclass
class DecoderScaleParams:
    up: TransitionUpParams
    dense: DenseBlockParams
    sa: Optional[SABlockParams]


@dataclass
class ModelParams:
    cfg: ModelConfig
    stem: ConvParams
    encoder: list
    bottleneck: DenseBlockParams
    lstm: Optional[ConvLSTMParams]
    decoder: list
    head: ConvParams


def build_model(cfg: ModelConfig) -> ModelParams:
    """Construct and He-uniform-initialize the parameter tree.

    All draws come from one stream keyed by cfg.seed, in a fixed build
    order, so the same config always yields the same initial weights.
    """
    cfg.validate()
    rng = rngmod.stream(cfg.seed, "model-init")
    g = cfg.growth_rate
    nl = cfg.layers_per_dense_block
    block_out = nl * g

    stem = ConvParams.create(rng, 1, cfg.first_conv_filters, 3)
    c = cfg.first_conv_filters
    encoder = []
    skip_channels = []
    for _ in range(cfg.num_scales):
        dense = DenseBlockParams.create(rng, c, nl, g, cfg.dropout_p)
        skip = c + block_out
        sa = SABlockParams.create(rng, skip) if cfg.use_sa else None
        down = TransitionDownParams.create(rng, skip, cfg.dropout_p)
        encoder.append(EncoderScaleParams(dense, sa, down))
        skip_channels.append(skip)
        c = skip

    bottleneck = DenseBlockParams.create(rng, c, nl, g, cfg.dropout_p)
    lstm = ConvLSTMParams.create(rng, block_out, cfg.convlstm_hidden) if cfg.use_clstm else None

    stream = cfg.convlstm_hidden if cfg.use_clstm else block_out
    decoder = []
    for j in range(cfg.num_scales):
        up = TransitionUpParams.create(rng, stream)
        concat_ch = stream + skip_channels[cfg.num_scales - 1 - j]
        dense = DenseBlockParams.create(rng, concat_ch, nl, g, cfg.dropout_p)
        sa = SABlockParams.create(rng, block_out) if cfg.use_sa else None
        decoder.append(DecoderScaleParams(up, dense, sa))
        stream = block_out

    # two output channels: background, lesion
    head = ConvParams.create(rng, block_out, 2, 1)
    # Lesions cover a tiny fraction of any scan, so start the classes at a
    # low foreground prior instead of 50/50. Without this the first phase
    # of training is spent suppressing the foreground map globally, which
    # plain SGD tends to overshoot into a saturated all-background state.
    head.b.data[1] = math.log(FOREGROUND_PRIOR / (1.0 - FOREGROUND_PRIOR))
    params = ModelParams(cfg, stem, encoder, bottleneck, lstm, decoder, head)
    for name, tensor in named_tensors(params):
        tensor.name = name
    return params


# ---------------------------------------------------------------------------
# parameter tree traversal


def _dense_sites(prefix, p: DenseBlockParams):
    for i, lay in enumerate(p.layers):
        yield f"{prefix}.{i}.bn", lay.bn
        yield f"{prefix}.{i}.conv", lay.conv


def _sa_sites(prefix, p: SABlockParams):
    for name, block in (("attn1", p.attn_conv1), ("attn2", p.attn_conv2)):
        yield f"{prefix}.{name}.conv1", block.conv1
        yield f"{prefix}.{name}.bn1", block.bn1
        yield f"{prefix}.{name}.conv2", block.conv2
        yield f"{prefix}.{name}.bn2", block.bn2


def _sites(params: ModelParams):
    """Every ConvParams, BatchNormParams and bare weight Tensor with its
    tree name, in build order. The one place that knows the tree layout."""
    yield "stem", params.stem
    for i, sc in enumerate(params.encoder):
        yield from _dense_sites(f"downsampling.{i}.dense", sc.dense)
        if sc.sa is not None:
            yield from _sa_sites(f"downsampling.{i}.sa", sc.sa)
        yield f"downsampling.{i}.down.bn", sc.down.bn
        yield f"downsampling.{i}.down.conv", sc.down.conv
    yield from _dense_sites("bottleneck.dense", params.bottleneck)
    if params.lstm is not None:
        lstm = params.lstm
        yield "bottleneck.lstm.input", lstm.input_gate
        yield "bottleneck.lstm.forget", lstm.forget_gate
        yield "bottleneck.lstm.cell", lstm.cell_gate
        yield "bottleneck.lstm.output", lstm.output_gate
    for j, sc in enumerate(params.decoder):
        yield f"upsampling.{j}.up.w", sc.up.w
        yield from _dense_sites(f"upsampling.{j}.dense", sc.dense)
        if sc.sa is not None:
            yield from _sa_sites(f"upsampling.{j}.sa", sc.sa)
    yield "head", params.head


def named_tensors(params: ModelParams):
    """Every trainable tensor with its unique tree name, in build order."""
    for prefix, site in _sites(params):
        if isinstance(site, ConvParams):
            yield prefix + ".w", site.w
            yield prefix + ".b", site.b
        elif isinstance(site, BatchNormParams):
            yield prefix + ".gamma", site.gamma
            yield prefix + ".beta", site.beta
        else:
            yield prefix, site


def named_buffers(params: ModelParams):
    """BN running statistics: (name, stats object, attribute) triples."""
    for prefix, site in _sites(params):
        if isinstance(site, BatchNormParams):
            yield prefix + ".running_mean", site.stats, "mean"
            yield prefix + ".running_var", site.stats, "var"


def snapshot_arrays(params: ModelParams) -> dict:
    """Copy every trainable tensor and BN buffer, keyed by tree name."""
    snap = {name: t.data.copy() for name, t in named_tensors(params)}
    for name, stats, attr in named_buffers(params):
        snap[name] = getattr(stats, attr).copy()
    return snap


def restore_arrays(params: ModelParams, snap: dict) -> None:
    for name, t in named_tensors(params):
        t.data = snap[name].copy()
        t.grad = None
    for name, stats, attr in named_buffers(params):
        setattr(stats, attr, snap[name].copy())


def param_count(params) -> int:
    """Total trainable elements. Accepts ModelParams or (name, Tensor) pairs."""
    if isinstance(params, ModelParams):
        pairs = named_tensors(params)
    else:
        pairs = params
    return sum(int(np.prod(t.data.shape)) for _, t in pairs)


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


def forward(params: ModelParams, x: Tensor, mode: str, rng=None) -> Tensor:
    """Map an input triplet batch (3B, 1, H, W) to (B, 2, H, W) probabilities.

    The batch axis is time-major: the first B samples are the previous
    slices, the middle B the centers, the last B the next slices.
    """
    cfg = params.cfg
    if mode not in ("train", "eval"):
        raise ValueError(f"forward mode must be 'train' or 'eval', got {mode!r}")
    if x.data.ndim != 4 or x.data.shape[1] != 1:
        raise ShapeError(f"forward expects (3B, 1, H, W) input, got {x.shape}")
    b3, _, h, w = x.data.shape
    if b3 % 3:
        raise ShapeError(
            f"forward expects 3 time steps stacked on the batch axis, got batch {b3}"
        )
    div = 1 << cfg.num_scales
    if h % div or w % div:
        raise ShapeError(
            f"spatial extents must be divisible by 2^{cfg.num_scales} = {div}, got {h}x{w}"
        )
    b = b3 // 3

    stream = conv2d(x, params.stem.w, params.stem.b, stride=1, pad=1)
    skips = []
    for sc in params.encoder:
        d = dense_block(stream, sc.dense, mode, rng)
        sk = concat_channels([stream, d])
        skips.append(sk)
        gated = sa_block(sk, sc.sa, mode) if sc.sa is not None else sk
        stream = transition_down(gated, sc.down, mode, rng)

    db = dense_block(stream, params.bottleneck, mode, rng)
    if params.lstm is not None:
        steps = [slice_batch(db, k * b, (k + 1) * b) for k in range(3)]
        u = convlstm_forward(steps, params.lstm)
    else:
        u = slice_batch(db, b, 2 * b)

    for j, sc in enumerate(params.decoder):
        u = transition_up(u, sc.up)
        skip_center = slice_batch(skips[cfg.num_scales - 1 - j], b, 2 * b)
        u = concat_channels([u, skip_center])
        u = dense_block(u, sc.dense, mode, rng)
        if sc.sa is not None:
            u = sa_block(u, sc.sa, mode)

    logits = conv2d(u, params.head.w, params.head.b, stride=1, pad=0)
    return softmax_channels(logits)


def ablation_variants(base: ModelConfig) -> list:
    """The four flag combinations, in the fixed report order:
    plain FC-DenseNet, + C-LSTM, + SA, + SA + C-LSTM."""
    return [
        replace(base, use_sa=False, use_clstm=False),
        replace(base, use_sa=False, use_clstm=True),
        replace(base, use_sa=True, use_clstm=False),
        replace(base, use_sa=True, use_clstm=True),
    ]
