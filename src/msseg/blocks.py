"""Composite building blocks of the segmentation network.

Each block is a parameter dataclass plus a pure apply function. Parameter
construction draws He-uniform kernels from the generator it is handed, so
build order fixes every initial value. Blocks that contain batchnorm or
dropout take a ``mode`` ("train" or "eval"); dropout additionally needs a
generator in train mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor import (
    BatchNormStats,
    Tensor,
    avgpool2d,
    batchnorm2d,
    concat_channels,
    conv2d,
    conv_transpose2d,
    crop_spatial,
    dropout2d,
    maxpool2d,
    mul,
    relu,
    sigmoid,
    tanh,
    upsample_nearest,
)


def he_uniform(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


@dataclass
class ConvParams:
    """One convolution's weight and bias."""

    w: Tensor
    b: Tensor

    @classmethod
    def create(cls, rng, in_ch: int, out_ch: int, k: int) -> "ConvParams":
        w = Tensor(he_uniform(rng, (out_ch, in_ch, k, k), in_ch * k * k), requires_grad=True)
        return cls(w, Tensor(np.zeros(out_ch), requires_grad=True))

    @property
    def in_channels(self) -> int:
        return self.w.data.shape[1]

    @property
    def out_channels(self) -> int:
        return self.w.data.shape[0]


@dataclass
class BatchNormParams:
    gamma: Tensor
    beta: Tensor
    stats: BatchNormStats

    @classmethod
    def create(cls, channels: int) -> "BatchNormParams":
        return cls(
            Tensor(np.ones(channels), requires_grad=True),
            Tensor(np.zeros(channels), requires_grad=True),
            BatchNormStats.initialized(channels),
        )

    @property
    def channels(self) -> int:
        return self.gamma.data.shape[0]


@dataclass
class DenseLayerParams:
    """BN -> ReLU -> 3x3 conv (pad 1) -> channel dropout."""

    bn: BatchNormParams
    conv: ConvParams
    dropout_p: float

    def __post_init__(self):
        if self.bn.channels != self.conv.in_channels:
            raise ShapeError(
                f"dense layer: batchnorm on {self.bn.channels} channels but conv "
                f"expects {self.conv.in_channels}"
            )

    @classmethod
    def create(cls, rng, in_ch: int, growth: int, dropout_p: float) -> "DenseLayerParams":
        return cls(BatchNormParams.create(in_ch), ConvParams.create(rng, in_ch, growth, 3), dropout_p)


def dense_layer(x: Tensor, p: DenseLayerParams, mode: str, rng=None) -> Tensor:
    h = batchnorm2d(x, p.bn.gamma, p.bn.beta, p.bn.stats, mode)
    h = relu(h)
    h = conv2d(h, p.conv.w, p.conv.b, stride=1, pad=1)
    return dropout2d(h, p.dropout_p, mode, rng)


@dataclass
class DenseBlockParams:
    layers: list  # of DenseLayerParams

    def __post_init__(self):
        if not self.layers:
            raise ShapeError("dense block needs at least one layer")
        base = self.layers[0].conv.in_channels
        growth = self.layers[0].conv.out_channels
        for i, lay in enumerate(self.layers):
            want_in = base + i * growth
            if lay.conv.in_channels != want_in or lay.conv.out_channels != growth:
                raise ShapeError(
                    f"dense block ladder broken at layer {i}: expected "
                    f"{want_in}->{growth}, got {lay.conv.in_channels}->{lay.conv.out_channels}"
                )

    @classmethod
    def create(cls, rng, in_ch: int, n_layers: int, growth: int, dropout_p: float) -> "DenseBlockParams":
        return cls(
            [DenseLayerParams.create(rng, in_ch + i * growth, growth, dropout_p) for i in range(n_layers)]
        )


def dense_block(x: Tensor, p: DenseBlockParams, mode: str, rng=None) -> Tensor:
    """Each layer reads the concat of the input and all previous outputs.

    The block output concatenates only the layer outputs (the dense-path
    convention): len(layers) * growth channels.
    """
    feed = x
    outputs = []
    for lay in p.layers:
        y = dense_layer(feed, lay, mode, rng)
        outputs.append(y)
        feed = concat_channels([feed, y])
    return concat_channels(outputs)


@dataclass
class TransitionDownParams:
    """BN -> ReLU -> 1x1 channel-preserving conv -> dropout -> 2x2 maxpool."""

    bn: BatchNormParams
    conv: ConvParams
    dropout_p: float

    def __post_init__(self):
        if self.conv.in_channels != self.conv.out_channels:
            raise ShapeError(
                f"transition down conv must preserve channels, got "
                f"{self.conv.in_channels}->{self.conv.out_channels}"
            )

    @classmethod
    def create(cls, rng, channels: int, dropout_p: float) -> "TransitionDownParams":
        return cls(BatchNormParams.create(channels), ConvParams.create(rng, channels, channels, 1), dropout_p)


def transition_down(x: Tensor, p: TransitionDownParams, mode: str, rng=None) -> Tensor:
    if x.data.shape[2] < 2 or x.data.shape[3] < 2:
        raise ShapeError(f"transition down needs spatial extent >= 2, got {x.shape}")
    h = batchnorm2d(x, p.bn.gamma, p.bn.beta, p.bn.stats, mode)
    h = relu(h)
    h = conv2d(h, p.conv.w, p.conv.b, stride=1, pad=0)
    h = dropout2d(h, p.dropout_p, mode, rng)
    return maxpool2d(h, 2, 2)


@dataclass
class TransitionUpParams:
    """3x3 transposed conv, stride 2, output cropped to exactly 2x input."""

    w: Tensor  # (C, C, 3, 3), no bias

    @classmethod
    def create(cls, rng, channels: int) -> "TransitionUpParams":
        w = Tensor(he_uniform(rng, (channels, channels, 3, 3), channels * 9), requires_grad=True)
        return cls(w)


def transition_up(x: Tensor, p: TransitionUpParams) -> Tensor:
    out = conv_transpose2d(x, p.w, stride=2)
    h2 = 2 * x.data.shape[2]
    w2 = 2 * x.data.shape[3]
    # (H-1)*2+3 = 2H+1: one excess row/col; the symmetric split of an odd
    # excess keeps the leading edge
    top = (out.data.shape[2] - h2) // 2
    left = (out.data.shape[3] - w2) // 2
    return crop_spatial(out, top, left, h2, w2)


@dataclass
class ConvBlockParams:
    """Two stages of (3x3 conv pad 1 -> BN -> ReLU)."""

    conv1: ConvParams
    bn1: BatchNormParams
    conv2: ConvParams
    bn2: BatchNormParams

    @classmethod
    def create(cls, rng, in_ch: int, out_ch: int) -> "ConvBlockParams":
        return cls(
            ConvParams.create(rng, in_ch, out_ch, 3),
            BatchNormParams.create(out_ch),
            ConvParams.create(rng, out_ch, out_ch, 3),
            BatchNormParams.create(out_ch),
        )


def conv_block(x: Tensor, p: ConvBlockParams, mode: str) -> Tensor:
    h = conv2d(x, p.conv1.w, p.conv1.b, stride=1, pad=1)
    h = relu(batchnorm2d(h, p.bn1.gamma, p.bn1.beta, p.bn1.stats, mode))
    h = conv2d(h, p.conv2.w, p.conv2.b, stride=1, pad=1)
    return relu(batchnorm2d(h, p.bn2.gamma, p.bn2.beta, p.bn2.stats, mode))


@dataclass
class SABlockParams:
    """Squeeze-attention: 2x2-pooled conv_block pair, upsampled x2, gate plus add."""

    attn_conv1: ConvBlockParams
    attn_conv2: ConvBlockParams

    @classmethod
    def create(cls, rng, channels: int) -> "SABlockParams":
        return cls(
            ConvBlockParams.create(rng, channels, channels),
            ConvBlockParams.create(rng, channels, channels),
        )


def sa_block(x: Tensor, p: SABlockParams, mode: str) -> Tensor:
    """y = x * a + a with a = upsample(conv_block2(conv_block1(avgpool(x))))."""
    h, w = x.data.shape[2], x.data.shape[3]
    if h % 2 or w % 2:
        raise ShapeError(f"sa block needs spatial extents divisible by 2, got {h}x{w}")
    a = avgpool2d(x, 2, 2)
    a = conv_block(a, p.attn_conv1, mode)
    a = conv_block(a, p.attn_conv2, mode)
    a = upsample_nearest(a, 2)
    return mul(x, a) + a


@dataclass
class ConvLSTMParams:
    """Four gate convolutions, each (in_ch + hidden) -> hidden, 3x3 pad 1."""

    input_gate: ConvParams
    forget_gate: ConvParams
    cell_gate: ConvParams
    output_gate: ConvParams

    @classmethod
    def create(cls, rng, in_ch: int, hidden: int) -> "ConvLSTMParams":
        gates = [ConvParams.create(rng, in_ch + hidden, hidden, 3) for _ in range(4)]
        # a unit forget bias keeps early cell state from washing out
        gates[1].b.data[:] = 1.0
        return cls(*gates)

    @property
    def hidden(self) -> int:
        return self.input_gate.out_channels


def convlstm_step(x_t: Tensor, h_prev: Tensor, c_prev: Tensor, p: ConvLSTMParams):
    """One recurrence: i,f,o = sigmoid(conv([x;h])), g = tanh(conv([x;h])),
    c = f*c_prev + i*g, h = o*tanh(c). No peepholes."""
    if x_t.data.shape[2:] != h_prev.data.shape[2:] or x_t.data.shape[2:] != c_prev.data.shape[2:]:
        raise ShapeError(
            f"convlstm step: spatial dims disagree, x {x_t.shape}, h {h_prev.shape}, c {c_prev.shape}"
        )
    xh = concat_channels([x_t, h_prev])
    i = sigmoid(conv2d(xh, p.input_gate.w, p.input_gate.b, stride=1, pad=1))
    f = sigmoid(conv2d(xh, p.forget_gate.w, p.forget_gate.b, stride=1, pad=1))
    g = tanh(conv2d(xh, p.cell_gate.w, p.cell_gate.b, stride=1, pad=1))
    o = sigmoid(conv2d(xh, p.output_gate.w, p.output_gate.b, stride=1, pad=1))
    c_t = mul(f, c_prev) + mul(i, g)
    h_t = mul(o, tanh(c_t))
    return h_t, c_t


def convlstm_forward(seq: list, p: ConvLSTMParams) -> Tensor:
    """Scan the sequence in order from a zero state; return the final hidden."""
    if not seq:
        raise ShapeError("convlstm forward needs a nonempty sequence")
    n, _, h, w = seq[0].data.shape
    h_t = Tensor(np.zeros((n, p.hidden, h, w)))
    c_t = Tensor(np.zeros((n, p.hidden, h, w)))
    for x_t in seq:
        h_t, c_t = convlstm_step(x_t, h_t, c_t, p)
    return h_t
