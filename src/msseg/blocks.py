"""Composite building blocks of the segmentation network.

Each block is a parameter dataclass (a dense block's is a plain list of
its layers') plus an apply function. Parameter construction draws
He-uniform kernels from the generator it is handed, so build order fixes
every initial value. The parameter classes hold tensors and check no
shapes: ``model.build_model`` builds them by the channel rules, and the
ops refuse a hand-built tree that breaks one when they first read it.
Blocks that contain batchnorm or dropout take a ``mode`` ("train" or
"eval"); dropout additionally needs a generator in train mode. Apply
functions are pure except that train-mode batchnorm replaces the running
statistics held on its ``BatchNormParams``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor import (
    Tensor,
    add,
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
    def out_channels(self) -> int:
        return self.w.data.shape[0]


@dataclass
class BatchNormParams:
    """Trainable scale and shift plus the non-trainable running statistics,
    which train-mode ``batchnorm2d`` updates and eval mode reads."""

    gamma: Tensor
    beta: Tensor
    running_mean: Tensor
    running_var: Tensor

    @classmethod
    def create(cls, channels: int) -> "BatchNormParams":
        return cls(
            Tensor(np.ones(channels), requires_grad=True),
            Tensor(np.zeros(channels), requires_grad=True),
            Tensor(np.zeros(channels)),
            Tensor(np.ones(channels)),
        )


@dataclass
class DenseLayerParams:
    """BN -> ReLU -> same-padded conv -> channel dropout.

    Dense blocks use a 3x3 conv, transition down a channel-preserving 1x1.
    """

    bn: BatchNormParams
    conv: ConvParams
    dropout_p: float

    @classmethod
    def create(cls, rng, in_ch: int, growth: int, dropout_p: float) -> "DenseLayerParams":
        return cls(BatchNormParams.create(in_ch), ConvParams.create(rng, in_ch, growth, 3), dropout_p)


def dense_layer(x: Tensor, p: DenseLayerParams, mode: str, rng=None) -> Tensor:
    h = batchnorm2d(x, p.bn.gamma, p.bn.beta, p.bn.running_mean, p.bn.running_var, mode)
    h = relu(h)
    h = conv2d(h, p.conv.w, p.conv.b)
    return dropout2d(h, p.dropout_p, mode, rng)


def dense_block_params(rng, in_ch: int, n_layers: int, growth: int, dropout_p: float) -> list:
    """A dense block's layers: layer i reads the block input plus i earlier
    outputs of one growth rate."""
    return [DenseLayerParams.create(rng, in_ch + i * growth, growth, dropout_p) for i in range(n_layers)]


def dense_block(x: Tensor, p: list, mode: str, rng=None) -> Tensor:
    """Each layer reads the concat of the input and all previous outputs.

    Every feed is a channel-prefix view of one buffer per call, holding the
    input and then each layer's output: the first concat copies the input
    and the first output, every later one only its layer's output, and each
    layer's batchnorm reads its view in place. So each output is copied
    once, and a taped block keeps one feed array, not one per layer. The
    loop's last concat is never read.

    The block output concatenates only the layer outputs (the dense-path
    convention): len(p) * growth channels.
    """
    n, c, *hw = x.data.shape
    feeds = np.empty((n, c + len(p) * p[0].conv.out_channels, *hw))
    feed = x
    outputs = []
    for lay in p:
        y = dense_layer(feed, lay, mode, rng)
        outputs.append(y)
        feed = concat_channels([feed, y], into=feeds)
    return concat_channels(outputs)


def transition_down(x: Tensor, p: DenseLayerParams, mode: str, rng=None) -> Tensor:
    """A dense layer with a 1x1 channel-preserving conv, then 2x2 maxpool."""
    return maxpool2d(dense_layer(x, p, mode, rng))


@dataclass
class TransitionUpParams:
    """3x3 transposed conv, stride 2, output cropped to exactly 2x input."""

    w: Tensor  # (C, C, 3, 3), no bias

    @classmethod
    def create(cls, rng, channels: int) -> "TransitionUpParams":
        w = Tensor(he_uniform(rng, (channels, channels, 3, 3), channels * 9), requires_grad=True)
        return cls(w)


def transition_up(x: Tensor, p: TransitionUpParams) -> Tensor:
    out = conv_transpose2d(x, p.w)
    # (H-1)*2+3 = 2H+1: the one excess row/col is the trailing one
    return crop_spatial(out, 2 * x.data.shape[2], 2 * x.data.shape[3])


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
    h = x
    for conv, bn in ((p.conv1, p.bn1), (p.conv2, p.bn2)):
        h = conv2d(h, conv.w, conv.b)
        h = relu(batchnorm2d(h, bn.gamma, bn.beta, bn.running_mean, bn.running_var, mode))
    return h


@dataclass
class SABlockParams:
    """Squeeze-attention: 2x2-pooled conv_block pair, upsampled x2, gate plus add."""

    attn1: ConvBlockParams
    attn2: ConvBlockParams

    @classmethod
    def create(cls, rng, channels: int) -> "SABlockParams":
        return cls(
            ConvBlockParams.create(rng, channels, channels),
            ConvBlockParams.create(rng, channels, channels),
        )


def sa_block(x: Tensor, p: SABlockParams, mode: str) -> Tensor:
    """y = x * a + a with a = upsample(conv_block2(conv_block1(avgpool(x))))."""
    a = avgpool2d(x)
    a = conv_block(a, p.attn1, mode)
    a = conv_block(a, p.attn2, mode)
    a = upsample_nearest(a)
    return add(mul(x, a), a)


@dataclass
class ConvLSTMParams:
    """Four gate convolutions, each (in_ch + hidden) -> hidden, 3x3 pad 1."""

    input: ConvParams
    forget: ConvParams
    cell: ConvParams
    output: ConvParams

    @classmethod
    def create(cls, rng, in_ch: int, hidden: int) -> "ConvLSTMParams":
        gates = [ConvParams.create(rng, in_ch + hidden, hidden, 3) for _ in range(4)]
        # a unit forget bias keeps early cell state from washing out
        gates[1].b.data[:] = 1.0
        return cls(*gates)

    @property
    def hidden(self) -> int:
        return self.input.out_channels


def convlstm_step(x_t: Tensor, h_prev: Tensor, c_prev: Tensor, p: ConvLSTMParams):
    """One recurrence: i,f,o = sigmoid(conv([x;h])), g = tanh(conv([x;h])),
    c = f*c_prev + i*g, h = o*tanh(c). No peepholes."""
    xh = concat_channels([x_t, h_prev])
    i = sigmoid(conv2d(xh, p.input.w, p.input.b))
    f = sigmoid(conv2d(xh, p.forget.w, p.forget.b))
    g = tanh(conv2d(xh, p.cell.w, p.cell.b))
    o = sigmoid(conv2d(xh, p.output.w, p.output.b))
    c_t = add(mul(f, c_prev), mul(i, g))
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
