"""Densely connected convolution blocks.

Every layer maps the concatenation of the block input and all previous
layer outputs through conv(3x3, same, stride 1) -> batch norm -> ReLU ->
dropout (the last three :func:`bn_relu_dropout`), producing `growth` new
feature maps, so layer l sees c0 + (l-1)*growth channels. A trailing 1x1
convolution (no norm, no activation) adjusts the concatenated
c0 + L*growth maps to the requested output count. Spatial extents never
change. Dropout is active in train mode only; these blocks are the only
place dropout is applied.

A block is one tape node (:func:`dense_forward`), and its concatenation
is never copied per layer (cf. memory-efficient DenseNets,
arXiv:1707.06990). It allocates one (N, H, W, c0 + L*growth) buffer and
copies its input, or the decoder's up-sampled features and skip side by
side, into the first c0 channels. Each layer writes its output into the
next `growth` channels, and each convolution reads the filled channels
in place, so the tape holds that one buffer where it held one copy of
the concatenation per layer. Backward runs the 1x1 convolution, then the
layers latest first, and adds every convolution's input gradient into
one array of the buffer's shape; each element receives the same addends
in the same order as per-layer concatenations gave it, so values and
gradients keep their bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from . import kernels
from .autograd import Variable
from .errors import ShapeError


@dataclass
class BnState:
    """Running statistics for one batch-norm layer (updated in train mode)."""

    mean: np.ndarray
    var: np.ndarray
    momentum: float = 0.9
    eps: float = 1e-5

    @classmethod
    def create(cls, channels: int, dtype=np.float32) -> "BnState":
        return cls(mean=np.zeros(channels, dtype=dtype),
                   var=np.ones(channels, dtype=dtype))


@dataclass
class DenseLayer:
    conv_w: Variable  # (3,3,c_layer_in,growth)
    conv_b: Variable
    bn_gamma: Variable
    bn_beta: Variable
    bn_state: BnState


@dataclass
class DenseBlockParams:
    layers: list[DenseLayer]
    out_w: Variable  # (1,1,c0+L*growth,c_out)
    out_b: Variable
    growth: int
    dropout_rate: float = 0.5

    @property
    def in_channels(self) -> int:
        return self.out_w.data.shape[2] - len(self.layers) * self.growth

    @property
    def concat_channels(self) -> int:
        return self.out_w.data.shape[2]

    @property
    def out_channels(self) -> int:
        return self.out_w.data.shape[3]

    def param_items(self) -> list[tuple[str, Variable]]:
        """(name suffix, parameter) pairs in checkpoint order."""
        out = []
        for j, layer in enumerate(self.layers, start=1):
            out += [(f"l{j}.conv.w", layer.conv_w), (f"l{j}.conv.b", layer.conv_b),
                    (f"l{j}.bn.gamma", layer.bn_gamma), (f"l{j}.bn.beta", layer.bn_beta)]
        return out + [("out.w", self.out_w), ("out.b", self.out_b)]

    def state_items(self) -> list[tuple[str, BnState]]:
        """(name suffix, batch-norm running state) pairs in checkpoint order."""
        return [(f"l{j}.bn", layer.bn_state) for j, layer in enumerate(self.layers, start=1)]


def make_dense_block(
    rng: np.random.Generator,
    c_in: int,
    depth: int,
    growth: int,
    c_out: int,
    dropout_rate: float = 0.5,
    dtype=np.float32,
) -> DenseBlockParams:
    layers = []
    c = c_in
    for _ in range(depth):
        layers.append(DenseLayer(
            conv_w=ag.var(kernels.he_init(rng, (3, 3, c, growth), dtype), requires_grad=True),
            conv_b=ag.var(np.zeros(growth, dtype=dtype), requires_grad=True),
            bn_gamma=ag.var(np.ones(growth, dtype=dtype), requires_grad=True),
            bn_beta=ag.var(np.zeros(growth, dtype=dtype), requires_grad=True),
            bn_state=BnState.create(growth, dtype),
        ))
        c += growth
    out_w = ag.var(kernels.he_init(rng, (1, 1, c, c_out), dtype), requires_grad=True)
    out_b = ag.var(np.zeros(c_out, dtype=dtype), requires_grad=True)
    return DenseBlockParams(layers, out_w, out_b, growth, dropout_rate)


def bn_relu_dropout(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, state: BnState,
                    mode: str, rate: float, rng: np.random.Generator | None,
                    out: np.ndarray | None = None):
    """Batch norm, ReLU and, in train mode, inverted dropout of x; returns
    the output and its backward, which maps the output's gradient to the
    gradients of (x, gamma, beta).

    Batch norm is per channel over the (N, H, W) axes: train mode
    normalises by batch statistics and folds them into the running
    estimates, eval mode uses the running estimates only. Dropout zeroes
    each entry with probability `rate`, drawn from `rng` (needed when
    train mode drops anything), and scales the rest by 1/(1-rate). The
    output is written into `out` when given: an array of x's shape and
    dtype, such as the free channels of a dense block's buffer.

    The backward keeps x, the output and the per-channel mean and
    inverse deviation. The output is > 0 exactly where the ReLU passed
    and the entry was kept, so it is the combined mask; the normalised
    input is recomputed from x bit for bit.
    """
    if mode not in ("train", "eval"):
        raise ShapeError(f"bn_relu_dropout: invalid mode {mode!r}")
    if not 0.0 <= rate < 1.0:
        raise ShapeError(f"bn_relu_dropout: rate must be in [0, 1), got {rate}")
    dropping = mode == "train" and rate > 0.0
    if dropping and rng is None:
        raise ShapeError("bn_relu_dropout: train mode with dropout needs an rng")
    axes = (0, 1, 2)
    dtype = x.dtype
    if mode == "train":
        mu = x.mean(axis=axes)
        varb = x.var(axis=axes)
        state.mean = (state.momentum * state.mean
                      + (1.0 - state.momentum) * mu).astype(state.mean.dtype)
        state.var = (state.momentum * state.var
                     + (1.0 - state.momentum) * varb).astype(state.var.dtype)
    else:
        mu = state.mean.astype(dtype)
        varb = state.var.astype(dtype)
    inv = 1.0 / np.sqrt(varb + state.eps)

    def normalised():
        xhat = x - mu
        xhat *= inv
        return xhat

    y = gamma * normalised()
    y += beta
    y = y.astype(dtype, copy=False)
    out = np.maximum(y, 0, out=y if out is None else out)
    del y
    if dropping:
        out *= (rng.random(out.shape) >= rate).astype(dtype) / (1.0 - rate)

    def backward(g):
        # the +0.0 turns -0.0 into +0.0, as the zeroed gradient buffers
        # between three separate nodes would
        g = g * (out > 0)
        g += 0.0
        if dropping:
            g *= np.ones((), dtype) / (1.0 - rate)
        xhat = normalised()
        ggamma, gbeta = (g * xhat).sum(axis=axes), g.sum(axis=axes)
        gxhat = g * gamma
        if mode == "eval":
            return gxhat * inv, ggamma, gbeta
        gx = (gxhat - gxhat.mean(axis=axes) - xhat * (gxhat * xhat).mean(axis=axes)) * inv
        return gx, ggamma, gbeta

    return out, backward


def dense_forward(
    x: Variable | list[Variable],
    params: DenseBlockParams,
    mode: str,
    rng: np.random.Generator | None = None,
) -> Variable:
    """Run the block on (N, H, W, c0), or on several inputs whose
    channels, side by side in order, make up c0, as one tape node. Train
    mode needs `rng` for dropout."""
    if mode not in ("train", "eval"):
        raise ShapeError(f"dense_forward: invalid mode {mode!r}")
    inputs = [x] if isinstance(x, Variable) else list(x)
    c0 = sum(v.data.shape[-1] for v in inputs)
    if c0 != params.in_channels:
        raise ShapeError(
            f"dense block: input has {c0} channels, expected {params.in_channels}"
        )
    shape = inputs[0].data.shape
    for i, v in enumerate(inputs):
        if v.data.ndim != 4 or v.data.shape[:3] != shape[:3]:
            raise ShapeError(f"dense block: input {i} has shape {v.data.shape}, "
                             f"expected (N,H,W) {shape[:3]}")
    buf = np.empty(shape[:3] + (params.concat_channels,),
                   np.result_type(*(v.data for v in inputs)))
    bounds = np.cumsum([0] + [v.data.shape[3] for v in inputs])
    for v, lo, hi in zip(inputs, bounds, bounds[1:]):
        view = buf[..., lo:hi]
        view[...] = v.data
        # an op output is then held here only, in its own dtype; a leaf's
        # array is its caller's
        if v._backward is not None and v.data.dtype == view.dtype:
            v.data = view

    growth = params.growth
    convs = [(layer.conv_w, layer.conv_b) for layer in params.layers]
    convs.append((params.out_w, params.out_b))
    parents = tuple(inputs) + tuple(p for _, p in params.param_items())
    recording = ag.recording(parents)
    layer_backwards = []  # kept only for a recorded node: each holds its layer's input
    for i, layer in enumerate(params.layers):
        width = c0 + i * growth
        h = kernels.conv2d(buf[..., :width], layer.conv_w.data, layer.conv_b.data, 1)
        _, layer_bw = bn_relu_dropout(h, layer.bn_gamma.data, layer.bn_beta.data,
                                      layer.bn_state, mode, params.dropout_rate, rng,
                                      out=buf[..., width : width + growth])
        if recording:
            layer_backwards.append(layer_bw)
    out = kernels.conv2d(buf, params.out_w.data, params.out_b.data, 1)

    def backward(g):
        grad = None  # the buffer's gradient
        for i in reversed(range(len(convs))):
            w, b = convs[i]
            width = c0 + i * growth
            gx, gw, gb = kernels.conv2d_backward(buf[..., :width], w.data, 1, g)
            ag.accumulate(w, gw)
            ag.accumulate(b, gb)
            if i == 0 and len(inputs) == 1:
                break  # a single input takes gx after its slice of grad
            if grad is None:  # the 1x1 convolution's, over every channel
                grad = gx
                grad += 0.0  # as a zeroed array takes it: -0.0 becomes +0.0
            else:
                grad[..., :width] += gx
            del gx
            if i:  # the layer whose output fills the channels below width
                layer = params.layers[i - 1]
                g, ggamma, gbeta = layer_backwards.pop()(grad[..., width - growth : width])
                g += 0.0  # as its convolution's zeroed output gradient takes it
                ag.accumulate(layer.bn_gamma, ggamma)
                ag.accumulate(layer.bn_beta, gbeta)
        if grad is not None:  # None for a one-input block without layers
            for v, lo, hi in zip(inputs, bounds, bounds[1:]):
                ag.accumulate(v, grad[..., lo:hi])
        if len(inputs) == 1:
            ag.accumulate(inputs[0], gx)

    return ag.make_op(out, parents, backward)
