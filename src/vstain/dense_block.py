"""Densely connected convolution blocks.

Every layer maps the concatenation of the block input and all previous
layer outputs through conv(3x3, same, stride 1) -> batch norm -> ReLU ->
dropout, the last three one tape node (:func:`autograd.bn_relu_dropout`),
producing `growth` new feature maps, so layer l sees
c0 + (l-1)*growth channels. A trailing 1x1 convolution (no norm, no
activation) adjusts the concatenated c0 + L*growth maps to the requested
output count. Spatial extents never change. Dropout is active in train
mode only; these blocks are the only place dropout is applied.

The concatenation is never copied per layer (cf. memory-efficient
DenseNets, arXiv:1707.06990). A block allocates one (N, H, W,
c0 + L*growth) buffer (:class:`autograd.ChannelBuffer`) and copies its
input, or the decoder's up-sampled features and skip side by side, into
the first c0 channels. Each layer writes its output into the next
`growth` channels, and each convolution reads the filled channels in
place, so a block's tape holds that one buffer where it held one copy of
the concatenation per layer. Backward adds every convolution's input
gradient into one array of the buffer's shape, latest layer first; each
element receives the same addends in the same order as the per-layer
copies gave it, so values and gradients keep their bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from . import kernels
from .autograd import BnState, Variable
from .errors import ShapeError


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


def dense_forward(
    x: Variable | list[Variable],
    params: DenseBlockParams,
    mode: str,
    rng: np.random.Generator | None = None,
) -> Variable:
    """Run the block on (N, H, W, c0), or on several inputs whose
    channels, side by side in order, make up c0. Train mode needs `rng`
    for dropout."""
    if mode not in ("train", "eval"):
        raise ShapeError(f"dense_forward: invalid mode {mode!r}")
    inputs = [x] if isinstance(x, Variable) else list(x)
    c0 = sum(v.data.shape[-1] for v in inputs)
    if c0 != params.in_channels:
        raise ShapeError(
            f"dense block: input has {c0} channels, expected {params.in_channels}"
        )
    buf = ag.ChannelBuffer(inputs, params.concat_channels)
    for layer in params.layers:
        h = ag.buffer_conv2d(buf, layer.conv_w, layer.conv_b)
        buf.append(ag.bn_relu_dropout(h, layer.bn_gamma, layer.bn_beta, layer.bn_state, mode,
                                      params.dropout_rate, rng, out=buf.free(params.growth)))
    return ag.buffer_conv2d(buf, params.out_w, params.out_b)
