"""Global pixel transformer layers.

Each layer builds a query tensor with a small generator convolution, key
and value tensors with 1x1 convolutions and computes, per batch element
and with Q, K, V the mode-3 unfoldings of the three tensors,

    O = V @ col_softmax(K^T @ Q)

so every output position is a convex combination of the value vectors at
all input positions. The generator decides the output extents:

* DOWN: 3x3 conv, stride 2  -> spatial extents halved (ceil)
* SAME: 3x3 conv, stride 1  -> spatial extents kept
* UP:   3x3 transposed conv, stride 2 -> spatial extents doubled

Key and query channel counts must match for K^T Q to be defined; the
value channel count sets the layer's output channels. There is no
attention scaling factor and no masking. Generator, key and value
convolutions all carry biases.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from . import kernels
from .autograd import Variable
from .errors import ShapeError


class GptVariant(enum.Enum):
    DOWN = "down"
    SAME = "same"
    UP = "up"


@dataclass
class GptLayerParams:
    """Weights of one global pixel transformer layer."""

    variant: GptVariant
    gen_w: Variable   # DOWN/SAME: (3,3,Cin,Cq) conv; UP: (3,3,Cin,Cq) transposed conv
    gen_b: Variable
    key_w: Variable   # (1,1,Cin,Ck)
    key_b: Variable
    value_w: Variable  # (1,1,Cin,Cv)
    value_b: Variable

    def __post_init__(self):
        if self.key_w.data.shape[3] != self.gen_w.data.shape[3]:
            raise ShapeError(
                f"gpt layer: key channels {self.key_w.data.shape[3]} must equal "
                f"query channels {self.gen_w.data.shape[3]}"
            )

    @property
    def in_channels(self) -> int:
        return self.gen_w.data.shape[2]

    @property
    def out_channels(self) -> int:
        return self.value_w.data.shape[3]

    def param_items(self) -> list[tuple[str, Variable]]:
        """(name suffix, parameter) pairs in checkpoint order."""
        return [("gen.w", self.gen_w), ("gen.b", self.gen_b),
                ("key.w", self.key_w), ("key.b", self.key_b),
                ("value.w", self.value_w), ("value.b", self.value_b)]

    def state_items(self) -> list:
        """Transformer layers keep no running state."""
        return []


def default_value_channels(variant: GptVariant, c_in: int) -> int:
    """DOWN/SAME keep the channel count; UP halves it (ceil)."""
    if variant is GptVariant.UP:
        return -(-c_in // 2)
    return c_in


def make_gpt_layer(
    rng: np.random.Generator,
    c_in: int,
    variant: GptVariant,
    qk_channels: int | None = None,
    dtype=np.float32,
) -> GptLayerParams:
    """Allocate and He-initialise one layer's parameters."""
    c_qk = qk_channels if qk_channels is not None else max(c_in // 2, 1)
    c_v = default_value_channels(variant, c_in)

    def conv_param(shape):
        return (ag.var(kernels.he_init(rng, shape, dtype), requires_grad=True),
                ag.var(np.zeros(shape[3], dtype=dtype), requires_grad=True))

    gen_w, gen_b = conv_param((3, 3, c_in, c_qk))
    key_w, key_b = conv_param((1, 1, c_in, c_qk))
    value_w, value_b = conv_param((1, 1, c_in, c_v))
    return GptLayerParams(variant, gen_w, gen_b, key_w, key_b, value_w, value_b)


def gpt_forward(x: Variable, params: GptLayerParams) -> Variable:
    """Apply one layer to (N, H, W, Cin); returns (N, Hq, Wq, Cv).

    Attention runs per batch element; there is no cross-batch mixing.
    """
    if x.data.shape[3] != params.in_channels:
        raise ShapeError(
            f"gpt layer: input has {x.data.shape[3]} channels, "
            f"params expect {params.in_channels}"
        )
    if params.variant is GptVariant.DOWN:
        q = ag.conv2d(x, params.gen_w, params.gen_b, stride=2)
    elif params.variant is GptVariant.SAME:
        q = ag.conv2d(x, params.gen_w, params.gen_b, stride=1)
    else:
        q = ag.deconv2d(x, params.gen_w, params.gen_b)
    k = ag.conv2d(x, params.key_w, params.key_b, stride=1)
    v = ag.conv2d(x, params.value_w, params.value_b, stride=1)

    return ag.attention(q, k, v)
