"""Transformer layer behaviour against independent scalar oracles."""

import numpy as np
import pytest
from oracles import oracle_attention, oracle_gpt_layer

from vstain import autograd as ag
from vstain.errors import ShapeError
from vstain.gpt_layer import (GptLayerParams, GptVariant,
                              default_value_channels, gpt_forward,
                              make_gpt_layer)

rng = np.random.default_rng(42)


# ---------------------------------------------------------------------------
# attention on mode-3 matrices: q (C, m), k (C, n), v (Cv, n) -> (Cv, m)
# ---------------------------------------------------------------------------

def attention_core(q, k, v):
    """ag.attention on (1, 1, positions, channels) tensors built from matrices."""
    def as_row(m):
        m = np.asarray(m)
        return ag.var(m.T.reshape(1, 1, m.shape[1], m.shape[0]))

    out = ag.attention(as_row(q), as_row(k), as_row(v)).data
    return out.reshape(out.shape[2], out.shape[3]).T


def test_identical_keys_average_values():
    q = rng.normal(size=(3, 4))
    k = np.repeat(rng.normal(size=(3, 1)), 5, axis=1)
    v = rng.normal(size=(2, 5))
    out = attention_core(q, k, v)
    assert np.allclose(out, np.repeat(v.mean(axis=1, keepdims=True), 4, axis=1))


def test_single_position_returns_value():
    q = rng.normal(size=(2, 3))
    k = rng.normal(size=(2, 1))
    v = rng.normal(size=(4, 1))
    out = attention_core(q, k, v)
    assert np.allclose(out, np.repeat(v, 3, axis=1))


def test_scalar_softmax_oracle():
    q = np.array([[0.0, 1.0]])
    k = np.array([[0.0, 1.0]])
    v = np.array([[10.0, 20.0]])
    out = attention_core(q, k, v)
    # query 0: scores [0, 0] -> weights [1/2, 1/2]
    assert np.allclose(out[0, 0], 15.0)
    # query 1: scores [0, 1] -> weights [1, e]/(1 + e)
    sig = np.exp(1.0) / (1.0 + np.exp(1.0))
    assert np.allclose(out[0, 1], 10.0 * (1 - sig) + 20.0 * sig)
    assert np.allclose(out, oracle_attention(q, k, v))


def test_attention_core_dimension_checks():
    with pytest.raises(ShapeError):
        attention_core(np.zeros((3, 2)), np.zeros((2, 4)), np.zeros((5, 4)))
    with pytest.raises(ShapeError):
        attention_core(np.zeros((2, 2)), np.zeros((2, 4)), np.zeros((5, 3)))


def test_position_pair_permutation_invariance():
    q = rng.normal(size=(3, 6))
    k = rng.normal(size=(3, 5))
    v = rng.normal(size=(2, 5))
    perm = rng.permutation(5)
    base = attention_core(q, k, v)
    permuted = attention_core(q, k[:, perm], v[:, perm])
    assert np.allclose(base, permuted, atol=1e-6)


def test_output_in_convex_hull_of_values():
    for trial in range(20):
        r = np.random.default_rng(trial)
        q = r.normal(size=(2, 7)) * 3
        k = r.normal(size=(2, 6)) * 3
        v = r.normal(size=(3, 6))
        out = attention_core(q, k, v)
        for c in range(3):
            assert out[c].min() >= v[c].min() - 1e-6
            assert out[c].max() <= v[c].max() + 1e-6


# ---------------------------------------------------------------------------
# full layers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", list(GptVariant))
def test_layer_matches_scalar_oracle(variant):
    for trial in range(8):
        r = np.random.default_rng(trial * 7 + 1)
        h, w = r.integers(1, 9, size=2)
        cin = int(r.integers(1, 5))
        x = r.normal(size=(2, h, w, cin)).astype(np.float32)
        layer = make_gpt_layer(r, cin, variant)
        out = gpt_forward(ag.var(x), layer).data
        for bi in range(2):
            expected = oracle_gpt_layer(x[bi].astype(np.float64), layer)
            assert out[bi].shape == expected.shape
            assert np.allclose(out[bi], expected, atol=1e-5)


@pytest.mark.parametrize("variant,expected", [
    (GptVariant.DOWN, (8, 8)),
    (GptVariant.SAME, (16, 16)),
    (GptVariant.UP, (32, 32)),
])
def test_layer_spatial_law_16(variant, expected):
    layer = make_gpt_layer(np.random.default_rng(0), 4, variant)
    x = ag.var(np.zeros((1, 16, 16, 4), np.float32))
    assert gpt_forward(x, layer).data.shape[1:3] == expected


def test_shape_law_all_sizes_1_to_16():
    # DOWN halves (ceil), SAME keeps, UP doubles each spatial extent
    extents = {GptVariant.DOWN: lambda e: -(-e // 2),
               GptVariant.SAME: lambda e: e,
               GptVariant.UP: lambda e: 2 * e}
    for variant, extent in extents.items():
        layer = make_gpt_layer(np.random.default_rng(1), 2, variant)
        for h in range(1, 17):
            for w in (1, h, 16):
                out = gpt_forward(ag.var(np.zeros((1, h, w, 2), np.float32)), layer)
                assert out.data.shape[1:3] == (extent(h), extent(w))


def test_down_layer_table_channels():
    # 128x128x64 input, value channels 64 -> 64x64x64
    layer = make_gpt_layer(np.random.default_rng(2), 64, GptVariant.DOWN)
    x = ag.var(np.zeros((1, 128, 128, 64), np.float32))
    assert gpt_forward(x, layer).data.shape == (1, 64, 64, 64)


def test_constant_value_features_dominate():
    # value conv producing one shared vector -> output equals it everywhere
    r = np.random.default_rng(3)
    layer = make_gpt_layer(r, 3, GptVariant.SAME)
    layer.value_w.data = np.zeros_like(layer.value_w.data)
    vec = r.normal(size=layer.out_channels).astype(np.float32)
    layer.value_b.data = vec
    x = ag.var(r.normal(size=(1, 5, 5, 3)).astype(np.float32))
    out = gpt_forward(x, layer).data
    assert np.allclose(out, vec, atol=1e-6)


def test_global_sensitivity_of_same_layer():
    # one perturbed input position moves every output position
    r = np.random.default_rng(4)
    layer = make_gpt_layer(r, 2, GptVariant.SAME)
    x0 = r.normal(size=(1, 4, 4, 2)).astype(np.float32)
    base = gpt_forward(ag.var(x0), layer).data
    x1 = x0.copy()
    x1[0, 2, 3, 0] += 0.5
    moved = gpt_forward(ag.var(x1), layer).data
    delta = np.abs(moved - base).sum(axis=-1)[0]
    assert np.all(delta > 0)


def test_global_sensitivity_gradient_probe():
    # gradient of each single output position is nonzero at every input position
    r = np.random.default_rng(5)
    layer = make_gpt_layer(r, 2, GptVariant.SAME)
    x0 = r.normal(size=(1, 3, 3, 2))
    for oi in range(3):
        for oj in range(3):
            x = ag.var(x0.copy(), requires_grad=True)
            probe = np.zeros((1, 3, 3, layer.out_channels))
            probe[0, oi, oj] = 1.0
            ag.backward(ag.dot_sum(gpt_forward(x, layer), probe))
            assert np.all(np.abs(x.grad).sum(axis=-1) > 0)


def test_layer_records_one_attention_node_without_weight_matrix():
    r = np.random.default_rng(8)
    layer = make_gpt_layer(r, 2, GptVariant.DOWN)
    x = ag.var(r.normal(size=(1, 8, 6, 2)).astype(np.float32), requires_grad=True)
    out = gpt_forward(x, layer)
    n_keys, n_queries = 8 * 6, 4 * 3
    nodes = [node for node in ag._topo_order(out) if node._backward is not None]
    # three convolutions (query generator, key, value) and the attention op
    assert len(nodes) == 4
    assert sum("attention" in node._backward.__qualname__ for node in nodes) == 1
    for node in nodes:
        for cell in node._backward.__closure__ or ():
            held = cell.cell_contents
            held = held.data if isinstance(held, ag.Variable) else held
            if isinstance(held, np.ndarray):
                assert held.size != n_keys * n_queries


def test_qk_channel_equality_enforced():
    r = np.random.default_rng(6)
    good = make_gpt_layer(r, 4, GptVariant.SAME)
    with pytest.raises(ShapeError):
        GptLayerParams(GptVariant.SAME, good.gen_w, good.gen_b,
                       ag.var(np.zeros((1, 1, 4, 3), np.float32)),
                       ag.var(np.zeros(3, np.float32)),
                       good.value_w, good.value_b)


def test_input_channel_mismatch():
    layer = make_gpt_layer(np.random.default_rng(7), 4, GptVariant.SAME)
    with pytest.raises(ShapeError):
        gpt_forward(ag.var(np.zeros((1, 4, 4, 3), np.float32)), layer)


def test_default_channel_rules():
    assert default_value_channels(GptVariant.DOWN, 64) == 64
    assert default_value_channels(GptVariant.SAME, 384) == 384
    assert default_value_channels(GptVariant.UP, 384) == 192
    assert default_value_channels(GptVariant.UP, 165) == 83
