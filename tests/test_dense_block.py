"""Dense block channel arithmetic, op order and determinism."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_concat_channels, oracle_dense_forward

from vstain import autograd as ag
from vstain import kernels as K
from vstain import network as nw
from vstain.dense_block import dense_forward, make_dense_block
from vstain.errors import ShapeError
from vstain.training import masked_cross_entropy

rng = np.random.default_rng(5)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 40), st.integers(0, 6), st.integers(1, 20))
def test_channel_arithmetic(c0, depth, growth):
    db = make_dense_block(np.random.default_rng(0), c0, depth, growth, 7)
    assert db.in_channels == c0
    assert db.concat_channels == c0 + depth * growth
    assert db.out_w.data.shape == (1, 1, c0 + depth * growth, 7)


@pytest.mark.parametrize("c0,depth,expected", [
    (32, 2, 64), (64, 4, 128), (128, 8, 256), (256, 8, 384),
])
def test_table_channel_instances(c0, depth, expected):
    db = make_dense_block(np.random.default_rng(1), c0, depth, 16, expected)
    assert db.concat_channels == expected


def test_layer_input_channels_grow_by_growth_rate():
    db = make_dense_block(np.random.default_rng(2), 10, 4, 3, 5)
    for l, layer in enumerate(db.layers):
        assert layer.conv_w.data.shape == (3, 3, 10 + l * 3, 3)


def test_depth_zero_is_bare_projection():
    db = make_dense_block(np.random.default_rng(3), 6, 0, 16, 4)
    x = rng.normal(size=(2, 5, 5, 6)).astype(np.float32)
    out = dense_forward(ag.var(x), db, "eval").data
    expected = K.conv2d(x, db.out_w.data, db.out_b.data, 1)
    assert np.array_equal(out, expected)


def test_spatial_size_preserved():
    db = make_dense_block(np.random.default_rng(4), 3, 3, 2, 5)
    for h, w in [(1, 1), (4, 7), (9, 2)]:
        x = ag.var(rng.normal(size=(1, h, w, 3)).astype(np.float32))
        assert dense_forward(x, db, "eval").data.shape == (1, h, w, 5)


def test_dense_block_holds_an_op_output_only_in_its_buffer():
    # in train mode an op output's data moves into the block's buffer; a
    # leaf keeps the caller's array
    db = make_dense_block(np.random.default_rng(6), 5, 2, 3, 4)
    r = np.random.default_rng(7)
    x = ag.var(r.normal(size=(2, 6, 6, 3)).astype(np.float32), requires_grad=True)
    w = ag.var(r.normal(size=(1, 1, 3, 2)).astype(np.float32))
    op = ag.conv2d(x, w, ag.var(np.zeros(2, np.float32)))
    leaf_array = r.normal(size=(2, 6, 6, 3)).astype(np.float32)
    leaf_values = leaf_array.copy()
    leaf = ag.var(leaf_array, requires_grad=True)
    op_values = op.data.copy()
    out = dense_forward([op, leaf], db, "train", r)
    buffer = op.data.base
    assert buffer is not None and buffer.shape == (2, 6, 6, db.concat_channels)
    assert np.array_equal(op.data, op_values)
    assert leaf.data is leaf_array and np.array_equal(leaf_array, leaf_values)
    assert np.array_equal(buffer[..., 2:5], leaf_values)
    ag.backward(ag.dot_sum(out, r.normal(size=out.data.shape)))
    assert leaf.data is leaf_array and np.array_equal(leaf_array, leaf_values)
    assert np.array_equal(op.data, op_values) and op.data.base is buffer


def test_eval_mode_deterministic():
    db = make_dense_block(np.random.default_rng(6), 4, 2, 3, 6)
    x = ag.var(rng.normal(size=(2, 6, 6, 4)).astype(np.float32))
    a = dense_forward(x, db, "eval").data
    b = dense_forward(x, db, "eval").data
    assert np.array_equal(a, b)


def test_train_mode_seeded_reproducible():
    x0 = rng.normal(size=(2, 6, 6, 4)).astype(np.float32)
    outs = []
    for _ in range(2):
        db = make_dense_block(np.random.default_rng(7), 4, 2, 3, 6)
        out = dense_forward(ag.var(x0), db, "train", np.random.default_rng(13))
        outs.append(out.data)
    assert np.array_equal(outs[0], outs[1])


def test_train_layer_records_two_tape_nodes():
    # per layer: conv and the fused batch norm/ReLU/dropout node; then the
    # block's 1x1 conv. No layer concatenates.
    db = make_dense_block(np.random.default_rng(7), 4, 2, 3, 6)
    out = dense_forward(ag.var(np.ones((1, 4, 4, 4), np.float32)), db, "train",
                        np.random.default_rng(1))
    assert sum(v._backward is not None for v in ag._topo_order(out)) == 2 * 2 + 1


def record_ops(monkeypatch):
    """Names of the tape ops recorded from now on, in call order."""
    names, make_op = [], ag.make_op

    def recording_make_op(data, parents, backward_fn):
        names.append(sys._getframe(1).f_code.co_name)
        return make_op(data, parents, backward_fn)

    monkeypatch.setattr(ag, "make_op", recording_make_op)
    return names


def test_convolutions_read_the_block_buffer_in_place(monkeypatch):
    db = make_dense_block(np.random.default_rng(8), 4, 3, 2, 5)
    conv_inputs, conv2d = [], K.conv2d

    def recording_conv2d(x, *args):
        conv_inputs.append(x)
        return conv2d(x, *args)

    monkeypatch.setattr(K, "conv2d", recording_conv2d)
    ops = record_ops(monkeypatch)
    x = ag.var(rng.normal(size=(2, 5, 5, 4)).astype(np.float32), requires_grad=True)
    out = dense_forward(x, db, "train", np.random.default_rng(2))
    assert ops == ["buffer_conv2d", "bn_relu_dropout"] * 3 + ["buffer_conv2d"]
    nodes = [v for v in ag._topo_order(out) if v._backward is not None]
    layer_outputs = [v for v in nodes if v.data.shape[3] == 2 and v.data.base is not None]
    assert len(layer_outputs) == 3
    buffer = layer_outputs[0].data.base
    assert buffer.shape == (2, 5, 5, 4 + 3 * 2)
    assert all(v.data.base is buffer for v in layer_outputs)
    assert [a.shape[3] for a in conv_inputs] == [4, 6, 8, 10]
    assert all(a.base is buffer for a in conv_inputs)


def test_default_train_forward_records_95_tape_nodes(monkeypatch):
    # 127 with a concat node per dense layer (29) and per decoder stage
    # (3); the count does not depend on the patch size
    cfg = nw.NetworkConfig(patch_size=16)
    net = nw.build(cfg, np.random.default_rng(0))
    r = np.random.default_rng(1)
    ops = record_ops(monkeypatch)
    features = nw.forward(net, ag.var(r.random((1, 16, 16, 3)).astype(np.float32)),
                          mode="train", rng=r)
    targets = r.integers(0, cfg.value_classes, size=(1, 16, 16, cfg.task_count))
    loss = masked_cross_entropy(features, net.head_w, net.head_b, targets,
                                np.ones((1, cfg.task_count), bool), cfg.value_classes)
    assert sum(v._backward is not None for v in ag._topo_order(loss)) == len(ops) == 95
    assert "concat_channels" not in " ".join(ops)


def upstream(y, g):
    """A scalar node whose backward hands y exactly g, signed zeros included."""
    def bw(_):
        y.grad = g.copy()

    return ag.make_op(np.zeros((), y.data.dtype), (y,), bw)


def run_block(forward, seed, inputs, depth, dtype, rate, skip_consumer):
    """Output, gradients, running statistics and generator state of one
    train-mode forward and backward of a fresh block."""
    c0 = sum(a.shape[3] for a in inputs)
    db = make_dense_block(np.random.default_rng(seed), c0, depth, 3, 5, rate, dtype)
    leaves = [ag.var(a.copy(), requires_grad=True) for a in inputs]
    r = np.random.default_rng(seed + 1)
    x = leaves[0] if len(leaves) == 1 else leaves
    y = forward(x, db, "train", r)
    g = np.random.default_rng(seed + 2).normal(size=y.data.shape).astype(dtype)
    g[np.random.default_rng(seed + 3).random(g.shape) < 0.3] = -0.0
    if skip_consumer:
        # the inputs also feed a later node, as a skip connection does:
        # their gradient from it arrives before the block's
        y = oracle_concat_channels([y] + leaves)
        g = np.concatenate([g] + [np.full_like(a, -0.5) for a in inputs], axis=3)
    ag.backward(upstream(y, g))
    params = [p.grad for _, p in db.param_items()]
    stats = [a for _, s in db.state_items() for a in (s.mean, s.var)]
    return [y.data] + [v.grad for v in leaves] + params + stats, r.bit_generator.state


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("depth, rate", [(0, 0.5), (1, 0.5), (3, 0.5), (3, 0.0)])
@pytest.mark.parametrize("widths", [(4,), (3, 2)])
@pytest.mark.parametrize("skip_consumer", [False, True])
def test_dense_block_matches_the_concat_chain_bitwise(dtype, depth, rate, widths,
                                                      skip_consumer):
    r = np.random.default_rng(sum(widths) + depth)
    inputs = [(r.normal(size=(2, 6, 5, c)) * 2).astype(dtype) for c in widths]
    got, got_state = run_block(dense_forward, 9, inputs, depth, dtype, rate, skip_consumer)
    want, want_state = run_block(oracle_dense_forward, 9, inputs, depth, dtype, rate,
                                 skip_consumer)
    assert got_state == want_state
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_train_mode_needs_rng_when_dropout_active():
    db = make_dense_block(np.random.default_rng(8), 4, 1, 3, 6)
    x = ag.var(np.zeros((1, 4, 4, 4), np.float32))
    with pytest.raises(ShapeError):
        dense_forward(x, db, "train")


def test_invalid_mode_rejected():
    db = make_dense_block(np.random.default_rng(9), 4, 1, 3, 6)
    with pytest.raises(ShapeError):
        dense_forward(ag.var(np.zeros((1, 4, 4, 4), np.float32)), db, "predict")


def test_channel_mismatch_rejected():
    db = make_dense_block(np.random.default_rng(10), 4, 1, 3, 6)
    with pytest.raises(ShapeError):
        dense_forward(ag.var(np.zeros((1, 4, 4, 5), np.float32)), db, "eval")


def test_gradient_check_with_dropout_off():
    db = make_dense_block(np.random.default_rng(11), 3, 2, 2, 4,
                          dropout_rate=0.0, dtype=np.float64)
    probe = np.random.default_rng(12).normal(size=(1, 4, 4, 4))
    err = ag.finite_diff_check(
        lambda v: ag.dot_sum(dense_forward(v, db, "train"), probe),
        np.random.default_rng(13).normal(size=(1, 4, 4, 3)),
    )
    assert err <= 1e-4
