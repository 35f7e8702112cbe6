"""Dense block channel arithmetic, op order and determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vstain import autograd as ag
from vstain import kernels as K
from vstain.dense_block import dense_forward, make_dense_block
from vstain.errors import ShapeError

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


def test_train_layer_records_three_tape_nodes():
    # per layer: conv, the fused batch norm/ReLU/dropout node, concat;
    # then the block's 1x1 conv
    db = make_dense_block(np.random.default_rng(7), 4, 2, 3, 6)
    out = dense_forward(ag.var(np.ones((1, 4, 4, 4), np.float32)), db, "train",
                        np.random.default_rng(1))
    assert sum(v._backward is not None for v in ag._topo_order(out)) == 2 * 3 + 1


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
