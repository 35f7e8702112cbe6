"""Tape semantics, backward contracts, and the finite-difference oracle."""

import numpy as np
import pytest

from vstain import autograd as ag
from vstain.errors import ShapeError, VstainError

rng = np.random.default_rng(99)


def test_backward_of_sum_is_ones():
    x = ag.var(rng.normal(size=(3, 4)), requires_grad=True)
    ag.backward(ag.sum_all(x))
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_of_half_square_sum_is_identity():
    x = ag.var(rng.normal(size=(2, 5)), requires_grad=True)
    ag.backward(ag.scale(ag.sum_all(ag.mul(x, x)), 0.5))
    assert np.allclose(x.grad, x.data)


def test_softmax_weighted_sum_matches_finite_differences():
    w = rng.normal(size=(3, 2))
    err = ag.finite_diff_check(
        lambda v: ag.dot_sum(ag.col_softmax(v), w),
        rng.normal(size=(3, 2)), h=1e-5,
    )
    assert err <= 1e-4


def test_finite_diff_linear_function_exact():
    w = rng.normal(size=(4,))
    err = ag.finite_diff_check(lambda v: ag.dot_sum(v, w), rng.normal(size=(4,)))
    assert err <= 1e-9


def test_finite_diff_softmax_vector():
    w = rng.normal(size=(4, 1))
    err = ag.finite_diff_check(
        lambda v: ag.dot_sum(ag.col_softmax(v), w), rng.normal(size=(4, 1)))
    assert err <= 1e-4


def test_finite_diff_dead_coordinate():
    # second coordinate never reaches the output
    weights = np.array([1.0, 0.0, 2.0])
    err = ag.finite_diff_check(lambda v: ag.dot_sum(v, weights), rng.normal(size=(3,)))
    assert err <= 1e-9


def test_non_scalar_loss_rejected():
    x = ag.var(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        ag.backward(ag.relu(x))


def test_graph_consumed_once():
    x = ag.var(np.ones(3), requires_grad=True)
    loss = ag.sum_all(x)
    ag.backward(loss)
    with pytest.raises(VstainError):
        ag.backward(loss)


def test_unused_leaf_keeps_zero_gradient():
    used = ag.var(rng.normal(size=(2,)), requires_grad=True)
    unused = ag.var(rng.normal(size=(2,)), requires_grad=True)
    ag.zero_grad([used, unused])
    ag.backward(ag.sum_all(used))
    assert np.array_equal(ag.grad_of(unused), np.zeros(2))
    assert np.array_equal(used.grad, np.ones(2))


def test_identical_tapes_identical_gradients():
    x0 = rng.normal(size=(3, 3))
    w = rng.normal(size=(3, 3))
    grads = []
    for _ in range(2):
        x = ag.var(x0.copy(), requires_grad=True)
        out = ag.dot_sum(ag.col_softmax(ag.matmul(x, ag.var(w))), w)
        ag.backward(out)
        grads.append(x.grad.copy())
    assert np.array_equal(grads[0], grads[1])


def test_dropout_replay_with_same_seed_is_bitwise():
    x = ag.var(rng.normal(size=(4, 4)).astype(np.float32))
    a = ag.dropout(x, 0.5, np.random.default_rng(3)).data
    b = ag.dropout(x, 0.5, np.random.default_rng(3)).data
    assert np.array_equal(a, b)


def test_dropout_eval_scale():
    # inverted dropout: kept entries scale by 1 / (1 - rate)
    x = ag.var(np.ones((1000,)))
    out = ag.dropout(x, 0.5, np.random.default_rng(5)).data
    kept = out[out != 0]
    assert np.allclose(kept, 2.0)
    assert 300 < kept.size < 700


def test_no_grad_suppresses_tape():
    x = ag.var(np.ones(3), requires_grad=True)
    with ag.no_grad():
        out = ag.sum_all(x)
    assert out._backward is None and not out.requires_grad


def test_batch_norm_train_updates_running_stats():
    state = ag.BnState.create(2)
    x = ag.var(rng.normal(size=(2, 3, 3, 2)).astype(np.float32) * 3 + 1)
    gamma = ag.var(np.ones(2, np.float32))
    beta = ag.var(np.zeros(2, np.float32))
    out = ag.batch_norm(x, gamma, beta, state, "train")
    assert not np.allclose(state.mean, 0)
    # train-mode output is standardised per channel
    assert np.allclose(out.data.mean(axis=(0, 1, 2)), 0, atol=1e-5)
    assert np.allclose(out.data.var(axis=(0, 1, 2)), 1, atol=1e-3)


def test_batch_norm_eval_uses_running_stats():
    state = ag.BnState.create(1)
    state.mean[:] = 4.0
    state.var[:] = 9.0
    x = ag.var(np.full((1, 2, 2, 1), 7.0, np.float32))
    out = ag.batch_norm(x, ag.var(np.ones(1, np.float32)),
                        ag.var(np.zeros(1, np.float32)), state, "eval")
    assert np.allclose(out.data, (7.0 - 4.0) / np.sqrt(9.0 + 1e-5), atol=1e-6)


def _attention_with_grads(q, k, v, probe):
    qv, kv, vv = (ag.var(a.copy(), requires_grad=True) for a in (q, k, v))
    out = ag.attention(qv, kv, vv)
    ag.backward(ag.dot_sum(out, probe))
    return out.data, qv.grad, kv.grad, vv.grad


def test_attention_blocks_agree_with_one_block(monkeypatch):
    r = np.random.default_rng(21)
    q = r.normal(size=(2, 3, 5, 4))   # 15 queries
    k = r.normal(size=(2, 4, 3, 4))   # 12 keys
    v = r.normal(size=(2, 4, 3, 3))
    probe = r.normal(size=(2, 3, 5, 3))
    monkeypatch.setattr(ag, "ATTENTION_BLOCK_SCORES", 10**9)
    single = _attention_with_grads(q, k, v, probe)
    monkeypatch.setattr(ag, "ATTENTION_BLOCK_SCORES", 4 * 12)  # blocks 4, 4, 4, 3
    chunked = _attention_with_grads(q, k, v, probe)
    again = _attention_with_grads(q, k, v, probe)
    for a, b, c in zip(single, chunked, again):
        assert np.allclose(a, b, rtol=0, atol=1e-12)
        assert np.array_equal(b, c)


def test_attention_shape_checks():
    q = ag.var(np.zeros((1, 2, 2, 3)))
    k = ag.var(np.zeros((1, 3, 3, 3)))
    v = ag.var(np.zeros((1, 3, 3, 2)))
    ag.attention(q, k, v)
    with pytest.raises(ShapeError):
        ag.attention(ag.var(np.zeros((1, 2, 2, 4))), k, v)
    with pytest.raises(ShapeError):
        ag.attention(q, k, ag.var(np.zeros((1, 3, 2, 2))))
    with pytest.raises(ShapeError):
        ag.attention(ag.var(np.zeros((2, 2, 2, 3))), k, v)
    with pytest.raises(ShapeError):
        ag.attention(ag.var(np.zeros((4, 3))), k, v)
