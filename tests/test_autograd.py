"""Tape semantics, backward contracts, and the finite-difference oracle."""

import inspect
import sys
import weakref

import numpy as np
import pytest

from vstain import autograd as ag
from vstain import network as nw
from vstain.errors import ShapeError, VstainError
from vstain.training import masked_cross_entropy

rng = np.random.default_rng(99)


def test_backward_of_sum_is_ones():
    x = ag.var(rng.normal(size=(3, 4)), requires_grad=True)
    ag.backward(ag.dot_sum(x, np.ones((3, 4))))
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_of_half_square_sum_is_identity():
    # a caller-defined op: make_op records it like any built-in one
    x = ag.var(rng.normal(size=(2, 5)), requires_grad=True)
    half_square = ag.make_op(0.5 * (x.data * x.data).sum(), (x,),
                             lambda g: ag.accumulate(x, g * x.data))
    ag.backward(half_square)
    assert np.allclose(x.grad, x.data)


def test_finite_diff_linear_function_exact():
    w = rng.normal(size=(4,))
    err = ag.finite_diff_check(lambda v: ag.dot_sum(v, w), rng.normal(size=(4,)))
    assert err <= 1e-9


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
    loss = ag.dot_sum(ag.relu(x), np.ones(3))
    ag.backward(loss)
    with pytest.raises(VstainError):
        ag.backward(loss)


def test_unused_leaf_keeps_zero_gradient():
    used = ag.var(rng.normal(size=(2,)), requires_grad=True)
    unused = ag.var(rng.normal(size=(2,)), requires_grad=True)
    ag.zero_grad([used, unused])
    ag.backward(ag.dot_sum(used, np.ones(2)))
    assert np.array_equal(ag.grad_of(unused), np.zeros(2))
    assert np.array_equal(used.grad, np.ones(2))


def test_identical_tapes_identical_gradients():
    x0 = rng.normal(size=(1, 3, 3, 2))
    k = rng.normal(size=(1, 3, 3, 2))
    w = rng.normal(size=(1, 3, 3, 2))
    grads = []
    for _ in range(2):
        x = ag.var(x0.copy(), requires_grad=True)
        out = ag.dot_sum(ag.attention(x, ag.var(k), ag.var(w)), w)
        ag.backward(out)
        grads.append(x.grad.copy())
    assert np.array_equal(grads[0], grads[1])


def test_backward_releases_every_interior_node():
    # a training step's tape: after backward only leaves hold gradients, and
    # the caller's features no longer keep the trunk's activations alive
    cfg = nw.NetworkConfig.tiny()
    net = nw.build(cfg, np.random.default_rng(0))
    r = np.random.default_rng(2)
    p = cfg.patch_size
    x = ag.var(r.random((2, p, p, 3)).astype(np.float32))
    features = nw.forward(net, x, mode="train", rng=r)
    targets = r.integers(0, cfg.value_classes, size=(2, p, p, cfg.task_count))
    loss = masked_cross_entropy(features, net.head_w, net.head_b, targets,
                                np.array([[True, False], [True, True]]), cfg.value_classes)
    interior = [node for node in ag._topo_order(loss) if node._backward is not None]
    activation = weakref.ref(interior[0].data)  # the stem convolution's output
    params = net.named_parameters()
    ag.zero_grad(params.values())
    ag.backward(loss)
    assert len(interior) > 50
    assert all(node.grad is None and node._backward is None and node._parents == ()
               for node in interior)
    assert np.any(net.stem_w.grad) and np.any(net.head_w.grad)
    del interior, loss
    assert activation() is None
    assert features.data.shape == (2, p, p, cfg.decoder_channels[-1])


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
        out = ag.dot_sum(x, np.ones(3))
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


def test_every_tape_op_is_recorded_by_a_training_step(monkeypatch):
    # an op no training step records is dead weight on the tape; dot_sum
    # is the gradient checks' scalar probe
    recorded = set()
    make_op = ag.make_op

    def recording_make_op(data, parents, backward_fn):
        recorded.add(sys._getframe(1).f_code.co_name)
        return make_op(data, parents, backward_fn)

    ops = {name for name, fn in vars(ag).items()
           if inspect.isfunction(fn) and fn.__module__ == ag.__name__
           and name != "make_op" and "make_op" in fn.__code__.co_names}
    monkeypatch.setattr(ag, "make_op", recording_make_op)
    cfg = nw.NetworkConfig.tiny()
    net = nw.build(cfg, np.random.default_rng(0))
    r = np.random.default_rng(1)
    p = cfg.patch_size
    x = ag.var(r.random((2, p, p, 3)).astype(np.float32))
    features = nw.forward(net, x, mode="train", rng=r)
    targets = r.integers(0, cfg.value_classes, size=(2, p, p, cfg.task_count))
    mask = np.ones((2, cfg.task_count), bool)
    ag.backward(masked_cross_entropy(features, net.head_w, net.head_b, targets, mask,
                                     cfg.value_classes))
    assert {"attention", "conv2d", "deconv2d", "dropout"} <= ops
    assert sorted(ops - recorded - {"dot_sum"}) == []
