"""Tape semantics, backward contracts, and the finite-difference oracle."""

import importlib
import inspect
import os
import pkgutil
import signal
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from oracles import (bn_relu_dropout_node, closure_arrays, oracle_attention,
                     oracle_attention_grads, oracle_bn_relu_dropout, oracle_concat_channels)

import vstain
from vstain import autograd as ag
from vstain import kernels as K
from vstain import network as nw
from vstain.dense_block import BnState, bn_relu_dropout
from vstain.errors import NumericError, ShapeError, VstainError
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
    x = ag.var(np.zeros((1, 2, 2, 1)), requires_grad=True)
    with pytest.raises(ShapeError):
        ag.backward(oracle_concat_channels([x, x]))


def test_graph_consumed_once():
    x = ag.var(np.ones(3), requires_grad=True)
    loss = ag.dot_sum(x, np.ones(3))
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


def test_zero_grad_allocates_nothing_until_a_gradient_arrives():
    leaves = [ag.var(rng.normal(size=(3,)), requires_grad=True) for _ in range(2)]
    for v in leaves:
        v.grad = np.ones(3)
    ag.zero_grad(leaves)
    assert all(v.grad is None for v in leaves)
    ag.backward(ag.dot_sum(leaves[0], np.full(3, 2.0)))
    assert np.array_equal(leaves[0].grad, np.full(3, 2.0))
    assert leaves[1].grad is None  # never reached
    assert np.array_equal(ag.grad_of(leaves[1]), np.zeros(3))


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
    assert len(interior) == 37  # each of the 7 dense blocks is one node
    assert all(node.grad is None and node._backward is None and node._parents == ()
               for node in interior)
    assert np.any(net.stem_w.grad) and np.any(net.head_w.grad)
    del interior, loss
    assert activation() is None
    assert features.data.shape == (2, p, p, cfg.decoder_channels[-1])


def fused_layer(x, mode="train", rate=0.5, seed=4, state=None, gamma=1.0, beta=0.0):
    """bn_relu_dropout with constant gamma and beta; returns (output, backward)."""
    c = x.shape[3]
    state = state or BnState.create(c, x.dtype)
    return bn_relu_dropout(x, np.full(c, gamma, x.dtype), np.full(c, beta, x.dtype), state,
                           mode, rate, np.random.default_rng(seed))


def test_dropout_replay_with_same_seed_is_bitwise():
    x = rng.normal(size=(1, 4, 4, 2)).astype(np.float32)
    a = fused_layer(x, seed=3)[0]
    b = fused_layer(x, seed=3)[0]
    assert np.array_equal(a, b)


def test_bn_relu_dropout_tape_keeps_no_activation_sized_array():
    # backward keeps its input, the output and per-channel statistics,
    # never the normalised input, the batch-norm or ReLU output or the
    # keep-mask
    shape = (2, 8, 8, 4)
    x = np.random.default_rng(3).normal(size=shape).astype(np.float32)
    y, bw = fused_layer(x, rate=0.3)
    held = closure_arrays(bw)
    assert any(a is y for a in held) and any(a is x for a in held)
    assert all(a is y or a is x or a.size <= shape[3] for a in held)


def test_dropout_eval_scale():
    # inverted dropout: kept entries scale by 1 / (1 - rate), exactly
    x = np.random.default_rng(6).normal(size=(1, 10, 100, 1))
    plain = fused_layer(x, rate=0.0, beta=5.0)[0]
    out = fused_layer(x, rate=0.5, beta=5.0, seed=5)[0]
    kept = out != 0
    assert np.all(plain > 0) and np.array_equal(out[kept], 2.0 * plain[kept])
    assert 300 < np.count_nonzero(kept) < 700


def upstream(y, g):
    """A scalar node whose backward hands y exactly g, signed zeros included
    (accumulate's zeroed buffer would turn -0.0 into +0.0)."""
    def bw(_):
        y.grad = g.copy()

    return ag.make_op(np.zeros((), y.data.dtype), (y,), bw)


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [0.0, 0.5, 0.3])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_bn_relu_dropout_matches_the_unfused_chain_bitwise(mode, rate, dtype):
    r = np.random.default_rng(8)
    shape = (2, 5, 6, 3)
    x = (r.normal(size=shape) * 2 + 0.3).astype(dtype)
    gamma = (r.normal(size=3) + 1.0).astype(dtype)
    beta = r.normal(size=3).astype(dtype)
    # the upstream gradient holds -0.0 and +0.0, and negatives where the mask cuts
    g = r.normal(size=shape).astype(dtype)
    g[r.random(shape) < 0.2] = -0.0
    g[r.random(shape) < 0.1] = 0.0
    results = []
    for op in (bn_relu_dropout_node, oracle_bn_relu_dropout):
        state = BnState(mean=np.full(3, 0.2, dtype), var=np.full(3, 1.7, dtype))
        leaves = [ag.var(a.copy(), requires_grad=True) for a in (x, gamma, beta)]
        draws = np.random.default_rng(11)
        y = op(*leaves, state, mode, rate, draws)
        ag.backward(upstream(y, g))
        results.append([y.data, *(v.grad for v in leaves), state.mean, state.var,
                        draws.random(2)])
    fused, chain = results
    assert np.count_nonzero(fused[0] == 0) and np.count_nonzero(fused[0] > 0)
    assert np.signbit(chain[1]).any() and not np.signbit(chain[1][chain[1] == 0]).any()
    for a, b in zip(fused, chain):
        assert_same_bits(a, b)


def test_bn_relu_dropout_rejects_bad_arguments():
    x = np.zeros((1, 2, 2, 1), np.float32)
    with pytest.raises(ShapeError, match="mode"):
        fused_layer(x, mode="predict")
    with pytest.raises(ShapeError, match="rate"):
        fused_layer(x, rate=1.0)
    c = np.ones(1, np.float32)
    with pytest.raises(ShapeError, match="rng"):
        bn_relu_dropout(x, c, c, BnState.create(1), "train", 0.5, None)
    # eval mode drops nothing, so it needs no generator
    bn_relu_dropout(x, c, c, BnState.create(1), "eval", 0.5, None)


def test_batch_norm_uses_the_documented_momentum_and_epsilon():
    # README: "batch norm uses momentum 0.9 and epsilon 1e-5"; channel 1's
    # batch variance is 1e-4, so a change of epsilon moves its output
    x = np.stack([np.linspace(-2.0, 3.0, 8), 0.01 + 0.01 * np.resize([-1.0, 1.0], 8)],
                 axis=-1).reshape(2, 2, 2, 2)
    mean, var = x.mean(axis=(0, 1, 2)), x.var(axis=(0, 1, 2))
    assert np.isclose(var[1], 1e-4)
    gamma, beta = np.array([1.5, 0.5]), np.array([0.25, 0.1])
    state = BnState.create(2, np.float64)
    out = bn_relu_dropout(x, gamma, beta, state, "train", 0.0, None)[0]
    assert np.allclose(state.mean, 0.9 * 0.0 + 0.1 * mean, rtol=1e-12, atol=0)
    assert np.allclose(state.var, 0.9 * 1.0 + 0.1 * var, rtol=1e-12, atol=0)
    expected = np.maximum(gamma * (x - mean) / np.sqrt(var + 1e-5) + beta, 0)
    assert np.allclose(out, expected, rtol=1e-12, atol=1e-15)
    assert (out > 0).any() and (out == 0).any()


def test_no_grad_suppresses_tape():
    x = ag.var(np.ones(3), requires_grad=True)
    with ag.no_grad():
        out = ag.dot_sum(x, np.ones(3))
    assert out._backward is None and not out.requires_grad


def test_grad_mode_is_per_thread():
    # thread a enters no_grad, then b, then a leaves, then b: a flag
    # shared by all threads would end switched off
    leaf = ag.var(np.ones(3), requires_grad=True)
    entered, both_in, a_left = (threading.Barrier(3, timeout=60) for _ in range(3))
    records = {}

    def a():
        with ag.no_grad():
            entered.wait()
            both_in.wait()
            records["a"] = ag.dot_sum(leaf, np.ones(3)).requires_grad
        a_left.wait()

    def b():
        entered.wait()
        with ag.no_grad():
            both_in.wait()
            records["b"] = ag.dot_sum(leaf, np.ones(3)).requires_grad
            a_left.wait()

    threads = [threading.Thread(target=a), threading.Thread(target=b)]
    for t in threads:
        t.start()
    entered.wait()
    both_in.wait()
    records["caller, both inside"] = ag.dot_sum(leaf, np.ones(3)).requires_grad
    a_left.wait()
    for t in threads:
        t.join()
    out = ag.dot_sum(leaf, np.ones(3))
    assert out.requires_grad and out._backward is not None
    assert records == {"a": False, "b": False, "caller, both inside": True}


def test_batch_norm_train_updates_running_stats():
    state = BnState.create(2)
    x = rng.normal(size=(2, 3, 3, 2)).astype(np.float32) * 3 + 1
    # beta 10 lifts every standardised value clear of the ReLU
    out = fused_layer(x, rate=0.0, state=state, beta=10.0)[0]
    assert not np.allclose(state.mean, 0)
    # train-mode output is standardised per channel
    assert np.allclose(out.mean(axis=(0, 1, 2)), 10, atol=1e-5)
    assert np.allclose(out.var(axis=(0, 1, 2)), 1, atol=1e-3)


def test_batch_norm_eval_uses_running_stats():
    state = BnState.create(1)
    state.mean[:] = 4.0
    state.var[:] = 9.0
    x = np.full((1, 2, 2, 1), 7.0, np.float32)
    out = fused_layer(x, mode="eval", state=state)[0]
    assert np.allclose(out, (7.0 - 4.0) / np.sqrt(9.0 + 1e-5), atol=1e-6)
    assert state.mean[0] == 4.0 and state.var[0] == 9.0


def _attention_with_grads(q, k, v, probe, block_scores=ag.ATTENTION_BLOCK_SCORES):
    qv, kv, vv = (ag.var(a.copy(), requires_grad=True) for a in (q, k, v))
    out = ag.attention(qv, kv, vv, block_scores)
    ag.backward(ag.dot_sum(out, probe))
    return out.data, qv.grad, kv.grad, vv.grad


def test_attention_blocks_agree_with_one_block():
    r = np.random.default_rng(21)
    q = r.normal(size=(2, 3, 5, 4))   # 15 queries
    k = r.normal(size=(2, 4, 3, 4))   # 12 keys
    v = r.normal(size=(2, 4, 3, 3))
    probe = r.normal(size=(2, 3, 5, 3))
    single = _attention_with_grads(q, k, v, probe, 10**9)
    chunked = _attention_with_grads(q, k, v, probe, 4 * 12)  # blocks 4, 4, 4, 3
    again = _attention_with_grads(q, k, v, probe, 4 * 12)
    for a, b, c in zip(single, chunked, again):
        assert np.allclose(a, b, rtol=0, atol=1e-12)
        assert np.array_equal(b, c)


def attention_case(seed, n=1, queries=(10, 10), keys=(8, 8), c=4, cv=3,
                   scale=1.0, dtype=np.float64):
    r = np.random.default_rng(seed)
    q = (r.normal(size=(n, *queries, c)) * scale).astype(dtype)
    k = (r.normal(size=(n, *keys, c)) * scale).astype(dtype)
    v = r.normal(size=(n, *keys, cv)).astype(dtype)
    return q, k, v, r.normal(size=(n, *queries, cv)).astype(dtype)


# 64 keys: blocks of 16 queries, so every case's 100 queries make six
# full blocks and a ragged one of 4
SMALL_BLOCK = 64 * 16


def with_workers(use_pool, workers, case):
    """Attention and its gradients in blocks of SMALL_BLOCK scores, on a
    new pool of `workers` threads."""
    use_pool(workers=workers)
    return _attention_with_grads(*case, SMALL_BLOCK)


@pytest.mark.parametrize("name, case", [
    ("batch 2, float64", dict(n=2)),
    ("float32", dict(dtype=np.float32)),
    ("subnormal tail", dict(scale=8.0, dtype=np.float32)),
])
def test_pooled_attention_bits_do_not_depend_on_worker_count(use_pool, name, case):
    case = attention_case(3, **case)
    if name == "subnormal tail":
        # unflushed, the first block's weights would hold subnormals
        scores = case[1].reshape(-1, 4) @ case[0].reshape(-1, 4)[:16].T
        e = np.exp(scores - scores.max(axis=0))
        assert np.count_nonzero((e > 0) & (e < np.finfo(np.float32).tiny)) > 0
    serial = with_workers(use_pool, 1, case)
    assert ag.pool.executor is None
    pooled = with_workers(use_pool, 2, case)
    assert ag.pool.executor is not None
    for a, b in zip(serial, pooled):
        assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def test_layer_under_two_blocks_of_scores_runs_inline(use_pool):
    case = attention_case(4, queries=(4, 7))  # 28 x 64 scores: under two blocks
    serial = with_workers(use_pool, 1, case)
    inline = with_workers(use_pool, 2, case)
    assert ag.pool.executor is None
    for a, b in zip(serial, inline):
        assert np.array_equal(a, b)


def test_numeric_error_in_a_worker_reaches_the_caller(use_pool):
    pool = use_pool(workers=2)
    q, k, v, probe = attention_case(5)
    bad = q.copy()
    bad[0, 9, 9, 0] = np.nan  # the last query: the ragged block's scores
    with pytest.raises(NumericError):
        ag.attention(ag.var(bad), ag.var(k), ag.var(v), SMALL_BLOCK)
    assert pool.executor is not None
    after = _attention_with_grads(q, k, v, probe, SMALL_BLOCK)
    serial = with_workers(use_pool, 1, (q, k, v, probe))
    for a, b in zip(serial, after):
        assert np.array_equal(a, b)


def test_forked_child_runs_pooled_attention(use_pool):
    case = attention_case(6)
    expected = with_workers(use_pool, 2, case)
    assert ag.pool.executor is not None
    pid = os.fork()
    if pid == 0:  # child: never return into the test runner
        code = 1
        try:
            got = _attention_with_grads(*case, SMALL_BLOCK)
            code = 0 if all(np.array_equal(a, b) for a, b in zip(expected, got)) else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            assert os.waitstatus_to_exitcode(status) == 0
            return
        time.sleep(0.05)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail("forked child hung in pooled attention")


def test_pooled_attention_backward_keeps_one_score_block_per_worker(use_pool):
    # 4096 keys and queries with 4 channels: each 256-query block of
    # scores is 4 MB, and everything else is small
    workers, block_scores = 2, 2 ** 20
    use_pool(workers=workers)
    q, k, v, probe = attention_case(7, queries=(64, 64), keys=(64, 64),
                                    dtype=np.float32)
    qv, kv, vv = (ag.var(a, requires_grad=True) for a in (q, k, v))
    loss = ag.dot_sum(ag.attention(qv, kv, vv, block_scores), probe)
    tracemalloc.start()
    try:
        ag.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block_bytes = block_scores * np.dtype(np.float32).itemsize
    assert peak <= (workers + 1) * block_bytes


def test_attention_backward_holds_no_copy_of_the_whole_query(use_pool):
    # 4096 queries of 256 channels over 64 keys: the query tensor is 4 MB
    # and each 256-query block of scores 64 KB. With the query itself
    # taking no gradient, the one query-sized array backward needs is the
    # query gradient; a whole [Q, -lse] operand would be a second one
    use_pool(workers=2)
    q, k, v, probe = attention_case(8, queries=(64, 64), keys=(8, 8), c=256, cv=2,
                                    dtype=np.float32)
    kv, vv = ag.var(k, requires_grad=True), ag.var(v, requires_grad=True)
    loss = ag.dot_sum(ag.attention(ag.var(q), kv, vv, 2 ** 14), probe)
    tracemalloc.start()
    try:
        ag.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * q.nbytes


def unfolded(a):
    """Batch element 0 of an (N, H, W, C) array as the oracles' (C, H*W) float64."""
    return a[0].reshape(-1, a.shape[-1]).T.astype(np.float64)


def test_float32_pooled_attention_matches_the_float64_oracle(use_pool):
    # six full blocks and a ragged one of 4 queries, on two workers
    q, k, v, probe = attention_case(9, scale=1.5, dtype=np.float32)
    got = with_workers(use_pool, 2, (q, k, v, probe))
    assert ag.pool.executor is not None
    qs, ks, vs = unfolded(q), unfolded(k), unfolded(v)
    want = (oracle_attention(qs, ks, vs),
            *oracle_attention_grads(qs, ks, vs, unfolded(probe)))
    # float32 rounds each score (here up to 27 in magnitude) by up to
    # about 2e-6, and each weight by as much of itself: the errors read
    # 4e-7 to 1.4e-6 of each result's largest entry
    for g, w in zip(got, want):
        assert g.dtype == np.float32
        assert np.abs(unfolded(g) - w).max() <= 2e-5 * np.abs(w).max()


def overflowing_scores_case():
    """float32 q and k, all finite, whose score of key 0 and query 0 is
    -1e40, -inf in float32, while that query's max score is finite."""
    q, k, v, _ = attention_case(10, dtype=np.float32)
    q[0, 0, 0] = (1e20, 0, 0, 0)
    k[0, 0, 0] = (-1e20, 0, 0, 0)
    k[0, 0, 1] = (1, 0, 0, 0)
    return q, k, v


def test_scores_that_can_overflow_are_each_checked():
    # the keys' and queries' norms fail the bound, so each block checks
    # the min of every score column as well as the max
    q, k, v = overflowing_scores_case()
    assert not K.dots_bounded(k.reshape(-1, 4), q.reshape(-1, 4))
    with np.errstate(over="ignore"), pytest.raises(NumericError,
                                                   match="col_softmax: non-finite input"):
        ag.attention(ag.var(q), ag.var(k), ag.var(v))


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
    # is the gradient checks' scalar probe, and gradcheck wraps the array
    # function it checks in a node of its own
    recorded = set()
    make_op = ag.make_op

    def recording_make_op(data, parents, backward_fn):
        recorded.add(sys._getframe(1).f_code.co_name)
        return make_op(data, parents, backward_fn)

    modules = [importlib.import_module(f"vstain.{m.name}")
               for m in pkgutil.iter_modules(vstain.__path__)
               if m.name not in ("__main__", "gradcheck")]
    ops = {name for module in modules for name, fn in vars(module).items()
           if inspect.isfunction(fn) and fn.__module__ == module.__name__
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
    assert {"attention", "conv2d", "deconv2d", "dense_forward", "masked_cross_entropy"} <= ops
    assert sorted(ops - recorded - {"dot_sum"}) == []
