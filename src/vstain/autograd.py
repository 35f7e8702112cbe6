"""Reverse-mode differentiation over the numeric kernels.

A forward pass builds an implicit tape: every op returns a `Variable`
whose parents and backward closure record how it was produced. Calling
:func:`backward` on a scalar result walks that record once in reverse
topological order, releasing each node as it goes. Dropout draws its
mask from a caller-supplied generator, so re-running a forward pass with
the same seed replays the identical tape bit-for-bit.

A tape is single-owner while it is being recorded; completed gradients
are plain arrays and safe to share. Gradient recording can be suspended
on the calling thread with :func:`no_grad` (used by inference to keep
memory flat); the switch is per thread, so windows predicted on several
threads at once leave every other thread's tape recording.
"""

from __future__ import annotations

import contextvars
import os
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import contextmanager

import numpy as np

from . import _flush_to_zero, _flushing_to_zero, _set_flush_to_zero, kernels
from .errors import ShapeError, VstainError


class _ThreadState(threading.local):
    grad_enabled = True   # tape recording; no_grad switches it off
    on_pool = False       # set once on each of the pool's worker threads


_thread = _ThreadState()


@contextmanager
def no_grad():
    """Suspend tape recording on the calling thread inside the context."""
    prev = _thread.grad_enabled
    _thread.grad_enabled = False
    try:
        yield
    finally:
        _thread.grad_enabled = prev


class Variable:
    """A tensor value plus its position in the recorded graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Variable, ...] = ()
        self._backward = None
        self._consumed = False


def var(data, requires_grad: bool = False) -> Variable:
    return Variable(data, requires_grad=requires_grad)


def recording(parents: tuple[Variable, ...]) -> bool:
    """Whether an op on `parents` is recorded: tape recording is on for
    the calling thread and some parent requires gradients."""
    return _thread.grad_enabled and any(p.requires_grad for p in parents)


def make_op(data: np.ndarray, parents: tuple[Variable, ...], backward_fn) -> Variable:
    """Create a graph node; records the closure only while grads are enabled.

    `backward_fn(grad)` must accumulate into each parent via :func:`accumulate`.
    """
    track = recording(parents)
    out = Variable(data, requires_grad=track)
    if track:
        out._parents = parents
        out._backward = backward_fn
    return out


def accumulate(v: Variable, g: np.ndarray) -> None:
    """Add `g` into v.grad (no-op when v does not require gradients)."""
    if not v.requires_grad:
        return
    if v.grad is None:
        v.grad = np.zeros_like(v.data)
    v.grad += g


def _topo_order(root: Variable) -> list[Variable]:
    order: list[Variable] = []
    seen: set[int] = set()
    stack: list[tuple[Variable, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Variable) -> None:
    """Populate .grad on every leaf reachable from `loss`.

    The gradient of the loss w.r.t. itself is 1. Each tape may be
    consumed once: as soon as an interior node's closure has run, the
    node drops its .grad, closure and parent links, so the tape shrinks
    as the walk proceeds and afterwards only leaves hold gradients.
    Leaves that never entered the graph keep whatever .grad they already
    hold (drop it with :func:`zero_grad` first).
    """
    if loss.data.ndim != 0:
        raise ShapeError(f"backward: loss must be a scalar, got shape {loss.data.shape}")
    if loss._consumed:
        raise VstainError("backward: graph already consumed")
    loss._consumed = True
    order = _topo_order(loss)
    accumulate(loss, np.ones((), dtype=loss.data.dtype))
    while order:
        node = order.pop()
        if node._backward is None:
            continue  # a leaf keeps its gradient
        if node.grad is not None:
            node._backward(node.grad)
        node.grad, node._backward, node._parents = None, None, ()


def zero_grad(variables) -> None:
    """Drop each gradient: :func:`accumulate` allocates it on first use,
    and :func:`grad_of` reads a missing one as zeros."""
    for v in variables:
        v.grad = None


def grad_of(v: Variable) -> np.ndarray:
    """v.grad, or zeros when the leaf never received gradient."""
    return v.grad if v.grad is not None else np.zeros_like(v.data)


# ---------------------------------------------------------------------------
# scalar probe
# ---------------------------------------------------------------------------

def dot_sum(a: Variable, weights: np.ndarray) -> Variable:
    """sum(a * weights) with constant weights: gradcheck's and the tests' scalar probe."""
    weights = np.asarray(weights)

    def bw(g):
        accumulate(a, g * weights)

    return make_op((a.data * weights).sum(), (a,), bw)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

# Default score entries (keys x queries) that :func:`attention` computes
# at once. Query blocks hold max(1, block_scores // n_keys) positions, so
# block boundaries depend on the key count only, never on the batch.
ATTENTION_BLOCK_SCORES = 2 ** 22
# Every CPU this process may run on: the default worker count of a Pool.
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
# Multiply-adds that one element of a pass over an array counts as, in
# the work of a row pass. On one core of a 2-vCPU Xeon (SkylakeX kernels,
# OpenBLAS 0.3.31), a float32 add or exp pass took 0.45-1.0 ns per
# element and the model's BLAS products 0.036-0.064 ns per multiply-add.
PASS_WORK = 16


def _mark_pool_thread() -> None:
    """Start a worker thread without subnormal flushing: a new thread
    inherits the floating-point modes of the thread that started it."""
    _thread.on_pool = True
    _set_flush_to_zero(False)


class Pool:
    """Worker threads for large products and row passes, and when to use
    them; the one in use is the module's :data:`pool`. At most `workers`
    (every CPU by default) run at once. :func:`split_rows` keeps work
    under `min_work` multiply-adds on the calling thread, where hand-offs
    cost more than a second core saves, and cuts pieces of min_work / 4."""

    def __init__(self, workers: int = _CPUS, min_work: int = 2 ** 26):
        self.workers, self.min_work = workers, min_work
        self.executor: ThreadPoolExecutor | None = None

    def start(self) -> ThreadPoolExecutor:
        """The executor, started on first use."""
        if self.executor is None:
            self.executor = ThreadPoolExecutor(self.workers, thread_name_prefix="vstain-pool",
                                               initializer=_mark_pool_thread)
        return self.executor


pool = Pool()


def _forget_executor() -> None:
    pool.executor = None  # a forked child has none of the pool's threads


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_executor)


def _pooled(n: int, n_queries: int, n_keys: int, block_scores: int) -> bool:
    """Whether attention over n batch elements of n_keys x n_queries
    scores in blocks of `block_scores` runs its query blocks on the pool:
    when it holds at least two full blocks of scores."""
    return n * n_queries * n_keys >= 2 * block_scores


def _run_blocks(block_fn, tasks: list, pooled: bool = True):
    """Yield block_fn(task) for each task, in task order.

    The one place that decides where pool work runs, under the :data:`pool`
    it reads once. When `pooled`, the tasks run on the pool, at most
    workers = min(pool.workers, len(tasks)) alive at once: task i starts
    once the caller has taken the result of task i - workers, so no more
    than `workers` tasks' temporaries and results are held. numpy
    releases the GIL inside BLAS and ufunc loops, so blocks run on
    several cores at once. Each block runs in a copy of the caller's
    context, which holds numpy's error state (``np.errstate``), and with
    the caller's subnormal flushing (:func:`vstain._flush_to_zero`), on
    or off, so its bits do not depend on the thread it runs on.

    Not pooled, with one worker, or called on a pool thread (from a
    piece, a block or a window of predict), the tasks run in turn on the
    calling thread. A pool thread never waits on the pool: it could hold
    the last free worker.
    """
    current = pool
    workers = min(current.workers, len(tasks)) if pooled and not _thread.on_pool else 1
    if workers <= 1:
        for task in tasks:
            yield block_fn(task)
        return
    flush = _flushing_to_zero()

    def run(task):
        with _flush_to_zero(flush):
            return block_fn(task)

    executor = current.start()
    running: deque[Future] = deque()
    try:
        for task in tasks:
            if len(running) == workers:
                yield running.popleft().result()
            running.append(executor.submit(contextvars.copy_context().run, run, task))
        while running:
            yield running.popleft().result()
    finally:  # after an error, leave no block writing into the arrays
        wait(running)


def _pieces(rows: int, count: int) -> list[tuple[int, int]]:
    """[0, rows) cut evenly into max(1, min(rows // 2, count)) ranges
    [lo, hi), so no range holds fewer than two rows unless there is one."""
    count = max(1, min(rows // 2, count))
    return [(rows * i // count, rows * (i + 1) // count) for i in range(count)]


def split_rows(piece_fn, rows: int, work: int, small: bool = False) -> None:
    """Run piece_fn(lo, hi) over consecutive ranges covering [0, rows).

    Each piece must write only its own rows (or columns) of the result,
    so that the result does not depend on how the rows are cut, and
    allocates its own temporaries. `work` counts the multiply-adds of
    all rows, a pass over an array PASS_WORK per element. Under the
    module's :data:`pool`: below its `min_work`, [0, rows) is one piece
    on the calling thread. Otherwise the rows are cut by :func:`_pieces`
    into work // (min_work / 4) pieces, at most `workers` unless `small`
    (when a piece's temporaries grow with its rows), and the pieces run
    on the pool, at most one per worker at once (:func:`_run_blocks`).

    At the default settings a split product's pieces each hold at least
    min_work / 8 multiply-adds and at least two rows, which keeps them
    on OpenBLAS's blocked path, the one whose bits a cut of output rows
    or columns does not change. A one-row product goes to GEMV instead,
    and some products under about 2^20 multiply-adds to OpenBLAS's
    small-matrix kernel; the bits of both differ from the same rows of a
    larger product.
    """
    settings = pool
    if work < settings.min_work:
        piece_fn(0, rows)
        return
    count = work // (settings.min_work // 4)
    pieces = _pieces(rows, count if small else min(count, settings.workers))
    for _ in _run_blocks(lambda piece: piece_fn(*piece), pieces):
        pass


# Weights per key chunk of attention's backward.
KEY_CHUNK = 2 ** 16


def attention(q: Variable, k: Variable, v: Variable,
              block_scores: int = ATTENTION_BLOCK_SCORES) -> Variable:
    """Global attention V col_softmax(K^T Q) as one tape node.

    q: (N, Hq, Wq, C), k: (N, H, W, C), v: (N, H, W, Cv); returns
    (N, Hq, Wq, Cv), where each output position is a softmax-weighted
    sum of the value vectors at all H*W key positions of its batch
    element. Query positions are processed in blocks of
    max(1, block_scores // (H*W)), and no n_keys x n_queries matrix is
    ever stored. Layers with at least two full blocks of scores
    (:func:`_pooled`) run their blocks on the threads of the pool,
    unless called on a pool thread, with at most one block per worker
    alive at once (:func:`_run_blocks`); each block allocates its own
    block of scores. Forward and backward run with
    subnormals flushed in hardware (:func:`vstain._flush_to_zero`).

    The forward (after FlashAttention-2's, arXiv:2307.08691) never
    normalises the weights. Each block's scores S become E = exp(S - m),
    m being each query's max score (:func:`kernels.exp_shifted_inplace`),
    and one product of E^T with V and a column of ones gives both E^T V
    and each query's exp-sum l; the output rows are E^T V / l. A layer
    whose keys and queries pass :func:`kernels.dots_bounded` has no
    infinite score, so its blocks check only their column maxima for a
    NaN; any other layer checks every score's column min as well.

    Backward (after FlashAttention's, arXiv:2205.14135) keeps each
    query's log-sum-exp, lse = m + log l. It recomputes a block's
    normalised weights P in one exp over one product: K with a column of
    ones times Q with a column of -lse gives S - lse. That Q operand is
    built for one block at a time, so no copy of the whole query tensor
    is held. It then walks P's key rows in chunks of about KEY_CHUNK
    weights, cut by :func:`_pieces`, which depend on the block's shape
    only. For each chunk it computes a small dP = V[chunk] g^T, takes
    the value gradient's rows P[chunk] g from the weights first, and
    then writes the score gradient dS = P * (dP - D) over them.
    D_j = g_j . out_j is each query's row dot of its output gradient and
    the forward output, computed once for all blocks from the output as
    this node holds it (a dense block may have moved it into its buffer,
    :func:`dense_block.dense_forward`); it equals the column sum of
    P * dP, which would need dP whole. D is summed in float64, where
    float32 products are exact, and rounded once, which makes the query
    and key gradients of float32 attention slightly closer to float64
    ones than a float32 sum. The query and key gradients are then dS^T K
    and dS Q.
    """
    for name, t in (("q", q), ("k", k), ("v", v)):
        if t.data.ndim != 4:
            raise ShapeError(f"attention: {name} must be rank 4 (N,H,W,C), "
                             f"got shape {t.data.shape}")
    if q.data.shape[3] != k.data.shape[3] or q.data.shape[0] != k.data.shape[0]:
        raise ShapeError(f"attention: query {q.data.shape} and key {k.data.shape} "
                         "disagree in batch or channels")
    if k.data.shape[:3] != v.data.shape[:3]:
        raise ShapeError(f"attention: key {k.data.shape} and value {v.data.shape} "
                         "disagree in batch or positions")
    n, hq, wq, c = q.data.shape
    cv = v.data.shape[3]
    qm = q.data.reshape(n, hq * wq, c)
    km = k.data.reshape(n, -1, c)
    vm = v.data.reshape(n, -1, cv)
    n_queries, n_keys = hq * wq, km.shape[1]
    step = max(1, block_scores // n_keys)
    tasks = [(b, slice(lo, lo + step)) for b in range(n) for lo in range(0, n_queries, step)]
    dtype = np.result_type(qm, km, vm)
    pooled = _pooled(n, n_queries, n_keys, block_scores)

    def with_column(m, column):
        """m (..., rows, C) with `column` (..., rows) appended as its last channel."""
        out = np.empty(m.shape[:-1] + (m.shape[-1] + 1,), dtype)
        out[..., :-1] = m
        out[..., -1] = column
        return out

    bounded = kernels.dots_bounded(km, qm)
    v1 = with_column(vm, 1)
    out = np.empty((n, n_queries, cv), dtype=dtype)
    lse = np.empty((n, n_queries), dtype=dtype)

    def forward_block(task):
        b, s = task
        e = np.matmul(km[b], qm[b, s].T)
        colmax = kernels.exp_shifted_inplace(e, -2, "col_softmax: non-finite input", bounded)
        ev = np.matmul(e.T, v1[b])  # E^T V, then the exp-sums l
        np.divide(ev[:, :cv], ev[:, cv:], out=out[b, s])
        np.log(ev[:, cv], out=lse[b, s])
        lse[b, s] += colmax[0]

    with _flush_to_zero():
        for _ in _run_blocks(forward_block, tasks, pooled):
            pass

    def bw(g):
        with _flush_to_zero():
            gm = g.reshape(n, n_queries, cv)
            # D, from the output as the node holds it now: a dense block may
            # have moved it into its buffer, and a reshape would copy it
            dots = np.einsum("nhwc,nhwc->nhw", g, result.data,
                             dtype=np.float64).astype(gm.dtype).reshape(n, n_queries)
            gq, gk, gv = np.empty_like(qm), np.zeros_like(km), np.zeros_like(vm)
            k1 = with_column(km, 1)

            def backward_block(task):
                b, s = task
                weights = np.matmul(k1[b], with_column(qm[b, s], -lse[b, s]).T)
                np.exp(weights, out=weights)  # P
                gs = gm[b, s]
                part_v = np.empty((n_keys, cv), dtype)
                for lo, hi in _pieces(n_keys, weights.size // KEY_CHUNK):
                    w = weights[lo:hi]
                    dp = np.matmul(vm[b, lo:hi], gs.T)
                    np.matmul(w, gs, out=part_v[lo:hi])
                    dp -= dots[b, s]
                    w *= dp
                np.matmul(weights.T, km[b], out=gq[b, s])
                return part_v, np.matmul(weights, qm[b, s])

            blocks = _run_blocks(backward_block, tasks, pooled)
            for (b, _), (part_v, part_k) in zip(tasks, blocks):
                gv[b] += part_v
                gk[b] += part_k
            accumulate(q, gq.reshape(q.data.shape))
            accumulate(k, gk.reshape(k.data.shape))
            accumulate(v, gv.reshape(v.data.shape))

    result = make_op(out.reshape(n, hq, wq, cv), (q, k, v), bw)
    return result


# ---------------------------------------------------------------------------
# convolution ops
# ---------------------------------------------------------------------------

def conv2d(x: Variable, w: Variable, b: Variable, stride: int = 1) -> Variable:
    out = kernels.conv2d(x.data, w.data, b.data, stride)

    def bw(g):
        gx, gw, gb = kernels.conv2d_backward(x.data, w.data, stride, g)
        accumulate(x, gx)
        accumulate(w, gw)
        accumulate(b, gb)

    return make_op(out, (x, w, b), bw)


def deconv2d(x: Variable, w: Variable, b: Variable) -> Variable:
    out = kernels.deconv2d(x.data, w.data, b.data)

    def bw(g):
        gx, gw, gb = kernels.deconv2d_backward(x.data, w.data, g)
        accumulate(x, gx)
        accumulate(w, gw)
        accumulate(b, gb)

    return make_op(out, (x, w, b), bw)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def finite_diff_check(f, x: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` maps a Variable to a scalar Variable and must be deterministic
    across calls (seed any stochastic op inside `f`). Evaluation should
    use float64 input for meaningful tolerances. The relative error per
    coordinate uses denominator max(|analytic|, |numeric|, 1e-8).
    """
    leaf = var(np.array(x, copy=True), requires_grad=True)
    return finite_diff_check_param(lambda: f(leaf), leaf, h)


def finite_diff_check_param(loss_fn, param: Variable, h: float = 1e-5) -> float:
    """Like :func:`finite_diff_check` for a live leaf of `loss_fn`'s closure.

    `loss_fn()` takes no arguments and reads `param` (e.g. a network
    weight); the check perturbs param.data in place and restores it.
    """
    zero_grad([param])
    backward(loss_fn())
    analytic = grad_of(param).copy()

    worst = 0.0
    flat = param.data.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(loss_fn().data)
            flat[i] = orig - h
            fm = float(loss_fn().data)
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            a = float(analytic.reshape(-1)[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
