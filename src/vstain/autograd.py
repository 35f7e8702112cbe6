"""Reverse-mode differentiation over the numeric kernels.

A forward pass builds an implicit tape: every op returns a `Variable`
whose parents and backward closure record how it was produced. Calling
:func:`backward` on a scalar result walks that record once in reverse
topological order, releasing each node as it goes. Stochastic ops
(dropout) draw their masks from a caller-supplied generator and capture
them, so re-running a forward pass with the same seed replays the
identical tape bit-for-bit.

A tape is single-owner while it is being recorded; completed gradients
are plain arrays and safe to share. Gradient recording can be suspended
with :func:`no_grad` (used by inference to keep memory flat).
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ShapeError, VstainError


_grad_enabled = True


@contextmanager
def no_grad():
    """Suspend tape recording inside the context."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


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

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Variable(shape={self.data.shape}, requires_grad={self.requires_grad})"


def var(data, requires_grad: bool = False) -> Variable:
    return Variable(data, requires_grad=requires_grad)


def make_op(data: np.ndarray, parents: tuple[Variable, ...], backward_fn) -> Variable:
    """Create a graph node; records the closure only while grads are enabled.

    `backward_fn(grad)` must accumulate into each parent via :func:`accumulate`.
    """
    track = _grad_enabled and any(p.requires_grad for p in parents)
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
    hold (zero them with :func:`zero_grad` first).
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
    for v in variables:
        v.grad = np.zeros_like(v.data)


def grad_of(v: Variable) -> np.ndarray:
    """v.grad, or zeros when the leaf never received gradient."""
    return v.grad if v.grad is not None else np.zeros_like(v.data)


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def dot_sum(a: Variable, weights: np.ndarray) -> Variable:
    """sum(a * weights) with constant weights; a scalar probe for tests."""
    weights = np.asarray(weights)
    if weights.shape != a.data.shape:
        raise ShapeError(f"dot_sum: shape mismatch {a.data.shape} vs {weights.shape}")

    def bw(g):
        accumulate(a, g * weights)

    return make_op((a.data * weights).sum(), (a,), bw)


def relu(a: Variable) -> Variable:
    out = np.maximum(a.data, 0)

    def bw(g):
        accumulate(a, g * (a.data > 0))

    return make_op(out, (a,), bw)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

# Score entries (keys x queries) computed at once by :func:`attention`.
# Query blocks hold max(1, ATTENTION_BLOCK_SCORES // n_keys) positions,
# so block boundaries depend on the key count only, never on the batch.
ATTENTION_BLOCK_SCORES = 2 ** 22
# Threads that run the query blocks of a layer with at least two full
# blocks of scores: every CPU this process may run on. Each block writes
# its own rows of the result and hands back its key and value gradient
# parts, which the caller adds in block order, so the bits do not depend
# on this number.
ATTENTION_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)

_pool: ThreadPoolExecutor | None = None


def _attention_pool() -> ThreadPoolExecutor:
    """The block pool, started on first use with ATTENTION_WORKERS threads."""
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(ATTENTION_WORKERS, thread_name_prefix="vstain-attention")
    return _pool


def _forget_pool() -> None:
    global _pool
    _pool = None  # a forked child has none of the pool's threads


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_blocks(block_fn, tasks: list, scratch_sets: list):
    """Yield block_fn(task, scratch_set) for each task, in task order.

    With one scratch set the tasks run on the calling thread. With more,
    they run on the pool, task i with set i % len(scratch_sets); task i
    starts once the caller has taken the result of the task before it
    that used the same set, so a result may live in its set. numpy
    releases the GIL inside BLAS and ufunc loops, so blocks run on
    several cores at once.
    """
    if len(scratch_sets) == 1:
        for task in tasks:
            yield block_fn(task, scratch_sets[0])
        return
    pool = _attention_pool()
    running: deque[Future] = deque()
    try:
        for i, task in enumerate(tasks):
            if len(running) == len(scratch_sets):
                yield running.popleft().result()
            running.append(pool.submit(block_fn, task, scratch_sets[i % len(scratch_sets)]))
        while running:
            yield running.popleft().result()
    finally:  # after an error, leave no block writing into the arrays
        wait(running)


def attention(q: Variable, k: Variable, v: Variable) -> Variable:
    """Global attention V col_softmax(K^T Q) as one tape node.

    q: (N, Hq, Wq, C), k: (N, H, W, C), v: (N, H, W, Cv); returns
    (N, Hq, Wq, Cv), where each output position is a softmax-weighted
    sum of the value vectors at all H*W key positions of its batch
    element. Query positions are processed in blocks, and backward
    recomputes each block's weights, so no n_keys x n_queries matrix is
    stored. Layers with at least two full blocks of scores run their
    blocks on ATTENTION_WORKERS threads; the calling thread allocates one
    set of block-sized scratch per thread for each pass.
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
    step = max(1, ATTENTION_BLOCK_SCORES // n_keys)
    tasks = [(b, slice(lo, lo + step)) for b in range(n) for lo in range(0, n_queries, step)]
    dtype = np.result_type(qm, km, vm)
    pooled = n * n_queries * n_keys >= 2 * ATTENTION_BLOCK_SCORES
    block_size = n_keys * min(step, n_queries)
    slab_size = max(kernels.softmax_scratch_size((n_keys, width))
                    for width in (min(step, n_queries), (n_queries - 1) % step + 1))

    def scratch_sets(*shapes) -> list:
        """Per worker, one array of each shape, allocated on this thread."""
        count = min(ATTENTION_WORKERS, len(tasks)) if pooled else 1
        return [tuple(np.empty(shape, dtype) for shape in shapes) for _ in range(count)]

    def block_weights(b, s, scores, slab):
        """The (n_keys, width) softmax weights of one block, in `scores`."""
        qs = qm[b, s]
        scores = scores[: n_keys * len(qs)].reshape(n_keys, len(qs))
        np.matmul(km[b], qs.T, out=scores)
        return kernels.col_softmax_inplace(scores, slab)

    out = np.empty((n, n_queries, cv), dtype=dtype)

    def forward_block(task, scratch):
        b, s = task
        np.matmul(block_weights(b, s, *scratch).T, vm[b], out=out[b, s])

    for _ in _run_blocks(forward_block, tasks, scratch_sets(block_size, slab_size)):
        pass

    def bw(g):
        gm = g.reshape(n, n_queries, cv)
        gq, gk, gv = np.empty_like(qm), np.zeros_like(km), np.zeros_like(vm)

        def backward_block(task, scratch):
            b, s = task
            scores, grads, slab, part_v, part_k = scratch
            weights = block_weights(b, s, scores, slab)
            gs = grads[: weights.size].reshape(weights.shape)
            np.matmul(vm[b], gm[b, s].T, out=gs)
            kernels.col_softmax_backward_inplace(weights, gs, slab)
            np.matmul(gs.T, km[b], out=gq[b, s])
            np.matmul(weights, gm[b, s], out=part_v)
            np.matmul(gs, qm[b, s], out=part_k)
            return part_v, part_k

        sets = scratch_sets(block_size, block_size, slab_size, (n_keys, cv), (n_keys, c))
        for (b, _), (part_v, part_k) in zip(tasks, _run_blocks(backward_block, tasks, sets)):
            gv[b] += part_v
            gk[b] += part_k
        accumulate(q, gq.reshape(q.data.shape))
        accumulate(k, gk.reshape(k.data.shape))
        accumulate(v, gv.reshape(v.data.shape))

    return make_op(out.reshape(n, hq, wq, cv), (q, k, v), bw)


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


def concat_channels(xs: list[Variable]) -> Variable:
    out = kernels.concat_channels([x.data for x in xs])
    offsets = np.cumsum([0] + [x.data.shape[3] for x in xs])

    def bw(g):
        for x, lo, hi in zip(xs, offsets[:-1], offsets[1:]):
            accumulate(x, g[..., lo:hi])

    return make_op(out, tuple(xs), bw)


# ---------------------------------------------------------------------------
# normalisation / regularisation
# ---------------------------------------------------------------------------

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


def batch_norm(x: Variable, gamma: Variable, beta: Variable, state: BnState,
               mode: str) -> Variable:
    """Per-channel batch normalisation over the (N, H, W) axes.

    Train mode normalises by batch statistics and folds them into the
    running estimates; eval mode uses the running estimates only.
    """
    if mode not in ("train", "eval"):
        raise ShapeError(f"batch_norm: invalid mode {mode!r}")
    axes = (0, 1, 2)
    if mode == "train":
        mu = x.data.mean(axis=axes)
        varb = x.data.var(axis=axes)
        state.mean = (state.momentum * state.mean
                      + (1.0 - state.momentum) * mu).astype(state.mean.dtype)
        state.var = (state.momentum * state.var
                     + (1.0 - state.momentum) * varb).astype(state.var.dtype)
    else:
        mu = state.mean.astype(x.data.dtype)
        varb = state.var.astype(x.data.dtype)
    inv = 1.0 / np.sqrt(varb + state.eps)
    xhat = (x.data - mu) * inv
    out = gamma.data * xhat + beta.data

    def bw(g):
        accumulate(gamma, (g * xhat).sum(axis=axes))
        accumulate(beta, g.sum(axis=axes))
        gxhat = g * gamma.data
        if mode == "train":
            gx = (gxhat - gxhat.mean(axis=axes)
                  - xhat * (gxhat * xhat).mean(axis=axes)) * inv
            accumulate(x, gx)
        else:
            accumulate(x, gxhat * inv)

    return make_op(out.astype(x.data.dtype, copy=False), (x, gamma, beta), bw)


def dropout(x: Variable, rate: float, rng: np.random.Generator) -> Variable:
    """Inverted dropout: zero with probability `rate`, scale the rest by 1/(1-rate).

    The mask is drawn once and captured, so the recorded tape replays
    deterministically. rate == 0 is the identity.
    """
    if not 0.0 <= rate < 1.0:
        raise ShapeError(f"dropout: rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= rate)
    mask = keep.astype(x.data.dtype) / (1.0 - rate)

    def bw(g):
        accumulate(x, g * mask)

    return make_op(x.data * mask, (x,), bw)


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
