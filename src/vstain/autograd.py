"""Reverse-mode differentiation over the numeric kernels.

A forward pass builds an implicit tape: every op returns a `Variable`
whose parents and backward closure record how it was produced. Calling
:func:`backward` on a scalar result walks that record once in reverse
topological order. Stochastic ops (dropout) draw their masks from a
caller-supplied generator and capture them, so re-running a forward pass
with the same seed replays the identical tape bit-for-bit.

A tape is single-owner while it is being recorded; completed gradients
are plain arrays and safe to share. Gradient recording can be suspended
with :func:`no_grad` (used by inference to keep memory flat).
"""

from __future__ import annotations

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

    def __add__(self, other: "Variable") -> "Variable":
        return add(self, other)

    def __sub__(self, other: "Variable") -> "Variable":
        return sub(self, other)

    def __mul__(self, other: "Variable") -> "Variable":
        return mul(self, other)


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
    """Populate .grad on every recorded node reachable from `loss`.

    The gradient of the loss w.r.t. itself is 1. Each tape may be
    consumed once; leaves that never entered the graph keep whatever
    .grad they already hold (zero them with :func:`zero_grad` first).
    """
    if loss.data.ndim != 0:
        raise ShapeError(f"backward: loss must be a scalar, got shape {loss.data.shape}")
    if loss._consumed:
        raise VstainError("backward: graph already consumed")
    loss._consumed = True
    order = _topo_order(loss)
    accumulate(loss, np.ones((), dtype=loss.data.dtype))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def zero_grad(variables) -> None:
    for v in variables:
        v.grad = np.zeros_like(v.data)


def grad_of(v: Variable) -> np.ndarray:
    """v.grad, or zeros when the leaf never received gradient."""
    return v.grad if v.grad is not None else np.zeros_like(v.data)


# ---------------------------------------------------------------------------
# elementwise / reduction ops
# ---------------------------------------------------------------------------

def add(a: Variable, b: Variable) -> Variable:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shape mismatch {a.data.shape} vs {b.data.shape}")

    def bw(g):
        accumulate(a, g)
        accumulate(b, g)

    return make_op(a.data + b.data, (a, b), bw)


def sub(a: Variable, b: Variable) -> Variable:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub: shape mismatch {a.data.shape} vs {b.data.shape}")

    def bw(g):
        accumulate(a, g)
        accumulate(b, -g)

    return make_op(a.data - b.data, (a, b), bw)


def mul(a: Variable, b: Variable) -> Variable:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: shape mismatch {a.data.shape} vs {b.data.shape}")

    def bw(g):
        accumulate(a, g * b.data)
        accumulate(b, g * a.data)

    return make_op(a.data * b.data, (a, b), bw)


def scale(a: Variable, s: float) -> Variable:
    def bw(g):
        accumulate(a, g * s)

    return make_op(a.data * s, (a,), bw)


def sum_all(a: Variable) -> Variable:
    def bw(g):
        accumulate(a, np.full_like(a.data, g))

    return make_op(a.data.sum(), (a,), bw)


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
# linear algebra / attention ops
# ---------------------------------------------------------------------------

def matmul(a: Variable, b: Variable) -> Variable:
    out = kernels.matmul(a.data, b.data)

    def bw(g):
        accumulate(a, np.matmul(g, np.swapaxes(b.data, -1, -2)))
        accumulate(b, np.matmul(np.swapaxes(a.data, -1, -2), g))

    return make_op(out, (a, b), bw)


def col_softmax(a: Variable) -> Variable:
    out = kernels.col_softmax(a.data)

    def bw(g):
        accumulate(a, kernels.col_softmax_backward(out, g))

    return make_op(out, (a,), bw)


# Score entries (keys x queries) computed at once by :func:`attention`.
# Query blocks hold max(1, ATTENTION_BLOCK_SCORES // n_keys) positions,
# so block boundaries depend on the key count only, never on the batch.
ATTENTION_BLOCK_SCORES = 2 ** 22


def attention(q: Variable, k: Variable, v: Variable) -> Variable:
    """Global attention V col_softmax(K^T Q) as one tape node.

    q: (N, Hq, Wq, C), k: (N, H, W, C), v: (N, H, W, Cv); returns
    (N, Hq, Wq, Cv), where each output position is a softmax-weighted
    sum of the value vectors at all H*W key positions of its batch
    element. Query positions are processed in blocks, and backward
    recomputes each block's weights, so no n_keys x n_queries matrix is
    stored.
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
    step = max(1, ATTENTION_BLOCK_SCORES // km.shape[1])
    blocks = [slice(lo, lo + step) for lo in range(0, hq * wq, step)]
    out = np.empty((n, hq * wq, cv), dtype=np.result_type(qm, km, vm))
    for b in range(n):
        for s in blocks:
            weights = kernels.col_softmax(km[b] @ qm[b, s].T)
            np.matmul(weights.T, vm[b], out=out[b, s])
            del weights  # before the next block's scores: two blocks live, not three

    def bw(g):
        gm = g.reshape(n, hq * wq, cv)
        gq, gk, gv = np.empty_like(qm), np.zeros_like(km), np.zeros_like(vm)
        for b in range(n):
            for s in blocks:
                weights = kernels.col_softmax(km[b] @ qm[b, s].T)
                gv[b] += weights @ gm[b, s]
                gs = kernels.col_softmax_backward(weights, vm[b] @ gm[b, s].T)
                np.matmul(gs.T, km[b], out=gq[b, s])
                gk[b] += gs @ qm[b, s]
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


def resize_bilinear(x: Variable, out_h: int, out_w: int) -> Variable:
    in_h, in_w = x.data.shape[1], x.data.shape[2]
    out = kernels.resize_bilinear(x.data, out_h, out_w)

    def bw(g):
        accumulate(x, kernels.resize_bilinear_backward(in_h, in_w, g))

    return make_op(out, (x,), bw)


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
    x = np.asarray(x)
    xv = var(x.copy(), requires_grad=True)
    backward(f(xv))
    analytic = grad_of(xv)

    worst = 0.0
    flat = x.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            xp = x.copy().reshape(-1)
            xp[i] = orig + h
            fp = float(f(var(xp.reshape(x.shape))).data)
            xm = x.copy().reshape(-1)
            xm[i] = orig - h
            fm = float(f(var(xm.reshape(x.shape))).data)
            numeric = (fp - fm) / (2.0 * h)
            a = float(analytic.reshape(-1)[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst


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
