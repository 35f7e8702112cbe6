"""Independent scalar reimplementations used as test oracles.

The oracle_* reimplementations are deliberately written with plain
python loops or plain numpy and never call the production kernels, so
agreement is meaningful. `closure_arrays` lists what a tape node's
backward keeps. Two reference chains reuse production ops around the
step they stand in for: the batch norm, ReLU and dropout tape ops are
the separate nodes that `dense_block.bn_relu_dropout` fuses, and the
concatenating dense block, a tape node per layer and per concatenation,
is the reference for the one node that `dense_block.dense_forward`
records over the channel buffer it fills in place.

The softmax oracle runs under `vstain._flush_to_zero`, the hardware mode
the production softmax runs under, so that its exps and column sums
drop the same subnormals.
"""

import struct
import types

import numpy as np

import vstain
from vstain import autograd as ag
from vstain.dense_block import bn_relu_dropout
from vstain.gpt_layer import GptVariant


def oracle_attention(q, k, v):
    """Per-position weighted sum: softmax scores of one query at a time."""
    m, n = q.shape[1], k.shape[1]
    out = np.zeros((v.shape[0], m))
    for i in range(m):
        scores = np.array([float(np.dot(k[:, j], q[:, i])) for j in range(n)])
        e = np.exp(scores - scores.max())
        a = e / e.sum()
        acc = np.zeros(v.shape[0])
        for j in range(n):
            acc += a[j] * v[:, j]
        out[:, i] = acc
    return out


def oracle_attention_grads(q, k, v, g):
    """Float64 gradients (dq, dk, dv) of sum(g * oracle_attention(q, k, v)),
    in its layout (g is (Cv, m)), by the column softmax's Jacobian."""
    q, k, v, g = (np.asarray(a, dtype=np.float64) for a in (q, k, v, g))
    s = k.T @ q
    e = np.exp(s - s.max(axis=0))
    p = e / e.sum(axis=0)
    dp = v.T @ g
    ds = p * (dp - (p * dp).sum(axis=0))
    return k @ ds, q @ ds.T, g @ p.T


def oracle_unfold(t):
    h, w, c = t.shape
    out = np.zeros((c, h * w))
    for i in range(h):
        for j in range(w):
            out[:, i * w + j] = t[i, j]
    return out


def oracle_conv(x, w, b, stride):
    """Same-padded convolution by explicit index arithmetic."""
    h, wid, cin = x.shape
    k = w.shape[0]
    out_h, out_w = -(-h // stride), -(-wid // stride)
    pt = max((out_h - 1) * stride + k - h, 0) // 2
    pl = max((out_w - 1) * stride + k - wid, 0) // 2
    out = np.zeros((out_h, out_w, w.shape[3]))
    for oi in range(out_h):
        for oj in range(out_w):
            acc = np.array(b, dtype=np.float64)
            for di in range(k):
                for dj in range(k):
                    ii, jj = oi * stride + di - pt, oj * stride + dj - pl
                    if 0 <= ii < h and 0 <= jj < wid:
                        acc = acc + x[ii, jj] @ w[di, dj]
            out[oi, oj] = acc
    return out


def oracle_deconv(x, w, b):
    """Adjoint-of-strided-conv transposed convolution, by index arithmetic."""
    h, wid, cin = x.shape
    cout = w.shape[3]
    out = np.zeros((2 * h, 2 * wid, cout))
    for r in range(2 * h):
        for s in range(2 * wid):
            acc = np.array(b, dtype=np.float64)
            for di in range(3):
                for dj in range(3):
                    if (r - di) % 2 or (s - dj) % 2:
                        continue
                    i, j = (r - di) // 2, (s - dj) // 2
                    if 0 <= i < h and 0 <= j < wid:
                        acc = acc + x[i, j] @ w[di, dj]
            out[r, s] = acc
    return out


def oracle_gpt_layer(x, params):
    """Full per-batch-element transformer layer recomputation."""
    variant = params.variant
    gw, gb = params.gen_w.data, params.gen_b.data
    if variant is GptVariant.DOWN:
        q = oracle_conv(x, gw, gb, 2)
    elif variant is GptVariant.SAME:
        q = oracle_conv(x, gw, gb, 1)
    else:
        q = oracle_deconv(x, gw, gb)
    k = oracle_conv(x, params.key_w.data, params.key_b.data, 1)
    v = oracle_conv(x, params.value_w.data, params.value_b.data, 1)
    o = oracle_attention(oracle_unfold(q), oracle_unfold(k), oracle_unfold(v))
    hq, wq = q.shape[:2]
    out = np.zeros((hq, wq, o.shape[0]))
    for i in range(hq):
        for j in range(wq):
            out[i, j] = o[:, i * wq + j]
    return out


def oracle_logits(net, features):
    """Every task's logits (N, H, W, task_count * value_classes): the
    decoder features (an array) times the 1x1 head's weight matrix, plus
    its bias."""
    w = net.head_w.data
    return features @ w.reshape(w.shape[2], w.shape[3]) + net.head_b.data


def oracle_mirror_pad(t, top, bottom, left, right):
    """Reflection padding of (N, H, W, C) without repeating the border pixel."""
    return np.pad(t, ((0, 0), (top, bottom), (left, right), (0, 0)), mode="reflect")


def oracle_masked_cross_entropy(logits, targets, mask, value_classes):
    """(value, gradient) of the masked loss by the dense formula: every
    task is evaluated, then the masked ones are multiplied by zero. The
    softmax of the gradient is exp(z - (zmax + log(sez))), one exp of the
    logits less their log-sum-exp."""
    n, h, w, c = logits.shape
    t = targets.shape[3]
    z = logits.reshape(n, h, w, t, value_classes)
    zmax = z.max(axis=-1, keepdims=True)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=-1, keepdims=True)
    log_probs = (z - zmax) - np.log(sez)
    picked = np.take_along_axis(log_probs, targets[..., None], axis=-1)[..., 0]
    active = np.broadcast_to(mask[:, None, None, :], (n, h, w, t))
    count = int(active.sum())
    loss = -(picked * active).sum() / count
    g = np.ones((), dtype=logits.dtype)
    onehot = np.zeros_like(ez)
    np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
    dz = (np.exp(z - (zmax + np.log(sez))) - onehot) * active[..., None] * (g / count)
    dz[np.abs(dz) < np.finfo(dz.dtype).tiny] = 0
    return loss, dz.reshape(n, h, w, c)


def flush_subnormals(a):
    """Zero, in place, the entries of `a` smaller in magnitude than its
    dtype's smallest normal number, as +0.0; returns `a`."""
    tiny = np.finfo(a.dtype).tiny
    np.copyto(a, 0, where=(a < tiny) & (a > -tiny))
    return a


def oracle_col_softmax(m):
    """Column softmax in whole-array passes: shift by the column max, exp,
    divide by the column sum, then zero every weight below the dtype's
    smallest normal number."""
    with vstain._flush_to_zero():
        out = m - np.max(m, axis=-2, keepdims=True)
        np.exp(out, out=out)
        out /= np.sum(out, axis=-2, keepdims=True)
    return flush_subnormals(out)


def oracle_expectation(probs, task):
    """The "expectation" render in one pass over the whole image: the
    float64 product with the class indices, summed over the last axis,
    rounded half-up and clamped to 0-255."""
    p = probs[:, :, :, task, :]
    classes = np.arange(p.shape[-1], dtype=np.float64)
    img = np.floor((p.astype(np.float64) * classes).sum(axis=-1) + 0.5)
    return np.clip(img, 0, 255).astype(np.uint8)


def oracle_argmax(probs, task):
    """The "argmax" render in one pass over the whole image: the first
    modal class of each pixel, clamped to 0-255."""
    img = probs[:, :, :, task, :].argmax(axis=-1)
    return np.clip(img, 0, 255).astype(np.uint8)


def oracle_gptt_bytes(t):
    """One GPTT blob assembled in memory: magic, version, rank and the
    extents, then the little-endian float32 payload as one bytes copy."""
    t = np.asarray(t)
    return (b"GPTT" + struct.pack("<BB", 1, t.ndim) + struct.pack(f"<{t.ndim}I", *t.shape)
            + np.ascontiguousarray(t, dtype="<f4").tobytes())


def closure_arrays(fn):
    """The arrays a function's closure holds, and those of the functions
    it holds, recursively (a Variable's .data is not followed)."""
    found, stack, seen = [], [fn], set()
    while stack:
        f = stack.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        for cell in f.__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, np.ndarray):
                found.append(value)
            elif isinstance(value, types.FunctionType):
                stack.append(value)
    return found


def oracle_batch_norm(x, gamma, beta, state, mode):
    """Per-channel batch norm over (N, H, W) as its own tape node; updates
    the running statistics in train mode."""
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
        ag.accumulate(gamma, (g * xhat).sum(axis=axes))
        ag.accumulate(beta, g.sum(axis=axes))
        gxhat = g * gamma.data
        if mode == "train":
            gx = (gxhat - gxhat.mean(axis=axes)
                  - xhat * (gxhat * xhat).mean(axis=axes)) * inv
            ag.accumulate(x, gx)
        else:
            ag.accumulate(x, gxhat * inv)

    return ag.make_op(out.astype(x.data.dtype, copy=False), (x, gamma, beta), bw)


def oracle_relu(a):
    def bw(g):
        ag.accumulate(a, g * (a.data > 0))

    return ag.make_op(np.maximum(a.data, 0), (a,), bw)


def oracle_dropout(x, rate, rng):
    """Inverted dropout as its own tape node; rate 0 is the identity."""
    if rate == 0.0:
        return x
    mask = (rng.random(x.data.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)

    def bw(g):
        ag.accumulate(x, g * mask)

    return ag.make_op(x.data * mask, (x,), bw)


def oracle_bn_relu_dropout(x, gamma, beta, state, mode, rate, rng):
    """The unfused chain: batch norm, ReLU, then dropout in train mode."""
    h = oracle_relu(oracle_batch_norm(x, gamma, beta, state, mode))
    return oracle_dropout(h, rate, rng) if mode == "train" else h


def bn_relu_dropout_node(x, gamma, beta, state, mode, rate, rng):
    """`dense_block.bn_relu_dropout` on Variables, as one tape node."""
    out, bw = bn_relu_dropout(x.data, gamma.data, beta.data, state, mode, rate, rng)

    def node_bw(g):
        for v, gv in zip((x, gamma, beta), bw(g)):
            ag.accumulate(v, gv)

    return ag.make_op(out, (x, gamma, beta), node_bw)


def oracle_concat_channels(xs):
    """Channel concatenation as its own tape node: a copy of every input."""
    out = np.concatenate([x.data for x in xs], axis=3)
    offsets = np.cumsum([0] + [x.data.shape[3] for x in xs])

    def bw(g):
        for x, lo, hi in zip(xs, offsets[:-1], offsets[1:]):
            ag.accumulate(x, g[..., lo:hi])

    return ag.make_op(out, tuple(xs), bw)


def oracle_dense_forward(x, params, mode, rng=None):
    """A dense block that concatenates the inputs (one Variable or a list,
    concatenated first) and each layer's output into a new tape node per
    layer."""
    feats = x if isinstance(x, ag.Variable) else oracle_concat_channels(list(x))
    for layer in params.layers:
        h = ag.conv2d(feats, layer.conv_w, layer.conv_b, stride=1)
        h = bn_relu_dropout_node(h, layer.bn_gamma, layer.bn_beta, layer.bn_state, mode,
                                 params.dropout_rate, rng)
        feats = oracle_concat_channels([feats, h])
    return ag.conv2d(feats, params.out_w, params.out_b, stride=1)
