"""Independent scalar reimplementations used as test oracles.

Everything here is deliberately written with plain python loops or
plain numpy and never calls the production kernels, so agreement is
meaningful.
"""

import struct

import numpy as np

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


def oracle_mirror_pad(t, top, bottom, left, right):
    """Reflection padding of (N, H, W, C) without repeating the border pixel."""
    return np.pad(t, ((0, 0), (top, bottom), (left, right), (0, 0)), mode="reflect")


def oracle_masked_cross_entropy(logits, targets, mask, value_classes):
    """(value, gradient) of the masked loss by the dense formula: every
    task is evaluated, then the masked ones are multiplied by zero."""
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
    dz = (ez / sez - onehot) * active[..., None] * (g / count)
    dz[np.abs(dz) < np.finfo(dz.dtype).tiny] = 0
    return loss, dz.reshape(n, h, w, c)


def oracle_col_softmax(m):
    """Column softmax with no subnormal cut: shift by the column max, exp,
    divide by the column sum, then zero every weight below the dtype's
    smallest normal number."""
    out = m - np.max(m, axis=-2, keepdims=True)
    np.exp(out, out=out)
    out /= np.sum(out, axis=-2, keepdims=True)
    out[np.abs(out) < np.finfo(out.dtype).tiny] = 0
    return out


def oracle_col_softmax_backward(out, grad):
    """Column softmax backward in one pass over the whole block: the
    column sum of grad * out, then out * (grad - sum), then every result
    smaller in magnitude than the dtype's smallest normal number set to
    +0.0."""
    inner = np.sum(grad * out, axis=-2, keepdims=True)
    result = out * (grad - inner)
    result[np.abs(result) < np.finfo(result.dtype).tiny] = 0
    return result


def oracle_expectation(probs, task):
    """The "expectation" render in one pass over the whole image: the
    float64 product with the class indices, summed over the last axis,
    rounded half-up and clamped to 0-255."""
    p = probs[:, :, :, task, :]
    classes = np.arange(p.shape[-1], dtype=np.float64)
    img = np.floor((p.astype(np.float64) * classes).sum(axis=-1) + 0.5)
    return np.clip(img, 0, 255).astype(np.uint8)


def oracle_gptt_bytes(t):
    """One GPTT blob assembled in memory: magic, version, rank and the
    extents, then the little-endian float32 payload as one bytes copy."""
    t = np.asarray(t)
    return (b"GPTT" + struct.pack("<BB", 1, t.ndim) + struct.pack(f"<{t.ndim}I", *t.shape)
            + np.ascontiguousarray(t, dtype="<f4").tobytes())
