"""Dense numeric kernels every other module builds on.

Layout conventions (normative for the whole package):

* Rank-4 tensors are (batch N, height H, width W, channels C), row-major,
  so element (n, h, w, c) lives at flat index ((n*H + h)*W + w)*C + c.
* Mode-3 unfolding of one batch element maps (H, W, C) to a C x (H*W)
  matrix with spatial positions flattened h-major, w-minor:
  m[c, h*W + w] == t[h, w, c].
* "Same" convolution padding: output spatial extent is ceil(in/stride);
  zero padding is split evenly with the extra row/column on the
  bottom/right.
* Transposed convolution (stride 2) is the exact adjoint of the stride-2
  "same" convolution, so its output extent is exactly 2x the input.
* Bilinear resizing uses the align-corners=false convention: output index
  i samples source coordinate (i + 0.5) * in/out - 0.5, clamped to the
  valid range.

All kernels are pure functions of their inputs and deterministic: loops
and numpy reductions run in a fixed order, so identical inputs produce
bit-identical outputs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, ShapeError


def check_tensor4(t: np.ndarray, name: str = "tensor") -> np.ndarray:
    """Validate a rank-4 (N, H, W, C) tensor with extents >= 1."""
    t = np.asarray(t)
    if t.ndim != 4:
        raise ShapeError(f"{name}: expected rank-4 (N,H,W,C), got rank {t.ndim}")
    if any(d < 1 for d in t.shape):
        raise ShapeError(f"{name}: all extents must be >= 1, got {t.shape}")
    return t


# ---------------------------------------------------------------------------
# mode-3 unfold / fold
# ---------------------------------------------------------------------------

def unfold_mode3(t: np.ndarray) -> np.ndarray:
    """Unfold one batch element (H, W, C) into a C x (H*W) matrix.

    Column h*W + w holds the channel vector at spatial position (h, w).
    """
    t = np.asarray(t)
    if t.ndim != 3:
        raise ShapeError(f"unfold_mode3: expected (H,W,C), got rank {t.ndim}")
    h, w, c = t.shape
    return np.ascontiguousarray(t.transpose(2, 0, 1).reshape(c, h * w))


def fold_mode3(m: np.ndarray, height: int, width: int) -> np.ndarray:
    """Inverse of :func:`unfold_mode3`: C x (H*W) back to (H, W, C)."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ShapeError(f"fold_mode3: expected a matrix, got rank {m.ndim}")
    c, cols = m.shape
    if cols != height * width:
        raise ShapeError(
            f"fold_mode3: matrix has {cols} columns, expected H*W = "
            f"{height}*{width} = {height * width}"
        )
    return np.ascontiguousarray(m.reshape(c, height, width).transpose(1, 2, 0))


# ---------------------------------------------------------------------------
# matmul / softmax
# ---------------------------------------------------------------------------

def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product, optionally batched over identical leading axes."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"matmul: inner dimensions disagree, {a.shape} @ {b.shape}"
        )
    if a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(
            f"matmul: batch extents disagree, {a.shape} @ {b.shape}"
        )
    return np.matmul(a, b)


def col_softmax(m: np.ndarray) -> np.ndarray:
    """Softmax of every column (axis -2), stabilised by column-max shift.

    For a key/query score matrix of shape (n_keys, n_queries) each output
    column is a probability vector over key positions. Weights below the
    dtype's smallest normal number are flushed to zero: each moves by
    less than that number, and subnormal operands would slow every later
    BLAS product on them by about 100x.
    """
    m = np.asarray(m)
    if m.ndim < 2:
        raise ShapeError(f"col_softmax: expected a matrix, got rank {m.ndim}")
    if not np.all(np.isfinite(m)):
        raise NumericError("col_softmax: non-finite input")
    out = m - np.max(m, axis=-2, keepdims=True)
    np.exp(out, out=out)
    out /= np.sum(out, axis=-2, keepdims=True)
    np.copyto(out, 0, where=out < np.finfo(out.dtype).tiny)
    return out


def col_softmax_backward(out: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Gradient of col_softmax w.r.t. its input, given output and upstream grad.

    Results with magnitude below the dtype's smallest normal number are
    flushed to zero, as in the forward.
    """
    inner = np.sum(grad * out, axis=-2, keepdims=True)
    g = out * (grad - inner)
    np.copyto(g, 0, where=np.abs(g) < np.finfo(g.dtype).tiny)
    return g


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def same_pad_amounts(extent: int, kernel: int, stride: int) -> tuple[int, int, int]:
    """(out_extent, pad_before, pad_after) for "same" padding.

    The extra unit of odd padding goes after (bottom/right).
    """
    out = -(-extent // stride)  # ceil division
    total = max((out - 1) * stride + kernel - extent, 0)
    before = total // 2
    return out, before, total - before


def _im2col(xp: np.ndarray, k: int, stride: int, out_h: int, out_w: int) -> np.ndarray:
    """Gather kxk patches of a padded (N, Hp, Wp, C) tensor.

    Returns (N, out_h, out_w, k, k, C) views stacked contiguously.
    """
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    # windows: (N, Hp-k+1, Wp-k+1, C, k, k)
    sub = windows[:, : (out_h - 1) * stride + 1 : stride,
                  : (out_w - 1) * stride + 1 : stride]
    return np.ascontiguousarray(sub.transpose(0, 1, 2, 4, 5, 3))


def _col2im(cols: np.ndarray, padded_shape: tuple[int, ...], k: int, stride: int) -> np.ndarray:
    """Adjoint of :func:`_im2col`: scatter-add patches back onto the padded grid."""
    n, out_h, out_w = cols.shape[:3]
    xg = np.zeros(padded_shape, dtype=cols.dtype)
    for i in range(k):
        for j in range(k):
            xg[:, i : i + (out_h - 1) * stride + 1 : stride,
               j : j + (out_w - 1) * stride + 1 : stride, :] += cols[:, :, :, i, j, :]
    return xg


def _check_conv_args(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int) -> None:
    if w.ndim != 4 or w.shape[0] != w.shape[1]:
        raise ShapeError(f"conv2d: weights must be (k,k,Cin,Cout), got {w.shape}")
    if x.shape[3] != w.shape[2]:
        raise ShapeError(
            f"conv2d: input has {x.shape[3]} channels, weights expect {w.shape[2]}"
        )
    if b.shape != (w.shape[3],):
        raise ShapeError(f"conv2d: bias must be ({w.shape[3]},), got {b.shape}")
    if stride not in (1, 2):
        raise ShapeError(f"conv2d: stride must be 1 or 2, got {stride}")


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1) -> np.ndarray:
    """2-D convolution with "same" zero padding.

    x: (N, H, W, Cin), w: (k, k, Cin, Cout), b: (Cout,).
    Output: (N, ceil(H/stride), ceil(W/stride), Cout).
    """
    x = check_tensor4(x, "conv2d input")
    w = np.asarray(w)
    b = np.asarray(b)
    _check_conv_args(x, w, b, stride)
    k = w.shape[0]
    n, h, ww, cin = x.shape
    out_h, pt, pb = same_pad_amounts(h, k, stride)
    out_w, pl, pr = same_pad_amounts(ww, k, stride)
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    cols = _im2col(xp, k, stride, out_h, out_w)
    y = cols.reshape(n, out_h, out_w, k * k * cin) @ w.reshape(k * k * cin, -1)
    return y + b


def _conv2d_input_grad(
    in_h: int, in_w: int, w: np.ndarray, stride: int, grad: np.ndarray
) -> np.ndarray:
    """Adjoint of conv2d in its input: scatter `grad` back onto an (in_h, in_w) grid."""
    k = w.shape[0]
    cin, cout = w.shape[2], w.shape[3]
    n, out_h, out_w = grad.shape[:3]
    _, pt, pb = same_pad_amounts(in_h, k, stride)
    _, pl, pr = same_pad_amounts(in_w, k, stride)
    padded = (n, in_h + pt + pb, in_w + pl + pr, cin)
    gcols = grad.reshape(n * out_h * out_w, cout) @ w.reshape(k * k * cin, cout).T
    gxp = _col2im(gcols.reshape(n, out_h, out_w, k, k, cin), padded, k, stride)
    return gxp[:, pt : pt + in_h, pl : pl + in_w, :]


def conv2d_backward(
    x: np.ndarray, w: np.ndarray, stride: int, grad: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of conv2d w.r.t. (x, w, b) given upstream grad on the output."""
    k = w.shape[0]
    n, h, ww, cin = x.shape
    out_h, pt, pb = same_pad_amounts(h, k, stride)
    out_w, pl, pr = same_pad_amounts(ww, k, stride)
    cout = w.shape[3]

    grad_b = grad.sum(axis=(0, 1, 2))

    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    cols = _im2col(xp, k, stride, out_h, out_w).reshape(n * out_h * out_w, k * k * cin)
    grad_w = (cols.T @ grad.reshape(n * out_h * out_w, cout)).reshape(w.shape)

    grad_x = _conv2d_input_grad(h, ww, w, stride, grad)
    return grad_x, grad_w, grad_b


def deconv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3x3 stride-2 transposed convolution doubling the spatial extents.

    x: (N, H, W, Cin), w: (3, 3, Cin, Cout), b: (Cout,).
    Output: (N, 2H, 2W, Cout). Defined as the adjoint of the stride-2
    "same" conv2d that maps (2H, 2W, Cout) to (H, W, Cin) with the
    channel-transposed weights, which pins the cropping convention.
    """
    x = check_tensor4(x, "deconv2d input")
    w = np.asarray(w)
    b = np.asarray(b)
    if w.ndim != 4 or w.shape[0] != 3 or w.shape[1] != 3:
        raise ShapeError(f"deconv2d: weights must be (3,3,Cin,Cout), got {w.shape}")
    if x.shape[3] != w.shape[2]:
        raise ShapeError(
            f"deconv2d: input has {x.shape[3]} channels, weights expect {w.shape[2]}"
        )
    if b.shape != (w.shape[3],):
        raise ShapeError(f"deconv2d: bias must be ({w.shape[3]},), got {b.shape}")
    wt = np.ascontiguousarray(w.transpose(0, 1, 3, 2))  # (3,3,Cout,Cin)
    out = _conv2d_input_grad(2 * x.shape[1], 2 * x.shape[2], wt, 2, x)
    return out + b


def deconv2d_backward(
    x: np.ndarray, w: np.ndarray, grad: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of deconv2d w.r.t. (x, w, b)."""
    wt = np.ascontiguousarray(w.transpose(0, 1, 3, 2))
    grad_b = grad.sum(axis=(0, 1, 2))
    grad_x = conv2d(grad, wt, np.zeros(w.shape[2], dtype=grad.dtype), stride=2)
    # weight grad mirrors conv2d's, with the roles of input and output swapped
    k = 3
    n, gh, gw, cout = grad.shape
    out_h, pt, pb = same_pad_amounts(gh, k, 2)
    out_w, pl, pr = same_pad_amounts(gw, k, 2)
    gp = np.pad(grad, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    cols = _im2col(gp, k, 2, out_h, out_w).reshape(n * out_h * out_w, k * k * cout)
    gwt = (cols.T @ x.reshape(n * out_h * out_w, x.shape[3])).reshape(wt.shape)
    grad_w = np.ascontiguousarray(gwt.transpose(0, 1, 3, 2))
    return grad_x, grad_w, grad_b


# ---------------------------------------------------------------------------
# bilinear resize
# ---------------------------------------------------------------------------

def _resize_axis_coords(in_size: int, out_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source indices (lo, hi) and blend fraction for one axis."""
    src = (np.arange(out_size, dtype=np.float64) + 0.5) * (in_size / out_size) - 0.5
    src = np.clip(src, 0.0, in_size - 1.0)
    lo = np.floor(src).astype(np.int64)
    lo = np.minimum(lo, in_size - 1)
    hi = np.minimum(lo + 1, in_size - 1)
    frac = src - lo
    return lo, hi, frac


def resize_bilinear(t: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of (N, H, W, C) with align-corners=false.

    Resizing to the identical extents returns a copy of the input values.
    """
    t = check_tensor4(t, "resize input")
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"resize: output extents must be >= 1, got {out_h}x{out_w}")
    n, h, w, c = t.shape
    if (out_h, out_w) == (h, w):
        return t.copy()
    frac_dtype = t.dtype if t.dtype == np.float64 else np.float32
    ylo, yhi, fy = _resize_axis_coords(h, out_h)
    xlo, xhi, fx = _resize_axis_coords(w, out_w)
    fy = fy.astype(frac_dtype)[None, :, None, None]
    fx = fx.astype(frac_dtype)[None, None, :, None]
    # a + f*(b - a) form: exact for constant inputs
    lo = t[:, ylo]
    rows = lo + fy * (t[:, yhi] - lo)  # (N, out_h, W, C)
    lo = rows[:, :, xlo]
    out = lo + fx * (rows[:, :, xhi] - lo)
    return out.astype(t.dtype, copy=False)


def resize_bilinear_backward(
    in_h: int, in_w: int, grad: np.ndarray
) -> np.ndarray:
    """Adjoint of resize_bilinear: scatter output gradients back to the source grid."""
    n, out_h, out_w, c = grad.shape
    if (out_h, out_w) == (in_h, in_w):
        return grad.copy()
    frac_dtype = grad.dtype if grad.dtype == np.float64 else np.float32
    ylo, yhi, fy = _resize_axis_coords(in_h, out_h)
    xlo, xhi, fx = _resize_axis_coords(in_w, out_w)
    fy = fy.astype(frac_dtype)[None, :, None, None]
    fx = fx.astype(frac_dtype)[None, None, :, None]
    rows = np.zeros((n, out_h, in_w, c), dtype=grad.dtype)
    np.add.at(rows, (slice(None), slice(None), xlo), grad * (1 - fx))
    np.add.at(rows, (slice(None), slice(None), xhi), grad * fx)
    gx = np.zeros((n, in_h, in_w, c), dtype=grad.dtype)
    np.add.at(gx, (slice(None), ylo), rows * (1 - fy))
    np.add.at(gx, (slice(None), yhi), rows * fy)
    return gx


# ---------------------------------------------------------------------------
# padding
# ---------------------------------------------------------------------------

def mirror_pad(
    t: np.ndarray, top: int, bottom: int, left: int, right: int
) -> np.ndarray:
    """Reflection padding of (N, H, W, C) without repeating the border pixel."""
    t = check_tensor4(t, "mirror_pad input")
    for amount, extent, axis in (
        (top, t.shape[1], "top"), (bottom, t.shape[1], "bottom"),
        (left, t.shape[2], "left"), (right, t.shape[2], "right"),
    ):
        if amount < 0:
            raise ShapeError(f"mirror_pad: negative {axis} pad {amount}")
        if amount >= extent:
            raise ShapeError(
                f"mirror_pad: {axis} pad {amount} too large for extent {extent}"
            )
    if top == bottom == left == right == 0:
        return t.copy()
    return np.pad(t, ((0, 0), (top, bottom), (left, right), (0, 0)), mode="reflect")


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------

def concat_channels(tensors: list[np.ndarray]) -> np.ndarray:
    """Stack tensors along the channel axis; all other extents must agree."""
    if not tensors:
        raise ShapeError("concat_channels: empty input list")
    first = check_tensor4(tensors[0], "concat input 0")
    for i, t in enumerate(tensors[1:], start=1):
        t = check_tensor4(t, f"concat input {i}")
        if t.shape[:3] != first.shape[:3]:
            raise ShapeError(
                f"concat_channels: input {i} has (N,H,W) {t.shape[:3]}, "
                f"expected {first.shape[:3]}"
            )
    return np.concatenate(tensors, axis=3)


def he_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int,
            dtype=np.float32) -> np.ndarray:
    """He-style normal initialisation with ReLU gain."""
    std = math.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(dtype)
