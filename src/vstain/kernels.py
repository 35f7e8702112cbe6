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

# autograd owns the worker pool; it imports this module too, and calls
# into it only after both have loaded
from . import _flush_to_zero, autograd
from .errors import NumericError, ShapeError


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def dots_bounded(a: np.ndarray, b: np.ndarray, offset: np.ndarray | None = None) -> bool:
    """Whether every a_i . b_j (+ offset), a_i and b_j rows (last axis) of
    a and b, is known to stay below a quarter of the dtype's largest value.

    By Cauchy-Schwarz, |a_i . b_j| and each partial sum of its products
    are at most max|a_i| * max|b_j| (Euclidean norms), plus max|offset|.
    That bound is computed in the operands' dtype without a wider copy,
    so an overflow, an infinity or a NaN among the operands fails it.
    Under the bound no sum, and no difference of two sums, is infinite.
    """
    dtype = np.result_type(a, b, *(() if offset is None else (offset,)))
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.sqrt(np.einsum("...c,...c->...", a, a, dtype=dtype).max(), dtype=dtype)
        bound *= np.sqrt(np.einsum("...c,...c->...", b, b, dtype=dtype).max(), dtype=dtype)
        if offset is not None:
            bound += np.abs(offset).max().astype(dtype)
    return bool(bound < np.finfo(dtype).max / 4)


def exp_shifted_inplace(x: np.ndarray, axis: int, error: str,
                        bounded: bool = False) -> np.ndarray:
    """exp(x - max) along `axis` of a float array, written over it;
    returns the maxima (keepdims).

    Raises NumericError(error) on a NaN or an infinity in x: a NaN shows
    in the max along the axis, an infinity in the max or the min.
    `bounded` says that no entry can be infinite (see
    :func:`dots_bounded`), so the min pass is skipped. Runs under the
    caller's subnormal flushing.
    """
    top = np.max(x, axis=axis, keepdims=True)
    if not (np.isfinite(top).all() and (bounded or np.isfinite(np.min(x, axis=axis)).all())):
        raise NumericError(error)
    x -= top
    np.exp(x, out=x)
    return top


def col_softmax(m: np.ndarray) -> np.ndarray:
    """Softmax of every column (axis -2), stabilised by column-max shift.

    For a key/query score matrix of shape (n_keys, n_queries) each output
    column is a probability vector over key positions. It runs with
    subnormals flushed in hardware (:func:`vstain._flush_to_zero`), so
    exps and weights below the dtype's smallest normal number are zero
    and add nothing to the column sum; where that mode does nothing,
    they stay as computed.
    """
    m = np.asarray(m)
    if m.ndim < 2:
        raise ShapeError(f"col_softmax: expected a matrix, got rank {m.ndim}")
    x = np.copy(m)
    with _flush_to_zero():
        exp_shifted_inplace(x, -2, "col_softmax: non-finite input")
        x /= np.sum(x, axis=-2, keepdims=True)
    return x


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


def _same_pad(x: np.ndarray, k: int, stride: int) -> tuple[np.ndarray, int, int]:
    """(x zero-padded for a "same" kxk convolution, out_h, out_w); x itself
    when the convolution needs no padding."""
    out_h, pt, pb = same_pad_amounts(x.shape[1], k, stride)
    out_w, pl, pr = same_pad_amounts(x.shape[2], k, stride)
    if pt == pb == pl == pr == 0:
        return x, out_h, out_w
    n, h, w, c = x.shape
    xp = np.zeros((n, pt + h + pb, pl + w + pr, c), x.dtype)
    xp[:, pt : pt + h, pl : pl + w] = x
    return xp, out_h, out_w


def _tap(a: np.ndarray, i: int, j: int, lo: int, hi: int, out_w: int,
         stride: int) -> np.ndarray:
    """Tap (i, j)'s strided view of a padded (N, Hp, Wp, C) array at a
    convolution's output rows [lo, hi): (N, hi - lo, out_w, C), no copy."""
    return a[:, i + lo * stride : i + (hi - 1) * stride + 1 : stride,
             j : j + (out_w - 1) * stride + 1 : stride]


def _check_conv_args(op: str, x: np.ndarray, w: np.ndarray) -> None:
    if x.shape[3] != w.shape[2]:
        raise ShapeError(
            f"{op}: input has {x.shape[3]} channels, weights expect {w.shape[2]}"
        )


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1) -> np.ndarray:
    """2-D convolution with "same" zero padding.

    x: (N, H, W, Cin), w: (k, k, Cin, Cout), b: (Cout,).
    Output: (N, ceil(H/stride), ceil(W/stride), Cout). Each piece of
    output rows adds its taps' products with w[i, j] (:func:`_tap`) in
    (i, j) order into its rows of the output, then the bias.
    """
    x = np.asarray(x)
    w = np.asarray(w)
    b = np.asarray(b)
    _check_conv_args("conv2d", x, w)
    k = w.shape[0]
    xp, out_h, out_w = _same_pad(x, k, stride)
    y = np.empty((x.shape[0], out_h, out_w, w.shape[3]), dtype=np.result_type(x, w))

    def piece(lo, hi):
        out = y[:, lo:hi]
        np.matmul(_tap(xp, 0, 0, lo, hi, out_w, stride), w[0, 0], out=out)
        scratch = np.empty_like(out) if k > 1 else None
        for tap in range(1, k * k):
            i, j = divmod(tap, k)
            out += np.matmul(_tap(xp, i, j, lo, hi, out_w, stride), w[i, j], out=scratch)
        out += b

    autograd.split_rows(piece, out_h, y.size * k * k * x.shape[3], small=True)
    return y


def _conv2d_input_grad(
    in_h: int, in_w: int, w: np.ndarray, stride: int, grad: np.ndarray
) -> np.ndarray:
    """Adjoint of conv2d in its input: scatter `grad` back onto an (in_h, in_w) grid.

    Each piece of padded rows adds, tap by tap in (i, j) order, the
    product of `grad`'s output rows whose tap lands in it with w[i, j]^T
    into that tap's view of the padded gradient (:func:`_tap`), so every
    element receives its addends in the same order however the rows are
    cut. The products of one tap row i share one scratch array.
    """
    k = w.shape[0]
    cin, cout = w.shape[2], w.shape[3]
    n, out_h, out_w = grad.shape[:3]
    _, pt, pb = same_pad_amounts(in_h, k, stride)
    _, pl, pr = same_pad_amounts(in_w, k, stride)
    xg = np.zeros((n, in_h + pt + pb, in_w + pl + pr, cin), dtype=np.result_type(grad, w))

    def piece(lo, hi):
        for i in range(k):
            # output rows oy whose tap i lands in [lo, hi): lo <= i + oy*stride < hi
            first, last = max(0, -((i - lo) // stride)), min(out_h, -((i - hi) // stride))
            if first >= last:
                continue
            # one product per batch element over all these rows: a view of grad's rows
            g = grad[:, first:last].reshape(n, -1, cout)
            scratch = np.empty((n, g.shape[1], cin), xg.dtype)
            for j in range(k):
                np.matmul(g, w[i, j].T, out=scratch)
                view = _tap(xg, i, j, first, last, out_w, stride)
                view += scratch.reshape(view.shape)

    autograd.split_rows(piece, xg.shape[1], n * out_h * out_w * k * k * cin * cout, small=True)
    return xg[:, pt : pt + in_h, pl : pl + in_w, :]


def _conv2d_weight_grad(
    x: np.ndarray, k: int, stride: int, grad: np.ndarray
) -> np.ndarray:
    """Gradient w.r.t. the (k, k, Cin, Cout) weights of a conv2d of `x`,
    given upstream grad (N, out_h, out_w, Cout) on its output.

    Row (i, j, c) of the (k*k*Cin, Cout) gradient is channel c of tap
    (i, j)'s view of padded x (:func:`_tap`) times grad. Pieces of these
    rows each gather their own rows into one array for one product; the
    reduction over output positions stays whole.
    """
    n, cin = x.shape[0], x.shape[3]
    xp, out_h, out_w = _same_pad(x, k, stride)
    m, kkc = n * out_h * out_w, k * k * cin
    g2 = grad.reshape(m, -1)
    gw = np.empty((kkc, g2.shape[1]), dtype=np.result_type(xp, g2))

    def piece(lo, hi):
        cols = np.empty((n, out_h, out_w, hi - lo), xp.dtype)
        for tap in range(lo // cin, -(-hi // cin)):
            i, j = divmod(tap, k)
            c0, c1 = max(lo - tap * cin, 0), min(hi - tap * cin, cin)
            np.copyto(cols[..., tap * cin + c0 - lo : tap * cin + c1 - lo],
                      _tap(xp, i, j, 0, out_h, out_w, stride)[..., c0:c1])
        np.matmul(cols.reshape(m, hi - lo).T, g2, out=gw[lo:hi])

    autograd.split_rows(piece, kkc, m * kkc * g2.shape[1], small=True)
    return gw.reshape(k, k, cin, -1)


def conv2d_backward(
    x: np.ndarray, w: np.ndarray, stride: int, grad: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of conv2d w.r.t. (x, w, b) given upstream grad on the output."""
    grad_x = _conv2d_input_grad(x.shape[1], x.shape[2], w, stride, grad)
    grad_w = _conv2d_weight_grad(x, w.shape[0], stride, grad)
    return grad_x, grad_w, grad.sum(axis=(0, 1, 2))


def deconv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3x3 stride-2 transposed convolution doubling the spatial extents.

    x: (N, H, W, Cin), w: (3, 3, Cin, Cout), b: (Cout,).
    Output: (N, 2H, 2W, Cout). Defined as the adjoint of the stride-2
    "same" conv2d that maps (2H, 2W, Cout) to (H, W, Cin) with the
    channel-transposed weights, which pins the cropping convention.
    """
    x = np.asarray(x)
    w = np.asarray(w)
    b = np.asarray(b)
    _check_conv_args("deconv2d", x, w)
    wt = np.ascontiguousarray(w.transpose(0, 1, 3, 2))  # (3,3,Cout,Cin)
    out = _conv2d_input_grad(2 * x.shape[1], 2 * x.shape[2], wt, 2, x)
    return out + b


def deconv2d_backward(
    x: np.ndarray, w: np.ndarray, grad: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of deconv2d w.r.t. (x, w, b)."""
    wt = np.ascontiguousarray(w.transpose(0, 1, 3, 2))
    grad_x = conv2d(grad, wt, np.zeros(w.shape[2], dtype=grad.dtype), stride=2)
    # deconv2d is the input adjoint of a stride-2 conv mapping grad's grid
    # to x's, so its weight grad is that conv's, channel-transposed back
    gwt = _conv2d_weight_grad(grad, 3, 2, x)
    grad_w = np.ascontiguousarray(gwt.transpose(0, 1, 3, 2))
    return grad_x, grad_w, grad.sum(axis=(0, 1, 2))


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
    t = np.asarray(t)
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


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------

def he_init(rng: np.random.Generator, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
    """He-style normal initialisation with ReLU gain. The fan-in is the
    product of every axis but the last (output channels) of `shape`."""
    std = math.sqrt(2.0 / math.prod(shape[:-1]))
    return rng.normal(0.0, std, size=shape).astype(dtype)
