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
# softmax
# ---------------------------------------------------------------------------

def flush_subnormals(a: np.ndarray) -> np.ndarray:
    """Zero, in place, the entries of `a` smaller in magnitude than its
    dtype's smallest normal number; returns `a`.

    Each entry moves by less than that number, and subnormal operands
    would slow every later BLAS product on them by about 100x.
    """
    tiny = np.finfo(a.dtype).tiny
    small = a < tiny  # two comparisons, not np.abs: no float-sized temporary
    small &= a > -tiny
    np.copyto(a, 0, where=small)
    return a


# A block whose row sample has more than 1/SUBNORMAL_GATE of its shifted
# scores where exp turns subnormal takes the cut path of col_softmax.
SUBNORMAL_GATE = 256
# Elements per row slab of the softmax passes' scratch buffer.
SOFTMAX_SLAB = 2 ** 16


def _subnormal_band(dtype) -> tuple[np.floating, float]:
    """(cut, floor) for shifted scores x of `dtype`: exp(x) is subnormal
    or zero for x < cut = log(tiny), and rounds to exactly 0 below floor."""
    fi = np.finfo(dtype)
    cut = np.log(fi.dtype.type(fi.tiny))
    return cut, float(cut) - (fi.nmant + 1) * math.log(2)


def _has_subnormal_tail(shifted: np.ndarray) -> bool:
    """Whether a strided row sample of the shifted scores puts more than
    1/SUBNORMAL_GATE of its entries where exp turns subnormal."""
    cut, floor = _subnormal_band(shifted.dtype)
    sample = shifted[..., :: max(1, shifted.shape[-2] // 64), :]
    band = np.count_nonzero((sample >= floor) & (sample < cut))
    return band * SUBNORMAL_GATE > sample.size


def _slab_rows(shape: tuple[int, ...]) -> int:
    """Rows per slab of an (..., rows, cols) array, about SOFTMAX_SLAB
    elements. A one-column array is one slab: numpy sums a single column
    pairwise, but several columns row by row, which is what lets
    :func:`col_softmax_backward_inplace` carry a column sum across slabs."""
    rows, cols = shape[-2], shape[-1]
    if cols == 1:
        return rows
    return max(1, SOFTMAX_SLAB * rows // math.prod(shape))


def _row_slabs(shape: tuple[int, ...]) -> list[tuple]:
    step = _slab_rows(shape)
    return [(..., slice(lo, lo + step), slice(None)) for lo in range(0, shape[-2], step)]


def softmax_scratch_size(shape: tuple[int, ...]) -> int:
    """Elements of the scratch buffer the in-place softmax passes need on
    an array of `shape`: one row slab plus one row."""
    return (_slab_rows(shape) + 1) * math.prod(shape) // shape[-2]


def _scratch_like(scratch: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return scratch[: math.prod(shape)].reshape(shape)


def _softmax_shifted(x: np.ndarray, cut_tail: bool, scratch: np.ndarray) -> np.ndarray:
    """Column softmax of shifted scores x, in place, slab by slab.

    With `cut_tail`, scores below log(tiny) first move below the
    underflow point, so exp gives exactly 0 where it would give a
    subnormal that the flush would zero. After the divide, one `>= tiny`
    comparison into float scratch, multiplied in, flushes: weights are
    >= 0, so this zeroes exactly what :func:`flush_subnormals` would.
    """
    fi = np.finfo(x.dtype)
    cut, _ = _subnormal_band(x.dtype)
    slabs = _row_slabs(x.shape)
    with np.errstate(over="ignore"):
        for s in slabs:
            xs = x[s]
            if cut_tail:
                t = np.subtract(xs, cut, out=_scratch_like(scratch, xs.shape))
                t *= fi.max  # >= 0 where xs >= cut, else far below the underflow point
                np.minimum(xs, t, out=xs)
            np.exp(xs, out=xs)
    total = np.sum(x, axis=-2, keepdims=True)
    for s in slabs:
        xs = x[s]
        xs /= total
        xs *= np.greater_equal(xs, fi.tiny, out=_scratch_like(scratch, xs.shape),
                               casting="unsafe")
    return x


def _cut_softmax(out: np.ndarray) -> np.ndarray:
    """Column softmax of shifted scores, in place, computing no subnormal."""
    return _softmax_shifted(out, True, np.empty(softmax_scratch_size(out.shape), out.dtype))


def col_softmax_inplace(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """:func:`col_softmax` of a float array, written over it; returns x.

    `scratch` is a flat buffer of x's dtype with at least
    softmax_scratch_size(x.shape) elements. Besides it, only the column
    statistics and the gate's row sample take memory.
    """
    colmax = np.max(x, axis=-2, keepdims=True)
    # a NaN or an infinity shows in its column's max or min
    if not (np.isfinite(colmax).all() and np.isfinite(np.min(x, axis=-2)).all()):
        raise NumericError("col_softmax: non-finite input")
    x -= colmax
    return _softmax_shifted(x, _has_subnormal_tail(x), scratch)


def col_softmax(m: np.ndarray) -> np.ndarray:
    """Softmax of every column (axis -2), stabilised by column-max shift.

    For a key/query score matrix of shape (n_keys, n_queries) each output
    column is a probability vector over key positions. Weights below the
    dtype's smallest normal number are flushed to zero, as
    :func:`flush_subnormals` would.

    Subnormal operands cost exp and the divide about 100x each. So when a
    row sample shows a subnormal tail (:func:`_has_subnormal_tail`), the
    block takes the cut path, which computes none: scores below log(tiny)
    are cut before exp. Both paths return the same bits, so the gate
    decides only speed. Nothing is zeroed before the divide: zeroing exps
    below tiny * sum would differ from the flush when the sum is a power
    of two >= 2 and an exp lies one ulp below tiny * sum (the quotient
    ties and rounds up to tiny). The cut does drop subnormal addends from
    the column sum; they could move its last bit only through a chain of
    exact rounding ties that starts while the running sum is below
    2**24 * tiny, and no such input is known.
    """
    m = np.asarray(m)
    if m.ndim < 2:
        raise ShapeError(f"col_softmax: expected a matrix, got rank {m.ndim}")
    out = np.copy(m)
    return col_softmax_inplace(out, np.empty(softmax_scratch_size(out.shape), out.dtype))


def col_softmax_backward_inplace(out: np.ndarray, grad: np.ndarray,
                                 scratch: np.ndarray) -> np.ndarray:
    """:func:`col_softmax_backward` written over `grad`; returns grad.

    `grad` has out's shape and dtype; `scratch` is as for
    :func:`col_softmax_inplace`. The column sum of grad * out is built
    slab by slab: numpy sums axis -2 row by row, so summing each slab's
    products below the running sum, kept in the slab scratch's first
    row, adds the same numbers in the same order as one sum over all
    rows.
    """
    slabs = _row_slabs(out.shape)
    inner = None
    for s in slabs:
        w = out[s]
        acc = _scratch_like(scratch, w.shape[:-2] + (w.shape[-2] + 1, w.shape[-1]))
        np.multiply(grad[s], w, out=acc[..., 1:, :])
        if inner is None:
            inner = np.sum(acc[..., 1:, :], axis=-2, keepdims=True)
        else:
            acc[..., :1, :] = inner
            np.sum(acc, axis=-2, keepdims=True, out=inner)
    for s in slabs:
        gs = grad[s]
        gs -= inner
        gs *= out[s]
        flush_subnormals(gs)  # keeps +0.0 for negative subnormals
    return grad


def col_softmax_backward(out: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Gradient of col_softmax w.r.t. its input, given output and upstream grad.

    Results with magnitude below the dtype's smallest normal number are
    flushed to zero, as in the forward.
    """
    grad = np.array(grad, dtype=np.result_type(out, grad))
    return col_softmax_backward_inplace(
        out, grad, np.empty(softmax_scratch_size(out.shape), grad.dtype))


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
    y += b
    return y


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


def _conv2d_weight_grad(
    x: np.ndarray, k: int, stride: int, grad: np.ndarray
) -> np.ndarray:
    """Gradient w.r.t. the (k, k, Cin, Cout) weights of a conv2d of `x`,
    given upstream grad (N, out_h, out_w, Cout) on its output."""
    n, h, ww, cin = x.shape
    out_h, pt, pb = same_pad_amounts(h, k, stride)
    out_w, pl, pr = same_pad_amounts(ww, k, stride)
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    cols = _im2col(xp, k, stride, out_h, out_w).reshape(n * out_h * out_w, k * k * cin)
    cout = grad.shape[3]
    return (cols.T @ grad.reshape(n * out_h * out_w, cout)).reshape(k, k, cin, cout)


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
