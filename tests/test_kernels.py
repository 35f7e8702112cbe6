"""Core kernel contracts: layout, padding, adjoints, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vstain
from vstain import autograd as ag
from vstain import kernels as K
from vstain.errors import NumericError, ShapeError
from vstain.multiscale import _reflect_indices

from oracles import oracle_col_softmax

rng = np.random.default_rng(1234)


# ---------------------------------------------------------------------------
# column softmax
# ---------------------------------------------------------------------------

def test_col_softmax_uniform_for_equal_values():
    out = K.col_softmax(np.full((5, 3), 2.5))
    assert np.allclose(out, 1 / 5)


def test_col_softmax_singleton_rows():
    assert np.allclose(K.col_softmax(np.array([[3.0, -1.0, 9.9]])), 1.0)


def test_col_softmax_log_ratio_oracle():
    out = K.col_softmax(np.log(np.array([[1.0], [3.0]])))
    assert np.allclose(out, [[0.25], [0.75]])


def test_col_softmax_columns_sum_to_one_and_shift_invariant():
    m = rng.normal(size=(7, 5)) * 10
    out = K.col_softmax(m)
    assert np.allclose(out.sum(axis=0), 1.0, atol=1e-6)
    shifted = K.col_softmax(m + rng.normal(size=(1, 5)))
    assert np.allclose(out, shifted, atol=1e-6)


def test_col_softmax_rejects_non_finite():
    with pytest.raises(NumericError):
        K.col_softmax(np.array([[np.inf], [0.0]]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_col_softmax_rejects_each_non_finite_value(bad):
    scores = rng.normal(size=(300, 4)).astype(np.float32) * 30
    scores[7, 2] = bad
    with pytest.raises(NumericError):
        K.col_softmax(scores)


def test_dots_bound_holds_up_to_a_quarter_of_the_largest_value():
    # powers of two: the bound max|a_i| * max|b_j| is exact in float32
    a, b = np.float32([[2.0 ** 62, 0.0], [1.0, 1.0]]), np.float32([[2.0 ** 63, 0.0]])
    assert K.dots_bounded(a, b)  # 2^125 < max / 4
    assert not K.dots_bounded(2 * a, b)  # 2^126 > max / 4
    assert not K.dots_bounded(a, b, np.float32([0.0, 2.0 ** 125]))


@pytest.mark.parametrize("a, b", [
    ([[1e20, 0.0]], [[1e-20, 0.0]]),  # each dot is 1, but 1e20 squared is inf in float32
    ([[np.inf, 0.0]], [[0.0, 1.0]]),
    ([[np.nan, 0.0]], [[1.0, 1.0]]),
], ids=["squares-overflow", "inf", "nan"])
def test_dots_bound_fails_on_overflow_infinity_and_nan(a, b):
    assert not K.dots_bounded(np.float32(a), np.float32(b))
    assert not K.dots_bounded(np.float32(b), np.float32(a))


def test_bounded_shifted_exp_checks_only_the_column_max():
    x = np.float32([[0.0, 1.0, np.nan], [-np.inf, 3.0, 0.0]])
    error = "col_softmax: non-finite input"
    with pytest.raises(NumericError, match=error):
        K.exp_shifted_inplace(x.copy(), -2, error, bounded=True)  # the NaN shows in the max
    ok = x[:, :2].copy()
    colmax = K.exp_shifted_inplace(ok, -2, error, bounded=True)  # -inf is left to the bound
    assert np.array_equal(colmax, [[0.0, 3.0]])
    assert np.array_equal(ok, np.exp(x[:, :2] - colmax))
    with pytest.raises(NumericError, match=error):
        K.exp_shifted_inplace(x[:, :2].copy(), -2, error)
    # the same along rows, with the caller's error text
    rows = x[:, :2].T.copy()
    rowmax = K.exp_shifted_inplace(rows, -1, "head: non-finite logits", bounded=True)
    assert np.array_equal(rowmax, [[0.0], [3.0]])
    assert np.array_equal(rows, np.exp(x[:, :2].T - rowmax))
    with pytest.raises(NumericError, match="head: non-finite logits"):
        K.exp_shifted_inplace(x[:, :2].T.copy(), -1, "head: non-finite logits")


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def subnormal(t):
    return np.count_nonzero((t != 0) & (np.abs(t) < np.finfo(t.dtype).tiny))


SCORE_BLOCKS = {
    # attention-like blocks: scale 30 puts about 16 % of the exps in the
    # subnormal range, scale 3 none; scale 3000 makes almost every exp 0
    "scale30": (rng.normal(size=(4096, 64)) * 30).astype(np.float32),
    "scale3": (rng.normal(size=(4096, 64)) * 3).astype(np.float32),
    "scale3000": (rng.normal(size=(4096, 64)) * 3000).astype(np.float32),
    "float64-scale300": rng.normal(size=(2048, 32)) * 300,
    "float64-scale3": rng.normal(size=(2048, 32)) * 3,
}


@pytest.mark.parametrize("name", sorted(SCORE_BLOCKS))
def test_col_softmax_matches_oracle_on_both_sides_of_the_gate(name):
    # the name stays from the software subnormal gate that hardware
    # flushing replaced: blocks with and without a subnormal tail
    m = SCORE_BLOCKS[name]
    expected = oracle_col_softmax(m)
    assert_same_bits(K.col_softmax(m), expected)
    x = m.copy()
    with vstain._flush_to_zero():
        K.exp_shifted_inplace(x, -2, "col_softmax: non-finite input")
        x /= np.sum(x, axis=-2, keepdims=True)
    assert_same_bits(x, expected)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_col_softmax_scores_at_log_tiny_plus_minus_one_ulp(dtype):
    cut = np.log(np.finfo(dtype).tiny.astype(dtype))
    edge = np.array([np.nextafter(cut, -np.inf), cut, np.nextafter(cut, np.inf)],
                    dtype=dtype)
    m = np.zeros((600, 3), dtype=dtype)
    m[1:] = np.resize(edge, 599)[:, None]
    m[1:, 1] -= 5  # the subnormal band
    assert_same_bits(K.col_softmax(m), oracle_col_softmax(m))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_col_softmax_unit_column_sum_with_entries_near_tiny(dtype):
    # one weight of exactly 1 and the rest within a few ulps of tiny, so
    # each quotient is its exp: the flush alone decides tiny or zero
    cut = np.log(np.finfo(dtype).tiny.astype(dtype))
    bits = cut.view(np.int32 if dtype == np.float32 else np.int64)
    near = (bits + np.arange(-40, 40, dtype=bits.dtype)).view(dtype)
    m = np.resize(near, (400, 2)).astype(dtype)
    m[0] = 0
    m[100::2, 1] -= 6
    weights = np.exp(m[:, 0])
    assert np.sum(weights) == 1.0
    assert np.count_nonzero(weights < np.finfo(dtype).tiny) > 0
    assert np.count_nonzero((weights >= np.finfo(dtype).tiny) & (weights < 1)) > 0
    assert_same_bits(K.col_softmax(m), oracle_col_softmax(m))


# the three test_cut_softmax_* tests are named for the software cut path
# before exp that hardware flushing replaced
@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 300), cols=st.integers(1, 9),
       scale=st.sampled_from([0.5, 20.0, 30.0, 60.0, 400.0]),
       dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2 ** 16))
def test_cut_softmax_matches_oracle_on_random_scores(rows, cols, scale, dtype, seed):
    m = (np.random.default_rng(seed).standard_normal((rows, cols)) * scale).astype(dtype)
    assert_same_bits(K.col_softmax(m), oracle_col_softmax(m))


def test_cut_softmax_batched_and_sliced_across_slabs():
    m = (rng.normal(size=(3, 700, 50)) * 30).astype(np.float32)
    assert_same_bits(K.col_softmax(m), oracle_col_softmax(m))


def test_cut_softmax_computes_no_subnormal_and_no_full_size_temporary(monkeypatch):
    import tracemalloc

    tiny = np.finfo(np.float32).tiny
    real_exp = np.exp
    subnormal_exps = []

    def exp(x, out=None):
        e = real_exp(x, out=out)
        # counted in row chunks, so that the count adds no full-size temporary
        subnormal_exps.append(sum(np.count_nonzero((c > 0) & (c < tiny))
                                  for c in np.array_split(e, 64)))
        return e

    m = (rng.normal(size=(16384, 64)) * 30).astype(np.float32)
    e = np.exp(m - m.max(axis=0))  # unflushed, about 16 % of the exps are subnormal
    assert subnormal(e) > e.size // 8
    monkeypatch.setattr(np, "exp", exp)
    tracemalloc.start()
    try:
        out = K.col_softmax(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert subnormal_exps and sum(subnormal_exps) == 0
    assert np.count_nonzero((out > 0) & (out < tiny)) == 0
    # the output and the column statistics; a full-size float temporary
    # would double it
    assert peak < m.nbytes * 3 // 2


def test_col_softmax_flushes_subnormals_forward_and_backward():
    # float32 scores spanning about 1e5, half of them within 120 of the max
    r = np.random.default_rng(17)
    scores = r.uniform(-120.0, 0.0, size=(4096, 64))
    scores[::2] *= 800.0
    scores = scores.astype(np.float32)
    tiny = np.finfo(np.float32).tiny

    # unflushed, the forward would land in the subnormal range
    e = np.exp(scores - scores.max(axis=0))
    plain = e / e.sum(axis=0)
    assert subnormal(plain) > 0
    out = K.col_softmax(scores)
    assert subnormal(out) == 0
    assert np.all((out == plain) | (plain < tiny))


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def naive_conv2d(x, w, b, stride):
    """Independent loop implementation of same-padded convolution."""
    n, h, wid, cin = x.shape
    k = w.shape[0]
    cout = w.shape[3]
    out_h = -(-h // stride)
    out_w = -(-wid // stride)
    pad_h = max((out_h - 1) * stride + k - h, 0)
    pad_w = max((out_w - 1) * stride + k - wid, 0)
    pt, pl = pad_h // 2, pad_w // 2
    out = np.zeros((n, out_h, out_w, cout), dtype=np.float64)
    for bi in range(n):
        for oi in range(out_h):
            for oj in range(out_w):
                acc = np.zeros(cout)
                for di in range(k):
                    for dj in range(k):
                        ii = oi * stride + di - pt
                        jj = oj * stride + dj - pl
                        if 0 <= ii < h and 0 <= jj < wid:
                            acc += x[bi, ii, jj] @ w[di, dj]
                out[bi, oi, oj] = acc + b
    return out


def test_conv2d_1x1_identity():
    x = rng.normal(size=(2, 4, 5, 3)).astype(np.float32)
    w = np.eye(3, dtype=np.float32).reshape(1, 1, 3, 3)
    out = K.conv2d(x, w, np.zeros(3, np.float32), 1)
    assert np.array_equal(out, x)


def test_conv2d_stride2_halves_128():
    x = np.zeros((1, 128, 128, 2), np.float32)
    w = np.zeros((3, 3, 2, 4), np.float32)
    out = K.conv2d(x, w, np.zeros(4, np.float32), 2)
    assert out.shape == (1, 64, 64, 4)


def test_conv2d_all_ones_oracle():
    x = np.ones((1, 3, 3, 1))
    w = np.ones((3, 3, 1, 1))
    out = K.conv2d(x, w, np.zeros(1), 1)[0, :, :, 0]
    assert np.array_equal(out, [[4, 6, 4], [6, 9, 6], [4, 6, 4]])


@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_matches_naive_oracle(stride):
    for trial in range(5):
        r = np.random.default_rng(trial * 10 + stride)
        h, w_, cin, cout = r.integers(1, 7, size=4)
        x = r.normal(size=(2, h, w_, cin))
        w = r.normal(size=(3, 3, cin, cout))
        b = r.normal(size=cout)
        assert np.allclose(K.conv2d(x, w, b, stride),
                           naive_conv2d(x, w, b, stride), atol=1e-10)


def test_conv2d_channel_mismatch():
    with pytest.raises(ShapeError):
        K.conv2d(np.zeros((1, 4, 4, 3)), np.zeros((3, 3, 2, 4)), np.zeros(4), 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 16), st.integers(1, 16))
def test_conv2d_stride2_ceil_extents(h, w):
    x = np.zeros((1, h, w, 1), np.float32)
    out = K.conv2d(x, np.zeros((3, 3, 1, 1), np.float32), np.zeros(1, np.float32), 2)
    assert out.shape[1:3] == (-(-h // 2), -(-w // 2))


def test_conv2d_bit_deterministic():
    x = rng.normal(size=(2, 9, 9, 4)).astype(np.float32)
    w = rng.normal(size=(3, 3, 4, 5)).astype(np.float32)
    b = rng.normal(size=5).astype(np.float32)
    assert np.array_equal(K.conv2d(x, w, b, 2), K.conv2d(x, w, b, 2))


# ---------------------------------------------------------------------------
# deconv2d
# ---------------------------------------------------------------------------

def test_deconv2d_doubles_extents():
    x = np.zeros((1, 16, 16, 3), np.float32)
    out = K.deconv2d(x, np.zeros((3, 3, 3, 2), np.float32), np.zeros(2, np.float32))
    assert out.shape == (1, 32, 32, 2)


def test_deconv2d_impulse_response():
    # center-tap kernel maps input (i, j) to output (2i + 1, 2j + 1)
    x = np.zeros((1, 3, 3, 1))
    x[0, 1, 2, 0] = 1.0
    w = np.zeros((3, 3, 1, 1))
    w[1, 1, 0, 0] = 1.0
    out = K.deconv2d(x, w, np.zeros(1))[0, :, :, 0]
    expected = np.zeros((6, 6))
    expected[3, 5] = 1.0
    assert np.array_equal(out, expected)


def test_deconv2d_adjoint_identity():
    r = np.random.default_rng(7)
    x = r.normal(size=(2, 5, 5, 3))
    w = r.normal(size=(3, 3, 3, 4))
    y = r.normal(size=(2, 10, 10, 4))
    wt = np.ascontiguousarray(w.transpose(0, 1, 3, 2))
    lhs = float(np.sum(K.deconv2d(x, w, np.zeros(4)) * y))
    rhs = float(np.sum(x * K.conv2d(y, wt, np.zeros(3), 2)))
    assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(lhs))


def test_adjoint_identity_random_shapes():
    for trial in range(6):
        r = np.random.default_rng(trial + 100)
        h, w_, cin, cout = (int(v) for v in r.integers(1, 7, size=4))
        x = r.normal(size=(1, h, w_, cin))
        w = r.normal(size=(3, 3, cin, cout))
        y = r.normal(size=(1, 2 * h, 2 * w_, cout))
        wt = np.ascontiguousarray(w.transpose(0, 1, 3, 2))
        lhs = float(np.sum(K.deconv2d(x, w, np.zeros(cout)) * y))
        rhs = float(np.sum(x * K.conv2d(y, wt, np.zeros(cin), 2)))
        assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(lhs))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8))
def test_deconv2d_exact_doubling(h, w):
    x = np.zeros((1, h, w, 1), np.float32)
    out = K.deconv2d(x, np.zeros((3, 3, 1, 2), np.float32), np.zeros(2, np.float32))
    assert out.shape == (1, 2 * h, 2 * w, 2)


def test_deconv2d_channel_mismatch():
    with pytest.raises(ShapeError):
        K.deconv2d(np.zeros((1, 4, 4, 3)), np.zeros((3, 3, 2, 4)), np.zeros(4))


# ---------------------------------------------------------------------------
# resize
# ---------------------------------------------------------------------------

def test_resize_identity():
    x = rng.normal(size=(1, 128, 128, 2)).astype(np.float32)
    assert np.array_equal(K.resize_bilinear(x, 128, 128), x)


def test_resize_constant_exact():
    x = np.full((1, 3, 5, 2), 7.25, np.float32)
    out = K.resize_bilinear(x, 9, 4)
    assert np.array_equal(out, np.full((1, 9, 4, 2), 7.25, np.float32))


def test_resize_ramp_oracle():
    # align-corners=false: source coord (i+0.5)*in/out - 0.5, clamped
    x = np.array([[[0.0], [1.0]], [[0.0], [1.0]]])[None]
    out = K.resize_bilinear(x, 4, 4)[0, :, :, 0]
    expected_row = [0.0, 0.25, 0.75, 1.0]
    for r in range(4):
        assert np.allclose(out[r], expected_row)


def test_resize_downsample_oracle():
    # 4 -> 2 along one axis: out j samples src (j+0.5)*2 - 0.5 = {0.5, 2.5}
    x = np.array([0.0, 10.0, 20.0, 30.0]).reshape(1, 1, 4, 1)
    out = K.resize_bilinear(x, 1, 2)[0, 0, :, 0]
    assert np.allclose(out, [5.0, 25.0])


# ---------------------------------------------------------------------------
# mirror padding (reflection by index folding)
# ---------------------------------------------------------------------------

def test_mirror_pad_reflection():
    # one pixel of left overhang on [1, 2, 3]: the border pixel is not repeated
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(x[_reflect_indices(-1, 4, 3)], [2.0, 1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# concat: a dense block's channel buffer
# ---------------------------------------------------------------------------

def buffer_of(*arrays):
    return ag.ChannelBuffer([ag.var(a) for a in arrays], sum(a.shape[3] for a in arrays))


def test_concat_single_identity():
    x = rng.normal(size=(2, 3, 3, 4)).astype(np.float32)
    assert np.array_equal(buffer_of(x).data, x)


def test_concat_order_and_round_trip():
    a = rng.normal(size=(2, 4, 4, 2)).astype(np.float32)
    b = rng.normal(size=(2, 4, 4, 3)).astype(np.float32)
    out = buffer_of(a, b).data
    assert out.shape == (2, 4, 4, 5)
    assert np.array_equal(out[..., :2], a)
    assert np.array_equal(out[..., 2:], b)


def test_concat_dim_mismatch():
    with pytest.raises(ShapeError):
        buffer_of(np.zeros((1, 4, 4, 1)), np.zeros((1, 5, 4, 1)))
