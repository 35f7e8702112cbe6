"""Core kernel contracts: layout, padding, adjoints, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vstain import kernels as K
from vstain.errors import NumericError, ShapeError

rng = np.random.default_rng(1234)

small_extents = st.integers(min_value=1, max_value=8)


# ---------------------------------------------------------------------------
# mode-3 unfold / fold
# ---------------------------------------------------------------------------

def test_unfold_single_position():
    t = np.array([[[1.0, 2.0, 3.0]]])  # 1x1x3
    m = K.unfold_mode3(t)
    assert m.shape == (3, 1)
    assert np.array_equal(m, [[1.0], [2.0], [3.0]])


def test_unfold_flat_index_oracle():
    # independent oracle: place each tensor entry by the flat-index formula
    t = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])  # 2x2x1
    m = K.unfold_mode3(t)
    assert m.shape == (1, 4)
    h, w, c = t.shape
    expected = np.zeros((c, h * w))
    for i in range(h):
        for j in range(w):
            for ch in range(c):
                expected[ch, i * w + j] = t[i, j, ch]
    assert np.array_equal(m, expected)
    assert np.array_equal(m, [[1.0, 2.0, 3.0, 4.0]])


@settings(max_examples=50, deadline=None)
@given(small_extents, small_extents, small_extents)
def test_fold_unfold_round_trip(h, w, c):
    t = np.random.default_rng(h * 64 + w * 8 + c).normal(size=(h, w, c)).astype(np.float32)
    assert np.array_equal(K.fold_mode3(K.unfold_mode3(t), h, w), t)
    m = np.random.default_rng(c).normal(size=(c, h * w)).astype(np.float32)
    assert np.array_equal(K.unfold_mode3(K.fold_mode3(m, h, w)), m)


def test_fold_dimension_mismatch():
    with pytest.raises(ShapeError):
        K.fold_mode3(np.zeros((2, 5)), 2, 2)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_identity():
    a = rng.normal(size=(4, 3))
    assert np.allclose(K.matmul(np.eye(4), a), a)


def test_matmul_hand_oracle():
    out = K.matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0], [1.0]]))
    assert np.array_equal(out, [[3.0], [7.0]])


def test_matmul_dimension_mismatch():
    with pytest.raises(ShapeError):
        K.matmul(np.zeros((2, 3)), np.zeros((4, 2)))


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


def test_col_softmax_flushes_subnormals_forward_and_backward():
    # float32 scores spanning about 1e5, half of them within 120 of the max
    r = np.random.default_rng(17)
    scores = r.uniform(-120.0, 0.0, size=(4096, 64))
    scores[::2] *= 800.0
    scores = scores.astype(np.float32)
    grad = r.normal(size=scores.shape).astype(np.float32)
    tiny = np.finfo(np.float32).tiny

    def subnormal(t):
        return np.count_nonzero((t != 0) & (np.abs(t) < tiny))

    # unflushed, both passes would land in the subnormal range
    e = np.exp(scores - scores.max(axis=0))
    plain = e / e.sum(axis=0)
    assert subnormal(plain) > 0
    out = K.col_softmax(scores)
    assert subnormal(out) == 0
    assert np.all((out == plain) | (plain < tiny))

    assert subnormal(out * (grad - (grad * out).sum(axis=0))) > 0
    assert subnormal(K.col_softmax_backward(out, grad)) == 0


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
# mirror pad
# ---------------------------------------------------------------------------

def test_mirror_pad_zero_identity():
    x = rng.normal(size=(1, 3, 4, 2)).astype(np.float32)
    assert np.array_equal(K.mirror_pad(x, 0, 0, 0, 0), x)


def test_mirror_pad_reflection():
    x = np.array([1.0, 2.0, 3.0]).reshape(1, 1, 3, 1)
    out = K.mirror_pad(x, 0, 0, 1, 0)[0, 0, :, 0]
    assert np.array_equal(out, [2.0, 1.0, 2.0, 3.0])


def test_mirror_pad_too_large():
    x = np.zeros((1, 3, 3, 1))
    with pytest.raises(ShapeError):
        K.mirror_pad(x, 4, 0, 0, 0)


# ---------------------------------------------------------------------------
# concat
# ---------------------------------------------------------------------------

def test_concat_single_identity():
    x = rng.normal(size=(2, 3, 3, 4)).astype(np.float32)
    assert np.array_equal(K.concat_channels([x]), x)


def test_concat_order_and_round_trip():
    a = rng.normal(size=(2, 4, 4, 2)).astype(np.float32)
    b = rng.normal(size=(2, 4, 4, 3)).astype(np.float32)
    out = K.concat_channels([a, b])
    assert out.shape == (2, 4, 4, 5)
    assert np.array_equal(out[..., :2], a)
    assert np.array_equal(out[..., 2:], b)


def test_concat_dim_mismatch():
    with pytest.raises(ShapeError):
        K.concat_channels([np.zeros((1, 4, 4, 1)), np.zeros((1, 5, 4, 1))])
