"""Tiling geometry and overlap merging."""

import tracemalloc

import numpy as np
import pytest

from vstain import autograd as ag
from vstain import network as nw
from vstain.errors import ConfigError, DataError, ShapeError
from vstain.inference import coverage_map, predict_image, window_offsets
from vstain.multiscale import PatchSpec, extract_multiscale

rng = np.random.default_rng(31)


def small_net(patch=32, tasks=2, seed=0):
    cfg = nw.NetworkConfig(
        patch_size=patch, task_count=tasks, growth_rate=2, stem_channels=4,
        encoder_depths=(1, 1, 1), encoder_channels=(4, 6, 8),
        bottom_depth=1, bottom_channels=10,
        decoder_depths=(1, 1, 1), decoder_channels=(8, 6, 4),
    )
    return nw.build(cfg, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def test_offsets_flush_clamping():
    assert window_offsets(256, 128, 64) == [0, 64, 128]
    assert window_offsets(200, 128, 64) == [0, 64, 72]
    assert window_offsets(128, 128, 64) == [0]


def test_coverage_image_equals_patch():
    assert np.array_equal(coverage_map(64, 64, 64, 32), np.ones((64, 64), np.int64))


def test_coverage_192_128_64_middle_double():
    cov = coverage_map(192, 192, 128, 64)
    # two windows per axis: [0,128) and [64,192); middle 64 px counted twice
    assert cov.min() == 1
    assert np.array_equal(np.unique(cov[64:128, 64:128]), [4])
    assert cov[0, 0] == 1
    assert cov[96, 10] == 2


def test_coverage_at_least_one_everywhere_randomized():
    r = np.random.default_rng(4)
    for _ in range(30):
        patch = int(r.integers(2, 40))
        step = int(r.integers(1, patch + 1))
        h = int(r.integers(patch, 90))
        w = int(r.integers(patch, 90))
        assert coverage_map(h, w, patch, step).min() >= 1


def test_step_larger_than_patch_rejected():
    with pytest.raises(ShapeError):
        window_offsets(100, 32, 48)


def test_image_smaller_than_patch_rejected():
    with pytest.raises(DataError):
        window_offsets(16, 32, 16)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def test_single_window_equals_direct_forward():
    net = small_net()
    image = (rng.random((32, 32, 1)) * 255).astype(np.float32)
    dist = predict_image(net, image, step=16)
    inp = extract_multiscale(image, PatchSpec((16, 16), 32)).astype(np.float32) / 255.0
    with ag.no_grad():
        logits = nw.logits(net, nw.forward(net, ag.var(inp[None]), "eval"))
    direct = nw.predict_distributions(logits.data, 2, 256)[0]
    # single window: no merging, bit-identical to the direct pass
    assert dist.shape == (32, 32, 2, 256)
    assert np.array_equal(dist, direct)


def test_merged_distributions_sum_to_one():
    net = small_net()
    image = (rng.random((64, 48, 1)) * 255).astype(np.float32)
    dist = predict_image(net, image, step=16)
    sums = dist.sum(axis=-1, dtype=np.float64)
    assert np.allclose(sums, 1.0, atol=1e-6)


def test_constant_model_merges_to_uniform():
    net = small_net()
    net.head_w.data = np.zeros_like(net.head_w.data)
    net.head_b.data = np.zeros_like(net.head_b.data)
    image = (rng.random((48, 48, 1)) * 255).astype(np.float32)
    dist = predict_image(net, image, step=16)
    assert np.allclose(dist, 1.0 / 256.0, atol=1e-7)


def test_predict_deterministic():
    net = small_net(seed=3)
    image = (rng.random((48, 64, 1)) * 255).astype(np.float32)
    a = predict_image(net, image, step=16)
    b = predict_image(net, image, step=16)
    assert np.array_equal(a, b)


def test_merge_order_independent():
    # reference merge accumulated over windows in reversed order
    net = small_net(seed=5)
    image = (rng.random((48, 48, 1)) * 255).astype(np.float32)
    dist = predict_image(net, image, step=16)

    patch, t, v = 32, 2, 256
    windows = [(oy, ox) for oy in window_offsets(48, patch, 16)
               for ox in window_offsets(48, patch, 16)]
    acc = np.zeros((48, 48, t, v), dtype=np.float64)
    cnt = np.zeros((48, 48), dtype=np.float64)
    for oy, ox in reversed(windows):
        inp = extract_multiscale(image, PatchSpec((ox + 16, oy + 16), patch))
        with ag.no_grad():
            features = nw.forward(net, ag.var(inp.astype(np.float32)[None] / 255.0), "eval")
            logits = nw.logits(net, features)
        probs = nw.predict_distributions(logits.data, t, v)[0]
        acc[oy : oy + patch, ox : ox + patch] += probs
        cnt[oy : oy + patch, ox : ox + patch] += 1
    ref = acc / cnt[:, :, None, None]
    ref = ref / ref.sum(axis=-1, keepdims=True)
    assert np.allclose(dist, ref, atol=1e-6)


def test_channel_mismatch_rejected():
    net = small_net()
    with pytest.raises(DataError):
        predict_image(net, np.zeros((48, 48, 2), np.float32), step=16)


@pytest.mark.parametrize("step", [0, -3, 17])
def test_bad_step_is_config_error_before_any_window(monkeypatch, step):
    net = nw.build(nw.NetworkConfig.tiny(patch_size=16), np.random.default_rng(0))

    def no_forward(*args, **kwargs):
        raise AssertionError("a window ran")

    monkeypatch.setattr("vstain.inference.forward", no_forward)
    with pytest.raises(ConfigError, match="step"):
        predict_image(net, np.zeros((32, 32), np.float32), step=step)


def test_predict_holds_one_output_and_one_window():
    cfg = nw.NetworkConfig.tiny(patch_size=16, value_classes=256)
    net = nw.build(cfg, np.random.default_rng(0))
    image = (rng.random((64, 64)) * 255).astype(np.float32)
    predict_image(net, image, step=8)  # first call: lazy imports and caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        dist = predict_image(net, image, step=8)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    window_logits = cfg.patch_size ** 2 * cfg.head_channels * 4
    assert peak <= dist.nbytes + 1.25 * window_logits
