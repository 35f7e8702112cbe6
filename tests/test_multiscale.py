"""Multi-scale crop geometry, padding behaviour and patch sampling."""

import numpy as np
import pytest
from oracles import oracle_mirror_pad

from vstain import kernels as K
from vstain import training as tr
from vstain.data_io import LoadedSample, Manifest, SampleRecord, save_pgm
from vstain.errors import ConfigError, DataError
from vstain.multiscale import extract_multiscale, sample_training_patch, valid_center_range
from vstain.network import NetworkConfig

rng = np.random.default_rng(21)


def ramp_image(h, w, c=1):
    ys, xs = np.mgrid[0:h, 0:w]
    base = (xs + 2 * ys).astype(np.float32)
    return np.repeat(base[:, :, None], c, axis=2)


def test_constant_image_gives_constant_channels():
    img = np.full((256, 256, 1), 37.0, np.float32)
    out = extract_multiscale(img, (128, 128), 64)
    assert out.shape == (64, 64, 3)
    assert np.array_equal(out, np.full((64, 64, 3), 37.0, np.float32))


def test_center_crop_window_rule():
    img = ramp_image(512, 512)
    out = extract_multiscale(img, (256, 256), 128)
    # scale-1 window: rows and cols 192..319 (center - 128//2, half open)
    assert np.array_equal(out[:, :, 0], img[192:320, 192:320, 0])


def test_scale1_channel_is_bitwise_crop():
    img = (rng.random((300, 300, 2)) * 255).astype(np.float32)
    out = extract_multiscale(img, (150, 140), 128)
    top, left = 140 - 64, 150 - 64
    assert np.array_equal(out[:, :, :2], img[top : top + 128, left : left + 128])


def test_detail_channel_matches_independent_crop_resize():
    img = ramp_image(512, 512)
    out = extract_multiscale(img, (256, 256), 128)
    inner = img[256 - 32 : 256 + 32, 256 - 32 : 256 + 32]
    expected = K.resize_bilinear(inner[None], 128, 128)[0]
    assert np.allclose(out[:, :, 2:3], expected)


def test_context_channel_matches_independent_crop_resize():
    img = ramp_image(600, 600)
    out = extract_multiscale(img, (300, 300), 128)
    outer = img[300 - 128 : 300 + 128, 300 - 128 : 300 + 128]
    expected = K.resize_bilinear(outer[None], 128, 128)[0]
    assert np.allclose(out[:, :, 1:2], expected)


def test_channel_count_is_three_c():
    img = rng.random((64, 64, 3)).astype(np.float32)
    out = extract_multiscale(img, (32, 32), 16)
    assert out.shape == (16, 16, 9)


def test_border_context_matches_mirror_pad():
    # near-border center: the context crop region agrees with mirror_pad output
    img = (rng.random((80, 80, 1)) * 255).astype(np.float32)
    size = 32
    # context crop extends 16 px past two borders
    out = extract_multiscale(img, (16, 16), size)
    padded = oracle_mirror_pad(img[None], size, 0, size, 0)[0]
    outer = padded[16 - size + size : 16 + size + size,
                   16 - size + size : 16 + size + size]
    expected = K.resize_bilinear(outer[None], size, size)[0]
    assert np.allclose(out[:, :, 1:2], expected)


def test_center_outside_image_rejected():
    img = np.zeros((32, 32, 1), np.float32)
    with pytest.raises(DataError):
        extract_multiscale(img, (32, 10), 16)


def test_odd_patch_size_rejected():
    # extract_multiscale takes the network's patch size, which its config keeps even
    config = NetworkConfig(patch_size=15, encoder_depths=(1,), encoder_channels=(4,),
                           decoder_depths=(1,), decoder_channels=(4,))
    with pytest.raises(ConfigError, match="patch_size 15 must be divisible by 2"):
        config.validate()


def make_sample(h=64, w=64, tasks=(0, 2)):
    image = (rng.random((h, w, 1)) * 255).astype(np.float32)
    targets = {t: np.rint(rng.random((h, w)) * 255).astype(np.float32) for t in tasks}
    return LoadedSample(image=image, targets=targets)


def test_sampling_reproducible_from_seed():
    sample = make_sample()
    seq_a = [sample_training_patch(sample, np.random.default_rng(9), 32, 4)
             for _ in range(3)]
    seq_b = [sample_training_patch(sample, np.random.default_rng(9), 32, 4)
             for _ in range(3)]
    for (xa, ta, ma), (xb, tb, mb) in zip(seq_a, seq_b):
        assert np.array_equal(xa, xb)
        assert np.array_equal(ta, tb)
        assert np.array_equal(ma, mb)


def test_mask_matches_present_tasks():
    sample = make_sample(tasks=(1, 3))
    _, _, mask = sample_training_patch(sample, np.random.default_rng(0), 32, 8)
    assert mask.sum() == 2
    assert mask[1] and mask[3]


def test_targets_align_with_scale1_crop_exactly():
    sample = make_sample(h=96, w=96, tasks=(0,))
    r = np.random.default_rng(31)
    inp, targets, _ = sample_training_patch(sample, r, 32, 2)
    # recover the drawn center from the identical rng stream
    r2 = np.random.default_rng(31)
    x = int(r2.integers(*[v + o for v, o in zip(valid_center_range(96, 32), (0, 1))]))
    y = int(r2.integers(*[v + o for v, o in zip(valid_center_range(96, 32), (0, 1))]))
    top, left = y - 16, x - 16
    expected = sample.targets[0][top : top + 32, left : left + 32]
    assert np.array_equal(targets[:, :, 0], expected.astype(np.int64))
    assert np.array_equal(targets[:, :, 1], np.zeros((32, 32), np.int64))
    # input scale-1 channel equals the crop scaled to [0, 1]
    assert np.allclose(inp[:, :, 0],
                       sample.image[top : top + 32, left : left + 32, 0] / 255.0)


def test_image_smaller_than_patch_rejected(tmp_path):
    # train checks every training image against the patch before its
    # first draw and before --out exists
    config = NetworkConfig.tiny(patch_size=32, task_count=1, value_classes=256)
    for h, w in ((16, 64), (64, 16)):
        save_pgm(tmp_path / "x.pgm", np.zeros((h, w), np.uint8))
        save_pgm(tmp_path / "y.pgm", np.zeros((h, w), np.uint8))
        manifest = Manifest(tmp_path, [SampleRecord("x.pgm", {0: "y.pgm"})])
        with pytest.raises(DataError, match=f"x.pgm: {w}x{h} smaller than patch size 32"):
            tr.train(manifest, config, tr.TrainConfig(max_steps=1), tmp_path / "run")
        assert not (tmp_path / "run").exists()


def test_image_exactly_patch_size_single_center():
    sample = make_sample(h=32, w=32, tasks=(0,))
    inp, targets, _ = sample_training_patch(sample, np.random.default_rng(0), 32, 1)
    assert np.allclose(inp[:, :, 0], sample.image[:, :, 0] / 255.0)
    assert np.array_equal(targets[:, :, 0], sample.targets[0].astype(np.int64))
