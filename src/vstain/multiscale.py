"""Multi-scale patch extraction and training-patch sampling.

For a chosen center, three concentric square crops are taken: the
patch itself (side H), a context crop (side 2H) rescaled down to H, and
a detail crop (side H/2) rescaled up to H. The three are concatenated
along channels in that order, so a C-channel image yields a 3C-channel
network input.

Crop windows are half-open with top-left = center - side // 2. Regions
falling outside the image are filled by reflection that does not repeat
the border pixel (numpy's "reflect" padding), computed by index folding
so any overhang is allowed; the scale-1 crop itself is a plain copy
whenever it is in bounds.

Training targets are never rescaled: the label patch is the ground
truth aligned with the scale-1 crop only.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import DataError


def _reflect_indices(start: int, length: int, extent: int) -> np.ndarray:
    """Fold arbitrary indices into [0, extent), extent >= 2, by border-exclusive
    reflection."""
    idx = np.arange(start, start + length)
    period = 2 * (extent - 1)
    idx = np.mod(idx, period)
    return np.where(idx >= extent, period - idx, idx)


def _crop_reflect(image: np.ndarray, top: int, left: int, side: int) -> np.ndarray:
    h, w = image.shape[:2]
    if 0 <= top and top + side <= h and 0 <= left and left + side <= w:
        return image[top : top + side, left : left + side].copy()
    rows = _reflect_indices(top, side, h)
    cols = _reflect_indices(left, side, w)
    return image[rows][:, cols]


def extract_multiscale(image: np.ndarray, center: tuple[int, int],
                       size: int) -> np.ndarray:
    """(H_img, W_img, C) -> (size, size, 3C) multi-scale input patch.

    center is (x, y) in full-image pixel coordinates (x = column); size
    is the network's patch size, which its config keeps even.
    """
    image = np.asarray(image)
    x, y = center
    h_img, w_img = image.shape[:2]
    if not (0 <= x < w_img and 0 <= y < h_img):
        raise DataError(
            f"extract_multiscale: center {center} outside {w_img}x{h_img} image"
        )
    channels = []
    for side in (size, 2 * size, size // 2):
        crop = _crop_reflect(image, y - side // 2, x - side // 2, side)
        if side != size:
            crop = kernels.resize_bilinear(crop[None], size, size)[0]
        channels.append(crop)
    return np.concatenate(channels, axis=-1)


def valid_center_range(img_extent: int, patch: int) -> tuple[int, int]:
    """Inclusive center range keeping the scale-1 crop fully in bounds."""
    half = patch // 2
    return half, img_extent - patch + half


def sample_training_patch(
    sample,
    rng: np.random.Generator,
    patch_size: int,
    task_count: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one training example from a loaded sample.

    Returns (input (H, W, 3C) float32 scaled to [0, 1],
             targets (H, W, T) int64 classes 0-255,
             mask (T,) bool marking tasks with ground truth).

    The center is uniform over positions keeping the scale-1 crop in
    bounds; only the context crop may need reflection. Targets are the
    raw ground-truth patch aligned with the scale-1 crop.

    Checks none of its inputs; :func:`vstain.training.train` checks them
    once, before its first draw. The sample is one that
    :func:`vstain.data_io.load_sample` loaded with `task_count` (every
    task id in [0, task_count), every value in 0-255), and its image is
    at least `patch_size` (even) on both axes.
    """
    image = sample.image
    h_img, w_img = image.shape[:2]
    x_lo, x_hi = valid_center_range(w_img, patch_size)
    y_lo, y_hi = valid_center_range(h_img, patch_size)
    x = int(rng.integers(x_lo, x_hi + 1))
    y = int(rng.integers(y_lo, y_hi + 1))

    inp = extract_multiscale(image, (x, y), patch_size).astype(np.float32) / 255.0

    top = y - patch_size // 2
    left = x - patch_size // 2
    targets = np.zeros((patch_size, patch_size, task_count), dtype=np.int64)
    mask = np.zeros(task_count, dtype=bool)
    for t, target_image in sample.targets.items():
        crop = target_image[top : top + patch_size, left : left + patch_size]
        targets[:, :, t] = np.rint(crop).astype(np.int64)
        mask[t] = True
    return inp, targets, mask
