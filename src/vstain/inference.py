"""Whole-image prediction by sliding-window tiling.

Windows start at offsets 0, step, 2*step, ... along each axis; when the
stride does not divide the image extent exactly, one final window is
clamped flush against the far edge, so every pixel is covered at least
once. Each window is predicted independently (multi-scale input centred
on the window, eval-mode forward, per-pixel softmax) and overlapping
distributions are merged by arithmetic mean, then renormalised. Edge
windows never invent pixels: only the multi-scale context crops use
reflection padding.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .errors import DataError, ShapeError
from .multiscale import PatchSpec, extract_multiscale
from .network import Network, forward, logits, predict_distributions


def window_offsets(extent: int, patch: int, step: int) -> list[int]:
    """Start offsets along one axis, final window clamped flush to the edge."""
    if patch > extent:
        raise DataError(f"tiling: image extent {extent} smaller than patch {patch}")
    if step < 1:
        raise ShapeError(f"tiling: step must be >= 1, got {step}")
    if step > patch:
        raise ShapeError(f"tiling: step {step} > patch {patch} would leave gaps")
    offsets = list(range(0, extent - patch + 1, step))
    if offsets[-1] + patch < extent:
        offsets.append(extent - patch)
    return offsets


def coverage_map(image_h: int, image_w: int, patch: int, step: int) -> np.ndarray:
    """Exact per-pixel window counts; minimum is always >= 1."""
    counts_y = np.zeros(image_h, dtype=np.int64)
    for oy in window_offsets(image_h, patch, step):
        counts_y[oy : oy + patch] += 1
    counts_x = np.zeros(image_w, dtype=np.int64)
    for ox in window_offsets(image_w, patch, step):
        counts_x[ox : ox + patch] += 1
    return np.outer(counts_y, counts_x)


def predict_image(net: Network, image: np.ndarray, step: int = 64) -> np.ndarray:
    """Merged per-task distributions (H_img, W_img, T, value_classes).

    The image holds raw 0-255 values; windows are scaled to [0, 1]
    before the forward pass, matching training.
    """
    image = np.asarray(image)
    if image.ndim == 2:
        image = image[:, :, None]
    if image.ndim != 3:
        raise ShapeError(f"predict_image: image must be (H,W,C), got {image.shape}")
    cfg = net.config
    if image.shape[2] != cfg.input_channels:
        raise DataError(
            f"predict_image: image has {image.shape[2]} channels, "
            f"checkpoint expects {cfg.input_channels}"
        )
    patch = cfg.patch_size
    h, w = image.shape[:2]
    offsets_y = window_offsets(h, patch, step)
    offsets_x = window_offsets(w, patch, step)

    t, v = cfg.task_count, cfg.value_classes
    acc = np.zeros((h, w, t, v), dtype=np.float32)
    for oy in offsets_y:
        for ox in offsets_x:
            center = (ox + patch // 2, oy + patch // 2)
            inp = extract_multiscale(image, PatchSpec(center, patch))
            inp = inp.astype(np.float32) / 255.0
            with ag.no_grad():
                z = logits(net, forward(net, ag.var(inp[None]), mode="eval"))
            probs = predict_distributions(z.data, t, v)[0]
            acc[oy : oy + patch, ox : ox + patch] += probs

    cnt = coverage_map(h, w, patch, step).astype(np.float32)
    if cnt.max() == 1.0:
        # no overlap anywhere: each pixel is one softmax output already
        return acc
    # merged in place: mean over windows, then renormalised in float64
    acc /= cnt[:, :, None, None]
    np.divide(acc, acc.sum(axis=-1, keepdims=True, dtype=np.float64), out=acc)
    return acc
