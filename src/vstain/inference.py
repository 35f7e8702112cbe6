"""Whole-image prediction by sliding-window tiling.

Windows start at offsets 0, step, 2*step, ... along each axis; when the
stride does not divide the image extent exactly, one final window is
clamped flush against the far edge, so every pixel is covered at least
once. Each window is predicted independently (multi-scale input centred
on the window, eval-mode forward, per-pixel softmax) and overlapping
distributions are merged by arithmetic mean, then renormalised; as the
renormalisation divides out the window count, the per-pixel sum over
windows is renormalised directly. Edge windows never invent pixels:
only the multi-scale context crops use reflection padding.

Models whose window forwards pool attention blocks run those forwards
one per worker of the pool; each window's distributions are added into
the output on the calling thread, in window order, so the float32
overlap sums get their addends in the same order on any number of
workers. Before it returns, predict_image hands the heap's free pages
back to the system: the windows' freed temporaries would stay resident
beside the output for as long as the caller holds it.

Prediction runs with subnormals flushed in hardware
(:func:`vstain._flush_to_zero`), so output probabilities below float32's
smallest normal number are zero, and with numpy's overflow and invalid
warnings off: the finite checks of the attention softmax and the head
raise the one NumericError instead.
"""

from __future__ import annotations

from contextlib import closing

import numpy as np

from . import _flush_to_zero, _release_free_heap
from . import autograd as ag
from . import kernels
from .errors import ConfigError, DataError
from .multiscale import extract_multiscale
# predict_distributions stays importable from here: benchmarks/tracer.py
# patches inference.predict_distributions by name.
from .network import (Network, forward, predict_distributions,  # noqa: F401
                      predict_distributions_inplace)


def window_offsets(extent: int, patch: int, step: int) -> list[int]:
    """Start offsets along one axis, final window clamped flush to the edge.

    Needs 1 <= step <= patch <= extent, which :func:`predict_image` checks.
    """
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


def _window_features(net: Network, image: np.ndarray, oy: int, ox: int) -> np.ndarray:
    """The eval-mode decoder features (patch, patch, C) of the window at (oy, ox)."""
    patch = net.config.patch_size
    inp = extract_multiscale(image, (ox + patch // 2, oy + patch // 2), patch)
    inp = inp.astype(np.float32) / 255.0
    with ag.no_grad():
        return forward(net, ag.var(inp[None]), mode="eval").data[0]


def _windows_per_worker(cfg) -> bool:
    """Whether predict runs its window forwards one per pool worker: when
    an attention layer of one window runs its blocks on the pool. The
    largest layers, whatever the stage count, are enc1's (p^2 keys by
    p^2/4 queries) and the last decoder's (the transpose), so they decide.
    Smaller windows ran no faster on the pool, and each window in flight
    there holds its forward's memory."""
    p = cfg.patch_size
    return ag._pooled(1, p * p // 4, p * p, ag.ATTENTION_BLOCK_SCORES)


def _add_window(net: Network, features: np.ndarray, oy: int, ox: int,
                acc: np.ndarray) -> None:
    """Add the (patch, patch, T, V) distributions of the window at (oy, ox),
    from its decoder features, into acc's pixels under it.

    The head, the softmax and the add run in slabs of window rows, so
    the window's logits are never held at once. When the features and
    the head pass :func:`kernels.dots_bounded`, no logit can be an
    infinity, and the slabs check only their maxima for a NaN.
    """
    cfg = net.config
    patch, t, v = cfg.patch_size, cfg.task_count, cfg.value_classes
    w = net.head_w.data.reshape(features.shape[-1], t * v)
    out = acc[oy : oy + patch, ox : ox + patch]
    bounded = kernels.dots_bounded(features, w.T, net.head_b.data)

    def slab(lo, hi):
        z = np.matmul(features[lo:hi], w)[None]  # the 1x1 head, one row at a time
        z += net.head_b.data
        out[lo:hi] += predict_distributions_inplace(z, t, v, bounded)[0]

    ag.split_rows(slab, patch, patch * patch * w.size, small=True)


def predict_image(net: Network, image: np.ndarray, step: int = 64) -> np.ndarray:
    """Merged per-task distributions (H_img, W_img, T, value_classes).

    The image holds raw 0-255 values; windows are scaled to [0, 1]
    before the forward pass, matching training.
    """
    image = np.asarray(image)
    if image.ndim == 2:
        image = image[:, :, None]
    cfg = net.config
    if image.shape[2] != cfg.input_channels:
        raise DataError(
            f"predict_image: image has {image.shape[2]} channels, "
            f"checkpoint expects {cfg.input_channels}"
        )
    patch = cfg.patch_size
    h, w = image.shape[:2]
    if h < patch or w < patch:
        raise DataError(f"predict_image: image {w}x{h} smaller than patch size {patch}")
    if not 1 <= step <= patch:
        raise ConfigError(f"predict_image: step must be in 1..{patch} (the patch "
                          f"size), got {step}")
    offsets_y = window_offsets(h, patch, step)
    offsets_x = window_offsets(w, patch, step)

    # the finite checks are the signal: the overflowing or invalid
    # products before them print no numpy warnings
    with np.errstate(over="ignore", invalid="ignore"), _flush_to_zero():
        t, v = cfg.task_count, cfg.value_classes
        acc = np.zeros((h, w, t, v), dtype=np.float32)
        windows = [(oy, ox) for oy in offsets_y for ox in offsets_x]
        # at most one window in flight per worker
        features = ag._run_blocks(lambda window: _window_features(net, image, *window),
                                  windows, _windows_per_worker(cfg))
        with closing(features):  # after an error, wait for the windows still running
            for oy, ox in windows:
                # no name holds a window's features while the next forward runs
                _add_window(net, next(features), oy, ox, acc)

        def merge(lo, hi):
            """The sum over windows renormalised in float64, in place."""
            a = acc[lo:hi]
            np.divide(a, np.sum(a, axis=-1, keepdims=True, dtype=np.float64), out=a)

        # with no overlap anywhere, each pixel is one softmax output already
        if coverage_map(h, w, patch, step).max() > 1:
            ag.split_rows(merge, h, acc.size * ag.PASS_WORK)
    _release_free_heap()
    return acc
