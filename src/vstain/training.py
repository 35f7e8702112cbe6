"""Masked multi-task loss, Adam, and the training loop.

The loss treats each pixel of each task as a 256-way classification and
averages the cross-entropy over exactly the (pixel, task) cells whose
task is present in the sample's mask. It takes the network's decoder
features and includes the 1x1 head, which it evaluates on those
labelled (sample, task) slices only: absent tasks are never computed,
get an exact zero gradient, and label coverage never changes the loss
scale.
Optimisation is plain bias-corrected Adam.

A run is a pure function of (manifest, configs, seed): sampling and
dropout share one generator whose state is checkpointed, so resuming
from any checkpoint replays the remaining steps bit-for-bit.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _flush_to_zero
from . import autograd as ag
from . import data_io, gptt, kernels
from .autograd import Variable
from .errors import ConfigError, DataError, NumericError, from_fields, require_types
from .multiscale import sample_training_patch
from .network import (NetworkConfig, build, checkpoint_tensors, forward,
                      load_checkpoint, save_checkpoint)


@dataclass
class TrainConfig:
    learning_rate: float = 1e-5
    batch_size: int = 4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    max_steps: int = 1000
    checkpoint_interval: int = 500
    seed: int = 0

    def validate(self) -> None:
        require_types("train config", self,
                      ints=("batch_size", "max_steps", "checkpoint_interval", "seed"),
                      reals=("learning_rate", "beta1", "beta2", "eps"))
        for name in ("batch_size", "max_steps", "checkpoint_interval"):
            if getattr(self, name) < 1:
                raise ConfigError(f"train config: {name} {getattr(self, name)} < 1")
        # written so that NaN fails each test
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"train config: learning_rate {self.learning_rate} is not "
                              "a finite number > 0")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"train config: {name} {getattr(self, name)} is not "
                                  "in [0, 1)")
        if not 0 < self.eps < math.inf:
            raise ConfigError(f"train config: eps {self.eps} is not a finite number > 0")
        if self.seed < 0:
            raise ConfigError(f"train config: seed {self.seed} must be >= 0")

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return from_fields(cls, "train config", "train", d)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def masked_cross_entropy(
    features: Variable,
    head_w: Variable,
    head_b: Variable,
    targets: np.ndarray,
    mask: np.ndarray,
    value_classes: int,
) -> Variable:
    """The 1x1 head and the mean 256-way cross-entropy over the active
    (pixel, task) cells, as one tape node.

    features: (N, H, W, C); head_w: (1, 1, C, T * value_classes); head_b:
    (T * value_classes,); targets: (N, H, W, T) integer classes; mask:
    (N, T) booleans. Each labelled (sample, task) slice's logits are
    computed as x @ w[:, task] + b[task]; the full logits are never
    formed. Forward and backward take the slices in order and cut each
    slice's image rows into pieces by :func:`autograd.split_rows`, each
    piece computing its own rows of logits. The forward keeps each labelled pixel's
    max logit, exp-sum and shifted target logit; the backward computes
    the logits again, by the forward's per-row products, takes their
    softmax in one exp of the logits less max + log(exp-sum), and adds
    its gradients slice by slice, in slice order. Forward and backward run
    with subnormals flushed in hardware (:func:`vstain._flush_to_zero`).
    Raises NumericError on a non-finite labelled logit; when the features
    and the head pass :func:`kernels.dots_bounded`, no logit can be
    infinite, and only each pixel's max logit is checked, for a NaN.
    With no active cell the loss is an exact +0.0 with zero gradients.
    """
    x = features.data
    _, h, w, c = x.shape
    targets = np.asarray(targets)
    mask = np.asarray(mask, dtype=bool)
    t = targets.shape[3]
    if targets.min() < 0 or targets.max() >= value_classes:
        raise DataError(
            f"cross entropy: target classes outside [0, {value_classes})"
        )

    rows, tasks = np.nonzero(mask)
    labelled, v = rows.size, value_classes
    w_all, b_all = head_w.data, head_b.data  # (1, 1, C, T * V) and (T * V,)
    dtype = np.result_type(x, w_all, b_all)
    # per labelled pixel: the max logit, the sum of exps of the shifted
    # logits, and the shifted target logit; the logits are not kept
    zmax, sez, zt = (np.empty((labelled, h, w, 1), dtype) for _ in range(3))
    slice_work = h * w * c * v  # multiply-adds of one slice's head, and of each backward product

    def target(i, ys):
        """Slice i's target classes on its image rows ys, as (rows, W, 1)."""
        return targets[rows[i], ys, :, tasks[i], None]

    def head(i, ys, z):
        """Slice i's logits on its image rows ys, into z, by per-row products."""
        np.matmul(x[rows[i], ys], w_all.reshape(c, t, v)[:, tasks[i]], out=z)
        z += b_all.reshape(t, v)[tasks[i]]
        return z

    bounded = kernels.dots_bounded(x, w_all.reshape(c, -1).T, b_all)

    def forward_piece(i, lo, hi):  # image rows of slice i
        ys = slice(lo, hi)
        zs = head(i, ys, np.empty((hi - lo, w, v), dtype))
        zt[i, ys] = np.take_along_axis(zs, target(i, ys), axis=-1)
        zmax[i, ys] = kernels.exp_shifted_inplace(zs, -1, "cross entropy: non-finite logits",
                                                  bounded)
        zt[i, ys] -= zmax[i, ys]
        np.sum(zs, axis=-1, keepdims=True, out=sez[i, ys])

    with _flush_to_zero():
        for i in range(labelled):
            ag.split_rows(lambda lo, hi: forward_piece(i, lo, hi), h, slice_work, small=True)
        count = max(zt.size, 1)
        loss = (np.log(sez) - zt).sum() / count

    def bw(g):
        with _flush_to_zero():
            scale = g / count
            gx = np.zeros_like(x)
            gw = np.zeros((c, t, v), w_all.dtype)
            gb = np.zeros((t, v), dtype)
            dz = np.empty((h, w, v), dtype)  # one slice's logit gradient at a time
            lse = zmax + np.log(sez)  # each labelled pixel's log-sum-exp
            for i, (r, k) in enumerate(zip(rows, tasks)):

                def input_piece(lo, hi):  # image rows of the slice and of gx[r]
                    # the forward's logits again, their softmax, then their gradient
                    d = head(i, slice(lo, hi), dz[lo:hi])
                    d -= lse[i, lo:hi]
                    np.exp(d, out=d)
                    tz = target(i, slice(lo, hi))
                    np.put_along_axis(d, tz, np.take_along_axis(d, tz, axis=-1) - 1, axis=-1)
                    d *= scale
                    gx[r, lo:hi] += np.matmul(d, w_all.reshape(c, t, v)[:, k].T)

                ag.split_rows(input_piece, h, slice_work, small=True)

                def weight_piece(lo, hi):  # columns [lo, hi) of the slice's V
                    d = dz[..., lo:hi]
                    gw[:, k, lo:hi] += np.matmul(x[r].reshape(-1, c).T, d.reshape(-1, hi - lo))
                    gb[k, lo:hi] += d.sum(axis=(0, 1))

                ag.split_rows(weight_piece, v, slice_work)
            del dz  # before accumulate allocates the features' gradient
            ag.accumulate(features, gx)
            ag.accumulate(head_w, gw.reshape(w_all.shape))
            ag.accumulate(head_b, gb.reshape(-1))

    return ag.make_op(np.asarray(loss, dtype=dtype), (features, head_w, head_b), bw)


# ---------------------------------------------------------------------------
# optimiser
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    t: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def create(cls, params: dict[str, Variable]) -> "AdamState":
        return cls(
            t=0,
            m={k: np.zeros_like(p.data) for k, p in params.items()},
            v={k: np.zeros_like(p.data) for k, p in params.items()},
        )


def grad_norm(params: dict[str, Variable]) -> float:
    """The L2 norm of all parameters' gradients together, summed in
    float64, where no finite float32 gradient's square overflows; NaN or
    inf exactly when some gradient is not finite."""
    total = 0.0
    for p in params.values():
        g = ag.grad_of(p).astype(np.float64).reshape(-1)
        total += float(g @ g)
    return math.sqrt(total)


def adam_step(params: dict[str, Variable], state: AdamState,
              config: TrainConfig) -> None:
    """One bias-corrected Adam update, in place."""
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = ag.grad_of(p)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data = p.data - config.learning_rate * (m / c1) / (np.sqrt(v / c2) + config.eps)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    loss_log: list[tuple[int, float, float]]  # (step, loss, seconds)
    final_checkpoint: Path
    loss_csv: Path


def train(
    manifest: data_io.Manifest,
    net_config: NetworkConfig,
    train_config: TrainConfig,
    out_dir: str | Path,
    resume: str | Path | None = None,
) -> TrainResult:
    """Run the loop: sample patches, forward, masked loss, backward, Adam.

    Builds or resumes the model first, so that a config error (a model
    too large to allocate, a checkpoint past max_steps) is reported
    before any image is read. Then reads each training record once
    through :func:`data_io.load_sample` (the test split is not read) and
    raises DataError, naming the file, for an image whose channels differ
    from the config's or that is smaller than the patch on either axis,
    and for a target whose largest rounded value is not below
    value_classes; also when no training sample has a target. Writes loss.csv plus
    periodic and final checkpoints under out_dir, which is created only
    once all of these checks have passed; loss.csv gets its header before
    the first step and each step's row, flushed, as the step finishes, so
    a run stopped by an error or a signal keeps its finished steps' rows.
    A non-finite loss, a non-finite gradient before the Adam update or a
    non-finite value after it in any tensor a checkpoint holds aborts the
    step with a NumericError and a diagnostic dump of the offending batch
    and of the weights the step started from; no checkpoint or row of
    that step is written. Fully reproducible from (manifest, configs,
    seed); resuming from a checkpoint continues the identical stream.
    """
    train_config.validate()
    net_config.validate()
    out_dir = Path(out_dir)

    init_ss, loop_ss = np.random.SeedSequence(train_config.seed).spawn(2)
    loop_rng = np.random.default_rng(loop_ss)

    start_step = 0
    if resume is None:
        net = build(net_config, np.random.default_rng(init_ss))
        params = net.named_parameters()
        opt = AdamState.create(params)
    else:
        net, extras = load_checkpoint(resume)
        if net.config != net_config:
            raise DataError("resume: checkpoint config differs from requested config")
        params = net.named_parameters()
        if "optimizer" in extras:
            opt = AdamState(t=extras["optimizer"]["t"],
                            m=extras["optimizer"]["m"],
                            v=extras["optimizer"]["v"])
        else:
            opt = AdamState.create(params)
        if extras.get("rng_state"):
            loop_rng.bit_generator.state = extras["rng_state"]
        start_step = extras["step"]
        if start_step > train_config.max_steps:
            raise ConfigError(f"resume: checkpoint is at step {start_step}, past "
                              f"max_steps {train_config.max_steps}")

    records = manifest.split("train")
    if not records:
        raise DataError("train: manifest has no training samples")
    samples = [data_io.load_sample(manifest, rec, net_config.task_count) for rec in records]
    patch = net_config.patch_size
    for rec, s in zip(records, samples):
        h, w, c = s.image.shape
        if c != net_config.input_channels:
            raise DataError(f"{rec.input_path}: {c} channels, "
                            f"config expects {net_config.input_channels}")
        if h < patch or w < patch:
            raise DataError(f"{rec.input_path}: {w}x{h} smaller than patch size {patch}")
        for t, target in s.targets.items():
            # np.rint is monotone: the largest class is the rounded maximum
            if np.rint(target.max()) >= net_config.value_classes:
                raise DataError(f"{rec.targets[t]}: target classes outside "
                                f"[0, {net_config.value_classes})")
    if not any(s.targets for s in samples):
        raise DataError("train: no training sample has a target")

    out_dir.mkdir(parents=True, exist_ok=True)

    tasks = net_config.task_count
    loss_log: list[tuple[int, float, float]] = []
    started = time.monotonic()

    def save(step: int) -> Path:
        path = out_dir / f"checkpoint_{step:06d}.gptc"
        save_checkpoint(path, net, step=step,
                        optimizer={"t": opt.t, "m": opt.m, "v": opt.v},
                        rng_state=loop_rng.bit_generator.state)
        return path

    loss_csv = out_dir / "loss.csv"
    with loss_csv.open("w", newline="") as log:
        writer = csv.writer(log)
        writer.writerow(["step", "loss", "seconds"])
        for step in range(start_step + 1, train_config.max_steps + 1):
            xs, ts, ms = [], [], []
            for _ in range(train_config.batch_size):
                idx = int(loop_rng.integers(len(samples)))
                inp, targets, mask = sample_training_patch(samples[idx], loop_rng, patch, tasks)
                xs.append(inp)
                ts.append(targets)
                ms.append(mask)
            x = ag.var(np.stack(xs).astype(np.float32))
            targets = np.stack(ts)
            mask = np.stack(ms)

            try:
                # the finite checks are the signal: the overflowing or invalid
                # products before them print no numpy warnings
                with np.errstate(over="ignore", invalid="ignore"), _flush_to_zero():
                    features = forward(net, x, mode="train", rng=loop_rng)
                    loss = masked_cross_entropy(features, net.head_w, net.head_b, targets, mask,
                                                net_config.value_classes)
                    loss_value = float(loss.data)
                    if not np.isfinite(loss_value):
                        raise NumericError(f"train: non-finite loss at step {step}")
                    ag.zero_grad(params.values())
                    ag.backward(loss)
                    if not math.isfinite(grad_norm(params)):
                        raise NumericError(f"train: non-finite gradient at step {step}")
                    before = {name: p.data for name, p in params.items()}
                    adam_step(params, opt, train_config)
                    # a large finite gradient can overflow Adam's running square v,
                    # and a batch's large activations a float32 running variance
                    bad = [name for name, a in checkpoint_tensors(net, {"m": opt.m, "v": opt.v})
                           if not np.isfinite(a).all()]
                    if bad:
                        for name, p in params.items():
                            p.data = before[name]  # dump the weights the step started from
                        raise NumericError(f"train: non-finite {bad[0]} after the update at "
                                           f"step {step}")
                    del before
            except NumericError as exc:
                dump = out_dir / f"diagnostic_step{step:06d}"
                dump.mkdir(exist_ok=True)
                gptt.save_gptt(dump / "input.gptt", x.data.astype(np.float32))
                gptt.save_gptt(dump / "targets.gptt", targets.astype(np.float32))
                save_checkpoint(dump / "state.gptc", net, step=step)
                raise NumericError(f"{exc}; offending batch dumped to {dump}") from exc
            seconds = time.monotonic() - started
            loss_log.append((step, loss_value, seconds))
            writer.writerow([step, f"{loss_value:.9g}", f"{seconds:.3f}"])
            log.flush()  # a stopped run keeps the rows of its finished steps

            if step % train_config.checkpoint_interval == 0 and step < train_config.max_steps:
                save(step)

    final = save(train_config.max_steps)
    return TrainResult(loss_log, final, loss_csv)
