"""Prediction quality metrics: sampled Pearson correlation and 10-bin
confusion matrices.

Pearson statistics follow a repeated-subsample protocol: each
repetition draws `sample_size` pixel positions without replacement from
the task's pooled test pixels (predicted and true values stay paired)
and the mean and standard deviation over repetitions are reported.

Confusion matrices normalise pixel values v to v/255 and bin them with
width 0.1; the top bin is closed so the value 1.0 lands in bin 9.
Per-bin accuracy is the diagonal over the true-bin row sum and is
absent (None, rendered "-") for bins with no true pixels; overall
accuracy is the trace over the total count.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data_io
from .errors import ConfigError, DataError, NumericError, ShapeError

BIN_COUNT = 10


def prediction_filename(input_path: str | Path, task: int, render: str) -> str:
    """Rendered-prediction filename convention shared with the CLI."""
    return f"{Path(input_path).stem}_task{task}_{render}.pgm"


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Sample Pearson correlation; raises on constant input instead of NaN.

    The denominator is sqrt(sx2 * sy2), so identical inputs give exactly
    1.0 (their covariance and variances are bitwise equal).
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.shape != y.shape:
        raise ShapeError(f"pearson: length mismatch {x.size} vs {y.size}")
    if x.size < 2:
        raise ShapeError(f"pearson: need at least 2 values, got {x.size}")
    xm = x - x.mean()
    ym = y - y.mean()
    sx2 = float((xm * xm).sum())
    sy2 = float((ym * ym).sum())
    if sx2 == 0.0 or sy2 == 0.0:
        raise NumericError("pearson: constant input sequence")
    r = float((xm * ym).sum() / math.sqrt(sx2 * sy2))
    return max(-1.0, min(1.0, r))


def sampled_pearson(
    pred_images: list[np.ndarray],
    truth_images: list[np.ndarray],
    sample_size: int,
    repetitions: int = 30,
    seed: int = 0,
) -> tuple[float, float, list[float]]:
    """Mean and standard deviation of Pearson r over repeated pixel subsamples.

    Pixels are pooled across all images of a task; each repetition
    samples positions without replacement (indices sorted before
    gathering, so a full-population sample reduces exactly to
    :func:`pearson` over all pixels). Returns (mean, std, values); std
    is the population standard deviation over repetitions.
    """
    if not pred_images or len(pred_images) != len(truth_images):
        raise DataError("sampled_pearson: empty or mismatched image sets")
    pred = np.concatenate([np.asarray(p, dtype=np.float64).reshape(-1)
                           for p in pred_images])
    truth = np.concatenate([np.asarray(t, dtype=np.float64).reshape(-1)
                            for t in truth_images])
    total = pred.size
    if sample_size < 2 or sample_size > total:
        raise ShapeError(
            f"sampled_pearson: sample_size {sample_size} not in [2, {total}]"
        )
    values = []
    for child in np.random.SeedSequence(seed).spawn(repetitions):
        rng = np.random.default_rng(child)
        idx = rng.choice(total, size=sample_size, replace=False)
        idx.sort()
        values.append(pearson(pred[idx], truth[idx]))
    mean = float(np.mean(values))
    std = float(np.std(values))
    return mean, std, values


def value_bin(v):
    """Bin index of a 0-255 value, or of each value of an array, on the
    normalised 0.1-wide grid."""
    scaled = np.asarray(v, dtype=np.float64) / 255.0 * BIN_COUNT
    return np.minimum(scaled.astype(np.int64), BIN_COUNT - 1)


@dataclass
class ConfusionResult:
    counts: np.ndarray            # (10, 10) int64, rows = true bin
    per_bin_accuracy: list[float | None]
    overall_accuracy: float
    total: int

    @property
    def per_1000(self) -> np.ndarray:
        return self.counts.astype(np.float64) / max(self.total, 1) * 1000.0


def confusion(pred: np.ndarray, truth: np.ndarray) -> ConfusionResult:
    """10x10 confusion matrix of binned values plus bin/overall accuracies."""
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    truth = np.asarray(truth, dtype=np.float64).reshape(-1)
    for name, arr in (("pred", pred), ("truth", truth)):
        if arr.min() < 0 or arr.max() > 255:
            raise DataError(f"confusion: {name} values outside 0-255")
    pbin = value_bin(pred)
    tbin = value_bin(truth)
    counts = np.bincount(tbin * BIN_COUNT + pbin,
                         minlength=BIN_COUNT * BIN_COUNT).reshape(BIN_COUNT, BIN_COUNT)
    row_sums = counts.sum(axis=1)
    per_bin: list[float | None] = [
        float(counts[i, i] / row_sums[i]) if row_sums[i] > 0 else None
        for i in range(BIN_COUNT)
    ]
    total = int(counts.sum())
    overall = float(np.trace(counts) / total)
    return ConfusionResult(counts, per_bin, overall, total)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass
class TaskReport:
    task_id: int
    task_name: str
    pearson_mean: float
    pearson_std: float
    confusion: ConfusionResult
    sample_size: int
    repetitions: int


@dataclass
class EvalReport:
    tasks: list[TaskReport]
    seed: int
    render: str

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "render": self.render,
            "tasks": {
                str(t.task_id): {
                    "name": t.task_name,
                    "pearson_mean": t.pearson_mean,
                    "pearson_std": t.pearson_std,
                    "sample_size": t.sample_size,
                    "repetitions": t.repetitions,
                    "confusion_counts": t.confusion.counts.tolist(),
                    "confusion_per_1000": np.round(t.confusion.per_1000, 3).tolist(),
                    "per_bin_accuracy": t.confusion.per_bin_accuracy,
                    "overall_accuracy": t.confusion.overall_accuracy,
                    "pixels": t.confusion.total,
                }
                for t in self.tasks
            },
        }

    def table_text(self) -> str:
        """Plain-text accuracy table: one row per task, bins 0-9 plus overall."""
        header = ["Task".ljust(22)] + [f"Bin{i}" for i in range(BIN_COUNT)] + ["Overall"]
        lines = ["  ".join(h.rjust(6) if i else h for i, h in enumerate(header))]
        for t in self.tasks:
            cells = [t.task_name[:22].ljust(22)]
            for acc in t.confusion.per_bin_accuracy:
                cells.append(("-" if acc is None else f"{acc:.3f}").rjust(6))
            cells.append(f"{t.confusion.overall_accuracy:.3f}".rjust(7))
            lines.append("  ".join(cells))
        return "\n".join(lines) + "\n"

    def write(self, out_dir: str | Path) -> dict[str, Path]:
        """Write report.json, per-task confusion CSVs and the text table."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = {}
        report_json = out_dir / "report.json"
        report_json.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        paths["json"] = report_json
        for t in self.tasks:
            cpath = out_dir / f"confusion_task{t.task_id}.csv"
            with cpath.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["true_bin\\pred_bin"] + [str(i) for i in range(BIN_COUNT)])
                for i in range(BIN_COUNT):
                    writer.writerow([i] + [int(c) for c in t.confusion.counts[i]])
            paths[f"confusion_{t.task_id}"] = cpath
        table = out_dir / "accuracy_table.txt"
        table.write_text(self.table_text())
        paths["table"] = table
        return paths


def evaluate_predictions(
    manifest: data_io.Manifest,
    pred_dir: str | Path,
    sample_size: int = 10_000,
    repetitions: int = 30,
    seed: int = 0,
    render: str = "expectation",
) -> EvalReport:
    """Score rendered predictions in `pred_dir` against the manifest's test split.

    For every task with ground truth in at least one test sample, the
    prediction images (named per :func:`prediction_filename`) are pooled
    with their truths; sample_size is clamped to the pooled pixel count.
    Raises ConfigError for sample_size < 2, repetitions < 1 or seed < 0.
    """
    if sample_size < 2:
        raise ConfigError(f"evaluate: sample_size must be >= 2, got {sample_size}")
    if repetitions < 1:
        raise ConfigError(f"evaluate: repetitions must be >= 1, got {repetitions}")
    if seed < 0:
        raise ConfigError(f"evaluate: seed must be >= 0, got {seed}")
    pred_dir = Path(pred_dir)
    test = manifest.split("test")
    if not test:
        raise DataError("evaluate: manifest has no test samples")
    by_task: dict[int, tuple[list[np.ndarray], list[np.ndarray]]] = {}
    for rec in test:
        sample = data_io.load_sample(manifest, rec)
        for t, truth in sorted(sample.targets.items()):
            ppath = pred_dir / prediction_filename(rec.input_path, t, render)
            if not ppath.exists():
                raise DataError(f"evaluate: missing prediction {ppath}")
            pred = data_io.load_pgm(ppath)
            if pred.shape != truth.shape:
                raise DataError(
                    f"evaluate: {ppath} is {pred.shape}, truth is {truth.shape}"
                )
            by_task.setdefault(t, ([], []))[0].append(pred)
            by_task[t][1].append(truth)

    tasks = []
    for t in sorted(by_task):
        preds, truths = by_task[t]
        total = sum(p.size for p in preds)
        eff = min(sample_size, total)
        mean, std, _ = sampled_pearson(preds, truths, eff, repetitions, seed + t)
        conf = confusion(np.concatenate([p.reshape(-1) for p in preds]),
                         np.concatenate([x.reshape(-1) for x in truths]))
        name = (manifest.task_names[t] if t < len(manifest.task_names)
                else f"task{t}")
        tasks.append(TaskReport(t, name, mean, std, conf, eff, repetitions))
    return EvalReport(tasks=tasks, seed=seed, render=render)
