"""One benchmark workload in one process; started by run.py.

run.py pins the BLAS thread count in this process's environment before
numpy loads and puts the checkout's ``src/`` on ``PYTHONPATH``. The
workload drives only vstain's public entry points, the same calls the
CLI makes, and prints one JSON object on stdout: timings, correctness
check counts, determinism digests and, on traced runs, per-layer
numbers. Progress and failures go to stderr.

Every workload sets up several times (setup_s is their median), then
runs measured rounds until ``--seconds`` have passed. All rounds of a
run use the same inputs, so their digests must agree; a traced run adds
one round under the tracer, whose digest must agree as well.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from vstain import (data_io, evaluation, gptt, inference, network,
                    training)
from tracer import GPT_STAGES, STAGES, NullTracer, Tracer

# Workload inputs. The model and training seeds are part of each
# workload's fixed configuration; --seed chooses the synthetic data.
MODEL_SEED = 0
PAPER_STEPS = 2             # about 25 s each: two patches per run fit the time budget
DESK_STEPS = 100            # half of configs/tiny.json's 200 steps
PREDICT_SIZE = 192          # 2x2 windows at step 64: overlap 2x on edges, 4x in the centre
PREDICT_STEP = 64
# Dense scenes: every 128-pixel patch holds cells and every task has
# signal in the test image, so no Pearson correlation meets a constant.
DENSE_CELLS = (24, 32)
SETUP_REPEATS = {"train-paper": 3, "train-desk": 9, "predict-paper": 3}
ROUND_BUDGET_S = 150.0      # never start a round that could pass run.py's deadline


class Checks:
    """Named pass/fail checks; failed ones count into failed_frac."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
            print(f"check failed: {name}", file=sys.stderr)


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def openblas_state() -> tuple[int | None, str | None]:
    """(thread count, config string) reported by the loaded OpenBLAS."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.rsplit("/", 1)[-1]})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                return get_threads(), get_config().decode()
    return None, None


def environment() -> dict:
    threads, config = openblas_state()
    cpu = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    mem_kb = 0
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "openblas": config,
        "openblas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "mem_total_gb": round(mem_kb / 2**20, 2),
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class TrainWorkload:
    """`training.train` on a synthetic dataset; one round is one train call."""

    def __init__(self, dataset: dict, net_config, train_config):
        self.dataset = dataset
        self.net_config = net_config
        self.train_config = train_config

    @property
    def mpix_per_unit(self) -> float:
        return self.train_config.batch_size * self.net_config.patch_size ** 2 / 1e6

    def setup(self, work: Path, seed: int, tracer):
        path = data_io.generate_dataset(work / "data", seed=seed, **self.dataset)
        return data_io.load_manifest(path)

    def round(self, manifest, out: Path, tracer, checks: Checks):
        """Returns (timed seconds, units of work, digest)."""
        t0 = time.perf_counter()
        result = training.train(manifest, self.net_config, replace(self.train_config), out)
        elapsed = time.perf_counter() - t0
        steps = len(result.loss_log)
        checks.check("one loss per step", steps == self.train_config.max_steps)
        checks.check("losses finite", all(math.isfinite(loss) for _, loss, _ in result.loss_log))
        loaded, extras = network.load_checkpoint(result.final_checkpoint)
        checks.check("final checkpoint loads back",
                     loaded.config == self.net_config and extras["step"] == steps)
        stream = json.dumps([[step, loss] for step, loss, _ in result.loss_log])
        digest = {"loss_stream": hashlib.sha256(stream.encode()).hexdigest(),
                  "checkpoint": sha256_files([result.final_checkpoint])}
        return elapsed, steps, digest


class PredictWorkload:
    """Save and reload a seeded default model, then `vstain predict` + `eval`."""

    mpix_per_unit = PREDICT_SIZE ** 2 / 1e6

    def __init__(self, dataset: dict):
        self.dataset = dataset

    def setup(self, work: Path, seed: int, tracer):
        path = data_io.generate_dataset(work / "data", seed=seed, **self.dataset)
        manifest = data_io.load_manifest(path)
        net = network.build(network.NetworkConfig(), np.random.default_rng(MODEL_SEED))
        ckpt = work / "model.gptc"
        network.save_checkpoint(ckpt, net)
        with tracer.span("network.load_checkpoint.s"):
            net, _ = network.load_checkpoint(ckpt)
        rec = manifest.split("test")[0]
        image = data_io.load_image(manifest.root / rec.input_path)
        return manifest, net, rec, image

    def round(self, state, out: Path, tracer, checks: Checks):
        manifest, net, rec, image = state
        cfg = net.config
        out.mkdir(parents=True)
        t0 = time.perf_counter()
        with tracer.span("inference.predict_image.s"):
            dist = inference.predict_image(net, image, step=PREDICT_STEP)
        gptt_path = out / f"{Path(rec.input_path).stem}_dist.gptt"
        with tracer.span("gptt.save_gptt.s"):
            gptt.save_gptt(gptt_path, dist)
        pgms = []
        for t in range(cfg.task_count):
            for render in ("argmax", "expectation"):
                with tracer.span("network.distributions_to_image.s"):
                    img = network.distributions_to_image(dist[None], t, render)[0]
                pgms.append(out / evaluation.prediction_filename(rec.input_path, t, render))
                with tracer.span("data_io.save_pgm.s"):
                    data_io.save_pgm(pgms[-1], img)
        elapsed = time.perf_counter() - t0
        with tracer.span("evaluation.evaluate_predictions.s"):
            report = evaluation.evaluate_predictions(manifest, out, sample_size=10_000,
                                                     repetitions=30, seed=0)
        h, w = image.shape[:2]
        t, v = cfg.task_count, cfg.value_classes
        tracer.add("gptt.save_gptt.bytes", gptt_path.stat().st_size)
        # predict_image's (H, W, T, V) float32 accumulator and (H, W) count map
        tracer.add("inference.accumulator_bytes", h * w * (t * v + 1) * 4)
        checks.check("distribution shape", dist.shape == (h, w, t, v))
        checks.check("distribution finite", bool(np.isfinite(dist).all()))
        checks.check("distribution in [0, 1]", bool(dist.min() >= 0 and dist.max() <= 1))
        sums = dist.sum(axis=-1, dtype=np.float64)
        checks.check("distributions sum to 1",
                     float(np.abs(sums - 1).max()) <= v * np.finfo(np.float32).eps)
        checks.check("2T PGMs written", len(list(out.glob("*.pgm"))) == 2 * t)
        checks.check("every labelled task evaluated",
                     len(report.tasks) == len(rec.targets))
        checks.check("Pearson means finite, in [-1, 1]",
                     all(math.isfinite(r.pearson_mean) and -1 <= r.pearson_mean <= 1
                         for r in report.tasks))
        digest = {"prediction": sha256_files([gptt_path] + pgms)}
        return elapsed, 1, digest


def make_workload(name: str, checkout: Path):
    if name == "train-paper":
        # The paper's model at batch 1 (batch 4 needs about 13 GB).
        return TrainWorkload(
            dict(n_train=4, n_test=1, size=256, tasks=data_io.TASK_NAMES,
                 cell_count=DENSE_CELLS),
            network.NetworkConfig(),
            training.TrainConfig(batch_size=1, max_steps=PAPER_STEPS,
                                 checkpoint_interval=PAPER_STEPS, seed=MODEL_SEED))
    if name == "train-desk":
        # The README's desk run: configs/tiny.json on its synth dataset.
        doc = json.loads((checkout / "configs" / "tiny.json").read_text())
        train_config = training.TrainConfig.from_dict(doc["train"])
        return TrainWorkload(
            dict(n_train=4, n_test=1, size=128, tasks=("nuclei", "viability")),
            network.NetworkConfig.from_dict(doc["network"]),
            replace(train_config, max_steps=DESK_STEPS))
    if name == "predict-paper":
        return PredictWorkload(
            dict(n_train=1, n_test=1, size=PREDICT_SIZE, tasks=data_io.TASK_NAMES,
                 cell_count=DENSE_CELLS))
    raise SystemExit(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# per-layer report
# ---------------------------------------------------------------------------

def per_layer(totals: dict, units: int, timed_s: float, untraced_s: float) -> dict:
    """Per-layer metrics: seconds per unit of work (a training step or a
    predicted image), bytes per forward call, fractions and counts."""
    calls = max(totals.get("network.forward.calls", 0), 1)
    out = {}
    for stage in STAGES:
        out[f"stage.{stage}.fwd_s"] = totals.get(f"stage.{stage}.fwd_s", 0) / units
        out[f"stage.{stage}.bwd_s"] = totals.get(f"stage.{stage}.bwd_s", 0) / units
        out[f"stage.{stage}.tape_bytes"] = totals.get(f"stage.{stage}.tape_bytes", 0) / calls
    for stage in GPT_STAGES:
        weights = totals.get(f"stage.{stage}.softmax_weights", 0)
        out[f"stage.{stage}.softmax_subnormal_frac"] = (
            totals.get(f"stage.{stage}.softmax_subnormal", 0) / weights if weights else 0.0)
        out[f"stage.{stage}.score_bytes"] = totals.get(f"stage.{stage}.score_bytes", 0) / calls
    seconds = ("autograd.backward.s", "training.masked_cross_entropy.s",
               "training.masked_cross_entropy.bwd_s", "training.adam_step.s",
               "multiscale.sample_training_patch.s", "network.save_checkpoint.s",
               "network.forward.s", "network.predict_distributions.s",
               "multiscale.extract_multiscale.s", "gptt.save_gptt.s",
               "network.distributions_to_image.s", "data_io.save_pgm.s",
               "evaluation.evaluate_predictions.s", "network.load_checkpoint.s")
    for name in seconds:
        out[name] = totals.get(name, 0) / units
    predict_s = totals.get("inference.predict_image.s", 0)
    out["inference.merge.s"] = (predict_s - totals.get("network.forward.s", 0)
                                - totals.get("network.predict_distributions.s", 0)
                                - totals.get("multiscale.extract_multiscale.s", 0)
                                ) / units if predict_s else 0.0
    out["inference.windows"] = calls / units if predict_s else 0.0
    out["inference.accumulator_bytes"] = totals.get("inference.accumulator_bytes", 0) / units
    out["autograd.tape_nodes"] = totals.get("autograd.tape_nodes", 0) / units
    saves = totals.get("network.save_checkpoint.calls", 0)
    out["network.save_checkpoint.bytes"] = (
        totals.get("network.save_checkpoint.bytes", 0) / saves if saves else 0.0)
    out["gptt.save_gptt.bytes"] = totals.get("gptt.save_gptt.bytes", 0) / units
    forward_s = out["network.forward.s"]
    out["network.forward.stage_frac"] = (
        sum(out[f"stage.{s}.fwd_s"] for s in STAGES) / forward_s if forward_s else 0.0)
    backward_s = out["autograd.backward.s"]
    attributed = (sum(out[f"stage.{s}.bwd_s"] for s in STAGES)
                  + out["training.masked_cross_entropy.bwd_s"])
    out["autograd.backward.unattributed_frac"] = (
        1 - attributed / backward_s if backward_s else 0.0)
    out["trace.overhead_frac"] = timed_s / untraced_s - 1
    return out


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory")
    args = parser.parse_args()

    env = environment()
    if env["openblas_threads"] != 1:
        print(f"error: OpenBLAS uses {env['openblas_threads']} threads, not 1",
              file=sys.stderr)
        return 3
    checkout = Path.cwd()
    work = Path(args.work)
    workload = make_workload(args.workload, checkout)
    checks = Checks()
    null = NullTracer()

    setup_s = []
    for i in range(SETUP_REPEATS[args.workload]):
        t0 = time.perf_counter()
        state = workload.setup(work / f"setup{i}", args.seed, null)
        setup_s.append(time.perf_counter() - t0)

    timed, units, digests = [], [], []
    started = time.perf_counter()
    error = None
    try:
        while not timed or time.perf_counter() - started < args.seconds:
            ahead = max(timed, default=0) * (2 if args.trace else 1)
            if time.perf_counter() - started + ahead > ROUND_BUDGET_S:
                break
            seconds, n, digest = workload.round(state, work / f"round{len(timed)}",
                                                null, checks)
            timed.append(seconds)
            units.append(n)
            digests.append(digest)
        traced = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                state = workload.setup(work / "setup-traced", args.seed, tracer)
                seconds, n, digest = workload.round(state, work / "round-traced",
                                                    tracer, checks)
            finally:
                tracer.remove()
            digests.append(digest)
            traced = (tracer.totals, n, seconds)
    except Exception as exc:  # report the failed round instead of a traceback
        error = f"{type(exc).__name__}: {exc}"
        checks.check(f"round completes ({error})", False)

    if digests:
        checks.check("same digest in every round of the run",
                     all(d == digests[0] for d in digests))
    per_unit = [s / n for s, n in zip(timed, units)]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "env": env,
        "attempted": checks.attempted,
        "failures": checks.failures,
        "digest": digests[0] if digests else None,
        "rounds": len(timed),
        "unit_s": statistics.median(per_unit) if per_unit else None,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if per_unit:
        result["s_per_mpix"] = result["unit_s"] / workload.mpix_per_unit
    if args.trace and error is None:
        totals, n, seconds = traced
        result["per_layer"] = per_layer(totals, n, seconds, statistics.median(timed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
