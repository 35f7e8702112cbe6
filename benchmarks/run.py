"""vstain benchmark: paper-size training, desk training and tiled prediction.

Run from the root of a vstain checkout:

    python3 benchmarks/run.py --workload train-paper --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

Each workload runs in a fresh child process (workloads.py) with BLAS
pinned to one thread, and workloads run one after another, never two at
once: train-paper and predict-paper each need several GB. The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones
(setup_s, s_per_mpix, peak_rss_mb); with --trace 1 they are the
per-layer ones from a traced round.

A child that crashes, runs out of time or is killed (for example for
memory) is reported as a failed run. The determinism digests of every
run are kept in .bench_work/digests.json, keyed by a hash of the code
and the seed; a run whose digest differs from an earlier run of the
same code and seed counts as failed.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("train-paper", "train-desk", "predict-paper")
HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170
UNITS = {"setup_s": "s", "s_per_mpix": "s/MP", "peak_rss_mb": "MB"}


def code_hash(root: Path) -> str:
    """Hash of everything that decides a run's outputs: package, configs, benchmark."""
    h = hashlib.sha256()
    files = sorted((root / "src").rglob("*.py")) + sorted((root / "configs").glob("*.json"))
    files += sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("frac"):
        return "ratio"
    return "count"


def run_child(root: Path, work_root: Path, args, workload: str) -> tuple[dict | None, str]:
    """Run one workload in its own process; (result, error message)."""
    work = work_root / f"{workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode < 0:
        sig = signal.Signals(-proc.returncode).name
        why = " (likely out of memory)" if sig == "SIGKILL" else ""
        return None, f"killed by {sig}{why}"
    if proc.returncode != 0:
        return None, f"exited with code {proc.returncode}"
    try:
        return json.loads(out.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, "printed no result"


def check_digest(store: Path, key: str, digest: dict) -> bool:
    """Record the digest; False if this code and seed gave another one before."""
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        return known[key] == digest
    known[key] = digest
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return True


def report(workload: str, args, result: dict | None, error: str, digest_ok: bool) -> dict:
    """Print the human-readable lines for one run and return its result object."""
    if result is None:
        print(f"{workload} seed={args.seed}: FAILED RUN: {error}")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    failures = list(result["failures"])
    attempted = result["attempted"] + 1
    if not digest_ok:
        failures.append("digest differs from an earlier run of this code and seed")
    print(f"env: {json.dumps(result['env'], sort_keys=True)}")
    print(f"{workload} seed={args.seed} rounds={result['rounds']}: "
          f"failed_frac={len(failures) / attempted:.4g} ({len(failures)}/{attempted})")
    if result["unit_s"] is not None:
        if workload.startswith("train"):
            print(f"  train_step_s {result['unit_s']:.6g} s")
        else:
            print(f"  predict_s_per_mpix {result['s_per_mpix']:.6g} s/MP")
    for name in UNITS:
        if name in result:
            print(f"  {name:<12} {result[name]:.6g} {UNITS[name]}")
    print(f"  digest {json.dumps(result['digest'], sort_keys=True)}")
    for failure in failures:
        print(f"  FAILED CHECK: {failure}")
    if args.trace:
        layers = result.get("per_layer", {})
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": result[k], "unit": u} for k, u in UNITS.items() if k in result}
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15,
                        help="measure each workload for this long (default 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced round")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "vstain" / "__init__.py").is_file():
        print("error: run from the root of a vstain checkout (no src/vstain here)",
              file=sys.stderr)
        return 2
    work_root = root / ".bench_work"
    work_root.mkdir(exist_ok=True)
    code = code_hash(root)
    status = 0
    with open(work_root / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)   # one workload at a time per checkout
        for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
            result, error = run_child(root, work_root, args, workload)
            digest_ok = result is None or result["digest"] is None or check_digest(
                work_root / "digests.json", f"{code}/{workload}/{args.seed}",
                result["digest"])
            line = report(workload, args, result, error, digest_ok)
            print(json.dumps(line), flush=True)
            if not line["correct"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
