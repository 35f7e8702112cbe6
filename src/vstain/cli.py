"""Command-line entry point: synth, train, predict, eval, gradcheck, inspect.

Every command validates its inputs, writes only under --out, and exits
0 on success, 2 on usage/config errors, 3 on data errors, 4 on numeric
failures and 130 when interrupted (Ctrl-C or SIGTERM), printing a single-line
`error: ...` diagnostic to stderr.
All commands are reproducible from their flags plus --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from pathlib import Path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vstain",
        description="Virtual staining with global pixel transformer layers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset + manifest")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--samples", type=int, default=8, help="training samples (default 8)")
    p.add_argument("--test-samples", type=int, default=1,
                   help="additional test samples (default 1)")
    p.add_argument("--size", type=int, default=128, help="image side length (default 128)")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p.add_argument("--tasks", default="nuclei,viability,type",
                   help="comma-separated task list (default nuclei,viability,type)")
    p.add_argument("--cells", default="3,8",
                   help="min,max cells per scene (default 3,8)")
    p.add_argument("--noise", type=float, default=4.0,
                   help="input noise standard deviation (default 4.0)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a manifest")
    p.add_argument("--manifest", required=True, help="manifest.json path")
    p.add_argument("--config", help="JSON file with 'network' and/or 'train' sections")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the training seed")
    p.add_argument("--steps", type=int, help="override max training steps")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict fluorescence maps for one image")
    p.add_argument("--checkpoint", required=True, help="trained checkpoint (.gptc)")
    p.add_argument("--image", required=True, help="input image (.pgm or .gptt)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--step", type=int, default=64,
                   help="sliding-window step (default 64)")
    p.add_argument("--render", choices=("argmax", "expectation", "both"),
                   default="both", help="rendering rule(s) to write (default both)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score predictions against a manifest's test split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--pred", required=True, help="directory holding rendered predictions")
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument("--sample-size", type=int, default=10_000,
                   help="pixels per correlation repetition (default 10000)")
    p.add_argument("--repetitions", type=int, default=30,
                   help="correlation repetitions (default 30)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--render", choices=("argmax", "expectation"),
                   default="expectation", help="which rendering to score")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("inspect", help="show a checkpoint's config and shape ledger")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_inspect)
    return parser


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    from . import data_io
    from .errors import ConfigError

    tasks = tuple(t.strip() for t in args.tasks.split(",") if t.strip())
    try:
        lo, hi = (int(v) for v in args.cells.split(","))
    except ValueError:
        raise ConfigError(f"--cells must be 'min,max', got {args.cells!r}") from None
    if args.samples < 1 or args.test_samples < 0:
        raise ConfigError("--samples must be >= 1 and --test-samples >= 0")
    manifest_path = data_io.generate_dataset(
        args.out, n_train=args.samples, size=args.size, seed=args.seed,
        tasks=tasks, n_test=args.test_samples, cell_count=(lo, hi),
        noise_level=args.noise,
    )
    print(f"wrote {manifest_path} ({args.samples} train, {args.test_samples} test)")
    return 0


def _load_configs(path: str | None):
    from .errors import ConfigError, DataError
    from .network import NetworkConfig
    from .training import TrainConfig

    net_dict, train_dict = {}, {}
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except OSError as exc:
            raise DataError(f"{path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
            raise DataError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        unknown = set(doc) - {"network", "train"}
        if unknown:
            raise ConfigError(f"{path}: unknown sections {sorted(unknown)}")
        net_dict = doc.get("network", {})
        train_dict = doc.get("train", {})
    return NetworkConfig.from_dict(net_dict), TrainConfig.from_dict(train_dict)


def cmd_train(args) -> int:
    from . import data_io, training

    net_config, train_config = _load_configs(args.config)
    if args.seed is not None:
        train_config.seed = args.seed
    if args.steps is not None:
        train_config.max_steps = args.steps
    manifest = data_io.load_manifest(args.manifest)
    result = training.train(manifest, net_config, train_config, args.out,
                            resume=args.resume)
    if result.loss_log:
        first = result.loss_log[0]
        last = result.loss_log[-1]
        print(f"trained steps {first[0]}..{last[0]}: "
              f"loss {first[1]:.4f} -> {last[1]:.4f}")
    else:
        print("no steps to run (checkpoint already at max steps)")
    print(f"final checkpoint: {result.final_checkpoint}")
    print(f"loss log: {result.loss_csv}")
    return 0


def cmd_predict(args) -> int:
    from . import data_io, gptt
    from .evaluation import prediction_filename
    from .inference import predict_image
    from .network import distributions_to_image, load_checkpoint

    net, _ = load_checkpoint(args.checkpoint)
    image = data_io.load_image(args.image)
    dist = predict_image(net, image, step=args.step)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.image).stem
    gptt.save_gptt(out_dir / f"{stem}_dist.gptt", dist)
    written = [out_dir / f"{stem}_dist.gptt"]
    renders = ("argmax", "expectation") if args.render == "both" else (args.render,)
    for t in range(net.config.task_count):
        for render in renders:
            img = distributions_to_image(dist[None], t, render)[0]
            path = out_dir / prediction_filename(args.image, t, render)
            data_io.save_pgm(path, img)
            written.append(path)
    print(f"wrote {len(written)} files under {out_dir}")
    return 0


def cmd_eval(args) -> int:
    from . import data_io
    from .evaluation import evaluate_predictions

    manifest = data_io.load_manifest(args.manifest)
    report = evaluate_predictions(
        manifest, args.pred, sample_size=args.sample_size,
        repetitions=args.repetitions, seed=args.seed, render=args.render,
    )
    paths = report.write(args.out)
    for t in report.tasks:
        print(f"task {t.task_id} ({t.task_name}): pearson "
              f"{t.pearson_mean:.4f} +/- {t.pearson_std:.4f}, "
              f"overall accuracy {t.confusion.overall_accuracy:.4f}")
    print(report.table_text(), end="")
    print(f"report: {paths['json']}")
    return 0


def cmd_gradcheck(args) -> int:
    from .errors import NumericError
    from .gradcheck import format_rows, run_suite

    rows = run_suite(seed=args.seed)
    print(format_rows(rows))
    if not all(r.passed for r in rows):
        raise NumericError("gradcheck: some checks failed")
    return 0


def cmd_inspect(args) -> int:
    from .network import load_checkpoint, stage_ledger

    net, extras = load_checkpoint(args.checkpoint)
    print(json.dumps(net.config.to_dict(), indent=2, sort_keys=True))
    print(f"step: {extras['step']}")
    print(f"{'stage':8s} {'spatial':>8s} {'channels':>9s}")
    for name, spatial, channels in stage_ledger(net.config):
        print(f"{name:8s} {spatial:4d}x{spatial:<4d} {channels:9d}")
    params = net.named_parameters()
    print(f"{len(params)} parameter tensors, {net.parameter_count()} scalars")
    for name, v in params.items():
        print(f"  {name:28s} {tuple(v.data.shape)}")
    return 0


def main(argv=None) -> int:
    # One BLAS thread per product, set before numpy loads: vstain splits
    # large products over its own worker pool, whose results do not
    # depend on the core count, while BLAS threads would change the bits.
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"
    args = _build_parser().parse_args(argv)

    from .errors import VstainError

    # SIGTERM ends a command as Ctrl-C does. Only the main thread may set
    # a handler, and main also runs in-process, so the old one comes back.
    on_main = threading.current_thread() is threading.main_thread()
    if on_main:
        old_handler = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        return args.func(args)
    except VstainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, old_handler)


if __name__ == "__main__":
    sys.exit(main())
