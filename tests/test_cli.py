"""Command-line behaviour: pipeline wiring, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vstain
from vstain import cli
from vstain import data_io as dio

TINY_CONFIG = {
    "network": {
        "patch_size": 32,
        "task_count": 2,
        "growth_rate": 2,
        "stem_channels": 4,
        "encoder_depths": [1, 1, 1],
        "encoder_channels": [4, 6, 8],
        "bottom_depth": 1,
        "bottom_channels": 10,
        "decoder_depths": [1, 1, 1],
        "decoder_channels": [8, 6, 4],
    },
    "train": {
        "learning_rate": 0.001,
        "batch_size": 2,
        "max_steps": 15,
        "checkpoint_interval": 10,
        "seed": 5,
    },
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> train -> predict -> eval, shared by the checks below."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))

    assert cli.main(["synth", "--out", str(root / "data"), "--samples", "3",
                     "--test-samples", "1", "--size", "48", "--seed", "2",
                     "--tasks", "nuclei,viability"]) == 0
    assert cli.main(["train", "--manifest", str(root / "data/manifest.json"),
                     "--config", str(cfg_path), "--out", str(root / "run")]) == 0
    ckpt = root / "run" / "checkpoint_000015.gptc"
    assert ckpt.exists()
    test_image = root / "data/images/s003_input.pgm"
    assert cli.main(["predict", "--checkpoint", str(ckpt),
                     "--image", str(test_image), "--out", str(root / "pred"),
                     "--step", "16"]) == 0
    assert cli.main(["eval", "--manifest", str(root / "data/manifest.json"),
                     "--pred", str(root / "pred"), "--out", str(root / "report"),
                     "--sample-size", "1000", "--repetitions", "5",
                     "--seed", "3"]) == 0
    return root


def test_pipeline_outputs_exist(pipeline):
    assert (pipeline / "run" / "loss.csv").exists()
    assert (pipeline / "pred" / "s003_input_dist.gptt").exists()
    for render in ("argmax", "expectation"):
        assert (pipeline / "pred" / f"s003_input_task0_{render}.pgm").exists()
        assert (pipeline / "pred" / f"s003_input_task1_{render}.pgm").exists()
    report = json.loads((pipeline / "report" / "report.json").read_text())
    assert set(report["tasks"]) == {"0", "1"}
    assert (pipeline / "report" / "confusion_task0.csv").exists()
    assert (pipeline / "report" / "accuracy_table.txt").exists()


def test_pipeline_loss_decreases(pipeline):
    rows = (pipeline / "run" / "loss.csv").read_text().splitlines()[1:]
    losses = [float(r.split(",")[1]) for r in rows]
    assert losses[-1] < losses[0]


def test_predictions_cover_value_range(pipeline):
    dist = __import__("vstain.gptt", fromlist=["load_gptt"]).load_gptt(
        pipeline / "pred" / "s003_input_dist.gptt")
    assert dist.shape == (48, 48, 2, 256)
    assert np.allclose(dist.sum(-1, dtype=np.float64), 1.0, atol=1e-6)


def test_synth_rerun_overwrites_identical_bytes(pipeline, tmp_path):
    out = tmp_path / "again"
    args = ["synth", "--out", str(out), "--samples", "3", "--test-samples", "1",
            "--size", "48", "--seed", "2", "--tasks", "nuclei,viability"]
    assert cli.main(args) == 0
    first = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert cli.main(args) == 0
    second = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert first == second
    reference = {p.relative_to(pipeline / "data"): p.read_bytes()
                 for p in (pipeline / "data").rglob("*") if p.is_file()}
    assert first == reference


def test_inspect_prints_ledger(pipeline, capsys):
    ckpt = pipeline / "run" / "checkpoint_000015.gptc"
    assert cli.main(["inspect", "--checkpoint", str(ckpt)]) == 0
    out = capsys.readouterr().out
    assert "stem" in out and "bottom" in out and "head" in out
    assert '"patch_size": 32' in out
    assert "parameter tensors" in out


def test_inspect_corrupt_header_is_data_error(pipeline, tmp_path, capsys):
    raw = bytearray((pipeline / "run" / "checkpoint_000015.gptc").read_bytes())
    raw[16] ^= 0x80  # first header byte: no longer valid UTF-8
    bad = tmp_path / "bad.gptc"
    bad.write_bytes(bytes(raw))
    assert cli.main(["inspect", "--checkpoint", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_missing_manifest_is_data_error(tmp_path, capsys):
    code = cli.main(["train", "--manifest", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "run")])
    assert code == 3
    assert capsys.readouterr().err.startswith("error:")


def test_bad_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"network": {"patch_size": 100}}))
    mpath = dio.generate_dataset(tmp_path / "d", 1, size=32, seed=0, n_test=0)
    code = cli.main(["train", "--manifest", str(mpath),
                     "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 2


@pytest.fixture(scope="module")
def one_sample_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("one")
    return dio.generate_dataset(root / "d", 1, size=32, seed=0, n_test=0)


@pytest.mark.parametrize("doc", [
    {"network": {"patch_size": "32"}},
    {"network": {"task_count": True}},
    {"network": {"encoder_depths": [1, "1", 1]}},
    {"network": {"encoder_channels": 8}},
    {"network": {"dropout_rate": "0.5"}},
    {"network": {"qk_channels": 2.0}},
    {"network": []},
    {"train": {"batch_size": "4"}},
    {"train": {"max_steps": False}},
    {"train": {"seed": 1.5}},
    {"train": {"learning_rate": "fast"}},
    {"train": {"beta1": None}},
], ids=["patch-str", "tasks-bool", "depth-entry-str", "channels-not-list",
        "dropout-str", "qk-float", "network-not-object", "batch-str",
        "steps-bool", "seed-float", "lr-str", "beta1-null"])
def test_config_value_of_wrong_type_is_usage_error(one_sample_manifest, tmp_path,
                                                   capsys, doc):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    code = cli.main(["train", "--manifest", str(one_sample_manifest),
                     "--config", str(cfg), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("doc", [
    {"samples": 5},
    {"samples": ["x"]},
    {"samples": [{"input": "a.pgm", "targets": ["b.pgm"]}]},
    {"samples": [{"input": 7}]},
    {"samples": [{"input": "a.pgm", "targets": {"0": 7}}]},
    {"samples": [], "task_names": 5},
    {"samples": [], "task_names": "abc"},
], ids=["samples-not-list", "record-not-object", "targets-not-object",
        "input-not-str", "target-not-str", "task-names-int", "task-names-str"])
def test_manifest_of_wrong_structure_is_data_error(tmp_path, capsys, doc):
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(doc))
    code = cli.main(["train", "--manifest", str(mpath), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [
    ["--cells", "8,3"],
    ["--cells=-1,3"],
    ["--noise", "-0.5"],
    ["--size", "11"],
], ids=["cells-min-above-max", "cells-negative", "noise-negative", "size-below-12"])
def test_synth_bad_flag_is_usage_error(tmp_path, capsys, flags):
    code = cli.main(["synth", "--out", str(tmp_path / "d"), "--samples", "1",
                     "--test-samples", "0", *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("repetitions", ["0", "-1"])
def test_eval_repetitions_below_one_is_usage_error(pipeline, tmp_path, capsys,
                                                  repetitions):
    code = cli.main(["eval", "--manifest", str(pipeline / "data/manifest.json"),
                     "--pred", str(pipeline / "pred"), "--out", str(tmp_path / "rep"),
                     "--sample-size", "1000", "--repetitions", repetitions])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "rep").exists()


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["synth", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["synth", "train", "predict", "eval",
                                     "gradcheck", "inspect"])
def test_help_documents_flags_and_defaults(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--" in out
    if command in ("synth", "predict", "eval"):
        assert "default" in out


def test_predict_image_smaller_than_patch_is_data_error(pipeline, tmp_path, capsys):
    small = tmp_path / "small.pgm"
    dio.save_pgm(small, np.zeros((16, 16)))
    code = cli.main(["predict",
                     "--checkpoint", str(pipeline / "run" / "checkpoint_000015.gptc"),
                     "--image", str(small), "--out", str(tmp_path / "p")])
    assert code == 3


@pytest.mark.parametrize("step", ["0", "-3", "33"])  # the pipeline's patch is 32
def test_predict_bad_step_is_usage_error_and_writes_nothing(pipeline, tmp_path, capsys,
                                                            step):
    code = cli.main(["predict",
                     "--checkpoint", str(pipeline / "run" / "checkpoint_000015.gptc"),
                     "--image", str(pipeline / "data/images/s003_input.pgm"),
                     "--out", str(tmp_path / "p"), "--step", step])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "step" in err
    assert not (tmp_path / "p").exists()


BAD_PIXELS = pytest.mark.parametrize(
    "value", [np.nan, np.inf, -np.inf, -5.0, 300.0],
    ids=["nan", "inf", "minus-inf", "minus-5", "300"])


def save_gptt_image(path, value):
    """A 48x48 GPTT image of mid grey with one pixel set to `value`."""
    from vstain import gptt
    image = np.full((48, 48), 128.0, dtype=np.float32)
    image[5, 7] = value
    gptt.save_gptt(path, image)
    return path


@BAD_PIXELS
def test_predict_gptt_image_outside_0_255_is_data_error(pipeline, tmp_path, capsys,
                                                        value):
    image = save_gptt_image(tmp_path / "bad.gptt", value)
    code = cli.main(["predict",
                     "--checkpoint", str(pipeline / "run" / "checkpoint_000015.gptc"),
                     "--image", str(image), "--out", str(tmp_path / "p"),
                     "--step", "16"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and err.count("\n") == 1
    assert "0-255" in err
    assert not (tmp_path / "p").exists()


@BAD_PIXELS
def test_train_gptt_input_outside_0_255_is_data_error(tmp_path, capsys, value):
    mpath = dio.generate_dataset(tmp_path / "d", 1, size=48, seed=0, n_test=0,
                                 tasks=("nuclei", "viability"))
    doc = json.loads(mpath.read_text())
    doc["samples"][0]["input"] = "bad.gptt"
    mpath.write_text(json.dumps(doc))
    save_gptt_image(mpath.parent / "bad.gptt", value)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    code = cli.main(["train", "--manifest", str(mpath), "--config", str(cfg),
                     "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and err.count("\n") == 1
    assert "0-255" in err


def test_eval_missing_predictions_is_data_error(pipeline, tmp_path, capsys):
    code = cli.main(["eval", "--manifest", str(pipeline / "data/manifest.json"),
                     "--pred", str(tmp_path), "--out", str(tmp_path / "rep")])
    assert code == 3
    assert "missing prediction" in capsys.readouterr().err


# Runs one CLI command, then prints the thread count the loaded OpenBLAS
# reports, or "absent" when no OpenBLAS symbol for it can be found.
OPENBLAS_PROBE = """
import ctypes, sys
from vstain import cli
assert cli.main(sys.argv[1:]) == 0
with open("/proc/self/maps") as fh:
    libs = sorted({line.split()[-1] for line in fh
                   if "openblas" in line.rsplit("/", 1)[-1]})
for path in libs:
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, prefix + "_get_num_threads" + suffix, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                print(get())
                sys.exit(0)
print("absent")
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_threads_flag_sets_openblas_thread_count(threads, tmp_path):
    if not Path("/proc/self/maps").exists():
        pytest.skip("needs /proc/self/maps to find the loaded OpenBLAS")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    src = str(Path(vstain.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", OPENBLAS_PROBE, "--threads", str(threads), "synth",
         "--out", str(tmp_path / "data"), "--samples", "1", "--test-samples", "0",
         "--size", "16"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    reported = proc.stdout.split()[-1]
    if reported == "absent":
        pytest.skip("no openblas_get_num_threads symbol in the loaded BLAS")
    assert int(reported) == min(threads, len(os.sched_getaffinity(0)))
