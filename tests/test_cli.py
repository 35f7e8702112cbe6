"""Command-line behaviour: pipeline wiring, determinism, exit codes."""

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import vstain
from vstain import cli
from vstain import data_io as dio
from vstain import network as nw

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
    # one batch's loss swings between about 15 and 250 from step to step,
    # so the mean of three steps at each end is compared: the last three
    # are lower for train seeds 0-11, and with the update taken out they
    # are not for this seed
    rows = (pipeline / "run" / "loss.csv").read_text().splitlines()[1:]
    losses = [float(r.split(",")[1]) for r in rows]
    assert np.mean(losses[-3:]) < np.mean(losses[:3])


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


@pytest.mark.parametrize("edit", ["version-2", "trailing-bytes"])
def test_inspect_other_version_or_trailing_bytes_is_data_error(pipeline, tmp_path, capsys,
                                                               edit):
    raw = bytearray((pipeline / "run" / "checkpoint_000015.gptc").read_bytes())
    if edit == "version-2":
        raw[4:8] = (2).to_bytes(4, "little")
    else:
        raw += bytes(3)
    bad = tmp_path / "bad.gptc"
    bad.write_bytes(bytes(raw))
    assert cli.main(["inspect", "--checkpoint", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert ("unsupported checkpoint version 2" if edit == "version-2"
            else f"3 trailing bytes at {len(raw) - 3}") in err


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


@pytest.mark.parametrize("raw", [b"\xff{}", b"[" * 100_000, None],
                         ids=["not-utf8", "nested", "missing"])
def test_unreadable_config_is_data_error(tmp_path, capsys, raw):
    cfg = tmp_path / "bad.json"
    if raw is not None:
        cfg.write_bytes(raw)
    code = cli.main(["train", "--manifest", str(tmp_path / "none.json"),
                     "--config", str(cfg), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and err.count("\n") == 1


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
    [{"network": {}}],
    {"network": {}, "optimizer": {}},
], ids=["patch-str", "tasks-bool", "depth-entry-str", "channels-not-list",
        "dropout-str", "qk-float", "network-not-object", "batch-str",
        "steps-bool", "seed-float", "lr-str", "beta1-null", "config-array",
        "unknown-section"])
def test_config_value_of_wrong_type_is_usage_error(one_sample_manifest, tmp_path,
                                                   capsys, doc):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    code = cli.main(["train", "--manifest", str(one_sample_manifest),
                     "--config", str(cfg), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("train", [
    {"beta1": 1.0}, {"beta1": -0.5}, {"beta2": 1.5}, {"learning_rate": float("nan")},
    {"learning_rate": float("inf")}, {"eps": 0.0}, {"eps": -1.0}, {"eps": float("nan")},
    {"seed": -1},
], ids=["beta1-one", "beta1-negative", "beta2-above-one", "lr-nan", "lr-inf", "eps-zero",
        "eps-negative", "eps-nan", "seed-negative"])
def test_adam_setting_out_of_range_is_usage_error_and_writes_nothing(one_sample_manifest,
                                                                     tmp_path, capsys, train):
    # json writes and reads NaN and Infinity as bare literals
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"network": TINY_CONFIG["network"], "train": train}))
    code = cli.main(["train", "--manifest", str(one_sample_manifest), "--config", str(cfg),
                     "--steps", "1", "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error:") and err.count("\n") == 1
    assert next(iter(train)) in err
    assert not (tmp_path / "run").exists()


def test_train_seed_flag_overrides_the_config_seed(one_sample_manifest, tmp_path, capsys):
    # the config's seed 5 is valid; the flag's -1 replaces it and is checked
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    code = cli.main(["train", "--manifest", str(one_sample_manifest), "--config", str(cfg),
                     "--seed", "-1", "--steps", "1", "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: train config: seed -1 must be >= 0\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("field", ["growth_rate", "stem_channels", "qk_channels"])
def test_config_value_too_large_for_arrays_is_usage_error(one_sample_manifest, tmp_path,
                                                          capsys, field):
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"network": {field: 2**64}}))
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


@pytest.mark.parametrize("keys", [("1", "01"), ("1_0",)], ids=["1-and-01", "1_0"])
def test_manifest_target_key_not_written_as_saved_is_data_error(tmp_path, capsys, keys):
    # int() reads "01" as task 1, so one of two files for task 1 was
    # dropped, and "1_0" as task 10
    mpath = tmp_path / "manifest.json"
    targets = {key: f"t{i}.pgm" for i, key in enumerate(keys)}
    mpath.write_text(json.dumps({"samples": [{"input": "a.pgm", "targets": targets}]}))
    code = cli.main(["train", "--manifest", str(mpath), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"sample record 0 has non-canonical task key {keys[-1]!r}" in err


@pytest.mark.parametrize("flags", [
    ["--cells", "8,3"],
    ["--cells=-1,3"],
    ["--noise", "-0.5"],
    ["--size", "11"],
    ["--seed", "-1"],
    ["--noise", "nan"],
    ["--noise", "inf"],
    ["--tasks", "foo"],
    ["--tasks", ","],
    ["--cells", "3"],
    ["--cells", "a,b"],
    ["--samples", "0"],
    ["--test-samples", "-1"],
], ids=["cells-min-above-max", "cells-negative", "noise-negative", "size-below-12",
        "seed-negative", "noise-nan", "noise-inf", "task-unknown", "tasks-empty",
        "cells-one-value", "cells-not-int", "samples-zero", "test-samples-negative"])
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


@pytest.mark.parametrize("sample_size", ["1", "0", "-5"])
def test_eval_sample_size_below_two_is_usage_error(pipeline, tmp_path, capsys, sample_size):
    code = cli.main(["eval", "--manifest", str(pipeline / "data/manifest.json"),
                     "--pred", str(pipeline / "pred"), "--out", str(tmp_path / "size"),
                     "--sample-size", sample_size])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "size").exists()


def test_eval_seed_below_zero_is_usage_error(pipeline, tmp_path, capsys):
    code = cli.main(["eval", "--manifest", str(pipeline / "data/manifest.json"),
                     "--pred", str(pipeline / "pred"), "--out", str(tmp_path / "seed"),
                     "--seed", "-1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "seed").exists()


def test_gradcheck_seed_below_zero_is_usage_error(capsys):
    code = cli.main(["gradcheck", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert captured.out == ""


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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "minus-inf"])
def test_predict_non_finite_head_is_numeric_error_and_writes_nothing(pipeline, tmp_path,
                                                                     capsys, value):
    from vstain import network as nw
    net, extras = nw.load_checkpoint(pipeline / "run" / "checkpoint_000015.gptc")
    net.head_b.data[3] = value
    ckpt = tmp_path / "bad_head.gptc"
    nw.save_checkpoint(ckpt, net, step=extras["step"])
    code = cli.main(["predict", "--checkpoint", str(ckpt),
                     "--image", str(pipeline / "data/images/s003_input.pgm"),
                     "--out", str(tmp_path / "p"), "--step", "16"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error:") and err.count("\n") == 1
    assert "non-finite logits" in err
    assert not (tmp_path / "p").exists()


def test_interrupted_command_exits_130_with_one_line(one_sample_manifest, tmp_path,
                                                     capsys, monkeypatch):
    # Ctrl-C raises KeyboardInterrupt wherever the main thread is, often
    # inside a kernel deep in training
    from vstain import training

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(training, "train", interrupted)
    code = cli.main(["train", "--manifest", str(one_sample_manifest),
                     "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 130
    assert err == "error: interrupted\n"
    assert "Traceback" not in err


def test_sigterm_exits_130_with_one_line():
    # a service manager's stop ends a command as Ctrl-C does; gradcheck
    # runs for several seconds, so the signal lands inside its work
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(vstain.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "vstain", "gradcheck"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    time.sleep(1)
    proc.send_signal(signal.SIGTERM)
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 130, err[-2000:]
    assert err == "error: interrupted\n"


def test_train_to_non_finite_gradients_is_numeric_error_without_checkpoint(tmp_path):
    # a valid config whose learning rate blows the weights up: step 2's
    # gradients overflow, and the run once exited 0 with a checkpoint of
    # inf and NaN weights
    cfg = {"network": {"patch_size": 32, "task_count": 2, "growth_rate": 1,
                       "stem_channels": 1, "encoder_depths": [1], "encoder_channels": [8],
                       "bottom_depth": 0, "bottom_channels": 20, "decoder_depths": [1],
                       "decoder_channels": [8], "qk_channels": 1},
           "train": {"learning_rate": 1000, "batch_size": 2, "max_steps": 2,
                     "checkpoint_interval": 100, "seed": 0}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["synth", "--out", str(tmp_path / "data"), "--samples", "3",
                     "--test-samples", "1", "--size", "32", "--seed", "7",
                     "--tasks", "nuclei,viability"]) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(vstain.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "vstain", "train",
                           "--manifest", str(tmp_path / "data/manifest.json"),
                           "--config", str(cfg_path), "--out", str(tmp_path / "run")],
                          env=env, capture_output=True, text=True, timeout=300)
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert proc.returncode == 4, proc.stderr[-2000:]
    assert len(errors) == 1 and "non-finite gradient at step 2" in errors[0]
    assert "Traceback" not in proc.stderr
    # the overflowing products before the check print no numpy warnings,
    # on the calling thread or the pool's
    assert "RuntimeWarning" not in proc.stderr
    assert (tmp_path / "run" / "diagnostic_step000002" / "state.gptc").exists()
    assert not (tmp_path / "run" / "checkpoint_000002.gptc").exists()


@st.composite
def small_configs(draw):
    """A config that passes validation, for 32^2 data: one to three
    stages, depths 0-2, channels from 1, learning rates 1e-4 to 1e3."""
    stages = draw(st.integers(1, 3))
    patch = draw(st.sampled_from([p for p in (8, 16, 32) if p % (1 << stages) == 0]))
    depths = st.lists(st.integers(0, 2), min_size=stages, max_size=stages)
    channels = st.lists(st.integers(1, 12), min_size=stages, max_size=stages)
    network = {"patch_size": patch, "task_count": draw(st.integers(1, 3)),
               "growth_rate": draw(st.integers(1, 4)),
               "stem_channels": draw(st.integers(1, 8)),
               "encoder_depths": draw(depths), "encoder_channels": draw(channels),
               "bottom_depth": draw(st.integers(0, 2)),
               "bottom_channels": draw(st.integers(1, 20)),
               "decoder_depths": draw(depths), "decoder_channels": draw(channels),
               "qk_channels": draw(st.none() | st.integers(1, 4)),
               "dropout_rate": draw(st.sampled_from([0.0, 0.5]))}
    train = {"learning_rate": 10.0 ** draw(st.integers(-4, 3)),
             "batch_size": draw(st.integers(1, 3)), "max_steps": 2,
             "checkpoint_interval": draw(st.sampled_from([1, 100])),
             "seed": draw(st.integers(0, 3))}
    return {"network": network, "train": train}


@pytest.fixture(scope="module")
def synth_32(tmp_path_factory):
    """The manifest of a 32^2 synth dataset: 3 training images, 1 test."""
    out = tmp_path_factory.mktemp("synth_32")
    assert cli.main(["synth", "--out", str(out), "--samples", "3", "--test-samples", "1",
                     "--size", "32", "--seed", "7", "--tasks", "nuclei,viability"]) == 0
    return out / "manifest.json"


# derandomized, so that every run draws the same examples; a failure
# found by a draw stays as an @example
@settings(max_examples=40, deadline=None, derandomize=True)
@given(config=small_configs())
@example(config={  # the learning-rate-1000 run that once exited 0 with NaN weights
    "network": {"patch_size": 32, "task_count": 2, "growth_rate": 1, "stem_channels": 1,
                "encoder_depths": [1], "encoder_channels": [8], "bottom_depth": 0,
                "bottom_channels": 20, "decoder_depths": [1], "decoder_channels": [8],
                "qk_channels": 1},
    "train": {"learning_rate": 1000, "batch_size": 2, "max_steps": 2,
              "checkpoint_interval": 100, "seed": 0}})
@example(config={  # the run that once exited 0 with inf in a batch-norm running variance
    "network": {"patch_size": 8, "task_count": 2, "growth_rate": 1, "stem_channels": 2,
                "encoder_depths": [0, 2], "encoder_channels": [1, 4], "bottom_depth": 1,
                "bottom_channels": 1, "decoder_depths": [0, 2], "decoder_channels": [1, 1],
                "dropout_rate": 0.5},
    "train": {"learning_rate": 100.0, "batch_size": 1, "max_steps": 2,
              "checkpoint_interval": 1, "seed": 2}})
def test_small_valid_configs_train_and_predict_or_exit_with_a_documented_code(synth_32,
                                                                             config):
    # an exception out of cli.main would be a traceback from `vstain`
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        tmp = Path(tmp)
        (tmp / "config.json").write_text(json.dumps(config))
        code = cli.main(["train", "--manifest", str(synth_32),
                         "--config", str(tmp / "config.json"), "--out", str(tmp / "run")])
        assert code in (0, 2, 3, 4)
        event(f"train exit {code}")
        if code != 0:
            return
        checkpoints = sorted((tmp / "run").glob("checkpoint_*.gptc"))
        assert checkpoints[-1].name == "checkpoint_000002.gptc"
        for path in checkpoints:
            net, extras = nw.load_checkpoint(path)
            for name, array in nw.checkpoint_tensors(net, extras["optimizer"]):
                assert np.isfinite(array).all(), f"{path.name}: {name}"
        manifest = dio.load_manifest(synth_32)
        image = manifest.root / manifest.split("test")[0].input_path
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["predict", "--checkpoint", str(checkpoints[-1]),
                             "--image", str(image), "--out", str(tmp / "pred"),
                             "--step", str(config["network"]["patch_size"] // 2)])
        # weights that two steps of a large learning rate leave finite can
        # still overflow on the windows of another image: exit 4, as documented
        event(f"predict exit {code}")
        assert code == 0 or (code == 4 and "non-finite" in err.getvalue())


def test_train_to_an_overflowing_adam_moment_is_numeric_error(synth_32, tmp_path, capsys):
    # step 2's gradients are finite but their squares overflow Adam's
    # float32 v, while the weights stay finite: the run once exited 0
    # with inf in its final checkpoint
    cfg = {"network": {"patch_size": 8, "task_count": 2, "growth_rate": 1,
                       "stem_channels": 1, "encoder_depths": [0], "encoder_channels": [1],
                       "bottom_depth": 0, "bottom_channels": 6, "decoder_depths": [0],
                       "decoder_channels": [2]},
           "train": {"learning_rate": 10.0, "batch_size": 1, "max_steps": 2,
                     "checkpoint_interval": 1, "seed": 1}}
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    code = cli.main(["train", "--manifest", str(synth_32),
                     "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "run")])
    assert code == 4
    assert "non-finite adam.v/stem.w after the update at step 2" in capsys.readouterr().err
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
        "checkpoint_000001.gptc", "diagnostic_step000002", "loss.csv"]
    rows = (tmp_path / "run" / "loss.csv").read_text().splitlines()
    assert rows[0] == "step,loss,seconds" and [r.split(",")[0] for r in rows[1:]] == ["1"]


def test_train_to_an_overflowing_batch_norm_variance_is_numeric_error(synth_32, tmp_path,
                                                                     capsys):
    # step 2's weights and moments stay finite, but its batch variance
    # overflows dec2's float32 running variance
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "network": {"patch_size": 8, "task_count": 2, "growth_rate": 1, "stem_channels": 2,
                    "encoder_depths": [0, 2], "encoder_channels": [1, 4], "bottom_depth": 1,
                    "bottom_channels": 1, "decoder_depths": [0, 2], "decoder_channels": [1, 1],
                    "dropout_rate": 0.5},
        "train": {"learning_rate": 100.0, "batch_size": 1, "max_steps": 2,
                  "checkpoint_interval": 1, "seed": 2}}))
    code = cli.main(["train", "--manifest", str(synth_32), "--config", str(cfg),
                     "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 4
    assert "non-finite state/dec2.db.l1.bn.var after the update at step 2" in err
    assert not (tmp_path / "run" / "checkpoint_000002.gptc").exists()


def test_predict_to_overflowing_scores_is_numeric_error_without_warnings(synth_32,
                                                                          tmp_path):
    # finite weights whose attention scores overflow on the test image:
    # predict once printed numpy's overflow warning before its one error
    # line. Training refuses to save such a model when its batch-norm
    # statistics overflow too, so the weights are scaled by hand.
    config = nw.NetworkConfig(patch_size=16, task_count=2, growth_rate=2, stem_channels=4,
                              encoder_depths=(1, 1, 2), encoder_channels=(2, 9, 11),
                              bottom_depth=1, bottom_channels=18, decoder_depths=(1, 0, 2),
                              decoder_channels=(2, 9, 11), qk_channels=3, dropout_rate=0.0)
    net = nw.build(config, np.random.default_rng(0))
    params = net.named_parameters()
    for name in ("enc1.gdt.gen.w", "enc1.gdt.key.w"):
        params[name].data *= np.float32(1e20)
    nw.save_checkpoint(tmp_path / "checkpoint.gptc", net, step=0)
    manifest = dio.load_manifest(synth_32)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(vstain.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "vstain", "predict",
                           "--checkpoint", str(tmp_path / "checkpoint.gptc"),
                           "--image", str(manifest.root / manifest.split("test")[0].input_path),
                           "--out", str(tmp_path / "pred"), "--step", "8"],
                          env=env, capture_output=True, text=True, timeout=300)
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert proc.returncode == 4, proc.stderr[-2000:]
    assert errors == ["error: col_softmax: non-finite input"]
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


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


def test_train_input_of_another_channel_count_is_data_error_and_writes_nothing(tmp_path,
                                                                              capsys):
    from vstain import gptt
    mpath = dio.generate_dataset(tmp_path / "d", 1, size=48, seed=0, n_test=0,
                                 tasks=("nuclei", "viability"))
    doc = json.loads(mpath.read_text())
    doc["samples"][0]["input"] = "two.gptt"
    mpath.write_text(json.dumps(doc))
    gptt.save_gptt(mpath.parent / "two.gptt", np.full((48, 48, 2), 128.0, np.float32))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    code = cli.main(["train", "--manifest", str(mpath), "--config", str(cfg),
                     "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "error: two.gptt: 2 channels, config expects 1\n"
    assert not (tmp_path / "run").exists()


def test_train_split_without_targets_is_data_error_and_writes_nothing(tmp_path, capsys):
    mpath = dio.generate_dataset(tmp_path / "d", 2, size=48, seed=0, n_test=1,
                                 tasks=("nuclei", "viability"))
    doc = json.loads(mpath.read_text())
    for rec in doc["samples"]:
        if rec["split"] == "train":
            rec["targets"] = {}
    mpath.write_text(json.dumps(doc))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    code = cli.main(["train", "--manifest", str(mpath), "--config", str(cfg),
                     "--steps", "1", "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and err.count("\n") == 1
    assert "no training sample has a target" in err
    assert not (tmp_path / "run").exists()


def test_train_image_smaller_than_patch_is_data_error_and_writes_nothing(tmp_path, capsys):
    # the small image was once found only when a draw first picked it,
    # after six checkpoints of this run were written
    mpath = dio.generate_dataset(tmp_path / "d", 2, size=48, seed=0, n_test=0,
                                 tasks=("nuclei", "viability"))
    dio.save_pgm(mpath.parent / "small.pgm", np.zeros((16, 16), np.uint8))
    doc = json.loads(mpath.read_text())
    doc["samples"].append({"input": "small.pgm", "targets": {}, "split": "train"})
    mpath.write_text(json.dumps(doc))
    config = json.loads(json.dumps(TINY_CONFIG))
    config["train"].update(batch_size=1, checkpoint_interval=1)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code = cli.main(["train", "--manifest", str(mpath), "--config", str(cfg),
                     "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "error: small.pgm: 16x16 smaller than patch size 32\n"
    assert not (tmp_path / "run").exists()


def test_train_target_class_past_value_classes_is_data_error_and_writes_nothing(
        synth_32, tmp_path, capsys):
    # the loss once found these targets at the first step, after --out was made
    config = json.loads(json.dumps(TINY_CONFIG))
    config["network"]["value_classes"] = 4
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code = cli.main(["train", "--manifest", str(synth_32), "--config", str(cfg),
                     "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and err.count("\n") == 1
    assert "target classes outside [0, 4)" in err
    assert not (tmp_path / "run").exists()


def test_eval_missing_predictions_is_data_error(pipeline, tmp_path, capsys):
    code = cli.main(["eval", "--manifest", str(pipeline / "data/manifest.json"),
                     "--pred", str(tmp_path), "--out", str(tmp_path / "rep")])
    assert code == 3
    assert "missing prediction" in capsys.readouterr().err


def test_eval_manifest_without_test_split_is_data_error(one_sample_manifest, tmp_path,
                                                        capsys):
    code = cli.main(["eval", "--manifest", str(one_sample_manifest),
                     "--pred", str(tmp_path), "--out", str(tmp_path / "rep")])
    assert code == 3
    assert capsys.readouterr().err == "error: evaluate: manifest has no test samples\n"
    assert not (tmp_path / "rep").exists()


def test_eval_prediction_of_other_extents_is_data_error(pipeline, tmp_path, capsys):
    pred = tmp_path / "pred"
    pred.mkdir()
    for p in (pipeline / "pred").glob("*.pgm"):
        (pred / p.name).write_bytes(p.read_bytes())
    small = sorted(pred.glob("*_task0_expectation.pgm"))[0]
    dio.save_pgm(small, np.zeros((40, 48)))
    code = cli.main(["eval", "--manifest", str(pipeline / "data/manifest.json"),
                     "--pred", str(pred), "--out", str(tmp_path / "rep")])
    err = capsys.readouterr().err
    assert code == 3
    assert err == f"error: evaluate: {small} is (40, 48), truth is (48, 48)\n"


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
    """No flag or environment variable sets vstain's BLAS thread count: it is always 1.

    ``threads`` is the count asked for through OPENBLAS/OMP/MKL_NUM_THREADS.
    """
    if not Path("/proc/self/maps").exists():
        pytest.skip("needs /proc/self/maps to find the loaded OpenBLAS")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
    src = str(Path(vstain.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", OPENBLAS_PROBE, "synth",
         "--out", str(tmp_path / "data"), "--samples", "1", "--test-samples", "0",
         "--size", "16"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    reported = proc.stdout.split()[-1]
    if reported == "absent":
        pytest.skip("no openblas_get_num_threads symbol in the loaded BLAS")
    assert int(reported) == 1


def test_threads_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--threads", "2", "synth", "--out", str(tmp_path / "data")])
    assert exc.value.code == 2
    assert not (tmp_path / "data").exists()


def _resume_run(root):
    """A tiny-config run of 4 steps, checkpointed at step 4."""
    cfg = json.loads(json.dumps(TINY_CONFIG))
    cfg["train"].update(max_steps=4, checkpoint_interval=4)
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    manifest = dio.generate_dataset(root / "data", 2, size=32, seed=1, n_test=0,
                                    tasks=("nuclei", "viability"))
    assert cli.main(["train", "--manifest", str(manifest), "--config", str(cfg_path),
                     "--out", str(root / "run")]) == 0
    return ["train", "--manifest", str(manifest), "--config", str(cfg_path),
            "--resume", str(root / "run" / "checkpoint_000004.gptc")]


def test_resume_past_max_steps_is_usage_error_and_writes_nothing(tmp_path, capsys):
    args = _resume_run(tmp_path)
    capsys.readouterr()
    code = cli.main(args + ["--steps", "2", "--out", str(tmp_path / "again")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "step 4" in err
    assert not (tmp_path / "again").exists()


def test_resume_with_another_config_is_data_error_and_writes_nothing(tmp_path, capsys):
    args = _resume_run(tmp_path)
    cfg = json.loads(json.dumps(TINY_CONFIG))
    cfg["network"]["dropout_rate"] = 0.25
    other = tmp_path / "other.json"
    other.write_text(json.dumps(cfg))
    args[args.index("--config") + 1] = str(other)
    capsys.readouterr()
    code = cli.main(args + ["--out", str(tmp_path / "again")])
    assert code == 3
    assert (capsys.readouterr().err
            == "error: resume: checkpoint config differs from requested config\n")
    assert not (tmp_path / "again").exists()


def test_resume_at_max_steps_runs_no_step(tmp_path, capsys):
    args = _resume_run(tmp_path)
    assert cli.main(args + ["--steps", "4", "--out", str(tmp_path / "again")]) == 0
    assert "no steps to run" in capsys.readouterr().out
    assert ((tmp_path / "again" / "checkpoint_000004.gptc").read_bytes()
            == (tmp_path / "run" / "checkpoint_000004.gptc").read_bytes())
    assert (tmp_path / "again" / "loss.csv").read_text().splitlines() == ["step,loss,seconds"]


# Runs one CLI command in a child whose address space is capped at 1 GiB,
# and prints its exit code.
CAPPED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from vstain import cli
print(cli.main(sys.argv[1:]))
"""


def _capped_cli(args):
    env = dict(os.environ)
    src = str(Path(vstain.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CAPPED_CLI, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    return proc.stdout.split()[-1] if proc.stdout else proc.returncode, proc.stderr


def test_config_too_large_for_memory_is_usage_error(one_sample_manifest, tmp_path):
    from vstain.network import NetworkConfig, checkpoint_elements

    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"network": {"growth_rate": 1000000}}))
    code, err = _capped_cli(["train", "--manifest", str(one_sample_manifest),
                             "--config", str(cfg), "--out", str(tmp_path / "run")])
    need = 4 * checkpoint_elements(NetworkConfig(growth_rate=1000000))
    assert code == "2", err[-4000:]
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{need} bytes" in err


@pytest.mark.parametrize("size", ["1000000", "8192"])
def test_synth_scene_too_large_for_memory_is_usage_error(tmp_path, size):
    # 8192: one float64 plane (512 MiB) may fit under the cap, the scene does not
    code, err = _capped_cli(["synth", "--out", str(tmp_path / "d"), "--samples", "1",
                             "--test-samples", "0", "--size", size])
    assert code == "2", err[-4000:]
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{4 * 8 * int(size) ** 2} bytes" in err
    assert not (tmp_path / "d").exists()


def test_checkpoint_config_too_large_for_memory_is_data_error(tmp_path):
    from vstain.network import NetworkConfig, checkpoint_elements

    # a sparse file as large as the header's config needs, so the loader's
    # size check passes and build meets the 1 GiB cap
    config = NetworkConfig(qk_channels=30000)
    header = json.dumps({"format": "gptc", "version": 1, "config": config.to_dict(),
                         "step": 0, "optimizer": None, "rng_state": None,
                         "tensors": []}).encode()
    path = tmp_path / "big.gptc"
    with path.open("wb") as f:
        f.write(b"GPTC" + (1).to_bytes(4, "little") + len(header).to_bytes(8, "little"))
        f.write(header)
        f.truncate(16 + len(header) + 4 * checkpoint_elements(config))
    code, err = _capped_cli(["inspect", "--checkpoint", str(path)])
    assert code == "3", err[-4000:]
    assert err.startswith("error:") and err.count("\n") == 1
    assert "bytes" in err
