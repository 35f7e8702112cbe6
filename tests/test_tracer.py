"""The benchmark's tracer against the package whose attributes it swaps.

`benchmarks/tracer.py` patches vstain's functions by name, so a package
change that renames or drops one of them breaks a traced benchmark run
(`benchmarks/run.py --trace 1`). This test installs the tracer around a
short training run and a prediction, as the benchmark does, and checks
that it puts every attribute back, changes no result and attributes
each dense block's backward to the block's stage.
"""

import importlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from vstain import data_io, inference, network, training

ROOT = Path(__file__).resolve().parents[1]
DENSE_STAGES = ("enc1.db", "enc2.db", "enc3.db", "bottom.db", "dec1.db", "dec2.db",
                "dec3.db")


def train_and_predict(manifest, out: Path):
    """Losses and final checkpoint bytes of two steps of the configs/tiny.json
    run, and the prediction of the test image by the model it saved."""
    doc = json.loads((ROOT / "configs" / "tiny.json").read_text())
    train_config = replace(training.TrainConfig.from_dict(doc["train"]), max_steps=2,
                           checkpoint_interval=2)
    result = training.train(manifest, network.NetworkConfig.from_dict(doc["network"]),
                            train_config, out)
    net, _ = network.load_checkpoint(result.final_checkpoint)
    image = data_io.load_image(manifest.root / manifest.split("test")[0].input_path)
    return ([loss for _, loss, _ in result.loss_log], result.final_checkpoint.read_bytes(),
            inference.predict_image(net, image, step=16))


def test_tracer_patches_the_package_and_changes_no_result(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    tracer = importlib.import_module("tracer")
    manifest = data_io.load_manifest(data_io.generate_dataset(
        tmp_path / "data", n_train=2, size=64, seed=3, tasks=("nuclei", "viability")))
    losses, checkpoint, prediction = train_and_predict(manifest, tmp_path / "plain")

    traced = tracer.Tracer()
    traced.install()
    patched = list(traced._patches)
    try:
        assert patched and all(getattr(module, attr) is not original
                               for module, attr, original in patched)
        result = train_and_predict(manifest, tmp_path / "traced")
    finally:
        traced.remove()
    assert all(getattr(module, attr) is original for module, attr, original in patched)

    assert result[0] == losses and result[1] == checkpoint
    assert result[2].dtype == prediction.dtype
    assert result[2].tobytes() == prediction.tobytes()
    assert np.isfinite(result[0]).all()
    assert all(traced.totals[f"stage.{stage}.bwd_s"] > 0 for stage in DENSE_STAGES)
