"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
from oracles import oracle_gpt_layer, oracle_logits

from vstain import autograd as ag
from vstain import cli
from vstain import data_io as dio
from vstain import evaluation as ev
from vstain import gptt
from vstain import network as nw
from vstain import training as tr
from vstain.gpt_layer import GptVariant, gpt_forward, make_gpt_layer
from vstain.inference import coverage_map, predict_image, window_offsets
from vstain.kernels import conv2d


@contextmanager
def criterion(name: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    elapsed = time.monotonic() - start
    verdict = "PASS" if elapsed <= budget_s else f"PASS but over budget {budget_s}s"
    print(f"ACCEPTANCE {name}: {verdict} ({elapsed:.1f}s)")


def test_01_shape_ledger():
    with criterion("01 shape-ledger", 1.0):
        start = time.monotonic()
        cfg = nw.NetworkConfig()
        net = nw.build(cfg, np.random.default_rng(0))
        ledger = nw.stage_ledger(cfg)
        assert [s for _, s, _ in ledger] == [128, 64, 32, 16, 16, 32, 64, 128, 128]
        assert [c for _, _, c in ledger] == [32, 64, 128, 256, 384, 288, 165, 90,
                                             cfg.task_count * 256]
        # the built parameters realise the same ladder
        assert net.stem_w.data.shape == (1, 1, 3, 32)
        assert [db.out_channels for db, _ in net.encoder] == [64, 128, 256]
        assert net.bottom_db.out_channels == 384
        assert [db.out_channels for _, db in net.decoder] == [288, 165, 90]
        assert net.head_w.data.shape == (1, 1, 90, 2048)
        assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("variant", list(GptVariant))
def test_02_attention_oracle(variant):
    with criterion(f"02 attention-oracle/{variant.value}", 30.0):
        trials = 0
        while trials < 100:
            r = np.random.default_rng(1000 * trials + 7)
            h, w = r.integers(1, 9, size=2)
            cin = int(r.integers(1, 5))
            x = r.normal(size=(1, h, w, cin)).astype(np.float32)
            layer = make_gpt_layer(r, cin, variant)
            got = gpt_forward(ag.var(x), layer).data[0]
            expected = oracle_gpt_layer(x[0].astype(np.float64), layer)
            assert np.allclose(got, expected, atol=1e-5), (h, w, cin)
            trials += 1


def test_03_gradient_suite():
    from vstain.gradcheck import format_rows, run_suite
    with criterion("03 gradient-suite", 300.0):
        rows = run_suite(seed=0)
        failing = [r for r in rows if not r.passed]
        assert not failing, format_rows(failing)


def test_04_convexity_and_globality():
    with criterion("04 convexity-globality", 60.0):
        # convex hull of value features, per channel, 1e-6 slack
        for trial in range(25):
            r = np.random.default_rng(trial + 50)
            variant = list(GptVariant)[trial % 3]
            cin = int(r.integers(1, 5))
            h, w = r.integers(2, 8, size=2)
            layer = make_gpt_layer(r, cin, variant)
            x = r.normal(size=(1, h, w, cin)).astype(np.float32)
            values = conv2d(x, layer.value_w.data, layer.value_b.data, 1)
            out = gpt_forward(ag.var(x), layer).data
            for c in range(layer.out_channels):
                assert out[..., c].min() >= values[..., c].min() - 1e-6
                assert out[..., c].max() <= values[..., c].max() + 1e-6

        # globality: d output(j) / d input(i) != 0 for every output position j,
        # probed by float64 central differences at a few input positions i
        r = np.random.default_rng(8)
        layer = make_gpt_layer(r, 3, GptVariant.SAME, dtype=np.float64)
        x0 = r.normal(size=(1, 6, 6, 3))
        h = 1e-3
        for (pi, pj) in [(0, 0), (3, 4), (5, 5)]:
            xp, xm = x0.copy(), x0.copy()
            xp[0, pi, pj, 0] += h
            xm[0, pi, pj, 0] -= h
            diff = (gpt_forward(ag.var(xp), layer).data
                    - gpt_forward(ag.var(xm), layer).data) / (2 * h)
            assert np.all(np.abs(diff).sum(axis=-1) > 0)
        # and the gradient of any output position is nonzero at every input
        for (oi, oj) in [(0, 0), (2, 5)]:
            xv = ag.var(x0.copy(), requires_grad=True)
            probe = np.zeros((1, 6, 6, layer.out_channels))
            probe[0, oi, oj] = 1.0
            ag.backward(ag.dot_sum(gpt_forward(xv, layer), probe))
            assert np.all(np.abs(xv.grad).sum(axis=-1) > 0)


def test_05_dense_block_arithmetic():
    from vstain.dense_block import make_dense_block
    with criterion("05 dense-arithmetic", 10.0):
        r = np.random.default_rng(2)
        cases = [(32, 2, 16, 64), (64, 4, 16, 128), (128, 8, 16, 256),
                 (256, 8, 16, 384)]
        for _ in range(20):
            c0 = int(r.integers(1, 48))
            depth = int(r.integers(0, 6))
            growth = int(r.integers(1, 24))
            cases.append((c0, depth, growth, c0 + depth * growth))
        for c0, depth, growth, expected in cases:
            db = make_dense_block(np.random.default_rng(0), c0, depth, growth, 8)
            assert db.concat_channels == expected


OVERFIT_CONFIG = {
    "network": {
        "patch_size": 32,
        "task_count": 2,
        "growth_rate": 4,
        "stem_channels": 8,
        "encoder_depths": [1, 1, 1],
        "encoder_channels": [8, 12, 16],
        "bottom_depth": 1,
        "bottom_channels": 20,
        "decoder_depths": [1, 1, 1],
        "decoder_channels": [16, 12, 8],
    },
    "train": {
        "learning_rate": 0.001,
        "batch_size": 4,
        "max_steps": 200,
        "checkpoint_interval": 100,
        "seed": 42,
    },
}


def test_06_overfit_run(tmp_path):
    with criterion("06 overfit-run", 600.0):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(OVERFIT_CONFIG))
        assert cli.main(["synth", "--out", str(tmp_path / "data"), "--samples", "4",
                         "--test-samples", "0", "--size", "128", "--seed", "7",
                         "--tasks", "nuclei,viability"]) == 0

        logs = []
        finals = []
        for run in ("run_a", "run_b"):
            assert cli.main(["train", "--manifest", str(tmp_path / "data/manifest.json"),
                             "--config", str(cfg_path),
                             "--out", str(tmp_path / run)]) == 0
            rows = (tmp_path / run / "loss.csv").read_text().splitlines()[1:]
            logs.append([(r.split(",")[0], r.split(",")[1]) for r in rows])
            finals.append((tmp_path / run / "checkpoint_000200.gptc").read_bytes())

        losses = [float(l) for _, l in logs[0]]
        first10 = float(np.mean(losses[:10]))
        last10 = float(np.mean(losses[-10:]))
        print(f"  overfit: first-10 mean {first10:.4f}, last-10 mean {last10:.4f}")
        assert last10 <= 0.5 * first10
        # bit-for-bit reruns: identical loss streams and checkpoints
        assert logs[0] == logs[1]
        assert finals[0] == finals[1]


def test_07_tiling(tmp_path):
    with criterion("07 tiling", 60.0):
        r = np.random.default_rng(3)
        for _ in range(50):
            patch = int(r.integers(2, 50))
            step = int(r.integers(1, patch + 1))
            h = int(r.integers(patch, 120))
            w = int(r.integers(patch, 120))
            assert coverage_map(h, w, patch, step).min() >= 1

        cfg = nw.NetworkConfig(
            patch_size=128, task_count=2, growth_rate=2, stem_channels=4,
            encoder_depths=(1, 1, 1), encoder_channels=(4, 6, 8),
            bottom_depth=1, bottom_channels=10,
            decoder_depths=(1, 1, 1), decoder_channels=(8, 6, 4),
        )
        net = nw.build(cfg, np.random.default_rng(5))
        image = dio.generate_synthetic(
            dio.SyntheticSceneSpec(size=256, seed=2)).image
        offsets = window_offsets(256, 128, 64)
        assert len(offsets) * len(offsets) == 9
        cov = coverage_map(256, 256, 128, 64)
        assert cov.min() >= 1 and cov.max() == 4
        dist = predict_image(net, image, step=64)
        sums = dist.sum(axis=-1, dtype=np.float64)
        assert np.abs(sums - 1.0).max() <= 1e-6


def test_08_metric_oracles():
    with criterion("08 metric-oracles", 30.0):
        r = np.random.default_rng(4)
        pred = [r.random((40, 40)) * 255 for _ in range(2)]
        truth = [np.clip(p + r.normal(size=p.shape) * 25, 0, 255) for p in pred]
        total = sum(p.size for p in pred)
        mean, _, _ = ev.sampled_pearson(pred, truth, total, repetitions=1, seed=9)
        full = ev.pearson(np.concatenate([p.reshape(-1) for p in pred]),
                          np.concatenate([t.reshape(-1) for t in truth]))
        assert mean == full

        assert ev.value_bin(0) == 0
        assert ev.value_bin(25) == 0
        assert ev.value_bin(26) == 1
        assert ev.value_bin(255) == 9

        imgs = [r.random((30, 30)) * 255 for _ in range(3)]
        mean, std, values = ev.sampled_pearson(
            imgs, [i.copy() for i in imgs], 500, repetitions=30, seed=1)
        assert len(values) == 30
        assert mean == 1.0 and std == 0.0
        flat = np.concatenate([i.reshape(-1) for i in imgs])
        assert ev.confusion(flat, flat.copy()).overall_accuracy == 1.0


def test_09_persistence(tmp_path):
    with criterion("09 persistence", 10.0):
        cfg = nw.NetworkConfig.tiny()
        net = nw.build(cfg, np.random.default_rng(6))
        x = np.random.default_rng(7).normal(size=(1, 16, 16, 3)).astype(np.float32)
        nw.forward(net, ag.var(x), "train", np.random.default_rng(8))
        before = oracle_logits(net, nw.forward(net, ag.var(x), "eval").data)
        path = tmp_path / "net.gptc"
        nw.save_checkpoint(path, net, step=3)
        loaded, _ = nw.load_checkpoint(path)
        after = oracle_logits(loaded, nw.forward(loaded, ag.var(x), "eval").data)
        assert before.tobytes() == after.tobytes()

        img = np.random.default_rng(9).integers(0, 256, size=(33, 47)).astype(np.float32)
        dio.save_pgm(tmp_path / "i.pgm", img)
        assert np.array_equal(dio.load_pgm(tmp_path / "i.pgm"), img)
        arr = np.random.default_rng(10).normal(size=(3, 5, 7)).astype(np.float32)
        gptt.save_gptt(tmp_path / "t.gptt", arr)
        assert gptt.load_gptt(tmp_path / "t.gptt").tobytes() == arr.tobytes()


def test_10_masking():
    with criterion("10 masking", 30.0):
        r = np.random.default_rng(11)
        for _ in range(10):
            n, h, w = (int(v) for v in r.integers(1, 4, size=3))
            tasks = int(r.integers(1, 5))
            classes = int(r.integers(2, 9))
            logits = ag.var(r.normal(size=(n, h, w, tasks * classes)),
                            requires_grad=True)
            targets = r.integers(0, classes, size=(n, h, w, tasks))
            mask = r.random((n, tasks)) < 0.5
            # an identity head passes the logits through the fused loss unchanged
            eye = ag.var(np.eye(tasks * classes).reshape(1, 1, tasks * classes, -1))
            zero = ag.var(np.zeros(tasks * classes))
            ag.zero_grad([logits])
            ag.backward(tr.masked_cross_entropy(logits, eye, zero, targets, mask, classes))
            grads = logits.grad.reshape(n, h, w, tasks, classes)
            for ni in range(n):
                for t in range(tasks):
                    block = grads[ni, :, :, t, :]
                    if not mask[ni, t]:
                        assert np.array_equal(block, np.zeros_like(block))
