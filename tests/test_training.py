"""Masked loss semantics, Adam arithmetic, loop determinism and resume."""

import math

import numpy as np
import pytest
from oracles import oracle_masked_cross_entropy

from vstain import autograd as ag
from vstain import data_io as dio
from vstain import training as tr
from vstain.errors import ConfigError, DataError
from vstain.network import NetworkConfig

rng = np.random.default_rng(77)


# ---------------------------------------------------------------------------
# masked cross entropy
# ---------------------------------------------------------------------------

def test_uniform_logits_loss_is_log_classes():
    logits = ag.var(np.zeros((1, 2, 2, 2 * 256)), requires_grad=True)
    targets = rng.integers(0, 256, size=(1, 2, 2, 2))
    mask = np.ones((1, 2), bool)
    loss = tr.masked_cross_entropy(logits, targets, mask, 256)
    assert math.isclose(float(loss.data), math.log(256.0), rel_tol=1e-9)


def test_all_false_mask_gives_zero_loss_and_gradients():
    logits = ag.var(rng.normal(size=(1, 2, 2, 8)), requires_grad=True)
    targets = rng.integers(0, 4, size=(1, 2, 2, 2))
    loss = tr.masked_cross_entropy(logits, targets, np.zeros((1, 2), bool), 4)
    assert float(loss.data) == 0.0 and math.copysign(1.0, loss.data) == 1.0
    ag.zero_grad([logits])
    ag.backward(loss)
    assert np.array_equal(logits.grad, np.zeros_like(logits.data))


def test_half_probability_target_gives_log_two():
    # one active pixel/task; target logit ln(0.5), the rest ln(0.5/255)
    classes = 256
    z = np.full((1, 1, 1, classes), math.log(0.5 / 255.0))
    z[0, 0, 0, 42] = math.log(0.5)
    loss = tr.masked_cross_entropy(
        ag.var(z), np.full((1, 1, 1, 1), 42), np.ones((1, 1), bool), classes)
    assert math.isclose(float(loss.data), math.log(2.0), rel_tol=1e-12)


def test_shift_invariance_per_cell():
    logits = rng.normal(size=(2, 3, 3, 2 * 8))
    targets = rng.integers(0, 8, size=(2, 3, 3, 2))
    mask = np.array([[True, False], [True, True]])
    a = tr.masked_cross_entropy(ag.var(logits), targets, mask, 8)
    shift = rng.normal(size=(2, 3, 3, 2)).repeat(8, axis=-1)
    b = tr.masked_cross_entropy(ag.var(logits + shift), targets, mask, 8)
    assert math.isclose(float(a.data), float(b.data), rel_tol=1e-9)


def test_masked_task_gradients_exactly_zero():
    logits = ag.var(rng.normal(size=(2, 4, 4, 3 * 16)), requires_grad=True)
    targets = rng.integers(0, 16, size=(2, 4, 4, 3))
    mask = np.array([[True, False, True], [False, False, True]])
    ag.zero_grad([logits])
    ag.backward(tr.masked_cross_entropy(logits, targets, mask, 16))
    grads = logits.grad.reshape(2, 4, 4, 3, 16)
    for n in range(2):
        for t in range(3):
            block = grads[n, :, :, t, :]
            if mask[n, t]:
                assert np.abs(block).max() > 0
            else:
                assert np.array_equal(block, np.zeros_like(block))


def test_loss_matches_dense_oracle_per_sample_masks():
    # batch 4, one mask per sample: the labelled-slice loss reproduces the
    # dense every-task formula, its gradient bit for bit
    r = np.random.default_rng(23)
    logits = ag.var(r.uniform(-400.0, 400.0, size=(4, 6, 6, 3 * 256)).astype(np.float32),
                    requires_grad=True)
    targets = r.integers(0, 256, size=(4, 6, 6, 3))
    mask = np.array([[True, False, True], [False, False, False],
                     [True, True, True], [False, True, False]])
    want_loss, want_grad = oracle_masked_cross_entropy(logits.data, targets, mask, 256)
    loss = tr.masked_cross_entropy(logits, targets, mask, 256)
    ag.backward(loss)
    assert math.isclose(float(loss.data), float(want_loss), rel_tol=1e-6)
    assert logits.grad.dtype == want_grad.dtype
    assert np.array_equal(logits.grad, want_grad)


def test_loss_tape_keeps_only_labelled_slices():
    logits = ag.var(rng.normal(size=(2, 4, 4, 3 * 16)).astype(np.float32),
                    requires_grad=True)
    targets = rng.integers(0, 16, size=(2, 4, 4, 3))
    mask = np.array([[True, True, False], [True, True, True]])
    loss = tr.masked_cross_entropy(logits, targets, mask, 16)
    held = [cell.cell_contents for cell in loss._backward.__closure__
            if isinstance(cell.cell_contents, np.ndarray)]
    assert held and max(a.size for a in held) < logits.data.size


def test_float32_loss_gradient_has_no_subnormals():
    # logits spanning about +-400: unflushed, exp(z - zmax) / sez and the
    # mean's 1/count put part of the gradient below finfo(float32).tiny
    r = np.random.default_rng(19)
    logits = ag.var(r.uniform(-400.0, 400.0, size=(2, 8, 8, 2 * 256)).astype(np.float32),
                    requires_grad=True)
    targets = r.integers(0, 256, size=(2, 8, 8, 2))
    loss = tr.masked_cross_entropy(logits, targets, np.ones((2, 2), bool), 256)
    ag.backward(loss)
    g = logits.grad
    assert g.dtype == np.float32 and np.count_nonzero(g) > 0
    assert np.count_nonzero((g != 0) & (np.abs(g) < np.finfo(np.float32).tiny)) == 0


def test_target_out_of_range_rejected():
    logits = ag.var(np.zeros((1, 1, 1, 4)))
    with pytest.raises(DataError):
        tr.masked_cross_entropy(logits, np.full((1, 1, 1, 1), 4),
                                np.ones((1, 1), bool), 4)


def test_loss_average_invariant_to_label_coverage():
    # same active cells, extra masked-off task changes nothing
    logits = rng.normal(size=(1, 2, 2, 2 * 4))
    targets = rng.integers(0, 4, size=(1, 2, 2, 2))
    both = tr.masked_cross_entropy(
        ag.var(logits), targets, np.array([[True, False]]), 4)
    only = tr.masked_cross_entropy(
        ag.var(logits[..., :4]), targets[..., :1], np.array([[True]]), 4)
    assert math.isclose(float(both.data), float(only.data), rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def make_param(value):
    p = ag.var(np.asarray(value, dtype=np.float64), requires_grad=True)
    return {"p": p}


def test_zero_gradient_fresh_state_no_change():
    params = make_param([1.0, -2.0])
    state = tr.AdamState.create(params)
    ag.zero_grad(params.values())
    tr.adam_step(params, state, tr.TrainConfig())
    assert np.array_equal(params["p"].data, [1.0, -2.0])
    assert np.array_equal(state.m["p"], [0.0, 0.0])


def test_preloaded_moments_decay():
    params = make_param([0.0])
    state = tr.AdamState.create(params)
    state.m["p"][:] = 1.0
    state.v["p"][:] = 1.0
    ag.zero_grad(params.values())
    cfg = tr.TrainConfig()
    tr.adam_step(params, state, cfg)
    assert np.allclose(state.m["p"], cfg.beta1)
    assert np.allclose(state.v["p"], cfg.beta2)


def test_first_step_magnitude_close_to_learning_rate():
    params = make_param([5.0])
    state = tr.AdamState.create(params)
    params["p"].grad = np.array([1.0])
    cfg = tr.TrainConfig(learning_rate=1e-3)
    tr.adam_step(params, state, cfg)
    delta = 5.0 - float(params["p"].data[0])
    assert math.isclose(delta, cfg.learning_rate, rel_tol=1e-6)


def test_adam_bit_deterministic():
    results = []
    for _ in range(2):
        params = make_param(rng.normal(size=4))
        for k in params:
            params[k].data = np.arange(4, dtype=np.float64)
        state = tr.AdamState.create(params)
        params["p"].grad = np.array([0.5, -1.0, 2.0, 0.0])
        tr.adam_step(params, state, tr.TrainConfig())
        results.append(params["p"].data.copy())
    assert np.array_equal(results[0], results[1])


def test_zero_learning_rate_rejected_but_tiny_allowed():
    with pytest.raises(ConfigError):
        tr.TrainConfig(learning_rate=0.0).validate()
    tr.TrainConfig(learning_rate=1e-12).validate()


def test_step_with_zero_learning_rate_changes_nothing():
    # mathematical property of the update rule (the config itself requires lr > 0)
    params = make_param(rng.normal(size=3))
    state = tr.AdamState.create(params)
    params["p"].grad = rng.normal(size=3)
    before = params["p"].data.copy()
    tr.adam_step(params, state, tr.TrainConfig(learning_rate=0.0))
    assert np.array_equal(params["p"].data, before)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def tiny_setup(tmp_path, steps=6, interval=3, seed=11):
    mpath = dio.generate_dataset(tmp_path / "data", n_train=2, size=32,
                                 seed=3, tasks=("nuclei",), n_test=0)
    manifest = dio.load_manifest(mpath)
    net_config = NetworkConfig(
        patch_size=16, task_count=1, growth_rate=2, stem_channels=4,
        encoder_depths=(1, 1, 1), encoder_channels=(4, 6, 8),
        bottom_depth=1, bottom_channels=10,
        decoder_depths=(1, 1, 1), decoder_channels=(8, 6, 4),
    )
    train_config = tr.TrainConfig(learning_rate=1e-3, batch_size=2,
                                  max_steps=steps, checkpoint_interval=interval,
                                  seed=seed)
    return manifest, net_config, train_config


def test_training_runs_and_is_deterministic(tmp_path):
    manifest, ncfg, tcfg = tiny_setup(tmp_path)
    r1 = tr.train(manifest, ncfg, tcfg, tmp_path / "run1")
    r2 = tr.train(manifest, ncfg, tcfg, tmp_path / "run2")
    assert [(s, l) for s, l, _ in r1.loss_log] == [(s, l) for s, l, _ in r2.loss_log]
    assert r1.final_checkpoint.read_bytes() == r2.final_checkpoint.read_bytes()
    assert r1.loss_csv.exists()
    header = r1.loss_csv.read_text().splitlines()[0]
    assert header == "step,loss,seconds"


def test_resume_replays_identical_stream(tmp_path):
    manifest, ncfg, tcfg = tiny_setup(tmp_path, steps=6, interval=3)
    full = tr.train(manifest, ncfg, tcfg, tmp_path / "full")
    mid = tmp_path / "full" / "checkpoint_000003.gptc"
    assert mid.exists()
    resumed = tr.train(manifest, ncfg, tcfg, tmp_path / "resumed", resume=mid)
    full_tail = [(s, l) for s, l, _ in full.loss_log if s > 3]
    resumed_log = [(s, l) for s, l, _ in resumed.loss_log]
    assert resumed_log == full_tail
    assert resumed.final_checkpoint.read_bytes() == full.final_checkpoint.read_bytes()


def test_empty_manifest_rejected(tmp_path):
    manifest = dio.Manifest(root=tmp_path, samples=[])
    _, ncfg, tcfg = tiny_setup(tmp_path)
    with pytest.raises(DataError):
        tr.train(manifest, ncfg, tcfg, tmp_path / "run")


def test_loss_decreases_on_short_overfit(tmp_path):
    manifest, ncfg, tcfg = tiny_setup(tmp_path, steps=40, interval=40, seed=2)
    result = tr.train(manifest, ncfg, tcfg, tmp_path / "run")
    losses = [l for _, l, _ in result.loss_log]
    assert np.mean(losses[-5:]) < np.mean(losses[:5])


def test_non_finite_forward_dumps_offending_batch(tmp_path):
    from vstain.errors import NumericError
    from vstain.network import build, save_checkpoint

    manifest, ncfg, tcfg = tiny_setup(tmp_path, steps=2, interval=2)
    poisoned = build(ncfg, np.random.default_rng(0))
    poisoned.stem_w.data = np.full_like(poisoned.stem_w.data, np.inf)
    ckpt = tmp_path / "poisoned.gptc"
    save_checkpoint(ckpt, poisoned, step=1)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="dumped"):
        tr.train(manifest, ncfg, tcfg, tmp_path / "run", resume=ckpt)
    dump = tmp_path / "run" / "diagnostic_step000002"
    assert (dump / "input.gptt").exists()
    assert (dump / "targets.gptt").exists()
    assert (dump / "state.gptc").exists()
