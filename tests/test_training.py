"""Masked loss semantics, Adam arithmetic, loop determinism and resume."""

import json
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from oracles import closure_arrays, oracle_masked_cross_entropy

import vstain
from vstain import autograd as ag
from vstain import data_io as dio
from vstain import kernels
from vstain import training as tr
from vstain.errors import ConfigError, DataError, NumericError
from vstain.network import NetworkConfig, build, forward, load_checkpoint

rng = np.random.default_rng(77)


# ---------------------------------------------------------------------------
# masked cross entropy
# ---------------------------------------------------------------------------

def logit_loss(logits, targets, mask, classes):
    """The loss of given logits: an identity head passes them through the
    fused head and loss unchanged, and its gradient back the same way."""
    c = logits.data.shape[3]
    eye = ag.var(np.eye(c, dtype=logits.data.dtype).reshape(1, 1, c, c))
    zero = ag.var(np.zeros(c, dtype=logits.data.dtype))
    return tr.masked_cross_entropy(logits, eye, zero, targets, mask, classes)


def test_uniform_logits_loss_is_log_classes():
    logits = ag.var(np.zeros((1, 2, 2, 2 * 256)), requires_grad=True)
    targets = rng.integers(0, 256, size=(1, 2, 2, 2))
    mask = np.ones((1, 2), bool)
    loss = logit_loss(logits, targets, mask, 256)
    assert math.isclose(float(loss.data), math.log(256.0), rel_tol=1e-9)


def test_all_false_mask_gives_zero_loss_and_gradients():
    logits = ag.var(rng.normal(size=(1, 2, 2, 8)), requires_grad=True)
    targets = rng.integers(0, 4, size=(1, 2, 2, 2))
    loss = logit_loss(logits, targets, np.zeros((1, 2), bool), 4)
    assert float(loss.data) == 0.0 and math.copysign(1.0, loss.data) == 1.0
    ag.zero_grad([logits])
    ag.backward(loss)
    assert np.array_equal(logits.grad, np.zeros_like(logits.data))


def test_half_probability_target_gives_log_two():
    # one active pixel/task; target logit ln(0.5), the rest ln(0.5/255)
    classes = 256
    z = np.full((1, 1, 1, classes), math.log(0.5 / 255.0))
    z[0, 0, 0, 42] = math.log(0.5)
    loss = logit_loss(ag.var(z), np.full((1, 1, 1, 1), 42), np.ones((1, 1), bool), classes)
    assert math.isclose(float(loss.data), math.log(2.0), rel_tol=1e-12)


def test_shift_invariance_per_cell():
    logits = rng.normal(size=(2, 3, 3, 2 * 8))
    targets = rng.integers(0, 8, size=(2, 3, 3, 2))
    mask = np.array([[True, False], [True, True]])
    a = logit_loss(ag.var(logits), targets, mask, 8)
    shift = rng.normal(size=(2, 3, 3, 2)).repeat(8, axis=-1)
    b = logit_loss(ag.var(logits + shift), targets, mask, 8)
    assert math.isclose(float(a.data), float(b.data), rel_tol=1e-9)


def test_masked_task_gradients_exactly_zero():
    logits = ag.var(rng.normal(size=(2, 4, 4, 3 * 16)), requires_grad=True)
    targets = rng.integers(0, 16, size=(2, 4, 4, 3))
    mask = np.array([[True, False, True], [False, False, True]])
    ag.zero_grad([logits])
    ag.backward(logit_loss(logits, targets, mask, 16))
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
    loss = logit_loss(logits, targets, mask, 256)
    ag.backward(loss)
    assert math.isclose(float(loss.data), float(want_loss), rel_tol=1e-6)
    assert logits.grad.dtype == want_grad.dtype
    assert np.array_equal(logits.grad, want_grad)


def dense_head_loss(x, w, b, targets, mask, classes):
    """(loss, features grad, head.w grad, head.b grad) of the unfused path:
    every task's logits by kernels.conv2d, the dense oracle loss, and the
    head convolution's backward."""
    z = kernels.conv2d(x, w, b)
    loss, dz = oracle_masked_cross_entropy(z, targets, mask, classes)
    return (loss, *kernels.conv2d_backward(x, w, 1, dz))


def fused_head_loss(x, w, b, targets, mask, classes):
    xv, wv, bv = (ag.var(a, requires_grad=True) for a in (x, w, b))
    loss = tr.masked_cross_entropy(xv, wv, bv, targets, mask, classes)
    ag.backward(loss)
    return loss.data, xv.grad, wv.grad, bv.grad


def test_fused_head_loss_matches_dense_path_float64():
    r = np.random.default_rng(29)
    n, h, w, c, t, v = 3, 5, 4, 7, 4, 16
    x = r.normal(size=(n, h, w, c))
    hw, hb = r.normal(size=(1, 1, c, t * v)), r.normal(size=t * v)
    targets = r.integers(0, v, size=(n, h, w, t))
    mask = np.array([[True, False, True, True], [False, True, False, False],
                     [True, False, True, False]])
    got = fused_head_loss(x, hw, hb, targets, mask, v)
    want = dense_head_loss(x, hw, hb, targets, mask, v)
    for g, e in zip(got, want):
        assert g.shape == np.shape(e)
        assert np.abs(g - e).max() <= 1e-12 * np.abs(e).max()


def test_fused_head_loss_float32_default_model_bitwise():
    # the seed-0 default model's trunk and head, 3 of 8 tasks labelled: the
    # labelled slices' logits, and so the loss, head.b and the labelled
    # head.w columns, are the dense head's bit for bit
    cfg = NetworkConfig()
    net = build(cfg, np.random.default_rng(0))
    net.head_b.data = np.random.default_rng(31).normal(
        scale=0.1, size=cfg.head_channels).astype(np.float32)
    r = np.random.default_rng(37)
    x = ag.var(r.random((1, 128, 128, 3)).astype(np.float32))
    with ag.no_grad():
        features = forward(net, x, "eval").data
    targets = r.integers(0, 256, size=(1, 128, 128, 8))
    mask = np.zeros((1, 8), bool)
    mask[0, [0, 3, 6]] = True
    w, b = net.head_w.data, net.head_b.data
    loss, _, gw, gb = fused_head_loss(features, w, b, targets, mask, 256)

    dense = ag.var(kernels.conv2d(features, w, b))
    dense_loss = logit_loss(dense, targets, mask, 256)
    _, dz = oracle_masked_cross_entropy(dense.data, targets, mask, 256)
    _, want_gw, want_gb = kernels.conv2d_backward(features, w, 1, dz)
    assert loss.dtype == np.float32 and loss.tobytes() == dense_loss.data.tobytes()
    assert np.array_equal(gb, want_gb)
    gw, want_gw = gw.reshape(-1, 8, 256), want_gw.reshape(-1, 8, 256)
    assert np.array_equal(gw[:, mask[0]], want_gw[:, mask[0]])
    assert not gw[:, ~mask[0]].any()


def test_loss_tape_keeps_only_labelled_slices():
    # the loss node's closure holds no array of the full logits' size
    n, h, w, c, t, v = 2, 4, 4, 5, 3, 16
    features = ag.var(rng.normal(size=(n, h, w, c)).astype(np.float32), requires_grad=True)
    head_w = ag.var(rng.normal(size=(1, 1, c, t * v)).astype(np.float32), requires_grad=True)
    head_b = ag.var(np.zeros(t * v, np.float32), requires_grad=True)
    targets = rng.integers(0, v, size=(n, h, w, t))
    mask = np.array([[True, True, False], [True, True, True]])
    loss = tr.masked_cross_entropy(features, head_w, head_b, targets, mask, v)
    held = [cell.cell_contents for cell in loss._backward.__closure__
            if isinstance(cell.cell_contents, np.ndarray)]
    assert held and max(a.size for a in held) < n * h * w * t * v


def test_loss_recomputes_one_slice_of_logits_at_a_time(split_pieces):
    # 3 labelled 128^2 slices of the default head's width: the tape keeps
    # per-pixel statistics only, and the backward one slice's logits
    n, h, w, c, t, v = 1, 128, 128, 90, 3, 256
    r = np.random.default_rng(41)
    features = ag.var(r.normal(size=(n, h, w, c)).astype(np.float32), requires_grad=True)
    head_w = ag.var((0.1 * r.normal(size=(1, 1, c, t * v))).astype(np.float32),
                    requires_grad=True)
    head_b = ag.var(np.zeros(t * v, np.float32), requires_grad=True)
    targets = r.integers(0, v, size=(n, h, w, t))
    tracemalloc.start()
    try:
        loss = tr.masked_cross_entropy(features, head_w, head_b, targets,
                                       np.ones((n, t), bool), v)
        forward = [ranges for _, ranges in split_pieces]  # one call per slice
        held = closure_arrays(loss._backward)
        ag.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held and not any(a.shape[-1] == v for a in held)
    # the forward's rows of logits are the largest per-worker temporaries
    rows = max(hi - lo for ranges in forward for lo, hi in ranges)
    scratch = min(ag.pool.workers, len(forward[0])) * rows * w * v * 4
    gx, one_slice = features.data.nbytes, h * w * v * 4
    assert peak < gx + one_slice + scratch + (1 << 20)


def test_unsplit_loss_forward_keeps_one_slice_of_exp_scratch():
    # configs/tiny.json's head at batch 4 stays under the pool's threshold,
    # so the forward runs as one piece; its exp temporaries hold one (H, W, V)
    # slice, not one per labelled slice beside the kept logits
    n, h, w, c, t, v = 4, 32, 32, 8, 2, 256
    r = np.random.default_rng(5)
    features = ag.var(r.normal(size=(n, h, w, c)).astype(np.float32))
    head_w = ag.var((0.1 * r.normal(size=(1, 1, c, t * v))).astype(np.float32))
    head_b = ag.var(np.zeros(t * v, np.float32))
    targets = r.integers(0, v, size=(n, h, w, t))
    assert n * h * w * c * t * v < ag.pool.min_work
    tracemalloc.start()
    try:
        tr.masked_cross_entropy(features, head_w, head_b, targets, np.ones((n, t), bool), v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept_logits, one_slice = n * t * h * w * v * 4, h * w * v * 4
    assert peak < kept_logits + one_slice + (1 << 20)


def test_non_finite_labelled_logits_rejected():
    features = ag.var(np.zeros((1, 2, 2, 3)), requires_grad=True)
    head_w = ag.var(np.zeros((1, 1, 3, 2 * 4)), requires_grad=True)
    head_b = np.zeros(2 * 4)
    head_b[5] = np.inf  # task 1
    targets = np.zeros((1, 2, 2, 2), int)
    tr.masked_cross_entropy(features, head_w, ag.var(head_b), targets,
                            np.array([[True, False]]), 4)
    with pytest.raises(NumericError):
        tr.masked_cross_entropy(features, head_w, ag.var(head_b), targets,
                                np.array([[False, True]]), 4)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_each_kind_of_non_finite_labelled_logit_rejected(value):
    # one class of task 1 at every pixel; -inf shows only in a minimum
    r = np.random.default_rng(23)
    features = ag.var(r.normal(size=(2, 4, 4, 3)).astype(np.float32))
    head_w = ag.var(r.normal(size=(1, 1, 3, 2 * 4)).astype(np.float32))
    head_b = np.zeros(2 * 4, np.float32)
    head_b[6] = value
    targets = np.zeros((2, 4, 4, 2), int)
    loss = tr.masked_cross_entropy(features, head_w, ag.var(head_b), targets,
                                   np.array([[True, False], [True, False]]), 4)
    assert np.isfinite(loss.data)
    with pytest.raises(NumericError, match="non-finite logits"):
        tr.masked_cross_entropy(features, head_w, ag.var(head_b), targets,
                                np.array([[True, False], [False, True]]), 4)


def test_float32_loss_gradient_has_no_subnormals():
    # logits spanning about +-400: unflushed, exp(z - zmax) / sez and the
    # mean's 1/count put part of the gradient below finfo(float32).tiny
    r = np.random.default_rng(19)
    logits = ag.var(r.uniform(-400.0, 400.0, size=(2, 8, 8, 2 * 256)).astype(np.float32),
                    requires_grad=True)
    targets = r.integers(0, 256, size=(2, 8, 8, 2))
    loss = logit_loss(logits, targets, np.ones((2, 2), bool), 256)
    ag.backward(loss)
    g = logits.grad
    assert g.dtype == np.float32 and np.count_nonzero(g) > 0
    assert np.count_nonzero((g != 0) & (np.abs(g) < np.finfo(np.float32).tiny)) == 0


def test_target_out_of_range_rejected():
    logits = ag.var(np.zeros((1, 1, 1, 4)))
    with pytest.raises(DataError):
        logit_loss(logits, np.full((1, 1, 1, 1), 4), np.ones((1, 1), bool), 4)


def test_loss_average_invariant_to_label_coverage():
    # same active cells, extra masked-off task changes nothing
    logits = rng.normal(size=(1, 2, 2, 2 * 4))
    targets = rng.integers(0, 4, size=(1, 2, 2, 2))
    both = logit_loss(ag.var(logits), targets, np.array([[True, False]]), 4)
    only = logit_loss(ag.var(logits[..., :4]), targets[..., :1], np.array([[True]]), 4)
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


@pytest.mark.parametrize("error", [NumericError, KeyboardInterrupt])
def test_a_stopped_run_keeps_the_rows_of_its_finished_steps(tmp_path, monkeypatch, error):
    manifest, ncfg, tcfg = tiny_setup(tmp_path, steps=5, interval=5)
    steps = []
    grad_norm = tr.grad_norm

    def stopping_at_step_3(params):
        steps.append(len(steps) + 1)
        if steps[-1] == 3:
            raise error("stopped at step 3")
        return grad_norm(params)

    monkeypatch.setattr(tr, "grad_norm", stopping_at_step_3)
    with pytest.raises(error):
        tr.train(manifest, ncfg, tcfg, tmp_path / "stopped")
    monkeypatch.undo()
    full = tr.train(manifest, ncfg, tcfg, tmp_path / "full")
    rows = full.loss_csv.read_text().splitlines()
    assert rows == ["step,loss,seconds"] + [f"{s},{l:.9g},{t:.3f}" for s, l, t in full.loss_log]
    stopped = (tmp_path / "stopped" / "loss.csv").read_text().splitlines()
    assert len(stopped) == 3
    assert [row.rsplit(",", 1)[0] for row in stopped] == [row.rsplit(",", 1)[0]
                                                          for row in rows[:3]]


def test_empty_manifest_rejected(tmp_path):
    manifest = dio.Manifest(root=tmp_path, samples=[])
    _, ncfg, tcfg = tiny_setup(tmp_path)
    with pytest.raises(DataError):
        tr.train(manifest, ncfg, tcfg, tmp_path / "run")


def test_train_reads_each_training_file_once_and_no_test_file(tmp_path, monkeypatch):
    # the README walkthrough's dataset and config, one step
    mpath = dio.generate_dataset(tmp_path / "data", n_train=4, n_test=1, size=128,
                                 seed=7, tasks=("nuclei", "viability"))
    manifest = dio.load_manifest(mpath)
    doc = json.loads((Path(__file__).parents[1] / "configs/tiny.json").read_text())
    ncfg = NetworkConfig.from_dict(doc["network"])
    tcfg = tr.TrainConfig.from_dict({**doc["train"], "max_steps": 1})
    reads = Counter()
    load_image = dio.load_image

    def counting(path):
        reads[Path(path).relative_to(manifest.root).as_posix()] += 1
        return load_image(path)

    monkeypatch.setattr(dio, "load_image", counting)
    tr.train(manifest, ncfg, tcfg, tmp_path / "run")
    train_files = [path for rec in manifest.split("train")
                   for path in [rec.input_path, *rec.targets.values()]]
    assert len(train_files) == 12
    assert reads == Counter(train_files)


def test_loss_decreases_on_short_overfit(tmp_path):
    manifest, ncfg, tcfg = tiny_setup(tmp_path, steps=40, interval=40, seed=2)
    result = tr.train(manifest, ncfg, tcfg, tmp_path / "run")
    losses = [l for _, l, _ in result.loss_log]
    assert np.mean(losses[-5:]) < np.mean(losses[:5])


def test_non_finite_forward_dumps_offending_batch(tmp_path):
    from vstain.network import save_checkpoint

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


def test_grad_norm_sums_in_float64():
    big = ag.var(np.zeros(3, np.float32), requires_grad=True)
    big.grad = np.full(3, 1e20, np.float32)  # each square overflows float32
    other = ag.var(np.zeros(2, np.float32), requires_grad=True)  # no gradient: zeros
    assert tr.grad_norm({"big": big, "other": other}) == pytest.approx(np.sqrt(3) * 1e20)
    for bad in (np.inf, -np.inf, np.nan):
        big.grad[1] = bad
        assert not np.isfinite(tr.grad_norm({"big": big, "other": other}))


def test_non_finite_parameter_after_update_dumps_the_step_start(tmp_path):
    # a learning rate past float32's range turns the first update into inf
    # and NaN while its gradients are finite
    manifest, ncfg, tcfg = tiny_setup(tmp_path, steps=2, interval=1)
    tcfg.learning_rate = 1e39
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError, match="non-finite param/stem.w after the update at step 1; .*dumped"):
        tr.train(manifest, ncfg, tcfg, tmp_path / "run")
    run = tmp_path / "run"
    assert sorted(p.name for p in run.iterdir()) == ["diagnostic_step000001", "loss.csv"]
    assert (run / "loss.csv").read_text().splitlines() == ["step,loss,seconds"]
    dumped, _ = load_checkpoint(run / "diagnostic_step000001" / "state.gptc")
    init_ss, _ = np.random.SeedSequence(tcfg.seed).spawn(2)
    start = build(ncfg, np.random.default_rng(init_ss)).named_parameters()
    for name, p in dumped.named_parameters().items():
        assert np.array_equal(p.data, start[name].data), name


def test_default_batch1_step_holds_at_most_128_mib(use_pool):
    """The traced peak of the forward, masked loss (3 of 8 tasks
    labelled), backward and Adam update of one default batch-1 training
    step. It bounds those calls, not the rest of train's step (the
    gradient norm and the checks around the update). On a 2-worker pool
    it read 124.15-124.19 MiB (and 105.3 MiB on one worker; 2-vCPU Xeon,
    OpenBLAS 0.3.31); the pool's timing moves it by under 1 MiB. The 3.8 MiB margin is less than the
    5.6 MiB of the decoder's output features, so a step that keeps one
    more array of their size alive at its peak fails."""
    use_pool(workers=2)  # each worker holds its own temporaries at the peak
    net = build(NetworkConfig(), np.random.default_rng(0))
    params = net.named_parameters()
    opt = tr.AdamState.create(params)
    r = np.random.default_rng(1)
    x = ag.var(r.random((1, 128, 128, 3)).astype(np.float32))
    targets = r.integers(0, 256, size=(1, 128, 128, 8))
    mask = np.zeros((1, 8), bool)
    mask[0, [1, 4, 7]] = True
    tracemalloc.start()
    try:
        with np.errstate(over="ignore", invalid="ignore"), vstain._flush_to_zero():
            features = forward(net, x, mode="train", rng=np.random.default_rng(2))
            loss = tr.masked_cross_entropy(features, net.head_w, net.head_b, targets, mask, 256)
            ag.zero_grad(params.values())
            ag.backward(loss)
            tr.adam_step(params, opt, tr.TrainConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(loss.data)
    assert peak <= 128 * 2 ** 20
