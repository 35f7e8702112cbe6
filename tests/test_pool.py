"""The worker pool that splits large products and row passes.

Every routed product and pass must give the bits of the unsplit one,
whatever the worker count, on the shapes the default model runs. The
unsplit reference is the same code with POOL_MIN_WORK out of reach: then
each call is one piece on the calling thread.
"""

import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import vstain
from vstain import autograd as ag
from vstain import cli, data_io, inference
from vstain import kernels as K
from vstain import network as nw
from vstain.errors import NumericError
from vstain.training import masked_cross_entropy


@pytest.fixture
def fresh_pool(monkeypatch):
    """No pool at the start; the test's pool is shut down after."""
    monkeypatch.setattr(ag, "_pool", None)
    yield
    if ag._pool is not None:
        ag._pool.shutdown()


def outputs(monkeypatch, workers, fn):
    """fn()'s arrays with `workers` pool threads; workers=None runs unsplit."""
    if workers is None:
        monkeypatch.setattr(ag, "POOL_MIN_WORK", 2 ** 62)
    else:
        monkeypatch.setattr(ag, "POOL_MIN_WORK", 2 ** 26)
        monkeypatch.setattr(ag, "ATTENTION_WORKERS", workers)
    return [np.asarray(a) for a in fn()]


def assert_same_bits(monkeypatch, fn, workers=(1, 2, 3, 7)):
    whole = outputs(monkeypatch, None, fn)
    for count in workers:
        for a, b in zip(whole, outputs(monkeypatch, count, fn)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b), f"{count} workers"
            assert np.array_equal(np.signbit(a), np.signbit(b)), f"{count} workers"


def case(seed, *shapes):
    r = np.random.default_rng(seed)
    return [r.normal(size=s).astype(np.float32) for s in shapes]


# (x, w, stride) of convolutions the default model splits: an enc1 dense
# layer, the enc1 query generator (stride 2), the dec3 dense block's 1x1
# output, an enc1 value convolution, whose work is exactly POOL_MIN_WORK,
# and dec3's widest dense layer; and the head's shape, whose weight
# gradient has rows that each hold more than PIECE_WORK
CONVS = {
    "enc1-dense-3x3": ((1, 128, 128, 48), (3, 3, 48, 16), 1),
    "enc1-query-3x3-s2": ((1, 128, 128, 64), (3, 3, 64, 32), 2),
    "dec3-out-1x1": ((1, 128, 128, 163), (1, 1, 163, 90), 1),
    "enc1-value-1x1": ((1, 128, 128, 64), (1, 1, 64, 64), 1),
    "dec3-dense-3x3": ((1, 128, 128, 147), (3, 3, 147, 16), 1),
    "head-1x1": ((1, 128, 128, 90), (1, 1, 90, 2048), 1),
}


@pytest.mark.parametrize("name", CONVS)
def test_conv_forward_and_backward_bits_do_not_depend_on_the_split(monkeypatch, fresh_pool,
                                                                   name):
    xs, ws, stride = CONVS[name]
    x, w, b = case(1, xs, ws, (ws[3],))
    n, h, wd = xs[:3]
    (g,) = case(2, (n, -(-h // stride), -(-wd // stride), ws[3]))
    work = g.size * ws[0] * ws[1] * ws[2]
    assert work >= 2 ** 26  # split at the default threshold
    assert_same_bits(monkeypatch, lambda: [K.conv2d(x, w, b, stride),
                                           *K.conv2d_backward(x, w, stride, g)])
    assert ag._pool is not None


def test_deconv_forward_and_backward_bits_do_not_depend_on_the_split(monkeypatch, fresh_pool):
    # dec3's up transformer: 64x64 x 165 channels to a 128x128 query of 82
    x, w, b, g = case(3, (1, 64, 64, 165), (3, 3, 165, 82), (82,), (1, 128, 128, 82))
    assert_same_bits(monkeypatch, lambda: [K.deconv2d(x, w, b),
                                           *K.deconv2d_backward(x, w, g)])


def test_masked_loss_bits_do_not_depend_on_the_split(monkeypatch, fresh_pool):
    # the default head (90 channels to 8 x 256) with 3 of 8 tasks labelled
    feats, head_w, head_b = case(4, (1, 128, 128, 90), (1, 1, 90, 2048), (2048,))
    targets = np.random.default_rng(5).integers(0, 256, size=(1, 128, 128, 8))
    mask = np.zeros((1, 8), bool)
    mask[0, [0, 3, 6]] = True

    def loss_and_grads():
        params = [ag.var(a, requires_grad=True) for a in (feats, head_w, head_b)]
        loss = masked_cross_entropy(*params, targets, mask, 256)
        ag.backward(loss)
        return [loss.data] + [p.grad for p in params]

    assert_same_bits(monkeypatch, loss_and_grads)


def head_heavy_net():
    """A narrow model with the default head: 90 decoder channels to 8 x 256."""
    cfg = nw.NetworkConfig.tiny(patch_size=128, task_count=8, value_classes=256)
    cfg.decoder_channels = (10, 8, 90)
    return nw.build(cfg, np.random.default_rng(6))


def test_predict_bits_do_not_depend_on_the_split(monkeypatch, fresh_pool):
    # 128 x 192 at step 64: two windows, so the merge runs too
    net = head_heavy_net()
    image = np.random.default_rng(7).uniform(0, 255, size=(128, 192))
    assert_same_bits(monkeypatch, lambda: [inference.predict_image(net, image, step=64)],
                     workers=(1, 2))


def new_pool(monkeypatch, workers):
    """Shut the pool down, so the next one starts with `workers` threads."""
    if ag._pool is not None:
        ag._pool.shutdown()
    monkeypatch.setattr(ag, "_pool", None)
    monkeypatch.setattr(ag, "ATTENTION_WORKERS", workers)


def record_window_threads(monkeypatch) -> list:
    """Names of the threads that run predict's window forwards, in call order."""
    names, forward = [], inference.forward

    def recording_forward(*args, **kwargs):
        names.append(threading.current_thread().name)
        return forward(*args, **kwargs)

    monkeypatch.setattr(inference, "forward", recording_forward)
    return names


def test_predict_bits_do_not_depend_on_the_window_workers(monkeypatch, fresh_pool):
    # 128 x 256 at step 64: three windows of 128^2, whose enc1 attention
    # holds 2^26 scores, so they run one per worker
    net = head_heavy_net()
    assert inference._windows_per_worker(net.config)
    image = np.random.default_rng(11).uniform(0, 255, size=(128, 256))
    names = record_window_threads(monkeypatch)
    results = []
    for workers in (1, 2, 3):
        new_pool(monkeypatch, workers)
        names.clear()
        results.append(inference.predict_image(net, image, step=64))
        assert len(names) == 3
        assert {name.startswith("vstain-pool") for name in names} == {workers > 1}
    for other in results[1:]:
        assert np.array_equal(results[0], other)


def test_small_windows_run_on_the_calling_thread(monkeypatch, fresh_pool):
    # 40 x 48 at step 8: 20 windows of 16^2, whose attention layers each
    # hold under two blocks of scores; the merge is under POOL_MIN_WORK
    new_pool(monkeypatch, 2)
    net = nw.build(nw.NetworkConfig.tiny(), np.random.default_rng(0))
    assert not inference._windows_per_worker(net.config)
    names = record_window_threads(monkeypatch)
    inference.predict_image(net, np.random.default_rng(14).uniform(0, 255, (40, 48)), step=8)
    assert len(names) == 20 and set(names) == {threading.current_thread().name}
    assert ag._pool is None


@pytest.mark.parametrize("workers", [1, 2])
def test_predict_holds_one_window_forward_per_worker(monkeypatch, fresh_pool, workers):
    """Predict holds the output, at most one window forward per worker
    and one slab of temporaries per worker; on one worker, no window's
    features outlive its add into the output."""
    new_pool(monkeypatch, workers)
    net = nw.build(nw.NetworkConfig(), np.random.default_rng(0))
    cfg = net.config
    image = np.random.default_rng(12).uniform(0, 255, size=(128, 256))  # three windows
    names = record_window_threads(monkeypatch)
    tracemalloc.start()
    try:
        # one window forward on this thread, with every worker's temporaries
        base = tracemalloc.get_traced_memory()[0]
        inference._window_features(net, image[:, :, None], 0, 0)
        window = tracemalloc.get_traced_memory()[1] - base
        names.clear()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        dist = inference.predict_image(net, image, step=64)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(names) == 3
    assert {name.startswith("vstain-pool") for name in names} == {workers > 1}
    p, tv = cfg.patch_size, cfg.task_count * cfg.value_classes
    rows = max(hi - lo for lo, hi in
               ag._pieces(p, p * p * cfg.decoder_channels[-1] * tv // ag.PIECE_WORK))
    slab = rows * p * tv * 4
    assert peak <= dist.nbytes + ag.ATTENTION_WORKERS * (window + slab) + (1 << 20)


# Runs in a child, with argv[1] pool threads: a conv forward that splits
# into pieces, and a pooled attention forward and backward, first in one
# pool task per thread at once, then on the calling thread with the pool
# out of reach; prints whether each array's bits are equal.
NESTED_CHILD = """
import sys, threading
import numpy as np
from vstain import autograd as ag, kernels as K
ag.ATTENTION_WORKERS = int(sys.argv[1])
ag.ATTENTION_BLOCK_SCORES = 64 * 16  # 100 queries of 64 keys: seven blocks
r = np.random.default_rng(0)
x, w, b = (r.normal(size=s).astype(np.float32) for s in ((1, 128, 128, 48), (3, 3, 48, 16), (16,)))
q, k, v, probe = (r.normal(size=s) for s in ((1, 10, 10, 4), (1, 8, 8, 4), (1, 8, 8, 3), (1, 10, 10, 3)))

def run():
    qkv = [ag.var(a, requires_grad=True) for a in (q, k, v)]
    out = ag.attention(*qkv)
    ag.backward(ag.dot_sum(out, probe))
    return [K.conv2d(x, w, b, 1), out.data] + [t.grad for t in qkv]

start = threading.Barrier(ag.ATTENTION_WORKERS)

def run_on_every_worker():
    start.wait()
    return run()

tasks = [ag._worker_pool().submit(run_on_every_worker) for _ in range(ag.ATTENTION_WORKERS)]
nested = [task.result() for task in tasks]
ag.POOL_MIN_WORK, ag.ATTENTION_WORKERS = 2 ** 62, 1
whole = run()
print(*(np.array_equal(a, b) for arrays in nested for a, b in zip(whole, arrays)))
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_work_split_inside_a_pool_task_stays_on_its_thread(workers):
    # while every pool thread runs such a task, a task that waited on
    # pieces of its own would wait forever
    src = str(Path(nw.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run([sys.executable, "-c", NESTED_CHILD, str(workers)], env=env,
                              capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        pytest.fail(f"work split inside a pool task hung at {workers} workers")
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.split() == ["True"] * 5 * workers


def test_numeric_error_in_a_window_forward_reaches_the_caller(monkeypatch, fresh_pool,
                                                              tmp_path, capsys):
    new_pool(monkeypatch, 2)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(key, "1")  # cli.main sets them
    net = head_heavy_net()
    nw.save_checkpoint(tmp_path / "model.gptc", net)
    image = np.random.default_rng(13).integers(0, 256, size=(128, 256)).astype(np.uint8)
    data_io.save_pgm(tmp_path / "image.pgm", image)  # three windows at step 64
    lock, names, running = threading.Lock(), [], [0]
    forward = inference.forward

    def failing_forward(*args, **kwargs):
        with lock:
            names.append(threading.current_thread().name)
            call = len(names)
            running[0] += 1
        try:
            if call == 2:
                raise NumericError("window forward: non-finite scores")
            time.sleep(0.5)  # the other windows are still running when it fails
            return forward(*args, **kwargs)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(inference, "forward", failing_forward)
    code = cli.main(["predict", "--checkpoint", str(tmp_path / "model.gptc"),
                     "--image", str(tmp_path / "image.pgm"), "--out", str(tmp_path / "out")])
    assert code == 4 and running[0] == 0
    assert "non-finite scores" in capsys.readouterr().err
    # when the first window fails, the third never starts
    assert len(names) >= 2 and all(name.startswith("vstain-pool") for name in names)


def test_pool_blocks_run_under_the_callers_numpy_error_state(monkeypatch, fresh_pool):
    # numpy's error state is per thread: a training step silences the
    # overflow warnings of products that run on the pool
    new_pool(monkeypatch, 2)
    big = np.full(4, 1e30, dtype=np.float32)

    def block(task):
        return np.geterr(), big * big - big * big  # overflow, then inf - inf

    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning on a pool thread raises there
        results = list(ag._run_blocks(block, range(4)))
    assert all(state["over"] == state["invalid"] == "ignore" for state, _ in results)
    assert all(np.isnan(diff).all() for _, diff in results)


@pytest.mark.skipif(vstain._libm is None, reason="the mode needs x86-64 with glibc")
def test_pool_blocks_run_under_the_callers_subnormal_flushing(monkeypatch, fresh_pool):
    # the floating-point modes are per thread: each block takes the
    # caller's flushing, on or off, and the pool thread gets its own back
    new_pool(monkeypatch, 2)
    pool, both = ag._worker_pool(), threading.Barrier(2, timeout=30)

    def own_modes():
        """Each of the two pool threads' flushing, outside _run_blocks."""
        def mode():
            both.wait()
            return vstain._flushing_to_zero()
        return [f.result() for f in [pool.submit(mode) for _ in range(2)]]

    tiny = np.full(4, np.finfo(np.float32).tiny, np.float32)

    def block(task):
        return vstain._flushing_to_zero(), tiny / np.float32(4)

    assert own_modes() == [False, False]  # both threads start here, without it
    for caller in (True, False, True):
        with vstain._flush_to_zero(caller):
            results = list(ag._run_blocks(block, range(6)))
        assert all(flushing == caller for flushing, _ in results)
        assert all((quarter == 0).all() == caller for _, quarter in results)
    assert own_modes() == [False, False]


@pytest.mark.parametrize("workers", [2, 3])
def test_run_blocks_keeps_at_most_workers_tasks_alive(monkeypatch, fresh_pool, workers):
    # a task is alive from its start until the caller takes its result:
    # each pooled block's temporaries and result then exist at most once
    # per worker. The pool has more threads than that, so only the bound
    # holds the count down, and later tasks finish sooner.
    new_pool(monkeypatch, 5)
    ag._worker_pool()
    monkeypatch.setattr(ag, "ATTENTION_WORKERS", workers)
    lock, alive, most = threading.Lock(), [0], [0]

    def block(task):
        with lock:
            alive[0] += 1
            most[0] = max(most[0], alive[0])
        time.sleep(0.002 * (12 - task))
        return task

    taken = []
    for result in ag._run_blocks(block, list(range(12))):
        with lock:
            alive[0] -= 1
        taken.append(result)
        time.sleep(0.01)  # a pool not held back starts more tasks meanwhile
    assert taken == list(range(12))
    assert most[0] <= workers


@pytest.mark.skipif(vstain._libm is None, reason="the mode needs x86-64 with glibc")
def test_a_pool_started_under_flushing_starts_its_threads_without_it(monkeypatch,
                                                                     fresh_pool):
    # a new thread inherits the floating-point modes of the thread that
    # starts it: here both pool threads start inside the caller's flushing
    new_pool(monkeypatch, 2)
    both = threading.Barrier(2, timeout=30)

    def mode():
        both.wait()  # so that the two calls run on the two threads
        return vstain._flushing_to_zero()

    with vstain._flush_to_zero():
        pool = ag._worker_pool()
        futures = [pool.submit(mode) for _ in range(2)]
        assert vstain._flushing_to_zero()
    assert [f.result(timeout=60) for f in futures] == [False, False]


@pytest.mark.parametrize("render", ["argmax", "expectation"])
def test_render_bits_do_not_depend_on_the_split(monkeypatch, fresh_pool, render):
    probs = np.random.default_rng(8).random((1, 64, 48, 2, 256)).astype(np.float32)
    probs /= probs.sum(-1, keepdims=True)
    whole = outputs(monkeypatch, None, lambda: [nw.distributions_to_image(probs, 1, render)])
    for workers in (1, 2, 3):
        monkeypatch.setattr(ag, "ATTENTION_WORKERS", workers)
        monkeypatch.setattr(ag, "POOL_MIN_WORK", 2 ** 16)  # split this small image
        assert np.array_equal(whole[0], nw.distributions_to_image(probs, 1, render))


def test_split_rows_covers_every_row_once_in_pieces(monkeypatch, fresh_pool):
    monkeypatch.setattr(ag, "ATTENTION_WORKERS", 3)
    for small, count, largest in ((False, 3, 34), (True, 5, 20)):
        seen = np.zeros(100, int)
        pieces = []

        def piece(lo, hi):
            assert hi - lo in (largest - 1, largest)
            seen[lo:hi] += 1
            pieces.append((lo, hi))

        work = 5 * ag.PIECE_WORK + 7
        ag.split_rows(piece, 100, work, small)
        assert np.all(seen == 1) and len(pieces) == count
    assert ag._pool is not None


@pytest.mark.parametrize("rows", [1, 2, 3, 5, 90, 1323])
@pytest.mark.parametrize("small", [False, True])
def test_pieces_hold_two_rows_or_more_unless_there_is_one(monkeypatch, rows, small):
    # a one-row product runs as GEMV, whose bits differ from the blocked
    # path's; rows of the head's weight gradient each hold 2^25 work
    monkeypatch.setattr(ag, "ATTENTION_WORKERS", 7)
    for work in (ag.POOL_MIN_WORK, 128 * 128 * 2048 * rows, 2 ** 40):
        count = work // ag.PIECE_WORK
        pieces = ag._pieces(rows, count if small else min(count, ag.ATTENTION_WORKERS))
        assert [lo for lo, _ in pieces] == [0] + [hi for _, hi in pieces[:-1]]
        assert pieces[-1][1] == rows
        assert len(pieces) == 1 or min(hi - lo for lo, hi in pieces) >= 2


def test_conv_forward_holds_no_patch_matrix():
    """dec3.db's widest 3x3 convolution: the forward holds its output, the
    padded input and one piece of output rows of scratch per worker, never
    a (rows, W, 9*Cin) copy of the input's patches."""
    x, w, b = case(10, (1, 128, 128, 147), (3, 3, 147, 16), (16,))
    padded = x.shape[0] * (x.shape[1] + 2) * (x.shape[2] + 2) * x.shape[3] * 4
    tracemalloc.start()
    try:
        y = K.conv2d(x, w, b, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < y.nbytes + padded + (1 << 20)


def test_conv_backward_holds_no_full_size_im2col():
    """dec3.db's widest 3x3 convolution: the backward holds its outputs,
    the padded input and per-worker temporaries, never a (N*H*W, 9*Cin)
    im2col or column gradient."""
    x, w, g = case(10, (1, 128, 128, 147), (3, 3, 147, 16), (1, 128, 128, 16))
    n, h, wd, cin = x.shape
    k, cout = w.shape[0], w.shape[3]
    m, kkc, work = n * h * wd, k * k * cin, n * h * wd * k * k * cin * cout
    padded = n * (h + k - 1) * (wd + k - 1) * cin * 4
    # per piece, the larger of: the (rows + k - 1, W, k*k*Cin) column
    # gradient the input gradient once held, which bounds the (rows, W, Cin)
    # scratch of one tap row it holds now; and the weight gradient's
    # gathered (N*H*W, rows) columns
    grid = ag._pieces(h + k - 1, work // ag.PIECE_WORK)
    cols = ag._pieces(kkc, work // ag.PIECE_WORK)
    scratch = 4 * max(
        min(ag.ATTENTION_WORKERS, len(grid)) * (max(hi - lo for lo, hi in grid) + k - 1)
        * n * wd * kkc,
        min(ag.ATTENTION_WORKERS, len(cols)) * max(hi - lo for lo, hi in cols) * m)
    tracemalloc.start()
    try:
        grad_x, grad_w, _ = K.conv2d_backward(x, w, 1, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scratch < m * kkc * 4
    assert peak < grad_x.nbytes + grad_w.nbytes + padded + scratch + (1 << 20)


def test_tiny_config_forward_leaves_the_pool_unstarted(fresh_pool):
    cfg = nw.NetworkConfig.tiny()
    net = nw.build(cfg, np.random.default_rng(0))
    x = ag.var(np.random.default_rng(1).random((2, 16, 16, 3)).astype(np.float32))
    with ag.no_grad():
        nw.forward(net, x, mode="eval")
    assert ag._pool is None


def test_predict_holds_no_window_logits(monkeypatch):
    """After the window's forward, predict_image holds the output, the
    window's features and one slab of temporaries per worker, never the
    window's (patch^2, T*V) logits."""
    net = nw.build(nw.NetworkConfig(), np.random.default_rng(0))
    cfg = net.config
    image = np.random.default_rng(9).uniform(0, 255, size=(128, 128))
    forward = inference.forward

    def forward_then_reset_peak(*args, **kwargs):
        out = forward(*args, **kwargs)
        tracemalloc.reset_peak()  # bound what follows the window's forward
        return out

    monkeypatch.setattr(inference, "forward", forward_then_reset_peak)
    tracemalloc.start()
    try:
        dist = inference.predict_image(net, image, step=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    p, tv = cfg.patch_size, cfg.task_count * cfg.value_classes
    features = p * p * cfg.decoder_channels[-1] * 4
    rows = max(hi - lo for lo, hi in
               ag._pieces(p, p * p * cfg.decoder_channels[-1] * tv // ag.PIECE_WORK))
    slab = rows * p * tv * 4
    workers = min(ag.ATTENTION_WORKERS, p)
    assert peak <= dist.nbytes + features + workers * slab + (1 << 20)


# Runs in a child: pins itself to one CPU when asked, then predicts a
# 128 x 192 image (two windows and their merge) and takes one training
# step with the default model, printing one digest of all results.
DIGEST_CHILD = """
import hashlib, os, sys
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from vstain import autograd as ag, inference, network as nw
from vstain.training import masked_cross_entropy
cfg = nw.NetworkConfig()
net = nw.build(cfg, np.random.default_rng(0))
r = np.random.default_rng(1)
h = hashlib.sha256(inference.predict_image(net, r.uniform(0, 255, (128, 192)), 64).tobytes())
x = ag.var(r.random((1, 128, 128, 3)).astype(np.float32))
targets = r.integers(0, 256, size=(1, 128, 128, 8))
mask = np.zeros((1, 8), bool)
mask[0, [1, 4, 7]] = True
feats = nw.forward(net, x, mode="train", rng=np.random.default_rng(2))
loss = masked_cross_entropy(feats, net.head_w, net.head_b, targets, mask, 256)
ag.backward(loss)
h.update(loss.data.tobytes())
for v in net.named_parameters().values():
    h.update(v.grad.tobytes())
print(ag.ATTENTION_WORKERS, h.hexdigest())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_default_model_digests_equal_on_one_cpu_and_on_all():
    src = str(Path(nw.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = {}
    for cpus in ("one", "all"):
        proc = subprocess.run([sys.executable, "-c", DIGEST_CHILD, cpus], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-4000:]
        workers, digest = proc.stdout.split()
        runs[cpus] = int(workers), digest
    assert runs["one"][0] == 1 and runs["all"][0] == len(os.sched_getaffinity(0))
    assert runs["one"][1] == runs["all"][1]
