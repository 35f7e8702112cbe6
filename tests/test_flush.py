"""Subnormals flushed in hardware (vstain._flush_to_zero): what runs with
the mode on, that every entry point leaves the caller's floating-point
environment as it found it, also after an error, and that the mode does
nothing on other machines and C libraries."""

import ctypes
import os
import types

import numpy as np
import pytest

import vstain
from vstain import autograd as ag
from vstain import data_io as dio
from vstain import inference
from vstain import kernels as K
from vstain import network as nw
from vstain import training as tr
from vstain.errors import NumericError

needs_flush = pytest.mark.skipif(vstain._libm is None,
                                 reason="the mode needs x86-64 with glibc")


def control():
    """The calling thread's x87 control word and its MXCSR less the six
    exception flags: the modes a caller sets."""
    env = vstain._FenvT()
    vstain._libm.fegetenv(env)
    return env[0] & 0xFFFF, env[vstain._MXCSR] & ~0x3F


def subnormal(a) -> int:
    a = np.asarray(a)
    return np.count_nonzero((a != 0) & (np.abs(a) < np.finfo(a.dtype).tiny))


def quarter_tiny(dtype=np.float32):
    """tiny / 4, computed now: subnormal, or zero with the mode on."""
    return np.full(8, np.finfo(dtype).tiny, dtype) / np.asarray(4, dtype)


@needs_flush
def test_mode_flushes_inside_and_restores_on_exit_also_after_an_error():
    before = control()
    assert not vstain._flushing_to_zero() and subnormal(quarter_tiny()) == 8
    with vstain._flush_to_zero():
        assert vstain._flushing_to_zero()
        assert not quarter_tiny().any() and not quarter_tiny(np.float64).any()
        with vstain._flush_to_zero(False):  # a pool block of a caller without it
            assert not vstain._flushing_to_zero() and subnormal(quarter_tiny()) == 8
        assert vstain._flushing_to_zero()
    assert control() == before
    with pytest.raises(ZeroDivisionError), vstain._flush_to_zero():
        1 / 0
    assert control() == before and subnormal(quarter_tiny()) == 8


@pytest.fixture(params=[False, True], ids=["caller-off", "caller-on"])
def caller_flushing(request):
    """Run the test with the caller's flushing off, then on."""
    if not request.param:
        yield False
        return
    with vstain._flush_to_zero():
        yield True


def small_net(patch=16, poisoned=False):
    cfg = nw.NetworkConfig(patch_size=patch, task_count=1, growth_rate=2, stem_channels=4,
                           encoder_depths=(1,), encoder_channels=(4,), bottom_depth=1,
                           bottom_channels=6, decoder_depths=(1,), decoder_channels=(4,))
    net = nw.build(cfg, np.random.default_rng(0))
    if poisoned:
        net.stem_w.data = np.full_like(net.stem_w.data, np.inf)
    return net


def run_attention(bad):
    r = np.random.default_rng(3)
    q, k, v = (ag.var(r.normal(size=(1, 6, 6, 4)), requires_grad=True) for _ in range(3))
    if bad:
        q.data[0, 0, 0, 0] = np.nan
    ag.backward(ag.dot_sum(ag.attention(q, k, v), np.ones((1, 6, 6, 4))))


def run_col_softmax(bad):
    m = np.random.default_rng(4).normal(size=(300, 5)) * 30
    if bad:
        m[3, 1] = np.inf
    K.col_softmax(m)


def run_training_step(bad, tmp_path):
    mpath = dio.generate_dataset(tmp_path / "data", n_train=1, size=16, seed=3,
                                 tasks=("nuclei",), n_test=0)
    # a learning rate past float32's range makes the first update non-finite
    tcfg = tr.TrainConfig(learning_rate=1e39 if bad else 1e-3, batch_size=1, max_steps=1,
                          checkpoint_interval=1, seed=0)
    tr.train(dio.load_manifest(mpath), small_net().config, tcfg, tmp_path / "run")


def run_predict_image(bad):
    image = np.random.default_rng(5).integers(0, 256, (16, 24)).astype(np.uint8)
    inference.predict_image(small_net(poisoned=bad), image, step=8)


ENTRY_POINTS = {
    "attention": lambda bad, tmp_path: run_attention(bad),
    "col_softmax": lambda bad, tmp_path: run_col_softmax(bad),
    "training step": run_training_step,
    "predict_image": lambda bad, tmp_path: run_predict_image(bad),
}


@needs_flush
@pytest.mark.parametrize("bad", [False, True], ids=["ok", "numeric-error"])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_points_leave_the_callers_environment(caller_flushing, tmp_path, name, bad):
    before = control()
    with np.errstate(all="ignore"):
        if bad:
            with pytest.raises(NumericError):
                ENTRY_POINTS[name](bad, tmp_path)
        else:
            ENTRY_POINTS[name](bad, tmp_path)
    assert control() == before
    assert vstain._flushing_to_zero() == caller_flushing


@pytest.mark.parametrize("libc, machine", [
    ("musl 1.2.4", "x86_64"), (None, "x86_64"), (ValueError, "x86_64"),
    ("glibc 2.36", "aarch64"), ("glibc 2.36", None)],
    ids=["other-libc", "no-libc", "unsupported", "other-machine", "no-uname"])
def test_mode_is_a_no_op_on_other_c_libraries_and_machines(monkeypatch, libc, machine):
    def confstr(name):
        if libc is ValueError:
            raise ValueError("unrecognized configuration name")
        return libc

    def cdll(name, *args, **kwargs):
        if name is not None:
            pytest.fail(f"loaded {name}")
        return types.SimpleNamespace()

    monkeypatch.setattr(os, "confstr", confstr)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    if machine is None:
        monkeypatch.delattr(os, "uname")
    else:
        monkeypatch.setattr(os, "uname", lambda: types.SimpleNamespace(machine=machine))
    assert vstain._x86_64_libm() is None
    monkeypatch.setattr(vstain, "_libm", None)
    with vstain._flush_to_zero():
        assert not vstain._flushing_to_zero()
        assert subnormal(quarter_tiny()) == 8
    assert not vstain._flushing_to_zero()


# (query/key scale, value scale in units of tiny) whose unflushed weights,
# outputs and gradients all hold subnormals
NEAR_TINY = {np.float32: (8.0, 3.0), np.float64: (24.0, 3.0)}


def attention_near_tiny(dtype):
    qk_scale, v_scale = NEAR_TINY[dtype]
    r = np.random.default_rng(6)
    tiny = np.finfo(dtype).tiny
    q, k = ((r.normal(size=(1, 16, 16, 4)) * qk_scale).astype(dtype) for _ in range(2))
    v = (r.normal(size=(1, 16, 16, 3)) * v_scale * tiny).astype(dtype)
    probe = r.normal(size=(1, 16, 16, 3)).astype(dtype)
    qv, kv, vv = (ag.var(a, requires_grad=True) for a in (q, k, v))
    out = ag.attention(qv, kv, vv)
    ag.backward(ag.dot_sum(out, probe))
    return {"out": out.data, "q": qv.grad, "k": kv.grad, "v": vv.grad}


def loss_gradient_near_tiny(dtype):
    # logits spanning +-400: exp(z - zmax) / sez and the mean's 1/count
    # put part of the gradient below tiny, in float32 and float64
    r = np.random.default_rng(19)
    logits = ag.var(r.uniform(-400.0, 400.0, size=(2, 8, 8, 2 * 256)).astype(dtype),
                    requires_grad=True)
    c = logits.data.shape[3]
    eye = ag.var(np.eye(c, dtype=dtype).reshape(1, 1, c, c))
    loss = tr.masked_cross_entropy(logits, eye, ag.var(np.zeros(c, dtype)),
                                   r.integers(0, 256, size=(2, 8, 8, 2)),
                                   np.ones((2, 2), bool), 256)
    ag.backward(loss)
    return {"logits": logits.grad}


@needs_flush
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("case", [attention_near_tiny, loss_gradient_near_tiny],
                         ids=["attention", "loss"])
def test_near_tiny_inputs_give_no_subnormal(monkeypatch, case, dtype):
    flushed = case(dtype)
    for name, a in flushed.items():
        assert a.dtype == dtype and np.count_nonzero(a) > 0, name
        assert subnormal(a) == 0, name
    monkeypatch.setattr(vstain, "_libm", None)  # the same computation, unflushed
    for name, a in case(dtype).items():
        assert subnormal(a) > 0, name


@needs_flush
def test_predicted_probabilities_hold_no_subnormal(monkeypatch):
    # a head scaled up so that the 256-way logits span thousands: part
    # of each unflushed distribution lies below float32's tiny
    net = small_net()
    net.head_w.data = net.head_w.data * np.float32(400)
    image = np.random.default_rng(5).integers(0, 256, (16, 24)).astype(np.uint8)
    probs = inference.predict_image(net, image, step=8)
    assert np.count_nonzero(probs) > 0 and subnormal(probs) == 0
    monkeypatch.setattr(vstain, "_libm", None)
    assert subnormal(inference.predict_image(net, image, step=8)) > 0
