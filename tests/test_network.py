"""Network assembly: shape ledger, determinism, rendering, checkpoints."""

import hashlib
import io
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vstain import autograd as ag
from vstain import cli, gptt, inference
from vstain import network as nw
from vstain.errors import ConfigError, DataError, NumericError, ShapeError

from oracles import oracle_argmax, oracle_expectation, oracle_gptt_bytes, oracle_logits

TABLE_ROWS = [
    ("stem", 128, 32),
    ("enc1", 64, 64),
    ("enc2", 32, 128),
    ("enc3", 16, 256),
    ("bottom", 16, 384),
    ("dec1", 32, 288),
    ("dec2", 64, 165),
    ("dec3", 128, 90),
    ("head", 128, 2048),
]


def tiny_net(seed=0, **kwargs):
    cfg = nw.NetworkConfig.tiny(**kwargs)
    return cfg, nw.build(cfg, np.random.default_rng(seed))


def eval_logits(net, x):
    return oracle_logits(net, nw.forward(net, x, "eval").data)


def test_default_stage_ledger_matches_table():
    assert nw.stage_ledger(nw.NetworkConfig()) == TABLE_ROWS


@pytest.mark.parametrize("stages", [1, 2, 3])
@pytest.mark.parametrize("patch", [16, 32, 64, 128])
def test_the_largest_attention_layer_decides_the_window_gate(monkeypatch, patch, stages):
    # enc1 attends from p^2 keys to p^2/4 queries and the last decoder
    # the other way round; every deeper layer holds fewer scores
    cfg = nw.NetworkConfig(task_count=1, value_classes=2, patch_size=patch, growth_rate=2,
                           stem_channels=4, encoder_depths=(0,) * stages,
                           encoder_channels=(4,) * stages, bottom_depth=0,
                           bottom_channels=4, decoder_depths=(0,) * stages,
                           decoder_channels=(4,) * stages)
    net = nw.build(cfg, np.random.default_rng(0))
    shapes, attention = [], ag.attention

    def recording_attention(q, k, v):
        shapes.append((q.data.shape[1] * q.data.shape[2], k.data.shape[1] * k.data.shape[2]))
        return attention(q, k, v)

    monkeypatch.setattr(ag, "attention", recording_attention)
    x = ag.var(np.random.default_rng(1).random((1, patch, patch, 3)).astype(np.float32))
    with ag.no_grad():
        nw.forward(net, x, "eval")
    assert len(shapes) == 2 * stages + 1
    assert max(queries * keys for queries, keys in shapes) == patch ** 4 // 4
    assert inference._windows_per_worker(cfg) == any(
        ag._pooled(1, *s, ag.ATTENTION_BLOCK_SCORES) for s in shapes)
    assert inference._windows_per_worker(cfg) == (patch == 128)


def test_default_build_is_fast_and_consistent():
    import time
    t0 = time.monotonic()
    net = nw.build(nw.NetworkConfig(), np.random.default_rng(0))
    assert time.monotonic() - t0 < 1.0
    assert net.head_w.data.shape == (1, 1, 90, 2048)
    assert net.bottom_db.out_channels == 384


def test_parameter_count_regression():
    net = nw.build(nw.NetworkConfig(), np.random.default_rng(0))
    # pure function of the default config; update only on architecture changes
    assert net.parameter_count() == 4322663


def test_build_same_seed_identical():
    a = nw.build(nw.NetworkConfig.tiny(), np.random.default_rng(5))
    b = nw.build(nw.NetworkConfig.tiny(), np.random.default_rng(5))
    for (ka, va), (kb, vb) in zip(a.named_parameters().items(),
                                  b.named_parameters().items()):
        assert ka == kb
        assert np.array_equal(va.data, vb.data)


def test_decoder_concat_channel_ledger():
    # up-transformer halves channels; skips come from the matching resolution
    net = nw.build(nw.NetworkConfig(), np.random.default_rng(0))
    gut_in = [384, 288, 165]
    gut_out = [192, 144, 83]
    skip = [128, 64, 64]
    for (gut, db), ci, co, sk in zip(net.decoder, gut_in, gut_out, skip):
        assert gut.in_channels == ci
        assert gut.out_channels == co
        assert db.in_channels == co + sk


def test_forward_tiny_shapes_and_determinism():
    cfg, net = tiny_net()
    x = ag.var(np.random.default_rng(1).normal(size=(2, 16, 16, 3)).astype(np.float32))
    a = eval_logits(net, x)
    assert a.shape == (2, 16, 16, cfg.head_channels)
    b = eval_logits(net, x)
    assert np.array_equal(a, b)


def test_forward_rejects_wrong_patch_and_channels():
    cfg, net = tiny_net()
    with pytest.raises(ShapeError):
        nw.forward(net, ag.var(np.zeros((1, 8, 8, 3), np.float32)))
    with pytest.raises(ShapeError):
        nw.forward(net, ag.var(np.zeros((1, 16, 16, 2), np.float32)))


def test_forward_rejects_non_finite_activations():
    cfg, net = tiny_net()
    net.head_b.data = np.full_like(net.head_b.data, np.nan)
    with pytest.raises(NumericError):
        inference.predict_image(net, np.zeros((16, 16), np.float32), step=16)


def test_forward_shape_law_other_batch_and_input_channels():
    cfg = nw.NetworkConfig.tiny()
    cfg.input_channels = 2
    net = nw.build(cfg, np.random.default_rng(8))
    x = ag.var(np.random.default_rng(9).normal(size=(3, 16, 16, 6)).astype(np.float32))
    assert eval_logits(net, x).shape == (3, 16, 16, cfg.head_channels)


def test_full_size_forward_matches_table_output():
    net = nw.build(nw.NetworkConfig(), np.random.default_rng(0))
    x = ag.var(np.random.default_rng(1).normal(
        size=(1, 128, 128, 3)).astype(np.float32) * 0.3)
    with ag.no_grad():
        assert eval_logits(net, x).shape == (1, 128, 128, 2048)


def test_config_validation():
    with pytest.raises(ConfigError):
        nw.NetworkConfig(patch_size=100).validate()  # not divisible by 8
    with pytest.raises(ConfigError):
        nw.NetworkConfig(encoder_depths=(1, 1)).validate()  # list length mismatch
    with pytest.raises(ConfigError):
        nw.NetworkConfig(task_count=0).validate()
    with pytest.raises(ConfigError):
        nw.NetworkConfig.from_dict({"bogus_field": 1})


@pytest.mark.parametrize("fields", [
    {"growth_rate": 2**64},
    {"encoder_channels": (8, 2**62, 8)},
    {"qk_channels": 2**64},
    {"task_count": 2**61},
    {"bottom_depth": 2**40},
    {"encoder_depths": (1, 2**40, 1)},
    {"decoder_depths": (2**40, 1, 1)},
], ids=["growth", "channels", "qk", "tasks", "bottom-depth", "encoder-depth",
        "decoder-depth"])
def test_config_too_large_for_arrays_is_config_error(fields):
    # the depth cases stay fast only while the count is closed-form per block
    with pytest.raises(ConfigError, match="too large"):
        nw.NetworkConfig(**fields).validate()


@st.composite
def small_configs(draw):
    n = draw(st.integers(1, 3))
    counts = lambda lo, hi: st.lists(st.integers(lo, hi), min_size=n, max_size=n)
    return nw.NetworkConfig(
        input_channels=draw(st.integers(1, 2)), task_count=draw(st.integers(1, 3)),
        value_classes=draw(st.integers(1, 4)), patch_size=1 << n,
        growth_rate=draw(st.integers(1, 4)), stem_channels=draw(st.integers(1, 6)),
        encoder_depths=tuple(draw(counts(0, 3))), encoder_channels=tuple(draw(counts(1, 9))),
        bottom_depth=draw(st.integers(0, 3)), bottom_channels=draw(st.integers(1, 9)),
        decoder_depths=tuple(draw(counts(0, 3))), decoder_channels=tuple(draw(counts(1, 9))),
        qk_channels=draw(st.none() | st.integers(1, 5)))


@settings(max_examples=60, deadline=None)
@given(cfg=small_configs())
def test_checkpoint_elements_counts_what_build_allocates(cfg):
    net = nw.build(cfg, np.random.default_rng(0))
    params = {k: v.data for k, v in net.named_parameters().items()}
    for optimizer in (None, {"m": params, "v": params}):
        held = sum(a.size for _, a in nw.checkpoint_tensors(net, optimizer))
        assert nw.checkpoint_elements(cfg, optimizer is not None) == held


def test_predict_distributions_uniform_for_zero_logits():
    probs = nw.predict_distributions(np.zeros((1, 2, 2, 8)), 2, 4)
    assert probs.shape == (1, 2, 2, 2, 4)
    assert np.allclose(probs, 0.25)


def test_predict_distributions_shift_invariance_and_argmax():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(1, 3, 3, 8))
    probs = nw.predict_distributions(logits, 2, 4)
    assert np.allclose(probs.sum(-1), 1.0, atol=1e-6)
    shifted = logits + rng.normal(size=(1, 3, 3, 2)).repeat(4, axis=-1)
    assert np.allclose(probs, nw.predict_distributions(shifted, 2, 4), atol=1e-6)
    assert np.array_equal(probs.argmax(-1),
                          logits.reshape(1, 3, 3, 2, 4).argmax(-1))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize("at", [(0, 0), (1, 3), (0, 2)])
def test_logits_single_non_finite_is_numeric_error(value, at):
    # one non-finite head bias entry: predict's head check sees that task
    # and class non-finite, whatever the window's features
    cfg, net = tiny_net()
    task, cls = at
    net.head_b.data[task * cfg.value_classes + cls] = value
    image = np.random.default_rng(1).uniform(0, 255, size=(24, 20))
    with pytest.raises(NumericError, match="non-finite logits"):
        inference.predict_image(net, image, step=8)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_predict_distributions_inplace_writes_over_its_input(dtype):
    logits = np.random.default_rng(2).normal(size=(2, 3, 4, 2 * 8)).astype(dtype) * 9
    keep = logits.copy()
    probs = nw.predict_distributions(logits, 2, 8)
    assert np.array_equal(logits, keep)  # the copying form leaves its input alone
    out = nw.predict_distributions_inplace(logits, 2, 8)
    assert np.shares_memory(out, logits)
    assert out.dtype == dtype
    assert np.array_equal(out, probs)


def _distributions_with_half_boundaries(shape, v=256):
    """float32 distributions (N, H, W, T, V): random ones, plus pixels whose
    expectation is exactly k + 0.5, a few float64 ulps below it, or
    within float32 rounding of it."""
    r = np.random.default_rng(9)
    probs = r.random(shape + (v,)).astype(np.float32) ** 8
    probs /= probs.sum(axis=-1, keepdims=True)
    flat = probs.reshape(-1, v)
    for i, k in enumerate(r.integers(1, v - 6, size=flat.shape[0] // 2)):
        px = flat[2 * i]
        px[:] = 0
        if i % 3 == 0:
            px[k:k + 2] = 0.5                       # exactly k + 0.5
        elif i % 3 == 1:
            d = np.float32(2.0 ** -25 * (1 + i % 4))
            px[k:k + 2] = 0.5 + d, 0.5 - d          # k + 0.5 - d: rounds down
        else:
            px[k:k + 6] = np.float32(1 / 6)         # k + 2.5 up to rounding
    return probs


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_expectation_render_matches_one_shot_oracle(dtype):
    probs = _distributions_with_half_boundaries((2, 9, 7, 3)).astype(dtype)
    for t in range(3):
        got = nw.distributions_to_image(probs, t, "expectation")
        assert np.array_equal(got, oracle_expectation(probs, t))


def test_expectation_render_holds_no_full_size_float64():
    probs = np.full((1, 64, 64, 1, 256), 1 / 256, dtype=np.float32)
    tracemalloc.start()
    try:
        nw.distributions_to_image(probs, 0, "expectation")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < probs.size * 8 / 4  # a quarter of one (H, W, 256) float64


def test_renders_of_predict_paper_distributions_hold_about_their_output(use_pool):
    # predict-paper's (1, 192, 192, 8, 256) float32 distributions: argmax
    # once copied each worker's strided slice of rows, 38 MB in all
    use_pool(workers=2)
    probs = np.zeros((1, 192, 192, 8, 256), dtype=np.float32)
    task = probs[:, :, :, 5]
    # quarter steps leave ties, which resolve to the lower class
    task[...] = np.random.default_rng(17).integers(0, 4, task.shape, dtype=np.uint8)
    task /= task.sum(axis=-1, keepdims=True)
    for render, oracle in (("argmax", oracle_argmax), ("expectation", oracle_expectation)):
        tracemalloc.start()
        try:
            got = nw.distributions_to_image(probs, 5, render)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, oracle(probs, 5)), render
        if render == "argmax":
            assert peak - got.nbytes < 2 << 20


def test_render_one_hot():
    probs = np.zeros((1, 1, 1, 1, 256))
    probs[..., 200] = 1.0
    assert nw.distributions_to_image(probs, 0, "argmax")[0, 0, 0] == 200
    assert nw.distributions_to_image(probs, 0, "expectation")[0, 0, 0] == 200


def test_render_uniform_expectation_rounds_half_up():
    probs = np.full((1, 1, 1, 1, 256), 1 / 256)
    assert nw.distributions_to_image(probs, 0, "expectation")[0, 0, 0] == 128


def test_render_tie_break_and_bimodal_expectation():
    probs = np.zeros((1, 1, 1, 1, 256))
    probs[..., 0] = 0.5
    probs[..., 255] = 0.5
    assert nw.distributions_to_image(probs, 0, "argmax")[0, 0, 0] == 0
    assert nw.distributions_to_image(probs, 0, "expectation")[0, 0, 0] == 128


def test_render_bad_task():
    probs = np.zeros((1, 1, 1, 2, 4))
    with pytest.raises(ShapeError):
        nw.distributions_to_image(probs, 2, "argmax")


def test_render_unknown_reduction():
    with pytest.raises(ShapeError, match="unknown reduction 'median'"):
        nw.distributions_to_image(np.zeros((1, 1, 1, 2, 4)), 0, "median")


def test_checkpoint_round_trip_bit_exact(tmp_path):
    cfg, net = tiny_net(seed=3)
    x = ag.var(np.random.default_rng(4).normal(size=(1, 16, 16, 3)).astype(np.float32))
    # move running stats off their defaults so state is exercised
    nw.forward(net, x, "train", np.random.default_rng(5))
    before = eval_logits(net, x)
    path = tmp_path / "net.gptc"
    rng_state = np.random.default_rng(2).bit_generator.state
    nw.save_checkpoint(path, net, step=11, rng_state=rng_state)
    loaded, extras = nw.load_checkpoint(path)
    assert extras["step"] == 11
    assert extras["rng_state"] == rng_state
    after = eval_logits(loaded, ag.var(x.data))
    assert np.array_equal(before, after)


def test_checkpoint_bytes_deterministic(tmp_path):
    _, net = tiny_net(seed=6)
    a, b = tmp_path / "a.gptc", tmp_path / "b.gptc"
    nw.save_checkpoint(a, net, step=1)
    nw.save_checkpoint(b, net, step=1)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("error", [OSError("no space left on device"), KeyboardInterrupt()])
@pytest.mark.parametrize("older", [False, True])
def test_interrupted_save_leaves_no_partial_file(monkeypatch, tmp_path, error, older):
    # the third tensor's write fails: nothing but a whole older file may
    # stay under the final name, and no temporary file stays beside it
    _, net = tiny_net()
    path = tmp_path / "net.gptc"
    if older:
        nw.save_checkpoint(path, net, step=1)
    before = path.read_bytes() if older else None
    calls, write = [], gptt.write_gptt

    def failing_write(f, t):
        calls.append(1)
        if len(calls) == 3:
            raise error
        write(f, t)

    monkeypatch.setattr(gptt, "write_gptt", failing_write)
    with pytest.raises(type(error)):
        nw.save_checkpoint(path, net, step=2)
    assert len(calls) == 3
    assert [p.name for p in tmp_path.iterdir()] == (["net.gptc"] if older else [])
    if older:
        assert path.read_bytes() == before


def test_checkpoint_corruption_detected(tmp_path):
    _, net = tiny_net(seed=7)
    path = tmp_path / "c.gptc"
    nw.save_checkpoint(path, net)
    raw = bytearray(path.read_bytes())
    raw[0] = ord(b"X")
    bad = tmp_path / "bad.gptc"
    bad.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        nw.load_checkpoint(bad)
    truncated = tmp_path / "tr.gptc"
    truncated.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(DataError):
        nw.load_checkpoint(truncated)


def _saved_with_optimizer(tmp_path):
    _, net = tiny_net(seed=8)
    params = net.named_parameters()
    moments = {k: np.full_like(v.data, 0.5) for k, v in params.items()}
    path = tmp_path / "ok.gptc"
    nw.save_checkpoint(path, net, step=3,
                       optimizer={"t": 3, "m": moments, "v": moments})
    return path


def _rewrite(path, edit):
    """Rewrite a checkpoint as edit(header bytes, [(name, blob)]) returns it."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", raw, 8)
    hbytes = raw[16:16 + hlen]
    f, blobs = io.BytesIO(raw), []
    f.seek(16 + hlen)
    for name in json.loads(hbytes)["tensors"]:
        start = f.tell()
        gptt.read_gptt(f)
        blobs.append((name, raw[start:f.tell()]))
    hbytes, blobs = edit(hbytes, blobs)
    bad = path.with_name("bad.gptc")
    bad.write_bytes(nw.CHECKPOINT_MAGIC
                    + struct.pack("<IQ", nw.CHECKPOINT_VERSION, len(hbytes))
                    + hbytes + b"".join(blob for _, blob in blobs))
    return bad


def _flip_first_header_byte(hbytes, blobs):
    return bytes([hbytes[0] ^ 0x80]) + hbytes[1:], blobs


def _without_key(key):
    def edit(hbytes, blobs):
        header = json.loads(hbytes)
        del header[key]
        return json.dumps(header).encode(), blobs
    return edit


def _without_tensor(prefix):
    def edit(hbytes, blobs):
        header = json.loads(hbytes)
        drop = next(name for name, _ in blobs if name.startswith(prefix))
        header["tensors"].remove(drop)
        return (json.dumps(header).encode(),
                [(name, blob) for name, blob in blobs if name != drop])
    return edit


def _with_header(**fields):
    def edit(hbytes, blobs):
        header = json.loads(hbytes)
        for key, value in fields.items():
            target = header["config"] if key in header["config"] else header
            target[key] = value
        return json.dumps(header).encode(), blobs
    return edit


def _with_blob(prefix, make):
    """Replace the first tensor under `prefix` with make(its array)."""
    def edit(hbytes, blobs):
        i = next(i for i, (name, _) in enumerate(blobs) if name.startswith(prefix))
        name, blob = blobs[i]
        blobs[i] = (name, oracle_gptt_bytes(make(gptt.read_gptt(io.BytesIO(blob)))))
        return hbytes, blobs
    return edit


def _with_extra_name(hbytes, blobs):
    # a listed name with no blob: only the name-list check can see it
    header = json.loads(hbytes)
    header["tensors"].append("param/extra")
    return json.dumps(header).encode(), blobs


def _last_blob_overruns(hbytes, blobs):
    name, blob = blobs[-1]
    (first,) = struct.unpack_from("<I", blob, 6)
    blobs[-1] = (name, blob[:6] + struct.pack("<I", first + 1) + blob[10:])
    return hbytes, blobs


@pytest.mark.parametrize("edit", [
    _flip_first_header_byte,
    lambda h, b: (b"not json", b),
    lambda h, b: (b"[1, 2]", b),
    lambda h, b: (b"[" * 100_000, b),
    _without_key("config"),
    _without_key("tensors"),
    _without_tensor("param/"),
    _without_tensor("state/"),
    _without_tensor("adam.m/"),
    _without_tensor("adam.v/"),
    _with_blob("state/", lambda a: np.zeros(1)),
    _with_blob("adam.m/", lambda a: a.reshape(-1)),
    _with_extra_name,
    _with_header(optimizer={}),
    _last_blob_overruns,
    _with_header(patch_size="16"),
    _with_header(patch_size=12),
    _with_header(growth_rate=2**64),
    _with_header(step="1"),
    _with_header(rng_state={"bit_generator": "PCG64", "state": {"state": "1", "inc": 3},
                            "has_uint32": 0, "uinteger": 0}),
], ids=["header-not-utf8", "header-not-json", "header-not-object",
        "header-nested-too-deep", "no-config", "no-tensors", "no-param-tensor",
        "no-state-tensor", "no-adam-m-tensor", "no-adam-v-tensor", "state-wrong-shape",
        "adam-m-wrong-shape", "extra-tensor-name", "optimizer-without-t",
        "blob-overruns-file", "config-value-wrong-type", "config-invalid",
        "config-too-large-for-arrays", "step-not-int", "rng-state-not-pcg64"])
def test_corrupt_checkpoint_is_data_error(tmp_path, capsys, edit):
    path = _saved_with_optimizer(tmp_path)
    assert "optimizer" in nw.load_checkpoint(path)[1]
    bad = _rewrite(path, edit)
    with pytest.raises(DataError):
        nw.load_checkpoint(bad)
    assert cli.main(["inspect", "--checkpoint", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_load_checkpoint_reads_straight_into_the_tensors(tmp_path):
    net = nw.build(nw.NetworkConfig(), np.random.default_rng(0))
    params = {k: v.data for k, v in net.named_parameters().items()}
    path = tmp_path / "net.gptc"
    nw.save_checkpoint(path, net, optimizer={"t": 1, "m": params, "v": params})
    del net, params
    tracemalloc.start()
    try:
        loaded, extras = nw.load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert extras["optimizer"]["t"] == 1
    assert peak <= path.stat().st_size + (4 << 20)


def test_default_checkpoint_tensor_names_pinned():
    # sha256 of the name list the format has always written; renaming or
    # reordering any tensor breaks every existing checkpoint
    net = nw.build(nw.NetworkConfig(), np.random.default_rng(0))
    params = {k: v.data for k, v in net.named_parameters().items()}
    names = [name for name, _ in nw.checkpoint_tensors(net, {"m": params, "v": params})]
    assert len(names) == 586
    digest = hashlib.sha256(json.dumps(names).encode()).hexdigest()
    assert digest == "ce547058eaebaf3dc207a479264e78cc44ce6f1546403e4def5bacc9636b92f1"


def test_save_checkpoint_writes_from_the_arrays(tmp_path):
    net = nw.build(nw.NetworkConfig(), np.random.default_rng(0))
    params = {k: v.data for k, v in net.named_parameters().items()}
    optimizer = {"t": 1, "m": params, "v": params}
    largest = max(a.nbytes for _, a in nw.checkpoint_tensors(net, optimizer))
    tracemalloc.start()
    try:
        nw.save_checkpoint(tmp_path / "net.gptc", net, optimizer=optimizer)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < largest


def _arange_like(a, scale, shift):
    return (np.arange(a.size, dtype=np.float32) * scale + shift).reshape(a.shape)


def test_tiny_checkpoint_bytes_pinned(tmp_path):
    # every tensor is filled from np.arange, so the bytes depend on the
    # format alone, not on the initialiser's random stream
    _, net = tiny_net()
    params = net.named_parameters()
    for i, v in enumerate(params.values()):
        v.data = _arange_like(v.data, 0.25, i)
    for i, st in enumerate(net.named_state().values()):
        st.mean = _arange_like(st.mean, 0.5, -i)
        st.var = _arange_like(st.var, 1.0, 1 + i)
    optimizer = {"t": 5,
                 "m": {k: _arange_like(v.data, 0.125, 0) for k, v in params.items()},
                 "v": {k: _arange_like(v.data, 0.0625, 1) for k, v in params.items()}}
    path = tmp_path / "tiny.gptc"
    # load_checkpoint accepts only null or a real PCG64 state
    rng_state = {"bit_generator": "PCG64", "state": {"state": 1, "inc": 3},
                 "has_uint32": 0, "uinteger": 0}
    nw.save_checkpoint(path, net, step=7, optimizer=optimizer, rng_state=rng_state)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "c94f5069e07d06afa3b29f965cae1724fb6049587be67c215390489b53a2f738"
    loaded, extras = nw.load_checkpoint(path)
    again = tmp_path / "again.gptc"
    nw.save_checkpoint(again, loaded, step=extras["step"],
                       optimizer=extras["optimizer"], rng_state=extras["rng_state"])
    assert again.read_bytes() == path.read_bytes()
