"""Network assembly: shape ledger, determinism, rendering, checkpoints."""

import json
import struct

import numpy as np
import pytest

from vstain import autograd as ag
from vstain import network as nw
from vstain.errors import ConfigError, DataError, ShapeError

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


def test_default_stage_ledger_matches_table():
    assert nw.stage_ledger(nw.NetworkConfig()) == TABLE_ROWS


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
    a = nw.forward(net, x, "eval").data
    assert a.shape == (2, 16, 16, cfg.head_channels)
    b = nw.forward(net, x, "eval").data
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
    with pytest.raises(nw.NumericError):
        nw.forward(net, ag.var(np.zeros((1, 16, 16, 3), np.float32)))


def test_forward_shape_law_other_batch_and_input_channels():
    cfg = nw.NetworkConfig.tiny()
    cfg.input_channels = 2
    net = nw.build(cfg, np.random.default_rng(8))
    x = ag.var(np.random.default_rng(9).normal(size=(3, 16, 16, 6)).astype(np.float32))
    out = nw.forward(net, x, "eval")
    assert out.data.shape == (3, 16, 16, cfg.head_channels)


def test_full_size_forward_matches_table_output():
    net = nw.build(nw.NetworkConfig(), np.random.default_rng(0))
    x = ag.var(np.random.default_rng(1).normal(
        size=(1, 128, 128, 3)).astype(np.float32) * 0.3)
    with ag.no_grad():
        out = nw.forward(net, x, "eval")
    assert out.data.shape == (1, 128, 128, 2048)


def test_config_validation():
    with pytest.raises(ConfigError):
        nw.NetworkConfig(patch_size=100).validate()  # not divisible by 8
    with pytest.raises(ConfigError):
        nw.NetworkConfig(encoder_depths=(1, 1)).validate()  # list length mismatch
    with pytest.raises(ConfigError):
        nw.NetworkConfig(task_count=0).validate()
    with pytest.raises(ConfigError):
        nw.NetworkConfig.from_dict({"bogus_field": 1})


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


def test_checkpoint_round_trip_bit_exact(tmp_path):
    cfg, net = tiny_net(seed=3)
    x = ag.var(np.random.default_rng(4).normal(size=(1, 16, 16, 3)).astype(np.float32))
    # move running stats off their defaults so state is exercised
    nw.forward(net, x, "train", np.random.default_rng(5))
    before = nw.forward(net, x, "eval").data
    path = tmp_path / "net.gptc"
    nw.save_checkpoint(path, net, step=11, rng_state={"k": 2})
    loaded, extras = nw.load_checkpoint(path)
    assert extras["step"] == 11
    assert extras["rng_state"] == {"k": 2}
    after = nw.forward(loaded, ag.var(x.data), "eval").data
    assert np.array_equal(before, after)


def test_checkpoint_bytes_deterministic(tmp_path):
    _, net = tiny_net(seed=6)
    a, b = tmp_path / "a.gptc", tmp_path / "b.gptc"
    nw.save_checkpoint(a, net, step=1)
    nw.save_checkpoint(b, net, step=1)
    assert a.read_bytes() == b.read_bytes()


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
    offset, blobs = 16 + hlen, []
    for name in json.loads(hbytes)["tensors"]:
        rank = raw[offset + 5]
        dims = struct.unpack_from(f"<{rank}I", raw, offset + 6)
        end = offset + 6 + 4 * rank + 4 * int(np.prod(dims))
        blobs.append((name, raw[offset:end]))
        offset = end
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


@pytest.mark.parametrize("edit", [
    _flip_first_header_byte,
    lambda h, b: (b"not json", b),
    lambda h, b: (b"[1, 2]", b),
    _without_key("config"),
    _without_key("tensors"),
    _without_tensor("param/"),
    _without_tensor("state/"),
    _without_tensor("adam.m/"),
    _without_tensor("adam.v/"),
], ids=["header-not-utf8", "header-not-json", "header-not-object",
        "no-config", "no-tensors", "no-param-tensor", "no-state-tensor",
        "no-adam-m-tensor", "no-adam-v-tensor"])
def test_corrupt_checkpoint_is_data_error(tmp_path, edit):
    path = _saved_with_optimizer(tmp_path)
    assert "optimizer" in nw.load_checkpoint(path)[1]
    with pytest.raises(DataError):
        nw.load_checkpoint(_rewrite(path, edit))
