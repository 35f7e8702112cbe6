"""Hostile file contents: a malformed GPTC checkpoint, PGM image or
manifest is a DataError or ConfigError (exit 3 or 2), never another
exception, and is rejected before anything its header describes is
allocated."""

import contextlib
import functools
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vstain import cli, data_io
from vstain import network as nw
from vstain.errors import DataError

FLIPS = st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), max_size=4)


def _mutate(raw, flips, cut):
    raw = bytearray(raw)
    for pos, mask in flips:
        raw[pos % len(raw)] ^= mask
    del raw[len(raw) - min(cut, len(raw)):]
    return bytes(raw)


# ---------------------------------------------------------------------------
# GPTC checkpoints
# ---------------------------------------------------------------------------

@functools.cache
def _checkpoint():
    """(header, blob bytes) of a tiny-config checkpoint with Adam moments."""
    net = nw.build(nw.NetworkConfig.tiny(), np.random.default_rng(0))
    params = {k: v.data for k, v in net.named_parameters().items()}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.gptc"
        nw.save_checkpoint(path, net, step=2, optimizer={"t": 2, "m": params, "v": params})
        raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", raw, 8)
    return json.loads(raw[16:16 + hlen]), raw[16 + hlen:]


def _gptc(header, blobs):
    hbytes = json.dumps(header).encode()
    return (nw.CHECKPOINT_MAGIC + struct.pack("<IQ", nw.CHECKPOINT_VERSION, len(hbytes))
            + hbytes + blobs)


def _inspect(raw):
    """Exit code of `vstain inspect` on a checkpoint holding `raw`; a
    failure must be one `error:` line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.gptc"
        path.write_bytes(raw)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["inspect", "--checkpoint", str(path)])
    assert code in (0, 3)
    if code:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    return code


def test_untouched_checkpoint_inspects():
    assert _inspect(_gptc(*_checkpoint())) == 0


@settings(max_examples=150, deadline=None)
@given(flips=FLIPS, cut=st.integers(0, 80_000))
def test_flipped_or_truncated_checkpoint_loads_or_exits_3(flips, cut):
    _inspect(_mutate(_gptc(*_checkpoint()), flips, cut))


HEADER_FIELDS = ("step", "optimizer", "rng_state", "tensors", "format", "version")
CONFIG_FIELDS = tuple(nw.NetworkConfig.__dataclass_fields__)
HOSTILE_INTS = (-1, -(2**64), 0, 10**6, 2**64)
HOSTILE_VALUES = st.sampled_from((None, "16", "", 0.5, True, {}, *HOSTILE_INTS)) | st.lists(
    st.sampled_from((1, *HOSTILE_INTS, None, "1")), max_size=4)


@settings(max_examples=300, deadline=None, database=None)
@given(edits=st.lists(st.tuples(st.sampled_from(CONFIG_FIELDS + HEADER_FIELDS),
                                 HOSTILE_VALUES), min_size=1, max_size=3))
@example(edits=[("qk_channels", 10**6)])
@example(edits=[("growth_rate", 2**64)])
@example(edits=[("encoder_channels", [10**6, 10**6, 10**6])])
@example(edits=[("task_count", 10**6), ("optimizer", None)])
def hostile_header_cases(edits):
    """Header-field mutations; run only in a child process whose address
    space is capped, so a header that makes the loader allocate what it
    describes fails there instead of exhausting the machine."""
    header, blobs = _checkpoint()
    header = json.loads(json.dumps(header))
    for field, value in edits:
        (header["config"] if field in CONFIG_FIELDS else header)[field] = value
    _inspect(_gptc(header, blobs))


def test_hostile_header_fields_exit_3_in_a_1_gib_address_space():
    tests = Path(__file__).resolve().parent
    src = str(Path(nw.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, str(tests),
                                                      env.get("PYTHONPATH")]))
    child = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
             "import test_fuzz; test_fuzz.hostile_header_cases()")
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]


# ---------------------------------------------------------------------------
# PGM images
# ---------------------------------------------------------------------------

def _pgm(w, h, maxval, body):
    return b"P5\n" + w + b" " + h + b"\n" + maxval + b"\n" + body


def _load_pgm(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.pgm"
        path.write_bytes(raw)
        try:
            img = data_io.load_pgm(path)
        except DataError:
            return None
    assert img.dtype == np.float32 and img.ndim == 2
    return img


@settings(max_examples=200, deadline=None)
@given(w=st.integers(1, 6), h=st.integers(1, 6), flips=FLIPS, cut=st.integers(0, 40))
def test_flipped_or_truncated_pgm_loads_or_raises_data_error(w, h, flips, cut):
    raw = _pgm(str(w).encode(), str(h).encode(), b"255", bytes(range(w * h)))
    _load_pgm(_mutate(raw, flips, cut))


TOKENS = st.sampled_from([b"4", b"0", b"-1", b"255", b"1e3", b"x", b"\xff", b"2" * 5000,
                          str(10**6).encode(), str(2**64).encode()])


@settings(max_examples=150, deadline=None)
@given(w=TOKENS, h=TOKENS, maxval=TOKENS)
def test_hostile_pgm_header_is_data_error_before_allocation(w, h, maxval):
    img = _load_pgm(_pgm(w, h, maxval, bytes(16)))
    assert img is None or (img.size == 16 and maxval == b"255")


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["samples", "input", "targets", "split", "condition",
                         "task_names", "0", "1", "x"]), inner, max_size=4),
    max_leaves=12)
VALID_MANIFEST = json.dumps({
    "task_names": ["nuclei", "viability"],
    "samples": [{"input": "a.pgm", "targets": {"0": "b.pgm"}, "condition": "c",
                 "split": "train"}],
}).encode()


def _load_manifest(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.json"
        path.write_bytes(raw)
        try:
            manifest = data_io.load_manifest(path)
        except DataError:
            return
    assert all(isinstance(s.input_path, str) for s in manifest.samples)
    assert all(isinstance(n, str) for n in manifest.task_names)


@settings(max_examples=200, deadline=None)
@given(doc=JSON)
def test_any_json_manifest_loads_or_raises_data_error(doc):
    _load_manifest(json.dumps(doc).encode())


@settings(max_examples=200, deadline=None)
@given(flips=FLIPS, cut=st.integers(0, 200))
@example(flips=[(0, 0x80)], cut=0)  # first byte no longer valid UTF-8
def test_flipped_or_truncated_manifest_loads_or_raises_data_error(flips, cut):
    _load_manifest(_mutate(VALID_MANIFEST, flips, cut))


@pytest.mark.parametrize("raw", [b"[" * 100_000, b'{"samples": ' + b"[" * 100_000],
                         ids=["nested-lists", "nested-samples"])
def test_deeply_nested_manifest_is_data_error(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.json"
        path.write_bytes(raw)
        with pytest.raises(DataError):
            data_io.load_manifest(path)
