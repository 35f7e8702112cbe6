"""GPTT tensor file format: bit-exact round trips and diagnostics."""

import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vstain import gptt
from vstain.errors import DataError

from oracles import oracle_gptt_bytes


@pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 4), (2, 3, 4, 5)])
def test_round_trip_bit_exact(shape, tmp_path):
    arr = np.random.default_rng(7).normal(size=shape).astype(np.float32)
    path = tmp_path / "t.gptt"
    gptt.save_gptt(path, arr)
    back = gptt.load_gptt(path)
    assert back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


def test_header_layout():
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    raw = gptt.write_gptt_bytes(arr)
    assert raw[:4] == b"GPTT"
    version, rank = struct.unpack_from("<BB", raw, 4)
    assert (version, rank) == (1, 2)
    assert struct.unpack_from("<2I", raw, 6) == (2, 3)
    assert np.frombuffer(raw, dtype="<f4", offset=14).tolist() == arr.reshape(-1).tolist()


def test_bad_magic_reports_offset():
    with pytest.raises(DataError, match="byte 0"):
        gptt.read_gptt_bytes(b"NOPE" + bytes(16))


def test_truncated_payload_reports_offset():
    raw = gptt.write_gptt_bytes(np.zeros((2, 2), np.float32))
    with pytest.raises(DataError, match="byte"):
        gptt.read_gptt_bytes(raw[:-3])


def test_unsupported_version():
    raw = bytearray(gptt.write_gptt_bytes(np.zeros(2, np.float32)))
    raw[4] = 9
    with pytest.raises(DataError, match="version"):
        gptt.read_gptt_bytes(bytes(raw))


def test_write_is_deterministic(tmp_path):
    arr = np.random.default_rng(0).normal(size=(4, 4)).astype(np.float32)
    a, b = tmp_path / "a.gptt", tmp_path / "b.gptt"
    gptt.save_gptt(a, arr)
    gptt.save_gptt(b, arr)
    assert a.read_bytes() == b.read_bytes()


def _sample(shape, dtype="<f4"):
    return np.random.default_rng(11).normal(size=shape).astype(dtype)


WRITER_CASES = {
    "float32-c-order": lambda: _sample((3, 4, 5)),
    "float64": lambda: _sample((3, 4), np.float64),
    "non-contiguous-view": lambda: _sample((6, 8, 3))[::2, 1::3].transpose(1, 0, 2),
    "big-endian-f4": lambda: _sample((4, 5), ">f4"),
    "rank-1": lambda: _sample((7,)),
    "rank-5": lambda: _sample((2, 1, 3, 2, 2)),
}


@pytest.mark.parametrize("case", WRITER_CASES)
def test_writer_matches_one_shot_bytes(case, tmp_path):
    arr = WRITER_CASES[case]()
    expected = oracle_gptt_bytes(arr)
    f = io.BytesIO()
    gptt.write_gptt(f, arr)
    assert f.getvalue() == expected
    assert gptt.write_gptt_bytes(arr) == expected
    gptt.save_gptt(tmp_path / "t.gptt", arr)
    assert (tmp_path / "t.gptt").read_bytes() == expected


def test_bad_shape_leaves_no_file(tmp_path):
    path = tmp_path / "t.gptt"
    with pytest.raises(DataError, match="extent"):
        gptt.save_gptt(path, np.zeros((2, 0), np.float32))
    assert not path.exists()


def test_save_writes_from_the_array_buffer(tmp_path):
    arr = np.ones((4096, 4096), np.float32)  # 64 MiB
    tracemalloc.start()
    try:
        gptt.save_gptt(tmp_path / "big.gptt", arr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert (tmp_path / "big.gptt").stat().st_size == 14 + arr.nbytes


DTYPES = st.sampled_from(["<f4", ">f4", "<f2", "<f8", ">f8", "<i4", "u1"])


@settings(max_examples=80, deadline=None)
@given(shape=st.lists(st.integers(1, 5), min_size=1, max_size=5),
       dtype=DTYPES, seed=st.integers(0, 2**32 - 1))
def test_round_trip_random_shapes_and_dtypes(shape, dtype, seed):
    raw = np.random.default_rng(seed).integers(0, 256, size=int(np.prod(shape)) *
                                               np.dtype(dtype).itemsize, dtype=np.uint8)
    arr = raw.view(dtype).reshape(shape)  # any bit pattern, NaN payloads included
    with np.errstate(over="ignore", invalid="ignore"):  # float64 NaN or out of range
        back = gptt.read_gptt_bytes(gptt.write_gptt_bytes(arr))
        expected = np.ascontiguousarray(arr, dtype="<f4")
    assert back.shape == arr.shape
    assert back.dtype == np.float32
    assert back.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(shape=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       cut=st.integers(0, 200), flips=st.lists(
           st.tuples(st.integers(0, 10**6), st.integers(1, 255)), max_size=4))
def test_truncated_or_flipped_blob_reads_or_raises_data_error(shape, cut, flips):
    raw = bytearray(gptt.write_gptt_bytes(np.arange(np.prod(shape), dtype=np.float32)
                                          .reshape(shape)))
    for pos, mask in flips:
        raw[pos % len(raw)] ^= mask
    del raw[len(raw) - min(cut, len(raw)):]
    try:
        arr = gptt.read_gptt_bytes(bytes(raw))
    except DataError:
        return
    assert isinstance(arr, np.ndarray)
    assert arr.dtype == np.float32
