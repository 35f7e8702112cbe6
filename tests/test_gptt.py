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


def _write(arr):
    f = io.BytesIO()
    gptt.write_gptt(f, arr)
    return f.getvalue()


def _read(raw):
    return gptt.read_gptt(io.BytesIO(raw))


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
    raw = _write(arr)
    assert raw[:4] == b"GPTT"
    version, rank = struct.unpack_from("<BB", raw, 4)
    assert (version, rank) == (1, 2)
    assert struct.unpack_from("<2I", raw, 6) == (2, 3)
    assert np.frombuffer(raw, dtype="<f4", offset=14).tolist() == arr.reshape(-1).tolist()


def test_bad_magic_reports_offset():
    with pytest.raises(DataError, match="byte 0"):
        _read(b"NOPE" + bytes(16))


def test_truncated_payload_reports_offset():
    raw = _write(np.zeros((2, 2), np.float32))
    with pytest.raises(DataError, match="byte"):
        _read(raw[:-3])


def test_unsupported_version():
    raw = bytearray(_write(np.zeros(2, np.float32)))
    raw[4] = 9
    with pytest.raises(DataError, match="version"):
        _read(bytes(raw))


# one (2, 3) blob read at byte 3 of a file: every diagnostic keeps its
# message and its absolute byte offset
BLOB = oracle_gptt_bytes(np.zeros((2, 3), np.float32))
READ_ERRORS = {
    "truncated-header": (BLOB[:5], "src: truncated gptt header at byte 8"),
    "bad-magic": (b"GPTX" + BLOB[4:], "src: bad magic b'GPTX' at byte 3"),
    "wrong-version": (BLOB[:4] + b"\x09" + BLOB[5:],
                      "src: unsupported gptt version 9 at byte 7"),
    "truncated-extents": (BLOB[:10], "src: truncated extents at byte 13 (need 17)"),
    "zero-extent": (BLOB[:10] + struct.pack("<I", 0) + BLOB[14:],
                    "src: zero extent in header at byte 9"),
    "overrunning-payload": (BLOB[:-1],
                            "src: truncated payload at byte 17: 40 bytes, blob needs 41"),
}


@pytest.mark.parametrize("case", READ_ERRORS)
def test_read_errors_keep_message_and_offset(case):
    raw, message = READ_ERRORS[case]
    f = io.BytesIO(b"abc" + raw)
    f.seek(3)
    with pytest.raises(DataError) as exc:
        gptt.read_gptt(f, "src")
    assert str(exc.value) == message


def test_read_leaves_the_file_after_the_blob():
    a, b = np.arange(6, dtype=np.float32).reshape(2, 3), np.full(4, 7, np.float32)
    f = io.BytesIO(_write(a) + _write(b))
    assert gptt.read_gptt(f).tobytes() == a.tobytes()
    assert f.tell() == len(BLOB)
    assert gptt.read_gptt(f).tobytes() == b.tobytes()
    assert f.read() == b""


def test_load_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "t.gptt"
    path.write_bytes(BLOB + b"x")
    with pytest.raises(DataError) as exc:
        gptt.load_gptt(path)
    assert str(exc.value) == (f"{path}: payload length mismatch at byte 38: "
                              "file has 39 bytes, expected 38")


def test_load_reads_straight_into_the_array(tmp_path):
    arr = np.ones((4096, 4096), np.float32)  # 64 MiB
    gptt.save_gptt(tmp_path / "big.gptt", arr)
    del arr
    tracemalloc.start()
    try:
        back = gptt.load_gptt(tmp_path / "big.gptt")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.shape == (4096, 4096) and back[-1, -1] == 1
    assert peak <= back.nbytes + (1 << 20)


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
    gptt.save_gptt(tmp_path / "t.gptt", arr)
    assert (tmp_path / "t.gptt").read_bytes() == expected


def test_bad_shape_leaves_no_file(tmp_path):
    path = tmp_path / "t.gptt"
    with pytest.raises(DataError, match="extent"):
        gptt.save_gptt(path, np.zeros((2, 0), np.float32))
    assert not path.exists()


def test_rank_0_is_data_error_and_leaves_no_file(tmp_path):
    path = tmp_path / "t.gptt"
    with pytest.raises(DataError, match="^gptt: unsupported rank 0$"):
        gptt.save_gptt(path, np.float32(1.0))
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
        back = _read(_write(arr))
        expected = np.ascontiguousarray(arr, dtype="<f4")
    assert back.shape == arr.shape
    assert back.dtype == np.float32
    assert back.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(shape=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       cut=st.integers(0, 200), flips=st.lists(
           st.tuples(st.integers(0, 10**6), st.integers(1, 255)), max_size=4))
def test_truncated_or_flipped_blob_reads_or_raises_data_error(shape, cut, flips):
    raw = bytearray(_write(np.arange(np.prod(shape), dtype=np.float32).reshape(shape)))
    for pos, mask in flips:
        raw[pos % len(raw)] ^= mask
    del raw[len(raw) - min(cut, len(raw)):]
    try:
        arr = _read(bytes(raw))
    except DataError:
        return
    assert isinstance(arr, np.ndarray)
    assert arr.dtype == np.float32
