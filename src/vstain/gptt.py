"""Raw tensor file format "GPTT".

Byte layout (all integers little-endian):

    offset 0   magic   4 bytes  b"GPTT"
    offset 4   version u8       1
    offset 5   rank    u8
    offset 6   extents rank x u32
    then       payload float32, row-major

The payload order matches the package tensor layout, so a rank-4 file
holds (N, H, W, C) and round-trips bit-exactly. Used for fixtures,
checkpoints and prediction outputs.
"""

from __future__ import annotations

import io
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import DataError

MAGIC = b"GPTT"
VERSION = 1


def _check_shape(t: np.ndarray) -> None:
    if t.ndim < 1 or t.ndim > 255:
        raise DataError(f"gptt: unsupported rank {t.ndim}")
    if any(d > 0xFFFFFFFF or d < 1 for d in t.shape):
        raise DataError(f"gptt: extent out of u32 range in {t.shape}")


@contextmanager
def replacing(path: str | Path):
    """Yield a binary file to write `path`'s new contents into.

    The file is a temporary one beside `path`, which replaces `path` in
    one step once the body returns. After an error or an interrupt the
    temporary file is removed, and `path` keeps what it held: no reader
    ever finds a truncated file under a final name.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_gptt(f: BinaryIO, t: np.ndarray) -> None:
    """Write `t` as one blob to the open binary file `f`.

    The payload is written from the array's own buffer when `t` is
    already C-ordered little-endian float32, else from one converted
    copy; the header is checked before anything is written.
    """
    t = np.asarray(t)
    _check_shape(t)
    payload = np.ascontiguousarray(t, dtype="<f4")
    f.write(MAGIC + struct.pack(f"<BB{t.ndim}I", VERSION, t.ndim, *t.shape))
    f.write(payload)


def read_gptt(f: BinaryIO, source: str = "<bytes>") -> np.ndarray:
    """Read the blob at the position of the open binary file `f`.

    The header is checked against the file's size before the payload's
    array is allocated; the payload is read straight into that array,
    and `f` is left at the first byte after the blob.
    """
    offset = f.tell()
    size = f.seek(0, io.SEEK_END)
    f.seek(offset)
    head = f.read(6)
    if len(head) < 6:
        raise DataError(f"{source}: truncated gptt header at byte {size}")
    if head[:4] != MAGIC:
        raise DataError(f"{source}: bad magic {head[:4]!r} at byte {offset}")
    version, rank = struct.unpack_from("<BB", head, 4)
    if version != VERSION:
        raise DataError(f"{source}: unsupported gptt version {version} at byte {offset + 4}")
    header_end = offset + 6 + 4 * rank
    if size < header_end:
        raise DataError(f"{source}: truncated extents at byte {size} (need {header_end})")
    dims = struct.unpack(f"<{rank}I", f.read(4 * rank))
    if 0 in dims:
        raise DataError(f"{source}: zero extent in header at byte {offset + 6}")
    end = header_end + 4 * math.prod(dims)
    if size < end:
        raise DataError(
            f"{source}: truncated payload at byte {header_end}: "
            f"{size} bytes, blob needs {end}"
        )
    data = np.empty(dims, dtype="<f4")
    if f.readinto(data) != data.nbytes:  # the file shrank after its size was taken
        raise DataError(f"{source}: truncated payload at byte {header_end}")
    return data


def save_gptt(path: str | Path, t: np.ndarray) -> None:
    t = np.asarray(t)
    _check_shape(t)  # a bad shape neither creates nor truncates the file
    with replacing(path) as f:
        write_gptt(f, t)


def load_gptt(path: str | Path) -> np.ndarray:
    """Read the file at `path` as exactly one blob."""
    path = Path(path)
    try:
        with open(path, "rb") as f:
            data = read_gptt(f, source=str(path))
            end, size = f.tell(), f.seek(0, io.SEEK_END)
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if end != size:
        raise DataError(
            f"{path}: payload length mismatch at byte {end}: "
            f"file has {size} bytes, expected {end}"
        )
    return data
