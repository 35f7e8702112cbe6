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
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"GPTT"
VERSION = 1


def write_gptt_bytes(t: np.ndarray) -> bytes:
    t = np.asarray(t)
    if t.ndim < 1 or t.ndim > 255:
        raise DataError(f"gptt: unsupported rank {t.ndim}")
    if any(d > 0xFFFFFFFF or d < 1 for d in t.shape):
        raise DataError(f"gptt: extent out of u32 range in {t.shape}")
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(struct.pack("<BB", VERSION, t.ndim))
    out.write(struct.pack(f"<{t.ndim}I", *t.shape))
    out.write(np.ascontiguousarray(t, dtype="<f4").tobytes())
    return out.getvalue()


def read_gptt_at(raw: bytes, offset: int = 0,
                 source: str = "<bytes>") -> tuple[np.ndarray, int]:
    """Read the blob that starts at byte `offset` of `raw`.

    Returns (array, end): a read-only view into `raw` and the offset of
    the first byte after the blob. Every read stays inside `raw`.
    """
    if len(raw) < offset + 6:
        raise DataError(f"{source}: truncated gptt header at byte {len(raw)}")
    if raw[offset:offset + 4] != MAGIC:
        raise DataError(f"{source}: bad magic {raw[offset:offset + 4]!r} at byte {offset}")
    version, rank = struct.unpack_from("<BB", raw, offset + 4)
    if version != VERSION:
        raise DataError(f"{source}: unsupported gptt version {version} at byte {offset + 4}")
    header_end = offset + 6 + 4 * rank
    if len(raw) < header_end:
        raise DataError(f"{source}: truncated extents at byte {len(raw)} (need {header_end})")
    dims = struct.unpack_from(f"<{rank}I", raw, offset + 6)
    count = 1
    for d in dims:
        if d < 1:
            raise DataError(f"{source}: zero extent in header at byte {offset + 6}")
        count *= d
    end = header_end + 4 * count
    if len(raw) < end:
        raise DataError(
            f"{source}: truncated payload at byte {header_end}: "
            f"{len(raw)} bytes, blob needs {end}"
        )
    data = np.frombuffer(raw, dtype="<f4", count=count, offset=header_end)
    return data.reshape(dims), end


def read_gptt_bytes(raw: bytes, source: str = "<bytes>") -> np.ndarray:
    """Read `raw` as exactly one blob; returns a writable copy."""
    data, end = read_gptt_at(raw, 0, source)
    if end != len(raw):
        raise DataError(
            f"{source}: payload length mismatch at byte {end}: "
            f"file has {len(raw)} bytes, expected {end}"
        )
    return data.copy()


def save_gptt(path: str | Path, t: np.ndarray) -> None:
    Path(path).write_bytes(write_gptt_bytes(t))


def load_gptt(path: str | Path) -> np.ndarray:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return read_gptt_bytes(raw, source=str(path))
