"""Flat binary weight files.

Layout: magic ``DPWB``, uint16 version, uint32 array count, then per array:
uint16 name length, utf-8 name, uint8 rank, uint32 dims, raw little-endian
float64 values.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

_MAGIC = b"DPWB"
_VERSION = 1


class SerializationError(RuntimeError):
    """Weight file is malformed or from an unsupported version."""


def save_state(path, arrays: list[tuple[str, np.ndarray]]) -> None:
    path = Path(path)
    parts = [_MAGIC, struct.pack("<HI", _VERSION, len(arrays))]
    for name, arr in arrays:
        raw = name.encode("utf-8")
        arr = np.asarray(arr, dtype=np.float64)
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.astype("<f8").tobytes())
    path.write_bytes(b"".join(parts))


def load_state(path) -> dict[str, np.ndarray]:
    """Read a weight file; a truncated or malformed file raises ``SerializationError``."""
    buf = Path(path).read_bytes()
    if buf[:4] != _MAGIC:
        raise SerializationError(f"{path}: bad magic bytes")
    try:
        version, count = struct.unpack_from("<HI", buf, 4)
        if version != _VERSION:
            raise SerializationError(f"{path}: unsupported version {version}")
        off = 10
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", buf, off)
            off += 2
            name = buf[off : off + nlen].decode("utf-8")
            off += nlen
            (rank,) = struct.unpack_from("<B", buf, off)
            off += 1
            dims = struct.unpack_from(f"<{rank}I", buf, off)
            off += 4 * rank
            n = int(np.prod(dims, dtype=np.int64)) if rank else 1
            arr = np.frombuffer(buf, dtype="<f8", count=n, offset=off).reshape(dims)
            off += 8 * n
            out[name] = arr.astype(np.float64)
    except (struct.error, ValueError) as e:  # read past the end, bad utf-8, or impossible dims
        raise SerializationError(f"{path}: truncated or corrupt weight file ({e})") from e
    if off != len(buf):
        raise SerializationError(f"{path}: trailing bytes after last array")
    return out
