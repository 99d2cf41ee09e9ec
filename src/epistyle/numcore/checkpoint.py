"""Binary checkpoint format: magic 'EPST1', then named float32 blocks."""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from ..atomic import atomic_write

MAGIC = b"EPST1"


def save_checkpoint(path, params: dict[str, np.ndarray]) -> None:
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(params)))
        for name, arr in params.items():
            arr = np.ascontiguousarray(arr, dtype="<f4")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint; a truncated file, trailing bytes, a block name that
    is not UTF-8 or appears twice, or a non-finite value raise ValueError."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:5] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic {raw[:5]!r})")
    pos = 5

    def take(nbytes: int) -> int:
        """Offset of the next `nbytes` bytes, checked against the file size."""
        nonlocal pos
        if pos + nbytes > len(raw):
            raise ValueError(f"{path}: truncated checkpoint ({len(raw)} bytes, "
                             f"needs {pos + nbytes})")
        start, pos = pos, pos + nbytes
        return start

    (count,) = struct.unpack_from("<I", raw, take(4))
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", raw, take(2))
        start = take(name_len)
        try:
            name = raw[start:pos].decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: block name {raw[start:pos]!r} is not UTF-8") from None
        if name in params:
            raise ValueError(f"{path}: block {name!r} appears twice")
        (ndim,) = struct.unpack_from("<B", raw, take(1))
        shape = struct.unpack_from(f"<{ndim}I", raw, take(4 * ndim))
        n = math.prod(shape)
        arr = np.frombuffer(raw, dtype="<f4", count=n, offset=take(4 * n)).reshape(shape)
        params[name] = np.array(arr, dtype=np.float32)
        if not np.isfinite(params[name]).all():
            raise ValueError(f"{path}: block {name!r} holds a non-finite value")
    if pos != len(raw):
        raise ValueError(f"{path}: {len(raw) - pos} trailing bytes after the last block")
    return params
