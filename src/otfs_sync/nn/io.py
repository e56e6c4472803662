"""Named-tensor weights files, magic ``OTFSNN01``.

Layout (little-endian): magic | u32 tensor count | per tensor u16 name
length, UTF-8 name, u8 rank, u32 dims[rank], float32 data.  Model
parameters, batch-norm running statistics and scalar metadata (``meta.*``
entries, e.g. the optimizer hyper-parameters and the head geometry) all
travel in the same table.
"""

from __future__ import annotations

import os
import struct

import numpy as np

MAGIC = b"OTFSNN01"

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U8 = struct.Struct("<B")


class WeightsFormatError(Exception):
    pass


def save_tensors(path: str, tensors: dict[str, np.ndarray]) -> None:
    """Write tensors in dict order as float32."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_U32.pack(len(tensors)))
        for name, value in tensors.items():
            raw = name.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise ValueError(f"tensor name too long: {name[:32]}...")
            arr = np.asarray(value, dtype="<f4", order="C")
            fh.write(_U16.pack(len(raw)))
            fh.write(raw)
            fh.write(_U8.pack(arr.ndim))
            for d in arr.shape:
                fh.write(_U32.pack(d))
            fh.write(arr)


def load_tensors(path: str) -> dict[str, np.ndarray]:
    """Read every tensor of a weights file.

    The file is read once into a buffer of its size, and the tensors are
    float32 views of that buffer (not necessarily aligned), so loading holds
    one copy of the file's bytes; the buffer lives as long as any view."""
    with open(path, "rb") as fh:
        buf = bytearray(os.fstat(fh.fileno()).st_size)
        blob = memoryview(buf)[: fh.readinto(buf)]
    if len(blob) < len(MAGIC) + _U32.size:
        raise WeightsFormatError(f"{path}: file shorter than the weights header")
    if blob[: len(MAGIC)] != MAGIC:
        raise WeightsFormatError(
            f"{path}: bad magic {bytes(blob[:len(MAGIC)])!r}, expected {MAGIC!r}"
        )
    (count,) = _U32.unpack_from(blob, len(MAGIC))
    off = len(MAGIC) + _U32.size
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        try:
            (name_len,) = _U16.unpack_from(blob, off)
            off += _U16.size
            name = str(blob[off : off + name_len], "utf-8")
            off += name_len
            (rank,) = _U8.unpack_from(blob, off)
            off += _U8.size
            dims = []
            for _ in range(rank):
                (d,) = _U32.unpack_from(blob, off)
                off += _U32.size
                dims.append(d)
            n = int(np.prod(dims, dtype=np.int64)) if dims else 1
            data = np.frombuffer(blob, dtype="<f4", count=n, offset=off)
            off += 4 * n
        except (struct.error, ValueError) as exc:
            raise WeightsFormatError(f"{path}: truncated tensor table: {exc}") from exc
        if off > len(blob):
            raise WeightsFormatError(f"{path}: tensor data runs past end of file")
        tensors[name] = data.reshape(dims)
    if off != len(blob):
        raise WeightsFormatError(
            f"{path}: {len(blob) - off} trailing bytes after the tensor table"
        )
    return tensors


def split_metadata(
    tensors: dict[str, np.ndarray]
) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    """Separate ``meta.*`` scalar entries from real tensors."""
    state: dict[str, np.ndarray] = {}
    meta: dict[str, float] = {}
    for name, value in tensors.items():
        if name.startswith("meta."):
            meta[name[len("meta."):]] = float(value.reshape(-1)[0])
        else:
            state[name] = value
    return state, meta
