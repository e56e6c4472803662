"""Named-tensor weights files, magic ``OTFSNN01``.

Layout (little-endian): magic | u32 tensor count | per tensor u16 name
length, UTF-8 name, u8 rank, u32 dims[rank], float32 data.  Model
parameters, batch-norm running statistics and scalar metadata (``meta.*``
entries, e.g. the optimizer hyper-parameters and the head geometry) all
travel in the same table.

One parser, :func:`read_table`, reads the table of an open file: each
tensor's name, dims and data offset, seeking past the data.  The readers
build on it: :func:`load_tensors` reads the whole file once and hands out
views of it, :func:`read_metadata` reads only the ``meta.*`` scalars, and
:func:`read_into` reads one tensor straight into an array the caller owns
(``nn.model.load_model`` fills a freshly built net this way).
"""

from __future__ import annotations

import math
import os
import struct
import sys
from typing import BinaryIO, NamedTuple

import numpy as np

MAGIC = b"OTFSNN01"

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U8 = struct.Struct("<B")


class WeightsFormatError(Exception):
    pass


class TensorEntry(NamedTuple):
    """One tensor of the table: its shape and the file offset of its data."""

    shape: tuple[int, ...]
    offset: int

    @property
    def count(self) -> int:
        return math.prod(self.shape)


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


def read_table(fh: BinaryIO, path: str) -> dict[str, TensorEntry]:
    """The tensor table of the open weights file ``fh``, by name in file
    order (a repeated name keeps its last entry).

    Reads each tensor's header and seeks past its data, so no tensor data
    is read.  A file shorter than the header, a bad magic, a table or data
    cut short and bytes after the last tensor raise WeightsFormatError
    naming ``path``."""
    size = os.fstat(fh.fileno()).st_size
    fh.seek(0)
    head = fh.read(len(MAGIC) + _U32.size)
    if len(head) < len(MAGIC) + _U32.size:
        raise WeightsFormatError(f"{path}: file shorter than the weights header")
    if head[: len(MAGIC)] != MAGIC:
        raise WeightsFormatError(
            f"{path}: bad magic {head[:len(MAGIC)]!r}, expected {MAGIC!r}"
        )
    (count,) = _U32.unpack_from(head, len(MAGIC))
    end = len(head)
    table: dict[str, TensorEntry] = {}
    for _ in range(count):
        try:
            (name_len,) = _U16.unpack(fh.read(_U16.size))
            name = str(fh.read(name_len), "utf-8")
            (rank,) = _U8.unpack(fh.read(_U8.size))
            dims = struct.unpack(f"<{rank}I", fh.read(_U32.size * rank))
        except (struct.error, ValueError) as exc:
            raise WeightsFormatError(f"{path}: truncated tensor table: {exc}") from exc
        entry = TensorEntry(dims, fh.tell())
        end = entry.offset + 4 * entry.count
        if end > size:
            raise WeightsFormatError(
                f"{path}: truncated tensor table: tensor {name!r} data runs past "
                "end of file"
            )
        fh.seek(end)
        table[name] = entry
    if end != size:
        raise WeightsFormatError(
            f"{path}: {size - end} trailing bytes after the tensor table"
        )
    return table


def read_metadata(fh: BinaryIO, path: str, table: dict[str, TensorEntry]) -> dict[str, float]:
    """The ``meta.*`` scalars of ``table`` (the first value of each entry),
    keyed without the prefix; reads four bytes per entry."""
    meta: dict[str, float] = {}
    for name, entry in table.items():
        if name.startswith("meta."):
            if entry.count == 0:
                raise WeightsFormatError(f"{path}: {name} holds no value")
            fh.seek(entry.offset)
            meta[name[len("meta."):]] = float(np.frombuffer(fh.read(4), dtype="<f4")[0])
    return meta


def read_into(fh: BinaryIO, path: str, entry: TensorEntry, dst: np.ndarray) -> None:
    """Read one tensor's data into ``dst``, a C-contiguous native float32
    array of the entry's shape, byteswapping in place on a big-endian host."""
    fh.seek(entry.offset)
    if fh.readinto(dst) != dst.nbytes:
        raise WeightsFormatError(f"{path}: tensor data runs past end of file")
    if sys.byteorder == "big":
        dst.byteswap(inplace=True)


def load_tensors(path: str) -> dict[str, np.ndarray]:
    """Read every tensor of a weights file.

    The table is parsed first (:func:`read_table`); the file is then read
    once into a buffer of its size, and the tensors are float32 views of
    that buffer (not necessarily aligned), so loading holds one copy of the
    file's bytes; the buffer lives as long as any view."""
    with open(path, "rb") as fh:
        table = read_table(fh, path)
        fh.seek(0)
        buf = bytearray(os.fstat(fh.fileno()).st_size)
        fh.readinto(buf)
    return {
        name: np.frombuffer(buf, dtype="<f4", count=e.count, offset=e.offset).reshape(e.shape)
        for name, e in table.items()
    }


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
