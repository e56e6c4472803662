"""Capture synthesis and the on-disk dataset format.

A capture simulates one receiver acquisition with an unknown symbol timing
offset theta.  The transmitted stream around the frame of interest is

    [filler, M*N] [preamble?] [CP + payload] * B [filler, M*N]

where the fillers are fresh pilot-free OTFS data segments (CP stripped) so
the window never sees silence, and the optional preamble sits immediately
before the first CP.  The receive window is the M*N samples starting
``theta`` samples after the payload start, so theta = 0 is perfect alignment
and positive theta is a late capture.  Only the window and the max(taps)
samples of delay history before it pass through the channel, with each
sample's Doppler rotation at its absolute index in the stream, so a
noiseless window equals the one cut from the whole faded stream.  Noise is
added to the window alone, at an SNR measured on the faded window.  All
three grids are drawn in stream order, but a filler is transformed to
serial samples only when that faded span reaches it.

What every capture of a configuration shares is computed once, on the first
capture, and cached: the stream layout (where the preamble, each CP and
payload copy and the append filler start), the Zadoff-Chu preamble, the
constellation, the validated guard rows and pilot cell, and the AWGN
channel's realization.  Per record there remain the draws (labels, one
``(3, M, N)`` symbol stack, the channel, the noise) and the arithmetic on the
samples the window needs: one DD -> DT transform of the grids the faded span
reaches, the copy of that span of the stream into one buffer, its fading
and the noise.  The bytes are those of format version 3.

Every record is generated from its own RNG stream keyed by
(global_seed, channel_id, record_index), which makes datasets reproducible
byte-for-byte and records independent of generation order.

File layout (little-endian), magic ``OTFSDS01``, format version 3:

    header:  8s magic | u32 version | u32 M | u32 N | u32 L_CP
             | u64 record_count | u64 global_seed
    record:  u8 channel_id | f32 snr_db | i32 theta_raw | u32 theta_wrapped
             | u16 theta_t | u16 theta_d | M*N f32 reals | M*N f32 imags

The packed structured dtype of :func:`record_dtype` is the single definition
of a record: generation fills an array of it, the one streaming writer writes
its rows, and the reader reads the body into one array of it.  A ``Dataset``
built by :func:`generate_dataset` or :func:`read_dataset` has the fields of
that array as its columns.

Version 1 files hold the same layout, but their channel faded the whole
stream and their noise power was set from it, so their noisy windows differ
from version 2's.

Version 3 keeps the layout and the draws of version 2 but builds each
Doppler rotation from block phase tables (see :mod:`otfs_sync.channel`)
instead of one exponential per sample.  The rotations agree to rounding,
so a float32 window value moves by one unit in the last place now and
then (1 or 2 of 9,830,400 over 300 default-scale Rayleigh/EVA records);
AWGN records, whose single tap has no Doppler, are byte-identical to
version 2's.  :func:`read_dataset` reads versions 1, 2 and 3, and a dataset
keeps its file's version in ``format_version``.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .channel import (
    ChannelKind,
    ChannelProfile,
    PROFILES_BY_ID,
    apply_awgn,
    apply_fading,
    realize_channel,
)
from .frames import (
    DEFAULT_SAMPLE_RATE_HZ,
    FrameConfig,
    PilotConfig,
    build_dd_frame,
    dd_to_dt,
    zadoff_chu,
)

MAGIC = b"OTFSDS01"
FORMAT_VERSION = 3
READABLE_VERSIONS = (1, 2, 3)
_HEADER = struct.Struct("<8sIIIIQQ")

DEFAULT_SNR_GRID_DB = tuple(float(s) for s in range(-20, 27, 2))


class DataFormatError(Exception):
    """Raised when a dataset or weights file fails structural validation."""


@dataclass(frozen=True)
class PreambleConfig:
    length: int = 256
    root: int = 25


@dataclass(frozen=True)
class DatasetConfig:
    """Everything needed to regenerate a dataset from its seed."""

    frame: FrameConfig = field(default_factory=FrameConfig)
    pilot: PilotConfig | None = None
    channels: tuple[ChannelProfile, ...] = ()
    snr_grid_db: tuple[float, ...] = DEFAULT_SNR_GRID_DB
    samples_per_channel: int = 30000
    blocks_per_frame: int = 1
    preamble: PreambleConfig | None = None
    global_seed: int = 0
    train_fraction: float = 0.8
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ

    def __post_init__(self) -> None:
        if not self.channels:
            object.__setattr__(
                self,
                "channels",
                tuple(PROFILES_BY_ID[i] for i in (1, 2, 3)),
            )
        if self.pilot is None:
            object.__setattr__(self, "pilot", PilotConfig.for_frame(self.frame))
        self.pilot.validate_against(self.frame)
        if not self.snr_grid_db:
            raise ValueError("snr_grid_db must not be empty")
        bad = [s for s in self.snr_grid_db if math.isnan(s) or s == -math.inf]
        if bad:
            raise ValueError(f"snr_grid_db entries must be numbers or +inf, got {bad}")
        if self.samples_per_channel < 1:
            raise ValueError("samples_per_channel must be >= 1")
        if self.blocks_per_frame < 1:
            raise ValueError("blocks_per_frame must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly between 0 and 1")
        if not 0 <= self.global_seed < 2**64:
            raise ValueError(f"global_seed must lie in [0, 2**64), got {self.global_seed}")

    @property
    def record_count(self) -> int:
        return len(self.channels) * self.samples_per_channel


def channel_table(cfg: DatasetConfig) -> list[tuple[int, ChannelProfile]]:
    """Stable (channel_id, profile) pairs: presets keep their enum ids,
    custom profiles get ids from 4 upward in configuration order."""
    table: list[tuple[int, ChannelProfile]] = []
    next_custom = int(ChannelKind.CUSTOM)
    for prof in cfg.channels:
        if prof.kind is ChannelKind.CUSTOM:
            table.append((next_custom, prof))
            next_custom += 1
        else:
            table.append((int(prof.kind), prof))
    ids = [cid for cid, _ in table]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate channel ids in configuration: {ids}")
    return table


def record_dtype(MN: int) -> np.dtype:
    """One record of an M*N-sample dataset, packed: 17 label bytes, then the
    real and the imaginary plane of the window."""
    return np.dtype([
        ("channel_id", "u1"),
        ("snr_db", "<f4"),
        ("theta_raw", "<i4"),
        ("theta_wrapped", "<u4"),
        ("theta_t", "<u2"),
        ("theta_d", "<u2"),
        ("window", "<f4", (2, MN)),
    ])


def label_of(theta_raw: int, M: int, N: int) -> tuple[int, int, int]:
    """(wrapped, time part, delay part) of a raw offset:
    wrapped = theta mod M*N, theta_t = wrapped // M, theta_d = wrapped % M."""
    wrapped = theta_raw % (M * N)
    return wrapped, wrapped // M, wrapped % M


def per_record_rng(global_seed: int, channel_id: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(global_seed, spawn_key=(channel_id, index))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class CaptureRecord:
    """One labelled acquisition: real/imag planes plus the offset labels."""

    window: np.ndarray  # float32, shape (2, M*N)
    channel_id: int
    snr_db: float
    theta_raw: int
    theta_wrapped: int
    theta_t: int
    theta_d: int


_PREAMBLE = 3  # source index of the preamble; 0, 1, 2 are the serialized grids


@functools.lru_cache(maxsize=8)
def _stream_layout(cfg: DatasetConfig) -> tuple:
    """What every capture of ``cfg`` shares: (pilots, preamble, pieces,
    body_end, payload_start).  ``pilots`` holds the pilot of each stream
    grid (prepend filler, payload, append filler); ``pieces`` lays out the
    stream as (start index, source index, slice of that source); the append
    filler starts at ``body_end`` and the first payload sample (theta = 0)
    at ``payload_start``."""
    frame = cfg.frame
    MN, L = frame.grid_size, frame.L_CP
    pre = zadoff_chu(cfg.preamble.length, cfg.preamble.root) if cfg.preamble else np.zeros(0)
    pre.flags.writeable = False
    whole = slice(None)
    pieces = [(0, 0, whole), (MN, _PREAMBLE, whole)]
    at = MN + pre.size
    for _ in range(cfg.blocks_per_frame):
        pieces += [(at, 1, slice(MN - L, MN)), (at + L, 1, whole)]
        at += MN + L
    pieces.append((at, 2, whole))
    return (None, cfg.pilot, None), pre, tuple(pieces), at, MN + pre.size + L


def synthesize_capture(
    cfg: DatasetConfig,
    profile: ChannelProfile,
    channel_id: int,
    snr_db: float,
    theta_raw: int,
    rng: np.random.Generator,
) -> CaptureRecord:
    """Build the transmit stream, push the offset window (plus the channel's
    delay history) through one channel realization, and add noise to it."""
    frame = cfg.frame
    MN = frame.grid_size
    if not -MN // 2 <= theta_raw < MN // 2:
        raise ValueError(f"theta_raw={theta_raw} outside [{-MN // 2}, {MN // 2})")
    pilots, preamble, pieces, body_end, payload_start = _stream_layout(cfg)
    # all three grids are drawn in stream order, so the RNG stream is the
    # same whichever fillers the window reaches
    grids = build_dd_frame(frame, pilots, rng)
    ch = realize_channel(profile, cfg.sample_rate_hz, rng)
    start = payload_start + theta_raw
    # the window depends on the stream from max(taps) samples before it on;
    # only the grids that span reaches are transformed
    lo, hi = max(start - int(ch.taps.max()), 0), start + MN
    first = 0 if lo < MN else 1
    last = 3 if hi > body_end else 2
    sources = [None, None, None, preamble]
    sources[first:last] = dd_to_dt(grids[first:last]).transpose(0, 2, 1).reshape(-1, MN)
    # copy the stream's span [lo, hi) from the pieces it overlaps
    span = np.empty(hi - lo, dtype=np.complex128)
    for at, src, part in pieces:
        if sources[src] is None:
            continue
        x = sources[src][part]
        a, b = max(at, lo), min(at + x.size, hi)
        if a < b:
            span[a - lo : b - lo] = x[a - at : b - at]
    faded = apply_fading(span, ch, start=lo)
    planes = apply_awgn(faded[start - lo :], snr_db, rng,
                        out=np.empty((2, MN), dtype=np.float32))
    wrapped, theta_t, theta_d = label_of(theta_raw, frame.M, frame.N)
    return CaptureRecord(
        window=planes,
        channel_id=channel_id,
        snr_db=float(snr_db),
        theta_raw=int(theta_raw),
        theta_wrapped=wrapped,
        theta_t=theta_t,
        theta_d=theta_d,
    )


def _generate_rows(cfg: DatasetConfig) -> Iterator[tuple]:
    """Every capture of ``cfg`` in file order, each as one record row: its
    values in the field order of :func:`record_dtype`."""
    MN = cfg.frame.grid_size
    grid = np.asarray(cfg.snr_grid_db, dtype=np.float64)
    for channel_id, profile in channel_table(cfg):
        for i in range(cfg.samples_per_channel):
            rng = per_record_rng(cfg.global_seed, channel_id, i)
            theta = int(rng.integers(-MN // 2, MN // 2))
            snr = float(grid[rng.integers(len(grid))])
            rec = synthesize_capture(cfg, profile, channel_id, snr, theta, rng)
            yield (rec.channel_id, rec.snr_db, rec.theta_raw, rec.theta_wrapped,
                   rec.theta_t, rec.theta_d, rec.window)


@dataclass
class Dataset:
    """Column-array view of a record collection plus its frame geometry."""

    M: int
    N: int
    L_CP: int
    global_seed: int
    windows: np.ndarray        # float32 (n, 2, M*N)
    channel_id: np.ndarray     # uint8 (n,)
    snr_db: np.ndarray         # float32 (n,)
    theta_raw: np.ndarray      # int32 (n,)
    theta_wrapped: np.ndarray  # uint32 (n,)
    theta_t: np.ndarray        # uint16 (n,)
    theta_d: np.ndarray        # uint16 (n,)
    format_version: int = FORMAT_VERSION

    def __len__(self) -> int:
        return self.windows.shape[0]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            M=self.M, N=self.N, L_CP=self.L_CP, global_seed=self.global_seed,
            format_version=self.format_version,
            windows=self.windows[idx],
            channel_id=self.channel_id[idx],
            snr_db=self.snr_db[idx],
            theta_raw=self.theta_raw[idx],
            theta_wrapped=self.theta_wrapped[idx],
            theta_t=self.theta_t[idx],
            theta_d=self.theta_d[idx],
        )

    def split(self, train_fraction: float = 0.8) -> tuple["Dataset", "Dataset"]:
        """Per-channel deterministic split: the leading fraction of each
        channel's records trains, the remainder tests.  Records are i.i.d.
        within a channel, so the prefix rule is an unbiased random split that
        needs no extra state to reproduce."""
        train_idx: list[np.ndarray] = []
        test_idx: list[np.ndarray] = []
        for cid in np.unique(self.channel_id):
            idx = np.flatnonzero(self.channel_id == cid)
            k = int(np.floor(train_fraction * idx.size))
            train_idx.append(idx[:k])
            test_idx.append(idx[k:])
        return (
            self.subset(np.concatenate(train_idx)),
            self.subset(np.concatenate(test_idx)),
        )


def _dataset(M: int, N: int, L_CP: int, global_seed: int, recs: np.ndarray,
             version: int = FORMAT_VERSION) -> Dataset:
    """A dataset whose columns are the fields of the record array ``recs``."""
    return Dataset(
        M=int(M), N=int(N), L_CP=int(L_CP), global_seed=int(global_seed),
        format_version=int(version), windows=recs["window"],
        **{name: recs[name] for name in recs.dtype.names if name != "window"},
    )


def generate_dataset(cfg: DatasetConfig) -> Dataset:
    """Materialize a whole dataset in memory (use the streaming writer for
    default-scale datasets: 90k records at M=256, N=64 is ~12 GB)."""
    recs = np.empty(cfg.record_count, dtype=record_dtype(cfg.frame.grid_size))
    for i, row in enumerate(_generate_rows(cfg)):
        recs[i] = row
    f = cfg.frame
    return _dataset(f.M, f.N, f.L_CP, cfg.global_seed, recs)


def _write_records(path: str, version: int, M: int, N: int, L_CP: int, count: int,
                   global_seed: int, rows: Iterable[tuple]) -> None:
    """Write the header, then ``rows`` (values in record field order) one
    record at a time, so the writer holds one record, not the dataset."""
    rec = np.empty(1, dtype=record_dtype(M * N))
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, version, M, N, L_CP, count, global_seed))
        for row in rows:
            rec[0] = row
            fh.write(rec)


def write_dataset(cfg: DatasetConfig, path: str) -> int:
    """Generate and stream a dataset straight to disk; returns record count."""
    n, f = cfg.record_count, cfg.frame
    _write_records(path, FORMAT_VERSION, f.M, f.N, f.L_CP, n, cfg.global_seed,
                   _generate_rows(cfg))
    return n


def save_dataset(ds: Dataset, path: str) -> None:
    """Write an in-memory dataset in the standard binary layout, under the
    format version its records were generated with."""
    columns = (ds.channel_id, ds.snr_db, ds.theta_raw, ds.theta_wrapped,
               ds.theta_t, ds.theta_d, ds.windows)
    _write_records(path, ds.format_version, ds.M, ds.N, ds.L_CP, len(ds),
                   ds.global_seed, zip(*columns))


def read_dataset(path: str) -> Dataset:
    """Load a dataset file, validating magic, version, grid, and length.

    The body is read straight into one record array, so a read allocates the
    dataset once, not the file bytes plus a copy of them."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise DataFormatError(f"{path}: file shorter than the dataset header")
        magic, version, M, N, L_CP, count, seed = _HEADER.unpack(head)
        if magic != MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if version not in READABLE_VERSIONS:
            raise DataFormatError(f"{path}: unsupported format version {version}")
        if not (M >= 1 and N >= 1 and L_CP < M * N):
            raise DataFormatError(f"{path}: header grid M={M} N={N} L_CP={L_CP} needs "
                                  "M, N >= 1 and L_CP < M*N")
        try:
            dtype = record_dtype(M * N)
        except ValueError as exc:
            raise DataFormatError(f"{path}: no record can hold a {M}x{N} window: "
                                  f"{exc}") from exc
        found = os.fstat(fh.fileno()).st_size - _HEADER.size
        if found != count * dtype.itemsize:
            raise DataFormatError(
                f"{path}: truncated or oversized: header promises {count} records "
                f"({count * dtype.itemsize} bytes), found {found}"
            )
        recs = np.empty(count, dtype=dtype)
        if fh.readinto(recs) != recs.nbytes:
            raise DataFormatError(f"{path}: file shrank while it was read")
    return _dataset(M, N, L_CP, seed, recs, version)
