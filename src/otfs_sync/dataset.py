"""Capture synthesis and the on-disk dataset format.

A capture simulates one receiver acquisition with an unknown symbol timing
offset theta.  The transmitted stream around the frame of interest is

    [filler, M*N] [preamble?] [CP + payload] * B [filler, M*N]

where the fillers are fresh pilot-free OTFS data segments (CP stripped) so
the window never sees silence, and the optional preamble sits immediately
before the first CP.  After fading and noise, a window of M*N samples is cut
starting ``theta`` samples after the payload start, so theta = 0 is perfect
alignment and positive theta is a late capture.

Every record is generated from its own RNG stream keyed by
(global_seed, channel_id, record_index), which makes datasets reproducible
byte-for-byte and records independent of generation order.

File layout (little-endian), magic ``OTFSDS01``:

    header:  8s magic | u32 version | u32 M | u32 N | u32 L_CP
             | u64 record_count | u64 global_seed
    record:  u8 channel_id | f32 snr_db | i32 theta_raw | u32 theta_wrapped
             | u16 theta_t | u16 theta_d | M*N f32 reals | M*N f32 imags
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from typing import BinaryIO, Iterator

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
FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sIIIIQQ")
_REC_FIXED = struct.Struct("<BfiIHH")

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
        if self.samples_per_channel < 1:
            raise ValueError("samples_per_channel must be >= 1")
        if self.blocks_per_frame < 1:
            raise ValueError("blocks_per_frame must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly between 0 and 1")

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


def synthesize_capture(
    cfg: DatasetConfig,
    profile: ChannelProfile,
    channel_id: int,
    snr_db: float,
    theta_raw: int,
    rng: np.random.Generator,
) -> CaptureRecord:
    """Build the transmit stream, push it through one channel realization,
    add noise, and cut the offset window."""
    frame = cfg.frame
    MN = frame.grid_size
    if not -MN // 2 <= theta_raw < MN // 2:
        raise ValueError(f"theta_raw={theta_raw} outside [{-MN // 2}, {MN // 2})")

    def filler() -> np.ndarray:
        grid = dd_to_dt(build_dd_frame(frame, None, rng))
        return grid.ravel(order="F")

    prepend = filler()
    payload = dd_to_dt(build_dd_frame(frame, cfg.pilot, rng)).ravel(order="F")
    block = np.concatenate([payload[-frame.L_CP:], payload]) if frame.L_CP else payload
    pre = zadoff_chu(cfg.preamble.length, cfg.preamble.root) if cfg.preamble else np.zeros(0)
    append = filler()
    stream = np.concatenate([prepend, pre, np.tile(block, cfg.blocks_per_frame), append])

    ch = realize_channel(profile, cfg.sample_rate_hz, rng)
    faded = apply_fading(stream, ch)
    noisy = apply_awgn(faded, snr_db, rng)

    payload_start = MN + pre.size + frame.L_CP
    start = payload_start + theta_raw
    win = noisy[start : start + MN]
    wrapped, theta_t, theta_d = label_of(theta_raw, frame.M, frame.N)
    planes = np.stack([win.real, win.imag]).astype(np.float32)
    return CaptureRecord(
        window=planes,
        channel_id=channel_id,
        snr_db=float(snr_db),
        theta_raw=int(theta_raw),
        theta_wrapped=wrapped,
        theta_t=theta_t,
        theta_d=theta_d,
    )


def _generate_records(cfg: DatasetConfig) -> Iterator[CaptureRecord]:
    MN = cfg.frame.grid_size
    grid = np.asarray(cfg.snr_grid_db, dtype=np.float64)
    for channel_id, profile in channel_table(cfg):
        for i in range(cfg.samples_per_channel):
            rng = per_record_rng(cfg.global_seed, channel_id, i)
            theta = int(rng.integers(-MN // 2, MN // 2))
            snr = float(grid[rng.integers(len(grid))])
            yield synthesize_capture(cfg, profile, channel_id, snr, theta, rng)


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

    def __len__(self) -> int:
        return self.windows.shape[0]

    def record(self, i: int) -> CaptureRecord:
        return CaptureRecord(
            window=self.windows[i],
            channel_id=int(self.channel_id[i]),
            snr_db=float(self.snr_db[i]),
            theta_raw=int(self.theta_raw[i]),
            theta_wrapped=int(self.theta_wrapped[i]),
            theta_t=int(self.theta_t[i]),
            theta_d=int(self.theta_d[i]),
        )

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            M=self.M, N=self.N, L_CP=self.L_CP, global_seed=self.global_seed,
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


def generate_dataset(cfg: DatasetConfig) -> Dataset:
    """Materialize a whole dataset in memory (use the streaming writer for
    default-scale datasets: 90k records at M=256, N=64 is ~12 GB)."""
    n = cfg.record_count
    MN = cfg.frame.grid_size
    ds = _empty_dataset(cfg, n, MN)
    for i, rec in enumerate(_generate_records(cfg)):
        _store(ds, i, rec)
    return ds


def _empty_dataset(cfg: DatasetConfig, n: int, MN: int) -> Dataset:
    return Dataset(
        M=cfg.frame.M,
        N=cfg.frame.N,
        L_CP=cfg.frame.L_CP,
        global_seed=cfg.global_seed,
        windows=np.empty((n, 2, MN), dtype=np.float32),
        channel_id=np.empty(n, dtype=np.uint8),
        snr_db=np.empty(n, dtype=np.float32),
        theta_raw=np.empty(n, dtype=np.int32),
        theta_wrapped=np.empty(n, dtype=np.uint32),
        theta_t=np.empty(n, dtype=np.uint16),
        theta_d=np.empty(n, dtype=np.uint16),
    )


def _store(ds: Dataset, i: int, rec: CaptureRecord) -> None:
    ds.windows[i] = rec.window
    ds.channel_id[i] = rec.channel_id
    ds.snr_db[i] = rec.snr_db
    ds.theta_raw[i] = rec.theta_raw
    ds.theta_wrapped[i] = rec.theta_wrapped
    ds.theta_t[i] = rec.theta_t
    ds.theta_d[i] = rec.theta_d


def _write_record(fh: BinaryIO, rec: CaptureRecord) -> None:
    fh.write(
        _REC_FIXED.pack(
            rec.channel_id,
            rec.snr_db,
            rec.theta_raw,
            rec.theta_wrapped,
            rec.theta_t,
            rec.theta_d,
        )
    )
    fh.write(rec.window[0].astype("<f4", copy=False).tobytes())
    fh.write(rec.window[1].astype("<f4", copy=False).tobytes())


def write_dataset(cfg: DatasetConfig, path: str) -> int:
    """Generate and stream a dataset straight to disk; returns record count."""
    n = cfg.record_count
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                MAGIC,
                FORMAT_VERSION,
                cfg.frame.M,
                cfg.frame.N,
                cfg.frame.L_CP,
                n,
                cfg.global_seed,
            )
        )
        for rec in _generate_records(cfg):
            _write_record(fh, rec)
    return n


def save_dataset(ds: Dataset, path: str) -> None:
    """Write an in-memory dataset in the standard binary layout."""
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                MAGIC, FORMAT_VERSION, ds.M, ds.N, ds.L_CP, len(ds), ds.global_seed
            )
        )
        for i in range(len(ds)):
            _write_record(fh, ds.record(i))


def read_dataset(path: str) -> Dataset:
    """Load a dataset file, validating magic, version, and length.

    Each record's planes are read straight into the window array, so a read
    allocates the dataset once, not the file bytes plus a copy of them."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise DataFormatError(f"{path}: file shorter than the dataset header")
        magic, version, M, N, L_CP, count, seed = _HEADER.unpack(head)
        if magic != MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if version != FORMAT_VERSION:
            raise DataFormatError(f"{path}: unsupported format version {version}")
        MN = M * N
        rec_bytes = _REC_FIXED.size + 2 * 4 * MN
        found = os.fstat(fh.fileno()).st_size - _HEADER.size
        if found != count * rec_bytes:
            raise DataFormatError(
                f"{path}: truncated or oversized: header promises {count} records "
                f"({count * rec_bytes} bytes), found {found}"
            )
        ds = Dataset(
            M=int(M), N=int(N), L_CP=int(L_CP), global_seed=int(seed),
            windows=np.empty((count, 2, MN), dtype="<f4"),
            channel_id=np.empty(count, dtype=np.uint8),
            snr_db=np.empty(count, dtype=np.float32),
            theta_raw=np.empty(count, dtype=np.int32),
            theta_wrapped=np.empty(count, dtype=np.uint32),
            theta_t=np.empty(count, dtype=np.uint16),
            theta_d=np.empty(count, dtype=np.uint16),
        )
        for i in range(count):
            fixed = fh.read(_REC_FIXED.size)
            if len(fixed) != _REC_FIXED.size or fh.readinto(ds.windows[i]) != 8 * MN:
                raise DataFormatError(f"{path}: record {i} is truncated")
            cid, snr, t_raw, t_wrap, t_t, t_d = _REC_FIXED.unpack(fixed)
            ds.channel_id[i] = cid
            ds.snr_db[i] = snr
            ds.theta_raw[i] = t_raw
            ds.theta_wrapped[i] = t_wrap
            ds.theta_t[i] = t_t
            ds.theta_d[i] = t_d
    return ds
