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
capture, and cached: the stream layout (where each grid, the preamble and
the cyclic-prefix and block copies go), the Zadoff-Chu preamble, the
constellation, the validated guard rows and pilot cell, and the AWGN
channel's realization.

Generation then works a chunk of one channel's records at a time: as many
as fit ``CHUNK_BYTES`` of DD grids, and at least one, which is 85 records
at 32 x 8 and one at 256 x 64.  A chunk is a channel and a run of record
indices, and the thread that runs it does all of its work.  The chunks run
on the calling thread and on one worker thread per further usable CPU,
each thread with at most one chunk in flight, and come back in file order.
A call of one chunk, a process with one usable CPU, and records of fewer
than ``THREADED_MIN_SAMPLES`` samples (32 x 8 among them), whose time goes
mostly to work that holds the interpreter lock, run every chunk on the
caller and start no thread.  Nothing else sets the thread count: there is
no option, environment variable or config field for it.

Per record there remain only the draws, from the record's own stream and
in this order: theta, the SNR, one ``(3, M, N)`` symbol stack, the channel
and the noise (none at infinite SNR).  The arithmetic runs once per chunk
on the stacked records: symbol mapping and pilots, one DD -> DT transform
of the grids some record's faded span reaches, the column-major stream of
those grids, the span cuts, the AWGN channel's identity fading, each row's
signal power and noise scaling, and the float32 store straight into the
chunk's slice of the record array.  A random channel fades each record's
span on its own.  :func:`synthesize_capture` is the one-record case of the
same path.  FFT lines and row sums are bitwise the same stacked or alone,
and no record reads another's stream, so the bytes depend neither on the
chunk size nor on the thread count; they are those of format version 3.

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
it a chunk of rows at a time, and the reader reads the body into one array
of it.  A ``Dataset`` built by :func:`generate_dataset` or
:func:`read_dataset` has the fields of that array as its columns.

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

import contextlib
import functools
import itertools
import math
import os
import struct
from dataclasses import dataclass, field
from typing import Generator, Iterator

import numpy as np

from .channel import (
    ChannelKind,
    ChannelProfile,
    PROFILES_BY_ID,
    _identity_channel,
    apply_awgn,
    apply_fading,
    realize_channel,
)
from .frames import (
    DEFAULT_SAMPLE_RATE_HZ,
    FrameConfig,
    PilotConfig,
    _grid_plan,
    build_dd_frame,
    check_zadoff_chu,
    dd_to_dt,
    zadoff_chu,
)

MAGIC = b"OTFSDS01"
FORMAT_VERSION = 3
READABLE_VERSIONS = (1, 2, 3)
_HEADER = struct.Struct("<8sIIIIQQ")

DEFAULT_SNR_GRID_DB = tuple(float(s) for s in range(-20, 27, 2))

# complex128 bytes of DD grids (three per record, 48 bytes per sample) that
# one chunk of captures may span
CHUNK_BYTES = 1024 * 1024

# window samples per record from which chunks also run on worker threads.
# Below it a record's time goes mostly to Python-level work that holds the
# interpreter lock (its generator, channel draw and fading call): on two
# CPUs, two threads made 32 x 8 0.80-0.87x and 64 x 32 fading channels 0.86x
# as fast as one, and 64 x 64, 128 x 64 and 256 x 64 1.08-1.70x as fast.
THREADED_MIN_SAMPLES = 4096


class DataFormatError(Exception):
    """Raised when a dataset file fails structural validation (weights files
    raise :class:`~otfs_sync.nn.io.WeightsFormatError`)."""


@dataclass(frozen=True)
class PreambleConfig:
    length: int = 256
    root: int = 25

    def __post_init__(self) -> None:
        check_zadoff_chu(self.length, self.root)  # one that cannot be built is a ValueError


@dataclass(frozen=True)
class DatasetConfig:
    """Everything needed to regenerate a dataset from its seed."""

    frame: FrameConfig = field(default_factory=FrameConfig)
    pilot: PilotConfig | None = None
    channels: tuple[ChannelProfile, ...] = tuple(PROFILES_BY_ID.values())
    snr_grid_db: tuple[float, ...] = DEFAULT_SNR_GRID_DB
    samples_per_channel: int = 30000
    blocks_per_frame: int = 1
    preamble: PreambleConfig | None = None
    global_seed: int = 0
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ

    def __post_init__(self) -> None:
        if not self.channels:
            raise ValueError("channels must not be empty")
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


@functools.lru_cache(maxsize=8)
def _stream_layout(cfg: DatasetConfig) -> tuple:
    """What every capture of ``cfg`` shares: (pilots, preamble, grid_at,
    copies, payload_start).  ``pilots`` holds the pilot of each stream grid
    (prepend filler, payload, append filler), and grid i's serial samples
    start at ``grid_at[i]`` (the payload's first copy for grid 1).  The
    preamble starts at M*N.  ``copies`` lists the (to, from, length) copies
    within the stream that then write the first cyclic prefix and every
    further block.  The first payload sample (theta = 0) is at
    ``payload_start``, and the stream ends M*N samples after the append
    filler's start."""
    frame = cfg.frame
    MN, L, B = frame.grid_size, frame.L_CP, cfg.blocks_per_frame
    pre = zadoff_chu(cfg.preamble.length, cfg.preamble.root) if cfg.preamble else np.zeros(0)
    pre.flags.writeable = False
    body = MN + pre.size  # where the first block starts
    grid_at = (0, body + L, body + B * (MN + L))
    copies = ((body, body + MN, L),
              *((body + b * (MN + L), body, MN + L) for b in range(1, B)))
    return (None, cfg.pilot, None), pre, grid_at, copies, body + L


def _synthesize(cfg: DatasetConfig, profile: ChannelProfile, channel_id: int,
                snrs: list[float], thetas: list[int], rngs: list[np.random.Generator],
                out: np.ndarray) -> None:
    """Fill the record array ``out`` with captures of one channel: record j
    is offset by ``thetas[j]``, at SNR ``snrs[j]``, and draws its grids, its
    channel and its noise from ``rngs[j]`` in that order.  The arithmetic
    runs once on the stacked records; only a random channel fades each
    record's span on its own."""
    frame = cfg.frame
    M, N, MN = frame.M, frame.N, frame.grid_size
    k = len(out)
    pilots, preamble, grid_at, copies, payload_start = _stream_layout(cfg)
    grids = build_dd_frame(frame, pilots, rngs)
    chans = [realize_channel(profile, cfg.sample_rate_hz, g) for g in rngs]
    start = payload_start + np.asarray(thetas)
    # a window depends on the stream from max(taps) samples before it on
    # (the taps depend on the profile alone): record j's span is
    # [lo[j], start[j] + MN), and only the grids that some span reaches are
    # transformed and written
    lo = np.maximum(start - int(chans[0].taps.max()), 0)
    first = 0 if lo.min() < MN else 1
    last = 3 if start.max() + MN > grid_at[2] else 2
    stream = np.empty((k, grid_at[2] + MN), dtype=np.complex128)
    dt = dd_to_dt(grids[:, first:last])
    for g in range(first, last):
        # column-major readout: serial sample n*M + m is DT cell (m, n)
        stream[:, grid_at[g] : grid_at[g] + MN].reshape(k, N, M)[...] = (
            dt[:, g - first].transpose(0, 2, 1))
    stream[:, MN : MN + preamble.size] = preamble
    for to, at, n in copies:
        stream[:, to : to + n] = stream[:, at : at + n]
    del grids, dt  # only the stream is read from here on
    spans = [stream[j, lo[j] : start[j] + MN] for j in range(k)]
    if profile.kind is ChannelKind.AWGN:
        # no delay history: the shared identity realization fades the
        # stacked windows at once
        window = apply_fading(np.stack(spans), chans[0])
    else:
        window = np.empty((k, MN), dtype=np.complex128)
        for j, ch in enumerate(chans):
            window[j] = apply_fading(spans[j], ch, start=int(lo[j]))[start[j] - lo[j] :]
    apply_awgn(window, snrs, rngs, out=out["window"].transpose(1, 0, 2))
    wrapped, theta_t, theta_d = label_of(np.asarray(thetas), M, N)
    out["channel_id"] = channel_id
    out["snr_db"] = snrs
    out["theta_raw"] = thetas
    out["theta_wrapped"] = wrapped
    out["theta_t"] = theta_t
    out["theta_d"] = theta_d


def synthesize_capture(
    cfg: DatasetConfig,
    profile: ChannelProfile,
    channel_id: int,
    snr_db: float,
    theta_raw: int,
    rng: np.random.Generator,
) -> CaptureRecord:
    """Build the transmit stream, push the offset window (plus the channel's
    delay history) through one channel realization, and add noise to it:
    the one-record case of what generation does a chunk at a time."""
    MN = cfg.frame.grid_size
    if not -MN // 2 <= theta_raw < MN // 2:
        raise ValueError(f"theta_raw={theta_raw} outside [{-MN // 2}, {MN // 2})")
    rec = np.empty(1, dtype=record_dtype(MN))
    _synthesize(cfg, profile, channel_id, [snr_db], [theta_raw], [rng], rec)
    return CaptureRecord(
        window=rec["window"][0].copy(),
        channel_id=channel_id,
        snr_db=float(snr_db),
        theta_raw=int(theta_raw),
        theta_wrapped=int(rec["theta_wrapped"][0]),
        theta_t=int(rec["theta_t"][0]),
        theta_d=int(rec["theta_d"][0]),
    )


def _chunk_records(MN: int) -> int:
    """Records per chunk of an M*N-sample configuration."""
    return max(1, CHUNK_BYTES // (48 * MN))


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fill_chunk(cfg: DatasetConfig, job: tuple[int, ChannelProfile, range],
                out: np.ndarray) -> np.ndarray:
    """Synthesize the records of ``job`` into the record array ``out`` and
    return it: each record's generator draws its offset and its SNR first."""
    channel_id, profile, records = job
    MN, grid = cfg.frame.grid_size, cfg.snr_grid_db
    rngs = [per_record_rng(cfg.global_seed, channel_id, i) for i in records]
    thetas = [int(g.integers(-MN // 2, MN // 2)) for g in rngs]
    snrs = [float(grid[g.integers(len(grid))]) for g in rngs]
    _synthesize(cfg, profile, channel_id, snrs, thetas, rngs, out)
    return out


def _synthesized(cfg: DatasetConfig, recs: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """Every chunk of ``cfg``'s records in file order, synthesized into its
    slice of the record array ``recs`` or, without ``recs``, into one buffer
    per chunk in flight, reused once the chunk yielded has been consumed.

    The chunks go in turns of T, the usable CPUs: the first of a turn runs
    on the calling thread and each other on one of T - 1 worker threads.  A
    call of one chunk, a process with one usable CPU and records of fewer
    than ``THREADED_MIN_SAMPLES`` samples start no thread.  The workers are
    joined before this returns or raises, and an exception in a chunk
    reaches the caller."""
    MN, spc = cfg.frame.grid_size, cfg.samples_per_channel
    rows = min(_chunk_records(MN), spc)
    chunks = len(cfg.channels) * -(-spc // rows)
    threads = min(_usable_cpus(), chunks) if MN >= THREADED_MIN_SAMPLES else 1
    buffers = [np.empty(rows, record_dtype(MN)) for _ in range(threads)] if recs is None else []
    pool = contextlib.nullcontext()
    if threads > 1:
        # imported here: concurrent.futures imports logging, which would add
        # about 6 ms to every import of the package
        from concurrent.futures import ThreadPoolExecutor

        # the AWGN channel is told by the identity of its cached realization,
        # so every cache a chunk reads is filled before two threads can miss
        # it together and build two equal objects
        _grid_plan(cfg.frame, _stream_layout(cfg)[0])
        _identity_channel(cfg.sample_rate_hz)
        pool = ThreadPoolExecutor(threads - 1)
    jobs = ((channel_id, profile, range(first, min(first + rows, spc)))
            for channel_id, profile in channel_table(cfg) for first in range(0, spc, rows))
    at = 0
    with pool:
        while turn := list(itertools.islice(jobs, threads)):
            outs = []
            for k, (_, _, records) in enumerate(turn):
                n = len(records)
                outs.append(buffers[k][:n] if recs is None else recs[at : at + n])
                at += n
            futures = [pool.submit(_fill_chunk, cfg, job, out)
                       for job, out in zip(turn[1:], outs[1:])]
            yield _fill_chunk(cfg, turn[0], outs[0])
            for future in futures:
                yield future.result()


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
        needs no extra state to reproduce.  A dataset without records splits
        into two empty ones."""
        train_idx = [np.empty(0, np.intp)]
        test_idx = [np.empty(0, np.intp)]
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
    for _ in _synthesized(cfg, recs):
        pass
    f = cfg.frame
    return _dataset(f.M, f.N, f.L_CP, cfg.global_seed, recs)


def _write_records(path: str, version: int, M: int, N: int, L_CP: int, count: int,
                   global_seed: int, chunks: Generator[np.ndarray, None, None]) -> None:
    """Write the header, then each record array of ``chunks`` in turn, so
    the writer holds the chunks in flight, not the dataset.  ``chunks`` is
    closed on the way out, so a failed write also stops its workers."""
    with open(path, "wb") as fh, contextlib.closing(chunks):
        fh.write(_HEADER.pack(MAGIC, version, M, N, L_CP, count, global_seed))
        for chunk in chunks:
            fh.write(chunk)


def write_dataset(cfg: DatasetConfig, path: str) -> int:
    """Generate and stream a dataset straight to disk; returns record count."""
    n, f = cfg.record_count, cfg.frame
    _write_records(path, FORMAT_VERSION, f.M, f.N, f.L_CP, n, cfg.global_seed,
                   _synthesized(cfg))
    return n


def save_dataset(ds: Dataset, path: str) -> None:
    """Write an in-memory dataset in the standard binary layout, under the
    format version its records were generated with."""
    MN = ds.M * ds.N
    buffer = np.empty(_chunk_records(MN), dtype=record_dtype(MN))
    columns = {name: getattr(ds, name) for name in buffer.dtype.names if name != "window"}
    columns["window"] = ds.windows

    def chunks() -> Iterator[np.ndarray]:
        for lo in range(0, len(ds), len(buffer)):
            out = buffer[: min(len(buffer), len(ds) - lo)]
            for name, column in columns.items():
                out[name] = column[lo : lo + len(out)]
            yield out

    _write_records(path, ds.format_version, ds.M, ds.N, ds.L_CP, len(ds),
                   ds.global_seed, chunks())


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
