"""Workloads, output checks and metric assembly of the otfs-sync benchmark.

A run is: imports timed in fresh interpreters, the workload's set-up repeated
``Sizes.setups`` times, one warm-up round whose timings are dropped, then
*rounds* of the workload until the measuring time is spent.  A round is a
fixed bundle of work, so per-round rates can be compared across commits and
medians over rounds are the end-to-end values.  Every call into the program is an *op*;
an op that raises, or an output check that fails, counts as failed and ends
its round without stopping the run.

All work runs in this one process, one caller in a closed loop: the next
call starts when the previous one returns.  BLAS threads are whatever the
environment gives the process; nothing here sets them.

Workloads (BENCHMARK.json and bench/README.md say why each was chosen):

* ``toy-train`` -- the acceptance protocol at reduced size: a 32x8 AWGN
  {10, 20} dB dataset from ``generate_dataset``, split, ``train_coarse`` then
  ``train_fine`` (B=64, lr=5e-3), then ``infer_two_stage`` and the classic
  estimators on the test split, and single-capture ``pipeline.infer``.
* ``default-synth`` -- 256x64 Zadoff-Chu captures over the AWGN, Rayleigh
  and EVA presets streamed to disk by ``write_dataset``, read back and split.
* ``default-eval`` -- a 256x64 dataset written during set-up is read, scored
  by ``estimate_all`` for ``crosscorr`` and ``autocorr2d``, and run through
  seeded coarse/fine models (round-tripped through ``save_model``/
  ``load_model``) at batch 16 and one capture at a time.

Every workload reports every end-to-end metric.  A metric outside a default
workload's focus comes from a small toy round (a *probe*) inside each of its
rounds; ``FEEDS`` says which phase feeds which metric.

The machine is a few cores of a shared host whose speed flips between
states up to 2x apart that last seconds.  A fixed reference kernel is timed
between ops (``HostClock``), and each sample of a bounded end-to-end metric
is scaled to a host of nominal speed by the timings around it; the report
keeps the raw values beside them.
"""

from __future__ import annotations

import contextlib
import os
import resource
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from otfs_sync import classic, dataset, metrics, pipeline
from otfs_sync.channel import AWGN_PROFILE, EVA_PROFILE, RAYLEIGH_PROFILE
from otfs_sync.frames import FrameConfig, toy_frame_config, zadoff_chu
from otfs_sync.nn import model

from spans import Tracer

# name -> unit of every end-to-end metric in the final result line
END_TO_END = {
    "setup_s": "s",
    "synth_captures_per_s": "1/s",
    "read_mb_per_s": "MB/s",
    "train_samples_per_s": "1/s",
    "infer_captures_per_s": "1/s",
    "infer_one_ms_p50": "ms",
    "infer_one_ms_p90": "ms",
    "autocorr2d_captures_per_s": "1/s",
    "crosscorr_captures_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# reported beside the end-to-end metrics; it is 0 on correct code, so it is
# not a bounded metric, and the result line carries its counts instead
FAILED_OP_RATIO = ("failed_op_ratio", "ratio")

_SELF_SPANS = (
    "frames.build_dd_frame", "frames.dd_to_dt",
    "channel.realize_channel", "channel.apply_fading", "channel.apply_awgn",
    "dataset.synthesize_capture", "dataset.generate_dataset",
    "dataset.write_dataset", "dataset.save_dataset",
    "classic.autocorr2d", "classic.cross_correlation_surface",
    "metrics.estimate_all", "pipeline.train",
)
_TOTAL_SPANS = (
    "dataset.read_dataset", "dataset.split", "pipeline.compensate_batch",
    "nn.softmax_cross_entropy", "nn.AdamW.step", "nn.AdamW.zero_grad",
    "nn.predict_classes", "nn.save_model", "nn.load_model", "nn.build_sync_model",
)
_LAYERS = ("Conv1d", "BatchNorm1d", "ReLU", "MaxPool1d", "Linear")
_BLOCKS = tuple(name for name, _, _ in model.TRUNK)
_COUNTS = (
    "channel.faded_samples", "dataset.bytes_written", "dataset.bytes_read",
    "classic.autocorr2d.macs", "classic.cross_correlation_surface.macs",
    "nn.Conv1d.macs",
)

# name -> unit of every per-layer metric of a traced run.  Times and counts
# are per work unit: one set-up plus one round.
PER_LAYER = {
    **{f"{s}.self_s": "s/unit" for s in _SELF_SPANS},
    **{f"{s}.s": "s/unit" for s in _TOTAL_SPANS},
    **{f"nn.{n}.{d}_s": "s/unit" for n in _LAYERS + _BLOCKS for d in ("fwd", "bwd")},
    **{c: "count/unit" for c in _COUNTS},
    "classic.autocorr2d.calls": "count/unit",
    "classic.cross_correlation_surface.calls": "count/unit",
    "channel.window_fraction": "ratio",
    "nn.Conv1d.gflop_per_s": "GFLOP/s",
    "pipeline.train_step_ms_p50": "ms",
    "pipeline.train_step_ms_p90": "ms",
    "pipeline.train_step.samples": "count",
    "trace.unit_wall_s": "s/unit",
    "trace.self_sum_s": "s/unit",
    "trace.overhead_s": "s/round",
    "trace.overhead_pct": "%",
}

MIN_ONE_SAMPLES = 110  # >= 10 single-capture latencies beyond p90
# short ops are repeated in each round until they cover this much work
MIN_CALLS = 3
MIN_READ_MB = 160.0
MIN_TOY_INFER = 1200
MIN_TOY_ESTIMATES = 2400
TOY_LR, TOY_BATCH = 5e-3, 64
# a toy round generates its records in this many calls, one sample each
TOY_CHUNKS = 16
EVAL_BATCH = 16
# preamble at toy scale: crosscorr is timed on toy windows, which carry none
TOY_PREAMBLE = (32, 25)

# median reference_work() time on a 2-vCPU VM (numpy 2.4, Python 3.11); the
# constant only sets the scale of corrected values, not their spread
REF_NOMINAL_S = 0.42e-3
TICK_EVERY_S = 0.04    # least time between two reference timings
SPEED_WINDOW_S = 0.25  # reference timings this close to a sample correct it
SPEED_MIN_TICKS = 3
# samples that are durations; every other sampled metric is a rate
TIME_SAMPLES = ("infer_one_ms", "import_s", "setup_body_s")
# never corrected: read_dataset is bound by memory bandwidth, which the
# reference kernel does not follow (over ten default-synth runs, corrected
# reads spread 0.21 and raw ones 0.05), and imports run in child processes,
# which the kernel does not share (bench/README.md)
RAW_SAMPLES = ("read_mb_per_s", "import_s")

# data-stream tags for seed derivation
_TOY, _SYNTH, _EVAL, _MODELS, _PICK = range(5)


@dataclass(frozen=True)
class Sizes:
    toy_records: int        # toy-train records per round
    toy_epochs: int         # toy-train epochs per stage
    probe_records: int      # records of the toy probe in default workloads
    probe_epochs: int
    toy_one_calls: int      # single-capture inferences per toy round or probe
    eval_one_calls: int     # single-capture inferences per default-eval round
    synth_per_channel: int  # default-synth records per channel per round
    eval_per_channel: int   # default-eval input records per channel
    eval_infer: int         # default-eval records through infer_two_stage per round
    checked_records: int    # default-synth records regenerated per round
    setups: int             # set-up repetitions
    imports: int            # fresh-interpreter import timings
    accuracy_floor: float   # median toy-train two-stage exact match of a run


FULL = Sizes(toy_records=1024, toy_epochs=2, probe_records=320, probe_epochs=1,
             toy_one_calls=48, eval_one_calls=16, synth_per_channel=24,
             eval_per_channel=24, eval_infer=16, checked_records=2, setups=5, imports=9,
             # half the lowest run median of the seed runs (bench/README.md)
             accuracy_floor=0.25)
TINY = Sizes(toy_records=160, toy_epochs=1, probe_records=80, probe_epochs=1,
             toy_one_calls=4, eval_one_calls=4, synth_per_channel=1,
             eval_per_channel=8, eval_infer=2, checked_records=1, setups=2, imports=2,
             # one epoch on 128 captures learns next to nothing
             accuracy_floor=0.0)


def derive_seed(seed: int, tag: int, index: int) -> int:
    """Independent 32-bit seed for one data stream of one round."""
    return int(np.random.SeedSequence([seed, tag, index]).generate_state(1)[0])


_REF_V = np.random.default_rng(0).standard_normal(64) + 0j


def reference_work() -> int:
    """Fixed host-speed probe written like the program's inner loops: numpy
    calls on 64-sample arrays (FFT, abs, argmax, concatenate, reshape-sum)
    and small dict and list work.  Such code leans on the interpreter, call
    dispatch and the caches as the program does, so a shared host speeds it
    up and slows it down with the program.  It uses no BLAS and no program
    code, so no change to the program can move it."""
    s = 0
    for _ in range(20):
        y = np.abs(np.fft.fft(_REF_V))
        s += int(np.argmax(y))
        s += int(np.concatenate([y, y]).reshape(2, -1).sum(axis=0).size)
        d = {k: 2 * k for k in range(20)}
        s += sum(sorted(d.values(), reverse=True)[:3])
    return s


class HostClock:
    """How fast the shared host runs, moment by moment.

    The host flips between states whose speeds differ by up to 2x and that
    last seconds.  ``tick`` times ``reference_work`` at most every
    ``TICK_EVERY_S``; it is called before every op, so the timings follow
    the run.  A timing is the faster of two back-to-back calls, so that one
    made cold (after a wait, or next to a BLAS call whose threads still spin)
    does not count.  ``speed(start, end)`` is ``REF_NOMINAL_S`` over the median
    reference time within ``SPEED_WINDOW_S`` of that interval (at least the
    ``SPEED_MIN_TICKS`` nearest): above 1 while the host runs faster than
    nominal.  The host's state moves the program and the reference together,
    so dividing it out of each sample leaves the program's own speed.
    """

    def __init__(self):
        self.at: list[float] = []     # midpoint of each timing, ascending
        self.times: list[float] = []  # seconds of each timing
        self._next = 0.0

    def tick(self, force: bool = False) -> None:
        start = time.perf_counter()
        if not force and start < self._next:
            return
        reference_work()
        middle = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.at.append(middle)
        self.times.append(min(middle - start, end - middle))
        self._next = end + TICK_EVERY_S

    def speed(self, start: float | None = None, end: float | None = None) -> float:
        """Over the whole run when no interval is given."""
        if not self.times:
            return 1.0
        times = np.asarray(self.times)
        if start is not None:
            at = np.asarray(self.at)
            lo = np.searchsorted(at, start - SPEED_WINDOW_S)
            hi = np.searchsorted(at, end + SPEED_WINDOW_S, side="right")
            if hi - lo >= SPEED_MIN_TICKS:
                times = times[lo:hi]
            else:
                nearest = np.argsort(np.abs(at - 0.5 * (start + end)))
                times = times[nearest[:SPEED_MIN_TICKS]]
        return REF_NOMINAL_S / float(np.median(times))


class OpFailed(Exception):
    """An op or check failed; the current round stops, the run goes on."""


class Run:
    """Samples, op accounting and scratch files of one benchmark run."""

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.spans: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.accuracies: list[float] = []  # toy two-stage test accuracy per round
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checks: dict[str, int] = defaultdict(int)
        self.bytes = {"written": 0, "read": 0}  # from the file layout
        self.round_index = 0
        self.tracer: Tracer | None = None
        self.clock = HostClock()
        self.last_infer = None  # (windows, coarse, fine) for single-capture top-up
        self.last_span = (0.0, 0.0)  # start and end of the last op

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def op(self, label: str, fn, *args):
        """Call into the program; returns (result, seconds)."""
        self.clock.tick()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # counted, reported, and the round ends
            self._fail(f"{label}: {type(exc).__name__}: {exc}")
        self.last_span = (t0, time.perf_counter())
        return out, self.last_span[1] - t0

    def add(self, metric: str, value: float, start: float | None = None,
            end: float | None = None) -> None:
        """One sample of ``metric``, measured over the last op unless an
        interval is given."""
        self.samples[metric].append(value)
        self.spans[metric].append((self.last_span[0] if start is None else start,
                                   self.last_span[1] if end is None else end))

    def check(self, label: str, fn, *args) -> None:
        """Run an output check that returns None or a mismatch description."""
        self.attempted += 1
        self.checks[label] += 1
        try:
            with self.tracer.paused() if self.tracer else contextlib.nullcontext():
                problem = fn(*args)
        except Exception as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self._fail(f"check {label}: {problem}")

    def _fail(self, message: str):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)
        raise OpFailed(message)


# -- configurations ---------------------------------------------------------

def toy_config(records: int, seed: int) -> dataset.DatasetConfig:
    return dataset.DatasetConfig(
        frame=toy_frame_config(), channels=(AWGN_PROFILE,), snr_grid_db=(10.0, 20.0),
        samples_per_channel=records, global_seed=seed)


def default_config(per_channel: int, seed: int, snr_grid_db) -> dataset.DatasetConfig:
    return dataset.DatasetConfig(
        frame=FrameConfig(), channels=(AWGN_PROFILE, RAYLEIGH_PROFILE, EVA_PROFILE),
        snr_grid_db=snr_grid_db, samples_per_channel=per_channel,
        preamble=dataset.PreambleConfig(), global_seed=seed)


SYNTH_SNR_DB = (0.0, 10.0, 20.0)
# crosscorr is checked on 20 dB AWGN records, so the eval input is all 20 dB
EVAL_SNR_DB = (20.0,)


def hyper(seed: int, epochs: int, stage: int) -> pipeline.TrainHyper:
    return pipeline.TrainHyper(lr=TOY_LR, batch_size=TOY_BATCH, epochs=epochs,
                               seed=derive_seed(seed, _MODELS, stage))


def concat(parts: list[dataset.Dataset]) -> dataset.Dataset:
    """One dataset holding the parts' records in order."""
    columns = ("windows", "channel_id", "snr_db", "theta_raw", "theta_wrapped",
               "theta_t", "theta_d")
    head = parts[0]
    return dataset.Dataset(
        M=head.M, N=head.N, L_CP=head.L_CP, global_seed=head.global_seed,
        **{c: np.concatenate([getattr(p, c) for p in parts]) for c in columns})


def sweep_models(cfg: dataset.DatasetConfig, preamble: np.ndarray,
                 coarse=None, fine=None) -> metrics.SweepModels:
    return metrics.SweepModels(
        coarse=coarse, fine=fine, preamble=preamble,
        preamble_offset=-(preamble.size + cfg.frame.L_CP), pilot_row=cfg.pilot.m_p)


# -- output checks (each returns None when the output is right) ---------------

HEADER_BYTES = 40        # 8s magic, 4 x u32, 2 x u64 (dataset module docstring)
RECORD_FIXED_BYTES = 17  # u8, f32, i32, u32, u16, u16


def record_dtype(MN: int) -> np.dtype:
    return np.dtype([("channel_id", "u1"), ("snr_db", "<f4"), ("theta_raw", "<i4"),
                     ("theta_wrapped", "<u4"), ("theta_t", "<u2"), ("theta_d", "<u2"),
                     ("window", "<f4", (2, MN))])


def expected_file_bytes(records: int, MN: int) -> int:
    return HEADER_BYTES + records * (RECORD_FIXED_BYTES + 8 * MN)


def check_file_size(path: str, records: int, MN: int) -> str | None:
    size, want = os.path.getsize(path), expected_file_bytes(records, MN)
    return None if size == want else f"{path} has {size} bytes, layout needs {want}"


def check_record(path: str, cfg: dataset.DatasetConfig, k: int) -> str | None:
    """Regenerate record ``k`` from its seed and compare it with the file bytes.

    Records are laid out channel by channel in configuration order; preset
    channels keep their enum value as id.
    """
    MN = cfg.frame.grid_size
    spc = cfg.samples_per_channel
    profile = cfg.channels[k // spc]
    cid, i = int(profile.kind), k % spc
    rng = dataset.per_record_rng(cfg.global_seed, cid, i)
    theta = int(rng.integers(-MN // 2, MN // 2))
    snr = float(np.asarray(cfg.snr_grid_db)[rng.integers(len(cfg.snr_grid_db))])
    rec = dataset.synthesize_capture(cfg, profile, cid, snr, theta, rng)
    dt = record_dtype(MN)
    with open(path, "rb") as fh:
        fh.seek(HEADER_BYTES + k * dt.itemsize)
        raw = fh.read(dt.itemsize)
    if len(raw) != dt.itemsize:
        return f"record {k} is truncated"
    got = np.frombuffer(raw, dtype=dt)[0]
    want = (cid, np.float32(snr), theta, rec.theta_wrapped, rec.theta_t, rec.theta_d)
    fields = ("channel_id", "snr_db", "theta_raw", "theta_wrapped", "theta_t", "theta_d")
    for name, value in zip(fields, want):
        if got[name] != value:
            return f"record {k} {name}={got[name]}, regenerated {value}"
    if got["window"].tobytes() != rec.window.astype("<f4").tobytes():
        return f"record {k} window bytes differ from the regenerated capture"
    return None


def check_read_back(path: str, ds: dataset.Dataset, k: int) -> str | None:
    """The reader returns record ``k`` exactly as the file stores it."""
    dt = record_dtype(ds.M * ds.N)
    with open(path, "rb") as fh:
        fh.seek(HEADER_BYTES + k * dt.itemsize)
        got = np.frombuffer(fh.read(dt.itemsize), dtype=dt)[0]
    if got["window"].tobytes() != ds.windows[k].astype("<f4").tobytes():
        return f"read_dataset record {k} differs from the file"
    if int(got["theta_wrapped"]) != int(ds.theta_wrapped[k]):
        return f"read_dataset record {k} label differs from the file"
    return None


def autocorr2d_reference(window: np.ndarray, M: int, N: int) -> np.ndarray:
    """P[m, n] = sum_{k=0}^{N-2} conj(r[m, (n+k)%N]) r[m, (n+k+1)%N], looped
    over n and k with the delay axis vectorized."""
    r = window.reshape((M, N), order="F")
    P = np.zeros((M, N), dtype=np.complex128)
    for n in range(N):
        for k in range(N - 1):
            P[:, n] += np.conj(r[:, (n + k) % N]) * r[:, (n + k + 1) % N]
    return P


def check_autocorr2d(window: np.ndarray, M: int, N: int) -> str | None:
    P = classic.autocorr2d(window, M, N)
    ref = autocorr2d_reference(window, M, N)
    rel = float(np.max(np.abs(P - ref)) / np.max(np.abs(ref)))
    return None if rel <= 1e-12 else f"autocorr2d surface off by {rel:.3g} relative"


def check_crosscorr(ds: dataset.Dataset, theta_hat: np.ndarray, cfg) -> str | None:
    """Exact match >= 0.99 on 20 dB AWGN records whose window holds the
    preamble (acceptance check 8)."""
    MN = ds.M * ds.N
    upper = -(cfg.preamble.length + cfg.frame.L_CP)
    sel = ((ds.channel_id == int(AWGN_PROFILE.kind)) & (ds.snr_db == 20.0)
           & (ds.theta_raw >= -MN // 2) & (ds.theta_raw <= upper))
    if not sel.any():
        return "no preamble-in-window 20 dB AWGN record to check"
    acc = float(np.mean(theta_hat[sel] == ds.theta_wrapped[sel]))
    return None if acc >= 0.99 else f"crosscorr exact match {acc:.3f} < 0.99 on {sel.sum()}"


def check_accuracy(accuracies: list[float], floor: float) -> str | None:
    """The run's median two-stage test accuracy over its toy rounds."""
    if not accuracies:
        return "no toy round finished"
    acc = float(np.median(accuracies))
    return None if acc >= floor else f"median two-stage accuracy {acc:.3f} < floor {floor}"


def check_same_state(a: model.SyncModel, b: model.SyncModel) -> str | None:
    sa, sb = a.state_dict(), b.state_dict()
    if sa.keys() != sb.keys() or any(not np.array_equal(sa[k], sb[k]) for k in sa):
        return "load_model does not restore the saved tensors"
    return None


# -- phases -----------------------------------------------------------------

# end-to-end samples that a toy round feeds in each workload; the default
# workloads' other samples come from their own phases (see bench/README.md)
TOY_FEEDS = {
    "toy-train": {"synth_captures_per_s", "read_mb_per_s", "train_samples_per_s",
                  "infer_captures_per_s", "autocorr2d_captures_per_s",
                  "crosscorr_captures_per_s"},
    "default-synth": {"train_samples_per_s", "infer_captures_per_s",
                      "autocorr2d_captures_per_s", "crosscorr_captures_per_s"},
    "default-eval": {"train_samples_per_s"},
}


def single_inferences(run: Run, windows: np.ndarray, coarse, fine, calls: int,
                      start: int = 0) -> None:
    run.last_infer = (windows, coarse, fine)
    for j in range(calls):
        _, t = run.op("pipeline.infer", pipeline.infer,
                      windows[(start + j) % len(windows)], coarse, fine)
        run.add("infer_one_ms", 1e3 * t)


def timed_rate(run: Run, metric: str, label: str, per_call: float, min_work: float,
               fn, *args):
    """Time at least ``MIN_CALLS`` calls and ``min_work`` units (captures or
    MB) of work; each call adds one sample of units per second to ``metric``.
    Returns the last result and the number of calls."""
    calls = max(MIN_CALLS, int(np.ceil(min_work / per_call)))
    for _ in range(calls):
        out = None  # one result alive at a time, as for a single caller
        out, t = run.op(label, fn, *args)
        run.add(metric, per_call / t)
    return out, calls


def toy_round(run: Run, feeds: set[str], records: int, epochs: int, r: int) -> None:
    """Generate (in ``TOY_CHUNKS`` calls), (save and read,) split and train;
    with ``infer_captures_per_s`` in ``feeds`` also infer, estimate and run
    single-capture inference."""
    parts = []
    for j in range(TOY_CHUNKS):
        cfg = toy_config(records // TOY_CHUNKS, derive_seed(run.seed, _TOY, TOY_CHUNKS * r + j))
        part, t = run.op("generate_dataset", dataset.generate_dataset, cfg)
        if "synth_captures_per_s" in feeds:
            run.add("synth_captures_per_s", len(part) / t)
        parts.append(part)
    ds = concat(parts)
    if "read_mb_per_s" in feeds:
        path = run.path("toy.ds")
        size = expected_file_bytes(len(ds), cfg.frame.grid_size)
        run.op("save_dataset", dataset.save_dataset, ds, path)
        run.bytes["written"] += size
        run.check("dataset file size", check_file_size, path, len(ds), cfg.frame.grid_size)
        back, calls = timed_rate(run, "read_mb_per_s", "read_dataset", size / 1e6,
                                 MIN_READ_MB, dataset.read_dataset, path)
        run.bytes["read"] += calls * size
        run.check("record reads back", check_read_back, path, back, r % len(ds))
    (train, test), _ = run.op("split", ds.split)
    coarse, t_coarse = run.op("train_coarse", pipeline.train_coarse,
                              train, test, hyper(run.seed, epochs, 2 * r))
    coarse_start = run.last_span[0]
    fine, t_fine = run.op("train_fine", pipeline.train_fine,
                          coarse.model, train, test, hyper(run.seed, epochs, 2 * r + 1))
    run.add("train_samples_per_s", 2 * epochs * len(train) / (t_coarse + t_fine),
            start=coarse_start)
    if "infer_captures_per_s" not in feeds:
        return
    theta, _ = timed_rate(run, "infer_captures_per_s", "infer_two_stage", len(test),
                          MIN_TOY_INFER, pipeline.infer_two_stage,
                          test.windows, coarse.model, fine.model, TOY_BATCH)
    run.accuracies.append(float(np.mean(theta == test.theta_wrapped)))
    models = sweep_models(cfg, zadoff_chu(*TOY_PREAMBLE))
    for method in ("autocorr2d", "crosscorr"):
        timed_rate(run, f"{method}_captures_per_s", f"estimate_all {method}", len(test),
                   MIN_TOY_ESTIMATES, metrics.estimate_all, test, method, models)
    single_inferences(run, test.windows, coarse.model, fine.model, run.sizes.toy_one_calls)


def probe(run: Run, feeds: set[str], r: int) -> None:
    toy_round(run, feeds, run.sizes.probe_records, run.sizes.probe_epochs, r)


# toy-train ------------------------------------------------------------------

def no_setup(run: Run, i: int) -> None:
    """Workloads that build their models and inputs inside each round."""
    return None


def toy_train_round(run: Run, state, r: int) -> None:
    toy_round(run, TOY_FEEDS["toy-train"], run.sizes.toy_records, run.sizes.toy_epochs, r)


# default-synth ---------------------------------------------------------------

def default_synth_round(run: Run, state, r: int) -> None:
    cfg = default_config(run.sizes.synth_per_channel, derive_seed(run.seed, _SYNTH, r),
                         SYNTH_SNR_DB)
    MN = cfg.frame.grid_size
    path = run.path("synth.ds")
    n, t = run.op("write_dataset", dataset.write_dataset, cfg, path)
    run.add("synth_captures_per_s", n / t)
    size = expected_file_bytes(n, MN)
    run.bytes["written"] += size
    run.check("dataset file size", check_file_size, path, n, MN)
    ds, calls = timed_rate(run, "read_mb_per_s", "read_dataset", size / 1e6,
                           MIN_READ_MB, dataset.read_dataset, path)
    run.bytes["read"] += calls * size
    run.op("split", ds.split)
    pick = np.random.default_rng(derive_seed(run.seed, _PICK, r))
    for k in pick.choice(n, size=run.sizes.checked_records, replace=False):
        run.check("record regenerates", check_record, path, cfg, int(k))
        run.check("record reads back", check_read_back, path, ds, int(k))
    probe(run, TOY_FEEDS["default-synth"], r)


# default-eval ----------------------------------------------------------------

@dataclass
class EvalState:
    cfg: dataset.DatasetConfig
    path: str
    coarse: model.SyncModel
    fine: model.SyncModel
    models: metrics.SweepModels


def default_eval_setup(run: Run, i: int) -> EvalState:
    M, N = FrameConfig().M, FrameConfig().N
    built = {}
    for j, head in enumerate(("coarse", "fine"), start=1):
        net = model.build_sync_model(M, N, head, seed=derive_seed(run.seed, _EVAL, j))
        path = run.path(f"{head}.weights")
        run.op("save_model", model.save_model, path, net)
        (loaded, _), _ = run.op("load_model", model.load_model, path)
        run.check(f"{head} weights round-trip", check_same_state, net, loaded)
        built[head] = loaded
    cfg = default_config(run.sizes.eval_per_channel, derive_seed(run.seed, _EVAL, 0),
                         EVAL_SNR_DB)
    path = run.path("eval.ds")
    n, t = run.op("write_dataset", dataset.write_dataset, cfg, path)
    run.add("synth_captures_per_s", n / t)
    run.bytes["written"] += expected_file_bytes(n, cfg.frame.grid_size)
    run.check("dataset file size", check_file_size, path, n, cfg.frame.grid_size)
    models = sweep_models(cfg, zadoff_chu(cfg.preamble.length, cfg.preamble.root),
                          built["coarse"], built["fine"])
    return EvalState(cfg, path, built["coarse"], built["fine"], models)


def default_eval_round(run: Run, st: EvalState, r: int) -> None:
    size = expected_file_bytes(3 * run.sizes.eval_per_channel, st.cfg.frame.grid_size)
    ds, calls = timed_rate(run, "read_mb_per_s", "read_dataset", size / 1e6,
                           MIN_READ_MB, dataset.read_dataset, st.path)
    run.bytes["read"] += calls * size
    n = len(ds)
    xc, _ = timed_rate(run, "crosscorr_captures_per_s", "estimate_all crosscorr", n, n,
                       metrics.estimate_all, ds, "crosscorr", st.models)
    run.check("crosscorr exact match", check_crosscorr, ds, xc, st.cfg)
    timed_rate(run, "autocorr2d_captures_per_s", "estimate_all autocorr2d", n, n,
               metrics.estimate_all, ds, "autocorr2d", st.models)
    w = ds.windows[r % n].astype(np.float64)
    run.check("autocorr2d surface", check_autocorr2d, w[0] + 1j * w[1], ds.M, ds.N)
    k = run.sizes.eval_infer
    idx = (r * k + np.arange(k)) % n
    _, t = run.op("infer_two_stage", pipeline.infer_two_stage,
                  ds.windows[idx], st.coarse, st.fine, EVAL_BATCH)
    run.add("infer_captures_per_s", k / t)
    single_inferences(run, ds.windows, st.coarse, st.fine, run.sizes.eval_one_calls,
                      start=r * run.sizes.eval_one_calls)
    probe(run, TOY_FEEDS["default-eval"], r)


@dataclass(frozen=True)
class Workload:
    setup: object  # (run, repetition) -> state passed to every round
    round: object  # (run, state, round index) -> None


WORKLOADS = {
    "toy-train": Workload(no_setup, toy_train_round),
    "default-synth": Workload(no_setup, default_synth_round),
    "default-eval": Workload(default_eval_setup, default_eval_round),
}


# -- the run ------------------------------------------------------------------

def time_imports(run: Run, src: str, repeats: int) -> None:
    """``import_s`` samples: seconds for a fresh interpreter to import the
    package, ``repeats`` times."""
    env = dict(os.environ, PYTHONPATH=src)
    code = "import otfs_sync, otfs_sync.pipeline, otfs_sync.metrics, otfs_sync.cli"
    for _ in range(repeats):
        run.clock.tick(force=True)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
        t1 = time.perf_counter()
        run.add("import_s", t1 - t0, t0, t1)
    run.clock.tick(force=True)


def warm_up(run: Run, wl: Workload, state) -> None:
    """One round whose timings are dropped: the first round of a process pays
    one-time costs (BLAS thread start, first touch of memory the allocator
    later reuses, cold caches) that later rounds do not.  Its ops and checks
    still count."""
    kept = {metric: len(v) for metric, v in run.samples.items()}
    try:
        wl.round(run, state, run.round_index)
    except OpFailed:
        pass
    run.round_index += 1
    for metric in run.samples:
        del run.samples[metric][kept.get(metric, 0):]
        del run.spans[metric][kept.get(metric, 0):]


def measure(run: Run, wl: Workload, state, seconds: float) -> list[float]:
    """Rounds until ``seconds`` have passed (at least one unless ``seconds``
    is 0); returns their walls."""
    walls: list[float] = []
    deadline = time.perf_counter() + seconds
    while seconds > 0 and (not walls or time.perf_counter() < deadline):
        t0 = time.perf_counter()
        try:
            wl.round(run, state, run.round_index)
        except OpFailed:
            pass
        run.round_index += 1
        walls.append(time.perf_counter() - t0)
    return walls


def _median(xs) -> float:
    return float(np.median(xs)) if len(xs) else 0.0


def corrected(run: Run, metric: str) -> np.ndarray:
    """``metric``'s samples as on a host of nominal speed: each duration is
    multiplied by the host's speed around its sample, each rate divided."""
    values = np.asarray(run.samples[metric], dtype=np.float64)
    speed = np.array([run.clock.speed(a, b) for a, b in run.spans[metric]])
    return values * speed if metric in TIME_SAMPLES else values / speed


def end_to_end(run: Run, host_corrected: bool) -> dict[str, float]:
    """Medians (and single-capture percentiles) over the run's samples,
    corrected for host speed (``RAW_SAMPLES`` excepted) or raw."""
    def v(metric: str) -> np.ndarray:
        if host_corrected and metric not in RAW_SAMPLES:
            return corrected(run, metric)
        return np.asarray(run.samples[metric], dtype=np.float64)

    one = v("infer_one_ms")
    out = {
        "setup_s": _median(v("import_s")) + _median(v("setup_body_s")),
        **{k: _median(v(k)) for k in (
            "synth_captures_per_s", "read_mb_per_s", "train_samples_per_s",
            "infer_captures_per_s", "autocorr2d_captures_per_s",
            "crosscorr_captures_per_s")},
        "infer_one_ms_p50": float(np.percentile(one, 50)) if one.size else 0.0,
        "infer_one_ms_p90": float(np.percentile(one, 90)) if one.size else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: out[k] for k in END_TO_END}


def host_report(clock: HostClock) -> dict:
    speeds = REF_NOMINAL_S / np.asarray(clock.times) if clock.times else np.ones(1)
    return {"speed": clock.speed(), "reference_ticks": len(clock.times),
            "tick_speed_quartiles": np.percentile(speeds, [25, 50, 75]).round(4).tolist(),
            "reference_ms_median": 1e3 * _median(clock.times),
            "reference_ms_nominal": 1e3 * REF_NOMINAL_S}


def per_layer(setup: dict, setups: int, rounds: dict, n_rounds: int,
              unit_wall_s: float, overhead_s: float, base_round_s: float) -> dict[str, float]:
    """Per-unit values (one set-up plus one round) from two tracer takes."""
    def per_unit(section: str, key: str) -> float:
        return (setup[section].get(key, 0.0) / setups
                + rounds[section].get(key, 0.0) / n_rounds)

    out: dict[str, float] = {}
    for s in _SELF_SPANS:
        out[f"{s}.self_s"] = per_unit("self_s", s)
    for s in _TOTAL_SPANS:
        out[f"{s}.s"] = per_unit("total_s", s)
    for n in _LAYERS:
        for d in ("fwd", "bwd"):
            out[f"nn.{n}.{d}_s"] = per_unit("self_s", f"nn.{n}.{d}")
    for n in _BLOCKS:
        for d in ("fwd", "bwd"):
            out[f"nn.{n}.{d}_s"] = per_unit("total_s", f"nn.{n}.{d}")
    for c in _COUNTS:
        out[c] = per_unit("counts", c)
    for s in ("classic.autocorr2d", "classic.cross_correlation_surface"):
        out[f"{s}.calls"] = per_unit("calls", s)
    faded = out["channel.faded_samples"]
    out["channel.window_fraction"] = (
        per_unit("counts", "channel.kept_samples") / faded if faded else 0.0)
    fwd = out["nn.Conv1d.fwd_s"]
    out["nn.Conv1d.gflop_per_s"] = 2 * out["nn.Conv1d.macs"] / fwd / 1e9 if fwd else 0.0
    steps = setup["step_s"] + rounds["step_s"]
    out["pipeline.train_step_ms_p50"] = float(np.percentile(steps, 50)) * 1e3 if steps else 0.0
    out["pipeline.train_step_ms_p90"] = float(np.percentile(steps, 90)) * 1e3 if steps else 0.0
    out["pipeline.train_step.samples"] = float(len(steps))
    out["trace.unit_wall_s"] = unit_wall_s
    out["trace.self_sum_s"] = (sum(setup["self_s"].values()) / setups
                               + sum(rounds["self_s"].values()) / n_rounds)
    out["trace.overhead_s"] = overhead_s
    out["trace.overhead_pct"] = 100.0 * overhead_s / base_round_s if base_round_s else 0.0
    return {k: out[k] for k in PER_LAYER}


def computed_counts(run: Run) -> dict:
    """Exact operation counts from the program's analytic counters, and the
    bytes the run wrote and read according to the documented file layout."""
    toy, default = toy_frame_config(), FrameConfig()
    return {
        "forward_flops_per_window": {
            f"{head}@{f.M}x{f.N}": model.flops_report(f.M, f.N, head).total
            for f in (toy, default) for head in ("coarse", "fine")},
        "autocorr2d_macs_per_window": {
            f"{f.M}x{f.N}": classic.autocorr2d_macs(f.M, f.N) for f in (toy, default)},
        "crosscorr_macs_per_window": {
            f"{toy.M}x{toy.N}": classic.crosscorr_macs(toy.grid_size, TOY_PREAMBLE[0]),
            f"{default.M}x{default.N}": classic.crosscorr_macs(
                default.grid_size, dataset.PreambleConfig().length)},
        "bytes_written": run.bytes["written"],
        "bytes_read": run.bytes["read"],
    }


def execute(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
            workdir: str, src: str) -> tuple[dict, dict]:
    """Run one workload; returns (report, metrics) where metrics maps each
    reported metric name to {"value", "unit"}."""
    wl = WORKLOADS[name]
    run = Run(seed, sizes, workdir)
    time_imports(run, src, sizes.imports)
    tracer = Tracer() if trace else None
    setup_wall = 0.0
    state = None
    if tracer:
        tracer.install()
        run.tracer = tracer
    try:
        for i in range(sizes.setups):
            run.clock.tick(force=True)
            t0 = time.perf_counter()
            try:
                state = wl.setup(run, i)
            except OpFailed:
                state = None
            t1 = time.perf_counter()
            run.add("setup_body_s", t1 - t0, t0, t1)
            setup_wall += t1 - t0
        run.clock.tick(force=True)
        setup_trace = tracer.take() if tracer else None
    finally:
        if tracer:
            tracer.uninstall()
            run.tracer = None
    if state is None and name == "default-eval":
        seconds = 0.0  # nothing to evaluate; the failed set-up ops are reported
    else:
        warm_up(run, wl, state)
    if not trace:
        walls = measure(run, wl, state, seconds)
        while (len(run.samples["infer_one_ms"]) < MIN_ONE_SAMPLES
               and run.last_infer is not None):
            windows, coarse, fine = run.last_infer
            try:
                single_inferences(run, windows, coarse, fine, 1,
                                  start=len(run.samples["infer_one_ms"]))
            except OpFailed:
                break
        run.clock.tick(force=True)
        raw = end_to_end(run, host_corrected=False)
        values = end_to_end(run, host_corrected=True)
        units = END_TO_END
        traced = {"end_to_end_raw": {k: {"value": raw[k], "unit": units[k]} for k in raw}}
    else:
        walls = measure(run, wl, state, seconds / 2)
        tracer.install()
        run.tracer = tracer
        try:
            traced_walls = measure(run, wl, state, seconds / 2)
            round_trace = tracer.take()
        finally:
            tracer.uninstall()
            run.tracer = None
        base = _median(walls)
        overhead = _median(traced_walls) - base
        n_traced = max(len(traced_walls), 1)
        unit_wall = setup_wall / sizes.setups + sum(traced_walls) / n_traced
        values = per_layer(setup_trace, sizes.setups, round_trace, n_traced,
                           unit_wall, overhead, base)
        units = PER_LAYER
        traced = {"traced_rounds": len(traced_walls), "untraced_rounds": len(walls)}
        walls = walls + traced_walls
    if name == "toy-train" and walls:
        try:
            run.check("toy two-stage accuracy", check_accuracy, run.accuracies,
                      sizes.accuracy_floor)
        except OpFailed:
            pass
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": sizes.__dict__,
        "rounds": len(walls),
        "round_s_median": _median(walls),
        **traced,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "checks": dict(run.checks),
        "samples": {k: [round(x, 6) for x in v] for k, v in run.samples.items()},
        "infer_one_samples": len(run.samples["infer_one_ms"]),
        "toy_two_stage_accuracy": run.accuracies,
        "computed": computed_counts(run),
        "host": host_report(run.clock),
    }
    if not trace:
        report["end_to_end"] = {k: {"value": values[k], "unit": units[k]} for k in values}
        report["end_to_end"][FAILED_OP_RATIO[0]] = {
            "value": run.failed / max(run.attempted, 1), "unit": FAILED_OP_RATIO[1]}
    return report, {k: {"value": values[k], "unit": units[k]} for k in values}
