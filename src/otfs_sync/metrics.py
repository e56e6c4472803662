"""Estimator scoring, per-condition sweeps, and complexity accounting.

Accuracy is exact match between the wrapped estimate and the wrapped truth.
RMSE uses the wrap-minimal error

    err = ((theta_hat - theta + MN/2) mod MN) - MN/2

so an estimate one sample early across the wrap counts as 1, not MN - 1;
the raw-difference RMSE is reported alongside for reference.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

import numpy as np

from .classic import (
    autocorr2d_macs,
    autocorr2d_sync,
    cross_correlate_sync,
    crosscorr_macs,
    crosscorr_offsets,
    planes_to_complex,
)
from .dataset import Dataset, PreambleConfig
from .frames import zadoff_chu
from .nn.model import (
    HEADS,
    SyncModel,
    build_sync_model,
    count_flops,
    flops_report,
    param_count,
    text_columns,
    two_stage_flops,
)
from .pipeline import infer_one_stage, infer_two_stage

# every method, and the trained heads (SweepModels fields) each one needs
METHOD_HEADS = {"crosscorr": (), "autocorr2d": (), "resnet2stage": ("coarse", "fine"),
                "resnet1stage": ("onestage",)}
METHODS = tuple(METHOD_HEADS)

# the most parameters a head may have for complexity_report to build it just
# to time it: every toy head and the default coarse (2.1M) and fine (8.4M)
# heads, but not the 536.9M-parameter default one-stage head, which holds
# about 4 bytes per parameter (2.1 GB) while it is built: tracemalloc puts the
# 256x64 fine head's build peak at 35.7 MB for 33.6 MB of float32 parameters
MAX_TIMED_PARAMS = 1 << 24


def wrapped_error(theta_hat: np.ndarray, theta_true: np.ndarray, MN: int) -> np.ndarray:
    diff = np.asarray(theta_hat, dtype=np.int64) - np.asarray(theta_true, dtype=np.int64)
    return (diff + MN // 2) % MN - MN // 2


def accuracy(theta_hat: np.ndarray, theta_true: np.ndarray) -> float:
    theta_hat = np.asarray(theta_hat, dtype=np.int64)
    theta_true = np.asarray(theta_true, dtype=np.int64)
    return float(np.mean(theta_hat == theta_true)) if theta_hat.size else float("nan")

def rmse(theta_hat: np.ndarray, theta_true: np.ndarray, MN: int) -> float:
    err = wrapped_error(theta_hat, theta_true, MN)
    return float(np.sqrt(np.mean(err.astype(np.float64) ** 2)))


def rmse_raw(theta_hat: np.ndarray, theta_true: np.ndarray) -> float:
    diff = np.asarray(theta_hat, np.int64) - np.asarray(theta_true, np.int64)
    return float(np.sqrt(np.mean(diff.astype(np.float64) ** 2)))


@dataclass(frozen=True)
class MetricsRow:
    method: str
    channel_id: int
    snr_db: float
    count: int
    accuracy: float
    rmse: float
    rmse_raw: float


@dataclass(frozen=True)
class SweepModels:
    """Whatever trained models a sweep might need; unused entries stay None."""

    coarse: SyncModel | None = None
    fine: SyncModel | None = None
    onestage: SyncModel | None = None
    preamble: np.ndarray | None = None
    preamble_offset: int = 0
    pilot_row: int | None = None


def estimate_all(ds: Dataset, method: str, models: SweepModels,
                 batch_size: int = 256) -> np.ndarray:
    """Wrapped-offset estimates of one method over every record of ``ds``.

    ``crosscorr`` filters the whole stack of windows in one call of
    :func:`~otfs_sync.classic.crosscorr_offsets` (chunks of ``CHUNK_BYTES``);
    ``autocorr2d`` runs once per record.  Either way each record's estimate
    is exactly that of the single-window ``*_sync`` function.  A learned
    method without every head :data:`METHOD_HEADS` names raises ValueError.
    """
    heads = METHOD_HEADS.get(method, ())
    if any(getattr(models, head) is None for head in heads):
        raise ValueError(f"{method} needs {' and '.join(heads)} weights")
    if method == "resnet2stage":
        return infer_two_stage(ds.windows, models.coarse, models.fine, batch_size)
    if method == "resnet1stage":
        return infer_one_stage(ds.windows, models.onestage, batch_size)
    if method == "autocorr2d":
        m_p = models.pilot_row
        if m_p is None:
            raise ValueError("autocorr2d needs the pilot delay row (pilot_row)")
        out = np.empty(len(ds), dtype=np.int64)
        for i in range(len(ds)):
            out[i] = autocorr2d_sync(planes_to_complex(ds.windows[i]), ds.M, ds.N, m_p)
        return out
    if method == "crosscorr":
        if models.preamble is None:
            raise ValueError("crosscorr needs the preamble sequence")
        return crosscorr_offsets(ds.windows, models.preamble, models.preamble_offset)
    raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")


# how far (dB) an SNR may sit from a requested value and still count as it
SNR_TOL_DB = 1e-6


def snrs_on_grid(snrs: np.ndarray, lo: float, hi: float, step: float) -> list[float]:
    """The distinct values of ``snrs`` within :data:`SNR_TOL_DB` of a point
    of the grid ``lo, lo + step, ...`` up to ``hi`` (inclusive to half a
    step), found without building the grid, however fine it is.

    Raises ``ValueError`` for non-finite bounds, ``lo > hi``, a step that is
    not positive, or a step too small to index ``[lo, hi]``.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"SNR grid bounds must be finite, got [{lo}, {hi}]")
    if lo > hi:
        raise ValueError(f"--snr-min {lo} exceeds --snr-max {hi}")
    if not step > 0:
        raise ValueError(f"--snr-step must be > 0, got {step}")
    count = np.ceil((hi + step / 2 - lo) / step)
    if not np.isfinite(count):
        raise ValueError(f"--snr-step {step} cannot index [{lo}, {hi}]")
    kept = []
    for s in np.unique(snrs).tolist():
        k = np.rint((s - lo) / step)
        if 0 <= k < count and abs(s - (lo + k * step)) < SNR_TOL_DB:
            kept.append(s)
    return kept


def condition_rows(
    test: Dataset,
    method: str,
    theta_hat: np.ndarray,
    snr_values: list[float] | None = None,
) -> list[MetricsRow]:
    """Per (channel, SNR) metrics of one method's estimates ``theta_hat``
    over every record of ``test``, in increasing channel id, then SNR.

    ``snr_values``, when given, keeps only the SNRs within
    :data:`SNR_TOL_DB` of one of its entries.
    """
    MN = test.M * test.N
    rows: list[MetricsRow] = []
    for cid in sorted(np.unique(test.channel_id).tolist()):
        ch_mask = test.channel_id == cid
        snrs = sorted(np.unique(test.snr_db[ch_mask]).tolist())
        for snr in snrs:
            if snr_values is not None and not any(
                abs(snr - s) < SNR_TOL_DB for s in snr_values
            ):
                continue
            mask = ch_mask & (test.snr_db == snr)
            idx = np.flatnonzero(mask)
            rows.append(MetricsRow(
                method=method,
                channel_id=int(cid),
                snr_db=float(snr),
                count=int(idx.size),
                accuracy=accuracy(theta_hat[idx], test.theta_wrapped[idx]),
                rmse=rmse(theta_hat[idx], test.theta_wrapped[idx], MN),
                rmse_raw=rmse_raw(theta_hat[idx], test.theta_wrapped[idx]),
            ))
    return rows


def sweep(
    test: Dataset,
    methods: list[str],
    models: SweepModels,
    snr_values: list[float] | None = None,
    batch_size: int = 256,
) -> list[MetricsRow]:
    """Per (channel, SNR) metrics of each method on held-out records.

    ``test`` must already be the test partition.  Methods are estimated
    once each and their rows come back in the order of ``methods``; within
    a method, rows run in increasing channel id, then SNR
    (:func:`condition_rows`).
    """
    rows: list[MetricsRow] = []
    for method in methods:
        theta_hat = estimate_all(test, method, models, batch_size)
        rows.extend(condition_rows(test, method, theta_hat, snr_values))
    return rows


def overall_row(test: Dataset, method: str, theta_hat: np.ndarray) -> MetricsRow:
    MN = test.M * test.N
    return MetricsRow(
        method=method,
        channel_id=-1,
        snr_db=float("nan"),
        count=len(test),
        accuracy=accuracy(theta_hat, test.theta_wrapped),
        rmse=rmse(theta_hat, test.theta_wrapped, MN),
        rmse_raw=rmse_raw(theta_hat, test.theta_wrapped),
    )


def rows_to_csv(rows: list[MetricsRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["method", "channel_id", "snr_db", "count",
                     "accuracy", "rmse", "rmse_raw"])
    for r in rows:
        writer.writerow([
            r.method, r.channel_id, f"{r.snr_db:g}", r.count,
            f"{r.accuracy:.6f}", f"{r.rmse:.6f}", f"{r.rmse_raw:.6f}",
        ])
    return buf.getvalue()


@dataclass(frozen=True)
class ComplexityRow:
    method: str
    flops: int
    params: int | None
    runtime_s: float | None


def _median_runtime(fn, repeats: int) -> float:
    times = []
    fn()  # warm-up
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def complexity_report(
    M: int,
    N: int,
    preamble: PreambleConfig = PreambleConfig(),
    pilot_row: int | None = None,
    models: SweepModels | None = None,
    repeats: int = 100,
    measure_runtime: bool = True,
) -> list[ComplexityRow]:
    """Analytic FLOPs (and parameters where applicable) per method, plus the
    median single-capture runtime over ``repeats`` inferences.

    FLOPs count the paper's direct-form algorithms; runtimes time this
    implementation.  Cross-correlation is counted for the length of
    ``preamble`` and timed against its Zadoff-Chu sequence, so its root must
    be coprime with its length when runtime is measured.  A head in
    ``models`` is always timed; a missing one is built only when it has at
    most :data:`MAX_TIMED_PARAMS` parameters, and a method left without a
    live head gets ``runtime_s = None``."""
    MN = M * N
    if pilot_row is None:
        pilot_row = M // 2
    # parameter totals come from the architecture table so that nothing is
    # allocated unless a runtime measurement needs it: the live models, and
    # the timing window that only the runs below read
    live = {}
    if measure_runtime:
        for head in HEADS:
            live[head] = getattr(models, head, None)
            if live[head] is None and param_count(M, N, head) <= MAX_TIMED_PARAMS:
                live[head] = build_sync_model(M, N, head)
        rng = np.random.Generator(np.random.PCG64(12345))
        win_planes = rng.standard_normal((1, 2, MN)).astype(np.float32)
        win_complex = planes_to_complex(win_planes[0])
        sequence = zadoff_chu(preamble.length, preamble.root)
    coarse, fine, onestage = (live.get(head) for head in HEADS)

    costs = (
        ("resnet2stage", two_stage_flops(M, N),
         param_count(M, N, "coarse") + param_count(M, N, "fine"),
         None if coarse is None or fine is None
         else lambda: infer_two_stage(win_planes, coarse, fine, 1)),
        ("resnet1stage", count_flops(M, N, "onestage"), param_count(M, N, "onestage"),
         None if onestage is None else lambda: onestage.predict_classes(win_planes, 1)),
        ("crosscorr", 8 * crosscorr_macs(MN, preamble.length), None,
         lambda: cross_correlate_sync(win_complex, sequence)),
        ("autocorr2d", 8 * autocorr2d_macs(M, N), None,
         lambda: autocorr2d_sync(win_complex, M, N, pilot_row)),
    )
    return [
        ComplexityRow(method, flops, params,
                      _median_runtime(run, repeats) if measure_runtime and run else None)
        for method, flops, params, run in costs
    ]


def complexity_csv(rows: list[ComplexityRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["method", "flops", "params", "runtime_s"])
    for r in rows:
        writer.writerow([
            r.method, r.flops,
            "" if r.params is None else r.params,
            "" if r.runtime_s is None else f"{r.runtime_s:.6f}",
        ])
    return buf.getvalue()


def complexity_table(rows: list[ComplexityRow], M: int, N: int) -> str:
    """The per-method cost table, then each head's per-layer forward FLOPs
    with its parameter count, then the two-stage forward total."""
    cells = [("method", "FLOPs", "params", "runtime_ms")]
    for r in rows:
        params = "-" if r.params is None else f"{r.params:,}"
        runtime = "-" if r.runtime_s is None else f"{1e3 * r.runtime_s:.3f}"
        cells.append((r.method, f"{r.flops:,}", params, runtime))
    out = [f"per-capture cost at M={M}, N={N}:", *text_columns(cells, (14, 16, 14, 12))]
    for head in HEADS:
        out.append(f"\n{head} head ({param_count(M, N, head):,} parameters):")
        out.extend(f"  {line}" for line in flops_report(M, N, head).lines())
    out.append(f"\ntwo-stage forward total: {two_stage_flops(M, N):,} FLOPs")
    return "\n".join(out) + "\n"
