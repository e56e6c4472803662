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
)
from .dataset import Dataset
from .frames import zadoff_chu
from .nn.model import SyncModel, build_sync_model, count_flops, param_count
from .pipeline import infer_one_stage, infer_two_stage

METHODS = ("crosscorr", "autocorr2d", "resnet2stage", "resnet1stage")


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


def _complex_windows(ds: Dataset, idx: np.ndarray) -> np.ndarray:
    w = ds.windows[idx].astype(np.float64)
    return w[:, 0, :] + 1j * w[:, 1, :]


def estimate_all(ds: Dataset, method: str, models: SweepModels,
                 batch_size: int = 256) -> np.ndarray:
    """Wrapped-offset estimates of one method over every record of ``ds``."""
    if method == "resnet2stage":
        if models.coarse is None or models.fine is None:
            raise ValueError("resnet2stage needs coarse and fine weights")
        return infer_two_stage(ds.windows, models.coarse, models.fine, batch_size)
    if method == "resnet1stage":
        if models.onestage is None:
            raise ValueError("resnet1stage needs one-stage weights")
        return infer_one_stage(ds.windows, models.onestage, batch_size)
    if method == "autocorr2d":
        m_p = models.pilot_row
        if m_p is None:
            raise ValueError("autocorr2d needs the pilot delay row (pilot_row)")
        out = np.empty(len(ds), dtype=np.int64)
        for i in range(len(ds)):
            win = ds.windows[i].astype(np.float64)
            est = autocorr2d_sync(win[0] + 1j * win[1], ds.M, ds.N, m_p)
            out[i] = est.theta_hat
        return out
    if method == "crosscorr":
        if models.preamble is None:
            raise ValueError("crosscorr needs the preamble sequence")
        out = np.empty(len(ds), dtype=np.int64)
        for i in range(len(ds)):
            win = ds.windows[i].astype(np.float64)
            est = cross_correlate_sync(
                win[0] + 1j * win[1], models.preamble, ds.M, models.preamble_offset
            )
            out[i] = est.theta_hat
        return out
    raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")


def condition_rows(
    test: Dataset,
    method: str,
    theta_hat: np.ndarray,
    snr_values: list[float] | None = None,
) -> list[MetricsRow]:
    """Per (channel, SNR) metrics of one method's estimates ``theta_hat``
    over every record of ``test``, in increasing channel id, then SNR.

    ``snr_values``, when given, keeps only the SNRs within 1e-6 dB of one
    of its entries.
    """
    MN = test.M * test.N
    rows: list[MetricsRow] = []
    for cid in sorted(np.unique(test.channel_id).tolist()):
        ch_mask = test.channel_id == cid
        snrs = sorted(np.unique(test.snr_db[ch_mask]).tolist())
        for snr in snrs:
            if snr_values is not None and not any(
                abs(snr - s) < 1e-6 for s in snr_values
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
    preamble_len: int = 256,
    pilot_row: int | None = None,
    models: SweepModels | None = None,
    repeats: int = 100,
    measure_runtime: bool = True,
) -> list[ComplexityRow]:
    """Analytic FLOPs (and parameters where applicable) per method, plus the
    median single-capture runtime over ``repeats`` inferences.

    FLOPs count the paper's direct-form algorithms; runtimes time this
    implementation.  Cross-correlation is timed against the Zadoff-Chu
    preamble of length ``preamble_len`` with the default root 25, so that
    length must be coprime with 25 when runtime is measured."""
    from .classic import autocorr2d, cross_correlation_surface

    MN = M * N
    if pilot_row is None:
        pilot_row = M // 2
    # parameter totals come from the architecture table so that nothing is
    # allocated unless a runtime measurement actually needs a live model
    coarse = fine = onestage = None
    if measure_runtime:
        coarse = models.coarse if models and models.coarse else build_sync_model(M, N, "coarse")
        fine = models.fine if models and models.fine else build_sync_model(M, N, "fine")
        onestage = (models.onestage if models and models.onestage
                    else build_sync_model(M, N, "onestage"))
    rng = np.random.Generator(np.random.PCG64(12345))
    win_planes = rng.standard_normal((1, 2, MN)).astype(np.float32)
    win_complex = win_planes[0, 0].astype(np.float64) + 1j * win_planes[0, 1]
    preamble = zadoff_chu(preamble_len, 25) if measure_runtime else None

    rows = [
        ComplexityRow(
            "resnet2stage",
            count_flops(M, N, "coarse") + count_flops(M, N, "fine"),
            param_count(M, N, "coarse") + param_count(M, N, "fine"),
            _median_runtime(
                lambda: infer_two_stage(win_planes, coarse, fine, 1), repeats
            ) if measure_runtime else None,
        ),
        ComplexityRow(
            "resnet1stage",
            count_flops(M, N, "onestage"),
            param_count(M, N, "onestage"),
            _median_runtime(
                lambda: onestage.predict_classes(win_planes, 1), repeats
            ) if measure_runtime else None,
        ),
        ComplexityRow(
            "crosscorr",
            8 * crosscorr_macs(MN, preamble_len),
            None,
            _median_runtime(
                lambda: int(np.argmax(cross_correlation_surface(win_complex, preamble))),
                repeats,
            ) if measure_runtime else None,
        ),
        ComplexityRow(
            "autocorr2d",
            8 * autocorr2d_macs(M, N),
            None,
            _median_runtime(
                lambda: autocorr2d_sync(win_complex, M, N, pilot_row), repeats
            ) if measure_runtime else None,
        ),
    ]
    return rows


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
