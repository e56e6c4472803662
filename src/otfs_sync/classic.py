"""Correlation-based timing estimators: the non-trainable baselines.

Two estimators operate on a captured window of ``M*N`` complex samples:

* :func:`autocorr2d_sync` reshapes the window to an M x N delay-time grid
  and exploits the embedded pilot row through a two-dimensional
  autocorrelation along the time axis;
* :func:`cross_correlate_sync` matched-filters a known constant-amplitude
  preamble against the window, cyclically.

Both report a :class:`~otfs_sync.estimate.SyncEstimate`; analytic complexity
counters for each are exposed alongside so cost comparisons never depend on
how the surfaces happen to be vectorized.
"""

from __future__ import annotations

import numpy as np

from .estimate import SyncEstimate, combine_offset, decompose_offset


def autocorr2d(window: np.ndarray, M: int, N: int) -> np.ndarray:
    """Time-axis autocorrelation surface of the reshaped capture window.

    The window is laid out column-major onto an M x N grid r (no CP removal:
    the capture is already CP-free length M*N) and

        P[m, n] = sum_{k=0}^{N-2} conj(r[m, (n+k) % N]) * r[m, (n+k+1) % N]

    with cyclic column indexing.  With q[m, j] = conj(r[m, j]) r[m, (j+1) % N]
    the N-1 cyclic terms are every column of row m but column (n-1) % N, so
    the surface is computed in closed form as the row sum of q minus q rolled
    by one column: O(MN) work instead of the direct form's O(MN^2).  It
    matches the direct sum to rounding (~1e-15 relative, not bitwise);
    :func:`autocorr2d_macs` still counts the direct form.
    """
    window = np.asarray(window, dtype=np.complex128)
    if window.size != M * N:
        raise ValueError(f"window has {window.size} samples, expected {M * N}")
    r = window.reshape((M, N), order="F")
    q = np.conj(r) * np.roll(r, -1, axis=1)
    return q.sum(axis=1, keepdims=True) - np.roll(q, 1, axis=1)


def autocorr2d_sync(window: np.ndarray, M: int, N: int, m_p: int) -> SyncEstimate:
    """Pilot-row detection on the autocorrelation surface.

    The pilot row of the transmitted grid shows up in a late-captured window
    shifted from ``m_p`` to ``(m_p - theta_d) mod M``, so the delay estimate
    inverts that: ``theta_d = (m_p - m*) mod M`` where ``m*`` maximizes the
    row-wise magnitude mass of P.  The time estimate takes the column
    maximizing ``Re P[m*, n]``; ties resolve to the lowest index, and a
    completely flat surface is flagged as ambiguous.
    """
    P = autocorr2d(window, M, N)
    row_scores = np.sum(np.abs(P), axis=1)
    ambiguous = bool(np.all(row_scores == row_scores[0]))
    m_star = int(np.argmax(row_scores))
    theta_d = (m_p - m_star) % M
    col_scores = np.real(P[m_star, :])
    theta_t = int(np.argmax(col_scores))
    return SyncEstimate(
        method="autocorr2d",
        theta_hat=combine_offset(theta_d, theta_t, M),
        theta_d_hat=theta_d,
        theta_t_hat=theta_t,
        ambiguous=ambiguous,
    )


def cross_correlation_surface(window: np.ndarray, preamble: np.ndarray) -> np.ndarray:
    """Cyclic matched-filter magnitude c[tau] = |sum_i conj(p[i]) w[(tau+i) % L]|."""
    w = np.asarray(window)
    p = np.asarray(preamble)
    L = w.size
    if p.size > L:
        raise ValueError(f"preamble ({p.size}) longer than window ({L})")
    p_pad = np.zeros(L, dtype=np.complex128)
    p_pad[: p.size] = p
    corr = np.fft.ifft(np.fft.fft(w) * np.conj(np.fft.fft(p_pad)))
    return np.abs(corr)


def cross_correlate_sync(
    window: np.ndarray,
    preamble: np.ndarray,
    M: int,
    preamble_offset: int = 0,
) -> SyncEstimate:
    """Timing from the preamble matched filter.

    ``preamble_offset`` is where the preamble is known to sit relative to the
    position that defines offset zero (payload start); captures built with a
    preamble immediately ahead of the CP use ``-(L_seq + L_CP)``.  With the
    default 0, a window that IS the preamble yields an estimate of 0.  Peak
    ties resolve toward the smallest lag.  ``M`` is the delay-axis length
    used to decompose the wrapped estimate.
    """
    c = cross_correlation_surface(window, preamble)
    L = c.size
    tau_star = int(np.argmax(c))
    ambiguous = bool(np.all(c == c[0]))
    theta_hat = (preamble_offset - tau_star) % L
    theta_d, theta_t = decompose_offset(theta_hat, M)
    return SyncEstimate(
        method="crosscorr",
        theta_hat=theta_hat,
        theta_d_hat=theta_d,
        theta_t_hat=theta_t,
        ambiguous=ambiguous,
    )


def autocorr2d_macs(M: int, N: int) -> int:
    """Complex multiply-accumulates of the autocorrelation surface."""
    return M * N * (N - 1)


def crosscorr_macs(window_len: int, preamble_len: int) -> int:
    """Complex multiply-accumulates of the cyclic matched filter."""
    return window_len * preamble_len
