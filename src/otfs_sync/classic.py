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

:func:`autocorr2d` works on the time-major rows of the window (row n is
time slot n, M contiguous samples) and returns the surface as the (M, N)
transpose, bitwise equal to its column-major closed form; it runs once per
window.

The matched filter also runs on stacks: :func:`cross_correlation_surface`
transforms a ``(..., L)`` stack along its last axis, and
:func:`crosscorr_offsets` estimates a whole ``(n, 2, L)`` stack of float
window planes a chunk of ``CHUNK_BYTES // (16 L)`` windows at a time (8 at
256 x 64, 512 at 32 x 8), against one :func:`preamble_spectrum` computed
once per call.  Batched FFT lines are bitwise equal to
single-line ones, so stacked surfaces and estimates are exactly those of
the per-window functions.
"""

from __future__ import annotations

import numpy as np

from .estimate import SyncEstimate, combine_offset, decompose_offset

# complex128 bytes one chunk of stacked matched-filter windows may span
CHUNK_BYTES = 2 * 1024 * 1024


def planes_to_complex(planes: np.ndarray) -> np.ndarray:
    """``(..., 2, L)`` real/imaginary float planes as ``(..., L)`` complex128."""
    planes = np.asarray(planes)
    out = np.empty(planes.shape[:-2] + planes.shape[-1:], dtype=np.complex128)
    out.real = planes[..., 0, :]
    out.imag = planes[..., 1, :]
    return out


def autocorr2d(window: np.ndarray, M: int, N: int) -> np.ndarray:
    """Time-axis autocorrelation surface of the reshaped capture window.

    The window is laid out column-major onto an M x N grid r (no CP removal:
    the capture is already CP-free length M*N) and

        P[m, n] = sum_{k=0}^{N-2} conj(r[m, (n+k) % N]) * r[m, (n+k+1) % N]

    with cyclic column indexing.  With q[m, j] = conj(r[m, j]) r[m, (j+1) % N]
    the N-1 cyclic terms are every column of row m but column (n-1) % N, so
    the surface is computed in closed form as the row sum of q minus q
    shifted by one column: O(MN) work instead of the direct form's O(MN^2).
    It matches the direct sum to rounding (~1e-15 relative, not bitwise);
    :func:`autocorr2d_macs` still counts the direct form.

    The work runs on time-major rows: rt = r.T is (N, M), and its row n is
    time slot n, M contiguous samples of the window.  q is built row by row
    into one (N, M) array (its wrap row pairs slot N-1 with slot 0), summed
    over its rows, and each surface row is that sum minus the previous q
    row; the (M, N) surface is returned as the F-contiguous transpose.  The
    products are the same contiguous multiplies and the sums over time run
    in the same order as on the column-major grid, so the surface is bitwise
    that of the closed form ``q.sum(axis=1, keepdims=True) -
    np.roll(q, 1, axis=1)`` on r.
    """
    window = np.asarray(window, dtype=np.complex128)
    if window.size != M * N:
        raise ValueError(f"window has {window.size} samples, expected {M * N}")
    rt = window.reshape((M, N), order="F").T
    # pt holds conj(rt) until the surface overwrites it.  No product is taken
    # in place: an in-place multiply of a one-element row (M = 1) rounds
    # differently from the vector loop
    pt = np.conjugate(rt)
    q = np.empty_like(pt)
    np.multiply(pt[:-1], rt[1:], out=q[:-1])
    np.multiply(pt[-1], rt[0], out=q[-1])
    s = q.sum(axis=0)
    np.subtract(s, q[-1], out=pt[0])
    np.subtract(s, q[:-1], out=pt[1:])
    return pt.T


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
    row_scores = np.abs(P.T).sum(axis=0)
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


def preamble_spectrum(preamble: np.ndarray, L: int) -> np.ndarray:
    """conj(FFT) of the preamble zero-padded to length ``L``: the filter of
    :func:`cross_correlation_surface`."""
    p = np.asarray(preamble)
    if p.size > L:
        raise ValueError(f"preamble ({p.size}) longer than window ({L})")
    p_pad = np.zeros(L, dtype=np.complex128)
    p_pad[: p.size] = p
    return np.conj(np.fft.fft(p_pad))


def cross_correlation_surface(
    window: np.ndarray,
    preamble: np.ndarray,
    spectrum: np.ndarray | None = None,
) -> np.ndarray:
    """Cyclic matched-filter magnitude c[tau] = |sum_i conj(p[i]) w[(tau+i) % L]|.

    ``window`` may be a ``(..., L)`` stack; every window is filtered along
    the last axis against one preamble spectrum, and each row of the result
    is bitwise the surface of that window alone.  A caller filtering many
    stacks passes ``spectrum = preamble_spectrum(preamble, L)`` once, and
    the surface is bitwise the same.
    """
    w = np.asarray(window)
    if spectrum is None:
        spectrum = preamble_spectrum(preamble, w.shape[-1])
    spec = np.fft.fft(w, axis=-1).astype(np.complex128, copy=False)
    spec *= spectrum
    return np.abs(np.fft.ifft(spec, axis=-1))


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


def crosscorr_offsets(
    planes: np.ndarray,
    preamble: np.ndarray,
    preamble_offset: int = 0,
) -> np.ndarray:
    """Wrapped ``theta_hat`` of :func:`cross_correlate_sync` for every window
    of an ``(n, 2, L)`` stack of real/imaginary float planes, as int64.

    Windows are converted and filtered ``max(1, CHUNK_BYTES // (16 L))`` at a
    time, so the temporaries stay a few MiB whatever ``n`` is; the preamble
    spectrum is computed once for all chunks.  The decision is
    ``(preamble_offset - argmax c) % L`` with ties to the smallest lag.
    """
    planes = np.asarray(planes)
    n, L = planes.shape[0], planes.shape[-1]
    spectrum = preamble_spectrum(preamble, L)
    rows = max(1, CHUNK_BYTES // (16 * L))
    out = np.empty(n, dtype=np.int64)
    for lo in range(0, n, rows):
        c = cross_correlation_surface(planes_to_complex(planes[lo:lo + rows]), preamble,
                                      spectrum)
        out[lo:lo + rows] = (preamble_offset - np.argmax(c, axis=-1)) % L
    return out


def autocorr2d_macs(M: int, N: int) -> int:
    """Complex multiply-accumulates of the autocorrelation surface."""
    return M * N * (N - 1)


def crosscorr_macs(window_len: int, preamble_len: int) -> int:
    """Complex multiply-accumulates of the cyclic matched filter."""
    return window_len * preamble_len
