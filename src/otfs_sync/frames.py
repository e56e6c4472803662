"""OTFS frame construction and the delay-Doppler / delay-time / serial conversions.

Grid conventions used throughout the package:

* a delay-Doppler (DD) grid is a complex ``(M, N)`` array, rows indexed by
  delay ``m``, columns by Doppler ``k``;
* a delay-time (DT) grid is a complex ``(M, N)`` array, rows indexed by
  delay ``m``, columns by time slot ``n``;
* serialization is column-major: sample ``n*M + m`` of the payload carries
  DT cell ``(m, n)``, and a single cyclic prefix of ``L_CP`` samples (the
  payload tail) is prepended per block, and :func:`serialize_time` returns
  the serial block as a plain complex array.

The DD -> DT map is a unitary inverse DFT along the Doppler axis,

    X_DT[m, n] = (1/sqrt(N)) * sum_k X_DD[m, k] * exp(+2j*pi*n*k/N),

so both directions preserve grid energy exactly.  The Doppler (or time)
axis is the last one, so a ``(k, M, N)`` stack of grids transforms in one
call, each grid bitwise as on its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_SAMPLE_RATE_HZ = 10e6


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class FrameConfig:
    """Geometry of one OTFS block: M delay bins, N Doppler bins, CP length."""

    M: int = 256
    N: int = 64
    L_CP: int = 64
    mod_order: int = 4

    def __post_init__(self) -> None:
        if not (_is_pow2(self.M) and self.M >= 2):
            raise ValueError(f"M must be a power of two >= 2, got {self.M}")
        if not (_is_pow2(self.N) and self.N >= 2):
            raise ValueError(f"N must be a power-of-two >= 2, got {self.N}")
        if not 0 <= self.L_CP < self.M * self.N:
            raise ValueError(f"L_CP must lie in [0, M*N), got {self.L_CP}")
        if self.mod_order < 2:
            raise ValueError(f"mod_order must be >= 2, got {self.mod_order}")

    @property
    def grid_size(self) -> int:
        return self.M * self.N

    @property
    def block_len(self) -> int:
        """Serial samples per block including the cyclic prefix (N_s)."""
        return self.M * self.N + self.L_CP


def toy_frame_config() -> FrameConfig:
    """Small profile used by the fast end-to-end experiments."""
    return FrameConfig(M=32, N=8, L_CP=8)


@dataclass(frozen=True)
class PilotConfig:
    """Embedded impulse pilot: one cell at (m_p, n_p) plus zeroed guard rows.

    Guard rows span ``m_p - guard_halfwidth .. m_p + guard_halfwidth`` (mod M,
    full rows across all Doppler bins) and carry no data; only the pilot cell
    itself is non-zero inside the guard band.
    """

    m_p: int
    n_p: int
    amplitude: float
    guard_halfwidth: int = 26

    def __post_init__(self) -> None:
        if self.amplitude <= 0:
            raise ValueError(f"pilot amplitude must be > 0, got {self.amplitude}")
        if self.m_p < 0 or self.n_p < 0 or self.guard_halfwidth < 0:
            raise ValueError("pilot indices and guard halfwidth must be non-negative")

    @classmethod
    def for_frame(cls, frame: FrameConfig, guard_halfwidth: int | None = None) -> "PilotConfig":
        """Default pilot for a frame: centre delay row, amplitude sqrt(M).

        The default guard halfwidth is 26 rows (wide enough for the longest
        predefined channel delay spread at the default sample rate), clipped
        so the guard band always fits inside the delay axis.
        """
        if guard_halfwidth is None:
            guard_halfwidth = min(26, (frame.M - 1) // 2)
        return cls(
            m_p=frame.M // 2,
            n_p=0,
            amplitude=math.sqrt(frame.M),
            guard_halfwidth=guard_halfwidth,
        )

    def validate_against(self, frame: FrameConfig) -> None:
        if not 0 <= self.m_p < frame.M:
            raise ValueError(f"m_p={self.m_p} outside delay axis [0, {frame.M})")
        if not 0 <= self.n_p < frame.N:
            raise ValueError(f"n_p={self.n_p} outside Doppler axis [0, {frame.N})")
        if 2 * self.guard_halfwidth + 1 > frame.M:
            raise ValueError(
                f"guard band of {2 * self.guard_halfwidth + 1} rows does not fit M={frame.M}"
            )

    def guard_rows(self, M: int) -> np.ndarray:
        k = self.guard_halfwidth
        return (self.m_p + np.arange(-k, k + 1)) % M


def psk_constellation(order: int) -> np.ndarray:
    """Unit-average-power phase constellation of the given order.

    For order 4 this is the rotated quadrature set (+-1 +-1j)/sqrt(2).
    """
    k = np.arange(order)
    return np.exp(1j * (2 * np.pi * k / order + np.pi / order))


@functools.lru_cache(maxsize=32)
def _grid_plan(frame: FrameConfig, pilots: tuple[PilotConfig | None, ...]):
    """The constellation of ``frame`` and, for each piloted grid of a stack,
    (index, guard rows, pilot), validated once per geometry."""
    cells = []
    for i, pilot in enumerate(pilots):
        if pilot is not None:
            pilot.validate_against(frame)
            cells.append((i, pilot.guard_rows(frame.M), pilot))
    return psk_constellation(frame.mod_order), tuple(cells)


def build_dd_frame(
    frame: FrameConfig,
    pilot: PilotConfig | None | tuple[PilotConfig | None, ...],
    rng: np.random.Generator | Sequence[np.random.Generator],
) -> np.ndarray:
    """Populate one M x N delay-Doppler grid, or a stack of them.

    Data cells draw i.i.d. unit-average-power constellation symbols.  When a
    pilot is given, its guard rows are zeroed and the single pilot cell is set
    to the (real) pilot amplitude.  ``pilot=None`` yields an all-data grid,
    which is how the surrounding filler segments of a capture are built.

    A tuple of pilots (each a ``PilotConfig`` or None) builds a ``(k, M, N)``
    stack in one draw, grid i with pilot i; its symbols are those of k calls
    in a row on the same generator.  A sequence of generators builds what one
    of them would, once per generator, along a new leading axis: entry j
    holds exactly the symbols of a call on ``rng[j]`` alone.
    """
    stack = isinstance(pilot, tuple)
    pilots = pilot if stack else (pilot,)
    points, cells = _grid_plan(frame, pilots)
    one = isinstance(rng, np.random.Generator)
    draws = [g.integers(0, frame.mod_order, size=(len(pilots), frame.M, frame.N))
             for g in ((rng,) if one else rng)]
    # a lone draw gains its leading axis without a copy
    grids = points[np.stack(draws) if len(draws) > 1 else draws[0][None]]
    for i, rows, p in cells:
        grids[..., i, rows, :] = 0.0
        grids[..., i, p.m_p, p.n_p] = p.amplitude
    if one:
        grids = grids[0]
    return grids if stack else grids[..., 0, :, :]


def dd_to_dt(grid_dd: np.ndarray) -> np.ndarray:
    """Unitary inverse DFT along the Doppler (last) axis: rows stay
    delay-indexed, and a ``(k, M, N)`` stack transforms grid by grid."""
    return np.fft.ifft(grid_dd, axis=-1, norm="ortho")


def dt_to_dd(grid_dt: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`dd_to_dt` (unitary forward DFT along the last axis)."""
    return np.fft.fft(grid_dt, axis=-1, norm="ortho")


def serialize_time(grid_dt: np.ndarray, frame: FrameConfig) -> np.ndarray:
    """Column-major readout of a DT grid with a single prepended cyclic prefix.

    Payload sample ``n*M + m`` is ``grid_dt[m, n]``; the last ``L_CP`` payload
    samples are copied to the front, giving ``M*N + L_CP`` samples in total.
    """
    M, N = grid_dt.shape
    if (M, N) != (frame.M, frame.N):
        raise ValueError(f"grid is {M}x{N}, expected {frame.M}x{frame.N}")
    payload = grid_dt.ravel(order="F")
    return np.concatenate([payload[payload.size - frame.L_CP:], payload])


def deserialize_time(signal: np.ndarray, frame: FrameConfig) -> np.ndarray:
    """Rebuild the M x N DT grid from a serial block, stripping the CP if present."""
    x = np.asarray(signal)
    if x.ndim != 1:
        raise ValueError(f"serial signal must be 1-D, got shape {x.shape}")
    if x.size == frame.block_len:
        x = x[frame.L_CP:]
    elif x.size != frame.grid_size:
        raise ValueError(
            f"expected {frame.grid_size} or {frame.block_len} samples, got {x.size}"
        )
    return x.reshape((frame.M, frame.N), order="F")


def zadoff_chu(length: int, root: int) -> np.ndarray:
    """Constant-amplitude polyphase preamble sequence.

    Uses the even/odd Zadoff-Chu phase laws; the root must be coprime with
    the length for the sequence to keep its flat periodic autocorrelation.
    """
    if length < 1:
        raise ValueError("preamble length must be positive")
    if math.gcd(root, length) != 1:
        raise ValueError(f"root {root} is not coprime with length {length}")
    n = np.arange(length)
    if length % 2 == 0:
        phase = -np.pi * root * n * n / length
    else:
        phase = -np.pi * root * n * (n + 1) / length
    return np.exp(1j * phase)
