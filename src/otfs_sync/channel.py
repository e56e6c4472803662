"""Tapped-delay-line fading channels and receiver noise.

A channel profile lists path delays (ns), average path powers (dB) and a
maximum Doppler shift.  Realizing a profile rounds each delay to a whole
sample tap, draws an independent circular complex Gaussian gain per path with
the profile's average power, and gives each path a single-sinusoid Doppler
rotation nu_max*cos(alpha) with uniform random alpha and initial phase.  A
realization is held fixed while one capture passes through it (block fading).

A Doppler path's rotation at absolute sample index k is built from two small
phase tables, exp(1j*(w*B*(k // B) + phi)) * exp(1j*w*(k % B)) with
w = 2*pi*nu/fs and B = PHASE_BLOCK samples, so a stream of m samples costs
about m/B + B complex exponentials instead of m.  Both factors depend on k
alone, never on where a slice starts, so fading a slice from its absolute
start reproduces the whole-stream output bitwise; the product equals the
direct exp(1j*(w*k + phi)) to rounding (a few 1e-15 relative).

SNR is defined at the receiver input: signal power is measured on the faded
signal that reaches the receive window, and the i.i.d. complex Gaussian noise
variance is set from it.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

PHASE_BLOCK = 128  # samples per row of a Doppler rotation's phase tables


class ChannelKind(enum.IntEnum):
    AWGN = 1
    RAYLEIGH = 2
    EVA = 3
    CUSTOM = 4


@dataclass(frozen=True)
class ChannelProfile:
    """Average power-delay profile plus Doppler spread of one channel model."""

    kind: ChannelKind
    delays_ns: tuple[float, ...]
    gains_db: tuple[float, ...]
    max_doppler_hz: float
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.delays_ns) != len(self.gains_db):
            raise ValueError("delays_ns and gains_db must have the same length")
        if not self.delays_ns:
            raise ValueError("profile needs at least one path")
        if any(d < 0 for d in self.delays_ns):
            raise ValueError("path delays must be non-negative")
        if self.max_doppler_hz < 0:
            raise ValueError("max_doppler_hz must be non-negative")


AWGN_PROFILE = ChannelProfile(
    kind=ChannelKind.AWGN,
    delays_ns=(0.0,),
    gains_db=(0.0,),
    max_doppler_hz=0.0,
    label="awgn",
)

RAYLEIGH_PROFILE = ChannelProfile(
    kind=ChannelKind.RAYLEIGH,
    delays_ns=(0.0, 100.0, 200.0),
    gains_db=(0.0, -10.0, -15.0),
    max_doppler_hz=1525.0,
    label="rayleigh",
)

EVA_PROFILE = ChannelProfile(
    kind=ChannelKind.EVA,
    delays_ns=(0.0, 30.0, 150.0, 310.0, 370.0, 710.0, 1090.0, 1730.0, 2510.0),
    gains_db=(0.0, -1.5, -1.4, -3.6, -0.6, -9.1, -7.0, -12.0, -16.9),
    max_doppler_hz=3051.0,
    label="eva",
)

PROFILES_BY_ID: dict[int, ChannelProfile] = {
    int(ChannelKind.AWGN): AWGN_PROFILE,
    int(ChannelKind.RAYLEIGH): RAYLEIGH_PROFILE,
    int(ChannelKind.EVA): EVA_PROFILE,
}

PROFILES_BY_LABEL: dict[str, ChannelProfile] = {
    p.label: p for p in (AWGN_PROFILE, RAYLEIGH_PROFILE, EVA_PROFILE)
}


@dataclass(frozen=True)
class ChannelRealization:
    """One block-fading draw: integer taps, complex gains, per-path Doppler."""

    taps: np.ndarray          # int delays in samples
    gains: np.ndarray         # complex path gains
    doppler_hz: np.ndarray    # per-path Doppler shift
    phases: np.ndarray        # per-path initial phase
    sample_rate_hz: float


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def realize_channel(
    profile: ChannelProfile,
    sample_rate_hz: float,
    rng: np.random.Generator,
) -> ChannelRealization:
    """Draw one realization of a profile at the given sample rate.

    Delays are rounded to the nearest whole sample (half up), so several
    paths may share a tap.  Path gain i is sigma_i*(g_re + 1j*g_im)/sqrt(2)
    with g ~ N(0,1), where sigma_i^2 is the linear per-path power from
    gains_db; no overall renormalization is applied.  The AWGN profile is the
    degenerate identity channel: one unit tap, no Doppler, no randomness, so
    its realization is built once per sample rate and shared (read-only).
    """
    if sample_rate_hz <= 0:
        raise ValueError("sample_rate_hz must be positive")
    if profile.kind is ChannelKind.AWGN:
        return _identity_channel(sample_rate_hz)
    # delay_ns * fs is exact for integer-ish inputs; divide by 1e9 last
    taps = np.array(
        [_round_half_up(d * sample_rate_hz / 1e9) for d in profile.delays_ns],
        dtype=np.int64,
    )
    sigma = np.sqrt(10.0 ** (np.asarray(profile.gains_db) / 10.0))
    g = rng.standard_normal(len(taps)) + 1j * rng.standard_normal(len(taps))
    gains = sigma * g / math.sqrt(2.0)
    alpha = rng.uniform(0.0, 2.0 * np.pi, size=len(taps))
    doppler = profile.max_doppler_hz * np.cos(alpha)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=len(taps))
    return ChannelRealization(
        taps=taps,
        gains=gains,
        doppler_hz=doppler,
        phases=phases,
        sample_rate_hz=sample_rate_hz,
    )


@functools.lru_cache(maxsize=8)
def _identity_channel(sample_rate_hz: float) -> ChannelRealization:
    arrays = (np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.complex128),
              np.zeros(1), np.zeros(1))
    for a in arrays:
        a.flags.writeable = False
    return ChannelRealization(*arrays, sample_rate_hz=sample_rate_hz)


def doppler_rotation(w: float, phi: float, k0: int, n: int) -> np.ndarray:
    """exp(1j*(w*k + phi)) for the absolute sample indices k = k0 .. k0+n-1.

    Index k = a*B + b (B = PHASE_BLOCK) takes the product of the block phase
    outer[a] = exp(1j*(w*B*a + phi)) and the in-block phase
    inner[b] = exp(1j*w*b); both depend on k alone, not on k0.
    """
    B = PHASE_BLOCK
    a0, a1 = k0 // B, (k0 + n - 1) // B + 1
    outer = np.exp(1j * (w * B * np.arange(a0, a1) + phi))
    inner = np.exp(1j * w * np.arange(B))
    rot = (outer[:, None] * inner).ravel()
    return rot[k0 - a0 * B : k0 - a0 * B + n]


def apply_fading(x: np.ndarray, ch: ChannelRealization, start: int = 0) -> np.ndarray:
    """Pass a sample stream through a frozen tapped-delay-line realization.

    y[k] = sum_i gains[i] * exp(1j*(2*pi*doppler[i]*(start+k)/fs + phases[i])) * x[k - taps[i]]

    with x[k] = 0 for k < 0; the output has the same length as the input.
    ``start`` is the absolute sample index of ``x[0]``.  A Doppler path's
    rotation comes from :func:`doppler_rotation`, whose block phase tables
    are anchored at absolute indices, so fading a slice ``x[lo:hi]`` with
    ``start=lo`` rotates each sample as fading the whole stream would: its
    outputs from index ``max(taps)`` on are bitwise equal to those of the
    whole stream at ``lo + max(taps)`` onward.  The rotations equal the
    direct exponential above to rounding, not bitwise.  A zero-Doppler path
    rotates by the constant ``exp(1j*phases[i])``.

    The shared identity realization of the AWGN profile returns ``x + 0.0``
    as complex: bitwise the sum above, whose ``0 + 1*x`` also turns a -0
    part into +0.  It changes no sample's neighbours, so it takes an array
    of any shape, e.g. a stack of windows in one call.
    """
    x = np.asarray(x)
    if ch is _identity_channel(ch.sample_rate_hz):
        return np.add(x, 0.0, dtype=np.complex128)
    n = x.size
    y = np.zeros(n, dtype=np.complex128)
    for tap, gain, nu, phi in zip(ch.taps, ch.gains, ch.doppler_hz, ch.phases):
        if tap >= n:
            continue
        if nu == 0.0:
            y[tap:] += gain * np.exp(1j * phi) * x[: n - tap]
        else:
            rot = doppler_rotation(2.0 * np.pi * nu / ch.sample_rate_hz, phi,
                                   start + tap, n - tap)
            rot *= gain
            rot *= x[: n - tap]
            y[tap:] += rot
    return y


def apply_awgn(x: np.ndarray, snr_db: float | Sequence[float],
               rng: np.random.Generator | Sequence[np.random.Generator],
               out: np.ndarray | None = None) -> np.ndarray:
    """Add circular complex Gaussian noise at the given SNR.

    Noise variance is P_sig * 10**(-snr_db/10) with P_sig the mean power of
    the input.  ``snr_db=inf`` is the explicit no-noise path; an all-zero or
    empty input has no defined SNR and is rejected, and so are NaN and -inf.

    The real parts of the noise are drawn first, then the imaginary parts,
    and each output part is x's part plus sqrt(var/2) times its draw.  The
    result is a new complex array, or, with ``out`` (shape ``(2, *x.shape)``,
    any real dtype), its real and imaginary planes rounded once into
    ``out[0]`` and ``out[1]``, and ``out`` is returned.

    A ``(k, n)`` stack of rows takes k SNRs and a sequence of k generators,
    and row j is bitwise ``apply_awgn(x[j], snr_db[j], rng[j])``: P_sig is
    the same pairwise sum over the row, and each row draws from its own
    generator.
    """
    x = np.asarray(x)
    stack = not isinstance(rng, np.random.Generator)
    rows, snrs, rngs = (x, snr_db, rng) if stack else (x[None], (snr_db,), (rng,))
    for snr in snrs:
        if math.isnan(snr) or snr == -math.inf:
            raise ValueError(f"snr_db must be a number or +inf, got {snr}")
    y = np.empty(x.shape, dtype=np.complex128) if out is None else out
    re, im = (y.real, y.imag) if out is None else out
    if not stack:
        re, im = re[None], im[None]
    noisy = [j for j, snr in enumerate(snrs) if not math.isinf(snr)]
    clean = [j for j, snr in enumerate(snrs) if math.isinf(snr)]
    if clean:
        re[clean], im[clean] = rows[clean].real, rows[clean].imag
    if not noisy:
        return y
    sel = slice(None) if len(noisy) == len(rows) else noisy
    xs = rows[sel]
    n = xs[0].size
    # bitwise np.mean's sum over each row
    sums = (np.abs(xs) ** 2).reshape(len(noisy), -1).sum(axis=-1)
    draws = np.empty((len(noisy), 2, *xs.shape[1:]))
    scale = np.empty((len(noisy),) + (1,) * (xs.ndim - 1))
    for i, j in enumerate(noisy):
        p_sig = float(sums[i]) / max(n, 1)
        if p_sig == 0.0:
            raise ValueError("cannot set an SNR on an all-zero signal")
        scale[i] = math.sqrt(p_sig * 10.0 ** (-snrs[j] / 10.0) / 2.0)
        # one draw of both planes is the real-part draw followed by the imaginary
        rngs[j].standard_normal(out=draws[i])
    noise = draws.swapaxes(0, 1)
    noise *= scale
    noise[0] += xs.real
    noise[1] += xs.imag
    re[sel], im[sel] = noise  # float64 sums, rounded once to the dtype of out
    return y
