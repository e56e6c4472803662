"""Correlation-based synchronizers checked against brute-force references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otfs_sync.classic import (
    autocorr2d,
    autocorr2d_macs,
    autocorr2d_sync,
    cross_correlate_sync,
    cross_correlation_surface,
    crosscorr_macs,
    crosscorr_offsets,
    planes_to_complex,
)
from otfs_sync.dataset import DatasetConfig, PreambleConfig, per_record_rng, synthesize_capture
from otfs_sync.channel import AWGN_PROFILE
from otfs_sync.estimate import combine_offset
from otfs_sync.frames import FrameConfig, PilotConfig, toy_frame_config, zadoff_chu


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def autocorr2d_oracle(window, M, N):
    """Triple-loop reference for the lag-one Doppler-axis correlation."""
    r = np.asarray(window).reshape(M, N, order="F")
    P = np.zeros((M, N), dtype=np.complex128)
    for m in range(M):
        for n in range(N):
            acc = 0.0 + 0.0j
            for k in range(N - 1):
                acc += np.conj(r[m, (n + k) % N]) * r[m, (n + k + 1) % N]
            P[m, n] = acc
    return P


def autocorr2d_closed_form(window, M, N):
    """The column-major closed form: q on the (M, N) grid, its row sum, and
    q rolled by one column.  The time-major ``autocorr2d`` must reproduce it
    bit for bit."""
    window = np.asarray(window, dtype=np.complex128)
    r = window.reshape((M, N), order="F")
    q = np.conj(r) * np.roll(r, -1, axis=1)
    return q.sum(axis=1, keepdims=True) - np.roll(q, 1, axis=1)


def autocorr2d_closed_form_theta(window, M, N, m_p):
    """``theta_hat`` of the autocorr2d decision rule on the closed-form surface."""
    P = autocorr2d_closed_form(window, M, N)
    m_star = int(np.argmax(np.sum(np.abs(P), axis=1)))
    theta_t = int(np.argmax(np.real(P[m_star, :])))
    return combine_offset((m_p - m_star) % M, theta_t, M)


def crosscorr_oracle(window, preamble):
    """Direct-sum reference for the cyclic matched-filter magnitude."""
    L = window.size
    c = np.zeros(L)
    for tau in range(L):
        acc = 0.0 + 0.0j
        for i in range(preamble.size):
            acc += np.conj(preamble[i]) * window[(tau + i) % L]
        c[tau] = abs(acc)
    return c


def _noiseless_capture(frame, theta_raw, *, preamble=None, seed=5):
    cfg = DatasetConfig(
        frame=frame,
        channels=(AWGN_PROFILE,),
        snr_grid_db=(float("inf"),),
        samples_per_channel=1,
        preamble=preamble,
        global_seed=seed,
    )
    rec = synthesize_capture(
        cfg, AWGN_PROFILE, 1, float("inf"), theta_raw, per_record_rng(seed, 1, 0)
    )
    return rec.window[0].astype(np.float64) + 1j * rec.window[1].astype(np.float64)


class TestAutocorrSurface:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_triple_loop(self, seed):
        # vectorized and scalar complex multiplies can differ in the last ulp,
        # so the match is asserted to 1e-12 relative rather than bit-for-bit
        M, N = 8, 4
        rng = _rng(seed)
        w = rng.standard_normal(M * N) + 1j * rng.standard_normal(M * N)
        got = autocorr2d(w, M, N)
        want = autocorr2d_oracle(w, M, N)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale

    @settings(max_examples=20, deadline=None)
    @given(m_exp=st.integers(1, 4), n_exp=st.integers(1, 4), seed=st.integers(0, 2**31 - 1))
    def test_matches_triple_loop_property(self, m_exp, n_exp, seed):
        M, N = 2**m_exp, 2**n_exp
        rng = _rng(seed)
        w = rng.standard_normal(M * N) + 1j * rng.standard_normal(M * N)
        got = autocorr2d(w, M, N)
        want = autocorr2d_oracle(w, M, N)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_surface_shape(self):
        w = _rng(1).standard_normal(32) + 0j
        assert autocorr2d(w, 8, 4).shape == (8, 4)


def _same_bits(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes(order="F") == want.tobytes(order="F"))


class TestAutocorrTimeMajor:
    """``autocorr2d`` works on time-major rows but returns bitwise the
    column-major closed form."""

    @pytest.mark.parametrize("M,N", [(32, 8), (256, 64), (8, 4), (4, 2), (8, 1), (1, 8)])
    def test_bitwise_equal_to_the_closed_form(self, M, N):
        rng = _rng(M * 1000 + N)
        for _ in range(20):
            w = rng.standard_normal(M * N) + 1j * rng.standard_normal(M * N)
            got = autocorr2d(w, M, N)
            assert _same_bits(got, autocorr2d_closed_form(w, M, N))
            assert got.flags.f_contiguous

    @pytest.mark.parametrize("M,N", [(32, 8), (256, 64), (1, 8)])
    def test_non_contiguous_window(self, M, N):
        rng = _rng(7)
        w = rng.standard_normal(2 * M * N) + 1j * rng.standard_normal(2 * M * N)
        assert not w[::2].flags.contiguous
        assert _same_bits(autocorr2d(w[::2], M, N), autocorr2d_closed_form(w[::2], M, N))

    def test_float32_planes_and_real_windows(self):
        rng = _rng(8)
        planes = rng.standard_normal((2, 256)).astype(np.float32)
        w = planes_to_complex(planes)
        assert _same_bits(autocorr2d(w, 32, 8), autocorr2d_closed_form(w, 32, 8))
        assert _same_bits(autocorr2d(planes[0], 32, 8), autocorr2d_closed_form(planes[0], 32, 8))

    def test_sync_decision_matches_the_closed_form(self):
        frame = toy_frame_config()
        for theta in (-100, -37, -1, 0, 5, 17, 90):
            w = _noiseless_capture(frame, theta, seed=21)
            est = autocorr2d_sync(w, frame.M, frame.N, m_p=frame.M // 2)
            assert est.theta_hat == autocorr2d_closed_form_theta(w, frame.M, frame.N, frame.M // 2)


class TestAutocorrSync:
    def test_aligned_capture_gives_zero(self):
        frame = toy_frame_config()
        w = _noiseless_capture(frame, 0)
        est = autocorr2d_sync(w, frame.M, frame.N, m_p=frame.M // 2)
        assert est.theta_hat == 0
        assert est.theta_d_hat == 0 and est.theta_t_hat == 0
        assert not est.ambiguous
        assert est.method == "autocorr2d"

    def test_delay_only_offset_recovered(self):
        frame = toy_frame_config()
        w = _noiseless_capture(frame, 5)
        est = autocorr2d_sync(w, frame.M, frame.N, m_p=frame.M // 2)
        assert est.theta_d_hat == 5

    @pytest.mark.parametrize("theta_d", list(range(32)))
    def test_exhaustive_delay_component(self, theta_d):
        # every pure-delay offset within one frame row period must be recovered
        frame = toy_frame_config()
        w = _noiseless_capture(frame, theta_d, seed=9)
        est = autocorr2d_sync(w, frame.M, frame.N, m_p=frame.M // 2)
        assert est.theta_d_hat == theta_d, f"theta_d {theta_d} -> {est.theta_d_hat}"

    def test_global_phase_invariance(self):
        frame = toy_frame_config()
        w = _noiseless_capture(frame, -37)
        a = autocorr2d_sync(w, frame.M, frame.N, m_p=frame.M // 2)
        b = autocorr2d_sync(w * np.exp(1j * 1.234), frame.M, frame.N, m_p=frame.M // 2)
        assert (a.theta_hat, a.theta_d_hat, a.theta_t_hat) == (b.theta_hat, b.theta_d_hat, b.theta_t_hat)

    def test_zero_window_flags_ambiguous(self):
        # flat surface: ties resolve to row 0, which the recovery formula maps
        # back to the pilot row index
        est = autocorr2d_sync(np.zeros(256, dtype=complex), 32, 8, m_p=16)
        assert est.ambiguous
        assert est.theta_d_hat == 16 and est.theta_t_hat == 0
        assert est.theta_hat == est.theta_d_hat + 32 * est.theta_t_hat

    def test_estimate_components_consistent(self):
        frame = toy_frame_config()
        for theta in (-100, -1, 0, 17, 90):
            w = _noiseless_capture(frame, theta, seed=13)
            est = autocorr2d_sync(w, frame.M, frame.N, m_p=frame.M // 2)
            assert est.theta_hat == est.theta_d_hat + frame.M * est.theta_t_hat


class TestCrossCorrelation:
    @pytest.mark.parametrize("seed", range(4))
    def test_surface_matches_direct_sum(self, seed):
        rng = _rng(seed)
        w = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        p = zadoff_chu(16, 5)
        got = cross_correlation_surface(w, p)
        want = crosscorr_oracle(w, p)
        scale = max(1.0, float(np.max(want)))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_window_equal_to_preamble(self):
        p = zadoff_chu(256, 25)
        est = cross_correlate_sync(p.copy(), p, M=32)
        assert est.theta_hat == 0
        assert est.method == "crosscorr"

    def test_planted_preamble_peak_location(self):
        p = zadoff_chu(64, 5)
        w = np.zeros(256, dtype=complex)
        w[100:164] = p
        surface = cross_correlation_surface(w, p)
        assert int(np.argmax(surface)) == 100
        assert surface[100] == pytest.approx(64.0)
        est = cross_correlate_sync(w, p, M=16, preamble_offset=100)
        assert est.theta_hat == 0

    def test_offset_mapping(self):
        # preamble planted 3 samples before the nominal anchor -> estimate 3
        p = zadoff_chu(32, 7)
        L = 128
        anchor = 40
        w = np.zeros(L, dtype=complex)
        start = anchor - 3
        w[start:start + 32] = p
        est = cross_correlate_sync(w, p, M=8, preamble_offset=anchor)
        assert est.theta_hat == 3
        assert est.theta_d_hat + 8 * est.theta_t_hat == 3

    def test_zero_window_flags_ambiguous(self):
        p = zadoff_chu(16, 3)
        est = cross_correlate_sync(np.zeros(64, dtype=complex), p, M=8)
        assert est.ambiguous and est.theta_hat == 0

    def test_noise_robust_at_high_snr(self):
        rng = _rng(17)
        p = zadoff_chu(64, 5)
        w = 0.01 * (rng.standard_normal(512) + 1j * rng.standard_normal(512))
        w[200:264] += p
        est = cross_correlate_sync(w, p, M=16, preamble_offset=200)
        assert est.theta_hat == 0


class TestStackedCrossCorrelation:
    """A stack of windows is filtered and decided exactly as each window alone."""

    @pytest.mark.parametrize("frame, Lp", [(toy_frame_config(), 32), (FrameConfig(), 256)],
                             ids=["32x8", "256x64"])
    def test_stack_is_bitwise_the_single_windows(self, frame, Lp):
        MN = frame.grid_size
        p = zadoff_chu(Lp, 25)
        offset = -(Lp + frame.L_CP)
        # 13 windows: not a multiple of the 8-window chunk at 256x64
        planes = _rng(MN).standard_normal((13, 2, MN)).astype(np.float32)
        theta = -MN // 4
        clean = _noiseless_capture(frame, theta, preamble=PreambleConfig(length=Lp, root=25))
        planes[5] = np.stack([clean.real, clean.imag])
        windows = planes_to_complex(planes)
        stacked = cross_correlation_surface(windows, p)
        assert stacked.shape == (13, MN)
        for i in range(13):
            assert np.array_equal(stacked[i], cross_correlation_surface(windows[i], p)), i
        want = [cross_correlate_sync(w, p, frame.M, offset).theta_hat for w in windows]
        got = crosscorr_offsets(planes, p, offset)
        assert got.dtype == np.int64 and got.tolist() == want
        assert want[5] == theta % MN

    def test_one_preamble_spectrum_per_call(self, monkeypatch):
        # every chunk still goes through cross_correlation_surface with the
        # preamble as its second argument (the benchmark tracer counts MACs
        # from it), against a spectrum computed once per call
        from otfs_sync import classic

        spectra, chunks = [], []
        spectrum, surface = classic.preamble_spectrum, classic.cross_correlation_surface

        def counting_spectrum(*args):
            spectra.append(args)
            return spectrum(*args)

        def recording_surface(*args):
            chunks.append((args[0].shape, args[1].size))
            return surface(*args)

        monkeypatch.setattr(classic, "preamble_spectrum", counting_spectrum)
        monkeypatch.setattr(classic, "cross_correlation_surface", recording_surface)
        p = zadoff_chu(32, 25)
        planes = _rng(4).standard_normal((1100, 2, 256)).astype(np.float32)
        got = crosscorr_offsets(planes, p, -40)
        assert len(spectra) == 1
        assert chunks == [((512, 256), 32), ((512, 256), 32), ((76, 256), 32)]
        windows = planes_to_complex(planes)
        want = [cross_correlate_sync(w, p, 32, -40).theta_hat for w in windows[::97]]
        assert got[::97].tolist() == want

    def test_planes_to_complex_is_the_float64_conversion(self):
        planes = _rng(3).standard_normal((4, 2, 64)).astype(np.float32)
        want = planes[:, 0].astype(np.float64) + 1j * planes[:, 1].astype(np.float64)
        got = planes_to_complex(planes)
        assert got.dtype == np.complex128 and np.array_equal(got, want)
        assert np.array_equal(planes_to_complex(planes[2]), want[2])

    def test_empty_stack(self):
        out = crosscorr_offsets(np.zeros((0, 2, 64), np.float32), zadoff_chu(16, 5))
        assert out.shape == (0,) and out.dtype == np.int64


class TestStreamCaptures:
    """End-to-end checks on synthesized streams containing a planted preamble."""

    FRAME = toy_frame_config()

    def _estimate(self, theta):
        from otfs_sync.dataset import PreambleConfig

        frame = self.FRAME
        pre_cfg = PreambleConfig(length=64, root=5)
        w = _noiseless_capture(frame, theta, preamble=pre_cfg, seed=3)
        p = zadoff_chu(64, 5)
        offset = -(64 + frame.L_CP)
        return cross_correlate_sync(w, p, M=frame.M, preamble_offset=offset)

    def test_visible_range_exact(self):
        frame = self.FRAME
        MN = frame.grid_size
        lo, hi = -MN // 2, -(64 + frame.L_CP)
        for theta in range(lo, hi + 1, 7):
            est = self._estimate(theta)
            assert est.theta_hat == theta % MN, f"theta {theta} -> {est.theta_hat}"

    def test_boundary_cases(self):
        frame = self.FRAME
        MN = frame.grid_size
        for theta in (-MN // 2, -(64 + frame.L_CP)):
            est = self._estimate(theta)
            assert est.theta_hat == theta % MN


class TestOperationCounts:
    def test_autocorr_macs_default_scale(self):
        assert autocorr2d_macs(256, 64) == 256 * 64 * 63
        assert 8 * autocorr2d_macs(256, 64) == 8_257_536

    def test_crosscorr_macs_default_scale(self):
        assert crosscorr_macs(16384, 256) == 16384 * 256
        assert 8 * crosscorr_macs(16384, 256) == 33_554_432
