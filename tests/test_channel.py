"""Channel realization, fading application, and noise injection."""

import numpy as np
import pytest

from otfs_sync.channel import (
    AWGN_PROFILE,
    EVA_PROFILE,
    PHASE_BLOCK,
    RAYLEIGH_PROFILE,
    ChannelKind,
    ChannelProfile,
    PROFILES_BY_ID,
    apply_awgn,
    apply_fading,
    doppler_rotation,
    realize_channel,
)

FS = 10e6


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def fading_oracle(x, ch):
    """Direct per-sample evaluation of the tapped-delay-line model."""
    y = np.zeros(x.size, dtype=np.complex128)
    for k in range(x.size):
        acc = 0.0 + 0.0j
        for tap, gain, nu, phi in zip(ch.taps, ch.gains, ch.doppler_hz, ch.phases):
            if k - tap < 0:
                continue
            rot = np.exp(1j * (2 * np.pi * nu * k / ch.sample_rate_hz + phi))
            acc += gain * rot * x[k - tap]
        y[k] = acc
    return y


class TestProfiles:
    def test_preset_ids(self):
        assert PROFILES_BY_ID[1] is AWGN_PROFILE
        assert PROFILES_BY_ID[2] is RAYLEIGH_PROFILE
        assert PROFILES_BY_ID[3] is EVA_PROFILE
        assert AWGN_PROFILE.kind == ChannelKind.AWGN

    def test_eva_shape(self):
        assert len(EVA_PROFILE.delays_ns) == 9
        assert EVA_PROFILE.gains_db[0] == 0.0
        assert EVA_PROFILE.max_doppler_hz == pytest.approx(3051.0)

    def test_rayleigh_shape(self):
        assert RAYLEIGH_PROFILE.delays_ns == (0.0, 100.0, 200.0)
        assert RAYLEIGH_PROFILE.gains_db == (0.0, -10.0, -15.0)
        assert RAYLEIGH_PROFILE.max_doppler_hz == pytest.approx(1525.0)


class TestRealization:
    def test_awgn_is_identity_tap(self):
        ch = realize_channel(AWGN_PROFILE, FS, _rng())
        assert np.array_equal(ch.taps, [0])
        assert ch.gains[0] == 1.0 + 0.0j
        assert ch.doppler_hz[0] == 0.0 and ch.phases[0] == 0.0

    def test_awgn_realization_is_shared_and_read_only(self):
        ch = realize_channel(AWGN_PROFILE, FS, _rng(1))
        assert realize_channel(AWGN_PROFILE, FS, _rng(2)) is ch
        assert realize_channel(AWGN_PROFILE, 2 * FS, _rng()).sample_rate_hz == 2 * FS
        with pytest.raises(ValueError):
            ch.gains[0] = 2.0

    def test_rayleigh_taps_at_10mhz(self):
        # 0 ns, 100 ns, 200 ns at 100 ns sample period -> taps 0, 1, 2
        ch = realize_channel(RAYLEIGH_PROFILE, FS, _rng())
        assert ch.taps.tolist() == [0, 1, 2]

    def test_eva_taps_at_10mhz(self):
        # round-half-up of delay_ns * 1e-9 * fs for each EVA path
        ch = realize_channel(EVA_PROFILE, FS, _rng())
        assert ch.taps.tolist() == [0, 0, 2, 3, 4, 7, 11, 17, 25]

    def test_half_sample_delay_rounds_up(self):
        prof = ChannelProfile(
            kind=ChannelKind.CUSTOM, delays_ns=(50.0, 150.0), gains_db=(0.0, 0.0),
            max_doppler_hz=0.0, label="halfway",
        )
        ch = realize_channel(prof, FS, _rng())
        assert ch.taps.tolist() == [1, 2]

    def test_doppler_bounded_and_random(self):
        freqs = []
        for seed in range(40):
            ch = realize_channel(RAYLEIGH_PROFILE, FS, _rng(seed))
            freqs.extend(ch.doppler_hz.tolist())
            assert np.all(np.abs(ch.doppler_hz) <= RAYLEIGH_PROFILE.max_doppler_hz + 1e-9)
            assert np.all(ch.phases >= 0) and np.all(ch.phases < 2 * np.pi)
        assert np.std(freqs) > 0

    def test_mean_path_power_matches_profile(self):
        # E[|g_i|^2] should equal the linear per-path power 10^(dB/10)
        rng = _rng(7)
        trials = 4000
        acc = np.zeros(3)
        for _ in range(trials):
            ch = realize_channel(RAYLEIGH_PROFILE, FS, rng)
            acc += np.abs(ch.gains) ** 2
        got = acc / trials
        want = 10.0 ** (np.asarray(RAYLEIGH_PROFILE.gains_db) / 10.0)
        assert np.allclose(got, want, rtol=0.08), f"mean powers {got} vs {want}"


class TestFading:
    def test_matches_direct_oracle(self):
        rng = _rng(11)
        x = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        for profile in (RAYLEIGH_PROFILE, EVA_PROFILE):
            ch = realize_channel(profile, FS, rng)
            got = apply_fading(x, ch)
            want = fading_oracle(x, ch)
            assert got.size == x.size
            assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("profile", [AWGN_PROFILE, RAYLEIGH_PROFILE, EVA_PROFILE],
                             ids=lambda p: p.label)
    def test_slice_with_start_matches_whole_stream(self, profile):
        # fading x[lo:hi] from absolute index lo reproduces the whole-stream
        # output bitwise once the slice holds max(taps) samples of history
        rng = _rng(14)
        x = rng.standard_normal(3000) + 1j * rng.standard_normal(3000)
        for trial in range(4):
            ch = realize_channel(profile, FS, rng)
            max_tap = int(ch.taps.max())
            whole = apply_fading(x, ch)
            lo = int(rng.integers(0, 1500))
            hi = int(rng.integers(lo + max_tap + 1, x.size + 1))
            part = apply_fading(x[lo:hi], ch, start=lo)
            assert part[max_tap:].tobytes() == whole[lo + max_tap : hi].tobytes()

    def test_awgn_realization_passes_through(self):
        x = _rng(12).standard_normal(64) + 1j * _rng(13).standard_normal(64)
        ch = realize_channel(AWGN_PROFILE, FS, _rng())
        assert np.array_equal(apply_fading(x, ch), x)

    def test_pure_delay_shifts(self):
        prof = ChannelProfile(
            kind=ChannelKind.CUSTOM, delays_ns=(300.0,), gains_db=(0.0,),
            max_doppler_hz=0.0, label="delay3",
        )
        ch = realize_channel(prof, FS, _rng(3))
        x = np.arange(1, 11, dtype=complex)
        y = apply_fading(x, ch)
        g = ch.gains[0] * np.exp(1j * ch.phases[0])
        assert np.allclose(y[:3], 0.0)
        rot = np.exp(1j * 2 * np.pi * ch.doppler_hz[0] * np.arange(3, 10) / FS)
        assert np.allclose(y[3:], g * rot * x[:7])


class TestDopplerRotation:
    @pytest.mark.parametrize("k0,n", [
        (0, PHASE_BLOCK - 5),        # fewer samples than one block
        (37, 3 * PHASE_BLOCK),       # start inside a block
        (PHASE_BLOCK - 1, 2),        # straddles one block boundary
        (1000, 1),                   # a single sample
        (0, 1),
        (50_003, 16_409),            # far into a stream, window length
    ])
    @pytest.mark.parametrize("nu", [3051.0, -1525.0, 0.4])
    def test_matches_direct_exponential(self, k0, n, nu):
        w = 2.0 * np.pi * nu / FS
        phi = 1.234
        got = doppler_rotation(w, phi, k0, n)
        want = np.exp(1j * (w * np.arange(k0, k0 + n) + phi))
        assert got.shape == (n,)
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_value_depends_on_the_absolute_index_only(self):
        w, phi = 2.0 * np.pi * 2890.0 / FS, 0.5
        whole = doppler_rotation(w, phi, 0, 5000)
        for k0, n in ((1, 7), (127, 130), (128, 1), (4321, 679)):
            assert doppler_rotation(w, phi, k0, n).tobytes() == whole[k0 : k0 + n].tobytes()


class TestNoise:
    def test_measured_snr(self):
        rng = _rng(21)
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, 200_000))  # unit-power signal
        for snr_db in (0.0, 10.0):
            y = apply_awgn(x, snr_db, _rng(22))
            noise_power = np.mean(np.abs(y - x) ** 2)
            want = 10.0 ** (-snr_db / 10.0)
            assert noise_power == pytest.approx(want, rel=0.03)

    def test_scales_with_signal_power(self):
        rng = _rng(23)
        x = 3.0 * np.exp(1j * rng.uniform(0, 2 * np.pi, 100_000))
        y = apply_awgn(x, 0.0, _rng(24))
        assert np.mean(np.abs(y - x) ** 2) == pytest.approx(9.0, rel=0.05)

    def test_infinite_snr_is_noiseless(self):
        x = _rng(25).standard_normal(50) + 0j
        y = apply_awgn(x, np.inf, _rng(26))
        assert np.array_equal(y, x)
        assert y is not x

    def test_matches_complex_noise_bitwise(self):
        # real parts draw first: x + s*(a + 1j*b), with no complex temporaries
        x = _rng(27).standard_normal(300) + 1j * _rng(28).standard_normal(300)
        for snr_db in (-3.0, 0.0, 17.5):
            rng = _rng(29)
            s = np.sqrt(np.mean(np.abs(x) ** 2) * 10.0 ** (-snr_db / 10.0) / 2.0)
            want = x + s * (rng.standard_normal(300) + 1j * rng.standard_normal(300))
            assert apply_awgn(x, snr_db, _rng(29)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("snr_db", [np.inf, 6.0])
    def test_out_planes_round_the_complex_result_once(self, snr_db):
        x = (_rng(30).standard_normal(64) + 1j * _rng(31).standard_normal(64)).reshape(8, 8)
        want = apply_awgn(x, snr_db, _rng(32))
        out = np.empty((2, 8, 8), dtype=np.float32)
        assert apply_awgn(x, snr_db, _rng(32), out=out) is out
        assert out[0].tobytes() == want.real.astype(np.float32).tobytes()
        assert out[1].tobytes() == want.imag.astype(np.float32).tobytes()

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            apply_awgn(np.zeros(0, dtype=complex), 10.0, _rng())

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            apply_awgn(np.zeros(16, dtype=complex), 10.0, _rng())

    @pytest.mark.parametrize("snr_db", [float("nan"), -np.inf])
    def test_non_finite_snr_rejected(self, snr_db):
        with pytest.raises(ValueError, match="snr_db"):
            apply_awgn(np.ones(16, dtype=complex), snr_db, _rng())
