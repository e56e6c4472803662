"""Frame construction, transform unitarity, and serialization layout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otfs_sync.frames import (
    FrameConfig,
    PilotConfig,
    build_dd_frame,
    dd_to_dt,
    deserialize_time,
    dt_to_dd,
    psk_constellation,
    serialize_time,
    zadoff_chu,
)


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def dft_oracle(grid_dd: np.ndarray) -> np.ndarray:
    """Direct-sum reference for the DD -> DT transform."""
    M, N = grid_dd.shape
    out = np.zeros((M, N), dtype=np.complex128)
    for m in range(M):
        for n in range(N):
            acc = 0.0 + 0.0j
            for k in range(N):
                acc += grid_dd[m, k] * np.exp(2j * np.pi * n * k / N)
            out[m, n] = acc / np.sqrt(N)
    return out


class TestConfigs:
    def test_defaults(self):
        cfg = FrameConfig()
        assert (cfg.M, cfg.N, cfg.L_CP) == (256, 64, 64)
        assert cfg.block_len == 256 * 64 + 64

    @pytest.mark.parametrize("bad", [dict(M=12), dict(N=6), dict(M=0), dict(L_CP=-1),
                                     dict(M=8, N=4, L_CP=32), dict(mod_order=1)])
    def test_rejects_bad_geometry(self, bad):
        with pytest.raises(ValueError):
            FrameConfig(**bad)

    def test_pilot_defaults_scale_with_frame(self):
        cfg = FrameConfig()
        pilot = PilotConfig.for_frame(cfg)
        assert pilot.m_p == 128 and pilot.n_p == 0
        assert pilot.amplitude == pytest.approx(16.0)
        assert pilot.guard_halfwidth == 26
        toy = PilotConfig.for_frame(FrameConfig(M=32, N=8, L_CP=8))
        assert 2 * toy.guard_halfwidth + 1 <= 32

    def test_pilot_validation(self):
        cfg = FrameConfig(M=32, N=8, L_CP=8)
        with pytest.raises(ValueError):
            PilotConfig(m_p=32, n_p=0, amplitude=1.0, guard_halfwidth=2).validate_against(cfg)
        with pytest.raises(ValueError):
            PilotConfig(m_p=0, n_p=0, amplitude=1.0, guard_halfwidth=16).validate_against(cfg)
        with pytest.raises(ValueError):
            PilotConfig(m_p=0, n_p=0, amplitude=0.0, guard_halfwidth=2)


class TestBuildFrame:
    def test_pilot_cell_and_guards(self):
        # tiny grid: pilot 2.0 at (2, 0), no guard beyond the pilot row itself
        cfg = FrameConfig(M=4, N=2, L_CP=0)
        pilot = PilotConfig(m_p=2, n_p=0, amplitude=2.0, guard_halfwidth=0)
        grid = build_dd_frame(cfg, pilot, _rng())
        assert grid[2, 0] == 2.0
        assert grid[2, 1] == 0.0  # rest of the pilot row is guard
        others = np.abs(grid[[0, 1, 3], :])
        assert np.allclose(others, 1.0)

    def test_guard_band_wraps(self):
        cfg = FrameConfig(M=8, N=4, L_CP=0)
        pilot = PilotConfig(m_p=0, n_p=1, amplitude=3.0, guard_halfwidth=1)
        grid = build_dd_frame(cfg, pilot, _rng(1))
        for row in (7, 0, 1):  # m_p - 1 wraps to the bottom row
            mask = np.abs(grid[row, :]) > 0
            if row == 0:
                assert mask.sum() == 1 and grid[0, 1] == 3.0
            else:
                assert not mask.any()

    def test_data_symbols_unit_power(self):
        cfg = FrameConfig(M=16, N=8, L_CP=4)
        grid = build_dd_frame(cfg, None, _rng(2))
        assert np.allclose(np.abs(grid), 1.0)
        pts = psk_constellation(4)
        assert np.allclose(np.mean(np.abs(pts) ** 2), 1.0)


    def test_stack_equals_calls_in_a_row(self):
        cfg = FrameConfig(M=16, N=8, L_CP=4, mod_order=8)
        pilot = PilotConfig.for_frame(cfg, guard_halfwidth=2)
        pilots = (None, pilot, None, pilot)
        one, calls = _rng(4), _rng(4)
        stack = build_dd_frame(cfg, pilots, one)
        assert stack.shape == (4, 16, 8)
        for grid, p in zip(stack, pilots):
            assert grid.tobytes() == build_dd_frame(cfg, p, calls).tobytes()
        # and both leave the generator at the same point
        assert one.integers(1 << 62) == calls.integers(1 << 62)

    @pytest.mark.parametrize("count", [1, 3])
    def test_one_stack_per_generator(self, count):
        # a sequence of generators stacks, along a new leading axis, what a
        # call on each of them alone builds, for a stack or a single grid
        cfg = FrameConfig(M=16, N=8, L_CP=4)
        pilots = (None, PilotConfig.for_frame(cfg, guard_halfwidth=2), None)
        for pilot, shape in ((pilots, (3, 16, 8)), (pilots[1], (16, 8))):
            got = build_dd_frame(cfg, pilot, [_rng(10 + j) for j in range(count)])
            assert got.shape == (count, *shape)
            for j in range(count):
                assert got[j].tobytes() == build_dd_frame(cfg, pilot, _rng(10 + j)).tobytes()

    def test_stack_validates_each_pilot(self):
        cfg = FrameConfig(M=8, N=4, L_CP=0)
        bad = PilotConfig(m_p=9, n_p=0, amplitude=1.0, guard_halfwidth=0)
        with pytest.raises(ValueError, match="m_p"):
            build_dd_frame(cfg, (None, bad), _rng())


class TestTransforms:
    def test_stack_transforms_grid_by_grid(self):
        rng = _rng(5)
        stack = rng.standard_normal((3, 16, 8)) + 1j * rng.standard_normal((3, 16, 8))
        dt = dd_to_dt(stack)
        dd = dt_to_dd(stack)
        for i in range(3):
            assert dt[i].tobytes() == dd_to_dt(stack[i]).tobytes()
            assert dd[i].tobytes() == dt_to_dd(stack[i]).tobytes()

    def test_matches_direct_sum_oracle(self):
        rng = _rng(3)
        grid = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        fast = dd_to_dt(grid)
        slow = dft_oracle(grid)
        assert np.max(np.abs(fast - slow)) < 1e-12 * np.max(np.abs(slow))

    def test_pilot_spreads_to_constant_row(self):
        cfg = FrameConfig(M=8, N=8, L_CP=0)
        pilot = PilotConfig(m_p=3, n_p=2, amplitude=5.0, guard_halfwidth=0)
        grid = np.zeros((8, 8), dtype=complex)
        grid[pilot.m_p, pilot.n_p] = pilot.amplitude
        dt = dd_to_dt(grid)
        n = np.arange(8)
        expected = 5.0 / np.sqrt(8) * np.exp(2j * np.pi * n * pilot.n_p / 8)
        assert np.allclose(dt[3, :], expected, atol=1e-12)
        assert np.allclose(np.abs(dt[3, :]), 5.0 / np.sqrt(8))

    def test_constant_row_collapses_to_dc(self):
        c = 0.7 - 0.2j
        dt = np.full((4, 8), c, dtype=complex)
        dd = dt_to_dd(dt)
        assert np.allclose(dd[:, 0], c * np.sqrt(8))
        assert np.allclose(dd[:, 1:], 0.0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        m_exp=st.integers(1, 5),
        n_exp=st.integers(1, 5),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_unitary_and_invertible(self, m_exp, n_exp, seed):
        M, N = 2**m_exp, 2**n_exp
        rng = _rng(seed)
        grid = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
        dt = dd_to_dt(grid)
        rel = 1e-9
        assert abs(np.linalg.norm(dt) - np.linalg.norm(grid)) <= rel * np.linalg.norm(grid)
        back = dt_to_dd(dt)
        assert np.linalg.norm(back - grid) <= rel * np.linalg.norm(grid)


class TestSerialization:
    def test_column_major_layout_with_cp(self):
        # rows [[a, b], [c, d]] -> payload [a, c, b, d], CP of 1 -> [d, a, c, b, d]
        a, b, c, d = 1 + 1j, 2 + 2j, 3 + 3j, 4 + 4j
        grid = np.array([[a, b], [c, d]])
        cfg = FrameConfig(M=2, N=2, L_CP=1)
        assert np.array_equal(serialize_time(grid, cfg), np.array([d, a, c, b, d]))

    def test_round_trip_with_and_without_cp(self):
        cfg = FrameConfig(M=8, N=4, L_CP=5)
        rng = _rng(4)
        grid = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        sig = serialize_time(grid, cfg)
        assert sig.shape == (cfg.block_len,)
        assert np.array_equal(deserialize_time(sig, cfg), grid)
        assert np.array_equal(deserialize_time(sig[cfg.L_CP:], cfg), grid)

    def test_cp_is_payload_tail(self):
        cfg = FrameConfig(M=4, N=4, L_CP=3)
        grid = _rng(5).standard_normal((4, 4)) + 0j
        s = serialize_time(grid, cfg)
        assert np.array_equal(s[:3], s[-3:])

    def test_rejects_wrong_sizes(self):
        cfg = FrameConfig(M=4, N=4, L_CP=2)
        with pytest.raises(ValueError):
            serialize_time(np.zeros((4, 2), dtype=complex), cfg)
        with pytest.raises(ValueError):
            deserialize_time(np.zeros(15, dtype=complex), cfg)

    @settings(max_examples=25, deadline=None)
    @given(m_exp=st.integers(1, 5), n_exp=st.integers(1, 4), seed=st.integers(0, 2**31 - 1))
    def test_round_trip_property(self, m_exp, n_exp, seed):
        M, N = 2**m_exp, 2**n_exp
        cfg = FrameConfig(M=M, N=N, L_CP=min(M, M * N - 1))
        rng = _rng(seed)
        grid = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
        assert np.array_equal(deserialize_time(serialize_time(grid, cfg), cfg), grid)


class TestPreambleSequence:
    def test_constant_amplitude(self):
        z = zadoff_chu(256, 25)
        assert z.size == 256
        assert np.allclose(np.abs(z), 1.0)

    def test_ideal_periodic_autocorrelation(self):
        z = zadoff_chu(256, 25)
        for tau in (1, 7, 100, 255):
            r = np.sum(z * np.conj(np.roll(z, tau)))
            assert abs(r) < 1e-9, f"off-peak correlation at shift {tau}: {abs(r)}"
        assert np.sum(z * np.conj(z)) == pytest.approx(256.0)

    def test_odd_length_variant(self):
        z = zadoff_chu(63, 25)
        assert np.allclose(np.abs(z), 1.0)
        r = np.sum(z * np.conj(np.roll(z, 5)))
        assert abs(r) < 1e-9

    def test_rejects_non_coprime_root(self):
        with pytest.raises(ValueError):
            zadoff_chu(256, 2)
