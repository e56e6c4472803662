"""Capture synthesis, labeling, determinism, and the on-disk record format."""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otfs_sync.channel import AWGN_PROFILE, EVA_PROFILE, RAYLEIGH_PROFILE
from otfs_sync.dataset import (
    DEFAULT_SNR_GRID_DB,
    DataFormatError,
    Dataset,
    DatasetConfig,
    PreambleConfig,
    channel_table,
    generate_dataset,
    label_of,
    per_record_rng,
    read_dataset,
    save_dataset,
    synthesize_capture,
    write_dataset,
)
from otfs_sync.estimate import combine_offset, decompose_offset
from otfs_sync.frames import (
    FrameConfig,
    PilotConfig,
    dt_to_dd,
    deserialize_time,
    toy_frame_config,
    zadoff_chu,
)

TOY = toy_frame_config()


def _toy_config(**over):
    base = dict(
        frame=TOY,
        channels=(AWGN_PROFILE,),
        snr_grid_db=(20.0,),
        samples_per_channel=8,
        global_seed=7,
    )
    base.update(over)
    return DatasetConfig(**base)


class TestLabels:
    def test_documented_examples(self):
        M, N = 256, 64
        assert label_of(-1, M, N) == (16383, 63, 255)
        assert label_of(-256, M, N) == (16128, 63, 0)
        assert label_of(0, M, N) == (0, 0, 0)
        assert label_of(5, M, N) == (5, 0, 5)
        assert label_of(300, M, N) == (300, 1, 44)

    @settings(max_examples=60, deadline=None)
    @given(theta=st.integers(-8192, 8191))
    def test_decomposition_round_trips(self, theta):
        M, N = 256, 64
        wrapped, t, d = label_of(theta, M, N)
        assert 0 <= wrapped < M * N
        assert 0 <= t < N and 0 <= d < M
        assert wrapped == combine_offset(d, t, M)
        assert decompose_offset(wrapped, M) == (d, t)

    def test_out_of_range_rejected(self):
        cfg = _toy_config()
        rng = per_record_rng(0, 1, 0)
        with pytest.raises(ValueError):
            synthesize_capture(cfg, AWGN_PROFILE, 1, 20.0, TOY.grid_size // 2, rng)
        with pytest.raises(ValueError):
            synthesize_capture(cfg, AWGN_PROFILE, 1, 20.0, -TOY.grid_size // 2 - 1, rng)


class TestCaptureContent:
    def _window(self, cfg, theta, seed=11):
        rec = synthesize_capture(
            cfg, AWGN_PROFILE, 1, float("inf"), theta, per_record_rng(seed, 1, 0)
        )
        assert rec.theta_raw == theta
        return rec.window[0].astype(np.float64) + 1j * rec.window[1].astype(np.float64)

    def test_aligned_window_is_one_payload(self):
        # noiseless, zero offset: the window holds exactly one serialized frame,
        # so transforming back must reveal the pilot and its silent guard band
        cfg = _toy_config(snr_grid_db=(float("inf"),))
        w = self._window(cfg, 0)
        grid = dt_to_dd(deserialize_time(w, TOY))
        pilot = cfg.pilot
        assert grid[pilot.m_p, pilot.n_p] == pytest.approx(pilot.amplitude, abs=1e-4)
        guards = (pilot.m_p + np.arange(-pilot.guard_halfwidth, pilot.guard_halfwidth + 1)) % TOY.M
        guard_grid = grid[guards, :].copy()
        guard_grid[np.where(guards == pilot.m_p)[0][0], pilot.n_p] = 0.0
        assert np.max(np.abs(guard_grid)) < 1e-4
        data_rows = np.setdiff1d(np.arange(TOY.M), guards)
        assert np.allclose(np.abs(grid[data_rows, :]), 1.0, atol=1e-4)

    def test_early_window_is_cyclic_shift(self):
        # offsets within the prefix length only rotate the aligned window
        cfg = _toy_config(snr_grid_db=(float("inf"),))
        w0 = self._window(cfg, 0)
        for theta in (-1, -4, -TOY.L_CP):
            wt = self._window(cfg, theta)
            assert np.array_equal(wt, np.roll(w0, -theta)), f"theta {theta}"

    def test_preamble_lands_at_window_start(self):
        pre = PreambleConfig(length=64, root=5)
        cfg = _toy_config(snr_grid_db=(float("inf"),), preamble=pre)
        theta = -(pre.length + TOY.L_CP)
        w = self._window(cfg, theta)
        expected = zadoff_chu(pre.length, pre.root)
        assert np.allclose(w[: pre.length], expected, atol=1e-6)

    def test_noise_changes_window_but_not_labels(self):
        cfg = _toy_config(snr_grid_db=(0.0,))
        r1 = synthesize_capture(cfg, AWGN_PROFILE, 1, 0.0, 3, per_record_rng(1, 1, 0))
        r2 = synthesize_capture(cfg, AWGN_PROFILE, 1, float("inf"), 3, per_record_rng(1, 1, 0))
        assert r1.theta_wrapped == r2.theta_wrapped
        assert not np.array_equal(r1.window, r2.window)

    def test_window_dtype_and_shape(self):
        cfg = _toy_config()
        rec = synthesize_capture(cfg, EVA_PROFILE, 3, 10.0, -7, per_record_rng(2, 3, 5))
        assert rec.window.dtype == np.float32
        assert rec.window.shape == (2, TOY.grid_size)


class TestDeterminism:
    def test_identical_seeds_identical_records(self):
        cfg = _toy_config(channels=(RAYLEIGH_PROFILE,))
        a = synthesize_capture(cfg, RAYLEIGH_PROFILE, 2, 10.0, 42, per_record_rng(5, 2, 9))
        b = synthesize_capture(cfg, RAYLEIGH_PROFILE, 2, 10.0, 42, per_record_rng(5, 2, 9))
        assert np.array_equal(a.window, b.window)

    def test_record_streams_are_independent(self):
        cfg = _toy_config()
        a = synthesize_capture(cfg, AWGN_PROFILE, 1, 10.0, 0, per_record_rng(5, 1, 0))
        b = synthesize_capture(cfg, AWGN_PROFILE, 1, 10.0, 0, per_record_rng(5, 1, 1))
        assert not np.array_equal(a.window, b.window)

    def test_regeneration_is_byte_identical(self):
        cfg = _toy_config(
            channels=(AWGN_PROFILE, RAYLEIGH_PROFILE), samples_per_channel=6
        )
        d1 = generate_dataset(cfg)
        d2 = generate_dataset(cfg)
        assert np.array_equal(d1.windows, d2.windows)
        assert np.array_equal(d1.theta_raw, d2.theta_raw)
        assert np.array_equal(d1.snr_db, d2.snr_db)

    def test_seed_changes_data(self):
        d1 = generate_dataset(_toy_config(global_seed=1))
        d2 = generate_dataset(_toy_config(global_seed=2))
        assert not np.array_equal(d1.windows, d2.windows)


class TestConfig:
    def test_defaults(self):
        cfg = DatasetConfig()
        assert [p.label for _, p in channel_table(cfg)] == ["awgn", "rayleigh", "eva"]
        assert cfg.snr_grid_db == tuple(float(s) for s in range(-20, 27, 2))
        assert len(cfg.snr_grid_db) == 24
        assert cfg.samples_per_channel == 30000
        assert cfg.record_count == 90000
        assert cfg.train_fraction == 0.8

    def test_snr_grid_constant(self):
        assert DEFAULT_SNR_GRID_DB[0] == -20.0
        assert DEFAULT_SNR_GRID_DB[-1] == 26.0

    def test_channel_table_ids(self):
        custom = RAYLEIGH_PROFILE
        cfg = _toy_config(channels=(AWGN_PROFILE, custom))
        table = channel_table(cfg)
        assert table[0][0] == 1 and table[1][0] == 2

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            _toy_config(train_fraction=0.0)
        with pytest.raises(ValueError):
            _toy_config(samples_per_channel=0)


class TestSplit:
    def test_per_channel_counts(self):
        cfg = _toy_config(
            channels=(AWGN_PROFILE, RAYLEIGH_PROFILE), samples_per_channel=10
        )
        ds = generate_dataset(cfg)
        train, test = ds.split(0.8)
        assert len(train) == 16 and len(test) == 4
        for cid in (1, 2):
            assert int(np.sum(train.channel_id == cid)) == 8
            assert int(np.sum(test.channel_id == cid)) == 2

    def test_split_is_partition(self):
        ds = generate_dataset(_toy_config(samples_per_channel=10))
        train, test = ds.split(0.8)
        joined = np.concatenate([train.theta_raw, test.theta_raw])
        assert sorted(joined.tolist()) == sorted(ds.theta_raw.tolist())


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        cfg = _toy_config(channels=(AWGN_PROFILE, EVA_PROFILE), samples_per_channel=5)
        path = tmp_path / "toy.otfsds"
        write_dataset(cfg, path)
        ds = read_dataset(path)
        mem = generate_dataset(cfg)
        assert (ds.M, ds.N, ds.L_CP) == (TOY.M, TOY.N, TOY.L_CP)
        assert ds.global_seed == cfg.global_seed
        assert np.array_equal(ds.windows, mem.windows)
        assert np.array_equal(ds.channel_id, mem.channel_id)
        assert np.array_equal(ds.snr_db, mem.snr_db)
        assert np.array_equal(ds.theta_raw, mem.theta_raw)
        assert np.array_equal(ds.theta_wrapped, mem.theta_wrapped)
        assert np.array_equal(ds.theta_t, mem.theta_t)
        assert np.array_equal(ds.theta_d, mem.theta_d)

    def test_save_matches_streaming_write(self, tmp_path):
        cfg = _toy_config(samples_per_channel=4)
        p1, p2 = tmp_path / "a.otfsds", tmp_path / "b.otfsds"
        write_dataset(cfg, p1)
        save_dataset(generate_dataset(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        cfg = _toy_config(samples_per_channel=2)
        path = tmp_path / "h.otfsds"
        write_dataset(cfg, path)
        raw = path.read_bytes()
        magic, version, M, N, L_CP, count, seed = struct.unpack_from("<8sIIIIQQ", raw)
        assert magic == b"OTFSDS01"
        assert version == 1
        assert (M, N, L_CP) == (32, 8, 8)
        assert count == 2 and seed == 7
        rec_bytes = struct.calcsize("<BfiIHH") + 2 * 4 * M * N
        assert len(raw) == struct.calcsize("<8sIIIIQQ") + count * rec_bytes

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.otfsds"
        path.write_bytes(b"NOTADATA" + b"\x00" * 64)
        with pytest.raises(DataFormatError):
            read_dataset(path)

    def test_rejects_truncation(self, tmp_path):
        cfg = _toy_config(samples_per_channel=3)
        path = tmp_path / "t.otfsds"
        write_dataset(cfg, path)
        good = path.read_bytes()
        path.write_bytes(good[:-17])
        with pytest.raises(DataFormatError):
            read_dataset(path)

    def test_read_allocates_the_dataset_once(self, tmp_path):
        # the reader must not hold the file bytes next to the window array
        import tracemalloc

        cfg = _toy_config(samples_per_channel=40)
        path = tmp_path / "m.otfsds"
        write_dataset(cfg, path)
        tracemalloc.start()
        try:
            ds = read_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * ds.windows.nbytes

    def test_rejects_unknown_version(self, tmp_path):
        cfg = _toy_config(samples_per_channel=1)
        path = tmp_path / "v.otfsds"
        write_dataset(cfg, path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError):
            read_dataset(path)
