"""Capture synthesis, labeling, determinism, and the on-disk record format."""

import hashlib
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otfs_sync.channel import (
    AWGN_PROFILE,
    EVA_PROFILE,
    RAYLEIGH_PROFILE,
    apply_fading,
    realize_channel,
)
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
    record_dtype,
    save_dataset,
    synthesize_capture,
    write_dataset,
)
from otfs_sync.frames import (
    FrameConfig,
    PilotConfig,
    build_dd_frame,
    dd_to_dt,
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
        assert wrapped == d + M * t
        assert (wrapped - theta) % (M * N) == 0

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


def full_stream_window(cfg, profile, theta, rng):
    """Reference capture without noise: fade the whole transmit stream, then
    cut the window (one block, with a preamble)."""
    frame = cfg.frame
    MN = frame.grid_size

    def segment(pilot):
        return dd_to_dt(build_dd_frame(frame, pilot, rng)).ravel(order="F")

    prepend = segment(None)
    payload = segment(cfg.pilot)
    pre = zadoff_chu(cfg.preamble.length, cfg.preamble.root)
    append = segment(None)
    stream = np.concatenate([prepend, pre, payload[-frame.L_CP:], payload, append])
    faded = apply_fading(stream, realize_channel(profile, cfg.sample_rate_hz, rng))
    start = MN + pre.size + frame.L_CP + theta
    win = faded[start : start + MN]
    return np.stack([win.real, win.imag]).astype(np.float32)


class TestWindowOnlyChannel:
    @pytest.mark.parametrize("frame,pre", [
        (TOY, PreambleConfig(length=64, root=5)),
        (FrameConfig(), PreambleConfig(length=256, root=25)),
    ], ids=["toy", "default"])
    @pytest.mark.parametrize("profile", [AWGN_PROFILE, RAYLEIGH_PROFILE, EVA_PROFILE],
                             ids=lambda p: p.label)
    def test_noiseless_capture_matches_full_stream(self, frame, pre, profile):
        cfg = DatasetConfig(frame=frame, channels=(profile,), preamble=pre, global_seed=3)
        MN, L = frame.grid_size, frame.L_CP
        thetas = (-MN // 2, -(pre.length + L), -L, -L // 2, -1, 0, MN // 2 - 1)
        for i, theta in enumerate(thetas):
            rec = synthesize_capture(cfg, profile, 9, float("inf"), theta,
                                     per_record_rng(5, 9, i))
            want = full_stream_window(cfg, profile, theta, per_record_rng(5, 9, i))
            assert rec.window.tobytes() == want.tobytes(), f"theta {theta}"

    def test_snr_is_measured_on_the_window(self):
        cfg = _toy_config(channels=(EVA_PROFILE,))
        for snr in (0.0, 10.0):
            ratios = []
            for i in range(40):
                clean, noisy = (
                    synthesize_capture(cfg, EVA_PROFILE, 3, s, 5, per_record_rng(8, 3, i))
                    .window.astype(np.float64)
                    for s in (float("inf"), snr)
                )
                ratios.append(np.sum((noisy - clean) ** 2) / np.sum(clean ** 2))
            want = 10.0 ** (-snr / 10.0)
            # one window holds 2*M*N real noise samples: 6 % relative spread
            assert np.allclose(ratios, want, rtol=0.4), f"{snr} dB: {ratios}"
            assert np.mean(ratios) == pytest.approx(want, rel=0.05)


def whole_stream_window(cfg, profile, theta, rng):
    """Noiseless reference for any block count, with or without a preamble:
    transform all three grids, fade the whole stream from index 0, then cut
    the window."""
    frame = cfg.frame
    MN, L = frame.grid_size, frame.L_CP

    def segment(pilot):
        return dd_to_dt(build_dd_frame(frame, pilot, rng)).ravel(order="F")

    prepend = segment(None)
    payload = segment(cfg.pilot)
    append = segment(None)
    pre = (zadoff_chu(cfg.preamble.length, cfg.preamble.root) if cfg.preamble
           else np.zeros(0, dtype=complex))
    block = np.concatenate([payload[-L:], payload])
    stream = np.concatenate([prepend, pre, np.tile(block, cfg.blocks_per_frame), append])
    faded = apply_fading(stream, realize_channel(profile, cfg.sample_rate_hz, rng))
    start = MN + pre.size + L + theta
    win = faded[start : start + MN]
    return np.stack([win.real, win.imag]).astype(np.float32)


def fillers_reached(cfg, profile, theta):
    """(prepend, append): which fillers the faded span [lo, start+MN) reaches."""
    frame = cfg.frame
    MN, L = frame.grid_size, frame.L_CP
    pre = cfg.preamble.length if cfg.preamble else 0
    max_tap = max(int(np.floor(d * cfg.sample_rate_hz / 1e9 + 0.5))
                  for d in profile.delays_ns)
    start = MN + pre + L + theta
    body_end = MN + pre + cfg.blocks_per_frame * (MN + L)
    return start - max_tap < MN, start + MN > body_end


class TestFillerSkip:
    """The window-only synthesis transforms a filler only where the faded
    span reaches it; every branch must equal the whole-stream capture."""

    @pytest.mark.parametrize("frame,pre", [
        (TOY, PreambleConfig(length=64, root=5)),
        (FrameConfig(), PreambleConfig(length=256, root=25)),
    ], ids=["toy", "default"])
    def test_noiseless_capture_matches_whole_stream(self, frame, pre):
        MN, L = frame.grid_size, frame.L_CP
        thetas = (-MN // 2, -(L + 1), -L // 2, 0, 1, MN // 2 - 1)
        seen = set()
        for blocks, preamble in ((1, None), (2, None), (2, pre)):
            for profile in (AWGN_PROFILE, RAYLEIGH_PROFILE, EVA_PROFILE):
                cfg = DatasetConfig(frame=frame, channels=(profile,), preamble=preamble,
                                    blocks_per_frame=blocks, global_seed=3)
                for i, theta in enumerate(thetas):
                    rec = synthesize_capture(cfg, profile, 4, float("inf"), theta,
                                             per_record_rng(6, blocks, i))
                    want = whole_stream_window(cfg, profile, theta,
                                               per_record_rng(6, blocks, i))
                    where = (blocks, preamble is not None, profile.label, theta)
                    assert rec.window.tobytes() == want.tobytes(), where
                    seen.add(fillers_reached(cfg, profile, theta))
        # prepend only, neither, append only
        assert {(True, False), (False, False), (False, True)} <= seen


class TestFormatVersion3:
    def _sha_as_version(self, cfg, tmp_path, version):
        path = tmp_path / "v.otfsds"
        write_dataset(cfg, path)
        _set_version(path, version)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_awgn_records_keep_their_version_2_bytes(self, tmp_path):
        # the zero-Doppler path and the filler skip change no AWGN byte
        toy = _toy_config(snr_grid_db=(0.0, 10.0, 20.0), samples_per_channel=200)
        assert self._sha_as_version(toy, tmp_path, 2) == (
            "3d19c958d536e8fefe38e0ab5b24b4a7b124b5d3ba4239dd745f3e7a361fadc9")
        default = DatasetConfig(channels=(AWGN_PROFILE,), samples_per_channel=4,
                                preamble=PreambleConfig(length=256, root=25),
                                global_seed=11)
        assert self._sha_as_version(default, tmp_path, 2) == (
            "9dd30f718a617c355fb15b7c0a7e80d6a74be919881c81c31562598dafc0dfc4")

    def test_noisy_toy_file_pin(self, tmp_path):
        cfg = _toy_config(channels=(AWGN_PROFILE, RAYLEIGH_PROFILE, EVA_PROFILE),
                          snr_grid_db=(0.0, 10.0, 20.0), samples_per_channel=40,
                          preamble=PreambleConfig(length=64, root=5))
        assert self._sha_as_version(cfg, tmp_path, 3) == (
            "f197ffd842985aa915a5f7444a7fb90066ff1efb394112761b32ad4171fa38ff")


ALL_CHANNELS = (AWGN_PROFILE, RAYLEIGH_PROFILE, EVA_PROFILE)


class TestSynthesisPins:
    """Byte pins of files whose noiseless records carry the guard rows'
    exact and signed zeros, and whose streams repeat the block or start with
    a preamble, taken before the synthesis path was rewritten."""

    def _sha(self, cfg, tmp_path):
        path = tmp_path / "pin.otfsds"
        write_dataset(cfg, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_toy_two_block_preamble_file(self, tmp_path):
        cfg = DatasetConfig(frame=TOY, channels=ALL_CHANNELS,
                            snr_grid_db=(float("inf"), 0.0), samples_per_channel=20,
                            blocks_per_frame=2, preamble=PreambleConfig(length=64, root=5),
                            global_seed=23)
        assert self._sha(cfg, tmp_path) == (
            "1141d689aaef45382536ae30743eb8405eb5fbbf9ad8f9636fc1ff6ee6795653")

    def test_default_preamble_file(self, tmp_path):
        cfg = DatasetConfig(channels=ALL_CHANNELS, snr_grid_db=(float("inf"), 10.0),
                            samples_per_channel=3,
                            preamble=PreambleConfig(length=256, root=25), global_seed=29)
        assert self._sha(cfg, tmp_path) == (
            "5822b49c70b8e1d877b943b9b4a3e09eaeec748279bf28fde83a1a547c670416")

    def test_capture_regenerates_every_record(self):
        # what a reader checking one record does: redraw its labels from its
        # own stream, then synthesize that capture alone
        cfg = _toy_config(channels=ALL_CHANNELS, snr_grid_db=(float("inf"), 0.0, 20.0),
                          samples_per_channel=30, preamble=PreambleConfig(length=64, root=5))
        ds = generate_dataset(cfg)
        MN = TOY.grid_size
        k = 0
        for cid, profile in channel_table(cfg):
            for i in range(cfg.samples_per_channel):
                rng = per_record_rng(cfg.global_seed, cid, i)
                theta = int(rng.integers(-MN // 2, MN // 2))
                snr = cfg.snr_grid_db[rng.integers(len(cfg.snr_grid_db))]
                rec = synthesize_capture(cfg, profile, cid, snr, theta, rng)
                assert rec.window.tobytes() == ds.windows[k].tobytes(), k
                assert (rec.channel_id, rec.theta_raw, rec.theta_wrapped) == (
                    ds.channel_id[k], ds.theta_raw[k], ds.theta_wrapped[k])
                assert np.float32(rec.snr_db) == ds.snr_db[k]
                k += 1
        assert k == len(ds)


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
            _toy_config(samples_per_channel=0)

    def test_empty_channel_list_rejected(self):
        with pytest.raises(ValueError, match="channels must not be empty"):
            _toy_config(channels=())

    @pytest.mark.parametrize("seed", [-5, -1, 2**64, 2**70])
    def test_seed_outside_the_header_field_rejected(self, seed):
        # the header stores the seed as a u64
        assert _toy_config(global_seed=2**64 - 1).global_seed == 2**64 - 1
        with pytest.raises(ValueError, match=f"global_seed .* got {seed}"):
            _toy_config(global_seed=seed)

    @pytest.mark.parametrize("snr", [float("nan"), float("-inf")])
    def test_non_finite_snr_rejected(self, snr):
        # +inf is the noiseless path; NaN and -inf would write NaN windows
        assert _toy_config(snr_grid_db=(float("inf"), 0.0)).snr_grid_db[0] == float("inf")
        with pytest.raises(ValueError, match="snr_grid_db"):
            _toy_config(snr_grid_db=(10.0, snr))


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

    def test_empty_dataset_splits_into_two_empty_ones(self):
        ds = generate_dataset(_toy_config(samples_per_channel=2)).subset(np.empty(0, np.intp))
        train, test = ds.split()
        assert len(train) == 0 and len(test) == 0

    def test_split_is_partition(self):
        ds = generate_dataset(_toy_config(samples_per_channel=10))
        train, test = ds.split(0.8)
        joined = np.concatenate([train.theta_raw, test.theta_raw])
        assert sorted(joined.tolist()) == sorted(ds.theta_raw.tolist())


def _set_version(path, version):
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", version)
    path.write_bytes(bytes(raw))


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
        assert version == 3
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
        path = tmp_path / "v.otfsds"
        write_dataset(_toy_config(samples_per_channel=1), path)
        for version in (0, 4, 99):
            _set_version(path, version)
            with pytest.raises(DataFormatError, match=f"unsupported format version {version}"):
                read_dataset(path)

    def test_reads_version_1(self, tmp_path):
        # version 1 keeps the layout; only how its noisy windows were made differs
        cfg = _toy_config(channels=(AWGN_PROFILE, EVA_PROFILE), samples_per_channel=3)
        path = tmp_path / "v1.otfsds"
        write_dataset(cfg, path)
        v2 = read_dataset(path)
        _set_version(path, 1)
        v1 = read_dataset(path)
        assert (v1.format_version, v2.format_version) == (1, 3)
        assert (v1.M, v1.N, v1.L_CP, v1.global_seed) == (v2.M, v2.N, v2.L_CP, v2.global_seed)
        for name in ("windows", "channel_id", "snr_db", "theta_raw", "theta_wrapped",
                     "theta_t", "theta_d"):
            assert np.array_equal(getattr(v1, name), getattr(v2, name)), name

    def test_noiseless_file_keeps_its_version_1_bytes(self, tmp_path):
        # without noise the window-only channel changes no window, so the file
        # is the version-1 file of the same config but for its version field
        cfg = DatasetConfig(
            frame=TOY, channels=(AWGN_PROFILE, RAYLEIGH_PROFILE, EVA_PROFILE),
            snr_grid_db=(float("inf"),), samples_per_channel=4,
            preamble=PreambleConfig(length=64, root=5), global_seed=7)
        path = tmp_path / "clean.otfsds"
        write_dataset(cfg, path)
        _set_version(path, 1)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "f7605707702a7c9c30a87db88c5c4ed91255b217fff406eafc4c216296ff0bc2")

    def test_rejects_file_shorter_than_header(self, tmp_path):
        path = tmp_path / "short.otfsds"
        write_dataset(_toy_config(samples_per_channel=1), path)
        path.write_bytes(path.read_bytes()[:39])
        with pytest.raises(DataFormatError, match="shorter than the dataset header"):
            read_dataset(path)

    def _oversized(self, tmp_path):
        path = tmp_path / "over.otfsds"
        write_dataset(_toy_config(samples_per_channel=2), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 5)
        return path

    def test_rejects_trailing_bytes(self, tmp_path):
        with pytest.raises(DataFormatError, match="truncated or oversized"):
            read_dataset(self._oversized(tmp_path))

    def test_info_on_oversized_file_exits_3(self, tmp_path, capsys):
        from otfs_sync.cli import main

        assert main(["info", "--dataset", str(self._oversized(tmp_path))]) == 3
        assert "data format error" in capsys.readouterr().err

    def test_rejects_count_past_the_body(self, tmp_path):
        path = tmp_path / "count.otfsds"
        write_dataset(_toy_config(samples_per_channel=3), path)
        raw = bytearray(path.read_bytes())
        raw[24:32] = struct.pack("<Q", 4)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="promises 4 records"):
            read_dataset(path)

    @pytest.mark.parametrize("M, N, L_CP, match", [
        (0, 8, 8, "needs M, N >= 1"),
        (32, 0, 0, "needs M, N >= 1"),
        (32, 8, 256, "L_CP < M\\*N"),
        (32, 8, 2**32 - 1, "L_CP < M\\*N"),
        (2**31, 8, 8, "no record can hold a 2147483648x8 window"),
        (2**32 - 1, 2**32 - 1, 8, "no record can hold"),
        (2**20, 2**10, 8, "no record can hold"),
    ], ids=["M-0", "N-0", "cp-MN", "cp-u32-max", "M-2e31", "MN-2e64", "record-over-2GiB"])
    def test_rejects_impossible_header_grid(self, tmp_path, capsys, M, N, L_CP, match):
        # before: M = 2**31 failed in numpy (exit 4) and L_CP = 2**32 - 1 read silently
        from otfs_sync.cli import main

        path = tmp_path / "grid.otfsds"
        write_dataset(_toy_config(samples_per_channel=10), path)
        raw = bytearray(path.read_bytes())
        raw[12:24] = struct.pack("<III", M, N, L_CP)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match=match) as info:
            read_dataset(path)
        assert str(path) in str(info.value)
        for argv in (["info", "--dataset", str(path)],
                     ["eval", "--method", "crosscorr", "--dataset", str(path)]):
            assert main(argv) == 3, argv
            assert "data format error" in capsys.readouterr().err


class TestRecordLayout:
    def test_itemsize_and_offsets(self):
        MN = TOY.grid_size
        dt = record_dtype(MN)
        assert dt.itemsize == struct.calcsize("<BfiIHH") + 8 * MN
        offsets = [dt.fields[name][1] for name in dt.names]
        assert offsets == [0, 1, 5, 9, 13, 15, 17]
        assert dt.names == ("channel_id", "snr_db", "theta_raw", "theta_wrapped",
                            "theta_t", "theta_d", "window")

    def test_columns_keep_their_dtypes(self, tmp_path):
        cfg = _toy_config(samples_per_channel=3)
        path = tmp_path / "d.otfsds"
        write_dataset(cfg, path)
        want = {"windows": np.float32, "channel_id": np.uint8, "snr_db": np.float32,
                "theta_raw": np.int32, "theta_wrapped": np.uint32,
                "theta_t": np.uint16, "theta_d": np.uint16}
        for ds in (generate_dataset(cfg), read_dataset(path)):
            assert ds.windows.shape == (3, 2, TOY.grid_size)
            for name, dtype in want.items():
                assert getattr(ds, name).dtype == dtype, name

    def test_save_of_read_is_byte_identical(self, tmp_path):
        # a dataset read from a version-1 file is saved as version 1
        cfg = _toy_config(channels=(AWGN_PROFILE, EVA_PROFILE), samples_per_channel=5)
        p, q = tmp_path / "p.otfsds", tmp_path / "q.otfsds"
        write_dataset(cfg, p)
        for version in (2, 1):
            _set_version(p, version)
            save_dataset(read_dataset(p), q)
            assert q.read_bytes() == p.read_bytes(), version

    def test_split_half_round_trips(self, tmp_path):
        # split() columns are copies, not views into a record array
        cfg = _toy_config(channels=(AWGN_PROFILE, EVA_PROFILE), samples_per_channel=5)
        _, test = generate_dataset(cfg).split(0.6)
        path = tmp_path / "half.otfsds"
        save_dataset(test, path)
        back = read_dataset(path)
        assert (back.M, back.N, back.L_CP, back.global_seed) == (
            test.M, test.N, test.L_CP, test.global_seed)
        for name in ("windows", "channel_id", "snr_db", "theta_raw", "theta_wrapped",
                     "theta_t", "theta_d"):
            assert np.array_equal(getattr(back, name), getattr(test, name)), name
