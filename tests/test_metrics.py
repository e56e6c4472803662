"""Scoring math, the per-method metric table, and the complexity report."""

import tracemalloc

import numpy as np
import pytest

from otfs_sync import classic, metrics
from otfs_sync.channel import AWGN_PROFILE, EVA_PROFILE, RAYLEIGH_PROFILE
from otfs_sync.dataset import DatasetConfig, PreambleConfig, generate_dataset
from otfs_sync.frames import FrameConfig, toy_frame_config, zadoff_chu
from otfs_sync.metrics import (
    METHODS,
    SweepModels,
    accuracy,
    complexity_csv,
    complexity_report,
    estimate_all,
    overall_row,
    rmse,
    rmse_raw,
    rows_to_csv,
    sweep,
    wrapped_error,
)
from otfs_sync.nn import build_sync_model, count_flops, param_count
from test_classic import autocorr2d_closed_form_theta


class FixedModel:
    def __init__(self, M, N, labels):
        self.M = M
        self.N = N
        self.labels = np.asarray(labels, dtype=np.int64)

    def predict_classes(self, X, batch_size=256):
        return self.labels[: X.shape[0]].copy()


def _dataset(channels=(AWGN_PROFILE,), snrs=(0.0, 20.0), samples=12, seed=0):
    cfg = DatasetConfig(
        frame=FrameConfig(M=8, N=4, L_CP=4),
        channels=channels,
        snr_grid_db=snrs,
        samples_per_channel=samples,
        global_seed=seed,
    )
    return generate_dataset(cfg)


class TestErrorMath:
    def test_wrap_minimal_examples(self):
        MN = 16384
        # 16380 vs 4 is 8 short across the wrap, not 16376 apart
        assert wrapped_error(np.array([16380]), np.array([4]), MN)[0] == -8
        assert wrapped_error(np.array([0]), np.array([16383]), MN)[0] == 1
        assert wrapped_error(np.array([7]), np.array([7]), MN)[0] == 0
        assert wrapped_error(np.array([8192]), np.array([0]), MN)[0] == -8192

    def test_rmse_examples(self):
        MN = 64
        truth = np.array([0, 10, 63])
        assert rmse(truth, truth, MN) == 0.0
        assert rmse(np.array([0, 10, 0]), truth, MN) == pytest.approx(1 / np.sqrt(3))
        assert rmse_raw(np.array([0, 10, 0]), truth) == pytest.approx(63 / np.sqrt(3))

    def test_accuracy(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 9, 3])) == pytest.approx(2 / 3)

    def test_method_names(self):
        assert METHODS == ("crosscorr", "autocorr2d", "resnet2stage", "resnet1stage")
        assert METHODS == tuple(metrics.METHOD_HEADS)


class TestEstimateAll:
    def test_resnet_two_stage_with_oracle_heads(self):
        ds = _dataset()
        models = SweepModels(
            coarse=FixedModel(ds.M, ds.N, ds.theta_t),
            fine=FixedModel(ds.M, ds.N, ds.theta_d),
        )
        got = estimate_all(ds, "resnet2stage", models)
        assert np.array_equal(got, ds.theta_wrapped)

    def test_autocorr_runs_on_every_record(self):
        ds = _dataset(snrs=(30.0,))
        got = estimate_all(ds, "autocorr2d", SweepModels(pilot_row=ds.M // 2))
        assert got.shape == (len(ds),)
        assert np.all((0 <= got) & (got < ds.M * ds.N))

    def test_missing_models_raise(self):
        ds = _dataset(samples=2)
        with pytest.raises(ValueError, match="resnet2stage needs coarse and fine weights"):
            estimate_all(ds, "resnet2stage", SweepModels())
        with pytest.raises(ValueError, match="resnet1stage needs onestage weights"):
            estimate_all(ds, "resnet1stage", SweepModels(coarse=build_sync_model(8, 4, "coarse")))
        with pytest.raises(ValueError):
            estimate_all(ds, "crosscorr", SweepModels())
        with pytest.raises(ValueError):
            estimate_all(ds, "autocorr2d", SweepModels())
        with pytest.raises(ValueError):
            estimate_all(ds, "warp-drive", SweepModels())


def _preamble_set(frame, Lp, channels, snrs, samples, seed):
    """A preamble-carrying dataset and the models that estimate it classically."""
    cfg = DatasetConfig(frame=frame, channels=channels, snr_grid_db=snrs,
                        samples_per_channel=samples,
                        preamble=PreambleConfig(length=Lp, root=25), global_seed=seed)
    models = SweepModels(preamble=zadoff_chu(Lp, 25), preamble_offset=-(Lp + frame.L_CP),
                         pilot_row=frame.M // 2)
    return generate_dataset(cfg), models


@pytest.fixture(scope="module")
def default_preamble_set():
    # 12 records: one full 8-window chunk and a partial one
    return _preamble_set(FrameConfig(), 256, (AWGN_PROFILE, RAYLEIGH_PROFILE, EVA_PROFILE),
                         (-20.0, 0.0, 20.0), 4, 41)


def _per_record_crosscorr(ds, models):
    out = []
    for i in range(len(ds)):
        win = ds.windows[i].astype(np.float64)
        out.append(classic.cross_correlate_sync(
            win[0] + 1j * win[1], models.preamble, models.preamble_offset))
    return out


class TestStackedCrosscorr:
    def test_default_scale_matches_per_record_loop(self, default_preamble_set):
        ds, models = default_preamble_set
        got = estimate_all(ds, "crosscorr", models)
        assert got.dtype == np.int64
        assert got.tolist() == _per_record_crosscorr(ds, models)

    def test_toy_scale_matches_per_record_loop(self):
        ds, models = _preamble_set(toy_frame_config(), 32, (AWGN_PROFILE, RAYLEIGH_PROFILE),
                                   (-10.0, 0.0, 20.0), 40, 42)
        assert estimate_all(ds, "crosscorr", models).tolist() == _per_record_crosscorr(ds, models)

    def test_peak_memory_does_not_grow_with_the_records(self):
        import tracemalloc

        ds, models = _preamble_set(FrameConfig(), 256, (AWGN_PROFILE,), (0.0,), 64, 43)
        peaks = {}
        for n in (8, 64):
            part = ds.subset(np.arange(n))
            tracemalloc.start()
            try:
                estimate_all(part, "crosscorr", models)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[64] <= 1.5 * peaks[8], peaks


class TestTimeMajorAutocorr:
    """``estimate_all("autocorr2d")`` gives exactly the estimates of the
    column-major closed form and the same decision rule, record by record."""

    @staticmethod
    def _reference(ds, m_p):
        return [autocorr2d_closed_form_theta(classic.planes_to_complex(ds.windows[i]),
                                             ds.M, ds.N, m_p) for i in range(len(ds))]

    def test_default_scale_matches_closed_form_loop(self, default_preamble_set):
        ds, models = default_preamble_set
        assert len(set(ds.channel_id.tolist())) == 3
        assert sorted(set(ds.snr_db.tolist())) == [-20.0, 0.0, 20.0]
        got = estimate_all(ds, "autocorr2d", models)
        assert got.dtype == np.int64
        assert got.tolist() == self._reference(ds, models.pilot_row)

    def test_toy_scale_matches_closed_form_loop(self):
        ds, models = _preamble_set(toy_frame_config(), 32,
                                   (AWGN_PROFILE, RAYLEIGH_PROFILE, EVA_PROFILE),
                                   (-20.0, 0.0, 20.0), 8, 44)
        got = estimate_all(ds, "autocorr2d", models)
        assert got.tolist() == self._reference(ds, models.pilot_row)


class TestBenchTracerContract:
    """The benchmark's span tracer patches ``classic.cross_correlation_surface``
    and ``classic.autocorr2d`` in ``classic``'s namespace, counts their MACs
    from the sizes of the positional arguments, and wraps the ``*_sync``
    names bound in ``metrics``."""

    def test_metrics_keeps_the_sync_names(self):
        assert metrics.cross_correlate_sync is classic.cross_correlate_sync
        assert metrics.autocorr2d_sync is classic.autocorr2d_sync

    def test_stacked_crosscorr_counts_every_window_once(self, monkeypatch,
                                                        default_preamble_set):
        ds, models = default_preamble_set
        seen = []
        original = classic.cross_correlation_surface

        def recording(*args, **kwargs):
            seen.append((args[0].shape, args[0].size * args[1].size))
            return original(*args, **kwargs)

        monkeypatch.setattr(classic, "cross_correlation_surface", recording)
        estimate_all(ds, "crosscorr", models)
        MN = ds.M * ds.N
        assert sum(macs for _, macs in seen) == len(ds) * classic.crosscorr_macs(MN, 256)
        assert all(shape[0] <= 8 and shape[1] == MN for shape, _ in seen), seen

    def test_autocorr2d_reached_once_per_record(self, monkeypatch, default_preamble_set):
        ds, models = default_preamble_set
        seen = []
        original = classic.autocorr2d

        def recording(*args, **kwargs):
            seen.append((args[0].size, args[1], args[2]))
            return original(*args, **kwargs)

        monkeypatch.setattr(classic, "autocorr2d", recording)
        estimate_all(ds, "autocorr2d", models)
        assert seen == [(ds.M * ds.N, ds.M, ds.N)] * len(ds)


class TestSweep:
    def _oracle_models(self, ds):
        return SweepModels(
            coarse=FixedModel(ds.M, ds.N, ds.theta_t),
            fine=FixedModel(ds.M, ds.N, ds.theta_d),
        )

    def test_rows_grouped_and_sorted(self):
        ds = _dataset(channels=(AWGN_PROFILE, RAYLEIGH_PROFILE), snrs=(0.0, 10.0),
                      samples=16, seed=3)
        *rows, overall = sweep(ds, ["resnet2stage"], self._oracle_models(ds))
        keys = [(r.method, r.channel_id, r.snr_db) for r in rows]
        assert keys == sorted(keys)
        assert {r.channel_id for r in rows} == {1, 2}
        assert {r.snr_db for r in rows} == {0.0, 10.0}
        assert sum(r.count for r in rows) == len(ds)
        assert (overall.method, overall.channel_id, overall.count) == ("resnet2stage", -1, len(ds))

    def test_oracle_models_score_perfectly(self):
        ds = _dataset(samples=10, seed=4)
        for row in sweep(ds, ["resnet2stage"], self._oracle_models(ds)):
            assert row.accuracy == 1.0 and row.rmse == 0.0

    def test_one_block_per_method(self):
        # each method's condition rows, then its overall row, in the order asked
        ds = _dataset(channels=(AWGN_PROFILE, RAYLEIGH_PROFILE), samples=8, seed=8)
        models = SweepModels(coarse=FixedModel(ds.M, ds.N, ds.theta_t),
                             fine=FixedModel(ds.M, ds.N, ds.theta_d),
                             onestage=FixedModel(ds.M, ds.N, ds.theta_wrapped))
        rows = sweep(ds, ["resnet1stage", "resnet2stage"], models)
        conditions = [(1, 0.0), (1, 20.0), (2, 0.0), (2, 20.0), (-1, None)]
        assert [(r.method, r.channel_id) for r in rows] == [
            (m, cid) for m in ("resnet1stage", "resnet2stage") for cid, _ in conditions]
        assert [r.snr_db for r in rows[:4]] == [snr for _, snr in conditions[:4]]
        assert [r.count for r in rows if r.channel_id == -1] == [len(ds)] * 2

    def test_csv_round_trip(self):
        ds = _dataset(samples=6, seed=6)
        rows = sweep(ds, ["resnet2stage"], self._oracle_models(ds))
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "method,channel_id,snr_db,count,accuracy,rmse,rmse_raw"
        assert len(lines) == len(rows) + 1
        assert lines[1].startswith("resnet2stage,1,")

    def test_overall_row_aggregates(self):
        ds = _dataset(samples=6, seed=7)
        theta_hat = ds.theta_wrapped.copy()
        row = overall_row(ds, "resnet2stage", theta_hat)
        assert row.channel_id == -1
        assert row.count == len(ds)
        assert row.accuracy == 1.0


class TestComplexity:
    def test_analytic_columns(self):
        frame = toy_frame_config()
        rows = complexity_report(frame.M, frame.N, preamble=PreambleConfig(64),
                                 measure_runtime=False)
        by_method = {r.method: r for r in rows}
        assert set(by_method) == set(METHODS)
        MN = frame.M * frame.N
        assert by_method["crosscorr"].flops == 8 * MN * 64
        assert by_method["autocorr2d"].flops == 8 * frame.M * frame.N * (frame.N - 1)
        assert by_method["resnet2stage"].flops == (
            count_flops(frame.M, frame.N, "coarse") + count_flops(frame.M, frame.N, "fine")
        )
        assert by_method["resnet2stage"].params == (
            param_count(frame.M, frame.N, "coarse") + param_count(frame.M, frame.N, "fine")
        )
        assert by_method["resnet1stage"].params == param_count(frame.M, frame.N, "onestage")
        assert all(r.runtime_s is None for r in rows)

    def test_runtime_measured_when_asked(self):
        rows = complexity_report(8, 4, preamble=PreambleConfig(16), repeats=3,
                                 measure_runtime=True)
        assert all(r.runtime_s is not None and r.runtime_s >= 0 for r in rows)

    def test_provided_models_are_used(self):
        coarse = build_sync_model(8, 4, "coarse")
        fine = build_sync_model(8, 4, "fine")
        one = build_sync_model(8, 4, "onestage")
        models = SweepModels(coarse=coarse, fine=fine, onestage=one)
        rows = complexity_report(8, 4, preamble=PreambleConfig(16), models=models, repeats=2)
        assert {r.method for r in rows} == set(METHODS)

    def test_csv_shape(self):
        rows = complexity_report(8, 4, preamble=PreambleConfig(16), measure_runtime=False)
        lines = complexity_csv(rows).strip().split("\n")
        assert lines[0] == "method,flops,params,runtime_s"
        assert len(lines) == 5

    def test_default_grid_builds_no_onestage_head(self, monkeypatch):
        built = []

        def recording(M, N, head):
            built.append(head)
            return build_sync_model(M, N, head)

        monkeypatch.setattr(metrics, "build_sync_model", recording)
        tracemalloc.start()
        try:
            rows = complexity_report(256, 64, repeats=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built == ["coarse", "fine"]
        assert peak < 256 << 20
        by_method = {r.method: r for r in rows}
        assert by_method["resnet1stage"].runtime_s is None
        assert by_method["resnet2stage"].runtime_s is not None
        assert "resnet1stage,1156595712,536894272,\n" in complexity_csv(rows)

    def test_analytic_only_report_allocates_no_window(self):
        # a 2048x2048 timing window and its complex copy would take 96 MiB
        tracemalloc.start()
        try:
            rows = complexity_report(2048, 2048, measure_runtime=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.runtime_s is None for r in rows)
        assert peak < 1 << 20, peak

    def test_passed_head_is_timed_whatever_its_size(self, monkeypatch):
        monkeypatch.setattr(metrics, "MAX_TIMED_PARAMS", 0)
        models = SweepModels(onestage=build_sync_model(8, 4, "onestage"))
        rows = complexity_report(8, 4, preamble=PreambleConfig(16), models=models, repeats=1)
        by_method = {r.method: r for r in rows}
        assert by_method["resnet1stage"].runtime_s is not None
        assert by_method["resnet2stage"].runtime_s is None
        assert by_method["crosscorr"].runtime_s is not None
