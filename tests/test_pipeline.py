"""Offset compensation, two-stage composition, and the training loop."""

import json
import platform

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otfs_sync import pipeline
from otfs_sync.channel import AWGN_PROFILE
from otfs_sync.dataset import DatasetConfig, generate_dataset, read_dataset, save_dataset
from otfs_sync.frames import FrameConfig, toy_frame_config
from otfs_sync.pipeline import (
    TrainHyper,
    compensate,
    compensate_batch,
    infer,
    infer_two_stage,
    save_training_result,
    train_coarse,
    train_fine,
    train_one_stage,
)


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class FixedModel:
    """Duck-typed stand-in whose predictions are a fixed label array."""

    def __init__(self, M, N, labels):
        self.M = M
        self.N = N
        self.labels = np.asarray(labels, dtype=np.int64)

    def predict_classes(self, X, batch_size=256):
        assert X.shape[0] == self.labels.shape[0]
        return self.labels.copy()


def _tiny_dataset(seed=0, samples=96, snr=(20.0,), frame=None):
    cfg = DatasetConfig(
        frame=frame or FrameConfig(M=8, N=4, L_CP=4),
        channels=(AWGN_PROFILE,),
        snr_grid_db=snr,
        samples_per_channel=samples,
        global_seed=seed,
    )
    return generate_dataset(cfg)


class TestCompensate:
    def test_realigns_a_shifted_capture(self):
        w = np.array([3.0, 4.0, 1.0, 2.0])  # payload [1,2,3,4] seen 2 late
        assert np.array_equal(compensate(w, 2), [1.0, 2.0, 3.0, 4.0])

    @settings(max_examples=40, deadline=None)
    @given(a=st.integers(-20, 20), b=st.integers(-20, 20), seed=st.integers(0, 1000))
    def test_shift_composition(self, a, b, seed):
        w = _rng(seed).standard_normal(16)
        assert np.array_equal(compensate(compensate(w, a), b), compensate(w, a + b))
        assert np.array_equal(compensate(w, 16), w)

    def test_batch_matches_scalar(self):
        rng = _rng(1)
        wins = rng.standard_normal((5, 2, 12)).astype(np.float32)
        shifts = np.array([0, 3, -2, 12, 7])
        out = compensate_batch(wins, shifts)
        for i, s in enumerate(shifts):
            assert np.array_equal(out[i], compensate(wins[i], int(s))), i

    @pytest.mark.parametrize("source", ["default_stack", "read_dataset"])
    def test_batch_matches_scalar_at_every_wrap(self, tmp_path, source):
        if source == "default_stack":
            wins = _rng(2).standard_normal((7, 2, 256 * 64)).astype(np.float32)
        else:
            path = tmp_path / "ds.otfsds"
            save_dataset(_tiny_dataset(seed=4, samples=7), str(path))
            wins = read_dataset(str(path)).windows  # strided, unaligned view
            assert not wins.flags.c_contiguous and not wins.flags.aligned
        L = wins.shape[-1]
        shifts = np.array([0, 1, L - 1, L, 2 * L + 3, -1, -L - 2])
        out = compensate_batch(wins, shifts)
        assert out.shape == wins.shape and out.dtype == wins.dtype
        for i, s in enumerate(shifts):
            assert np.array_equal(out[i], compensate(wins[i], int(s))), (i, s)

    def test_compensating_by_label_realigns(self):
        # rolling a capture back by its wrapped offset reproduces the
        # zero-offset capture whenever the true offset lies within the prefix
        ds = _tiny_dataset(seed=3, samples=200, snr=(float("inf"),))
        L_CP = 4
        base = {}
        for i in range(len(ds)):
            theta = int(ds.theta_raw[i])
            if -L_CP <= theta <= 0:
                base.setdefault(theta, i)
        assert 0 in base and len(base) > 1, "need a zero-offset and a shifted capture"
        w0 = ds.windows[base[0]]
        for theta, i in base.items():
            arr = compensate(ds.windows[i], int(ds.theta_wrapped[i]) )
            # same payload symbols are drawn per record index, so only the
            # zero-offset record is byte-equal; others realign the pilot only
            if i == base[0]:
                assert np.array_equal(arr, w0)


class TestTwoStageComposition:
    def test_oracle_stages_recover_every_offset(self):
        ds = _tiny_dataset(seed=5, samples=64)
        coarse = FixedModel(ds.M, ds.N, ds.theta_t)
        fine = FixedModel(ds.M, ds.N, ds.theta_d)
        theta_hat = infer_two_stage(ds.windows, coarse, fine)
        assert np.array_equal(theta_hat, ds.theta_wrapped)

    def test_single_capture_estimate(self):
        ds = _tiny_dataset(seed=6, samples=4)
        coarse = FixedModel(ds.M, ds.N, ds.theta_t[:1])
        fine = FixedModel(ds.M, ds.N, ds.theta_d[:1])
        est = infer(ds.windows[0], coarse, fine)
        assert type(est) is int and est == int(ds.theta_wrapped[0])

    def test_coarse_error_shifts_by_whole_segments(self):
        ds = _tiny_dataset(seed=7, samples=8)
        wrong_t = (ds.theta_t + 1) % ds.N
        coarse = FixedModel(ds.M, ds.N, wrong_t)
        fine = FixedModel(ds.M, ds.N, ds.theta_d)
        theta_hat = infer_two_stage(ds.windows, coarse, fine)
        err = (theta_hat - ds.theta_wrapped) % (ds.M * ds.N)
        assert np.all(err % ds.M == 0), "delay part must be untouched"


class TestTraining:
    def _split(self, ds):
        return ds.split(0.75)

    def test_coarse_learns_tiny_problem(self):
        # 8x4 grid, clean AWGN: a few epochs must beat chance clearly and
        # drive training loss below the uniform-prediction level
        train, test = self._split(_tiny_dataset(seed=8, samples=240))
        hyper = TrainHyper(lr=3e-3, batch_size=32, epochs=8, seed=0)
        result = train_coarse(train, test, hyper)
        report = result.report
        assert len(report.epochs) == 8
        assert report.epochs[-1].train_loss < 0.5 * np.log(train.N)
        assert report.best_accuracy > 1.6 / train.N
        assert report.best_epoch >= 0

    def test_report_json_lines(self):
        train, test = self._split(_tiny_dataset(seed=9, samples=64))
        hyper = TrainHyper(lr=1e-3, batch_size=32, epochs=2, seed=1)
        result = train_coarse(train, test, hyper)
        lines = result.report.to_json_lines().strip().split("\n")
        events = [json.loads(l) for l in lines]
        assert events[0]["event"] == "train_start"
        assert events[0]["head"] == "coarse"
        assert [e["event"] for e in events[1:-1]] == ["epoch", "epoch"]
        assert events[-1]["event"] == "train_end"
        assert events[-1]["best_epoch"] == result.report.best_epoch
        for e, stats in zip(events[1:-1], result.report.epochs):
            assert {"train_seconds", "eval_seconds", "samples_per_s"} <= set(e)
            # the three times are rounded to the millisecond each
            assert e["train_seconds"] + e["eval_seconds"] <= e["seconds"] + 1e-3
            assert stats.train_seconds + stats.eval_seconds <= stats.seconds + 1e-9
            assert stats.samples == len(train)
            assert e["samples_per_s"] == round(len(train) / stats.train_seconds, 1)

    def test_training_computes_no_input_gradient(self, monkeypatch):
        from otfs_sync.nn.model import SyncModel

        flags = []
        original = SyncModel.backward

        def recording(self, gy, *args, **kwargs):
            flags.append(kwargs.get("input_grad", args[0] if args else True))
            return original(self, gy, *args, **kwargs)

        monkeypatch.setattr(SyncModel, "backward", recording)
        train, test = self._split(_tiny_dataset(seed=10, samples=64))
        train_coarse(train, test, TrainHyper(lr=1e-3, batch_size=32, epochs=1, seed=3))
        assert flags and not any(flags)

    def test_training_is_deterministic(self):
        train, test = self._split(_tiny_dataset(seed=10, samples=64))
        hyper = TrainHyper(lr=1e-3, batch_size=32, epochs=2, seed=3)
        r1 = train_coarse(train, test, hyper)
        r2 = train_coarse(train, test, hyper)
        s1, s2 = r1.model.state_dict(), r2.model.state_dict()
        for k in s1:
            assert np.array_equal(s1[k], s2[k]), k
        assert r1.report.to_json_lines().count("train_loss") == 2

    def test_best_state_tracks_peak_accuracy(self):
        train, test = self._split(_tiny_dataset(seed=11, samples=96))
        hyper = TrainHyper(lr=3e-3, batch_size=32, epochs=5, seed=0)
        result = train_coarse(train, test, hyper)
        accs = [e.test_accuracy for e in result.report.epochs]
        assert result.report.best_accuracy == max(accs)
        assert accs[result.report.best_epoch] == max(accs)
        # restoring the best weights reproduces the best accuracy
        model = result.restore_best()
        acc = float(np.mean(model.predict_classes(test.windows, 32) == test.theta_t))
        assert acc == pytest.approx(result.report.best_accuracy)

    def test_fine_stage_trains_on_compensated_windows(self):
        train, test = self._split(_tiny_dataset(seed=12, samples=96))
        hyper = TrainHyper(lr=3e-3, batch_size=32, epochs=3, seed=0)
        coarse = train_coarse(train, test, hyper).restore_best()
        result = train_fine(coarse, train, test, hyper)
        assert result.model.head == "fine"
        assert result.model.classes == train.M
        assert len(result.report.epochs) == 3

    def test_one_stage_head_size(self):
        train, test = self._split(_tiny_dataset(seed=13, samples=64))
        hyper = TrainHyper(lr=1e-3, batch_size=32, epochs=1, seed=0)
        result = train_one_stage(train, test, hyper)
        assert result.model.classes == train.M * train.N
        assert result.report.head == "onestage"

    def test_saved_files_carry_the_metadata_contract(self, tmp_path):
        # every meta.* key of both files, each the float32 of its source;
        # <path>.final holds the weights training ended with, <path> the best,
        # and <path>.train.jsonl the per-epoch report
        from otfs_sync.nn.io import read_metadata, read_into, read_table
        from otfs_sync.nn.model import HEAD_CODES

        train, test = self._split(_tiny_dataset(seed=14, samples=64))
        hyper = TrainHyper(lr=1e-3, batch_size=32, epochs=1, seed=5)
        result = train_coarse(train, test, hyper)
        final = {k: v.copy() for k, v in result.model.state_dict().items()}
        # with one epoch the best state is the final one; shift it so the two
        # files can be told apart
        result.best_state = {k: v + 1 for k, v in result.best_state.items()}
        best = {k: v.copy() for k, v in result.best_state.items()}
        path = tmp_path / "coarse.weights"
        save_training_result(result, str(path))
        assert (tmp_path / "coarse.weights.train.jsonl").read_text() == \
            result.report.to_json_lines()
        sources = {"format": 1.0, "M": 8, "N": 4, "head_code": HEAD_CODES["coarse"],
                   "lr": 1e-3, "batch_size": 32, "epochs": 1, "weight_decay": 0.01,
                   "seed": 5, "best_epoch": 0}
        for name, state in ((f"{path}.final", final), (str(path), best)):
            with open(name, "rb") as fh:
                table = read_table(fh, name)
                assert read_metadata(fh, name, table) == {
                    k: float(np.float32(v)) for k, v in sources.items()}
                assert sorted(k for k in table if not k.startswith("meta.")) == sorted(state)
                for k, want in state.items():
                    got = np.empty(table[k].shape, np.float32)
                    read_into(fh, name, table[k], got)
                    assert np.array_equal(got, want), (name, k)


class _FakeLibc:
    """Stands in for ``ctypes.CDLL(None)``; records every mallopt call."""

    def __init__(self, calls):
        def mallopt(param, value):
            calls.append((param, value))
            return 1
        self.mallopt = mallopt


class TestAllocatorPolicy:
    def test_sets_both_thresholds_and_is_idempotent(self, monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline.ctypes, "CDLL", lambda name: _FakeLibc(calls))
        pipeline._keep_heap_for_training()
        first = list(calls)
        pipeline._keep_heap_for_training()
        # M_MMAP_THRESHOLD (-3) to 32 MiB and M_TRIM_THRESHOLD (-1) to 64 MiB
        assert first == [(-3, 32 << 20), (-1, 64 << 20)]
        assert calls == first + first

    def test_does_nothing_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(pipeline.ctypes, "CDLL", lambda name: object())
        assert pipeline._keep_heap_for_training() is None

        def no_library(name):
            raise OSError("no C library")

        monkeypatch.setattr(pipeline.ctypes, "CDLL", no_library)
        assert pipeline._keep_heap_for_training() is None

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
    def test_warm_training_steps_do_not_fault(self):
        # a 32x8 toy coarse epoch at batch 64: without the policy glibc trims
        # the freed activation cache after every step and the next forward
        # faults it back in, 2.3k-4.4k minor faults per step; the bound is
        # 5 % of the upper figure
        import resource

        ds = generate_dataset(DatasetConfig(
            frame=toy_frame_config(), channels=(AWGN_PROFILE,), snr_grid_db=(20.0,),
            samples_per_channel=640, global_seed=21))
        train, test = ds.split(0.8)
        batch = 64
        steps = -(-len(train) // batch)
        faults = []
        def log(_):
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        train_coarse(train, test, TrainHyper(lr=5e-3, batch_size=batch, epochs=3, seed=2),
                     log=log)
        per_step = (faults[-1] - faults[0]) / (2 * steps)  # epochs 1 and 2; 0 is warm-up
        assert per_step < 0.05 * 4400, f"{per_step:.0f} minor faults per warm step"
