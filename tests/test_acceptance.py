"""Release acceptance suite: one test per shipping criterion.

``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion; add ``-s`` to see the measured values behind each verdict.

The checks, in order:

 1. default-scale (M=256, N=64) coarse+fine parameter budget (10.50M +- 0.01M)
 2. operation accounting: exact correlator FLOPs, two-stage forward FLOPs
    inside [175M, 215M], itemized per-layer breakdown
 3. modulate -> demodulate exactness and transform unitarity (100 grids)
 4. correlation surfaces against brute-force oracles (100 random inputs)
 5. finite-difference gradient suite over every layer (>=20 shapes each)
 6. toy-scale two-stage training: accuracy >= 0.90, wrap RMSE <= 2 samples
 7. one-stage head within 5 accuracy points of two-stage at strictly more
    parameters
 8. default-scale preamble cross-correlation accuracy >= 0.99 at 20 dB
 9. byte-identical dataset regeneration and byte-identical retraining
10. two-stage accuracy non-decreasing in SNR over {-10, 0, 10, 20} dB

Criteria 6, 7, 9 and 10 share module-scoped fixtures (a 5000-capture toy
dataset and the trained coarse/fine/one-stage models), so the file is meant
to run as a whole; total runtime is dominated by the toy trainings (two
two-stage runs and one one-stage run): the file took 253-287 s on a 2-vCPU
Xeon host.  Those four tests carry the ``slow`` marker, so
``pytest -m "not slow"`` runs everything else in seconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from otfs_sync.channel import AWGN_PROFILE
from otfs_sync.classic import (
    autocorr2d,
    autocorr2d_macs,
    cross_correlate_sync,
    cross_correlation_surface,
    crosscorr_macs,
)
from otfs_sync.dataset import (
    DatasetConfig,
    Dataset,
    PreambleConfig,
    generate_dataset,
    per_record_rng,
    synthesize_capture,
    write_dataset,
)
from otfs_sync.frames import (
    FrameConfig,
    build_dd_frame,
    dd_to_dt,
    deserialize_time,
    dt_to_dd,
    serialize_time,
    toy_frame_config,
    zadoff_chu,
)
from otfs_sync.metrics import SweepModels, accuracy, condition_rows, estimate_all, rmse
from otfs_sync.nn import check_layer
from otfs_sync.nn.layers import BatchNorm1d, Conv1d, Flatten, Linear, MaxPool1d, ReLU
from otfs_sync.nn.model import (
    build_sync_model,
    count_flops,
    count_params,
    flops_report,
    param_count,
    two_stage_flops,
)
from otfs_sync.pipeline import (
    TrainHyper,
    infer_two_stage,
    save_training_result,
    train_coarse,
    train_fine,
    train_one_stage,
)

from test_classic import autocorr2d_oracle, crosscorr_oracle
from test_nn_layers import _grad_errors_eps_ladder, _random_resblock

DEFAULT_M, DEFAULT_N = 256, 64

# Toy experiment protocol shared by criteria 6, 7, 9 and 10: AWGN captures at
# {10, 20} dB, 4000 train / 1000 test, 30 epochs, batch 64.  The learning
# rate is raised from the full-scale default to 5e-3 so the small models
# converge inside the 30-epoch budget (coarse plateaus at 0.999 by epoch 13).
TOY_SEED = 2024
TOY_SAMPLES = 5000
COARSE_HYPER = TrainHyper(lr=5e-3, batch_size=64, epochs=30, seed=7)
FINE_HYPER = TrainHyper(lr=5e-3, batch_size=64, epochs=30, seed=11)
ONESTAGE_HYPER = TrainHyper(lr=5e-3, batch_size=64, epochs=30, seed=13)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def toy_config() -> DatasetConfig:
    return DatasetConfig(
        frame=toy_frame_config(),
        channels=(AWGN_PROFILE,),
        snr_grid_db=(10.0, 20.0),
        samples_per_channel=TOY_SAMPLES,
        global_seed=TOY_SEED,
    )


@pytest.fixture(scope="module")
def toy_splits() -> tuple[Dataset, Dataset]:
    train, test = generate_dataset(toy_config()).split()
    assert len(train) == 4000 and len(test) == 1000
    return train, test


@dataclass
class TwoStageRun:
    coarse: object
    fine: object
    weight_files: dict[str, bytes]
    theta_hat: np.ndarray
    accuracy: float
    rmse: float
    seconds: float


def _run_two_stage(train: Dataset, test: Dataset, tmp: Path, tag: str) -> TwoStageRun:
    """The full two-stage protocol: train the coarse stage, keep its best
    epoch, train the fine stage against the frozen best coarse, keep its best
    epoch, then score the combined estimator on the test split.  Each stage
    is saved as ``otfs-sync train`` saves it (:func:`save_training_result`:
    final weights, then best), and the bytes of both files are kept for the
    determinism check."""
    t0 = time.perf_counter()
    rc = train_coarse(train, test, COARSE_HYPER)
    coarse = save_training_result(rc, str(tmp / f"{tag}-coarse.weights"))
    rf = train_fine(coarse, train, test, FINE_HYPER)
    fine = save_training_result(rf, str(tmp / f"{tag}-fine.weights"))
    blobs = {f"{stage}.{kind}": (tmp / f"{tag}-{stage}.weights{suffix}").read_bytes()
             for stage in ("coarse", "fine")
             for kind, suffix in (("final", ".final"), ("best", ""))}
    theta_hat = infer_two_stage(test.windows, coarse, fine, 256)
    seconds = time.perf_counter() - t0
    MN = test.M * test.N
    return TwoStageRun(
        coarse=coarse,
        fine=fine,
        weight_files=blobs,
        theta_hat=theta_hat,
        accuracy=accuracy(theta_hat, test.theta_wrapped),
        rmse=rmse(theta_hat, test.theta_wrapped, MN),
        seconds=seconds,
    )


@pytest.fixture(scope="module")
def two_stage(toy_splits, tmp_path_factory) -> TwoStageRun:
    train, test = toy_splits
    tmp = tmp_path_factory.mktemp("twostage")
    return _run_two_stage(train, test, tmp, "first")


@pytest.fixture(scope="module")
def one_stage(toy_splits):
    train, test = toy_splits
    t0 = time.perf_counter()
    ro = train_one_stage(train, test, ONESTAGE_HYPER)
    model = ro.restore_best()
    theta_hat = model.predict_classes(test.windows, 256)
    return model, accuracy(theta_hat, test.theta_wrapped), time.perf_counter() - t0


def test_01_parameter_budget_default_scale_pair():
    """Coarse+fine pair at M=256, N=64 counts 10.50M +- 0.01M parameters."""
    pair = 0
    for head in ("coarse", "fine"):
        model = build_sync_model(DEFAULT_M, DEFAULT_N, head)
        counted = count_params(model)
        assert counted == param_count(DEFAULT_M, DEFAULT_N, head)
        pair += counted
    print(f"[check 01] pair parameters = {pair:,} (target 10,500,000 +- 10,000)")
    assert abs(pair - 10_500_000) <= 10_000, f"pair parameter count {pair:,}"


def test_02_operation_accounting():
    """Correlator FLOPs are exact; the two-stage forward pass lands inside
    [175M, 215M] FLOPs with a per-layer breakdown that sums to the total."""
    MN = DEFAULT_M * DEFAULT_N
    cross = 8 * crosscorr_macs(MN, 256)
    auto = 8 * autocorr2d_macs(DEFAULT_M, DEFAULT_N)
    assert cross == 33_554_432, f"cross-correlation FLOPs {cross:,}"
    assert auto == 8_257_536, f"2D autocorrelation FLOPs {auto:,}"

    total = two_stage_flops(DEFAULT_M, DEFAULT_N)
    itemized = 0
    for head in ("coarse", "fine"):
        report = flops_report(DEFAULT_M, DEFAULT_N, head)
        assert report.total == count_flops(DEFAULT_M, DEFAULT_N, head)
        assert all(row.name for row in report.rows)
        itemized += sum(row.flops for row in report.rows)
        print(f"[check 02] {head} head breakdown:")
        for line in report.lines():
            print(f"    {line}")
    assert itemized == total
    print(f"[check 02] crosscorr={cross:,}  autocorr2d={auto:,}  "
          f"two-stage total={total:,} (window [175,000,000, 215,000,000])")
    assert 175_000_000 <= total <= 215_000_000, f"two-stage FLOPs {total:,}"


def test_03_signal_chain_exactness():
    """DD grid -> DT -> serial (+CP) -> DT -> DD round trips to <= 1e-9 and
    the Doppler-axis transform conserves energy, over 100 random grids."""
    t0 = time.perf_counter()
    worst_round, worst_energy = 0.0, 0.0
    geometries = [(2, 2), (4, 2), (8, 4), (32, 8), (256, 64)]
    for i in range(100):
        rng = _rng(300 + i)
        M, N = geometries[i % len(geometries)]
        frame = FrameConfig(M=M, N=N, L_CP=int(rng.integers(0, M)))
        use_pilot = bool(rng.integers(2)) and M >= 8 and N >= 4
        cfg = DatasetConfig(frame=frame, channels=(AWGN_PROFILE,),
                            snr_grid_db=(0.0,), samples_per_channel=1)
        grid = build_dd_frame(frame, cfg.pilot if use_pilot else None, rng)

        restored = dt_to_dd(deserialize_time(serialize_time(dd_to_dt(grid), frame), frame))
        scale = np.max(np.abs(grid))
        worst_round = max(worst_round, float(np.max(np.abs(restored - grid))) / scale)

        e_dd = float(np.sum(np.abs(grid) ** 2))
        e_dt = float(np.sum(np.abs(dd_to_dt(grid)) ** 2))
        worst_energy = max(worst_energy, abs(e_dt - e_dd) / e_dd)
    elapsed = time.perf_counter() - t0
    print(f"[check 03] round-trip rel err {worst_round:.2e} (<= 1e-9), "
          f"energy drift {worst_energy:.2e}, {elapsed:.2f}s (< 1s)")
    assert worst_round <= 1e-9
    assert worst_energy <= 1e-12
    assert elapsed < 1.0


def test_04_correlator_oracle_equivalence():
    """Vectorized correlation surfaces match direct-sum oracles on 100 random
    inputs.  Vector units may round individual complex products one ulp apart
    from the scalar path, so "exact" is pinned at 1e-12 relative error
    against surfaces whose values are O(N); bitwise equality of every
    intermediate is not a portable contract."""
    t0 = time.perf_counter()
    worst_auto, worst_cross = 0.0, 0.0
    for i in range(100):
        rng = _rng(400 + i)
        M, N = [(8, 4), (16, 8), (32, 8)][i % 3]
        w = rng.standard_normal(M * N) + 1j * rng.standard_normal(M * N)

        surf = autocorr2d(w, M, N)
        ref = autocorr2d_oracle(w, M, N)
        worst_auto = max(
            worst_auto,
            float(np.max(np.abs(surf - ref))) / float(np.max(np.abs(ref))),
        )

        pre = zadoff_chu(M * N // 2 - 1 if i % 2 else M * N // 2, 1)
        c = cross_correlation_surface(w, pre)
        cref = crosscorr_oracle(w, pre)
        worst_cross = max(
            worst_cross, float(np.max(np.abs(c - cref))) / float(np.max(cref))
        )
    elapsed = time.perf_counter() - t0
    print(f"[check 04] autocorr2d rel err {worst_auto:.2e}, crosscorr rel err "
          f"{worst_cross:.2e} (<= 1e-12), {elapsed:.1f}s (< 10s)")
    assert worst_auto <= 1e-12
    assert worst_cross <= 1e-12
    assert elapsed < 10.0


def test_05_gradient_suite():
    """Every layer and the full residual block pass float64 central-difference
    checks at 1e-4 relative error on >= 20 random shapes each."""
    t0 = time.perf_counter()
    worst: dict[str, float] = {}

    def tally(kind: str, errs: dict[str, float], skip: tuple[str, ...] = ()) -> None:
        for name, err in errs.items():
            if any(s in name and name.endswith("bias") for s in skip):
                continue
            worst[kind] = max(worst.get(kind, 0.0), err)
            assert err <= 1e-4, f"{kind} {name}: rel err {err:.3e}"

    for i in range(20):
        rng = _rng(500 + i)
        n = int(rng.integers(1, 4))
        cin = int(rng.integers(1, 4))
        cout = int(rng.integers(1, 5))
        k = 2 * int(rng.integers(0, 3)) + 1
        L = int(rng.integers(max(k, 4), 14))

        x = rng.standard_normal((n, cin, L))
        tally("Conv1d", check_layer(Conv1d(cin, cout, k, rng, dtype=np.float64), x, rng))

        bn = BatchNorm1d(cin, dtype=np.float64)
        bn.gamma.value += 0.2 * rng.standard_normal(cin)
        bn.beta.value += 0.2 * rng.standard_normal(cin)
        x = rng.standard_normal((max(n, 2), cin, L))
        tally("BatchNorm1d", check_layer(bn, x, rng))
        bn.set_training(False)
        tally("BatchNorm1d.eval", check_layer(bn, x.copy(), rng))

        x = rng.standard_normal((n, cin, L))
        x[np.abs(x) < 1e-3] += 0.1  # keep samples off the kink
        tally("ReLU", check_layer(ReLU(), x, rng))

        x = rng.standard_normal((n, cin, 2 * L))
        tally("MaxPool1d", check_layer(MaxPool1d(2, 2), x, rng))

        x = rng.standard_normal((n, cin, L))
        tally("Flatten", check_layer(Flatten(), x, rng))
        tally("Linear", check_layer(
            Linear(cin * L, int(rng.integers(1, 6)), rng, dtype=np.float64),
            x.reshape(n, -1), rng))

        # full block, both shortcut variants; in train mode a conv bias
        # feeding batch norm has an exactly-null gradient (mean subtraction
        # absorbs it), so conv biases are asserted in eval mode instead
        block, xb = _random_resblock(540 + i, projection=bool(i % 2))
        tally("ResBlock.train", _grad_errors_eps_ladder(block, xb, 540 + i),
              skip=("conv",))
        block.set_training(False)
        tally("ResBlock.eval", _grad_errors_eps_ladder(block, xb.copy(), 560 + i))

    elapsed = time.perf_counter() - t0
    budget = ", ".join(f"{k} {v:.1e}" for k, v in sorted(worst.items()))
    print(f"[check 05] worst rel err per layer: {budget}; {elapsed:.0f}s (< 120s)")
    assert elapsed < 120.0


@pytest.mark.slow
def test_06_toy_two_stage_learning(two_stage):
    """Two-stage training on the toy AWGN dataset reaches >= 0.90 exact-match
    accuracy and <= 2 samples wrap RMSE on the held-out split."""
    print(f"[check 06] accuracy={two_stage.accuracy:.4f} (>= 0.90)  "
          f"rmse={two_stage.rmse:.3f} (<= 2.0)  "
          f"train+eval {two_stage.seconds:.0f}s (<= 600s)")
    assert two_stage.accuracy >= 0.90
    assert two_stage.rmse <= 2.0
    assert two_stage.seconds <= 600.0


@pytest.mark.slow
def test_07_one_stage_comparison(two_stage, one_stage, toy_splits):
    """The single-stage head matches two-stage accuracy within 5 points while
    spending strictly more parameters."""
    model, acc_one, seconds = one_stage
    train, _ = toy_splits
    M, N = train.M, train.N
    pair = param_count(M, N, "coarse") + param_count(M, N, "fine")
    single = param_count(M, N, "onestage")
    assert count_params(model) == single
    gap = acc_one - two_stage.accuracy
    total_seconds = two_stage.seconds + seconds
    print(f"[check 07] one-stage acc={acc_one:.4f} vs two-stage "
          f"{two_stage.accuracy:.4f} (gap {gap:+.4f}, |gap| <= 0.05); params "
          f"{pair:,} < {single:,}; total {total_seconds:.0f}s (<= 900s)")
    assert abs(gap) <= 0.05
    assert pair < single
    assert total_seconds <= 900.0


def test_08_default_scale_crosscorr_accuracy():
    """Cyclic matched filtering of the 256-sample preamble recovers the exact
    offset in >= 99% of 500 AWGN captures at 20 dB and default scale.  Offsets
    are drawn from the range where the preamble lies inside the window,
    [-MN/2, -(L_seq + L_CP)]; outside it the window holds no preamble energy
    and no matched filter could find it."""
    t0 = time.perf_counter()
    frame = FrameConfig()  # M=256, N=64, L_CP=64
    cfg = DatasetConfig(
        frame=frame,
        channels=(AWGN_PROFILE,),
        snr_grid_db=(20.0,),
        samples_per_channel=1,
        preamble=PreambleConfig(length=256, root=25),
        global_seed=31,
    )
    offset = -(cfg.preamble.length + frame.L_CP)
    preamble = zadoff_chu(cfg.preamble.length, cfg.preamble.root)
    theta_rng = _rng(100)
    hits = 0
    trials = 500
    for i in range(trials):
        theta = int(theta_rng.integers(-frame.grid_size // 2, offset + 1))
        rec = synthesize_capture(cfg, AWGN_PROFILE, 1, 20.0, theta,
                                 per_record_rng(cfg.global_seed, 1, i))
        win = rec.window.astype(np.float64)
        est = cross_correlate_sync(win[0] + 1j * win[1], preamble, offset)
        hits += est == rec.theta_wrapped
    acc = hits / trials
    elapsed = time.perf_counter() - t0
    print(f"[check 08] exact-match accuracy {acc:.4f} over {trials} trials "
          f"(>= 0.99), {elapsed:.0f}s (< 60s)")
    assert acc >= 0.99
    assert elapsed < 60.0


@pytest.mark.slow
def test_09_determinism(two_stage, toy_splits, tmp_path):
    """The same config regenerates a byte-identical dataset file and the same
    seeds retrain byte-identical weight files (final and best, both stages)."""
    a, b = tmp_path / "a.ds", tmp_path / "b.ds"
    write_dataset(toy_config(), str(a))
    write_dataset(toy_config(), str(b))
    same_data = a.read_bytes() == b.read_bytes()
    print(f"[check 09] dataset files byte-identical: {same_data} "
          f"({a.stat().st_size:,} bytes)")
    assert same_data

    train, test = toy_splits
    t0 = time.perf_counter()
    rerun = _run_two_stage(train, test, tmp_path, "again")
    elapsed = time.perf_counter() - t0
    for tag, blob in two_stage.weight_files.items():
        identical = rerun.weight_files[tag] == blob
        print(f"[check 09] weights {tag}: byte-identical={identical} "
              f"({len(blob):,} bytes)")
        assert identical, f"retrained {tag} weights differ"
    print(f"[check 09] retrain took {elapsed:.0f}s (<= 600s)")
    assert elapsed <= 600.0


@pytest.mark.slow
def test_10_snr_monotonicity(two_stage):
    """Two-stage accuracy is non-decreasing in SNR over {-10, 0, 10, 20} dB
    (0.02 Monte-Carlo slack, ~500 fresh captures per point)."""
    t0 = time.perf_counter()
    eval_cfg = DatasetConfig(
        frame=toy_frame_config(),
        channels=(AWGN_PROFILE,),
        snr_grid_db=(-10.0, 0.0, 10.0, 20.0),
        samples_per_channel=2000,
        global_seed=777,
    )
    eval_ds = generate_dataset(eval_cfg)
    models = SweepModels(coarse=two_stage.coarse, fine=two_stage.fine)
    rows = condition_rows(eval_ds, "resnet2stage", estimate_all(eval_ds, "resnet2stage", models))
    elapsed = time.perf_counter() - t0
    assert [r.snr_db for r in rows] == [-10.0, 0.0, 10.0, 20.0]
    accs = [r.accuracy for r in rows]
    counts = [r.count for r in rows]
    pairs = ", ".join(f"{r.snr_db:+.0f}dB:{r.accuracy:.3f}(n={r.count})" for r in rows)
    print(f"[check 10] accuracy by SNR: {pairs}; {elapsed:.0f}s (<= 300s)")
    assert min(counts) >= 400
    for lo, hi in zip(accs, accs[1:]):
        assert hi >= lo - 0.02, f"accuracy dropped with SNR: {accs}"
    assert elapsed <= 300.0
