"""Self-tests of the benchmark itself (not of the program it measures).

    python3 -m pytest -q bench/test_bench.py

They run each workload at the tiny ``TINY`` sizes, traced and untraced, and
exercise the output checks on a deliberately corrupted dataset file.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from otfs_sync import channel, dataset  # noqa: E402
from otfs_sync.channel import AWGN_PROFILE, RAYLEIGH_PROFILE  # noqa: E402
from otfs_sync.frames import toy_frame_config  # noqa: E402
from otfs_sync.nn import layers  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_the_code():
    spec = declared()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == workloads.END_TO_END
    assert layer == workloads.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for name, unit in {**e2e, **layer}.items():
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit), unit


def tiny_run(name: str, trace: bool, tmp_path: Path) -> tuple[dict, dict]:
    return workloads.execute(name, 5, 0.1, trace, workloads.TINY, str(tmp_path), str(ROOT / "src"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_traced_and_untraced_runs_pass_the_same_checks(name, tmp_path):
    plain_report, plain = tiny_run(name, False, tmp_path)
    traced_report, traced = tiny_run(name, True, tmp_path)

    for report in (plain_report, traced_report):
        assert report["attempted"] > 0
        assert report["failed"] == 0, report["errors"]
    # the traced run has an untraced and a traced half, so counts differ
    assert set(plain_report["checks"]) == set(traced_report["checks"])
    assert plain_report["checks"]

    # every declared metric is printed with its unit and a finite value
    assert {k: v["unit"] for k, v in plain.items()} == workloads.END_TO_END
    assert {k: v["unit"] for k, v in traced.items()} == workloads.PER_LAYER
    for metric in (*plain.values(), *traced.values()):
        assert math.isfinite(metric["value"])
    for key in workloads.END_TO_END:
        assert plain[key]["value"] > 0, key
    assert plain_report["end_to_end"]["failed_op_ratio"]["value"] == 0.0
    assert plain_report["host"]["reference_ticks"] > 0
    assert set(plain_report["end_to_end_raw"]) == set(workloads.END_TO_END)

    # self times partition the traced time, so they cannot exceed the wall
    assert traced["trace.self_sum_s"]["value"] <= traced["trace.unit_wall_s"]["value"]
    # the tracer put every original back
    assert dataset.apply_fading is channel.apply_fading
    assert "wrapper" not in layers.Conv1d.forward.__code__.co_name


def test_host_correction_uses_the_speed_around_each_sample():
    run = workloads.Run(0, workloads.TINY, ".")
    # one reference timing a second: twice nominal speed before t=10 s
    run.clock.at = [float(t) for t in range(20)]
    run.clock.times = [workloads.REF_NOMINAL_S / (2.0 if t < 10 else 1.0) for t in range(20)]
    run.add("infer_one_ms", 3.0, 2.0, 2.1)
    run.add("read_mb_per_s", 400.0, 2.0, 2.1)
    run.add("read_mb_per_s", 300.0, 15.0, 15.1)
    assert workloads.corrected(run, "infer_one_ms").tolist() == [6.0]
    assert workloads.corrected(run, "read_mb_per_s").tolist() == [200.0, 300.0]
    assert run.clock.speed() == pytest.approx(4 / 3)  # median over the run
    e2e = workloads.end_to_end(run, host_corrected=True)
    assert e2e["infer_one_ms_p50"] == 6.0
    assert e2e["read_mb_per_s"] == 350.0  # memory-bound reads stay raw
    run.add("import_s", 0.3, 2.0, 2.3)
    run.add("setup_body_s", 1.0, 2.3, 3.3)
    e2e = workloads.end_to_end(run, host_corrected=True)
    assert e2e["setup_s"] == pytest.approx(0.3 + 2.0)  # imports run in child processes


def test_host_clock_ticks_at_most_every_tick_interval():
    clock = workloads.HostClock()
    assert clock.speed() == 1.0
    clock.tick()
    clock.tick()  # within TICK_EVERY_S of the last one: skipped
    assert len(clock.times) == len(clock.at) == 1 and clock.times[0] > 0
    clock.tick(force=True)
    assert len(clock.times) == 2 and clock.at[0] < clock.at[1]


def small_config() -> dataset.DatasetConfig:
    return dataset.DatasetConfig(
        frame=toy_frame_config(), channels=(AWGN_PROFILE, RAYLEIGH_PROFILE),
        snr_grid_db=(0.0, 20.0), samples_per_channel=3, global_seed=9,
        preamble=dataset.PreambleConfig(length=32, root=25))


def test_corrupted_record_counts_as_failed_op(tmp_path):
    cfg = small_config()
    path = str(tmp_path / "small.ds")
    n = dataset.write_dataset(cfg, path)
    MN = cfg.frame.grid_size
    run = workloads.Run(0, workloads.TINY, str(tmp_path))
    run.check("size", workloads.check_file_size, path, n, MN)
    for k in range(n):
        run.check("record", workloads.check_record, path, cfg, k)
    assert (run.attempted, run.failed) == (n + 1, 0)

    k = 4
    offset = workloads.HEADER_BYTES + k * workloads.record_dtype(MN).itemsize + 100
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0x40]))
    for i in range(n):
        try:
            run.check("record", workloads.check_record, path, cfg, i)
        except workloads.OpFailed:
            assert i == k
    assert run.failed == 1
    assert "record 4" in run.errors[0]


def test_truncated_file_fails_the_size_check(tmp_path):
    cfg = small_config()
    path = str(tmp_path / "small.ds")
    n = dataset.write_dataset(cfg, path)
    with open(path, "r+b") as fh:
        fh.truncate(workloads.expected_file_bytes(n, cfg.frame.grid_size) - 1)
    run = workloads.Run(0, workloads.TINY, str(tmp_path))
    with pytest.raises(workloads.OpFailed):
        run.check("size", workloads.check_file_size, path, n, cfg.frame.grid_size)
    assert run.failed == 1


def test_autocorr2d_check_accepts_the_program_and_catches_a_wrong_surface(monkeypatch):
    rng = np.random.default_rng(3)
    M, N = 16, 8
    w = rng.standard_normal(M * N) + 1j * rng.standard_normal(M * N)
    assert workloads.check_autocorr2d(w, M, N) is None

    right = workloads.classic.autocorr2d
    monkeypatch.setattr(workloads.classic, "autocorr2d",
                        lambda *a: right(*a) * (1 + 1e-9))
    assert "relative" in workloads.check_autocorr2d(w, M, N)


def test_conv_macs_counter_matches_flops_report():
    from otfs_sync.nn.model import build_sync_model, flops_report
    from spans import Tracer

    M, N = 32, 8
    net = build_sync_model(M, N, "coarse", seed=0)
    x = np.zeros((3, 2, M * N), dtype=np.float32)
    with Tracer() as tracer:
        net.predict_classes(x)
    macs = tracer.take()["counts"]["nn.Conv1d.macs"]
    report = flops_report(M, N, "coarse")
    conv = sum(r.macs for r in report.rows if ".conv" in r.name or ".shortcut.conv" in r.name)
    assert macs == 3 * conv


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "test_*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "toy-train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
