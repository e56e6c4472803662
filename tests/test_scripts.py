"""Smoke tests of the experiment scripts at a few seconds' scale."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from otfs_sync.nn.model import load_model

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SCRIPT = SCRIPTS / "run_toy_experiment.py"

# 40 toy AWGN captures: the default config's grid at a few seconds' scale
TINY_CONFIG = {"frame": {"M": 32, "N": 8, "L_CP": 8}, "channels": ["awgn"],
               "snr_grid_db": [10.0, 20.0], "samples_per_channel": 40, "global_seed": 2024}


def _run_toy(tmp_path, outdir):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY_CONFIG))
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--config", str(config), "--epochs", "1",
         "--skip-onestage", "--outdir", str(outdir)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return config


@pytest.mark.parametrize("script", sorted(p.name for p in SCRIPTS.glob("*.py")))
def test_script_parses_help(script):
    done = subprocess.run([sys.executable, str(SCRIPTS / script), "--help"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


def test_toy_experiment_writes_its_artifacts(tmp_path):
    outdir = tmp_path / "toy"
    config = _run_toy(tmp_path, outdir)
    assert (outdir / "config.json").read_bytes() == config.read_bytes()
    for name in ("toy.ds", "config.json", "coarse.weights", "coarse.weights.final",
                 "fine.weights", "fine.weights.final", "coarse.weights.train.jsonl",
                 "fine.weights.train.jsonl", "metrics.csv", "complexity.csv"):
        assert (outdir / name).is_file(), name
    assert not (outdir / "onestage.weights").exists()
    for name in ("coarse.weights", "coarse.weights.final"):
        model, meta = load_model(str(outdir / name))
        assert model.head == "coarse"
        assert meta["best_epoch"] == 0.0


def test_toy_experiment_metrics_are_reproducible(tmp_path):
    _run_toy(tmp_path, tmp_path / "a")
    _run_toy(tmp_path, tmp_path / "b")
    first = (tmp_path / "a" / "metrics.csv").read_bytes()
    assert first.startswith(b"method,") and first == (tmp_path / "b" / "metrics.csv").read_bytes()


def test_default_config_is_the_toy_experiment():
    from otfs_sync.config import load_dataset_config

    cfg = load_dataset_config(str(SCRIPTS / "toy_config.json"))
    assert (cfg.frame.M, cfg.frame.N, cfg.frame.L_CP) == (32, 8, 8)
    assert (cfg.record_count, cfg.global_seed, cfg.snr_grid_db) == (5000, 2024, (10.0, 20.0))


def test_crosscorr_snr_table():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "baseline_crosscorr_snr.py"), "--M", "32", "--N", "8",
         "--L-CP", "8", "--preamble-length", "32", "--snr", "20", "--trials", "5"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("M=32 N=8 L_CP=8 preamble=32 visible offsets [-128, -40]")
    snr, acc, rmse, seconds = (float(v) for v in lines[-1].split())
    assert snr == 20.0 and 0.0 <= acc <= 1.0 and rmse >= 0.0 and seconds >= 0.0


def test_crosscorr_snr_table_toy_pin():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "baseline_crosscorr_snr.py"), "--M", "32", "--N", "8",
         "--L-CP", "8", "--preamble-length", "32", "--snr", "-10", "-5", "--trials", "100"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    table = [line.split()[:3] for line in done.stdout.splitlines()[2:]]
    assert table == [["-10.0", "0.6300", "45.78"], ["-5.0", "0.9900", "8.80"]]
