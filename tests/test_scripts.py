"""Smoke test of ``scripts/run_toy_experiment.py`` at a few seconds' scale."""

import subprocess
import sys
from pathlib import Path

from otfs_sync.nn.model import load_model

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_toy_experiment.py"


def test_toy_experiment_writes_its_artifacts(tmp_path):
    outdir = tmp_path / "toy"
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--samples", "40", "--epochs", "1",
         "--skip-onestage", "--outdir", str(outdir)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for name in ("toy.ds", "config.json", "coarse.weights", "coarse.weights.final",
                 "fine.weights", "fine.weights.final", "coarse.train.jsonl",
                 "fine.train.jsonl", "metrics.csv", "complexity.csv"):
        assert (outdir / name).is_file(), name
    assert not (outdir / "onestage.weights").exists()
    for name in ("coarse.weights", "coarse.weights.final"):
        model, meta = load_model(str(outdir / name))
        assert model.head == "coarse"
        assert meta["best_epoch"] == 0.0
