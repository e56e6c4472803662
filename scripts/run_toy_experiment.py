#!/usr/bin/env python3
"""Desk-scale end-to-end experiment on the 32x8 toy grid.

Generates an AWGN capture dataset, trains the coarse, fine, and one-stage
classifiers, then reports test-split accuracy / wrap RMSE for the trainable
estimators next to the pilot-autocorrelation baseline, a per-SNR breakdown,
and the analytic cost table.  Everything lands in --outdir:

    toy.ds                      capture dataset (binary, regenerable)
    config.json                 dataset config usable with `otfs-sync gen`
    coarse.weights[.final]      best / final-epoch weights per stage
    fine.weights[.final]
    onestage.weights[.final]
    *.train.jsonl               per-epoch training reports
    metrics.csv                 per-channel/per-SNR rows for every method
    complexity.csv              FLOPs / params / runtime per method

The defaults reproduce the shipped acceptance numbers (~0.999 two-stage
accuracy, RMSE ~1 sample) in about three minutes (181 s on a 2-vCPU Xeon host).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from otfs_sync.dataset import PreambleConfig, read_dataset, write_dataset
from otfs_sync.config import parse_dataset_config
from otfs_sync.metrics import (
    SweepModels,
    complexity_csv,
    complexity_report,
    complexity_table,
    condition_rows,
    estimate_all,
    overall_row,
    rows_to_csv,
)
from otfs_sync.pipeline import (TrainHyper, save_training_result, train_coarse, train_fine,
                                train_one_stage)


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="runs/toy", help="artifact directory")
    ap.add_argument("--samples", type=int, default=5000,
                    help="captures to synthesize (80/20 train/test split)")
    ap.add_argument("--snr", type=float, nargs="+", default=[10.0, 20.0],
                    help="SNR grid in dB, drawn uniformly per capture")
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--batch", type=int, default=64)
    ap.add_argument("--lr", type=float, default=5e-3)
    ap.add_argument("--data-seed", type=int, default=2024)
    ap.add_argument("--train-seeds", type=int, nargs=3, default=[7, 11, 13],
                    metavar=("COARSE", "FINE", "ONESTAGE"))
    ap.add_argument("--skip-onestage", action="store_true",
                    help="train only the two-stage pair")
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    config_doc = {
        "frame": {"M": 32, "N": 8, "L_CP": 8},
        "channels": ["awgn"],
        "snr_grid_db": args.snr,
        "samples_per_channel": args.samples,
        "global_seed": args.data_seed,
    }
    (outdir / "config.json").write_text(json.dumps(config_doc, indent=2) + "\n")
    cfg = parse_dataset_config(config_doc)

    ds_path = outdir / "toy.ds"
    t0 = time.perf_counter()
    n = write_dataset(cfg, str(ds_path))
    print(f"dataset: {n} captures -> {ds_path} ({time.perf_counter() - t0:.1f}s)")
    train_ds, test_ds = read_dataset(str(ds_path)).split(cfg.train_fraction)
    print(f"split: {len(train_ds)} train / {len(test_ds)} test")

    log = lambda msg: print(f"  {msg}", flush=True)
    seeds = dict(zip(("coarse", "fine", "onestage"), args.train_seeds))

    def run_stage(stage: str, trainer) -> object:
        hyper = TrainHyper(lr=args.lr, batch_size=args.batch,
                           epochs=args.epochs, seed=seeds[stage])
        t = time.perf_counter()
        result = trainer(hyper)
        best = save_training_result(result, hyper, str(outdir / f"{stage}.weights"))
        (outdir / f"{stage}.train.jsonl").write_text(result.report.to_json_lines())
        print(f"{stage}: best acc {result.report.best_accuracy:.4f} "
              f"(epoch {result.report.best_epoch}) in {time.perf_counter() - t:.0f}s")
        return best

    coarse = run_stage("coarse", lambda h: train_coarse(train_ds, test_ds, h, log))
    fine = run_stage("fine", lambda h: train_fine(coarse, train_ds, test_ds, h, log))
    onestage = None
    methods = ["resnet2stage", "autocorr2d"]
    if not args.skip_onestage:
        onestage = run_stage(
            "onestage", lambda h: train_one_stage(train_ds, test_ds, h, log))
        methods.insert(1, "resnet1stage")
    models = SweepModels(coarse=coarse, fine=fine, onestage=onestage,
                         pilot_row=cfg.pilot.m_p)

    print("\noverall test metrics:")
    overall, per_condition = [], []
    for method in methods:
        theta_hat = estimate_all(test_ds, method, models)
        row = overall_row(test_ds, method, theta_hat)
        overall.append(row)
        per_condition.extend(condition_rows(test_ds, method, theta_hat))
        print(f"  {method:<14} accuracy {row.accuracy:.4f}  rmse {row.rmse:.3f}")
    (outdir / "metrics.csv").write_text(rows_to_csv(overall + per_condition))

    cost = complexity_report(test_ds.M, test_ds.N, preamble=PreambleConfig(64),
                             models=models, repeats=25)
    (outdir / "complexity.csv").write_text(complexity_csv(cost))
    print("\n" + complexity_table(cost, test_ds.M, test_ds.N), end="")

    print(f"\nartifacts in {outdir}/ (metrics.csv has the per-SNR table)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
