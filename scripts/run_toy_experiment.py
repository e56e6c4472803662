#!/usr/bin/env python3
"""Desk-scale end-to-end experiment on the 32x8 toy grid.

Generates the capture dataset that --config describes (the JSON
`otfs-sync gen` takes; by default toy_config.json beside this script, 5000
AWGN captures at 10 and 20 dB), trains the coarse, fine, and one-stage
classifiers, then reports test-split accuracy / wrap RMSE for the trainable
estimators next to the pilot-autocorrelation baseline, a per-SNR breakdown,
and the analytic cost table.  Everything lands in --outdir:

    toy.ds                      capture dataset (binary, regenerable)
    config.json                 a copy of the --config file
    coarse.weights[.final]      best / final-epoch weights per stage
    fine.weights[.final]
    onestage.weights[.final]
    *.weights.train.jsonl       per-epoch training reports
    metrics.csv                 per method: its per-channel/per-SNR rows, then
                                its overall row (channel_id -1)
    complexity.csv              FLOPs / params / runtime per method, for the
                                preamble and pilot row of --config (the
                                default preamble if it names none), as
                                `otfs-sync complexity --config` counts them

The defaults reproduce the shipped acceptance numbers (~0.999 two-stage
accuracy, RMSE ~1 sample) in about three minutes (181 s on a 2-vCPU Xeon host).
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from otfs_sync.config import ConfigError, complexity_settings, load_dataset_config
from otfs_sync.dataset import read_dataset, write_dataset
from otfs_sync.metrics import (
    SweepModels,
    complexity_csv,
    complexity_report,
    complexity_table,
    rows_to_csv,
    sweep,
)
from otfs_sync.pipeline import (TrainHyper, save_training_result, train_coarse, train_fine,
                                train_one_stage)


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="runs/toy", help="artifact directory")
    ap.add_argument("--config", default=str(Path(__file__).resolve().parent / "toy_config.json"),
                    help="dataset config JSON, as `otfs-sync gen` takes")
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--batch", type=int, default=64)
    ap.add_argument("--lr", type=float, default=5e-3)
    ap.add_argument("--train-seeds", type=int, nargs=3, default=[7, 11, 13],
                    metavar=("COARSE", "FINE", "ONESTAGE"))
    ap.add_argument("--skip-onestage", action="store_true",
                    help="train only the two-stage pair")
    args = ap.parse_args()
    try:
        args.cfg = load_dataset_config(args.config)
        args.cost_settings = complexity_settings(args.cfg)
    except ConfigError as exc:
        ap.error(str(exc))
    return args


def main() -> int:
    args = parse_args()
    cfg = args.cfg
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    copy = outdir / "config.json"
    if not copy.exists() or not copy.samefile(args.config):
        shutil.copyfile(args.config, copy)

    ds_path = outdir / "toy.ds"
    t0 = time.perf_counter()
    n = write_dataset(cfg, str(ds_path))
    print(f"dataset: {n} captures -> {ds_path} ({time.perf_counter() - t0:.1f}s)")
    train_ds, test_ds = read_dataset(str(ds_path)).split()
    print(f"split: {len(train_ds)} train / {len(test_ds)} test")

    log = lambda msg: print(f"  {msg}", flush=True)
    seeds = dict(zip(("coarse", "fine", "onestage"), args.train_seeds))

    def run_stage(stage: str, trainer) -> object:
        hyper = TrainHyper(lr=args.lr, batch_size=args.batch,
                           epochs=args.epochs, seed=seeds[stage])
        t = time.perf_counter()
        result = trainer(hyper)
        best = save_training_result(result, str(outdir / f"{stage}.weights"))
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

    rows = sweep(test_ds, methods, models)
    (outdir / "metrics.csv").write_text(rows_to_csv(rows))
    print("\noverall test metrics:")
    for row in rows:
        if row.channel_id == -1:
            print(f"  {row.method:<14} accuracy {row.accuracy:.4f}  rmse {row.rmse:.3f}")

    preamble, pilot_row = args.cost_settings
    cost = complexity_report(test_ds.M, test_ds.N, preamble=preamble, pilot_row=pilot_row,
                             models=models, repeats=25)
    (outdir / "complexity.csv").write_text(complexity_csv(cost))
    print("\n" + complexity_table(cost, test_ds.M, test_ds.N), end="")

    print(f"\nartifacts in {outdir}/ (metrics.csv has the per-SNR table)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
