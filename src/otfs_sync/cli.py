"""Command-line workbench: gen / train / eval / sweep / complexity / info.

Exit codes: 0 success, 2 configuration error, 3 data-format error,
4 runtime or training failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .config import ConfigError, load_dataset_config
from .dataset import DataFormatError, read_dataset, write_dataset
from .frames import zadoff_chu
from .metrics import (
    METHODS,
    SweepModels,
    complexity_csv,
    complexity_report,
    condition_rows,
    estimate_all,
    overall_row,
    rows_to_csv,
    sweep,
)
from .nn.io import WeightsFormatError, load_tensors, split_metadata
from .nn.model import load_model, save_model
from .pipeline import TrainHyper, model_metadata, train_coarse, train_fine, train_one_stage

_HEAD_NAMES = {0: "coarse", 1: "fine", 2: "onestage"}


def _cmd_gen(args: argparse.Namespace) -> int:
    cfg = load_dataset_config(args.config)
    if args.seed is not None:
        from dataclasses import replace

        cfg = replace(cfg, global_seed=args.seed)
    n = write_dataset(cfg, args.out)
    print(f"wrote {n} records to {args.out}")
    return 0


def _load_split(path: str, train_fraction: float):
    ds = read_dataset(path)
    return ds.split(train_fraction)


def _cmd_train(args: argparse.Namespace) -> int:
    train_ds, test_ds = _load_split(args.dataset, args.train_fraction)
    hyper = TrainHyper(
        lr=args.lr,
        batch_size=args.batch,
        epochs=args.epochs,
        weight_decay=args.wd,
        seed=args.seed,
    )
    log = lambda msg: print(msg, flush=True)
    if args.stage == "coarse":
        result = train_coarse(train_ds, test_ds, hyper, log)
    elif args.stage == "onestage":
        result = train_one_stage(train_ds, test_ds, hyper, log)
    else:
        if not args.coarse_weights:
            raise ConfigError("--stage fine requires --coarse-weights")
        coarse, meta = load_model(args.coarse_weights)
        if _HEAD_NAMES.get(int(meta["head_code"])) != "coarse":
            raise ConfigError(f"{args.coarse_weights} does not hold a coarse model")
        if (coarse.M, coarse.N) != (train_ds.M, train_ds.N):
            raise ConfigError(
                f"coarse model geometry {coarse.M}x{coarse.N} does not match "
                f"dataset {train_ds.M}x{train_ds.N}"
            )
        result = train_fine(coarse, train_ds, test_ds, hyper, log)

    meta = model_metadata(result.model, hyper)
    meta["best_epoch"] = float(result.report.best_epoch)
    final_model = result.model
    # best weights to the primary path, final-epoch weights alongside
    final_path = args.out_weights + ".final"
    save_model(final_path, final_model, meta)
    result.restore_best()
    save_model(args.out_weights, final_model, meta)
    report_path = args.report or args.out_weights + ".train.jsonl"
    with open(report_path, "w") as fh:
        fh.write(result.report.to_json_lines())
    print(
        f"best test accuracy {result.report.best_accuracy:.4f} "
        f"(epoch {result.report.best_epoch}); weights: {args.out_weights}, "
        f"final: {final_path}, report: {report_path}"
    )
    return 0


def _load_models_for(args: argparse.Namespace, ds) -> SweepModels:
    coarse = fine = onestage = None
    if args.weights:
        model, meta = load_model(args.weights)
        head = _HEAD_NAMES.get(int(meta["head_code"]))
        if head == "coarse":
            coarse = model
        elif head == "onestage":
            onestage = model
        else:
            raise ConfigError(
                f"--weights holds a {head} model; pass the fine stage via --fine-weights"
            )
    if args.fine_weights:
        model, meta = load_model(args.fine_weights)
        if _HEAD_NAMES.get(int(meta["head_code"])) != "fine":
            raise ConfigError(f"{args.fine_weights} does not hold a fine model")
        fine = model
    if args.onestage_weights:
        model, meta = load_model(args.onestage_weights)
        if _HEAD_NAMES.get(int(meta["head_code"])) != "onestage":
            raise ConfigError(f"{args.onestage_weights} does not hold a one-stage model")
        onestage = model
    for model in (coarse, fine, onestage):
        if model is not None and (model.M, model.N) != (ds.M, ds.N):
            raise ConfigError(
                f"model geometry {model.M}x{model.N} does not match dataset "
                f"{ds.M}x{ds.N}"
            )
    preamble = zadoff_chu(args.preamble_length, args.preamble_root)
    pilot_row = args.pilot_row if args.pilot_row is not None else ds.M // 2
    return SweepModels(
        coarse=coarse,
        fine=fine,
        onestage=onestage,
        preamble=preamble,
        preamble_offset=-(args.preamble_length + ds.L_CP),
        pilot_row=pilot_row,
    )


def _cmd_eval(args: argparse.Namespace) -> int:
    ds = read_dataset(args.dataset)
    _, test_ds = ds.split(args.train_fraction)
    models = _load_models_for(args, test_ds)
    theta_hat = estimate_all(test_ds, args.method, models, args.batch)
    rows = condition_rows(test_ds, args.method, theta_hat)
    rows.append(overall_row(test_ds, args.method, theta_hat))
    csv_text = rows_to_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(csv_text, end="")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    ds = read_dataset(args.dataset)
    _, test_ds = ds.split(args.train_fraction)
    models = _load_models_for(args, test_ds)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {METHODS}")
    snr_values = None
    if args.snr_min is not None or args.snr_max is not None:
        lo = args.snr_min if args.snr_min is not None else float(np.min(test_ds.snr_db))
        hi = args.snr_max if args.snr_max is not None else float(np.max(test_ds.snr_db))
        step = args.snr_step
        snr_values = list(np.arange(lo, hi + step / 2, step))
    rows = sweep(test_ds, methods, models, snr_values=snr_values, batch_size=args.batch)
    csv_text = rows_to_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(csv_text, end="")
    return 0


def _load_one(path: str | None, expected_head: str, M: int, N: int):
    if not path:
        return None
    model, meta = load_model(path)
    head = _HEAD_NAMES.get(int(meta["head_code"]))
    if head != expected_head:
        raise ConfigError(f"{path} holds a {head} model, expected {expected_head}")
    if (model.M, model.N) != (M, N):
        raise ConfigError(
            f"{path} was trained for {model.M}x{model.N}, requested {M}x{N}"
        )
    return model


def _cmd_complexity(args: argparse.Namespace) -> int:
    if args.config:
        cfg = load_dataset_config(args.config)
        M, N = cfg.frame.M, cfg.frame.N
        preamble_len = cfg.preamble.length if cfg.preamble else 256
        pilot_row = cfg.pilot.m_p
    else:
        M, N, preamble_len, pilot_row = args.M, args.N, args.preamble_length, None
    models = None
    if args.weights or args.fine_weights or args.onestage_weights:
        models = SweepModels(
            coarse=_load_one(args.weights, "coarse", M, N),
            fine=_load_one(args.fine_weights, "fine", M, N),
            onestage=_load_one(args.onestage_weights, "onestage", M, N),
        )
    rows = complexity_report(
        M, N, preamble_len=preamble_len, pilot_row=pilot_row,
        models=models, repeats=args.repeats,
        measure_runtime=not args.no_runtime,
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(complexity_csv(rows))
        print(f"wrote complexity table to {args.out}")
    else:
        print(f"{'method':<14}{'FLOPs':>16}{'params':>12}{'runtime_s':>12}")
        for r in rows:
            params = "-" if r.params is None else f"{r.params:,}"
            runtime = "-" if r.runtime_s is None else f"{r.runtime_s:.4f}"
            print(f"{r.method:<14}{r.flops:>16,}{params:>12}{runtime:>12}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    if bool(args.dataset) == bool(args.weights):
        raise ConfigError("info needs exactly one of --dataset or --weights")
    if args.dataset:
        ds = read_dataset(args.dataset)
        print(f"dataset {args.dataset}")
        print(f"  grid         {ds.M} x {ds.N} (window {ds.M * ds.N} samples)")
        print(f"  L_CP         {ds.L_CP}")
        print(f"  records      {len(ds)}")
        print(f"  global_seed  {ds.global_seed}")
        for cid in sorted(np.unique(ds.channel_id).tolist()):
            cnt = int(np.sum(ds.channel_id == cid))
            snrs = np.unique(ds.snr_db[ds.channel_id == cid])
            print(f"  channel {cid}: {cnt} records, SNR {snrs.min():g}..{snrs.max():g} dB")
    else:
        tensors = load_tensors(args.weights)
        state, meta = split_metadata(tensors)
        print(f"weights {args.weights}")
        head = _HEAD_NAMES.get(int(meta.get("head_code", -1)), "?")
        print(f"  head     {head}")
        print(f"  geometry M={int(meta.get('M', 0))} N={int(meta.get('N', 0))}")
        n_params = sum(v.size for k, v in state.items() if "running_" not in k)
        print(f"  tensors  {len(state)} ({n_params:,} parameter scalars)")
        for key in sorted(meta):
            if key not in ("M", "N", "head_code"):
                print(f"  meta.{key} = {meta[key]:g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="otfs-sync",
        description="OTFS timing-offset synchronization workbench",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a dataset file from a JSON config")
    g.add_argument("--config", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=None, help="override the config seed")
    g.set_defaults(func=_cmd_gen)

    t = sub.add_parser("train", help="train one classifier stage")
    t.add_argument("--stage", required=True, choices=["coarse", "fine", "onestage"])
    t.add_argument("--dataset", required=True)
    t.add_argument("--out-weights", required=True)
    t.add_argument("--coarse-weights", help="trained coarse stage (fine training)")
    t.add_argument("--epochs", type=int, default=500)
    t.add_argument("--batch", type=int, default=256)
    t.add_argument("--lr", type=float, default=1e-4)
    t.add_argument("--wd", type=float, default=0.01)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--train-fraction", type=float, default=0.8)
    t.add_argument("--report", help="per-epoch JSON-lines path")
    t.set_defaults(func=_cmd_train)

    def add_eval_flags(sp):
        sp.add_argument("--dataset", required=True)
        sp.add_argument("--weights", help="coarse or one-stage weights")
        sp.add_argument("--fine-weights")
        sp.add_argument("--onestage-weights")
        sp.add_argument("--train-fraction", type=float, default=0.8)
        sp.add_argument("--batch", type=int, default=256)
        sp.add_argument("--preamble-length", type=int, default=256)
        sp.add_argument("--preamble-root", type=int, default=25)
        sp.add_argument("--pilot-row", type=int, default=None,
                        help="pilot delay row (default M//2)")
        sp.add_argument("--out", help="CSV output path (default: stdout)")

    e = sub.add_parser("eval", help="evaluate one method on a dataset's test split")
    e.add_argument("--method", required=True, choices=list(METHODS))
    add_eval_flags(e)
    e.set_defaults(func=_cmd_eval)

    s = sub.add_parser("sweep", help="per-channel, per-SNR metric table")
    s.add_argument("--methods", required=True,
                   help="comma-separated subset of " + ",".join(METHODS))
    s.add_argument("--snr-min", type=float, default=None)
    s.add_argument("--snr-max", type=float, default=None)
    s.add_argument("--snr-step", type=float, default=2.0)
    add_eval_flags(s)
    s.set_defaults(func=_cmd_sweep)

    c = sub.add_parser("complexity", help="analytic FLOPs / params / measured runtime")
    c.add_argument("--config", help="JSON config providing the geometry")
    c.add_argument("--M", type=int, default=256)
    c.add_argument("--N", type=int, default=64)
    c.add_argument("--preamble-length", type=int, default=256)
    c.add_argument("--weights")
    c.add_argument("--fine-weights")
    c.add_argument("--onestage-weights")
    c.add_argument("--repeats", type=int, default=100)
    c.add_argument("--no-runtime", action="store_true",
                   help="skip runtime measurement (analytic columns only)")
    c.add_argument("--out", help="CSV output path")
    c.set_defaults(func=_cmd_complexity)

    i = sub.add_parser("info", help="describe a dataset or weights file")
    i.add_argument("--dataset")
    i.add_argument("--weights")
    i.set_defaults(func=_cmd_info)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, WeightsFormatError) as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        raise
    except Exception as exc:  # training/runtime failures
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
