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
from .nn.model import HEAD_CODES, load_model
from .pipeline import TrainHyper, save_training_result, train_coarse, train_fine, train_one_stage

# the models each learned method needs, by SweepModels field
_METHOD_HEADS = {"resnet2stage": ("coarse", "fine"), "resnet1stage": ("onestage",)}


def _check_args(args: argparse.Namespace) -> None:
    """Reject out-of-range numeric options shared by several commands."""
    for flag in ("batch", "epochs"):
        value = getattr(args, flag, 1)
        if value < 1:
            raise ConfigError(f"--{flag} must be >= 1, got {value}")
    fraction = getattr(args, "train_fraction", 0.5)
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"--train-fraction must lie strictly between 0 and 1, got {fraction}")


def _preamble(length: int, root: int) -> np.ndarray:
    """The Zadoff-Chu preamble named on the command line; a length or root
    it cannot be built from is a configuration error."""
    try:
        return zadoff_chu(length, root)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_checked(path: str, heads: tuple[str, ...], grid: tuple[int, int],
                  wrong_head: str, wrong_grid: str):
    """Load a weights file that must hold one of ``heads`` for the M x N
    ``grid``.  The error templates may use {path}, {head}, {expected},
    {M}, {N} (the file's) and {grid} (the requested one)."""
    model, _ = load_model(path)
    fields = {"path": path, "head": model.head, "expected": heads[0],
              "M": model.M, "N": model.N, "grid": f"{grid[0]}x{grid[1]}"}
    if model.head not in heads:
        raise ConfigError(wrong_head.format(**fields))
    if (model.M, model.N) != grid:
        raise ConfigError(wrong_grid.format(**fields))
    return model


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
        coarse = _load_checked(
            args.coarse_weights, ("coarse",), (train_ds.M, train_ds.N),
            "{path} does not hold a coarse model",
            "coarse model geometry {M}x{N} does not match dataset {grid}")
        result = train_fine(coarse, train_ds, test_ds, hyper, log)

    save_training_result(result, hyper, args.out_weights)
    report_path = args.report or args.out_weights + ".train.jsonl"
    with open(report_path, "w") as fh:
        fh.write(result.report.to_json_lines())
    print(
        f"best test accuracy {result.report.best_accuracy:.4f} "
        f"(epoch {result.report.best_epoch}); weights: {args.out_weights}, "
        f"final: {args.out_weights}.final, report: {report_path}"
    )
    return 0


def _load_models_for(args: argparse.Namespace, ds, methods: list[str]) -> SweepModels:
    grid = (ds.M, ds.N)
    wrong_grid = "model geometry {M}x{N} does not match dataset {grid}"
    loaded = {}
    for path, heads, wrong_head in (
        (args.weights, ("coarse", "onestage"),
         "--weights holds a {head} model; pass the fine stage via --fine-weights"),
        (args.fine_weights, ("fine",), "{path} does not hold a fine model"),
        (args.onestage_weights, ("onestage",), "{path} does not hold a one-stage model"),
    ):
        if path:
            model = _load_checked(path, heads, grid, wrong_head, wrong_grid)
            loaded[model.head] = model
    for method in methods:
        if any(head not in loaded for head in _METHOD_HEADS.get(method, ())):
            raise ConfigError(
                f"{method} needs {' and '.join(_METHOD_HEADS[method])} weights"
            )
    preamble = _preamble(args.preamble_length, args.preamble_root)
    pilot_row = args.pilot_row if args.pilot_row is not None else ds.M // 2
    return SweepModels(
        preamble=preamble,
        preamble_offset=-(args.preamble_length + ds.L_CP),
        pilot_row=pilot_row,
        **loaded,
    )


def _cmd_eval(args: argparse.Namespace) -> int:
    ds = read_dataset(args.dataset)
    _, test_ds = ds.split(args.train_fraction)
    models = _load_models_for(args, test_ds, [args.method])
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
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {METHODS}")
    models = _load_models_for(args, test_ds, methods)
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


def _cmd_complexity(args: argparse.Namespace) -> int:
    if args.config:
        cfg = load_dataset_config(args.config)
        M, N = cfg.frame.M, cfg.frame.N
        preamble_len = cfg.preamble.length if cfg.preamble else 256
        pilot_row = cfg.pilot.m_p
    else:
        M, N, preamble_len, pilot_row = args.M, args.N, args.preamble_length, None
    if not args.no_runtime:
        _preamble(preamble_len, 25)  # the one complexity_report times crosscorr with
        if M * N % 8:
            raise ConfigError(f"timing the classifiers needs M*N divisible by 8, got {M}x{N}")
    loaded = {}
    for head, path in (("coarse", args.weights), ("fine", args.fine_weights),
                       ("onestage", args.onestage_weights)):
        if path:
            loaded[head] = _load_checked(
                path, (head,), (M, N), "{path} holds a {head} model, expected {expected}",
                "{path} was trained for {M}x{N}, requested {grid}")
    models = SweepModels(**loaded) if loaded else None
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
        code = int(meta.get("head_code", -1))
        head = next((h for h, c in HEAD_CODES.items() if c == code), "?")
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
        _check_args(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, WeightsFormatError) as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        raise
    except Exception as exc:  # training/runtime failures
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
