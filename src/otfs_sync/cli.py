"""Command-line workbench: gen / train / eval / complexity / info.

``eval --method`` takes one or more methods and prints, for each in turn,
its per-channel, per-SNR rows on the test split and then its overall row
(``channel_id`` -1, ``snr_db`` nan): ``metrics.sweep``.

``eval`` and ``complexity`` take trained heads as one ``--weights PATH
[PATH ...]`` list, in any order: each file goes where the head in its own
metadata says, and a method whose heads (``metrics.METHOD_HEADS``) are not
all there is refused before any estimate runs.

Exit codes: 0 success, 2 configuration error, 3 data-format error,
4 runtime or training failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .config import ConfigError, load_dataset_config
from .dataset import (DataFormatError, Dataset, DatasetConfig, PreambleConfig, read_dataset,
                      write_dataset)
from .frames import zadoff_chu
from .metrics import (
    METHOD_HEADS,
    METHODS,
    SweepModels,
    complexity_csv,
    complexity_report,
    complexity_table,
    rows_to_csv,
    sweep,
)
from .nn.io import WeightsFormatError
from .nn.model import HEADS, load_model, read_weights_header
from .pipeline import TrainHyper, save_training_result, train_coarse, train_fine, train_one_stage


def _check_args(args: argparse.Namespace) -> None:
    """Reject out-of-range numeric options before any command runs."""
    for flag in ("batch", "epochs", "repeats"):
        value = getattr(args, flag, 1)
        if value < 1:
            raise ConfigError(f"--{flag} must be >= 1, got {value}")
    lr = getattr(args, "lr", 1.0)
    if not (np.isfinite(lr) and lr > 0):
        raise ConfigError(f"--lr must be finite and > 0, got {lr}")
    wd = getattr(args, "wd", 0.0)
    if not (np.isfinite(wd) and wd >= 0):
        raise ConfigError(f"--wd must be finite and >= 0, got {wd}")


def _preamble(length: int, root: int) -> np.ndarray:
    """The Zadoff-Chu preamble named on the command line; a length or root
    it cannot be built from is a configuration error."""
    try:
        return zadoff_chu(length, root)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _read_split(path: str, need_train: bool) -> tuple[Dataset, Dataset]:
    """The dataset at ``path`` split 80/20 per channel into (train, test),
    the one split every command uses.  An empty test side, or an empty
    training side when ``need_train``, is a configuration error."""
    train_ds, test_ds = read_dataset(path).split()
    if not len(test_ds) or (need_train and not len(train_ds)):
        side = "neither side" if need_train else "the test side"
        raise ConfigError(f"{path} splits into {len(train_ds)} training and {len(test_ds)} "
                          f"test records; {side} may be empty")
    return train_ds, test_ds


def _load_heads(paths: list[str], grid: tuple[int, int], load: set[str]) -> dict:
    """Each weights file's model, keyed by the head its metadata names; a
    head not in ``load`` maps to None and no tensor data of its file is read.
    Every file's header (its table and ``meta.*`` scalars) is checked first:
    a second file for one head, or a model for another grid than the M x N
    ``grid``, is a configuration error."""
    models = {}
    for path in paths:
        with open(path, "rb") as fh:
            head, M, N, _, _ = read_weights_header(fh, path)
        if head in models:
            raise ConfigError(f"{path} holds a second {head} model")
        if (M, N) != grid:
            raise ConfigError(f"{path} holds a {M}x{N} model, expected {grid[0]}x{grid[1]}")
        models[head] = load_model(path)[0] if head in load else None
    return models


def _write_out(path: str | None, csv_text: str, what: str, shown: str | None = None) -> int:
    """Write ``csv_text`` to ``path`` and say so, or, with no path, print
    ``shown`` (the CSV itself by default)."""
    if path:
        with open(path, "w") as fh:
            fh.write(csv_text)
        print(f"wrote {what} to {path}")
    else:
        print(csv_text if shown is None else shown, end="")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    cfg = load_dataset_config(args.config)
    if args.seed is not None:
        try:
            cfg = replace(cfg, global_seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from exc
    t0 = time.perf_counter()
    n = write_dataset(cfg, args.out)
    seconds = time.perf_counter() - t0
    print(f"wrote {n} records to {args.out}")
    print(json.dumps({"event": "gen_end", "records": n, "bytes": os.path.getsize(args.out),
                      "seconds": round(seconds, 6), "captures_per_s": round(n / seconds, 1)}))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    train_ds, test_ds = _read_split(args.dataset, need_train=True)
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
        coarse = _load_heads([args.coarse_weights], (train_ds.M, train_ds.N),
                             {"coarse"}).get("coarse")
        if coarse is None:
            raise ConfigError(f"{args.coarse_weights} does not hold a coarse model")
        result = train_fine(coarse, train_ds, test_ds, hyper, log)

    save_training_result(result, args.out_weights)
    print(
        f"best test accuracy {result.report.best_accuracy:.4f} "
        f"(epoch {result.report.best_epoch}); weights: {args.out_weights}, "
        f"final: {args.out_weights}.final, report: {args.out_weights}.train.jsonl"
    )
    return 0


def _load_models_for(args: argparse.Namespace, ds, methods: list[str]) -> SweepModels:
    """Only the heads, preamble and pilot row that ``methods`` use, each
    checked before any method is estimated: nothing else is read, built or
    checked."""
    needed = {head for method in methods for head in METHOD_HEADS[method]}
    loaded = _load_heads(args.weights, (ds.M, ds.N), needed)
    for method in methods:
        if not loaded.keys() >= set(METHOD_HEADS[method]):
            raise ConfigError(f"{method} needs {' and '.join(METHOD_HEADS[method])} weights")
    preamble = pilot_row = None
    if "crosscorr" in methods:
        preamble = _preamble(args.preamble_length, args.preamble_root)
        if args.preamble_length > ds.M * ds.N:
            raise ConfigError(f"the {args.preamble_length}-sample preamble is longer than "
                              f"the {ds.M * ds.N}-sample window")
    if "autocorr2d" in methods:
        pilot_row = args.pilot_row if args.pilot_row is not None else ds.M // 2
        if not 0 <= pilot_row < ds.M:
            raise ConfigError(f"--pilot-row must lie in [0, {ds.M}), got {pilot_row}")
    return SweepModels(
        preamble=preamble,
        preamble_offset=-(args.preamble_length + ds.L_CP),
        pilot_row=pilot_row,
        **loaded,
    )


def _cmd_eval(args: argparse.Namespace) -> int:
    _, test_ds = _read_split(args.dataset, need_train=False)
    models = _load_models_for(args, test_ds, args.method)
    rows = sweep(test_ds, args.method, models, args.batch)
    return _write_out(args.out, rows_to_csv(rows), f"{len(rows)} rows")


def _cmd_complexity(args: argparse.Namespace) -> int:
    cfg = load_dataset_config(args.config) if args.config else DatasetConfig()
    M, N = cfg.frame.M, cfg.frame.N
    preamble = cfg.preamble or PreambleConfig()
    if not args.no_runtime:
        _preamble(preamble.length, preamble.root)  # the one crosscorr is timed with
        if preamble.length > M * N:
            raise ConfigError(f"timing crosscorr needs the {preamble.length}-sample preamble "
                              f"within the {M * N}-sample window")
        if M * N % 8:
            raise ConfigError(f"timing the classifiers needs M*N divisible by 8, got {M}x{N}")
    # with no runtime measured no head runs, so no tensor data is read
    models = SweepModels(**_load_heads(args.weights, (M, N),
                                       set() if args.no_runtime else set(HEADS)))
    rows = complexity_report(
        M, N, preamble=preamble, pilot_row=cfg.pilot.m_p,
        models=models, repeats=args.repeats,
        measure_runtime=not args.no_runtime,
    )
    return _write_out(args.out, complexity_csv(rows), "complexity table",
                      complexity_table(rows, M, N))


def _cmd_info(args: argparse.Namespace) -> int:
    if bool(args.dataset) == bool(args.weights):
        raise ConfigError("info needs exactly one of --dataset or --weights")
    if args.dataset:
        ds = read_dataset(args.dataset)
        print(f"dataset {args.dataset}")
        print(f"  version      {ds.format_version}")
        print(f"  grid         {ds.M} x {ds.N} (window {ds.M * ds.N} samples)")
        print(f"  L_CP         {ds.L_CP}")
        print(f"  records      {len(ds)}")
        print(f"  global_seed  {ds.global_seed}")
        for cid in sorted(np.unique(ds.channel_id).tolist()):
            cnt = int(np.sum(ds.channel_id == cid))
            snrs = np.unique(ds.snr_db[ds.channel_id == cid])
            print(f"  channel {cid}: {cnt} records, SNR {snrs.min():g}..{snrs.max():g} dB")
    else:
        # the table and the meta.* scalars only: no tensor data is read
        with open(args.weights, "rb") as fh:
            head, M, N, table, meta = read_weights_header(fh, args.weights)
        print(f"weights {args.weights}")
        print(f"  head     {head}")
        print(f"  geometry M={M} N={N}")
        state = {k: e for k, e in table.items() if not k.startswith("meta.")}
        n_params = sum(e.count for k, e in state.items() if "running_" not in k)
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
    t.add_argument("--stage", required=True, choices=HEADS)
    t.add_argument("--dataset", required=True)
    t.add_argument("--out-weights", required=True)
    t.add_argument("--coarse-weights", help="trained coarse stage (fine training)")
    t.add_argument("--epochs", type=int, default=TrainHyper.epochs)
    t.add_argument("--batch", type=int, default=TrainHyper.batch_size)
    t.add_argument("--lr", type=float, default=TrainHyper.lr)
    t.add_argument("--wd", type=float, default=TrainHyper.weight_decay)
    t.add_argument("--seed", type=int, default=TrainHyper.seed)
    t.set_defaults(func=_cmd_train)

    def add_weights_flag(sp):
        sp.add_argument("--weights", nargs="+", default=[], metavar="PATH",
                        help="weights files in any order, at most one per head")

    e = sub.add_parser("eval", help="per-channel, per-SNR and overall metrics of one or "
                                    "more methods on a dataset's test split")
    e.add_argument("--method", required=True, nargs="+", choices=METHODS)
    e.add_argument("--dataset", required=True)
    add_weights_flag(e)
    e.add_argument("--batch", type=int, default=256)
    e.add_argument("--preamble-length", type=int, default=PreambleConfig.length)
    e.add_argument("--preamble-root", type=int, default=PreambleConfig.root)
    e.add_argument("--pilot-row", type=int, default=None,
                   help="pilot delay row (default M//2)")
    e.add_argument("--out", help="CSV output path (default: stdout)")
    e.set_defaults(func=_cmd_eval)

    c = sub.add_parser("complexity", help="analytic FLOPs / params / measured runtime, "
                                          "and each head's per-layer FLOPs")
    c.add_argument("--config", help="JSON config giving the grid, pilot row and preamble "
                                    "(default: the 256x64 default configuration)")
    add_weights_flag(c)
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
