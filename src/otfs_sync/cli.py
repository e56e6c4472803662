"""Command-line workbench: gen / train / eval / complexity / info.

``eval --method`` takes one or more methods and prints, for each in turn,
its per-channel, per-SNR rows on the test split and then its overall row
(``channel_id`` -1, ``snr_db`` nan): ``metrics.sweep``.

``eval`` and ``complexity`` take trained heads as one ``--weights PATH
[PATH ...]`` list, in any order: each file goes where the head in its own
metadata says, and a method whose heads (``metrics.METHOD_HEADS``) are not
all there is refused before any estimate runs.  ``eval`` takes the crosscorr
preamble and the autocorr2d pilot row from ``--config``, the dataset's JSON
(``config.estimator_settings``), and refuses with exit 2 before any estimate
either method without it, crosscorr without a preamble or with one longer
than the window, and a config whose M, N or L_CP differs from the dataset's.

``eval`` reports its own cost on stderr, so the CSV on stdout stays
parseable: one JSON line per method (``eval_method``: method, records,
seconds, captures/s) as each finishes, then ``eval_end`` with the seconds
the read and the split took and the MB read.

``train``, ``eval`` and ``complexity`` check their output paths (``train``
all three files) before they read anything: a directory, or a file in a
missing or unwritable directory, is exit 2, and no file is created or
truncated before the work succeeds.

Exit codes: 0 success, 2 configuration error (a path that cannot be opened
included), 3 data-format error, 4 runtime or training failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .config import ConfigError, estimator_settings, load_dataset_config
from .dataset import (DataFormatError, Dataset, DatasetConfig, PreambleConfig, read_dataset,
                      write_dataset)
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


def _check_out_paths(*paths: str) -> None:
    """Refuse, before any work, an output path that could not be opened for
    writing: a directory, or a file in a missing or unwritable directory.
    An empty path (no output file) is skipped.  Nothing is created or
    truncated here."""
    for path in filter(None, paths):
        parent = os.path.dirname(path) or "."
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.exists(parent):
            code = errno.ENOENT
        elif not os.path.isdir(parent):
            code = errno.ENOTDIR
        elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise OSError(code, os.strerror(code), path)


def _split(ds: Dataset, path: str, need_train: bool) -> tuple[Dataset, Dataset]:
    """The dataset ``ds`` read from ``path`` split 80/20 per channel into
    (train, test), the one split every command uses.  An empty test side, or
    an empty training side when ``need_train``, is a configuration error."""
    train_ds, test_ds = ds.split()
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


def _event(name: str, **fields) -> None:
    """One JSON line on stderr, where it stays apart from a CSV on stdout."""
    print(json.dumps({"event": name, **fields}), file=sys.stderr, flush=True)


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
    out = args.out_weights
    _check_out_paths(out, out + ".final", out + ".train.jsonl")
    train_ds, test_ds = _split(read_dataset(args.dataset), args.dataset, need_train=True)
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
    """The settings of ``--config`` and only the heads that ``methods`` use,
    each checked before any method is estimated: no other head is read."""
    settings = SweepModels()
    if args.config:
        cfg = load_dataset_config(args.config)
        M, N, L_CP = cfg.frame.M, cfg.frame.N, cfg.frame.L_CP
        if (M, N, L_CP) != (ds.M, ds.N, ds.L_CP):
            raise ConfigError(f"{args.config} describes {M}x{N} frames with L_CP {L_CP}, "
                              f"the dataset {ds.M}x{ds.N} frames with L_CP {ds.L_CP}")
        settings = estimator_settings(cfg, methods)
    needed = {head for method in methods for head in METHOD_HEADS[method]}
    loaded = _load_heads(args.weights, (ds.M, ds.N), needed)
    for method in methods:
        if not loaded.keys() >= set(METHOD_HEADS[method]):
            raise ConfigError(f"{method} needs {' and '.join(METHOD_HEADS[method])} weights")
    return replace(settings, **loaded)


def _cmd_eval(args: argparse.Namespace) -> int:
    repeated = sorted({m for m in args.method if args.method.count(m) > 1})
    if repeated:
        raise ConfigError(f"--method names {', '.join(repeated)} more than once")
    classic = [m for m in args.method if not METHOD_HEADS[m]]
    if classic and not args.config:
        raise ConfigError(f"--method {' '.join(classic)} needs --config, the dataset's "
                          "configuration")
    _check_out_paths(args.out)
    t0 = time.perf_counter()
    ds = read_dataset(args.dataset)
    t1 = time.perf_counter()
    test_ds = _split(ds, args.dataset, need_train=False)[1]
    t2 = time.perf_counter()
    del ds  # only the test side is held while the methods run
    models = _load_models_for(args, test_ds, args.method)
    rows = []
    for method in args.method:
        start = time.perf_counter()
        rows += sweep(test_ds, [method], models, args.batch)
        seconds = time.perf_counter() - start
        _event("eval_method", method=method, records=len(test_ds), seconds=round(seconds, 6),
               captures_per_s=round(len(test_ds) / seconds, 1))
    _event("eval_end", read_s=round(t1 - t0, 6), split_s=round(t2 - t1, 6),
           mb_read=round(os.path.getsize(args.dataset) / 1e6, 6))
    return _write_out(args.out, rows_to_csv(rows), f"{len(rows)} rows")


def _cmd_complexity(args: argparse.Namespace) -> int:
    _check_out_paths(args.out)
    cfg = load_dataset_config(args.config) if args.config else DatasetConfig()
    M, N = cfg.frame.M, cfg.frame.N
    # a config without a preamble is costed with the default one; with no
    # runtime measured no method runs, so none is checked and no tensor data
    # is read
    settings = estimator_settings(replace(cfg, preamble=cfg.preamble or PreambleConfig()),
                                  () if args.no_runtime else METHODS)
    models = replace(settings, **_load_heads(args.weights, (M, N),
                                             set() if args.no_runtime else set(HEADS)))
    rows = complexity_report(M, N, models, repeats=args.repeats,
                             measure_runtime=not args.no_runtime)
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
    e.add_argument("--config", help="the JSON config the dataset was generated from, giving "
                                    "the crosscorr preamble and the autocorr2d pilot row")
    add_weights_flag(e)
    e.add_argument("--batch", type=int, default=256)
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
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        print(f"config error: cannot open {exc.filename}: {exc.strerror}", file=sys.stderr)
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
