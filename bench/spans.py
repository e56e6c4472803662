"""Span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of the otfs_sync modules at the
boundaries where one layer calls the next (for example ``apply_fading`` as
``dataset`` sees it, or ``Conv1d.forward``).  Each call is a span; spans nest
on a stack, and a span's self time is its duration minus the time covered by
its child spans.  Spans are aggregated in memory per name (calls, total
seconds, self seconds) together with counters recorded at the same
boundaries, and read out with :meth:`Tracer.take`.

Nothing is patched until :meth:`Tracer.install`; :meth:`Tracer.uninstall`
restores every original attribute, so an untraced run executes the program
exactly as shipped.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict

from otfs_sync import classic, dataset, metrics, pipeline
from otfs_sync.nn import layers, model, optim

# (namespace the caller looks the name up in, attribute, span name)
FUNCTIONS = (
    (dataset, "build_dd_frame", "frames.build_dd_frame"),
    (dataset, "dd_to_dt", "frames.dd_to_dt"),
    (dataset, "realize_channel", "channel.realize_channel"),
    (dataset, "apply_fading", "channel.apply_fading"),
    (dataset, "apply_awgn", "channel.apply_awgn"),
    (dataset, "synthesize_capture", "dataset.synthesize_capture"),
    (dataset, "generate_dataset", "dataset.generate_dataset"),
    (dataset, "write_dataset", "dataset.write_dataset"),
    (dataset, "save_dataset", "dataset.save_dataset"),
    (dataset, "read_dataset", "dataset.read_dataset"),
    (classic, "autocorr2d", "classic.autocorr2d"),
    (classic, "cross_correlation_surface", "classic.cross_correlation_surface"),
    (metrics, "autocorr2d_sync", "classic.autocorr2d_sync"),
    (metrics, "cross_correlate_sync", "classic.cross_correlate_sync"),
    (metrics, "estimate_all", "metrics.estimate_all"),
    (pipeline, "train_coarse", "pipeline.train"),
    (pipeline, "train_fine", "pipeline.train"),
    (pipeline, "compensate_batch", "pipeline.compensate_batch"),
    (pipeline, "infer_two_stage", "pipeline.infer_two_stage"),
    (pipeline, "softmax_cross_entropy", "nn.softmax_cross_entropy"),
    (pipeline, "build_sync_model", "nn.build_sync_model"),
    (model, "build_sync_model", "nn.build_sync_model"),
    (model, "save_model", "nn.save_model"),
    (model, "load_model", "nn.load_model"),
)

LAYER_CLASSES = (layers.Conv1d, layers.BatchNorm1d, layers.ReLU, layers.MaxPool1d,
                 layers.Linear, layers.Flatten)

METHODS = (
    *((cls, meth, f"nn.{cls.__name__}.{tag}")
      for cls in LAYER_CLASSES for meth, tag in (("forward", "fwd"), ("backward", "bwd"))),
    (optim.AdamW, "step", "nn.AdamW.step"),
    (optim.AdamW, "zero_grad", "nn.AdamW.zero_grad"),
    (model.SyncModel, "predict_classes", "nn.predict_classes"),
    (model.SyncModel, "forward", "nn.SyncModel.forward"),
    (dataset.Dataset, "split", "dataset.split"),
)

# residual blocks are told apart by their channel change, as in the trunk table
_RB_NAMES = {(cin, cout): name for name, cin, cout in model.TRUNK}


def resblock_name(block: layers.ResBlock) -> str:
    conv = block.main.children[0][1]
    return _RB_NAMES.get((conv.in_channels, conv.out_channels), "rb?")


class Tracer:
    """Aggregating span recorder; see the module docstring."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [name, start, child seconds]
        self._paused = False
        self.reset()

    # -- recording ---------------------------------------------------------
    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.step_s: list[float] = []
        self._last_train_forward: float | None = None

    def take(self) -> dict:
        """Return everything recorded since the last reset, then reset."""
        out = {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "step_s": list(self.step_s),
        }
        self.reset()
        return out

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def _span(self, fn, name_of, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            name = name_of(args)
            if count is not None:
                count(self, name, args)
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return wrapper

    # -- counters at the span boundaries ------------------------------------
    def _count(self, name: str, args: tuple) -> None:
        c = self.counts
        if name == "channel.apply_fading":
            c["channel.faded_samples"] += args[0].size
        elif name == "dataset.synthesize_capture":
            c["channel.kept_samples"] += args[0].frame.grid_size
        elif name == "nn.Conv1d.fwd":
            conv, x = args[0], args[1]
            B, C, L = x.shape
            c["nn.Conv1d.macs"] += B * L * conv.out_channels * C * conv.kernel
        elif name == "classic.autocorr2d":
            c["classic.autocorr2d.macs"] += classic.autocorr2d_macs(args[1], args[2])
        elif name == "classic.cross_correlation_surface":
            c["classic.cross_correlation_surface.macs"] += classic.crosscorr_macs(
                args[0].size, args[1].size)
        elif name == "nn.SyncModel.forward":
            now = time.perf_counter()
            if self._last_train_forward is not None:
                self.step_s.append(now - self._last_train_forward)
            self._last_train_forward = now
        elif name in ("nn.predict_classes", "pipeline.train"):
            # an evaluation pass or a new training call breaks the step chain
            self._last_train_forward = None

    def _count_bytes(self, fn, key: str, path_arg: int):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if not self._paused:
                self.counts[key] += os.path.getsize(args[path_arg])
            return out
        return wrapper

    # -- patching ------------------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        byte_counts = {"write_dataset": ("dataset.bytes_written", 1),
                       "save_dataset": ("dataset.bytes_written", 1),
                       "read_dataset": ("dataset.bytes_read", 0)}
        for mod, attr, name in FUNCTIONS:
            fn = mod.__dict__[attr]
            if attr in byte_counts:
                fn = self._count_bytes(fn, *byte_counts[attr])
            self._patch(mod, attr, self._span(fn, lambda args, n=name: n, Tracer._count))
        for cls, meth, name in METHODS:
            self._patch(cls, meth, self._span(cls.__dict__[meth], lambda args, n=name: n,
                                              Tracer._count))
        for meth, tag in (("forward", "fwd"), ("backward", "bwd")):
            self._patch(layers.ResBlock, meth, self._span(
                layers.ResBlock.__dict__[meth],
                lambda args, t=tag: f"nn.{resblock_name(args[0])}.{t}"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own output checks without recording them."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
