"""Coarse-to-fine training and inference for the trainable synchronizer.

The coarse stage classifies the time part theta_t of the wrapped offset from
the raw window (N classes).  The window is then rolled back by M*theta_t_hat
and the fine stage classifies the delay part theta_d (M classes) on the
compensated window; the two predictions combine to theta_hat = theta_d_hat +
M*theta_t_hat.  Fine-stage labels are always the true theta mod M: when the
coarse stage errs, the residual window is off by whole segments but the
delay signature is M-periodic, so the label stays consistent and the error
is absorbed as training noise.

A one-stage M*N-way variant exists for cost/accuracy comparison at small
grids.  Training records a per-epoch JSON-lines report and keeps both the
best-by-test-accuracy and the final weights.
"""

from __future__ import annotations

import ctypes
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .nn.loss import softmax_cross_entropy
from .nn.model import SyncModel, build_sync_model, save_model
from .nn.optim import AdamW


def compensate(window: np.ndarray, shift: int) -> np.ndarray:
    """Cyclically delay a window by ``shift`` samples along its last axis:
    out[..., k] = window[..., (k - shift) mod L].  Compensating a capture by
    its own wrapped offset realigns it."""
    return np.roll(window, shift, axis=-1)


def compensate_batch(windows: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Per-sample :func:`compensate` for a (n, 2, L) stack: each row is two
    slice copies, out[:, s:] = w[:, :L-s] and out[:, :s] = w[:, L-s:] with
    s = shift mod L, into one contiguous output."""
    L = windows.shape[-1]
    out = np.empty(windows.shape, windows.dtype)
    for o, w, s in zip(out, windows, np.asarray(shifts) % L):
        o[:, s:] = w[:, : L - s]
        o[:, :s] = w[:, L - s :]
    return out


@dataclass(frozen=True)
class TrainHyper:
    """Optimizer and loop settings (full-scale defaults)."""

    lr: float = 1e-4
    batch_size: int = 256
    epochs: int = 500
    weight_decay: float = 0.01
    seed: int = 0

    def as_metadata(self) -> dict[str, float]:
        return {
            "lr": self.lr,
            "batch_size": float(self.batch_size),
            "epochs": float(self.epochs),
            "weight_decay": float(self.weight_decay),
            "seed": float(self.seed),
        }


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    test_accuracy: float
    seconds: float
    train_seconds: float
    eval_seconds: float
    samples: int

    @property
    def samples_per_s(self) -> float:
        """Training samples per second of the epoch's training loop."""
        return self.samples / self.train_seconds if self.train_seconds > 0 else 0.0


@dataclass
class TrainReport:
    head: str
    hyper: TrainHyper
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1
    best_accuracy: float = -1.0

    def to_json_lines(self) -> str:
        lines = [json.dumps({"event": "train_start", "head": self.head,
                             **self.hyper.as_metadata()})]
        for e in self.epochs:
            lines.append(json.dumps({
                "event": "epoch",
                "epoch": e.epoch,
                "train_loss": round(e.train_loss, 6),
                "test_accuracy": round(e.test_accuracy, 6),
                "seconds": round(e.seconds, 3),
                "train_seconds": round(e.train_seconds, 3),
                "eval_seconds": round(e.eval_seconds, 3),
                "samples_per_s": round(e.samples_per_s, 1),
            }))
        lines.append(json.dumps({
            "event": "train_end",
            "best_epoch": self.best_epoch,
            "best_accuracy": round(self.best_accuracy, 6),
        }))
        return "\n".join(lines) + "\n"


@dataclass
class TrainResult:
    model: SyncModel          # carries the final-epoch weights
    best_state: dict[str, np.ndarray]
    report: TrainReport

    def restore_best(self) -> SyncModel:
        self.model.load_state(self.best_state)
        return self.model


_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_heap_for_training() -> None:
    """Stop glibc from handing the training step's activation cache back to
    the kernel between steps.

    The forward pass caches tens of MB (im2col columns, batch-norm ``xhat``,
    ReLU outputs) that backward frees again from the top of the heap.  Under
    glibc's dynamic thresholds that free trims the heap, and the next forward
    faults every page back in.  This raises ``M_MMAP_THRESHOLD`` to 32 MiB,
    the glibc maximum, and ``M_TRIM_THRESHOLD`` to 64 MiB, together: setting
    either alone switches off the dynamic adjustment of both and faults more.
    Arrays above 32 MiB are still mapped and unmapped per allocation.

    The setting is process-wide and cannot be undone; calling again sets the
    same values.  Without glibc's ``mallopt`` (other C libraries, other
    systems) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _train_classifier(
    head: str,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_test: np.ndarray,
    y_test: np.ndarray,
    M: int,
    N: int,
    hyper: TrainHyper,
    log=None,
) -> TrainResult:
    model = build_sync_model(M, N, head, seed=hyper.seed)
    opt = AdamW(model.parameters(), lr=hyper.lr, weight_decay=hyper.weight_decay)
    shuffle_rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(hyper.seed, spawn_key=(1,)))
    )
    report = TrainReport(head=head, hyper=hyper)
    best_state: dict[str, np.ndarray] | None = None
    n = X_train.shape[0]
    _keep_heap_for_training()
    for epoch in range(hyper.epochs):
        t0 = time.perf_counter()
        model.train()
        perm = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for lo in range(0, n, hyper.batch_size):
            idx = perm[lo : lo + hyper.batch_size]
            logits = model.forward(X_train[idx])
            loss, glogits = softmax_cross_entropy(logits, y_train[idx])
            opt.zero_grad()
            model.backward(glogits, input_grad=False)
            opt.step()
            loss_sum += loss * idx.size
        t1 = time.perf_counter()
        acc = float(np.mean(model.predict_classes(X_test, hyper.batch_size) == y_test))
        t2 = time.perf_counter()
        stats = EpochStats(
            epoch=epoch,
            train_loss=loss_sum / n,
            test_accuracy=acc,
            seconds=t2 - t0,
            train_seconds=t1 - t0,
            eval_seconds=t2 - t1,
            samples=n,
        )
        report.epochs.append(stats)
        if log is not None:
            log(f"[{head}] epoch {epoch:3d}  loss {stats.train_loss:.4f}  "
                f"test acc {acc:.4f}  ({stats.seconds:.1f}s)")
        if acc > report.best_accuracy:
            report.best_accuracy = acc
            report.best_epoch = epoch
            best_state = {k: v.copy() for k, v in model.state_dict().items()}
    assert best_state is not None
    return TrainResult(model=model, best_state=best_state, report=report)


def train_coarse(train: Dataset, test: Dataset, hyper: TrainHyper, log=None) -> TrainResult:
    """N-way classifier of the time part on raw windows."""
    return _train_classifier(
        "coarse",
        train.windows, train.theta_t.astype(np.int64),
        test.windows, test.theta_t.astype(np.int64),
        train.M, train.N, hyper, log,
    )


def train_fine(
    coarse: SyncModel,
    train: Dataset,
    test: Dataset,
    hyper: TrainHyper,
    log=None,
) -> TrainResult:
    """M-way classifier of the delay part on coarse-compensated windows.

    Compensation uses the frozen coarse model's own predictions (not the
    labels), so the fine stage trains on the distribution it will see at
    inference time.
    """
    t_hat_train = coarse.predict_classes(train.windows, hyper.batch_size)
    t_hat_test = coarse.predict_classes(test.windows, hyper.batch_size)
    X_train = compensate_batch(train.windows, train.M * t_hat_train)
    X_test = compensate_batch(test.windows, test.M * t_hat_test)
    return _train_classifier(
        "fine",
        X_train, train.theta_d.astype(np.int64),
        X_test, test.theta_d.astype(np.int64),
        train.M, train.N, hyper, log,
    )


def train_one_stage(train: Dataset, test: Dataset, hyper: TrainHyper, log=None) -> TrainResult:
    """M*N-way single-shot classifier of the wrapped offset."""
    return _train_classifier(
        "onestage",
        train.windows, train.theta_wrapped.astype(np.int64),
        test.windows, test.theta_wrapped.astype(np.int64),
        train.M, train.N, hyper, log,
    )


def infer_two_stage(
    windows: np.ndarray,
    coarse: SyncModel,
    fine: SyncModel,
    batch_size: int = 256,
) -> np.ndarray:
    """Wrapped-offset estimates for a (n, 2, MN) stack of windows."""
    M = coarse.M
    t_hat = coarse.predict_classes(windows, batch_size)
    d_hat = fine.predict_classes(compensate_batch(windows, M * t_hat), batch_size)
    return d_hat + M * t_hat


def infer(window: np.ndarray, coarse: SyncModel, fine: SyncModel) -> int:
    """Single-capture coarse-then-fine wrapped-offset estimate."""
    return int(infer_two_stage(window[None, ...], coarse, fine)[0])


def save_training_result(result: TrainResult, path: str) -> SyncModel:
    """Write a training run's three files: the final-epoch weights to
    ``<path>.final``, the best weights (restored into ``result.model``) to
    ``path`` and the per-epoch report to ``<path>.train.jsonl``.  Both weights
    files carry ``format``, the hyper-parameters and ``best_epoch`` on top of
    the geometry :func:`~otfs_sync.nn.model.save_model` writes.  Returns the
    best model."""
    report = result.report
    meta = {"format": 1.0, **report.hyper.as_metadata(), "best_epoch": float(report.best_epoch)}
    save_model(path + ".final", result.model, meta)
    best = result.restore_best()
    save_model(path, best, meta)
    with open(path + ".train.jsonl", "w") as fh:
        fh.write(report.to_json_lines())
    return best
