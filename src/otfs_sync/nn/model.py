"""The residual timing classifier: construction, counting, prediction.

One fixed trunk serves every head: three residual blocks with channel
widths (2,4) -> (4,16) -> (16,16), each followed by a halving max pool, then
a flatten and a single fully connected layer onto the class scores.  The
head size is what distinguishes the coarse (N-way), fine (M-way) and
one-stage (M*N-way) variants, so parameter and FLOP counts are derived from
the same architecture table that builds the network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import Conv1d, Flatten, Linear, MaxPool1d, ResBlock, Sequential

HEADS = ("coarse", "fine", "onestage")
HEAD_CODES = {"coarse": 0, "fine": 1, "onestage": 2}

# (name, in_channels, out_channels) of the residual trunk
TRUNK = (("rb1", 2, 4), ("rb2", 4, 16), ("rb3", 16, 16))


def head_classes(head: str, M: int, N: int) -> int:
    if head == "coarse":
        return N
    if head == "fine":
        return M
    if head == "onestage":
        return M * N
    raise ValueError(f"unknown head {head!r}, expected one of {HEADS}")


class SyncModel:
    """A built classifier plus the geometry it was built for."""

    def __init__(self, M: int, N: int, head: str, net: Sequential):
        self.M = M
        self.N = N
        self.head = head
        self.classes = head_classes(head, M, N)
        self.net = net

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.net.forward(x)

    def backward(self, gy: np.ndarray) -> np.ndarray:
        return self.net.backward(gy)

    def train(self) -> None:
        self.net.set_training(True)

    def eval(self) -> None:
        self.net.set_training(False)

    def parameters(self):
        return [p for _, p in self.net.named_parameters()]

    def named_parameters(self):
        return self.net.named_parameters()

    def named_buffers(self):
        return self.net.named_buffers()

    def predict_classes(self, X: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Eval-mode argmax over class scores, batched; ties resolve to the
        smallest class index.

        Runs the cache-free inference forward (``cache=False``): no layer
        keeps anything for backward, and each batch norm is folded into the
        conv before it, so the scores differ from the eval-mode ``forward``
        only by float rounding."""
        self.eval()
        out = np.empty(X.shape[0], dtype=np.int64)
        for lo in range(0, X.shape[0], batch_size):
            hi = min(lo + batch_size, X.shape[0])
            out[lo:hi] = np.argmax(self.net.forward(X[lo:hi], cache=False), axis=1)
        return out

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: p.value for name, p in self.net.named_parameters()}
        state.update({name: b for name, b in self.net.named_buffers()})
        return state

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for name, p in self.net.named_parameters():
            if name not in state:
                raise KeyError(f"weights file is missing tensor {name!r}")
            if state[name].shape != p.value.shape:
                raise ValueError(
                    f"tensor {name!r} has shape {state[name].shape}, "
                    f"model expects {p.value.shape}"
                )
            p.value[...] = state[name].astype(p.value.dtype)
        for name, b in self.net.named_buffers():
            if name not in state:
                raise KeyError(f"weights file is missing buffer {name!r}")
            b[...] = state[name].astype(b.dtype)


def build_sync_model(
    M: int,
    N: int,
    head: str,
    seed: int = 0,
    dtype=np.float32,
) -> SyncModel:
    """Instantiate the classifier for an M x N grid with the given head."""
    MN = M * N
    if MN % 8 != 0:
        raise ValueError(f"M*N={MN} must be divisible by 8 (three halving pools)")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    children: list[tuple[str, object]] = []
    for i, (name, cin, cout) in enumerate(TRUNK, start=1):
        children.append((name, ResBlock(cin, cout, rng, dtype)))
        children.append((f"pool{i}", MaxPool1d(2, 2)))
    children.append(("flatten", Flatten()))
    feat = TRUNK[-1][2] * (MN // 8)
    children.append(("fc", Linear(feat, head_classes(head, M, N), rng, dtype)))
    return SyncModel(M, N, head, Sequential(children))


def save_model(path: str, model: SyncModel, metadata: dict[str, float] | None = None) -> None:
    """Persist parameters, running statistics and ``meta.*`` scalars."""
    from .io import save_tensors

    tensors: dict[str, np.ndarray] = dict(model.state_dict())
    meta = {"M": float(model.M), "N": float(model.N),
            "head_code": float(HEAD_CODES[model.head])}
    if metadata:
        meta.update(metadata)
    for key in sorted(meta):
        tensors[f"meta.{key}"] = np.float32(meta[key])
    save_tensors(path, tensors)


def load_model(path: str) -> tuple[SyncModel, dict[str, float]]:
    """Rebuild a classifier from a weights file; returns (model, metadata)."""
    from .io import WeightsFormatError, load_tensors, split_metadata

    state, meta = split_metadata(load_tensors(path))
    for key in ("M", "N", "head_code"):
        if key not in meta:
            raise WeightsFormatError(f"{path}: missing meta.{key} entry")
    code_to_head = {v: k for k, v in HEAD_CODES.items()}
    head = code_to_head.get(int(meta["head_code"]))
    if head is None:
        raise WeightsFormatError(f"{path}: unknown head code {meta['head_code']}")
    model = build_sync_model(int(meta["M"]), int(meta["N"]), head)
    try:
        model.load_state(state)
    except (KeyError, ValueError) as exc:
        # tensors that do not fit the file's own meta.M/meta.N/meta.head_code
        raise WeightsFormatError(f"{path}: {exc.args[0]}") from exc
    return model, meta


def count_params(model: SyncModel) -> int:
    """Trainable scalars (weights, biases, BN scale/shift; running stats and
    optimizer state excluded)."""
    return sum(p.size for p in model.parameters())


def param_count(M: int, N: int, head: str) -> int:
    """Trainable-parameter total from the architecture table alone.

    Agrees exactly with :func:`count_params` of a built model, but needs no
    allocation — the full-grid one-stage head alone would be ~2 GB of float32.
    """
    total = 0
    for _, cin, cout in TRUNK:
        total += cout * cin * 7 + cout + 2 * cout          # conv7 + bn7
        total += cout * cout * 5 + cout + 2 * cout         # conv5 + bn5
        total += cout * cout * 3 + cout + 2 * cout         # conv3 + bn3
        if cin != cout:
            total += cout * cin + cout + 2 * cout          # shortcut conv1 + bn1
    feat = TRUNK[-1][2] * (M * N // 8)
    classes = head_classes(head, M, N)
    total += classes * feat + classes
    return total


@dataclass(frozen=True)
class FlopsRow:
    name: str
    macs: int
    elementwise: int

    @property
    def flops(self) -> int:
        return 2 * self.macs + self.elementwise


@dataclass(frozen=True)
class FlopsReport:
    rows: tuple[FlopsRow, ...]

    @property
    def macs(self) -> int:
        return sum(r.macs for r in self.rows)

    @property
    def mac_flops(self) -> int:
        return 2 * self.macs

    @property
    def elementwise(self) -> int:
        return sum(r.elementwise for r in self.rows)

    @property
    def total(self) -> int:
        return self.mac_flops + self.elementwise

    def lines(self) -> list[str]:
        out = [f"{'layer':<22}{'MACs':>14}{'2*MACs':>14}{'elementwise':>13}{'FLOPs':>14}"]
        for r in self.rows:
            out.append(
                f"{r.name:<22}{r.macs:>14,}{2 * r.macs:>14,}{r.elementwise:>13,}{r.flops:>14,}"
            )
        out.append(
            f"{'total':<22}{self.macs:>14,}{self.mac_flops:>14,}"
            f"{self.elementwise:>13,}{self.total:>14,}"
        )
        return out


def _resblock_rows(name: str, cin: int, cout: int, L: int) -> list[FlopsRow]:
    rows = []
    for tag, c_in, k in (("conv7", cin, 7), ("conv5", cout, 5), ("conv3", cout, 3)):
        rows.append(FlopsRow(f"{name}.{tag}", L * cout * c_in * k, L * cout))  # bias adds
        rows.append(FlopsRow(f"{name}.bn{k}", 0, L * cout))
        if k != 3:
            rows.append(FlopsRow(f"{name}.relu{k}", 0, L * cout))
    if cin != cout:
        rows.append(FlopsRow(f"{name}.shortcut.conv1", L * cout * cin, L * cout))
        rows.append(FlopsRow(f"{name}.shortcut.bn1", 0, L * cout))
    rows.append(FlopsRow(f"{name}.add", 0, L * cout))
    rows.append(FlopsRow(f"{name}.relu_out", 0, L * cout))
    return rows


def flops_report(M: int, N: int, head: str) -> FlopsReport:
    """Analytic forward-pass cost of one head for a single input window.

    Convolution and linear layers contribute 2 FLOPs per real
    multiply-accumulate; batch norm, activations, pooling, bias and residual
    additions are itemized at 1 FLOP per output element.
    """
    MN = M * N
    rows: list[FlopsRow] = []
    L = MN
    for i, (name, cin, cout) in enumerate(TRUNK, start=1):
        rows.extend(_resblock_rows(name, cin, cout, L))
        L //= 2
        rows.append(FlopsRow(f"pool{i}", 0, TRUNK[i - 1][2] * L))
    feat = TRUNK[-1][2] * L
    classes = head_classes(head, M, N)
    rows.append(FlopsRow("fc", feat * classes, classes))
    return FlopsReport(rows=tuple(rows))


def count_flops(M: int, N: int, head: str) -> int:
    """Total forward FLOPs for one window (see :func:`flops_report`)."""
    return flops_report(M, N, head).total


def two_stage_flops(M: int, N: int) -> int:
    return count_flops(M, N, "coarse") + count_flops(M, N, "fine")
