"""The residual timing classifier: construction, counting, prediction.

One fixed trunk serves every head: three residual blocks with channel
widths (2,4) -> (4,16) -> (16,16), each followed by a halving max pool, then
a flatten and a single fully connected layer onto the class scores.  The
head size is what distinguishes the coarse (N-way), fine (M-way) and
one-stage (M*N-way) variants, so parameter and FLOP counts are derived from
the same architecture table that builds the network.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .layers import Conv1d, Flatten, Linear, MaxPool1d, ResBlock, Sequential

HEADS = ("coarse", "fine", "onestage")
HEAD_CODES = {"coarse": 0, "fine": 1, "onestage": 2}

# (name, in_channels, out_channels) of the residual trunk
TRUNK = (("rb1", 2, 4), ("rb2", 4, 16), ("rb3", 16, 16))

# bytes of im2col columns that one trunk tile of predict_classes may build at
# once: about two per-core L2 caches
TILE_BYTES = 4 << 20


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

    def backward(self, gy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Accumulate every parameter gradient from the score gradient ``gy``
        and return the input gradient; ``input_grad=False`` skips the input
        gradient (the parameter gradients are bitwise the same) and returns
        None."""
        return self.net.backward(gy, input_grad)

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
        only by float rounding.  Each residual block keeps its folded convs
        and folds again only when its parameters or running statistics have
        changed since, so repeated calls on unchanged weights fold once.

        Each chunk of ``batch_size`` captures runs the trunk (every layer
        before ``fc``, flatten included) in tiles of :func:`trunk_tile`
        captures, so the im2col columns of a conv stay near ``TILE_BYTES``
        however large the chunk is; the chunk's flattened features then go
        through ``fc`` in one matmul.  ``batch_size`` therefore bounds the
        features held for one ``fc`` call, not the trunk's temporaries.
        The trunk's stacked matmuls run one GEMM per capture either way, so
        the scores are bitwise those of ``net.forward(chunk, cache=False)``."""
        self.eval()
        *trunk, (_, fc) = self.net.children
        tile = trunk_tile(self.M, self.N, X.dtype.itemsize)
        out = np.empty(X.shape[0], dtype=np.int64)
        for lo in range(0, X.shape[0], batch_size):
            hi = min(lo + batch_size, X.shape[0])
            feats = []
            for t in range(lo, hi, tile):
                x = X[t : min(t + tile, hi)]
                for _, layer in trunk:
                    x = layer.forward(x, cache=False)
                feats.append(x)
            out[lo:hi] = np.argmax(fc.forward(np.concatenate(feats), cache=False), axis=1)
        return out

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: p.value for name, p in self.net.named_parameters()}
        state.update({name: b for name, b in self.net.named_buffers()})
        return state

    def state_targets(self, entries: Mapping) -> list[tuple[str, np.ndarray]]:
        """Every parameter and buffer array by name, in :meth:`state_dict`
        order, once ``entries`` (arrays or weights-file table entries, any
        value with a ``shape``) is checked to name each of them with the
        model's shape: a missing entry raises KeyError and a different shape
        raises ValueError (no broadcasting).  Extra entries are ignored."""
        targets = [("tensor", name, p.value) for name, p in self.net.named_parameters()]
        targets += [("buffer", name, b) for name, b in self.net.named_buffers()]
        for kind, name, dst in targets:
            _check_entry(entries, kind, name, dst.shape)
        return [(name, dst) for _, name, dst in targets]

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Copy every parameter and buffer from ``state``, after checking
        every shape as :meth:`state_targets` does (nothing is copied if one
        is missing or does not match)."""
        for name, dst in self.state_targets(state):
            dst[...] = state[name]


def _check_entry(entries: Mapping, kind: str, name: str, shape: tuple[int, ...]) -> None:
    """Raise KeyError unless ``entries`` names ``name``, and ValueError
    unless that entry has exactly ``shape``."""
    if name not in entries:
        raise KeyError(f"weights file is missing {kind} {name!r}")
    if entries[name].shape != shape:
        raise ValueError(f"{kind} {name!r} has shape {entries[name].shape}, "
                         f"model expects {shape}")


def fc_shape(M: int, N: int, head: str) -> tuple[int, int]:
    """(classes, features) of the ``fc`` weight: with its bias, the only
    tensors whose shapes depend on the grid or the head."""
    return head_classes(head, M, N), TRUNK[-1][2] * (M * N // 8)


def check_geometry(M: int, N: int) -> None:
    """Raise ValueError unless the trunk can take an M x N window: M, N >= 1
    and M*N divisible by 8."""
    if M < 1 or N < 1:
        raise ValueError(f"grid M={M} N={N} needs M, N >= 1")
    if M * N % 8 != 0:
        raise ValueError(f"M*N={M * N} must be divisible by 8 (three halving pools)")


def trunk_tile(M: int, N: int, itemsize: int) -> int:
    """Captures per trunk tile of :meth:`SyncModel.predict_classes`: as many
    as keep the longest im2col column block of the trunk within
    ``TILE_BYTES``, and at least one.  A block at length L builds
    C_in*7 x L columns for its conv7 and C_out*5 x L for its conv5; at
    256 x 64 in float32 the longest is rb2's conv5 (80 x 8192, 2.6 MB), so
    a tile is one capture, and at 32 x 8 it is 102."""
    widest, L = 0, M * N
    for _, cin, cout in TRUNK:
        widest = max(widest, L * max(cin * 7, cout * 5))
        L //= 2
    return max(1, TILE_BYTES // (itemsize * widest))


def _build(M: int, N: int, head: str, rng, dtype) -> SyncModel:
    check_geometry(M, N)
    children: list[tuple[str, object]] = []
    for i, (name, cin, cout) in enumerate(TRUNK, start=1):
        children.append((name, ResBlock(cin, cout, rng, dtype)))
        children.append((f"pool{i}", MaxPool1d(2, 2)))
    children.append(("flatten", Flatten()))
    classes, feat = fc_shape(M, N, head)
    children.append(("fc", Linear(feat, classes, rng, dtype)))
    return SyncModel(M, N, head, Sequential(children))


def build_sync_model(
    M: int,
    N: int,
    head: str,
    seed: int = 0,
    dtype=np.float32,
) -> SyncModel:
    """Instantiate the classifier for an M x N grid with the given head.

    Initial weights are drawn from one generator seeded with ``seed``, layer
    by layer in trunk order, in float64 blocks of at most
    ``layers.INIT_BLOCK_BYTES`` written straight into each parameter (see
    :func:`~otfs_sync.nn.layers.he_normal`): building holds one ``dtype``
    copy of the weights, and a seeded model is bitwise the same as one
    drawn whole."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return _build(M, N, head, rng, dtype)


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


def read_weights_header(fh: BinaryIO, path: str) -> tuple[str, int, int, dict, dict]:
    """(head, M, N, tensor table, ``meta.*`` scalars) of the open weights
    file ``fh``, once the ``fc`` entries of its table
    (:func:`~otfs_sync.nn.io.read_table`) have the shapes that head and grid
    imply (:func:`fc_shape`); no other tensor data is read.  A format fault,
    a missing entry, an unknown head code, a non-integer M or N, a grid the
    trunk cannot take, or an ``fc`` entry missing or of another shape
    raises WeightsFormatError naming ``path``."""
    from .io import WeightsFormatError, read_metadata, read_table

    table = read_table(fh, path)
    meta = read_metadata(fh, path, table)
    for key in ("M", "N", "head_code"):
        if key not in meta:
            raise WeightsFormatError(f"{path}: missing meta.{key} entry")
    head = {v: k for k, v in HEAD_CODES.items()}.get(meta["head_code"])
    if head is None:
        raise WeightsFormatError(f"{path}: unknown head code {meta['head_code']}")
    try:
        M, N = int(meta["M"]), int(meta["N"])
        if (M, N) != (meta["M"], meta["N"]):
            raise ValueError(f"grid M={meta['M']:g} N={meta['N']:g} is not integer")
        check_geometry(M, N)
        classes, feat = fc_shape(M, N, head)
        _check_entry(table, "tensor", "fc.weight", (classes, feat))
        _check_entry(table, "tensor", "fc.bias", (classes,))
    except (KeyError, ValueError, OverflowError) as exc:
        raise WeightsFormatError(f"{path}: {exc.args[0]}") from exc
    return head, M, N, table, meta


def load_model(path: str) -> tuple[SyncModel, dict[str, float]]:
    """Rebuild a classifier from a weights file; returns (model, metadata).

    The tensor table and the ``meta.*`` scalars are read and checked first,
    the ``fc`` shapes included, before anything is allocated
    (:func:`read_weights_header`).  A
    zero net is then built for that head and grid, drawing nothing, and
    each parameter and buffer is read from the file straight into its
    array, so loading holds one copy of the weights."""
    from .io import WeightsFormatError, read_into

    with open(path, "rb") as fh:
        head, M, N, table, meta = read_weights_header(fh, path)
        model = _build(M, N, head, None, np.float32)
        try:
            targets = model.state_targets(table)
        except (KeyError, ValueError) as exc:
            # tensors that do not fit the file's own meta.M/meta.N/meta.head_code
            raise WeightsFormatError(f"{path}: {exc.args[0]}") from exc
        for name, dst in targets:
            read_into(fh, path, table[name], dst)
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
    classes, feat = fc_shape(M, N, head)
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
        rows = [("layer", "MACs", "2*MACs", "elementwise", "FLOPs")]
        rows += [(r.name, f"{r.macs:,}", f"{2 * r.macs:,}", f"{r.elementwise:,}",
                  f"{r.flops:,}") for r in self.rows]
        rows.append(("total", f"{self.macs:,}", f"{self.mac_flops:,}",
                     f"{self.elementwise:,}", f"{self.total:,}"))
        return text_columns(rows, (22, 14, 14, 13, 14))


def text_columns(rows: list[tuple[str, ...]], widths: tuple[int, ...]) -> list[str]:
    """Lay out rows of cells as text: the first column left-aligned, the rest
    right-aligned.  Each column is at least its ``widths`` entry wide and one
    wider than its widest cell, so neighbouring cells never touch."""
    w = [max(m, 1 + max(len(r[j]) for r in rows)) for j, m in enumerate(widths)]
    return [r[0].ljust(w[0]) + "".join(c.rjust(n) for c, n in zip(r[1:], w[1:]))
            for r in rows]


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
    classes, feat = fc_shape(M, N, head)
    rows.append(FlopsRow("fc", feat * classes, classes))
    return FlopsReport(rows=tuple(rows))


def count_flops(M: int, N: int, head: str) -> int:
    """Total forward FLOPs for one window (see :func:`flops_report`)."""
    return flops_report(M, N, head).total


def two_stage_flops(M: int, N: int) -> int:
    return count_flops(M, N, "coarse") + count_flops(M, N, "fine")
