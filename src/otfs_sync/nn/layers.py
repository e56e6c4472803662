"""Minimal deterministic layer zoo with hand-written backpropagation.

Everything is plain numpy.  ``forward(x)`` caches what the backward pass
needs; ``backward`` uses that cache up (it drops its references), accumulates
parameter gradients into ``Parameter.grad`` and returns the input gradient.
A network is trained by calling ``forward``, seeding the output gradient
from the loss, and walking ``backward`` in reverse order (containers do the
walking).  One backward per forward: once backward has run, the layer holds
no array from that step.  ``backward(gy, input_grad=False)`` on a conv, a
linear layer or a container accumulates the same parameter gradients,
skips the input gradient and returns None; a container passes the flag to
its first child, so training skips the gradient of the network's input.

``forward(x, cache=False)`` is the inference path: nothing is kept for
backward, and the layers that normalize must be in eval mode (they raise
``ValueError`` otherwise).  A residual block then folds each eval-mode batch
norm into the convolution before it, so its output differs from the cached
eval-mode forward only by float rounding.  It folds once per weights state:
its parameters and running statistics are views into one flat array, and the
folded convs are reused until that array's bytes change.  Anything that
updates a parameter (``Parameter.value``) or a running statistic therefore
writes into the existing array in place and never rebinds it.

Layers are dtype-generic: training runs in float32, and the same code paths
run in float64 for finite-difference gradient verification.
"""

from __future__ import annotations

import numpy as np


# float64 bytes of one block of initial-weight draws
INIT_BLOCK_BYTES = 1 << 20


def he_normal(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator | None,
              dtype) -> np.ndarray:
    """Initial weights N(0, 2/fan_in) of ``shape`` in ``dtype`` (He et al. 2015).

    The standard normals are drawn as float64 in C order, ``INIT_BLOCK_BYTES``
    at a time, and each block is scaled and written into the preallocated
    array, so building holds one ``dtype`` copy of the weights plus one block.
    A generator yields the same stream in blocks as in one draw, so the
    weights are bitwise those of one float64 draw scaled and cast.  With
    ``rng=None`` nothing is drawn and the weights are zeros, for a net whose
    every tensor is about to be overwritten."""
    if rng is None:
        return np.zeros(shape, dtype=dtype)
    w = np.empty(shape, dtype=dtype)
    flat = w.reshape(-1)
    std = np.sqrt(2.0 / fan_in)
    step = INIT_BLOCK_BYTES // 8
    for lo in range(0, flat.size, step):
        block = rng.standard_normal(min(step, flat.size - lo))
        block *= std
        flat[lo : lo + block.size] = block
    return w


class Parameter:
    """A trainable array and its accumulated gradient.

    The gradient is allocated (as zeros) on first access, so a model that
    only runs inference holds no gradient arrays."""

    __slots__ = ("value", "_grad")

    def __init__(self, value: np.ndarray):
        self.value = value
        self._grad: np.ndarray | None = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        self._grad = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def size(self) -> int:
        return self.value.size


class Layer:
    """Base: stateless pass-through with no parameters."""

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, gy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        return []

    def named_buffers(self, prefix: str = "") -> list[tuple[str, np.ndarray]]:
        return []

    def set_training(self, flag: bool) -> None:
        pass


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """Columns (B, C*k, L) of the same-padded (B, C, L) input: row c*k + j
    holds channel c shifted by tap j.  For k == 1 that is ``x`` itself."""
    if k == 1:
        return x
    B, C, L = x.shape
    pad = (k - 1) // 2
    xp = np.zeros((B, C, L + 2 * pad), dtype=x.dtype)
    xp[:, :, pad : pad + L] = x
    s0, s1, s2 = xp.strides
    win = np.ndarray((B, C, k, L), x.dtype, xp, 0, (s0, s1, s2, s2))
    return win.reshape(B, C * k, L)


def _input_grad_transposed(w: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Input gradient of a same-padded conv with (O, C, k) weight ``w`` as a
    transposed convolution: the (C, O*k) tap-flipped, channel-swapped weight
    times the im2col of ``gy``.  For k == 1 that is W2^T @ gy."""
    O, C, k = w.shape
    return w.transpose(1, 0, 2)[:, :, ::-1].reshape(C, O * k) @ _im2col(gy, k)


def _input_grad_shifted(w: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """The same gradient as the column gradient W2^T @ gy added back into
    the zero-padded input, one contiguous shifted slice per tap."""
    O, C, k = w.shape
    B, _, L = gy.shape
    pad = (k - 1) // 2
    dcols = (w.reshape(O, C * k).T @ gy).reshape(B, C, k, L)
    dxp = np.zeros((B, C, L + 2 * pad), dtype=gy.dtype)
    for j in range(k):
        dxp[:, :, j : j + L] += dcols[:, :, j]
    return dxp[:, :, pad : pad + L]


class Conv1d(Layer):
    """Same-padded 1-D cross-correlation with odd kernel size.

    weight has shape (out_channels, in_channels, kernel).  Everything stays
    channels-first: forward zero-pads the input once and reads it through a
    strided (B, in_channels, kernel, L) window view, which reshapes into a
    column tensor cols of shape (B, in_channels*kernel, L), row c*kernel + j
    holding channel c shifted by tap j; for kernel 1 the input itself is
    the column tensor.  One broadcast matmul with the
    (out_channels, in_channels*kernel) weight matrix then lands directly in
    (B, out_channels, L).  Backward uses up the cached cols for the weight
    gradient.  The input gradient is the transposed convolution (Dumoulin &
    Visin 2016): the same im2col of the zero-padded output gradient times the
    tap-flipped, channel-swapped (in_channels, out_channels*kernel) weight.
    When a layer with kernel > 1 widens (out_channels > in_channels), the
    gradient columns of that form outnumber the input's, so there the column
    gradient W2^T @ gy is added back into the padded input instead, one
    contiguous shifted slice per tap.

    ``forward(x, cache=False, weight=W, bias=b)`` keeps no cols and applies
    the given (out_channels, in_channels, kernel) weight and bias in place of
    the layer's own parameters: a residual block passes its batch-norm-folded
    copies this way at inference.

    The weight starts He-normal with fan-in in_channels*kernel, drawn from
    ``rng`` by :func:`he_normal`, and the bias at zero; ``rng=None`` starts
    the weight at zero too and draws nothing.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        rng: np.random.Generator | None,
        dtype=np.float32,
    ):
        if kernel % 2 != 1:
            raise ValueError(f"kernel size must be odd for same padding, got {kernel}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.weight = Parameter(he_normal((out_channels, in_channels, kernel),
                                          in_channels * kernel, rng, dtype))
        self.bias = Parameter(np.zeros(out_channels, dtype=dtype))
        self._cols: np.ndarray | None = None

    def forward(self, x: np.ndarray, cache: bool = True,
                weight: np.ndarray | None = None,
                bias: np.ndarray | None = None) -> np.ndarray:
        B, C, L = x.shape
        if C != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {C}")
        cols = _im2col(x, self.kernel)
        w = self.weight.value if weight is None else weight
        y = w.reshape(self.out_channels, -1) @ cols
        y += (self.bias.value if bias is None else bias)[:, None]
        if cache:
            self._cols = cols
        return y

    def backward(self, gy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        cols, self._cols = self._cols, None
        self.weight.grad += (gy @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(
            self.weight.shape)
        self.bias.grad += gy.sum(axis=(0, 2))
        if not input_grad:
            return None
        if self.kernel == 1 or self.out_channels <= self.in_channels:
            return _input_grad_transposed(self.weight.value, gy)
        return _input_grad_shifted(self.weight.value, gy)

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        return [(prefix + "weight", self.weight), (prefix + "bias", self.bias)]


class BatchNorm1d(Layer):
    """Per-channel batch normalization over the batch and length axes of a
    channels-first (B, C, L) tensor.

    Normalization uses the biased batch variance, taken from the centred
    input; running statistics follow the same convention with momentum 0.1
    (new = 0.9*old + 0.1*batch).  Channel sums over (B, L) are taken as
    matrix-vector products with ones(L), then summed over the batch.  Eval
    mode normalizes with the running statistics.  Forward caches the
    normalized input, so backward works in both modes.
    ``forward(x, cache=False)`` needs eval mode and applies the running
    statistics as the per-channel affine map of :meth:`eval_affine`.
    """

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1,
                 dtype=np.float32):
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(channels, dtype=dtype))
        self.beta = Parameter(np.zeros(channels, dtype=dtype))
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.training = True
        self._xhat: np.ndarray | None = None
        self._inv_std: np.ndarray | None = None

    def eval_affine(self) -> tuple[np.ndarray, np.ndarray]:
        """Eval-mode (scale, shift) per channel: y = scale*x + shift, with
        scale = gamma/sqrt(running_var + eps), shift = beta - scale*running_mean."""
        if self.training:
            raise ValueError("batch norm in training mode has no fixed affine map")
        scale = self.gamma.value * (1.0 / np.sqrt(self.running_var + self.eps))
        return scale, self.beta.value - scale * self.running_mean

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        if x.shape[1] != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {x.shape[1]}")
        if not cache:
            scale, shift = self.eval_affine()
            y = x * scale[:, None]
            y += shift[:, None]
            return y
        if self.training:
            ones = np.ones(x.shape[2], dtype=x.dtype)
            n = x.shape[0] * x.shape[2]
            mean = (x @ ones).sum(axis=0) / n
            xhat = x - mean[:, None]
            var = (np.square(xhat) @ ones).sum(axis=0) / n
            m = self.momentum
            self.running_mean *= 1 - m
            self.running_mean += m * mean
            self.running_var *= 1 - m
            self.running_var += m * var
        else:
            xhat = x - self.running_mean[:, None]
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat *= inv_std[:, None]
        self._xhat = xhat
        self._inv_std = inv_std
        y = xhat * self.gamma.value[:, None]
        y += self.beta.value[:, None]
        return y

    def backward(self, gy: np.ndarray) -> np.ndarray:
        xhat, self._xhat = self._xhat, None
        inv_std, self._inv_std = self._inv_std, None
        ones = np.ones(gy.shape[2], dtype=gy.dtype)
        sum_gy_xhat = ((gy * xhat) @ ones).sum(axis=0)
        sum_gy = (gy @ ones).sum(axis=0)
        self.gamma.grad += sum_gy_xhat
        self.beta.grad += sum_gy
        scale = (self.gamma.value * inv_std)[:, None]
        if not self.training:
            return gy * scale
        n = gy.shape[0] * gy.shape[2]
        gx = xhat * (sum_gy_xhat / n)[:, None]
        np.subtract(gy, gx, out=gx)
        gx -= (sum_gy / n)[:, None]
        gx *= scale
        return gx

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        return [(prefix + "gamma", self.gamma), (prefix + "beta", self.beta)]

    def named_buffers(self, prefix: str = "") -> list[tuple[str, np.ndarray]]:
        return [
            (prefix + "running_mean", self.running_mean),
            (prefix + "running_var", self.running_var),
        ]

    def set_training(self, flag: bool) -> None:
        self.training = flag


class ReLU(Layer):
    """max(x, 0); the cached output doubles as the backward mask, so the
    gradient is exactly 0 at x = 0."""

    _y: np.ndarray | None = None

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        y = np.maximum(x, 0)
        if cache:
            self._y = y
        return y

    def backward(self, gy: np.ndarray) -> np.ndarray:
        y, self._y = self._y, None
        return gy * (y > 0)


class MaxPool1d(Layer):
    """Non-overlapping max pool (kernel 2, stride 2) over the last axis.

    The pairs are the strided even and odd samples x0 = x[..., 0::2] and
    x1 = x[..., 1::2], so no reshape or index gather is needed.  As with an
    argmax over each pair, a NaN propagates to the output, and gradients
    route to the first maximal element (the first NaN, if any).
    """

    def __init__(self, kernel: int = 2, stride: int = 2):
        if (kernel, stride) != (2, 2):
            raise ValueError("only kernel=2, stride=2 pooling is supported")

    _take1: np.ndarray | None = None

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        L = x.shape[-1]
        if L % 2:
            raise ValueError(f"length {L} not divisible by the pool stride 2")
        x0, x1 = x[..., 0::2], x[..., 1::2]
        y = np.maximum(x0, x1)
        if not cache:
            return y
        take1 = x1 > x0
        if np.isnan(y.sum()):  # x1 > x0 is False for x1 = NaN, argmax picks it
            take1 |= np.isnan(x1) & ~np.isnan(x0)
        self._take1 = take1
        return y

    def backward(self, gy: np.ndarray) -> np.ndarray:
        take1, self._take1 = self._take1, None
        gx = np.empty(gy.shape[:-1] + (2 * gy.shape[-1],), dtype=gy.dtype)
        np.multiply(gy, ~take1, out=gx[..., 0::2])
        np.multiply(gy, take1, out=gx[..., 1::2])
        return gx


class Flatten(Layer):
    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        if cache:
            self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, gy: np.ndarray) -> np.ndarray:
        return gy.reshape(self._in_shape)


class Linear(Layer):
    """y = x W^T + b on (B, in_features) rows.  The weight starts He-normal
    with fan-in in_features (:func:`he_normal`; zeros for ``rng=None``) and
    the bias at zero."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None,
                 dtype=np.float32):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(he_normal((out_features, in_features), in_features,
                                          rng, dtype))
        self.bias = Parameter(np.zeros(out_features, dtype=dtype))
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        if cache:
            self._x = x
        return x @ self.weight.value.T + self.bias.value

    def backward(self, gy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        x, self._x = self._x, None
        self.weight.grad += gy.T @ x
        self.bias.grad += gy.sum(axis=0)
        return gy @ self.weight.value if input_grad else None

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        return [(prefix + "weight", self.weight), (prefix + "bias", self.bias)]


class Sequential(Layer):
    """Ordered container; children are named for persistence."""

    def __init__(self, children: list[tuple[str, Layer]]):
        self.children = children

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        for _, layer in self.children:
            x = layer.forward(x, cache=cache)
        return x

    def backward(self, gy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        (_, first), *rest = self.children
        for _, layer in reversed(rest):
            gy = layer.backward(gy)
        return first.backward(gy) if input_grad else first.backward(gy, input_grad=False)

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        out = []
        for name, layer in self.children:
            out.extend(layer.named_parameters(f"{prefix}{name}."))
        return out

    def named_buffers(self, prefix: str = "") -> list[tuple[str, np.ndarray]]:
        out = []
        for name, layer in self.children:
            out.extend(layer.named_buffers(f"{prefix}{name}."))
        return out

    def set_training(self, flag: bool) -> None:
        for _, layer in self.children:
            layer.set_training(flag)


def _pack(slots: list[tuple[object, str]], dtype) -> np.ndarray:
    """Copy the array at each (owner, attribute) of ``slots`` into one flat
    array of ``dtype`` and rebind the attribute to its view there."""
    arrays = [getattr(owner, attr) for owner, attr in slots]
    flat = np.empty(sum(a.size for a in arrays), dtype=dtype)
    lo = 0
    for (owner, attr), a in zip(slots, arrays):
        view = flat[lo : lo + a.size].reshape(a.shape)
        view[...] = a
        setattr(owner, attr, view)
        lo += a.size
    return flat


class ResBlock(Layer):
    """Residual unit y = ReLU(F(x) + H(x)).

    F stacks conv7-BN-ReLU, conv5-BN-ReLU, conv3-BN (channel change happens
    in the first conv); H is the identity when channel counts match and a
    1x1 conv + BN projection otherwise.

    Every parameter and batch-norm running statistic of the block is a view
    into one flat array of the block's dtype, ``flat``, packed when the
    block is built (a copy; seeded values are unchanged).  Whatever updates
    them (the optimizer, training-mode statistics, loading, gradient checks)
    must write into those arrays in place and never rebind them.

    ``forward(x, cache=False)`` is the eval-mode inference path (it raises
    ``ValueError`` in training mode, before anything else).  Each batch norm
    folds into the conv before it, W' = s*W and b' = s*b + (beta - s*mu)
    with s = gamma/sqrt(var + eps) from the running statistics (Ioffe &
    Szegedy 2015; see :meth:`BatchNorm1d.eval_affine`), and each conv runs
    as ``Conv1d.forward(h, cache=False, weight=W', bias=b')``.  The folded
    weights are kept with the bytes of ``flat`` they were folded from and
    reused while those bytes are unchanged, so a block folds once per
    weights state, not once per call; any in-place write refolds on the
    next call.  The ReLUs and the residual add then work in place on the
    block's own temporaries; the caller's ``x`` is never written.

    The convs draw their initial weights from ``rng`` in construction order:
    conv7, conv5, conv3, then the shortcut conv1 (all zeros for ``rng=None``).
    """

    def __init__(self, in_channels: int, out_channels: int,
                 rng: np.random.Generator | None,
                 dtype=np.float32):
        self.main = Sequential([
            ("conv7", Conv1d(in_channels, out_channels, 7, rng, dtype)),
            ("bn7", BatchNorm1d(out_channels, dtype=dtype)),
            ("relu7", ReLU()),
            ("conv5", Conv1d(out_channels, out_channels, 5, rng, dtype)),
            ("bn5", BatchNorm1d(out_channels, dtype=dtype)),
            ("relu5", ReLU()),
            ("conv3", Conv1d(out_channels, out_channels, 3, rng, dtype)),
            ("bn3", BatchNorm1d(out_channels, dtype=dtype)),
        ])
        if in_channels == out_channels:
            self.shortcut = None
        else:
            self.shortcut = Sequential([
                ("conv1", Conv1d(in_channels, out_channels, 1, rng, dtype)),
                ("bn1", BatchNorm1d(out_channels, dtype=dtype)),
            ])
        self.relu_out = ReLU()
        conv7, bn7, _, conv5, bn5, _, conv3, bn3 = (l for _, l in self.main.children)
        # (conv, the batch norm after it), in the order forward runs them
        pairs = [(conv7, bn7), (conv5, bn5), (conv3, bn3)]
        if self.shortcut is not None:
            (_, conv1), (_, bn1) = self.shortcut.children
            pairs.append((conv1, bn1))
        self._pairs = tuple(pairs)
        slots = [(p, "value") for _, p in self.named_parameters()]
        slots += [(bn, name) for _, bn in pairs for name in ("running_mean", "running_var")]
        self.flat = _pack(slots, dtype)
        # (bytes of flat, ((conv, W', b') per pair)) of the last fold
        self._fold: tuple[bytes, tuple] | None = None

    def _folded(self) -> tuple:
        """(conv, W', b') for each conv, folded anew only when the bytes of
        ``flat`` differ from those of the last fold."""
        if any(bn.training for _, bn in self._pairs):
            raise ValueError("batch norm in training mode has no fixed affine map")
        key = self.flat.tobytes()
        if self._fold is None or self._fold[0] != key:
            folded = []
            for conv, bn in self._pairs:
                scale, shift = bn.eval_affine()
                folded.append((conv, conv.weight.value * scale[:, None, None],
                               conv.bias.value * scale + shift))
            self._fold = (key, tuple(folded))
        return self._fold[1]

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        if cache:
            f = self.main.forward(x)
            h = x if self.shortcut is None else self.shortcut.forward(x)
            return self.relu_out.forward(f + h)
        (c7, w7, b7), (c5, w5, b5), (c3, w3, b3), *shortcut = self._folded()
        h = c7.forward(x, False, w7, b7)
        np.maximum(h, 0, out=h)
        h = c5.forward(h, False, w5, b5)
        np.maximum(h, 0, out=h)
        f = c3.forward(h, False, w3, b3)
        if shortcut:
            (c1, w1, b1), = shortcut
            f += c1.forward(x, False, w1, b1)
        else:
            f += x
        np.maximum(f, 0, out=f)
        return f

    def backward(self, gy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        g = self.relu_out.backward(gy)
        gx = self.main.backward(g, input_grad)
        h = g if self.shortcut is None else self.shortcut.backward(g, input_grad)
        return gx + h if input_grad else None

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        out = self.main.named_parameters(f"{prefix}main.")
        if self.shortcut is not None:
            out.extend(self.shortcut.named_parameters(f"{prefix}shortcut."))
        return out

    def named_buffers(self, prefix: str = "") -> list[tuple[str, np.ndarray]]:
        out = self.main.named_buffers(f"{prefix}main.")
        if self.shortcut is not None:
            out.extend(self.shortcut.named_buffers(f"{prefix}shortcut."))
        return out

    def set_training(self, flag: bool) -> None:
        self.main.set_training(flag)
        if self.shortcut is not None:
            self.shortcut.set_training(flag)
        self.relu_out.set_training(flag)
