"""Minimal deterministic layer zoo with hand-written backpropagation.

Everything is plain numpy.  Each layer caches what its backward pass needs
during forward, accumulates parameter gradients into ``Parameter.grad`` and
returns the input gradient, so a network is trained by calling ``forward``,
seeding the output gradient from the loss, and walking ``backward`` in
reverse order (containers do the walking).

Layers are dtype-generic: training runs in float32, and the same code paths
run in float64 for finite-difference gradient verification.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class Parameter:
    """A trainable array and its accumulated gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = value
        self.grad = np.zeros_like(value)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def size(self) -> int:
        return self.value.size


class Layer:
    """Base: stateless pass-through with no parameters."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, gy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        return []

    def named_buffers(self, prefix: str = "") -> list[tuple[str, np.ndarray]]:
        return []

    def set_training(self, flag: bool) -> None:
        pass


class Conv1d(Layer):
    """Same-padded 1-D cross-correlation with odd kernel size.

    weight has shape (out_channels, in_channels, kernel).  Everything stays
    channels-first: forward gathers the padded input into a column tensor
    cols of shape (B, in_channels*kernel, L), row c*kernel + j holding
    channel c shifted by tap j, so one broadcast matmul with the
    (out_channels, in_channels*kernel) weight matrix lands directly in
    (B, out_channels, L).  Backward reuses cols for the weight gradient and
    adds the column gradient back into the padded input, one contiguous
    shifted slice per tap.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        rng: np.random.Generator,
        dtype=np.float32,
    ):
        if kernel % 2 != 1:
            raise ValueError(f"kernel size must be odd for same padding, got {kernel}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.pad = (kernel - 1) // 2
        fan_in = in_channels * kernel
        std = np.sqrt(2.0 / fan_in)
        self.weight = Parameter(
            (rng.standard_normal((out_channels, in_channels, kernel)) * std).astype(dtype)
        )
        self.bias = Parameter(np.zeros(out_channels, dtype=dtype))
        self._cols: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        B, C, L = x.shape
        if C != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {C}")
        xp = np.pad(x, ((0, 0), (0, 0), (self.pad, self.pad)))
        win = sliding_window_view(xp, L, axis=2)  # (B, C, k, L)
        cols = win.reshape(B, C * self.kernel, L)
        y = self.weight.value.reshape(self.out_channels, -1) @ cols
        y += self.bias.value[:, None]
        self._cols = cols
        return y

    def backward(self, gy: np.ndarray) -> np.ndarray:
        cols = self._cols
        B, _, L = cols.shape
        C, k, pad = self.in_channels, self.kernel, self.pad
        self.weight.grad += (gy @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(
            self.weight.shape)
        self.bias.grad += gy.sum(axis=(0, 2))
        w2 = self.weight.value.reshape(self.out_channels, -1)
        dcols = (w2.T @ gy).reshape(B, C, k, L)
        dxp = np.zeros((B, C, L + 2 * pad), dtype=gy.dtype)
        for j in range(k):
            dxp[:, :, j : j + L] += dcols[:, :, j]
        return dxp[:, :, pad : pad + L]

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        return [(prefix + "weight", self.weight), (prefix + "bias", self.bias)]


class BatchNorm1d(Layer):
    """Per-channel batch normalization over the batch and length axes of a
    channels-first (B, C, L) tensor.

    Normalization uses the biased batch variance, taken from the centred
    input; running statistics follow the same convention with momentum 0.1
    (new = 0.9*old + 0.1*batch).  Eval mode normalizes with the running
    statistics.  Forward caches the normalized input, so backward works in
    both modes.
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

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {x.shape[1]}")
        if self.training:
            mean = x.mean(axis=(0, 2))
            xhat = x - mean[:, None]
            var = np.square(xhat).mean(axis=(0, 2))
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
        xhat = self._xhat
        sum_gy_xhat = np.sum(gy * xhat, axis=(0, 2))
        sum_gy = np.sum(gy, axis=(0, 2))
        self.gamma.grad += sum_gy_xhat
        self.beta.grad += sum_gy
        scale = (self.gamma.value * self._inv_std)[:, None]
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

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.maximum(x, 0)
        return self._y

    def backward(self, gy: np.ndarray) -> np.ndarray:
        return gy * (self._y > 0)


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

    def forward(self, x: np.ndarray) -> np.ndarray:
        L = x.shape[-1]
        if L % 2:
            raise ValueError(f"length {L} not divisible by the pool stride 2")
        x0, x1 = x[..., 0::2], x[..., 1::2]
        y = np.maximum(x0, x1)
        take1 = x1 > x0
        if np.isnan(y.sum()):  # x1 > x0 is False for x1 = NaN, argmax picks it
            take1 |= np.isnan(x1) & ~np.isnan(x0)
        self._take1 = take1
        return y

    def backward(self, gy: np.ndarray) -> np.ndarray:
        take1 = self._take1
        gx = np.empty(gy.shape[:-1] + (2 * gy.shape[-1],), dtype=gy.dtype)
        np.multiply(gy, ~take1, out=gx[..., 0::2])
        np.multiply(gy, take1, out=gx[..., 1::2])
        return gx


class Flatten(Layer):
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, gy: np.ndarray) -> np.ndarray:
        return gy.reshape(self._in_shape)


class Linear(Layer):
    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 dtype=np.float32):
        self.in_features = in_features
        self.out_features = out_features
        std = np.sqrt(2.0 / in_features)
        self.weight = Parameter(
            (rng.standard_normal((out_features, in_features)) * std).astype(dtype)
        )
        self.bias = Parameter(np.zeros(out_features, dtype=dtype))

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.weight.value.T + self.bias.value

    def backward(self, gy: np.ndarray) -> np.ndarray:
        self.weight.grad += gy.T @ self._x
        self.bias.grad += gy.sum(axis=0)
        return gy @ self.weight.value

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        return [(prefix + "weight", self.weight), (prefix + "bias", self.bias)]


class Sequential(Layer):
    """Ordered container; children are named for persistence."""

    def __init__(self, children: list[tuple[str, Layer]]):
        self.children = children

    def forward(self, x: np.ndarray) -> np.ndarray:
        for _, layer in self.children:
            x = layer.forward(x)
        return x

    def backward(self, gy: np.ndarray) -> np.ndarray:
        for _, layer in reversed(self.children):
            gy = layer.backward(gy)
        return gy

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


class ResBlock(Layer):
    """Residual unit y = ReLU(F(x) + H(x)).

    F stacks conv7-BN-ReLU, conv5-BN-ReLU, conv3-BN (channel change happens
    in the first conv); H is the identity when channel counts match and a
    1x1 conv + BN projection otherwise.
    """

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator,
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

    def forward(self, x: np.ndarray) -> np.ndarray:
        f = self.main.forward(x)
        h = x if self.shortcut is None else self.shortcut.forward(x)
        return self.relu_out.forward(f + h)

    def backward(self, gy: np.ndarray) -> np.ndarray:
        g = self.relu_out.backward(gy)
        gx = self.main.backward(g)
        if self.shortcut is None:
            gx = gx + g
        else:
            gx = gx + self.shortcut.backward(g)
        return gx

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
