"""AdamW with decoupled weight decay.

The decay multiplies each parameter by (1 - lr*wd) before the moment-based
update, so a zero-gradient step at lr=1e-4, wd=0.01 scales parameters by
exactly (1 - 1e-6) and leaves the moments untouched.
"""

from __future__ import annotations

import numpy as np

from .layers import Parameter


class AdamW:
    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]
        # reading a gradient allocates it (as zeros) unless it is set; doing so
        # here, with the moments and before any forward pass, keeps it from
        # landing above (and pinning) a training step's activation cache
        for p in self.params:
            p.grad

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad[...] = 0

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if self.weight_decay:
                p.value *= 1.0 - self.lr * self.weight_decay
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / bias1
            v_hat = v / bias2
            p.value -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.value.dtype)
