"""Optimizers updating parameters in place: Adam, which ``train`` steps.

Each works on a model's one parameter vector (``model.params``) and its
gathered gradient (``model.grads``), keeping its state in vectors of the
same dtype, so a step is a handful of whole-vector array operations. The
operations are elementwise, so every parameter gets the bits a separate
update of each tensor would give it.

``SgdMomentum`` is no longer reachable from ``train`` or any manifest key.
It stays because the benchmark harness (``perfbench/spans.py``) patches
``SgdMomentum.step`` by name in every traced run; it goes together with
that patch entry.
"""

from __future__ import annotations

import numpy as np


class Adam:
    def __init__(self, model, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.model = model
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = np.zeros_like(model.params)
        self.v = np.zeros_like(model.params)

    def step(self) -> None:
        self.t += 1
        correct1 = 1.0 - self.beta1 ** self.t
        correct2 = 1.0 - self.beta2 ** self.t
        g, m, v = self.model.grads, self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        self.model.params -= (self.lr * (m / correct1)
                              / (np.sqrt(v / correct2) + self.eps))


class SgdMomentum:
    def __init__(self, model, lr: float = 1e-3, momentum: float = 0.9):
        self.model = model
        self.lr, self.momentum = lr, momentum
        self.vel = np.zeros_like(model.params)

    def step(self) -> None:
        self.vel *= self.momentum
        self.vel -= self.lr * self.model.grads
        self.model.params += self.vel

