"""Adam with bias correction and a reduce-on-plateau learning-rate schedule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
PLATEAU_FACTOR = 0.5  # learning-rate multiplier on a plateau
PLATEAU_PATIENCE = 5  # consecutive non-improving epochs that make a plateau


@dataclass
class AdamState:
    """Per-parameter moment buffers and step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_param(cls, param: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(param), v=np.zeros_like(param))


def adam_step(params: dict, grads: dict, state: dict[str, AdamState], lr: float) -> dict:
    """One Adam update over named parameter arrays, in place.

    Only parameters present in `grads` are touched; each parameter keeps its
    own step counter so sparsely-updated parameters stay bias-corrected.
    """
    for name, grad in grads.items():
        if grad is None:
            continue
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError(f"non-finite gradient for parameter '{name}'")
        p = params[name]
        st = state[name]
        st.step += 1
        st.m = BETA1 * st.m + (1.0 - BETA1) * grad
        st.v = BETA2 * st.v + (1.0 - BETA2) * grad * grad
        mhat = st.m / (1.0 - BETA1**st.step)
        vhat = st.v / (1.0 - BETA2**st.step)
        p -= (lr * mhat / (np.sqrt(vhat) + EPS)).astype(p.dtype)
    return params


def clip_global_norm(grads: dict, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm.

    The squares are summed in sorted-name order, so the norm does not depend
    on the order in which `grads` was built.
    """
    total = 0.0
    for name in sorted(grads):
        g = grads[name]
        if g is not None:
            total += float((g.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        factor = max_norm / norm
        for name, g in grads.items():
            if g is not None:
                grads[name] = g * g.dtype.type(factor)
    return norm


@dataclass
class PlateauScheduler:
    """Scale the learning rate by PLATEAU_FACTOR after PLATEAU_PATIENCE
    consecutive non-improving epochs."""

    lr: float
    best: float = float("inf")
    since_best: int = 0

    def step(self, metric: float) -> float:
        if metric < self.best:
            self.best = metric
            self.since_best = 0
        else:
            self.since_best += 1
            if self.since_best >= PLATEAU_PATIENCE:
                self.lr *= PLATEAU_FACTOR
                self.since_best = 0
        return self.lr
