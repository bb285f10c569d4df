"""Monte Carlo estimate container, the universal return type of every MC route."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MCEstimate:
    value: float
    std_error: float
    samples: int
    seed: int | None = None

    def within(self, target: float, nsigma: float = 3.0, extra_sigma: float = 0.0) -> bool:
        sigma = math.hypot(self.std_error, extra_sigma)
        return abs(self.value - target) <= nsigma * max(sigma, 1e-15)

    def scaled(self, c: float) -> "MCEstimate":
        return MCEstimate(c * self.value, abs(c) * self.std_error, self.samples, self.seed)

    @staticmethod
    def exact(value: float, samples: int = 0, seed=None) -> "MCEstimate":
        return MCEstimate(float(value), 0.0, samples, seed)


def from_samples(values, seed=None) -> MCEstimate:
    v = np.asarray(values, dtype=float)
    n = v.size
    if n == 0:
        return MCEstimate(0.0, 0.0, 0, seed)
    se = float(v.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return MCEstimate(float(v.mean()), se, n, seed)


def from_indicator(hits: int, n: int, seed=None) -> MCEstimate:
    p = hits / n
    se = math.sqrt(max(p * (1.0 - p), 0.0) / n)
    return MCEstimate(p, se, n, seed)


def combine_sum(parts, seed=None) -> MCEstimate:
    """Sum of independent estimates; standard errors add in quadrature."""
    parts = list(parts)
    value = sum(p.value for p in parts)
    se = math.sqrt(sum(p.std_error ** 2 for p in parts))
    n = sum(p.samples for p in parts)
    return MCEstimate(value, se, n, seed)


def combine_product(parts, seed=None) -> MCEstimate:
    """Product of independent estimates, first-order error propagation."""
    parts = list(parts)
    value = 1.0
    for p in parts:
        value *= p.value
    var = 0.0
    for i, p in enumerate(parts):
        rest = 1.0
        for q_i, q in enumerate(parts):
            if q_i != i:
                rest *= q.value
        var += (rest * p.std_error) ** 2
    n = sum(p.samples for p in parts)
    return MCEstimate(value, math.sqrt(var), n, seed)
