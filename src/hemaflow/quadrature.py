"""Gauss-Legendre quadrature helpers used throughout the package."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """Nodes and weights of the n-point rule on [-1, 1] (cached)."""
    nodes, weights = roots_legendre(n)
    return np.asarray(nodes), np.asarray(weights)


def mapped_rule(a: float, b: float, n: int):
    """Nodes and weights of the n-point rule mapped to [a, b]."""
    z, w = gauss_legendre(n)
    half = 0.5 * (b - a)
    return a + half * (z + 1.0), half * w


def adaptive_interval(f, a: float, b: float, *, n_nodes: int = 15,
                      rtol: float = 1e-10, max_depth: int = 14) -> float:
    """Recursive panel splitting until each panel's value settles.

    Compares one panel against its bisection; splits where they disagree.
    Suited to integrands with localized stiffness (1/V near zero maturity).
    """
    def recurse(lo, hi, whole, depth):
        mid = 0.5 * (lo + hi)
        x1, w1 = mapped_rule(lo, mid, n_nodes)
        x2, w2 = mapped_rule(mid, hi, n_nodes)
        halves = f(np.concatenate([x1, x2]))        # f acts pointwise: one call for both
        left = float(halves[:n_nodes] @ w1)
        right = float(halves[n_nodes:] @ w2)
        # a non-finite panel never settles: return it rather than split to max_depth
        if depth >= max_depth or not math.isfinite(left + right) \
                or abs(left + right - whole) <= rtol * max(abs(left + right), 1e-300):
            return left + right
        return recurse(lo, mid, left, depth + 1) + recurse(mid, hi, right, depth + 1)

    if b == a:
        return 0.0
    x0, w0 = mapped_rule(a, b, n_nodes)
    return recurse(a, b, float(f(x0) @ w0), 0)
