"""Gauss-Legendre quadrature helpers used throughout the package."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

N_NODES = 15        # Gauss-Legendre points per panel of the adaptive rules
MAX_DEPTH = 14      # bisection levels before a panel is taken as it stands


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


def adaptive_interval(f, a: float, b: float, *, n_nodes: int = N_NODES,
                      rtol: float = 1e-10, max_depth: int = MAX_DEPTH) -> float:
    """Recursive panel splitting until each panel's value settles.

    Compares one panel against its bisection; splits where they disagree.
    Suited to integrands with localized stiffness (1/V near zero maturity).
    """
    if b == a:
        return 0.0
    x0, w0 = mapped_rule(a, b, n_nodes)
    return _bisect(f, a, b, float(f(x0) @ w0), 0, n_nodes, rtol, max_depth)


def adaptive_panels(f, edges: np.ndarray, *, rtol: float = 1e-10) -> np.ndarray:
    """``adaptive_interval`` (default nodes and depth) over each panel
    [edges[i], edges[i + 1]], bit for bit: every panel's top rule and first
    bisection come from one call of f on a 1-D array, and only panels that do
    not settle there recurse."""
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    n = N_NODES
    z, w = gauss_legendre(n)
    # mapped_rule's expressions, one row per panel: the whole, left and right rules
    starts = (lo, lo, mid)
    halves = [0.5 * (b - a) for a, b in zip(starts, (hi, mid, hi))]
    x = np.concatenate([a[:, None] + h[:, None] * (z + 1.0)
                        for a, h in zip(starts, halves)], axis=1)
    wts = np.concatenate([h[:, None] * w for h in halves], axis=1)
    fx = f(x.ravel()).reshape(x.shape)
    out = np.zeros(lo.size)
    for i in np.flatnonzero(hi != lo).tolist():
        fi, wi = fx[i], wts[i]
        out[i] = _settle(f, lo[i], mid[i], hi[i], float(fi[:n] @ wi[:n]),
                         float(fi[n:2 * n] @ wi[n:2 * n]), float(fi[2 * n:] @ wi[2 * n:]),
                         0, n, rtol, MAX_DEPTH)
    return out


def _bisect(f, lo, hi, whole, depth, n, rtol, max_depth) -> float:
    """The panel [lo, hi] of value ``whole`` against its two halves."""
    mid = 0.5 * (lo + hi)
    x1, w1 = mapped_rule(lo, mid, n)
    x2, w2 = mapped_rule(mid, hi, n)
    halves = f(np.concatenate([x1, x2]))        # f acts pointwise: one call for both
    return _settle(f, lo, mid, hi, whole, float(halves[:n] @ w1),
                   float(halves[n:] @ w2), depth, n, rtol, max_depth)


def _settle(f, lo, mid, hi, whole, left, right, depth, n, rtol, max_depth) -> float:
    """left + right once they agree with ``whole``, else each half split again."""
    # a non-finite panel never settles: return it rather than split to max_depth
    if depth >= max_depth or not math.isfinite(left + right) \
            or abs(left + right - whole) <= rtol * max(abs(left + right), 1e-300):
        return left + right
    return (_bisect(f, lo, mid, left, depth + 1, n, rtol, max_depth)
            + _bisect(f, mid, hi, right, depth + 1, n, rtol, max_depth))
