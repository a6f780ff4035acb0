"""Gauss rules and the adaptive Gauss-Legendre rule the package integrates with."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

N_NODES = 15        # Gauss-Legendre points per panel of the adaptive rules
MAX_DEPTH = 14      # bisection levels before a panel is taken as it stands
RTOL = 1e-10        # relative agreement at which a panel's value has settled


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """Nodes and weights of the n-point rule on [-1, 1] (cached)."""
    return np.polynomial.legendre.leggauss(n)


def gauss_jacobi(n: int, beta: float):
    """Nodes and weights (summing to one) of the n-point rule for the weight
    (1 + x)^beta on [-1, 1], beta > -1, after Golub & Welsch (Math. Comp.
    23(106), 1969): the eigenvalues of the tridiagonal Jacobi matrix, and the
    squared first components of their eigenvectors."""
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + beta
    # the k = 0 entry of beta^2 / (s (s + 2)) is 0/0 at beta = 0: use its limit
    diag = np.concatenate([[beta / (beta + 2.0)], beta ** 2 / (s * (s + 2.0))])
    off = 2.0 * k * (k + beta) / (s * np.sqrt(s * s - 1.0))
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    weights = vectors[0] ** 2
    return nodes, weights / np.sum(weights)


def mapped_rule(a: float, b: float, n: int):
    """Nodes and weights of the n-point rule mapped to [a, b]."""
    z, w = gauss_legendre(n)
    half = 0.5 * (b - a)
    return a + half * (z + 1.0), half * w


def adaptive_panels(f, edges: np.ndarray) -> np.ndarray:
    """Adaptive Gauss-Legendre integrals over each panel [edges[i], edges[i + 1]]:
    a panel's value is compared against its bisection and split where they
    disagree, which suits integrands with localized stiffness (1/V near zero
    maturity). Every panel's top rule and first bisection come from one call
    of f on a 1-D array and one stacked dot, ``_settle``'s test runs on all
    panels at once, and only panels that do not settle there recurse."""
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    z, w = gauss_legendre(N_NODES)
    # mapped_rule's expressions, one (3, n) block per panel: the whole, left and right rules
    starts = (lo, lo, mid)
    halves = [0.5 * (b - a) for a, b in zip(starts, (hi, mid, hi))]
    x = np.stack([a[:, None] + h[:, None] * (z + 1.0)
                  for a, h in zip(starts, halves)], axis=1)
    wts = np.stack([h[:, None] * w for h in halves], axis=1)
    # a stacked (1, n) @ (n, 1) per rule: the 1-D ``@`` of its values and weights
    fx = f(x.ravel()).reshape(x.shape)
    whole, left, right = np.matmul(fx[..., None, :], wts[..., None])[..., 0, 0].T
    with np.errstate(over="ignore", invalid="ignore"):     # as Python floats would
        both = left + right
        settled = ~np.isfinite(both) | (np.abs(both - whole)
                                        <= RTOL * np.maximum(np.abs(both), 1e-300))
    out = np.where(hi != lo, both, 0.0)
    for i in np.flatnonzero(~settled & (hi != lo)).tolist():
        out[i] = _settle(f, lo[i], mid[i], hi[i], float(whole[i]), float(left[i]),
                         float(right[i]), 0)
    return out


def _bisect(f, lo, hi, whole, depth) -> float:
    """The panel [lo, hi] of value ``whole`` against its two halves."""
    n = N_NODES
    mid = 0.5 * (lo + hi)
    x1, w1 = mapped_rule(lo, mid, n)
    x2, w2 = mapped_rule(mid, hi, n)
    halves = f(np.concatenate([x1, x2]))        # f acts pointwise: one call for both
    return _settle(f, lo, mid, hi, whole, float(halves[:n] @ w1),
                   float(halves[n:] @ w2), depth)


def _settle(f, lo, mid, hi, whole, left, right, depth) -> float:
    """left + right once they agree with ``whole``, else each half split again."""
    # a non-finite panel never settles: return it rather than split to MAX_DEPTH
    if depth >= MAX_DEPTH or not math.isfinite(left + right) \
            or abs(left + right - whole) <= RTOL * max(abs(left + right), 1e-300):
        return left + right
    return _bisect(f, lo, mid, left, depth + 1) + _bisect(f, mid, hi, right, depth + 1)
