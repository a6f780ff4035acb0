"""Attenuation kernels along characteristics and derived model constants.

The survival-and-dilation factors picked up while flowing backward through
the resting and proliferating phases (``decay_table``, and ``xi`` directly)
are exponentials of path integrals of (death rate + V') along the flow. ``zeta``
couples the division kernel to the proliferating-phase attenuation of the
mother. The module also computes the Lipschitz constant of the
reintroduction mass flux and the margin of the invariance condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cubic import HermiteCubic
from .errors import ConfigurationError, DomainError
from .flow import FlowMap
from .params import ModelParams, scan_max
from .quadrature import RTOL, gauss_legendre

_PATH_POINTS_MAX = 2 ** 24   # quadrature points one _path_integral pass may hold


class CumulativeDecay:
    """Cumulative path-integral table in the log flow coordinate.

    For a rate field psi(m) >= 0 along the flow, stores
    Phi(u) = int_u^0 psi(h_inv(e^w)) dw so that the survival factor between
    x and x*e^(-t) is exp(Phi(ln x) - Phi(ln x - t)) for any t >= 0, exactly
    multiplicative along the flow by construction. Nodes carry exact slopes,
    so the Hermite interpolant is fourth order in the node spacing.
    """

    def __init__(self, psi_of_x: Callable, psi_at_zero: float, u_min: float):
        n = int(math.ceil(-u_min * 512.0)) + 1          # node spacing 1/512 in u
        u = np.linspace(u_min, 0.0, n)
        z, w = gauss_legendre(8)
        half = 0.5 * (u[1:] - u[:-1])
        mids = 0.5 * (u[1:] + u[:-1])
        pts = mids[:, None] + half[:, None] * z[None, :]
        vals = psi_of_x(np.exp(pts.ravel())).reshape(pts.shape)
        increments = (vals @ w) * half
        phi = np.concatenate([np.cumsum(increments[::-1])[::-1], [0.0]])
        slope = -psi_of_x(np.exp(u))
        if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(slope))):
            raise ConfigurationError("the decay rates overflow along the flow: the "
                                     "cumulative decay table is not finite")
        self._phi = HermiteCubic(u, phi, slope)
        self._u_min = u_min
        self._phi_floor = phi[0]
        self._slope_floor = slope[0]
        self.psi_at_zero = psi_at_zero

    def _phi_at(self, u):
        below = u < self._u_min
        if not below.any():
            return self._phi(u)
        inside = self._phi(np.maximum(u, self._u_min))
        return np.where(below, self._phi_floor + self._slope_floor * (u - self._u_min),
                        inside)

    def _anchor(self, x):
        """ln x, Phi(ln x) and where x is 0: the end points' share of the factor."""
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            u = np.log(np.maximum(x, 1e-300))
        return u, self._phi_at(u), x == 0.0

    def _log_survival(self, anchor, elapsed):
        u, phi_u, zero = anchor
        elapsed = np.asarray(elapsed, dtype=float)
        out = phi_u - self._phi_at(u - elapsed)
        if np.any(zero):
            out = np.where(zero, -self.psi_at_zero * elapsed, out)
        return out

    def log_survival(self, x, elapsed):
        """log of the attenuation over ``elapsed`` time ending at coordinate x."""
        return self._log_survival(self._anchor(x), elapsed)

    def survival(self, x, elapsed):
        return np.exp(self.log_survival(x, elapsed))

    def survival_to(self, x) -> Callable:
        """``survival(x, .)`` for end points x that stay fixed: ln x and Phi
        there are computed once, a call reads Phi only at ln x - elapsed."""
        anchor = self._anchor(x)
        return lambda elapsed: np.exp(self._log_survival(anchor, elapsed))


@dataclass
class InvarianceMargin:
    """Measured pieces of the invariance condition l*(2*(tau_u - tau_l)*zeta_tilde + 1) < I."""

    l: float
    I: float
    zeta_tilde: float
    lhs: float
    satisfied: bool
    verifiable: bool
    note: str = ""

    def to_dict(self):
        return {"l": self.l, "I": self.I, "zeta_tilde": self.zeta_tilde,
                "lhs": self.lhs, "satisfied": self.satisfied,
                "verifiable": self.verifiable, "note": self.note}


class Kernels:
    """Rate kernels bound to one model; pure after init."""

    def __init__(self, params: ModelParams):
        self.params = params
        self.flow = FlowMap(params.velocity, params.maturity)
        self._delta = params.rates.delta_fn()
        self._gamma = params.rates.gamma_fn()
        self._decay_cache: dict = {}
        self._margin: Optional[InvarianceMargin] = None     # sought on first use

    # -- pointwise ingredients ------------------------------------------------

    def beta(self, m, x):
        return self.params.reintroduction.rate(m, x)

    def k(self, m, a):
        return self.params.division.k(m, a, self.flow.g1)

    def psi_resting(self, m):
        m = np.asarray(m, dtype=float)
        return self._delta(m) + self.params.velocity.derivative(m)

    def psi_proliferating(self, m):
        m = np.asarray(m, dtype=float)
        return self._gamma(m) + self.params.velocity.derivative(m)

    # -- attenuation factors (direct quadrature) -------------------------------

    def _path_integral(self, psi: Callable, t: float, m):
        """int_0^t psi(pi_{-s}(m)) ds for scalar t and vector m.

        Composite Gauss-Legendre with one panel per unit time; the node
        count doubles from 32 up to 256 until the value settles to ``RTOL``.
        """
        n_cap = 256
        m = np.atleast_1d(np.asarray(m, dtype=float))
        if t == 0.0:
            return np.zeros(m.shape)
        if not max(t, 1.0) * n_cap * m.size <= _PATH_POINTS_MAX:
            raise DomainError(f"the path integral over t = {t:.6g} at {m.size} "
                              f"maturities needs more than {_PATH_POINTS_MAX} "
                              "quadrature points")
        log_x = self.flow.log_h(m)
        n_panels = max(1, int(math.ceil(t)))
        edges = np.linspace(0.0, t, n_panels + 1)

        def value(n_nodes):
            z, w = gauss_legendre(n_nodes)
            half = 0.5 * (edges[1:] - edges[:-1])
            s = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half[:, None] * z[None, :]
            s = s.ravel()                                    # (P*n,)
            m_s = self.flow.h_inv_log(log_x[None, :] - s[:, None])
            vals = psi(m_s)                                  # (P*n, M)
            wts = (np.tile(w, n_panels) * np.repeat(half, n_nodes))
            return wts @ vals

        n = 32
        prev = value(n)
        while n < n_cap:
            n *= 2
            cur = value(n)
            if np.max(np.abs(cur - prev)) <= RTOL * max(float(np.max(np.abs(cur))), 1e-30):
                return cur
            prev = cur
        return prev

    def xi(self, m, t: float):
        """Proliferating-phase attenuation over time t ending at maturity m."""
        if t < 0.0:
            raise DomainError("xi needs t >= 0")
        m_arr = np.asarray(m, dtype=float)
        if np.any(m_arr < 0.0) or np.any(m_arr > 1.0):
            raise DomainError("maturity must lie in [0, 1]")
        out = np.exp(-self._path_integral(self.psi_proliferating, float(t), m_arr))
        return float(out[0]) if np.ndim(m) == 0 else out

    def zeta(self, m, a):
        """k(m, a) * xi(g^-1(m), a) over m and a broadcast together: the division
        weight attenuated along the mother's phase. One inversion per call."""
        a_arr = np.asarray(a, dtype=float)
        lo, hi = self.params.tau_lower, self.params.tau_upper
        if np.any(a_arr < lo - 1e-12) or np.any(a_arr > hi + 1e-12):
            raise DomainError("division age must lie in [tau_lower, tau_upper]")
        m_arr = np.asarray(m, dtype=float)
        m_b, a_b, mothers = np.broadcast_arrays(m_arr, a_arr,
                                                self.flow.maturity.inverse(m_arr))
        flat_m, flat_a, mothers = m_b.ravel(), a_b.ravel(), mothers.ravel()
        out = np.empty(flat_m.shape)
        for av in np.unique(flat_a):
            sel = flat_a == av
            out[sel] = self.k(flat_m[sel], av) * self.xi(mothers[sel], float(av))
        return float(out[0]) if m_b.ndim == 0 else out.reshape(m_b.shape)

    # -- fast tables for the solver --------------------------------------------

    def decay_table(self, which: str, u_min: float) -> CumulativeDecay:
        """Cached cumulative table reaching down to log-coordinate u_min."""
        psi = self.psi_resting if which == "resting" else self.psi_proliferating
        u_q = -8.0 * math.ceil(max(8.0, -u_min) / 8.0) - 8.0
        key = (which, u_q)
        table = self._decay_cache.get(key)
        if table is None:
            psi_of_x = lambda x: psi(self.flow.h_inv(x))
            psi0 = float(psi(np.zeros(1))[0])
            table = CumulativeDecay(psi_of_x, psi0, u_q)
            self._decay_cache[key] = table
        return table

    # -- derived constants ------------------------------------------------------

    def lipschitz_l(self) -> float:
        """Lipschitz constant of x -> x*beta(m, x), uniform over m in [0, g(1)]."""
        return self.params.reintroduction.lipschitz(self.flow.g1)

    def invariance_margin(self) -> InvarianceMargin:
        """Evaluate the pieces of the invariance condition.

        I is the infimum of delta + V' on [0, g(1)] (scan plus golden-section
        polish); zeta_tilde the supremum of |zeta| on [0, g(1)] x
        [tau_lower, tau_upper] (scan plus local refinement). Computed once.
        """
        if self._margin is None:
            self._margin = self._invariance_margin()
        return self._margin

    def _invariance_margin(self) -> InvarianceMargin:
        g1 = self.flow.g1
        lo, hi = self.params.tau_lower, self.params.tau_upper
        n_m, n_a = 257, 65

        m = np.linspace(0.0, g1, n_m)
        # the minimum is the negated maximum of -psi (exact); tol 0 lets the
        # search run its full 80 steps
        I = -scan_max(lambda v: -self.psi_resting(v), m, max_iter=80, tol=0.0)

        def zeta_grid(ms, ages):
            return np.abs(self.zeta(ms[:, None], ages[None, :]))

        ages = np.linspace(lo, hi, n_a)
        grid = zeta_grid(m, ages)
        i0, j0 = np.unravel_index(int(np.argmax(grid)), grid.shape)
        m_fine = np.linspace(m[max(i0 - 1, 0)], m[min(i0 + 1, n_m - 1)], 17)
        a_fine = np.linspace(ages[max(j0 - 1, 0)], ages[min(j0 + 1, n_a - 1)], 9)
        zeta_tilde = max(float(np.max(grid)), float(np.max(zeta_grid(m_fine, a_fine))))

        l = self.lipschitz_l()
        lhs = l * (2.0 * (hi - lo) * zeta_tilde + 1.0)
        verifiable = I > 0.0
        note = "" if verifiable else "condition unverifiable: inf(delta + V') <= 0"
        return InvarianceMargin(l=l, I=I, zeta_tilde=zeta_tilde, lhs=lhs,
                                satisfied=bool(verifiable and lhs < I),
                                verifiable=verifiable, note=note)
