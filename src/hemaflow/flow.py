"""Exact maturation flow in conjugacy coordinates.

The backward flow ``pi_s(m) = h_inv(h(m) * e**s)`` (s <= 0) is evaluated
through the strictly increasing coordinate ``h(m) = exp(-int_m^1 ds/V)``,
where it reduces to multiplication. Power-law velocities admit closed forms
for ``h`` and its inverse; custom velocities are tabulated once by adaptive
quadrature. The division-ancestry map ``delta(s, m)`` pulls a daughter of
maturity m back to its mother's maturity s time units earlier.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .cubic import HermiteCubic
from .errors import ConfigurationError, DomainError
from .params import (CustomVelocity, MaturityMap, PowerLawVelocity,
                     VelocityModel, scan_max)
from .quadrature import adaptive_panels

_EPS = 1e-12
_TABLE_FLOOR, _TABLE_NODES = 1e-12, 4096     # a custom velocity's table: log-spaced m


def _maybe_scalar(out, *inputs):
    if all(np.ndim(x) == 0 for x in inputs):
        return float(out)
    return out


class _PowerLawCoords:
    """Closed-form h, h_inv for V = alpha * m**p (p >= 1)."""

    def __init__(self, alpha: float, p: float):
        self.alpha = alpha
        self.p = p

    def log_h(self, m):
        m = np.asarray(m, dtype=float)
        with np.errstate(divide="ignore"):
            if self.p == 1.0:
                return np.log(m) / self.alpha
            c = self.alpha * (self.p - 1.0)
            out = np.where(m > 0.0, -(m ** (1.0 - self.p) - 1.0) / c, -np.inf)
        return out

    def h(self, m):
        m = np.asarray(m, dtype=float)
        if self.p == 1.0:
            return m ** (1.0 / self.alpha)
        return np.exp(self.log_h(m))

    def h_inv(self, x):
        x = np.asarray(x, dtype=float)
        if self.p == 1.0:
            return x ** self.alpha
        c = self.alpha * (self.p - 1.0)
        with np.errstate(divide="ignore"):
            out = np.where(x > 0.0, (1.0 - c * np.log(np.maximum(x, 1e-300))) ** (-1.0 / (self.p - 1.0)), 0.0)
        return out

    def h_inv_log(self, log_x):
        """h_inv of exp(log_x); safe for very negative log_x."""
        log_x = np.asarray(log_x, dtype=float)
        if self.p == 1.0:
            return np.exp(self.alpha * log_x)
        c = self.alpha * (self.p - 1.0)
        return np.where(np.isfinite(log_x), (1.0 - c * log_x) ** (-1.0 / (self.p - 1.0)), 0.0)


class _TabulatedCoords:
    """Quadrature-backed h, h_inv for a custom velocity.

    W(m) = int_m^1 ds/V is accumulated over log-spaced panels by adaptive
    15-point Gauss-Legendre (every panel's first two levels in one call of V)
    and stored as a Hermite spline in u = ln m
    (slopes -m/V(m) are exact). The inverse is a second Hermite spline of
    u against W. Below the table floor both directions extrapolate with the
    local slope, which is first-order exact when V is asymptotically linear.
    """

    def __init__(self, velocity: CustomVelocity):
        m_tab = np.logspace(math.log10(_TABLE_FLOOR), 0.0, _TABLE_NODES)
        # a V that underflows makes 1/V inf; the check below raises on it
        with np.errstate(divide="ignore", over="ignore"):
            increments = adaptive_panels(lambda s: 1.0 / velocity(s), m_tab)
        w_tab = np.concatenate([[0.0], np.cumsum(increments[::-1])])[::-1]
        self._screen(w_tab, m_tab)
        u_tab = np.log(m_tab)
        slope = -m_tab / velocity(m_tab)            # dW/du, strictly negative
        order = np.argsort(w_tab)                   # W decreasing in u
        if not (np.isfinite([w_tab, slope, 1.0 / slope]).all()
                and (np.diff(w_tab[order]) > 0.0).all()):
            raise ConfigurationError("custom velocity: the flow-coordinate table is not "
                                     f"finite; V must be finite and positive on [{_TABLE_FLOOR:g}, 1]")
        self._w_of_u = HermiteCubic(u_tab, w_tab, slope)
        self._u_of_w = HermiteCubic(w_tab[order], u_tab[order], 1.0 / slope[order])
        self._u_min, self._u_max = u_tab[0], u_tab[-1]
        self._w_at_floor = w_tab[0]
        self._floor_slope = slope[0]

    def _screen(self, w_tab, m_tab):
        # divergence screen (it cannot be proved, only screened): int ds/V must
        # grow over eps in [1e-10, 1e-8] by at least 0.8 of its growth over
        # [1e-8, 1e-6]. That ratio is 1 for V ~ alpha*m whatever alpha, and
        # 100**(p - 1) for V ~ m**p, so p below about 0.95 is refused.
        deep, near = -np.diff(np.interp(np.log([1e-10, 1e-8, 1e-6]), np.log(m_tab), w_tab))
        if not deep >= 0.8 * near:
            raise ConfigurationError(
                "custom velocity fails the divergence screen near m = 0: "
                f"int ds/V grew by only {deep:.3g} over eps in [1e-10, 1e-8], against "
                f"{near:.3g} over [1e-8, 1e-6]; zero maturity must be unreachable "
                "(int_0 ds/V = inf)")

    def _w(self, u):
        u = np.asarray(u, dtype=float)
        inside = np.clip(u, self._u_min, self._u_max)
        out = self._w_of_u(inside)
        below = u < self._u_min
        if np.any(below):
            out = np.where(below, self._w_at_floor + self._floor_slope * (u - self._u_min), out)
        return out

    def log_h(self, m):
        m = np.asarray(m, dtype=float)
        with np.errstate(divide="ignore"):
            u = np.log(np.maximum(m, 1e-300))
        return np.where(m > 0.0, -self._w(u), -np.inf)

    def h(self, m):
        return np.exp(self.log_h(m))

    def h_inv_log(self, log_x):
        log_x = np.asarray(log_x, dtype=float)
        finite = np.isfinite(log_x)
        every = finite.all()                # then neither where below is needed
        w_target = -log_x if every else -np.where(finite, log_x, np.inf)
        w_lo, w_hi = 0.0, self._w_at_floor
        inside = np.clip(w_target, w_lo, w_hi)
        u = self._u_of_w(inside)
        deep = w_target > w_hi
        if np.any(deep):
            u = np.where(deep, self._u_min + (w_target - w_hi) / self._floor_slope, u)
        out = np.exp(u)
        return np.asarray(out) if every else np.where(finite, out, 0.0)

    def h_inv(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            log_x = np.log(np.maximum(x, 1e-300))
        return np.where(x > 0.0, self.h_inv_log(log_x), 0.0)


class FlowMap:
    """Flow coordinates bound to one velocity model and division map.

    All operations are pure; for a custom velocity the lookup table is built
    once here.
    """

    def __init__(self, velocity: VelocityModel, maturity: MaturityMap):
        self.velocity = velocity
        self.maturity = maturity
        self.g1 = maturity.g1
        if isinstance(velocity, PowerLawVelocity):
            self._coords = _PowerLawCoords(velocity.alpha, velocity.p)
        else:
            self._coords = _TabulatedCoords(velocity)
        self._tau0: Optional[float] = None
        self._check_conjugacy()

    def _check_conjugacy(self):
        # log-coordinate round trip: immune to underflow of h itself, which
        # reaches the double floor already at moderate m when p > 1
        m = np.linspace(1e-8, 1.0, 65)
        err = np.max(np.abs(self._coords.h_inv_log(self._coords.log_h(m)) - m))
        tol = 1e-10 if isinstance(self.velocity, PowerLawVelocity) else 1e-7
        if not err <= tol:
            raise ConfigurationError(
                f"flow coordinate round-trip error {err:.2e} exceeds {tol:.0e}")

    # -- coordinate maps ----------------------------------------------------

    def h(self, m):
        m_arr = np.asarray(m, dtype=float)
        if np.any(m_arr < -_EPS) or np.any(m_arr > 1.0 + _EPS):
            raise DomainError("maturity must lie in [0, 1]")
        return _maybe_scalar(self._coords.h(np.clip(m_arr, 0.0, 1.0)), m)

    def log_h(self, m):
        m_arr = np.clip(np.asarray(m, dtype=float), 0.0, 1.0)
        return self._coords.log_h(m_arr)

    def h_inv(self, x):
        x_arr = np.asarray(x, dtype=float)
        if np.any(x_arr < -_EPS) or np.any(x_arr > 1.0 + _EPS):
            raise DomainError("flow coordinate must lie in [0, 1]")
        return _maybe_scalar(self._coords.h_inv(np.clip(x_arr, 0.0, 1.0)), x)

    def h_inv_log(self, log_x):
        return self._coords.h_inv_log(log_x)

    # -- flow and ancestry ---------------------------------------------------

    def pi(self, s, m):
        """Maturity at time s <= 0 of a cell reaching maturity m at time 0."""
        s_arr = np.asarray(s, dtype=float)
        m_arr = np.asarray(m, dtype=float)
        if np.any(s_arr > _EPS):
            raise DomainError("pi is the backward flow: s must be <= 0")
        if np.any(m_arr < -_EPS) or np.any(m_arr > 1.0 + _EPS):
            raise DomainError("maturity must lie in [0, 1]")
        m_arr = np.clip(m_arr, 0.0, 1.0)
        out = self._coords.h_inv_log(self.log_h(m_arr) + np.minimum(s_arr, 0.0))
        out = np.where(m_arr == 0.0, 0.0, out)
        return _maybe_scalar(out, s, m)

    def delta(self, s, m):
        """Maturity, s >= 0 time units ago, of the mother of a cell now at m."""
        s_arr = np.asarray(s, dtype=float)
        m_arr = np.asarray(m, dtype=float)
        if np.any(s_arr < -_EPS):
            raise DomainError("ancestry time s must be >= 0")
        if np.any(m_arr < -_EPS) or np.any(m_arr > self.g1 + _EPS):
            raise DomainError("daughter maturity must lie in [0, g(1)]")
        m_arr = np.clip(m_arr, 0.0, self.g1)
        mother = self.maturity.inverse(m_arr)
        out = self._coords.h_inv_log(self.log_h(mother) - np.maximum(s_arr, 0.0))
        out = np.where(m_arr == 0.0, 0.0, out)
        return _maybe_scalar(out, s, m)

    def crossing_time(self, m):
        """Time for maturity to grow from m to g^-1(m); delta(s, m) < m iff s exceeds it."""
        m_arr = np.asarray(m, dtype=float)
        if np.any(m_arr <= 0.0) or np.any(m_arr > self.g1 + _EPS):
            raise DomainError("crossing_time needs m in (0, g(1)]")
        m_arr = np.minimum(m_arr, self.g1)
        out = self.log_h(self.maturity.inverse(m_arr)) - self.log_h(m_arr)
        return _maybe_scalar(out, m)

    def tau0(self) -> float:
        """Supremum over (0, g(1)] of the crossing time.

        Scans 512 log-spaced maturities and polishes the best bracket by
        golden-section search (``scan_max``). A result beyond 100, or not
        finite, is treated as a diverging supremum and rejected: the stem-cell
        uniqueness results need this supremum finite.
        """
        if self._tau0 is not None:
            return self._tau0
        cap = 100.0
        grid = np.logspace(math.log10(self.g1 * 1e-12), math.log10(self.g1), 512)
        tau0 = scan_max(self.crossing_time, grid, max_iter=200, tol=1e-14)
        if not tau0 <= cap:         # a NaN or inf crossing time fails this too
            raise ConfigurationError(
                "crossing-time supremum appears unbounded "
                f"(exceeds {cap} within the scan); tau0 undefined")
        self._tau0 = tau0
        return tau0
