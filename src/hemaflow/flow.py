"""Exact maturation flow in conjugacy coordinates.

The backward flow ``pi_s(m) = h_inv(h(m) * e**s)`` (s <= 0) is evaluated
through the strictly increasing coordinate ``h(m) = exp(-int_m^1 ds/V)``,
where it reduces to multiplication. Each velocity law carries its own
coordinates (closed forms for a power law, a table built with a custom law);
this module checks their domains and builds the flow on them. The
division-ancestry map ``delta(s, m)`` pulls a daughter of maturity m back to
its mother's maturity s time units earlier.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import DomainError
from .params import MaturityMap, VelocityModel, package_law, scan_max

_EPS = 1e-12


def _maybe_scalar(out, *inputs):
    if all(np.ndim(x) == 0 for x in inputs):
        return float(out)
    return out


class FlowMap:
    """Flow coordinates bound to one velocity law and division map; all
    operations are pure."""

    def __init__(self, velocity: VelocityModel, maturity: MaturityMap):
        self.velocity = package_law(velocity, VelocityModel, "velocity")
        self.maturity = package_law(maturity, MaturityMap, "maturity")
        self.g1 = maturity.g1
        self._tau0: Optional[float] = None

    # -- coordinate maps ----------------------------------------------------

    def h(self, m):
        m_arr = np.asarray(m, dtype=float)
        if np.any(m_arr < -_EPS) or np.any(m_arr > 1.0 + _EPS):
            raise DomainError("maturity must lie in [0, 1]")
        return _maybe_scalar(self.velocity.h(np.clip(m_arr, 0.0, 1.0)), m)

    def log_h(self, m):
        m_arr = np.clip(np.asarray(m, dtype=float), 0.0, 1.0)
        return self.velocity.log_h(m_arr)

    def h_inv(self, x):
        x_arr = np.asarray(x, dtype=float)
        if np.any(x_arr < -_EPS) or np.any(x_arr > 1.0 + _EPS):
            raise DomainError("flow coordinate must lie in [0, 1]")
        return _maybe_scalar(self.velocity.h_inv(np.clip(x_arr, 0.0, 1.0)), x)

    def h_inv_log(self, log_x):
        return self.velocity.h_inv_log(log_x)

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
        out = self.velocity.h_inv_log(self.log_h(m_arr) + np.minimum(s_arr, 0.0))
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
        out = self.velocity.h_inv_log(self.log_h(mother) - np.maximum(s_arr, 0.0))
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
        finite, is taken as a diverging supremum and reads inf, which no
        tau_lower exceeds: the stem-cell uniqueness results need it finite.
        """
        if self._tau0 is None:
            grid = np.logspace(math.log10(self.g1 * 1e-12), math.log10(self.g1), 512)
            tau0 = scan_max(self.crossing_time, grid, max_iter=200, tol=1e-14)
            # a NaN or inf crossing time fails this too
            self._tau0 = tau0 if tau0 <= 100.0 else math.inf
        return self._tau0
