"""Model ingredients: maturation velocity, division map, rates, and kernels.

Each part checks itself when it is built and describes itself for the model
digest. A velocity law also carries its flow coordinates h(m) =
exp(-int_m^1 ds/V): in closed form for a power law, tabulated once by
adaptive quadrature for a custom velocity. The maps built on them live in
:mod:`hemaflow.flow`, the attenuation integrals in :mod:`hemaflow.kernels`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union, get_args

import numpy as np

from .cubic import HermiteCubic
from .errors import ConfigurationError
from .quadrature import adaptive_panels

ScalarField = Union[float, Callable]


def fit_shape(values, shape) -> np.ndarray:
    """``values`` as floats of exactly ``shape``: broadcast (into a fresh
    array) only when a callable returned a smaller shape, such as a scalar."""
    out = np.asarray(values, dtype=float)
    return out if out.shape == shape else np.broadcast_to(out, shape).copy()


def as_field(f: ScalarField) -> Callable:
    """Normalize a constant or callable into a vectorized callable."""
    if callable(f):
        def wrapped(m):
            m = np.asarray(m, dtype=float)
            return fit_shape(f(m), m.shape)
        return wrapped
    value = float(f)

    def const(m):
        m = np.asarray(m, dtype=float)
        return np.full(m.shape, value)
    return const


def _describe_field(f: ScalarField):
    if callable(f):
        return getattr(f, "__qualname__", None) or repr(f)
    return float(f)


_DIGEST_M = np.linspace(0.0, 1.0, 257)      # the maturities a custom law's digest reads


def _values_digest(f: Callable) -> str:
    """Hash of f's values at ``_DIGEST_M``: a custom velocity or map describes
    itself by its own numbers, so distinct tables differ and equal ones agree."""
    return hashlib.sha256(np.asarray(f(_DIGEST_M), dtype=float).tobytes()).hexdigest()[:16]


def _smoothstep(x):
    x = np.clip(x, 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x)


# ---------------------------------------------------------------------------
# maturation velocity
# ---------------------------------------------------------------------------

def _check_round_trip(law, tol: float) -> None:
    """Refuse a law whose flow coordinates do not invert to ``tol``: the
    log-coordinate round trip, immune to underflow of h itself, which
    reaches the double floor already at moderate m when p > 1."""
    m = np.linspace(1e-8, 1.0, 65)
    err = np.max(np.abs(law.h_inv_log(law.log_h(m)) - m))
    if not err <= tol:
        raise ConfigurationError(
            f"flow coordinate round-trip error {err:.2e} exceeds {tol:.0e}")


@dataclass(frozen=True)
class PowerLawVelocity:
    """V(m) = alpha * m**p with alpha > 0 and p >= 1, with the closed-form
    flow coordinates h(m) = exp(-int_m^1 ds/V) and their inverse.

    For p >= 1 the time to reach any positive maturity from zero diverges,
    so the zero-maturity state is never left; no numerical screening needed.
    """

    alpha: float
    p: float = 1.0

    def __post_init__(self):
        if not (self.alpha > 0.0):
            raise ConfigurationError("velocity.alpha must be > 0")
        if not (self.p >= 1.0):
            raise ConfigurationError("velocity.p must be >= 1")
        validate_velocity(self)
        _check_round_trip(self, 1e-10)

    def __call__(self, m):
        m = np.asarray(m, dtype=float)
        return self.alpha * m ** self.p

    def derivative(self, m):
        m = np.asarray(m, dtype=float)
        if self.p == 1.0:
            return np.full(m.shape, self.alpha)
        return self.alpha * self.p * m ** (self.p - 1.0)

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

    def describe(self):
        return {"kind": "power_law", "alpha": self.alpha, "p": self.p}


_TABLE_FLOOR, _TABLE_NODES = 1e-12, 4096     # a custom velocity's table: log-spaced m


@dataclass(frozen=True)
class CustomVelocity:
    """User-supplied velocity with its derivative, and its flow coordinates
    tabulated once, when the law is built.

    Must satisfy V(0) = 0 and V > 0 on (0, 1]. W(m) = int_m^1 ds/V is
    accumulated over log-spaced panels by adaptive 15-point Gauss-Legendre
    (every panel's first two levels in one call of V) and stored as a
    Hermite spline in u = ln m (slopes -m/V(m) are exact); the inverse is a
    second Hermite spline of u against W. Below the table floor both
    directions extrapolate with the local slope, which is first-order exact
    when V is asymptotically linear. The divergence of W near zero is
    screened on the table; it cannot be certified, only screened.
    """

    V: Callable
    V_prime: Callable
    name: str = "custom"
    # the table's two splines, its u range, and W and dW/du at the floor
    _w_of_u: HermiteCubic = field(init=False, repr=False, compare=False)
    _u_of_w: HermiteCubic = field(init=False, repr=False, compare=False)
    _u_min: float = field(init=False, repr=False, compare=False)
    _u_max: float = field(init=False, repr=False, compare=False)
    _w_at_floor: float = field(init=False, repr=False, compare=False)
    _floor_slope: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        validate_velocity(self)
        m_tab = np.logspace(math.log10(_TABLE_FLOOR), 0.0, _TABLE_NODES)
        # a V that underflows makes 1/V inf; the check below raises on it
        with np.errstate(divide="ignore", over="ignore"):
            increments = adaptive_panels(lambda s: 1.0 / self(s), m_tab)
        w_tab = np.concatenate([[0.0], np.cumsum(increments[::-1])])[::-1]
        self._screen(w_tab, m_tab)
        u_tab = np.log(m_tab)
        slope = -m_tab / self(m_tab)                # dW/du, strictly negative
        order = np.argsort(w_tab)                   # W decreasing in u
        if not (np.isfinite([w_tab, slope, 1.0 / slope]).all()
                and (np.diff(w_tab[order]) > 0.0).all()):
            raise ConfigurationError("custom velocity: the flow-coordinate table is not "
                                     f"finite; V must be finite and positive on [{_TABLE_FLOOR:g}, 1]")
        built = {"_w_of_u": HermiteCubic(u_tab, w_tab, slope),
                 "_u_of_w": HermiteCubic(w_tab[order], u_tab[order], 1.0 / slope[order]),
                 "_u_min": u_tab[0], "_u_max": u_tab[-1],
                 "_w_at_floor": w_tab[0], "_floor_slope": slope[0]}
        for name, value in built.items():
            object.__setattr__(self, name, value)
        _check_round_trip(self, 1e-7)

    @staticmethod
    def _screen(w_tab, m_tab):
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

    def __call__(self, m):
        m = np.asarray(m, dtype=float)
        return fit_shape(self.V(m), m.shape)

    def derivative(self, m):
        m = np.asarray(m, dtype=float)
        return fit_shape(self.V_prime(m), m.shape)

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

    def describe(self):
        return {"kind": "custom", "name": self.name, "values": _values_digest(self)}


VelocityModel = Union[PowerLawVelocity, CustomVelocity]


def velocity_law(v) -> VelocityModel:
    """``v`` if it is one of the two laws, the only velocities that carry
    flow coordinates; any other object is refused by its type's name."""
    if not isinstance(v, get_args(VelocityModel)):
        raise ConfigurationError("the velocity must be a PowerLawVelocity or a "
                                 f"CustomVelocity, not {type(v).__name__}")
    return v


def validate_velocity(v: VelocityModel) -> None:
    if abs(float(np.asarray(v(0.0)))) > 1e-12:
        raise ConfigurationError("velocity must vanish at m = 0")
    samples = np.linspace(1e-6, 1.0, 257)
    if np.any(v(samples) <= 0.0):
        raise ConfigurationError("velocity must be positive on (0, 1]")


# ---------------------------------------------------------------------------
# division maturity map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearMaturityMap:
    """g(m) = c*m: a daughter is born at fraction c of the mother's maturity."""

    c: float

    def __post_init__(self):
        if not (0.0 < self.c < 1.0):
            raise ConfigurationError("maturity map fraction c must lie in (0, 1)")
        validate_maturity_map(self)

    @property
    def g1(self) -> float:
        return self.c

    def __call__(self, m):
        return self.c * np.asarray(m, dtype=float)

    def inverse(self, y):
        """Mother maturity for daughter maturity y, extended by 1 above g(1)."""
        y = np.asarray(y, dtype=float)
        return np.minimum(y / self.c, 1.0)

    def describe(self):
        return {"kind": "linear", "c": self.c}


_ONE_BITS = np.float64(1.0).view(np.int64)     # the order of the float 1.0


@dataclass(frozen=True)
class CustomMaturityMap:
    """User-supplied strictly increasing g with g(m) < m on (0, 1), inverted here."""

    g: Callable
    name: str = "custom"

    def __post_init__(self):
        validate_maturity_map(self)

    @property
    def g1(self) -> float:
        return float(np.asarray(self.g(1.0)))

    def __call__(self, m):
        m = np.asarray(m, dtype=float)
        return fit_shape(self.g(m), m.shape)

    def inverse(self, y):
        """Mother maturity for daughter maturity y: the least float m in (0, 1]
        with g(m) >= y, 0 at y <= 0, 1 above g(1). Bisects on the floats' order
        (their int64 view), one call of g per halving, exact at any magnitude."""
        y = np.asarray(y, dtype=float)
        lo = np.zeros(y.shape, dtype=np.int64)       # g(lo) < y
        hi = np.full(y.shape, _ONE_BITS)             # g(hi) >= y, for y <= g(1)
        while (hi - lo > 1).any():
            mid = lo + (hi - lo) // 2
            up = self(mid.view(np.float64)) >= y
            lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
        return np.where(y > 0.0, np.where(y > self.g1, 1.0, hi.view(np.float64)), 0.0)

    def describe(self):
        return {"kind": "custom", "name": self.name, "values": _values_digest(self)}


MaturityMap = Union[LinearMaturityMap, CustomMaturityMap]


def validate_maturity_map(g: MaturityMap) -> None:
    """Screen g on 513 nodes of [0, 1]. Its inverse needs no check: a custom
    map computes it from g, and the linear map's is closed-form."""
    g1 = g.g1
    if not (0.0 < g1 < 1.0):
        raise ConfigurationError("g(1) must lie strictly inside (0, 1)")
    m = np.linspace(0.0, 1.0, 513)
    vals = g(m)
    if np.any(np.diff(vals) <= 0.0):
        raise ConfigurationError("g must be strictly increasing on [0, 1]")
    interior = m[1:-1]
    if np.any(g(interior) >= interior):
        raise ConfigurationError("g(m) < m must hold on (0, 1)")
    if abs(float(np.asarray(g(0.0)))) > 1e-12:
        raise ConfigurationError("g(0) must be 0")


# ---------------------------------------------------------------------------
# mortality rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFunctions:
    """Resting-phase death rate delta(m) and proliferating-phase rate gamma(m)."""

    delta: ScalarField = 0.0
    gamma: ScalarField = 0.0

    def __post_init__(self):
        self.validate()

    def delta_fn(self) -> Callable:
        return as_field(self.delta)

    def gamma_fn(self) -> Callable:
        return as_field(self.gamma)

    def validate(self) -> None:
        m = np.linspace(0.0, 1.0, 257)
        for key, rate in (("delta", self.delta_fn()), ("gamma", self.gamma_fn())):
            if np.any(rate(m) < 0.0):
                raise ConfigurationError(f"{key} must be nonnegative on [0, 1]", key=key)

    def describe(self):
        return {"delta": _describe_field(self.delta), "gamma": _describe_field(self.gamma)}


# ---------------------------------------------------------------------------
# reintroduction law  beta(m, N)
# ---------------------------------------------------------------------------

_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)


def golden_section_max(f: Callable, a: float, b: float, *, max_iter: int,
                       tol: float) -> float:
    """Polish a maximum of the scalar function f inside the bracket [a, b].

    Golden-section search for at most ``max_iter`` steps, stopping early once
    the bracket is narrower than ``tol * max(1, |b|)``. Returns the larger of
    the two final probe values; minimise by passing -f and negating.
    """
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        if b - a < tol * max(1.0, abs(b)):
            break
    return max(fc, fd)


def scan_max(f: Callable, grid: np.ndarray, *, max_iter: int, tol: float) -> float:
    """Maximum of f, vectorized over the 1-D array ``grid``: the best grid
    value, or the golden-section polish of the bracket around the best node
    (``golden_section_max`` with ``max_iter`` and ``tol``) if that is larger."""
    vals = f(grid)
    j = int(np.argmax(vals))
    polished = golden_section_max(lambda v: float(f(v)), grid[max(j - 1, 0)],
                                  grid[min(j + 1, grid.size - 1)],
                                  max_iter=max_iter, tol=tol)
    return max(float(np.max(vals)), polished)


def _max_field(f: Callable, lo: float, hi: float) -> float:
    return scan_max(f, np.linspace(lo, hi, 2049), max_iter=80, tol=1e-13)


def probe_reintroduction(law) -> None:
    """Refuse a law whose rate is not finite, not nonnegative or not
    nonincreasing in the population, on 65 maturities at five levels."""
    m = np.linspace(0.0, 1.0, 65)
    levels = np.array([0.0, 0.5, 1.0, 4.0, 20.0])
    vals = np.stack([law.rate(m, np.full(m.shape, x)) for x in levels])
    if not np.all(np.isfinite(vals)):
        raise ConfigurationError("beta must be finite")
    if np.any(vals < 0.0):
        raise ConfigurationError("beta must be nonnegative")
    if np.any(np.diff(vals, axis=0) > 1e-12):
        raise ConfigurationError(
            "beta must be nonincreasing in the population argument")


@dataclass(frozen=True)
class HillReintroduction:
    """beta(m, N) = beta0(m) * theta^n / (theta^n + N^n).

    The standard saturable reintroduction law: decreasing in N, with an
    analytic Lipschitz constant for x -> x*beta(m, x).
    """

    beta0: ScalarField = 1.0
    theta: float = 1.0
    n: float = 1.0
    # as_field(beta0) and theta^n, computed once for rate
    _beta0: Callable = field(init=False, repr=False, compare=False)
    _tn: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.theta > 0.0):
            raise ConfigurationError("beta.theta must be > 0")
        if not (self.n >= 1.0):
            raise ConfigurationError("beta.n must be >= 1")
        try:
            self.theta ** self.n + (self.n - 1.0) ** 2
        except OverflowError:
            raise ConfigurationError("beta.n is too large: theta^n or the Lipschitz "
                                     "bound (n - 1)^2 / 4n overflows")
        object.__setattr__(self, "_beta0", as_field(self.beta0))
        object.__setattr__(self, "_tn", self.theta ** self.n)
        probe_reintroduction(self)

    def rate(self, m, x):
        m = np.asarray(m, dtype=float)
        x = np.maximum(np.asarray(x, dtype=float), 0.0)
        tn = self._tn
        return self._beta0(m) * tn / (tn + x ** self.n)

    def lipschitz(self, g1: float) -> float:
        b0 = _max_field(as_field(self.beta0), 0.0, g1)
        n = self.n
        # sup_x |d/dx (x/(1+x^n))| is 1 at x=0, or (n-1)^2/(4n) at the
        # interior dip when n exceeds 3 + 2*sqrt(2)
        shape = max(1.0, (n - 1.0) ** 2 / (4.0 * n))
        return b0 * shape

    def describe(self):
        return {"kind": "hill", "beta0": _describe_field(self.beta0),
                "theta": self.theta, "n": self.n}


@dataclass(frozen=True)
class ConstantReintroduction:
    """beta(m, N) = beta0(m), independent of the population."""

    beta0: ScalarField = 0.0

    def __post_init__(self):
        probe_reintroduction(self)

    def rate(self, m, x):
        m = np.asarray(m, dtype=float)
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(as_field(self.beta0)(m), np.broadcast_shapes(m.shape, x.shape)).copy()

    def lipschitz(self, g1: float) -> float:
        return _max_field(as_field(self.beta0), 0.0, g1)

    def describe(self):
        return {"kind": "constant", "beta0": _describe_field(self.beta0)}


@dataclass(frozen=True)
class CustomReintroduction:
    """Arbitrary beta(m, N); the Lipschitz constant of x*beta must be declared."""

    fn: Callable
    lipschitz_bound: Optional[float] = None
    name: str = "custom"

    def __post_init__(self):
        probe_reintroduction(self)

    def rate(self, m, x):
        m = np.asarray(m, dtype=float)
        x = np.maximum(np.asarray(x, dtype=float), 0.0)
        return fit_shape(self.fn(m, x), np.broadcast_shapes(m.shape, x.shape))

    def lipschitz(self, g1: float) -> float:
        if self.lipschitz_bound is None:
            raise ConfigurationError(
                "custom reintroduction law needs a declared Lipschitz constant")
        return float(self.lipschitz_bound)

    def describe(self):
        return {"kind": "custom", "name": self.name,
                "lipschitz_bound": self.lipschitz_bound}


# a law gives rate(m, x) = beta(m, x) and lipschitz(g1), the global Lipschitz
# constant of x -> x*beta(m, x) over m in [0, g1]
ReintroductionLaw = Union[HillReintroduction, ConstantReintroduction, CustomReintroduction]


# ---------------------------------------------------------------------------
# division kernel  k(m, a) on [0,1] x [tau_lower, tau_upper]
# ---------------------------------------------------------------------------

def _check_delays(tau_lower, tau_upper):
    if not (0.0 < tau_lower < tau_upper < np.inf):
        raise ConfigurationError(
            "division delays must satisfy 0 < tau_lower < tau_upper < inf "
            f"(got {tau_lower}, {tau_upper})")


class _TaperedSeparable:
    """k(m, a) = kappa(m) * age_weight(a), with kappa cut to zero at g(1) by a
    C1 taper over the trailing ``taper`` fraction of [0, g(1)] so that k
    stays continuous."""

    def __post_init__(self):
        _check_delays(self.tau_lower, self.tau_upper)
        if not (0.0 < self.taper < 1.0):
            raise ConfigurationError("kernel taper fraction must lie in (0, 1)")

    def maturity_weight(self, m, g1: float):
        m = np.asarray(m, dtype=float)
        raw = as_field(self.kappa)(m)
        m0 = g1 * (1.0 - self.taper)
        fade = 1.0 - _smoothstep((m - m0) / (g1 - m0))
        return np.where(m >= g1, 0.0, raw * fade)

    def k(self, m, a, g1: float):
        return self.maturity_weight(m, g1) * self.age_weight(a)


@dataclass(frozen=True)
class SeparableUniformKernel(_TaperedSeparable):
    """k(m, a) = kappa(m) / (tau_upper - tau_lower), age-uniform."""

    tau_lower: float
    tau_upper: float
    kappa: ScalarField = 1.0
    taper: float = 0.02

    def age_weight(self, a):
        a = np.asarray(a, dtype=float)
        return np.full(a.shape, 1.0 / (self.tau_upper - self.tau_lower))

    def describe(self):
        return {"kind": "separable_uniform", "kappa": _describe_field(self.kappa),
                "taper": self.taper, "tau_lower": self.tau_lower,
                "tau_upper": self.tau_upper}


@dataclass(frozen=True)
class SeparableKernel(_TaperedSeparable):
    """k(m, a) = kappa(m) * rho(a) with a caller-chosen age density rho."""

    tau_lower: float
    tau_upper: float
    kappa: ScalarField
    age_density: Callable
    taper: float = 0.02

    def age_weight(self, a):
        a = np.asarray(a, dtype=float)
        return fit_shape(self.age_density(a), a.shape)

    def describe(self):
        return {"kind": "separable", "kappa": _describe_field(self.kappa),
                "taper": self.taper, "tau_lower": self.tau_lower,
                "tau_upper": self.tau_upper}


@dataclass(frozen=True)
class CustomDivisionKernel:
    """Arbitrary continuous k(m, a); forced to zero for m >= g(1)."""

    tau_lower: float
    tau_upper: float
    fn: Callable = None
    name: str = "custom"

    def __post_init__(self):
        _check_delays(self.tau_lower, self.tau_upper)
        if self.fn is None:
            raise ConfigurationError("custom division kernel needs a callable")

    def k(self, m, a, g1: float):
        m = np.asarray(m, dtype=float)
        a = np.asarray(a, dtype=float)
        shape = np.broadcast_shapes(m.shape, a.shape)
        out = fit_shape(self.fn(m, a), shape)
        return np.where(np.broadcast_to(m, shape) >= g1, 0.0, out)

    def describe(self):
        return {"kind": "custom", "name": self.name,
                "tau_lower": self.tau_lower, "tau_upper": self.tau_upper}


DivisionKernel = Union[SeparableUniformKernel, SeparableKernel, CustomDivisionKernel]


# ---------------------------------------------------------------------------
# the assembled model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelParams:
    """Everything that defines one model instance."""

    velocity: VelocityModel
    maturity: MaturityMap
    rates: RateFunctions = field(default_factory=RateFunctions)
    reintroduction: ReintroductionLaw = field(default_factory=lambda: ConstantReintroduction(0.0))
    division: DivisionKernel = None

    def __post_init__(self):
        if self.division is None:
            raise ConfigurationError("a division kernel (with its delays) is required")
        velocity_law(self.velocity)
        # the package's parts check themselves when built; any other object
        # given for a part is checked here
        if not isinstance(self.maturity, get_args(MaturityMap)):
            validate_maturity_map(self.maturity)
        if not isinstance(self.rates, RateFunctions):
            self.rates.validate()
        if not isinstance(self.reintroduction, get_args(ReintroductionLaw)):
            probe_reintroduction(self.reintroduction)
        self._probe_division()

    def _probe_division(self):
        # the one check that reads two parts: k on [0, g(1)]
        g1 = self.maturity.g1
        m = np.linspace(0.0, 1.0, 65)
        ages = np.linspace(self.tau_lower, self.tau_upper, 17)
        vals = self.division.k(m[None, :], ages[:, None], g1)
        if np.any(vals < 0.0):
            raise ConfigurationError("division kernel k must be nonnegative", key="k")
        if np.any(np.abs(vals[:, m >= g1]) > 0.0):
            raise ConfigurationError("division kernel k must vanish for m >= g(1)", key="k")

    @property
    def tau_lower(self) -> float:
        return self.division.tau_lower

    @property
    def tau_upper(self) -> float:
        return self.division.tau_upper

    def describe(self) -> dict:
        return {
            "velocity": self.velocity.describe(),
            "maturity": self.maturity.describe(),
            "rates": self.rates.describe(),
            "reintroduction": self.reintroduction.describe(),
            "division": self.division.describe(),
        }

    def digest(self) -> str:
        """Reproducibility hash of the declarative description.

        A custom velocity or maturity map contributes a hash of its values;
        other custom callables contribute only their qualified names.
        """
        blob = json.dumps(self.describe(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]
