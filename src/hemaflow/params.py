"""Model ingredients: maturation velocity, division map, rates, and kernels.

Everything here is declarative: these classes validate and describe the model
but perform no quadrature. The heavy lifting (flow coordinates, attenuation
integrals) lives in :mod:`hemaflow.flow` and :mod:`hemaflow.kernels`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigurationError

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


def _smoothstep(x):
    x = np.clip(x, 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x)


# ---------------------------------------------------------------------------
# maturation velocity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerLawVelocity:
    """V(m) = alpha * m**p with alpha > 0 and p >= 1.

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

    def __call__(self, m):
        m = np.asarray(m, dtype=float)
        return self.alpha * m ** self.p

    def derivative(self, m):
        m = np.asarray(m, dtype=float)
        if self.p == 1.0:
            return np.full(m.shape, self.alpha)
        return self.alpha * self.p * m ** (self.p - 1.0)

    def describe(self):
        return {"kind": "power_law", "alpha": self.alpha, "p": self.p}


@dataclass(frozen=True)
class CustomVelocity:
    """User-supplied velocity with its derivative.

    Must satisfy V(0) = 0 and V > 0 on (0, 1]. The divergence of the
    crossing-time integral near zero is screened numerically when flow
    coordinates are built; it cannot be certified, only screened.
    """

    V: Callable
    V_prime: Callable
    name: str = "custom"

    def __call__(self, m):
        m = np.asarray(m, dtype=float)
        return fit_shape(self.V(m), m.shape)

    def derivative(self, m):
        m = np.asarray(m, dtype=float)
        return fit_shape(self.V_prime(m), m.shape)

    def describe(self):
        return {"kind": "custom", "name": self.name}


VelocityModel = Union[PowerLawVelocity, CustomVelocity]


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
        return {"kind": "custom", "name": self.name}


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

    def delta_fn(self) -> Callable:
        return as_field(self.delta)

    def gamma_fn(self) -> Callable:
        return as_field(self.gamma)

    def validate(self) -> None:
        m = np.linspace(0.0, 1.0, 257)
        if np.any(self.delta_fn()(m) < 0.0):
            raise ConfigurationError("delta must be nonnegative on [0, 1]")
        if np.any(self.gamma_fn()(m) < 0.0):
            raise ConfigurationError("gamma must be nonnegative on [0, 1]")

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
        validate_velocity(self.velocity)
        validate_maturity_map(self.maturity)
        self.rates.validate()
        self._probe_reintroduction()
        self._probe_division()

    def _probe_reintroduction(self):
        m = np.linspace(0.0, 1.0, 65)
        levels = np.array([0.0, 0.5, 1.0, 4.0, 20.0])
        vals = np.stack([self.reintroduction.rate(m, np.full(m.shape, x))
                         for x in levels])
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("beta must be finite")
        if np.any(vals < 0.0):
            raise ConfigurationError("beta must be nonnegative")
        if np.any(np.diff(vals, axis=0) > 1e-12):
            raise ConfigurationError(
                "beta must be nonincreasing in the population argument")

    def _probe_division(self):
        g1 = self.maturity.g1
        m = np.linspace(0.0, 1.0, 65)
        ages = np.linspace(self.tau_lower, self.tau_upper, 17)
        vals = self.division.k(m[None, :], ages[:, None], g1)
        if np.any(vals < 0.0):
            raise ConfigurationError("division kernel k must be nonnegative")
        if np.any(np.abs(vals[:, m >= g1]) > 0.0):
            raise ConfigurationError("division kernel k must vanish for m >= g(1)")

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

        Custom callables contribute only their qualified names; structured
        (CLI-built) models hash deterministically.
        """
        blob = json.dumps(self.describe(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]
