"""Method-of-steps solver for the integrated delay formulation.

For times past the history depth tau_upper the resting-phase population
satisfies the fixed-point relation

    N(t, m) = phi(tau_upper, pi_{-(t - tau_upper)}(m)) * K(t - tau_upper, m)
              + G(N)(t, m) - J(N)(t, m)

where G collects division influx (delayed, nonlocal in maturity) and J the
reintroduction outflux along the flow. The solve advances in windows of
length tau_lower: inside a window every G evaluation reaches only into
finalized history, so the window reduces to a Picard iteration on J alone,
whose contraction constant scales with the window length.

The maturity grid is uniform in the flow coordinate x = h(m), where one step
dt of the flow is the exact map x -> x * exp(-dt). Every transport is that
one step, ``_Shift``: monotone-cubic re-interpolation of a slice at the fixed
feet x * exp(-dt), on the main nodes, on main plus band, or from main plus
band to the band's own nodes. The running integrals G and J ride along it,
each step a shift plus a trapezoid increment (the attenuation tables make the
flow factorization of K exact), and ``_rk4_step`` integrates the band, warmup
and proliferating equations along characteristics, the resting phase's two
through one step, ``Solver._resting_step``. The marches share one stage
table, built with the solver: a step's stage points x * exp(-s) for s = dt,
dt/2, 0 on main plus band, their maturities and both phases' decay rates
there; a march reads the table's tail as wide as its nodes. Warmup and P
advance in chunks of steps by one rule, ``Solver._chunks``.

A window's sweeps run as a wavefront (``Solver._j_sweep``): row r of Picard
iterate k needs only rows r - 1 and r of iterate k - 1, so one wave step
advances G and the transported past outflux by a row and every iterate in
flight by the row behind its predecessor's, all through one row-batched
shift. Iterates start before the ones ahead of them pass the convergence
test, as many as the previous window needed (the first window takes its
count from the factorial envelope), and the rows of any that turn out not
to be needed are dropped. Each row keeps its arithmetic, so the iterates,
deltas and iteration counts are those of one sweep at a time, bit for bit.

Main plus band is one slice array, the band's own nodes after the main ones:
the solve, the warmup and ``proliferating`` march it, their main field and
band its views ``[:, :M]`` and ``[:, M - 1:]``, so g(1) is one memory cell.
Every read at (t, x) goes through one store, ``HistoryField``, which wraps
one slice array and reads it monotone-cubically in x and linearly in t, a
scalar time as a block of one. The solver builds its stores by one recipe,
``Solver._slices``, holding n_history + 2 slices of main plus band or main
alone: the solve's ring and the readers of ``proliferating`` and the
residual, which check that a field lies on the grid and join a loaded one.

The store builds through ``PchipInterpolator``, the slice form of the
package's one cubic (``hemaflow.cubic``), with the constants of each node set
computed once, and the shift forms that cubic only on its feet's intervals
with the same coefficient formulas; a one-row shift or slot build takes the
1-D path, which gives the same bits sooner. The store keeps the slices'
coefficients in one block, slot i % capacity for slice i, builds the slices a
read lacks in batches, and reads many times in one call. The delayed flux
sum_q w_q beta(m_q, N) N, N read at t - a_q and x_q, is one method,
``Solver._delayed_flux``: the solve's influx, warmup's delayed gain, the
residual's gain and P's late sink pass only their weights, times and points.
An array of times (a window's rows, a chunk of P's steps) reads one age node
per read, each slice of its span once; a scalar time (warmup, a residual
sample) reads every age node in one read with one ``beta`` call. The terms
add in age order. The history pull is one read of slice n_history from the
solve's store, and ``proliferating`` marches only its RK4 steps one at a
time. The transport feet, the 16 division-age points and P's stage points
are ``Located`` once, so a read is a gather plus a cubic; a large point set
on a uniform node set is located by arithmetic instead of a binary search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cubic import (HermiteCubic, Located, NodeSet, _node_slopes, hermite_coefficients,
                    ppoly_sum)
from .errors import (ConfigurationError, ConvergenceError, DomainError,
                     HistoryWindowError)
from .flow import FlowMap
from .kernels import Kernels
from .params import ModelParams, fit_shape
from .quadrature import gauss_legendre, mapped_rule

_TIME_SNAP = 1e-9
_TOL_PICARD = 1e-10       # relative Picard stopping tolerance per window
_N_MAX = 50               # Picard iterations allowed per window
# Picard iterates one wave runs ahead of their convergence test; per row, a
# 512-node batched shift costs about the same from 12 rows on
_DEPTH_CAP = 16
# bytes of iterate rows a solve may hold for its waves: batching saves a
# shift's fixed cost per row, which a 512-node row feels and a 2048-node row
# hardly does, so the depth shrinks as the rows grow
_STORE_BYTES = 2 ** 23
# slices the store builds in one batched cubic: per row the build costs about
# the same from 64 rows on, and the batch's temporaries stay a few MB
_BUILD_ROWS = 64
# bytes of one (steps, nodes) source array of P: 16 steps at 1,023 nodes, and
# a chunk of a whole window held 6.5 MB more at its peak
_CHUNK_BYTES = 2 ** 17
MAX_SLICE_BYTES = 2 ** 30  # float64 slices one solve may hold (1 GiB)


def check_slice_bytes(m_nodes, dt_divisor, tau_lower: float, T: float,
                      key: Optional[str] = None) -> None:
    """Refuse, before allocating, a solve to horizon T whose float64 slices
    (m_nodes wide, dt = tau_lower / dt_divisor; counts clip at 1e300) pass the
    cap; the refusal carries ``key``."""
    need = 8.0 * min(m_nodes, 1e300) * (T / tau_lower * min(dt_divisor, 1e300) + 1.0)
    if not need <= MAX_SLICE_BYTES:
        raise ConfigurationError(f"the solve would hold {need:.3g} bytes of slices, "
                                 f"above the cap of {MAX_SLICE_BYTES}", key=key)


def _eval_two_arg(fn: Callable, a: np.ndarray, b: np.ndarray, name: str = "a callable"):
    """Evaluate fn on broadcast arrays, falling back to np.vectorize; a value
    that fits neither way is refused, by the callable's ``name``."""
    shape = np.broadcast_shapes(a.shape, b.shape)
    try:
        return fit_shape(fn(a, b), shape)
    except (ValueError, TypeError):
        try:
            return np.vectorize(fn, otypes=[float])(a, b)
        except (ValueError, TypeError) as err:
            raise ConfigurationError(f"{name} gives neither floats shaped {shape} nor one "
                                     f"float per scalar pair ({err})") from None


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform-in-x maturity grid plus the time step.

    The time step must divide tau_lower (window length) and tau_upper
    (history depth) so that windows and the history edge land on slices.
    """

    x_nodes: np.ndarray
    m_nodes: np.ndarray
    band_x: np.ndarray
    band_m: np.ndarray
    dt: float
    tau_lower: float
    tau_upper: float

    def __post_init__(self):
        for name, n_steps in (("tau_lower", self.tau_lower / self.dt),
                              ("tau_upper", self.tau_upper / self.dt)):
            if abs(n_steps - round(n_steps)) > 1e-9 * max(1.0, n_steps):
                raise ConfigurationError(
                    f"dt must divide {name}: {name}/dt = {n_steps:.12g} is not "
                    "an integer (adjust dt_divisor)", key="dt_divisor")
        if self.x_nodes.size < 8:
            raise ConfigurationError("need at least 8 maturity nodes")
        if np.any(np.diff(self.m_nodes) <= 0.0):
            raise ConfigurationError("maturity nodes must be strictly increasing")

    @property
    def n_window(self) -> int:
        return round(self.tau_lower / self.dt)

    @property
    def n_history(self) -> int:
        return round(self.tau_upper / self.dt)

    def steps_to(self, T: float) -> int:
        """Time steps a solve to horizon T takes past the history."""
        return max(0, math.ceil((T - self.tau_upper) / self.dt - 1e-9))

    @property
    def x_full(self) -> np.ndarray:
        return np.concatenate([self.x_nodes, self.band_x[1:]])

    @property
    def m_full(self) -> np.ndarray:
        return np.concatenate([self.m_nodes, self.band_m[1:]])

    @classmethod
    def build(cls, flow: FlowMap, tau_lower: float, tau_upper: float, *,
              m_nodes: int = 512, dt_divisor: int = 64) -> "Grid":
        if not (0.0 < tau_lower < tau_upper):
            raise ConfigurationError("delays must satisfy 0 < tau_lower < tau_upper")
        for name, value, least in (("m_nodes", m_nodes, 8), ("dt_divisor", dt_divisor, 1)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
                    or value < least:
                raise ConfigurationError(
                    f"{name} must be an integer >= {least}, got {value!r}")
        top = float(flow.h(flow.g1))
        # the band (g(1), 1] at the main spacing, top / (m_nodes - 1), which is
        # linspace's step: its history must fit the cap too, checked before
        # anything is allocated
        band = (1.0 - top) / (top / (m_nodes - 1)) if top > 0.0 else math.inf
        check_slice_bytes(m_nodes + band, dt_divisor, tau_lower, tau_upper, key="m_nodes")
        xs = np.linspace(0.0, top, m_nodes)
        ms = np.asarray(flow.h_inv(xs))
        ms[0], ms[-1] = 0.0, flow.g1
        # snap within round-off: one ulp of h(g(1)) must not add a node
        n_band = max(2, int(math.ceil(band * (1.0 - 1e-9))) + 1)
        bx = np.linspace(top, 1.0, n_band)
        bm = np.asarray(flow.h_inv(bx))
        bm[0], bm[-1] = flow.g1, 1.0
        return cls(x_nodes=xs, m_nodes=ms, band_x=bx, band_m=bm,
                   dt=tau_lower / dt_divisor,
                   tau_lower=tau_lower, tau_upper=tau_upper)

    def describe(self) -> dict:
        return {"m_nodes": int(self.x_nodes.size), "dt": self.dt,
                "tau_lower": self.tau_lower, "tau_upper": self.tau_upper,
                "band_nodes": int(self.band_x.size)}


# ---------------------------------------------------------------------------
# one characteristic step
# ---------------------------------------------------------------------------

class PchipInterpolator(HermiteCubic):
    """The slice kernel, scipy's ``PchipInterpolator(x, y, extrapolate=False)``
    bit for bit: outside points read NaN, non-finite values raise."""

    extrapolate = False

    def __init__(self, x: np.ndarray, y):
        _check_finite(y)
        super().__init__(x, y)


def _check_finite(y, window_index: Optional[int] = None) -> None:
    if not np.isfinite(y).all():
        # the first place a NaN-producing rate law shows up in a solve
        where = "" if window_index is None else f" in window {window_index}"
        raise ConvergenceError(
            f"non-finite values in the transported field{where}; "
            "check the rate laws for NaN or inf", window_index=window_index)


class _Shift:
    """One step dt of transport: values on the nodes ``x``, re-interpolated
    monotone-cubically at the fixed feet ``x_out * exp(-dt)``. The slice
    kernel's cubic is formed only on the feet's intervals, from contiguous
    gathers, with the bits of a ``PchipInterpolator`` build and read."""

    def __init__(self, x: np.ndarray, x_out: np.ndarray, dt: float):
        nodes = self.nodes = NodeSet(x)
        feet = self.feet = Located(nodes, x_out * math.exp(-dt))
        # the foot in interval i reads y, m and d at i, d at i + 1, and h[i]
        self._next, self._h = feet.index + 1, nodes.h.take(feet.index)

    def __call__(self, values: np.ndarray, window_index: Optional[int] = None) -> np.ndarray:
        if values.ndim == 2 and len(values) == 1:
            # one row runs faster through the 1-D path, with the same bits
            return self(values[0], window_index)[None]
        _check_finite(values, window_index)
        nodes, i = self.nodes, self.feet.index
        m = (values[..., 1:] - values[..., :-1]) / nodes.h
        d = _node_slopes(nodes, m)
        # take, not indexing, so that each gather is contiguous, as the sum
        # wants; y and d at i go straight into the block (mode "clip" writes
        # out unbuffered, and every foot's interval is in range)
        c = np.empty((4,) + values.shape[:-1] + i.shape)
        y0 = values.take(i, axis=-1, out=c[3], mode="clip")
        d0 = d.take(i, axis=-1, out=c[2], mode="clip")
        hermite_coefficients(y0, m.take(i, axis=-1), d0, d.take(self._next, axis=-1),
                             self._h, c)
        return ppoly_sum(c, self.feet, False)


def _rk4_step(u0: np.ndarray, dt: float, rhs: Callable) -> np.ndarray:
    """Classic fourth-order step along characteristics from the foot value u0.

    ``rhs(stage, u)`` evaluates the right-hand side at stage 0 (foot),
    1 (midpoint) or 2 (node) of the step.
    """
    k1 = rhs(0, u0)
    k2 = rhs(1, u0 + 0.5 * dt * k1)
    k3 = rhs(1, u0 + 0.5 * dt * k2)
    k4 = rhs(2, u0 + dt * k3)
    return u0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# ---------------------------------------------------------------------------
# the slice store
# ---------------------------------------------------------------------------

def _time_brackets(t: np.ndarray, dt: float):
    """(i, theta) with t = (i + theta) * dt for each time in the 1-D array t,
    snapping onto slices within _TIME_SNAP; a non-finite t brackets to
    i = -1, before every slice. The i come back as floats."""
    with np.errstate(over="ignore", invalid="ignore"):
        pos = t / dt
    pos[~np.isfinite(pos)] = -1.0
    i = np.floor(pos + _TIME_SNAP)
    theta = pos - i
    theta[theta < _TIME_SNAP] = 0.0
    return i, theta


class HistoryField:
    """Slices of a field at times i*dt on a fixed x-grid, read monotone-cubically
    in x and linearly in t.

    Wraps one existing ``(n_slices, K)`` array, K = ``x.size``, without
    copying; with a band, the band is the tail of each row. Slices ``0 ..
    filled - 1`` are readable, and the owner raises ``filled`` as it
    finalizes slices. Slice i's cubic coefficients live in slot ``i %
    capacity`` of one ``(capacity, 4, K - 1)`` block, ``capacity`` being
    ``keep`` or the slice count if fewer. A block read builds the slices it
    lacks together, as one batched cubic per ``_BUILD_ROWS`` slices, and a
    slice whose slot was taken since is rebuilt when read again. A read spans
    at most ``capacity`` slices, from its first to its last; a wider one
    raises ``HistoryWindowError``. Every read is a block read: a
    scalar time is a block of one. A read with one point set at consecutive
    slice times, every time between slices or none, reads each slice of its
    span once; any other read gathers both slices of every time. A query set
    read many times can be passed ``Located`` on ``x``.
    """

    def __init__(self, x: np.ndarray, dt: float, values: np.ndarray, *,
                 filled: Optional[int] = None, keep: float = math.inf):
        self.x = x
        self.dt = dt
        self.values = values
        self.filled = len(values) if filled is None else filled
        self.capacity = int(max(1, min(keep, len(values))))
        self.nodes = NodeSet(x)
        self._block = np.empty((self.capacity, 4, x.size - 1))
        self._held = np.full(self.capacity, -1)         # the slice in each slot

    def _build(self, rows: np.ndarray) -> None:
        """Build the slices ``rows`` (distinct modulo capacity) into their
        slots, as one batched cubic."""
        slots = rows % self.capacity
        self._block[slots] = PchipInterpolator(self.nodes,
                                               self.values[rows]).c.transpose(1, 0, 2)
        self._held[slots] = rows

    def _refuse(self, t) -> None:
        raise HistoryWindowError(
            f"lookup at t = {t:.9g} falls outside the stored slices "
            f"[0, {(self.filled - 1) * self.dt:.9g}]")

    def _locate(self, xq) -> Located:
        if not isinstance(xq, Located):
            return Located(self.nodes, xq)
        if xq.x is not self.x:
            raise DomainError("the query points were located on another node set")
        return xq

    def lookup(self, t, xq) -> np.ndarray:
        """Field values at time t (linear between slices) and coordinates xq,
        raw or ``Located`` on ``x``. A scalar t reads points of any shape into
        that shape; a 1-D array of R times reads points shaped ``(R, M)``, or
        one ``(M,)`` set at every time, into ``(R, M)``."""
        if np.ndim(t):
            return self._lookup_block(np.asarray(t, dtype=float), xq)
        return self._lookup_block(np.array([float(t)]), xq, single=True)

    def _lookup_block(self, times: np.ndarray, xq, single: bool = False) -> np.ndarray:
        """``lookup`` at a 1-D array of times, one gather per coefficient plane;
        one point set at consecutive times reads each slice of the span once. A
        ``single`` time reads xq's points as one flat set, into xq's shape."""
        i, theta = _time_brackets(times, self.dt)
        ahead = theta > 0.0
        bad = (i < 0) | (i + ahead >= self.filled)
        if bad.any():
            self._refuse(times.flat[np.argmax(bad)])
        xq = self._locate(xq)
        if single:
            index = xq.index.reshape(1, -1)
        elif times.ndim != 1 or not xq.shape or xq.shape[:-1] not in ((), times.shape):
            raise DomainError(f"{times.size} times cannot read points shaped {xq.shape}")
        else:
            # intervals: one row per time, or one row for every time
            index = xq.index.reshape(-1, xq.shape[-1])
        # rows at theta = 0 read slice i as their second slice too, never
        # slice i + 1, which may not be filled yet
        i = i.astype(np.intp)
        R = i.size
        if not R:
            return np.empty((0, index.shape[1]))
        if index.shape[0] == 1 and (ahead == ahead[0]).all() and (np.diff(i) == 1).all():
            # consecutive slices, every time ahead or none: the span, read once
            span = self._read_rows(np.arange(i[0], i[-1] + 1 + ahead[0]), index, xq)
            out, nxt = span[:R], span[1:]
        else:
            # both slices of every time in one read; one point set serves all
            block = self._read_rows(np.concatenate([i, i + ahead]), index if
                                    index.shape[0] == 1 else np.concatenate([index, index]), xq)
            out, nxt = block[:R], block[R:]
        if ahead.any():
            # a row at theta = 0 read slice i twice, and v + 0.0 * v is v
            theta = theta[:, None]
            out = (1.0 - theta) * out + theta * nxt
        return out.reshape(xq.shape) if single else out

    def _read_rows(self, rows: np.ndarray, index: np.ndarray, q: Located) -> np.ndarray:
        """Slice ``rows[r]`` at the intervals ``index[r]`` (or ``index[0]``),
        summed at q's points into ``(R, M)``. The rows span at most
        ``capacity`` slices; the missing ones are built first."""
        cap, n = self.capacity, self._block.shape[2]
        todo = np.unique(rows)
        if todo[-1] - todo[0] >= cap:
            raise HistoryWindowError(
                f"a read of slices {todo[0]} to {todo[-1]} spans "
                f"{todo[-1] - todo[0] + 1} slices, more than the store's capacity of {cap}")
        missing = todo[self._held[todo % cap] != todo]
        for k in range(0, missing.size, _BUILD_ROWS):
            self._build(missing[k:k + _BUILD_ROWS])
        # flat block positions in the first plane; the last axis runs over q's points
        at = ((rows % cap * 4 * n)[:, None] + index).reshape(-1, q.flat.size)
        c = [self._block.reshape(-1).take(at + k * n) for k in range(4)]
        return ppoly_sum(c, q, False).reshape(rows.size, -1)


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

@dataclass
class InitialHistory:
    """The datum phi on [0, tau_upper] x [0, g(1)], gridded.

    ``upper`` optionally carries the band (g(1), 1] on the grid's band
    nodes; it is transported passively and only feeds the proliferating
    phase reconstruction.
    """

    values: np.ndarray
    upper: Optional[np.ndarray] = None

    def sup(self) -> float:
        s = float(np.max(np.abs(self.values))) if self.values.size else 0.0
        if self.upper is not None and self.upper.size:
            s = max(s, float(np.max(np.abs(self.upper))))
        return s

    @classmethod
    def from_callable(cls, phi: Callable, grid: Grid, *,
                      upper: Optional[Callable] = None) -> "InitialHistory":
        tt = (np.arange(grid.n_history + 1) * grid.dt)[:, None]
        vals = _eval_two_arg(phi, tt, grid.m_nodes[None, :], "the history phi")
        up = None
        if upper is not None:
            up = _eval_two_arg(upper, tt, grid.band_m[None, :], "the band history upper")
        return cls(values=vals, upper=up)

    @classmethod
    def zeros(cls, grid: Grid) -> "InitialHistory":
        return cls(values=np.zeros((grid.n_history + 1, grid.m_nodes.size)))


@dataclass
class WarmupData:
    """Age-density initial data for producing the history by simulation.

    ``N0`` is the age-integral of the resting-phase density at t = 0,
    supplied directly (the decay of the age tail is not constructively
    integrable). ``Gamma`` must be continuous on [0, 1] x [0, tau_upper].
    """

    Gamma: Callable
    N0: Callable


# ---------------------------------------------------------------------------
# solution record
# ---------------------------------------------------------------------------

@dataclass
class UpperBand:
    x: np.ndarray
    m: np.ndarray
    N: np.ndarray
    P: Optional[np.ndarray] = None


_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")   # names np.loadtxt would decompress
# zlib level of the npz: on solution arrays level 2 deflates in about two
# thirds of the default level 6's time to a slightly smaller file; level 1
# writes a larger one
_DEFLATE_LEVEL = 2


def _joined(field: "SolutionField"):
    """The field's flow coordinates, which a field read back from CSV lacks,
    and its N slices, as main plus band in one array when there is a band."""
    if field.x is None:
        raise DomainError(
            "this field carries no flow coordinates (CSV stores maturities "
            "only); reload it with SolutionField.load to look it up")
    band = field.upper
    if band is None:
        return field.x, field.N
    x, whole = np.concatenate([field.x, band.x[1:]]), field.N.base
    # a solve's N and band are the views [:, :M] and [:, M - 1:] of one array
    if (whole is not None and whole is band.N.base and whole.shape == (len(field.N), x.size)
            and field.N.strides == band.N.strides == whole.strides
            and np.shares_memory(field.N[:, -1], band.N[:, 0])):
        return x, whole
    return x, np.concatenate([field.N, band.N[:, 1:]], axis=1)


class SolutionField:
    """Full record of N (and optionally P) on [0, T] x [0, g(1)].

    ``x`` holds the flow coordinates of the maturity nodes; it is None for a
    field read back from CSV, which stores maturities only, and such a field
    refuses lookups in flow coordinates. ``lookup`` reads main plus band, as
    the solve does, through one ``HistoryField`` built on the first lookup that
    keeps every slice. The solver reads a field through its own stores.
    """

    def __init__(self, times, x, m, N, P=None, upper: Optional[UpperBand] = None,
                 metadata: Optional[dict] = None):
        self.times = np.asarray(times, dtype=float)
        self.x = None if x is None else np.asarray(x, dtype=float)
        self.m = np.asarray(m, dtype=float)
        self.N = np.asarray(N, dtype=float)
        self.P = None if P is None else np.asarray(P, dtype=float)
        self.upper = upper
        self.metadata = metadata or {}
        self._history: Optional[HistoryField] = None     # built on the first lookup

    @property
    def dt(self) -> float:
        if self.times.size < 2:
            raise DomainError(f"a field of {self.times.size} time slice(s) has no time step")
        return float(self.times[1] - self.times[0])

    def lookup(self, t: float, xq) -> np.ndarray:
        """N, joined by the band's N when there is one, at time t (linear
        between slices) and flow coordinates xq."""
        if self._history is None:
            x, values = _joined(self)
            self._history = HistoryField(x, self.dt, values)
        return self._history.lookup(t, xq)

    # -- serialization -------------------------------------------------------

    def to_csv(self, path) -> None:
        """Rows (t, m, N[, P]) over the main grid, 17 significant digits, as
        plain text to the file path ``path``: the bytes
        ``np.savetxt(path, fmt="%.17g", delimiter=",")`` writes for a plain name.
        A compressed name (.gz, .bz2, .xz, .lzma) is refused. Each time and
        maturity is formatted once; a slice is one template filled with its values."""
        if str(path).endswith(_COMPRESSED):
            raise ConfigurationError(f"to_csv writes plain text only, not {str(path)!r}")
        cols = (self.N,) if self.P is None else (self.N, self.P)
        # "m,%.17g[,%.17g]" per node; no formatted number holds a "%"
        rows = ["%.17g" % m + ",%.17g" * len(cols) for m in self.m.tolist()]
        with open(path, "w") as fh:
            fh.write("t,m,N" + ",P" * (len(cols) - 1) + "\n")
            for i, t in enumerate(self.times.tolist()):
                lead = "%.17g," % t
                values = np.stack([c[i] for c in cols], axis=-1).ravel().tolist()
                fh.write((lead + ("\n" + lead).join(rows) + "\n") % tuple(values))

    @classmethod
    def from_csv(cls, path) -> "SolutionField":
        """The field of a ``to_csv`` table: a complete time x maturity grid of
        two or more slices, with no flow coordinates."""
        import warnings
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)    # no rows: refused below
                data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as err:
            raise ConfigurationError(f"{path}: {err}") from None
        if data.shape[1] not in (3, 4):
            raise ConfigurationError(f"{path}: expected the columns t, m, N[, P], "
                                     f"got {data.shape[1]} in {data.shape[0]} rows")
        times = np.unique(data[:, 0])
        m = np.unique(data[:, 1])
        n_t, n_m = times.size, m.size
        if n_t < 2 or n_t * n_m != data.shape[0]:
            raise ConfigurationError(f"{path}: not a complete time x maturity table "
                                     "of two or more time slices")
        N = data[:, 2].reshape(n_t, n_m)
        P = data[:, 3].reshape(n_t, n_m) if data.shape[1] > 3 else None
        return cls(times=times, x=None, m=m, N=N, P=P)

    def save(self, path_prefix) -> None:
        """Compact binary table plus a JSON sidecar with run metadata. The npz
        is the archive ``np.savez_compressed`` writes (members ``<key>.npy`` in
        the same order, zip64 forced), deflated at ``_DEFLATE_LEVEL``."""
        import json
        import zipfile
        arrays = {"times": self.times, "x": self.x, "m": self.m, "N": self.N,
                  "P": self.P}
        if self.upper is not None:
            arrays.update(upper_x=self.upper.x, upper_m=self.upper.m,
                          upper_N=self.upper.N, upper_P=self.upper.P)
        with zipfile.ZipFile(str(path_prefix) + ".npz", "w", zipfile.ZIP_DEFLATED,
                             allowZip64=True, compresslevel=_DEFLATE_LEVEL) as zf:
            for key, val in arrays.items():
                if val is not None:
                    with zf.open(key + ".npy", "w", force_zip64=True) as fh:
                        np.lib.format.write_array(fh, np.asanyarray(val))
        with open(str(path_prefix) + ".meta.json", "w") as fh:
            json.dump(self.metadata, fh, indent=2, sort_keys=True, default=float)

    @classmethod
    def load(cls, path_prefix) -> "SolutionField":
        import json
        import os
        import zipfile
        meta_path = str(path_prefix) + ".meta.json"
        metadata = {}
        if os.path.exists(meta_path):
            with open(meta_path) as fh:
                try:
                    metadata = json.load(fh)
                except ValueError as err:
                    raise ConfigurationError(f"{meta_path}: not JSON ({err})") from None
            if not isinstance(metadata, dict):
                raise ConfigurationError(f"{meta_path}: expected a JSON object, "
                                         f"got {type(metadata).__name__}")
        npz_path = str(path_prefix) + ".npz"
        try:
            data = np.load(npz_path)
            if not isinstance(data, np.lib.npyio.NpzFile):      # one plain .npy array
                raise ValueError
            with data:
                arrays = {key: data[key] for key in data.files}
        except (ValueError, zipfile.BadZipFile):
            # numpy reads a file that is not a zip as pickled data, and refuses it
            raise ConfigurationError(f"{npz_path}: not an npz archive") from None
        need = {"times", "m", "N"} | ({"upper_m", "upper_N"} if "upper_x" in arrays else set())
        if not need <= arrays.keys():
            raise ConfigurationError(f"{npz_path}: missing the array(s) "
                                     f"{', '.join(sorted(need - arrays.keys()))}")
        upper = None
        if "upper_x" in arrays:
            upper = UpperBand(x=arrays["upper_x"], m=arrays["upper_m"], N=arrays["upper_N"],
                              P=arrays.get("upper_P"))
        return cls(times=arrays["times"], x=arrays.get("x"), m=arrays["m"], N=arrays["N"],
                   P=arrays.get("P"), upper=upper, metadata=metadata)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

def _wave_depth(sweeps: Optional[int], rate: float) -> int:
    """Picard iterates a window launches ahead of their convergence test: the
    previous window's sweep count (iterations + 1), or for the first window one
    more than the n at which the factorial envelope 2 rate^n / n! falls below
    the Picard tolerance; at most ``_DEPTH_CAP``."""
    if sweeps is None:
        n, term = 0, 2.0
        while term > _TOL_PICARD and n <= _N_MAX:
            n += 1
            term *= rate / n
        sweeps = n + 1
    return max(1, min(sweeps, _DEPTH_CAP))


class _Window:
    """One window's Picard record while its waves run."""

    def __init__(self, steps: int):
        self.steps = steps
        self.pulled = None        # (steps + 1, M) transported history term
        self.half_q = None        # (steps + 1, M) dt/2 times the influx source
        self.half_w0 = None       # dt/2 times the outflux source at the first slice
        self.G_end = None         # G and J_past at the last slice, once reached
        self.J_past_end = None
        self.M_sup = 0.0
        self.deltas: list = []    # one per complete iterate
        self.converged = None     # the iterate that passed the test
        self.J_end = None         # the refresh sweep's J at the last slice


class _RunState:
    """Mutable scratch owned by one solve (windows advance it in place). The
    wave's stores are sized once, for ``max_depth`` iterates."""

    def __init__(self):
        self.N = None             # (n_slices, M) main field, filled as we go
        self.band = None          # (n_slices, NB) tail view of the ring's array, or None
        self.ring = None          # HistoryField over main plus band; filled = finalized slices
        self.age_points = ()      # the 16 age-node queries, Located on ring.x
        self.n_slices = 0
        self.G_carry = None       # running influx integral at the last finalized slice
        self.J_carry = None       # running outflux integral at the last finalized slice
        self.dec_r = None         # resting-phase decay table
        self.zeta_qa = None       # division weights on the age Gauss nodes
        self.K_step = None        # per-node one-step attenuation
        self.alpha_bar = 1.0      # sup of K over one window span
        self.windows: list = []
        self.window_index = 0
        self.sweeps = None        # the last window's sweep count
        self.depth = 1            # iterates the current window runs ahead
        self.max_depth = 1        # the most the stores below hold
        self.iterates = None      # (layers, n_window + 1, M): the base and the iterates
        self.lanes = None         # (3, lanes, M): each lane's last row and dt/2 sources

    def layer(self, k: int) -> int:
        """Layer of Picard iterate k in ``iterates``: 0 holds the base (iterate
        0), and iterates from 1 on cycle through the other layers."""
        return 0 if k == 0 else 1 + (k - 1) % (self.max_depth + 1)


class Solver:
    """Windowed Picard solver bound to one model and grid.

    A single solve is sequential (windows are causally ordered); distinct
    solves from one Solver are independent of each other.
    """

    def __init__(self, params: ModelParams, *, m_nodes: int = 512,
                 dt_divisor: int = 64):
        self.params = params
        self.kern = Kernels(params)
        self.flow = self.kern.flow
        self.grid = grid = Grid.build(self.flow, params.tau_lower, params.tau_upper,
                                      m_nodes=m_nodes, dt_divisor=dt_divisor)
        # the contraction bookkeeping needs the Lipschitz constant up front
        self.lipschitz = self.kern.lipschitz_l()

        flow, g = self.flow, params.maturity
        xs = grid.x_nodes
        self._log_gi = flow.log_h(g.inverse(grid.m_nodes))        # ln h(g^-1(m_j))
        a_nodes, a_weights = mapped_rule(params.tau_lower, params.tau_upper, 16)
        self._a_nodes, self._a_weights = a_nodes, a_weights
        self._xdelta = np.exp(self._log_gi[None, :] - a_nodes[:, None])   # (16, M)
        self._mdelta = flow.h_inv_log(self._log_gi[None, :] - a_nodes[:, None])
        # one-step transports of the main grid, of main plus band (warmup and
        # P) and from main plus band to the band's own nodes (the band march)
        x_full = grid.x_full
        self._shift_main = _Shift(xs, xs, grid.dt)
        self._shift_full = _Shift(x_full, x_full, grid.dt)
        self._shift_band = _Shift(x_full, grid.band_x[1:], grid.dt)
        # the stage table of a characteristic step: points x e^-s on main plus
        # band at s = dt, dt/2, 0, their maturities and the resting and
        # proliferating decay rates there; main nodes read the head [:M], a
        # march on main plus band or on the band's own nodes its tail
        self._stage_x = tuple(x_full * math.exp(-s) for s in (grid.dt, 0.5 * grid.dt, 0.0))
        self._stage_m = tuple(np.asarray(flow.h_inv(sx)) for sx in self._stage_x)
        self._stage_psi_r = tuple(self.kern.psi_resting(mm) for mm in self._stage_m)
        self._stage_psi_p = tuple(self.kern.psi_proliferating(mm) for mm in self._stage_m)

    # -- attenuation tables ----------------------------------------------------

    def _ensure_tables(self, depth: float):
        """Resting/proliferating decay tables deep enough for ``depth`` of
        pullback, from the kernels' cache (tables agree where they overlap)."""
        x1 = self.grid.x_nodes[1]
        lg = self._log_gi[np.isfinite(self._log_gi)]
        u_min = min(math.log(x1), float(np.min(lg))) - depth - 1.0
        return (self.kern.decay_table("resting", u_min),
                self.kern.decay_table("proliferating", u_min))

    def _zeta_matrix(self, dec_g) -> np.ndarray:
        """zeta(m_j, a_q) on the Gauss nodes, with the factor 2 folded in."""
        k_qa = self.params.division.k(self.grid.m_nodes[None, :],
                                      self._a_nodes[:, None], self.flow.g1)
        xi_qa = dec_g.survival(np.exp(self._log_gi)[None, :], self._a_nodes[:, None])
        return 2.0 * k_qa * xi_qa

    # -- reading slices ------------------------------------------------------------

    def _slices(self, values: np.ndarray, filled: Optional[int] = None) -> HistoryField:
        """The store the solver reads slices through: ``values`` on ``x_full``
        or ``x_nodes`` as its width says, holding n_history + 2 slices. A
        window's reaches t - a, a in (tau_lower, tau_upper), P's sink and the
        residual's division ages each span at most n_history + 1 slices, so no
        slice is rebuilt while still needed."""
        grid = self.grid
        x = grid.x_full if values.shape[1] == grid.x_full.size else grid.x_nodes
        return HistoryField(x, grid.dt, values, filled=filled, keep=grid.n_history + 2)

    def _reader(self, field: "SolutionField") -> HistoryField:
        """``_slices`` over a solved field with flow coordinates on this grid:
        the same nodes, the same band nodes and slices dt apart from t = 0."""
        grid, band = self.grid, field.upper
        n = field.times.size
        if field.x is not None and not (
                np.array_equal(field.x, grid.x_nodes)
                and field.N.shape == (n, grid.x_nodes.size)
                and np.allclose(field.times, np.arange(n) * grid.dt, rtol=0.0,
                                atol=_TIME_SNAP * grid.dt)
                and (band is None or (np.array_equal(band.x, grid.band_x)
                                      and band.N.shape == (n, grid.band_x.size)))):
            raise DomainError("the field does not lie on this solver's grid (its nodes, "
                              "band nodes or slice times differ)")
        return self._slices(_joined(field)[1])

    # -- windowed solve ----------------------------------------------------------

    def start(self, history: InitialHistory, T: float) -> _RunState:
        grid = self.grid
        nh = grid.n_history
        if T < grid.tau_upper - 1e-12:
            raise ConfigurationError("horizon T must be at least tau_upper")
        use_band = history.upper is not None
        M = grid.m_nodes.size
        # a band solve holds the band's own nodes as well
        width = (grid.x_full if use_band else grid.x_nodes).size
        check_slice_bytes(width, grid.n_window, grid.tau_lower, T)
        for name, arr, nodes in (("history", history.values, grid.m_nodes.size),
                                 ("upper-band history", history.upper, grid.band_m.size)):
            if arr is not None and arr.shape != (nh + 1, nodes):
                raise ConfigurationError(f"{name} shape {arr.shape} does not match "
                                         f"the grid ({nh + 1} slices x {nodes} nodes)")
        if not (np.all(np.isfinite(history.values)) and
                (history.upper is None or np.all(np.isfinite(history.upper)))):
            raise ConfigurationError("history values must be finite")
        n_steps = grid.steps_to(T)

        x_reach = math.exp(-grid.tau_lower)
        if x_reach > grid.x_nodes[-1] * (1.0 + 1e-12) and not use_band:
            raise ConfigurationError(
                "division ancestry reaches above g(1) (tau_lower below the "
                "crossing time at g(1)); supply history on the upper band")

        st = _RunState()
        st.n_slices = nh + n_steps + 1
        slices = np.empty((st.n_slices, width))
        st.N = slices[:, :M]
        st.N[:nh + 1] = history.values
        if use_band:
            st.band = slices[:, M - 1:]
            st.band[:nh + 1, 1:] = history.upper[:, 1:]
        st.ring = self._slices(slices, filled=nh + 1)
        st.age_points = tuple(Located(st.ring.x, xd) for xd in self._xdelta)
        st.G_carry = np.zeros(M)
        st.J_carry = np.zeros(M)
        rows = grid.n_window + 1
        st.max_depth = max(1, min(_DEPTH_CAP, _N_MAX + 1, _STORE_BYTES // (8 * rows * M) - 2))
        st.iterates = np.empty((st.max_depth + 2, rows, M))
        st.lanes = np.empty((3, st.max_depth + 2, M))

        depth = n_steps * grid.dt + grid.tau_upper
        dec_r, dec_g = self._ensure_tables(depth)
        st.dec_r = dec_r
        st.zeta_qa = self._zeta_matrix(dec_g)
        st.K_step = dec_r.survival(grid.x_nodes, grid.dt)
        u_probe = np.linspace(0.0, grid.tau_lower, 33)
        st.alpha_bar = max(float(np.max(dec_r.survival(grid.x_nodes, u)))
                           for u in u_probe)
        return st

    def _delayed_flux(self, store: HistoryField, t, ages, points, m, weights) -> np.ndarray:
        """sum_q weights[q] * beta(m[q], N) * N, N read from ``store`` at t - ages[q]
        and points[q], added in age order: a 1-D array t reads one age node per read
        into ``(times, points)``, a scalar t every age node in one read and one
        ``beta`` call, ``points`` shaped ``(ages, M)``."""
        acc = np.zeros(np.shape(t) + np.shape(m[0]))
        if np.ndim(t):
            for w, age, at, mq in zip(weights, ages, points, m):
                nv = store.lookup(t - age, at)
                acc += w * self.kern.beta(mq, nv) * nv
        else:
            nv = store.lookup(t - ages, points)
            for w, rate, nq in zip(weights, self.kern.beta(m, nv), nv):
                acc += w * rate * nq
        return acc

    def _q_slice(self, st: _RunState, i0: int, steps: int) -> np.ndarray:
        """Inner division integral (age quadrature) at slices i0 .. i0 + steps:
        the delayed flux with weights a_w * zeta, one read and one ``beta``
        call per age node on the whole block."""
        t = np.arange(i0, i0 + steps + 1) * self.grid.dt
        return self._delayed_flux(st.ring, t, self._a_nodes, st.age_points, self._mdelta,
                                  self._a_weights[:, None] * st.zeta_qa)

    def solve_window(self, st: _RunState) -> dict:
        """Advance one method-of-steps window; returns its iteration record."""
        grid = self.grid
        nh, nw = grid.n_history, grid.n_window
        i0 = st.ring.filled - 1
        steps = min(nw, st.n_slices - 1 - i0)
        if steps <= 0:
            raise ConfigurationError("no slices left to solve")
        half = 0.5 * grid.dt
        win = _Window(steps)

        # division influx: depends only on finalized history
        win.half_q = half * self._q_slice(st, i0, steps)
        # transported history term of the zeroth iterate
        back = np.arange(i0 - nh, i0 - nh + steps + 1) * grid.dt
        # math.exp, not np.exp: the two differ in the last bit on some inputs
        shrink = np.array([math.exp(-b) for b in back.tolist()])
        pulled = st.ring.lookup(nh * grid.dt, grid.x_nodes * shrink[:, None])
        win.pulled = pulled * st.dec_r.survival(grid.x_nodes, back[:, None])
        n0 = st.N[i0]
        win.half_w0 = half * (self.kern.beta(grid.m_nodes, n0) * n0)

        st.depth = min(st.max_depth, _wave_depth(
            st.sweeps, st.alpha_bar * self.lipschitz * steps * grid.dt))
        while win.J_end is None:
            self._j_sweep(st, win)

        K = win.converged
        final = st.iterates[st.layer(K)]
        # the refresh sweep on the converged iterate carries the running
        # integral forward and measures how tightly the fixed point closed
        junction = float(np.max(np.abs(final[steps]
                                       - st.iterates[st.layer(K + 1), steps])))
        st.N[i0 + 1:i0 + steps + 1] = final[1:steps + 1]
        if st.band is not None:
            self._advance_band(st, i0, steps)
        st.G_carry = win.G_end
        st.J_carry = win.J_past_end + win.J_end
        st.ring.filled = i0 + steps + 1
        st.sweeps = K + 1

        meta = {
            "index": st.window_index,
            "t_start": i0 * grid.dt,
            "t_end": (i0 + steps) * grid.dt,
            "steps": steps,
            "iterations": K,
            "deltas": win.deltas,
            "sup_initial_iterate": win.M_sup,
            "alpha_bar": st.alpha_bar,
            "junction_mismatch": junction,
        }
        st.windows.append(meta)
        st.window_index += 1
        return meta

    def _j_sweep(self, st: _RunState, win: _Window) -> None:
        """One wave of the window's characteristic sweeps.

        Along characteristics every running integral takes the trapezoid step
        row r = K(dt) * shift(row[r-1] + dt/2 * w[r-1]) + dt/2 * w[r]: G with
        the influx source, J_past (the outflux before the window, frozen during
        the iteration) without a source, and Picard iterate k's window-local
        outflux J^k with w = beta(N^{k-1}) N^{k-1}, where N^k = base - J^k and
        base = pulled + G - J_past is iterate 0. Row r of iterate k needs only
        rows r - 1 and r of iterate k - 1, so at wave step s the first wave
        advances G and J_past to row s and iterate k to row s - k, all in one
        batched shift; every row keeps its arithmetic and its bits. Up to
        ``st.depth`` iterates run ahead of their convergence test; once one
        passes, the next is the refresh sweep and later ones are dropped. If
        the window needs more, the next wave starts from the last complete
        iterate. A non-finite shift in an iterate that runs ahead ends the
        wave at that lane: the iterate runs again, and raises, as the first
        lane of the next wave, which the one-at-a-time order would reach.
        """
        steps, half_q, pulled = win.steps, win.half_q, win.pulled
        base = st.iterates[0]
        first = win.G_end is None           # G and J_past run in the first wave
        k0 = len(win.deltas)                # the last complete iterate
        n_it = 1 if win.converged is not None else min(st.depth, _N_MAX + 1 - k0)
        fixed = 2 if first else 0           # lanes 0, 1: J_past, G; then the iterates
        lag0 = 1 if first else 0            # lag of the wave's first iterate
        # store layers of each iterate lane's source and its own rows
        layers = np.array([st.layer(k0 + j) for j in range(n_it + 1)])
        src, dst = layers[:-1], layers[1:]
        # each lane's last row, and the dt/2 sources at its last and next rows;
        # the two source buffers trade places every step
        carry, prev, cur = (a[:fixed + n_it] for a in st.lanes)
        if first:
            carry[0], carry[1] = st.J_carry, st.G_carry
            prev[0] = cur[0] = 0.0          # J_past has no source
            prev[1] = half_q[0]
            base[0] = pulled[0] + st.G_carry - st.J_carry
        carry[fixed:] = 0.0
        prev[fixed:] = cur[fixed:] = win.half_w0
        m_nodes, beta, K_step = self.grid.m_nodes, self.kern.beta, st.K_step
        half = 0.5 * self.grid.dt

        live = n_it                         # iterate lanes still running
        s = 0
        while s < steps + lag0 + live - 1:
            s += 1
            both = first and s <= steps     # G and J_past advance this step
            j_lo, j_hi = max(0, s - steps - lag0), min(live, s - lag0)
            lo, hi = (0 if both else fixed + j_lo), fixed + j_hi
            x = carry[lo:hi] + prev[lo:hi]
            if both:
                x[0] = carry[0]             # J_past is pure transport
            try:
                moved = self._shift_main(x, st.window_index)
            except ConvergenceError:
                bad = int(np.argmin(np.isfinite(x).all(axis=1))) + lo - fixed
                if bad < 0 or k0 + bad <= len(win.deltas):
                    raise                   # G, J_past or an iterate that runs next
                # the lanes from bad on go; iterate k0 + 1 + bad runs again, and
                # raises, as the first lane of a later wave if it is needed
                live = bad
                hi = fixed + live
                moved = self._shift_main(x[:hi - lo], st.window_index)
                j_hi = hi - fixed
            moved *= K_step
            rows = np.arange(s - j_lo - lag0, s - j_hi - lag0, -1)
            it = slice(fixed + j_lo, fixed + j_hi)
            if j_hi > j_lo:
                n_src = st.iterates[src[j_lo:j_hi], rows]
                cur[it] = half * (beta(m_nodes, n_src) * n_src)
            if both:
                cur[1] = half_q[s]
                carry[0] = moved[0]
                np.add(moved[1:], cur[1:hi], out=carry[1:hi])
                base[s] = pulled[s] + carry[1] - carry[0]
            else:
                np.add(moved, cur[lo:hi], out=carry[lo:hi])
            prev, cur = cur, prev
            if j_hi > j_lo:
                st.iterates[dst[j_lo:j_hi], rows] = base[rows] - carry[it]
            if both and s == steps:
                win.J_past_end, win.G_end = carry[0].copy(), carry[1].copy()
                win.M_sup = float(np.max(np.abs(base[:steps + 1])))
            if s - steps - lag0 == j_lo and j_lo < j_hi:     # lane j_lo is complete
                if win.converged is not None:
                    win.J_end = carry[fixed + j_lo].copy()
                    return
                self._picard_test(st, win)
                if win.converged is not None:
                    live = min(live, j_lo + 2)          # the refresh sweep is the last

    def _picard_test(self, st: _RunState, win: _Window) -> None:
        """Test the iterate that just completed against the one before it."""
        steps = win.steps
        k = len(win.deltas) + 1
        new = st.iterates[st.layer(k), 1:steps + 1]
        delta = float(np.max(np.abs(new - st.iterates[st.layer(k - 1), 1:steps + 1])))
        win.deltas.append(delta)
        scale = max(win.M_sup, float(np.max(np.abs(new))), 1e-300)
        if delta <= _TOL_PICARD * scale:
            win.converged = k
        elif k == _N_MAX:
            raise ConvergenceError(
                f"window {st.window_index} did not converge in {_N_MAX} "
                f"Picard iterations (last delta {delta:.3e}); "
                "reduce dt or weaken the reintroduction law",
                window_index=st.window_index, last_delta=delta)

    def _advance_band(self, st: _RunState, i0: int, steps: int) -> None:
        """Transport-decay march of the upper band's own nodes across one
        window, from their own feet on main plus band; the band's node g(1) is
        the main grid's last node, one cell of the ring."""
        for r in range(1, steps + 1):
            u0 = self._shift_band(st.ring.values[i0 + r - 1], st.window_index)
            st.band[i0 + r, 1:] = self._resting_step(u0)

    def _resting_step(self, u0: np.ndarray, src=None) -> np.ndarray:
        """One RK4 step of the resting phase, u' = -(psi + beta(m, u)) u, from
        the foot values u0 on the stage table's tail as wide as u0: main plus
        band, or the band's own nodes. ``src[stage]``, when given, adds a
        source on u0's first nodes (warmup's, on the main nodes)."""
        n, beta = u0.shape[-1], self.kern.beta
        stage_m = tuple(mm[-n:] for mm in self._stage_m)
        stage_psi = tuple(p[-n:] for p in self._stage_psi_r)

        def rhs(stage: int, u: np.ndarray) -> np.ndarray:
            out = -(stage_psi[stage] + beta(stage_m[stage], u)) * u
            if src is not None:
                out[:src[stage].size] += src[stage]
            return out
        return _rk4_step(u0, self.grid.dt, rhs)

    def _chunks(self, n: int, width: int):
        """The steps to slices 1 .. n - 1 as chunks (i0, (t, t + dt/2, t + dt)):
        i0 the slice of the first step, t the steps' start times. A chunk holds
        at most ``_CHUNK_BYTES`` of (steps, width) floats and n_history steps,
        so P's store, read for the sink first, builds each slice once."""
        dt = self.grid.dt
        chunk = max(1, min(self.grid.n_history, _CHUNK_BYTES // (8 * width)))
        for i0 in range(1, n, chunk):
            t0 = np.arange(i0 - 1, min(i0 + chunk, n) - 1) * dt
            yield i0, (t0, t0 + 0.5 * dt, t0 + dt)

    def solve(self, history: InitialHistory, T: float) -> SolutionField:
        """Run the method of steps to horizon T and assemble the record."""
        st = self.start(history, T)
        while st.ring.filled < st.n_slices:
            self.solve_window(st)
        times = np.arange(st.n_slices) * self.grid.dt
        upper = None
        if st.band is not None:
            upper = UpperBand(x=self.grid.band_x.copy(), m=self.grid.band_m.copy(),
                              N=st.band)
        meta = {
            "model_digest": self.params.digest(),
            "grid": self.grid.describe(),
            "horizon": float(times[-1]),
            "tol_picard": _TOL_PICARD,
            "n_max": _N_MAX,
            "lipschitz_l": self.lipschitz,
            "alpha_bar": st.alpha_bar,
            "window_length": self.grid.tau_lower,
            "windows": st.windows,
            "max_iterations": max((w["iterations"] for w in st.windows), default=0),
            "max_junction_mismatch": max((w["junction_mismatch"] for w in st.windows),
                                         default=0.0),
        }
        return SolutionField(times=times, x=self.grid.x_nodes.copy(),
                             m=self.grid.m_nodes.copy(), N=st.N, upper=upper,
                             metadata=meta)

    # -- warmup from age densities ------------------------------------------------

    def warmup(self, data: WarmupData) -> InitialHistory:
        """Produce the history phi on [0, tau_upper] from (Gamma, N0).

        Integrates the pre-horizon transport-reaction equations along
        characteristics with classic fourth-order one-step stages; the
        delayed reintroduction feedback appearing after tau_lower reads
        earlier warmup slices, which time marching makes available. Signed
        data is carried through; N0 and every slice must be finite.
        """
        grid = self.grid
        dt = grid.dt
        nh = grid.n_history
        tau_lo, tau_up = grid.tau_lower, grid.tau_upper
        _, dec_g = self._ensure_tables(2.0 * tau_up)
        flow = self.flow
        g = self.params.maturity
        M = grid.m_nodes.size

        # the stage table's head, the main nodes, for the source terms
        stage_main = tuple(mm[:M] for mm in self._stage_m)
        stage_lgi = tuple(flow.log_h(g.inverse(mm)) for mm in stage_main)
        # survival(x_gi, .) at each stage's points, their ln x and Phi read once
        stage_xi = tuple(dec_g.survival_to(np.exp(lg)) for lg in stage_lgi)

        def source(sigma: float, stage: int, r: int, record: HistoryField) -> np.ndarray:
            """Division influx at warmup time sigma, row r of the chunk, on main nodes."""
            out = np.zeros(M)
            mm = stage_main[stage]
            # boundary part: mothers already proliferating at t = 0
            a_lo = max(sigma, tau_lo)
            if a_lo < tau_up - 1e-14:
                a_nodes, a_w = mapped_rule(a_lo, tau_up, 16)
                gam = _eval_two_arg(data.Gamma, mothers_now[stage][r][None, :],
                                    (a_nodes - sigma)[:, None], "Gamma")
                k_qa = self.params.division.k(mm[None, :], a_nodes[:, None], flow.g1)
                out += 2.0 * xi_now[stage][r] * np.einsum("q,qj->j", a_w, k_qa * gam)
            # delayed part: daughters of cells reintroduced after t = 0
            if sigma > tau_lo + 1e-14:
                a_nodes, a_w = mapped_rule(tau_lo, sigma, 16)
                k_qa = self.params.division.k(mm[None, :], a_nodes[:, None], flow.g1)
                xi_qa = stage_xi[stage](a_nodes[:, None])
                lg = stage_lgi[stage][None, :] - a_nodes[:, None]
                out += 2.0 * self._delayed_flux(record, sigma, a_nodes, np.exp(lg),
                                                flow.h_inv_log(lg), a_w[:, None] * k_qa * xi_qa)
            return out

        values = np.empty((nh + 1, grid.x_full.size))
        n0 = data.N0(grid.m_full)
        try:
            values[0] = n0
        except (ValueError, TypeError):
            raise ConfigurationError(f"N0 gives shape {np.shape(n0)} on the "
                                     f"{values.shape[1]} maturity nodes") from None
        if not np.all(np.isfinite(values[0])):
            raise ConfigurationError("N0 must be finite")
        record = self._slices(values, filled=1)

        # the boundary part's factors that depend on sigma alone are read for a
        # chunk of steps at once, six (steps, M) arrays
        for i0, sigmas in self._chunks(nh + 1, M):
            # Delta(sigma, m) and the survival to x_gi over sigma, row r for step i0 + r
            mothers_now = [flow.h_inv_log(lgi - s[:, None])
                           for lgi, s in zip(stage_lgi, sigmas)]
            xi_now = [xi(s[:, None]) for xi, s in zip(stage_xi, sigmas)]
            for r, stage_sigmas in enumerate(zip(*(s.tolist() for s in sigmas))):
                i = i0 + r
                src = tuple(source(sigma, stage, r, record)
                            for stage, sigma in enumerate(stage_sigmas))
                values[i] = self._resting_step(self._shift_full(values[i - 1]), src)
                if not np.all(np.isfinite(values[i])):
                    raise ConfigurationError(
                        f"warmup produced non-finite densities at t = {i * dt:.6g}; "
                        "check Gamma and N0")
                record.filled = i + 1

        return InitialHistory(values=values[:, :M], upper=values[:, M - 1:])

    # -- proliferating phase reconstruction ----------------------------------------

    def proliferating(self, field: SolutionField, Gamma: Callable) -> SolutionField:
        """Reconstruct P along characteristics from the initial age density
        ``Gamma(m, a)`` of the proliferating phase and attach it to the field.

        The sink switches regime at tau_upper: before, it drains the initial
        age density reaching the division deadline; after, it drains the
        reintroduction flux delayed by the full proliferation span. Slice
        times at the switch use the early regime. Each stage's points are
        located once on the solver's store over the field; a chunk of steps
        reads its influx and its sink with one lookup per stage, and only the
        march itself advances a slice at a time.
        """
        grid = self.grid
        dt = grid.dt
        tau_up = grid.tau_upper
        _, dec_g = self._ensure_tables(float(field.times[-1]) + tau_up)
        flow = self.flow
        reader = self._reader(field)
        has_band = field.upper is not None
        n_act = reader.x.size
        m_act = grid.m_full if has_band else grid.m_nodes
        M = grid.m_nodes.size

        # the stage table, whole with a band, else its head
        stage_x, stage_m, stage_psi = (tuple(a[:n_act] for a in part) for part in
                                       (self._stage_x, self._stage_m, self._stage_psi_p))
        with np.errstate(divide="ignore"):
            stage_lx = tuple(np.where(sx > 0.0, np.log(np.maximum(sx, 1e-300)), -np.inf)
                             for sx in stage_x)
        stage_xi_up = tuple(dec_g.survival(sx, tau_up) for sx in stage_x)
        stage_x_back = tuple(np.exp(lx - tau_up) for lx in stage_lx)
        stage_m_back = tuple(np.asarray(flow.h_inv_log(lx - tau_up)) for lx in stage_lx)
        at_x = tuple(Located(reader.nodes, sx) for sx in stage_x)
        at_back = tuple(Located(reader.nodes, sx) for sx in stage_x_back)

        def sink(sigma: np.ndarray, stage: int) -> np.ndarray:
            out = np.empty((sigma.size, n_act))
            early = (sigma < tau_up) | (np.abs(sigma - tau_up) < _TIME_SNAP)
            if early.any():
                s = sigma[early, None]
                mothers = flow.h_inv_log(stage_lx[stage] - s)
                gam = _eval_two_arg(Gamma, mothers, tau_up - s, "Gamma")
                out[early] = gam * dec_g.survival(stage_x[stage], s)
            if not early.all():
                out[~early] = self._delayed_flux(reader, sigma[~early], (tau_up,),
                                                 (at_back[stage],), (stage_m_back[stage],),
                                                 (stage_xi_up[stage],))
            return out

        def influx(sigma: np.ndarray, stage: int) -> np.ndarray:
            nv = reader.lookup(sigma, at_x[stage])
            return self.kern.beta(stage_m[stage], nv) * nv

        # initial proliferating load: age integral of Gamma
        z, w = gauss_legendre(16)
        edges = np.linspace(0.0, tau_up, 9)
        P0 = np.zeros(n_act)
        for lo, hi in zip(edges[:-1], edges[1:]):
            half = 0.5 * (hi - lo)
            a_nodes = lo + half * (z + 1.0)
            gam = _eval_two_arg(Gamma, m_act[None, :], a_nodes[:, None], "Gamma")
            P0 += half * np.einsum("q,qj->j", w, gam)

        n_slices = field.times.size
        P = np.empty((n_slices, n_act))
        P[0] = P0
        shift = self._shift_full if has_band else self._shift_main

        def rhs(stage: int, u: np.ndarray) -> np.ndarray:
            # row r of the chunk's sources, as the march below sets r
            return -stage_psi[stage] * u + src[stage][r] - drain[stage][r]

        for i0, sigmas in self._chunks(n_slices, n_act):
            drain = [sink(sigma, stage) for stage, sigma in enumerate(sigmas)]
            src = [influx(sigma, stage) for stage, sigma in enumerate(sigmas)]
            for r in range(sigmas[0].size):
                P[i0 + r] = _rk4_step(shift(P[i0 + r - 1]), dt, rhs)

        field.P = P[:, :M]
        if has_band:
            field.upper.P = P[:, M - 1:]
        if "P" not in field.metadata.setdefault("emit", []):
            field.metadata["emit"].append("P")
        return field

    # -- a-posteriori residual -------------------------------------------------------

    def _aligned_index(self, t: float) -> int:
        pos = float(t) / self.grid.dt
        if not math.isfinite(pos):
            raise DomainError(f"t = {t} does not give a finite slice position")
        i = round(pos)
        if abs(pos - i) > 1e-6:
            raise DomainError(f"t = {t:.9g} must align with the slice times")
        return i

    def residual(self, field: SolutionField, t: float, m: float) -> float:
        """Defect of the strong-form balance at an interior grid point.

        Central differences in t and x for the transport side against age
        quadrature of the division influx; a pure diagnostic whose size
        tracks the discretization error.
        """
        grid = self.grid
        i = self._aligned_index(t)
        j = int(np.argmin(np.abs(grid.m_nodes - m)))
        if abs(grid.m_nodes[j] - m) > 1e-9:
            raise DomainError("residual expects m on a grid node")
        if not (0 < j < grid.m_nodes.size - 1):
            raise DomainError("residual needs an interior maturity node")
        return float(self._residuals(field, np.array([float(t)]), np.array([i]),
                                     np.array([j]))[0, 0])

    def _residuals(self, field: SolutionField, t: np.ndarray, ti: np.ndarray,
                   jj: np.ndarray) -> np.ndarray:
        """``residual`` at the times ``t`` (on the slices ``ti``) times the
        interior nodes ``jj``, as one ``(len(ti), len(jj))`` block."""
        grid = self.grid
        reader = self._reader(field)
        if not (grid.n_history < ti.min() and ti.max() < field.times.size - 1):
            raise DomainError("residual needs tau_upper + dt <= t <= T - dt")
        _, dec_g = self._ensure_tables(float(field.times[-1]) + grid.tau_upper)
        N = field.N
        mj = grid.m_nodes[jj]
        V_lo, V_mid, V_hi = self.params.velocity(
            grid.m_nodes[jj + np.array([[-1], [0], [1]])])
        dN_dt = (N[ti + 1][:, jj] - N[ti - 1][:, jj]) / (2.0 * grid.dt)
        here = N[ti]
        dx = grid.x_nodes[1] - grid.x_nodes[0]
        dflux_dx = (V_hi * here[:, jj + 1] - V_lo * here[:, jj - 1]) / (2.0 * dx)
        dflux_dm = dflux_dx * grid.x_nodes[jj] / V_mid

        nv_here = here[:, jj]
        delta = self.params.rates.delta_fn()(mj)
        decay = -(delta + self.kern.beta(mj, nv_here)) * nv_here
        weights = self._a_weights[:, None] * self._zeta_matrix(dec_g)[:, jj]
        # one read of main plus band (as the solve reads it) per sample time, its
        # 16 ages as rows: no read spans a history depth, so no slice is built twice
        gain = np.stack([self._delayed_flux(reader, tk, self._a_nodes, self._xdelta[:, jj],
                                            self._mdelta[:, jj], weights) for tk in t.tolist()])
        return dN_dt + dflux_dm - decay - gain

    def residual_stats(self, field: SolutionField) -> dict:
        """Residual magnitudes over a deterministic interior sample: 12 slice
        times and up to 24 seeded interior nodes."""
        grid = self.grid
        rng = np.random.default_rng(0)
        lo_i = grid.n_history + 1
        hi_i = field.times.size - 2
        t_idx = np.unique(np.linspace(lo_i, hi_i, 12, dtype=int))
        j_idx = np.unique(rng.integers(1, grid.m_nodes.size - 1, size=24))
        vals = np.abs(self._residuals(field, t_idx * grid.dt, t_idx, j_idx)).ravel()
        return {"max": float(vals.max()), "median": float(np.median(vals)),
                "n_samples": int(vals.size)}
