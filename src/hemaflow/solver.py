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
feet x * exp(-dt), on the main nodes or on main plus band. The running
integrals G and J ride along it, each step a shift plus a trapezoid increment
(the attenuation tables make the flow factorization of K exact), and
``_rk4_step`` integrates the band, warmup and proliferating equations along
characteristics. Those three marches share one stage table, built with the
solver: a step's stage points x * exp(-s) for s = dt, dt/2, 0 on main plus
band, their maturities and both phases' decay rates there. A march on the
main nodes reads the table's head, the band march its tail, which is also the
tail of the full shift.

A window's sweeps run as a wavefront (``Solver._j_sweep``): row r of Picard
iterate k needs only rows r - 1 and r of iterate k - 1, so one wave step
advances G and the transported past outflux by a row and every iterate in
flight by the row behind its predecessor's, all through one row-batched
shift. Iterates start before the ones ahead of them pass the convergence
test, as many as the previous window needed (the first window takes its
count from the factorial envelope), and the rows of any that turn out not
to be needed are dropped. Each row keeps its arithmetic, so the iterates,
deltas and iteration counts are those of one sweep at a time, bit for bit.

Every read at (t, x) -- the solve's ring, phi(tau_upper, .), the warmup
record, ``SolutionField.lookup`` -- goes through one store, ``HistoryField``,
which wraps the solver's own slice arrays and reads them monotone-cubically in
x and linearly in t. Every read is a block read over an array of times; a
scalar time is a block of one.

Transport and the store build through ``PchipInterpolator``, the slice form of
the package's one cubic (``hemaflow.cubic``), with the constants of each node
set computed once; a one-row shift or slot build takes the 1-D path, which
gives the same bits sooner. The store keeps the slices' coefficients in one
block, slot i % capacity for slice i, builds the slices a read lacks in
batches, and reads many times in one call: a window's division influx is one
read and one ``beta`` call per age node over all its rows, each slice of its
span read once, and its history pull is one read. ``proliferating`` reads the
sources of a chunk of steps the same way, one read per stage, and marches
only the RK4 steps one at a time. The transport feet, the 16 division-age
points and P's stage points are ``Located`` once, so a read is a gather plus
a cubic; a large point set on a uniform node set is located by arithmetic
instead of a binary search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cubic import HermiteCubic, Located, NodeSet, ppoly_sum
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


def check_slice_bytes(m_nodes, dt_divisor, tau_lower: float, T: float) -> None:
    """Refuse, before allocating, a solve to horizon T whose float64 slices
    (m_nodes wide, dt = tau_lower / dt_divisor; counts clip at 1e300) pass the cap."""
    need = 8.0 * min(m_nodes, 1e300) * (T / tau_lower * min(dt_divisor, 1e300) + 1.0)
    if not need <= MAX_SLICE_BYTES:
        raise ConfigurationError(f"the solve would hold {need:.3g} bytes of slices, "
                                 f"above the cap of {MAX_SLICE_BYTES}")


def _eval_two_arg(fn: Callable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Evaluate fn on broadcast arrays, falling back to np.vectorize."""
    try:
        return fit_shape(fn(a, b), np.broadcast_shapes(a.shape, b.shape))
    except (ValueError, TypeError):
        return np.vectorize(fn, otypes=[float])(a, b)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def history_steps(tau_upper: float, dt: float) -> int:
    """Time steps of the history [-tau_upper, 0] at step dt (Grid.n_history)."""
    return round(tau_upper / dt)


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
                    "an integer (adjust dt_divisor)")
        if self.x_nodes.size < 8:
            raise ConfigurationError("need at least 8 maturity nodes")
        if np.any(np.diff(self.m_nodes) <= 0.0):
            raise ConfigurationError("maturity nodes must be strictly increasing")

    @property
    def n_window(self) -> int:
        return round(self.tau_lower / self.dt)

    @property
    def n_history(self) -> int:
        return history_steps(self.tau_upper, self.dt)

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
        xs = np.linspace(0.0, top, m_nodes)
        ms = np.asarray(flow.h_inv(xs))
        ms[0], ms[-1] = 0.0, flow.g1
        # the band (g(1), 1] at the main spacing: its history must fit the cap too
        band = (1.0 - top) / float(xs[1] - xs[0]) if top > 0.0 else math.inf
        check_slice_bytes(m_nodes + band, dt_divisor, tau_lower, tau_upper)
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

    def __init__(self, x: np.ndarray, y, window_index: Optional[int] = None):
        if not np.isfinite(y).all():
            # the first place a NaN-producing rate law shows up in a solve
            where = "" if window_index is None else f" in window {window_index}"
            raise ConvergenceError(
                f"non-finite values in the transported field{where}; "
                "check the rate laws for NaN or inf", window_index=window_index)
        super().__init__(x, y)


class _Shift:
    """One step dt of transport: values on the nodes ``x``, re-interpolated
    monotone-cubically at the fixed feet ``x_out * exp(-dt)``."""

    def __init__(self, x: np.ndarray, x_out: np.ndarray, dt: float):
        self.nodes = NodeSet(x)
        self.feet = Located(self.nodes, x_out * math.exp(-dt))

    def __call__(self, values: np.ndarray, window_index: Optional[int] = None) -> np.ndarray:
        if values.ndim == 2 and len(values) == 1:
            # one row builds and reads faster through the 1-D path, with the same bits
            return self(values[0], window_index)[None]
        return PchipInterpolator(self.nodes, values, window_index).at(self.feet)


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

    Wraps an existing ``(n_slices, M)`` array without copying; with an ``upper``
    band array, row i is ``values[i]`` followed by ``upper[i][1:]`` and ``x``
    spans both. Slices ``0 .. filled - 1`` are readable, and the owner raises
    ``filled`` as it finalizes slices. Slice i's cubic coefficients live in
    slot ``i % capacity`` of one ``(capacity, 4, K)`` block, ``capacity`` being
    ``keep`` or the slice count if fewer. A block read builds the slices it
    lacks together, as one batched cubic per ``_BUILD_ROWS`` slices (a single
    slice through the 1-D cubic, with the same bits), and a slice whose slot
    was taken since is rebuilt when read again. Every read is a block read: a
    scalar time is a block of one. A read with one point set at consecutive
    slice times, every time between slices or none, reads each slice of its
    span once; any other read gathers both slices of every time. A query set
    read many times can be passed ``Located`` on ``x``.
    """

    def __init__(self, x: np.ndarray, dt: float, values: np.ndarray, *,
                 upper: Optional[np.ndarray] = None, filled: Optional[int] = None,
                 keep: float = math.inf):
        self.x = x
        self.dt = dt
        self.values = values
        self.upper = upper
        self.filled = len(values) if filled is None else filled
        self.capacity = int(max(1, min(keep, len(values))))
        self.nodes = NodeSet(x)
        self._block = np.empty((self.capacity, 4, x.size - 1))
        self._held = np.full(self.capacity, -1)         # the slice in each slot

    def row(self, i: int) -> np.ndarray:
        if self.upper is None:
            return self.values[i]
        return np.concatenate([self.values[i], self.upper[i][1:]])

    def _build(self, rows: np.ndarray) -> None:
        """Build the slices ``rows`` (distinct modulo capacity) into their
        slots, as one batched cubic; one slice builds faster through the 1-D
        cubic, with the same bits."""
        slots = rows % self.capacity
        if rows.size == 1:
            self._block[slots[0]] = PchipInterpolator(self.nodes, self.row(rows[0])).c
        else:
            y = self.values[rows]
            if self.upper is not None:
                y = np.concatenate([y, self.upper[rows, 1:]], axis=1)
            self._block[slots] = PchipInterpolator(self.nodes, y).c.transpose(1, 0, 2)
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
        elif ahead.any():
            # both slices of every time in one read; one point set serves all
            block = self._read_rows(np.concatenate([i, i + ahead]), index if
                                    index.shape[0] == 1 else np.concatenate([index, index]), xq)
            out, nxt = block[:R], block[R:]
        else:
            out = self._read_rows(i, index, xq)
        if ahead.any():
            # a row at theta = 0 read slice i twice, and v + 0.0 * v is v
            theta = theta[:, None]
            out = (1.0 - theta) * out + theta * nxt
        return out.reshape(xq.shape) if single else out

    def _read_rows(self, rows: np.ndarray, index: np.ndarray, q: Located) -> np.ndarray:
        """Slice ``rows[r]`` at the intervals ``index[r]`` (or ``index[0]``),
        summed at q's points into ``(R, M)``. The missing slices are built in
        batches, as many at a time as the block holds."""
        cap, n = self.capacity, self._block.shape[2]
        # flat block positions in the first plane; the last axis runs over q's points
        at = ((rows % cap * 4 * n)[:, None] + index).reshape(-1, q.flat.size)
        todo = np.unique(rows)
        c = None
        while todo.size:
            group, todo = todo[todo < todo[0] + cap], todo[todo >= todo[0] + cap]
            missing = group[self._held[group % cap] != group]
            for k in range(0, missing.size, _BUILD_ROWS):
                self._build(missing[k:k + _BUILD_ROWS])
            part = [self._block.reshape(-1).take(at + k * n) for k in range(4)]
            if c is None:
                c = part
            else:
                mine = np.broadcast_to(np.isin(rows, group)[:, None],
                                       (rows.size, index.shape[1])).reshape(at.shape)
                c = [np.where(mine, a, b) for a, b in zip(part, c)]
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

    times: np.ndarray
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
        times = np.arange(grid.n_history + 1) * grid.dt
        tt = times[:, None]
        vals = _eval_two_arg(phi, tt, grid.m_nodes[None, :])
        up = None
        if upper is not None:
            up = _eval_two_arg(upper, tt, grid.band_m[None, :])
        return cls(times=times, values=vals, upper=up)

    @classmethod
    def zeros(cls, grid: Grid) -> "InitialHistory":
        times = np.arange(grid.n_history + 1) * grid.dt
        return cls(times=times, values=np.zeros((times.size, grid.m_nodes.size)))


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


def _store_depth(metadata) -> float:
    """Slices a field's store holds: one history depth plus two when the
    metadata records the grid, as a solve's and its reload's does (the solver's
    own reads of a field, the sink of P and the residual's division ages, reach
    back no further), else every slice."""
    grid = metadata.get("grid") if isinstance(metadata, dict) else None
    try:
        return history_steps(grid["tau_upper"], grid["dt"]) + 2
    except (TypeError, KeyError, ValueError, OverflowError, ZeroDivisionError):
        return math.inf


class SolutionField:
    """Full record of N (and optionally P) on [0, T] x [0, g(1)].

    ``x`` holds the flow coordinates of the maturity nodes; it is None for a
    field read back from CSV, which stores maturities only, and such a field
    refuses lookups in flow coordinates. Lookups read through ``HistoryField``
    stores that hold ``n_history + 2`` slices when ``metadata["grid"]`` records
    the grid (a solve's field and its reload), else every slice.
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
        self._stores: dict = {}           # combined -> HistoryField, built on first lookup
        self._keep = _store_depth(self.metadata)   # slices each store holds

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def lookup(self, t: float, xq, *, combined: bool = False) -> np.ndarray:
        """N at time t (linear between slices) and flow coordinates xq, raw or
        ``Located`` on the nodes of ``_store(combined)``."""
        return self._store(combined).lookup(t, xq)

    def _store(self, combined: bool = False) -> HistoryField:
        """The store that reads N, or N and the band's N when ``combined`` and
        the field has a band; built on first use."""
        if self.x is None:
            raise DomainError(
                "this field carries no flow coordinates (CSV stores maturities "
                "only); reload it with SolutionField.load to look it up")
        combined = combined and self.upper is not None
        if combined not in self._stores:
            x, upper = ((np.concatenate([self.x, self.upper.x[1:]]), self.upper.N)
                        if combined else (self.x, None))
            self._stores[combined] = HistoryField(x, self.dt, self.N, upper=upper,
                                                  keep=self._keep)
        return self._stores[combined]

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
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        times = np.unique(data[:, 0])
        m = np.unique(data[:, 1])
        n_t, n_m = times.size, m.size
        if n_t * n_m != data.shape[0]:
            raise ConfigurationError("CSV is not a complete time x maturity table")
        N = data[:, 2].reshape(n_t, n_m)
        P = data[:, 3].reshape(n_t, n_m) if data.shape[1] > 3 else None
        return cls(times=times, x=None, m=m, N=N, P=P)

    def save(self, path_prefix) -> None:
        """Compact binary table plus a JSON sidecar with run metadata."""
        import json
        arrays = {"times": self.times, "x": self.x, "m": self.m, "N": self.N,
                  "P": self.P}
        if self.upper is not None:
            arrays.update(upper_x=self.upper.x, upper_m=self.upper.m,
                          upper_N=self.upper.N, upper_P=self.upper.P)
        np.savez_compressed(str(path_prefix) + ".npz",
                            **{k: v for k, v in arrays.items() if v is not None})
        with open(str(path_prefix) + ".meta.json", "w") as fh:
            json.dump(self.metadata, fh, indent=2, sort_keys=True, default=float)

    @classmethod
    def load(cls, path_prefix) -> "SolutionField":
        import json
        import os
        data = np.load(str(path_prefix) + ".npz")
        meta_path = str(path_prefix) + ".meta.json"
        metadata = {}
        if os.path.exists(meta_path):
            with open(meta_path) as fh:
                metadata = json.load(fh)
        upper = None
        if "upper_x" in data:
            upper = UpperBand(x=data["upper_x"], m=data["upper_m"], N=data["upper_N"],
                              P=data["upper_P"] if "upper_P" in data else None)
        return cls(times=data["times"], x=data["x"] if "x" in data else None,
                   m=data["m"], N=data["N"],
                   P=data["P"] if "P" in data else None, upper=upper,
                   metadata=metadata)


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
        self.failed = None        # (iterate, error): a non-finite shift, held back
        self.J_end = None         # the refresh sweep's J at the last slice


class _RunState:
    """Mutable scratch owned by one solve (windows advance it in place). The
    wave's stores are sized once, for ``max_depth`` iterates."""

    def __init__(self):
        self.N = None             # (n_slices, M) main field, filled as we go
        self.band = None          # (n_slices, NB) or None
        self.ring = None          # HistoryField over N (and band); filled = finalized slices
        self.history = None       # HistoryField over the history slices of N
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
        self._log_gi = flow.log_h(g.inverse(grid.m_nodes))        # ln h(g_inv(m_j))
        a_nodes, a_weights = mapped_rule(params.tau_lower, params.tau_upper, 16)
        self._a_nodes, self._a_weights = a_nodes, a_weights
        self._xdelta = np.exp(self._log_gi[None, :] - a_nodes[:, None])   # (16, M)
        self._mdelta = flow.h_inv_log(self._log_gi[None, :] - a_nodes[:, None])
        # one-step transports of the main grid and of main plus band (warmup,
        # P and, by its tail, the band march)
        x_full = grid.x_full
        self._shift_main = _Shift(xs, xs, grid.dt)
        self._shift_full = _Shift(x_full, x_full, grid.dt)
        # the stage table of a characteristic step: points x e^-s on main plus
        # band at s = dt, dt/2, 0, their maturities and the resting and
        # proliferating decay rates there; main nodes read the head [:M], the
        # band nodes the tail [M - 1:]
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
        xi_qa = np.exp(dec_g.log_survival(np.exp(self._log_gi)[None, :],
                                          self._a_nodes[:, None]))
        return 2.0 * k_qa * xi_qa

    # -- windowed solve ----------------------------------------------------------

    def start(self, history: InitialHistory, T: float) -> _RunState:
        grid = self.grid
        nh = grid.n_history
        if T < grid.tau_upper - 1e-12:
            raise ConfigurationError("horizon T must be at least tau_upper")
        check_slice_bytes(grid.m_nodes.size, grid.n_window, grid.tau_lower, T)
        for name, arr, nodes in (("history", history.values, grid.m_nodes.size),
                                 ("upper-band history", history.upper, grid.band_m.size)):
            if arr is not None and arr.shape != (nh + 1, nodes):
                raise ConfigurationError(f"{name} shape {arr.shape} does not match "
                                         f"the grid ({nh + 1} slices x {nodes} nodes)")
        if not (np.all(np.isfinite(history.values)) and
                (history.upper is None or np.all(np.isfinite(history.upper)))):
            raise ConfigurationError("history values must be finite")
        n_steps = grid.steps_to(T)

        use_band = history.upper is not None
        x_reach = math.exp(-grid.tau_lower)
        if x_reach > grid.x_nodes[-1] * (1.0 + 1e-12) and not use_band:
            raise ConfigurationError(
                "division ancestry reaches above g(1) (tau_lower below the "
                "crossing time at g(1)); supply history on the upper band")

        st = _RunState()
        st.n_slices = nh + n_steps + 1
        st.N = np.empty((st.n_slices, grid.m_nodes.size))
        st.N[:nh + 1] = history.values
        if use_band:
            st.band = np.empty((st.n_slices, grid.band_m.size))
            st.band[:nh + 1] = history.upper
        x_active = grid.x_full if use_band else grid.x_nodes
        # a window's reaches t - a, a in (tau_lower, tau_upper), span at most
        # n_history + 1 slices, so no slice is rebuilt while still needed
        st.ring = HistoryField(x_active, grid.dt, st.N, upper=st.band, filled=nh + 1,
                               keep=nh + 2)
        st.history = HistoryField(grid.x_nodes, grid.dt, st.N, filled=nh + 1, keep=1)
        st.age_points = tuple(Located(st.ring.x, xd) for xd in self._xdelta)
        M = grid.m_nodes.size
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

    def _q_slice(self, st: _RunState, i0: int, steps: int) -> np.ndarray:
        """Inner division integral (age quadrature) at slices i0 .. i0 + steps,
        one read and one ``beta`` call per age node on the whole block."""
        t = np.arange(i0, i0 + steps + 1) * self.grid.dt
        acc = np.zeros((steps + 1, self.grid.m_nodes.size))
        for q in range(self._a_nodes.size):
            nv = st.ring.lookup(t - self._a_nodes[q], st.age_points[q])
            acc += (self._a_weights[q] * st.zeta_qa[q]
                    * self.kern.beta(self._mdelta[q], nv) * nv)
        return acc

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
        pulled = st.history.lookup(np.full(steps + 1, nh * grid.dt),
                                   grid.x_nodes * shrink[:, None])
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
        iterate. A non-finite shift in an iterate raises only once the
        iterates before it show that the one-at-a-time order would run it.
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
            except ConvergenceError as err:
                bad = int(np.argmin(np.isfinite(x).all(axis=1))) + lo - fixed
                if bad < 0 or k0 + bad <= len(win.deltas):
                    raise                   # G, J_past or an iterate that runs next
                win.failed = (k0 + 1 + bad, err)
                live = bad
                hi = fixed + min(j_hi, live)
                if hi <= lo:
                    continue
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
        if win.failed is not None and win.failed[0] == k + 1:
            raise win.failed[1]             # held back until iterate k + 1 was due

    def _advance_band(self, st: _RunState, i0: int, steps: int) -> None:
        """Transport-decay march of the upper band across one window, on the
        tails of the full shift and of the stage table."""
        tail = self.grid.m_nodes.size - 1
        stage_m = tuple(mm[tail:] for mm in self._stage_m)
        stage_psi = tuple(p[tail:] for p in self._stage_psi_r)
        beta = self.kern.beta

        def rhs(stage, u):
            return -(stage_psi[stage] + beta(stage_m[stage], u)) * u

        for r in range(1, steps + 1):
            u0 = self._shift_full(st.ring.row(i0 + r - 1), st.window_index)[tail:]
            st.band[i0 + r] = _rk4_step(u0, self.grid.dt, rhs)

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
        beta = self.kern.beta
        M = grid.m_nodes.size
        x_full = grid.x_full
        m_full = grid.m_full
        n_full = x_full.size

        stage_m, stage_psi = self._stage_m, self._stage_psi_r
        # the table's head, the main nodes, for the source terms
        stage_main = tuple(mm[:M] for mm in stage_m)
        stage_lgi = tuple(flow.log_h(g.inverse(mm)) for mm in stage_main)
        stage_xgi = tuple(np.exp(lg) for lg in stage_lgi)

        def source(sigma: float, stage: int, record: HistoryField) -> np.ndarray:
            """Division influx at warmup time sigma on main nodes."""
            out = np.zeros(M)
            lgi = stage_lgi[stage]
            mm = stage_main[stage]
            # boundary part: mothers already proliferating at t = 0
            a_lo = max(sigma, tau_lo)
            if a_lo < tau_up - 1e-14:
                a_nodes, a_w = mapped_rule(a_lo, tau_up, 16)
                mothers_now = flow.h_inv_log(lgi - sigma)       # Delta(sigma, m)
                gam = _eval_two_arg(data.Gamma, mothers_now[None, :],
                                    (a_nodes - sigma)[:, None])
                k_qa = self.params.division.k(mm[None, :], a_nodes[:, None], flow.g1)
                xi_now = np.exp(dec_g.log_survival(stage_xgi[stage], sigma))
                out += 2.0 * xi_now * np.einsum("q,qj->j", a_w, k_qa * gam)
            # delayed part: daughters of cells reintroduced after t = 0
            if sigma > tau_lo + 1e-14:
                a_nodes, a_w = mapped_rule(tau_lo, sigma, 16)
                k_qa = self.params.division.k(mm[None, :], a_nodes[:, None], flow.g1)
                xi_qa = np.exp(dec_g.log_survival(stage_xgi[stage][None, :],
                                                  a_nodes[:, None]))
                lg = lgi[None, :] - a_nodes[:, None]
                nv = record.lookup(sigma - a_nodes, np.exp(lg))
                rate = beta(flow.h_inv_log(lg), nv)
                acc = np.zeros(M)
                for q in range(16):
                    acc += a_w[q] * k_qa[q] * xi_qa[q] * rate[q] * nv[q]
                out += 2.0 * acc
            return out

        values = np.empty((nh + 1, n_full))
        values[0] = data.N0(m_full)
        if not np.all(np.isfinite(values[0])):
            raise ConfigurationError("N0 must be finite")
        record = HistoryField(x_full, dt, values, filled=1)

        for i in range(1, nh + 1):
            t0 = (i - 1) * dt
            sigmas = (t0, t0 + 0.5 * dt, t0 + dt)
            src = tuple(source(sigma, stage, record) for stage, sigma in enumerate(sigmas))

            def rhs(stage: int, u: np.ndarray) -> np.ndarray:
                out = -(stage_psi[stage] + beta(stage_m[stage], u)) * u
                out[:M] += src[stage]
                return out

            values[i] = _rk4_step(self._shift_full(values[i - 1]), dt, rhs)
            if not np.all(np.isfinite(values[i])):
                raise ConfigurationError(
                    f"warmup produced non-finite densities at t = {i * dt:.6g}; "
                    "check Gamma and N0")
            record.filled = i + 1

        times = np.arange(nh + 1) * dt
        return InitialHistory(times=times, values=values[:, :M].copy(),
                              upper=values[:, M - 1:].copy())

    # -- proliferating phase reconstruction ----------------------------------------

    def proliferating(self, field: SolutionField, Gamma: Callable) -> SolutionField:
        """Reconstruct P along characteristics from the initial age density
        ``Gamma(m, a)`` of the proliferating phase and attach it to the field.

        The sink switches regime at tau_upper: before, it drains the initial
        age density reaching the division deadline; after, it drains the
        reintroduction flux delayed by the full proliferation span. Slice
        times at the switch use the early regime. Each stage's points are
        located once on the field's store; a chunk of steps reads its influx
        and its sink with one lookup per stage, and only the march itself
        advances a slice at a time.
        """
        grid = self.grid
        dt = grid.dt
        tau_up = grid.tau_upper
        _, dec_g = self._ensure_tables(float(field.times[-1]) + tau_up)
        flow = self.flow
        beta = self.kern.beta
        has_band = field.upper is not None
        x_act = grid.x_full if has_band else grid.x_nodes
        m_act = grid.m_full if has_band else grid.m_nodes
        M = grid.m_nodes.size
        nodes = field._store(has_band).nodes

        # the stage table, whole with a band, else its head
        stage_x, stage_m, stage_psi = (tuple(a[:x_act.size] for a in part) for part in
                                       (self._stage_x, self._stage_m, self._stage_psi_p))
        with np.errstate(divide="ignore"):
            stage_lx = tuple(np.where(sx > 0.0, np.log(np.maximum(sx, 1e-300)), -np.inf)
                             for sx in stage_x)
        stage_xi_up = tuple(np.exp(dec_g.log_survival(sx, tau_up)) for sx in stage_x)
        stage_x_back = tuple(np.exp(lx - tau_up) for lx in stage_lx)
        stage_m_back = tuple(np.asarray(flow.h_inv_log(lx - tau_up)) for lx in stage_lx)
        at_x = tuple(Located(nodes, sx) for sx in stage_x)
        at_back = tuple(Located(nodes, sx) for sx in stage_x_back)

        def sink(sigma: np.ndarray, stage: int) -> np.ndarray:
            out = np.empty((sigma.size, x_act.size))
            early = (sigma < tau_up) | (np.abs(sigma - tau_up) < _TIME_SNAP)
            if early.any():
                s = sigma[early, None]
                mothers = flow.h_inv_log(stage_lx[stage] - s)
                gam = _eval_two_arg(Gamma, mothers, tau_up - s)
                out[early] = gam * np.exp(dec_g.log_survival(stage_x[stage], s))
            if not early.all():
                late = ~early
                nv = field.lookup(sigma[late] - tau_up, at_back[stage], combined=has_band)
                out[late] = stage_xi_up[stage] * beta(stage_m_back[stage], nv) * nv
            return out

        def influx(sigma: np.ndarray, stage: int) -> np.ndarray:
            nv = field.lookup(sigma, at_x[stage], combined=has_band)
            return beta(stage_m[stage], nv) * nv

        # initial proliferating load: age integral of Gamma
        z, w = gauss_legendre(16)
        edges = np.linspace(0.0, tau_up, 9)
        P0 = np.zeros(x_act.size)
        for lo, hi in zip(edges[:-1], edges[1:]):
            half = 0.5 * (hi - lo)
            a_nodes = lo + half * (z + 1.0)
            gam = _eval_two_arg(Gamma, m_act[None, :], a_nodes[:, None])
            P0 += half * np.einsum("q,qj->j", w, gam)

        n_slices = field.times.size
        P = np.empty((n_slices, x_act.size))
        P[0] = P0
        shift = self._shift_full if has_band else self._shift_main
        # at most a history depth of steps per chunk: with the sink read before
        # the influx, a store holding n_history + 2 slices builds each slice once
        chunk = max(1, min(grid.n_history, _CHUNK_BYTES // (8 * x_act.size)))

        def rhs(stage: int, u: np.ndarray) -> np.ndarray:
            # row r of the chunk's sources, as the march below sets r
            return -stage_psi[stage] * u + src[stage][r] - drain[stage][r]

        for i0 in range(1, n_slices, chunk):
            t0 = np.arange(i0 - 1, min(i0 + chunk, n_slices) - 1) * dt
            sigmas = (t0, t0 + 0.5 * dt, t0 + dt)
            drain = [sink(sigma, stage) for stage, sigma in enumerate(sigmas)]
            src = [influx(sigma, stage) for stage, sigma in enumerate(sigmas)]
            for r in range(t0.size):
                P[i0 + r] = _rk4_step(shift(P[i0 + r - 1]), dt, rhs)

        field.P = P[:, :M].copy()
        if has_band:
            field.upper.P = P[:, M - 1:].copy()
        field.metadata.setdefault("emit", []).append("P")
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
        a = self._a_nodes
        md = self._mdelta[:, jj].T                                  # (J, 16)
        xd = self._xdelta[:, jj]                                    # (16, J)
        # math.exp, not np.exp: the two differ in the last bit on some inputs
        xg = np.array([math.exp(v) for v in self._log_gi[jj].tolist()])[:, None]
        weight = (self._a_weights * self.params.division.k(mj[:, None], a, self.flow.g1)
                  * np.exp(dec_g.log_survival(xg, a)))
        # one read of main plus band (as the solve reads it) per sample time, its
        # 16 ages as rows: no read spans a history depth, so no slice is built twice
        nv = np.stack([field.lookup(tk - a, xd, combined=True) for tk in t.tolist()])
        nv = np.ascontiguousarray(nv.transpose(0, 2, 1))
        # the age sum along a contiguous last axis adds as np.sum of 16 values does
        gain = 2.0 * np.sum(weight * self.kern.beta(md, nv) * nv, axis=-1)
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
        vals = np.abs(self._residuals(field, field.times[t_idx], t_idx, j_idx)).ravel()
        return {"max": float(vals.max()), "median": float(np.median(vals)),
                "n_samples": int(vals.size)}
