"""The package's one piecewise cubic, ``HermiteCubic``: the solver's slices,
the tabulated flow coordinate, the attenuation tables and the CLI's tabulated
laws all read through it. Its arithmetic is scipy 1.17.1's, operation for
operation, so it gives scipy's bits (``TestHermiteCubic`` pins this). A
``NodeSet`` holds what every build on one node set shares, and ``ppoly_sum``
is the one sum, also for the solver's gathers from its coefficient block.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


class Located:
    """Query points ``xq`` bracketed once on the nodes ``x``: the interval i with
    x[i] <= xq < x[i+1] (the end intervals extended outward), s = xq - x[i], s^2,
    s^3 and, sought on first use, the flat positions outside [x[0], x[-1]] or NaN."""

    __slots__ = ("x", "shape", "flat", "index", "s", "s2", "s3", "_outside")

    def __init__(self, x: np.ndarray, xq):
        xq = np.asarray(xq, dtype=float)
        self.x, self.shape, self.flat = x, xq.shape, xq.ravel()
        # counting the interior nodes at or below xq clips to [0, n-2] for free
        self.index = x[1:-1].searchsorted(self.flat, side="right")
        self.s = self.flat - x.take(self.index)
        self.s2 = self.s * self.s
        self.s3 = self.s2 * self.s
        self._outside = None                # not sought yet

    @property
    def outside(self) -> np.ndarray:
        if self._outside is None:
            flat, x = self.flat, self.x
            self._outside = np.flatnonzero(~((flat >= x[0]) & (flat <= x[-1])))
        return self._outside


class NodeSet:
    """The constants of one strictly increasing node set that every PCHIP build
    on it shares: the spacings h, the slope weights 2h[1:] + h[:-1] and
    h[1:] + 2h[:-1] with their sum, and the spacings at either end."""

    __slots__ = ("x", "h", "w1", "w2", "w12", "head", "tail", "end_h0", "end_lead",
                 "end_sum")

    END0, END1 = np.array([0, -1]), np.array([1, -2])   # end secants, their neighbours

    def __init__(self, x: np.ndarray):
        self.x = x
        h = self.h = x[1:] - x[:-1]
        self.w1 = 2 * h[1:] + h[:-1]
        self.w2 = h[1:] + 2 * h[:-1]
        self.w12 = self.w1 + self.w2
        self.head, self.tail = h[:2].tolist(), h[:-3:-1].tolist()
        if h.size > 1:                      # _edge_slope's spacings at both ends
            h0, h1 = h[self.END0], h[self.END1]
            self.end_h0, self.end_lead, self.end_sum = h0, 2 * h0 + h1, h0 + h1


def _sign(v: float) -> int:
    return (v > 0.0) - (v < 0.0)


def _edge_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end slope, clipped to preserve shape (Moler,
    *Numerical Computing with MATLAB*, 3.6)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _edge_slopes(nodes: NodeSet, m: np.ndarray) -> np.ndarray:
    """``_edge_slope`` at both ends of each row of secants m, by its expressions:
    a ``(B, 2)`` array of the first and the last node slope."""
    m0, m1 = m[:, nodes.END0], m[:, nodes.END1]
    d = (nodes.end_lead * m0 - nodes.end_h0 * m1) / nodes.end_sum
    s0 = np.sign(m0)                        # m is never NaN once y is finite
    flip = np.sign(d) != s0                 # a NaN d flips, as _sign(NaN) = 0 does
    clip = (s0 != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(flip, 0.0, np.where(clip, 3.0 * m0, d))


def _node_slopes(nodes: NodeSet, m: np.ndarray) -> np.ndarray:
    """Node slopes from the node set's spacings and the secants m (one row per
    leading index): the weighted harmonic mean of the neighbouring secants,
    zero where they change sign or one vanishes, one-sided at the ends; two
    nodes take the secant at both."""
    if m.shape[-1] == 1:
        return np.concatenate([m, m], axis=-1)
    sm = np.sign(m)
    # a subnormal secant overflows w / m to inf, which makes the mean 0, as in scipy
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        harmonic = 1.0 / ((nodes.w1 / m[..., :-1] + nodes.w2 / m[..., 1:]) / nodes.w12)
    d = np.empty(m.shape[:-1] + (m.shape[-1] + 1,))
    # scipy's "signs differ or either is zero": no secant is NaN once y is finite
    d[..., 1:-1] = np.where(sm[..., 1:] * sm[..., :-1] <= 0.0, 0.0, harmonic)
    if m.ndim == 1:
        d[0] = _edge_slope(*nodes.head, *m[:2].tolist())
        d[-1] = _edge_slope(*nodes.tail, *m[:-3:-1].tolist())
    else:
        d[:, nodes.END0] = _edge_slopes(nodes, m)
    return d


def ppoly_sum(c, q: Located, extrapolate: bool) -> np.ndarray:
    """``PPoly``'s sum of the gathered coefficient rows ``c`` (an array or a
    list of rows, highest power first) at the points ``q``, in place on c's
    last row. A row's last axis runs over q's flat points; axes before it
    broadcast. Unless ``extrapolate``, points outside the nodes read NaN."""
    out = c[-1]
    out += c[-2] * q.s
    out += c[-3] * q.s2
    if len(c) == 4:                         # a cubic, not its derivative
        out += c[0] * q.s3
    if not extrapolate and q.outside.size:
        out[..., q.outside] = np.nan
    return out


class HermiteCubic:
    """Cubic through (x, y) with node slopes ``dydx``, or else the monotone PCHIP
    slopes (Fritsch & Carlson, SIAM J. Numer. Anal. 17(2), 1980), as scipy's
    ``CubicHermiteSpline`` or ``PchipInterpolator``, summed in ``PPoly``'s order,
    end pieces extrapolated. ``x`` is the node array or its ``NodeSet``; the
    owner checks x strictly increasing, all finite. A ``(B, n)`` array y builds
    B cubics on the nodes at once, each with the bits of its own build, and a
    read returns one row of values per cubic."""

    extrapolate = True                      # else points outside [x[0], x[-1]] read NaN

    def __init__(self, x: np.ndarray, y, dydx=None):
        y = np.asarray(y, dtype=float)
        nodes = x if isinstance(x, NodeSet) else NodeSet(x)
        self.x, h = nodes.x, nodes.h
        m = (y[..., 1:] - y[..., :-1]) / h
        d = _node_slopes(nodes, m) if dydx is None else np.asarray(dydx, dtype=float)
        t = (d[..., :-1] + d[..., 1:] - 2 * m) / h
        c = self.c = np.empty((4,) + m.shape)
        np.divide(t, h, out=c[0])
        np.subtract((m - d[..., :-1]) / h, t, out=c[1])
        c[2] = d[..., :-1]
        # PPoly's sum starts from 0.0, which turns a -0.0 constant term into +0.0
        np.add(y[..., :-1], 0.0, out=c[3])

    def derivative(self) -> "HermiteCubic":
        """The piecewise quadratic dy/dx, as ``PPoly.derivative`` builds it."""
        out = object.__new__(type(self))
        out.x, out.c = self.x, self.c[:3] * np.array([[3.0], [2.0], [1.0]])
        out.c[2] += 0.0                     # the constant term, as in __init__
        return out

    def at(self, q: Located) -> np.ndarray:
        """Values at query points located on this interpolant's nodes."""
        if q.x is not self.x:
            raise DomainError("the query points were located on another node set")
        c = self.c
        # one row: take; a batch gathers faster by indexing
        c = c.take(q.index, axis=1) if c.ndim == 2 else c[..., q.index]
        return ppoly_sum(c, q, self.extrapolate).reshape(self.c.shape[1:-1] + q.shape)

    def __call__(self, xq) -> np.ndarray:
        return self.at(Located(self.x, xq))
