"""Executable verification of the model's structural results.

Each experiment turns one structural property into a falsifiable check:

* ``compute_tbar``       the stem-cell synchronization horizon built from the
                         ancestry recursion b_{n+1} = Lambda(b_n), and
                         ``default_horizon`` the solves' horizon built on it,
* ``exp_uniqueness``     two histories agreeing at small maturities produce
                         the same population past the horizon,
* ``exp_extinction``     no stem cells initially means extinction by the
                         horizon (and a positive control survives),
* ``exp_invariance``     under the margin condition the long-run population
                         is dominated by the small-maturity history norm,
* ``exp_positivity``     nonnegative histories stay nonnegative,
* ``resolvent_check``    the contraction property of the transport resolvent,
* ``resolvent_sweep``    that check for seeded smooth data at several lambdas,
* ``picard_rate_check``  recorded Picard deltas sit under the factorial
                         envelope.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, DomainError, PreconditionError
from .flow import FlowMap
from .kernels import InvarianceMargin, Kernels
from .quadrature import gauss_jacobi
from .solver import InitialHistory, SolutionField, Solver

TOL_MATCH = 1e-6           # relative match and invariance tolerance
POSITIVITY_FLOOR = 1e-8    # min(N) / max(N) a positivity run may reach


def _as_history(phi, grid) -> InitialHistory:
    if isinstance(phi, InitialHistory):
        return phi
    return InitialHistory.from_callable(phi, grid)


def smooth_bump(center: float, width: float, amplitude: float) -> Callable:
    """C-infinity bump supported exactly on [center - width, center + width]."""
    def bump(m):
        m = np.asarray(m, dtype=float)
        xi = (m - center) / width
        inside = np.abs(xi) < 1.0
        out = np.zeros(m.shape)
        with np.errstate(divide="ignore", over="ignore"):
            vals = amplitude * np.exp(1.0 - 1.0 / np.maximum(1.0 - xi ** 2, 1e-300))
        out[inside] = vals[inside]
        return out
    return bump


def random_nonneg_history(seed: int, *, level: float = 0.05) -> Callable:
    """Seeded, smooth, strictly nonnegative history callable phi(t, m):
    ``level`` plus four time-modulated Gaussian bumps."""
    rng = np.random.default_rng(seed)
    n_bumps = 4
    amps = rng.uniform(0.2, 1.0, n_bumps)
    mus = rng.uniform(0.0, 0.5, n_bumps)
    sigmas = rng.uniform(0.05, 0.25, n_bumps)
    omegas = rng.uniform(0.3, 2.0, n_bumps)
    phases = rng.uniform(0.0, 2.0 * np.pi, n_bumps)

    def phi(t, m):
        t = np.asarray(t, dtype=float)
        m = np.asarray(m, dtype=float)
        total = level + np.zeros(np.broadcast_shapes(t.shape, m.shape))
        for a, mu, sg, om, ph in zip(amps, mus, sigmas, omegas, phases):
            total = total + a * np.exp(-((m - mu) / sg) ** 2) * \
                (1.0 + 0.3 * np.sin(om * t + ph))
        return total
    return phi


# ---------------------------------------------------------------------------
# the synchronization horizon
# ---------------------------------------------------------------------------

@dataclass
class TbarResult:
    """Horizon after which agreement on [0, b] forces global agreement."""

    b: float
    t_bar: float
    b_sequence: np.ndarray
    t_sequence: np.ndarray
    M: int


def compute_tbar(kern: Kernels, b: float) -> TbarResult:
    """Iterate the ancestry inverse until it reaches g(1).

    Lambda inverts m -> delta(tau_lower, m); in flow coordinates that is the
    exact composition g(h_inv(h(m) * e^tau_lower)) with clamping at 1, which
    also realizes the continuous extension Lambda = g(1) above the fold.
    """
    flow = kern.flow
    tau_lo = kern.params.tau_lower
    tau_up = kern.params.tau_upper
    tau0 = flow.tau0()
    if not tau_lo > tau0:
        raise PreconditionError(
            f"stem-cell horizon needs tau_lower > tau0 "
            f"(tau_lower = {tau_lo:.6g}, tau0 = {tau0:.6g})")
    fold = float(flow.h_inv(math.exp(-tau_lo)))
    if not (0.0 < b < fold):
        raise PreconditionError(
            f"b must lie in (0, h_inv(e^-tau_lower)) = (0, {fold:.6g}); got {b:.6g}")
    g1 = flow.g1
    bs = [float(b)]
    while bs[-1] < g1 * (1.0 - 1e-14):
        x_up = float(flow.h(bs[-1])) * math.exp(tau_lo)
        nxt = float(kern.params.maturity(flow.h_inv(min(x_up, 1.0))))
        nxt = min(nxt, g1)
        if nxt <= bs[-1]:
            raise PreconditionError(
                "ancestry iteration stalled; tau_lower is too close to tau0")
        bs.append(nxt)
        if len(bs) > 100000:
            raise PreconditionError("ancestry iteration did not reach g(1)")
    b_seq = np.asarray(bs)
    log_hb = float(flow.log_h(b))
    t_seq = np.array([float(flow.log_h(bn)) - log_hb + n * tau_up
                      for n, bn in enumerate(b_seq)])
    return TbarResult(b=b, t_bar=float(t_seq[-1]), b_sequence=b_seq,
                      t_sequence=t_seq, M=len(bs) - 2)


def default_horizon(solver: Solver, b: Optional[float] = None) -> float:
    """The horizon an experiment solves to when given none: t_bar(b) +
    2 tau_upper for an experiment about maturities below b, else 5 tau_upper."""
    tau_up = solver.grid.tau_upper
    if b is None:
        return 5.0 * tau_up
    return compute_tbar(solver.kern, b).t_bar + 2.0 * tau_up


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class UniquenessReport:
    b: float
    t_bar: float
    b_sequence: list
    t_sequence: list
    times: np.ndarray
    divergence: np.ndarray
    scale: float
    tol_match: float
    verdict: bool
    observed_sync_time: Optional[float]
    difference_at_history_edge: float

    def to_dict(self):
        return {"kind": "uniqueness", "b": self.b, "t_bar": self.t_bar,
                "b_sequence": self.b_sequence, "t_sequence": self.t_sequence,
                "scale": self.scale, "tol_match": self.tol_match,
                "verdict": bool(self.verdict),
                "observed_sync_time": self.observed_sync_time,
                "difference_at_history_edge": self.difference_at_history_edge,
                "max_divergence_past_t_bar": float(np.max(
                    self.divergence[self.times >= self.t_bar - 1e-9],
                    initial=0.0))}

    def to_text(self):
        d = self.to_dict()
        lines = [f"uniqueness experiment  b = {self.b:g}",
                 f"  theoretical horizon t_bar = {self.t_bar:.6g}  (M = {len(self.b_sequence) - 2})",
                 f"  observed sync time        = {self.observed_sync_time}",
                 f"  diff at history edge      = {self.difference_at_history_edge:.3e}",
                 f"  max divergence past t_bar = {d['max_divergence_past_t_bar']:.3e}"
                 f"  (tolerance {self.tol_match:g} x scale {self.scale:g})",
                 f"  verdict: {'PASS' if self.verdict else 'FAIL'}"]
        return "\n".join(lines)


@dataclass
class ExtinctionReport:
    b: float
    t_bar: float
    times: np.ndarray
    sup_profile: np.ndarray
    scale: float
    tol_match: float
    verdict: bool
    control_sup_at_tbar: Optional[float] = None

    def to_dict(self):
        return {"kind": "extinction", "b": self.b, "t_bar": self.t_bar,
                "scale": self.scale, "tol_match": self.tol_match,
                "verdict": bool(self.verdict),
                "max_past_t_bar": float(np.max(
                    self.sup_profile[self.times >= self.t_bar - 1e-9], initial=0.0)),
                "control_sup_at_tbar": self.control_sup_at_tbar}

    def to_text(self):
        d = self.to_dict()
        lines = [f"extinction experiment  b = {self.b:g}",
                 f"  t_bar = {self.t_bar:.6g}",
                 f"  max |N| past t_bar = {d['max_past_t_bar']:.3e}"
                 f"  (tolerance {self.tol_match:g} x scale {self.scale:g})"]
        if self.control_sup_at_tbar is not None:
            lines.append(f"  control sup at t_bar = {self.control_sup_at_tbar:.3e}")
        lines.append(f"  verdict: {'PASS' if self.verdict else 'FAIL'}")
        return "\n".join(lines)


@dataclass
class InvarianceReport:
    margin: InvarianceMargin
    skipped: bool
    b: float
    t_bar: Optional[float] = None
    phi_norm_b: Optional[float] = None
    times: Optional[np.ndarray] = None
    sup_ratio: Optional[np.ndarray] = None
    verdict_global: Optional[bool] = None
    verdict_small_m: Optional[bool] = None
    tol: float = TOL_MATCH

    @property
    def verdict(self) -> Optional[bool]:
        if self.skipped:
            return None
        return bool(self.verdict_global and self.verdict_small_m)

    def to_dict(self):
        out = {"kind": "invariance", "margin": self.margin.to_dict(),
               "skipped": bool(self.skipped), "b": self.b, "tol": self.tol}
        if not self.skipped:
            out.update({"t_bar": self.t_bar, "phi_norm_b": self.phi_norm_b,
                        "verdict_global": bool(self.verdict_global),
                        "verdict_small_m": bool(self.verdict_small_m),
                        "max_ratio_past_t_bar": float(np.max(
                            self.sup_ratio[self.times >= self.t_bar - 1e-9],
                            initial=0.0))})
        return out

    def to_text(self):
        m = self.margin
        lines = [f"invariance experiment  b = {self.b:g}",
                 f"  l = {m.l:.6g}  I = {m.I:.6g}  zeta_tilde = {m.zeta_tilde:.6g}"
                 f"  lhs = {m.lhs:.6g}  condition {'holds' if m.satisfied else 'fails'}"]
        if self.skipped:
            lines.append("  skipped: condition not met (no claim made)")
        else:
            d = self.to_dict()
            lines.append(f"  t_bar = {self.t_bar:.6g}  ||phi||_b = {self.phi_norm_b:.6g}")
            lines.append(f"  max sup|N|/||phi||_b past t_bar = {d['max_ratio_past_t_bar']:.9g}")
            lines.append(f"  verdict: {'PASS' if self.verdict else 'FAIL'}")
        return "\n".join(lines)


@dataclass
class PositivityReport:
    n_runs: int
    worst_floor: float
    verdict: bool
    per_run: list = field(default_factory=list)

    def to_dict(self):
        return {"kind": "positivity", "n_runs": self.n_runs,
                "worst_floor": self.worst_floor, "verdict": bool(self.verdict),
                "per_run": self.per_run}

    def to_text(self):
        return (f"positivity experiment  {self.n_runs} runs\n"
                f"  worst min(N) / max(N) = {self.worst_floor:.3e}\n"
                f"  verdict: {'PASS' if self.verdict else 'FAIL'}")


@dataclass
class ResolventReport:
    lam: float
    sup_w: float
    sup_u: float
    bound_ok: bool
    residual_max: float
    residual_ok: bool
    u0_ok: bool
    m_grid: Optional[np.ndarray] = None
    u: Optional[np.ndarray] = None

    @property
    def verdict(self) -> bool:
        return bool(self.bound_ok and self.residual_ok and self.u0_ok)


@dataclass
class ResolventSweepReport:
    n_w: int
    lambdas: list
    checks: int
    verdict: bool

    def to_dict(self):
        return {"kind": "resolvent", "n_w": self.n_w, "lambdas": self.lambdas,
                "verdict": bool(self.verdict), "checks": self.checks}

    def to_text(self):
        return f"resolvent: {self.checks} checks, verdict {'PASS' if self.verdict else 'FAIL'}"


@dataclass
class PicardRateReport:
    n_windows: int
    max_iterations: int
    worst_ratio: float
    verdict: bool

    def to_dict(self):
        return {"kind": "picard_rate", "n_windows": self.n_windows,
                "max_iterations": self.max_iterations,
                "worst_ratio": self.worst_ratio, "verdict": bool(self.verdict)}

    def to_text(self):
        return (f"picard rate check  {self.n_windows} windows, "
                f"max {self.max_iterations} iterations\n"
                f"  worst delta / envelope ratio = {self.worst_ratio:.3f}\n"
                f"  verdict: {'PASS' if self.verdict else 'FAIL'}")


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _agreement_nodes(grid, b):
    return grid.m_nodes <= b + 1e-12


def exp_uniqueness(solver: Solver, phi1, phi2, b: float, *,
                   horizon: Optional[float] = None) -> UniquenessReport:
    """Run two solves whose histories agree on [0, b] and compare them."""
    grid = solver.grid
    h1 = _as_history(phi1, grid)
    h2 = _as_history(phi2, grid)
    sel = _agreement_nodes(grid, b)
    scale = max(h1.sup(), h2.sup(), 1e-300)
    gap = float(np.max(np.abs(h1.values[:, sel] - h2.values[:, sel]), initial=0.0))
    if gap > 1e-13 * scale:
        raise PreconditionError(
            f"histories differ on [0, b] by {gap:.3e}; the uniqueness "
            "experiment requires exact agreement below b")
    tb = compute_tbar(solver.kern, b)
    T = horizon if horizon is not None else default_horizon(solver, b)
    f1, f2 = (solver.solve(h, T) for h in (h1, h2))
    divergence = np.max(np.abs(f1.N - f2.N), axis=1)
    times = f1.times
    tail_ok = divergence <= TOL_MATCH * scale
    verdict = bool(np.all(tail_ok[times >= tb.t_bar - 1e-9]))
    # earliest time from which the profile stays inside the tolerance
    observed = None
    if tail_ok[-1]:
        idx = np.where(~tail_ok)[0]
        observed = float(times[idx[-1] + 1]) if idx.size else float(times[0])
    edge = float(divergence[np.argmin(np.abs(times - grid.tau_upper))])
    return UniquenessReport(
        b=b, t_bar=tb.t_bar, b_sequence=tb.b_sequence.tolist(),
        t_sequence=tb.t_sequence.tolist(), times=times, divergence=divergence,
        scale=scale, tol_match=TOL_MATCH, verdict=verdict,
        observed_sync_time=observed, difference_at_history_edge=edge)


def exp_extinction(solver: Solver, phi, b: float, *, control_phi=None,
                   horizon: Optional[float] = None) -> ExtinctionReport:
    """No stem cells below b: the population must vanish past the horizon."""
    grid = solver.grid
    hist = _as_history(phi, grid)
    sel = _agreement_nodes(grid, b)
    scale = max(hist.sup(), 1e-300)
    gap = float(np.max(np.abs(hist.values[:, sel]), initial=0.0))
    if gap > 1e-13 * scale:
        raise PreconditionError(
            f"history is not zero on [0, b] (max {gap:.3e}); the aplastic "
            "scenario requires an empty stem-cell compartment")
    tb = compute_tbar(solver.kern, b)
    T = horizon if horizon is not None else default_horizon(solver, b)
    runs = [hist]
    if control_phi is not None:
        runs.append(_as_history(control_phi, grid))
    fields = [solver.solve(h, T) for h in runs]
    f = fields[0]
    sup_profile = np.max(np.abs(f.N), axis=1)
    times = f.times
    verdict = bool(np.all(sup_profile[times >= tb.t_bar - 1e-9] <= TOL_MATCH * scale))
    control_sup = None
    if control_phi is not None:
        fc = fields[1]
        j = int(np.argmin(np.abs(times - tb.t_bar)))
        control_sup = float(np.max(np.abs(fc.N[j])))
    return ExtinctionReport(b=b, t_bar=tb.t_bar, times=times,
                            sup_profile=sup_profile, scale=scale,
                            tol_match=TOL_MATCH, verdict=verdict,
                            control_sup_at_tbar=control_sup)


def exp_invariance(solver: Solver, phi, b: float, *,
                   horizon: Optional[float] = None) -> InvarianceReport:
    """Long-run domination by the small-maturity history norm.

    Makes a claim only when the margin condition holds; otherwise the
    experiment records the margin and skips (the result is one-directional).
    """
    margin = solver.kern.invariance_margin()
    if not margin.satisfied:
        return InvarianceReport(margin=margin, skipped=True, b=b)
    grid = solver.grid
    hist = _as_history(phi, grid)
    tb = compute_tbar(solver.kern, b)
    T = horizon if horizon is not None else default_horizon(solver, b)
    field = solver.solve(hist, T)
    sel = _agreement_nodes(grid, b)
    phi_norm = float(np.max(np.abs(hist.values[:, sel])))
    times = field.times
    sup_all = np.max(np.abs(field.N), axis=1)
    ratio = sup_all / max(phi_norm, 1e-300)
    verdict_global = bool(np.all(ratio[times >= tb.t_bar - 1e-9] <= 1.0 + TOL_MATCH))
    small = np.max(np.abs(field.N[:, sel]), axis=1)
    verdict_small = bool(np.all(
        small[times >= grid.tau_upper - 1e-9] <= phi_norm * (1.0 + TOL_MATCH)))
    return InvarianceReport(margin=margin, skipped=False, b=b, t_bar=tb.t_bar,
                            phi_norm_b=phi_norm, times=times, sup_ratio=ratio,
                            verdict_global=verdict_global,
                            verdict_small_m=verdict_small)


def exp_positivity(solver: Solver, *, n_runs: int = 20, seed: int = 0,
                   horizon: Optional[float] = None) -> PositivityReport:
    """Nonnegative histories must produce nonnegative populations: ``n_runs``
    solves from ``random_nonneg_history(seed + i)``, each to ``horizon``
    (default 5 tau_upper)."""
    if not (isinstance(n_runs, (int, np.integer)) and n_runs >= 1):
        raise ConfigurationError(f"n_runs must be an integer >= 1, got {n_runs!r}")
    grid = solver.grid
    probe = np.linspace(0.0, solver.flow.g1, 1025)
    if float(np.min(solver.kern.psi_resting(probe))) <= 0.0:
        raise PreconditionError(
            "positivity requires delta + V' > 0 on [0, g(1)]")
    T = horizon if horizon is not None else default_horizon(solver)
    per_run = []
    worst = np.inf
    for i in range(n_runs):
        hist = InitialHistory.from_callable(random_nonneg_history(seed + i), grid)
        f = solver.solve(hist, T)
        lo = float(np.min(f.N))
        hi = float(np.max(np.abs(f.N)))
        rel = lo / max(hi, 1e-300)
        per_run.append({"seed": seed + i, "min": lo, "max": hi, "rel_floor": rel})
        worst = min(worst, rel)
    verdict = bool(worst >= -POSITIVITY_FLOOR)
    return PositivityReport(n_runs=len(per_run), worst_floor=float(worst),
                            verdict=verdict, per_run=per_run)


# ---------------------------------------------------------------------------
# resolvent contraction
# ---------------------------------------------------------------------------

def resolvent_check(flow: FlowMap, w: Callable, lam: float) -> ResolventReport:
    """Verify the transport resolvent solution and its sup-norm contraction.

    In flow coordinates the resolvent solution reduces to a weighted average
    of w with a Gauss-Jacobi rule matched to the x^(1/lambda - 1) weight:
    positive weights summing to one make the contraction structural, and the
    quadrature (48 nodes, on 512 points uniform in x) is spectrally accurate
    in the smoothness of w.
    """
    if lam <= 0.0:
        raise DomainError("resolvent parameter lambda must be positive")
    g1 = flow.g1
    top = float(flow.h(g1))
    xs = np.linspace(0.0, top, 512)
    ms = np.asarray(flow.h_inv(xs))
    beta_exp = 1.0 / lam - 1.0
    z, weights = gauss_jacobi(48, beta_exp)
    xi_nodes = 0.5 * (z + 1.0)

    eval_pts = np.asarray(flow.h_inv(np.clip(xs[:, None] * xi_nodes[None, :], 0.0, 1.0)))
    w_vals = np.asarray(w(eval_pts), dtype=float)
    u = w_vals @ weights
    w0 = float(np.asarray(w(np.zeros(1)))[0])
    u[0] = w0

    w_grid = np.asarray(w(ms), dtype=float)
    sup_w = max(float(np.max(np.abs(w_vals))), float(np.max(np.abs(w_grid))))
    sup_u = float(np.max(np.abs(u)))
    bound_ok = sup_u <= sup_w * (1.0 + 1e-10)

    # residual of u + lambda*V*u' - w, which reads u + lambda*x*du/dx - w in
    # flow coordinates. u behaves like x^(1/lambda) near zero but is smooth
    # in s = ln x for every lambda, so differentiate there with a
    # fourth-order stencil on a log-spaced mesh (lambda*x*du/dx = lambda*du/ds).
    n_res = 1600
    s_grid = np.linspace(math.log(top) - 18.0, math.log(top), n_res)
    x_res = np.exp(s_grid)
    pts = np.asarray(flow.h_inv(np.clip(x_res[:, None] * xi_nodes[None, :], 0.0, 1.0)))
    u_res = np.asarray(w(pts), dtype=float) @ weights
    hs = s_grid[1] - s_grid[0]
    du_ds = (-u_res[4:] + 8.0 * u_res[3:-1] - 8.0 * u_res[1:-3] + u_res[:-4]) / (12.0 * hs)
    m_res = np.asarray(flow.h_inv(x_res))
    residual = u_res[2:-2] + lam * du_ds - np.asarray(w(m_res[2:-2]), dtype=float)
    residual_max = float(np.max(np.abs(residual)))
    residual_ok = residual_max <= 1e-6 * max(sup_w, 1e-300)
    u0_ok = abs(u[0] - w0) == 0.0
    return ResolventReport(lam=lam, sup_w=sup_w, sup_u=sup_u, bound_ok=bound_ok,
                           residual_max=residual_max, residual_ok=residual_ok,
                           u0_ok=u0_ok, m_grid=ms, u=u)


def resolvent_sweep(flow: FlowMap, lambdas, n_w: int, seed: int) -> ResolventSweepReport:
    """``resolvent_check`` of ``n_w`` seeded data w(m) = c0 + c1 m + c2 m^2 +
    c3 sin(k m), c standard normal and k uniform on [1, 6], each at every
    lambda in ``lambdas``; the verdict holds when every check passes."""
    lambdas = np.asarray(lambdas, dtype=float)
    if not (isinstance(n_w, (int, np.integer)) and n_w >= 1 and lambdas.size):
        raise ConfigurationError(f"a sweep needs an integer n_w >= 1 and a lambda, got "
                                 f"n_w = {n_w!r} and {lambdas.size} lambdas")
    rng = np.random.default_rng(seed)
    verdict = True
    for _ in range(n_w):
        c = rng.normal(size=4)
        k = rng.uniform(1.0, 6.0)

        def w(m, c=c, k=k):
            m = np.asarray(m)
            return c[0] + c[1] * m + c[2] * m ** 2 + c[3] * np.sin(k * m)
        for lam in lambdas:
            verdict = resolvent_check(flow, w, lam).verdict and verdict
    return ResolventSweepReport(n_w=n_w, lambdas=lambdas.tolist(),
                                checks=n_w * lambdas.size, verdict=verdict)


# ---------------------------------------------------------------------------
# Picard factorial envelope
# ---------------------------------------------------------------------------

def picard_rate_check(field: SolutionField) -> PicardRateReport:
    """Recorded per-window deltas against the envelope 2 M (alpha l L)^n / n!."""
    meta = field.metadata
    missing = {"lipschitz_l", "alpha_bar", "windows"} - meta.keys()
    if missing:
        raise DomainError(f"the field carries no solve record ({', '.join(sorted(missing))} "
                          "missing from its metadata); check a field from Solver.solve")
    l = meta["lipschitz_l"]
    alpha_bar = meta["alpha_bar"]
    worst = 0.0
    ok = True
    max_iter = 0
    for wm in meta["windows"]:
        L = wm["t_end"] - wm["t_start"]
        M = wm["sup_initial_iterate"]
        max_iter = max(max_iter, wm["iterations"])
        for n, d in enumerate(wm["deltas"], start=1):
            bound = 2.0 * M * (alpha_bar * l * L) ** n / math.factorial(n)
            if bound == 0.0:
                if d > 0.0:
                    ok = False
                    worst = np.inf
                continue
            ratio = d / bound
            worst = max(worst, ratio)
            if ratio > 1.0:
                ok = False
    return PicardRateReport(n_windows=len(meta["windows"]),
                            max_iterations=max_iter,
                            worst_ratio=float(worst), verdict=bool(ok))


def write_report(report, path_json, path_text) -> None:
    with open(path_json, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True, default=float)
    with open(path_text, "w") as fh:
        fh.write(report.to_text() + "\n")
