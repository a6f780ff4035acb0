"""Shared model constructors and reference forms for the test suite."""

import math

import numpy as np

from hemaflow import (ConstantReintroduction, CustomReintroduction,
                      CustomVelocity, DomainError, HillReintroduction,
                      LinearMaturityMap, ModelParams, PowerLawVelocity,
                      RateFunctions, SeparableUniformKernel)

TAU_LOWER = 1.0
TAU_UPPER = 2.0


def reference_params(*, beta0=0.3, theta=1.0, n=1.0, delta=0.05, gamma=0.1,
                     alpha=1.0, p=1.0, c=0.5, tau_lower=TAU_LOWER,
                     tau_upper=TAU_UPPER, beta_form="hill", kappa=1.0,
                     taper=0.02):
    """The working model: V = alpha*m^p, g = c*m, Hill reintroduction,
    age-uniform division kernel on [tau_lower, tau_upper]."""
    if beta_form == "hill":
        law = HillReintroduction(beta0=beta0, theta=theta, n=n)
    elif beta_form == "constant":
        law = ConstantReintroduction(beta0=beta0)
    else:
        raise ValueError(beta_form)
    return ModelParams(
        velocity=PowerLawVelocity(alpha=alpha, p=p),
        maturity=LinearMaturityMap(c=c),
        rates=RateFunctions(delta=delta, gamma=gamma),
        reintroduction=law,
        division=SeparableUniformKernel(tau_lower=tau_lower,
                                        tau_upper=tau_upper,
                                        kappa=kappa, taper=taper))


def nan_band_params():
    """Reference model whose reintroduction rate is NaN for populations in
    (0.6, 0.7): between the levels the model probe samples, so it passes."""
    law = CustomReintroduction(
        fn=lambda m, x: np.where((x > 0.6) & (x < 0.7), np.nan, 0.3) + 0.0 * m,
        lipschitz_bound=0.3, name="nan_band")
    return ModelParams(
        velocity=PowerLawVelocity(alpha=1.0, p=1.0),
        maturity=LinearMaturityMap(c=0.5),
        rates=RateFunctions(delta=0.05, gamma=0.1),
        reintroduction=law,
        division=SeparableUniformKernel(tau_lower=TAU_LOWER, tau_upper=TAU_UPPER))


def quadratic_velocity():
    """Custom V(m) = m(2 - m)/2 with the closed form h(m) = m/(2 - m)."""
    return CustomVelocity(V=lambda m: m * (2.0 - m) / 2.0,
                          V_prime=lambda m: 1.0 - m,
                          name="quadratic")


def quadratic_h(m):
    m = np.asarray(m, dtype=float)
    return m / (2.0 - m)


def smooth_history(t, m):
    """A generic curved, time-modulated, strictly positive history."""
    t = np.asarray(t, dtype=float)
    m = np.asarray(m, dtype=float)
    return (0.4 + 0.3 * np.cos(2.0 * np.pi * m)) * (1.0 + 0.2 * np.sin(1.3 * t)) + 0.2


def proliferating_by_steps(solver, field, data):
    """P along characteristics one step at a time: every stage's influx and
    sink read from the field at one time, on raw points, as two lookups per
    stage. The oracle for ``Solver.proliferating``; returns P on the main
    nodes and, with a band, P on the band nodes (else None)."""
    from hemaflow.quadrature import gauss_legendre
    from hemaflow.solver import _TIME_SNAP, _eval_two_arg, _rk4_step

    grid = solver.grid
    dt = grid.dt
    tau_up = grid.tau_upper
    _, dec_g = solver._ensure_tables(float(field.times[-1]) + tau_up)
    flow = solver.flow
    beta = solver.kern.beta
    has_band = field.upper is not None
    x_act = grid.x_full if has_band else grid.x_nodes
    m_act = grid.m_full if has_band else grid.m_nodes
    M = grid.m_nodes.size

    stage_x = tuple(x_act * math.exp(-s) for s in (dt, 0.5 * dt, 0.0))
    stage_m = tuple(np.asarray(flow.h_inv(sx)) for sx in stage_x)
    stage_psi = tuple(solver.kern.psi_proliferating(mm) for mm in stage_m)
    with np.errstate(divide="ignore"):
        stage_lx = tuple(np.where(sx > 0.0, np.log(np.maximum(sx, 1e-300)), -np.inf)
                         for sx in stage_x)
    stage_xi_up = tuple(np.exp(dec_g.log_survival(sx, tau_up)) for sx in stage_x)
    stage_x_back = tuple(np.exp(lx - tau_up) for lx in stage_lx)
    stage_m_back = tuple(np.asarray(flow.h_inv_log(lx - tau_up)) for lx in stage_lx)

    def sink(sigma, stage):
        if sigma < tau_up or abs(sigma - tau_up) < _TIME_SNAP:
            mothers = flow.h_inv_log(stage_lx[stage] - sigma)
            gam = _eval_two_arg(data.Gamma, mothers, np.asarray(tau_up - sigma))
            return gam * np.exp(dec_g.log_survival(stage_x[stage], sigma))
        nv = field.lookup(sigma - tau_up, stage_x_back[stage])
        return stage_xi_up[stage] * beta(stage_m_back[stage], nv) * nv

    def influx(sigma, stage):
        nv = field.lookup(sigma, stage_x[stage])
        return beta(stage_m[stage], nv) * nv

    z, w = gauss_legendre(16)
    edges = np.linspace(0.0, tau_up, 9)
    P = np.empty((field.times.size, x_act.size))
    P[0] = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        gam = _eval_two_arg(data.Gamma, m_act[None, :], (lo + half * (z + 1.0))[:, None])
        P[0] += half * np.einsum("q,qj->j", w, gam)
    shift = solver._shift_full if has_band else solver._shift_main
    for i in range(1, field.times.size):
        t0 = (i - 1) * dt
        sigmas = (t0, t0 + 0.5 * dt, t0 + dt)
        src = [influx(sigma, stage) for stage, sigma in enumerate(sigmas)]
        drain = [sink(sigma, stage) for stage, sigma in enumerate(sigmas)]
        P[i] = _rk4_step(shift(P[i - 1]), dt,
                         lambda stage, u: -stage_psi[stage] * u + src[stage] - drain[stage])
    return P[:, :M], (P[:, M - 1:] if has_band else None)


# ---------------------------------------------------------------------------
# reference forms the library does not run: the oracles of its fast paths
# ---------------------------------------------------------------------------

def _past_slices(solver, t, name):
    """Slice times s in [tau_upper, t] with trapezoid weights, for the direct
    forms; a single slice means t = tau_upper, where both vanish."""
    it = solver._aligned_index(t)
    if it < solver.grid.n_history:
        raise DomainError(f"{name} needs t >= tau_upper")
    svals = np.arange(solver.grid.n_history, it + 1) * solver.grid.dt
    w_s = np.full(svals.size, solver.grid.dt)
    w_s[0] = w_s[-1] = 0.5 * solver.grid.dt
    return svals, w_s


def eval_G(solver, record, t, m):
    """Division influx integral at (t, m), trapezoid in s and 16-node
    Gauss-Legendre in division age, evaluated from scratch: the slow direct
    form of the solver's windowed influx."""
    svals, w_s = _past_slices(solver, t, "eval_G")
    if svals.size == 1:
        return 0.0
    dec_r, dec_g = solver._ensure_tables(t + solver.grid.tau_upper)
    flow, a_nodes = solver.flow, solver._a_nodes
    log_x = float(flow.log_h(m))
    x_m = math.exp(log_x) if np.isfinite(log_x) else 0.0
    total = 0.0
    for sv, ws in zip(svals, w_s):
        ly = log_x - (t - sv)
        y = float(flow.h_inv_log(np.asarray(ly)))
        lgy = float(flow.log_h(flow.maturity.inverse(np.asarray(y))))
        k_q = solver.params.division.k(np.full(16, y), a_nodes, flow.g1)
        xi_q = np.exp(dec_g.log_survival(
            np.full(16, math.exp(lgy) if np.isfinite(lgy) else 0.0), a_nodes))
        xd = np.exp(lgy - a_nodes) if np.isfinite(lgy) else np.zeros(16)
        md = flow.h_inv_log(lgy - a_nodes) if np.isfinite(lgy) else np.zeros(16)
        nv = np.array([float(record.lookup(sv - a, np.asarray([xq]))[0])
                       for a, xq in zip(a_nodes, xd)])
        inner = float(np.sum(solver._a_weights * k_q * xi_q *
                             solver.kern.beta(md, nv) * nv))
        decay = float(dec_r.survival(np.asarray([x_m]), t - sv)[0])
        total += ws * 2.0 * inner * decay
    return total


def eval_J(solver, record, t, m):
    """Reintroduction outflux integral at (t, m), trapezoid on slice times:
    the slow direct form of the solver's windowed outflux."""
    svals, w_s = _past_slices(solver, t, "eval_J")
    if svals.size == 1:
        return 0.0
    dec_r, _ = solver._ensure_tables(t)
    flow = solver.flow
    log_x = float(flow.log_h(m))
    x_m = math.exp(log_x) if np.isfinite(log_x) else 0.0
    total = 0.0
    for sv, ws in zip(svals, w_s):
        ly = log_x - (t - sv)
        y = float(flow.h_inv_log(np.asarray(ly)))
        xq = math.exp(ly) if np.isfinite(ly) else 0.0
        nv = float(record.lookup(sv, np.asarray([xq]))[0])
        decay = float(dec_r.survival(np.asarray([x_m]), t - sv)[0])
        total += ws * decay * float(solver.kern.beta(np.asarray(y), np.asarray(nv))) * nv
    return total


def K(kern, t, m):
    """Resting-phase attenuation over time t ending at maturity m, by direct
    path quadrature: the oracle of the resting decay table."""
    if t < 0.0:
        raise DomainError("K needs t >= 0")
    m_arr = np.asarray(m, dtype=float)
    if np.any(m_arr < 0.0) or np.any(m_arr > 1.0):
        raise DomainError("maturity must lie in [0, 1]")
    out = np.exp(-kern._path_integral(kern.psi_resting, float(t), m_arr))
    return float(out[0]) if np.ndim(m) == 0 else out


def adaptive_interval(f, a, b):
    """One panel of ``adaptive_panels`` on its own: the panel's rule against
    its bisection, split where they disagree. The per-panel oracle of the
    batched rule."""
    from hemaflow.quadrature import N_NODES, _bisect, mapped_rule

    if b == a:
        return 0.0
    x0, w0 = mapped_rule(a, b, N_NODES)
    return _bisect(f, a, b, float(f(x0) @ w0), 0)
