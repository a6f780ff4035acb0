"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one PASS line on success; tolerances are frozen here and
must not be loosened. The reference geometry throughout is the linear flow
(alpha = 1, p = 1) with halving division map (c = 1/2) and delays
tau_lower = 1, tau_upper = 2.
"""

import math
import time

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from hemaflow import (InitialHistory, Kernels, SolutionField, Solver,
                      WarmupData)
from hemaflow.experiments import (exp_extinction, exp_invariance,
                                  exp_positivity, exp_uniqueness,
                                  picard_rate_check, resolvent_check,
                                  smooth_bump)

from refcase import reference_params, smooth_history

TAU_L, TAU_U = 1.0, 2.0


def _announce(number, label, elapsed, budget):
    print(f"PASS criterion {number}: {label} ({elapsed:.2f} s, budget {budget:g} s)")


@pytest.fixture(scope="module")
def reference_solver():
    # the reference nonlinear configuration for criteria 4 and 9
    return Solver(reference_params(beta0=0.3), m_nodes=512, dt_divisor=64)


@pytest.fixture(scope="module")
def reference_field(reference_solver):
    hist = InitialHistory.from_callable(smooth_history, reference_solver.grid)
    return reference_solver.solve(hist, T=5.0 * TAU_U)


def test_criterion_1_ancestry_identity_suite():
    kern = Kernels(reference_params())
    flow = kern.flow
    start = time.perf_counter()

    rng = np.random.default_rng(42)
    s = rng.uniform(0.0, 5.0, 10_000)
    sigma = rng.uniform(0.0, 5.0, 10_000)
    m = rng.uniform(0.0, 0.5, 10_000)
    cocycle = np.abs(flow.pi(-sigma, flow.delta(s, m)) - flow.delta(s + sigma, m))
    assert np.max(cocycle) <= 1e-12

    s_grid = np.linspace(0.0, 5.0, 100)
    m_grid = np.linspace(1e-9, 0.5, 100)
    table = flow.delta(s_grid[:, None], m_grid[None, :])
    assert np.all(np.diff(table, axis=0) < 0.0)          # decreasing in s
    assert np.all(np.diff(table, axis=1) >= 0.0)         # nondecreasing in m
    assert np.all(table >= 0.0)
    assert np.all(table <= flow.h_inv(np.exp(-s_grid))[:, None] + 1e-12)

    ct = flow.crossing_time(np.maximum(m, 1e-9))
    keep = np.abs(s - ct) > 1e-9
    assert np.array_equal(flow.delta(s[keep], np.maximum(m, 1e-9)[keep])
                          < np.maximum(m, 1e-9)[keep], s[keep] > ct[keep])

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce(1, "ancestry map identities (cocycle 1e-12, monotone, crossing)",
              elapsed, 1.0)


def test_criterion_2_resolvent_contraction():
    flow = Kernels(reference_params()).flow
    start = time.perf_counter()

    rng = np.random.default_rng(7)
    for _ in range(100):
        c = rng.normal(size=4)
        k = rng.uniform(1.0, 6.0)
        w = (lambda c, k: lambda m: c[0] + c[1] * np.asarray(m)
             + c[2] * np.asarray(m) ** 2 + c[3] * np.sin(k * np.asarray(m)))(c, k)
        for lam in (0.1, 1.0, 10.0):
            rep = resolvent_check(flow, w, lam)
            assert rep.sup_u <= rep.sup_w * (1.0 + 1e-10)
            assert rep.residual_max <= 1e-6 * rep.sup_w
            assert rep.u0_ok

    for lam in (0.1, 0.7, 1.0, 3.0, 10.0):
        rep = resolvent_check(flow, lambda m: np.asarray(m, dtype=float), lam)
        assert np.max(np.abs(rep.u - rep.m_grid / (1.0 + lam))) <= 1e-10

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _announce(2, "resolvent contraction and closed form m/(1+lambda)",
              elapsed, 5.0)


def test_criterion_3_linear_transport_decay_exactness():
    start = time.perf_counter()
    d = 0.05
    solver = Solver(reference_params(beta_form="constant", beta0=0.0, delta=d),
                    m_nodes=512, dt_divisor=64)

    def check(profile):
        hist = InitialHistory.from_callable(
            lambda t, m: profile(m) + 0.0 * np.asarray(t), solver.grid)
        field = solver.solve(hist, T=5.0 * TAU_U)
        sel = field.times >= TAU_U - 1e-12
        back = field.times[sel][:, None] - TAU_U
        closed = profile(field.m[None, :] * np.exp(-back)) * np.exp(-(d + 1.0) * back)
        return float(np.max(np.abs(field.N[sel] - closed)) / np.max(np.abs(closed)))

    err_linear = check(lambda m: m)
    err_curved = check(lambda m: 0.2 + m + 0.3 * np.sin(2.0 * m))
    assert err_linear <= 1e-8
    assert err_curved <= 1e-8

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _announce(3, f"transport-decay matches closed form "
                 f"(rel {max(err_linear, err_curved):.1e} <= 1e-8)", elapsed, 10.0)


def test_criterion_4_picard_factorial_envelope(reference_field):
    meta = reference_field.metadata
    assert meta["tol_picard"] == 1e-10
    l, alpha_bar = meta["lipschitz_l"], meta["alpha_bar"]
    worst = 0.0
    for wm in meta["windows"]:
        assert wm["iterations"] <= 10
        L = wm["t_end"] - wm["t_start"]
        M = wm["sup_initial_iterate"]
        for n, delta in enumerate(wm["deltas"], start=1):
            bound = 2.0 * M * (alpha_bar * l * L) ** n / math.factorial(n)
            assert delta <= bound
            worst = max(worst, delta / bound if bound > 0 else 0.0)
    rep = picard_rate_check(reference_field)
    assert rep.verdict
    _announce(4, f"factorial envelope dominates deltas "
                 f"(worst ratio {worst:.3f}, <= 10 iterations)", 0.0, math.inf)


def test_criterion_5_positivity_sweep():
    start = time.perf_counter()
    solver = Solver(reference_params(beta0=1.0, delta=0.05),
                    m_nodes=512, dt_divisor=64)
    rep = exp_positivity(solver, n_runs=20, seed=0, horizon=5.0 * TAU_U)
    assert rep.verdict
    assert rep.worst_floor >= -1e-8
    assert rep.n_runs == 20
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _announce(5, f"20 seeded nonnegative histories stay nonnegative "
                 f"(worst floor {rep.worst_floor:.1e})", elapsed, 120.0)


def test_criterion_6_stem_cell_uniqueness():
    start = time.perf_counter()
    solver = Solver(reference_params(beta0=1.0), m_nodes=512, dt_divisor=64)
    assert solver.flow.tau0() == pytest.approx(np.log(2.0), rel=1e-12)
    assert 0.2 < np.exp(-TAU_L)

    bump = smooth_bump(0.35, 0.09, 0.4)
    phi2 = lambda t, m: smooth_history(t, m) + bump(m) + 0.0 * np.asarray(t)
    rep = exp_uniqueness(solver, smooth_history, phi2, 0.2)
    assert rep.tol_match == 1e-6
    assert rep.verdict
    assert rep.difference_at_history_edge >= 1e-2 * rep.scale
    max_tail = float(np.max(rep.divergence[rep.times >= rep.t_bar - 1e-9]))
    assert max_tail <= 1e-6 * rep.scale

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _announce(6, f"histories agreeing below b synchronize by t_bar = "
                 f"{rep.t_bar:.4g} (tail diff {max_tail:.1e})", elapsed, 120.0)


def test_criterion_7_extinction_with_control():
    start = time.perf_counter()
    solver = Solver(reference_params(beta0=1.8, delta=0.02, gamma=0.05),
                    m_nodes=512, dt_divisor=64)
    bump = smooth_bump(0.35, 0.09, 1.0)
    phi = lambda t, m: bump(m) * (1.0 + 0.1 * np.sin(np.asarray(t)))
    control = lambda t, m: bump(m) * (1.0 + 0.1 * np.sin(np.asarray(t))) + 0.5
    rep = exp_extinction(solver, phi, 0.2, control_phi=control)
    assert rep.tol_match == 1e-6
    assert rep.verdict
    max_tail = float(np.max(rep.sup_profile[rep.times >= rep.t_bar - 1e-9]))
    assert max_tail <= 1e-6 * rep.scale
    control_scale = 1.1 + 0.5
    assert rep.control_sup_at_tbar >= 1e-3 * control_scale

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _announce(7, f"aplastic scenario extinct by t_bar "
                 f"(tail {max_tail:.1e}); control persists at "
                 f"{rep.control_sup_at_tbar:.2e}", elapsed, 120.0)


def test_criterion_8_invariance_bound():
    start = time.perf_counter()
    solver = Solver(reference_params(delta=1.2, gamma=0.0, beta0=0.2),
                    m_nodes=512, dt_divisor=64)
    margin = solver.kern.invariance_margin()
    assert margin.satisfied
    assert margin.lhs <= 0.5 * margin.I

    bump = smooth_bump(0.35, 0.09, 2.0)
    phi = lambda t, m: 0.1 + bump(m) + 0.0 * np.asarray(t)
    rep = exp_invariance(solver, phi, 0.2)
    assert rep.tol == 1e-6
    assert not rep.skipped
    assert rep.verdict_global and rep.verdict_small_m
    max_ratio = float(np.max(rep.sup_ratio[rep.times >= rep.t_bar - 1e-9]))
    assert max_ratio <= 1.0 + 1e-6

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _announce(8, f"long-run population within ||phi||_b "
                 f"(max ratio {max_ratio:.3e})", elapsed, 120.0)


def test_criterion_9_oracle_and_grid_convergence(reference_solver,
                                                 reference_field):
    start = time.perf_counter()
    par = reference_params(beta0=0.3)

    refined = Solver(par, m_nodes=2048, dt_divisor=512)
    hist = InitialHistory.from_callable(smooth_history, refined.grid)
    fine = refined.solve(hist, T=5.0 * TAU_U)

    stride = 8
    worst = 0.0
    for i, t in enumerate(reference_field.times):
        j = i * stride
        assert abs(fine.times[j] - t) < 1e-12
        on_coarse = PchipInterpolator(fine.x, fine.N[j])(reference_field.x)
        worst = max(worst, float(np.max(np.abs(reference_field.N[i] - on_coarse))))
    rel = worst / float(np.max(np.abs(fine.N)))
    assert rel <= 1e-3

    stats_coarse = reference_solver.residual_stats(reference_field)
    half = Solver(par, m_nodes=1024, dt_divisor=128)
    hist_half = InitialHistory.from_callable(smooth_history, half.grid)
    field_half = half.solve(hist_half, T=5.0 * TAU_U)
    stats_half = half.residual_stats(field_half)
    shrink = stats_coarse["median"] / stats_half["median"]
    assert shrink >= 3.0
    order = math.log2(shrink)
    assert order >= 1.5

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _announce(9, f"refinement agreement rel {rel:.2e} <= 1e-3; residual "
                 f"shrink x{shrink:.1f} (order {order:.2f})", elapsed, 600.0)


def test_criterion_10_proliferating_consistency():
    start = time.perf_counter()
    # empty sources: P identically zero
    solver0 = Solver(reference_params(beta_form="constant", beta0=0.0),
                     m_nodes=256, dt_divisor=32)
    zero = WarmupData(Gamma=lambda m, a: 0.0 * np.asarray(m) * np.asarray(a),
                      N0=lambda m: 0.0 * np.asarray(m))
    hist0 = solver0.warmup(zero)
    field0 = solver0.solve(hist0, T=3.0 * TAU_U)
    field0 = solver0.proliferating(field0, zero)
    assert np.max(np.abs(field0.P)) == 0.0
    assert np.max(np.abs(field0.upper.P)) == 0.0

    # stationary population: the reconstruction relaxes to the profile
    # balancing transport, death, influx, and the delayed outflux
    solver = Solver(reference_params(beta0=0.8), m_nodes=512, dt_divisor=64)
    grid = solver.grid
    n_star = 0.5 + 0.3 * np.cos(np.pi * grid.m_nodes)
    n_slices = int(round(40.0 / grid.dt)) + 1
    synth = SolutionField(times=np.arange(n_slices) * grid.dt,
                          x=grid.x_nodes.copy(), m=grid.m_nodes.copy(),
                          N=np.tile(n_star, (n_slices, 1)))
    data = WarmupData(Gamma=lambda m, a: 0.3 + 0.0 * np.asarray(m) * np.asarray(a),
                      N0=lambda m: 0.8 + 0.0 * np.asarray(m))
    synth = solver.proliferating(synth, data)
    P_inf = synth.P[-1]
    assert np.max(np.abs(synth.P[-1] - synth.P[-2])) < 1e-12

    kern = solver.kern
    m, x = grid.m_nodes, grid.x_nodes
    V = solver.params.velocity(m)
    dVP_dx = np.gradient(V * P_inf, x[1] - x[0])
    dVP_dm = np.where(m > 0.0, dVP_dx * x / np.maximum(V, 1e-300), 0.0)
    influx = kern.beta(m, n_star) * n_star
    dec_g = kern.decay_table("proliferating", -30.0)
    m_back = solver.flow.h_inv(x * np.exp(-TAU_U))
    n_back = np.interp(x * np.exp(-TAU_U), x, n_star)
    outflux = dec_g.survival(x, TAU_U) * kern.beta(m_back, n_back) * n_back
    balance = dVP_dm + 0.1 * P_inf - influx + outflux
    rel = float(np.max(np.abs(balance[2:-2])) / np.max(np.abs(influx)))
    assert rel <= 1e-6

    elapsed = time.perf_counter() - start
    _announce(10, f"P zero case exact; stationary flux balance rel {rel:.1e}",
              elapsed, math.inf)
