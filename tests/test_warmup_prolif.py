"""Warmup from age densities and proliferating-phase reconstruction."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hemaflow import (ConfigurationError, InitialHistory, SolutionField, Solver,
                      WarmupData)
from hemaflow import solver as solver_module

from refcase import proliferating_by_steps, reference_params, smooth_history

TAU_L, TAU_U = 1.0, 2.0


def zero_gamma(m, a):
    return 0.0 * np.asarray(m) * np.asarray(a)


class TestWarmup:
    def test_n0_of_wrong_shape_named(self):
        solver = Solver(reference_params(), m_nodes=64, dt_divisor=8)
        with pytest.raises(ConfigurationError, match=r"N0 gives shape \(3,\)"):
            solver.warmup(WarmupData(Gamma=zero_gamma, N0=lambda m: np.ones(3)))

    def test_empty_data_gives_zero_history(self):
        solver = Solver(reference_params(), m_nodes=96, dt_divisor=16)
        hist = solver.warmup(WarmupData(Gamma=zero_gamma, N0=lambda m: 0.0 * m))
        assert np.all(hist.values == 0.0)
        assert np.all(hist.upper == 0.0)

    def test_pure_transport_decay(self):
        # Gamma = 0 and beta = 0: phi(t, m) = N0(pi_{-t}(m)) e^-((d + alpha) t)
        par = reference_params(beta_form="constant", beta0=0.0, delta=0.04)
        solver = Solver(par, m_nodes=512, dt_divisor=64)
        n0 = lambda m: 1.0 + 0.5 * np.cos(np.pi * m)
        hist = solver.warmup(WarmupData(Gamma=zero_gamma, N0=n0))
        tt = (np.arange(solver.grid.n_history + 1) * solver.grid.dt)[:, None]
        mm = solver.grid.m_nodes[None, :]
        closed = n0(mm * np.exp(-tt)) * np.exp(-1.04 * tt)
        err = np.max(np.abs(hist.values - closed)) / np.max(closed)
        assert err < 1e-6

    def test_constant_load_against_ode_oracle(self):
        # beta = 0, Gamma = g0, age-uniform kernel: the influx collapses to
        # 2 xi(2m, t) g0 kappa(m) (tau_u - max(t, tau_l))/(tau_u - tau_l) and
        # each characteristic obeys a scalar linear ODE
        g0 = 0.7
        par = reference_params(beta_form="constant", beta0=0.0, delta=0.04,
                               gamma=0.1)
        solver = Solver(par, m_nodes=256, dt_divisor=64)
        hist = solver.warmup(WarmupData(Gamma=lambda m, a: g0 + zero_gamma(m, a),
                                        N0=lambda m: 0.2 + 0.0 * m))
        kern = solver.kern

        def oracle(mj):
            lx = np.log(mj)

            def rhs(t, u):
                m_t = np.exp(lx + (t - TAU_U))
                kap = par.division.k(np.asarray([m_t]),
                                     np.asarray([0.5 * (TAU_L + TAU_U)]), 0.5)[0] \
                    * (TAU_U - TAU_L)
                xi = kern.xi(min(2.0 * m_t, 1.0), t)
                src = 2.0 * xi * g0 * kap * (TAU_U - max(t, TAU_L)) / (TAU_U - TAU_L)
                return -1.04 * u + src
            sol = solve_ivp(rhs, (0.0, TAU_U), [0.2], rtol=1e-10, atol=1e-12)
            return sol.y[0, -1]

        picks = [40, 90, 150, 210, 250]
        got = hist.values[-1, picks]
        want = np.array([oracle(solver.grid.m_nodes[j]) for j in picks])
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-5

    def test_signed_n0_carried_through(self):
        solver = Solver(reference_params(), m_nodes=96, dt_divisor=16)
        data = WarmupData(Gamma=zero_gamma, N0=lambda m: -1.0 + 0.0 * m)
        hist = solver.warmup(data)
        assert np.all(hist.values[0] == -1.0)

    def test_nonfinite_n0_rejected(self):
        solver = Solver(reference_params(), m_nodes=96, dt_divisor=16)
        data = WarmupData(Gamma=zero_gamma, N0=lambda m: np.where(m > 0.3, np.nan, 1.0))
        with pytest.raises(ConfigurationError, match="N0"):
            solver.warmup(data)


class TestProliferating:
    @pytest.mark.parametrize("band", [False, True], ids=["no-band", "band"])
    @pytest.mark.parametrize("chunk_steps", [None, 5], ids=["default-chunk", "5-step-chunk"])
    def test_equals_the_step_by_step_oracle(self, band, chunk_steps, monkeypatch):
        # the horizon crosses tau_upper, so both sink regimes run and so does
        # the slice at the switch; 5-step chunks put the switch mid-chunk
        solver = Solver(reference_params(c=0.3 if band else 0.5), m_nodes=64,
                        dt_divisor=16)
        data = WarmupData(Gamma=lambda m, a: (1.0 + m) * np.exp(-0.7 * np.asarray(a)),
                          N0=lambda m: 0.5 + 0.2 * np.cos(3.0 * m))
        hist = (solver.warmup(data) if band else
                InitialHistory.from_callable(smooth_history, solver.grid))
        field = solver.solve(hist, T=5.0)
        assert (field.upper is not None) == band
        assert field.times[-1] > solver.grid.tau_upper + 2.0
        P, upper_P = proliferating_by_steps(solver, field, data)
        if chunk_steps:
            n_act = P.shape[1] + (upper_P.shape[1] - 1 if band else 0)
            monkeypatch.setattr(solver_module, "_CHUNK_BYTES", 8 * n_act * chunk_steps)
        solver.proliferating(field, data.Gamma)
        assert np.array_equal(field.P, P)
        assert np.array_equal(field.upper.P, upper_P) if band else field.upper is None

    def test_zero_sources_give_zero(self):
        solver = Solver(reference_params(beta_form="constant", beta0=0.0),
                        m_nodes=96, dt_divisor=16)
        data = WarmupData(Gamma=zero_gamma, N0=lambda m: 0.0 * m)
        hist = solver.warmup(data)
        field = solver.solve(hist, T=6.0)
        field = solver.proliferating(field, data.Gamma)
        assert np.all(field.P == 0.0)
        assert np.all(field.upper.P == 0.0)

    def test_runs_again_recording_P_once(self):
        solver = Solver(reference_params(), m_nodes=32, dt_divisor=8)
        gamma_fn = lambda m, a: (1.0 + m) * np.exp(-0.7 * np.asarray(a))
        field = solver.solve(InitialHistory.from_callable(smooth_history, solver.grid), T=4.0)
        first = solver.proliferating(field, gamma_fn).P
        assert field.metadata["emit"] == ["P"]
        assert np.array_equal(solver.proliferating(field, gamma_fn).P, first)
        assert field.metadata["emit"] == ["P"]

    def test_initial_load_is_age_integral(self):
        solver = Solver(reference_params(), m_nodes=96, dt_divisor=16)
        gamma_fn = lambda m, a: (1.0 + m) * np.exp(-0.7 * np.asarray(a))
        data = WarmupData(Gamma=gamma_fn, N0=lambda m: 0.0 * m)
        hist = solver.warmup(data)
        field = solver.solve(hist, T=4.0)
        field = solver.proliferating(field, data.Gamma)
        m = solver.grid.m_nodes
        expect = (1.0 + m) * (1.0 - np.exp(-0.7 * TAU_U)) / 0.7
        assert np.max(np.abs(field.P[0] - expect)) < 1e-10

    def test_early_regime_against_ode_oracle(self):
        # beta = 0, Gamma = g0: P drains by transport-decay plus the deadline
        # loss Gamma(pi_{-t}(m), tau_u - t) xi(m, t) = g0 xi(m, t)
        g0 = 0.6
        par = reference_params(beta_form="constant", beta0=0.0, gamma=0.15)
        solver = Solver(par, m_nodes=256, dt_divisor=64)
        data = WarmupData(Gamma=lambda m, a: g0 + zero_gamma(m, a),
                          N0=lambda m: 0.0 * m)
        hist = solver.warmup(data)
        field = solver.solve(hist, T=4.0)
        field = solver.proliferating(field, data.Gamma)
        kern = solver.kern

        # stop the comparison at tau_u/2: by tau_u the whole initial cohort
        # has reached the deadline and P vanishes identically
        t_stop = 0.5 * TAU_U

        def oracle(mj):
            lx = np.log(mj)

            def rhs(t, u):
                m_t = np.exp(lx + (t - t_stop))
                return -1.15 * u - g0 * kern.xi(m_t, t)
            sol = solve_ivp(rhs, (0.0, t_stop), [g0 * TAU_U],
                            rtol=1e-10, atol=1e-12)
            return sol.y[0, -1]

        i_half = solver.grid.n_history // 2
        picks = [40, 120, 200, 250]
        got = field.P[i_half, picks]
        want = np.array([oracle(solver.grid.m_nodes[j]) for j in picks])
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-5

    def test_stationary_flux_balance(self):
        # a constant-in-time N makes the reconstruction relax to the profile
        # balancing transport, death, influx, and the delayed outflux
        par = reference_params(beta0=0.8)
        solver = Solver(par, m_nodes=512, dt_divisor=64)
        grid = solver.grid
        n_star = 0.5 + 0.3 * np.cos(np.pi * grid.m_nodes)
        n_slices = int(round(40.0 / grid.dt)) + 1
        field = SolutionField(times=np.arange(n_slices) * grid.dt,
                              x=grid.x_nodes.copy(), m=grid.m_nodes.copy(),
                              N=np.tile(n_star, (n_slices, 1)))
        data = WarmupData(Gamma=lambda m, a: 0.3 + zero_gamma(m, a),
                          N0=lambda m: 0.8 + 0.0 * m)
        field = solver.proliferating(field, data.Gamma)
        P = field.P
        assert np.max(np.abs(P[-1] - P[-2])) < 1e-13  # relaxed to steady state

        kern = solver.kern
        m, x = grid.m_nodes, grid.x_nodes
        dx = x[1] - x[0]
        V = par.velocity(m)
        dVP_dx = np.gradient(V * P[-1], dx)
        dVP_dm = np.where(m > 0.0, dVP_dx * x / np.maximum(V, 1e-300), 0.0)
        bN = kern.beta(m, n_star) * n_star
        dec_g = kern.decay_table("proliferating", -30.0)
        xi_up = dec_g.survival(x, TAU_U)
        m_back = solver.flow.h_inv(x * np.exp(-TAU_U))
        nb = np.interp(x * np.exp(-TAU_U), x, n_star)
        balance = dVP_dm + 0.1 * P[-1] - bN + xi_up * kern.beta(m_back, nb) * nb
        rel = np.max(np.abs(balance[2:-2])) / np.max(np.abs(bN))
        assert rel < 1e-6
