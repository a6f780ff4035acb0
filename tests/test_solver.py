"""Windowed Picard solver: exactness, convergence, bookkeeping, serialization."""

import math

import numpy as np
import pytest

from hemaflow import (ConfigurationError, ConvergenceError, DomainError, Grid,
                      HistoryField, HistoryWindowError, InitialHistory,
                      Kernels, SolutionField, Solver)

from refcase import nan_band_params, reference_params, smooth_history

TAU = 2.0  # history depth of the reference model


@pytest.fixture(scope="module")
def solver_ref():
    return Solver(reference_params(), m_nodes=256, dt_divisor=32)


@pytest.fixture(scope="module")
def field_ref(solver_ref):
    hist = InitialHistory.from_callable(smooth_history, solver_ref.grid)
    return solver_ref.solve(hist, T=8.0)


class TestGrid:
    def test_build_reference(self):
        par = reference_params()
        grid = Grid.build(Kernels(par).flow, par.tau_lower, par.tau_upper,
                          m_nodes=128, dt_divisor=16)
        assert grid.x_nodes[0] == 0.0
        assert grid.x_nodes[-1] == pytest.approx(0.5)
        assert np.all(np.diff(grid.m_nodes) > 0.0)
        assert grid.n_window == 16
        assert grid.n_history == 32

    def test_history_depth_must_align(self):
        # tau_upper/dt = 1.7 * 16 = 27.2 slices: not representable
        par = reference_params(tau_upper=1.7)
        flow = Kernels(par).flow
        with pytest.raises(ConfigurationError):
            Grid.build(flow, par.tau_lower, par.tau_upper, dt_divisor=16)

    @pytest.mark.parametrize("key, value", [
        ("m_nodes", 0), ("m_nodes", 1), ("m_nodes", 7), ("m_nodes", -3),
        ("m_nodes", 8.5), ("dt_divisor", 0), ("dt_divisor", -2),
        ("dt_divisor", 2.5), ("dt_divisor", True),
    ])
    def test_bad_grid_sizes_rejected(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            Solver(reference_params(), **{key: value})

    def test_degenerate_delays_rejected(self):
        with pytest.raises(ConfigurationError):
            reference_params(tau_lower=2.0, tau_upper=2.0)
        with pytest.raises(ConfigurationError):
            reference_params(tau_lower=2.5, tau_upper=2.0)


class TestHistoryField:
    def test_lookup_interpolates_linearly_in_time(self):
        x = np.linspace(0.0, 0.5, 9)
        ring = HistoryField(x, dt=0.25)
        ring.append(np.zeros(9))
        ring.append(np.ones(9))
        mid = ring.lookup(0.125, x)
        assert np.max(np.abs(mid - 0.5)) < 1e-14

    def test_out_of_window_raises(self):
        x = np.linspace(0.0, 0.5, 9)
        ring = HistoryField(x, dt=0.25, capacity=3)
        for i in range(6):
            ring.append(np.full(9, float(i)))
        # slices 0..2 were dropped: earliest stored time is 3*0.25
        with pytest.raises(HistoryWindowError):
            ring.lookup(0.5, x)
        assert ring.lookup(1.0, x)[0] == 4.0
        with pytest.raises(HistoryWindowError):
            ring.lookup(1.3, x)


class TestSolveBasics:
    def test_zero_history_stays_zero(self, solver_ref):
        hist = InitialHistory.zeros(solver_ref.grid)
        field = solver_ref.solve(hist, T=8.0)
        assert np.all(field.N == 0.0)
        assert field.metadata["max_iterations"] == 1

    def test_no_reintroduction_single_iteration(self):
        solver = Solver(reference_params(beta_form="constant", beta0=0.0),
                        m_nodes=128, dt_divisor=16)
        hist = InitialHistory.from_callable(smooth_history, solver.grid)
        field = solver.solve(hist, T=6.0)
        assert field.metadata["max_iterations"] == 1

    def test_transport_decay_matches_closed_form(self):
        # with no reintroduction and no proliferating load the population is
        # a pure pullback of the history edge with exponential attenuation
        solver = Solver(reference_params(beta_form="constant", beta0=0.0,
                                         delta=0.05), m_nodes=256, dt_divisor=32)
        hist = InitialHistory.from_callable(lambda t, m: m + 0.0 * t, solver.grid)
        field = solver.solve(hist, T=10.0)
        sel = field.times >= TAU - 1e-12
        tt = field.times[sel][:, None]
        closed = field.m[None, :] * np.exp(-2.05 * (tt - TAU))
        err = np.max(np.abs(field.N[sel] - closed)) / np.max(closed)
        assert err < 1e-12

    def test_determinism(self, solver_ref):
        hist = InitialHistory.from_callable(smooth_history, solver_ref.grid)
        f1 = solver_ref.solve(hist, T=6.0)
        f2 = solver_ref.solve(hist, T=6.0)
        assert np.array_equal(f1.N, f2.N)

    def test_horizon_below_history_depth_rejected(self, solver_ref):
        hist = InitialHistory.zeros(solver_ref.grid)
        with pytest.raises(ConfigurationError):
            solver_ref.solve(hist, T=1.0)

    def test_history_shape_checked(self, solver_ref):
        hist = InitialHistory(times=np.arange(3) * solver_ref.grid.dt,
                              values=np.zeros((3, 8)))
        with pytest.raises(ConfigurationError):
            solver_ref.solve(hist, T=6.0)

    def test_nonfinite_history_rejected(self, solver_ref):
        hist = InitialHistory.zeros(solver_ref.grid)
        hist.values[3, 10] = np.nan
        with pytest.raises(ConfigurationError, match="finite"):
            solver_ref.solve(hist, T=6.0)

    def test_nonfinite_last_history_slice_rejected(self, solver_ref):
        hist = InitialHistory.zeros(solver_ref.grid)
        hist.values[-1, 10] = np.nan
        with pytest.raises(ConfigurationError, match="finite"):
            solver_ref.solve(hist, T=6.0)

    def test_nonfinite_upper_band_rejected(self, solver_ref):
        hist = InitialHistory.from_callable(
            smooth_history, solver_ref.grid, upper=lambda t, m: np.nan + 0.0 * (t + m))
        with pytest.raises(ConfigurationError, match="finite"):
            solver_ref.solve(hist, T=6.0)

    def test_nonconvergence_signalled(self):
        # l * window length = 60: the contraction only wins past n = 50
        solver = Solver(reference_params(beta0=60.0), m_nodes=64, dt_divisor=16)
        hist = InitialHistory.from_callable(smooth_history, solver.grid)
        with pytest.raises(ConvergenceError) as err:
            solver.solve(hist, T=4.0)
        assert err.value.window_index == 0
        assert err.value.last_delta is not None

    def test_nonfinite_rate_signalled(self):
        solver = Solver(nan_band_params(), m_nodes=64, dt_divisor=8)
        hist = InitialHistory.from_callable(lambda t, m: 0.65 + 0.0 * (t + m),
                                            solver.grid)
        with pytest.raises(ConvergenceError, match="non-finite") as err:
            solver.solve(hist, T=4.0)
        assert err.value.window_index == 0


class TestPicardBookkeeping:
    def test_junction_mismatch_small(self, field_ref):
        scale = np.max(np.abs(field_ref.N))
        assert field_ref.metadata["max_junction_mismatch"] <= 1e-9 * scale

    def test_factorial_envelope(self, field_ref):
        meta = field_ref.metadata
        l, ab = meta["lipschitz_l"], meta["alpha_bar"]
        for wm in meta["windows"]:
            L = wm["t_end"] - wm["t_start"]
            M = wm["sup_initial_iterate"]
            for n, d in enumerate(wm["deltas"], start=1):
                bound = 2.0 * M * (ab * l * L) ** n / math.factorial(n)
                assert d <= bound

    def test_iteration_counts_modest(self, field_ref):
        assert field_ref.metadata["max_iterations"] <= 10

    def test_windows_cover_horizon(self, field_ref):
        wins = field_ref.metadata["windows"]
        assert wins[0]["t_start"] == pytest.approx(TAU)
        assert wins[-1]["t_end"] == pytest.approx(8.0)
        for a, b in zip(wins[:-1], wins[1:]):
            assert a["t_end"] == pytest.approx(b["t_start"])


class TestDirectFormEvaluators:
    def test_trivial_zeros(self, solver_ref, field_ref):
        assert solver_ref.eval_G(field_ref, TAU, 0.3) == 0.0
        assert solver_ref.eval_J(field_ref, TAU, 0.3) == 0.0

    def test_no_reintroduction_zeroes_both(self):
        solver = Solver(reference_params(beta_form="constant", beta0=0.0),
                        m_nodes=64, dt_divisor=16)
        hist = InitialHistory.from_callable(smooth_history, solver.grid)
        field = solver.solve(hist, T=5.0)
        assert solver.eval_G(field, 4.0, 0.3) == 0.0
        assert solver.eval_J(field, 4.0, 0.3) == 0.0

    def test_no_division_zeroes_influx(self):
        solver = Solver(reference_params(kappa=0.0), m_nodes=64, dt_divisor=16)
        hist = InitialHistory.from_callable(smooth_history, solver.grid)
        field = solver.solve(hist, T=5.0)
        assert solver.eval_G(field, 4.0, 0.3) == 0.0

    def test_constant_field_outflux_closed_form(self):
        # N = c and beta = b constant: J = b c (1 - e^-(r (t - tau)))/r
        solver = Solver(reference_params(beta_form="constant", beta0=0.4,
                                         delta=0.05, gamma=0.0),
                        m_nodes=128, dt_divisor=64)
        grid = solver.grid
        c0, b0, r = 0.7, 0.4, 1.05
        n_slices = int(round(4.0 / grid.dt)) + 1
        rec = SolutionField(times=np.arange(n_slices) * grid.dt,
                            x=grid.x_nodes.copy(), m=grid.m_nodes.copy(),
                            N=np.full((n_slices, grid.m_nodes.size), c0))
        for t in (2.5, 3.5):
            expect = b0 * c0 * (1.0 - np.exp(-r * (t - TAU))) / r
            got = solver.eval_J(rec, t, 0.31)
            assert got == pytest.approx(expect, rel=2e-4)

    def test_fixed_point_relation_against_direct_forms(self, solver_ref, field_ref):
        # the solved field must satisfy N = phiK + G - J with the integrals
        # recomputed from scratch by the direct trapezoid/Gauss rules
        solver, field = solver_ref, field_ref
        grid = solver.grid
        nh = grid.n_history
        dec_r, _ = solver._ensure_tables(8.0)
        scale = np.max(np.abs(field.N))
        for it, j in ((nh + 40, 60), (nh + 90, 128), (nh + 150, 200)):
            t = field.times[it]
            m = grid.m_nodes[j]
            back = t - TAU
            phiK = (field.lookup(TAU, np.asarray([grid.x_nodes[j] * np.exp(-back)]))[0]
                    * float(dec_r.survival(np.asarray([grid.x_nodes[j]]), back)[0]))
            recomputed = (phiK + solver.eval_G(field, t, m)
                          - solver.eval_J(field, t, m))
            assert abs(recomputed - field.N[it, j]) < 2e-5 * scale


class TestResidualDiagnostic:
    def test_zero_field_zero_residual(self, solver_ref):
        grid = solver_ref.grid
        n_slices = int(round(6.0 / grid.dt)) + 1
        field = SolutionField(times=np.arange(n_slices) * grid.dt,
                              x=grid.x_nodes.copy(), m=grid.m_nodes.copy(),
                              N=np.zeros((n_slices, grid.m_nodes.size)))
        val = solver_ref.residual(field, 4.0, grid.m_nodes[100])
        assert val == 0.0

    def test_transport_decay_residual_small(self):
        solver = Solver(reference_params(beta_form="constant", beta0=0.0,
                                         delta=0.05), m_nodes=256, dt_divisor=64)
        hist = InitialHistory.from_callable(lambda t, m: m + 0.0 * t, solver.grid)
        field = solver.solve(hist, T=6.0)
        stats = solver.residual_stats(field)
        assert stats["max"] < 5e-4
        assert stats["median"] < 5e-5

    def test_residual_shrinks_under_refinement(self):
        par = reference_params()
        stats = []
        for nodes, div in ((128, 16), (256, 32)):
            solver = Solver(par, m_nodes=nodes, dt_divisor=div)
            hist = InitialHistory.from_callable(smooth_history, solver.grid)
            field = solver.solve(hist, T=6.0)
            stats.append(solver.residual_stats(field))
        assert stats[0]["median"] / stats[1]["median"] >= 3.0

    def test_alignment_and_interior_requirements(self, solver_ref, field_ref):
        grid = solver_ref.grid
        with pytest.raises(Exception):
            solver_ref.residual(field_ref, TAU + 0.5 * grid.dt, grid.m_nodes[10])
        with pytest.raises(Exception):
            solver_ref.residual(field_ref, 4.0, grid.m_nodes[0])


class TestUpperBand:
    def test_band_never_feeds_back(self):
        par = reference_params()
        solver = Solver(par, m_nodes=128, dt_divisor=16)
        hist_plain = InitialHistory.from_callable(smooth_history, solver.grid)
        hist_band = InitialHistory.from_callable(
            smooth_history, solver.grid, upper=lambda t, m: 5.0 + 0.0 * t * m)
        f_plain = solver.solve(hist_plain, T=6.0)
        f_band = solver.solve(hist_band, T=6.0)
        assert f_band.upper is not None
        assert np.array_equal(f_plain.N, f_band.N)

    def test_band_transport_decay(self):
        # constant beta = 0: the band obeys pure transport-decay too
        par = reference_params(beta_form="constant", beta0=0.0, delta=0.05)
        solver = Solver(par, m_nodes=256, dt_divisor=32)
        hist = InitialHistory.from_callable(
            lambda t, m: m + 0.0 * t, solver.grid,
            upper=lambda t, m: m + 0.0 * t)
        field = solver.solve(hist, T=6.0)
        sel = field.times >= TAU - 1e-12
        tt = field.times[sel][:, None]
        closed = field.upper.m[None, :] * np.exp(-2.05 * (tt - TAU))
        err = np.max(np.abs(field.upper.N[sel] - closed)) / np.max(closed)
        assert err < 1e-6

    def test_short_delay_requires_band_history(self):
        # tau_lower below the crossing time at g(1): ancestry reaches above
        # g(1), so a main-grid-only history cannot serve the influx lookups
        par = reference_params(c=0.3, tau_lower=1.0, tau_upper=2.0)
        solver = Solver(par, m_nodes=128, dt_divisor=16)
        hist = InitialHistory.from_callable(smooth_history, solver.grid)
        with pytest.raises(ConfigurationError):
            solver.solve(hist, T=5.0)
        hist_band = InitialHistory.from_callable(
            smooth_history, solver.grid, upper=smooth_history)
        field = solver.solve(hist_band, T=5.0)
        assert np.all(np.isfinite(field.N))


class TestSerialization:
    def test_csv_round_trip_bit_exact(self, field_ref, tmp_path):
        path = tmp_path / "field.csv"
        field_ref.to_csv(path)
        back = SolutionField.from_csv(path)
        assert np.array_equal(back.N, field_ref.N)
        assert np.array_equal(back.times, field_ref.times)
        assert np.array_equal(back.m, field_ref.m)

    def test_csv_field_refuses_flow_lookup(self, tmp_path):
        # alpha = 2 makes h(m) = sqrt(m) != m, so the CSV's maturities do
        # not give the flow coordinates back
        solver = Solver(reference_params(alpha=2.0), m_nodes=64, dt_divisor=8)
        field = solver.solve(
            InitialHistory.from_callable(smooth_history, solver.grid), T=3.0)
        xq = field.x[5:9]
        field.to_csv(tmp_path / "field.csv")
        back = SolutionField.from_csv(tmp_path / "field.csv")
        assert np.array_equal(back.N, field.N)
        with pytest.raises(DomainError, match="SolutionField.load"):
            back.lookup(2.5, xq)
        field.save(tmp_path / "field")
        loaded = SolutionField.load(tmp_path / "field")
        assert np.array_equal(loaded.lookup(2.5, xq), field.lookup(2.5, xq))
        back.save(tmp_path / "from_csv")
        assert SolutionField.load(tmp_path / "from_csv").x is None

    def test_binary_round_trip(self, field_ref, tmp_path):
        prefix = tmp_path / "field"
        field_ref.save(prefix)
        back = SolutionField.load(prefix)
        assert np.array_equal(back.N, field_ref.N)
        assert back.metadata["model_digest"] == field_ref.metadata["model_digest"]
