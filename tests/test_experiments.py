"""Model-property verification experiments at desk scale (coarse grids)."""

import numpy as np
import pytest

from hemaflow import (ConfigurationError, DomainError, InitialHistory, Kernels,
                      PreconditionError, SolutionField, Solver)
from hemaflow.experiments import (compute_tbar, exp_extinction,
                                  exp_invariance, exp_positivity,
                                  exp_uniqueness, picard_rate_check,
                                  random_nonneg_history, resolvent_check,
                                  resolvent_sweep, smooth_bump)

from refcase import reference_params, smooth_history

TAU_L, TAU_U = 1.0, 2.0
FOLD = np.exp(-1.0)  # h_inv(e^-tau_lower) for the reference flow


@pytest.fixture(scope="module")
def kern_ref():
    return Kernels(reference_params())


@pytest.fixture(scope="module")
def solver_coarse():
    return Solver(reference_params(beta0=1.0), m_nodes=192, dt_divisor=16)


class TestComputeTbar:
    def test_reference_sequences(self, kern_ref):
        res = compute_tbar(kern_ref, 0.2)
        # closed-form iteration: b_{n+1} = min(b_n e/2, 1/2) until the fold
        expect_b = [0.2, 0.2 * np.e / 2.0, 0.2 * (np.e / 2.0) ** 2, 0.5]
        assert res.M == 2
        assert np.allclose(res.b_sequence, expect_b, rtol=1e-12)
        expect_t = [np.log(bn / 0.2) + n * TAU_U for n, bn in enumerate(expect_b)]
        assert np.allclose(res.t_sequence, expect_t, rtol=1e-12)
        assert res.t_bar == pytest.approx(np.log(2.5) + 3 * TAU_U, rel=1e-12)

    def test_sequence_strictly_increasing(self, kern_ref):
        res = compute_tbar(kern_ref, 0.05)
        assert np.all(np.diff(res.b_sequence) > 0.0)
        assert np.all(np.diff(res.t_sequence) > 0.0)
        assert res.b_sequence[-1] == kern_ref.flow.g1
        assert res.b_sequence[-2] < kern_ref.flow.g1

    def test_just_below_fold_hits_extension_next_step(self, kern_ref):
        # b strictly below the fold: the first iterate lands at (e/2) b,
        # already above the fold, so the continuous extension caps the
        # second iterate at g(1)
        b = FOLD * (1.0 - 1e-9)
        res = compute_tbar(kern_ref, b)
        assert res.M == 1
        assert res.b_sequence[1] == pytest.approx(0.5 * np.e * b, rel=1e-12)
        assert res.b_sequence[1] > FOLD
        assert res.b_sequence[-1] == 0.5
        assert res.t_bar == pytest.approx(np.log(0.5 / b) + 2 * TAU_U, rel=1e-9)

    def test_horizon_nonincreasing_in_b(self, kern_ref):
        bs = np.linspace(0.02, FOLD * 0.999, 40)
        horizons = [compute_tbar(kern_ref, float(b)).t_bar for b in bs]
        assert np.all(np.diff(horizons) <= 1e-12)

    def test_preconditions(self, kern_ref):
        with pytest.raises(PreconditionError):
            compute_tbar(kern_ref, FOLD * 1.01)
        with pytest.raises(PreconditionError):
            compute_tbar(kern_ref, 0.0)
        # tau0 = ln 5 > tau_lower = 1: the ancestry margin fails
        kern_slow = Kernels(reference_params(c=0.2))
        with pytest.raises(PreconditionError):
            compute_tbar(kern_slow, 0.1)


class TestUniqueness:
    def test_agreeing_histories_synchronize(self, solver_coarse):
        bump = smooth_bump(0.35, 0.09, 0.4)
        phi2 = lambda t, m: smooth_history(t, m) + bump(m) + 0.0 * t
        rep = exp_uniqueness(solver_coarse, smooth_history, phi2, 0.2)
        assert rep.verdict
        assert rep.difference_at_history_edge >= 1e-2 * rep.scale
        assert rep.observed_sync_time is not None
        assert rep.observed_sync_time <= rep.t_bar

    def test_identical_histories_trivially_agree(self, solver_coarse):
        rep = exp_uniqueness(solver_coarse, smooth_history, smooth_history, 0.2)
        assert rep.verdict
        assert np.max(rep.divergence) == 0.0

    def test_divergence_visible_before_synchronization(self, solver_coarse):
        bump = smooth_bump(0.35, 0.09, 0.4)
        phi2 = lambda t, m: smooth_history(t, m) + bump(m) + 0.0 * t
        rep = exp_uniqueness(solver_coarse, smooth_history, phi2, 0.2)
        early = rep.divergence[rep.times <= TAU_U + 0.5]
        assert np.max(early) >= 1e-2 * rep.scale

    def test_disagreement_below_b_rejected(self, solver_coarse):
        phi2 = lambda t, m: smooth_history(t, m) + 0.1
        with pytest.raises(PreconditionError):
            exp_uniqueness(solver_coarse, smooth_history, phi2, 0.2)

    def test_pair_matches_independent_solves(self, solver_coarse):
        bump = smooth_bump(0.35, 0.09, 0.4)
        phi2 = lambda t, m: smooth_history(t, m) + bump(m) + 0.0 * t
        rep = exp_uniqueness(solver_coarse, smooth_history, phi2, 0.2)
        T = rep.t_bar + 2.0 * TAU_U
        f1, f2 = (solver_coarse.solve(
            InitialHistory.from_callable(phi, solver_coarse.grid), T)
            for phi in (smooth_history, phi2))
        assert np.array_equal(rep.divergence, np.max(np.abs(f1.N - f2.N), axis=1))

    def test_randomized_pair_suite(self, solver_coarse):
        # ten seeded history pairs differing only above b: every pair must
        # synchronize by the horizon
        rng_master = np.random.default_rng(2024)
        for _ in range(10):
            seed = int(rng_master.integers(0, 2 ** 31))
            rng = np.random.default_rng(seed)
            base = random_nonneg_history(seed)
            center = rng.uniform(0.3, 0.42)
            width = rng.uniform(0.03, min(center - 0.21, 0.49 - center))
            bump = smooth_bump(center, width, rng.uniform(0.1, 0.6))
            phi2 = (lambda f, g: lambda t, m: f(t, m) + g(m) + 0.0 * np.asarray(t)
                    )(base, bump)
            rep = exp_uniqueness(solver_coarse, base, phi2, 0.2)
            assert rep.verdict, f"pair with seed {seed} failed to synchronize"


class TestExtinction:
    def test_no_stem_cells_dies_out(self):
        solver = Solver(reference_params(beta0=1.8, delta=0.02, gamma=0.05),
                        m_nodes=192, dt_divisor=16)
        bump = smooth_bump(0.35, 0.09, 1.0)
        phi = lambda t, m: bump(m) * (1.0 + 0.1 * np.sin(t))
        ctrl = lambda t, m: bump(m) * (1.0 + 0.1 * np.sin(t)) + 0.5
        rep = exp_extinction(solver, phi, 0.2, control_phi=ctrl)
        assert rep.verdict
        assert rep.control_sup_at_tbar is not None
        assert rep.control_sup_at_tbar >= 1e-3 * 1.6

    def test_zero_history_trivially_extinct(self, solver_coarse):
        rep = exp_extinction(solver_coarse, lambda t, m: 0.0 * m + 0.0 * t, 0.2)
        assert rep.verdict
        assert np.max(rep.sup_profile) == 0.0

    def test_nonzero_stem_compartment_rejected(self, solver_coarse):
        with pytest.raises(PreconditionError):
            exp_extinction(solver_coarse, smooth_history, 0.2)


class TestInvariance:
    def test_margin_satisfied_bound_holds(self):
        solver = Solver(reference_params(delta=1.2, gamma=0.0, beta0=0.2),
                        m_nodes=192, dt_divisor=16)
        bump = smooth_bump(0.35, 0.09, 2.0)
        phi = lambda t, m: 0.1 + bump(m) + 0.0 * t
        rep = exp_invariance(solver, phi, 0.2)
        assert not rep.skipped
        assert rep.phi_norm_b == pytest.approx(0.1, rel=1e-12)
        assert rep.verdict_global and rep.verdict_small_m
        assert rep.verdict

    def test_margin_unsatisfied_skips(self):
        solver = Solver(reference_params(beta0=2.5), m_nodes=96, dt_divisor=16)
        rep = exp_invariance(solver, smooth_history, 0.2)
        assert rep.skipped
        assert rep.verdict is None
        assert not rep.margin.satisfied

    def test_constant_history_inside_ball(self):
        solver = Solver(reference_params(delta=1.2, gamma=0.0, beta0=0.2),
                        m_nodes=96, dt_divisor=16)
        rep = exp_invariance(solver, lambda t, m: 0.4 + 0.0 * m * t, 0.2)
        assert not rep.skipped
        assert rep.verdict


class TestPositivity:
    def test_random_histories_stay_nonnegative(self):
        solver = Solver(reference_params(beta0=1.0, delta=0.05),
                        m_nodes=128, dt_divisor=16)
        rep = exp_positivity(solver, n_runs=3, seed=0, horizon=6.0)
        assert rep.verdict
        assert rep.worst_floor >= -1e-8

    def test_generator_is_nonnegative_and_seeded(self):
        phi_a = random_nonneg_history(5)
        phi_b = random_nonneg_history(5)
        t = np.linspace(0.0, 2.0, 21)[:, None]
        m = np.linspace(0.0, 0.5, 33)[None, :]
        assert np.array_equal(phi_a(t, m), phi_b(t, m))
        assert np.all(phi_a(t, m) >= 0.0)

    def test_decay_floor_precondition(self):
        # delta + V' must be strictly positive; a custom velocity with a
        # vanishing-slope stretch breaks that when delta = 0
        from hemaflow import (CustomVelocity, HillReintroduction,
                              LinearMaturityMap, ModelParams, RateFunctions,
                              SeparableUniformKernel)
        vel = CustomVelocity(V=lambda m: m * (1.05 - m),
                             V_prime=lambda m: 1.05 - 2.0 * m)
        par = ModelParams(velocity=vel, maturity=LinearMaturityMap(c=0.7),
                          rates=RateFunctions(delta=0.0, gamma=0.0),
                          reintroduction=HillReintroduction(beta0=0.1),
                          division=SeparableUniformKernel(tau_lower=1.0,
                                                          tau_upper=2.0))
        solver = Solver(par, m_nodes=96, dt_divisor=16)
        with pytest.raises(PreconditionError):
            exp_positivity(solver, n_runs=1, horizon=4.0)


@pytest.fixture(scope="module")
def flow(kern_ref):
    return kern_ref.flow


class TestResolvent:

    def test_constant_is_fixed_point(self, flow):
        rep = resolvent_check(flow, lambda m: 0.8 + 0.0 * np.asarray(m), 1.3)
        assert rep.verdict
        assert np.max(np.abs(rep.u - 0.8)) < 1e-12

    def test_linear_profile_closed_form(self, flow):
        for lam in (0.1, 0.7, 1.0, 10.0):
            rep = resolvent_check(flow, lambda m: np.asarray(m, dtype=float), lam)
            assert rep.verdict
            assert np.max(np.abs(rep.u - rep.m_grid / (1.0 + lam))) < 1e-10

    def test_randomized_contraction(self, flow):
        rng = np.random.default_rng(2)
        for _ in range(30):
            c = rng.normal(size=4)
            k = rng.uniform(1.0, 6.0)
            w = (lambda c, k: lambda m: c[0] + c[1] * np.asarray(m)
                 + c[2] * np.asarray(m) ** 2 + c[3] * np.sin(k * np.asarray(m)))(c, k)
            for lam in (0.1, 1.0, 10.0):
                rep = resolvent_check(flow, w, lam)
                assert rep.bound_ok
                assert rep.residual_ok
                assert rep.u0_ok

    def test_nonpositive_lambda_rejected(self, flow):
        from hemaflow import DomainError
        with pytest.raises(DomainError):
            resolvent_check(flow, lambda m: m, 0.0)


@pytest.mark.parametrize("run", [
    lambda solver: exp_positivity(solver, n_runs=0),
    lambda solver: exp_positivity(solver, n_runs=-3),
    lambda solver: exp_positivity(solver, n_runs=2.5),
    lambda solver: resolvent_sweep(solver.flow, [1.0], 0, 0),
    lambda solver: resolvent_sweep(solver.flow, [1.0], 1.5, 0),
    lambda solver: resolvent_sweep(solver.flow, [], 2, 0),
], ids=["positivity-0", "positivity-neg", "positivity-float", "resolvent-no-w",
        "resolvent-float-w", "resolvent-no-lambda"])
def test_no_verdict_over_zero_cases(solver_coarse, run):
    with pytest.raises(ConfigurationError):
        run(solver_coarse)


class TestPicardRate:
    def test_field_without_solve_record_refused(self):
        field = SolutionField(np.arange(3.0), None, np.arange(3.0), np.zeros((3, 3)))
        with pytest.raises(DomainError, match="lipschitz_l"):
            picard_rate_check(field)

    def test_no_reintroduction_trivial(self):
        solver = Solver(reference_params(beta_form="constant", beta0=0.0),
                        m_nodes=96, dt_divisor=16)
        hist = InitialHistory.from_callable(smooth_history, solver.grid)
        field = solver.solve(hist, T=6.0)
        rep = picard_rate_check(field)
        assert rep.verdict
        assert rep.max_iterations == 1

    def test_reference_envelope_respected(self, solver_coarse):
        hist = InitialHistory.from_callable(smooth_history, solver_coarse.grid)
        field = solver_coarse.solve(hist, T=8.0)
        rep = picard_rate_check(field)
        assert rep.verdict
        assert rep.worst_ratio <= 1.0

    def test_stiffer_law_needs_more_iterations_still_bounded(self):
        fields = []
        for b0 in (0.5, 1.0):
            solver = Solver(reference_params(beta0=b0), m_nodes=96, dt_divisor=16)
            hist = InitialHistory.from_callable(smooth_history, solver.grid)
            fields.append(solver.solve(hist, T=6.0))
        reps = [picard_rate_check(f) for f in fields]
        assert all(r.verdict for r in reps)
        assert reps[1].max_iterations > reps[0].max_iterations
