"""Flow map: conjugacy coordinate, backward flow, ancestry map, crossing time."""

import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_jacobi, roots_legendre

from hemaflow import (ConfigurationError, CustomMaturityMap, CustomVelocity,
                      DomainError, FlowMap, LinearMaturityMap, PowerLawVelocity)
from hemaflow.cubic import HermiteCubic
from hemaflow.quadrature import adaptive_panels, gauss_jacobi, gauss_legendre

from refcase import adaptive_interval, quadratic_h, quadratic_velocity

G_HALF = LinearMaturityMap(c=0.5)


@pytest.fixture(scope="module")
def flow_ref():
    return FlowMap(PowerLawVelocity(alpha=1.0, p=1.0), G_HALF)


@pytest.fixture(scope="module")
def flow_custom():
    return FlowMap(quadratic_velocity(), G_HALF)


class TestConjugacyCoordinate:
    def test_linear_velocity_closed_form(self):
        fl = FlowMap(PowerLawVelocity(alpha=2.0, p=1.0), G_HALF)
        assert fl.h(0.25) == pytest.approx(0.5, abs=1e-15)

    def test_h_vanishes_at_zero(self, flow_ref, flow_custom):
        assert flow_ref.h(0.0) == 0.0
        assert flow_custom.h(0.0) == 0.0

    def test_h_is_one_at_one(self, flow_ref, flow_custom):
        assert flow_ref.h(1.0) == pytest.approx(1.0, abs=1e-12)
        assert flow_custom.h(1.0) == pytest.approx(1.0, abs=1e-9)

    def test_superlinear_antiderivative_vs_quadrature(self):
        fl = FlowMap(PowerLawVelocity(alpha=1.0, p=2.0), G_HALF)
        # closed form at m = 1/2 is e^-1; independent quadrature oracle
        assert fl.h(0.5) == pytest.approx(np.exp(-1.0), abs=1e-14)
        for m in (0.2, 0.55, 0.9):
            integral, _ = quad(lambda s: 1.0 / s ** 2, m, 1.0)
            assert fl.h(m) == pytest.approx(np.exp(-integral), rel=1e-11)

    def test_round_trip_closed_form(self, flow_ref):
        m = np.linspace(0.0, 1.0, 257)
        assert np.max(np.abs(flow_ref.h_inv(flow_ref.h(m)) - m)) < 1e-12

    def test_round_trip_custom(self, flow_custom):
        m = np.linspace(1e-6, 1.0, 257)
        assert np.max(np.abs(flow_custom.h_inv(flow_custom.h(m)) - m)) < 1e-8

    def test_custom_h_matches_closed_form(self, flow_custom):
        m = np.linspace(1e-4, 1.0, 101)
        assert np.max(np.abs(flow_custom.h(m) - quadratic_h(m))) < 1e-9

    def test_h_strictly_increasing(self, flow_ref, flow_custom):
        m = np.linspace(0.0, 1.0, 513)
        for fl in (flow_ref, flow_custom):
            assert np.all(np.diff(fl.h(m)) > 0.0)

    def test_domain_errors(self, flow_ref):
        with pytest.raises(DomainError):
            flow_ref.h(1.5)
        with pytest.raises(DomainError):
            flow_ref.h(-0.2)


class TestBackwardFlow:
    def test_halving_example(self):
        fl = FlowMap(PowerLawVelocity(alpha=1.0, p=1.0), G_HALF)
        assert fl.pi(-np.log(2.0), 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_identity_at_zero_time(self, flow_ref, flow_custom):
        m = np.linspace(0.0, 1.0, 33)
        assert np.max(np.abs(flow_ref.pi(0.0, m) - m)) < 1e-12
        assert np.max(np.abs(flow_custom.pi(0.0, m) - m)) < 1e-8

    def test_zero_is_fixed(self, flow_ref, flow_custom):
        for fl in (flow_ref, flow_custom):
            for s in (-0.1, -2.0, -40.0):
                assert fl.pi(s, 0.0) == 0.0

    def test_forward_flow_rejected(self, flow_ref):
        with pytest.raises(DomainError):
            flow_ref.pi(0.5, 0.3)


class TestAncestryMap:
    def test_zero_fixed(self, flow_ref, flow_custom):
        for fl in (flow_ref, flow_custom):
            assert fl.delta(3.0, 0.0) == 0.0

    def test_zero_time_gives_mother(self, flow_ref):
        m = np.linspace(0.0, 0.5, 33)
        assert np.max(np.abs(flow_ref.delta(0.0, m) - 2.0 * m)) < 1e-14

    def test_closed_form(self, flow_ref):
        # alpha=1, c=1/2: delta(s, m) = 2 m e^-s; at s = ln 2, m = 1/4 -> 1/4
        assert flow_ref.delta(np.log(2.0), 0.25) == pytest.approx(0.25, abs=1e-15)
        # cross-check by explicit composition through the coordinate maps
        s, m = 1.3, 0.31
        composed = flow_ref.h_inv(flow_ref.h(2.0 * m) * np.exp(-s))
        assert flow_ref.delta(s, m) == pytest.approx(composed, abs=1e-15)

    def test_domain_errors(self, flow_ref):
        with pytest.raises(DomainError):
            flow_ref.delta(-0.5, 0.2)
        with pytest.raises(DomainError):
            flow_ref.delta(0.5, 0.7)  # above g(1)


class TestLemmaProperties:
    """Randomized suites for the structural identities of the ancestry map."""

    @pytest.mark.parametrize("which,tol", [("ref", 1e-12), ("custom", 1e-8)])
    def test_cocycle_identity(self, flow_ref, flow_custom, which, tol):
        fl = flow_ref if which == "ref" else flow_custom
        rng = np.random.default_rng(7)
        s = rng.uniform(0.0, 5.0, 4000)
        sigma = rng.uniform(0.0, 5.0, 4000)
        m = rng.uniform(0.0, fl.g1, 4000)
        lhs = fl.pi(-sigma, fl.delta(s, m))
        rhs = fl.delta(s + sigma, m)
        assert np.max(np.abs(lhs - rhs)) < tol

    def test_monotone_decreasing_in_s(self, flow_ref, flow_custom):
        s = np.linspace(0.0, 5.0, 120)
        m = np.linspace(1e-6, 0.5, 120)
        for fl in (flow_ref, flow_custom):
            vals = fl.delta(s[:, None], m[None, :])
            assert np.all(np.diff(vals, axis=0) < 0.0)

    def test_monotone_nondecreasing_in_m(self, flow_ref, flow_custom):
        s = np.linspace(0.0, 5.0, 120)
        m = np.linspace(0.0, 0.5, 120)
        for fl in (flow_ref, flow_custom):
            vals = fl.delta(s[:, None], m[None, :])
            assert np.all(np.diff(vals, axis=1) >= 0.0)

    def test_bound_chain(self, flow_ref, flow_custom):
        rng = np.random.default_rng(11)
        s = rng.uniform(0.0, 5.0, 2000)
        m = rng.uniform(0.0, 0.5, 2000)
        for fl in (flow_ref, flow_custom):
            vals = fl.delta(s, m)
            upper = fl.h_inv(np.exp(-s))
            assert np.all(vals >= 0.0)
            assert np.all(vals <= upper + 1e-12)

    def test_crossing_equivalence(self, flow_ref, flow_custom):
        rng = np.random.default_rng(13)
        s = rng.uniform(0.0, 3.0, 3000)
        m = rng.uniform(1e-4, 0.5, 3000)
        for fl in (flow_ref, flow_custom):
            ct = fl.crossing_time(m)
            keep = np.abs(s - ct) > 1e-9
            below = fl.delta(s[keep], m[keep]) < m[keep]
            above = s[keep] > ct[keep]
            assert np.array_equal(below, above)


class TestCrossingTime:
    def test_linear_model_constant(self, flow_ref):
        assert flow_ref.crossing_time(0.3) == pytest.approx(np.log(2.0), abs=1e-14)

    def test_at_top_of_daughter_range(self, flow_ref, flow_custom):
        for fl in (flow_ref, flow_custom):
            expect = -float(np.asarray(fl.log_h(fl.g1)))
            assert fl.crossing_time(fl.g1) == pytest.approx(expect, rel=1e-12)

    def test_scaled_velocity(self):
        fl = FlowMap(PowerLawVelocity(alpha=2.0, p=1.0), G_HALF)
        assert fl.crossing_time(0.3) == pytest.approx(np.log(2.0) / 2.0, abs=1e-14)

    def test_domain_error_at_zero(self, flow_ref):
        with pytest.raises(DomainError):
            flow_ref.crossing_time(0.0)


class TestTau0:
    def test_reference_value(self, flow_ref):
        assert flow_ref.tau0() == pytest.approx(np.log(2.0), rel=1e-12)

    def test_scaled_velocity_with_quadrature_oracle(self):
        fl = FlowMap(PowerLawVelocity(alpha=2.0, p=1.0), G_HALF)
        assert fl.tau0() == pytest.approx(np.log(2.0) / 2.0, rel=1e-12)
        # oracle: the crossing integral at 100 sampled maturities never exceeds it
        for m in np.linspace(1e-3, 0.5, 100):
            integral, _ = quad(lambda s: 1.0 / (2.0 * s), m, 2.0 * m)
            assert integral <= fl.tau0() + 1e-10

    def test_division_fraction_near_one_gives_small_tau0(self):
        fl = FlowMap(PowerLawVelocity(alpha=1.0, p=1.0), LinearMaturityMap(c=0.999))
        assert fl.tau0() == pytest.approx(np.log(1.0 / 0.999), rel=1e-9)

    def test_custom_velocity_value(self, flow_custom):
        # crossing time ln((2-m)/(1-m)) peaks at m = g(1) = 1/2 with value ln 3
        assert flow_custom.tau0() == pytest.approx(np.log(3.0), rel=1e-9)

    def test_superlinear_velocity_diverges(self):
        fl = FlowMap(PowerLawVelocity(alpha=1.0, p=2.0), G_HALF)
        with pytest.raises(ConfigurationError):
            fl.tau0()


class TestDivergenceScreen:
    def test_steep_linear_decay_accepted(self):
        # V = alpha*m grows int ds/V by ln(100)/alpha over either probe range
        # of eps: the screen compares the two, so it holds whatever alpha
        for alpha in (2.0, 5.0, 20.0):
            vel = CustomVelocity(V=lambda m: alpha * m, V_prime=lambda m: alpha + 0.0 * m)
            assert FlowMap(vel, G_HALF).tau0() == pytest.approx(np.log(2.0) / alpha,
                                                                rel=1e-9)

    @pytest.mark.parametrize("p", [0.5, 0.9])
    def test_sublinear_velocity_rejected(self, p):
        # V = m^p with p < 1 leaves m = 0 in finite time: the deeper range
        # grows int ds/V by only 100^(p - 1) of the shallower one's growth
        vel = CustomVelocity(V=lambda m: m ** p, V_prime=lambda m: p * m ** (p - 1.0))
        with pytest.raises(ConfigurationError, match="divergence screen"):
            FlowMap(vel, G_HALF)

    def test_unit_linear_decay_accepted(self):
        FlowMap(quadratic_velocity(), G_HALF)

    def test_nonfinite_table_is_a_configuration_error(self):
        # 1/V overflows to inf below m = 1e-11, so int ds/V is not finite
        # there; the quadrature stops at the first non-finite panel instead
        # of splitting it to full depth
        vel = CustomVelocity(V=lambda m: np.where(m < 1e-11, m * 1e-300, m),
                             V_prime=lambda m: np.where(m < 1e-11, 1e-300, 1.0))
        start = time.perf_counter()
        with pytest.raises(ConfigurationError, match="not finite"):
            FlowMap(vel, G_HALF)
        assert time.perf_counter() - start < 60.0


class TestCustomMaturityMap:
    """The inverse of a custom g is computed from g alone."""

    G = CustomMaturityMap(g=lambda m: m / (1.0 + m))       # inverse y / (1 - y)

    def test_inverse_to_two_ulp_at_every_magnitude(self):
        y = np.concatenate([[1e-300, 1e-12], np.linspace(0.0, 0.5, 129)[1:]])
        want = y / (1.0 - y)
        assert np.all(np.abs(self.G.inverse(y) - want) <= 2.0 * np.spacing(want))

    def test_inverse_ends(self):
        assert self.G.inverse(0.0) == 0.0
        assert np.array_equal(self.G.inverse([0.5 + 1e-12, 0.7, 1.0]), np.ones(3))

    def test_inverse_is_the_least_float_reaching_y(self):
        # ancestry reads a tabulated g through its inverse: a curved 5-row
        # table, the least float m with g(m) >= y, and not its predecessor
        g = CustomMaturityMap(g=HermiteCubic(np.linspace(0.0, 1.0, 5),
                                             np.array([0.0, 0.1, 0.22, 0.36, 0.5])))
        y = np.linspace(0.0, 0.5, 65)[1:]
        m = g.inverse(y)
        assert np.all(g(m) >= y) and np.all(g(np.nextafter(m, 0.0)) < y)
        fl = FlowMap(PowerLawVelocity(alpha=1.0, p=1.0), g)
        assert fl.delta(0.0, y) == pytest.approx(m, rel=1e-12)


def _table_velocity():
    """The velocity the CLI builds from `velocity.table` with V = m on 17 rows."""
    m = np.arange(17) / 16
    interp = HermiteCubic(m, m)
    return CustomVelocity(V=interp, V_prime=interp.derivative(), name="table")


class TestBatchedPanels:
    """The flow table's panels integrate in one block, bit-equal to one
    ``adaptive_interval`` call per panel."""

    EDGES = np.logspace(-12.0, 0.0, 4096)       # the table's panels

    @pytest.mark.parametrize("velocity, deep", [
        (_table_velocity(), False),
        # the kink at m = 0.3 keeps its panel splitting past the first level
        (CustomVelocity(V=lambda m: m * (1.0 + np.abs(m - 0.3)),
                        V_prime=lambda m: 1.0 + np.abs(m - 0.3)), True),
    ])
    def test_increments_equal_per_panel_quadrature(self, velocity, deep):
        calls = []

        def inv_v(s):
            calls.append(s.size)
            return 1.0 / velocity(s)

        batched = adaptive_panels(inv_v, self.EDGES)
        assert (len(calls) > 1) == deep          # the fallback ran only when needed
        single = np.array([adaptive_interval(inv_v, a, b)
                           for a, b in zip(self.EDGES[:-1], self.EDGES[1:])])
        assert np.array_equal(batched, single)

    def test_empty_panel_is_zero(self):
        edges = np.array([0.1, 0.2, 0.2, 0.4])
        out = adaptive_panels(lambda s: 1.0 / s, edges)
        assert out[1] == 0.0
        assert out[2] == adaptive_interval(lambda s: 1.0 / s, 0.2, 0.4)


class TestGaussRules:
    """The NumPy rules against scipy 1.17.1's at the sizes the package uses:
    8 (decay tables), 15 (adaptive rule), 16 (age rule), 32 to 256 (path
    integrals) and the resolvent check's 48-node Jacobi rule."""

    @pytest.mark.parametrize("n", [8, 15, 16, 32, 64, 128, 256])
    def test_legendre_matches_scipy(self, n):
        z, w = gauss_legendre(n)
        z_ref, w_ref = roots_legendre(n)
        assert np.max(np.abs(z - z_ref)) <= 2.3e-16
        assert np.max(np.abs(w - w_ref)) <= 1.9e-14

    @pytest.mark.parametrize("lam", [0.1, 1.0, 1.3, 10.0])
    def test_jacobi_matches_scipy(self, lam):
        # the resolvent check's 48-node rule for the weight x^(1/lambda - 1)
        beta = 1.0 / lam - 1.0
        z, w = gauss_jacobi(48, beta)
        z_ref, w_ref = roots_jacobi(48, 0.0, beta)
        assert np.max(np.abs(z - z_ref)) <= 6.7e-16
        assert np.max(np.abs(w - w_ref / np.sum(w_ref))) <= 2.2e-13
        assert abs(np.sum(w) - 1.0) <= 1e-15
