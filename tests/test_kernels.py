"""Attenuation kernels, Lipschitz constant, and the invariance margin."""

import dataclasses

import numpy as np
import pytest

from hemaflow import (ConfigurationError, CustomDivisionKernel,
                      CustomReintroduction, CustomVelocity, DomainError,
                      FlowMap, HillReintroduction, Kernels, LinearMaturityMap,
                      ModelParams, PowerLawVelocity, RateFunctions,
                      SeparableKernel, SeparableUniformKernel)
from hemaflow.params import _max_field, as_field, golden_section_max

from refcase import K, reference_params


@pytest.fixture(scope="module")
def kern_const_rates():
    # delta = 0.05, gamma = 0.1, V' = alpha = 1
    return Kernels(reference_params())


class TestRestingAttenuation:
    def test_empty_integral(self, kern_const_rates):
        assert K(kern_const_rates, 0.0, 0.3) == 1.0

    def test_constant_rates_closed_form(self, kern_const_rates):
        # constant integrand d + alpha: K = e^-((d + alpha) t) for every m
        for t in (0.3, 1.7, 4.0):
            for m in (0.0, 0.2, 0.5):
                expect = np.exp(-1.05 * t)
                assert K(kern_const_rates, t, m) == pytest.approx(expect, rel=1e-12)

    def test_maturity_dependent_death_closed_form(self):
        # delta(m) = m along the linear flow: the path integral has an
        # elementary antiderivative m (1 - e^-t) + t
        par = reference_params(delta=lambda m: m, gamma=0.0)
        kern = Kernels(par)
        for t, m in ((0.9, 0.4), (2.5, 0.1), (0.2, 0.5)):
            expect = np.exp(-m * (1.0 - np.exp(-t)) - t)
            assert K(kern, t, m) == pytest.approx(expect, rel=1e-12)

    def test_flow_multiplicativity(self, kern_const_rates):
        par = reference_params(delta=lambda m: 0.3 + m ** 2, gamma=0.0)
        kern = Kernels(par)
        rng = np.random.default_rng(3)
        for _ in range(25):
            t, sig = rng.uniform(0.05, 2.5, 2)
            m = rng.uniform(0.0, 0.5)
            lhs = K(kern, t + sig, m)
            rhs = K(kern, sig, m) * K(kern, t, float(kern.flow.pi(-sig, m)))
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_unit_interval_range(self):
        par = reference_params(delta=lambda m: 0.2 + np.sin(3 * m) ** 2, gamma=0.0)
        kern = Kernels(par)
        t = np.linspace(0.0, 4.0, 9)
        m = np.linspace(0.0, 0.5, 33)
        for tv in t:
            vals = K(kern, tv, m)
            assert np.all(vals > 0.0) and np.all(vals <= 1.0 + 1e-14)

    def test_domain_errors(self, kern_const_rates):
        with pytest.raises(DomainError):
            K(kern_const_rates, -0.1, 0.3)
        with pytest.raises(DomainError):
            K(kern_const_rates, 1.0, 1.2)


class TestProliferatingAttenuation:
    def test_empty_integral(self, kern_const_rates):
        assert kern_const_rates.xi(0.3, 0.0) == 1.0

    def test_no_death_pure_dilation(self):
        kern = Kernels(reference_params(gamma=0.0))
        for t in (0.5, 1.5):
            assert kern.xi(0.37, t) == pytest.approx(np.exp(-t), rel=1e-12)

    def test_constant_death(self):
        kern = Kernels(reference_params(gamma=0.25))
        for t in (0.5, 1.5):
            assert kern.xi(0.37, t) == pytest.approx(np.exp(-1.25 * t), rel=1e-12)


class TestDivisionWeight:
    def test_vanishes_at_daughter_ceiling(self, kern_const_rates):
        assert kern_const_rates.zeta(0.5, 1.5) == 0.0

    def test_flat_kernel_reduces_to_attenuation(self):
        par = ModelParams(
            velocity=PowerLawVelocity(alpha=1.0, p=1.0),
            maturity=LinearMaturityMap(c=0.5),
            rates=RateFunctions(delta=0.05, gamma=0.0),
            reintroduction=HillReintroduction(beta0=0.3),
            division=CustomDivisionKernel(tau_lower=1.0, tau_upper=2.0,
                                          fn=lambda m, a: 1.0 + 0.0 * m * a))
        kern = Kernels(par)
        for a in (1.0, 1.4, 2.0):
            assert kern.zeta(0.2, a) == pytest.approx(np.exp(-a), rel=1e-12)

    def test_vanishing_age_factor(self):
        par = ModelParams(
            velocity=PowerLawVelocity(alpha=1.0, p=1.0),
            maturity=LinearMaturityMap(c=0.5),
            rates=RateFunctions(delta=0.05, gamma=0.1),
            reintroduction=HillReintroduction(beta0=0.3),
            division=CustomDivisionKernel(tau_lower=1.0, tau_upper=2.0,
                                          fn=lambda m, a: (a - 1.0) + 0.0 * m))
        kern = Kernels(par)
        assert kern.zeta(0.2, 1.0) == 0.0

    def test_definition_recomputation(self, kern_const_rates):
        kern = kern_const_rates
        rng = np.random.default_rng(5)
        m = rng.uniform(0.0, 1.0, 40)
        for a in (1.0, 1.3, 1.9):
            direct = kern.zeta(m, a)
            recomposed = kern.k(m, a) * kern.xi(kern.flow.maturity.inverse(m), a)
            assert np.max(np.abs(direct - recomposed)) < 1e-14

    def test_age_domain_error(self, kern_const_rates):
        with pytest.raises(DomainError):
            kern_const_rates.zeta(0.2, 0.5)
        with pytest.raises(DomainError):
            kern_const_rates.zeta(0.2, 2.5)


class TestHillLaw:
    def test_kept_constants_stay_out_of_identity(self):
        # rate keeps as_field(beta0) and theta^n; equality, hashing, repr and
        # the model's description see the declared fields only, and replace
        # computes them anew
        law = HillReintroduction(beta0=0.3, theta=2.0, n=3.0)
        twin = HillReintroduction(beta0=0.3, theta=2.0, n=3.0)
        assert law == twin and hash(law) == hash(twin)
        assert repr(law) == "HillReintroduction(beta0=0.3, theta=2.0, n=3.0)"
        model = dataclasses.replace(reference_params(), reintroduction=law)
        assert model.describe()["reintroduction"] == {
            "kind": "HillReintroduction", "beta0": 0.3, "theta": 2.0, "n": 3.0}
        m, x = np.linspace(0.0, 1.0, 5), np.linspace(-1.0, 2.0, 5)
        held = np.maximum(x, 0.0) ** 3.0
        assert np.array_equal(law.rate(m, x), np.full(5, 0.3) * 8.0 / (8.0 + held))
        moved = dataclasses.replace(law, theta=1.0)
        assert moved != law
        assert np.array_equal(moved.rate(m, x), np.full(5, 0.3) * 1.0 / (1.0 + held))


class TestLipschitz:
    def test_constant_law(self):
        kern = Kernels(reference_params(beta_form="constant", beta0=0.7))
        assert kern.lipschitz_l() == pytest.approx(0.7, rel=1e-12)

    def test_hill_first_order(self):
        kern = Kernels(reference_params(beta0=1.3, n=1.0, theta=2.0))
        assert kern.lipschitz_l() == pytest.approx(1.3, rel=1e-12)

    def test_hill_second_order_unit(self):
        # n = 2, beta0 = theta = 1: the slope extremum at x = 0 still wins
        kern = Kernels(reference_params(beta0=1.0, n=2.0, theta=1.0))
        assert kern.lipschitz_l() == pytest.approx(1.0, rel=1e-12)

    def test_hill_steep_interior_dip(self):
        # for n > 3 + 2 sqrt(2) the interior extremum (n-1)^2/(4n) dominates
        n = 8.0
        kern = Kernels(reference_params(beta0=1.0, n=n, theta=0.7))
        assert kern.lipschitz_l() == pytest.approx((n - 1) ** 2 / (4 * n), rel=1e-12)

    @pytest.mark.parametrize("n,theta,beta0", [(1.0, 1.0, 0.5), (2.0, 0.6, 1.1),
                                               (8.0, 1.3, 0.9)])
    def test_numeric_probe_never_exceeds(self, n, theta, beta0):
        kern = Kernels(reference_params(beta0=beta0, n=n, theta=theta))
        l = kern.lipschitz_l()
        rng = np.random.default_rng(17)
        x1 = rng.uniform(0.0, 8.0, 4000)
        x2 = rng.uniform(0.0, 8.0, 4000)
        m = rng.uniform(0.0, 0.5, 4000)
        w1 = x1 * kern.beta(m, x1)
        w2 = x2 * kern.beta(m, x2)
        keep = np.abs(x1 - x2) > 1e-12
        ratio = np.abs(w1 - w2)[keep] / np.abs(x1 - x2)[keep]
        assert np.max(ratio) <= l * (1.0 + 1e-6)

    def test_hill_shape_factor_vs_numeric_maximization(self):
        # 1-D oracle: maximize |d/dx (x/(1+x^n))| on a fine grid
        for n in (1.0, 2.0, 5.0, 8.0, 12.0):
            x = np.linspace(0.0, 50.0, 400001)
            slope = (1.0 + (1.0 - n) * x ** n) / (1.0 + x ** n) ** 2
            numeric = np.max(np.abs(slope))
            shape = max(1.0, (n - 1.0) ** 2 / (4.0 * n))
            assert numeric == pytest.approx(shape, rel=1e-6)

    @staticmethod
    def _with_custom_law(law):
        return ModelParams(
            velocity=PowerLawVelocity(alpha=1.0, p=1.0),
            maturity=LinearMaturityMap(c=0.5),
            rates=RateFunctions(delta=0.05, gamma=0.1),
            reintroduction=law,
            division=SeparableUniformKernel(tau_lower=1.0, tau_upper=2.0))

    def test_custom_requires_declared_constant(self):
        par = self._with_custom_law(
            CustomReintroduction(fn=lambda m, x: 0.4 / (1.0 + x)))
        with pytest.raises(ConfigurationError):
            Kernels(par).lipschitz_l()

    def test_custom_declared_constant_returned(self):
        par = self._with_custom_law(
            CustomReintroduction(fn=lambda m, x: 0.4 / (1.0 + x),
                                 lipschitz_bound=0.4))
        assert Kernels(par).lipschitz_l() == 0.4

    def test_nonfinite_at_probe_level_rejected(self):
        with pytest.raises(ConfigurationError, match="finite"):
            self._with_custom_law(CustomReintroduction(
                fn=lambda m, x: np.where(x == 1.0, np.nan, 0.3) + 0.0 * m,
                lipschitz_bound=0.3))


class TestModelParts:
    """A model part is one of the package's laws, which check themselves when
    built, once; ModelParams and FlowMap refuse any other object by its
    type's name, before anything is solved."""

    class LinearVelocity:
        def __call__(self, m):
            return np.asarray(m, dtype=float)

        def derivative(self, m):
            return np.ones(np.shape(m))

    class IdentityMap:                  # g(m) = m, not below m
        g1 = 0.5

        def __call__(self, m):
            return np.asarray(m, dtype=float)

    class NegativeRates:
        def validate(self):
            raise ConfigurationError("rates refused")

    class NegativeLaw:
        def rate(self, m, x):
            return np.full(np.broadcast_shapes(np.shape(m), np.shape(x)), -1.0)

    class Half:                         # g(m) = m / 2, as a map would give it
        g1 = 0.5

        def __call__(self, m):
            return 0.5 * np.asarray(m, dtype=float)

        def inverse(self, y):
            return np.minimum(2.0 * np.asarray(y, dtype=float), 1.0)

    class UniformKernel:
        tau_lower, tau_upper = 1.0, 2.0

        def k(self, m, a, g1):
            return np.where(np.asarray(m) >= g1, 0.0, 1.0) + 0.0 * np.asarray(a)

    @staticmethod
    def _params(**parts):
        return ModelParams(**{"velocity": PowerLawVelocity(alpha=1.0),
                              "maturity": LinearMaturityMap(c=0.5),
                              "rates": RateFunctions(delta=0.05, gamma=0.1),
                              "reintroduction": HillReintroduction(beta0=0.3),
                              "division": SeparableUniformKernel(tau_lower=1.0,
                                                                 tau_upper=2.0), **parts})

    @pytest.mark.parametrize("part, value, message", [
        ("velocity", LinearVelocity(), "PowerLawVelocity or a CustomVelocity, not LinearVelocity"),
        pytest.param("maturity", IdentityMap(),
                     "LinearMaturityMap or a CustomMaturityMap, not IdentityMap", id="maturity"),
        pytest.param("rates", NegativeRates(), "RateFunctions, not NegativeRates", id="rates"),
        pytest.param("reintroduction", NegativeLaw(), "HillReintroduction, a ConstantReintroduction "
                     "or a CustomReintroduction, not NegativeLaw", id="reintroduction"),
        pytest.param("division", UniformKernel(), "SeparableUniformKernel, a SeparableKernel or a "
                     "CustomDivisionKernel, not UniformKernel", id="division")])
    def test_other_objects_are_checked(self, part, value, message):
        with pytest.raises(ConfigurationError, match=f"^the {part} must be a {message}$") \
                as refusal:
            self._params(**{part: value})
        assert refusal.value.key == part

    def test_division_is_required(self):
        with pytest.raises(ConfigurationError, match="CustomDivisionKernel, not NoneType") \
                as refusal:
            ModelParams(velocity=PowerLawVelocity(alpha=1.0), maturity=LinearMaturityMap(c=0.5))
        assert refusal.value.key == "division"

    def test_duck_typed_map_is_refused_before_a_solve(self):
        # a well-behaved g = m/2 that is not a package law: it would run the
        # whole solve and fail only when the model describes itself
        with pytest.raises(ConfigurationError, match="not Half") as refusal:
            self._params(maturity=self.Half())
        assert refusal.value.key == "maturity"
        with pytest.raises(ConfigurationError, match="not Half"):
            FlowMap(PowerLawVelocity(alpha=1.0), self.Half())

    def test_package_parts_are_checked_once(self, monkeypatch):
        from hemaflow import params
        calls = []
        for name in ("validate_velocity", "validate_maturity_map", "probe_reintroduction"):
            check = getattr(params, name)
            monkeypatch.setattr(params, name, lambda part, _name=name, _check=check:
                                calls.append(_name) or _check(part))
        monkeypatch.setattr(RateFunctions, "validate", lambda self: calls.append("rates"))
        Kernels(self._params())
        assert sorted(calls) == ["probe_reintroduction", "rates", "validate_maturity_map",
                                 "validate_velocity"]


class TestModelDigest:
    """One description rule: a part is its class name and its declared
    numbers and strings, plus a hash of its values if a field is callable."""

    @staticmethod
    def _digest(**parts):
        return dataclasses.replace(reference_params(), **parts).digest()

    @staticmethod
    def _separable(density):
        return SeparableKernel(tau_lower=1.0, tau_upper=2.0, kappa=1.0, age_density=density)

    def test_callable_fields_are_told_apart_by_their_values(self):
        models = [
            {"division": self._separable(lambda a: 2.0 - a)},
            {"division": self._separable(lambda a: a - 1.0)},
            {"reintroduction": CustomReintroduction(fn=lambda m, x: 0.4 / (1.0 + x))},
            {"reintroduction": CustomReintroduction(fn=lambda m, x: 0.2 / (1.0 + x))},
            {"division": CustomDivisionKernel(1.0, 2.0, fn=lambda m, a: 1.0 + 0.0 * m * a)},
            {"division": CustomDivisionKernel(1.0, 2.0, fn=lambda m, a: 0.5 + 0.0 * m * a)},
            {"rates": RateFunctions(delta=lambda m: 0.05 + 0.0 * m, gamma=0.1)},
            {"rates": RateFunctions(delta=lambda m: 0.5 + 0.0 * m, gamma=0.1)},
        ]
        digests = [self._digest(**parts) for parts in models]
        assert len(set(digests)) == len(models)

    def test_equal_laws_built_twice_agree(self):
        def law():
            return {"division": self._separable(lambda a: 2.0 - a),
                    "reintroduction": CustomReintroduction(fn=lambda m, x: 0.4 / (1.0 + x),
                                                           lipschitz_bound=0.4)}
        assert self._digest(**law()) == self._digest(**law())

    def test_declared_numbers_alone_describe_a_numeric_part(self):
        law = CustomReintroduction(fn=lambda m, x: 0.4 / (1.0 + x))
        described = dataclasses.replace(reference_params(), reintroduction=law).describe()
        assert described["velocity"] == {"kind": "PowerLawVelocity", "alpha": 1.0, "p": 1.0}
        assert described["division"] == {"kind": "SeparableUniformKernel", "tau_lower": 1.0,
                                          "tau_upper": 2.0, "kappa": 1.0, "taper": 0.02}
        # fn, the callable, is described by the values hash alone
        assert described["reintroduction"]["kind"] == "CustomReintroduction"
        assert described["reintroduction"].keys() == {"kind", "name", "lipschitz_bound", "values"}


class TestInvarianceMargin:
    def test_zeta_inverts_maturities_once_per_call(self, monkeypatch):
        # the margin reads zeta twice, on its scan grid and on the refined
        # patch, each with many distinct ages
        calls = []
        inverse = LinearMaturityMap.inverse
        monkeypatch.setattr(LinearMaturityMap, "inverse",
                            lambda self, y: calls.append(1) or inverse(self, y))
        Kernels(reference_params()).invariance_margin()
        assert len(calls) == 2

    def test_no_reintroduction_always_satisfied(self):
        kern = Kernels(reference_params(beta_form="constant", beta0=0.0))
        margin = kern.invariance_margin()
        assert margin.l == 0.0 and margin.lhs == 0.0
        assert margin.verifiable and margin.satisfied

    def test_constant_decay_floor(self):
        kern = Kernels(reference_params(delta=0.7))
        margin = kern.invariance_margin()
        assert margin.I == pytest.approx(1.7, rel=1e-12)

    def test_no_division_collapses_to_l_vs_I(self):
        kern = Kernels(reference_params(kappa=0.0, beta0=0.2, delta=0.8))
        margin = kern.invariance_margin()
        assert margin.zeta_tilde == 0.0
        assert margin.lhs == pytest.approx(margin.l, rel=1e-12)
        assert margin.satisfied

    def test_reference_zeta_sup(self):
        # age-uniform kernel, gamma = 0: zeta = kappa_tapered/(span) * e^-a,
        # maximized at a = tau_lower before the taper bites
        kern = Kernels(reference_params(gamma=0.0, delta=1.2, beta0=0.2))
        margin = kern.invariance_margin()
        assert margin.zeta_tilde == pytest.approx(np.exp(-1.0), rel=1e-6)
        assert margin.lhs == pytest.approx(0.2 * (2.0 * np.exp(-1.0) + 1.0), rel=1e-6)
        assert margin.satisfied

    def test_nonpositive_floor_unverifiable(self):
        vel = CustomVelocity(V=lambda m: m * (1.05 - m),
                             V_prime=lambda m: 1.05 - 2.0 * m)
        par = ModelParams(
            velocity=vel, maturity=LinearMaturityMap(c=0.7),
            rates=RateFunctions(delta=0.0, gamma=0.0),
            reintroduction=HillReintroduction(beta0=0.1),
            division=SeparableUniformKernel(tau_lower=1.0, tau_upper=2.0))
        margin = Kernels(par).invariance_margin()
        assert not margin.verifiable
        assert not margin.satisfied
        assert "unverifiable" in margin.note


def _tabulated_velocity_params():
    from hemaflow.cli import build_params
    m = [i / 16 for i in range(17)]
    return build_params({"model": {
        "velocity": {"table": {"m": m, "V": [v + 0.5 * v * v for v in m]}},
        "g": {"c": 0.5}, "delta": 0.05, "gamma": 0.1,
        "beta": {"form": "hill", "beta0": 0.3, "theta": 1.0, "n": 1.0},
        "k": {"form": "uniform", "kappa": 1.0, "taper": 0.02},
        "tau_lower": 1.0, "tau_upper": 2.0}})


class TestScanMax:
    """``scan_max`` gives the bits of the scan-and-polish it replaced, written
    out here as the two callers had it."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_max_field_on_seeded_polynomials(self, seed):
        # a seeded cubic about -(m - c)^2, whose maximum lies inside [0, 0.5]
        rng = np.random.default_rng(seed)
        c = rng.uniform(0.1, 0.4)
        coeffs = rng.normal(scale=0.1, size=4) + np.array([0.0, -1.0, 2.0 * c, -c * c])
        f = as_field(lambda m: np.polyval(coeffs, m))
        m = np.linspace(0.0, 0.5, 2049)
        vals = f(m)
        j = int(np.argmax(vals))
        polished = golden_section_max(lambda v: float(f(v)), m[max(j - 1, 0)],
                                      m[min(j + 1, m.size - 1)], max_iter=80, tol=1e-13)
        assert _max_field(f, 0.0, 0.5) == max(float(np.max(vals)), polished)

    @pytest.mark.parametrize("params", [
        lambda: reference_params(),
        _tabulated_velocity_params,
        lambda: reference_params(p=2.0),
        lambda: reference_params(p=2.0, delta=lambda m: 1.5 * (0.4 - m) ** 2),
    ], ids=["reference", "tabulated-V", "p=2", "p=2-interior-min"])
    def test_decay_floor(self, params):
        kern = Kernels(params())
        m = np.linspace(0.0, kern.flow.g1, 257)
        vals = kern.psi_resting(m)
        j = int(np.argmin(vals))
        polished = -golden_section_max(
            lambda v: -float(kern.psi_resting(np.array([v]))[0]),
            m[max(j - 1, 0)], m[min(j + 1, m.size - 1)], max_iter=80, tol=0.0)
        assert kern.invariance_margin().I == min(float(np.min(vals)), polished)


class TestDecayTable:
    def test_matches_direct_quadrature(self):
        par = reference_params(delta=lambda m: 0.1 + 0.5 * m ** 2,
                               gamma=lambda m: 0.2 * (1.0 + np.sin(2.0 * m) ** 2))
        kern = Kernels(par)
        table_r = kern.decay_table("resting", -25.0)
        table_g = kern.decay_table("proliferating", -25.0)
        xs = np.linspace(0.0, 0.5, 11)
        ms = kern.flow.h_inv(xs)
        for t in (0.3, 1.9, 6.0):
            direct_r = np.array([K(kern, t, m) for m in ms])
            direct_g = np.array([kern.xi(m, t) for m in ms])
            assert np.max(np.abs(table_r.survival(xs, t) - direct_r)) < 1e-10
            assert np.max(np.abs(table_g.survival(xs, t) - direct_g)) < 1e-10

    def test_exact_multiplicativity(self):
        kern = Kernels(reference_params(delta=lambda m: 0.3 + m))
        table = kern.decay_table("resting", -25.0)
        x = np.array([0.31])
        t, sig = 1.3, 0.8
        lhs = table.survival(x, t + sig)
        rhs = table.survival(x, sig) * table.survival(x * np.exp(-sig), t)
        assert lhs == pytest.approx(rhs, rel=1e-14)
