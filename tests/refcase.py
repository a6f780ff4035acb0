"""Shared model constructors for the test suite."""

import numpy as np

from hemaflow import (ConstantReintroduction, CustomReintroduction,
                      CustomVelocity, HillReintroduction, LinearMaturityMap,
                      ModelParams, PowerLawVelocity, RateFunctions,
                      SeparableUniformKernel)

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
