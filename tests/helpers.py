"""Shared model builders for the test suite.

Each builder returns (model, space, theta) for one family used across
many tests.  Kept here so every test file exercises the same objects.
"""

import math

import numpy as np

from signoise import (
    ConstantFn,
    CosineFn,
    GeneralNoise,
    GeneralSignal,
    KnownNoise,
    LinearSignal,
    ModelSpec,
    ParameterSpace,
    PeriodicStepFn,
    Profile,
    ScaledNoise,
    Theta,
    constant_profile,
)


def mean_model():
    """f(a, t) = a, unit known noise: the exactly-Gaussian family."""
    model = ModelSpec(
        LinearSignal((ConstantFn(),)), KnownNoise(constant_profile(1.0))
    )
    space = ParameterSpace(((0.0, 2.0),), ())
    theta = Theta(np.array([1.0]), np.zeros(0))
    return model, space, theta


def trig_known_model():
    """Linear drift on basis (1, cos 2 pi t), unit known noise."""
    model = ModelSpec(
        LinearSignal((ConstantFn(), CosineFn(1.0))),
        KnownNoise(constant_profile(1.0)),
    )
    space = ParameterSpace(((-3.0, 3.0), (-3.0, 3.0)), ())
    theta = Theta(np.array([1.0, 0.5]), np.zeros(0))
    return model, space, theta


def trig_scaled_model():
    """Same trig drift with an unknown noise scale (d = 3)."""
    model = ModelSpec(
        LinearSignal((ConstantFn(), CosineFn(1.0))),
        ScaledNoise(constant_profile(1.0)),
    )
    space = ParameterSpace(((-3.0, 3.0), (-3.0, 3.0)), ((0.1, 4.0),))
    theta = Theta(np.array([1.0, 0.5]), np.array([1.0]))
    return model, space, theta


def _curved_value(a, t):
    return math.sin(a[0]) * math.cos(t)


def _curved_grad(a, t):
    return np.array([math.cos(a[0]) * math.cos(t)])


def _curved_integral(a, lo, hi):
    return math.sin(a[0]) * (math.sin(hi) - math.sin(lo))


def _curved_grad_integral(a, lo, hi):
    return np.array([math.cos(a[0]) * (math.sin(hi) - math.sin(lo))])


def _curved_s2(b, t):
    return math.exp(b[0]) * (2.0 + math.sin(t))


def _curved_s2_grad(b, t):
    return np.array([_curved_s2(b, t)])


def _curved_s2_integral(b, lo, hi):
    return math.exp(b[0]) * (2.0 * (hi - lo) + math.cos(lo) - math.cos(hi))


def _curved_s2_grad_integral(b, lo, hi):
    return np.array([_curved_s2_integral(b, lo, hi)])


def curved_model():
    """General closures: f = sin(a) cos(t), sigma2 = exp(b) (2 + sin t).

    Both carry exact antiderivatives so the cache takes the closed-form
    route; dropping them forces quadrature.  The callables are module
    functions, so the model pickles.
    """
    signal = GeneralSignal(1, _curved_value, _curved_grad, _curved_integral, _curved_grad_integral)
    noise = GeneralNoise(
        1, _curved_s2, _curved_s2_grad, _curved_s2_integral, _curved_s2_grad_integral
    )
    model = ModelSpec(signal, noise)
    space = ParameterSpace(((-1.2, 1.2),), ((-1.0, 1.0),))
    theta = Theta(np.array([0.3]), np.array([0.2]))
    return model, space, theta


def steps_model():
    """Step drift (four cells of period 1) and a scaled step noise weight, d = 3.

    The noise weight's three cells of width 0.7/3 are not dyadic, so its
    edges fall between the drift's.  Both take the closed-form route.
    """
    model = ModelSpec(
        LinearSignal((ConstantFn(), PeriodicStepFn((1.0, -0.5, 0.25, 0.8), 1.0))),
        ScaledNoise(
            Profile(offset=0.6, coefs=(0.5,), atoms=(PeriodicStepFn((0.2, 1.0, 0.5), 0.7),))
        ),
    )
    space = ParameterSpace(((-3.0, 3.0), (-3.0, 3.0)), ((0.1, 4.0),))
    theta = Theta(np.array([0.7, -0.4]), np.array([1.2]))
    return model, space, theta


def sample_interior(space, rng, shrink=0.1):
    """Draw a Theta uniformly from the box shrunk by ``shrink`` per side."""
    lo = space.lower + shrink * space.widths
    hi = space.upper - shrink * space.widths
    return Theta.from_vector(rng.uniform(lo, hi), space.p)


TRIG_KNOWN_CONFIG = {
    "signal": {"kind": "linear", "basis": [{"kind": "const"}, {"kind": "cos", "freq": 1.0}]},
    "noise": {"kind": "known", "profile": {"kind": "const", "value": 1.0}},
}

TRIG_SCALED_CONFIG = {
    "signal": {"kind": "linear", "basis": [{"kind": "const"}, {"kind": "cos", "freq": 1.0}]},
    "noise": {"kind": "scaled", "profile": {"kind": "const", "value": 1.0}},
}

MEAN_CONFIG = {
    "signal": {"kind": "linear", "basis": [{"kind": "const"}]},
    "noise": {"kind": "known", "profile": {"kind": "const", "value": 1.0}},
}
