import math

import numpy as np
import pytest

from signoise import (
    ConfigError,
    ConstantFn,
    CosineFn,
    DomainError,
    EvaluationError,
    GeneralNoise,
    KnownNoise,
    LinearSignal,
    ModelSpec,
    MomentCache,
    NoiseFloorViolation,
    ParameterSpace,
    PeriodicStepFn,
    Profile,
    ScaledNoise,
    SineFn,
    Theta,
    constant_profile,
    grid_from_instants,
)
from signoise.config import build_model, build_profile

from helpers import curved_model, mean_model, trig_known_model, trig_scaled_model


def _drift(model, th, t):
    """Checked drift row at one time: the value, then its gradient in alpha."""
    return model.rates(th, [t])[0][0]


def _noise(model, th, t):
    """Checked variance row at one time: the rate, then its gradient in beta."""
    return model.rates(th, [t])[1][0]


def test_linear_signal_values():
    model, _, _ = trig_known_model()
    th = Theta(np.array([1.0, 2.0]), np.zeros(0))
    drift, _ = model.rates(th, [0.0, 0.25])
    assert drift[:, 0] == pytest.approx([3.0, 1.0], abs=1e-15)
    zero = Theta(np.zeros(2), np.zeros(0))
    drift, _ = model.rates(zero, [0.0, 0.3, 1.7, 12.5])
    assert np.all(drift[:, 0] == 0.0)


def test_linear_signal_gradient_is_basis():
    model, _, _ = trig_known_model()
    for alpha in (np.array([1.0, 2.0]), np.array([-0.4, 0.9])):
        th = Theta(alpha, np.zeros(0))
        drift, _ = model.rates(th, [0.0, 0.25])
        assert np.allclose(drift[:, 1:], [[1.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_linear_signal_exact_linearity():
    model, _, _ = trig_known_model()
    rng = np.random.default_rng(3)
    for _ in range(50):
        a1 = rng.normal(size=2)
        a2 = rng.normal(size=2)
        ca, cb = rng.normal(size=2)
        t = rng.uniform(0.0, 5.0)
        combo = _drift(model, Theta(ca * a1 + cb * a2, np.zeros(0)), t)[0]
        parts = (
            ca * _drift(model, Theta(a1, np.zeros(0)), t)[0]
            + cb * _drift(model, Theta(a2, np.zeros(0)), t)[0]
        )
        assert combo == pytest.approx(parts, rel=1e-14, abs=1e-14)


def test_curved_signal_gradient_matches_finite_differences():
    model, _, _ = curved_model()
    a, t = 0.3, 1.7
    h = 1e-6
    fd = (
        _drift(model, Theta(np.array([a + h]), np.array([0.2])), t)[0]
        - _drift(model, Theta(np.array([a - h]), np.array([0.2])), t)[0]
    ) / (2.0 * h)
    g = _drift(model, Theta(np.array([a]), np.array([0.2])), t)[1:]
    assert abs(g[0] - fd) / abs(fd) < 1e-6


def test_scaled_noise_values_and_derivatives():
    model = ModelSpec(LinearSignal((ConstantFn(),)), ScaledNoise(constant_profile(1.0)))
    th = Theta(np.array([0.0]), np.array([2.0]))
    _, noise = model.rates(th, [0.0, 0.7, 3.2])
    assert noise[:, 0] == pytest.approx([2.0] * 3, abs=1e-15)
    assert np.allclose(noise[:, 1:], 1.0, atol=1e-15)


def test_trig_profile_noise_value():
    # sigma0^2(t) = 2 + cos(2 pi t), beta = 1, t = 0.5 -> 2 - 1 = 1
    profile = Profile(offset=2.0, coefs=(1.0,), atoms=(CosineFn(1.0),))
    model = ModelSpec(LinearSignal((ConstantFn(),)), ScaledNoise(profile))
    th = Theta(np.array([0.0]), np.array([1.0]))
    assert _noise(model, th, 0.5)[0] == pytest.approx(1.0, abs=1e-14)


def test_curved_noise_gradient_matches_finite_differences():
    model, _, _ = curved_model()
    b, t = 0.2, 1.1
    h = 1e-6
    fd = (
        _noise(model, Theta(np.array([0.3]), np.array([b + h])), t)[0]
        - _noise(model, Theta(np.array([0.3]), np.array([b - h])), t)[0]
    ) / (2.0 * h)
    g = _noise(model, Theta(np.array([0.3]), np.array([b])), t)[1:]
    assert abs(g[0] - fd) / abs(fd) < 1e-6


def test_noise_floor_violation_raised():
    model = ModelSpec(LinearSignal((ConstantFn(),)), KnownNoise(constant_profile(0.0)))
    th = Theta(np.array([0.0]), np.zeros(0))
    with pytest.raises(NoiseFloorViolation, match=r"at t=1\.0 is at or below the floor"):
        model.rates(th, [1.0])


def test_builtin_gradients_match_finite_differences_at_random_points():
    rng = np.random.default_rng(11)
    h = 2e-6
    for builder in (trig_known_model, trig_scaled_model, curved_model):
        model, space, _ = builder()
        lo = space.lower + 0.05 * space.widths
        hi = space.upper - 0.05 * space.widths
        for _ in range(100):
            vec = rng.uniform(lo, hi)
            th = Theta(vec[: model.p], vec[model.p :])
            t = rng.uniform(0.0, 4.0)
            g = _drift(model, th, t)[1:]
            for k in range(model.p):
                e = np.zeros(model.d)
                e[k] = h
                up = Theta(vec[: model.p] + e[: model.p], vec[model.p :])
                dn = Theta(vec[: model.p] - e[: model.p], vec[model.p :])
                fd = (_drift(model, up, t)[0] - _drift(model, dn, t)[0]) / (2 * h)
                assert abs(g[k] - fd) <= 1e-6 * max(1.0, abs(fd))
            gv = _noise(model, th, t)[1:]
            for k in range(model.q):
                bp = vec[model.p :].copy()
                bm = vec[model.p :].copy()
                bp[k] += h
                bm[k] -= h
                fd = (
                    _noise(model, Theta(vec[: model.p], bp), t)[0]
                    - _noise(model, Theta(vec[: model.p], bm), t)[0]
                ) / (2 * h)
                assert abs(gv[k] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_periodic_step_function_values_and_integral():
    atom = PeriodicStepFn((1.0, 3.0), 1.0)
    # levels hold on [0, 0.5) and [0.5, 1), repeating with period 1
    assert atom(0.1) == 1.0
    assert atom(0.6) == 3.0
    assert atom(1.1) == 1.0
    assert atom.integral(0.0, 1.0) == pytest.approx(2.0, abs=1e-14)
    assert atom.integral(0.25, 0.75) == pytest.approx(0.25 * 1.0 + 0.25 * 3.0, abs=1e-14)
    assert atom.integral(0.0, 2.5) == pytest.approx(2.0 * 2.0 + 0.5, abs=1e-13)


def test_sine_atom_and_profile_integral():
    prof = Profile(offset=2.0, coefs=(0.5,), atoms=(SineFn(1.0),))
    val = prof(0.125)
    assert val == pytest.approx(2.0 + 0.5 * math.sin(2.0 * math.pi * 0.125), abs=1e-14)
    exact = 2.0 * 0.5 + 0.5 * (1.0 - math.cos(math.pi)) / (2.0 * math.pi)
    assert prof.integral(0.0, 0.5) == pytest.approx(exact, abs=1e-14)


def test_theta_vector_round_trip_and_immutability():
    th = Theta(np.array([1.0, 2.0]), np.array([3.0]))
    back = Theta.from_vector(th.vector, 2)
    assert np.array_equal(th.alpha, back.alpha) and np.array_equal(th.beta, back.beta)
    with pytest.raises(ValueError):
        th.alpha[0] = 9.0


def test_parameter_space_contains_and_margin():
    space = ParameterSpace(((0.0, 2.0),), ((0.5, 1.5),))
    inside = Theta(np.array([1.0]), np.array([1.0]))
    edge = Theta(np.array([0.005]), np.array([1.0]))
    outside = Theta(np.array([-0.1]), np.array([1.0]))
    assert space.contains(inside)
    assert space.contains(edge)
    assert not space.contains(outside)
    # the interior bounds sit 1e-9 x the narrowest width (1.0) inside the box
    lo, hi = space.interior_bounds
    assert np.array_equal(lo, space.lower + 1e-9)
    assert np.array_equal(hi, space.upper - 1e-9)
    assert space.contains(Theta.from_vector(lo, 1)) and space.contains(Theta.from_vector(hi, 1))


def test_parameter_space_rejects_bad_boxes():
    with pytest.raises(DomainError):
        ParameterSpace(((1.0, 1.0),), ())
    with pytest.raises(DomainError):
        ParameterSpace((), ())


def test_evaluation_error_mentions_time():
    signal = LinearSignal((ConstantFn(),))
    noise = GeneralNoise(
        q=1,
        value_fn=lambda b, t: float("nan"),
        grad_fn=lambda b, t: np.array([1.0]),
    )
    model = ModelSpec(signal, noise)
    th = Theta(np.array([0.0]), np.array([1.0]))
    with pytest.raises(EvaluationError, match=r"t=2\.5"):
        model.rates(th, [2.5])


def test_mean_model_dimensions():
    model, space, theta = mean_model()
    assert (model.p, model.q, model.d) == (1, 0, 1)
    assert space.contains(theta)


# one config dict of each basis-atom and profile kind, and the library object it names
_ATOM_KINDS = {
    "const": ({"kind": "const"}, ConstantFn()),
    "cos": ({"kind": "cos", "freq": 0.7, "phase": 0.3}, CosineFn(0.7, 0.3)),
    "sin": ({"kind": "sin", "freq": 1.3}, SineFn(1.3)),
    "steps": ({"kind": "steps", "levels": [1.0, -0.5, 2], "period": 0.9},
              PeriodicStepFn((1.0, -0.5, 2.0), 0.9)),
}
_PROFILE_KINDS = {
    "const": ({"kind": "const", "value": 1.5}, constant_profile(1.5)),
    "trig": (
        {"kind": "trig", "offset": 2.0,
         "terms": [{"amp": 0.5, "freq": 1.0}, {"amp": -0.3, "freq": 0.4, "phase": 1.1}]},
        Profile(2.0, (0.5, -0.3), (CosineFn(1.0), CosineFn(0.4, 1.1))),
    ),
    "steps": ({"kind": "steps", "levels": [0.5, 2.0, 1.0], "period": 0.7},
              Profile(0.0, (1.0,), (PeriodicStepFn((0.5, 2.0, 1.0), 0.7),))),
}


@pytest.mark.parametrize(
    "atom, profile",
    [(a, "const") for a in _ATOM_KINDS] + [("const", p) for p in _PROFILE_KINDS if p != "const"],
)
def test_every_config_kind_builds_its_library_object(atom, profile):
    atom_cfg, atom_obj = _ATOM_KINDS[atom]
    profile_cfg, profile_obj = _PROFILE_KINDS[profile]
    cfg = {
        "signal": {"kind": "linear", "basis": [{"kind": "const"}, atom_cfg]},
        "noise": {"kind": "scaled", "profile": profile_cfg},
    }
    model = build_model(cfg)
    assert model == ModelSpec(LinearSignal((ConstantFn(), atom_obj)), ScaledNoise(profile_obj))
    # the closed moments agree with quadrature on uneven intervals, as every family's do
    delays = np.random.default_rng(47).uniform(0.05, 0.9, 12)
    grid = grid_from_instants(np.concatenate(([0.0], np.cumsum(delays))))
    theta = Theta(np.array([0.4, -0.8]), np.array([1.3]))
    fast = MomentCache(model, grid).moments(theta)
    slow = MomentCache(model, grid, force_quadrature=True).moments(theta)
    for name in ("mean", "var", "grad_mean", "grad_var"):
        x, y = getattr(fast, name), getattr(slow, name)
        assert np.all(np.abs(x - y) < 1e-9 * (1.0 + np.abs(x))), name


@pytest.mark.parametrize(
    "terms, key", [("x", "terms"), ([{"amp": 1.0, "freq": 1.0}, {"amp": 0.5}], "freq")]
)
def test_trig_profile_terms_are_read_strictly(terms, key):
    with pytest.raises(ConfigError) as info:
        build_profile({"kind": "trig", "offset": 1.0, "terms": terms})
    assert info.value.key == key and f"(key: {key!r})" in str(info.value)
