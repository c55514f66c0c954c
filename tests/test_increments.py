import numpy as np
import pytest

from signoise import (
    ConstantFn,
    CosineFn,
    EvaluationError,
    GeneralNoise,
    GeneralSignal,
    KnownNoise,
    LinearSignal,
    ModelSpec,
    MomentCache,
    NoiseFloorViolation,
    QuadratureError,
    ScaledNoise,
    Theta,
    constant_profile,
    grid_from_instants,
    uniform_grid,
)

from helpers import (
    curved_model,
    sample_interior,
    steps_model,
    trig_known_model,
    trig_scaled_model,
)


def _mean_model():
    signal = LinearSignal((ConstantFn(),))
    noise = KnownNoise(constant_profile(1.0))
    return ModelSpec(signal, noise)


def test_constant_drift_unit_noise_moments():
    model = _mean_model()
    grid = uniform_grid(4, 0.5)
    cache = MomentCache(model, grid)
    m = cache.moments(Theta((2.0,), ()))
    assert np.allclose(m.mean, 1.0, atol=0.0)  # alpha * h = 2 * 0.5
    assert np.allclose(m.var, 0.5, atol=0.0)
    assert np.allclose(m.grad_mean, 0.5, atol=0.0)
    assert m.grad_var.shape == (4, 0)


def test_cosine_drift_integrals():
    signal = LinearSignal((CosineFn(1.0),))
    model = ModelSpec(signal, KnownNoise(constant_profile(1.0)))
    alpha = 0.7

    # one increment covering a half period integrates to zero
    half = grid_from_instants([0.0, 0.5])
    m = MomentCache(model, half).moments(Theta((alpha,), ()))
    assert m.mean[0] == pytest.approx(0.0, abs=1e-15)

    # quarter period: alpha * sin(pi/2) / (2 pi)
    quarter = grid_from_instants([0.0, 0.25])
    m = MomentCache(model, quarter).moments(Theta((alpha,), ()))
    assert m.mean[0] == pytest.approx(alpha / (2.0 * np.pi), rel=1e-12)


def test_quadrature_matches_closed_form_cosine():
    signal = LinearSignal((ConstantFn(), CosineFn(1.0)))
    grid = grid_from_instants([0.0, 0.13, 0.5, 0.77, 1.9])
    theta = Theta((0.4, -1.1), ())
    closed = MomentCache(ModelSpec(signal, KnownNoise(constant_profile(1.0))), grid)
    forced = MomentCache(
        ModelSpec(signal, KnownNoise(constant_profile(1.0))), grid, force_quadrature=True
    )
    a = closed.moments(theta)
    b = forced.moments(theta)
    assert np.allclose(a.mean, b.mean, atol=1e-10)
    assert np.allclose(a.grad_mean, b.grad_mean, atol=1e-10)


def test_scaled_noise_log_moments():
    model = ModelSpec(LinearSignal((ConstantFn(),)), ScaledNoise(constant_profile(1.0)))
    grid = uniform_grid(1, 0.5)
    m = MomentCache(model, grid).moments(Theta((0.0,), (2.0,)))
    assert m.var[0] == pytest.approx(1.0, abs=0.0)
    log_var, grad_log = np.log(m.var), m.grad_var / m.var[:, None]
    assert log_var[0] == pytest.approx(0.0, abs=1e-15)
    assert grad_log[0, 0] == pytest.approx(0.5, rel=1e-14)


def test_scaled_noise_log_gradient_is_inverse_scale():
    model = ModelSpec(LinearSignal((ConstantFn(),)), ScaledNoise(constant_profile(1.0)))
    rng = np.random.default_rng(5)
    for _ in range(20):
        beta = float(rng.uniform(0.2, 4.0))
        delays = rng.uniform(0.05, 1.5, 6)
        grid = grid_from_instants(np.concatenate(([0.0], np.cumsum(delays))))
        m = MomentCache(model, grid).moments(Theta((0.0,), (beta,)))
        grad_log = m.grad_var / m.var[:, None]
        assert np.allclose(grad_log, 1.0 / beta, rtol=1e-12)


def test_general_noise_matches_finite_differences():
    def var_fn(beta, t):
        return 2.0 + beta[0] * float(np.sin(t))

    def grad_fn(beta, t):
        return np.array([float(np.sin(t))])

    noise = GeneralNoise(1, var_fn, grad_fn)
    model = ModelSpec(LinearSignal((ConstantFn(),)), noise)
    grid = grid_from_instants([0.0, 1.0])
    cache = MomentCache(model, grid)
    beta = 0.7
    h = 1e-6
    up = cache.moments(Theta((0.0,), (beta + h,))).var[0]
    down = cache.moments(Theta((0.0,), (beta - h,))).var[0]
    fd = (up - down) / (2.0 * h)
    got = cache.moments(Theta((0.0,), (beta,))).grad_var[0, 0]
    assert got == pytest.approx(fd, abs=1e-8)


def test_dual_route_property_over_families():
    rng = np.random.default_rng(41)
    # the step family's forced route integrates between its declared jumps
    for build in (trig_known_model, trig_scaled_model, curved_model, steps_model):
        model, space, _ = build()
        # ten short-interval grids, then one with delays up to 5 (most of a 2 pi period)
        for top in (0.9,) * 10 + (5.0,):
            theta = sample_interior(space, rng)
            delays = rng.uniform(0.05, top, 8)
            grid = grid_from_instants(np.concatenate(([0.0], np.cumsum(delays))))
            fast = MomentCache(model, grid).moments(theta)
            slow = MomentCache(model, grid, force_quadrature=True).moments(theta)
            for name in ("mean", "var", "grad_mean", "grad_var"):
                x, y = getattr(fast, name), getattr(slow, name)
                assert np.all(np.abs(x - y) < 1e-9 * (1.0 + np.abs(x))), (name, top)


def test_split_increment_additivity():
    model, space, theta = curved_model()
    whole = grid_from_instants([0.0, 1.3])
    split = grid_from_instants([0.0, 0.45, 1.3])
    mw = MomentCache(model, whole).moments(theta)
    ms = MomentCache(model, split).moments(theta)
    assert mw.mean[0] == pytest.approx(ms.mean.sum(), abs=1e-12)
    assert mw.var[0] == pytest.approx(ms.var.sum(), abs=1e-12)
    assert np.allclose(mw.grad_mean[0], ms.grad_mean.sum(axis=0), atol=1e-12)
    assert np.allclose(mw.grad_var[0], ms.grad_var.sum(axis=0), atol=1e-12)


def _singular(t):
    return 1.0 / abs(t - 2.4321)  # not integrable across t = 2.4321


def _nan_at_midpoint(t):
    return float("nan") if t == 2.5 else 1.0  # the Kronrod centre node of interval 2


@pytest.mark.parametrize("rate", [_singular, _nan_at_midpoint], ids=["singular", "nan"])
@pytest.mark.parametrize("block", ["drift", "variance"])
def test_quadrature_failure_names_block_and_interval(block, rate):
    grid = grid_from_instants([0.0, 1.0, 2.0, 3.0, 4.0])
    if block == "drift":
        signal = GeneralSignal(1, lambda a, t: a[0] * rate(t), lambda a, t: np.array([rate(t)]))
        model = ModelSpec(signal, KnownNoise(constant_profile(1.0)))
        theta = Theta((1.0,), ())
    else:
        noise = GeneralNoise(
            1, lambda b, t: b[0] * (1.0 + rate(t)), lambda b, t: np.array([1.0 + rate(t)])
        )
        model = ModelSpec(LinearSignal((ConstantFn(),)), noise)
        theta = Theta((0.0,), (1.0,))
    message = rf"{block} moment: interval 2: .* on \[2\.0, 3\.0\]"
    with pytest.raises(QuadratureError, match=message):
        MomentCache(model, grid).moments(theta)


@pytest.mark.parametrize("block", ["drift", "variance"])
def test_wrong_gradient_size_names_expected_size(block):
    def bad_grad(params, t):
        return np.zeros(2)  # one parameter, two gradient entries

    if block == "drift":
        model = ModelSpec(
            GeneralSignal(1, lambda a, t: a[0], bad_grad), KnownNoise(constant_profile(1.0))
        )
        theta = Theta((1.0,), ())
    else:
        noise = GeneralNoise(1, lambda b, t: b[0], bad_grad)
        model = ModelSpec(LinearSignal((ConstantFn(),)), noise)
        theta = Theta((0.0,), (1.0,))
    message = rf"{block} gradient has size 2, expected 1"
    with pytest.raises(EvaluationError, match=message):
        model.rates(theta, [0.5])
    cache = MomentCache(model, uniform_grid(3, 0.5), force_quadrature=True)
    with pytest.raises(EvaluationError, match=message):
        cache.moments(theta)

    # closure route: exact integrals whose gradient has the wrong size on
    # every interval, or only from interval 2 on
    def integral(params, a, b):
        return params[0] * (b - a)

    def grad_everywhere(params, a, b):
        return np.zeros(2)

    def grad_from_interval_2(params, a, b):
        return np.zeros(1 if a < 1.0 else 3)

    cases = [
        (grad_everywhere, r"size 2, expected 1: interval 0 on \[0\.0, 0\.5\]"),
        (grad_from_interval_2, r"size 3, expected 1: interval 2 on \[1\.0, 1\.5\]"),
    ]
    for grad_integral, detail in cases:
        if block == "drift":
            family = GeneralSignal(1, lambda a, t: a[0], bad_grad, integral, grad_integral)
            model = ModelSpec(family, KnownNoise(constant_profile(1.0)))
        else:
            family = GeneralNoise(1, lambda b, t: b[0], bad_grad, integral, grad_integral)
            model = ModelSpec(LinearSignal((ConstantFn(),)), family)
        cache = MomentCache(model, uniform_grid(4, 0.5))
        with pytest.raises(EvaluationError, match=rf"{block} gradient has {detail}"):
            cache.moments(theta)


def test_noise_floor_violation_raised():
    def var_fn(beta, t):
        return 0.0

    def grad_fn(beta, t):
        return np.zeros(0)

    model = ModelSpec(LinearSignal((ConstantFn(),)), GeneralNoise(0, var_fn, grad_fn))
    cache = MomentCache(model, uniform_grid(3, 0.5))
    with pytest.raises(NoiseFloorViolation):
        cache.moments(Theta((1.0,), ()))


def test_basis_integrals_reused_across_theta():
    model, _, _ = trig_known_model()
    grid = uniform_grid(16, 0.25)
    cache = MomentCache(model, grid)
    b = cache.signal_basis_integrals()
    assert b.shape == (16, 2)
    m1 = cache.moments(Theta((1.0, 0.0), ()))
    m2 = cache.moments(Theta((0.0, 1.0), ()))
    assert np.allclose(m1.mean, b[:, 0], atol=0.0)
    assert np.allclose(m2.mean, b[:, 1], atol=0.0)
