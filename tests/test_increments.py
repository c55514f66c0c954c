import pickle
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
import pytest

from signoise import increments
from signoise import (
    ConstantFn,
    CosineFn,
    EvaluationError,
    GeneralNoise,
    GeneralSignal,
    IncrementMoments,
    KnownNoise,
    LinearSignal,
    ModelSpec,
    MomentCache,
    NoiseFloorViolation,
    Profile,
    QuadratureError,
    ScaledNoise,
    Theta,
    constant_profile,
    expected_power_identity,
    grid_from_delays,
    grid_from_instants,
    local_expansion,
    mle_numeric,
    posterior_mean_quadrature,
    quantile_grid,
    simulate_batch,
    simulate_increments,
    uniform_grid,
)
from signoise.estimate import _make_batch_loglik

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


def test_closed_routes_share_the_cache_arrays_read_only():
    grid = uniform_grid(50, 0.2)
    model, _, theta = trig_scaled_model()
    cache = MomentCache(model, grid)
    scaled = cache.moments(theta)
    g = cache.noise_profile_integrals()
    assert np.shares_memory(scaled.grad_var, g) and np.array_equal(scaled.grad_var[:, 0], g)
    assert np.array_equal(scaled.var, theta.beta[0] * g)
    assert scaled.grad_mean is cache.signal_basis_integrals()
    model, _, theta = trig_known_model()
    cache = MomentCache(model, grid)
    known = cache.moments(theta)
    assert known.var is cache.noise_profile_integrals()
    assert cache.moments(theta).var is known.var
    for arr in (scaled.grad_var, scaled.grad_mean, g, known.var):
        with pytest.raises(ValueError):
            arr[0] = 1.0


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


def test_general_step_rates_that_declare_jumps_match_their_closed_form():
    # steps_model's rates as general families: quadrature sees their jumps
    # only through jumps_fn, and without it misses by up to 6.3e-4 of 1 + |x| here
    model, space, _ = steps_model()
    step, weight = model.signal.basis[1], model.noise.profile
    general = ModelSpec(
        GeneralSignal(
            2,
            lambda a, t: a[0] + a[1] * step(t),
            lambda a, t: np.array([1.0, step(t)]),
            jumps_fn=step.jumps,
        ),
        GeneralNoise(
            1,
            lambda b, t: b[0] * weight(t),
            lambda b, t: np.array([weight(t)]),
            jumps_fn=weight.jumps,
        ),
    )
    rng = np.random.default_rng(43)
    for _ in range(5):
        theta = sample_interior(space, rng)
        delays = rng.uniform(0.05, 0.9, 50)
        grid = grid_from_instants(np.concatenate(([0.0], np.cumsum(delays))))
        closed = MomentCache(model, grid).moments(theta)
        forced = MomentCache(general, grid, force_quadrature=True).moments(theta)
        for name in ("mean", "var", "grad_mean", "grad_var"):
            x, y = getattr(closed, name), getattr(forced, name)
            assert np.all(np.abs(x - y) < 1e-9 * (1.0 + np.abs(x))), name


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
    cache = MomentCache(model, grid)
    with pytest.raises(QuadratureError, match=message) as first:
        cache.moments(theta)
    with pytest.raises(QuadratureError) as again:  # a failed evaluation is not kept
        cache.moments(theta)
    assert str(again.value) == str(first.value)


@pytest.mark.parametrize("block", ["drift", "variance"])
def test_wrong_gradient_size_names_expected_size(block):
    def general(value, grad, integral=None, grad_integral=None):
        if block == "drift":
            family = GeneralSignal(1, value, grad, integral, grad_integral)
            return ModelSpec(family, KnownNoise(constant_profile(1.0))), Theta((1.0,), ())
        family = GeneralNoise(1, value, grad, integral, grad_integral)
        return ModelSpec(LinearSignal((ConstantFn(),)), family), Theta((0.0,), (1.0,))

    def value(params, t):
        return params[0]

    def pair_value(params, t):
        return np.array([params[0], params[0]])  # not a scalar

    def grad(params, t):
        return np.ones(1)

    def bad_grad(params, t):
        return np.zeros(2)  # one parameter, two gradient entries

    # rates, and the quadrature route through them, name the time
    for rate, rate_grad, detail in [
        (value, bad_grad, "gradient has size 2, expected 1"),
        (pair_value, grad, "value is not a scalar"),
    ]:
        model, theta = general(rate, rate_grad)
        with pytest.raises(EvaluationError, match=rf"{block} {detail}: t=0\.5$"):
            model.rates(theta, [0.5, 1.0])
        for forced in (False, True):
            cache = MomentCache(model, uniform_grid(3, 0.5), force_quadrature=forced)
            with pytest.raises(EvaluationError, match=rf"{block} {detail}: t=\d"):
                cache.moments(theta)

    # closure route: exact integrals whose gradient has the wrong size, or
    # whose value is not a scalar, on every interval or only from interval 2 on
    def integral(params, a, b):
        return params[0] * (b - a)

    def pair_from_interval_2(params, a, b):
        return integral(params, a, b) if a < 1.0 else np.array([1.0, 2.0])

    def grad_integral(params, a, b):
        return np.array([b - a])

    def grad_everywhere(params, a, b):
        return np.zeros(2)

    def grad_from_interval_2(params, a, b):
        return np.zeros(1 if a < 1.0 else 3)

    on_0, on_2 = r"interval 0 on \[0\.0, 0\.5\]", r"interval 2 on \[1\.0, 1\.5\]"
    cases = [
        (integral, grad_everywhere, f"gradient has size 2, expected 1: {on_0}"),
        (integral, grad_from_interval_2, f"gradient has size 3, expected 1: {on_2}"),
        (pair_from_interval_2, grad_integral, f"value is not a scalar: {on_2}"),
    ]
    for value_integral, gradient_integral, detail in cases:
        model, theta = general(value, bad_grad, value_integral, gradient_integral)
        cache = MomentCache(model, uniform_grid(4, 0.5))
        with pytest.raises(EvaluationError, match=rf"{block} {detail}"):
            cache.moments(theta)


def _drift_rows(route, k, value, grad):
    """Drift (values, gradients) whose callables return ``value(i)`` and ``grad(i)`` on row i.

    Row i is the time t = i/2 on the ``rates`` route and the interval
    [i/2, i/2 + 1/2] on the closure route, four rows each.
    """
    noise = KnownNoise(constant_profile(1.0))
    theta = Theta(np.zeros(k), ())
    if route == "rates":
        family = GeneralSignal(k, lambda a, t: value(int(2 * t)), lambda a, t: grad(int(2 * t)))
        drift, _ = ModelSpec(family, noise).rates(theta, [0.0, 0.5, 1.0, 1.5])
        return drift[:, 0], drift[:, 1:]
    family = GeneralSignal(k, lambda a, t: 0.0, lambda a, t: np.zeros(k),
                           lambda a, lo, hi: value(int(2 * lo)),
                           lambda a, lo, hi: grad(int(2 * lo)))
    moments = MomentCache(ModelSpec(family, noise), uniform_grid(4, 0.5)).moments(theta)
    return moments.mean, moments.grad_mean


def _x(i):
    return 0.25 * i - 0.3


@pytest.mark.parametrize("route", ["rates", "closure"])
@pytest.mark.parametrize("k, value, grad, error", [
    # accepted, stacked in one conversion or, where that fails, row by row
    (1, lambda i: np.float64(_x(i)), lambda i: [0.5 * i], None),
    (1, lambda i: np.array(_x(i)), lambda i: [0.5 * i], None),
    (1, lambda i: i % 2 == 0, lambda i: [0.5 * i], None),
    (1, lambda i: str(_x(i)), lambda i: [0.5 * i], None),
    (1, lambda i: str(_x(i)) if i % 2 else _x(i), lambda i: [0.5 * i], None),
    (2, _x, lambda i: [0.5 * i, -i], None),
    (1, _x, lambda i: 0.5 * i, None),
    (2, _x, lambda i: np.array([[0.5 * i, -i]]), None),
    (1, _x, lambda i: [0.5 * i] if i % 2 else 0.5 * i, None),
    (1, lambda i: 0.0 if i == 3 else _x(i), lambda i: [0.5 * i] if i % 2 else 0.5 * i, None),
    # rejected from row 2 on, named at row 2
    (1, lambda i: _x(i) if i < 2 else None, lambda i: [0.5 * i], "value is not a scalar"),
    (1, lambda i: _x(i) if i < 2 else _x(i) + 1j, lambda i: [0.5 * i], "value is not a scalar"),
    (1, lambda i: _x(i) if i < 2 else np.array([_x(i)]), lambda i: [0.5 * i],
     "value is not a scalar"),
    (1, lambda i: _x(i) if i < 2 else np.array([_x(i), 0.0]), lambda i: [0.5 * i],
     "value is not a scalar"),
    (1, _x, lambda i: np.zeros(1 if i < 2 else i), "gradient has size 2, expected 1"),
], ids=["float64", "0-d array", "bool", "str", "str and float", "grad list", "grad float",
        "grad (1, k)", "grad list and float", "last value 0 row by row", "None", "complex", "1-element array",
        "2-element array", "grad sizes"])
def test_stacked_rows_accept_and_reject_what_the_row_check_does(route, k, value, grad, error):
    if error is None:
        values, grads = _drift_rows(route, k, value, grad)
        rows = range(4)
        np.testing.assert_array_equal(values, [float(value(i)) for i in rows])
        np.testing.assert_array_equal(grads, [np.asarray(grad(i), dtype=float).ravel()
                                              for i in rows])
        return
    where = r"t=1\.0" if route == "rates" else r"interval 2 on \[1\.0, 1\.5\]"
    with pytest.raises(EvaluationError, match=rf"^drift {error}: {where}$"):
        _drift_rows(route, k, value, grad)


class _NanFromOne(ConstantFn):
    """The constant atom with an integral that is NaN on intervals starting at t >= 1."""

    def integral(self, a, b):
        return np.where(np.asarray(a) < 1.0, super().integral(a, b), np.nan)


@pytest.mark.parametrize("block", ["drift", "variance", "basis", "profile"])
def test_non_finite_moment_names_the_first_bad_interval(block):
    # exact integrals that turn NaN from t = 1 on: intervals 0 and 1 are
    # finite, interval 2 on [1.0, 1.5] is the first bad one
    def integral(params, a, b):
        return params[0] * (b - a) if a < 1.0 else float("nan")

    def grad_integral(params, a, b):
        return np.array([b - a])

    theta = Theta((0.0,), ())
    if block == "drift":
        family = GeneralSignal(1, lambda a, t: a[0], lambda a, t: np.ones(1),
                               integral, grad_integral)
        model = ModelSpec(family, KnownNoise(constant_profile(1.0)))
        theta = Theta((1.0,), ())
    elif block == "variance":
        family = GeneralNoise(1, lambda b, t: b[0], lambda b, t: np.ones(1),
                              integral, grad_integral)
        model = ModelSpec(LinearSignal((ConstantFn(),)), family)
        theta = Theta((0.0,), (1.0,))
    elif block == "basis":
        model = ModelSpec(LinearSignal((_NanFromOne(),)), KnownNoise(constant_profile(1.0)))
    else:
        profile = Profile(offset=0.0, coefs=(1.0,), atoms=(_NanFromOne(),))
        model = ModelSpec(LinearSignal((ConstantFn(),)), KnownNoise(profile))
    what = {"drift": "drift moment", "variance": "variance moment",
            "basis": "basis integral", "profile": "variance profile integral"}[block]
    message = rf"non-finite {what}: interval 2 on \[1\.0, 1\.5\]"
    with pytest.raises(EvaluationError, match=message):
        MomentCache(model, uniform_grid(10, 0.5)).moments(theta)


def test_noise_floor_violation_raised():
    def var_fn(beta, t):
        return 0.0

    def grad_fn(beta, t):
        return np.zeros(0)

    model = ModelSpec(LinearSignal((ConstantFn(),)), GeneralNoise(0, var_fn, grad_fn))
    cache = MomentCache(model, uniform_grid(3, 0.5))
    with pytest.raises(NoiseFloorViolation):
        cache.moments(Theta((1.0,), ()))


def _elementwise_floor_verdict(var, model, grid):
    """The floor test on every interval, with its message: None if all pass."""
    floor = model.sigma2_floor * grid.delays
    if not np.any(var <= floor):
        return None
    i = int(np.argmax(var <= floor))
    return (
        f"increment variance {float(var[i])!r} on interval {i} is at or "
        f"below floor*delay = {float(floor[i])!r}"
    )


def _floor_verdict(cache, theta):
    try:
        cache.moments(theta)
    except NoiseFloorViolation as exc:
        return str(exc)
    return None


def _ulp_steps(x, steps):
    return [x + k * np.spacing(x) for k in steps]  # x is far from a power of two here


@pytest.mark.parametrize("noise", ["known", "scaled"])
def test_floor_threshold_verdict_equals_the_elementwise_test(noise):
    # every verdict and message at and within +-1, +-4 ulps of the threshold,
    # and out to 40 ulps, where scales clear of it skip the elementwise test
    rng = np.random.default_rng(3)
    grid = grid_from_delays(rng.uniform(0.05, 0.9, 60))
    profile = Profile(2.0, (1.0,), (CosineFn(1.0),))
    g = profile.integral(grid.starts, grid.ends)
    steps = [0, -1, 1, -4, 4, *range(-40, 41)]
    cases = []
    if noise == "scaled":
        model = ModelSpec(LinearSignal((ConstantFn(),)), ScaledNoise(profile), sigma2_floor=0.3)
        cache = MomentCache(model, grid)
        threshold = float(np.max(0.3 * grid.delays / g))
        for beta in _ulp_steps(threshold, steps):
            cases.append((cache, Theta((1.0,), (beta,)), beta * g, model))
    else:
        for floor in _ulp_steps(float(np.min(g / grid.delays)), steps):
            model = ModelSpec(LinearSignal((ConstantFn(),)), KnownNoise(profile), floor)
            cases.append((MomentCache(model, grid), Theta((1.0,), ()), g, model))
    verdicts, cleared = [], 0
    for cache, theta, var, model in cases:
        want = _elementwise_floor_verdict(var, model, grid)
        assert _floor_verdict(cache, theta) == want
        verdicts.append(want)
        cleared += cache.clears_floor(theta.beta)
    assert None in verdicts and any(v is not None for v in verdicts)
    assert 0 < cleared < len(cases)


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


def _counted(model):
    """``model`` with each general family's callables counted, by (block, callable)."""
    calls = Counter()

    def count(key, fn):
        def counted(*args):
            calls[key] += 1
            return fn(*args)

        return counted

    fields = ("value_fn", "grad_fn", "integral_fn", "grad_integral_fn")
    families = {
        block: replace(family, **{f: count((block, f), getattr(family, f)) for f in fields})
        for block, family in (("drift", model.signal), ("variance", model.noise))
    }
    return replace(model, signal=families["drift"], noise=families["variance"]), calls


def test_closure_blocks_reuse_their_last_16_parameter_vectors():
    model, calls = _counted(curved_model()[0])
    n = 8
    cache = MomentCache(model, uniform_grid(n, 0.5))
    theta = Theta((0.3,), (0.2,))

    def block_calls(block):
        return sum(v for (b, _), v in calls.items() if b == block)

    first = cache.moments(theta)  # one call of each antiderivative per interval
    assert calls == {(b, f): n for b in ("drift", "variance")
                     for f in ("integral_fn", "grad_integral_fn")}
    drift, variance = block_calls("drift"), block_calls("variance")
    again = cache.moments(theta)
    assert (block_calls("drift"), block_calls("variance")) == (drift, variance)
    assert again.var is first.var and not again.var.flags.writeable  # shared, read-only

    cache.moments(Theta((0.3,), (0.5,)))  # a step in beta alone reuses the drift block
    assert block_calls("drift") == drift and block_calls("variance") == 2 * variance

    others = [Theta((0.31 + 0.01 * k,), (0.2,)) for k in range(31)]
    for other in others[:15]:
        cache.moments(other)
    before = block_calls("drift")
    cache.moments(theta)  # 15 vectors later, still kept
    assert block_calls("drift") == before
    for other in others[15:]:
        cache.moments(other)
    before = block_calls("drift")
    cache.moments(theta)  # 16 vectors later, computed again
    assert block_calls("drift") == before + drift


@pytest.mark.parametrize("forced", [False, True], ids=["byte-bound", "quadrature"])
def test_memo_entries_fit_a_byte_budget_and_quadrature_keeps_none(forced, monkeypatch):
    n = 8  # an entry holds n (1 + k) = 16 floats, 128 bytes, per block
    monkeypatch.setattr(increments, "_MEMO_BYTES", 3 * 128 + 127)
    model, calls = _counted(curved_model()[0])
    cache = MomentCache(model, uniform_grid(n, 0.5), force_quadrature=forced)
    theta = Theta((0.3,), (0.2,))
    cache.moments(theta)
    cache.moments(Theta((0.4,), (0.2,)))
    cache.moments(Theta((0.5,), (0.2,)))
    before = sum(calls.values())
    cache.moments(theta)  # two vectors later, kept by the 3-entry memo, recomputed on quadrature
    assert (sum(calls.values()) > before) == forced
    cache.moments(Theta((0.6,), (0.2,)))
    before = sum(calls.values())
    cache.moments(Theta((0.4,), (0.2,)))  # the 3 entries now hold 0.3, 0.5 and 0.6
    assert sum(calls.values()) > before


def test_values_entries_share_the_byte_budget_with_full_ones(monkeypatch):
    n = 8  # per block, a values entry holds n floats, 64 bytes, and a full one 128
    monkeypatch.setattr(increments, "_MEMO_BYTES", 4 * 128 - 1)
    model, calls = _counted(curved_model()[0])
    cache = MomentCache(model, uniform_grid(n, 0.5))
    points = [Theta((0.1 * k,), (0.2,)) for k in range(8)]  # one variance entry throughout
    cache.moments(points[0])
    for theta in points[1:6]:  # 128 + 5 * 64 = 448 bytes of drift entries
        cache.mean_var(theta)
    calls.clear()
    cache.mean_var(points[0])
    cache.moments(points[0])  # kept, and now the most recently used
    assert calls == {}
    cache.mean_var(points[6])  # 512 bytes would pass the budget: the oldest, points[1], goes
    cache.mean_var(points[2])
    assert calls == {("drift", "integral_fn"): n}
    cache.mean_var(points[1])
    assert calls == {("drift", "integral_fn"): 2 * n}


def _none_from_1(fn):
    """``fn`` returning None, not a scalar, at times or interval starts from 1 on."""
    return lambda params, x, *rest: None if x >= 1.0 else fn(params, x, *rest)


@pytest.mark.parametrize("failing", [False, True], ids=["success", "failing row"])
def test_each_callable_runs_once_per_point(failing):
    model = curved_model()[0]
    if failing:  # the variance block, evaluated after the drift, fails from row 2 on
        noise = replace(model.noise, value_fn=_none_from_1(model.noise.value_fn),
                        integral_fn=_none_from_1(model.noise.integral_fn))
        model = replace(model, noise=noise)
    model, calls = _counted(model)
    theta = Theta((0.3,), (0.2,))
    n = 6  # time points on the rates route, intervals on the closure route
    routes = [
        (("value_fn", "grad_fn"), partial(model.rates, theta, 0.5 * np.arange(n)), r"t=1\.0"),
        (("integral_fn", "grad_integral_fn"),
         partial(MomentCache(model, uniform_grid(n, 0.5)).moments, theta),
         r"interval 2 on \[1\.0, 1\.5\]"),
    ]
    for names, evaluate, where in routes:
        calls.clear()
        if failing:
            message = rf"^variance value is not a scalar: {where}$"
            with pytest.raises(EvaluationError, match=message):
                evaluate()
        else:
            evaluate()
        assert calls == {(b, f): n for b in ("drift", "variance") for f in names}


def test_shared_cache_gives_the_results_of_fresh_caches():
    model, space, theta = curved_model()
    grid = uniform_grid(200, 0.25)
    shared = MomentCache(model, grid)
    for r in range(6):
        sample = simulate_increments(model, theta, grid, seed=17, replicate=r)
        got = mle_numeric(model, space, grid, sample, cache=shared)
        want = mle_numeric(model, space, grid, sample, cache=MomentCache(model, grid))
        assert np.array_equal(got.theta.vector, want.theta.vector)
        assert np.array_equal(got.stderr, want.stderr)
        assert (got.log_lik, got.iterations) == (want.log_lik, want.iterations)
    shift = np.array([0.05, -0.05])
    for z in (0.25, 0.5, 0.75):
        got = expected_power_identity(model, theta, shift, z, grid, cache=shared)
        assert got == expected_power_identity(model, theta, shift, z, grid)


def _without_integrals(model):
    """``model`` with its general families' antiderivatives dropped: the quadrature route."""
    bare = {"integral_fn": None, "grad_integral_fn": None}
    return replace(model, signal=replace(model.signal, **bare), noise=replace(model.noise, **bare))


def test_used_caches_pickle_as_fresh_ones():
    curved, curved_space, _ = curved_model()
    quad = _without_integrals(curved)
    scaled, scaled_space, _ = trig_scaled_model()
    grid = uniform_grid(40, 0.25)
    rng = np.random.default_rng(23)
    for model, space, forced in [
        (scaled, scaled_space, False), (scaled, scaled_space, True),
        (quad, curved_space, False), (curved, curved_space, False),
    ]:
        cache = MomentCache(model, grid, force_quadrature=forced)
        size = len(pickle.dumps(cache))
        thetas = [sample_interior(space, rng) for _ in range(20)]
        for k, theta in enumerate(thetas):  # full and values-only entries, mixed
            (cache.moments if k % 2 else cache.mean_var)(theta)
        data = pickle.dumps(cache)
        assert len(data) == size, forced  # the memo's entries are not pickled
        back = pickle.loads(data)
        for theta in thetas:
            for got, want in zip(back.mean_var(theta), cache.mean_var(theta)):
                assert np.array_equal(got, want)
            want, got = cache.moments(theta), back.moments(theta)
            for name in ("mean", "var", "grad_mean", "grad_var"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name


_VALUE_GRIDS = {
    "uniform": lambda: uniform_grid(60, 0.25),
    "quantile": lambda: quantile_grid(lambda u: u**1.5, 60, 15.0),
}


@pytest.mark.parametrize("grid", sorted(_VALUE_GRIDS))
def test_mean_var_equals_moments_bit_for_bit_on_every_route(grid):
    curved, _, theta = curved_model()
    routes = [
        ("closed-known", *trig_known_model()[::2], False),
        ("closed-scaled", *trig_scaled_model()[::2], False),
        ("closure", curved, theta, False),
        ("quadrature", _without_integrals(curved), theta, False),
        ("forced-closure", curved, theta, True),
        ("forced-closed", *trig_scaled_model()[::2], True),
    ]
    grid = _VALUE_GRIDS[grid]()
    for name, model, theta, forced in routes:
        full = MomentCache(model, grid, force_quadrature=forced).moments(theta)
        values_first = MomentCache(model, grid, force_quadrature=forced)
        mean, var = values_first.mean_var(theta)  # a fresh cache, values before gradients
        assert np.array_equal(mean, full.mean) and np.array_equal(var, full.var), name
        assert not (mean.flags.writeable or var.flags.writeable), name
        after = values_first.moments(theta)  # then the full moments at the same point
        for attr in ("mean", "var", "grad_mean", "grad_var"):
            assert np.array_equal(getattr(after, attr), getattr(full, attr)), (name, attr)
        assert after.grid is grid and full.grid is grid


def test_values_callers_make_no_gradient_call():
    model, space, theta = curved_model()
    model, calls = _counted(model)
    n = 12
    grid = uniform_grid(n, 0.5)
    sample = simulate_increments(model, theta, grid, 3)
    anchor = mle_numeric(model, space, grid, sample)
    coords = (np.linspace(0.2, 0.4, 3)[:, None], np.linspace(0.1, 0.3, 2)[None, :])
    callers = {  # each on a fresh cache, with the alpha and beta values whose values it reads
        "power identity": (lambda c: expected_power_identity(
            model, theta, np.array([0.05, -0.05]), 0.5, grid, cache=c), 2, 2),
        "simulate_increments": (lambda c: simulate_increments(model, theta, grid, 3, cache=c),
                                1, 1),
        "simulate_batch": (lambda c: simulate_batch(model, theta, grid, 3, 4, cache=c), 1, 1),
        "batch log-likelihood": (lambda c: _make_batch_loglik(c, sample.y)(coords), 3, 2),
    }
    for name, (run, alphas, betas) in callers.items():
        calls.clear()
        run(MomentCache(model, grid))
        assert calls == {("drift", "integral_fn"): alphas * n,
                         ("variance", "integral_fn"): betas * n}, name

    calls.clear()  # the point-wise Bayes route, given its anchor, reads values alone
    posterior_mean_quadrature(model, space, grid, sample, cache=MomentCache(model, grid),
                              anchor=anchor)
    assert calls and {f for _, f in calls} == {"integral_fn"}

    calls.clear()  # a local expansion reads gradients at its base point alone
    directions = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    local_expansion(model, space, theta, directions, 0.1 * np.eye(2), MomentCache(model, grid))
    assert calls == {  # two distinct alphas and three betas, the base point's among them
        ("drift", "integral_fn"): 2 * n, ("variance", "integral_fn"): 3 * n,
        ("drift", "grad_integral_fn"): n, ("variance", "grad_integral_fn"): n,
    }


def _scale_noise_model(route, floor, nan_from_1=False):
    """A constant drift and the variance rate b[0], NaN from t = 1 on if ``nan_from_1``, on
    ``route``: the closed scaled route, exact integrals (closure) or quadrature."""
    if route == "closed":
        return ModelSpec(LinearSignal((ConstantFn(),)), ScaledNoise(constant_profile(1.0)), floor)

    def nan(x):
        return float("nan") if nan_from_1 and x >= 1.0 else 1.0

    exact = (lambda b, lo, hi: b[0] * (hi - lo) * nan(lo), lambda b, lo, hi: np.array([hi - lo]))
    noise = GeneralNoise(1, lambda b, t: b[0] * nan(t), lambda b, t: np.ones(1),
                         *(exact if route == "closure" else ()))
    return ModelSpec(LinearSignal((ConstantFn(),)), noise, floor)


_ROUTES = ("closed", "closure", "quadrature")


@pytest.mark.parametrize("route, case, error", [
    ("closure", "non-finite", EvaluationError),
    ("quadrature", "non-finite", QuadratureError),  # quadrature reports the integral itself
    *[(route, "floor", NoiseFloorViolation) for route in _ROUTES],
    *[(route, "dims", EvaluationError) for route in _ROUTES],
])
def test_both_entries_raise_the_same_errors(route, case, error):
    # a closed route's own arrays are checked, and fail, when the cache is built
    model = _scale_noise_model(route, 0.5 if case == "floor" else 1e-12, case == "non-finite")
    theta = {"non-finite": Theta((0.0,), (1.0,)), "floor": Theta((0.0,), (0.25,)),
             "dims": Theta((0.0, 1.0), (1.0,))}[case]
    messages = []
    for entry in (MomentCache.moments, MomentCache.mean_var):
        with pytest.raises(error) as raised:
            entry(MomentCache(model, uniform_grid(10, 0.5)), theta)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert ("theta dims" if case == "dims" else "interval") in messages[0]


def test_values_and_full_requests_share_one_memo_entry():
    model, calls = _counted(curved_model()[0])
    n = 8
    cache = MomentCache(model, uniform_grid(n, 0.5))
    theta = Theta((0.3,), (0.2,))
    full = cache.moments(theta)
    calls.clear()
    mean, var = cache.mean_var(theta)  # values after a full request: no call
    assert calls == {} and mean is full.mean and var is full.var

    other = Theta((0.4,), (0.1,))
    mean, var = cache.mean_var(other)
    assert calls == {(b, "integral_fn"): n for b in ("drift", "variance")}
    calls.clear()
    m = cache.moments(other)  # full after values: both callables again, once per interval
    assert calls == {(b, f): n for b in ("drift", "variance")
                     for f in ("integral_fn", "grad_integral_fn")}
    np.testing.assert_array_equal(m.mean, mean)
    np.testing.assert_array_equal(m.var, var)
    calls.clear()
    cache.moments(other)
    cache.mean_var(other)
    assert calls == {}


@dataclass(frozen=True)
class _OneGradientColumn(GeneralSignal):
    """A p = 2 drift whose exact integrals hand back one gradient column, not two."""

    @property
    def integrals(self):
        def integrals(params, starts, ends, gradient=True):
            out = np.column_stack([params[0] * (ends - starts), ends - starts])
            return out if gradient else out[:, :1]

        return integrals


def test_moments_refuse_gradient_blocks_of_the_wrong_width():
    signal = _OneGradientColumn(2, lambda a, t: a[0], lambda a, t: np.array([1.0, 0.0]))
    model = ModelSpec(signal, KnownNoise(constant_profile(1.0)))
    cache = MomentCache(model, uniform_grid(5, 0.5))
    theta = Theta((1.0, 0.0), ())
    message = r"drift gradient has shape \(5, 1\), expected \(5, p = 2\)"
    with pytest.raises(EvaluationError, match=message):
        cache.moments(theta)
    np.testing.assert_array_equal(cache.mean_var(theta)[0], np.full(5, 0.5))  # no gradient read


@pytest.mark.parametrize("block", ["grad_mean", "grad_var"])
def test_hand_built_moments_need_two_dimensional_gradients(block):
    arrays = {"mean": np.zeros(5), "var": np.ones(5),
              "grad_mean": np.ones((5, 1)), "grad_var": np.zeros((5, 0))}
    for bad in (np.ones(5), np.ones((4, 1))):
        with pytest.raises(EvaluationError, match=rf"^{block} must be 2-d with 5 rows, got "):
            IncrementMoments(**(arrays | {block: bad}))
