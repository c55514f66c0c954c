import mpmath
import numpy as np
import pytest
from scipy import stats

import signoise.increments

from signoise import (
    ConstantFn,
    CosineFn,
    DegeneratePosteriorError,
    DomainError,
    EstimateResult,
    GeneralNoise,
    IncrementSample,
    KnownNoise,
    LinearSignal,
    MleOptions,
    ModelSpec,
    MomentCache,
    OptimizationError,
    ParameterSpace,
    Prior,
    ScaledNoise,
    Theta,
    closed_form_mle,
    constant_profile,
    log_likelihood,
    mle_numeric,
    periodic_pattern_grid,
    posterior_mean_importance,
    posterior_mean_quadrature,
    simulate_batch,
    simulate_increments,
    uniform_grid,
)

from signoise.estimate import _make_batch_loglik, _tensor_points

from helpers import mean_model, trig_known_model, trig_scaled_model


def _scaled_fits(model, grid, draws):
    """Vectorized weighted-least-squares fits, one row of draws at a time.

    Independent of the library path: plain normal equations per replicate.
    """
    cache = MomentCache(model, grid)
    b = cache.signal_basis_integrals()
    g = cache.noise_profile_integrals()
    w = 1.0 / g
    btwb = b.T @ (b * w[:, None])
    proj = np.linalg.solve(btwb, (b * w[:, None]).T)
    alphas = draws @ proj.T
    resid = draws - alphas @ b.T
    scales = np.mean(resid * resid / g, axis=1)
    return alphas, scales


def test_constant_drift_estimate_telescopes():
    model, space, _ = mean_model()
    grid = uniform_grid(40, 0.5)
    theta = Theta((1.3,), ())
    sample = simulate_increments(model, theta, grid, seed=11)
    fit = closed_form_mle(model, space, grid, sample)
    assert fit.theta.alpha[0] == pytest.approx(
        sample.y.sum() / grid.total_time, rel=1e-14
    )


def test_noiseless_sample_recovers_truth_exactly():
    model, space, theta = trig_known_model()
    grid = uniform_grid(60, 0.3)
    cache = MomentCache(model, grid)
    m = cache.moments(theta)
    sample = IncrementSample(m.mean.copy(), 0, 0, grid.digest(), theta)
    fit = closed_form_mle(model, space, grid, sample, cache=cache)
    assert np.allclose(fit.theta.alpha, theta.alpha, atol=1e-12)

    # normal equations: weighted basis residual vanishes at the optimum
    b = cache.signal_basis_integrals()
    g = cache.noise_profile_integrals()
    resid = sample.y - b @ fit.theta.alpha
    assert np.all(np.abs(b.T @ (resid / g)) < 1e-10)


def test_normal_equation_residual_vanishes_on_noisy_data():
    model, space, theta = trig_known_model()
    grid = uniform_grid(60, 0.3)
    cache = MomentCache(model, grid)
    sample = simulate_increments(model, theta, grid, seed=77, cache=cache)
    fit = closed_form_mle(model, space, grid, sample, cache=cache)
    b = cache.signal_basis_integrals()
    g = cache.noise_profile_integrals()
    resid = sample.y - b @ fit.theta.alpha
    assert np.all(np.abs(b.T @ (resid / g)) < 1e-10)


def test_noiseless_scaled_fit_collapses_scale():
    model, space, theta = trig_scaled_model()
    grid = uniform_grid(50, 0.25)
    cache = MomentCache(model, grid)
    m = cache.moments(theta)
    sample = IncrementSample(m.mean.copy(), 0, 0, grid.digest(), theta)
    fit = closed_form_mle(model, space, grid, sample, cache=cache)
    assert abs(fit.theta.beta[0]) < 1e-12
    assert fit.log_lik == np.inf


def test_scale_estimate_bias_factor():
    model, space, theta = trig_scaled_model()
    n, p, beta = 20, 2, theta.beta[0]
    grid = uniform_grid(n, 0.5)
    draws = simulate_batch(model, theta, grid, seed=420, replicates=10_000)
    _, scales = _scaled_fits(model, grid, draws)
    # spot check the vectorization against the library estimator
    for r in (0, 1, 2):
        sample = IncrementSample(draws[r], 420, r, grid.digest())
        fit = closed_form_mle(model, space, grid, sample)
        assert scales[r] == pytest.approx(fit.theta.beta[0], rel=1e-12)
    target = beta * (n - p) / n
    se = scales.std(ddof=1) / np.sqrt(scales.size)
    assert abs(scales.mean() - target) < 4.0 * se


def test_scale_estimate_concentrates():
    model, space, theta = trig_scaled_model()
    n, beta = 2000, theta.beta[0]
    grid = uniform_grid(n, 0.25)
    draws = simulate_batch(model, theta, grid, seed=333, replicates=500)
    _, scales = _scaled_fits(model, grid, draws)
    band = 5.0 * np.sqrt(2.0 * beta * beta / n)
    assert np.mean(np.abs(scales - beta) < band) >= 0.99


def test_numeric_mle_concentrates():
    model, space, theta = trig_scaled_model()
    n = 2000
    grid = uniform_grid(n, 0.25)
    cache = MomentCache(model, grid)
    draws = simulate_batch(model, theta, grid, seed=271, replicates=500, cache=cache)
    opts = MleOptions(multistarts=2)
    hits = 0
    for r in range(draws.shape[0]):
        sample = IncrementSample(draws[r], 271, r, grid.digest())
        fit = mle_numeric(model, space, grid, sample, options=opts, cache=cache)
        ok = np.all(np.abs(fit.theta.vector - theta.vector) < 5.0 * fit.stderr)
        hits += bool(ok)
    assert hits / draws.shape[0] >= 0.99


@pytest.mark.parametrize("build", [trig_known_model, trig_scaled_model])
@pytest.mark.parametrize(
    "grid",
    [uniform_grid(400, 0.25), periodic_pattern_grid((0.25, 1.0), 1.0, 200)],
    ids=["uniform", "pattern"],
)
def test_closed_form_block_rows_match_per_sample_fits(build, grid):
    model, space, theta = build()
    cache = MomentCache(model, grid)
    ys = simulate_batch(model, theta, grid, seed=17, replicates=20, cache=cache)
    block = cache.linear_design().fit(ys.T)
    assert block.shape == (20, model.d)
    for r, y in enumerate(ys):
        sample = IncrementSample(y, 17, r, grid.digest())
        single = closed_form_mle(model, space, grid, sample, cache=cache).theta.vector
        np.testing.assert_allclose(block[r], single, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("build", [trig_known_model, trig_scaled_model])
@pytest.mark.parametrize(
    "grid",
    [uniform_grid(400, 0.25), periodic_pattern_grid((0.25, 1.0), 1.0, 200)],
    ids=["uniform", "pattern"],
)
def test_closed_form_covariance_matches_normal_equations(build, grid):
    # independent construction: (B'WB)^{-1} by a plain inverse, times the
    # fitted scale, and 2 scale^2 / n for the scale entry
    model, space, theta = build()
    cache = MomentCache(model, grid)
    sample = simulate_increments(model, theta, grid, seed=29, cache=cache)
    fit = closed_form_mle(model, space, grid, sample, cache=cache)
    b = cache.signal_basis_integrals()
    g = cache.noise_profile_integrals()
    want = np.linalg.inv(b.T @ (b / g[:, None]))
    if model.q:
        scale = fit.theta.beta[0]
        assert scale != 1.0
        want = np.block([
            [scale * want, np.zeros((model.p, 1))],
            [np.zeros((1, model.p)), np.array([[2.0 * scale * scale / grid.n]])],
        ])
    assert fit.covariance.shape == want.shape == (model.d, model.d)
    np.testing.assert_allclose(fit.covariance, want, rtol=0.0, atol=1e-12 * np.abs(want).max())
    np.testing.assert_allclose(fit.stderr, np.sqrt(np.diag(want)), rtol=1e-12, atol=0.0)


def test_numeric_matches_closed_form():
    model, space, theta = trig_scaled_model()
    grid = uniform_grid(400, 0.25)
    cache = MomentCache(model, grid)
    sample = simulate_increments(model, theta, grid, seed=88, cache=cache)
    closed = closed_form_mle(model, space, grid, sample, cache=cache)
    numeric = mle_numeric(model, space, grid, sample, cache=cache)
    assert np.allclose(numeric.theta.vector, closed.theta.vector, atol=1e-7)
    assert numeric.converged


def test_boundary_pull_keeps_estimate_interior():
    model, space, theta = trig_scaled_model()
    grid = uniform_grid(50, 0.25)
    cache = MomentCache(model, grid)
    m = cache.moments(theta)
    # nearly noiseless data pulls the scale toward zero, below the box
    rng = np.random.default_rng(9)
    y = m.mean + 1e-4 * rng.standard_normal(grid.n)
    sample = IncrementSample(y, 0, 0, grid.digest())
    fit = mle_numeric(model, space, grid, sample, cache=cache)
    lo = space.interior_bounds[0][2]
    assert fit.theta.beta[0] >= lo - 1e-15
    assert space.contains(fit.theta)


def _rate_noise_problem(beta_box):
    """Variance rate beta, with exact integrals, on a box whose beta axis may go negative."""
    noise = GeneralNoise(
        q=1,
        value_fn=lambda b, t: b[0],
        grad_fn=lambda b, t: np.array([1.0]),
        integral_fn=lambda b, lo, hi: b[0] * (hi - lo),
        grad_integral_fn=lambda b, lo, hi: np.array([hi - lo]),
    )
    model = ModelSpec(LinearSignal((ConstantFn(),)), noise)
    grid = uniform_grid(200, 0.5)
    sample = simulate_increments(model, Theta((1.0,), (1.0,)), grid, seed=7)
    return model, ParameterSpace(((0.0, 2.0),), (beta_box,)), grid, sample


def test_numeric_mle_drops_starts_below_the_noise_floor():
    # starts with beta <= 0 give negative increment variances; the others
    # still reach the closed-form mean and variance MLE
    model, space, grid, sample = _rate_noise_problem((-1.0, 3.0))
    fit = mle_numeric(model, space, grid, sample)
    scaled = ModelSpec(LinearSignal((ConstantFn(),)), ScaledNoise(constant_profile(1.0)))
    exact = closed_form_mle(scaled, space, grid, sample)
    assert np.allclose(fit.theta.vector, exact.theta.vector, rtol=1e-6, atol=0.0)


def test_numeric_mle_names_every_failed_start():
    model, space, grid, sample = _rate_noise_problem((-3.0, -1.0))
    with pytest.raises(OptimizationError) as info:
        mle_numeric(model, space, grid, sample)
    diagnostics = info.value.diagnostics
    assert len(diagnostics) == MleOptions().multistarts == 8
    for k, line in enumerate(diagnostics):
        assert line.startswith(f"start {k}: NoiseFloorViolation: increment variance -")
    assert "start 7: NoiseFloorViolation" in str(info.value)


def test_importance_sampling_with_no_draw_in_the_box_is_degenerate():
    model, space, _ = mean_model()
    grid = uniform_grid(10, 1.0)
    sample = simulate_increments(model, Theta((1.0,), ()), grid, seed=1)
    anchor = EstimateResult(
        Theta((50.0,), ()), 0.0, True, 0, "mle", stderr=np.array([1e-3])
    )
    with pytest.raises(DegeneratePosteriorError, match="every proposal draw fell outside"):
        posterior_mean_importance(model, space, grid, sample, anchor=anchor)


def test_cubature_with_underflowing_normalizer_is_degenerate():
    model, space, theta = mean_model()
    grid = uniform_grid(10, 1.0)
    sample = simulate_increments(model, theta, grid, seed=1)
    fit = closed_form_mle(model, space, grid, sample)
    # an anchor log-likelihood far above every attainable value scales all
    # cubature weights to exp(-1e6) = 0
    anchor = EstimateResult(fit.theta, 1e6, True, 0, "closed-form", stderr=fit.stderr)
    with pytest.raises(DegeneratePosteriorError, match=r"normalizer came out 0\.0;"):
        posterior_mean_quadrature(model, space, grid, sample, anchor=anchor)


def test_posterior_mean_matches_truncated_normal():
    model, space, _ = mean_model()
    grid = uniform_grid(10, 1.0)  # T = 10
    theta = Theta((0.4,), ())  # posterior visibly truncated at the left edge
    sample = simulate_increments(model, theta, grid, seed=140)
    fit = closed_form_mle(model, space, grid, sample)
    loc = fit.theta.alpha[0]
    scale = 1.0 / np.sqrt(grid.total_time)
    lo, hi = space.alpha_box[0]
    oracle = stats.truncnorm.mean((lo - loc) / scale, (hi - loc) / scale, loc, scale)
    got = posterior_mean_quadrature(model, space, grid, sample, rel_tol=1e-9)
    assert got.theta.alpha[0] == pytest.approx(oracle, abs=1e-7)


def test_symmetric_posterior_returns_box_center():
    model, space, _ = mean_model()
    grid = uniform_grid(20, 0.5)  # T = 10, box (0, 2)
    y = np.full(20, 0.5)  # every increment equals h, so the fit is exactly 1
    sample = IncrementSample(y, 0, 0, grid.digest())
    fit = closed_form_mle(model, space, grid, sample)
    assert fit.theta.alpha[0] == pytest.approx(1.0, abs=1e-14)
    got = posterior_mean_quadrature(model, space, grid, sample, rel_tol=1e-10)
    assert got.theta.alpha[0] == pytest.approx(1.0, abs=1e-8)


def test_bayes_routes_agree():
    model, space, theta = trig_scaled_model()
    grid = uniform_grid(200, 0.25)
    cache = MomentCache(model, grid)
    sample = simulate_increments(model, theta, grid, seed=55, cache=cache)
    tensor = posterior_mean_quadrature(model, space, grid, sample, cache=cache)
    sampled = posterior_mean_importance(
        model, space, grid, sample, draws=30_000, seed=4, cache=cache
    )
    gap = np.abs(tensor.theta.vector - sampled.theta.vector)
    assert np.all(gap < 3.0 * sampled.stderr)


def test_bayes_tracks_mle_at_moderate_n():
    model, space, theta = trig_scaled_model()
    grid = uniform_grid(1000, 0.1)
    cache = MomentCache(model, grid)
    sample = simulate_increments(model, theta, grid, seed=900, cache=cache)
    mle = closed_form_mle(model, space, grid, sample, cache=cache)
    bayes = posterior_mean_quadrature(model, space, grid, sample, cache=cache)
    assert np.all(np.abs(bayes.theta.vector - mle.theta.vector) < 0.05)


def test_posterior_mean_minimizes_squared_error_risk():
    model, space, _ = mean_model()
    grid = uniform_grid(10, 1.0)
    sqrt_t = np.sqrt(grid.total_time)
    lo, hi = space.alpha_box[0]
    rng = np.random.default_rng(2024)
    cache = MomentCache(model, grid)
    losses = {"bayes": [], "mle": [], "median": []}
    for rep in range(300):
        truth = float(rng.uniform(lo, hi))
        sample = simulate_increments(
            model, Theta((truth,), ()), grid, seed=6000, replicate=rep, cache=cache
        )
        mle = closed_form_mle(model, space, grid, sample, cache=cache)
        loc = mle.theta.alpha[0]
        a, b = (lo - loc) * sqrt_t, (hi - loc) * sqrt_t
        bayes = posterior_mean_quadrature(
            model, space, grid, sample, rel_tol=1e-8, cache=cache
        )
        median = stats.truncnorm.median(a, b, loc, 1.0 / sqrt_t)
        losses["bayes"].append((bayes.theta.alpha[0] - truth) ** 2)
        losses["mle"].append((loc - truth) ** 2)
        losses["median"].append((median - truth) ** 2)
    bayes_loss = np.array(losses["bayes"])
    for other in ("mle", "median"):
        diff = np.array(losses[other]) - bayes_loss
        se = diff.std(ddof=1) / np.sqrt(diff.size)
        assert diff.mean() > -se


def test_known_noise_scale_equivariance():
    base, space, theta = trig_known_model()
    loud = ModelSpec(
        LinearSignal((ConstantFn(), CosineFn(1.0))),
        KnownNoise(constant_profile(4.0)),
    )
    grid = uniform_grid(80, 0.25)
    sample = simulate_increments(base, theta, grid, seed=31)
    a = closed_form_mle(base, space, grid, sample)
    b = closed_form_mle(loud, space, grid, sample)
    assert np.allclose(a.theta.alpha, b.theta.alpha, atol=1e-12)


def test_gaussian_prior_pulls_toward_its_center():
    model, space, _ = mean_model()
    grid = uniform_grid(4, 0.5)  # little data: the prior matters
    sample = simulate_increments(model, Theta((1.5,), ()), grid, seed=64)
    flat = posterior_mean_quadrature(model, space, grid, sample)
    pulled = posterior_mean_quadrature(
        model, space, grid, sample, prior=Prior("gaussian", (0.2,), (0.3,))
    )
    assert pulled.theta.alpha[0] < flat.theta.alpha[0]


def test_prior_validation():
    with pytest.raises(DomainError):
        Prior("jeffreys")
    with pytest.raises(DomainError):
        Prior("gaussian", (0.0,), ())
    with pytest.raises(DomainError):
        Prior("gaussian", (0.0,), (-1.0,))


def test_importance_sampling_is_deterministic():
    model, space, theta = trig_scaled_model()
    grid = uniform_grid(100, 0.25)
    sample = simulate_increments(model, theta, grid, seed=3)
    a = posterior_mean_importance(model, space, grid, sample, draws=4000, seed=12)
    b = posterior_mean_importance(model, space, grid, sample, draws=4000, seed=12)
    assert np.array_equal(a.theta.vector, b.theta.vector)
    c = posterior_mean_importance(model, space, grid, sample, draws=4000, seed=13)
    assert not np.array_equal(a.theta.vector, c.theta.vector)


def test_tensor_cubature_dimension_guard():
    atoms = (ConstantFn(),) + tuple(CosineFn(float(k)) for k in range(1, 5))
    model = ModelSpec(LinearSignal(atoms), KnownNoise(constant_profile(1.0)))
    space = ParameterSpace(tuple((-2.0, 2.0) for _ in range(5)), ())
    grid = uniform_grid(50, 0.25)
    sample = simulate_increments(model, Theta((1.0, 0.0, 0.0, 0.0, 0.0), ()), grid, seed=2)
    with pytest.raises(DomainError):
        posterior_mean_quadrature(model, space, grid, sample)


def _trig_model(noise: str, level: float):
    """Drift level * (1, 0.5 cos 2 pi t) with known or scaled unit-rate noise."""
    family = ScaledNoise if noise == "scaled" else KnownNoise
    model = ModelSpec(LinearSignal((ConstantFn(), CosineFn(1.0))), family(constant_profile(1.0)))
    beta_box = ((0.1, 4.0),) if noise == "scaled" else ()
    space = ParameterSpace(((0.0, 2.0 * level), (-level, level)), beta_box)
    theta = Theta((level, 0.5 * level), (1.0,) if noise == "scaled" else ())
    return model, space, theta


def _points_near_fit(rng, model, space, grid, cache, y, count, width):
    """Points within width standard errors of the closed-form fit (scales in [0.5, 2])."""
    fit = closed_form_mle(model, space, grid, IncrementSample(y, 0, 0, grid.digest()), cache)
    p = model.p
    alpha = fit.theta.alpha + width * fit.stderr[:p] * rng.uniform(-1.0, 1.0, (count, p))
    if model.q == 0:
        return alpha
    return np.column_stack([alpha, rng.uniform(0.5, 2.0, count)])


@pytest.mark.parametrize("noise", ["known", "scaled"])
@pytest.mark.parametrize(
    "grid",
    [uniform_grid(2000, 49.7), periodic_pattern_grid((29.7, 99.1), 99.1, 1000)],
    ids=["uniform", "pattern"],
)
@pytest.mark.parametrize("level", [1.0, 1e3])
def test_linear_statistics_match_log_likelihood(noise, grid, level):
    # T near 1e5.  Half of the points sit within 6 standard errors of the
    # fit, where the log-likelihood is far smaller than y'Wy: a quadratic
    # expanded at zero instead of at the fit misses there by ~1e-8 relative.
    model, space, theta = _trig_model(noise, level)
    cache = MomentCache(model, grid)
    y = simulate_increments(model, theta, grid, seed=31, cache=cache).y
    rng = np.random.default_rng(8)
    points = np.vstack([
        space.lower + space.widths * rng.uniform(size=(1000, space.d)),
        _points_near_fit(rng, model, space, grid, cache, y, 1000, 6.0),
    ])
    got = _make_batch_loglik(cache, y)(points)
    ref = np.array(
        [log_likelihood(cache.moments(Theta.from_vector(v, model.p)), y) for v in points]
    )
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12


@pytest.mark.parametrize("noise", ["known", "scaled"])
def test_linear_statistics_match_mpmath_oracle_at_long_horizon(noise):
    # T = 1e7 and drift 1e3: y'Wy is ~1e13 while the log-likelihood near
    # the fit is ~5e3.  Both routes take the same float inputs; the oracle
    # evaluates the exact sum in 40 digits.
    model, space, theta = _trig_model(noise, 1e3)
    grid = uniform_grid(1000, 9999.7)
    cache = MomentCache(model, grid)
    y = simulate_increments(model, theta, grid, seed=32, cache=cache).y
    points = _points_near_fit(np.random.default_rng(9), model, space, grid, cache, y, 20, 3.0)
    b = cache.signal_basis_integrals()
    g = cache.noise_profile_integrals()
    statistics = _make_batch_loglik(cache, y)(points)
    direct = np.array(
        [log_likelihood(cache.moments(Theta.from_vector(v, model.p)), y) for v in points]
    )
    oracle = []
    with mpmath.workdps(40):
        for v in points:
            alpha = [mpmath.mpf(float(a)) for a in v[: model.p]]
            scale = mpmath.mpf(float(v[model.p])) if model.q else mpmath.mpf(1)
            total = -mpmath.mpf(grid.n) / 2 * mpmath.log(2 * mpmath.pi)
            for bi, gi, yi in zip(b.tolist(), g.tolist(), y.tolist()):
                var = scale * mpmath.mpf(gi)
                resid = mpmath.mpf(yi) - sum(mpmath.mpf(bij) * a for bij, a in zip(bi, alpha))
                total -= (mpmath.log(var) + resid * resid / var) / 2
            oracle.append(total)
        err_statistics, err_direct = (
            float(max(abs(mpmath.mpf(float(v)) - o) / abs(o) for v, o in zip(route, oracle)))
            for route in (statistics, direct)
        )
    assert err_statistics <= 10.0 * err_direct


def test_gram_is_factored_once_per_cache(monkeypatch):
    factor = signoise.increments.cho_factor
    calls = []
    monkeypatch.setattr(
        signoise.increments, "cho_factor", lambda gram: calls.append(1) or factor(gram)
    )
    model, space, theta = trig_scaled_model()
    grid = uniform_grid(100, 0.25)
    cache = MomentCache(model, grid)
    ys = simulate_batch(model, theta, grid, seed=21, replicates=3, cache=cache)
    for r, y in enumerate(ys):
        sample = IncrementSample(y, 21, r, grid.digest())
        closed_form_mle(model, space, grid, sample, cache=cache)
        cache.linear_design().fit(ys.T)
        posterior_mean_quadrature(model, space, grid, sample, rel_tol=1e-4, cache=cache)
        posterior_mean_importance(model, space, grid, sample, draws=500, cache=cache)
    assert len(calls) == 1


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_tensor_rule_matches_meshgrid_construction(d):
    rng = np.random.default_rng(d)
    lo = rng.uniform(-3.0, 0.0, d)
    hi = lo + rng.uniform(0.01, 2.0, d)
    for order in (5, 9):
        x, w = np.polynomial.legendre.leggauss(order)
        nodes, weights = 0.5 * (x + 1.0), 0.5 * w
        axes = [lo[k] + (hi[k] - lo[k]) * nodes for k in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        wts = weights
        for _ in range(d - 1):
            wts = np.multiply.outer(wts, weights)
        got_pts, got_wts = _tensor_points(lo, hi, order)
        assert np.array_equal(got_pts, pts)
        assert np.array_equal(got_wts, wts.ravel() * float(np.prod(hi - lo)))


@pytest.mark.parametrize("length", [1, 2])
def test_gaussian_prior_length_must_match_dimension(length):
    model, space, theta = trig_scaled_model()
    grid = uniform_grid(50, 0.25)
    sample = simulate_increments(model, theta, grid, seed=4)
    prior = Prior("gaussian", (0.0,) * length, (1.0,) * length)
    message = f"gaussian prior has length {length}, but the parameter vector has d = 3"
    for route in (posterior_mean_quadrature, posterior_mean_importance):
        with pytest.raises(DomainError, match=message):
            route(model, space, grid, sample, prior=prior)
