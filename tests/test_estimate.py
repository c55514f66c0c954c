import re

import mpmath
import numpy as np
import pytest
from scipy import stats

import signoise.estimate
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
    ModelSpec,
    MomentCache,
    NoiseFloorViolation,
    OptimizationError,
    ParameterSpace,
    Prior,
    ScaledNoise,
    SineFn,
    SingularDesignError,
    Theta,
    closed_form_mle,
    constant_profile,
    derive_seed,
    log_likelihood,
    mle_numeric,
    normal_stream,
    periodic_pattern_grid,
    posterior_mean_importance,
    posterior_mean_quadrature,
    score,
    simulate_batch,
    simulate_increments,
    uniform_grid,
)

from signoise.estimate import (
    _BLOCK_NODES,
    _MULTISTARTS,
    _PROPOSAL_SCALE,
    _halton_starts,
    _integrate_cells,
    _make_batch_loglik,
)

from helpers import curved_model, mean_model, steps_model, trig_known_model, trig_scaled_model


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
    hits = 0
    for r in range(draws.shape[0]):
        sample = IncrementSample(draws[r], 271, r, grid.digest())
        fit = mle_numeric(model, space, grid, sample, cache=cache)
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


def test_scaled_block_fit_is_bit_equal_to_its_unfused_expressions():
    # the residual sum is formed in one buffer of the same layout, so a
    # (n, k) block and a single column both sum in the same order as before
    model, _, theta = trig_scaled_model()
    grid = uniform_grid(400, 0.25)
    cache = MomentCache(model, grid)
    design = cache.linear_design()
    ys = simulate_batch(model, theta, grid, seed=17, replicates=37, cache=cache)
    for y in (ys.T, ys[5]):
        alpha = design.solve(y)
        resid = y - design.basis @ alpha
        q0 = np.sum((resid * resid).T / design.profile, axis=-1)
        expected = np.concatenate([alpha, (q0 / y.shape[0])[None]]).T
        assert np.array_equal(design.fit(y), expected)


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


@pytest.mark.parametrize("build", [trig_known_model, trig_scaled_model, steps_model])
def test_closed_form_estimators_run_on_a_forced_quadrature_cache(build):
    # force_quadrature picks the moment route only; the precomputed basis and
    # profile integrals the closed forms read are there either way
    model, space, theta = build()
    grid = uniform_grid(200, 0.25)
    sample = simulate_increments(model, theta, grid, seed=31)
    forced = MomentCache(model, grid, force_quadrature=True)
    fit = closed_form_mle(model, space, grid, sample, cache=forced)
    default = closed_form_mle(model, space, grid, sample, cache=MomentCache(model, grid))
    assert np.array_equal(fit.theta.vector, default.theta.vector)
    post = posterior_mean_importance(model, space, grid, sample, draws=2000, seed=1, cache=forced)
    assert np.all(np.isfinite(post.theta.vector))


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

    # scoring holds the scale on the face, where its score points out of the
    # box; the free drift scores vanish to rounding against their own scale
    assert fit.converged and fit.theta.beta[0] == lo
    at_fit = cache.moments(fit.theta)
    g = score(at_fit, y)
    assert g[2] < 0.0
    info = np.sum(at_fit.grad_mean**2 / at_fit.var[:, None], axis=0)
    assert np.all(np.abs(g[:2]) <= 1e-9 * np.sqrt(info))


def test_scoring_matches_a_quasi_newton_ascent_from_the_best_start():
    # oracle: L-BFGS-B from the same screened start, as the numeric MLE ran
    # before it took Fisher-scoring steps
    from scipy.optimize import minimize

    model, space, theta = curved_model()
    grid = uniform_grid(400, 0.25)
    cache = MomentCache(model, grid)

    def loglik(x):
        return log_likelihood(cache.moments(Theta.from_vector(x, model.p)), sample.y)

    def negative(x):
        m = cache.moments(Theta.from_vector(x, model.p))
        return -log_likelihood(m, sample.y), -score(m, sample.y)

    # replicate 31 ends on a step no halving ascends, whose predicted gain is
    # below the log-likelihood's rounding: that stall is the optimum
    for r in (0, 1, 2, 31):
        sample = simulate_increments(model, theta, grid, seed=61, replicate=r, cache=cache)
        fit = mle_numeric(model, space, grid, sample, cache=cache)
        start = max(_halton_starts(space, _MULTISTARTS), key=loglik)
        ref = minimize(
            negative, start, jac=True, method="L-BFGS-B", bounds=list(zip(*space.interior_bounds)),
            options={"maxiter": 500, "ftol": 1e-13, "gtol": 1e-8},
        )
        assert fit.converged
        assert fit.log_lik >= -ref.fun - 1e-9 * abs(ref.fun)
        np.testing.assert_allclose(fit.theta.vector, ref.x, rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("count", [2, 8, 16])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_halton_starts_match_scipy_qmc(d, count):
    from scipy.stats import qmc

    space = ParameterSpace(tuple((-1.0 - k, 2.0 + k) for k in range(d)), ())
    sampler = qmc.Halton(d=d, scramble=False)
    sampler.fast_forward(1)
    lo, hi = space.interior_bounds
    np.testing.assert_array_equal(
        _halton_starts(space, count), lo + sampler.random(count) * (hi - lo)
    )


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
    assert len(diagnostics) == _MULTISTARTS == 8
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


def test_posterior_mean_factorises_into_truncated_normals_at_d3():
    model = ModelSpec(
        LinearSignal((ConstantFn(), CosineFn(1.0), SineFn(1.0))),
        KnownNoise(constant_profile(1.0)),
    )
    space = ParameterSpace(((0.0, 2.0), (-1.0, 1.0), (-1.0, 1.0)), ())
    # four instants per period: the weighted Gram matrix is diagonal up to
    # rounding, so the flat-prior posterior is a product of truncated normals
    grid = uniform_grid(16, 0.25)
    cache = MomentCache(model, grid)
    sample = simulate_increments(model, Theta((0.2, 0.6, -0.3), ()), grid, seed=7, cache=cache)
    gram = cache.linear_design().gram
    assert np.abs(gram - np.diag(np.diag(gram))).max() <= 1e-15 * np.abs(gram).max()
    loc = closed_form_mle(model, space, grid, sample, cache=cache).theta.vector
    scale = 1.0 / np.sqrt(np.diag(gram))
    lo, hi = space.lower, space.upper
    oracle = stats.truncnorm.mean((lo - loc) / scale, (hi - loc) / scale, loc, scale)
    assert np.abs(oracle - loc).max() > 0.1  # visibly truncated
    got = posterior_mean_quadrature(model, space, grid, sample, rel_tol=1e-9, cache=cache)
    assert got.theta.vector == pytest.approx(oracle, abs=1e-7)


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
        model, space, grid, sample, prior=Prior((0.2,), (0.3,))
    )
    assert pulled.theta.alpha[0] < flat.theta.alpha[0]


def test_prior_validation():
    with pytest.raises(DomainError):
        Prior((0.0,), ())
    with pytest.raises(DomainError):
        Prior((0.0,), (-1.0,))


def test_prior_accepts_any_sequence_of_numbers():
    # arrays used to reach `if self.center`, which numpy refuses as ambiguous
    coords = (np.array([0.3, -1.0]), np.array([2.0, 0.5]))
    priors = [
        Prior(np.array([0.0, 1.0]), np.array([1.0, 2.0])),
        Prior([0.0, 1.0], [1.0, 2.0]),
        Prior((0.0, 1.0), (1.0, 2.0)),
    ]
    for prior in priors:
        prior.check_dimension(2)
        assert prior == priors[-1]
        assert np.array_equal(prior.log_density(coords), priors[-1].log_density(coords))


@pytest.mark.parametrize(
    "center, scale, axis",
    [((0.0, np.nan), (1.0, 1.0), 1), ((0.0, 0.0), (np.inf, 1.0), 0), ((0.0,), (np.nan,), 0)],
)
def test_gaussian_prior_rejects_non_finite_values(center, scale, axis):
    # a NaN scale passes the positivity test; the posterior would then be NaN everywhere
    with pytest.raises(DomainError, match=f"must be finite: axis {axis} "):
        Prior(center, scale)


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


@pytest.mark.parametrize("rel_tol", [float("nan"), -1.0, 0.0, float("inf")])
def test_cubature_rel_tol_must_be_finite_and_positive(rel_tol):
    # non-positive or NaN tolerances would refine to the 4096-cell cap, and
    # an infinite one would stop after the first partition
    model, space, theta = trig_scaled_model()
    grid = uniform_grid(50, 0.25)
    sample = simulate_increments(model, theta, grid, seed=5)
    with pytest.raises(DomainError, match=rf"rel_tol must be finite and > 0, got {rel_tol!r}"):
        posterior_mean_quadrature(model, space, grid, sample, rel_tol=rel_tol)


@pytest.mark.parametrize("draws", [2.5, 1, True, np.float64(100.0)])
def test_importance_draws_must_be_an_integer_of_at_least_two(draws):
    model, space, theta = trig_scaled_model()
    grid = uniform_grid(50, 0.25)
    sample = simulate_increments(model, theta, grid, seed=5)
    with pytest.raises(DomainError, match=re.escape(f"draws must be an integer >= 2, got {draws!r}")):
        posterior_mean_importance(model, space, grid, sample, draws=draws)


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
    got = _make_batch_loglik(cache, y)(tuple(points.T))
    ref = np.array(
        [log_likelihood(cache.moments(Theta.from_vector(v, model.p)), y) for v in points]
    )
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12


@pytest.mark.parametrize(
    "make", [trig_known_model, trig_scaled_model, curved_model], ids=["known", "scaled", "general"]
)
def test_batch_log_likelihood_takes_per_axis_coordinates(make):
    # the contract of both Bayes routes: per-axis nodes of cells' tensor grids,
    # axis i of shape (cells, 1, ..., order, ..., 1), or flat coordinates (k,)
    model, space, theta = make()
    grid = uniform_grid(60, 0.25)
    cache = MomentCache(model, grid)
    y = simulate_increments(model, theta, grid, seed=12, cache=cache).y
    batch = _make_batch_loglik(cache, y)
    rng = np.random.default_rng(12)
    lo, hi = space.lower + 0.1 * space.widths, space.upper - 0.1 * space.widths
    d, cells, order = space.d, 2, 3
    shapes = np.eye(d, dtype=int) * (order - 1) + 1
    axes = [rng.uniform(lo[i], hi[i], (cells, order)).reshape(-1, *shapes[i]) for i in range(d)]
    tensor = batch(axes)
    assert tensor.shape == (cells,) + (order,) * d
    flat_points = rng.uniform(lo, hi, (20, d))
    flat = batch(tuple(flat_points.T))
    assert flat.shape == (20,)
    tensor_points = np.stack(np.broadcast_arrays(*axes), axis=-1).reshape(-1, d)
    for got, points in ((tensor.ravel(), tensor_points), (flat, flat_points)):
        ref = np.array(
            [log_likelihood(cache.moments(Theta.from_vector(v, model.p)), y) for v in points]
        )
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


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
    statistics = _make_batch_loglik(cache, y)(tuple(points.T))
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
    factor = np.linalg.cholesky
    calls = []
    monkeypatch.setattr(np.linalg, "cholesky", lambda gram: calls.append(1) or factor(gram))
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


def test_rank_deficient_basis_raises_singular_design():
    # two identical atoms on h = 0.25, n = 16 with unit noise: every Gram
    # entry is exactly 4.0, so the second Cholesky pivot is exactly 0
    model = ModelSpec(LinearSignal((ConstantFn(), ConstantFn())), KnownNoise(constant_profile(1.0)))
    space = ParameterSpace(((-2.0, 2.0), (-2.0, 2.0)), ())
    grid = uniform_grid(16, 0.25)
    cache = MomentCache(model, grid)
    with pytest.raises(SingularDesignError, match="Gram matrix is singular"):
        cache.linear_design()
    sample = IncrementSample(np.full(16, 0.25), 0, 0, grid.digest())
    with pytest.raises(SingularDesignError, match="Gram matrix is singular"):
        closed_form_mle(model, space, grid, sample)


@pytest.mark.parametrize("make", [trig_known_model, trig_scaled_model])
def test_returned_covariance_does_not_alias_the_design(make):
    model, space, theta = make()
    grid = uniform_grid(40, 0.25)
    cache = MomentCache(model, grid)
    kept = cache.linear_design().gram_inverse.copy()
    sample = simulate_increments(model, theta, grid, seed=5, cache=cache)
    cov = closed_form_mle(model, space, grid, sample, cache=cache).covariance
    expected = cov.copy()
    cov[...] = 0.0
    assert np.array_equal(cache.linear_design().gram_inverse, kept)
    again = closed_form_mle(model, space, grid, sample, cache=cache).covariance
    assert np.array_equal(again, expected)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_tensor_rule_matches_meshgrid_construction(d):
    per_cell = 5**d + 9**d
    count = 2 * max(1, _BLOCK_NODES // per_cell) + 1  # cells filling three node blocks
    rng = np.random.default_rng(d)
    lo = rng.uniform(-3.0, 0.0, (count, d))
    hi = lo + rng.uniform(0.01, 2.0, (count, d))
    calls = []

    def components(pts):
        weight = np.exp(np.sin(pts.sum(axis=1)))
        return np.column_stack([weight, weight[:, None] * pts])

    def recorded(coords):
        grid = np.stack(np.broadcast_arrays(*coords), axis=-1)  # (cells, order, ..., order, d)
        calls.append(grid.reshape(len(grid), -1, d))
        return np.sin(sum(coords))

    high, err = _integrate_cells(recorded, lo, hi)
    assert len(calls) == 6  # one per rule, order 5 then order 9, in each of three blocks
    blocks = list(zip(calls[0::2], calls[1::2]))
    assert all(a.size + b.size <= d * max(_BLOCK_NODES, per_cell) for a, b in blocks)
    got = {order: np.concatenate(calls[k::2]) for k, order in enumerate((5, 9))}
    rules = {order: np.polynomial.legendre.leggauss(order) for order in (5, 9)}
    for i in range(count):
        integrals = []
        for order, (x, w) in rules.items():
            nodes, weights = 0.5 * (x + 1.0), 0.5 * w
            axes = [lo[i, k] + (hi[i, k] - lo[i, k]) * nodes for k in range(d)]
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=-1)
            wts = weights
            for _ in range(d - 1):
                wts = np.multiply.outer(wts, weights)
            assert np.array_equal(got[order][i], pts)
            integrals.append((wts.ravel() * float(np.prod(hi[i] - lo[i]))) @ components(pts))
        scale = np.abs(integrals[1]).max()
        assert high[i] == pytest.approx(integrals[1], rel=1e-13, abs=1e-13 * scale)
        oracle_err = np.abs(integrals[1] - integrals[0]).max()
        assert err[i] == pytest.approx(oracle_err, rel=1e-6, abs=1e-13 * scale)


@pytest.mark.parametrize("length", [1, 2])
def test_gaussian_prior_length_must_match_dimension(length):
    model, space, theta = trig_scaled_model()
    grid = uniform_grid(50, 0.25)
    sample = simulate_increments(model, theta, grid, seed=4)
    prior = Prior((0.0,) * length, (1.0,) * length)
    message = f"gaussian prior has length {length}, but the parameter vector has d = 3"
    for route in (posterior_mean_quadrature, posterior_mean_importance):
        with pytest.raises(DomainError, match=message):
            route(model, space, grid, sample, prior=prior)


def _closed_form_corpus():
    """(model, space, grid, sample) of each closed-form family on two layouts, three
    seeds each, and the scaled trig drift at T near 1e5 with drift level 1e3."""
    grids = (uniform_grid(400, 0.25), periodic_pattern_grid((0.25, 1.0), 1.0, 200))
    for build in (mean_model, trig_known_model, trig_scaled_model, steps_model):
        model, space, theta = build()
        for grid in grids:
            cache = MomentCache(model, grid)
            for seed in (3, 4, 5):
                yield model, space, grid, simulate_increments(model, theta, grid, seed, cache=cache)
    model, space, theta = _trig_model("scaled", 1e3)
    grid = uniform_grid(2000, 49.7)
    yield model, space, grid, simulate_increments(model, theta, grid, seed=31)


def test_closed_form_log_lik_matches_the_moment_route():
    for model, space, grid, sample in _closed_form_corpus():
        cache = MomentCache(model, grid)
        fit = closed_form_mle(model, space, grid, sample, cache=cache)
        ref = log_likelihood(cache.moments(fit.theta), sample.y)
        assert abs(fit.log_lik - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("case", ["zero scale", "scale below the floor"])
def test_closed_form_log_lik_is_infinite_at_the_floor(case):
    # perfect interpolation: the fitted variances sit at or below floor*delay
    model, space, theta = trig_scaled_model()
    grid = uniform_grid(50, 0.25)
    cache = MomentCache(model, grid)
    y = cache.signal_basis_integrals() @ theta.alpha
    if case == "scale below the floor":
        y += 1e-9 * np.random.default_rng(2).standard_normal(grid.n)
    fit = closed_form_mle(model, space, grid, IncrementSample(y, 0, 0, grid.digest()), cache=cache)
    assert fit.log_lik == np.inf
    with pytest.raises(NoiseFloorViolation):
        cache.moments(fit.theta)


@pytest.mark.parametrize("grid", [uniform_grid(10, 0.5), uniform_grid(50, 0.25)],
                         ids=["n10", "n50"])
def test_closed_form_refuses_known_variances_below_the_floor(grid):
    # known variances have no scale to collapse: the closed form refuses them as the
    # moments and every start of the numeric MLE do, whatever the sample
    model, space, theta = trig_known_model()
    model = ModelSpec(model.signal, KnownNoise(constant_profile(1e-13)))
    cache = MomentCache(model, grid)
    y = cache.signal_basis_integrals() @ theta.alpha
    sample = IncrementSample(y, 0, 0, grid.digest())
    with pytest.raises(NoiseFloorViolation, match="on interval 0 is at or below floor"):
        closed_form_mle(model, space, grid, sample, cache=cache)
    with pytest.raises(OptimizationError, match="start 0: NoiseFloorViolation"):
        mle_numeric(model, space, grid, sample, cache=cache)


def _same_estimate(a, b):
    for field in ("stderr", "covariance"):
        x, y = getattr(a, field), getattr(b, field)
        assert (x is None and y is None) or np.array_equal(x, y)
    assert np.array_equal(a.theta.vector, b.theta.vector)
    assert (a.log_lik, a.converged, a.iterations) == (b.log_lik, b.converged, b.iterations)


def _mle_corpus():
    """Closed-form fits, one with starts under the noise floor, one with a singular design."""
    for model, space, grid, sample in _closed_form_corpus():
        yield model, space, grid, sample
    model, _, theta = trig_scaled_model()
    grid = uniform_grid(200, 0.5)
    negative = ParameterSpace(((-3.0, 3.0), (-3.0, 3.0)), ((-1.0, 3.0),))  # 3 of 8 starts fail
    yield model, negative, grid, simulate_increments(model, theta, grid, seed=7)
    twin = ModelSpec(LinearSignal((ConstantFn(), ConstantFn())), KnownNoise(constant_profile(1.0)))
    grid = uniform_grid(16, 0.25)
    yield twin, ParameterSpace(((-2.0, 2.0), (-2.0, 2.0)), ()), grid, simulate_increments(
        twin, Theta((0.5, 0.5), ()), grid, seed=1
    )


def test_numeric_mle_screen_is_bit_identical_to_a_point_by_point_screen(monkeypatch):
    fewer = 0
    for model, space, grid, sample in _mle_corpus():
        runs, calls = [], []
        for batched in (True, False):
            cache = MomentCache(model, grid)
            counted = cache.moments
            monkeypatch.setattr(cache, "moments", lambda t: calls.append(batched) or counted(t))
            if not batched:  # every start evaluated alone, as for a general family
                monkeypatch.setattr(signoise.estimate, "has_closed_form", lambda m: False)
            runs.append(mle_numeric(model, space, grid, sample, cache=cache))
            monkeypatch.undo()
        _same_estimate(*runs)
        fewer += calls.count(True) < calls.count(False)
    assert fewer >= 25


@pytest.mark.parametrize("beta_box", [(-3.0, -1.0), (1e-20, 1e-14)], ids=["negative", "tiny"])
def test_numeric_mle_reports_starts_under_the_floor_as_a_point_by_point_screen(
    beta_box, monkeypatch
):
    # tiny scales have finite log-likelihoods, but their variances are under the floor
    model, _, theta = trig_scaled_model()
    grid = uniform_grid(200, 0.5)
    sample = simulate_increments(model, theta, grid, seed=7)
    space = ParameterSpace(((-3.0, 3.0), (-3.0, 3.0)), (beta_box,))
    messages = []
    for batched in (True, False):
        if not batched:
            monkeypatch.setattr(signoise.estimate, "has_closed_form", lambda m: False)
        with pytest.raises(OptimizationError) as info:
            mle_numeric(model, space, grid, sample)
        messages.append((str(info.value), info.value.diagnostics))
    assert messages[0] == messages[1]
    assert messages[0][1][0].startswith("start 0: NoiseFloorViolation: increment variance ")


def _importance_by_rows(cache, space, sample, anchor, prior, draws, seed):
    """The importance estimate with inside, log q and the accepted points formed
    on (draws, d) arrays, reduced along rows; log q sums each row's squares in order."""
    scale = _PROPOSAL_SCALE * np.maximum(anchor.stderr, 1e-12)
    d = space.d
    z = normal_stream(derive_seed(seed, "bayes-is"), 0, draws * d).reshape(draws, d)
    pts = anchor.theta.vector + z * scale
    inside = np.all((pts > space.lower) & (pts < space.upper), axis=1)
    log_w = np.full(draws, -np.inf)
    log_q = -0.5 * np.cumsum(z * z, axis=1)[:, -1]
    coords = tuple(pts[inside].T)
    log_w[inside] = (
        _make_batch_loglik(cache, sample.y)(coords) - anchor.log_lik + prior.log_density(coords)
        - log_q[inside]
    )
    log_w -= log_w.max()
    w = np.exp(log_w)
    w_sum = float(w.sum())
    mean = (w @ pts) / w_sum
    se = np.sqrt(np.sum((w[:, None] * (pts - mean)) ** 2, axis=0)) / w_sum
    return np.clip(mean, space.lower, space.upper), se, w_sum**2 / float(np.sum(w * w)), inside


def test_importance_is_bit_identical_to_its_row_formulas():
    # d = 1, 2, 3 and 8, where numpy's np.sum would add a row's squares pairwise
    wide = ModelSpec(
        LinearSignal((ConstantFn(), *(CosineFn(f) for f in (0.3, 0.7, 1.3)),
                      *(SineFn(f) for f in (0.3, 0.7, 1.3)))),
        ScaledNoise(constant_profile(1.0)),
    )
    wide_space = ParameterSpace(((-3.0, 3.0),) * 7, ((0.1, 4.0),))
    cases = [build() for build in (mean_model, trig_known_model, trig_scaled_model)]
    cases.append((wide, wide_space, Theta((1.0, 0.5, 0.2, 0.1, -0.3, 0.2, 0.1), (1.0,))))
    partial_hits = 0
    for model, space, theta in cases:
        grid = uniform_grid(200, 0.25)
        cache = MomentCache(model, grid)
        sample = simulate_increments(model, theta, grid, seed=13, cache=cache)
        fit = closed_form_mle(model, space, grid, sample, cache=cache)
        # a proposal with a quarter of the box's width per axis puts draws outside it
        for stderr in (fit.stderr, space.widths / 6.0):
            anchor = EstimateResult(fit.theta, fit.log_lik, True, 0, "mle-closed", stderr=stderr)
            for prior in (Prior(), Prior(tuple(theta.vector), (1.0,) * space.d)):
                got = posterior_mean_importance(
                    model, space, grid, sample, prior=prior, draws=3000, seed=2, anchor=anchor,
                    cache=cache,
                )
                mean, se, ess, inside = _importance_by_rows(cache, space, sample, anchor, prior,
                                                            3000, 2)
                assert np.array_equal(got.theta.vector, mean)
                assert np.array_equal(got.stderr, se)
                assert got.effective_draws == ess
                partial_hits += not inside.all()
    assert partial_hits >= 4


def test_cubature_cells_do_not_depend_on_the_node_block(monkeypatch):
    # test 08's sample (n = 1000, rel_tol 1e-6) and four more at rel_tol 1e-5
    model, space, theta = trig_scaled_model()
    grid = uniform_grid(1000, 0.1)
    cache = MomentCache(model, grid)
    cases = [(808, 0, 1e-6)] + [(809, r, 1e-5) for r in range(4)]
    for seed, replicate, rel_tol in cases:
        sample = simulate_increments(model, theta, grid, seed, replicate, cache=cache)
        runs = []
        for nodes in (2**16, 2**13):
            monkeypatch.setattr(signoise.estimate, "_BLOCK_NODES", nodes)
            runs.append(posterior_mean_quadrature(model, space, grid, sample, rel_tol=rel_tol,
                                                  cache=cache))
        assert runs[0].cells == runs[1].cells
        a, b = runs[0].theta.vector, runs[1].theta.vector
        assert np.all(np.abs(a - b) <= 1e-15 * np.abs(b))


def _same_bayes(a, b):
    assert np.array_equal(a.theta.vector, b.theta.vector)
    assert (a.stderr is None and b.stderr is None) or np.array_equal(a.stderr, b.stderr)
    assert (a.method, a.cells, a.draws) == (b.method, b.cells, b.draws)
    assert (a.effective_draws, a.error_estimate) == (b.effective_draws, b.error_estimate)


def _anchor_rule_cases():
    """(model, space, grid, sample, the anchor the Bayes routes must pick)."""
    model, space, theta = trig_scaled_model()
    grid = uniform_grid(200, 0.25)
    sample = simulate_increments(model, theta, grid, seed=21)
    fit = closed_form_mle(model, space, grid, sample)
    assert space.contains(fit.theta)
    yield model, space, grid, sample, fit
    # every increment is 1.05 h: the exact fit 1.05 leaves the box (0.9, 1.0)
    model, _, _ = mean_model()
    narrow = ParameterSpace(((0.9, 1.0),), ())
    grid = uniform_grid(20, 0.5)
    sample = IncrementSample(np.full(20, 0.525), 0, 0, grid.digest())
    assert not narrow.contains(closed_form_mle(model, narrow, grid, sample).theta)
    yield model, narrow, grid, sample, mle_numeric(model, narrow, grid, sample)
    model, space, theta = curved_model()
    grid = uniform_grid(40, 0.5)
    sample = simulate_increments(model, theta, grid, seed=3)
    yield model, space, grid, sample, mle_numeric(model, space, grid, sample)


def test_bayes_routes_anchor_at_the_closed_form_in_the_box_else_the_numeric_mle():
    for model, space, grid, sample, anchor in _anchor_rule_cases():
        for route, settings in (
            (posterior_mean_quadrature, {"rel_tol": 1e-4}),
            (posterior_mean_importance, {"draws": 500, "seed": 5}),
        ):
            implicit = route(model, space, grid, sample, **settings)
            explicit = route(model, space, grid, sample, anchor=anchor, **settings)
            _same_bayes(implicit, explicit)


def test_bayes_routes_scale_an_anchor_without_stderr_by_the_box_widths():
    model, space, theta = trig_scaled_model()
    grid = uniform_grid(200, 0.25)
    sample = simulate_increments(model, theta, grid, seed=21)
    fit = closed_form_mle(model, space, grid, sample)
    bare, widths = (
        EstimateResult(fit.theta, fit.log_lik, True, 0, "mle-closed", stderr=stderr)
        for stderr in (None, 0.05 * space.widths)
    )
    for route, settings in (
        (posterior_mean_quadrature, {"rel_tol": 1e-4}),
        (posterior_mean_importance, {"draws": 500, "seed": 5}),
    ):
        _same_bayes(route(model, space, grid, sample, anchor=bare, **settings),
                    route(model, space, grid, sample, anchor=widths, **settings))
