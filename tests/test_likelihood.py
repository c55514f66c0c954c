import re

import mpmath
import numpy as np
import pytest
from scipy import stats

from signoise import (
    DomainError,
    MomentCache,
    OutOfSpaceError,
    Theta,
    closed_form_mle,
    empirical_fisher,
    expected_power_identity,
    local_expansion,
    log_likelihood,
    score,
    simulate_batch,
    simulate_increments,
    uniform_grid,
)

from helpers import (
    curved_model,
    mean_model,
    sample_interior,
    trig_known_model,
    trig_scaled_model,
)

LN_2PI = float(np.log(2.0 * np.pi))


def _unit_moments():
    # single increment with F = 0, G^2 = 1
    model, _, _ = mean_model()
    return MomentCache(model, uniform_grid(1, 1.0)).moments(Theta((0.0,), ()))


def test_standard_normal_log_density_values():
    m = _unit_moments()
    assert log_likelihood(m, np.array([0.0])) == pytest.approx(-0.5 * LN_2PI, abs=1e-12)
    assert log_likelihood(m, np.array([0.0])) == pytest.approx(-0.9189385, abs=1e-7)
    assert log_likelihood(m, np.array([1.0])) == pytest.approx(
        -0.5 * LN_2PI - 0.5, abs=1e-12
    )


def test_log_likelihood_is_sum_of_univariate_log_densities():
    model, _, theta = trig_scaled_model()
    grid = uniform_grid(3, 0.4)
    m = MomentCache(model, grid).moments(theta)
    y = np.array([0.3, -0.8, 1.1])
    oracle = stats.norm.logpdf(y, loc=m.mean, scale=np.sqrt(m.var)).sum()
    assert log_likelihood(m, y) == pytest.approx(oracle, abs=1e-12)


def test_score_has_mean_zero_at_truth():
    model, _, theta = trig_scaled_model()
    grid = uniform_grid(100, 0.25)
    m = MomentCache(model, grid).moments(theta)
    draws = simulate_batch(model, theta, grid, seed=613, replicates=10_000)
    resid = draws - m.mean
    g_alpha = (resid / m.var) @ m.grad_mean
    wvec = (resid * resid / m.var - 1.0) / (2.0 * m.var)
    g_beta = wvec @ m.grad_var
    scores = np.hstack([g_alpha, g_beta])
    # spot check the vectorization against the reference implementation
    assert np.allclose(scores[0], score(m, draws[0]), atol=1e-10)
    mean = scores.mean(axis=0)
    se = scores.std(axis=0, ddof=1) / np.sqrt(scores.shape[0])
    assert np.all(np.abs(mean) < 4.0 * se)


def test_score_matches_finite_differences():
    rng = np.random.default_rng(71)
    for build in (trig_scaled_model, curved_model):
        model, space, _ = build()
        grid = uniform_grid(40, 0.3)
        cache = MomentCache(model, grid)
        for _ in range(10):
            theta = sample_interior(space, rng)
            y = simulate_increments(model, theta, grid, seed=99, cache=cache).y
            analytic = score(cache.moments(theta), y)
            vec = theta.vector
            fd = np.empty_like(analytic)
            for k in range(vec.size):
                h = 2e-5 * max(1.0, abs(vec[k]))
                up, down = vec.copy(), vec.copy()
                up[k] += h
                down[k] -= h
                fd[k] = (
                    log_likelihood(cache.moments(Theta.from_vector(up, model.p)), y)
                    - log_likelihood(cache.moments(Theta.from_vector(down, model.p)), y)
                ) / (2.0 * h)
            assert np.all(np.abs(analytic - fd) < 1e-6 * np.maximum(1.0, np.abs(fd)))


def test_score_vanishes_at_closed_form_mle():
    model, space, theta = trig_scaled_model()
    grid = uniform_grid(200, 0.25)
    cache = MomentCache(model, grid)
    sample = simulate_increments(model, theta, grid, seed=202, cache=cache)
    fit = closed_form_mle(model, space, grid, sample, cache=cache)
    s = score(cache.moments(fit.theta), sample.y)
    assert np.all(np.abs(s) < 1e-8)


def test_zero_direction_decomposition_is_degenerate():
    model, space, theta = trig_scaled_model()
    grid = uniform_grid(50, 0.25)
    cache = MomentCache(model, grid)
    sample = simulate_increments(model, theta, grid, seed=17, cache=cache)
    phi = empirical_fisher(cache.moments(theta), grid).local_scaling
    w = np.zeros((1, 3))
    expansion = local_expansion(model, space, theta, w, phi, cache)
    log_ratios, score_terms, remainders = expansion.evaluate(sample.y[None])
    assert log_ratios[0, 0] == 0.0
    assert score_terms[0] @ w[0] == 0.0
    assert remainders[0, 0] == 0.0
    assert np.all(np.isfinite(score_terms))
    # the central sequence is the score at the base point, rescaled
    central = score(cache.moments(theta), sample.y) @ phi
    assert np.all(np.abs(score_terms[0] - central) <= 1e-12 * (1.0 + np.abs(central)))


def test_decomposition_identity_is_exact():
    model, space, theta = trig_scaled_model()
    grid = uniform_grid(80, 0.25)
    cache = MomentCache(model, grid)
    bundle = empirical_fisher(cache.moments(theta), grid)
    phi = bundle.local_scaling
    rng = np.random.default_rng(3)
    for rep in range(20):
        sample = simulate_increments(model, theta, grid, seed=400, replicate=rep, cache=cache)
        w = rng.uniform(-0.8, 0.8, 3)
        expansion = local_expansion(model, space, theta, w[None], phi, cache)
        log_ratios, score_terms, remainders = expansion.evaluate(sample.y[None])
        log_ratio = log_ratios[0, 0]
        shifted = Theta.from_vector(theta.vector + phi @ w, model.p)
        direct = log_likelihood(cache.moments(shifted), sample.y) - log_likelihood(
            cache.moments(theta), sample.y
        )
        assert log_ratio == pytest.approx(direct, abs=1e-12)
        rebuilt = score_terms[0] @ w - 0.5 * w @ w + remainders[0, 0]
        assert log_ratio == pytest.approx(rebuilt, abs=1e-12)


def test_local_expansion_block_rows_match_single_rows():
    model, space, theta = trig_scaled_model()
    grid = uniform_grid(300, 0.25)
    cache = MomentCache(model, grid)
    m0 = cache.moments(theta)
    phi = empirical_fisher(m0, grid).local_scaling
    directions = np.array([[0.6, 0.3, 0.2], [0.0, 0.5, 0.7], [0.0, 0.0, 0.0]])
    ys = simulate_batch(model, theta, grid, seed=505, replicates=16, cache=cache)
    expansion = local_expansion(model, space, theta, directions, phi, cache)
    log_ratios, score_terms, remainders = expansion.evaluate(ys)
    assert log_ratios.shape == remainders.shape == (16, 3)
    assert score_terms.shape == (16, 3)

    def close(block_value, single_value):
        assert abs(block_value - single_value) <= 1e-12 * (1.0 + abs(single_value))

    singles = [local_expansion(model, space, theta, w[None], phi, cache) for w in directions]
    for r, y in enumerate(ys):
        sample = simulate_increments(model, theta, grid, seed=505, replicate=r, cache=cache)
        assert np.array_equal(sample.y, y)
        central = score(m0, y) @ phi
        for k in range(3):
            close(score_terms[r, k], central[k])
        for j, single in enumerate(singles):
            log_ratio, score_term, remainder = single.evaluate(y[None])
            close(log_ratios[r, j], log_ratio[0, 0])
            close(remainders[r, j], remainder[0, 0])
            for k in range(3):
                close(score_terms[r, k], score_term[0, k])
    # the zero direction is exactly degenerate in the block too
    assert np.all(log_ratios[:, 2] == 0.0) and np.all(remainders[:, 2] == 0.0)


def test_local_expansion_block_is_bit_equal_to_its_unfused_expressions():
    # evaluate forms the residual and u = r^2/v0 - 1 once and rescales them
    # in place for the score; the operations and their order are unchanged
    model, space, theta = trig_scaled_model()
    grid = uniform_grid(300, 0.25)
    cache = MomentCache(model, grid)
    m0 = cache.moments(theta)
    phi = empirical_fisher(m0, grid).local_scaling
    directions = np.array([[0.6, 0.3, 0.2], [0.0, 0.5, 0.7], [0.4, 0.4, 0.4]])
    ys = simulate_batch(model, theta, grid, seed=505, replicates=40, cache=cache)
    kept = ys.copy()
    expansion = local_expansion(model, space, theta, directions, phi, cache)
    log_ratios, score_terms, remainders = expansion.evaluate(ys)
    assert np.array_equal(ys, kept)

    resid = ys - m0.mean
    want_ratios = (resid * resid / m0.var - 1.0) @ expansion.h + resid @ expansion.b + expansion.c
    g_alpha = (resid / m0.var) @ m0.grad_mean
    w = (resid * resid / m0.var - 1.0) / (2.0 * m0.var)
    want_scores = np.concatenate([g_alpha, w @ m0.grad_var], axis=-1) @ phi
    linear = want_scores @ directions.T
    quad = 0.5 * np.sum(directions * directions, axis=1)
    assert np.array_equal(log_ratios, want_ratios)
    assert np.array_equal(score_terms, want_scores)
    assert np.array_equal(remainders, want_ratios - linear + quad)


@pytest.mark.parametrize("shape", [(0, 3), (3,), (2, 2)])
def test_local_expansion_rejects_directions_of_wrong_shape(shape):
    model, space, theta = trig_scaled_model()
    grid = uniform_grid(10, 0.25)
    with pytest.raises(DomainError, match=rf"directions have shape {re.escape(str(shape))}"):
        local_expansion(model, space, theta, np.zeros(shape), np.eye(3), MomentCache(model, grid))


def test_local_expansion_log_ratios_match_mpmath_oracle():
    # lan-505's directions at its top rung: the quadratic in the centred
    # base residual keeps the log-ratios within 1e-13 of a 40-digit sum
    # over the same float moments; subtracting two log-likelihood totals
    # misses it by ~5e-13
    model, space, theta = trig_scaled_model()
    grid = uniform_grid(1600, 0.25)
    cache = MomentCache(model, grid)
    m0 = cache.moments(theta)
    phi = empirical_fisher(m0, grid).local_scaling
    directions = np.array([[0.6, 0.3, 0.2], [0.0, 0.5, 0.7], [0.4, 0.4, 0.4]])
    ys = simulate_batch(model, theta, grid, seed=505, replicates=4, cache=cache)
    log_ratios, _, _ = local_expansion(model, space, theta, directions, phi, cache).evaluate(ys)

    def mp(xs):
        return [mpmath.mpf(float(x)) for x in xs]

    with mpmath.workdps(40):
        mean0, var0 = mp(m0.mean), mp(m0.var)
        for j, w in enumerate(directions):
            m1 = cache.moments(Theta.from_vector(theta.vector + phi @ w, model.p))
            mean1, var1 = mp(m1.mean), mp(m1.var)
            for i, y in enumerate(ys):
                oracle = mpmath.fsum(
                    (y0 - a0) ** 2 / (2 * v0) - (y0 - a1) ** 2 / (2 * v1) - mpmath.log(v1 / v0) / 2
                    for y0, a0, v0, a1, v1 in zip(mp(y), mean0, var0, mean1, var1)
                )
                assert abs(log_ratios[i, j] - float(oracle)) <= 1e-13, (i, j)


def test_shift_outside_box_is_rejected():
    model, space, theta = trig_scaled_model()
    grid = uniform_grid(10, 0.25)
    with pytest.raises(OutOfSpaceError):
        local_expansion(
            model, space, theta, np.array([[0.0, 0.0, 1.0]]), 100.0 * np.eye(3),
            MomentCache(model, grid),
        )


def test_likelihood_ratio_has_unit_mean():
    model, space, theta = trig_scaled_model()
    grid = uniform_grid(100, 0.25)
    cache = MomentCache(model, grid)
    m0 = cache.moments(theta)
    bundle = empirical_fisher(m0, grid)
    w = np.array([0.5, -0.3, 0.4])
    shifted = Theta.from_vector(theta.vector + bundle.local_scaling @ w, model.p)
    m1 = cache.moments(shifted)
    draws = simulate_batch(model, theta, grid, seed=888, replicates=10_000)
    r0 = draws - m0.mean
    r1 = draws - m1.mean
    log_ratio = -0.5 * (
        np.sum(np.log(m1.var / m0.var))
        + (r1 * r1 / m1.var - r0 * r0 / m0.var) @ np.ones(grid.n)
    )
    ratios = np.exp(log_ratio)
    se = ratios.std(ddof=1) / np.sqrt(ratios.size)
    assert abs(ratios.mean() - 1.0) < 4.0 * se


def test_remainder_shrinks_along_ladder():
    model, space, theta = trig_scaled_model()
    w = np.array([0.4, 0.2, -0.3])
    means = []
    for n in (100, 400, 1600):
        grid = uniform_grid(n, 0.25)
        cache = MomentCache(model, grid)
        bundle = empirical_fisher(cache.moments(theta), grid)
        expansion = local_expansion(model, space, theta, w[None], bundle.local_scaling, cache)
        ys = simulate_batch(model, theta, grid, seed=515, replicates=300, cache=cache)
        _, _, remainders = expansion.evaluate(ys)
        means.append(np.mean(np.abs(remainders[:, 0])))
    assert means[0] > means[1] > means[2]


def test_score_covariance_matches_information_blocks():
    model, _, theta = trig_scaled_model()
    n = 2000
    grid = uniform_grid(n, 0.25)
    m = MomentCache(model, grid).moments(theta)
    bundle = empirical_fisher(m, grid)
    draws = simulate_batch(model, theta, grid, seed=321, replicates=2000)
    resid = draws - m.mean
    g_alpha = (resid / m.var) @ m.grad_mean / np.sqrt(grid.total_time)
    wvec = (resid * resid / m.var - 1.0) / (2.0 * m.var)
    g_beta = wvec @ m.grad_var / np.sqrt(n)
    cov = np.cov(np.hstack([g_alpha, g_beta]).T)
    target = bundle.joint
    assert np.all(np.abs(cov - target) <= 0.05 * np.abs(target).max())


def test_power_identity_zero_shift_vanishes():
    model, _, theta = trig_scaled_model()
    grid = uniform_grid(30, 0.25)
    value = expected_power_identity(model, theta, np.zeros(3), 0.37, grid)
    assert value == 0.0


def test_power_identity_mean_shift_closed_form():
    model, _, theta = trig_known_model()
    grid = uniform_grid(30, 0.25)
    cache = MomentCache(model, grid)
    shift = np.array([0.3, -0.2])
    m0 = cache.moments(theta)
    m1 = cache.moments(Theta.from_vector(theta.vector + shift, model.p))
    expected = -np.sum((m1.mean - m0.mean) ** 2 / (8.0 * m0.var))
    got = expected_power_identity(model, theta, shift, 0.5, grid, cache=cache)
    assert got == pytest.approx(expected, rel=1e-12)


def test_power_identity_matches_monte_carlo():
    rng = np.random.default_rng(1009)
    for build in (trig_known_model, trig_scaled_model):
        model, space, theta = build()
        grid = uniform_grid(50, 0.25)
        cache = MomentCache(model, grid)
        m0 = cache.moments(theta)
        widths = 0.05 * np.ones(model.d)
        for _ in range(2):
            shift = rng.uniform(-1.0, 1.0, model.d) * widths
            z = float(rng.uniform(0.3, 0.7))
            shifted = Theta.from_vector(theta.vector + shift, model.p)
            m1 = cache.moments(shifted)
            draws = simulate_batch(model, theta, grid, seed=606, replicates=40_000)
            r0 = draws - m0.mean
            r1 = draws - m1.mean
            log_ratio = -0.5 * (
                np.sum(np.log(m1.var / m0.var))
                + np.sum(r1 * r1 / m1.var - r0 * r0 / m0.var, axis=1)
            )
            powered = np.exp(z * log_ratio)
            se = powered.std(ddof=1) / np.sqrt(powered.size)
            target = np.exp(
                expected_power_identity(model, theta, shift, z, grid, cache=cache)
            )
            assert abs(powered.mean() - target) < 4.0 * se


def _power_identity_oracle(m0, m1, z):
    """ln E[LR^z] at 40 digits: per interval, the log of the integral of
    p1^z p0^(1-z) for the two Gaussian increment laws."""
    with mpmath.workdps(40):
        z = mpmath.mpf(z)
        total = mpmath.mpf(0)
        for mu0, mu1, v0, v1 in zip(m0.mean, m1.mean, m0.var, m1.var):
            mu0, mu1, v0, v1 = (mpmath.mpf(float(x)) for x in (mu0, mu1, v0, v1))
            mix = z * v0 + (1 - z) * v1
            total -= z * (1 - z) * (mu1 - mu0) ** 2 / (2 * mix)
            total -= (mpmath.log(mix) - z * mpmath.log(v0) - (1 - z) * mpmath.log(v1)) / 2
        return float(total)


def test_power_identity_matches_mpmath_oracle():
    model, _, theta = curved_model()
    n = 400
    grid = uniform_grid(n, 0.25)
    cache = MomentCache(model, grid)
    m0 = cache.moments(theta)
    shifts = [eps * np.array([1.0, -1.0]) for eps in 10.0 ** -np.arange(1, 11)]
    shifts.append(np.array([0.1, 0.0]))  # drift only: the variance term vanishes
    for shift in shifts:
        m1 = cache.moments(Theta.from_vector(theta.vector + shift, model.p))
        for z in (0.25, 0.5, 0.75):
            value = expected_power_identity(model, theta, shift, z, grid, cache=cache)
            oracle = _power_identity_oracle(m0, m1, z)
            assert abs(value - oracle) <= 1e-11 * abs(oracle) + 1e-13 * n, (shift, z)
