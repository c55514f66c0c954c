"""Long records are reduced in stretches of 65,536 intervals.

The log-likelihood, the score, the empirical information and the closed-form
fit sum a record stretch by stretch, so their working memory does not grow
with n.  Up to one stretch each runs the whole-array expressions written out
below, bit for bit; past it the stretch sums are added in order.
"""

import math
import tracemalloc

import numpy as np
import pytest

from signoise import (
    MomentCache,
    closed_form_mle,
    empirical_fisher,
    grid_from_delays,
    log_likelihood,
    score,
    simulate_batch,
    simulate_increments,
)

from helpers import trig_known_model, trig_scaled_model

LN_2PI = math.log(2.0 * math.pi)
STRETCH = 2**16


def _record(build, n: int):
    """(model, space, theta, grid, cache, sample) of an n-long record on even delays."""
    model, space, theta = build()
    grid = grid_from_delays(np.full(n, 0.01))
    cache = MomentCache(model, grid)
    sample = simulate_increments(model, theta, grid, seed=29, cache=cache)
    return model, space, theta, grid, cache, sample


def _traced_mib(fn, *args, **kwargs) -> float:
    """Peak traced memory of one call beyond what was held when it began, in MiB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def test_working_memory_does_not_grow_with_n():
    # each input array is 8 MiB; the whole-array expressions took 15-24 MiB beyond them
    model, space, theta, grid, cache, sample = _record(trig_scaled_model, 2**20 + 17)
    m = cache.moments(theta)
    fresh = MomentCache(model, grid)  # closed_form_mle builds its design inside the call
    design = cache.linear_design()
    calls = {
        "log_likelihood": (log_likelihood, m, sample.y),
        "score": (score, m, sample.y),
        "empirical_fisher": (empirical_fisher, m, grid),
        "closed_form_mle": (lambda: closed_form_mle(model, space, grid, sample, cache=fresh),),
        "LinearDesign.log_likelihood": (design.log_likelihood, sample.y),
    }
    peaks = {name: _traced_mib(*call) for name, call in calls.items()}
    assert all(peak < 4.0 for peak in peaks.values()), peaks


def _whole_array_layers(m, design, grid, y, ys, coords):
    """Every layer as its whole-array expressions, in the order they are written there."""
    resid = y - m.mean
    ll = float(-0.5 * m.n * LN_2PI - 0.5 * np.sum(np.log(m.var))
               - 0.5 * np.sum(resid * resid / m.var))
    g_alpha = (resid / m.var) @ m.grad_mean
    w = (resid * resid / m.var - 1.0) / (2.0 * m.var)
    sc = np.concatenate([g_alpha, w @ m.grad_var])
    inv_var = 1.0 / m.var
    drift = (m.grad_mean.T * inv_var) @ m.grad_mean / grid.total_time
    grad_ln = m.grad_var * inv_var[:, None]
    var = grad_ln.T @ grad_ln / (2.0 * grid.n)

    b, g = design.basis, design.profile
    n, p = b.shape
    gram = (b.T * (1.0 / g)) @ b
    gram_inverse = np.linalg.inv(gram)
    log_normalizer = -0.5 * n * math.log(2.0 * math.pi) - 0.5 * float(np.sum(np.log(g)))
    fits = []
    for obs in (y, ys):
        alpha = gram_inverse @ (b.T @ ((1.0 / g) * obs.T).T)
        r0 = obs - b @ alpha
        q0 = np.sum((r0 * r0).T / g, axis=-1)
        fits.append((alpha, q0, b.T @ (r0 / g) if obs.ndim == 1 else 0.0))  # a block's c: 0.0
    a0, q0, c = fits[0]
    delta = [x - a for x, a in zip(coords[:p], a0)]
    quad = q0
    for i, di in enumerate(delta):
        row = gram[i, i] * di - 2.0 * c[i]
        for j in range(i + 1, p):
            row = row + 2.0 * gram[i, j] * delta[j]
        quad = quad + di * row
    if design.scaled:
        batch = log_normalizer - 0.5 * n * np.log(coords[p]) - 0.5 * quad / coords[p]
    else:
        batch = log_normalizer - 0.5 * quad
    return ll, sc, drift, var, gram, log_normalizer, fits, batch


@pytest.mark.parametrize("n", [400, STRETCH])
@pytest.mark.parametrize("build", [trig_known_model, trig_scaled_model])
def test_up_to_one_stretch_every_layer_keeps_its_bits(build, n):
    model, space, theta, grid, cache, sample = _record(build, n)
    ys = simulate_batch(model, theta, grid, seed=29, replicates=3, cache=cache)
    y, m, design = sample.y, cache.moments(theta), cache.linear_design()
    coords = tuple(np.linspace(0.9, 1.1, 5) * x for x in theta.vector)
    ll, sc, drift, var, gram, log_norm, fits, batch = _whole_array_layers(
        m, design, grid, y, ys.T, coords
    )
    info = empirical_fisher(m, grid)
    assert log_likelihood(m, y) == ll
    assert np.array_equal(score(m, y), sc)
    assert np.array_equal(info.drift_info, drift) and np.array_equal(info.var_info, var)
    assert np.array_equal(design.gram, gram) and design.log_normalizer == log_norm
    for obs, (alpha, q0, c) in zip((y, ys.T), fits):
        got = design._residual(obs)
        assert all(np.array_equal(a, b) for a, b in zip(got, (alpha, q0, c)))
        want = np.concatenate([alpha, (q0 / n)[None]]).T if design.scaled else alpha.T
        assert np.array_equal(design.fit(obs), want)
    assert np.array_equal(design.log_likelihood(y)(coords), batch)


def test_past_one_stretch_the_sums_stay_accurate():
    # three full stretches and a partial one
    n = 3 * STRETCH + 17
    model, space, theta, grid, cache, sample = _record(trig_scaled_model, n)
    y, m = sample.y, cache.moments(theta)
    resid = y - m.mean
    want = (-0.5 * n * LN_2PI - 0.5 * math.fsum(np.log(m.var))
            - 0.5 * math.fsum(resid * resid / m.var))
    assert log_likelihood(m, y) == pytest.approx(want, rel=1e-12, abs=0.0)

    design = cache.linear_design()
    _, _, drift, var, gram, _, fits, _ = _whole_array_layers(
        m, design, grid, y, y[:, None], tuple(theta.vector)
    )
    info = empirical_fisher(m, grid)
    for got, full in ((info.drift_info, drift), (info.var_info, var), (design.gram, gram)):
        # off-diagonal sums cancel, so they are judged on the block's scale
        np.testing.assert_allclose(got, full, rtol=0.0, atol=1e-12 * np.abs(full).max())
    alpha, q0, _ = fits[0]
    fit = closed_form_mle(model, space, grid, sample, cache=cache).theta.vector
    np.testing.assert_allclose(fit, [*alpha, q0 / n], rtol=1e-12, atol=0.0)

    # the normal equations B'W(y - B a) = 0 hold to rounding, relative to |B|'W|y|
    b, w = design.basis, 1.0 / design.profile
    normal = np.abs(b.T @ (w * (y - b @ fit[:2]))) / (np.abs(b).T @ (w * np.abs(y)))
    assert normal.max() <= 1e-10
