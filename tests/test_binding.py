"""A moment cache and a sample belong to one model and one grid.

Every entry point that takes a cache refuses one built for another model or
another grid (DomainError), and every estimator refuses a sample drawn on
another grid (GridError), whether its length or only its digest differs.
"""

import numpy as np
import pytest

from signoise import (
    DomainError,
    GridError,
    ModelSpec,
    MomentCache,
    ScaledNoise,
    closed_form_mle,
    constant_profile,
    expected_power_identity,
    local_expansion,
    mle_numeric,
    posterior_mean_importance,
    posterior_mean_quadrature,
    simulate_batch,
    simulate_increments,
    uniform_grid,
)
from signoise.config import read_information

from helpers import trig_scaled_model

N = 50


def _setting():
    model, space, theta = trig_scaled_model()
    grid = uniform_grid(N, 0.25)
    return model, space, theta, grid, simulate_increments(model, theta, grid, seed=7)


# each entry point called on the setting, with ``cache`` the one cache it is given
ESTIMATORS = {
    "mle_numeric": lambda model, space, grid, sample, cache: mle_numeric(
        model, space, grid, sample, cache=cache
    ),
    "closed_form_mle": lambda model, space, grid, sample, cache: closed_form_mle(
        model, space, grid, sample, cache=cache
    ),
    "posterior_mean_quadrature": lambda model, space, grid, sample, cache: (
        posterior_mean_quadrature(model, space, grid, sample, rel_tol=1e-4, cache=cache)
    ),
    "posterior_mean_importance": lambda model, space, grid, sample, cache: (
        posterior_mean_importance(model, space, grid, sample, draws=200, cache=cache)
    ),
}
OTHERS = {
    "expected_power_identity": lambda model, theta, grid, cache: expected_power_identity(
        model, theta, np.array([0.1, 0.0, 0.05]), 0.5, grid, cache=cache
    ),
    "simulate_increments": lambda model, theta, grid, cache: simulate_increments(
        model, theta, grid, 3, cache=cache
    ),
    "simulate_batch": lambda model, theta, grid, cache: simulate_batch(
        model, theta, grid, 3, 2, cache=cache
    ),
    "empirical_information": lambda model, theta, grid, cache: read_information(
        {"grid": {}}, "fisher"
    )(model, theta, grid, cache),
}


def _call(name, model, space, theta, grid, sample, cache):
    if name in ESTIMATORS:
        return ESTIMATORS[name](model, space, grid, sample, cache)
    if name == "local_expansion":  # no grid of its own: the cache's is the samples'
        return local_expansion(model, space, theta, np.zeros((1, 3)), 0.01 * np.eye(3), cache)
    return OTHERS[name](model, theta, grid, cache)


WITH_GRID = [*ESTIMATORS, *OTHERS]


@pytest.mark.parametrize("name", WITH_GRID)
def test_a_cache_of_another_grid_with_the_same_n_is_refused(name):
    model, space, theta, grid, sample = _setting()
    other = MomentCache(model, uniform_grid(N, 0.1))
    with pytest.raises(DomainError, match=f"another grid of {N} intervals"):
        _call(name, model, space, theta, grid, sample, other)


@pytest.mark.parametrize("name", [*WITH_GRID, "local_expansion"])
def test_a_cache_of_another_model_is_refused(name):
    model, space, theta, grid, sample = _setting()
    # the same dimensions and grid: only the noise profile differs
    other = MomentCache(ModelSpec(model.signal, ScaledNoise(constant_profile(2.0))), grid)
    with pytest.raises(DomainError, match="another model"):
        _call(name, model, space, theta, grid, sample, other)


@pytest.mark.parametrize("name", [*WITH_GRID, "local_expansion"])
def test_a_cache_of_equal_objects_is_taken_as_it_is(name):
    # an equal model on a rebuilt grid of the same digest: the same experiment, the same bits
    model, space, theta, grid, sample = _setting()
    twin_model, _, _ = trig_scaled_model()
    twin = MomentCache(twin_model, uniform_grid(N, 0.25))
    assert twin_model is not model and twin.grid is not grid
    got = _call(name, model, space, theta, grid, sample, twin)
    want = _call(name, model, space, theta, grid, sample, MomentCache(model, grid))
    for x, y in zip(_values(got), _values(want), strict=True):
        assert np.array_equal(x, y)


def _values(result) -> list:
    """The arrays an entry point's result is made of."""
    if isinstance(result, (float, np.ndarray)):
        return [result]
    for fields in (("y",), ("joint",), ("h", "b", "c")):
        if all(hasattr(result, f) for f in fields):
            return [getattr(result, f) for f in fields]
    return [result.theta.vector, result.stderr]


@pytest.mark.parametrize("name", list(ESTIMATORS))
@pytest.mark.parametrize("drawn_on", ["another length", "the same length"])
def test_an_estimator_refuses_a_sample_of_another_grid(name, drawn_on):
    model, space, theta, grid, _ = _setting()
    other = uniform_grid(N - 1, 0.25) if drawn_on == "another length" else uniform_grid(N, 0.1)
    sample = simulate_increments(model, theta, other, seed=7)
    detail = f"has {N - 1} increments, grid has {N}" if drawn_on == "another length" else (
        r"drawn on a different grid \(digest mismatch\)"
    )
    for cache in (None, MomentCache(model, grid)):
        with pytest.raises(GridError, match=detail):
            ESTIMATORS[name](model, space, grid, sample, cache)
