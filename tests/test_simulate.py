import numpy as np
import pytest
from scipy import stats

from signoise import (
    Theta,
    derive_seed,
    draw_block,
    load_sample,
    moments_for,
    normal_stream,
    save_sample,
    simulate_batch,
    simulate_increments,
    uniform_grid,
)

from helpers import mean_model, trig_scaled_model


def test_first_increment_mean_matches_forced_moments():
    model, _, _ = mean_model()
    theta = Theta((0.7,), ())
    grid = uniform_grid(1, 0.5)  # F = 0.35, G^2 = 0.5
    draws = simulate_batch(model, theta, grid, seed=101, replicates=100_000)
    m = draws[:, 0].mean()
    se = np.sqrt(0.5 / 100_000)
    assert abs(m - 0.35) < 4.0 * se


def test_same_seed_replicate_is_bitwise_identical():
    model, _, theta = trig_scaled_model()
    grid = uniform_grid(64, 0.25)
    a = simulate_increments(model, theta, grid, seed=7, replicate=3)
    b = simulate_increments(model, theta, grid, seed=7, replicate=3)
    assert np.array_equal(a.y, b.y)
    assert a.grid_digest == b.grid_digest

    batch = simulate_batch(model, theta, grid, seed=7, replicates=5)
    assert np.array_equal(batch[3], a.y)


def test_draw_block_rows_equal_normal_stream_replicates():
    model, _, theta = trig_scaled_model()
    grid = uniform_grid(64, 0.25)
    m = moments_for(model, theta, grid)
    sd = np.sqrt(m.var)
    block = draw_block(m.mean, sd, 7, 5, 12)
    assert block.shape == (7, 64)
    for j, r in enumerate(range(5, 12)):
        assert np.array_equal(block[j], m.mean + sd * normal_stream(7, r, 64))


def test_distinct_replicates_differ():
    model, _, theta = trig_scaled_model()
    grid = uniform_grid(64, 0.25)
    a = simulate_increments(model, theta, grid, seed=7, replicate=0)
    b = simulate_increments(model, theta, grid, seed=7, replicate=1)
    c = simulate_increments(model, theta, grid, seed=8, replicate=0)
    assert not np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)


def test_standardized_residuals_pass_ks():
    model, _, theta = trig_scaled_model()
    grid = uniform_grid(10_000, 0.1)
    m = moments_for(model, theta, grid)
    sample = simulate_increments(model, theta, grid, seed=23)
    w = (sample.y - m.mean) / np.sqrt(m.var)
    stat = stats.kstest(w, "norm")
    assert stat.pvalue > 1e-3


def test_lag_one_autocorrelation_is_small():
    model, _, theta = trig_scaled_model()
    n = 10_000
    grid = uniform_grid(n, 0.1)
    m = moments_for(model, theta, grid)
    sample = simulate_increments(model, theta, grid, seed=31)
    w = (sample.y - m.mean) / np.sqrt(m.var)
    r1 = np.mean(w[:-1] * w[1:])
    assert abs(r1) < 4.0 / np.sqrt(n)


def test_normal_stream_moments_and_determinism():
    z = normal_stream(909, 4, 50_000)
    assert np.array_equal(z, normal_stream(909, 4, 50_000))
    assert abs(z.mean()) < 4.0 / np.sqrt(50_000)
    assert abs(z.std() - 1.0) < 4.0 / np.sqrt(2 * 50_000)
    # prefix property: a shorter request is a prefix of a longer one
    assert np.array_equal(z[:100], normal_stream(909, 4, 100))


def test_derive_seed_is_stable_and_salted():
    a = derive_seed(42, "normality", 3)
    assert a == derive_seed(42, "normality", 3)
    assert a != derive_seed(42, "normality", 4)
    assert a != derive_seed(42, "rate", 3)
    assert 0 <= a < 2**63


def test_sample_round_trip(tmp_path):
    model, _, theta = trig_scaled_model()
    grid = uniform_grid(20, 0.3)
    sample = simulate_increments(model, theta, grid, seed=55, replicate=2)
    csv = tmp_path / "sample.csv"
    meta = tmp_path / "sample.meta.json"
    save_sample(sample, grid, csv, meta)
    back, back_grid = load_sample(csv, meta)
    assert np.array_equal(back.y, sample.y)
    assert back.seed == 55 and back.replicate == 2
    assert back_grid.digest() == grid.digest()
    assert np.array_equal(back.theta_true.vector, theta.vector)


def test_loaded_sample_rejects_digest_mismatch(tmp_path):
    model, _, theta = trig_scaled_model()
    grid = uniform_grid(20, 0.3)
    other = uniform_grid(20, 0.25)
    sample = simulate_increments(model, theta, grid, seed=55)
    csv = tmp_path / "sample.csv"
    save_sample(sample, grid, csv)
    back, back_grid = load_sample(csv)
    assert back.grid_digest == back_grid.digest()
    assert back.grid_digest != other.digest()
