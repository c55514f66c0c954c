import hashlib
import tracemalloc

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy import stats
from scipy.special import ndtri

from signoise import (
    MomentCache,
    Theta,
    derive_seed,
    draw_block,
    load_sample,
    normal_stream,
    save_sample,
    simulate_batch,
    simulate_increments,
    uniform_grid,
)
from signoise import simulate
from signoise.errors import DomainError

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
    m = MomentCache(model, grid).moments(theta)
    sd = np.sqrt(m.var)
    block = draw_block(m.mean, sd, 7, 5, 12)
    assert block.shape == (7, 64)
    for j, r in enumerate(range(5, 12)):
        assert np.array_equal(block[j], m.mean + sd * normal_stream(7, r, 64))


def _sha256_prefix(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


def test_streams_match_frozen_digests():
    # Digests of the streams as drawn by the earlier implementation, which
    # built one Philox(key=...) per replicate; the extreme key fills both
    # 64-bit halves of the Philox key.
    assert _sha256_prefix(normal_stream(2**64 - 1, 2**64 - 2, 1000)) == "510199a4641bfb72"
    block = draw_block(np.linspace(-1, 1, 300), np.linspace(0.5, 2, 300), 12345, 7, 40)
    assert _sha256_prefix(block) == "f9cfcef26e192fd2"
    # rows of three column stretches, the last of 5, recorded before rows were filled in place
    model, _, theta = trig_scaled_model()
    grid = uniform_grid(2 * simulate._SLAB_WORDS + 5, 0.01)
    assert _sha256_prefix(simulate_batch(model, theta, grid, 11, 3)) == "d3776015dfccd9fd"


def _defined_stream(seed: int, replicate: int, count: int) -> np.ndarray:
    """The stream from its definition: fresh Philox key, top 53 bits, ndtri."""
    raw = Philox(key=(seed << 64) | replicate).random_raw(count)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(np.minimum(u, 1.0 - 2.0**-53))


def test_words_map_to_uniforms_strictly_inside_the_unit_interval():
    words = np.array([k << 11 for k in (0, 1, 2**52, 2**53 - 2)] + [2**64 - 1], dtype=np.uint64)
    plain = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    # the core draws k * 2**-53 in place and finishes it to the uniform
    u = simulate._open_unit((words >> np.uint64(11)).astype(np.float64) * 2.0**-53)
    assert u.tolist() == [2.0**-54, 1.5 * 2.0**-53, 0.5, 1.0 - 2.0**-52, 1.0 - 2.0**-53]
    # the top word alone moves: (k + 0.5) * 2**-53 rounds to 1.0 there
    assert np.array_equal(u[:-1], plain[:-1]) and plain[-1] == 1.0
    assert np.all(np.isfinite(ndtri(u)))
    # numpy's Generator.random over Philox is that k * 2**-53, word for word
    key = ((2**64 - 1) << 64) | (2**64 - 2)
    k = Philox(key=key).random_raw(1000) >> np.uint64(11)
    assert np.array_equal(Generator(Philox(key=key)).random(1000), k * 2.0**-53)


@pytest.mark.parametrize(
    "rows, n",
    [
        (2, simulate._SLAB_WORDS + 3),
        (5, simulate._SLAB_WORDS // 2 + 7),
        (3, simulate._SLAB_WORDS),
        (7, 30_000),
        (simulate._SLAB_WORDS + 2, 1),
        (0, 7),
    ],
    ids=[
        "row-split-across-slabs",
        "block-over-several-slabs",
        "count-equals-slab",
        "partial-last-row-block",
        "count-one-across-row-blocks",
        "no-rows",
    ],
)
def test_draw_block_rows_match_stream_across_slabs(rows, n):
    mean = np.linspace(-1.0, 1.0, n)
    sd = np.linspace(0.5, 2.0, n)
    block = draw_block(mean, sd, 2024, 9, 9 + rows)
    assert block.shape == (rows, n)
    # the first and last row of each block of rows the core fills together
    step = max(1, simulate._SLAB_WORDS // n)
    for j in [j for j in range(rows) if j % step in (0, step - 1) or j == rows - 1]:
        z = normal_stream(2024, 9 + j, n)
        assert np.array_equal(z, _defined_stream(2024, 9 + j, n))
        assert np.array_equal(block[j], mean + sd * z)


def test_draw_block_builds_one_generator_per_call(monkeypatch):
    built = []

    def counting_philox(*args, **kwargs):
        built.append(1)
        return Philox(*args, **kwargs)

    monkeypatch.setattr(simulate, "Philox", counting_philox)
    draw_block(np.zeros(16), np.ones(16), 3, 0, 12)
    assert len(built) == 1


@pytest.mark.parametrize(
    "lo, hi, bound",
    [(5, 3, "hi"), (2**64 - 1, 2**64 + 1, "hi"), (-1, 2, "lo")],
    ids=["hi-below-lo", "hi-past-2**64", "negative-lo"],
)
def test_draw_block_rejects_bad_range_before_drawing(monkeypatch, lo, hi, bound):
    monkeypatch.setattr(simulate, "Philox", None)  # any draw would fail differently
    with pytest.raises(DomainError, match=rf"^{bound} must"):
        draw_block(np.zeros(4), np.ones(4), 1, lo, hi)


@pytest.mark.parametrize("mean, sd, name", [
    (np.zeros(8), np.ones(7), "sd"),
    (np.zeros(8), np.ones((2, 8)), "sd"),
    (np.zeros((2, 4)), 1.0, "mean"),
    (np.float64(0.0), 1.0, "mean"),
], ids=["sd-too-short", "sd-2d", "mean-2d", "mean-scalar"])
def test_draw_block_rejects_bad_shapes_before_drawing(monkeypatch, mean, sd, name):
    monkeypatch.setattr(simulate, "Philox", None)  # any draw would fail differently
    with pytest.raises(DomainError, match=rf"^{name} "):
        draw_block(mean, sd, 1, 0, 2)


_SEEDED_CALLS = {
    "derive_seed-seed": ("seed", lambda v: derive_seed(v, "a")),
    "normal_stream-seed": ("seed", lambda v: normal_stream(v, 0, 8)),
    "normal_stream-replicate": ("replicate", lambda v: normal_stream(5, v, 8)),
    "draw_block-seed": ("seed", lambda v: draw_block(np.zeros(8), np.ones(8), v, 0, 2)),
    "draw_block-lo": ("lo", lambda v: draw_block(np.zeros(8), np.ones(8), 5, v, 4)),
    "draw_block-hi": ("hi", lambda v: draw_block(np.zeros(8), np.ones(8), 5, 0, v)),
    "simulate_increments-seed": (
        "seed", lambda v: simulate_increments(*_mean_setup(), seed=v, replicate=1)
    ),
    "simulate_increments-replicate": (
        "replicate", lambda v: simulate_increments(*_mean_setup(), seed=5, replicate=v)
    ),
    "normal_stream-count": ("count", lambda v: normal_stream(5, 0, v)),
    "simulate_batch-seed": ("seed", lambda v: simulate_batch(*_mean_setup(), seed=v, replicates=2)),
    "simulate_batch-replicates": (
        "replicates", lambda v: simulate_batch(*_mean_setup(), seed=5, replicates=v)
    ),
}


def _mean_setup():
    model, _, theta = mean_model()
    return model, theta, uniform_grid(8, 0.5)


def _bits(out):
    """What a seeded call gives, in a form where equal means bit-identical."""
    if isinstance(out, simulate.IncrementSample):
        return out.y.tobytes(), type(out.seed), out.seed, type(out.replicate), out.replicate
    return out.tobytes() if isinstance(out, np.ndarray) else (type(out), out)


@pytest.mark.parametrize("name, call", _SEEDED_CALLS.values(), ids=list(_SEEDED_CALLS))
def test_seed_arguments_follow_the_seed_rule(name, call):
    for bad in (1.5, "x", True, -1, 2**64):
        with pytest.raises(DomainError, match=rf"^{name} must"):
            call(bad)
    assert _bits(call(np.int64(3))) == _bits(call(3))  # numpy integers count as their value


class _UnevaluatedCache:
    def moments(self, theta):
        raise AssertionError("moments evaluated before the arguments were checked")


@pytest.mark.parametrize(
    "seed, replicates, name",
    [(1.5, 2, "seed"), (5, 2.5, "replicates"), (5, "3", "replicates"), (5, 0, "replicates")],
)
def test_simulate_batch_checks_arguments_before_moments(seed, replicates, name):
    model, theta, grid = _mean_setup()
    with pytest.raises(DomainError, match=rf"^{name} must"):
        simulate_batch(model, theta, grid, seed, replicates, cache=_UnevaluatedCache())


def test_long_records_scale_stretch_by_stretch_bit_for_bit():
    model, _, theta = trig_scaled_model()
    n = 2 * simulate._SLAB_WORDS + 5  # three column stretches, the last of 5
    grid = uniform_grid(n, 0.01)
    cache = MomentCache(model, grid)
    m = cache.moments(theta)
    sample = simulate_increments(model, theta, grid, 11, replicate=2, cache=cache)
    assert np.array_equal(sample.y, m.mean + np.sqrt(m.var) * normal_stream(11, 2, n))
    batch = simulate_batch(model, theta, grid, 11, 3, cache=cache)
    for r in range(3):
        assert np.array_equal(batch[r], m.mean + np.sqrt(m.var) * normal_stream(11, r, n))


def test_simulate_batch_keeps_one_copy_of_each_long_array():
    # Beyond the k rows, only the mean and the variance are n long; the
    # standard deviations exist one stretch at a time, the words only in the rows.
    model, _, theta = trig_scaled_model()
    n, k = 2**18, 3
    grid = uniform_grid(n, 0.01)
    cache = MomentCache(model, grid)
    normal_stream(4, 0, 1)  # a first draw imports scipy.special; keep that out of the trace
    tracemalloc.start()
    try:
        simulate_batch(model, theta, grid, 4, k, cache=cache)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (k + 2) * 8 * n + 2 * 2**20


def test_simulate_increments_reaches_the_last_replicate():
    model, theta, grid = _mean_setup()
    sample = simulate_increments(model, theta, grid, seed=5, replicate=2**64 - 1)
    m = MomentCache(model, grid).moments(theta)
    assert np.array_equal(sample.y, m.mean + np.sqrt(m.var) * normal_stream(5, 2**64 - 1, 8))


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
    m = MomentCache(model, grid).moments(theta)
    sample = simulate_increments(model, theta, grid, seed=23)
    w = (sample.y - m.mean) / np.sqrt(m.var)
    stat = stats.kstest(w, "norm")
    assert stat.pvalue > 1e-3


def test_lag_one_autocorrelation_is_small():
    model, _, theta = trig_scaled_model()
    n = 10_000
    grid = uniform_grid(n, 0.1)
    m = MomentCache(model, grid).moments(theta)
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
