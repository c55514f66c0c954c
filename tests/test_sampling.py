import csv
import hashlib
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from signoise import (
    GridError,
    grid_from_delays,
    grid_from_instants,
    periodic_pattern_grid,
    quantile_grid,
    save_grid_csv,
    uniform_grid,
)


def test_uniform_grid_examples():
    g = uniform_grid(4, 0.5)
    assert np.allclose(g.instants, [0.0, 0.5, 1.0, 1.5, 2.0], atol=0.0)
    assert g.total_time == 2.0
    assert g.delays.max() == 0.5

    g1 = uniform_grid(1, 1.0)
    assert np.array_equal(g1.instants, [0.0, 1.0])

    g2 = uniform_grid(1000, 0.01)
    assert g2.total_time == pytest.approx(10.0, rel=1e-15)
    assert np.all(g2.delays == 0.01)


def test_pattern_grid_examples():
    g = periodic_pattern_grid([0.3, 1.0], 1.0, 2)
    assert g.n == 4
    assert np.allclose(g.instants, [0.0, 0.3, 1.0, 1.3, 2.0], atol=1e-15)

    g3 = periodic_pattern_grid([1.0], 1.0, 3)
    u3 = uniform_grid(3, 1.0)
    assert np.array_equal(g3.instants, u3.instants)
    assert np.array_equal(g3.delays, u3.delays)

    g100 = periodic_pattern_grid([0.1, 0.5, 1.0], 1.0, 100)
    assert g100.n == 300
    assert g100.total_time == pytest.approx(100.0, rel=1e-15)
    assert g100.delays.max() == pytest.approx(0.5, abs=1e-15)


def test_pattern_grid_rejects_malformed_offsets():
    with pytest.raises(GridError):
        periodic_pattern_grid([0.5, 0.3], 1.0, 2)  # not increasing
    with pytest.raises(GridError):
        periodic_pattern_grid([0.3, 0.9], 1.0, 2)  # last offset != period
    with pytest.raises(GridError):
        periodic_pattern_grid([0.0, 1.0], 1.0, 2)  # zero offset


def test_quantile_grid_examples():
    g = quantile_grid(lambda u: u, 4, 1.0)
    assert np.allclose(g.instants, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)

    g2 = quantile_grid(lambda u: u * u, 2, 1.0)
    assert np.allclose(g2.instants, [0.0, 0.25, 1.0], atol=1e-15)

    g100 = quantile_grid(lambda u: u * u, 100, 1.0)
    assert np.all(np.diff(g100.delays) > 0.0)
    assert g100.delays.max() == pytest.approx(1.0 - 0.99**2, abs=1e-15)
    assert g100.delays.max() == g100.delays[-1]


def test_quantile_grid_rejects_non_monotone_map():
    with pytest.raises(GridError):
        quantile_grid(lambda u: np.sin(4.0 * np.pi * u), 10, 1.0)
    # the map is called once on the whole lattice: a scalar-only map, or one
    # that returns another shape, is refused with the way out in the message
    for scalar_map in (math.sin, lambda u: 0.5):
        with pytest.raises(GridError, match=r"shape \(11,\).*np\.vectorize"):
            quantile_grid(scalar_map, 10, 1.0)


@pytest.mark.parametrize("build, name, value", [
    (lambda v: uniform_grid(v, 0.5), "n", 2.5),
    (lambda v: uniform_grid(v, 0.5), "n", np.float64(3.0)),
    (lambda v: uniform_grid(v, 0.5), "n", True),
    (lambda v: quantile_grid(lambda u: u, v, 1.0), "n", 2.5),
    (lambda v: quantile_grid(lambda u: u, v, 1.0), "n", np.float64(4.0)),
    (lambda v: periodic_pattern_grid([0.25, 1.0], 1.0, v), "cycles", True),
    (lambda v: periodic_pattern_grid([0.25, 1.0], 1.0, v), "cycles", 2.0),
    (lambda v: uniform_grid(v, 0.5), "n", 0),
    (lambda v: periodic_pattern_grid([0.25, 1.0], 1.0, v), "cycles", np.int64(0)),
], ids=["uniform-float", "uniform-np-float", "uniform-bool", "quantile-float",
        "quantile-np-float", "pattern-bool", "pattern-float", "uniform-zero", "pattern-np-zero"])
def test_grid_sizes_follow_the_integer_rule(build, name, value):
    # the seed rule: numpy integers count, bools and floats do not, and a size is >= 1
    with pytest.raises(GridError, match=rf"^{name} must be "):
        build(value)


def test_numpy_integer_sizes_build_the_same_grids():
    pairs = [
        (uniform_grid(np.int64(3), 0.5), uniform_grid(3, 0.5)),
        (quantile_grid(lambda u: u * u, np.int32(4), 1.0), quantile_grid(lambda u: u * u, 4, 1.0)),
        (periodic_pattern_grid([0.25, 1.0], 1.0, np.uint8(2)),
         periodic_pattern_grid([0.25, 1.0], 1.0, 2)),
    ]
    for got, want in pairs:
        assert np.array_equal(got.instants, want.instants) and got.label == want.label


def _exact_prefix_sums(delays: np.ndarray) -> np.ndarray:
    """Correctly rounded running sums with a leading zero, from integer arithmetic."""
    ratios = [float(d).as_integer_ratio() for d in delays]
    denom = max(den for _, den in ratios)  # a power of two: every numerator stays exact
    sums = itertools.accumulate(num * (denom // den) for num, den in ratios)
    return np.array([0.0] + [s / denom for s in sums])  # int / int rounds correctly


def test_reconstruction_from_delays_is_correctly_rounded():
    rng = np.random.default_rng(29)
    # unit-scale delays; delays in [1e-9, 1e-6]; delays in [2e3, 8e3], so T reaches ~1e7
    for low, high in ((0.01, 2.0), (1e-9, 1e-6), (2e3, 8e3)):
        for _ in range(8):
            n = int(rng.integers(5, 2000))
            delays = rng.uniform(low, high, n)
            g = grid_from_delays(delays)
            assert np.array_equal(g.instants, _exact_prefix_sums(delays)), (low, high, n)
            assert np.array_equal(g.delays, delays)


def test_grid_invariants_rejected():
    with pytest.raises(GridError):
        grid_from_instants([0.0, 1.0, 1.0])  # not strictly increasing
    with pytest.raises(GridError):
        grid_from_instants([0.5, 1.0])  # must start at zero
    with pytest.raises(GridError):
        grid_from_instants([0.0])  # needs at least one increment
    # 1e7 + 1e-10 rounds back to 1e7: the message names the interval, its delay and ends
    message = r"interval 1 has delay 1e-10 on \[10000000\.0, 10000000\.0\]"
    with pytest.raises(GridError, match=message):
        grid_from_delays([1e7, 1e-10, 1.0])
    with pytest.raises(GridError, match=r"non-finite instant or delay: interval 2$"):
        grid_from_delays([1.0, 2.0, float("nan")])


def test_grid_csv_round_trip_preserves_digest(tmp_path):
    g = periodic_pattern_grid([0.3, 1.0], 1.0, 5)
    path = tmp_path / "grid.csv"
    save_grid_csv(g, path)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["t"]
    back = grid_from_instants([float(t) for (t,) in rows])
    assert np.array_equal(back.instants, g.instants)
    assert back.digest() == g.digest()


def test_instants_are_read_only():
    g = uniform_grid(4, 0.5)
    with pytest.raises(ValueError):
        g.instants[0] = 1.0


def test_digest_is_the_instants_hash_and_survives_pickling():
    g = quantile_grid(lambda u: u**1.5, 1000, 10.0)
    want = hashlib.sha256(g.instants.tobytes()).hexdigest()
    fresh = pickle.loads(pickle.dumps(g))  # pickled before the digest was computed
    assert g.digest() == want and g.digest() is g.digest()
    kept = pickle.loads(pickle.dumps(g))  # pickled with it
    for back in (fresh, kept):
        assert back.digest() == want
        assert np.array_equal(back.instants, g.instants) and back.label == g.label


def test_digest_hashes_the_instant_buffer_of_a_long_grid():
    # past one 65,536-long stretch the digest still hashes the instants' bytes, so saved
    # sample sidecars match; a strided view of instants digests like its copy
    g = grid_from_delays(np.full(3 * 2**16 + 17, 0.01))
    assert g.digest() == hashlib.sha256(g.instants.tobytes()).hexdigest()
    doubled = np.arange(2 * g.n + 1, dtype=float) * 0.5
    strided = grid_from_instants(doubled[::2])
    assert not strided.instants.flags.c_contiguous
    assert strided.digest() == hashlib.sha256(doubled[::2].tobytes()).hexdigest()


def _peak_bytes(build) -> int:
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_long_grids_build_without_extra_instant_copies():
    # beyond its result, a build holds no n-long difference for its order check
    n = 2**18
    instants = np.arange(n + 1, dtype=float) * 0.01
    assert _peak_bytes(lambda: grid_from_instants(instants)) <= 1.5 * 8 * n
    # the lattice, Q's values, the instants and one difference for check and delays
    assert _peak_bytes(lambda: quantile_grid(lambda u: u**1.5, n, 10.0)) <= 4.5 * 8 * n
