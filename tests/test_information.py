import json
import math

import numpy as np
import pytest

from signoise import (
    ConstantFn,
    CosineFn,
    DomainError,
    IncrementMoments,
    InformationBundle,
    KnownNoise,
    LinearSignal,
    ModelSpec,
    MomentCache,
    PeriodicityError,
    SingularInformationError,
    Theta,
    constant_profile,
    empirical_fisher,
    grid_from_instants,
    periodic_limit_fisher,
    periodic_pattern_grid,
    uniform_grid,
)

from signoise.cli import main

from helpers import (
    TRIG_SCALED_CONFIG,
    curved_model,
    mean_model,
    trig_known_model,
    trig_scaled_model,
)


def test_constant_drift_unit_noise_drift_block_is_one():
    model, _, _ = mean_model()
    theta = Theta((1.3,), ())
    for grid in (
        uniform_grid(10, 0.5),
        grid_from_instants([0.0, 0.2, 1.1, 1.15, 4.0]),
    ):
        b = empirical_fisher(MomentCache(model, grid).moments(theta), grid)
        assert b.drift_info[0, 0] == pytest.approx(1.0, rel=1e-14)


def test_scaled_noise_variance_block():
    model, _, _ = trig_scaled_model()
    for beta in (0.5, 1.0, 2.0):
        theta = Theta((1.0, 0.5), (beta,))
        grid = grid_from_instants([0.0, 0.3, 1.0, 1.4, 2.9])
        b = empirical_fisher(MomentCache(model, grid).moments(theta), grid)
        assert b.var_info[0, 0] == pytest.approx(1.0 / (2.0 * beta * beta), rel=1e-13)


def test_trig_drift_block_approaches_half_identity():
    model, _, theta = trig_known_model()
    grid = uniform_grid(4000, 0.01)  # T = 40, h small
    b = empirical_fisher(MomentCache(model, grid).moments(theta), grid)
    assert np.allclose(b.drift_info, np.diag([1.0, 0.5]), atol=1e-3)


def test_limit_blocks_closed_forms():
    scaled, _, _ = trig_scaled_model()
    theta = Theta((1.0, 0.5), (1.7,))
    b = periodic_limit_fisher(scaled, theta, period=1.0)
    assert b.var_info[0, 0] == pytest.approx(1.0 / (2.0 * 1.7**2), rel=1e-10)

    pure_cos = ModelSpec(
        LinearSignal((CosineFn(1.0),)), KnownNoise(constant_profile(1.0))
    )
    b2 = periodic_limit_fisher(pure_cos, Theta((0.4,), ()), period=1.0)
    assert b2.drift_info[0, 0] == pytest.approx(0.5, rel=1e-10)


def test_pattern_limit_constant_drift():
    model, _, _ = mean_model()
    b = periodic_limit_fisher(model, Theta((1.0,), ()), period=1.0, offsets=[0.5, 1.0])
    assert b.drift_info[0, 0] == pytest.approx(1.0, rel=1e-14)


def test_pattern_limit_equals_empirical_sums_exactly():
    model, _, theta = trig_scaled_model()
    offsets = [0.25, 1.0]
    grid = periodic_pattern_grid(offsets, 1.0, 40)
    emp = empirical_fisher(MomentCache(model, grid).moments(theta), grid)
    lim = periodic_limit_fisher(model, theta, period=1.0, offsets=offsets)
    assert np.all(np.abs(emp.drift_info - lim.drift_info) < 1e-12)
    assert np.all(np.abs(emp.var_info - lim.var_info) < 1e-12)


def test_empirical_approaches_vanishing_step_limit():
    model, _, theta = trig_scaled_model()
    lim = periodic_limit_fisher(model, theta, period=1.0)
    errs = []
    for k in (3, 5):  # h = P/8, P/32 at fixed T = 8P
        n = 8 * 2**k
        grid = uniform_grid(n, 1.0 / 2**k)
        emp = empirical_fisher(MomentCache(model, grid).moments(theta), grid)
        errs.append(np.abs(emp.joint - lim.joint).max())
    assert errs[1] < errs[0]
    assert errs[1] < 0.01 * np.abs(lim.joint).max()


def test_aperiodic_model_is_rejected():
    model, _, theta = curved_model()  # noise rate 2 + sin t is not 1-periodic
    with pytest.raises(PeriodicityError):
        periodic_limit_fisher(model, theta, period=1.0)


def test_local_scaling_inverts_design_information():
    model, _, theta = trig_scaled_model()
    grid = uniform_grid(500, 0.25)
    b = empirical_fisher(MomentCache(model, grid).moments(theta), grid)
    phi = b.local_scaling
    phi_p, phi_q = phi[:2, :2], phi[2:, 2:]
    assert np.allclose(
        phi_p @ (grid.total_time * b.drift_info) @ phi_p, np.eye(2), atol=1e-10
    )
    assert np.allclose(phi_q @ (grid.n * b.var_info) @ phi_q, np.eye(1), atol=1e-10)
    assert not phi[:2, 2:].any() and not phi[2:, :2].any()


def test_local_scaling_shrinks_with_design_size():
    model, _, theta = trig_scaled_model()
    norms = []
    for n in (100, 1000, 10_000):
        grid = uniform_grid(n, 0.25)
        b = empirical_fisher(MomentCache(model, grid).moments(theta), grid)
        norms.append(np.linalg.norm(b.local_scaling, 2))
    assert norms[0] > norms[1] > norms[2]


def test_limit_scaling_ratio_is_design_free():
    model, _, _ = trig_scaled_model()
    ta = Theta((1.0, 0.5), (1.0,))
    tb = Theta((0.6, 0.2), (2.0,))
    ratios = []
    for n in (100, 10_000):
        grid = uniform_grid(n, 0.25)
        ba = periodic_limit_fisher(model, ta, period=1.0, grid=grid)
        bb = periodic_limit_fisher(model, tb, period=1.0, grid=grid)
        ratios.append(np.linalg.solve(ba.local_scaling, bb.local_scaling))
    assert np.allclose(ratios[0], ratios[1], atol=1e-12)


def test_singular_information_is_reported():
    # a second constant basis atom duplicates the first: rank-deficient design
    model = ModelSpec(
        LinearSignal((ConstantFn(), ConstantFn())), KnownNoise(constant_profile(1.0))
    )
    grid = uniform_grid(20, 0.5)
    b = empirical_fisher(MomentCache(model, grid).moments(Theta((1.0, 1.0), ())), grid)
    with pytest.raises(SingularInformationError):
        b.local_scaling


def _blocks_written_out(b):
    """joint, joint_inverse and local_scaling assembled block by block, each block
    filled by its own expression."""
    p, d = b.p, b.d

    def inv_sqrt(matrix):
        if matrix.size == 0:
            return np.zeros_like(matrix)
        eigvals, eigvecs = np.linalg.eigh(0.5 * (matrix + matrix.T))
        return (eigvecs * eigvals**-0.5) @ eigvecs.T

    joint, inverse, scaling = (np.zeros((d, d)) for _ in range(3))
    joint[:p, :p] = b.drift_info
    joint[p:, p:] = b.var_info
    if b.p:
        inverse[:p, :p] = np.linalg.inv(b.drift_info)
    if b.q:
        inverse[p:, p:] = np.linalg.inv(b.var_info)
    scaling[:p, :p] = inv_sqrt(float(b.total_time) * b.drift_info)
    scaling[p:, p:] = inv_sqrt(int(b.n) * b.var_info)
    return joint, inverse, scaling


def _bundles_of_each_layout():
    """(p, q) = (1, 0), (2, 1) and (0, 1), and limit bundles with a grid attached."""
    grid = grid_from_instants([0.0, 0.3, 1.0, 1.4, 2.9, 3.05, 4.7])
    for build in (mean_model, trig_scaled_model):
        model, _, theta = build()
        yield empirical_fisher(MomentCache(model, grid).moments(theta), grid)
    yield InformationBundle(np.zeros((0, 0)), np.array([[0.7]]), 12.5, 50, "direct")
    model, _, theta = trig_scaled_model()
    for n in (40, 333):
        grid = uniform_grid(n, 0.25)
        yield periodic_limit_fisher(model, theta, period=1.0, grid=grid)
        yield periodic_limit_fisher(
            model, theta, period=1.0, offsets=[0.25, 0.5, 0.75, 1.0], grid=grid
        )


def test_block_layout_is_bit_equal_to_the_blocks_written_out():
    layouts = set()
    for b in _bundles_of_each_layout():
        layouts.add((b.p, b.q))
        for got, want in zip((b.joint, b.joint_inverse, b.local_scaling), _blocks_written_out(b)):
            assert got.shape == (b.d, b.d)
            assert np.array_equal(got, want)
    assert layouts == {(1, 0), (2, 1), (0, 1)}


def test_sizes_give_the_error_normalizers():
    # drift errors scale by sqrt(T), variance errors by sqrt(n)
    for b in _bundles_of_each_layout():
        want = np.concatenate(
            [np.full(b.p, math.sqrt(b.total_time)), np.full(b.q, math.sqrt(b.n))]
        )
        assert np.array_equal(np.sqrt(b.sizes), want)
    grid = uniform_grid(400, 0.25)
    model, _, theta = trig_scaled_model()
    b = periodic_limit_fisher(model, theta, period=1.0, grid=grid)
    assert (b.total_time, b.n, b.source) == (grid.total_time, grid.n, "limit:vanishing_step")
    assert b.sizes.tolist() == [100.0, 100.0, 400.0]


def test_bundle_without_design_names_the_missing_size():
    model, _, theta = trig_scaled_model()
    for b in (
        periodic_limit_fisher(model, theta, period=1.0),
        InformationBundle(np.eye(1), np.eye(1), None, None, "direct"),
    ):
        assert b.joint_inverse.shape == (b.d, b.d)  # the inverse needs no design
        for name in ("sizes", "local_scaling"):
            with pytest.raises(
                DomainError,
                match=r"^bundle carries no design size; attach a grid to form local scalings$",
            ):
                getattr(b, name)


@pytest.mark.parametrize("what", ["drift block", "variance block"])
def test_singular_block_error_names_the_block(what):
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    blocks = (singular, np.eye(1)) if what == "drift block" else (np.eye(1), singular)
    b = InformationBundle(*blocks, 10.0, 20, "direct")
    message = rf"^{what} has eigenvalue .+ below the floor 1e-12$"
    for name in ("joint_inverse", "local_scaling"):
        with pytest.raises(SingularInformationError, match=message):
            getattr(b, name)


def test_bundle_json_round_trip(tmp_path):
    # the fisher.json blocks `signoise fisher` writes equal the bundle's exactly
    model, _, theta = trig_scaled_model()
    grid = uniform_grid(64, 0.25)
    b = empirical_fisher(MomentCache(model, grid).moments(theta), grid)
    cfg = {
        "model": TRIG_SCALED_CONFIG,
        "theta": {"alpha": theta.alpha.tolist(), "beta": theta.beta.tolist()},
        "grid": {"kind": "uniform", "n": 64, "h": 0.25},
        "source": "empirical",
    }
    path = tmp_path / "fisher_cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["fisher", "--config", str(path), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "fisher.json").read_text())
    assert payload.pop("config_digest")
    assert payload == b.to_dict()
    assert np.array_equal(np.array(payload["drift_info"]), b.drift_info)
    assert np.array_equal(np.array(payload["var_info"]), b.var_info)
    assert payload["total_time"] == b.total_time
    assert payload["n"] == b.n
    assert payload["source"] == b.source


def test_empirical_fisher_refuses_moments_of_another_grid():
    model, _, theta = trig_scaled_model()
    m = MomentCache(model, uniform_grid(400, 0.1)).moments(theta)
    assert m.grid is not None and m.grid.n == 400
    # the same length, so only the grid tells: this used to give the diagonal (0.4, 0.194, 0.5)
    with pytest.raises(DomainError, match="^the moments hold another grid of 400 intervals$"):
        empirical_fisher(m, uniform_grid(400, 0.25))
    same = empirical_fisher(m, uniform_grid(400, 0.1))  # another object of the same digest
    assert np.array_equal(same.joint, empirical_fisher(m, m.grid).joint)

    # moments built by hand carry no grid and keep the length check alone
    hand = IncrementMoments(m.mean, m.var, m.grad_mean, m.grad_var)
    assert hand.grid is None
    assert np.array_equal(empirical_fisher(hand, m.grid).joint, same.joint)
    empirical_fisher(hand, uniform_grid(400, 0.25))
    with pytest.raises(DomainError, match="moments have n=400, grid has n=399"):
        empirical_fisher(hand, uniform_grid(399, 0.1))
