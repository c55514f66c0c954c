"""End-to-end acceptance gate.

One test per shipped guarantee, ordered so ``pytest -v`` reads as a
checklist.  Tolerances follow the documented contracts; the long-running
tests also assert their advertised wall-clock budgets.  Every random
input is seeded, so reruns see identical data.
"""

import math
import time
from pathlib import Path

import numpy as np

from helpers import (
    MEAN_CONFIG,
    TRIG_SCALED_CONFIG,
    curved_model,
    mean_model,
    sample_interior,
    trig_known_model,
    trig_scaled_model,
)
from signoise import (
    ConstantFn,
    LinearSignal,
    ModelSpec,
    MomentCache,
    ParameterSpace,
    PeriodicStepFn,
    Profile,
    ScaledNoise,
    Theta,
    closed_form_mle,
    empirical_fisher,
    expected_power_identity,
    log_likelihood,
    mle_numeric,
    periodic_limit_fisher,
    periodic_pattern_grid,
    posterior_mean_importance,
    posterior_mean_quadrature,
    run_study,
    save_report,
    score,
    simulate_batch,
    simulate_increments,
    study_from_dict,
    uniform_grid,
)

MEAN_SPACE = {"alpha": [[0.0, 2.0]], "beta": []}
MEAN_THETA = {"alpha": [1.0], "beta": []}
SCALED_SPACE = {"alpha": [[-3.0, 3.0], [-3.0, 3.0]], "beta": [[0.1, 4.0]]}
SCALED_THETA = {"alpha": [1.0, 0.5], "beta": [1.0]}


def _steps_model():
    """Step-function drift atom and step noise weight, d = 3."""
    model = ModelSpec(
        LinearSignal((ConstantFn(), PeriodicStepFn((1.0, -0.5, 0.25, 0.8), 1.0))),
        ScaledNoise(
            Profile(offset=0.6, coefs=(0.5,), atoms=(PeriodicStepFn((0.2, 1.0), 1.0),))
        ),
    )
    space = ParameterSpace(((-3.0, 3.0), (-3.0, 3.0)), ((0.1, 4.0),))
    theta = Theta(np.array([0.7, -0.4]), np.array([1.2]))
    return model, space, theta


def _named_checks(report, *prefixes):
    picked = [c for c in report.checks if c["name"].startswith(prefixes)]
    assert picked, f"no checks matching {prefixes} in {[c['name'] for c in report.checks]}"
    return picked


def test_01_closed_form_oracle_matches_numeric_mle():
    # trig drift with known noise has an exact weighted-least-squares MLE;
    # the generic optimizer must land on it to 1e-6 per coordinate.
    t0 = time.monotonic()
    model, space, theta = trig_known_model()
    grid = uniform_grid(500, 0.1)
    cache = MomentCache(model, grid)
    worst = 0.0
    for r in range(50):
        sample = simulate_increments(model, theta, grid, seed=101, replicate=r, cache=cache)
        closed = closed_form_mle(model, space, grid, sample, cache=cache)
        numeric = mle_numeric(model, space, grid, sample, cache=cache)
        rel = np.abs(numeric.theta.vector - closed.theta.vector) / np.abs(closed.theta.vector)
        worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - t0
    assert worst < 1e-6, f"max coordinate rel err {worst:.3e}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    print(f"numeric vs closed form: max rel err {worst:.2e} over 50 samples, {elapsed:.1f}s")


def test_02_normalized_drift_errors_are_gaussian():
    # sqrt(T) (a_hat - a) matched against its limit law at every rung:
    # KS at level 1e-3 and empirical variance within 3 SE of the target.
    cfg = study_from_dict(
        {
            "kind": "normality",
            "model": MEAN_CONFIG,
            "space": MEAN_SPACE,
            "theta": MEAN_THETA,
            "grid": {"kind": "uniform", "h": 0.25},
            "n_values": [100, 400, 1600],
            "replicates": 2000,
            "seed": 202,
            "estimator": "mle-closed",
        }
    )
    report = run_study(cfg)
    normal = _named_checks(report, "normal[")
    variance = _named_checks(report, "variance[")
    assert len(normal) == 3 and len(variance) == 3
    assert report.passed, "\n".join(report.check_lines())
    pvals = [c["observed"] for c in normal]
    print(f"normality at n=100/400/1600: KS p-values {[f'{p:.3f}' for p in pvals]}")


def test_03_rmse_decays_at_root_rate_in_both_regimes():
    # log-RMSE slope -0.5 +/- 0.1: drift block against total time, scale
    # block against the observation count, under both a shrinking uniform
    # step and a fixed two-point cycle.
    t0 = time.monotonic()
    base = {
        "kind": "rate",
        "model": TRIG_SCALED_CONFIG,
        "space": SCALED_SPACE,
        "theta": SCALED_THETA,
        "n_values": [100, 400, 1600],
        "replicates": 1000,
        "estimator": "mle-closed",
    }
    slopes = {}
    for label, grid_cfg, seed in (
        ("shrinking-step", {"kind": "uniform", "step_rule": "inverse_sqrt", "c": 1.0}, 303),
        ("fixed-pattern", {"kind": "pattern", "offsets": [0.25, 1.0], "period": 1.0}, 304),
    ):
        report = run_study(study_from_dict({**base, "grid": grid_cfg, "seed": seed}))
        assert report.passed, f"{label}:\n" + "\n".join(report.check_lines())
        got = {c["name"]: round(c["observed"], 4) for c in _named_checks(report, "slope-")}
        slopes[label] = got
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"took {elapsed:.1f}s, budget 600s"
    print(f"slope deviations from -1/2: {slopes}, {elapsed:.1f}s")


def test_04_covariance_matches_inverse_limit_information():
    # Pattern-design ladder at n=1600: the empirical covariance of the
    # normalized errors must sit within 10% (max norm) of the inverse of
    # the closed-form one-cycle information.
    cfg = study_from_dict(
        {
            "kind": "normality",
            "model": TRIG_SCALED_CONFIG,
            "space": SCALED_SPACE,
            "theta": SCALED_THETA,
            "grid": {"kind": "pattern", "offsets": [0.25, 1.0], "period": 1.0},
            "n_values": [1600],
            "replicates": 2000,
            "seed": 404,
            "estimator": "mle-closed",
            "info_source": "limit",
            "limit_period": 1.0,
            "limit_regime": "pattern",
        }
    )
    report = run_study(cfg)
    (cov,) = _named_checks(report, "covariance[")
    assert cov["passed"], f"{cov['detail']}"
    print(f"covariance gap {cov['observed']:.4f} vs budget {cov['threshold']:.4f}")


def test_05_local_likelihood_expansion():
    # Central sequence close to standard normal at the top rung
    # (per-coordinate KS < 0.05), expansion remainder shrinking along the
    # ladder, and the likelihood-ratio mean pinned at one for three
    # fixed directions.
    cfg = study_from_dict(
        {
            "kind": "lan",
            "model": TRIG_SCALED_CONFIG,
            "space": SCALED_SPACE,
            "theta": SCALED_THETA,
            "grid": {"kind": "uniform", "h": 0.25},
            "n_values": [100, 400, 1600],
            "replicates": 2000,
            "seed": 505,
            "directions": [[0.6, 0.3, 0.2], [0.0, 0.5, 0.7], [0.4, 0.4, 0.4]],
        }
    )
    report = run_study(cfg)
    _named_checks(report, "central-normal[")
    _named_checks(report, "unit-mean-ratio[")
    _named_checks(report, "remainder-decay[")
    assert report.passed, "\n".join(report.check_lines())
    rem = {
        (r["n"], r["coord"]): r["value"]
        for r in report.rows
        if r["metric"] == "mean_abs_remainder"
    }
    print(f"remainder table {rem}")


def test_06_power_mean_identity():
    # ln E[ (likelihood ratio)^z ] has a closed form; the MC log-mean over
    # 1e5 replicates must match it within 4 SE for three powers and three
    # parameter/shift pairs.
    t0 = time.monotonic()
    model, _space, _theta = trig_scaled_model()
    grid = uniform_grid(200, 0.25)
    cache = MomentCache(model, grid)
    reps = 100_000
    pairs = [
        (np.array([1.0, 0.5, 1.0]), np.array([0.2, -0.1, 0.1])),
        (np.array([0.6, -0.4, 1.5]), np.array([0.0, 0.15, -0.1])),
        (np.array([-0.5, 0.8, 0.7]), np.array([-0.15, 0.1, 0.08])),
    ]
    worst = 0.0
    for j, (base_vec, shift) in enumerate(pairs):
        theta = Theta.from_vector(base_vec, model.p)
        m0 = cache.moments(theta)
        m1 = cache.moments(Theta.from_vector(base_vec + shift, model.p))
        draws = simulate_batch(model, theta, grid, seed=606 + j, replicates=reps, cache=cache)
        # row-wise log-ratio in slabs to keep the temporaries small
        lam = np.empty(reps)
        const = -0.5 * float(np.sum(np.log(m1.var / m0.var)))
        for s in range(0, reps, 20_000):
            blk = draws[s : s + 20_000]
            q1 = np.sum((blk - m1.mean) ** 2 / m1.var, axis=1)
            q0 = np.sum((blk - m0.mean) ** 2 / m0.var, axis=1)
            lam[s : s + 20_000] = const - 0.5 * (q1 - q0)
        del draws
        for z in (0.25, 0.5, 0.75):
            w = np.exp(z * lam)
            mc_mean = float(w.mean())
            se_log = float(w.std(ddof=1)) / math.sqrt(reps) / mc_mean
            closed = expected_power_identity(model, theta, shift, z, grid, cache=cache)
            gap = abs(closed - math.log(mc_mean))
            assert gap <= 4.0 * se_log, (
                f"pair {j}, z={z}: closed {closed:.6f} vs MC {math.log(mc_mean):.6f}, "
                f"gap {gap:.2e} > 4*SE {4 * se_log:.2e}"
            )
            worst = max(worst, gap / (4.0 * se_log))
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"
    print(f"power-mean identity: worst gap {100 * worst:.0f}% of budget, {elapsed:.1f}s")


def test_07_information_converges_to_its_limit():
    # Fixed horizon of 8 periods, step halved four times: the empirical
    # information must approach the vanishing-step limit monotonically and
    # finish within 1%.  On a cyclic design the one-cycle limit is exact.
    model, _space, theta = trig_scaled_model()
    period = 1.0
    limit = periodic_limit_fisher(model, theta, period)
    ref = float(np.abs(limit.joint).max())
    errs = []
    for k in (3, 5, 7, 9):
        n = 8 * 2**k
        grid = uniform_grid(n, period / 2**k)
        emp = empirical_fisher(MomentCache(model, grid).moments(theta), grid)
        errs.append(float(np.abs(emp.joint - limit.joint).max()) / ref)
    assert all(b < a for a, b in zip(errs, errs[1:])), f"not monotone: {errs}"
    assert errs[-1] < 0.01, f"final relative error {errs[-1]:.4f}"

    pat = periodic_pattern_grid((0.25, 1.0), period, 800)
    pat_limit = periodic_limit_fisher(model, theta, period, offsets=(0.25, 1.0))
    pat_emp = empirical_fisher(MomentCache(model, pat).moments(theta), pat)
    pat_gap = float(np.abs(pat_emp.joint - pat_limit.joint).max())
    assert pat_gap < 1e-12, f"pattern gap {pat_gap:.2e}"
    print(f"step-halving errors {[f'{e:.2e}' for e in errs]}, pattern gap {pat_gap:.1e}")


def test_08_bayes_tracks_mle_and_is_normal():
    # Flat-prior posterior mean: close to the MLE at n=1000, asymptotically
    # normal at n=1600, and the cubature and importance routes agree.
    model, space, theta = trig_scaled_model()
    grid = uniform_grid(1000, 0.1)
    cache = MomentCache(model, grid)
    sample = simulate_increments(model, theta, grid, seed=808, cache=cache)
    mle = closed_form_mle(model, space, grid, sample, cache=cache)
    tens = posterior_mean_quadrature(model, space, grid, sample, cache=cache)
    gap = np.abs(tens.theta.vector - mle.theta.vector)
    assert np.all(gap < 0.05), f"posterior mean vs MLE gap {gap}"

    imp = posterior_mean_importance(
        model, space, grid, sample, draws=30_000, seed=881, cache=cache
    )
    route_gap = np.abs(tens.theta.vector - imp.theta.vector)
    assert np.all(route_gap <= 3.0 * imp.stderr), f"routes differ: {route_gap} vs {imp.stderr}"

    cfg = study_from_dict(
        {
            "kind": "normality",
            "model": MEAN_CONFIG,
            "space": MEAN_SPACE,
            "theta": MEAN_THETA,
            "grid": {"kind": "uniform", "h": 0.25},
            "n_values": [1600],
            "replicates": 2000,
            "seed": 882,
            "estimator": "bayes",
        }
    )
    report = run_study(cfg)
    gauss = _named_checks(report, "normal[", "variance[")
    assert all(c["passed"] for c in gauss), "\n".join(report.check_lines())
    print(f"bayes-MLE gap {gap.max():.4f}, route gap {route_gap.max():.2e}")


def test_09_score_matches_finite_differences():
    # Analytic score against central differences of the log-likelihood at
    # 100 random interior points for each built-in family shape.
    grid = uniform_grid(64, 0.3)
    families = {
        "constant-mean": mean_model(),
        "trig-known": trig_known_model(),
        "trig-scaled": trig_scaled_model(),
        "curved": curved_model(),
        "steps": _steps_model(),
    }
    worst = 0.0
    for name, (model, space, _theta) in families.items():
        cache = MomentCache(model, grid)
        rng = np.random.default_rng(909)
        for i in range(100):
            th = sample_interior(space, rng)
            y = simulate_increments(model, th, grid, seed=909, replicate=i, cache=cache).y
            s = score(cache.moments(th), y)
            fd = np.empty(model.d)
            for k in range(model.d):
                h = 2e-5 * max(1.0, abs(float(th.vector[k])))
                e = np.zeros(model.d)
                e[k] = h
                up = log_likelihood(cache.moments(Theta.from_vector(th.vector + e, model.p)), y)
                dn = log_likelihood(cache.moments(Theta.from_vector(th.vector - e, model.p)), y)
                fd[k] = (up - dn) / (2.0 * h)
            rel = float((np.abs(s - fd) / np.maximum(1.0, np.abs(fd))).max())
            worst = max(worst, rel)
            assert rel < 1e-6, f"{name}, point {i}: rel err {rel:.2e}"
    print(f"score vs finite differences: worst rel err {worst:.2e} over 5 x 100 points")


def test_10_reports_identical_across_worker_counts(tmp_path):
    # Same config and seed must give byte-identical reports at any
    # parallelism, in memory and on disk.
    cfg_dict = {
        "kind": "normality",
        "model": MEAN_CONFIG,
        "space": MEAN_SPACE,
        "theta": MEAN_THETA,
        "grid": {"kind": "uniform", "h": 0.25},
        "n_values": [100, 200],
        "replicates": 256,
        "seed": 1010,
        "estimator": "mle-closed",
    }
    rep_serial = run_study(study_from_dict(cfg_dict), workers=1)
    rep_pool = run_study(study_from_dict(cfg_dict), workers=8)
    assert rep_serial.to_json() == rep_pool.to_json()

    d1 = tmp_path / "serial"
    d2 = tmp_path / "pool"
    d1.mkdir()
    d2.mkdir()
    files1 = sorted(save_report(rep_serial, d1))
    files2 = sorted(save_report(rep_pool, d2))
    assert [Path(f).name for f in files1] == [Path(f).name for f in files2]
    for f1, f2 in zip(files1, files2):
        assert Path(f1).read_bytes() == Path(f2).read_bytes(), f"{Path(f1).name} differs"
    print(f"reports byte-identical across workers 1 and 8 ({len(files1)} files)")
