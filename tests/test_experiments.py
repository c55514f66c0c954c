import concurrent.futures
import json
import os
from functools import partial

import numpy as np
import pytest

from signoise import (
    ConfigError,
    DomainError,
    MomentCache,
    OutOfSpaceError,
    SingularDesignError,
    StudyConfig,
    closed_form_mle,
    config,
    estimate,
    experiments,
    gaussian_expected_loss,
    run_study,
    save_report,
    study_from_dict,
    uniform_grid,
)

from helpers import MEAN_CONFIG, TRIG_SCALED_CONFIG

MEAN_SPACE = {"alpha": [[0.0, 2.0]], "beta": []}
MEAN_THETA = {"alpha": [1.0], "beta": []}
SCALED_SPACE = {"alpha": [[-3.0, 3.0], [-3.0, 3.0]], "beta": [[0.1, 4.0]]}
SCALED_THETA = {"alpha": [1.0, 0.5], "beta": [1.0]}
UNIFORM_QUARTER = {"kind": "uniform", "h": 0.25}


def _study(**overrides):
    base = {
        "kind": "normality",
        "model": MEAN_CONFIG,
        "space": MEAN_SPACE,
        "theta": MEAN_THETA,
        "grid": UNIFORM_QUARTER,
        "n_values": [100, 200],
        "replicates": 200,
        "seed": 7,
        "estimator": "mle-closed",
    }
    base.update(overrides)
    if base["kind"] == "lan":
        del base["estimator"]  # a lan study never estimates, so it takes no estimator
    return base


def test_exact_gaussian_normality_passes():
    report = run_study(study_from_dict(_study()))
    assert report.passed
    names = {c["name"] for c in report.checks}
    assert "normal[n=100, alpha[0]]" in names
    assert "variance[n=200, alpha[0]]" in names
    assert "covariance[n=200]" in names
    assert "failure-rate[n=100]" in names
    # the normalized error is exactly standard normal here
    var_rows = [
        r for r in report.rows if r["metric"] == "variance" and r["n"] == 200
    ]
    assert len(var_rows) == 1
    assert abs(var_rows[0]["value"] - 1.0) < 4.0 * var_rows[0]["se"]


def test_normality_trig_scaled_structure():
    cfg = _study(
        model=TRIG_SCALED_CONFIG,
        space=SCALED_SPACE,
        theta=SCALED_THETA,
        n_values=[200, 400],
        replicates=200,
    )
    report = run_study(study_from_dict(cfg))
    assert report.passed
    coords = {r["coord"] for r in report.rows if r["metric"] == "bias"}
    assert coords == {"alpha[0]", "alpha[1]", "beta[0]"}


def test_rate_study_slopes_and_plot_data(tmp_path):
    cfg = _study(
        kind="rate",
        model=TRIG_SCALED_CONFIG,
        space=SCALED_SPACE,
        theta=SCALED_THETA,
        grid={"kind": "uniform", "step_rule": "inverse_sqrt", "c": 1.0},
        n_values=[100, 400, 1600],
        replicates=200,
        seed=19,
    )
    report = run_study(study_from_dict(cfg))
    assert report.passed
    slopes = {r["metric"]: r["value"] for r in report.rows if r["n"] == 0}
    assert abs(slopes["slope_drift"] + 0.5) < 0.1
    assert abs(slopes["slope_var"] + 0.5) < 0.1
    assert set(report.meta["rate_points"]) == {"drift", "var"}

    paths = save_report(report, tmp_path, "rate")
    wrote = {os.path.basename(p) for p in paths}
    assert wrote == {"rate.json", "rate.csv", "rate_drift.dat", "rate_var.dat"}
    drift_lines = (tmp_path / "rate_drift.dat").read_text().strip().splitlines()
    assert drift_lines[0].startswith("#")
    assert len(drift_lines) == 4  # header + one point per rung


def test_rate_study_without_variance_block_has_no_var_table():
    cfg = _study(
        kind="rate",
        n_values=[100, 1000],
        replicates=100,
        grid={"kind": "uniform", "step_rule": "inverse_sqrt", "c": 1.0},
    )
    report = run_study(study_from_dict(cfg))
    metrics = {r["metric"] for r in report.rows}
    assert "rmse_drift" in metrics
    assert "rmse_var" not in metrics
    assert "slope_var" not in metrics
    assert "var" not in report.meta["rate_points"]


@pytest.mark.parametrize("rungs", [2, 3])
def test_slope_fit_matches_linregress_bit_for_bit(rungs):
    from scipy.stats import linregress  # the oracle; the rate study does not load scipy.stats

    rng = np.random.default_rng(rungs)
    for _ in range(500):
        sizes = np.sort(rng.choice(np.arange(10, 100_000), rungs, replace=False))
        x = np.log(sizes).tolist()
        y = (-0.5 * np.log(sizes) + rng.normal(0.0, 0.2, rungs)).tolist()
        fit = linregress(x, y)
        slope, stderr = experiments._slope_fit(x, y)
        assert slope == fit.slope
        assert stderr == fit.stderr


def test_lan_zero_direction_probe_degenerates():
    cfg = _study(
        kind="lan",
        model=TRIG_SCALED_CONFIG,
        space=SCALED_SPACE,
        theta=SCALED_THETA,
        n_values=[100, 200],
        replicates=100,
        directions=[[0.0, 0.0, 0.0]],
    )
    report = run_study(study_from_dict(cfg))
    rem = [r for r in report.rows if r["metric"] == "mean_abs_remainder"]
    assert rem and all(r["value"] == 0.0 for r in rem)
    ratio = [r for r in report.rows if r["metric"] == "mean_ratio"]
    assert ratio and all(r["value"] == 1.0 for r in ratio)
    by_name = {c["name"]: c["passed"] for c in report.checks}
    assert by_name["unit-mean-ratio[n=100, w0]"]
    assert by_name["unit-mean-ratio[n=200, w0]"]
    assert by_name["remainder-decay[w0]"]


def test_lan_drift_only_direction_sits_at_roundoff_floor():
    # a drift-only shift in a linear family makes the log-ratio exactly
    # quadratic: the remainder ladder is roundoff jitter, not decay, and
    # the check must treat it as converged
    cfg = _study(
        kind="lan",
        model=TRIG_SCALED_CONFIG,
        space=SCALED_SPACE,
        theta=SCALED_THETA,
        n_values=[100, 200],
        replicates=100,
        directions=[[0.5, 0.3, 0.0]],
    )
    report = run_study(study_from_dict(cfg))
    rem = [r["value"] for r in report.rows if r["metric"] == "mean_abs_remainder"]
    assert rem and all(0.0 <= v < 1e-11 for v in rem)
    (decay,) = [c for c in report.checks if c["name"] == "remainder-decay[w0]"]
    assert decay["passed"]
    assert "roundoff floor" in decay["detail"]


def test_lan_direction_leaving_the_box_is_named():
    cfg = _study(
        kind="lan",
        model=TRIG_SCALED_CONFIG,
        space=SCALED_SPACE,
        theta=SCALED_THETA,
        n_values=[100],
        replicates=100,
        directions=[[0.5, 0.2, -0.3], [0.0, 0.0, 50.0]],
    )
    with pytest.raises(OutOfSpaceError, match=r"direction 1 at n=100: shifted point") as err:
        run_study(study_from_dict(cfg))
    assert isinstance(err.value, DomainError)


def test_lan_study_checks_and_rows():
    cfg = _study(
        kind="lan",
        model=TRIG_SCALED_CONFIG,
        space=SCALED_SPACE,
        theta=SCALED_THETA,
        n_values=[100, 400],
        replicates=1200,
        directions=[[0.5, 0.2, -0.3]],
        seed=23,
    )
    report = run_study(study_from_dict(cfg))
    assert report.passed
    names = [c["name"] for c in report.checks]
    # the ratio identity is checked on every rung, normality on the last only
    assert "unit-mean-ratio[n=100, w0]" in names
    assert "unit-mean-ratio[n=400, w0]" in names
    assert "central-normal[n=400, alpha[0]]" in names
    assert not any(n.startswith("central-normal[n=100") for n in names)
    assert "remainder-decay[w0]" in names
    rem = {
        r["n"]: r["value"] for r in report.rows if r["metric"] == "mean_abs_remainder"
    }
    assert rem[100] > rem[400]


def test_risk_exact_gaussian_ratio_and_lattice():
    cfg = _study(kind="risk", n_values=[400], replicates=300, seed=3)
    report = run_study(study_from_dict(cfg))
    assert report.passed
    points = {r["coord"] for r in report.rows if r["metric"] == "risk[power:2]"}
    assert points == {"point0", "point1", "point2"}  # 2d + 1 lattice, d = 1
    ratio = [r for r in report.rows if r["metric"] == "risk_ratio[power:2]"]
    assert len(ratio) == 1
    assert 0.8 < ratio[0]["value"] < 1.2


def test_risk_trig_ratio_within_band():
    cfg = _study(
        kind="risk",
        model=TRIG_SCALED_CONFIG,
        space=SCALED_SPACE,
        theta=SCALED_THETA,
        n_values=[400],
        replicates=300,
        seed=8,
    )
    report = run_study(study_from_dict(cfg))
    assert report.passed
    ratio = [r for r in report.rows if r["metric"] == "risk_ratio[power:2]"]
    assert 0.9 <= ratio[0]["value"] <= 1.3


def test_indicator_loss_is_diagnostic_only():
    cfg = _study(
        kind="risk",
        n_values=[100],
        replicates=100,
        losses=[["power", 2.0], ["indicator", 10.0]],
    )
    report = run_study(study_from_dict(cfg))
    metrics = {r["metric"] for r in report.rows}
    assert "sup_risk[indicator:10]" in metrics
    assert "bound[indicator:10]" in metrics
    # no check is keyed on the indicator loss
    assert not any("indicator" in c["name"] for c in report.checks)


WORKER_STUDIES = {
    "normality": {},
    "rate": {
        "kind": "rate",
        "n_values": [100, 1000],
        "grid": {"kind": "uniform", "step_rule": "inverse_sqrt", "c": 1.0},
    },
    "lan": {
        "kind": "lan",
        "model": TRIG_SCALED_CONFIG,
        "space": SCALED_SPACE,
        "theta": SCALED_THETA,
        "directions": [[0.5, 0.2, -0.3], [0.0, 0.4, 0.6]],
    },
    "risk": {"kind": "risk", "n_values": [100]},
}


@pytest.mark.parametrize("kind", sorted(WORKER_STUDIES))
def test_reports_are_bit_identical_across_runs_and_workers(kind):
    overrides = {"n_values": [100], "replicates": 100, **WORKER_STUDIES[kind]}
    cfg = study_from_dict(_study(**overrides))
    a = run_study(cfg, workers=1).to_json()
    b = run_study(cfg, workers=1).to_json()
    c = run_study(cfg, workers=2).to_json()
    assert a == b == c


def test_one_process_pool_per_study(monkeypatch):
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    # run_study imports the pool class when it needs one, so it is counted at its source
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    cfg = study_from_dict(_study(kind="risk", n_values=[100, 200], replicates=100))
    report = run_study(cfg, workers=2)
    assert len(pools) == 1  # not one per rung and lattice point
    assert set(report.meta["failures"]) == {"100", "200"}
    run_study(cfg, workers=1)
    assert len(pools) == 1


def _flaky_estimator(model, space, grid, sample, cache, **_):
    """Fails replicates r = 0 mod 7 and r = 0 mod 11 with two error classes."""
    if sample.replicate % 7 == 0:
        raise SingularDesignError("forced")
    if sample.replicate % 11 == 0:
        raise np.linalg.LinAlgError("forced")
    return closed_form_mle(model, space, grid, sample, cache=cache)


@pytest.mark.parametrize("workers", [1, 2])
def test_failures_are_bucketed_by_error_class(monkeypatch, workers):
    monkeypatch.setitem(estimate.ESTIMATORS, "mle", _flaky_estimator)
    cfg = study_from_dict(_study(estimator="mle", n_values=[100, 200], replicates=100))
    report = run_study(cfg, workers=workers)
    singular = sum(1 for r in range(100) if r % 7 == 0)
    linalg = sum(1 for r in range(100) if r % 7 and r % 11 == 0)
    assert (singular, linalg) == (15, 8)
    buckets = {"LinAlgError": linalg, "SingularDesignError": singular}
    assert report.meta["failure_classes"] == {"100": buckets, "200": buckets}
    assert list(report.meta["failure_classes"]["100"]) == sorted(buckets)
    assert report.meta["failures"] == {"100": 23, "200": 23}
    assert not report.passed  # 23% is far above the 1% failure-rate limit


def test_study_schema_defaults_and_number_coercion():
    required = {k: v for k, v in _study().items() if k != "estimator"}
    assert study_from_dict(required) == StudyConfig(**required)
    # each number-coerced key on a study that reads it
    for kind, loose, exact in [
        ("normality", {"info_source": "limit", "limit_period": 1},
         {"info_source": "limit", "limit_period": 1.0}),
        ("lan", {"directions": [[1]]}, {"directions": [[1.0]]}),
        ("risk", {"losses": [["power", 2]]}, {"losses": [["power", 2.0]]}),
    ]:
        loose, exact = _study(kind=kind, **loose), _study(kind=kind, **exact)
        assert study_from_dict(loose).digest() == study_from_dict(exact).digest()
        assert StudyConfig(**loose).digest() == StudyConfig(**exact).digest()
    for key, value in [("replicates", 100.7), ("replicates", "2000"), ("seed", -1),
                       ("n_values", [100, 200.0]), ("limit_period", "one")]:
        with pytest.raises(ConfigError, match=key):
            study_from_dict(_study(**{key: value}))


def test_unknown_config_key_is_named():
    with pytest.raises(ConfigError, match="bogus"):
        study_from_dict(_study(bogus=1))
    # the check thresholds are constants, not keys
    for key in ["batches", "ks_level", "cov_rel_tol", "slope_tol", "delta_ks_max",
                "ratio_se_factor", "risk_epsilon", "risk_band", "bayes_rel_tol", "bayes_draws"]:
        with pytest.raises(ConfigError, match=f"unknown key in study.*'{key}'"):
            study_from_dict(_study(**{key: 1}))
    # a space takes only its two boxes
    with pytest.raises(ConfigError, match="unknown key in space.*'margin'"):
        study_from_dict(_study(space={**MEAN_SPACE, "margin": 0.01}))
    # a key the study's kind, estimator or info_source never reads
    uniform_prior = {"kind": "uniform"}
    for cfg, key in [
        (_study(directions=[[1.0]]), "directions"),
        (_study(losses=[["power", 2.0]]), "losses"),
        (_study(kind="lan") | {"estimator": "mle-closed"}, "estimator"),
        (_study(kind="rate", n_values=[100, 1000], info_source="empirical"), "info_source"),
        (_study(limit_period=1.0), "limit_period"),
        (_study(info_source="empirical", limit_regime="pattern"), "limit_regime"),
        (_study(prior=uniform_prior), "prior"),
        (_study(kind="lan", prior=uniform_prior), "prior"),
    ]:
        with pytest.raises(ConfigError, match=f"never reads this key \\(key: '{key}'\\)"):
            study_from_dict(cfg)
    # and the same keys where they are read
    study_from_dict(_study(estimator="bayes", prior=uniform_prior))
    study_from_dict(_study(kind="risk", n_values=[100], info_source="empirical"))


def test_config_guards(monkeypatch):
    with pytest.raises(ConfigError, match="replicates"):
        study_from_dict(_study(replicates=50))
    with pytest.raises(ConfigError, match="ladder too short"):
        study_from_dict(_study(kind="rate", n_values=[100, 200]))
    with pytest.raises(ConfigError, match="theta"):
        study_from_dict(_study(theta={"alpha": [5.0], "beta": []}))

    # limit-information settings are checked before any information is computed
    def unreachable(*args, **kwargs):
        raise AssertionError("information computed")

    monkeypatch.setattr(config, "periodic_limit_fisher", unreachable)
    limit = _study(info_source="limit", limit_period=1.0)
    for overrides, key in [
        ({"limit_regime": "bogus"}, "limit_regime"),
        ({"limit_period": -1}, "limit_period"),
        ({"limit_period": None}, "limit_period"),
        ({"limit_regime": "pattern"}, "limit_regime"),  # on a uniform grid
    ]:
        with pytest.raises(ConfigError, match=f"key: '{key}'"):
            study_from_dict(limit | overrides)


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"theta": {"alpha": [5.0], "beta": []}}, "theta"),
        ({"space": SCALED_SPACE}, "space"),
        ({"theta": SCALED_THETA}, "theta"),
    ],
    ids=["theta-outside-box", "space-dims", "theta-dims"],
)
def test_direct_study_config_is_validated_like_a_dict(overrides, key):
    cfg = _study(**overrides)
    with pytest.raises(ConfigError) as from_dict:
        study_from_dict(cfg)
    with pytest.raises(ConfigError) as direct:
        StudyConfig(**cfg)
    assert from_dict.value.key == direct.value.key == key
    assert str(from_dict.value) == str(direct.value)


def test_gaussian_expected_loss_oracles():
    cov = np.array([[0.7, 0.2], [0.2, 1.1]])
    assert gaussian_expected_loss(cov, ("power", 2.0)) == pytest.approx(
        np.trace(cov), rel=1e-14
    )
    rng = np.random.default_rng(12)
    draws = rng.multivariate_normal(np.zeros(2), cov, size=400_000)
    r = np.linalg.norm(draws, axis=1)
    mc, se = r.mean(), r.std(ddof=1) / np.sqrt(r.size)
    assert abs(gaussian_expected_loss(cov, ("power", 1.0)) - mc) < 4.0 * se
    # the indicator is discontinuous, so the tensor rule is only approximate
    hits = (r > 1.5).mean()
    assert abs(gaussian_expected_loss(cov, ("indicator", 1.5)) - hits) < 0.01


def test_report_json_round_trips():
    report = run_study(study_from_dict(_study()))
    payload = json.loads(report.to_json())
    assert payload["passed"] is True
    assert payload["kind"] == "normality"
    assert payload["config_digest"] == report.config_digest
    assert len(payload["rows"]) == len(report.rows)


def test_chunk_blocks_concatenate_in_c_order():
    # a scaled-noise fit hands back a Fortran-ordered block, and the study's reductions sum
    # in memory order: the concatenated estimates are C-ordered, or report bytes would move
    cfg = study_from_dict(_study(model=TRIG_SCALED_CONFIG, space=SCALED_SPACE,
                                 theta=SCALED_THETA, n_values=[100], replicates=130))
    ctx = experiments._Context(MomentCache(cfg._model, uniform_grid(100, 0.25)), cfg._theta)
    task = partial(experiments._estimate_chunk, cfg)
    results, failures = experiments._replicates(map, task, ctx, 5, 130)
    rows = [task(ctx, 5, lo, min(lo + 3, 130))[0] for lo in range(0, 130, 3)]  # chunks of 3
    assert not rows[0].flags.c_contiguous and results.flags.c_contiguous and not failures
    assert np.array_equal(results, np.concatenate(rows))
