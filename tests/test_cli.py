import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import signoise
from signoise._ks import _branch
from signoise.cli import main

from helpers import MEAN_CONFIG, TRIG_KNOWN_CONFIG, TRIG_SCALED_CONFIG

MEAN_SPACE = {"alpha": [[0.0, 2.0]], "beta": []}
SCALED_SPACE = {"alpha": [[-3.0, 3.0], [-3.0, 3.0]], "beta": [[0.1, 4.0]]}


def _write(path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


def _simulate_cfg(n=10, seed=5, replicate=0):
    return {
        "model": TRIG_SCALED_CONFIG,
        "theta": {"alpha": [1.0, 0.5], "beta": [1.0]},
        "grid": {"kind": "uniform", "n": n, "h": 0.25},
        "seed": seed,
        "replicate": replicate,
    }


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("grid", "simulate", "estimate", "fisher", "verify"):
        assert name in out


def test_simulate_writes_csv_with_header_and_rows(tmp_path):
    cfg = _write(tmp_path / "sim.json", _simulate_cfg(n=10))
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")])
    assert rc == 0
    lines = (tmp_path / "run" / "sample.csv").read_text().splitlines()
    assert len(lines) == 11  # header + 10 data rows
    assert not lines[0][0].isdigit()
    meta = json.loads((tmp_path / "run" / "sample_meta.json").read_text())
    assert meta["seed"] == 5
    assert "config_digest" in meta


def test_simulate_same_config_and_seed_is_byte_identical(tmp_path):
    cfg = _write(tmp_path / "sim.json", _simulate_cfg())
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "sample.csv").read_bytes()
    b = (tmp_path / "b" / "sample.csv").read_bytes()
    assert a == b
    c_cfg = _write(tmp_path / "sim2.json", _simulate_cfg(seed=6))
    assert main(["simulate", "--config", c_cfg, "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "c" / "sample.csv").read_bytes() != a


def test_simulate_floor_violation_names_the_assumption(tmp_path, capsys):
    bad = _simulate_cfg()
    bad["model"] = {
        "signal": {"kind": "linear", "basis": [{"kind": "const"}]},
        "noise": {"kind": "known", "profile": {"kind": "trig", "offset": 0.0, "terms": []}},
    }
    bad["theta"] = {"alpha": [1.0], "beta": []}
    cfg = _write(tmp_path / "bad.json", bad)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "variance floor" in err


def test_estimate_closed_form_json_has_variance_matrix(tmp_path):
    sim = _write(
        tmp_path / "sim.json",
        {
            "model": TRIG_KNOWN_CONFIG,
            "theta": {"alpha": [1.0, 0.5], "beta": []},
            "grid": {"kind": "uniform", "n": 500, "h": 0.1},
            "seed": 9,
        },
    )
    assert main(["simulate", "--config", sim, "--out", str(tmp_path / "run")]) == 0
    est = _write(
        tmp_path / "est.json",
        {"model": TRIG_KNOWN_CONFIG, "space": SCALED_SPACE | {"beta": []}, "estimator": "mle-closed"},
    )
    rc = main(
        [
            "estimate",
            "--config",
            est,
            "--sample",
            str(tmp_path / "run" / "sample.csv"),
            "--out",
            str(tmp_path / "fit"),
        ]
    )
    assert rc == 0
    result = json.loads((tmp_path / "fit" / "estimate.json").read_text())
    assert result["method"] == "mle-closed"
    cov = result["covariance"]
    assert len(cov) == 2 and len(cov[0]) == 2
    assert "config_digest" in result
    assert result["sample_seed"] == 9


FIVE_DIM_CONFIG = {
    "signal": {
        "kind": "linear",
        "basis": [{"kind": "const"}] + [{"kind": "cos", "freq": float(k)} for k in range(1, 5)],
    },
    "noise": {"kind": "known", "profile": {"kind": "const", "value": 1.0}},
}


@pytest.mark.parametrize("command", ["estimate", "verify"])
@pytest.mark.parametrize(
    "estimator, model, alpha, prior, message, key",
    [
        ("newton", MEAN_CONFIG, [1.0], None, "unknown estimator", "estimator"),
        (
            "bayes", FIVE_DIM_CONFIG, [1.0, 0.0, 0.0, 0.0, 0.0], None, "dimension guard",
            "estimator",
        ),
        (
            "bayes", MEAN_CONFIG, [1.0],
            {"kind": "gaussian", "center": [0.0, 0.0], "scale": [1.0, 1.0]},
            "gaussian prior has length 2, but the parameter vector has d = 1", "prior",
        ),
        (
            "bayes", MEAN_CONFIG, [1.0], {"kind": "gaussian", "center": [0.0], "scale": [-1.0]},
            "gaussian prior scales must be positive", "prior",
        ),
        (  # Prior() without a center is flat, so the reader refuses an empty gaussian
            "bayes", MEAN_CONFIG, [1.0], {"kind": "gaussian", "center": [], "scale": []},
            "gaussian prior needs matching center and scale", "prior",
        ),
        (  # written as the JSON literal NaN, which the number reader accepts
            "bayes", MEAN_CONFIG, [1.0],
            {"kind": "gaussian", "center": [0.0], "scale": [float("nan")]},
            "gaussian prior center and scale must be finite: axis 0", "prior",
        ),
        ("mle-closed", MEAN_CONFIG, [1.0], {"kind": "uniform"}, "never reads this key", "prior"),
        # a present prior is always checked: {} has no kind, and a flat one takes no other key
        ("bayes", MEAN_CONFIG, [1.0], {}, "prior is missing a required key", "kind"),
        (
            "bayes", MEAN_CONFIG, [1.0], {"kind": "uniform", "center": [5.0]},
            "unknown key in uniform prior", "center",
        ),
        (
            "bayes", MEAN_CONFIG, [1.0], {"kind": "uniform", "scale": [-1.0]},
            "unknown key in uniform prior", "scale",
        ),
    ],
    ids=[
        "unknown-name", "dimension-guard", "prior-length", "prior-scale", "prior-gaussian-empty",
        "prior-nan",
        "prior-unread", "prior-empty", "uniform-prior-center", "uniform-prior-scale",
    ],
)
def test_estimator_config_errors(
    tmp_path, capsys, command, estimator, model, alpha, prior, message, key
):
    # both front ends reject the estimator and its prior before reading a
    # sample or running a replicate
    space = {"alpha": [[-2.0, 2.0]] * len(alpha), "beta": []}
    cfg = {"model": model, "space": space, "estimator": estimator}
    if prior is not None:
        cfg["prior"] = prior
    if command == "estimate":
        extra = ["--sample", str(tmp_path / "never_read.csv")]
    else:
        extra = []
        cfg |= {
            "kind": "normality",
            "theta": {"alpha": alpha, "beta": []},
            "grid": {"kind": "uniform", "h": 0.25},
            "n_values": [100, 200],
            "replicates": 200,
            "seed": 7,
        }
    path = _write(tmp_path / "cfg.json", cfg)
    rc = main([command, "--config", path, "--out", str(tmp_path / "out")] + extra)
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err and f"(key: {key!r})" in err


def test_estimate_bayes_reads_a_gaussian_prior(tmp_path):
    # little data, so a prior centred below the truth pulls the posterior mean down
    sim = _simulate_cfg(n=4) | {"model": MEAN_CONFIG, "theta": {"alpha": [1.5], "beta": []}}
    assert main(["simulate", "--config", _write(tmp_path / "sim.json", sim),
                 "--out", str(tmp_path / "run")]) == 0
    est = {"model": MEAN_CONFIG, "space": MEAN_SPACE, "estimator": "bayes"}
    gaussian = {"kind": "gaussian", "center": [0.2], "scale": [0.3]}
    fits = {}
    for name, cfg in (("flat", est), ("gaussian", est | {"prior": gaussian})):
        argv = ["estimate", "--config", _write(tmp_path / f"{name}.json", cfg),
                "--sample", str(tmp_path / "run" / "sample.csv"), "--out", str(tmp_path / name)]
        assert main(argv) == 0
        fits[name] = json.loads((tmp_path / name / "estimate.json").read_text())
        assert fits[name]["method"] == "bayes-quadrature"
    assert fits["gaussian"]["alpha"][0] < fits["flat"]["alpha"][0]


def test_estimate_batch_directory(tmp_path):
    samples = tmp_path / "samples"
    for r in range(3):
        cfg = _write(tmp_path / f"sim{r}.json", _simulate_cfg(n=50, replicate=r))
        out = tmp_path / f"run{r}"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        os.makedirs(samples, exist_ok=True)
        (samples / f"rep{r}.csv").write_bytes((out / "sample.csv").read_bytes())
        (samples / f"rep{r}_meta.json").write_bytes((out / "sample_meta.json").read_bytes())
    est = _write(
        tmp_path / "est.json",
        {"model": TRIG_SCALED_CONFIG, "space": SCALED_SPACE, "estimator": "mle-closed"},
    )
    rc = main(
        ["estimate", "--config", est, "--sample", str(samples), "--out", str(tmp_path / "fits")]
    )
    assert rc == 0
    names = sorted(os.listdir(tmp_path / "fits"))
    assert names == [
        "estimates.csv",
        "rep0_estimate.json",
        "rep1_estimate.json",
        "rep2_estimate.json",
    ]
    rows = (tmp_path / "fits" / "estimates.csv").read_text().splitlines()
    assert rows[0] == "sample,method,n,alpha0,alpha1,beta0,log_lik,converged"
    assert len(rows) == 4


def test_fisher_empirical_and_limit(tmp_path):
    emp = _write(
        tmp_path / "emp.json",
        {
            "model": TRIG_SCALED_CONFIG,
            "theta": {"alpha": [1.0, 0.5], "beta": [1.0]},
            "grid": {"kind": "uniform", "n": 100, "h": 0.25},
            "source": "empirical",
        },
    )
    assert main(["fisher", "--config", emp, "--out", str(tmp_path / "a")]) == 0
    payload = json.loads((tmp_path / "a" / "fisher.json").read_text())
    assert payload["source"] == "empirical"
    assert "config_digest" in payload
    assert abs(payload["var_info"][0][0] - 0.5) < 1e-12

    lim = _write(
        tmp_path / "lim.json",
        {
            "model": TRIG_SCALED_CONFIG,
            "theta": {"alpha": [1.0, 0.5], "beta": [1.0]},
            "source": "limit",
            "period": 1.0,
        },
    )
    assert main(["fisher", "--config", lim, "--out", str(tmp_path / "b")]) == 0
    payload = json.loads((tmp_path / "b" / "fisher.json").read_text())
    assert payload["source"] == "limit:vanishing_step"


def test_verify_normality_on_exact_gaussian_family_passes(tmp_path, capsys):
    cfg = _write(
        tmp_path / "study.json",
        {
            "kind": "normality",
            "model": MEAN_CONFIG,
            "space": MEAN_SPACE,
            "theta": {"alpha": [1.0], "beta": []},
            "grid": {"kind": "uniform", "h": 0.25},
            "n_values": [100, 200],
            "replicates": 200,
            "seed": 7,
            "estimator": "mle-closed",
        },
    )
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "rep"), "--workers", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    report = json.loads((tmp_path / "rep" / "normality_report.json").read_text())
    assert report["passed"] is True
    assert report["seed"] == 7
    assert "config_digest" in report


def test_verify_rate_single_rung_is_rejected(tmp_path, capsys):
    cfg = _write(
        tmp_path / "study.json",
        {
            "kind": "rate",
            "model": MEAN_CONFIG,
            "space": MEAN_SPACE,
            "theta": {"alpha": [1.0], "beta": []},
            "grid": {"kind": "uniform", "h": 0.25},
            "n_values": [400],
            "replicates": 100,
            "seed": 3,
        },
    )
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "rep")])
    assert rc == 2
    assert "ladder too short" in capsys.readouterr().err


def test_verify_lan_default_reports_remainder_table(tmp_path):
    cfg = _write(
        tmp_path / "study.json",
        {
            "kind": "lan",
            "model": TRIG_SCALED_CONFIG,
            "space": SCALED_SPACE,
            "theta": {"alpha": [1.0, 0.5], "beta": [1.0]},
            "grid": {"kind": "uniform", "h": 0.25},
            "n_values": [100, 200],
            "replicates": 100,
            "seed": 11,
        },
    )
    main(["verify", "--config", cfg, "--out", str(tmp_path / "rep"), "--workers", "1"])
    report = json.loads((tmp_path / "rep" / "lan_report.json").read_text())
    table = {
        r["n"]: r["value"]
        for r in report["rows"]
        if r["metric"] == "mean_abs_remainder"
    }
    assert set(table) == {100, 200}
    assert all(v == 0.0 for v in table.values())  # default probes w = 0


def test_verify_is_identical_across_worker_counts(tmp_path):
    cfg = _write(
        tmp_path / "study.json",
        {
            "kind": "normality",
            "model": MEAN_CONFIG,
            "space": MEAN_SPACE,
            "theta": {"alpha": [1.0], "beta": []},
            "grid": {"kind": "uniform", "h": 0.25},
            "n_values": [100],
            "replicates": 128,
            "seed": 2,
            "estimator": "mle-closed",
        },
    )
    main(["verify", "--config", cfg, "--out", str(tmp_path / "w1"), "--workers", "1"])
    main(["verify", "--config", cfg, "--out", str(tmp_path / "w4"), "--workers", "4"])
    for name in ("normality_report.json", "normality_report.csv"):
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w4" / name).read_bytes()


def test_config_errors_name_the_offending_key(tmp_path, capsys):
    cfg = _write(tmp_path / "sim.json", _simulate_cfg() | {"bogus": 1})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "bogus" in capsys.readouterr().err

    missing = _simulate_cfg()
    del missing["theta"]
    cfg2 = _write(tmp_path / "sim2.json", missing)
    assert main(["simulate", "--config", cfg2, "--out", str(tmp_path / "x")]) == 2
    assert "theta" in capsys.readouterr().err

    estimate = {"model": TRIG_SCALED_CONFIG, "space": SCALED_SPACE}
    fisher = {"model": TRIG_SCALED_CONFIG, "theta": {"alpha": [1.0, 0.5], "beta": [1.0]},
              "source": "limit", "period": 1.0}
    empirical = {key: fisher[key] for key in ("model", "theta")} | {
        "grid": {"kind": "uniform", "n": 100, "h": 0.25}, "source": "empirical"}
    malformed = [
        ("simulate", _simulate_cfg() | {"seed": "x"}, "seed"),
        ("simulate", _simulate_cfg() | {"seed": -1}, "seed"),
        ("simulate", _simulate_cfg() | {"replicate": 1.5}, "replicate"),
        ("estimate", estimate | {"seed": "x"}, "seed"),
        ("estimate", estimate | {"estimator": ["mle"]}, "estimator"),
        ("fisher", fisher | {"period": "one"}, "period"),
        ("fisher", fisher | {"regime": "bogus"}, "regime"),
        # the empirical source reads neither period nor regime
        ("fisher", empirical | {"period": -5.0}, "period"),
        ("fisher", empirical | {"regime": "bogus"}, "regime"),
    ]
    for k, (command, payload, key) in enumerate(malformed):
        argv = [command, "--config", _write(tmp_path / f"bad{k}.json", payload)]
        if command == "estimate":
            argv += ["--sample", str(tmp_path / "absent.csv")]
        assert main(argv + ["--out", str(tmp_path / "x")]) == 2, payload
        err = capsys.readouterr().err
        assert f"(key: '{key}')" in err and "Traceback" not in err, err


def _bad_values():
    """(command and flags, config payload, key or None, detail) of configs the CLI refuses.

    A payload is written as JSON, a string as raw text; None writes no file."""
    nan = float("nan")
    sim = _simulate_cfg()
    grid = sim["grid"]
    study = {
        "kind": "normality", "model": MEAN_CONFIG, "space": MEAN_SPACE,
        "theta": {"alpha": [1.0], "beta": []}, "grid": {"kind": "uniform", "h": 0.25},
        "n_values": [100, 200], "replicates": 100, "seed": 1,
    }
    fisher = {"model": TRIG_SCALED_CONFIG, "theta": {"alpha": [1.0, 0.5], "beta": [1.0]}}
    pattern = {"kind": "pattern", "offsets": [0.25, 1.0], "period": 1.0}
    return [
        ("simulate", sim | {"grid": grid | {"h": -1.0}}, "grid", "step must be positive"),
        ("simulate", sim | {"grid": grid | {"h": nan}}, "grid", "step must be positive"),
        ("simulate", sim | {"grid": grid | {"n": 0}}, "grid", "n must be >= 1"),
        ("simulate", sim | {"theta": {"alpha": [nan, 0.5], "beta": [1.0]}}, "theta",
         "parameters must be finite"),
        ("estimate", {"model": TRIG_SCALED_CONFIG,
                      "space": SCALED_SPACE | {"alpha": [[-3.0, nan], [-3.0, 3.0]]}},
         "space", "invalid axis"),
        ("verify", study | {"grid": {"kind": "uniform", "h": -1.0}}, "grid",
         "step must be positive"),
        ("simulate", sim | {"model": TRIG_SCALED_CONFIG | {"sigma2_floor": -1.0}}, "model",
         "sigma2_floor must be positive"),
        ("simulate", None, None, "cannot read config file"),
        ("simulate", '{"seed": 5', None, "is not valid JSON"),
        ("simulate", [sim], None, "must contain a JSON object"),
        ("simulate", sim | {"grid": {"kind": "bogus"}}, "kind", "unknown grid kind 'bogus'"),
        ("simulate", sim | {"model": TRIG_SCALED_CONFIG | {"signal": {"kind": "linear",
                                                                      "basis": []}}},
         "basis", "linear signal basis must be a non-empty list"),
        ("estimate", {"model": TRIG_SCALED_CONFIG,
                      "space": SCALED_SPACE | {"beta": [[0.1, 2.0, 4.0]]}},
         "beta", "space.beta must be a list of [lo, hi] pairs"),
        ("grid", {"grid": {"kind": "quantile", "n": 8, "total_time": 2.0, "exponent": 0.0}},
         "exponent", "quantile grid exponent must be positive"),
        ("fisher", fisher | {"source": "empirical"}, "grid", "empirical information needs a grid"),
        ("fisher", fisher | {"source": "bogus"}, "source",
         "source must be 'empirical' or 'limit', got 'bogus'"),
        ("fisher", fisher | {"source": "limit", "period": 2.0, "regime": "pattern",
                             "grid": pattern | {"cycles": 4}},
         "period", "fisher config.period must equal the pattern grid's period"),
        ("verify", study | {"grid": {"kind": "uniform", "h": 0.25, "step_rule": "inverse_sqrt"}},
         "step_rule", "give either a fixed h or a step_rule, not both"),
        ("verify", study | {"grid": {"kind": "uniform", "step_rule": "sqrt"}}, "step_rule",
         "unknown step_rule 'sqrt'"),
        ("verify", study | {"grid": pattern, "n_values": [101, 202]}, "offsets",
         "n = 101 is not a multiple of the pattern length 2"),
        ("verify", study | {"kind": "bogus"}, "kind", "unknown study kind 'bogus'"),
        ("verify", study | {"n_values": [200, 100]}, "n_values",
         "n_values must be strictly increasing and positive"),
        ("verify", study | {"kind": "lan", "directions": [[0.5, 0.5]]}, "directions",
         "each direction must be a length-1 vector"),
        ("verify", study | {"kind": "risk", "n_values": [100], "losses": [["bogus", 1.0]]},
         "losses[0]", "study.losses[0] must be a power or indicator loss"),
        ("verify", study | {"kind": "risk", "n_values": [100],
                            "theta": {"alpha": [0.05], "beta": []}},
         "theta", "risk lattice point 2 leaves the parameter box"),
        # the flag replaces the config's valid seed before the study is read
        ("verify --seed -1", study, "seed", "study.seed must lie in [0, 2**64), got -1"),
    ]


@pytest.mark.parametrize(
    "command, payload, key, detail",
    _bad_values(),
    ids=["h-negative", "h-nan", "n-zero", "theta-nan", "space-nan", "study-h-negative",
         "floor-negative", "file-unreadable", "file-not-json", "file-not-object",
         "grid-kind-unknown", "basis-empty", "space-not-pairs", "quantile-exponent-zero",
         "empirical-without-grid", "source-unknown", "fisher-pattern-period",
         "step-rule-with-h", "step-rule-unknown", "pattern-n-not-multiple", "study-kind-unknown",
         "n-values-decreasing", "direction-length", "loss-malformed", "risk-lattice-outside",
         "verify-seed-flag"],
)
def test_out_of_range_config_values_name_their_key(tmp_path, capsys, command, payload, key, detail):
    path = tmp_path / "bad.json"
    if isinstance(payload, str):
        path.write_text(payload)
    elif payload is not None:
        _write(path, payload)
    argv = command.split() + ["--config", str(path)]
    if command == "estimate":
        argv += ["--sample", str(tmp_path / "absent.csv")]
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    named = "(key:" not in err if key is None else f"(key: '{key}')" in err
    assert detail in err and named and "Traceback" not in err, err


@pytest.mark.parametrize(
    "sidecar, detail",
    [
        ('{"seed": "x"}', "seed must be an integer, got 'x' (key: 'seed')"),
        ("[5, 0]", "sidecar must be a JSON object"),
        ('{"theta_true": {"alpha": [1.0, 0.5]}}', "KeyError: 'beta' (key: 'theta_true')"),
        ('{"seed": 5', "sidecar is not valid JSON"),
    ],
    ids=["seed-not-integer", "json-list", "theta-without-beta", "invalid-json"],
)
def test_estimate_names_a_bad_sample_sidecar(tmp_path, capsys, sidecar, detail):
    sim = _write(tmp_path / "sim.json", _simulate_cfg())
    assert main(["simulate", "--config", sim, "--out", str(tmp_path / "run")]) == 0
    meta = tmp_path / "run" / "sample_meta.json"
    meta.write_text(sidecar)
    est = _write(tmp_path / "est.json", {"model": TRIG_SCALED_CONFIG, "space": SCALED_SPACE})
    sample = str(tmp_path / "run" / "sample.csv")
    argv = ["estimate", "--config", est, "--sample", sample, "--out", str(tmp_path / "fit")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{meta}: " in err and detail in err and "Traceback" not in err, err


def test_estimate_refuses_known_variances_below_the_floor(tmp_path, capsys):
    sim = _simulate_cfg() | {"model": TRIG_KNOWN_CONFIG, "theta": {"alpha": [1.0, 0.5], "beta": []},
                             "grid": {"kind": "uniform", "n": 10, "h": 0.5}}
    assert main(["simulate", "--config", _write(tmp_path / "sim.json", sim),
                 "--out", str(tmp_path / "run")]) == 0
    below = {"kind": "known", "profile": {"kind": "const", "value": 1e-13}}
    est = {"model": TRIG_KNOWN_CONFIG | {"noise": below}, "space": SCALED_SPACE | {"beta": []}}
    sample = str(tmp_path / "run" / "sample.csv")
    argv = ["estimate", "--config", _write(tmp_path / "est.json", est), "--sample", sample,
            "--out", str(tmp_path / "fit")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "is at or below floor*delay" in err and "Traceback" not in err, err
    assert not (tmp_path / "fit" / "estimate.json").exists()


def test_grid_outputs_carry_provenance(tmp_path):
    grids = {
        "pattern": {"kind": "pattern", "offsets": [0.3, 1.0], "period": 1.0, "cycles": 4},
        "quantile": {"kind": "quantile", "n": 8, "total_time": 2.0, "exponent": 1.5},
    }
    for name, grid in grids.items():
        cfg = _write(tmp_path / f"{name}.json", {"grid": grid})
        assert main(["grid", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        lines = (tmp_path / name / "grid.csv").read_text().splitlines()
        assert len(lines) == 10, name  # header + 9 instants
        meta = json.loads((tmp_path / name / "grid_meta.json").read_text())
        assert meta["n"] == 8
        assert "config_digest" in meta and "grid_digest" in meta


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write(tmp_path / "sim.json", _simulate_cfg(seed=5))
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["simulate", "--config", cfg, "--seed", "99", "--out", str(tmp_path / "b")])
    assert (
        (tmp_path / "a" / "sample.csv").read_bytes()
        != (tmp_path / "b" / "sample.csv").read_bytes()
    )
    meta = json.loads((tmp_path / "b" / "sample_meta.json").read_text())
    assert meta["seed"] == 99


def test_estimate_seed_flag_reseeds_importance_sampling(tmp_path):
    sim = _write(tmp_path / "sim.json", _simulate_cfg(n=50))
    assert main(["simulate", "--config", sim, "--out", str(tmp_path / "run")]) == 0
    est = _write(
        tmp_path / "est.json",
        {
            "model": TRIG_SCALED_CONFIG,
            "space": SCALED_SPACE,
            "estimator": "bayes-is",
            "seed": 1,
        },
    )
    sample = str(tmp_path / "run" / "sample.csv")

    def fit(out, *seed):
        argv = ["estimate", "--config", est, "--sample", sample, "--out", str(tmp_path / out)]
        assert main(argv + list(seed)) == 0
        return (tmp_path / out / "estimate.json").read_bytes()

    assert fit("cfg") == fit("one", "--seed", "1")
    assert fit("one") != fit("two", "--seed", "2")


def test_grid_and_fisher_reject_seed_flag(tmp_path, capsys):
    cfg = _write(tmp_path / "grid.json", {"grid": {"kind": "uniform", "n": 4, "h": 1.0}})
    for command in ("grid", "fisher"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--seed", "1", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


def _scipy_loaded(code, others=()):
    """Run code in a fresh interpreter; whether scipy.stats, scipy.optimize, any scipy and
    each module named in ``others`` got loaded."""
    src = str(Path(signoise.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    path = os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys; {code}; "
            "print('scipy.stats' in sys.modules, 'scipy.optimize' in sys.modules, "
            "any(m.split('.')[0] == 'scipy' for m in sys.modules), "
            f"*(m in sys.modules for m in {tuple(others)!r}))",
        ],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
        timeout=120,
    )
    return out.stdout.splitlines()[-1]  # the code's own output comes first


def test_package_import_leaves_scipy_stats_unloaded():
    # importing the package or its CLI loads no scipy module at all: a draw
    # and a study's KS checks load scipy.special, and nothing in the package
    # loads scipy.stats or scipy.optimize; nor the process pool's modules,
    # which only a study at more than one worker imports
    pool = ("concurrent.futures", "multiprocessing")
    assert _scipy_loaded("import signoise", pool) == "False False False False False"
    assert _scipy_loaded("import signoise.cli", pool) == "False False False False False"


def test_numeric_mle_leaves_scipy_stats_and_optimize_unloaded():
    code = (
        "import signoise as sn; from helpers import trig_scaled_model; "
        "model, space, theta = trig_scaled_model(); grid = sn.uniform_grid(50, 0.25); "
        "sample = sn.simulate_increments(model, theta, grid, seed=3); "
        "assert sn.mle_numeric(model, space, grid, sample).converged"
    )
    assert _scipy_loaded(code) == "False False True"  # the draw loads scipy.special


def test_verify_rate_study_leaves_scipy_stats_unloaded(tmp_path):
    cfg = _write(
        tmp_path / "study.json",
        {
            "kind": "rate",
            "model": MEAN_CONFIG,
            "space": MEAN_SPACE,
            "theta": {"alpha": [1.0], "beta": []},
            "grid": {"kind": "uniform", "step_rule": "inverse_sqrt", "c": 1.0},
            "n_values": [100, 1000],
            "replicates": 100,
            "seed": 3,
        },
    )
    args = ["verify", "--config", cfg, "--out", str(tmp_path / "rep"), "--workers", "1"]
    code = f"from signoise.cli import main; assert main({args!r}) == 0"
    assert _scipy_loaded(code) == "False False True"
    assert json.loads((tmp_path / "rep" / "rate_report.json").read_text())["passed"]


@pytest.mark.parametrize(
    "study",
    [
        {"kind": "normality", "model": MEAN_CONFIG, "space": MEAN_SPACE,
         "theta": {"alpha": [1.0], "beta": []}, "estimator": "mle-closed"},
        {"kind": "lan", "model": TRIG_SCALED_CONFIG, "space": SCALED_SPACE,
         "theta": {"alpha": [1.0, 0.5], "beta": [1.0]},
         "directions": [[0.6, 0.3, 0.2], [0.0, 0.5, 0.7]]},
    ],
    ids=["normality", "lan"],
)
def test_verify_ks_studies_leave_scipy_stats_unloaded(tmp_path, study):
    # at 120 replicates the KS p-values take the small-sample branches
    # (Durbin matrix, Pomeranz) end to end; so few replicates may fail the
    # covariance or central-sequence checks, so either verdict is accepted
    replicates = 120
    cfg = _write(
        tmp_path / "study.json",
        study | {"grid": {"kind": "uniform", "h": 0.25}, "n_values": [100, 200],
                 "replicates": replicates, "seed": 3},
    )
    args = ["verify", "--config", cfg, "--out", str(tmp_path / "rep"), "--workers", "1"]
    code = f"from signoise.cli import main; assert main({args!r}) in (0, 1)"
    assert _scipy_loaded(code) == "False False True"
    report = json.loads((tmp_path / "rep" / f"{study['kind']}_report.json").read_text())
    stats = [r["value"] for r in report["rows"] if r["metric"].endswith("ks_stat")]
    assert len(stats) == 2 * len(study["theta"]["alpha"] + study["theta"]["beta"])
    assert {_branch(replicates, d) for d in stats} <= {"dmtw", "pomeranz"}
