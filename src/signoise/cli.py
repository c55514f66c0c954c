"""Command-line front end.

Five subcommands, all driven by a JSON config file:

    signoise grid     --config cfg.json [--out DIR]
    signoise simulate --config cfg.json [--seed S] [--out DIR]
    signoise estimate --config cfg.json --sample PATH [--seed S] [--out DIR]
    signoise fisher   --config cfg.json [--out DIR]
    signoise verify   --config cfg.json [--seed S] [--out DIR] [--workers K]

Exit codes: 0 on success (for verify: all checks passed), 1 on runtime
failure or failed checks, 2 on config errors.  Every output file carries
the sha256 digest of its canonical config so runs stay attributable.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import os
import sys

from . import config as _config
from .errors import ConfigError, NoiseFloorViolation, SignoiseError
from .estimate import resolve_estimator
from .experiments import run_study, save_report, study_from_dict
from .sampling import save_grid_csv
from .simulate import load_sample, save_sample, simulate_increments

__all__ = ["main"]


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_grid(args) -> int:
    cfg = _config.load_config(args.config)
    _config._check_keys(cfg, {"grid"}, {"grid"}, "grid config")
    grid = _config.build_grid(cfg["grid"])
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "grid.csv")
    save_grid_csv(grid, path)
    _write_json(
        os.path.join(args.out, "grid_meta.json"),
        {
            "config_digest": _config.digest(cfg),
            "grid_digest": grid.digest(),
            "n": grid.n,
            "total_time": grid.total_time,
        },
    )
    print(f"wrote {path} (n={grid.n}, total_time={grid.total_time!r})")
    return 0


def _cmd_simulate(args) -> int:
    cfg = _config.load_config(args.config)
    _config._check_keys(
        cfg, {"model", "theta", "grid", "seed", "replicate"},
        {"model", "theta", "grid", "seed"}, "simulate config",
    )
    model = _config.build_model(cfg["model"])
    theta = _config.build_theta(cfg["theta"], model.p, model.q)
    grid = _config.build_grid(cfg["grid"])
    seeds = cfg if args.seed is None else {"seed": args.seed}
    seed = _config._seed(seeds, "seed", "simulate config")
    replicate = _config._seed({"replicate": 0, **cfg}, "replicate", "simulate config")
    try:
        sample = simulate_increments(model, theta, grid, seed, replicate)
    except NoiseFloorViolation as exc:
        # a variance at or below the floor is a bad model config, not a
        # runtime accident: reject it like any other config error
        raise ConfigError(
            f"the configured noise violates the positive variance floor "
            f"assumption: {exc}",
            key="noise",
        ) from exc
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "sample.csv")
    meta_path = os.path.join(args.out, "sample_meta.json")
    save_sample(sample, grid, csv_path, meta_path)
    with open(meta_path) as fh:
        meta = json.load(fh)
    meta["config_digest"] = _config.digest(cfg)
    _write_json(meta_path, meta)
    print(f"wrote {csv_path} and {meta_path} (n={grid.n}, seed={seed})")
    return 0


def _cmd_estimate(args) -> int:
    cfg = _config.load_config(args.config)
    _config._check_keys(
        cfg,
        {"model", "space", "estimator", "prior", "seed"},
        {"model", "space"},
        "estimate config",
    )
    model, space = _config.read_model_space(cfg)
    estimator = resolve_estimator(cfg.get("estimator", "auto"), model, space, cfg.get("prior"))
    prior = _config.read_prior(cfg, space.d)
    seeds = {"seed": 0, **cfg} if args.seed is None else {"seed": args.seed}
    seed = _config._seed(seeds, "seed", "estimate config")
    cfg_digest = _config.digest(cfg)

    def run_one(sample_path: str) -> dict:
        meta_path = None
        if sample_path.endswith(".csv"):
            candidate = sample_path[: -len(".csv")] + "_meta.json"
            if os.path.exists(candidate):
                meta_path = candidate
        sample, grid = load_sample(sample_path, meta_path)
        result = estimator(model, space, grid, sample, cache=None, prior=prior, seed=seed).to_dict()
        result["config_digest"] = cfg_digest
        result["sample"] = os.path.basename(sample_path)
        result["sample_seed"] = sample.seed
        result["sample_replicate"] = sample.replicate
        result["n"] = grid.n
        return result

    os.makedirs(args.out, exist_ok=True)
    if not os.path.isdir(args.sample):
        result = run_one(args.sample)
        path = os.path.join(args.out, "estimate.json")
        _write_json(path, result)
        print(f"wrote {path} ({result['method']})")
        return 0

    # batch mode: estimate every sample CSV in the directory and summarize
    sample_paths = sorted(glob.glob(os.path.join(args.sample, "*.csv")))
    if not sample_paths:
        raise ConfigError(f"no sample CSV files in directory {args.sample}")
    results = []
    for sample_path in sample_paths:
        result = run_one(sample_path)
        stem = os.path.splitext(os.path.basename(sample_path))[0]
        _write_json(os.path.join(args.out, f"{stem}_estimate.json"), result)
        results.append(result)
    header = ["sample", "method", "n"]
    header += [f"alpha{j}" for j in range(model.p)]
    header += [f"beta{j}" for j in range(model.q)]
    header += ["log_lik", "converged"]
    summary_path = os.path.join(args.out, "estimates.csv")
    with open(summary_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for result in results:
            row = [result["sample"], result["method"], result["n"]]
            row += [repr(v) for v in result["alpha"]]
            row += [repr(v) for v in result["beta"]]
            row.append("" if "log_lik" not in result else repr(result["log_lik"]))
            row.append("" if "converged" not in result else str(result["converged"]))
            w.writerow(row)
    print(f"wrote {len(results)} estimate files and {summary_path}")
    return 0


def _cmd_fisher(args) -> int:
    cfg = _config.load_config(args.config)
    _config._check_keys(
        cfg, {"model", "theta", "grid", "source", "period", "regime"},
        {"model", "theta", "source"}, "fisher config",
    )
    model = _config.build_model(cfg["model"])
    theta = _config.build_theta(cfg["theta"], model.p, model.q)
    information = _config.read_information(cfg, "fisher config")
    grid = _config.build_grid(cfg["grid"]) if "grid" in cfg else None
    bundle = information(model, theta, grid)
    payload = {**bundle.to_dict(), "config_digest": _config.digest(cfg)}
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "fisher.json")
    _write_json(path, payload)
    print(f"wrote {path} (source={bundle.source})")
    return 0


def _cmd_verify(args) -> int:
    cfg = _config.load_config(args.config)
    if args.seed is not None:
        cfg = dict(cfg)
        cfg["seed"] = args.seed
    study = study_from_dict(cfg)
    report = run_study(study, workers=args.workers)
    os.makedirs(args.out, exist_ok=True)
    paths = save_report(report, args.out, stem=f"{study.kind}_report")
    for line in report.check_lines():
        print(line)
    n_pass = sum(1 for c in report.checks if c["passed"])
    print(f"{n_pass}/{len(report.checks)} checks passed; wrote {', '.join(paths)}")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="signoise",
        description="Exact likelihood inference for integrated signal-plus-noise models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, sample=False, workers=False):
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if sample:
            p.add_argument("--sample", required=True, help="sample CSV to estimate from")
        if workers:
            p.add_argument(
                "--workers",
                type=int,
                default=os.cpu_count() or 1,
                help="worker processes (default: machine parallelism)",
            )

    common(sub.add_parser("grid", help="materialize a sampling grid to CSV"))
    common(sub.add_parser("simulate", help="draw one increment sample"), seed=True)
    common(
        sub.add_parser("estimate", help="estimate parameters from a sample"),
        seed=True, sample=True,
    )
    common(sub.add_parser("fisher", help="information matrices to JSON"))
    common(sub.add_parser("verify", help="run a Monte-Carlo study"), seed=True, workers=True)

    args = parser.parse_args(argv)
    handlers = {
        "grid": _cmd_grid,
        "simulate": _cmd_simulate,
        "estimate": _cmd_estimate,
        "fisher": _cmd_fisher,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SignoiseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
