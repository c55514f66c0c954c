"""Benchmark of signoise: one workload per run, untraced or traced.

    python3 bench/run.py --workload verify-closed --seed 0 --seconds 20 --trace 0

Run from the root of a source tree: the package is imported from ``src/``
and nothing needs installing.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` runs one set-up and one pass
untraced and then traced, and reports the per-layer metrics and the
tracing overhead.  The metric names and units printed in the final JSON
line are those listed in ``BENCHMARK.json`` at the root.

Every run checks the outputs of the calls it times (see workloads.py),
stores its work counts and report digests under ``bench/out/records.json``
and flags any that differ from an earlier run of the same source tree,
benchmark code and seed.  Full results, provenance included, go to
``bench/out/<workload>_seed<seed>_trace<t>.json``; traced runs also save
their spans.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 3
MIN_PASSES = 2
CHILD_IMPORTS = 2
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import signoise; print(time.perf_counter() - t)"
)


def import_package() -> float:
    """Import signoise from ``src/`` and return the import time in seconds."""
    if not (SRC / "signoise" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'signoise'}; run from a source tree")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import signoise  # noqa: F401

    return time.perf_counter() - t0


def child_import_s() -> float:
    """Import time of signoise in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def tree_digest(root: Path, pattern: str) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob(pattern)):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info() -> dict:
    """Vendor and version from numpy's build config; threads from the loaded library."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = int(fn())
                return info
    return info


def provenance(seed: int, src_digest: str) -> dict:
    import numpy
    import scipy

    lines = sum(
        len(p.read_text().splitlines()) for p in (SRC / "signoise").rglob("*.py")
    )
    return {
        "commit": git_commit(),
        "source_sha256": src_digest,
        "src_lines": lines,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# determinism records
# ---------------------------------------------------------------------------


def compare_records(key: str, values: dict) -> list[str]:
    """Compare ``values`` with an earlier run's under ``key``, then merge and store them."""
    path = OUT / "records.json"
    records = json.loads(path.read_text()) if path.is_file() else {}
    earlier = records.get(key, {})
    mismatches = [
        f"{name}: {earlier[name]!r} earlier, {value!r} now"
        for name, value in sorted(values.items())
        if name in earlier and earlier[name] != value
    ]
    records[key] = {**values, **earlier}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(records, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return mismatches


def pass_values(wl, passes) -> tuple[dict, list[str]]:
    """Work counts and digests per distinct pass content; mismatches between repeats."""
    values: dict = {}
    mismatches = []
    for k, p in enumerate(passes):
        j = k % wl.MAX_PASSES
        mine = {f"pass{j}.{name}": v for name, v in p.counts.items()}
        mine.update({f"pass{j}.digest.{name}": v for name, v in p.digests.items()})
        for name, v in mine.items():
            if name in values and values[name] != v:
                mismatches.append(f"{name}: {values[name]!r} in an earlier pass, {v!r} in pass {k}")
            values[name] = v
    return values, mismatches


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_run(wl, seed: int, seconds: float, import_s: float) -> dict:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.setup(seed)
        setup_times.append(time.perf_counter() - t0)
    import_times = [import_s] + [child_import_s() for _ in range(CHILD_IMPORTS)]
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    passes = []
    start = time.perf_counter()
    last = 0.0
    while len(passes) < MIN_PASSES or (time.perf_counter() - start) + last <= seconds:
        t0 = time.perf_counter()
        passes.append(wl.run_pass(state, len(passes)))
        last = time.perf_counter() - t0
    wall_s = statistics.median(p.wall_s for p in passes)
    values, mismatches = pass_values(wl, passes)
    headline = wl.headline(state, passes, wall_s)
    return {
        "passes": passes,
        "values": values,
        "mismatches": mismatches,
        "metrics": {
            "setup_s": (setup_s, "s", f"median of {len(import_times)} imports "
                        f"+ median of {SETUP_REPEATS} set-ups"),
            "wall_s": (wall_s, "s", f"median of {len(passes)} passes"),
            **headline,
            "peak_rss_mib": (peak_rss_mib(), "MiB", "whole process"),
        },
        "detail": {
            "import_s": import_times,
            "setup_s": setup_times,
            "pass_wall_s": [p.wall_s for p in passes],
        },
    }


def traced_run(wl, seed: int, out_stem: str) -> dict:
    from tracer import Tracer

    # warm-up so that one-off costs (lazy imports, rule caches) land in neither side
    wl.run_pass(wl.setup(seed), 0)

    t0 = time.perf_counter()
    state = wl.setup(seed)
    setup_untraced = time.perf_counter() - t0
    p_plain = wl.run_pass(state, 0)
    untraced_wall = setup_untraced + p_plain.wall_s

    tracer = Tracer()
    wl.tracer = tracer
    tracer.install()
    try:
        t0 = time.perf_counter()
        state = wl.setup(seed)
        setup_traced = time.perf_counter() - t0
        p_traced = wl.run_pass(state, 0)
    finally:
        tracer.uninstall()
        wl.tracer = None
    traced_wall = setup_traced + p_traced.wall_s
    tracer.save(OUT / f"{out_stem}_spans.npz")

    summary = tracer.summary()
    metrics = layer_metrics(wl, state, p_traced, tracer, summary, traced_wall, untraced_wall)
    values = {f"trace.calls.{k}": v for k, v in summary["calls"].items()}
    values.update({f"trace.{k}": v for k, v in tracer.counts.items()})
    plain, _ = pass_values(wl, [p_plain])
    traced, _ = pass_values(wl, [p_traced])
    mismatches = [
        f"{name}: {plain[name]!r} untraced, {traced.get(name)!r} traced"
        for name in sorted(plain) if traced.get(name) != plain[name]
    ]
    values.update(traced)
    return {
        "passes": [p_plain, p_traced],
        "values": values,
        "mismatches": mismatches,
        "metrics": metrics,
        "detail": {"summary": summary, "counts": dict(tracer.counts)},
    }


def layer_metrics(wl, state, p, tracer, summary, traced_wall, untraced_wall) -> dict:
    """Per-layer metrics of one traced set-up plus pass 0, by span name."""
    self_s = summary["self_s"]
    total_s = summary["total_s"]
    calls = summary["calls"]
    counts = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit, "")

    # only verify-closed has spans below run_study; elsewhere this reads 0
    replicates = wl.units_per_pass(state)
    put("experiments.run_study.self_s", self_s.get("experiments.run_study", 0.0), "s")
    put("experiments.study_from_dict.self_s", self_s.get("experiments.study_from_dict", 0.0), "s")
    put("experiments.replicates_failed", p.counts["replicates_failed"], "count")
    put("experiments.moments_per_replicate", ratio(
        tracer.descendants("experiments.run_study", "increments.moments."), replicates), "count")
    for layer in ("config.build", "sampling.grid_build", "simulate.normal_stream",
                  "quadrature.integrate", "quadrature.integrate_vec",
                  "likelihood.log_likelihood", "likelihood.score",
                  "likelihood.normalized_log_ratio", "estimate.closed_form_mle",
                  "estimate.mle_numeric"):
        put(f"{layer}.self_s", self_s.get(layer, 0.0), "s")
        put(f"{layer}.calls", calls.get(layer, 0), "count")
    put("simulate.normal_stream.draws", counts["normal_draws"], "count")
    for layer in ("simulate.simulate_increments", "simulate.simulate_batch",
                  "increments.cache_init", "likelihood.expected_power_identity",
                  "information.empirical_fisher", "information.periodic_limit_fisher",
                  "estimate.posterior_mean_quadrature", "estimate.posterior_mean_importance"):
        put(f"{layer}.self_s", self_s.get(layer, 0.0), "s")
    from tracer import MOMENT_ROUTES

    for route in MOMENT_ROUTES:
        span = f"increments.moments.{route}"
        put(f"{span}.self_s", self_s.get(span, 0.0), "s")
        put(f"{span}.calls", calls.get(span, 0), "count")
        put(f"{span}.intervals_per_s", ratio(counts[f"intervals.{route}"], total_s.get(span, 0.0)),
            "1/s")
    put("quadrature.calls_per_interval", ratio(
        tracer.descendants("increments.moments.quadrature", "quadrature."),
        counts["intervals.quadrature"]), "count")
    fits = calls.get("estimate.mle_numeric", 0)
    put("estimate.mle_numeric.iterations", ratio(counts["mle_iterations"], fits), "count")
    put("estimate.mle_numeric.moments_per_fit", ratio(
        tracer.descendants("estimate.mle_numeric", "increments.moments."), fits), "count")
    put("estimate.posterior_mean_quadrature.cells", ratio(
        counts["cubature_cells"], calls.get("estimate.posterior_mean_quadrature", 0)), "count")
    put("estimate.posterior_mean_importance.ess_ratio", ratio(
        counts["ess_ratio_sum"], calls.get("estimate.posterior_mean_importance", 0)), "ratio")
    put("trace.traced_wall_s", traced_wall, "s")
    put("trace.untraced_wall_s", untraced_wall, "s")
    put("trace.overhead_s", traced_wall - untraced_wall, "s")
    put("trace.overhead_est_s", summary["spans"] * tracer.span_cost_s(), "s")
    put("trace.uncovered_s", traced_wall - summary["covered_s"], "s")
    put("trace.spans", summary["spans"], "count")
    return m


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_s = import_package()
    import workloads  # imports signoise, so only once src/ is on the path

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](str(OUT))
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"

    if args.trace:
        res = traced_run(wl, args.seed, stem)
        wanted = spec["per_layer"]
    else:
        res = untraced_run(wl, args.seed, args.seconds, import_s)
        wanted = spec["end_to_end"]

    src_digest = tree_digest(SRC / "signoise", "*.py")
    prov = provenance(args.seed, src_digest)
    key = f"{src_digest[:16]}|{tree_digest(BENCH, '*.py')[:8]}|{args.workload}|{args.seed}"
    mismatches = res["mismatches"] + compare_records(key, res["values"])

    attempted = sum(p.attempted for p in res["passes"])
    failed = sum(p.failed for p in res["passes"])
    notes = [n for p in res["passes"] for n in p.notes]
    metrics = res["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"error: metrics {missing} are not produced for {args.workload}")

    print(f"# signoise benchmark: {args.workload}, seed {args.seed}, trace {args.trace}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for name, (value, unit, note) in metrics.items():
        print(f"{name:48s} {value:16.6g} {unit:6s} {note}")
    print(f"{'failed_frac':48s} {failed / max(attempted, 1):16.6g} {'ratio':6s} "
          f"{failed} failed of {attempted} attempted")
    for note in notes[:20]:
        print(f"# note: {note}")
    for mm in mismatches:
        print(f"# determinism mismatch: {mm}")

    correct = failed == 0 and not mismatches
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "determinism_mismatches": mismatches,
        "provenance": prov,
        "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()},
        "values": res["values"],
        "detail": res["detail"],
        "run_s": time.perf_counter() - t_start,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
