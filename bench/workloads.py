"""The four benchmark workloads.

Each workload has a ``setup(seed)`` that builds its inputs from the seed
(models, grids, caches, samples) and a ``run_pass(state, k)`` that runs one
fixed unit of work, timing each call into the package separately and
checking its output outside the timed intervals.  Pass ``k`` does the same
work in every run with the same seed, so wall times of passes compare
across runs and work counts repeat exactly.

Why these four (see README.md for the per-layer predictions):

* ``verify-closed``  the ``signoise verify`` user at acceptance scale:
  ~20,000 cheap closed-form and LAN replicates, where per-replicate fixed
  cost dominates.  No quadrature and no optimizer.
* ``fit-iterative``  the ``signoise estimate`` user, one sample at a time:
  the numeric MLE's optimizer and both Bayes routes carry the time.
* ``general-model``  closure families that configs cannot express: the
  only workload where the closure and quadrature moment routes and the
  ``quadrature`` module carry the time.
* ``long-grid``      one record of 1e6 intervals on two layouts: the
  closed-form layers on arrays well beyond the L2 cache, where memory
  traffic sets the time rather than call overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import time
from collections import Counter

import numpy as np

import signoise as sn
from signoise import experiments

# ---------------------------------------------------------------------------
# shared families
# ---------------------------------------------------------------------------

MEAN_CONFIG = {
    "signal": {"kind": "linear", "basis": [{"kind": "const"}]},
    "noise": {"kind": "known", "profile": {"kind": "const", "value": 1.0}},
}
TRIG_SCALED_CONFIG = {
    "signal": {"kind": "linear", "basis": [{"kind": "const"}, {"kind": "cos", "freq": 1.0}]},
    "noise": {"kind": "scaled", "profile": {"kind": "const", "value": 1.0}},
}
MEAN_SPACE = {"alpha": [[0.0, 2.0]], "beta": []}
MEAN_THETA = {"alpha": [1.0], "beta": []}
SCALED_SPACE = {"alpha": [[-3.0, 3.0], [-3.0, 3.0]], "beta": [[0.1, 4.0]]}
SCALED_THETA = {"alpha": [1.0, 0.5], "beta": [1.0]}


def trig_scaled_model():
    """Linear drift on (1, cos 2 pi t) with an unknown noise scale, d = 3."""
    model = sn.ModelSpec(
        sn.LinearSignal((sn.ConstantFn(), sn.CosineFn(1.0))),
        sn.ScaledNoise(sn.constant_profile(1.0)),
    )
    space = sn.ParameterSpace(((-3.0, 3.0), (-3.0, 3.0)), ((0.1, 4.0),))
    theta = sn.Theta(np.array([1.0, 0.5]), np.array([1.0]))
    return model, space, theta


def curved_models():
    """f = sin(a) cos(t), sigma2 = exp(b) (2 + sin t), with and without antiderivatives.

    The first model takes the closure route of ``MomentCache``; the second,
    the same family with its antiderivatives dropped, takes the quadrature
    route.  Both have period 2 pi in t.
    """

    def value(a, t):
        return math.sin(a[0]) * math.cos(t)

    def grad(a, t):
        return np.array([math.cos(a[0]) * math.cos(t)])

    def s2(b, t):
        return math.exp(b[0]) * (2.0 + math.sin(t))

    def s2_grad(b, t):
        return np.array([s2(b, t)])

    def s2_int(b, lo, hi):
        return math.exp(b[0]) * (2.0 * (hi - lo) + math.cos(lo) - math.cos(hi))

    closure = sn.ModelSpec(
        sn.GeneralSignal(
            p=1,
            value_fn=value,
            grad_fn=grad,
            integral_fn=lambda a, lo, hi: math.sin(a[0]) * (math.sin(hi) - math.sin(lo)),
            grad_integral_fn=lambda a, lo, hi: np.array(
                [math.cos(a[0]) * (math.sin(hi) - math.sin(lo))]
            ),
        ),
        sn.GeneralNoise(
            q=1,
            value_fn=s2,
            grad_fn=s2_grad,
            integral_fn=s2_int,
            grad_integral_fn=lambda b, lo, hi: np.array([s2_int(b, lo, hi)]),
        ),
    )
    quadrature = sn.ModelSpec(
        sn.GeneralSignal(p=1, value_fn=value, grad_fn=grad),
        sn.GeneralNoise(q=1, value_fn=s2, grad_fn=s2_grad),
    )
    space = sn.ParameterSpace(((-1.2, 1.2),), ((-1.0, 1.0),))
    theta = sn.Theta(np.array([0.3]), np.array([0.2]))
    return closure, quadrature, space, theta


def _interior_theta(space, rng, shrink=0.1):
    lo = space.lower + shrink * space.widths
    hi = space.upper - shrink * space.widths
    return sn.Theta.from_vector(rng.uniform(lo, hi), space.p)


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(sn.derive_seed(seed, name))


def normal_equation_residual(cache, y, alpha) -> float:
    """|B'W(y - B alpha)| over its rounding scale |B|'W|y|, largest coordinate."""
    b = cache.signal_basis_integrals()
    w = 1.0 / cache.noise_profile_integrals()
    resid = b.T @ (w * (y - b @ alpha))
    scale = np.abs(b).T @ (w * np.abs(y))
    return float(np.max(np.abs(resid) / scale))


# ---------------------------------------------------------------------------
# one pass: timed calls, work counts, oracle verdicts
# ---------------------------------------------------------------------------


class Pass:
    """Timed operations of one pass with their work counts and failures.

    ``wall_s`` is the sum of the timed calls; output checks run between
    them and are not timed.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops: list[tuple[str, float]] = []
        self.counts: Counter = Counter()
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def timed(self, kind: str, fn, *args, **kwargs):
        """Run and time one call; a package error counts as a failed operation."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except (sn.SignoiseError, np.linalg.LinAlgError) as exc:
            self.fail(f"{kind}: raised {exc!r}")
            return None
        finally:
            self.ops.append((kind, time.perf_counter() - t0))

    def checking(self):
        """Context for output checks: their package calls are not traced."""
        return self.tracer.pause() if self.tracer is not None else contextlib.nullcontext()

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        self.notes.append(note)

    def check(self, ok: bool, note: str) -> None:
        if not ok:
            self.fail(note)

    @property
    def wall_s(self) -> float:
        return sum(t for _, t in self.ops)

    def latencies(self, kind: str) -> list[float]:
        return [t for k, t in self.ops if k == kind]


class Workload:
    """Base: ``out_dir`` is where a workload may write files (reports).

    ``MAX_PASSES`` is the number of distinct pass contents; pass k runs
    content k % MAX_PASSES.
    """

    MAX_PASSES = 1

    def __init__(self, out_dir: str):
        self.out_dir = os.path.join(out_dir, self.name)
        self.tracer = None  # set while a traced pass runs


# ---------------------------------------------------------------------------
# verify-closed
# ---------------------------------------------------------------------------


class VerifyClosed(Workload):
    """``study_from_dict`` -> ``run_study(workers=1)`` -> ``save_report`` on five configs.

    The acceptance configs of tests 02, 03 (both grids), 04 and 05, all on
    closed-form and LAN paths.  Seed s shifts every study seed by 1000*s,
    so seed 0 reproduces the acceptance seeds 202/303/304/404/505.
    """

    name = "verify-closed"
    # Failed replicates, the rate slopes and the remainder decay are gated at
    # every seed.  The other checks are tests at a fixed level (KS p-values
    # and distances, 3-SE variance and covariance bands, the 4-SE unit-mean
    # ratio of a heavy-tailed likelihood ratio) and fail by chance at some
    # seeds, so, as in the acceptance tests, they are gated at the acceptance
    # seeds (seed 0) and only reported at other seeds.
    ALWAYS_GATED = ("failure-rate[", "slope-", "remainder-decay[")

    STUDIES = (
        ("normality-202", {
            "kind": "normality", "model": MEAN_CONFIG, "space": MEAN_SPACE,
            "theta": MEAN_THETA, "grid": {"kind": "uniform", "h": 0.25},
            "n_values": [100, 400, 1600], "replicates": 2000, "seed": 202,
            "estimator": "mle-closed"}),
        ("rate-303", {
            "kind": "rate", "model": TRIG_SCALED_CONFIG, "space": SCALED_SPACE,
            "theta": SCALED_THETA,
            "grid": {"kind": "uniform", "step_rule": "inverse_sqrt", "c": 1.0},
            "n_values": [100, 400, 1600], "replicates": 1000, "seed": 303,
            "estimator": "mle-closed"}),
        ("rate-304", {
            "kind": "rate", "model": TRIG_SCALED_CONFIG, "space": SCALED_SPACE,
            "theta": SCALED_THETA,
            "grid": {"kind": "pattern", "offsets": [0.25, 1.0], "period": 1.0},
            "n_values": [100, 400, 1600], "replicates": 1000, "seed": 304,
            "estimator": "mle-closed"}),
        ("normality-404", {
            "kind": "normality", "model": TRIG_SCALED_CONFIG, "space": SCALED_SPACE,
            "theta": SCALED_THETA,
            "grid": {"kind": "pattern", "offsets": [0.25, 1.0], "period": 1.0},
            "n_values": [1600], "replicates": 2000, "seed": 404,
            "estimator": "mle-closed", "info_source": "limit", "limit_period": 1.0,
            "limit_regime": "pattern"}),
        ("lan-505", {
            "kind": "lan", "model": TRIG_SCALED_CONFIG, "space": SCALED_SPACE,
            "theta": SCALED_THETA, "grid": {"kind": "uniform", "h": 0.25},
            "n_values": [100, 400, 1600], "replicates": 2000, "seed": 505,
            "directions": [[0.6, 0.3, 0.2], [0.0, 0.5, 0.7], [0.4, 0.4, 0.4]]}),
    )

    def setup(self, seed: int):
        return {
            "seed": seed,
            "studies": [
                (label, sn.study_from_dict({**cfg, "seed": cfg["seed"] + 1000 * seed}))
                for label, cfg in self.STUDIES
            ],
        }

    @staticmethod
    def replicates(cfg) -> int:
        return cfg.replicates * len(cfg.n_values)

    def units_per_pass(self, state) -> int:
        return sum(self.replicates(cfg) for _, cfg in state["studies"])

    def run_pass(self, state, k: int) -> Pass:
        p = Pass(self.tracer)
        # every `signoise verify` starts in a fresh process with no cached
        # per-rung contexts; clear them so each pass repeats that work
        contexts = getattr(experiments, "_CONTEXTS", None)
        if contexts is not None:
            contexts.clear()
        for label, cfg in state["studies"]:
            out = os.path.join(self.out_dir, label)
            report = p.timed(f"study:{label}", self._verify, cfg, out)
            if report is None:
                continue
            p.attempted += self.replicates(cfg) - 1
            with open(os.path.join(out, f"{cfg.kind}_report.json"), "rb") as fh:
                p.digests[label] = hashlib.sha256(fh.read()).hexdigest()
            failed = sum(report.meta["failures"].values())
            p.counts["replicates_failed"] += failed
            if failed:
                p.fail(f"{label}: {failed} replicates failed", failed)
            for c in report.checks:
                gated = state["seed"] == 0 or c["name"].startswith(self.ALWAYS_GATED)
                if not c["passed"]:
                    if gated:
                        p.fail(f"{label}: check {c['name']} failed: {c['detail']}")
                    else:
                        p.notes.append(f"{label}: ungated check {c['name']}: {c['detail']}")
            p.counts[f"{label}.checks"] = len(report.checks)
        return p

    @staticmethod
    def _verify(cfg, out):
        report = sn.run_study(cfg, workers=1)
        sn.save_report(report, out, stem=f"{cfg.kind}_report")
        return report

    def headline(self, state, passes, wall_s):
        units = self.units_per_pass(state)
        return {"replicates_per_s": (units / wall_s, "1/s", f"{units} replicates per pass")}


# ---------------------------------------------------------------------------
# fit-iterative
# ---------------------------------------------------------------------------


class FitIterative(Workload):
    """One sample at a time: numeric MLE, importance-sampling Bayes, and cubature Bayes.

    Trig drift with a scaled constant noise (d = 3), uniform grid n = 400,
    h = 0.25.  Every sample gets ``mle_numeric`` then
    ``posterior_mean_importance`` (4000 draws) anchored at that MLE; every
    CUBATURE_EVERY-th sample also gets ``posterior_mean_quadrature`` at
    rel_tol 1e-5 with the same anchor.
    """

    name = "fit-iterative"
    PER_PASS = 25
    MAX_PASSES = 12
    CUBATURE_EVERY = 5
    DRAWS = 4000
    REL_TOL = 1e-5

    def setup(self, seed: int):
        model, space, theta = trig_scaled_model()
        grid = sn.uniform_grid(400, 0.25)
        cache = sn.MomentCache(model, grid)
        s = sn.derive_seed(seed, self.name)
        samples = [
            sn.simulate_increments(model, theta, grid, s, replicate=r, cache=cache)
            for r in range(self.PER_PASS * self.MAX_PASSES)
        ]
        return {"seed": s, "model": model, "space": space, "grid": grid, "cache": cache,
                "samples": samples}

    def units_per_pass(self, state) -> int:
        return self.PER_PASS

    def run_pass(self, state, k: int) -> Pass:
        p = Pass(self.tracer)
        model, space, grid, cache = state["model"], state["space"], state["grid"], state["cache"]
        first = (k % self.MAX_PASSES) * self.PER_PASS
        for i in range(first, first + self.PER_PASS):
            sample = state["samples"][i]
            est = p.timed("mle", sn.mle_numeric, model, space, grid, sample, cache=cache)
            if est is None:
                continue
            imp = p.timed(
                "importance", sn.posterior_mean_importance, model, space, grid, sample,
                draws=self.DRAWS, seed=sn.derive_seed(state["seed"], "is", i), anchor=est,
                cache=cache,
            )
            cub = None
            if i % self.CUBATURE_EVERY == 0:
                cub = p.timed(
                    "cubature", sn.posterior_mean_quadrature, model, space, grid, sample,
                    rel_tol=self.REL_TOL, anchor=est, cache=cache,
                )
            with p.checking():
                self._check(p, i, model, space, grid, cache, sample, est, imp, cub)
        return p

    def _check(self, p, i, model, space, grid, cache, sample, est, imp, cub):
        p.counts["mle_iterations"] += est.iterations
        closed = sn.closed_form_mle(model, space, grid, sample, cache=cache)
        ref = closed.theta.vector
        # relative to |coordinate| as in test 01, but never to less than the
        # coordinate's standard error: an estimate within noise of zero (seed
        # 108, sample 86: alpha[1] = 0.007 +- 0.14) has no meaningful relative
        # error, and 1e-8 absolute there read as 1.4e-6 relative
        rel = float(np.max(np.abs(est.theta.vector - ref) / np.maximum(np.abs(ref), closed.stderr)))
        p.check(rel <= 1e-6, f"sample {i}: numeric vs closed-form MLE rel err {rel:.2e} > 1e-6")
        res = normal_equation_residual(cache, sample.y, closed.theta.alpha)
        p.check(res <= 1e-10, f"sample {i}: normal-equation residual {res:.2e} > 1e-10")
        if imp is not None:
            ratio = imp.effective_draws / imp.draws
            p.counts["ess_ratio_sum"] += ratio
            p.check(
                np.all(np.isfinite(imp.theta.vector)) and 0.0 < ratio <= 1.0,
                f"sample {i}: importance mean not finite or ESS ratio {ratio!r} outside (0, 1]",
            )
        if cub is not None:
            p.counts["cubature_cells"] += cub.cells
            gap = float(np.max(np.abs(cub.theta.vector - ref)))
            p.check(cub.error_estimate <= self.REL_TOL,
                    f"sample {i}: cubature error estimate {cub.error_estimate:.2e} > rel_tol")
            p.check(gap < 0.05, f"sample {i}: posterior mean vs MLE gap {gap:.3g} >= 0.05")

    def headline(self, state, passes, wall_s):
        fits = [t for ps in passes for t in ps.latencies("mle")]
        cub = [t for ps in passes for t in ps.latencies("cubature")]
        imp = [t for ps in passes for t in ps.latencies("importance")]
        out = {"fit_p50_ms": (1e3 * float(np.median(fits)), "ms", f"{len(fits)} fits")}
        pct, beyond = tail_percentile(len(fits))
        out[f"fit_p{pct:g}_ms"] = (
            1e3 * float(np.percentile(fits, pct)), "ms",
            f"{len(fits)} fits, {beyond} beyond the p{pct:g}",
        )
        out["bayes_p50_ms"] = (1e3 * float(np.median(cub)), "ms", f"{len(cub)} cubature fits")
        out["importance_p50_ms"] = (1e3 * float(np.median(imp)), "ms", f"{len(imp)} draws sets")
        return out


def tail_percentile(count: int) -> tuple[float, int]:
    """(p, m): p90 when at least ten samples lie beyond it, else the highest such p."""
    if count >= 100:
        return 90.0, count - int(math.ceil(0.9 * count))
    beyond = min(10, count)
    return 100.0 * (count - beyond) / count, beyond


# ---------------------------------------------------------------------------
# general-model
# ---------------------------------------------------------------------------


class GeneralModel(Workload):
    """Closure families: closure-route fits, quadrature-route moments, power identity, limit.

    * FITS_PER_PASS ``mle_numeric`` fits at n = 400 on the closure route;
    * the same family without antiderivatives, so ``MomentCache.moments``
      takes the quadrature route, on a uniform and a quantile grid, n = 400;
    * ``expected_power_identity`` at n = 2000 for z in {0.25, 0.5, 0.75};
    * ``periodic_limit_fisher`` in the vanishing-step regime.
    """

    name = "general-model"
    FITS_PER_PASS = 4
    MAX_PASSES = 12
    ZS = (0.25, 0.5, 0.75)

    def setup(self, seed: int):
        closure, quad, space, theta = curved_models()
        rng = _rng(seed, self.name)
        grid = sn.uniform_grid(400, 0.25)
        cache = sn.MomentCache(closure, grid)
        s = sn.derive_seed(seed, self.name)
        samples = [
            sn.simulate_increments(closure, theta, grid, s, replicate=r, cache=cache)
            for r in range(self.FITS_PER_PASS * self.MAX_PASSES)
        ]
        quad_grids = (grid, sn.quantile_grid(lambda u: u**1.5, 400, 100.0))
        power_grid = sn.uniform_grid(2000, 0.25)
        return {
            "closure": closure, "quad": quad, "space": space, "theta": theta,
            "grid": grid, "cache": cache, "samples": samples,
            "quad_grids": quad_grids,
            "closure_caches": [sn.MomentCache(closure, g) for g in quad_grids],
            "power_grid": power_grid,
            "power_cache": sn.MomentCache(closure, power_grid),
            "points": [_interior_theta(space, rng) for _ in range(self.MAX_PASSES)],
            "shifts": [rng.uniform(-0.1, 0.1, 2) for _ in range(self.MAX_PASSES)],
        }

    def units_per_pass(self, state) -> int:
        return self.FITS_PER_PASS

    def run_pass(self, state, k: int) -> Pass:
        p = Pass(self.tracer)
        closure, space = state["closure"], state["space"]
        grid, cache = state["grid"], state["cache"]
        j = k % self.MAX_PASSES
        first = j * self.FITS_PER_PASS
        for i in range(first, first + self.FITS_PER_PASS):
            sample = state["samples"][i]
            est = p.timed("mle", sn.mle_numeric, closure, space, grid, sample, cache=cache)
            if est is None:
                continue
            p.counts["mle_iterations"] += est.iterations
            with p.checking():
                truth_ll = sn.log_likelihood(cache.moments(state["theta"]), sample.y)
            p.check(
                np.isfinite(est.log_lik) and est.log_lik >= truth_ll - 1e-9 * abs(truth_ll),
                f"fit {i}: log-lik at the MLE {est.log_lik!r} below the truth's {truth_ll!r}",
            )

        theta = state["points"][j]
        for g, fast_cache in zip(state["quad_grids"], state["closure_caches"]):
            slow = p.timed("quadrature_moments", self._quadrature_moments, state["quad"], g, theta)
            if slow is not None:
                with p.checking():
                    self._check_routes(p, fast_cache.moments(theta), slow, g.label)

        shift = state["shifts"][j]
        for z in self.ZS:
            value = p.timed(
                "power_identity", sn.expected_power_identity, closure, theta, shift, z,
                state["power_grid"], cache=state["power_cache"],
            )
            # ln E[LR^z] <= z ln E[LR] = 0 for z in (0, 1), by Jensen
            if value is not None:
                p.check(np.isfinite(value) and value <= 1e-12,
                        f"power identity at z={z}: {value!r} is not a finite value <= 0")

        bundle = p.timed("limit_fisher", sn.periodic_limit_fisher, closure, theta, 2.0 * math.pi)
        if bundle is not None:
            eig = np.linalg.eigvalsh(bundle.joint)
            p.check(np.all(np.isfinite(eig)) and eig.min() > 0.0,
                    f"limit information not positive definite: eigenvalues {eig}")
        return p

    @staticmethod
    def _quadrature_moments(model, grid, theta):
        return sn.MomentCache(model, grid).moments(theta)

    @staticmethod
    def _check_routes(p, fast, slow, label):
        """Quadrature route against the closure route, as the dual-route test does."""
        mean_ok = np.all(np.abs(fast.mean - slow.mean) < 1e-9 * (1.0 + np.abs(fast.mean)))
        var_ok = np.all(np.abs(fast.var - slow.var) < 1e-9 * (1.0 + np.abs(fast.var)))
        gm_ok = np.all(np.abs(fast.grad_mean - slow.grad_mean)
                       < 1e-9 * (1.0 + np.abs(fast.grad_mean)))
        gv_ok = np.all(np.abs(fast.grad_var - slow.grad_var)
                       < 1e-9 * (1.0 + np.abs(fast.grad_var)))
        p.check(mean_ok and var_ok and gm_ok and gv_ok,
                f"{label}: quadrature and closure moment routes differ by more than 1e-9")

    def headline(self, state, passes, wall_s):
        fits = [t for ps in passes for t in ps.latencies("mle")]
        quad = [t for ps in passes for t in ps.latencies("quadrature_moments")]
        return {
            "fit_p50_ms": (1e3 * float(np.median(fits)), "ms", f"{len(fits)} fits"),
            "quadrature_moments_p50_ms": (1e3 * float(np.median(quad)), "ms",
                                          f"{len(quad)} calls"),
        }


# ---------------------------------------------------------------------------
# long-grid
# ---------------------------------------------------------------------------


class LongGrid(Workload):
    """One record of N = 1e6 intervals on two layouts, through the closed-form layers.

    Layouts: ``grid_from_delays`` of uniform delays, and the quantile grid
    t = T u^1.5.  Per layout: grid build, cache precompute, one sample,
    moments, log-likelihood and score, closed-form MLE, empirical
    information, and ``simulate_batch`` of BATCH_ROWS full-length rows.
    Each float64 array of the record is 8 MB.
    """

    name = "long-grid"
    N = 1_000_000
    DELAY = 0.01
    BATCH_ROWS = 3

    def setup(self, seed: int):
        model, space, theta = trig_scaled_model()
        return {"model": model, "space": space, "theta": theta,
                "seed": sn.derive_seed(seed, self.name),
                "delays": np.full(self.N, self.DELAY)}

    def units_per_pass(self, state) -> int:
        return 2 * self.N

    def run_pass(self, state, k: int) -> Pass:
        p = Pass(self.tracer)
        total = self.N * self.DELAY
        builders = (
            ("delays", sn.grid_from_delays, (state["delays"],)),
            ("quantile", sn.quantile_grid, (lambda u: u**1.5, self.N, total)),
        )
        for layout, build, args in builders:
            grid = p.timed(f"grid_build:{layout}", build, *args)
            if grid is None:
                continue
            if layout == "delays":
                ref = np.arange(self.N + 1) * self.DELAY
                ulp = np.spacing(np.maximum(ref, 1e-300))
                off = float(np.max(np.abs(grid.instants - ref) / ulp))
                p.check(off <= 1.0, f"grid_from_delays instants off by {off:.2f} ulp")
            self._record(p, layout, state, grid)
        return p

    def _record(self, p, layout, state, grid):
        model, space, theta, seed = state["model"], state["space"], state["theta"], state["seed"]
        cache = p.timed(f"cache_init:{layout}", sn.MomentCache, model, grid)
        if cache is None:
            return
        sample = p.timed(f"simulate:{layout}", sn.simulate_increments, model, theta, grid, seed,
                         cache=cache)
        m = p.timed(f"moments:{layout}", cache.moments, theta)
        if sample is None or m is None:
            return
        p.timed(f"log_likelihood:{layout}", sn.log_likelihood, m, sample.y)
        p.timed(f"score:{layout}", sn.score, m, sample.y)
        est = p.timed(f"closed_form_mle:{layout}", sn.closed_form_mle, model, space, grid, sample,
                      cache=cache)
        if est is not None:
            res = normal_equation_residual(cache, sample.y, est.theta.alpha)
            p.check(res <= 1e-10, f"{layout}: normal-equation residual {res:.2e} > 1e-10")
        p.timed(f"empirical_fisher:{layout}", sn.empirical_fisher, m, grid)
        batch = p.timed(f"simulate_batch:{layout}", sn.simulate_batch, model, theta, grid, seed,
                        self.BATCH_ROWS, cache=cache)
        if batch is not None:
            p.check(np.array_equal(batch[0], sample.y),
                    f"{layout}: simulate_batch row 0 differs from replicate 0")
        p.counts[f"{layout}.intervals"] = grid.n

    def headline(self, state, passes, wall_s):
        return {"intervals_per_s": (self.units_per_pass(state) / wall_s, "1/s",
                                    "2 layouts x 1e6 intervals per pass")}


WORKLOADS = {w.name: w for w in (VerifyClosed, FitIterative, GeneralModel, LongGrid)}
