"""Monte-Carlo studies of estimator behavior across a ladder of sample sizes.

Four study kinds:

``normality``  normalized estimation errors against their Gaussian limit:
               per-coordinate KS tests, variance agreement, and (at the
               largest rung) full covariance agreement with the inverse
               information.
``rate``       log-log regression of RMSE against the design size, drift
               block against total time and variance block against the
               number of observations; both slopes should sit near -1/2.
``lan``        the local likelihood-ratio structure: distribution of the
               central sequence, decay of the expansion remainder along
               the ladder, and the unit-mean identity for the ratio.
``risk``       worst-case normalized risk over a small lattice of nearby
               truths, compared against the expected loss of the limiting
               Gaussian.

Every study is a pure function of its config: replicate r of rung n reads
a dedicated counter-based stream, results are assembled by replicate
index, and reports exclude wall-clock, so the report bytes are identical
for any worker count.  Failed replicates are dropped, counted by error
class, and fail a study only when their rate exceeds one percent.

The unit of work is the replicate chunk: each rung's replicates are split
into at most 64 contiguous chunks, by replicate count alone, and a chunk
task draws its increments as one (k, n) block.  Closed-form MLEs solve
the whole block with one Gram inverse, and the local expansion reuses
moments computed once per rung; other estimators loop over the rows.

The KS tests are ``_ks.ks_normal``, exact KS p-values equal to
``scipy.stats.kstest``'s, so no study imports ``scipy.stats``.

``run_study`` owns all of a study's state: it builds each rung's context
once and hands it to the chunk tasks (pickled to the workers, a few
chunks per batch, when ``workers > 1``), and one process pool serves the
whole study.  Nothing outlives the call.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import config as _config
from ._ks import ks_normal
from .errors import ConfigError, DomainError, SignoiseError
from .estimate import ESTIMATORS, resolve_estimator
from .increments import MomentCache
from .information import InformationBundle
from .likelihood import LocalExpansion, local_expansion
from .model import Theta
from .quadrature import tensor_rule
from .simulate import IncrementSample, _draw, _Workspace, derive_seed, draw_block

__all__ = [
    "StudyConfig",
    "StudyReport",
    "run_study",
    "study_from_dict",
    "save_report",
    "gaussian_expected_loss",
]

_FAILURE_RATE_LIMIT = 0.01
_CHUNKS = 64
_REMAINDER_FLOOR = 1e-10
_HERMITE_NODES = 24

# the fixed check thresholds and settings of every study
_BATCHES = 20  # contiguous batches behind each batch-means standard error
_KS_LEVEL = 1e-3  # normality: least KS p-value
_COV_REL_TOL = 0.10  # normality: covariance gap relative to the largest entry
_SLOPE_TOL = 0.10  # rate: largest distance of a log-log slope from -1/2
_DELTA_KS_MAX = 0.05  # lan: largest KS distance of the central sequence
_RATIO_SE_FACTOR = 4.0  # lan: unit-mean ratio band in standard errors
_RISK_EPSILON = 0.05  # risk: lattice step as a share of each box width
_RISK_BAND = (0.9, 1.3)  # risk: band of sup-risk / bound
_BAYES_SETTINGS = {"bayes": {"rel_tol": 1e-5}, "bayes-is": {"draws": 4000}}  # by estimator


# ---------------------------------------------------------------------------
# config and report containers
# ---------------------------------------------------------------------------


def _loss(cfg: dict, key: str, where: str) -> tuple[str, float]:
    """A ``[kind, a]`` loss, kind ``power`` or ``indicator``."""
    v = cfg[key]
    if not (isinstance(v, (list, tuple)) and len(v) == 2 and v[0] in ("power", "indicator")):
        raise ConfigError(f"{where}.{key} must be a power or indicator loss, got {v!r}", key=key)
    return v[0], _config._number({key: v[1]}, key, where)


# StudyConfig field -> config reader giving its normal form, so a config
# read from JSON numbers and lists equals (and digests like) one built with
# exact types; a malformed value is a ConfigError naming its key
_READERS = {
    "n_values": lambda c, k, w: tuple(_config._list(c, k, w, _config._integer)),
    "replicates": _config._integer,
    "seed": _config._seed,
    "limit_period": lambda c, k, w: None if c[k] is None else _config._number(c, k, w),
    "directions": lambda c, k, w: tuple(map(tuple, _config._list(c, k, w, _config._number_list))),
    "losses": lambda c, k, w: tuple(_config._list(c, k, w, _loss)),
}


# keys a study reads only for some kinds or info sources (a prior: see resolve_estimator)
_READ_ONLY_WHEN = {
    "directions": lambda s: s.kind == "lan",
    "losses": lambda s: s.kind == "risk",
    "estimator": lambda s: s.kind != "lan",
    "info_source": lambda s: s.kind != "rate",
    "limit_period": lambda s: s.info_source == "limit",
    "limit_regime": lambda s: s.info_source == "limit",
}


@dataclass(frozen=True)
class StudyConfig:
    """Declarative study description; everything pickles and digests.

    ``model``/``space``/``theta``/``grid`` are plain config dicts (see the
    config module).  The check thresholds are module constants.
    Construction validates the study and builds its ``_model``, ``_space``,
    ``_theta``, ``_prior`` and ``_information`` once, kept out of the
    fields, so ``digest``, ``==`` and the report see the config alone.
    """

    kind: str
    model: dict
    space: dict
    theta: dict
    grid: dict
    n_values: tuple[int, ...]
    replicates: int
    seed: int
    estimator: str = "auto"
    info_source: str = "empirical"
    limit_period: float | None = None
    limit_regime: str = "vanishing_step"
    directions: tuple[tuple[float, ...], ...] = ()
    losses: tuple[tuple[str, float], ...] = (("power", 2.0),)
    prior: dict | None = None

    def __post_init__(self):
        if self.kind not in ("normality", "rate", "lan", "risk"):
            raise ConfigError(f"unknown study kind {self.kind!r}", key="kind")
        for name, read in _READERS.items():
            object.__setattr__(self, name, read(vars(self), name, "study"))
        ladder = list(self.n_values)
        if not ladder or ladder[0] < 1 or ladder != sorted(set(ladder)):
            raise ConfigError("n_values must be strictly increasing and positive", key="n_values")
        if self.replicates < 100:
            raise ConfigError(
                f"replicates must be >= 100, got {self.replicates}", key="replicates"
            )
        if self.kind == "rate":
            if len(self.n_values) < 2 or self.n_values[-1] < 10 * self.n_values[0]:
                raise ConfigError(
                    "ladder too short: the rate study needs n_values spanning at "
                    "least one decade",
                    key="n_values",
                )
        model, space = _config.read_model_space(vars(self))
        theta = _config.build_theta(self.theta, model.p, model.q)
        if not space.contains(theta):
            raise ConfigError("theta lies outside the parameter box", key="theta")
        for n in self.n_values:
            _config.build_grid_for(self.grid, n)
        resolve_estimator(self.estimator, model, space, self.prior)
        if any(len(w) != space.d for w in self.directions):
            raise ConfigError(f"each direction must be a length-{space.d} vector", key="directions")
        # the info source reader refuses limit keys by presence: a field at its default is absent
        defaults = {f.name: f.default for f in fields(self)}
        given = {k: v for k, v in vars(self).items() if v != defaults[k]}
        vars(self).update(
            _model=model,
            _space=space,
            _theta=theta,
            _prior=_config.read_prior(vars(self), space.d),
            _information=_config.read_information(
                given, "study", ("info_source", "limit_period", "limit_regime")
            ),
        )

    def digest(self) -> str:
        return _config.digest(asdict(self))


@dataclass
class StudyReport:
    """Study output: metric rows, pass/fail checks, and provenance."""

    kind: str
    seed: int
    config_digest: str
    rows: list[dict] = field(default_factory=list)
    checks: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def check_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            tag = "PASS" if c["passed"] else "FAIL"
            lines.append(f"{tag} {c['name']}: {c['detail']}")
        return lines

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "seed": self.seed,
            "config_digest": self.config_digest,
            "rows": self.rows,
            "checks": self.checks,
            "meta": self.meta,
            "passed": self.passed,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _check(name: str, passed: bool, detail: str, observed: float, threshold: float) -> dict:
    return {
        "name": name,
        "passed": bool(passed),
        "detail": detail,
        "observed": float(observed),
        "threshold": float(threshold),
    }


def _row(n: int, metric: str, coord: str, value: float, se: float | None = None) -> dict:
    return {
        "n": int(n),
        "metric": metric,
        "coord": coord,
        "value": float(value),
        "se": None if se is None else float(se),
    }


def _batch_se(values: np.ndarray) -> float:
    """Standard error of the mean from contiguous batch means."""
    values = np.asarray(values, dtype=float)
    b = min(_BATCHES, values.size)
    if b < 2:
        return float("nan")
    means = np.array([chunk.mean() for chunk in np.array_split(values, b)])
    return float(means.std(ddof=1) / math.sqrt(b))


# ---------------------------------------------------------------------------
# rung contexts and replicate tasks
# ---------------------------------------------------------------------------


@dataclass
class _Context:
    """One rung's moment cache (which holds its grid) and the means and standard
    deviations at a truth, read with no gradient, built once per study and passed
    to every replicate (pickled to workers, so they use the parent's arrays)."""

    cache: MomentCache
    theta: Theta
    mean: np.ndarray = field(init=False)
    sd: np.ndarray = field(init=False)

    def __post_init__(self):
        self.mean, var = self.cache.mean_var(self.theta)
        self.sd = np.sqrt(var)


def _reference_bundle(cfg: StudyConfig, ctx: _Context) -> InformationBundle:
    return cfg._information(cfg._model, ctx.theta, ctx.cache.grid, ctx.cache)


def _draw_chunk(ctx: _Context, seed: int, lo: int, hi: int, work: _Workspace) -> np.ndarray:
    """``draw_block(ctx.mean, ctx.sd, seed, lo, hi)`` bit for bit, written into ``work``."""
    return _draw(seed, lo, hi, ctx.mean.size, ctx.mean, ctx.sd.__getitem__, work)


def _estimate_chunk(cfg: StudyConfig, ctx: _Context, seed: int, lo: int, hi: int, work=None):
    """Estimates of replicates lo..hi-1: a block (k, d) of the successful rows, in order,
    and the failed replicates counted by error class.  A closed-form fit runs in ``work``,
    by default a fresh workspace."""
    estimator = resolve_estimator(cfg.estimator, cfg._model, cfg._space)
    if estimator is ESTIMATORS["mle-closed"]:
        work = _Workspace() if work is None else work
        ys = _draw_chunk(ctx, seed, lo, hi, work)
        try:
            return ctx.cache.linear_design()._fit(ys.T, work.scratch(ys.size)), Counter()
        except (SignoiseError, np.linalg.LinAlgError) as exc:
            return np.empty((0, cfg._model.d)), Counter({type(exc).__name__: len(ys)})
    # an estimator may keep its sample, so these rows get a block of their own
    ys = draw_block(ctx.mean, ctx.sd, seed, lo, hi)
    rows, failures, grid = [], Counter(), ctx.cache.grid
    for r, y in zip(range(lo, hi), ys):
        sample = IncrementSample(y, seed, r, grid.digest(), ctx.theta)
        try:
            rows.append(
                estimator(
                    cfg._model,
                    cfg._space,
                    grid,
                    sample,
                    cache=ctx.cache,
                    prior=cfg._prior,
                    seed=derive_seed(seed, "is", r),
                    **_BAYES_SETTINGS.get(cfg.estimator, {}),
                ).theta.vector
            )
        except (SignoiseError, np.linalg.LinAlgError) as exc:
            failures[type(exc).__name__] += 1
    return np.reshape(rows, (-1, cfg._model.d)), failures


def _lan_chunk(expansion: LocalExpansion, ctx: _Context, seed: int, lo: int, hi: int, work=None):
    """A block with one row per replicate lo..hi-1: its log-ratios, central sequence
    and remainders, in the column order of ``LocalExpansion.evaluate``; no failures.
    It runs in ``work``, by default a fresh workspace."""
    work = _Workspace() if work is None else work
    ys = _draw_chunk(ctx, seed, lo, hi, work)
    u = work.scratch(ys.size).reshape(ys.shape)
    return np.hstack(expansion._evaluate(ys, ys, u)), Counter()


def _replicates(map_fn, task, ctx: _Context, seed: int, m: int) -> tuple[np.ndarray, Counter]:
    """Run ``task(ctx, seed, lo, hi)`` over chunks of r < m; returns (results, failures).

    A task returns a block of its successful replicates' rows, in replicate
    order, and a ``Counter`` of its failed ones by error class.  Chunk
    boundaries depend only on the replicate count, never on the worker
    count, and the blocks are concatenated, and the counters added, in
    submission order; combined with counter-based streams this makes the
    results independent of parallelism.
    """
    chunk = max(1, -(-m // _CHUNKS))
    los = range(0, m, chunk)
    his = [min(lo + chunk, m) for lo in los]
    blocks, failures = [], Counter()
    for block, part in map_fn(task, [ctx] * len(los), [seed] * len(los), los, his):
        blocks.append(block)
        failures += part
    results = np.ascontiguousarray(np.concatenate(blocks))  # C order: the reductions' sums
    if not len(results):
        raise DomainError(f"every replicate failed at n={ctx.cache.grid.n}: {dict(failures)}")
    return results, failures


def _failure_check(report: StudyReport, n: int, failures: Counter, replicates: int) -> None:
    count = sum(failures.values())
    report.meta["failures"][str(n)] = count
    report.meta["failure_classes"][str(n)] = dict(sorted(failures.items()))
    rate = count / replicates
    report.checks.append(
        _check(
            f"failure-rate[n={n}]",
            rate <= _FAILURE_RATE_LIMIT,
            f"{count}/{replicates} replicates failed",
            rate,
            _FAILURE_RATE_LIMIT,
        )
    )


def _rungs(cfg: StudyConfig, report: StudyReport, map_fn, task=None, lattice=None):
    """Yield (n, ctx, results) for each rung of the ladder.

    ``task(ctx)`` gives the rung's chunk task, by default the configured
    estimator's.  Without a ``lattice`` the replicates run at the truth on
    the ``(seed, kind, rung)`` stream, and ``results`` stacks them; with
    one, they run at each of its points j on the ``(seed, kind, rung, j)``
    stream, and ``results`` lists one stack per point.  All of a rung's
    chunks share one workspace in each process, made for the rung.  One
    failure check covers the whole rung and is recorded before the rung is
    yielded.
    """
    for rung, n in enumerate(cfg.n_values):
        ctx = _Context(MomentCache(cfg._model, _config.build_grid_for(cfg.grid, n)), cfg._theta)
        chunk = partial(_estimate_chunk, cfg) if task is None else task(ctx)
        chunk = partial(chunk, work=_Workspace())  # a chunk's result never views it
        runs = [(ctx, (rung,))] if lattice is None else [
            (replace(ctx, theta=theta), (rung, j)) for j, theta in enumerate(lattice)
        ]
        stacks, failures = [], Counter()
        for point, key in runs:
            seed = derive_seed(cfg.seed, cfg.kind, *key)
            results, point_failures = _replicates(map_fn, chunk, point, seed, cfg.replicates)
            stacks.append(results)
            failures += point_failures
        _failure_check(report, n, failures, cfg.replicates * len(runs))
        yield n, ctx, stacks[0] if lattice is None else stacks


def _coord_names(model) -> list[str]:
    return [f"alpha[{j}]" for j in range(model.p)] + [f"beta[{j}]" for j in range(model.q)]


# ---------------------------------------------------------------------------
# normality
# ---------------------------------------------------------------------------


def _normality(cfg: StudyConfig, report: StudyReport, map_fn) -> None:
    """Normalized-error normality and covariance agreement along the ladder.

    Each coordinate's errors are KS-tested against N(0, the inverse
    information's diagonal entry) with ``ks_normal``.
    """
    for n, ctx, estimates in _rungs(cfg, report, map_fn):
        bundle = _reference_bundle(cfg, ctx)
        cov_ref = bundle.joint_inverse
        names = _coord_names(cfg._model)
        u = (estimates - ctx.theta.vector) * np.sqrt(bundle.sizes)
        for k, name in enumerate(names):
            bias = float(u[:, k].mean())
            report.rows.append(_row(n, "bias", name, bias, _batch_se(u[:, k])))
            var = float(u[:, k].var(ddof=1))
            centered = u[:, k] - u[:, k].mean()
            m4 = float(np.mean(centered**4))
            var_se = math.sqrt(max(m4 - var**2, 0.0) / u.shape[0])
            report.rows.append(_row(n, "variance", name, var, var_se))
            ref_sd = math.sqrt(cov_ref[k, k])
            ks_stat, ks_pvalue = ks_normal(u[:, k], ref_sd)
            report.rows.append(_row(n, "ks_stat", name, ks_stat))
            report.rows.append(_row(n, "ks_pvalue", name, ks_pvalue))
            report.checks.append(
                _check(
                    f"normal[n={n}, {name}]",
                    ks_pvalue >= _KS_LEVEL,
                    f"KS p-value {ks_pvalue:.3g} at level {_KS_LEVEL:g}",
                    ks_pvalue,
                    _KS_LEVEL,
                )
            )
            report.checks.append(
                _check(
                    f"variance[n={n}, {name}]",
                    abs(var - cov_ref[k, k]) <= 3.0 * var_se,
                    f"|{var:.4g} - {cov_ref[k, k]:.4g}| vs 3*SE = {3*var_se:.4g}",
                    float(abs(var - cov_ref[k, k])),
                    3.0 * var_se,
                )
            )
        if n == cfg.n_values[-1] and u.shape[1] > 0:
            cov_emp = np.cov(u, rowvar=False).reshape(u.shape[1], u.shape[1])
            gap = float(np.abs(cov_emp - cov_ref).max())
            ref_norm = float(np.abs(cov_ref).max())
            for a in range(u.shape[1]):
                for b in range(u.shape[1]):
                    report.rows.append(
                        _row(n, "covariance", f"{names[a]},{names[b]}", float(cov_emp[a, b]))
                    )
            report.checks.append(
                _check(
                    f"covariance[n={n}]",
                    gap <= _COV_REL_TOL * ref_norm,
                    f"max entry gap {gap:.4g} vs {_COV_REL_TOL:g} * {ref_norm:.4g}",
                    gap,
                    _COV_REL_TOL * ref_norm,
                )
            )


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------


def _rate(cfg: StudyConfig, report: StudyReport, map_fn) -> None:
    """RMSE decay slopes against total time (drift) and count (variance)."""
    points: dict[str, list[list[float]]] = {"drift": [], "var": []}
    for n, ctx, estimates in _rungs(cfg, report, map_fn):
        err = estimates - ctx.theta.vector
        p = cfg._model.p
        blocks = (("drift", err[:, :p], ctx.cache.grid.total_time), ("var", err[:, p:], n))
        for label, block, size in blocks:
            if block.shape[1]:
                sq = np.sum(block**2, axis=1)
                rmse = math.sqrt(float(sq.mean()))
                se = _batch_se(sq) / (2.0 * rmse)
                report.rows.append(_row(n, f"rmse_{label}", "", rmse, se))
                points[label].append([math.log(size), math.log(rmse)])

    rate_points = {label: xy for label, xy in points.items() if len(xy) >= 2}
    for label, xy in rate_points.items():
        slope, stderr = _slope_fit(*zip(*xy))
        slope_se = float(stderr) if np.isfinite(stderr) else float("nan")
        report.rows.append(_row(0, f"slope_{label}", "", float(slope), slope_se))
        report.checks.append(
            _check(
                f"slope-{label}",
                abs(slope + 0.5) <= _SLOPE_TOL,
                f"slope {slope:.4f} within {_SLOPE_TOL:g} of -0.5",
                float(abs(slope + 0.5)),
                _SLOPE_TOL,
            )
        )
    report.meta["rate_points"] = rate_points


def _slope_fit(x, y) -> tuple[float, float]:
    """Least-squares slope of y on x and its stderr, by ``scipy.stats.linregress``'s formulas."""
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if len(x) == 2:
        return ssxym / ssxm, 0.0
    r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    return ssxym / ssxm, np.sqrt((1 - r**2) * ssym / ssxm / (len(x) - 2))


# ---------------------------------------------------------------------------
# local expansion
# ---------------------------------------------------------------------------


def _lan(cfg: StudyConfig, report: StudyReport, map_fn) -> None:
    """Central-sequence normality, remainder decay, unit-mean ratio identity.

    Each coordinate of the central sequence is KS-tested against N(0, 1)
    with ``ks_normal``.
    """
    def task(ctx: _Context):
        # no directions configured: probe w = 0 so the remainder table still
        # appears, with every entry exactly zero
        directions = np.array(cfg.directions or ((0.0,) * cfg._model.d,))
        scaling = _reference_bundle(cfg, ctx).local_scaling
        expansion = local_expansion(
            cfg._model, cfg._space, ctx.theta, directions, scaling, ctx.cache
        )
        return partial(_lan_chunk, expansion)

    mean_abs_remainder: dict[int, list[float]] = {}
    n_dir = len(cfg.directions) or 1  # the w = 0 probe is one direction
    for n, ctx, good in _rungs(cfg, report, map_fn, task):
        names = _coord_names(cfg._model)
        log_ratios, central, remainders = np.split(good, [n_dir, n_dir + cfg._model.d], axis=1)

        for k, name in enumerate(names):
            ks_stat, ks_pvalue = ks_normal(central[:, k])
            report.rows.append(_row(n, "central_ks_stat", name, ks_stat))
            report.rows.append(_row(n, "central_ks_pvalue", name, ks_pvalue))
            if n == cfg.n_values[-1]:
                report.checks.append(
                    _check(
                        f"central-normal[n={n}, {name}]",
                        ks_stat < _DELTA_KS_MAX,
                        f"KS distance {ks_stat:.4f} vs {_DELTA_KS_MAX:g}",
                        ks_stat,
                        _DELTA_KS_MAX,
                    )
                )
        for j in range(n_dir):
            wname = f"w{j}"
            abs_rem = np.abs(remainders[:, j])
            m_rem = float(abs_rem.mean())
            mean_abs_remainder.setdefault(j, []).append(m_rem)
            report.rows.append(
                _row(n, "mean_abs_remainder", wname, m_rem, _batch_se(abs_rem))
            )
            ratios = np.exp(log_ratios[:, j])
            m_ratio = float(ratios.mean())
            se_ratio = _batch_se(ratios)
            report.rows.append(_row(n, "mean_ratio", wname, m_ratio, se_ratio))
            slack = _RATIO_SE_FACTOR * se_ratio + 1e-12
            report.checks.append(
                _check(
                    f"unit-mean-ratio[n={n}, {wname}]",
                    abs(m_ratio - 1.0) <= slack,
                    f"|{m_ratio:.5f} - 1| vs {_RATIO_SE_FACTOR:g}*SE = {slack:.5f}",
                    float(abs(m_ratio - 1.0)),
                    slack,
                )
            )
    for j, seq in mean_abs_remainder.items():
        if len(seq) >= 2:
            # drift-only directions in linear families make the log-ratio
            # exactly quadratic, so the remainder is zero up to roundoff and
            # the ladder is pure noise; such a ladder counts as converged
            # rather than failing the strict decrease on 1e-14 jitter
            converged = all(v <= _REMAINDER_FLOOR for v in seq)
            decreasing = all(b < a for a, b in zip(seq, seq[1:]))
            report.checks.append(
                _check(
                    f"remainder-decay[w{j}]",
                    decreasing or converged,
                    "mean |remainder| strictly decreasing along the ladder: "
                    + " > ".join(f"{v:.4g}" for v in seq)
                    + (" (at the roundoff floor)" if converged else ""),
                    float(seq[-1]),
                    float(seq[0]),
                )
            )


# ---------------------------------------------------------------------------
# risk
# ---------------------------------------------------------------------------


def gaussian_expected_loss(cov: np.ndarray, loss: tuple[str, float]) -> float:
    """E[L(|xi|)] for xi ~ N(0, cov).

    Quadratic power loss has the closed form trace(cov); anything else is
    computed by tensor Gauss-Hermite quadrature (d <= 4).
    """
    cov = np.asarray(cov, dtype=float)
    kind, a = loss
    if kind == "power" and a == 2.0:
        return float(np.trace(cov))
    d = cov.shape[0]
    if d > 4:
        raise DomainError("tensor quadrature for the loss bound is limited to d <= 4")
    eigvals, eigvecs = np.linalg.eigh(0.5 * (cov + cov.T))
    eigvals = np.clip(eigvals, 0.0, None)
    transform = eigvecs * np.sqrt(eigvals)
    x, w = np.polynomial.hermite_e.hermegauss(_HERMITE_NODES)
    z, wt = tensor_rule(x, w / math.sqrt(2.0 * math.pi), d)
    r = np.linalg.norm(z @ transform.T, axis=1)
    return float(wt @ _loss_values(r, loss))


def _loss_values(r: np.ndarray, loss: tuple[str, float]) -> np.ndarray:
    kind, a = loss
    if kind == "power":
        return r**a
    return (r > a).astype(float)


def _risk(cfg: StudyConfig, report: StudyReport, map_fn) -> None:
    """Worst-case normalized risk over a nearby-truth lattice vs the limit.

    The lattice is the truth and, for each axis k, the truth moved by
    +/- ``_RISK_EPSILON`` of the box width along k.
    """
    model, center = cfg._model, cfg._theta.vector
    lattice = [cfg._theta] + [
        Theta.from_vector(center + sgn * step, model.p)
        for step in np.diag(_RISK_EPSILON * cfg._space.widths)
        for sgn in (1.0, -1.0)
    ]
    for j, theta in enumerate(lattice):
        if not cfg._space.contains(theta):
            raise ConfigError(
                f"risk lattice point {j} leaves the parameter box; move the "
                f"truth at least {_RISK_EPSILON:g} of each box width inward",
                key="theta",
            )
    for n, ctx, stacks in _rungs(cfg, report, map_fn, lattice=lattice):
        bundle = _reference_bundle(cfg, ctx)
        cov_ref, scale = bundle.joint_inverse, np.sqrt(bundle.sizes)
        loss_records: list[list[tuple[float, float]]] = [[] for _ in cfg.losses]
        for j, (theta, estimates) in enumerate(zip(lattice, stacks)):
            r = np.linalg.norm((estimates - theta.vector) * scale, axis=1)
            for records, loss in zip(loss_records, cfg.losses):
                vals = _loss_values(r, loss)
                mean_loss, se = float(vals.mean()), _batch_se(vals)
                records.append((mean_loss, se))
                report.rows.append(
                    _row(n, f"risk[{_loss_name(loss)}]", f"point{j}", mean_loss, se)
                )

        for records, loss in zip(loss_records, cfg.losses):
            bound = gaussian_expected_loss(cov_ref, loss)
            sup_risk, sup_se = max(records, key=lambda t: t[0])
            report.rows.append(_row(n, f"sup_risk[{_loss_name(loss)}]", "", sup_risk, sup_se))
            report.rows.append(_row(n, f"bound[{_loss_name(loss)}]", "", bound))
            if loss[0] == "power" and bound > 0.0:
                ratio = sup_risk / bound
                lo, hi = _RISK_BAND
                slack = 3.0 * sup_se / bound
                passed = (ratio - slack) <= hi and (ratio + slack) >= lo
                report.rows.append(_row(n, f"risk_ratio[{_loss_name(loss)}]", "", ratio))
                report.checks.append(
                    _check(
                        f"risk-ratio[n={n}, {_loss_name(loss)}]",
                        passed,
                        f"sup/bound = {ratio:.4f} in [{lo:g}, {hi:g}] with 3*SE slack "
                        f"{slack:.4f}",
                        ratio,
                        hi,
                    )
                )


def _loss_name(loss: tuple[str, float]) -> str:
    kind, a = loss
    return f"{kind}:{a:g}"


# ---------------------------------------------------------------------------
# dispatch, persistence
# ---------------------------------------------------------------------------


def _meta(cfg: StudyConfig) -> dict:
    return {
        "estimator": cfg.estimator,
        "info_source": cfg.info_source,
        "replicates": cfg.replicates,
        "n_values": list(cfg.n_values),
        "theta": cfg.theta,
        "failures": {},
        "failure_classes": {},
    }


_STUDIES = {"normality": _normality, "rate": _rate, "lan": _lan, "risk": _risk}


def run_study(cfg: StudyConfig, workers: int = 1) -> StudyReport:
    """Run the study ``cfg`` describes; the report does not depend on ``workers``.

    Each rung's context is built once, here in the calling process, and
    travels with its replicate chunks.  ``workers > 1`` runs the chunks of
    every rung and every risk lattice point on one process pool; each
    worker takes its share of a rung's chunks in about four batches, so
    the context is pickled once per batch rather than once per chunk.
    """
    report = StudyReport(cfg.kind, cfg.seed, cfg.digest(), meta=_meta(cfg))
    study = _STUDIES[cfg.kind]
    if workers <= 1:
        study(cfg, report, map)
    else:
        from concurrent.futures import ProcessPoolExecutor  # deferred: a serial run needs no pool

        with ProcessPoolExecutor(max_workers=workers) as pool:
            study(cfg, report, partial(pool.map, chunksize=max(1, _CHUNKS // (4 * workers))))
    return report


def study_from_dict(cfg: dict) -> StudyConfig:
    """Validate a raw study config dict and build the StudyConfig.

    The allowed and required keys are the StudyConfig fields and the
    fields without defaults, less the keys the study's kind and
    info_source never read; everything else is checked by StudyConfig
    itself, before any replicate runs.
    """
    schema = fields(StudyConfig)
    _config._check_keys(
        cfg,
        {f.name for f in schema},
        {f.name for f in schema if f.default is MISSING},
        "study",
    )
    study = StudyConfig(**cfg)
    for key, read in _READ_ONLY_WHEN.items():
        if key in cfg and not read(study):
            where = f"{study.kind} study with info_source {study.info_source!r}"
            raise ConfigError(f"a {where} never reads this key", key=key)
    return study


def save_report(report: StudyReport, out_dir, stem: str = "report") -> list[str]:
    """Write the JSON report, a CSV of its rows, and rate-plot data files.

    Returns the written paths.  Bytes depend only on the report contents.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    json_path = os.path.join(out_dir, f"{stem}.json")
    with open(json_path, "w") as fh:
        fh.write(report.to_json())
    paths.append(json_path)

    csv_path = os.path.join(out_dir, f"{stem}.csv")
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["kind", "n", "metric", "coord", "value", "se"])
        for row in report.rows:
            w.writerow(
                [
                    report.kind,
                    row["n"],
                    row["metric"],
                    row["coord"],
                    repr(row["value"]),
                    "" if row["se"] is None else repr(row["se"]),
                ]
            )
    paths.append(csv_path)

    if report.kind == "rate":
        for label, points in report.meta.get("rate_points", {}).items():
            dat_path = os.path.join(out_dir, f"{stem}_{label}.dat")
            with open(dat_path, "w") as fh:
                fh.write(f"# log_size log_rmse_{label}\n")
                for x, y in points:
                    fh.write(f"{x!r} {y!r}\n")
            paths.append(dat_path)
    return paths
