"""Point estimation: box-constrained MLE, exact closed forms, Bayes means.

The numeric MLE screens deterministic Halton starts and takes projected
Fisher-scoring steps from the best one, so repeated calls with the same
inputs return bit-identical results.  For drifts linear in
their parameters, with known variances or one unknown variance scale, the
MLE is exact and ``increments.LinearDesign`` is its one owner: it gives
``closed_form_mle``'s fit, covariance and log-likelihood, the block fits of
Monte-Carlo studies, and the log-likelihood that the numeric MLE's screen,
each cubature round and the importance draws take in one call each, at
O(p^2) per parameter point once a sample is reduced to a few weighted sums
(``LinearDesign.log_likelihood`` says why that quadratic is centred at the
weighted least-squares point and not at zero).

Bayes posterior means are computed two independent ways: an adaptive
tensor-product Gauss-Legendre cubature anchored at the MLE (the primary
route, dimension-guarded), and self-normalized importance sampling from a
Gaussian proposal (the cross-check, with a standard error).  The two
routes share one set-up (prior, anchor, its per-axis scale and the batch
log-likelihood) but no quadrature machinery, on purpose.  A ``Prior`` is
flat when it has no center and an independent Gaussian when it has one.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegeneratePosteriorError,
    DomainError,
    EvaluationError,
    NoiseFloorViolation,
    OptimizationError,
    QuadratureError,
    SingularDesignError,
    SingularInformationError,
)
from .increments import IncrementMoments, MomentCache, _bind, has_closed_form
from .information import empirical_fisher
from .likelihood import _log_likelihood, log_likelihood, score
from .quadrature import tensor_rule
from .model import ModelSpec, ParameterSpace, Theta, _real_tuple
from .sampling import TimeGrid, _is_integer
from .simulate import IncrementSample, derive_seed, normal_stream

__all__ = [
    "EstimateResult",
    "mle_numeric",
    "closed_form_mle",
    "Prior",
    "BayesResult",
    "posterior_mean_quadrature",
    "posterior_mean_importance",
    "ESTIMATORS",
    "resolve_estimator",
]

_BAYES_MAX_DIM = 4
_BAYES_MAX_CELLS = 4096
_BLOCK_NODES = 2**16  # cubature nodes per log-likelihood call: a round's new cells at d <= 3
_PROPOSAL_SCALE = 1.5


# ---------------------------------------------------------------------------
# maximum likelihood
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimateResult:
    """A point estimate with optimization provenance.

    ``iterations`` counts the accepted Fisher-scoring steps of the numeric
    MLE, and is 0 for the closed form.
    """

    theta: Theta
    log_lik: float
    converged: bool
    iterations: int
    method: str
    stderr: np.ndarray | None = None
    covariance: np.ndarray | None = None

    def to_dict(self) -> dict:
        out = {
            "alpha": [float(v) for v in self.theta.alpha],
            "beta": [float(v) for v in self.theta.beta],
            "log_lik": float(self.log_lik),
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "method": self.method,
        }
        if self.stderr is not None:
            out["stderr"] = [float(v) for v in self.stderr]
        if self.covariance is not None:
            out["covariance"] = [
                [float(v) for v in row] for row in np.atleast_2d(self.covariance)
            ]
        return out


_POINT_ERRORS = (EvaluationError, QuadratureError, FloatingPointError, ValueError)
_MULTISTARTS = 8  # Halton starts screened by the numeric MLE
_SCORING_STEPS = 50
_STEP_TOL = 1e-12
_GAIN_TOL = 1e-14  # a predicted gain below this times |log-likelihood| is rounding


@functools.lru_cache(maxsize=8)
def _halton_starts(space: ParameterSpace, count: int) -> np.ndarray:
    """Unscrambled Halton points 1..count (point 0 is the corner) mapped onto the box,
    computed once per box and count, read-only.

    Per axis, the radical inverse of the index in the next prime base, summed
    digit by digit as scipy's Halton sampler sums it, so the two are bit-equal.
    """
    lo, hi = space.interior_bounds
    primes = (k for k in itertools.count(2) if all(k % j for j in range(2, math.isqrt(k) + 1)))
    u = np.zeros((count, space.d))
    for axis, base in zip(range(space.d), primes):
        index, weight = np.arange(1, count + 1), 1.0 / base
        while index.any():
            u[:, axis] += (index % base) * weight
            weight /= base
            index //= base
    starts = lo + u * (hi - lo)
    starts.flags.writeable = False
    return starts


def mle_numeric(
    model: ModelSpec,
    space: ParameterSpace,
    grid: TimeGrid,
    sample: IncrementSample,
    cache: MomentCache | None = None,
) -> EstimateResult:
    """Maximize the exact log-likelihood over the box's ``interior_bounds``.

    Screens 8 Halton points, dropping a start whose evaluation
    fails with a ``start k: ...`` diagnostic (OptimizationError names them
    all if every start fails).  A closed-form model scores them in one call of
    the Bayes routes' O(p^2) evaluator; a non-finite value or a scale not clear
    of the noise floor is evaluated alone, as a general family's starts are,
    and so is the best start.  From it, Fisher scoring with the expected
    information, ``empirical_fisher``'s blocks times the bundle's ``sizes``:
    a coordinate on a face whose score points outward is held, and a step is
    clipped to the bounds and halved until the log-likelihood does not
    fall.  Converged: a full step moves every coordinate by at most
    1e-12 (1 + |x|), or no halving ascends a step whose predicted gain the
    log-likelihood cannot resolve.  Unconverged: a singular information,
    a resolvable step no halving ascends, or 50 steps.  Refuses a ``sample``
    of another grid (GridError) and a ``cache`` of another model or grid (DomainError).
    """
    if model.p != space.p or model.q != space.q:
        raise DomainError("model and space dimensions do not match")
    sample._check_grid(grid)
    cache = _bind(model, grid, cache)
    y = sample.y

    def evaluate(x: np.ndarray) -> tuple[float, IncrementMoments, np.ndarray]:
        m = cache.moments(Theta.from_vector(x, model.p))
        return log_likelihood(m, y), m, x

    starts = _halton_starts(space, _MULTISTARTS)
    screened = np.full(len(starts), np.nan)  # NaN: evaluate the start alone
    if has_closed_form(model):  # a rank-deficient basis has no design
        with contextlib.suppress(SingularDesignError), np.errstate(all="ignore"):
            screened = _make_batch_loglik(cache, y)(tuple(starts.T))
    best, diagnostics = None, []  # best: (log-likelihood, start, evaluated point or None)
    for k, x0 in enumerate(starts):
        point = None
        if not (np.isfinite(screened[k]) and cache.clears_floor(x0[model.p :])):
            try:
                point = evaluate(x0)
            except _POINT_ERRORS as exc:
                diagnostics.append(f"start {k}: {type(exc).__name__}: {exc}")
                continue
            if not np.isfinite(point[0]):
                diagnostics.append(f"start {k}: non-finite log-likelihood {point[0]!r}")
                continue
        value = screened[k] if point is None else point[0]
        if best is None or value > best[0]:
            best = value, k, point
    if best is None:
        raise OptimizationError("every start failed: " + "; ".join(diagnostics), diagnostics)

    ll, m, x = best[2] if best[2] is not None else evaluate(starts[best[1]])
    lo, hi = space.interior_bounds
    bundle = empirical_fisher(m, grid)
    scale = np.sqrt(np.outer(bundle.sizes, bundle.sizes))  # unscales the bundle's blocks
    steps, converged = 0, False
    for _ in range(_SCORING_STEPS):
        g = score(m, y)
        free = ~(((x <= lo) & (g < 0.0)) | ((x >= hi) & (g > 0.0)))
        step = np.zeros_like(x)
        try:
            step[free] = np.linalg.solve((bundle.joint * scale)[np.ix_(free, free)], g[free])
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        tol = _STEP_TOL * (1.0 + np.abs(x))
        gain = 0.5 * float(g @ step)  # the quadratic model's rise over the full step
        for halving in itertools.count():
            trial = np.clip(x + 0.5**halving * step, lo, hi)
            if np.all(np.abs(trial - x) <= tol):
                converged = halving == 0 or gain <= _GAIN_TOL * (1.0 + abs(ll))
                break
            try:
                point = evaluate(trial)
            except _POINT_ERRORS:
                continue
            if point[0] >= ll:
                break
        if np.all(np.abs(trial - x) <= tol):
            break
        ll, m, x = point
        steps += 1
        bundle = empirical_fisher(m, grid)

    try:
        covariance = bundle.joint_inverse / scale
        stderr = np.sqrt(np.diag(covariance)) if np.all(np.diag(covariance) >= 0.0) else None
    except (SingularInformationError, np.linalg.LinAlgError):
        stderr = None
    return EstimateResult(
        theta=Theta.from_vector(x, model.p),
        log_lik=float(ll),
        converged=bool(converged),
        iterations=steps,
        method="mle",
        stderr=stderr,
        covariance=covariance if stderr is not None else None,
    )


def closed_form_mle(
    model: ModelSpec,
    space: ParameterSpace,
    grid: TimeGrid,
    sample: IncrementSample,
    cache: MomentCache | None = None,
) -> EstimateResult:
    """The exact MLE of a linear drift with known or scaled variances.

    Fit and covariance come from the grid's ``LinearDesign``.  With known
    variances the estimator is exactly Gaussian around the truth with the
    returned covariance; this is the one place in the package where
    finite-sample distribution theory is exact.  Unlike the numeric route
    this is unconstrained: the exact maximizer is returned even if it falls
    outside the box (it almost never does for a box containing the truth).
    Raises DomainError for families without a closed form or a ``cache`` of
    another model or grid, GridError for a ``sample`` of another grid, and
    NoiseFloorViolation for known variances at or below the floor.
    """
    sample._check_grid(grid)
    cache = _bind(model, grid, cache)
    design = cache.linear_design()
    vector, log_lik = design.fit_log_likelihood(sample.y)
    stderr, cov = design.covariance(vector)
    theta_hat = Theta.from_vector(vector, model.p)
    if not cache.clears_floor(theta_hat.beta):
        try:
            cache.mean_var(theta_hat)  # the elementwise floor test
        except NoiseFloorViolation:
            if model.q != 1:
                raise  # known variances have no scale to collapse
            # perfect interpolation: the fitted scale collapses to zero and the
            # profile likelihood is unbounded above
            log_lik = math.inf
    return EstimateResult(
        theta=theta_hat,
        log_lik=log_lik,
        converged=True,
        iterations=0,
        method="mle-closed",
        stderr=stderr,
        covariance=cov,
    )


# ---------------------------------------------------------------------------
# Bayes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Prior:
    """Declarative prior densities on the parameter vector; the center picks the form.

    Without a center it is flat over the box.  With one it is an
    independent Gaussian product with the given per-axis centers and scales
    (unnormalized; the normalizer cancels from every posterior ratio).
    """

    center: tuple[float, ...] = ()
    scale: tuple[float, ...] = ()

    def __post_init__(self):
        for name in ("center", "scale"):
            object.__setattr__(self, name, _real_tuple(getattr(self, name), name))
        if len(self.center) != len(self.scale):
            raise DomainError("gaussian prior needs matching center and scale")
        for axis, (c, s) in enumerate(zip(self.center, self.scale)):
            if not (math.isfinite(c) and math.isfinite(s)):
                raise DomainError(
                    f"gaussian prior center and scale must be finite: axis {axis} has "
                    f"center {c!r} and scale {s!r}"
                )
        if any(s <= 0.0 for s in self.scale):
            raise DomainError("gaussian prior scales must be positive")

    def check_dimension(self, d: int) -> None:
        """Raise DomainError unless the prior fits a d-dimensional parameter."""
        if self.center and len(self.center) != d:
            raise DomainError(
                f"gaussian prior has length {len(self.center)}, but the parameter "
                f"vector has d = {d}"
            )

    def log_density(self, coords) -> np.ndarray | float:
        """Unnormalized log density at the points of d coordinate arrays, one per axis.

        The arrays broadcast together and the result has their broadcast
        shape; a flat prior returns the scalar 0.0.
        """
        if not self.center:
            return 0.0
        return sum(-0.5 * ((x - c) / s) ** 2 for x, c, s in zip(coords, self.center, self.scale))


@dataclass(frozen=True)
class BayesResult:
    theta: Theta
    method: str
    stderr: np.ndarray | None = None
    cells: int = 0
    draws: int = 0
    effective_draws: float = 0.0
    error_estimate: float = 0.0

    def to_dict(self) -> dict:
        out = {
            "alpha": [float(v) for v in self.theta.alpha],
            "beta": [float(v) for v in self.theta.beta],
            "method": self.method,
            "cells": int(self.cells),
            "draws": int(self.draws),
            "effective_draws": float(self.effective_draws),
            "error_estimate": float(self.error_estimate),
        }
        if self.stderr is not None:
            out["stderr"] = [float(v) for v in self.stderr]
        return out


def _make_batch_loglik(cache: MomentCache, y: np.ndarray):
    """Log-likelihood at the points of d broadcastable coordinate arrays, one per axis:
    ``LinearDesign``'s if there is one, else point by point from each point's means and
    variances, ``MomentCache.mean_var``: no gradient is read."""
    model = cache.model
    if has_closed_form(model):
        return cache.linear_design().log_likelihood(y)

    def batch(coords) -> np.ndarray:
        axes = np.broadcast_arrays(*coords)
        points = np.stack([x.ravel() for x in axes], axis=1)
        out = np.empty(points.shape[0])
        for i, v in enumerate(points):
            out[i] = _log_likelihood(*cache.mean_var(Theta.from_vector(v, model.p)), y)
        return out.reshape(axes[0].shape)

    return batch


def _bayes_setup(model, space, grid, sample, prior, anchor, cache):
    """The two Bayes routes' prior (flat by default, checked against d), anchor (the
    one passed, else the closed form if it lies in the box, else the numeric MLE),
    the anchor's scale on each axis (its stderr, else 5% of each box width) and the
    batch log-likelihood.  The sample and the cache are checked as the MLEs check them."""
    if prior is None:
        prior = Prior()
    prior.check_dimension(space.d)
    sample._check_grid(grid)
    cache = _bind(model, grid, cache)
    if anchor is None and has_closed_form(model):
        anchor = closed_form_mle(model, space, grid, sample, cache)
        if not space.contains(anchor.theta):
            anchor = None
    if anchor is None:
        anchor = mle_numeric(model, space, grid, sample, cache=cache)
    scale = anchor.stderr if anchor.stderr is not None else 0.05 * space.widths
    return prior, anchor, scale, _make_batch_loglik(cache, sample.y)


def _cell_rule(order: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes u (order,) on [0, 1], the (d, d) node shapes of the d axes
    (row i: ``order`` in place i, 1 elsewhere), and the (order**d, 1 + d) matrix
    [W, W*U_1, ..., W*U_d] of their d-fold tensor rule: weights W, nodes U."""
    x, w = np.polynomial.legendre.leggauss(order)
    u = 0.5 * (x + 1.0)
    nodes, weights = tensor_rule(u, 0.5 * w, d)
    shapes = np.eye(d, dtype=int) * (order - 1) + 1
    return u, shapes, np.column_stack([weights, weights[:, None] * nodes])


# the embedded low/high-order pair of every cell, for each dimension the
# cubature accepts
_CELL_RULES = {
    (order, d): _cell_rule(order, d) for order in (5, 9) for d in range(1, _BAYES_MAX_DIM + 1)
}


def _integrate_cells(log_weight, lo: np.ndarray, hi: np.ndarray):
    """Integrals (cells, 1 + d) of w and w*theta over the cells [lo, hi] (cells, d), with
    w = exp(log_weight), and their embedded errors (cells,).

    Whole cells go in blocks of about 2**16 nodes.  Per block and rule,
    ``log_weight`` gets d coordinate arrays, axis i of shape (cells, 1, ...,
    order, ..., 1) with the order in place 1 + i, and returns the values on
    the cells' tensor grids (cells, order, ..., order).  The rule's node
    moments S0 and T_i give the mean integrals lo_i S0 + width_i T_i.
    """
    d = lo.shape[1]
    step = max(1, _BLOCK_NODES // (5**d + 9**d))  # whole cells per block
    high, err = [], []
    for first in range(0, len(lo), step):
        a = lo[first : first + step]
        width = hi[first : first + step] - a
        sums = []
        for order in (5, 9):
            u, shapes, rule = _CELL_RULES[order, d]
            nodes = a[:, :, None] + width[:, :, None] * u  # (cells, d, order)
            axes = [nodes[:, i].reshape(-1, *shapes[i]) for i in range(d)]
            sums.append(np.exp(log_weight(axes)).reshape(len(a), -1) @ rule)
        moments = np.stack(sums) * np.prod(width, axis=1)[:, None]  # (rule, cells, 1 + d)
        moments[..., 1:] = a * moments[..., :1] + width * moments[..., 1:]
        high.append(moments[1])
        err.append(np.abs(moments[1] - moments[0]).max(axis=1))
    return np.concatenate(high), np.concatenate(err)


def posterior_mean_quadrature(
    model: ModelSpec,
    space: ParameterSpace,
    grid: TimeGrid,
    sample: IncrementSample,
    prior: Prior | None = None,
    rel_tol: float = 1e-6,
    anchor: EstimateResult | None = None,
    cache: MomentCache | None = None,
) -> BayesResult:
    """Posterior mean by adaptive tensor-product cubature over the box.

    The box is first partitioned so that a neighborhood of the anchor (the
    MLE) gets its own cells, because nearly all posterior mass sits there
    at moderate sample sizes.  Each round then bisects the fewest worst
    cells, by embedded low/high-order error, whose errors exceed the excess
    over ``rel_tol`` times the normalizer, until there is none or 4096
    cells exist (the multi-region scheme of Berntsen, Espelid & Genz, 1991).

    Guarded to d <= 4: tensor rules beyond that are not worth their cost.
    ``sample`` and ``cache`` are refused as by the MLEs.
    """
    if space.d > _BAYES_MAX_DIM:
        raise DomainError(
            f"tensor cubature is limited to d <= {_BAYES_MAX_DIM}, got d = {space.d}"
        )
    if not (np.isfinite(rel_tol) and rel_tol > 0.0):
        raise DomainError(f"rel_tol must be finite and > 0, got {rel_tol!r}")
    prior, est, stderr, batch_ll = _bayes_setup(model, space, grid, sample, prior, anchor, cache)

    def log_weight(coords) -> np.ndarray:  # a flat prior leaves one full-grid addition
        return batch_ll(coords) + (prior.log_density(coords) - est.log_lik)

    # initial partition: isolate the anchor neighborhood on every axis
    breakpoints = []
    for lo_k, hi_k, a_k, se_k in zip(space.lower, space.upper, est.theta.vector, stderr):
        cuts = {lo_k, hi_k}
        for c in (a_k - 6.0 * se_k, a_k + 6.0 * se_k):
            if lo_k + 1e-3 * (hi_k - lo_k) < c < hi_k - 1e-3 * (hi_k - lo_k):
                cuts.add(float(c))
        breakpoints.append(sorted(cuts))

    corners = np.array(list(itertools.product(*(zip(c[:-1], c[1:]) for c in breakpoints))), float)
    lo, hi = corners[..., 0], corners[..., 1]  # corners is (cells, d, 2): (lo, hi) per axis
    high, err = _integrate_cells(log_weight, lo, hi)
    while True:
        totals, total_err = high.sum(axis=0), err.sum()
        excess = total_err - rel_tol * abs(totals[0])
        if (abs(totals[0]) > 0.0 and excess <= 0.0) or len(err) >= _BAYES_MAX_CELLS:
            break
        # bisect the fewest worst cells whose errors exceed the excess (all
        # of them if none do, as when every weight underflows)
        worst = np.argsort(-err, kind="stable")
        count = int(np.searchsorted(np.cumsum(err[worst]), excess, side="right")) + 1
        count = min(count, _BAYES_MAX_CELLS - len(err))
        split, kept = worst[:count], worst[count:]
        rows = np.arange(split.size)
        axis = np.argmax((hi[split] - lo[split]) / space.widths, axis=1)
        child_hi, child_lo = hi[split], lo[split]
        child_hi[rows, axis] = child_lo[rows, axis] = 0.5 * (lo[split, axis] + hi[split, axis])
        new_lo = np.concatenate([lo[split], child_lo])
        new_hi = np.concatenate([child_hi, hi[split]])
        children = (new_lo, new_hi, *_integrate_cells(log_weight, new_lo, new_hi))
        lo, hi, high, err = (
            np.concatenate([old[kept], new])
            for old, new in zip((lo, hi, high, err), children)
        )

    normalizer = totals[0]
    if not (np.isfinite(normalizer) and normalizer > 0.0):
        raise DegeneratePosteriorError(
            f"posterior normalizer came out {float(normalizer)!r}; the posterior carries "
            "no mass resolvable at this tolerance"
        )
    mean_vec = totals[1:] / normalizer
    if not np.all(np.isfinite(mean_vec)):
        raise DegeneratePosteriorError("posterior mean is not finite")
    theta = Theta.from_vector(np.clip(mean_vec, space.lower, space.upper), model.p)
    return BayesResult(
        theta=theta,
        method="bayes-quadrature",
        cells=len(err),
        error_estimate=float(total_err / normalizer),
    )


def posterior_mean_importance(
    model: ModelSpec,
    space: ParameterSpace,
    grid: TimeGrid,
    sample: IncrementSample,
    prior: Prior | None = None,
    draws: int = 8000,
    seed: int = 0,
    anchor: EstimateResult | None = None,
    cache: MomentCache | None = None,
) -> BayesResult:
    """Posterior mean by self-normalized importance sampling.

    The proposal is an independent Gaussian centered at the MLE with
    per-axis standard deviations 1.5 times the MLE standard errors; draws
    landing outside the box get zero weight.  The returned ``stderr`` is
    the delta-method standard error of the weighted mean, which is what
    makes this route a quantitative cross-check of the cubature route.
    ``sample`` and ``cache`` are refused as by the MLEs.
    """
    if not _is_integer(draws) or draws < 2:
        raise DomainError(f"draws must be an integer >= 2, got {draws!r}")
    prior, est, base_scale, batch_ll = _bayes_setup(
        model, space, grid, sample, prior, anchor, cache
    )
    center = est.theta.vector
    scale = _PROPOSAL_SCALE * np.maximum(base_scale, 1e-12)
    d = space.d

    z = normal_stream(derive_seed(seed, "bayes-is"), 0, draws * d).reshape(draws, d)
    # per axis, here and below: numpy's loops along rows of d are slow
    pts = np.stack([c + x * s for c, x, s in zip(center, z.T, scale)], axis=1)
    inside = np.ones(draws, dtype=bool)
    for x, lo, hi in zip(pts.T, space.lower, space.upper):
        inside &= (x > lo) & (x < hi)
    if not np.any(inside):
        raise DegeneratePosteriorError("every proposal draw fell outside the box")

    log_w = np.full(draws, -np.inf)
    log_q = -0.5 * functools.reduce(np.add, (x * x for x in z.T))  # proposal, up to constants
    coords = tuple(x[inside] for x in pts.T)
    log_w[inside] = batch_ll(coords) - est.log_lik + prior.log_density(coords) - log_q[inside]
    log_w -= log_w.max()
    w = np.exp(log_w)
    w_sum = float(w.sum())
    if not (w_sum > 0.0 and np.isfinite(w_sum)):
        raise DegeneratePosteriorError("importance weights sum to zero")

    mean_vec = (w @ pts) / w_sum
    deviations = np.stack([(w * (x - m)) ** 2 for x, m in zip(pts.T, mean_vec)], axis=1)
    se = np.sqrt(np.sum(deviations, axis=0)) / w_sum
    effective = w_sum**2 / float(np.sum(w * w))
    theta = Theta.from_vector(np.clip(mean_vec, space.lower, space.upper), model.p)
    return BayesResult(
        theta=theta,
        method="bayes-importance",
        stderr=se,
        draws=draws,
        effective_draws=effective,
    )


# ---------------------------------------------------------------------------
# estimator table
# ---------------------------------------------------------------------------

# Every entry is called as fn(model, space, grid, sample, cache=, prior=, seed=)
# plus its own route's settings (rel_tol= or draws=), and drops the keys its
# route does not read.  The entries look their estimator up by module-level
# name at call time, so a patched module attribute reaches every front end.
ESTIMATORS = {
    "mle-closed": lambda *args, cache, **_: closed_form_mle(*args, cache=cache),
    "mle": lambda *args, cache, **_: mle_numeric(*args, cache=cache),
    "bayes": lambda *args, seed, **settings: posterior_mean_quadrature(*args, **settings),
    "bayes-is": lambda *args, **settings: posterior_mean_importance(*args, **settings),
}


def resolve_estimator(name: str, model: ModelSpec, space: ParameterSpace, prior=None):
    """The ESTIMATORS entry for a configured name.

    ``auto`` picks the closed form where the family has one and the numeric
    MLE otherwise.  Unknown names and ``bayes`` above d = 4 raise
    ConfigError naming the ``estimator`` key; a configured ``prior`` for an
    estimator other than the two Bayes routes, one naming the ``prior`` key.
    """
    if name == "auto":
        name = "mle-closed" if has_closed_form(model) else "mle"
    if not isinstance(name, str) or name not in ESTIMATORS:
        raise ConfigError(f"unknown estimator {name!r}", key="estimator")
    if name == "bayes" and space.d > _BAYES_MAX_DIM:
        raise ConfigError(
            f"dimension guard: the bayes estimator's tensor cubature is limited "
            f"to d <= {_BAYES_MAX_DIM}, got d = {space.d}",
            key="estimator",
        )
    if prior is not None and name not in ("bayes", "bayes-is"):
        raise ConfigError(f"estimator {name!r} never reads this key", key="prior")
    return ESTIMATORS[name]
