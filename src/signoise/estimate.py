"""Point estimation: box-constrained MLE, exact closed forms, Bayes means.

The numeric MLE runs a quasi-Newton ascent with the analytic score from a
deterministic low-discrepancy set of interior starts, so repeated calls
with the same inputs return bit-identical results.  For drifts linear in
their parameters, with known variances or one unknown variance scale, the
MLE is exact and ``increments.LinearDesign`` is its one owner: it gives
``closed_form_mle``'s fit and covariance, the block fits of Monte-Carlo
studies, and the log-likelihood the Bayes routes integrate, at O(p^2) per
parameter point once a sample is reduced to a few weighted sums
(``LinearDesign.statistics`` says why that quadratic is centred at the
weighted least-squares point and not at zero).

Bayes posterior means are computed two independent ways: an adaptive
tensor-product Gauss-Legendre cubature anchored at the MLE (the primary
route, dimension-guarded), and self-normalized importance sampling from a
Gaussian proposal (the cross-check, with a standard error).  The two
routes share no quadrature machinery on purpose.
"""

from __future__ import annotations

import heapq
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
    SingularInformationError,
)
from .increments import MomentCache, has_closed_form
from .information import empirical_fisher
from .likelihood import log_likelihood, score
from .quadrature import tensor_rule
from .model import ModelSpec, ParameterSpace, Theta
from .sampling import TimeGrid
from .simulate import IncrementSample, derive_seed, normal_stream

__all__ = [
    "MleOptions",
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
_PROPOSAL_SCALE = 1.5


# ---------------------------------------------------------------------------
# maximum likelihood
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MleOptions:
    """Tuning for the numeric MLE; defaults suit every built-in family."""

    multistarts: int = 8
    grad_tol: float = 1e-8
    max_iter: int = 500


@dataclass(frozen=True)
class EstimateResult:
    """A point estimate with optimization provenance.

    ``multistart_spread`` is the largest sup-norm distance between the
    winning optimizer endpoint and any other finished endpoint; a large
    spread flags a multimodal or flat likelihood surface.
    """

    theta: Theta
    log_lik: float
    converged: bool
    iterations: int
    method: str
    multistart_spread: float = 0.0
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
            "multistart_spread": float(self.multistart_spread),
        }
        if self.stderr is not None:
            out["stderr"] = [float(v) for v in self.stderr]
        if self.covariance is not None:
            out["covariance"] = [
                [float(v) for v in row] for row in np.atleast_2d(self.covariance)
            ]
        return out


def _halton_starts(space: ParameterSpace, count: int) -> np.ndarray:
    lo, hi = space.interior_bounds
    from scipy.stats import qmc  # deferred: scipy.stats costs ~0.5 s at import

    sampler = qmc.Halton(d=space.d, scramble=False)
    sampler.fast_forward(1)  # skip the all-zero corner point
    u = sampler.random(count)
    return lo + u * (hi - lo)


def _stderr_from_information(
    cache: MomentCache, grid: TimeGrid, theta: Theta
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(stderr, covariance) from the inverse design information, or Nones."""
    try:
        bundle = empirical_fisher(cache.moments(theta), grid)
        inv = bundle.joint_inverse
    except (SingularInformationError, np.linalg.LinAlgError):
        return None, None
    denom = np.concatenate(
        [np.full(bundle.p, grid.total_time), np.full(bundle.q, float(grid.n))]
    )
    cov = inv / np.sqrt(np.outer(denom, denom))
    diag = np.diag(cov)
    if np.any(diag < 0.0):
        return None, None
    return np.sqrt(diag), cov


def mle_numeric(
    model: ModelSpec,
    space: ParameterSpace,
    grid: TimeGrid,
    sample: IncrementSample,
    options: MleOptions = MleOptions(),
    cache: MomentCache | None = None,
) -> EstimateResult:
    """Maximize the exact log-likelihood over the box's ``interior_bounds``.

    Runs L-BFGS-B with the analytic gradient from ``multistarts``
    deterministic Halton points and returns the best finisher.  A start
    whose evaluation fails (say, a variance at or below the floor) is
    dropped with a ``start k: ...`` diagnostic.  Raises OptimizationError,
    naming every start, if every start fails.
    """
    if model.p != space.p or model.q != space.q:
        raise DomainError("model and space dimensions do not match")
    if cache is None:
        cache = MomentCache(model, grid)
    y = sample.y

    def negative(x):
        th = Theta.from_vector(x, model.p)
        m = cache.moments(th)
        return -log_likelihood(m, y), -score(m, y)

    from scipy.optimize import minimize  # deferred: only this route optimizes

    bounds = list(zip(*space.interior_bounds))
    starts = _halton_starts(space, options.multistarts)

    finished = []
    diagnostics = []
    for k, x0 in enumerate(starts):
        try:
            res = minimize(
                negative,
                x0,
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
                options={
                    "maxiter": options.max_iter,
                    "ftol": 1e-13,
                    "gtol": options.grad_tol,
                },
            )
        except (EvaluationError, QuadratureError, FloatingPointError, ValueError) as exc:
            diagnostics.append(f"start {k}: {type(exc).__name__}: {exc}")
            continue
        if not np.isfinite(res.fun):
            diagnostics.append(f"start {k}: non-finite objective {res.fun!r}")
            continue
        finished.append(res)
    if not finished:
        raise OptimizationError(
            "no optimizer start finished: " + "; ".join(diagnostics), diagnostics
        )

    best = min(finished, key=lambda r: r.fun)
    spread = max(float(np.abs(r.x - best.x).max()) for r in finished)
    theta_hat = Theta.from_vector(best.x, model.p)
    stderr, covariance = _stderr_from_information(cache, grid, theta_hat)
    return EstimateResult(
        theta=theta_hat,
        log_lik=float(-best.fun),
        converged=bool(best.success),
        iterations=int(best.nit),
        method="mle",
        multistart_spread=spread,
        stderr=stderr,
        covariance=covariance,
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
    Raises DomainError for families without a closed form.
    """
    if cache is None:
        cache = MomentCache(model, grid)
    design = cache.linear_design()
    vector = design.fit(sample.y)
    stderr, cov = design.covariance(vector)
    theta_hat = Theta.from_vector(vector, model.p)
    try:
        log_lik = log_likelihood(cache.moments(theta_hat), sample.y)
    except NoiseFloorViolation:
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
    """Declarative prior densities on the parameter vector.

    ``uniform`` is flat over the box.  ``gaussian`` is an independent
    product with the given per-axis centers and scales (unnormalized; the
    normalizer cancels from every posterior ratio).
    """

    kind: str = "uniform"
    center: tuple[float, ...] = ()
    scale: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("uniform", "gaussian"):
            raise DomainError(f"unknown prior kind {self.kind!r}")
        if self.kind == "gaussian":
            if len(self.center) != len(self.scale) or not self.center:
                raise DomainError("gaussian prior needs matching center and scale")
            if any(s <= 0.0 for s in self.scale):
                raise DomainError("gaussian prior scales must be positive")

    def check_dimension(self, d: int) -> None:
        """Raise DomainError unless the prior fits a d-dimensional parameter."""
        if self.kind == "gaussian" and len(self.center) != d:
            raise DomainError(
                f"gaussian prior has length {len(self.center)}, but the parameter "
                f"vector has d = {d}"
            )

    def log_density(self, vectors: np.ndarray) -> np.ndarray:
        """Unnormalized log density; vectors has shape (k, d)."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        if self.kind == "uniform":
            return np.zeros(vectors.shape[0])
        c = np.asarray(self.center, dtype=float)
        s = np.asarray(self.scale, dtype=float)
        zs = (vectors - c) / s
        return -0.5 * np.sum(zs * zs, axis=1)


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
    """Log-likelihood of a (k, d) batch: ``LinearDesign``'s if there is one, else point by point."""
    model = cache.model
    if has_closed_form(model):
        return cache.linear_design().log_likelihood(y)

    def batch(thetas: np.ndarray) -> np.ndarray:
        thetas = np.atleast_2d(thetas)
        out = np.empty(thetas.shape[0])
        for i, v in enumerate(thetas):
            out[i] = log_likelihood(cache.moments(Theta.from_vector(v, model.p)), y)
        return out

    return batch


def _anchor_estimate(
    model: ModelSpec,
    space: ParameterSpace,
    grid: TimeGrid,
    sample: IncrementSample,
    cache: MomentCache,
    anchor: EstimateResult | None,
) -> EstimateResult:
    if anchor is not None:
        return anchor
    if has_closed_form(model):
        est = closed_form_mle(model, space, grid, sample, cache)
        if space.contains(est.theta):
            return est
    return mle_numeric(model, space, grid, sample, cache=cache)


def _unit_tensor_rule(order: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre nodes (order**d, d) and weights on [0, 1]^d."""
    x, w = np.polynomial.legendre.leggauss(order)
    return tensor_rule(0.5 * (x + 1.0), 0.5 * w, d)


# the embedded low/high-order pair of every cell, for each dimension the
# cubature accepts
_UNIT_RULES = {
    (order, d): _unit_tensor_rule(order, d)
    for order in (5, 9)
    for d in range(1, _BAYES_MAX_DIM + 1)
}


def _tensor_points(lo: np.ndarray, hi: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre nodes and weights on the box [lo, hi]."""
    nodes, weights = _UNIT_RULES[order, lo.size]
    return lo + (hi - lo) * nodes, weights * float(np.prod(hi - lo))


def _cell_integrals(eval_components, lo, hi) -> tuple[np.ndarray, np.ndarray, float]:
    """Low- and high-order integrals of all components over one cell."""
    vals = []
    for order in (5, 9):
        pts, wts = _tensor_points(lo, hi, order)
        comp = eval_components(pts)  # (N, m)
        vals.append(wts @ comp)
    low, high = vals
    return low, high, float(np.abs(high - low).max())


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
    at moderate sample sizes; cells are then bisected greedily where the
    embedded low/high-order error indicator is largest, until the indicator
    is below ``rel_tol`` relative to the running normalizer or 4096 cells
    exist.

    Guarded to d <= 4: tensor rules beyond that are not worth their cost.
    """
    if space.d > _BAYES_MAX_DIM:
        raise DomainError(
            f"tensor cubature is limited to d <= {_BAYES_MAX_DIM}, got d = {space.d}"
        )
    if prior is None:
        prior = Prior()
    prior.check_dimension(space.d)
    if cache is None:
        cache = MomentCache(model, grid)
    est = _anchor_estimate(model, space, grid, sample, cache, anchor)
    anchor_vec = est.theta.vector
    anchor_ll = est.log_lik
    batch_ll = _make_batch_loglik(cache, sample.y)
    d = space.d

    def eval_components(pts: np.ndarray) -> np.ndarray:
        weight = np.exp(batch_ll(pts) - anchor_ll + prior.log_density(pts))
        return np.concatenate([weight[:, None], weight[:, None] * pts], axis=1)

    # initial partition: isolate the anchor neighborhood on every axis
    stderr = est.stderr if est.stderr is not None else 0.05 * space.widths
    breakpoints = []
    for k in range(d):
        lo_k = space.lower[k]
        hi_k = space.upper[k]
        cuts = {lo_k, hi_k}
        for c in (anchor_vec[k] - 6.0 * stderr[k], anchor_vec[k] + 6.0 * stderr[k]):
            if lo_k + 1e-3 * (hi_k - lo_k) < c < hi_k - 1e-3 * (hi_k - lo_k):
                cuts.add(float(c))
        breakpoints.append(sorted(cuts))

    heap: list = []
    seq = 0
    totals = np.zeros(1 + d)
    total_err = 0.0

    def push_cell(lo, hi):
        nonlocal seq, totals, total_err
        _low, high, err = _cell_integrals(eval_components, lo, hi)
        totals += high
        total_err += err
        heapq.heappush(heap, (-err, seq, lo, hi, high, err))
        seq += 1

    def cells_of(axis_cuts):
        shapes = [len(c) - 1 for c in axis_cuts]
        for idx in np.ndindex(*shapes):
            lo = np.array([axis_cuts[k][idx[k]] for k in range(d)])
            hi = np.array([axis_cuts[k][idx[k] + 1] for k in range(d)])
            yield lo, hi

    for lo, hi in cells_of(breakpoints):
        push_cell(lo, hi)

    cells = len(heap)
    while cells < _BAYES_MAX_CELLS:
        norm = abs(totals[0])
        if norm > 0.0 and total_err <= rel_tol * norm:
            break
        neg_err, _, lo, hi, high, err = heapq.heappop(heap)
        totals -= high
        total_err -= err
        axis = int(np.argmax((hi - lo) / space.widths))
        mid = 0.5 * (lo[axis] + hi[axis])
        for child_lo, child_hi in (
            (lo, np.where(np.arange(d) == axis, mid, hi)),
            (np.where(np.arange(d) == axis, mid, lo), hi),
        ):
            push_cell(np.asarray(child_lo, dtype=float), np.asarray(child_hi, dtype=float))
        cells += 1

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
        cells=cells,
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
    """
    if draws < 2:
        raise DomainError(f"draws must be >= 2, got {draws}")
    if prior is None:
        prior = Prior()
    prior.check_dimension(space.d)
    if cache is None:
        cache = MomentCache(model, grid)
    est = _anchor_estimate(model, space, grid, sample, cache, anchor)
    center = est.theta.vector
    base_scale = est.stderr if est.stderr is not None else 0.05 * space.widths
    scale = _PROPOSAL_SCALE * np.maximum(base_scale, 1e-12)
    d = space.d

    z = normal_stream(derive_seed(seed, "bayes-is"), 0, draws * d).reshape(draws, d)
    pts = center + z * scale
    inside = np.all((pts > space.lower) & (pts < space.upper), axis=1)
    if not np.any(inside):
        raise DegeneratePosteriorError("every proposal draw fell outside the box")

    batch_ll = _make_batch_loglik(cache, sample.y)
    log_w = np.full(draws, -np.inf)
    log_q = -0.5 * np.sum(z * z, axis=1)  # proposal log density up to constants
    log_w[inside] = (
        batch_ll(pts[inside]) - est.log_lik + prior.log_density(pts[inside]) - log_q[inside]
    )
    log_w -= log_w.max()
    w = np.exp(log_w)
    w_sum = float(w.sum())
    if not (w_sum > 0.0 and np.isfinite(w_sum)):
        raise DegeneratePosteriorError("importance weights sum to zero")

    mean_vec = (w @ pts) / w_sum
    centered = pts - mean_vec
    se = np.sqrt(np.sum((w[:, None] * centered) ** 2, axis=0)) / w_sum
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

# Every entry is called as fn(model, space, grid, sample, cache=, prior=,
# rel_tol=, draws=, seed=) and reads only the settings its route uses.  The
# entries look their estimator up by module-level name at call time, so a
# patched module attribute reaches every front end.
ESTIMATORS = {
    "mle-closed": lambda model, space, grid, sample, cache, **_: closed_form_mle(
        model, space, grid, sample, cache=cache
    ),
    "mle": lambda model, space, grid, sample, cache, **_: mle_numeric(
        model, space, grid, sample, cache=cache
    ),
    "bayes": lambda model, space, grid, sample, cache, prior, rel_tol, **_: (
        posterior_mean_quadrature(
            model, space, grid, sample, prior=prior, rel_tol=rel_tol, cache=cache
        )
    ),
    "bayes-is": lambda model, space, grid, sample, cache, prior, draws, seed, **_: (
        posterior_mean_importance(
            model, space, grid, sample, prior=prior, draws=draws, seed=seed, cache=cache
        )
    ),
}


def resolve_estimator(name: str, model: ModelSpec, space: ParameterSpace):
    """The ESTIMATORS entry for a configured name.

    ``auto`` picks the closed form where the family has one and the numeric
    MLE otherwise.  Unknown names and ``bayes`` above d = 4 raise
    ConfigError naming the ``estimator`` key.
    """
    if name == "auto":
        name = "mle-closed" if has_closed_form(model) else "mle"
    if name not in ESTIMATORS:
        raise ConfigError(f"unknown estimator {name!r}", key="estimator")
    if name == "bayes" and space.d > _BAYES_MAX_DIM:
        raise ConfigError(
            f"dimension guard: the bayes estimator's tensor cubature is limited "
            f"to d <= {_BAYES_MAX_DIM}, got d = {space.d}",
            key="estimator",
        )
    return ESTIMATORS[name]
