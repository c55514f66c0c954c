"""Exact likelihood of an increment vector and its local structure.

Because increments are independent Gaussians with known mean/variance
integrals, the log-likelihood is a finite sum in the increment moments; no
discretization or approximation enters anywhere in this module.  The log
of each standard deviation is taken as half the log variance, so variances
near the floor do not round through a square root first.  The sums run in
stretches (``increments._summed``): whole-array bits up to 65,536 intervals.

Beyond the likelihood itself this module exposes the centered two-point
decomposition used by the asymptotic studies: the log-ratio between a base
point and a locally rescaled alternative splits into a linear score term,
an explicit quadratic, and a remainder, the remainder being defined
residually so the identity holds exactly at any sample size.  The
log-ratio is a quadratic in the base residual whose weights do not depend
on the sample, so a ``LocalExpansion`` holds them once and decomposes a
whole (k, n) block of samples with two matrix products, its central
sequence being ``score`` applied to each row and rescaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OutOfSpaceError
from .increments import IncrementMoments, MomentCache, _bind, _summed
from .model import ModelSpec, ParameterSpace, Theta
from .sampling import TimeGrid

__all__ = [
    "log_likelihood",
    "score",
    "LocalExpansion",
    "local_expansion",
    "expected_power_identity",
]

_LN_2PI = math.log(2.0 * math.pi)


def _as_rows(moments: IncrementMoments, y: np.ndarray, ndim: int = 1) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim != ndim or y.shape[-1] != moments.n:
        raise DomainError(f"y has shape {y.shape}, moments have n={moments.n}")
    return y


def log_likelihood(moments: IncrementMoments, y: np.ndarray) -> float:
    """Exact Gaussian log-likelihood of the increment vector y."""
    return _log_likelihood(moments.mean, moments.var, _as_rows(moments, y))


def _log_likelihood(mean: np.ndarray, var: np.ndarray, y: np.ndarray) -> float:
    """``log_likelihood`` on the means and variances alone, for a y (n,) checked by the caller."""

    def term(y, mean, var):
        resid = y - mean
        return np.sum(np.log(var)), np.sum(resid * resid / var)

    log_var, quad = _summed(term, y, mean, var)
    return float(-0.5 * mean.shape[0] * _LN_2PI - 0.5 * log_var - 0.5 * quad)


def score(moments: IncrementMoments, y: np.ndarray) -> np.ndarray:
    """Gradient of the log-likelihood in (alpha, beta), shape (p + q,).

    Drift block:    sum_i resid_i * grad_mean_i / var_i
    Variance block: sum_i (resid_i^2 / var_i - 1) * grad_var_i / (2 var_i)
    """

    def term(y, mean, var, grad_mean, grad_var):
        resid = y - mean
        w = (resid * resid / var - 1.0) / (2.0 * var)
        return (resid / var) @ grad_mean, w @ grad_var

    m = moments
    return np.concatenate(_summed(term, _as_rows(m, y), m.mean, m.var, m.grad_mean, m.grad_var))


@dataclass(frozen=True)
class LocalExpansion:
    """Log-ratios from a base point to its shifts theta + scaling @ w_j.

    ``directions`` is (J, d), one w_j per row.  With r = y - m0 and
    u = r^2/v0 - 1 (centred, so the products cancel no digits), the
    log-ratio along w_j is ``u @ h[:, j] + r @ b[:, j] + c[j]``: per interval
    h = (1 - v0/v_j)/2 and b = (m_j - m0)/v_j, and c[j] sums
    h - ln(v_j/v0)/2 - (m_j - m0)^2/(2 v_j).  Built by ``local_expansion``.
    """

    base: IncrementMoments
    h: np.ndarray
    b: np.ndarray
    c: np.ndarray
    directions: np.ndarray
    scaling: np.ndarray

    def evaluate(self, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decompose the log-ratios of the k samples in the rows of ys (k, n).

        Returns (log_ratios (k, J), score_terms (k, d), remainders (k, J)):
        row i, column j is the decomposition of sample i along direction j,
        with ``remainder = log_ratio - score_term . w_j + |w_j|^2 / 2``.
        """
        ys = _as_rows(self.base, ys, ndim=2)
        return self._evaluate(ys, np.empty_like(ys), np.empty_like(ys))

    def _evaluate(self, ys: np.ndarray, resid: np.ndarray, u: np.ndarray):
        """``evaluate`` of checked rows ys (k, n), forming the residual in ``resid``, which
        may be ys itself, and u in ``u``: (k, n) arrays that overlap nothing else."""
        m0 = self.base
        np.subtract(ys, m0.mean, out=resid)
        np.multiply(resid, resid, out=u)
        u /= m0.var
        u -= 1.0
        log_ratios = u @ self.h + resid @ self.b + self.c
        u /= 2.0 * m0.var  # the variance score's weights, as in score
        resid /= m0.var  # the drift score's
        scores = np.concatenate([resid @ m0.grad_mean, u @ m0.grad_var], axis=-1)
        score_terms = scores @ self.scaling  # the normalized central sequence

        linear = score_terms @ self.directions.T
        quad = 0.5 * np.sum(self.directions * self.directions, axis=1)
        return log_ratios, score_terms, log_ratios - linear + quad


def local_expansion(
    model: ModelSpec,
    space: ParameterSpace,
    theta: Theta,
    directions: np.ndarray,
    scaling: np.ndarray,
    cache: MomentCache,
) -> LocalExpansion:
    """The log-ratio quadratics from theta to theta + scaling @ w_j.

    Parameters
    ----------
    directions : ndarray, shape (J, d)
        Local directions w_j, one per row, J >= 1.
    scaling : ndarray, shape (d, d)
        The local rescaling matrix (symmetric PSD block-diagonal in
        practice); rows/columns ordered drift block then variance block.

    The shifted points read no gradient: their moments come from
    ``MomentCache.mean_var``, and only the base point's from ``moments``.

    Raises
    ------
    DomainError
        If ``cache`` holds another model.
    OutOfSpaceError
        If the base point or a shifted point leaves the open parameter
        box; the message names the direction index, n and the point.
    """
    d = model.d
    directions = np.asarray(directions, dtype=float)
    if directions.ndim != 2 or directions.shape[1] != d or len(directions) == 0:
        raise DomainError(f"directions have shape {directions.shape}, expected (J >= 1, {d})")
    scaling = np.asarray(scaling, dtype=float)
    if scaling.shape != (d, d):
        raise DomainError(f"scaling has shape {scaling.shape}, expected {(d, d)}")
    if not space.contains(theta):
        raise OutOfSpaceError("base point is outside the parameter box")
    m0 = _bind(model, cache.grid, cache).moments(theta)
    h, b, c = [], [], []
    for j, w in enumerate(directions):
        point = theta.vector + scaling @ w
        shifted_theta = Theta.from_vector(point, model.p)
        if not space.contains(shifted_theta):
            raise OutOfSpaceError(
                f"direction {j} at n={cache.grid.n}: shifted point {point!r} "
                "leaves the parameter box"
            )
        mean1, var1 = cache.mean_var(shifted_theta)
        dvar, dmean = var1 - m0.var, mean1 - m0.mean  # differences first: no cancellation
        h.append(0.5 * dvar / var1)
        b.append(dmean / var1)
        c.append(np.sum(h[-1] - 0.5 * np.log1p(dvar / m0.var) - 0.5 * dmean * b[-1]))
    return LocalExpansion(m0, np.stack(h, 1), np.stack(b, 1), np.array(c), directions, scaling)


def expected_power_identity(
    model: ModelSpec,
    theta: Theta,
    shift: np.ndarray,
    z: float,
    grid: TimeGrid,
    cache: MomentCache | None = None,
) -> float:
    """Closed form for ln E[ exp(z * (log-ratio to theta + shift)) ].

    The expectation is under the base point theta, for z strictly inside
    (0, 1).  The value is a sum of two interval-wise contributions: a mean
    displacement term

        -sum_i dmean_i^2 / (2 * (v0_i/(1-z) + v1_i/z))

    and a variance displacement term, the integral over x from v0_i to
    v1_i of  (v1_i - x) / (2 x (x/(1-z) + v1_i/z)) dx,  subtracted.  With
    d_i = v1_i - v0_i and a = 1/(1-z) that integral is exactly

        0.5 * [z * log1p(d_i/v0_i) - log1p(a*d_i / (a*v0_i + v1_i/z))],

    written with log1p so it stays accurate when v1_i is close to v0_i.
    Both terms are finite for any admissible pair of variance vectors, and
    both vanish when the shift is zero.  It reads no gradient: both points'
    moments come from ``MomentCache.mean_var``.  ``cache``, if given, must
    hold this model on this grid (DomainError otherwise).
    """
    z = float(z)
    if not (0.0 < z < 1.0):
        raise DomainError(f"z must lie strictly inside (0, 1), got {z!r}")
    shift = np.asarray(shift, dtype=float).reshape(-1)
    if shift.size != model.d:
        raise DomainError(f"shift has size {shift.size}, expected {model.d}")
    cache = _bind(model, grid, cache)
    shifted = Theta.from_vector(theta.vector + shift, model.p)
    mean0, var0 = cache.mean_var(theta)
    mean1, var1 = cache.mean_var(shifted)

    dmean = mean1 - mean0
    denom = var0 / (1.0 - z) + var1 / z
    mean_term = -np.sum(dmean * dmean / (2.0 * denom))

    a = 1.0 / (1.0 - z)
    dvar = var1 - var0
    var_term = 0.5 * np.sum(
        z * np.log1p(dvar / var0) - np.log1p(a * dvar / (a * var0 + var1 / z))
    )
    return float(mean_term - var_term)
