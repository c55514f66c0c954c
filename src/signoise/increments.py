"""Per-interval Gaussian moments of the observed increments.

Over the i-th interval the increment is Gaussian with mean equal to the
drift integral and variance equal to the variance-rate integral:

    mean_i(alpha)     = integral of f(alpha, t)      over [t_{i-1}, t_i]
    var_i(beta)       = integral of sigma2(beta, t)  over [t_{i-1}, t_i]

together with their parameter gradients.  These four arrays are the whole
sufficient description of the experiment, so the cache below is the single
hot path everything else (likelihood, information, estimation, studies)
runs through.

Closed-form routes: a drift that is linear in alpha reduces to a fixed
matrix of basis integrals, and a known or scale-parameterized variance
reduces to a fixed vector of profile integrals, both computed once per
grid.  When both hold (``has_closed_form``) the MLE is exact and
``LinearDesign``, built once per grid by ``MomentCache.linear_design``,
is its one owner: fit, covariance and O(p^2) log-likelihood, for known
and scaled variances alike.  Families without exact
antiderivatives fall back to adaptive quadrature over all intervals at
once, split at the jumps a family declares; ``force_quadrature=True``
forces the fallback on every family, which is how the two routes are
checked against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, block_diag, cho_factor, cho_solve

from . import quadrature
from .errors import (
    DomainError,
    EvaluationError,
    NoiseFloorViolation,
    QuadratureError,
    SingularDesignError,
)
from .model import (
    KnownNoise,
    LinearSignal,
    ModelSpec,
    ScaledNoise,
    Theta,
)
from .sampling import TimeGrid

__all__ = [
    "IncrementMoments",
    "LinearDesign",
    "MomentCache",
    "has_closed_form",
]


@dataclass(frozen=True)
class IncrementMoments:
    """Increment means, variances, and their parameter gradients.

    Attributes
    ----------
    mean : ndarray, shape (n,)
    var : ndarray, shape (n,)
        Strictly positive.
    grad_mean : ndarray, shape (n, p)
    grad_var : ndarray, shape (n, q)
    """

    mean: np.ndarray
    var: np.ndarray
    grad_mean: np.ndarray
    grad_var: np.ndarray

    def __post_init__(self):
        n = self.mean.shape[0]
        if self.var.shape != (n,) or self.grad_mean.shape[0] != n or self.grad_var.shape[0] != n:
            raise EvaluationError("inconsistent moment array shapes")
        for arr in (self.mean, self.var, self.grad_mean, self.grad_var):
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return self.mean.shape[0]


def has_closed_form(model: ModelSpec) -> bool:
    """Whether the model's MLE is exact: a linear drift with known or scaled variances."""
    return isinstance(model.signal, LinearSignal) and isinstance(
        model.noise, (KnownNoise, ScaledNoise)
    )


class LinearDesign:
    """Exact MLE on basis integrals B (n, p) and variances g (n,), or beta * g if ``scaled``.

    Holds the Gram matrix G = B'WB, W = diag(1/g), and its Cholesky factor:
    the one place either is formed.  B and g are kept by reference, so no
    n-long array is added.  Raises SingularDesignError when G is singular.
    The drift MLE is the weighted least-squares solution, which the scale
    cancels from; the scale MLE is the mean weighted squared residual.
    """

    def __init__(self, basis: np.ndarray, profile: np.ndarray, scaled: bool):
        self.basis = basis
        self.profile = profile
        self.scaled = scaled
        self.gram = (basis.T * (1.0 / profile)) @ basis
        try:
            self.factor = cho_factor(self.gram)
        except LinAlgError as exc:
            raise SingularDesignError(
                f"weighted basis Gram matrix is singular: {exc}"
            ) from exc

    @cached_property
    def log_profile_sum(self) -> float:
        """Sum of ln g_i, the variance part of the log-likelihood normalizer."""
        return float(np.sum(np.log(self.profile)))

    def solve(self, y: np.ndarray) -> np.ndarray:
        """Weighted least-squares coefficients of y (n,), or of each column of y (n, k)."""
        w = 1.0 / self.profile
        return cho_solve(self.factor, self.basis.T @ (w * y.T).T)

    def statistics(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a0, q0, c) of y (n,), or of each column of y (n, k), in one pass.

        a0 is the weighted least-squares solution, r0 = y - B a0 its
        residual, q0 = r0'W r0 and c = B'W r0 (zero up to rounding).  For
        every coefficient vector a,

            (y - B a)'W(y - B a) = q0 - 2 (a - a0)'c + (a - a0)'G(a - a0),

        which costs O(p^2) per a.  It is centred at a0 because expanded at
        zero it subtracts terms of order y'Wy, which at a long horizon or a
        large drift exceed the residual sum by many digits.
        """
        alpha = self.solve(y)
        resid = y - self.basis @ alpha
        q0 = np.sum((resid * resid).T / self.profile, axis=-1)
        c = self.basis.T @ (resid.T / self.profile).T
        return alpha, q0, c

    def fit(self, y: np.ndarray) -> np.ndarray:
        """The exact MLE (d,) of y (n,), or (k, d) of the k columns of y (n, k)."""
        if not self.scaled:
            return self.solve(y).T
        alpha, q0, _ = self.statistics(y)
        return np.concatenate([alpha, (q0 / y.shape[0])[None]]).T

    def covariance(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(stderr, covariance) at the fit theta (d,).

        G^{-1}; when scaled, G^{-1} times the scale beta, and 2 beta^2 / n for beta.
        """
        n, p = self.basis.shape
        cov = cho_solve(self.factor, np.eye(p))
        if not self.scaled:
            return np.sqrt(np.diag(cov)), cov
        scale = theta[p]
        stderr = np.concatenate([np.sqrt(scale * np.diag(cov)), [scale * math.sqrt(2.0 / n)]])
        return stderr, block_diag(scale * cov, 2.0 * scale * scale / n)

    def log_likelihood(self, y: np.ndarray):
        """The log-likelihood of y as a function of a (k, d) batch of parameter vectors.

        Reduces y once to ``statistics``; each point then costs O(p^2).
        """
        a0, q0, c = self.statistics(y)
        n, p = self.basis.shape
        const = -0.5 * n * math.log(2.0 * math.pi) - 0.5 * self.log_profile_sum

        def batch(thetas: np.ndarray) -> np.ndarray:
            thetas = np.atleast_2d(thetas)
            delta = thetas[:, :p] - a0
            quad_unit = q0 - 2.0 * (delta @ c) + np.sum((delta @ self.gram) * delta, axis=1)
            if self.scaled:
                scale = thetas[:, p]
                return const - 0.5 * n * np.log(scale) - 0.5 * quad_unit / scale
            return const - 0.5 * quad_unit

        return batch


class MomentCache:
    """Grid-bound moment evaluator for one model.

    Precomputes whatever is parameter-independent for the bound grid (basis
    integrals for linear drifts, profile integrals for known or scaled
    variances) so that ``moments(theta)`` costs a few matrix products.
    """

    def __init__(self, model: ModelSpec, grid: TimeGrid, force_quadrature: bool = False):
        self.model = model
        self.grid = grid
        self.force_quadrature = force_quadrature
        self._basis_integrals: np.ndarray | None = None
        self._profile_integrals: np.ndarray | None = None
        self._design: LinearDesign | None = None
        if not force_quadrature:
            if isinstance(model.signal, LinearSignal):
                self._basis_integrals = model.signal.basis_integral_matrix(
                    grid.starts, grid.ends
                )
                self._check_finite("basis integral", self._basis_integrals)
            if isinstance(model.noise, (KnownNoise, ScaledNoise)):
                self._profile_integrals = np.asarray(
                    model.noise.profile.integral(grid.starts, grid.ends), dtype=float
                )
                self._check_finite("variance profile integral", self._profile_integrals)

    def _check_finite(self, what: str, *arrays: np.ndarray) -> None:
        """EvaluationError naming the first interval where a row of ``arrays`` is non-finite."""
        if all(np.all(np.isfinite(x)) for x in arrays):
            return  # the cheap test: the row mask is built only on failure
        rows = [np.isfinite(x).all(axis=tuple(range(1, x.ndim))) for x in arrays]
        i = int(np.argmin(np.logical_and.reduce(rows)))
        a, b = float(self.grid.starts[i]), float(self.grid.ends[i])
        raise EvaluationError(f"non-finite {what}: interval {i} on [{a!r}, {b!r}]")

    def _block(self, label: str, family, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Closure or quadrature route: integrals (n,) of the rate and (n, k) of its gradient."""
        integral_fn = getattr(family, "integral_fn", None)
        grad_integral_fn = getattr(family, "grad_integral_fn", None)
        if self.force_quadrature or integral_fn is None or grad_integral_fn is None:
            knots = self.grid.instants
            if hasattr(family, "jumps"):  # split at declared jumps, which the rule cannot see
                knots = np.union1d(knots, family.jumps(knots[0], knots[-1]))
            try:
                out = quadrature.integrate(
                    lambda ts: family.rates(params, ts), knots[:-1], knots[1:]
                )
            except QuadratureError as exc:
                raise QuadratureError(f"{label} moment: {exc}") from exc
            if knots.size > self.grid.instants.size:
                out = np.add.reduceat(out, np.searchsorted(knots, self.grid.starts), axis=0)
        else:
            rows = [
                [float(integral_fn(params, a, b)), *np.ravel(grad_integral_fn(params, a, b))]
                for a, b in zip(self.grid.starts, self.grid.ends)
            ]
            try:
                out = np.array(rows, dtype=float).reshape(self.grid.n, 1 + params.size)
            except ValueError:
                for i, row in enumerate(rows):
                    if len(row) != 1 + params.size:
                        raise EvaluationError(
                            f"{label} gradient has size {len(row) - 1}, expected "
                            f"{params.size}: interval {i} on "
                            f"[{float(self.grid.starts[i])!r}, {float(self.grid.ends[i])!r}]"
                        ) from None
                raise
        return out[:, 0], out[:, 1:]

    # -- drift block --------------------------------------------------------

    def signal_basis_integrals(self) -> np.ndarray:
        """Exact basis integrals (n, p); only linear drifts have them."""
        if self._basis_integrals is None:
            raise EvaluationError("drift family has no precomputed basis integrals")
        return self._basis_integrals

    def noise_profile_integrals(self) -> np.ndarray:
        """Exact profile integrals (n,); known/scaled variances only."""
        if self._profile_integrals is None:
            raise EvaluationError("noise family has no precomputed profile integrals")
        return self._profile_integrals

    def linear_design(self) -> LinearDesign:
        """The grid's LinearDesign, built once; DomainError unless ``has_closed_form``."""
        if self._design is None:
            if not has_closed_form(self.model):
                raise DomainError("no closed-form estimator for this model family")
            self._design = LinearDesign(
                self.signal_basis_integrals(),
                self.noise_profile_integrals(),
                scaled=self.model.q == 1,
            )
        return self._design

    def _signal_moments(self, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._basis_integrals is not None:
            grad = self._basis_integrals
            return grad @ alpha, grad
        return self._block("drift", self.model.signal, alpha)

    # -- noise block --------------------------------------------------------

    def _noise_moments(self, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._profile_integrals is not None:
            g = self._profile_integrals
            if isinstance(self.model.noise, KnownNoise):
                return g.copy(), np.empty((self.grid.n, 0))
            return float(beta[0]) * g, g[:, None].copy()
        return self._block("variance", self.model.noise, beta)

    # -- public entry -------------------------------------------------------

    def moments(self, theta: Theta) -> IncrementMoments:
        if theta.alpha.size != self.model.p or theta.beta.size != self.model.q:
            raise EvaluationError(
                f"theta dims ({theta.alpha.size}, {theta.beta.size}) do not match the "
                f"model ({self.model.p}, {self.model.q})"
            )
        mean, grad_mean = self._signal_moments(theta.alpha)
        var, grad_var = self._noise_moments(theta.beta)
        self._check_finite("drift moment", mean, grad_mean)
        self._check_finite("variance moment", var, grad_var)
        floor = self.model.sigma2_floor * self.grid.delays
        if np.any(var <= floor):
            i = int(np.argmax(var <= floor))
            raise NoiseFloorViolation(
                f"increment variance {float(var[i])!r} on interval {i} is at or "
                f"below floor*delay = {float(floor[i])!r}"
            )
        return IncrementMoments(mean, var, grad_mean, grad_var)
