"""Information matrices, local scalings, and their long-run limits.

The empirical information of a design splits into a drift block scaled by
total observation time and a variance block scaled by the number of
observations; the two blocks converge at different rates, which is why
the local rescaling matrix is block diagonal with distinct factors.
``InformationBundle`` owns that layout (joint matrix, inverse, local
scaling) and the design sizes: T for each drift coordinate, n for each
variance coordinate.

For periodic models two limit regimes have closed expressions, and the
inputs pick one: vanishing step size (integrals over one period) without
offsets, a repeating offset pattern (finite sums over one cycle) with them.
Both cross-check the empirical sums, which run in stretches
(``increments._summed``): whole-array bits up to 65,536 intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import quadrature
from .errors import DomainError, PeriodicityError, SingularInformationError
from .increments import IncrementMoments, MomentCache, _check_same_grid, _summed
from .model import ModelSpec, Theta
from .sampling import TimeGrid, periodic_pattern_grid

__all__ = [
    "InformationBundle",
    "empirical_fisher",
    "periodic_limit_fisher",
]

_PROBE_POINTS = 64
_PERIODICITY_RTOL = 1e-8
# an information block with an eigenvalue below this is treated as singular
_EIG_FLOOR = 1e-12


def _check_eigenvalues(eigvals: np.ndarray, what: str) -> None:
    if eigvals.min() < _EIG_FLOOR:
        raise SingularInformationError(
            f"{what} has eigenvalue {eigvals.min()!r} below the floor {_EIG_FLOOR!r}"
        )


def _inverse_spd(matrix: np.ndarray, what: str) -> np.ndarray:
    """Inverse of an SPD matrix whose symmetric part clears the eigenvalue floor."""
    _check_eigenvalues(np.linalg.eigvalsh(0.5 * (matrix + matrix.T)), what)
    return np.linalg.inv(matrix)


def _inv_sqrt_spd(matrix: np.ndarray, what: str) -> np.ndarray:
    """Inverse symmetric square root of an SPD matrix via eigendecomposition."""
    sym = 0.5 * (matrix + matrix.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    _check_eigenvalues(eigvals, what)
    return (eigvecs * eigvals**-0.5) @ eigvecs.T


@dataclass(frozen=True)
class InformationBundle:
    """Per-unit information blocks with optional design size attached.

    ``drift_info`` is the drift block per unit time (p, p); ``var_info``
    is the variance block per observation (q, q).  ``total_time`` and
    ``n`` record the design the bundle was computed on (or attached to,
    for limit bundles) and are needed for ``sizes`` and ``local_scaling``.
    """

    drift_info: np.ndarray
    var_info: np.ndarray
    total_time: float | None
    n: int | None
    source: str

    def __post_init__(self):
        jp = np.asarray(self.drift_info, dtype=float)
        jq = np.asarray(self.var_info, dtype=float)
        if jp.ndim != 2 or jp.shape[0] != jp.shape[1]:
            raise DomainError(f"drift_info must be square, got shape {jp.shape}")
        if jq.ndim != 2 or jq.shape[0] != jq.shape[1]:
            raise DomainError(f"var_info must be square, got shape {jq.shape}")
        if not (np.all(np.isfinite(jp)) and np.all(np.isfinite(jq))):
            raise DomainError("information blocks must be finite")
        jp.flags.writeable = False
        jq.flags.writeable = False
        object.__setattr__(self, "drift_info", jp)
        object.__setattr__(self, "var_info", jq)

    @property
    def p(self) -> int:
        return self.drift_info.shape[0]

    @property
    def q(self) -> int:
        return self.var_info.shape[0]

    @property
    def d(self) -> int:
        return self.p + self.q

    @cached_property
    def sizes(self) -> np.ndarray:
        """Design size of each coordinate (d,): T for the drift, n for the variance."""
        if self.total_time is None or self.n is None:
            raise DomainError(
                "bundle carries no design size; attach a grid to form local scalings"
            )
        out = np.repeat([float(self.total_time), float(self.n)], (self.p, self.q))
        out.flags.writeable = False
        return out

    def _block_diagonal(self, form) -> np.ndarray:
        """(d, d) matrix of ``form(block, its first coordinate, what)`` per non-empty block."""
        out = np.zeros((self.d, self.d))
        for block, first, what in (
            (self.drift_info, 0, "drift block"),
            (self.var_info, self.p, "variance block"),
        ):
            if block.size:
                span = slice(first, first + len(block))
                out[span, span] = form(block, first, what)
        return out

    @property
    def joint(self) -> np.ndarray:
        """Block-diagonal (d, d) per-unit information matrix."""
        return self._block_diagonal(lambda block, first, what: block)

    @cached_property
    def joint_inverse(self) -> np.ndarray:
        return self._block_diagonal(lambda block, first, what: _inverse_spd(block, what))

    @cached_property
    def local_scaling(self) -> np.ndarray:
        """Block-diagonal (d, d) local scale: (T drift_info)^(-1/2) and (n var_info)^(-1/2)."""
        sizes = self.sizes
        return self._block_diagonal(
            lambda block, first, what: _inv_sqrt_spd(sizes[first] * block, what)
        )

    def to_dict(self) -> dict:
        return {
            "drift_info": self.drift_info.tolist(),
            "var_info": self.var_info.tolist(),
            "total_time": None if self.total_time is None else float(self.total_time),
            "n": None if self.n is None else int(self.n),
            "source": self.source,
        }


def empirical_fisher(moments: IncrementMoments, grid: TimeGrid) -> InformationBundle:
    """Finite-design information sums.

    Drift block:    (1/T) sum_i grad_mean_i grad_mean_i^T / var_i
    Variance block: (1/2n) sum_i grad_ln_var_i grad_ln_var_i^T

    DomainError unless the moments were computed on ``grid`` (the same, or of
    its digest); moments built by hand, which carry no grid, must match its length.
    """
    if moments.grid is not None:
        _check_same_grid(moments.grid, grid, "the moments hold")
    elif moments.n != grid.n:
        raise DomainError(f"moments have n={moments.n}, grid has n={grid.n}")

    def term(grad_mean, var, grad_var):
        inv_var = 1.0 / var
        drift = (grad_mean.T * inv_var) @ grad_mean
        grad_ln = grad_var * inv_var[:, None]
        return drift, grad_ln.T @ grad_ln

    drift, var = _summed(term, moments.grad_mean, moments.var, moments.grad_var)
    drift, var = drift / grid.total_time, var / (2.0 * grid.n)
    return InformationBundle(drift, var, grid.total_time, grid.n, "empirical")


def periodic_limit_fisher(
    model: ModelSpec,
    theta: Theta,
    period: float,
    offsets=None,
    grid: TimeGrid | None = None,
) -> InformationBundle:
    """Long-run information for periodic models; ``offsets`` pick the regime.

    Without offsets the step vanishes, and both blocks are integrals over one period:

        drift block:    (1/P) int_0^P grad_f grad_f^T / sigma2 dt
        variance block: (1/2P) int_0^P grad_ln_sigma2 grad_ln_sigma2^T dt

    With the design's within-period ``offsets`` the delays repeat that
    pattern, and both blocks are exact finite sums over a single cycle.

    The drift and variance functions are probed for period-P periodicity
    before anything is computed; non-periodic models are rejected.
    """
    if not (period > 0.0 and np.isfinite(period)):
        raise DomainError(f"period must be positive, got {period!r}")
    _check_periodicity(model, theta, period)

    if offsets is not None:
        # one cycle is a grid with total time P and nu intervals, so its
        # empirical sums are the pattern limit
        cycle = periodic_pattern_grid(offsets, period, 1)
        sums = empirical_fisher(MomentCache(model, cycle).moments(theta), cycle)
        bundle = InformationBundle(sums.drift_info, sums.var_info, None, None, "limit:pattern")
    else:
        p, q = model.p, model.q

        def drift_kernel(ts):
            drift, noise = model.rates(theta, ts)
            return _outer(drift[:, 1:]) / noise[:, :1]

        def var_kernel(ts):
            _, noise = model.rates(theta, ts)
            return _outer(noise[:, 1:] / noise[:, :1])

        drift = _period_mean(drift_kernel, period).reshape(p, p) if p else np.zeros((0, 0))
        var = 0.5 * _period_mean(var_kernel, period).reshape(q, q) if q else np.zeros((0, 0))
        bundle = InformationBundle(drift, var, None, None, "limit:vanishing_step")

    if grid is not None:
        bundle = replace(bundle, total_time=grid.total_time, n=grid.n)
    return bundle


def _outer(g: np.ndarray) -> np.ndarray:
    """Row-wise outer products of g (m, k), flattened to (m, k * k)."""
    return (g[:, :, None] * g[:, None, :]).reshape(g.shape[0], -1)


def _period_mean(kernel, period: float) -> np.ndarray:
    """(1/P) int_0^P kernel(t) dt for an array kernel mapping (m,) times to (m, k)."""
    return quadrature.integrate(kernel, 0.0, period)[0] / period


def _check_periodicity(model: ModelSpec, theta: Theta, period: float) -> None:
    ts = np.linspace(0.0, period, _PROBE_POINTS, endpoint=False)
    (f0, s0), (f1, s1) = ([r[:, 0] for r in model.rates(theta, x)] for x in (ts, ts + period))
    scale_f = 1.0 + float(np.abs(f0).max(initial=0.0))
    scale_s = 1.0 + float(np.abs(s0).max(initial=0.0))
    if np.abs(f1 - f0).max(initial=0.0) > _PERIODICITY_RTOL * scale_f:
        raise PeriodicityError(
            f"drift is not periodic with period {period!r} on the probe lattice"
        )
    if np.abs(s1 - s0).max(initial=0.0) > _PERIODICITY_RTOL * scale_s:
        raise PeriodicityError(
            f"variance rate is not periodic with period {period!r} on the probe lattice"
        )
