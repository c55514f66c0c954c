"""Information matrices, local scalings, and their long-run limits.

The empirical information of a design splits into a drift block scaled by
total observation time and a variance block scaled by the number of
observations; the two blocks converge at different rates, which is why
the local rescaling matrix is block diagonal with distinct factors.

For periodic models two limit regimes have closed expressions: vanishing
step size (integrals over one period) and a repeating offset pattern
(finite sums over one cycle).  Both are provided for cross-checking the
empirical sums.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import quadrature
from .errors import DomainError, PeriodicityError, SingularInformationError
from .increments import IncrementMoments, MomentCache
from .model import ModelSpec, Theta
from .sampling import TimeGrid, periodic_pattern_grid

__all__ = [
    "InformationBundle",
    "empirical_fisher",
    "separation_gaps",
    "periodic_limit_fisher",
    "periodic_limit_separation",
    "bundle_to_json",
    "bundle_from_json",
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


def _inv_sqrt_spd(matrix: np.ndarray, what: str) -> np.ndarray:
    """Inverse symmetric square root of an SPD matrix via eigendecomposition."""
    if matrix.size == 0:
        return np.zeros_like(matrix)
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
    for limit bundles) and are needed to form the local scalings.
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

    @property
    def joint(self) -> np.ndarray:
        """Block-diagonal (d, d) per-unit information matrix."""
        out = np.zeros((self.d, self.d))
        out[: self.p, : self.p] = self.drift_info
        out[self.p :, self.p :] = self.var_info
        return out

    @cached_property
    def joint_inverse(self) -> np.ndarray:
        out = np.zeros((self.d, self.d))
        if self.p:
            out[: self.p, : self.p] = np.linalg.inv(self._checked(self.drift_info, "drift block"))
        if self.q:
            out[self.p :, self.p :] = np.linalg.inv(self._checked(self.var_info, "variance block"))
        return out

    def _checked(self, block: np.ndarray, what: str) -> np.ndarray:
        _check_eigenvalues(np.linalg.eigvalsh(0.5 * (block + block.T)), what)
        return block

    def _require_design(self) -> tuple[float, int]:
        if self.total_time is None or self.n is None:
            raise DomainError(
                "bundle carries no design size; attach a grid to form local scalings"
            )
        return float(self.total_time), int(self.n)

    @cached_property
    def drift_scaling(self) -> np.ndarray:
        """(T * drift_info)^(-1/2), the drift-block local scale."""
        total_time, _ = self._require_design()
        return _inv_sqrt_spd(total_time * self.drift_info, "drift block")

    @cached_property
    def var_scaling(self) -> np.ndarray:
        """(n * var_info)^(-1/2), the variance-block local scale."""
        _, n = self._require_design()
        return _inv_sqrt_spd(n * self.var_info, "variance block")

    @cached_property
    def local_scaling(self) -> np.ndarray:
        """Block-diagonal (d, d) matrix combining both block scalings."""
        out = np.zeros((self.d, self.d))
        out[: self.p, : self.p] = self.drift_scaling
        out[self.p :, self.p :] = self.var_scaling
        return out

    def with_design(self, grid: TimeGrid) -> "InformationBundle":
        return InformationBundle(
            self.drift_info, self.var_info, grid.total_time, grid.n, self.source
        )


def empirical_fisher(moments: IncrementMoments, grid: TimeGrid) -> InformationBundle:
    """Finite-design information sums.

    Drift block:    (1/T) sum_i grad_mean_i grad_mean_i^T / var_i
    Variance block: (1/2n) sum_i grad_ln_var_i grad_ln_var_i^T
    """
    if moments.n != grid.n:
        raise DomainError(f"moments have n={moments.n}, grid has n={grid.n}")
    inv_var = 1.0 / moments.var
    drift = (moments.grad_mean.T * inv_var) @ moments.grad_mean / grid.total_time
    grad_ln = moments.grad_var * inv_var[:, None]
    var = grad_ln.T @ grad_ln / (2.0 * grid.n)
    return InformationBundle(drift, var, grid.total_time, grid.n, "empirical")


def separation_gaps(
    moments_a: IncrementMoments, moments_b: IncrementMoments, grid: TimeGrid
) -> tuple[float, float]:
    """Normalized squared moment gaps between two parameter points.

    Returns (drift_gap, var_gap):

        drift_gap = (1/T) sum_i (mean_i - mean_i')^2 / delay_i
        var_gap   = (1/n) sum_i (var_i  - var_i')^2  / delay_i^2

    Both are zero iff the points are observationally identical on this
    design; bounded-below gaps over separated points are what make the
    parameters identifiable.
    """
    if moments_a.n != grid.n or moments_b.n != grid.n:
        raise DomainError("moment lengths do not match the grid")
    dmean = moments_a.mean - moments_b.mean
    dvar = moments_a.var - moments_b.var
    drift_gap = float(np.sum(dmean * dmean / grid.delays) / grid.total_time)
    var_gap = float(np.sum(dvar * dvar / grid.delays**2) / grid.n)
    return drift_gap, var_gap


def periodic_limit_fisher(
    model: ModelSpec,
    theta: Theta,
    period: float,
    regime: str = "vanishing_step",
    offsets=None,
    grid: TimeGrid | None = None,
) -> InformationBundle:
    """Long-run information for periodic models in either limit regime.

    ``vanishing_step``: both blocks as integrals over one period,

        drift block:    (1/P) int_0^P grad_f grad_f^T / sigma2 dt
        variance block: (1/2P) int_0^P grad_ln_sigma2 grad_ln_sigma2^T dt

    ``pattern``: exact finite sums over a single cycle of ``offsets``,
    which requires the within-period offset pattern of the design.

    The drift and variance functions are probed for period-P periodicity
    before anything is computed; non-periodic models are rejected.
    """
    if not (period > 0.0 and np.isfinite(period)):
        raise DomainError(f"period must be positive, got {period!r}")
    _check_periodicity(model, theta, period)

    if regime == "vanishing_step":
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
    elif regime == "pattern":
        if offsets is None:
            raise DomainError("the pattern regime requires the within-period offsets")
        # one cycle is a grid with total time P and nu intervals, so its
        # empirical sums are the pattern limit
        cycle = periodic_pattern_grid(offsets, period, 1)
        sums = empirical_fisher(MomentCache(model, cycle).moments(theta), cycle)
        bundle = InformationBundle(sums.drift_info, sums.var_info, None, None, "limit:pattern")
    else:
        raise DomainError(f"unknown regime {regime!r}")

    if grid is not None:
        bundle = bundle.with_design(grid)
    return bundle


def periodic_limit_separation(
    model: ModelSpec,
    theta_a: Theta,
    theta_b: Theta,
    period: float,
) -> tuple[float, float]:
    """Vanishing-step limits of the separation gaps for periodic models.

        drift_gap = (1/P) int_0^P (f - f')^2 dt
        var_gap   = (1/P) int_0^P (sigma2 - sigma2')^2 dt
    """
    if not (period > 0.0 and np.isfinite(period)):
        raise DomainError(f"period must be positive, got {period!r}")
    _check_periodicity(model, theta_a, period)
    _check_periodicity(model, theta_b, period)

    def gaps(ts):
        (fa, sa), (fb, sb) = model.rates(theta_a, ts), model.rates(theta_b, ts)
        return fa[:, :1] - fb[:, :1], sa[:, :1] - sb[:, :1]

    drift_gap = _period_mean(lambda ts: gaps(ts)[0] ** 2, period)[0]
    var_gap = _period_mean(lambda ts: gaps(ts)[1] ** 2, period)[0]
    return float(drift_gap), float(var_gap)


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


def bundle_to_json(bundle: InformationBundle) -> str:
    payload = {
        "drift_info": bundle.drift_info.tolist(),
        "var_info": bundle.var_info.tolist(),
        "total_time": bundle.total_time,
        "n": bundle.n,
        "source": bundle.source,
    }
    return json.dumps(payload, sort_keys=True)


def bundle_from_json(text: str) -> InformationBundle:
    payload = json.loads(text)

    def block(rows):
        if not rows:
            return np.zeros((0, 0))
        return np.asarray(rows, dtype=float)

    return InformationBundle(
        block(payload["drift_info"]),
        block(payload["var_info"]),
        payload["total_time"],
        payload["n"],
        payload["source"],
    )
