"""Drift and noise parameter families and parameter boxes.

The observation model is built from two time-varying ingredients: a drift
rate f(alpha, t) and a noise variance rate sigma2(beta, t).  Families bundle
the function with its parameter gradient and, where available, exact
antiderivatives so interval moments never need numerical quadrature.

Every family answers one array call, ``rates(params, ts)``: for a 1-d array
of m times it returns an (m, 1 + k) array whose column 0 is the rate and
whose other columns are its gradient in the k parameters, the layout
``quadrature.integrate`` consumes.  ``ModelSpec.rates`` is the checked form
used everywhere else.  A family whose rate jumps may also declare
``jumps(lo, hi)``, the sorted jump times inside (lo, hi); quadrature then
splits intervals there, so the forced route stays exact for step families.

Built-in families cover drifts that are linear in alpha over a fixed time
basis, and variances that are a known profile or a profile scaled by a
single positive parameter.  Arbitrary callables are admitted through the
general families; those fall back to quadrature for interval moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError, NoiseFloorViolation

__all__ = [
    "ConstantFn",
    "CosineFn",
    "SineFn",
    "PeriodicStepFn",
    "Profile",
    "constant_profile",
    "LinearSignal",
    "GeneralSignal",
    "KnownNoise",
    "ScaledNoise",
    "GeneralNoise",
    "ModelSpec",
    "ParameterSpace",
    "Theta",
]

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# time basis atoms: callables with exact antiderivatives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantFn:
    """The constant function 1."""

    def __call__(self, t):
        return np.ones_like(np.asarray(t, dtype=float))

    def integral(self, a, b):
        return np.asarray(b, dtype=float) - np.asarray(a, dtype=float)


@dataclass(frozen=True)
class CosineFn:
    """cos(2*pi*frequency*t + phase)."""

    frequency: float
    phase: float = 0.0

    def __post_init__(self):
        if not (self.frequency > 0.0 and np.isfinite(self.frequency)):
            raise DomainError(f"frequency must be positive, got {self.frequency!r}")

    def __call__(self, t):
        return np.cos(_TWO_PI * self.frequency * np.asarray(t, dtype=float) + self.phase)

    def integral(self, a, b):
        w = _TWO_PI * self.frequency
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return (np.sin(w * b + self.phase) - np.sin(w * a + self.phase)) / w


@dataclass(frozen=True)
class SineFn:
    """sin(2*pi*frequency*t)."""

    frequency: float

    def __post_init__(self):
        if not (self.frequency > 0.0 and np.isfinite(self.frequency)):
            raise DomainError(f"frequency must be positive, got {self.frequency!r}")

    def __call__(self, t):
        return np.sin(_TWO_PI * self.frequency * np.asarray(t, dtype=float))

    def integral(self, a, b):
        w = _TWO_PI * self.frequency
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return (np.cos(w * a) - np.cos(w * b)) / w


@dataclass(frozen=True)
class PeriodicStepFn:
    """Piecewise-constant periodic function.

    One period of length ``period`` is split into ``len(levels)`` equal
    cells; the function takes ``levels[k]`` on cell k.
    """

    levels: tuple[float, ...]
    period: float

    def __post_init__(self):
        levels = tuple(float(v) for v in self.levels)
        object.__setattr__(self, "levels", levels)
        if len(levels) == 0:
            raise DomainError("levels must be non-empty")
        if not (self.period > 0.0 and np.isfinite(self.period)):
            raise DomainError(f"period must be positive, got {self.period!r}")
        if not all(np.isfinite(v) for v in levels):
            raise DomainError("levels must be finite")

    def _cell_width(self) -> float:
        return self.period / len(self.levels)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        s = np.mod(t, self.period)
        k = np.minimum((s / self._cell_width()).astype(int), len(self.levels) - 1)
        return np.asarray(self.levels)[k]

    def _antiderivative(self, t):
        t = np.asarray(t, dtype=float)
        w = self._cell_width()
        lv = np.asarray(self.levels)
        per_period = float(lv.sum() * w)
        j = np.floor(t / self.period)
        s = t - j * self.period
        k = np.minimum((s / w).astype(int), len(self.levels) - 1)
        head = np.concatenate(([0.0], np.cumsum(lv) * w))
        return j * per_period + head[k] + lv[k] * (s - k * w)

    def integral(self, a, b):
        return self._antiderivative(b) - self._antiderivative(a)

    def jumps(self, lo: float, hi: float) -> np.ndarray:
        """The cell edges strictly inside (lo, hi)."""
        w = self._cell_width()
        k = np.arange(math.floor(lo / w), math.ceil(hi / w) + 1)
        edges = k * w
        return edges[(edges > lo) & (edges < hi)]


def _jumps(atoms, lo: float, hi: float) -> np.ndarray:
    """Sorted union of the jump times that ``atoms`` declare inside (lo, hi)."""
    found = [atom.jumps(lo, hi) for atom in atoms if hasattr(atom, "jumps")]
    return np.unique(np.concatenate(found)) if found else np.empty(0)


@dataclass(frozen=True)
class Profile:
    """Affine combination offset + sum_k coefs[k] * atoms[k](t).

    Used for known time weights inside noise variances and as a convenience
    for building test drifts.  Carries exact interval integrals.
    """

    offset: float = 0.0
    coefs: tuple[float, ...] = ()
    atoms: tuple = ()

    def __post_init__(self):
        if len(self.coefs) != len(self.atoms):
            raise DomainError("coefs and atoms must have equal length")
        object.__setattr__(self, "coefs", tuple(float(c) for c in self.coefs))
        object.__setattr__(self, "atoms", tuple(self.atoms))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, self.offset, dtype=float)
        for c, atom in zip(self.coefs, self.atoms):
            out = out + c * atom(t)
        return out

    def integral(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        out = self.offset * (b - a)
        for c, atom in zip(self.coefs, self.atoms):
            out = out + c * atom.integral(a, b)
        return out

    def jumps(self, lo: float, hi: float) -> np.ndarray:
        return _jumps(self.atoms, lo, hi)


def constant_profile(value: float) -> Profile:
    return Profile(offset=float(value))


# ---------------------------------------------------------------------------
# drift families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearSignal:
    """Drift linear in its parameters: f(alpha, t) = sum_j alpha_j * basis[j](t).

    The gradient in alpha is the basis vector itself, and interval moments
    reduce to exact basis integrals, so everything downstream is closed
    form for this family.
    """

    basis: tuple

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        if len(self.basis) == 0:
            raise DomainError("basis must be non-empty")

    @property
    def p(self) -> int:
        return len(self.basis)

    def rates(self, alpha: np.ndarray, ts: np.ndarray) -> np.ndarray:
        basis = np.column_stack([np.broadcast_to(atom(ts), ts.shape) for atom in self.basis])
        return np.column_stack((basis @ alpha, basis))

    def jumps(self, lo: float, hi: float) -> np.ndarray:
        return _jumps(self.basis, lo, hi)

    def basis_integral_matrix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact integrals of each basis atom over intervals, shape (n, p)."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return np.column_stack(
            [np.broadcast_to(atom.integral(a, b), a.shape) for atom in self.basis]
        )


@dataclass(frozen=True)
class GeneralSignal:
    """Drift given by arbitrary callables.

    value_fn(alpha, t) -> float and grad_fn(alpha, t) -> (p,) are required;
    they take one time point, and ``rates`` calls them once per point of its
    time array.  Exact interval integrals may be supplied through
    integral_fn(alpha, a, b) and grad_integral_fn(alpha, a, b); when absent,
    moments are computed by adaptive quadrature.  This family declares no
    ``jumps``, so quadrature cannot see a jump inside an interval: a rate
    with jumps must supply both integrals.
    """

    p: int
    value_fn: object
    grad_fn: object
    integral_fn: object = None
    grad_integral_fn: object = None

    def __post_init__(self):
        if self.p < 0:
            raise DomainError(f"p must be >= 0, got {self.p}")

    def rates(self, alpha, ts):
        return _pointwise(self.value_fn, self.grad_fn, alpha, ts, self.p, "drift")


# ---------------------------------------------------------------------------
# noise families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KnownNoise:
    """Fully known variance rate sigma2(t); no noise parameters (q = 0)."""

    profile: Profile

    @property
    def q(self) -> int:
        return 0

    def rates(self, beta, ts):
        return self.profile(ts)[:, None]

    def jumps(self, lo: float, hi: float) -> np.ndarray:
        return self.profile.jumps(lo, hi)


@dataclass(frozen=True)
class ScaledNoise:
    """Variance rate beta * profile(t) with a single positive scale (q = 1)."""

    profile: Profile

    @property
    def q(self) -> int:
        return 1

    def rates(self, beta, ts):
        g = self.profile(ts)
        return np.column_stack((float(beta[0]) * g, g))

    def jumps(self, lo: float, hi: float) -> np.ndarray:
        return self.profile.jumps(lo, hi)


@dataclass(frozen=True)
class GeneralNoise:
    """Variance rate given by arbitrary callables.

    value_fn(beta, t) -> float and grad_fn(beta, t) -> (q,) are required and
    take one time point, as for GeneralSignal; integral_fn /
    grad_integral_fn enable closed-form moments, and a rate with jumps
    inside an interval must supply both, since this family declares no
    ``jumps`` either.
    """

    q: int
    value_fn: object
    grad_fn: object
    integral_fn: object = None
    grad_integral_fn: object = None

    def __post_init__(self):
        if self.q < 0:
            raise DomainError(f"q must be >= 0, got {self.q}")

    def rates(self, beta, ts):
        return _pointwise(self.value_fn, self.grad_fn, beta, ts, self.q, "variance")


def _pointwise(value_fn, grad_fn, params, ts, k: int, what: str) -> np.ndarray:
    """Scalar user callables stacked into (m, 1 + k): the package's one per-point loop."""
    out = np.empty((ts.size, 1 + k))
    for row, t in zip(out, ts):
        row[0] = float(value_fn(params, t))
        g = np.asarray(grad_fn(params, t), dtype=float).reshape(-1)
        if g.size != k:
            raise EvaluationError(f"{what} gradient has size {g.size}, expected {k}")
        row[1:] = g
    return out


# ---------------------------------------------------------------------------
# model spec and parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """A drift family paired with a noise family plus a variance floor.

    ``sigma2_floor`` is the smallest admissible pointwise variance rate;
    evaluations at or below it raise, which keeps logs and divisions safe
    everywhere downstream.
    """

    signal: object
    noise: object
    sigma2_floor: float = 1e-12

    def __post_init__(self):
        if not (self.sigma2_floor > 0.0 and np.isfinite(self.sigma2_floor)):
            raise DomainError(f"sigma2_floor must be positive, got {self.sigma2_floor!r}")

    @property
    def p(self) -> int:
        return self.signal.p

    @property
    def q(self) -> int:
        return self.noise.q

    @property
    def d(self) -> int:
        return self.p + self.q

    def rates(self, theta: "Theta", ts) -> tuple[np.ndarray, np.ndarray]:
        """Checked rates at the times ``ts``: drift (m, 1 + p) and noise (m, 1 + q).

        Raises EvaluationError for a non-finite value or gradient and
        NoiseFloorViolation for a variance rate at or below the floor, each
        naming the first offending time.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        drift = self.signal.rates(theta.alpha, ts)
        noise = self.noise.rates(theta.beta, ts)
        for what, block in (("drift", drift), ("variance rate", noise)):
            bad = ~np.isfinite(block).all(axis=1)
            if bad.any():
                t = float(ts[np.argmax(bad)])
                raise EvaluationError(f"{what} or its gradient is not finite at t={t!r}")
        low = noise[:, 0] <= self.sigma2_floor
        if low.any():
            i = int(np.argmax(low))
            raise NoiseFloorViolation(
                f"variance rate {float(noise[i, 0])!r} at t={float(ts[i])!r} is at or below "
                f"the floor {self.sigma2_floor!r}"
            )
        return drift, noise


@dataclass(frozen=True)
class Theta:
    """A parameter point split into drift and noise blocks."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        b = np.atleast_1d(np.asarray(self.beta, dtype=float))
        if a.ndim != 1 or b.ndim != 1:
            raise DomainError("alpha and beta must be 1-d")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise DomainError("parameters must be finite")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.alpha, self.beta])

    @classmethod
    def from_vector(cls, vector, p: int) -> "Theta":
        v = np.asarray(vector, dtype=float).reshape(-1)
        return cls(v[:p], v[p:])


@dataclass(frozen=True)
class ParameterSpace:
    """Axis-aligned open box of admissible (alpha, beta) values.

    Each axis is an open interval (lo, hi).  ``interior_bounds`` gives the
    closed bounds that optimizers and start designs use: the box shrunk on
    every side by 1e-9 times the narrowest axis width.
    """

    alpha_box: tuple[tuple[float, float], ...]
    beta_box: tuple[tuple[float, float], ...]

    def __post_init__(self):
        abox = tuple((float(lo), float(hi)) for lo, hi in self.alpha_box)
        bbox = tuple((float(lo), float(hi)) for lo, hi in self.beta_box)
        object.__setattr__(self, "alpha_box", abox)
        object.__setattr__(self, "beta_box", bbox)
        if len(abox) + len(bbox) == 0:
            raise DomainError("parameter space must have at least one axis")
        for lo, hi in abox + bbox:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise DomainError(f"invalid axis ({lo!r}, {hi!r})")

    @property
    def p(self) -> int:
        return len(self.alpha_box)

    @property
    def q(self) -> int:
        return len(self.beta_box)

    @property
    def d(self) -> int:
        return self.p + self.q

    @property
    def lower(self) -> np.ndarray:
        return np.array([lo for lo, _ in self.alpha_box + self.beta_box])

    @property
    def upper(self) -> np.ndarray:
        return np.array([hi for _, hi in self.alpha_box + self.beta_box])

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def center(self) -> Theta:
        mid = 0.5 * (self.lower + self.upper)
        return Theta.from_vector(mid, self.p)

    @property
    def interior_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Closed bounds strictly inside the box, 1e-9 × the narrowest width in."""
        margin = 1e-9 * min(hi - lo for lo, hi in self.alpha_box + self.beta_box)
        return self.lower + margin, self.upper - margin

    def contains(self, theta: Theta) -> bool:
        """Whether theta lies in the open box."""
        v = theta.vector
        if v.size != self.d:
            raise DomainError(f"dimension mismatch: {v.size} vs {self.d}")
        return bool(np.all(v > self.lower) and np.all(v < self.upper))
