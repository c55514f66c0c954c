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
and scaled variances alike.  A general family with exact antiderivatives
supplies its stacked ``integrals`` (the closure route); families without
them fall back to adaptive quadrature over all intervals at once, split
at the jumps a family declares.  ``MomentCache`` picks each block's route
once, when it is built; ``force_quadrature=True`` forces the fallback on
every family's moments alone, which is how the routes are checked.

The cache has two entries: ``moments(theta)`` gives the four arrays,
stamped with the grid, and ``mean_var(theta)`` the means and variances
alone, bit for bit the same under the same checks, for callers that read
no gradient.  Only the closure route saves work there: it calls
``integral_fn`` alone (to become a column slice of one array call when
general families take arrays, the ROADMAP's array-API item).  The closed
routes return the same arrays either way, and quadrature integrates the
rate and its gradients together, as its subdivision is chosen on all
columns.  The closure route runs family code, so its block keeps its last
16 parameter vectors' results, within 32 MiB: values alone, or with the
gradients, which a full request after a values one gets by calling both
callables again.  The other routes keep none.  The closed routes
return the cache's own arrays where the moments equal them (the basis as
the drift gradient, the profile integrals as a known variance or, as a
view, the scale's gradient), read-only, so a long record keeps one copy
of each.
Sums over the intervals (here, in ``likelihood`` and in ``information``)
run through ``_summed`` in stretches of ``_SLAB_WORDS`` = 65,536 intervals,
which draws scale in too: a call's working memory is one stretch, not n, and
up to one stretch each sum is its whole-array expression, bit for bit.
The cache checks its own arrays once, when built, and each entry only
those a call builds.  On the closed variance routes, var = s * g (s = 1 for
known noise), the floor test var_i > floor * delay_i reduces to a scale
threshold fixed at build: scales clear of it pass in O(1), and the rest, as
on every other route, take the elementwise test with its message.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

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

_MEMO_SIZE, _MEMO_BYTES = 16, 2**25  # per memoized block: 8 screen points, a fit's steps; 32 MiB
_SLAB_WORDS = 65_536  # the stretch: draws scale, and reductions sum, this many intervals at a time


def _stretches(n: int):
    """Consecutive slices of at most ``_SLAB_WORDS`` indices that cover range(n), in order."""
    return (slice(i, i + _SLAB_WORDS) for i in range(0, n, _SLAB_WORDS))


def _scratch(y: np.ndarray) -> np.ndarray:
    """A fresh flat buffer for the temporaries of y (n,) or (n, k): one stretch of its rows."""
    return np.empty(y.size // len(y) * min(len(y), _SLAB_WORDS))


def _front(buffer: np.ndarray, shape: tuple) -> np.ndarray:
    """The C-contiguous array of ``shape`` on the front of the flat ``buffer``."""
    return buffer[: math.prod(shape)].reshape(shape)


def _summed(term, *arrays: np.ndarray) -> tuple:
    """The tuple ``term(*arrays)``, taken on each stretch of the arrays' first axis and summed
    slot by slot in order.  With one stretch, n <= ``_SLAB_WORDS``, it is ``term(*arrays)``
    itself; past that, no temporary of ``term`` is longer than a stretch."""
    n = len(arrays[0])
    if n <= _SLAB_WORDS:
        return term(*arrays)  # the whole arrays, with no slicing cost per call
    parts = (term(*(x[s] for x in arrays)) for s in _stretches(n))
    total = next(parts)
    for part in parts:
        total = tuple(a + b for a, b in zip(total, part))
    return total


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
    grid : TimeGrid or None
        The grid they were computed on, stamped by ``MomentCache``; None
        for moments built by hand.
    """

    mean: np.ndarray
    var: np.ndarray
    grad_mean: np.ndarray
    grad_var: np.ndarray
    grid: TimeGrid | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n = self.mean.shape[0]
        for name, ndim in (("mean", 1), ("var", 1), ("grad_mean", 2), ("grad_var", 2)):
            arr = getattr(self, name)
            if arr.ndim != ndim or arr.shape[0] != n:
                raise EvaluationError(f"{name} must be {ndim}-d with {n} rows, got {arr.shape}")
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

    Holds the Gram matrix G = B'WB, W = diag(1/g), and its inverse: the one
    place either is formed.  B and g are kept by reference, and every sum
    over the intervals runs in stretches, so no n-long array is added.
    Raises SingularDesignError when G has no Cholesky factor.  The drift MLE
    is the weighted least-squares solution, which the scale cancels from;
    the scale MLE is the mean weighted squared residual.
    """

    def __init__(self, basis: np.ndarray, profile: np.ndarray, scaled: bool):
        self.basis = basis
        self.profile = profile
        self.scaled = scaled
        (self.gram,) = _summed(lambda b, g: ((b.T * (1.0 / g)) @ b,), basis, profile)
        try:
            np.linalg.cholesky(self.gram)
        except np.linalg.LinAlgError as exc:
            raise SingularDesignError(
                f"weighted basis Gram matrix is singular: {exc}"
            ) from exc
        self.gram_inverse = np.linalg.inv(self.gram)

    @cached_property
    def log_normalizer(self) -> float:
        """-(n/2) ln(2 pi) - (1/2) sum of ln g_i, the log-likelihood's term free of y and alpha."""
        n = self.basis.shape[0]
        (log_g,) = _summed(lambda g: (np.sum(np.log(g)),), self.profile)
        return -0.5 * n * math.log(2.0 * math.pi) - 0.5 * float(log_g)

    def solve(self, y: np.ndarray) -> np.ndarray:
        """Weighted least-squares coefficients of y (n,), or of each column of y (n, k)."""
        return self._solve(y, _scratch(y))

    def _solve(self, y: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """``solve``, forming each stretch's weighted rows in ``scratch`` (see ``_fit``)."""

        def term(b, g, x):
            wy = np.multiply(1.0 / g, x.T, out=_front(scratch, x.T.shape))
            return (b.T @ wy.T,)

        (bwy,) = _summed(term, self.basis, self.profile, y)
        return self.gram_inverse @ bwy

    def _residual(self, y: np.ndarray, scratch: np.ndarray | None = None):
        """(a0, q0) of y (n,), or of each column of y (n, k): the weighted least-squares
        solution a0 and q0 = r0'W r0, r0 = y - B a0; ``scratch`` as in ``_fit``."""
        scratch = _scratch(y) if scratch is None else scratch
        alpha = self._solve(y, scratch)

        def term(b, g, x):
            resid = np.matmul(b, alpha, out=_front(scratch, x.shape))
            np.subtract(x, resid, out=resid)
            weighted = np.multiply(resid, resid, out=resid).T  # the layout fixes the sum's order
            weighted /= g
            return (np.sum(weighted, axis=-1),)

        return (alpha, *_summed(term, self.basis, self.profile, y))

    def fit(self, y: np.ndarray) -> np.ndarray:
        """The exact MLE (d,) of y (n,), or (k, d) of the k columns of y (n, k)."""
        return self._fit(y, _scratch(y))

    def _fit(self, y: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """``fit``, with every (stretch, k) temporary formed in place in ``scratch``, a flat
        array of at least ``_scratch(y).size`` values that y does not overlap."""
        if not self.scaled:
            return self._solve(y, scratch).T
        alpha, q0 = self._residual(y, scratch)
        return np.concatenate([alpha, (q0 / y.shape[0])[None]]).T

    def fit_log_likelihood(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        """``fit(y)`` of one sample y (n,) and the log-likelihood there, from q0 alone:
        const - q0/2, or, scaled, const - (n/2)(ln beta + 1) as beta = q0/n (inf if 0)."""
        alpha, q0 = self._residual(y)
        if not self.scaled:
            return alpha, self.log_normalizer - 0.5 * float(q0)
        half_n, scale = 0.5 * y.shape[0], q0 / y.shape[0]
        log_lik = self.log_normalizer - half_n * (math.log(scale) + 1.0) if scale else math.inf
        return np.concatenate([alpha, scale[None]]), log_lik

    def covariance(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(stderr, covariance) at the fit theta (d,).

        G^{-1}; when scaled, G^{-1} times the scale beta, and 2 beta^2 / n for beta.
        """
        n, p = self.basis.shape
        if not self.scaled:
            return np.sqrt(np.diag(self.gram_inverse)), self.gram_inverse.copy()
        scale = theta[p]
        cov = np.zeros((p + 1, p + 1))
        cov[:p, :p] = scale * self.gram_inverse
        cov[p, p] = 2.0 * scale * scale / n
        return np.concatenate([np.sqrt(np.diag(cov)[:p]), [scale * math.sqrt(2.0 / n)]]), cov

    def log_likelihood(self, y: np.ndarray):
        """The log-likelihood of y (n,) as a function of parameter points.

        The points are given as d coordinate arrays, one per parameter, that
        broadcast together (per-axis nodes of a tensor grid, or k flat
        coordinates); the result has their broadcast shape.  With a0 and q0
        from ``_residual`` and c = B'W r0 (zero up to rounding), for every
        coefficient vector a and delta = a - a0

            (y - B a)'W(y - B a) = q0 - 2 delta'c + delta'G delta,

        summed here as broadcast terms, so each point costs O(p^2) and a
        tensor grid pays for each term only on the axes it involves.  It is
        centred at a0 because expanded at zero it subtracts terms of order
        y'Wy, which at a long horizon or a large drift exceed the residual
        sum by many digits.
        """
        a0, q0 = self._residual(y)
        (c,) = _summed(lambda b, g, x: (b.T @ ((x - b @ a0) / g),), self.basis, self.profile, y)
        n, p = self.basis.shape
        const = self.log_normalizer

        def batch(coords) -> np.ndarray:
            delta = [x - a for x, a in zip(coords[:p], a0)]
            quad_unit = q0
            for i, di in enumerate(delta):  # + delta_i (G_ii delta_i + 2 G_ij delta_j - 2 c_i), j > i
                row = self.gram[i, i] * di - 2.0 * c[i]
                for j in range(i + 1, p):
                    row = row + 2.0 * self.gram[i, j] * delta[j]
                quad_unit = quad_unit + di * row
            if self.scaled:
                scale = coords[p]
                return const - 0.5 * n * np.log(scale) - 0.5 * quad_unit / scale
            return const - 0.5 * quad_unit

        return batch


class MomentCache:
    """Grid-bound moment evaluator for one model.

    Precomputes whatever is parameter-independent for the bound grid (basis
    integrals for linear drifts, profile integrals for known or scaled
    variances, both checked finite, and the floor threshold of the latter) so
    that ``moments(theta)`` and ``mean_var(theta)`` cost a few matrix products
    and check only what they build.  A closure block reuses its last 16
    parameter vectors' results (fewer if they would pass 32 MiB), drift and
    variance apart, freed with the cache and not pickled; a repeat shares
    arrays made read-only.
    """

    def __init__(self, model: ModelSpec, grid: TimeGrid, force_quadrature: bool = False):
        self.model = model
        self.grid = grid
        self.force_quadrature = force_quadrature
        self._basis_integrals: np.ndarray | None = None
        self._profile_integrals: np.ndarray | None = None
        self._design: LinearDesign | None = None
        self._floor_clear = math.inf  # closed variances pass the floor at scales above this
        self._own: list[np.ndarray] = []  # the arrays closed routes return as they are
        # each block's one route, (params, full) -> (integrals (n,), gradient integrals (n, k));
        # only the closure route reads ``full``, giving None for the gradients unless set.  A
        # module function or object, as a bound method would keep the cache alive in a cycle
        self._drift = self._route("drift", model.signal)
        self._variance = self._route("variance", model.noise)

    def _route(self, label: str, family):
        """Pick a block's route: closed, the family's exact integrals, or quadrature."""
        grid = self.grid
        exact = None
        if isinstance(family, LinearSignal):
            self._basis_integrals = family.basis_integral_matrix(grid.starts, grid.ends)
            self._check_finite("basis integral", self._basis_integrals)
            self._own.append(self._basis_integrals)
            exact = partial(_linear_route, self._basis_integrals)
        elif isinstance(family, (KnownNoise, ScaledNoise)):
            g = self._profile_integrals = np.asarray(
                family.profile.integral(grid.starts, grid.ends), dtype=float
            )
            self._check_finite("variance profile integral", g)
            g.flags.writeable = False  # the scaled route shares a view
            grad = g[:, None] if family.q else np.empty((g.size, 0))
            grad.flags.writeable = False
            self._own += [g, grad]
            exact = partial(_profile_route, g, grad)
            if not self.force_quadrature:
                self._floor_clear = _floor_clear(self.model.sigma2_floor * grid.delays, g)
        elif (integrals := getattr(family, "integrals", None)) is not None:
            exact = _Memo(integrals, grid.starts, grid.ends)
        if exact is not None and not self.force_quadrature:
            return exact
        knots = grid.instants
        jumps = family.jumps(knots[0], knots[-1]) if hasattr(family, "jumps") else ()
        if len(jumps):  # split at declared jumps, which the rule cannot see
            knots = np.union1d(knots, jumps)
        cuts = np.searchsorted(knots, grid.starts) if knots.size > grid.instants.size else None
        return partial(_quadrature_route, label, family.rates, knots, cuts)

    def _check_finite(self, what: str, *arrays: np.ndarray) -> None:
        """EvaluationError naming the first interval where a row of ``arrays`` is non-finite;
        the cache's own arrays, checked when it was built, and None are skipped."""
        arrays = [x for x in arrays if x is not None and not any(x is a for a in self._own)]
        if all(np.all(np.isfinite(x)) for x in arrays):
            return  # the cheap test: the row mask is built only on failure
        rows = [np.isfinite(x).all(axis=tuple(range(1, x.ndim))) for x in arrays]
        i = int(np.argmin(np.logical_and.reduce(rows)))
        a, b = float(self.grid.starts[i]), float(self.grid.ends[i])
        raise EvaluationError(f"non-finite {what}: interval {i} on [{a!r}, {b!r}]")

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

    def moments(self, theta: Theta) -> IncrementMoments:
        """The means and variances (n,) at ``theta`` with their gradients, stamped with the grid."""
        return IncrementMoments(*self._evaluate(theta, True), self.grid)

    def mean_var(self, theta: Theta) -> tuple[np.ndarray, np.ndarray]:
        """The means and variances (n,) at ``theta`` alone, read-only: the values of
        ``moments``, bit for bit, under the same checks with the same messages.  The
        closure route calls no gradient callable for them."""
        mean, var, _, _ = self._evaluate(theta, False)
        mean.flags.writeable = var.flags.writeable = False
        return mean, var

    def _evaluate(self, theta: Theta, full: bool) -> tuple:
        """(mean, var, grad_mean, grad_var) at theta, checked; the gradients are None,
        and neither computed on the closure route nor checked, unless ``full``."""
        if theta.alpha.size != self.model.p or theta.beta.size != self.model.q:
            raise EvaluationError(
                f"theta dims ({theta.alpha.size}, {theta.beta.size}) do not match the "
                f"model ({self.model.p}, {self.model.q})"
            )
        mean, grad_mean = self._drift(theta.alpha, full)
        var, grad_var = self._variance(theta.beta, full)
        if not full:
            grad_mean = grad_var = None
        for what, grad, k in (("drift", grad_mean, "p"), ("variance", grad_var, "q")):
            if full and grad.shape != (self.grid.n, getattr(self.model, k)):
                raise EvaluationError(f"{what} gradient has shape {grad.shape}, expected "
                                      f"({self.grid.n}, {k} = {getattr(self.model, k)})")
        self._check_finite("drift moment", mean, grad_mean)
        self._check_finite("variance moment", var, grad_var)
        if not self.clears_floor(theta.beta):
            floor = self.model.sigma2_floor * self.grid.delays
            if np.any(var <= floor):
                i = int(np.argmax(var <= floor))
                raise NoiseFloorViolation(
                    f"increment variance {float(var[i])!r} on interval {i} is at or "
                    f"below floor*delay = {float(floor[i])!r}"
                )
        return mean, var, grad_mean, grad_var

    def clears_floor(self, beta: np.ndarray) -> bool:
        """Whether the closed variances s*g at ``beta`` (s = 1 if known) pass the floor
        test by s > max_i floor*d_i/g_i, in O(1); False leaves it to the elementwise test."""
        return (float(beta[0]) if beta.size else 1.0) > self._floor_clear


def _bind(model: ModelSpec, grid: TimeGrid, cache: MomentCache | None) -> MomentCache:
    """A new cache of ``model`` on ``grid`` when ``cache`` is None, else ``cache`` itself if it
    holds this model (the same, or ==) on this grid (the same, or of its digest); DomainError
    otherwise, as its moments would describe another experiment."""
    if cache is None:
        return MomentCache(model, grid)
    if cache.model is not model and cache.model != model:
        raise DomainError("the moment cache holds another model")
    _check_same_grid(cache.grid, grid, "the moment cache holds")
    return cache


def _check_same_grid(held: TimeGrid, grid: TimeGrid, holder: str) -> None:
    """DomainError unless ``held`` is ``grid`` (the same, or of its digest), saying that
    ``holder`` another grid."""
    if held is not grid and held.digest() != grid.digest():
        raise DomainError(f"{holder} another grid of {held.n} intervals")


def _floor_clear(floor: np.ndarray, g: np.ndarray) -> float:
    """The scale s above which s*g > floor elementwise despite rounding, overwriting
    ``floor``; inf unless floor and g are normal positive numbers, rounded relatively."""
    tiny = np.finfo(float).tiny
    if not (floor.min() >= tiny and g.min() >= tiny):
        return math.inf
    threshold = float(np.divide(floor, g, out=floor).max())
    # s > fl(floor_i/g_i)(1 + 4 eps) gives fl(s*g_i) > floor_i through three roundings of
    # eps/2 each; 16 eps leaves room for the rounding of this product
    return threshold * (1.0 + 16.0 * np.finfo(float).eps) if threshold >= tiny else math.inf


class _Memo:
    """The closure route: a family's exact ``integrals`` over the grid's intervals, split
    into values (n,) and gradients (n, k), keeping the results of its last ``_MEMO_SIZE``
    parameter vectors within ``_MEMO_BYTES``.  A values request reads either kind of
    entry; a full one replaces a values entry, calling both callables.  A raise keeps
    nothing, and a pickle holds no entries."""

    def __init__(self, integrals, starts, ends):
        self.integrals, self.starts, self.ends = integrals, starts, ends
        self._entries: OrderedDict[bytes, tuple] = OrderedDict()  # least recently used first

    def __call__(self, params: np.ndarray, full: bool) -> tuple:
        key = np.asarray(params, dtype=float).tobytes()
        entry = self._entries.get(key)
        if entry is None or (full and entry[1] is None):  # a values entry is redone in full
            # the callables get a fresh copy of the parameter vector
            out = self.integrals(np.frombuffer(key).copy(), self.starts, self.ends, gradient=full)
            entry = out[:, 0], out[:, 1:] if full else None
        self._entries[key] = entry
        self._entries.move_to_end(key)
        size = sum(a.nbytes for e in self._entries.values() for a in e if a is not None)
        while len(self._entries) > _MEMO_SIZE or (size > _MEMO_BYTES and len(self._entries) > 1):
            size -= sum(a.nbytes for a in self._entries.popitem(last=False)[1] if a is not None)
        return entry

    def __reduce__(self):
        return _Memo, (self.integrals, self.starts, self.ends)


def _linear_route(basis: np.ndarray, alpha: np.ndarray, full: bool) -> tuple:
    return basis @ alpha, basis


def _profile_route(g: np.ndarray, grad: np.ndarray, beta: np.ndarray, full: bool) -> tuple:
    """A known variance g, or a scaled one beta * g, with its fixed gradient."""
    return (float(beta[0]) * g if beta.size else g), grad


def _quadrature_route(label: str, rates, knots, cuts, params: np.ndarray, full: bool) -> tuple:
    """Quadrature route over ``knots``; pieces are summed back to intervals at ``cuts``.
    Values alone cost the same: the rule picks its pieces on every column."""
    try:
        out = quadrature.integrate(lambda ts: rates(params, ts), knots[:-1], knots[1:])
    except QuadratureError as exc:
        raise QuadratureError(f"{label} moment: {exc}") from exc
    if cuts is not None:
        out = np.add.reduceat(out, cuts, axis=0)
    return out[:, 0], out[:, 1:]
