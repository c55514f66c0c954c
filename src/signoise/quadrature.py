"""Adaptive Gauss-Kronrod integration over many intervals at once.

QUADPACK's embedded 7-point Gauss / 15-point Kronrod pair (``qk15``, Piessens
et al., 1983) is applied to all intervals together; only the pieces of the
intervals whose embedded error is too large are bisected and evaluated again.
Failures raise: a silently inaccurate moment poisons every likelihood on it.
The rule assumes an integrand smooth on each interval: a jump between the
outermost node and an end of an interval is invisible to it, so callers
split intervals at known jumps, and rates with unknown jumps inside an
interval must come with exact integrals.  ``tensor_rule`` is the fixed
tensor-product rule of the Bayes cubature and the Gaussian risk bound.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

REL_TOL = 1e-10
ABS_TOL = 1e-14
MAX_PIECES = 4096  # per interval
BLOCK = 256  # intervals evaluated together, so the node array does not grow with n

# qk15: abscissae (descending to the centre), their Kronrod weights, Gauss weights of XGK[1::2]
XGK = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.000000000000000000000000000000000,
)
WGK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
WG = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)

_NODES = np.concatenate((-np.asarray(XGK[:-1]), XGK[::-1]))
_KRONROD = np.concatenate((WGK[:-1], WGK[::-1]))
_GAUSS = np.zeros(15)
_GAUSS[1::2] = WG[:-1] + WG[::-1]
_RULES = np.stack((_KRONROD, _KRONROD - _GAUSS))  # the K15 value and the K15 - G7 error


def integrate(fn, a, b) -> np.ndarray:
    """Integrate ``fn`` over each interval [a[i], b[i]]; returns shape (n, k).

    ``fn`` maps a 1-d array of times to an (m, k) array of integrand
    components.  Interval i has converged when the sum over its pieces of
    max_k |K15 - G7| is at most max(ABS_TOL, REL_TOL * max_k |I_ik|).  A
    non-finite node value, a non-finite result or more than MAX_PIECES
    pieces raises QuadratureError naming the interval and its endpoints.
    """
    a, b = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (a, b))
    bad = ~(np.isfinite(a) & np.isfinite(b) & (a < b))
    if bad.any():
        i = int(np.argmax(bad))
        raise QuadratureError(f"interval {i}: need finite a < b", float(a[i]), float(b[i]))
    return np.concatenate(
        [_adapt(fn, a[s : s + BLOCK], b[s : s + BLOCK], s) for s in range(0, a.size, BLOCK)]
    )


def _kronrod(fn, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K15 values (m, k) and embedded errors max_k |K15 - G7| (m,) of pieces [lo, hi]."""
    half = 0.5 * (hi - lo)
    t = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    f = np.asarray(fn(t.ravel()), dtype=float).reshape(lo.size, _NODES.size, -1)
    value, err = np.einsum("rj,mjk->rmk", _RULES, f) * half[:, None]
    return value, np.abs(err).max(axis=1)


def _adapt(fn, a: np.ndarray, b: np.ndarray, first: int) -> np.ndarray:
    """``integrate`` on one block of intervals, the first of which is number ``first``."""
    n = a.size

    def fail(i, what):
        raise QuadratureError(f"interval {first + i}: {what}", float(a[i]), float(b[i]))

    lo, hi, owner = a, b, np.arange(n)
    value, err = _kronrod(fn, lo, hi)
    while True:
        total = np.zeros((n, value.shape[1]))
        np.add.at(total, owner, value)
        # every Kronrod weight is positive, so a non-finite node value shows here too
        finite = np.isfinite(total).all(axis=1)
        if not finite.all():
            fail(int(np.argmin(finite)), "non-finite integrand value or integral")
        count = np.bincount(owner, minlength=n)
        tol = np.maximum(ABS_TOL, REL_TOL * np.abs(total).max(axis=1))
        unconverged = np.bincount(owner, err, minlength=n) > tol
        split = unconverged[owner] & (err > (tol / count)[owner])
        if not split.any():  # an unconverged interval always has such a piece, up to rounding
            return total
        over = count + np.bincount(owner[split], minlength=n) > MAX_PIECES
        if over.any():
            fail(int(np.argmax(over)), f"no convergence within {MAX_PIECES} pieces")
        # kept pieces first, then the two halves of every split piece
        keep, mid = ~split, 0.5 * (lo[split] + hi[split])
        lo = np.concatenate((lo[keep], lo[split], mid))
        hi = np.concatenate((hi[keep], mid, hi[split]))
        owner = np.concatenate((owner[keep], owner[split], owner[split]))
        kept = np.count_nonzero(keep)
        new_value, new_err = _kronrod(fn, lo[kept:], hi[kept:])
        value = np.concatenate((value[keep], new_value))
        err = np.concatenate((err[keep], new_err))


def tensor_rule(nodes: np.ndarray, weights: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The d-fold tensor product of a 1-d rule: points (m**d, d) and weights (m**d,)."""
    mesh = np.meshgrid(*([nodes] * d), indexing="ij")
    wts = weights
    for _ in range(d - 1):
        wts = np.multiply.outer(wts, weights)
    return np.stack([m.ravel() for m in mesh], axis=-1), wts.ravel()
