"""Deterministic observation grids.

A grid is the finite set of instants 0 = t_0 < t_1 < ... < t_n at which the
process is read off.  Delays d_i = t_i - t_{i-1} are stored explicitly and
are the authoritative interval lengths: for long horizons the subtraction
t_i - t_{i-1} loses relative precision, the stored delays do not.  Each
builder is a few array operations: instants are h*i rounded once, whole
periods plus cycle offsets, total_time times the map's values on the
lattice i/n, or the correctly rounded prefix sums of the delays.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError

__all__ = [
    "TimeGrid",
    "uniform_grid",
    "periodic_pattern_grid",
    "quantile_grid",
    "grid_from_instants",
    "grid_from_delays",
    "save_grid_csv",
]


def _is_integer(value) -> bool:
    """The one integer rule, of grid sizes and seeds: numpy integers count, bools do not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """The scalar number rule: ints and floats, numpy's too, count; bools and the rest do not."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _reals(values, name: str, error) -> np.ndarray:
    """``values`` as a float array; ``error`` naming ``name`` unless its entries are numbers
    of numpy's integer or float kinds (no bools, strings or objects) in a regular array."""
    try:
        array = np.asarray(values)
    except ValueError as exc:  # a ragged nesting
        raise error(f"{name} must be an array of numbers: {exc}") from exc
    if array.dtype.kind not in "iuf":
        raise error(f"{name} must be numbers, got {array.dtype} entries")
    return array.astype(float, copy=False)


def _check_size(value, name: str) -> int:
    """``value`` as an int; GridError naming ``name`` unless it is an integer >= 1."""
    if not _is_integer(value):
        raise GridError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise GridError(f"{name} must be >= 1, got {value}")
    return int(value)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing observation instants starting at zero.

    Attributes
    ----------
    instants : ndarray, shape (n+1,)
        t_0 = 0 through t_n, strictly increasing.
    delays : ndarray, shape (n,)
        Positive interval lengths, primary over the instants; a grid built
        from delays holds their correctly rounded prefix sums as instants.
    """

    instants: np.ndarray
    delays: np.ndarray
    label: str = ""

    def __post_init__(self):
        inst = np.asarray(self.instants, dtype=float)
        dl = np.asarray(self.delays, dtype=float)
        if inst.ndim != 1 or dl.ndim != 1 or inst.size != dl.size + 1:
            raise GridError("need n+1 instants and n delays")
        if dl.size == 0:
            raise GridError("grid needs at least one interval")
        if inst[0] != 0.0:
            raise GridError(f"first instant must be 0.0, got {inst[0]!r}")
        if not np.all(np.isfinite(inst)) or not np.all(np.isfinite(dl)):
            i = int(np.argmin(np.isfinite(inst[1:]) & np.isfinite(dl)))  # only on failure
            raise GridError(f"non-finite instant or delay: interval {i}")
        if np.any(dl <= 0.0) or np.any(inst[1:] <= inst[:-1]):
            i = int(np.argmax((dl <= 0.0) | (inst[1:] <= inst[:-1])))
            raise GridError(f"instants must be strictly increasing: interval {i} has delay "
                            f"{float(dl[i])!r} on [{float(inst[i])!r}, {float(inst[i + 1])!r}]")
        inst.flags.writeable = False
        dl.flags.writeable = False
        object.__setattr__(self, "instants", inst)
        object.__setattr__(self, "delays", dl)

    @property
    def n(self) -> int:
        return self.delays.size

    @property
    def total_time(self) -> float:
        return float(self.instants[-1])

    @property
    def starts(self) -> np.ndarray:
        return self.instants[:-1]

    @property
    def ends(self) -> np.ndarray:
        return self.instants[1:]

    def digest(self) -> str:
        """Hex digest of the instant bytes.

        Instants alone identify a grid; stored delays can differ from
        instant differences in their last bits (that is why they are
        stored), so hashing them would make serialization round-trips
        change the digest.  The instants are read-only, so the digest is
        computed once per grid, from their buffer itself: no copy is made.
        """
        return self._digest

    @cached_property
    def _digest(self) -> str:
        return hashlib.sha256(np.ascontiguousarray(self.instants)).hexdigest()


def uniform_grid(n: int, h: float) -> TimeGrid:
    """Equidistant grid t_i = i*h with n intervals, n an integer >= 1."""
    n = _check_size(n, "n")
    if not (_is_real(h) and h > 0.0 and np.isfinite(h)):
        raise GridError(f"step must be positive and finite, got {h!r}")
    if not np.isfinite(n * float(h)):
        raise GridError(f"the last instant n * h = {n} * {h!r} overflows")
    instants = h * np.arange(n + 1, dtype=float)
    delays = np.full(n, float(h))
    return TimeGrid(instants, delays, label=f"uniform(n={n}, h={h})")


def periodic_pattern_grid(offsets, period: float, cycles: int) -> TimeGrid:
    """Grid repeating a within-period offset pattern over ``cycles`` periods.

    ``offsets`` are the instants inside one period, strictly increasing in
    (0, period] with the last offset equal to ``period`` so cycles abut
    exactly.  The delay sequence is exactly periodic by construction.
    """
    off = np.asarray(offsets, dtype=float)
    if off.ndim != 1 or off.size == 0:
        raise GridError("offsets must be a non-empty 1-d sequence")
    if not (period > 0.0 and np.isfinite(period)):
        raise GridError(f"period must be positive, got {period!r}")
    cycles = _check_size(cycles, "cycles")
    if off[0] <= 0.0 or np.any(np.diff(off) <= 0.0):
        raise GridError("offsets must be strictly increasing and positive")
    if off[-1] != period:
        raise GridError(
            f"last offset must equal the period, got {off[-1]!r} vs {period!r}"
        )
    pattern_delays = np.diff(np.concatenate(([0.0], off)))
    delays = np.tile(pattern_delays, cycles)
    base = period * np.arange(cycles, dtype=float)
    instants = np.concatenate(([0.0], (base[:, None] + off[None, :]).ravel()))
    return TimeGrid(
        instants, delays, label=f"pattern(nu={off.size}, P={period}, cycles={cycles})"
    )


def quantile_grid(inverse_cdf, n: int, total_time: float) -> TimeGrid:
    """Grid t_i = total_time * Q(i/n) for an inverse distribution function Q.

    Q is called once, on the lattice ``arange(n + 1) / n``, and must return
    an array of its shape (wrap a scalar map in ``np.vectorize``), with
    Q(0) = 0, Q(1) = 1, strictly increasing on the lattice; n is an integer >= 1.
    """
    n = _check_size(n, "n")
    if not (total_time > 0.0 and np.isfinite(total_time)):
        raise GridError(f"total_time must be positive, got {total_time!r}")
    u = np.arange(n + 1, dtype=float) / n
    want = f"inverse cdf must map the lattice, shape {u.shape}, to the same shape"
    try:
        q = np.asarray(inverse_cdf(u), dtype=float)
    except (TypeError, ValueError) as exc:
        raise GridError(f"{want}, but failed ({exc}); wrap a scalar map in np.vectorize") from exc
    if q.shape != u.shape:
        raise GridError(f"{want}, got shape {q.shape}; wrap a scalar map in np.vectorize")
    if abs(q[0]) > 1e-15 or abs(q[-1] - 1.0) > 1e-12:
        raise GridError("inverse cdf must satisfy Q(0)=0 and Q(1)=1")
    instants = total_time * q
    instants[0] = 0.0
    instants[-1] = total_time
    delays = np.diff(instants)
    if np.any(delays <= 0.0):
        raise GridError("inverse cdf is not strictly increasing on the lattice")
    return TimeGrid(instants, delays, label=f"quantile(n={n})")


def grid_from_instants(instants, label: str = "") -> TimeGrid:
    inst = _reals(instants, "instants", GridError)
    if inst.ndim != 1 or inst.size < 2:
        raise GridError("need at least two instants")
    return TimeGrid(inst, np.diff(inst), label=label)


def grid_from_delays(delays, label: str = "") -> TimeGrid:
    """Rebuild a grid from its delays; each instant is their correctly rounded prefix sum.

    cumsum(d) plus the running sum of each step's exact TwoSum error (Ogita, Rump & Oishi,
    "Accurate sum and dot product", 2005); what is left matters only at a near-tie."""
    dl = np.asarray(delays, dtype=float)
    if dl.ndim != 1 or dl.size == 0:
        raise GridError("need at least one delay")
    instants = np.zeros(dl.size + 1)
    s, prev = instants[1:], instants[:-1]
    np.cumsum(dl, out=s)
    t = s - dl  # error e = (prev - t) + (d - (s - t)), in place and in this order
    e = prev - t
    np.subtract(s, t, out=t)
    np.subtract(dl, t, out=t)
    e += t
    s += np.cumsum(e, out=e)
    return TimeGrid(instants, dl, label=label)


def save_grid_csv(grid: TimeGrid, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t"])
        w.writerows([repr(t)] for t in grid.instants.tolist())
