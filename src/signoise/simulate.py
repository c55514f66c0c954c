"""Exact sampling of increment vectors, reproducible by construction.

Randomness is counter-based: a 128-bit Philox4x64-10 key is formed from
(seed, replicate), raw 64-bit words are mapped to uniforms, and normals
come out of the inverse normal CDF.  Consequence: the k-th normal of a
replicate is a pure function of (seed, replicate, k), independent of how
many replicates run, in what order, or on how many processes.

Every draw goes through one core, ``_draw``: it builds one Philox per call
and re-keys it for each replicate, and ``Generator.random`` over it writes
each word's k * 2**-53 in place into the output row.  Rows go in blocks of
about ``_SLAB_WORDS`` values and columns in stretches of at most that many
(``increments``' stretch), and each block's stretch is finished where it
lies, in one pass: the half-step and the clamp, the inverse normal CDF,
and for a sample the scaling and shift, with ``simulate_increments`` and
``simulate_batch`` taking a stretch's standard deviations as the square
root of that stretch of the variances.  So a block needs no buffer beyond
the output array.  None of this changes the stream, which
``normal_stream`` defines, nor any value drawn from it.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .errors import DomainError, GridError
from .increments import _SLAB_WORDS, MomentCache, _bind, _stretches
from .model import ModelSpec, Theta
from .sampling import TimeGrid, _is_integer, grid_from_instants

__all__ = [
    "IncrementSample",
    "normal_stream",
    "draw_block",
    "derive_seed",
    "simulate_increments",
    "simulate_batch",
    "save_sample",
    "load_sample",
]

_MAX_SEED = 2**64


def _seed_problem(value) -> str | None:
    """Why ``value`` is not a seed or replicate index, an integer in [0, 2**64); None if it is.

    Numpy integers count as their value, bools not: ``sampling``'s integer rule."""
    if not _is_integer(value):
        return f"must be an integer, got {value!r}"
    if not 0 <= int(value) < _MAX_SEED:
        return f"must lie in [0, 2**64), got {value}"
    return None


def _check_seed(value, name: str) -> int:
    problem = _seed_problem(value)
    if problem is not None:
        raise DomainError(f"{name} {problem}")
    return int(value)


def _open_unit(u: np.ndarray) -> np.ndarray:
    """``u`` = k * 2**-53 becomes (k + 0.5) * 2**-53 in place; the one k = 2**53 - 1 that
    rounds to 1.0 takes 1 - 2**-53, the largest double below 1."""
    u += 2.0**-54
    return np.minimum(u, 1.0 - 2.0**-53, out=u)


def _draw(seed: int, lo: int, hi: int, count: int, mean=None, sd_of=None) -> np.ndarray:
    """Rows lo..hi-1 of the streams of ``seed``, ``count`` values each: standard normals,
    or ``mean + sd * stream`` when ``mean`` is given, with ``sd_of(cols)`` a stretch's
    standard deviations.

    Setting the state (key ``(seed << 64) | r``, counter zero, empty
    buffer) yields the words ``Philox(key=...)`` would, without building a
    generator per replicate; ``Generator.random`` writes each word's top 53
    bits k as k * 2**-53 straight into the output row.  Rows go in blocks of
    about ``_SLAB_WORDS`` values and columns in stretches of at most that many:
    a block of several rows is one stretch wide, and a row longer than a
    stretch is a block of its own that carries on with its stream.  Each
    stretch of a block is finished where it lies, in one pass.
    """
    from scipy.special import ndtri  # deferred: only a draw needs scipy

    out = np.empty((hi - lo, count))
    if out.size == 0:
        return out
    gen = Philox(key=0)
    rng = Generator(gen)
    state = gen.state
    key = state["state"]["key"]
    key[1] = seed
    step = max(1, _SLAB_WORDS // count)
    for first in range(0, hi - lo, step):
        block = out[first : first + step]
        for cols in _stretches(count):
            u = block[:, cols]
            for r, row in enumerate(u, lo + first):
                if cols.start == 0:
                    key[0] = r
                    gen.state = state
                rng.random(out=row)
            ndtri(_open_unit(u), out=u)
            if mean is not None:
                u *= sd_of(cols)
                u += mean[cols]
    return out


def normal_stream(seed: int, replicate: int, count: int) -> np.ndarray:
    """Standard normals indexed by (seed, replicate, position).

    The stream is the words of Philox4x64-10 under the 128-bit key
    ``(seed << 64) | replicate`` from counter zero, one word per value: the
    top 53 bits k become the uniform u = (k + 0.5) * 2**-53 (1 - 2**-53 for the
    top k, where that rounds to 1), strictly inside (0, 1), and the inverse
    normal CDF maps u to a finite normal.  Fixed consumption per position is
    what makes the stream position-addressable.  This is row 0 of
    ``draw_block``'s core.
    """
    seed = _check_seed(seed, "seed")
    replicate = _check_seed(replicate, "replicate")
    count = _check_seed(count, "count")
    return _draw(seed, replicate, replicate + 1, count)[0]


def draw_block(mean: np.ndarray, sd: np.ndarray, seed: int, lo: int, hi: int) -> np.ndarray:
    """Replicates lo..hi-1 of the family with these moments, shape (hi - lo, n).

    Row j is ``mean + sd * normal_stream(seed, lo + j, n)``, bit for bit:
    the same stream, drawn by one generator re-keyed per replicate into the
    rows in place, then finished, scaled and shifted in one pass per block
    and stretch: no buffer is held beyond the block.  ``mean`` is 1-d and
    ``sd`` broadcasts to it; ``seed``, ``lo`` and ``hi`` follow the seed
    rule, and lo <= hi.
    """
    seed = _check_seed(seed, "seed")
    lo, hi = _check_seed(lo, "lo"), _check_seed(hi, "hi")
    if hi < lo:
        raise DomainError(f"hi must be >= lo = {lo}, got {hi}")
    if np.ndim(mean) != 1:
        raise DomainError(f"mean must be 1-d, got shape {np.shape(mean)}")
    if np.shape(sd) not in ((), (1,), mean.shape):
        raise DomainError(f"sd of shape {np.shape(sd)} does not broadcast to mean's {mean.shape}")
    return _draw(seed, lo, hi, mean.size, mean, np.broadcast_to(sd, mean.size).__getitem__)


def derive_seed(seed: int, *salts) -> int:
    """Deterministically derive a sub-seed from a seed and hashable salts."""
    seed = _check_seed(seed, "seed")
    h = hashlib.sha256()
    h.update(seed.to_bytes(8, "little"))
    for s in salts:
        h.update(repr(s).encode())
        h.update(b"\x00")
    return int.from_bytes(h.digest()[:8], "little")


@dataclass(frozen=True)
class IncrementSample:
    """One simulated increment vector with its provenance."""

    y: np.ndarray
    seed: int
    replicate: int
    grid_digest: str
    theta_true: Theta | None = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 1 or y.size == 0:
            raise DomainError("y must be a non-empty 1-d array")
        if not np.all(np.isfinite(y)):
            raise DomainError("y must be finite")
        y.flags.writeable = False
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.y.size

    def _check_grid(self, grid: TimeGrid) -> None:
        """GridError unless this sample was drawn on ``grid``: its length, then its digest."""
        if self.n != grid.n:
            raise GridError(f"sample has {self.n} increments, grid has {grid.n}")
        if self.grid_digest != grid.digest():
            raise GridError("sample was drawn on a different grid (digest mismatch)")


def simulate_increments(
    model: ModelSpec,
    theta: Theta,
    grid: TimeGrid,
    seed: int,
    replicate: int = 0,
    cache: MomentCache | None = None,
) -> IncrementSample:
    """Draw one increment vector: y_i = mean_i + sqrt(var_i) * z_i, with the means and
    variances (no gradient) from ``cache`` if given, which must hold this model on this
    grid (DomainError otherwise)."""
    seed, replicate = _check_seed(seed, "seed"), _check_seed(replicate, "replicate")
    mean, var = _bind(model, grid, cache).mean_var(theta)
    y = _draw(seed, replicate, replicate + 1, mean.size, mean, lambda cols: np.sqrt(var[cols]))[0]
    return IncrementSample(y, seed, replicate, grid.digest(), theta)


def simulate_batch(
    model: ModelSpec,
    theta: Theta,
    grid: TimeGrid,
    seed: int,
    replicates: int,
    cache: MomentCache | None = None,
) -> np.ndarray:
    """Rows 0..replicates-1 of the replicate family, shape (replicates, n).

    Row r equals ``simulate_increments(..., replicate=r).y`` exactly.
    ``seed`` and ``replicates`` follow the seed rule, and replicates >= 1.
    It reads the means and variances alone, no gradient, from ``cache`` if
    given, which must hold this model on this grid (DomainError otherwise).
    """
    seed, replicates = _check_seed(seed, "seed"), _check_seed(replicates, "replicates")
    if replicates < 1:
        raise DomainError(f"replicates must be >= 1, got {replicates}")
    mean, var = _bind(model, grid, cache).mean_var(theta)
    return _draw(seed, 0, replicates, mean.size, mean, lambda cols: np.sqrt(var[cols]))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def save_sample(sample: IncrementSample, grid: TimeGrid, csv_path, meta_path=None) -> None:
    """Write rows (i, t_prev, t_next, y) plus an optional JSON sidecar; GridError unless
    the sample was drawn on ``grid``."""
    sample._check_grid(grid)
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["i", "t_prev", "t_next", "y"])
        rows = zip(grid.starts.tolist(), grid.ends.tolist(), sample.y.tolist())
        w.writerows([i, repr(a), repr(b), repr(y)] for i, (a, b, y) in enumerate(rows, 1))
    if meta_path is not None:
        meta = {
            "seed": sample.seed,
            "replicate": sample.replicate,
            "grid_digest": sample.grid_digest,
            "n": sample.n,
        }
        if sample.theta_true is not None:
            meta["theta_true"] = {
                "alpha": [float(v) for v in sample.theta_true.alpha],
                "beta": [float(v) for v in sample.theta_true.beta],
            }
        with open(meta_path, "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")


def load_sample(csv_path, meta_path=None) -> tuple[IncrementSample, TimeGrid]:
    """Read a sample CSV (and optional sidecar) back into objects."""
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["i", "t_prev", "t_next", "y"]:
        raise GridError(f"{csv_path}: expected header i,t_prev,t_next,y")
    try:
        t_prev = [float(r[1]) for r in rows[1:]]
        t_next = [float(r[2]) for r in rows[1:]]
        y = np.array([float(r[3]) for r in rows[1:]])
    except (ValueError, IndexError) as exc:
        raise GridError(f"{csv_path}: malformed sample row") from exc
    if not t_prev:
        raise GridError(f"{csv_path}: no data rows")
    instants = np.array([t_prev[0]] + t_next)
    if not np.allclose(instants[:-1], t_prev, rtol=0.0, atol=0.0):
        raise GridError(f"{csv_path}: t_prev column does not chain with t_next")
    grid = grid_from_instants(instants, label=str(csv_path))

    seed, replicate, theta = 0, 0, None
    if meta_path is not None:
        with open(meta_path) as fh:
            try:
                meta = json.load(fh)
            except json.JSONDecodeError as exc:
                raise GridError(f"{meta_path}: sidecar is not valid JSON: {exc}") from exc
        if not isinstance(meta, dict):
            raise GridError(f"{meta_path}: sidecar must be a JSON object")
        for key in ("seed", "replicate"):
            problem = _seed_problem(meta.get(key, 0))
            if problem is not None:
                raise GridError(f"{meta_path}: {key} {problem} (key: {key!r})")
        seed, replicate = meta.get("seed", 0), meta.get("replicate", 0)
        if meta.get("grid_digest") not in (None, grid.digest()):
            raise GridError(f"{meta_path}: grid digest does not match the CSV grid")
        tt = meta.get("theta_true")
        if tt is not None:
            try:
                theta = Theta(tt["alpha"], tt["beta"])
            except (KeyError, TypeError, ValueError, DomainError) as exc:
                what = f"{type(exc).__name__}: {exc}"
                raise GridError(f"{meta_path}: bad theta_true, {what} (key: 'theta_true')") from exc
    sample = IncrementSample(y, seed, replicate, grid.digest(), theta)
    return sample, grid
