"""Exact sampling of increment vectors, reproducible by construction.

Randomness is counter-based: a 128-bit Philox4x64-10 key is formed from
(seed, replicate), raw 64-bit words are mapped to uniforms, and normals
come out of the inverse normal CDF.  Consequence: the k-th normal of a
replicate is a pure function of (seed, replicate, k), independent of how
many replicates run, in what order, or on how many processes.

Every draw goes through one core, ``_standard_normals``: it builds one
Philox per call and re-keys it for each replicate, and it turns raw words
into normals a slab of at most ``_SLAB_WORDS`` words at a time, so a
block needs the output array plus one slab.  Neither changes the
stream, which ``normal_stream`` defines.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from .errors import DomainError, GridError
from .increments import IncrementMoments, MomentCache
from .model import ModelSpec, Theta
from .sampling import TimeGrid, grid_from_instants

__all__ = [
    "IncrementSample",
    "normal_stream",
    "draw_block",
    "derive_seed",
    "simulate_increments",
    "simulate_batch",
    "moments_for",
    "save_sample",
    "load_sample",
]

_MAX_SEED = 2**64


def _check_seed(value: int, name: str) -> int:
    value = int(value)
    if not (0 <= value < _MAX_SEED):
        raise DomainError(f"{name} must lie in [0, 2**64), got {value!r}")
    return value


_SLAB_WORDS = 65_536


def _standard_normals(seed: int, lo: int, hi: int, count: int) -> np.ndarray:
    """Rows lo..hi-1 of the streams of ``seed``, ``count`` normals each.

    Setting the state (key ``(seed << 64) | r``, counter zero, empty
    buffer) yields the words ``Philox(key=...)`` would, without building a
    generator per replicate.  A full slab, or the last partial one, is
    mapped to normals in place into its stretch of the output; a row
    longer than the slab carries on with the same generator.
    """
    out = np.empty((hi - lo, count))
    flat = out.reshape(-1)
    if flat.size == 0:
        return out
    gen = Philox(key=0)
    state = gen.state
    key = state["state"]["key"]
    key[1] = seed
    slab = np.empty(min(_SLAB_WORDS, flat.size), dtype=np.uint64)
    filled = done = 0
    for r in range(lo, hi):
        key[0] = r
        gen.state = state
        left = count
        while left:
            take = min(left, slab.size - filled)
            slab[filled : filled + take] = gen.random_raw(take)
            filled += take
            left -= take
            if filled == slab.size or done + filled == flat.size:
                words = slab[:filled]
                u = flat[done : done + filled]
                np.right_shift(words, np.uint64(11), out=words)
                u[...] = words
                u += 0.5
                u *= 2.0**-53
                ndtri(u, out=u)
                done += filled
                filled = 0
    return out


def normal_stream(seed: int, replicate: int, count: int) -> np.ndarray:
    """Standard normals indexed by (seed, replicate, position).

    The stream is the words of Philox4x64-10 under the 128-bit key
    ``(seed << 64) | replicate`` from counter zero, one word per value: the
    top 53 bits become a uniform strictly inside (0, 1) via
    u = (k + 0.5) * 2**-53, then the inverse normal CDF maps u to a normal.
    Fixed consumption per position is what makes the stream
    position-addressable.  This is row 0 of ``draw_block``'s core.
    """
    seed = _check_seed(seed, "seed")
    replicate = _check_seed(replicate, "replicate")
    if count < 0:
        raise DomainError(f"count must be >= 0, got {count}")
    return _standard_normals(seed, replicate, replicate + 1, count)[0]


def draw_block(mean: np.ndarray, sd: np.ndarray, seed: int, lo: int, hi: int) -> np.ndarray:
    """Replicates lo..hi-1 of the family with these moments, shape (hi - lo, n).

    Row j is ``mean + sd * normal_stream(seed, lo + j, n)``, bit for bit:
    the same stream, drawn by one generator re-keyed per replicate, then
    scaled and shifted in place.  Memory beyond the block is bounded by
    the slab of ``_SLAB_WORDS`` raw words.  Requires 0 <= lo <= hi <= 2**64.
    """
    seed = _check_seed(seed, "seed")
    lo, hi = int(lo), int(hi)
    if lo < 0:
        raise DomainError(f"lo must be >= 0, got {lo}")
    if hi < lo:
        raise DomainError(f"hi must be >= lo = {lo}, got {hi}")
    if hi > _MAX_SEED:
        raise DomainError(f"hi must be <= 2**64 (replicates lie in [0, 2**64)), got {hi}")
    out = _standard_normals(seed, lo, hi, mean.size)
    out *= sd
    out += mean
    return out


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


def simulate_increments(
    model: ModelSpec,
    theta: Theta,
    grid: TimeGrid,
    seed: int,
    replicate: int = 0,
    cache: MomentCache | None = None,
) -> IncrementSample:
    """Draw one increment vector: y_i = mean_i + sqrt(var_i) * z_i."""
    replicate = _check_seed(replicate, "replicate")
    if cache is None:
        cache = MomentCache(model, grid)
    m = cache.moments(theta)
    y = draw_block(m.mean, np.sqrt(m.var), seed, replicate, replicate + 1)[0]
    return IncrementSample(y, int(seed), replicate, grid.digest(), theta)


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
    """
    if replicates < 1:
        raise DomainError(f"replicates must be >= 1, got {replicates}")
    if cache is None:
        cache = MomentCache(model, grid)
    m = cache.moments(theta)
    return draw_block(m.mean, np.sqrt(m.var), seed, 0, replicates)


def moments_for(model: ModelSpec, theta: Theta, grid: TimeGrid) -> IncrementMoments:
    return MomentCache(model, grid).moments(theta)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def save_sample(sample: IncrementSample, grid: TimeGrid, csv_path, meta_path=None) -> None:
    """Write rows (i, t_prev, t_next, y) plus an optional JSON sidecar."""
    if sample.n != grid.n:
        raise GridError(f"sample has {sample.n} increments, grid has {grid.n}")
    if sample.grid_digest != grid.digest():
        raise GridError("sample was drawn on a different grid (digest mismatch)")
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["i", "t_prev", "t_next", "y"])
        for i in range(sample.n):
            w.writerow(
                [
                    i + 1,
                    repr(float(grid.instants[i])),
                    repr(float(grid.instants[i + 1])),
                    repr(float(sample.y[i])),
                ]
            )
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
            meta = json.load(fh)
        seed = int(meta.get("seed", 0))
        replicate = int(meta.get("replicate", 0))
        if meta.get("grid_digest") not in (None, grid.digest()):
            raise GridError(f"{meta_path}: grid digest does not match the CSV grid")
        tt = meta.get("theta_true")
        if tt is not None:
            theta = Theta(np.asarray(tt["alpha"], dtype=float), np.asarray(tt["beta"], dtype=float))
    sample = IncrementSample(y, seed, replicate, grid.digest(), theta)
    return sample, grid
