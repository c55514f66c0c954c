"""Declarative configuration: the one place config dicts become objects.

Configs are plain JSON-compatible dicts.  Validation is strict: unknown
keys are rejected by name, required keys are reported by name, and value
errors name the key they sit under.  Every number is read by one of the
checked readers below (``_number``, ``_integer``, ``_seed``, ``_list``),
which the CLI and ``StudyConfig`` use too.  A value the model, parameter,
grid or prior constructors refuse (a negative step, a NaN parameter) is a
ConfigError naming the entry it sits under.  Each tagged object states
its keys once per kind, in a table ``_tagged`` reads.  The ``read_*``
functions, shared by the CLI and studies, read the model and box, the
prior or the information source from an enclosing config.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from functools import partial

import numpy as np

from .errors import ConfigError, DomainError, GridError
from .estimate import Prior
from .increments import _bind
from .information import empirical_fisher, periodic_limit_fisher
from .model import (
    ConstantFn,
    CosineFn,
    KnownNoise,
    LinearSignal,
    ModelSpec,
    ParameterSpace,
    PeriodicStepFn,
    Profile,
    ScaledNoise,
    SineFn,
    Theta,
)
from .sampling import TimeGrid, periodic_pattern_grid, quantile_grid, uniform_grid
from .simulate import _seed_problem

__all__ = [
    "canonical_json",
    "digest",
    "load_config",
    "build_atom",
    "build_profile",
    "build_signal",
    "build_noise",
    "build_model",
    "build_space",
    "build_theta",
    "build_grid",
    "build_grid_for",
    "build_prior",
    "read_model_space",
    "read_prior",
    "read_information",
]


def canonical_json(obj) -> str:
    """Key-sorted, separator-normalized JSON; the digest input format."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return cfg


@contextmanager
def _naming(key: str):
    """Re-raise a constructor's DomainError or GridError as a ConfigError naming ``key``."""
    try:
        yield
    except (DomainError, GridError) as exc:
        raise ConfigError(str(exc), key=key) from exc


def _check_keys(cfg: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be an object, got {type(cfg).__name__}")
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"unknown key in {where}", key=key)
    for key in required:
        if key not in cfg:
            raise ConfigError(f"{where} is missing a required key", key=key)


def _tagged(cfg: dict, kinds: dict[str, str], what: str) -> str:
    """The ``kind`` of the tagged object cfg, once its other keys fit that kind.

    ``kinds`` maps each kind to its keys besides ``kind``, space-separated,
    an optional one marked ``?``.
    """
    _check_keys(cfg, set(cfg) if isinstance(cfg, dict) else set(), {"kind"}, what)
    kind = cfg["kind"]
    if not (isinstance(kind, str) and kind in kinds):
        raise ConfigError(
            f"unknown {what} kind {kind!r} (one of {', '.join(map(repr, kinds))})", key="kind"
        )
    keys = kinds[kind].split()
    allowed = {"kind", *(k.rstrip("?") for k in keys)}
    _check_keys(cfg, allowed, {"kind", *(k for k in keys if k[-1] != "?")}, f"{kind} {what}")
    return kind


def _number(cfg: dict, key: str, where: str) -> float:
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {v!r}", key=key)
    return float(v)


def _integer(cfg: dict, key: str, where: str) -> int:
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}.{key} must be an integer, got {v!r}", key=key)
    return v


def _seed(cfg: dict, key: str, where: str) -> int:
    """A seed or replicate index, by simulate's rule."""
    problem = _seed_problem(cfg[key])
    if problem is not None:
        raise ConfigError(f"{where}.{key} {problem}", key=key)
    return cfg[key]


def _list(cfg: dict, key: str, where: str, read) -> list:
    """``read`` applied to each entry of the list ``cfg[key]``; an error names ``key[i]``."""
    v = cfg[key]
    if not isinstance(v, (list, tuple)):
        raise ConfigError(f"{where}.{key} must be a list, got {v!r}", key=key)
    return [read({f"{key}[{i}]": x}, f"{key}[{i}]", where) for i, x in enumerate(v)]


def _number_list(cfg: dict, key: str, where: str) -> list[float]:
    return _list(cfg, key, where, _number)


# ---------------------------------------------------------------------------
# model pieces
# ---------------------------------------------------------------------------

_ATOM_KEYS = {"const": "", "cos": "freq phase?", "sin": "freq", "steps": "levels period"}
_PROFILE_KEYS = {"const": "value", "trig": "offset terms", "steps": "levels period"}
_SIGNAL_KEYS = {"linear": "basis"}  # general callables are library-only
_NOISE_KEYS = {"known": "profile", "scaled": "profile"}


def _steps(cfg: dict, where: str) -> PeriodicStepFn:
    return PeriodicStepFn(tuple(_number_list(cfg, "levels", where)), _number(cfg, "period", where))


def build_atom(cfg: dict):
    kind = _tagged(cfg, _ATOM_KEYS, "basis atom")
    where = f"{kind} atom"
    if kind == "const":
        return ConstantFn()
    if kind == "cos":
        return CosineFn(_number(cfg, "freq", where), _number({"phase": 0, **cfg}, "phase", where))
    if kind == "sin":
        return SineFn(_number(cfg, "freq", where))
    return _steps(cfg, where)


def build_profile(cfg: dict) -> Profile:
    kind = _tagged(cfg, _PROFILE_KEYS, "profile")
    where = f"{kind} profile"
    if kind == "const":
        return Profile(offset=_number(cfg, "value", where))
    if kind == "steps":
        return Profile(offset=0.0, coefs=(1.0,), atoms=(_steps(cfg, where),))
    terms = cfg["terms"]
    if not isinstance(terms, list):
        raise ConfigError("trig profile terms must be a list", key="terms")
    coefs, atoms = [], []
    for term in terms:
        _check_keys(term, {"amp", "freq", "phase"}, {"amp", "freq"}, "trig term")
        coefs.append(_number(term, "amp", "trig term"))
        phase = _number({"phase": 0, **term}, "phase", "trig term")
        atoms.append(CosineFn(_number(term, "freq", "trig term"), phase))
    return Profile(offset=_number(cfg, "offset", where), coefs=tuple(coefs), atoms=tuple(atoms))


def build_signal(cfg: dict):
    _tagged(cfg, _SIGNAL_KEYS, "signal")
    basis = cfg["basis"]
    if not isinstance(basis, list) or not basis:
        raise ConfigError("linear signal basis must be a non-empty list", key="basis")
    return LinearSignal(tuple(build_atom(b) for b in basis))


def build_noise(cfg: dict):
    kind = _tagged(cfg, _NOISE_KEYS, "noise")
    return (KnownNoise if kind == "known" else ScaledNoise)(build_profile(cfg["profile"]))


@_naming("model")
def build_model(cfg: dict) -> ModelSpec:
    _check_keys(cfg, {"signal", "noise", "sigma2_floor"}, {"signal", "noise"}, "model")
    floor = _number({"sigma2_floor": 1e-12, **cfg}, "sigma2_floor", "model")
    return ModelSpec(build_signal(cfg["signal"]), build_noise(cfg["noise"]), floor)


@_naming("space")
def build_space(cfg: dict) -> ParameterSpace:
    _check_keys(cfg, {"alpha", "beta"}, {"alpha", "beta"}, "space")

    def box(key):
        axes = _list(cfg, key, "space", _number_list)
        if not all(len(ax) == 2 for ax in axes):
            raise ConfigError(f"space.{key} must be a list of [lo, hi] pairs", key=key)
        return tuple(map(tuple, axes))

    return ParameterSpace(box("alpha"), box("beta"))


@_naming("theta")
def build_theta(cfg: dict, p: int, q: int) -> Theta:
    _check_keys(cfg, {"alpha", "beta"}, {"alpha", "beta"}, "theta")
    alpha = _number_list(cfg, "alpha", "theta")
    beta = _number_list(cfg, "beta", "theta")
    if len(alpha) != p or len(beta) != q:
        raise ConfigError(
            f"theta has dims ({len(alpha)}, {len(beta)}), model needs ({p}, {q})",
            key="theta",
        )
    return Theta(np.asarray(alpha), np.asarray(beta))


def read_model_space(cfg: dict) -> tuple[ModelSpec, ParameterSpace]:
    """The model and parameter box under cfg's ``model`` and ``space`` keys, of equal dims."""
    model, space = build_model(cfg["model"]), build_space(cfg["space"])
    if (model.p, model.q) != (space.p, space.q):
        raise ConfigError(
            f"model dims ({model.p}, {model.q}) do not match the box ({space.p}, {space.q})",
            key="space",
        )
    return model, space


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

_GRID_KEYS = {"uniform": "n h", "pattern": "offsets period cycles",
              "quantile": "n total_time exponent"}
_GRID_FAMILY_KEYS = {"uniform": "h? step_rule? c?", "pattern": "offsets period"}


@_naming("grid")
def build_grid(cfg: dict) -> TimeGrid:
    """Build a fixed-size grid (explicit n or cycles)."""
    kind = _tagged(cfg, _GRID_KEYS, "grid")
    where = f"{kind} grid"
    if kind == "uniform":
        return uniform_grid(_integer(cfg, "n", where), _number(cfg, "h", where))
    if kind == "pattern":
        return periodic_pattern_grid(
            _number_list(cfg, "offsets", where),
            _number(cfg, "period", where),
            _integer(cfg, "cycles", where),
        )
    a = _number(cfg, "exponent", where)
    if a <= 0.0:
        raise ConfigError("quantile grid exponent must be positive", key="exponent")
    n, total_time = _integer(cfg, "n", where), _number(cfg, "total_time", where)
    return quantile_grid(lambda u: u**a, n, total_time)


@_naming("grid")
def build_grid_for(cfg: dict, n: int) -> TimeGrid:
    """Build the rung-n member of a grid family used by studies.

    Uniform grids take either a fixed step ``h`` (growing horizon) or the
    shrinking rule ``step_rule: "inverse_sqrt"`` with constant ``c`` giving
    h = c / sqrt(n).  Pattern grids require n to be a multiple of the
    pattern length.
    """
    kind = _tagged(cfg, _GRID_FAMILY_KEYS, "grid family")
    where = f"{kind} grid family"
    if kind == "uniform":
        if "h" in cfg:
            if "step_rule" in cfg or "c" in cfg:
                raise ConfigError(
                    "give either a fixed h or a step_rule, not both", key="step_rule"
                )
            return uniform_grid(n, _number(cfg, "h", where))
        if cfg.get("step_rule") != "inverse_sqrt":
            raise ConfigError(
                f"unknown step_rule {cfg.get('step_rule')!r} (only 'inverse_sqrt')",
                key="step_rule",
            )
        c = _number(cfg, "c", where) if "c" in cfg else 1.0
        return uniform_grid(n, c / np.sqrt(n))
    offsets = _number_list(cfg, "offsets", where)
    if n % len(offsets):
        raise ConfigError(
            f"n = {n} is not a multiple of the pattern length {len(offsets)}",
            key="offsets",
        )
    return periodic_pattern_grid(offsets, _number(cfg, "period", where), n // len(offsets))


# ---------------------------------------------------------------------------
# prior and information source
# ---------------------------------------------------------------------------

_PRIOR_KEYS = {"uniform": "", "gaussian": "center scale"}


def build_prior(cfg: dict, d: int) -> Prior:
    """The prior of a d-dimensional parameter vector."""
    if _tagged(cfg, _PRIOR_KEYS, "prior") == "uniform":
        return Prior()
    center = tuple(_number_list(cfg, "center", "gaussian prior"))
    scale = tuple(_number_list(cfg, "scale", "gaussian prior"))
    if not center:  # Prior() without a center is the flat one
        raise ConfigError("gaussian prior needs matching center and scale", key="prior")
    with _naming("prior"):
        prior = Prior(center, scale)
        prior.check_dimension(d)
    return prior


def read_prior(cfg: dict, d: int) -> Prior:
    """The prior under cfg's ``prior`` key: flat when absent or null, else built and checked."""
    return Prior() if cfg.get("prior") is None else build_prior(cfg["prior"], d)


def _empirical_information(model, theta, grid, cache=None):
    return empirical_fisher(_bind(model, grid, cache).moments(theta), grid)


def _limit_information(period, offsets, model, theta, grid, cache=None):
    return periodic_limit_fisher(model, theta, period, offsets, grid)


def read_information(cfg: dict, where: str, keys=("source", "period", "regime")):
    """The information source that cfg's ``keys`` (source, period, regime) name.

    Returns ``information(model, theta, grid, cache=None)`` giving an
    InformationBundle; everything is checked here and nothing is computed.
    ``empirical`` (the default) sums over the grid, which it needs, and
    reads neither period nor regime; a ``cache`` it is given must hold this
    model on this grid (DomainError otherwise).  ``limit`` takes a positive period
    and a regime, ``vanishing_step`` (the default) or ``pattern``, which
    takes its offsets from cfg's pattern grid; only offsets reach the limit.
    """
    source_key, period_key, regime_key = keys
    source = cfg.get(source_key, "empirical")
    if source == "empirical":
        for key in (period_key, regime_key):
            if key in cfg:
                raise ConfigError(
                    f"{where} with {source_key} 'empirical' never reads this key", key=key
                )
        if "grid" not in cfg:
            raise ConfigError("empirical information needs a grid", key="grid")
        return _empirical_information
    if source != "limit":
        raise ConfigError(
            f"{source_key} must be 'empirical' or 'limit', got {source!r}", key=source_key
        )
    period = _number({period_key: cfg.get(period_key)}, period_key, where)
    if not (period > 0.0 and math.isfinite(period)):
        raise ConfigError(f"{where}.{period_key} must be positive, got {period!r}", key=period_key)
    regime = cfg.get(regime_key, "vanishing_step")
    offsets = None
    if regime == "pattern":
        grid = cfg.get("grid")
        if not (isinstance(grid, dict) and grid.get("kind") == "pattern"):
            raise ConfigError("the pattern regime needs a pattern grid", key=regime_key)
        offsets = _number_list(grid, "offsets", "pattern grid")
        if offsets and offsets[-1] != period:
            msg = f"must equal the pattern grid's period {offsets[-1]!r}, got {period!r}"
            raise ConfigError(f"{where}.{period_key} {msg}", key=period_key)
    elif regime != "vanishing_step":
        raise ConfigError(
            f"unknown regime {regime!r} (only 'vanishing_step' or 'pattern')", key=regime_key
        )
    return partial(_limit_information, period, offsets)
