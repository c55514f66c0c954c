"""Declarative configuration: dicts in, validated model objects out.

Configs are plain JSON-compatible dicts.  Validation is strict: unknown
keys are rejected by name, required keys are reported by name, and value
errors name the key they sit under.  Every number is read by one of the
checked readers below (``_number``, ``_integer``, ``_seed``, ``_list``),
which the CLI and ``StudyConfig`` use too.  A value the model, parameter,
grid or prior constructors refuse (a negative step, a NaN parameter) is a
ConfigError naming the entry it sits under.
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
from .information import periodic_limit_fisher
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
    "build_limit_fisher",
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


def build_atom(cfg: dict):
    _check_keys(cfg, {"kind", "freq", "phase", "levels", "period"}, {"kind"}, "basis atom")
    kind = cfg["kind"]
    if kind == "const":
        _check_keys(cfg, {"kind"}, {"kind"}, "const atom")
        return ConstantFn()
    if kind == "cos":
        _check_keys(cfg, {"kind", "freq", "phase"}, {"kind", "freq"}, "cos atom")
        phase = _number({"phase": 0, **cfg}, "phase", "cos atom")
        return CosineFn(_number(cfg, "freq", "cos atom"), phase)
    if kind == "sin":
        _check_keys(cfg, {"kind", "freq"}, {"kind", "freq"}, "sin atom")
        return SineFn(_number(cfg, "freq", "sin atom"))
    if kind == "steps":
        _check_keys(cfg, {"kind", "levels", "period"}, {"kind", "levels", "period"}, "steps atom")
        return PeriodicStepFn(
            tuple(_number_list(cfg, "levels", "steps atom")),
            _number(cfg, "period", "steps atom"),
        )
    raise ConfigError(f"unknown basis atom kind {kind!r}", key="kind")


def build_profile(cfg: dict) -> Profile:
    _check_keys(cfg, {"kind", "value", "offset", "terms", "levels", "period"}, {"kind"}, "profile")
    kind = cfg["kind"]
    if kind == "const":
        _check_keys(cfg, {"kind", "value"}, {"kind", "value"}, "const profile")
        return Profile(offset=_number(cfg, "value", "const profile"))
    if kind == "trig":
        _check_keys(cfg, {"kind", "offset", "terms"}, {"kind", "offset", "terms"}, "trig profile")
        terms = cfg["terms"]
        if not isinstance(terms, list):
            raise ConfigError("trig profile terms must be a list", key="terms")
        coefs, atoms = [], []
        for term in terms:
            _check_keys(term, {"amp", "freq", "phase"}, {"amp", "freq"}, "trig term")
            coefs.append(_number(term, "amp", "trig term"))
            phase = _number({"phase": 0, **term}, "phase", "trig term")
            atoms.append(CosineFn(_number(term, "freq", "trig term"), phase))
        return Profile(
            offset=_number(cfg, "offset", "trig profile"),
            coefs=tuple(coefs),
            atoms=tuple(atoms),
        )
    if kind == "steps":
        _check_keys(cfg, {"kind", "levels", "period"}, {"kind", "levels", "period"}, "steps profile")
        atom = PeriodicStepFn(
            tuple(_number_list(cfg, "levels", "steps profile")),
            _number(cfg, "period", "steps profile"),
        )
        return Profile(offset=0.0, coefs=(1.0,), atoms=(atom,))
    raise ConfigError(f"unknown profile kind {kind!r}", key="kind")


def build_signal(cfg: dict):
    _check_keys(cfg, {"kind", "basis"}, {"kind"}, "signal")
    if cfg["kind"] != "linear":
        raise ConfigError(
            f"unknown signal kind {cfg['kind']!r}; config files support 'linear' "
            "(general callables are library-only)",
            key="kind",
        )
    _check_keys(cfg, {"kind", "basis"}, {"kind", "basis"}, "linear signal")
    basis = cfg["basis"]
    if not isinstance(basis, list) or not basis:
        raise ConfigError("linear signal basis must be a non-empty list", key="basis")
    return LinearSignal(tuple(build_atom(b) for b in basis))


def build_noise(cfg: dict):
    _check_keys(cfg, {"kind", "profile"}, {"kind", "profile"}, "noise")
    kind = cfg["kind"]
    profile = build_profile(cfg["profile"])
    if kind == "known":
        return KnownNoise(profile)
    if kind == "scaled":
        return ScaledNoise(profile)
    raise ConfigError(
        f"unknown noise kind {kind!r}; config files support 'known' and 'scaled'",
        key="kind",
    )


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


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

_GRID_KEYS = {"kind", "n", "h", "step_rule", "c", "offsets", "period", "cycles",
              "total_time", "exponent"}


@_naming("grid")
def build_grid(cfg: dict) -> TimeGrid:
    """Build a fixed-size grid (explicit n or cycles)."""
    _check_keys(cfg, _GRID_KEYS, {"kind"}, "grid")
    kind = cfg["kind"]
    if kind == "uniform":
        _check_keys(cfg, {"kind", "n", "h"}, {"kind", "n", "h"}, "uniform grid")
        return uniform_grid(_integer(cfg, "n", "uniform grid"), _number(cfg, "h", "uniform grid"))
    if kind == "pattern":
        _check_keys(
            cfg, {"kind", "offsets", "period", "cycles"},
            {"kind", "offsets", "period", "cycles"}, "pattern grid",
        )
        return periodic_pattern_grid(
            _number_list(cfg, "offsets", "pattern grid"),
            _number(cfg, "period", "pattern grid"),
            _integer(cfg, "cycles", "pattern grid"),
        )
    if kind == "quantile":
        _check_keys(
            cfg, {"kind", "n", "total_time", "exponent"},
            {"kind", "n", "total_time", "exponent"}, "quantile grid",
        )
        a = _number(cfg, "exponent", "quantile grid")
        if a <= 0.0:
            raise ConfigError("quantile grid exponent must be positive", key="exponent")
        return quantile_grid(
            lambda u: u**a,
            _integer(cfg, "n", "quantile grid"),
            _number(cfg, "total_time", "quantile grid"),
        )
    raise ConfigError(f"unknown grid kind {kind!r}", key="kind")


@_naming("grid")
def build_grid_for(cfg: dict, n: int) -> TimeGrid:
    """Build the rung-n member of a grid family used by studies.

    Uniform grids take either a fixed step ``h`` (growing horizon) or the
    shrinking rule ``step_rule: "inverse_sqrt"`` with constant ``c`` giving
    h = c / sqrt(n).  Pattern grids require n to be a multiple of the
    pattern length.
    """
    _check_keys(cfg, _GRID_KEYS, {"kind"}, "grid")
    kind = cfg["kind"]
    if kind == "uniform":
        _check_keys(cfg, {"kind", "h", "step_rule", "c"}, {"kind"}, "uniform grid family")
        if "h" in cfg:
            if "step_rule" in cfg or "c" in cfg:
                raise ConfigError(
                    "give either a fixed h or a step_rule, not both", key="step_rule"
                )
            return uniform_grid(n, _number(cfg, "h", "uniform grid family"))
        if cfg.get("step_rule") != "inverse_sqrt":
            raise ConfigError(
                f"unknown step_rule {cfg.get('step_rule')!r} (only 'inverse_sqrt')",
                key="step_rule",
            )
        c = _number(cfg, "c", "uniform grid family") if "c" in cfg else 1.0
        return uniform_grid(n, c / np.sqrt(n))
    if kind == "pattern":
        _check_keys(
            cfg, {"kind", "offsets", "period"}, {"kind", "offsets", "period"},
            "pattern grid family",
        )
        offsets = _number_list(cfg, "offsets", "pattern grid family")
        if n % len(offsets):
            raise ConfigError(
                f"n = {n} is not a multiple of the pattern length {len(offsets)}",
                key="offsets",
            )
        return periodic_pattern_grid(
            offsets, _number(cfg, "period", "pattern grid family"), n // len(offsets)
        )
    raise ConfigError(f"grid kind {kind!r} cannot generate a size ladder", key="kind")


def build_prior(cfg: dict, d: int) -> Prior:
    """The prior of a d-dimensional parameter vector."""
    _check_keys(cfg, {"kind", "center", "scale"}, {"kind"}, "prior")
    kind = cfg["kind"]
    if kind == "uniform":
        return Prior()
    if kind == "gaussian":
        _check_keys(cfg, {"kind", "center", "scale"}, {"kind", "center", "scale"}, "prior")
        center = tuple(_number_list(cfg, "center", "prior"))
        scale = tuple(_number_list(cfg, "scale", "prior"))
        with _naming("prior"):
            prior = Prior(kind="gaussian", center=center, scale=scale)
            prior.check_dimension(d)
        return prior
    raise ConfigError(f"unknown prior kind {kind!r}", key="kind")


def build_limit_fisher(
    cfg: dict, where: str, period_key: str = "period", regime_key: str = "regime"
):
    """``periodic_limit_fisher`` with the period, regime and offsets of cfg bound.

    Everything is checked here and nothing is computed: the result takes
    ``(model, theta, grid=None)``.  The ``pattern`` regime takes its
    offsets from cfg's pattern grid.
    """
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
    elif regime != "vanishing_step":
        raise ConfigError(
            f"unknown regime {regime!r} (only 'vanishing_step' or 'pattern')", key=regime_key
        )
    return partial(periodic_limit_fisher, period=period, regime=regime, offsets=offsets)
