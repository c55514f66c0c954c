"""Span recorder wrapped around the package's public entry points.

Spans are recorded from outside the package: ``install`` replaces each
traced function in every ``signoise`` module namespace that binds it (so
``estimate.log_likelihood`` is traced as well as
``likelihood.log_likelihood``), plus ``MomentCache.__init__`` and
``MomentCache.moments`` on the class.  ``uninstall`` puts the originals
back.  Nothing under ``src/`` is edited.

A span is (name, start, end, parent).  Spans live in flat lists while the
run executes and are summarised, and optionally saved, after it ends.
Self time is a span's duration minus the durations of its direct
children; since calls nest strictly on one thread, the children tile a
subset of the parent's interval.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter

import numpy as np
from signoise import GeneralNoise, GeneralSignal

# (module, attribute, span name): plain functions traced by identity.
FUNCTIONS = (
    ("signoise.experiments", "study_from_dict", "experiments.study_from_dict"),
    ("signoise.experiments", "run_study", "experiments.run_study"),
    ("signoise.experiments", "save_report", "experiments.save_report"),
    ("signoise.config", "build_model", "config.build"),
    ("signoise.config", "build_space", "config.build"),
    ("signoise.config", "build_theta", "config.build"),
    ("signoise.config", "build_grid_for", "config.build"),
    ("signoise.config", "build_prior", "config.build"),
    ("signoise.sampling", "uniform_grid", "sampling.grid_build"),
    ("signoise.sampling", "periodic_pattern_grid", "sampling.grid_build"),
    ("signoise.sampling", "quantile_grid", "sampling.grid_build"),
    ("signoise.sampling", "grid_from_instants", "sampling.grid_build"),
    ("signoise.sampling", "grid_from_delays", "sampling.grid_build"),
    ("signoise.simulate", "normal_stream", "simulate.normal_stream"),
    ("signoise.simulate", "simulate_increments", "simulate.simulate_increments"),
    ("signoise.simulate", "simulate_batch", "simulate.simulate_batch"),
    ("signoise.quadrature", "integrate", "quadrature.integrate"),
    ("signoise.quadrature", "integrate_vec", "quadrature.integrate_vec"),
    ("signoise.likelihood", "log_likelihood", "likelihood.log_likelihood"),
    ("signoise.likelihood", "score", "likelihood.score"),
    ("signoise.likelihood", "normalized_log_ratio", "likelihood.normalized_log_ratio"),
    ("signoise.likelihood", "expected_power_identity", "likelihood.expected_power_identity"),
    ("signoise.information", "empirical_fisher", "information.empirical_fisher"),
    ("signoise.information", "periodic_limit_fisher", "information.periodic_limit_fisher"),
    ("signoise.estimate", "closed_form_mle", "estimate.closed_form_mle"),
    ("signoise.estimate", "mle_numeric", "estimate.mle_numeric"),
    ("signoise.estimate", "posterior_mean_quadrature", "estimate.posterior_mean_quadrature"),
    ("signoise.estimate", "posterior_mean_importance", "estimate.posterior_mean_importance"),
)

MOMENT_ROUTES = ("closed", "closure", "quadrature")


def moments_route(cache) -> str:
    """Which of the three moment routes ``cache.moments`` takes."""
    if getattr(cache, "force_quadrature", False):
        return "quadrature"
    general = [
        block
        for block in (cache.model.signal, cache.model.noise)
        if isinstance(block, (GeneralSignal, GeneralNoise))
    ]
    if any(b.integral_fn is None or b.grad_integral_fn is None for b in general):
        return "quadrature"
    return "closure" if general else "closed"


class Tracer:
    """In-memory span store plus the work counters observed at span exit."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.last: list[int] = []  # index of the span's last descendant
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.paused = False
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, observe=None):
        """Return ``fn`` recording one span per call.

        ``name`` is a string, or a callable of the call arguments giving
        one; ``observe(tracer, args, kwargs, result)`` runs after the span
        closes, so its cost is not charged to the span.
        """
        fixed = None if callable(name) else self._id(name)
        name_of = name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            nid = fixed if fixed is not None else self._id(name_of(args, kwargs))
            i = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.last.append(i)
            self._stack.append(i)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[i] = t0
                self.end[i] = t1
                self.last[i] = len(self.name_id) - 1
            if observe is not None:
                observe(self, args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def pause(self):
        """Record nothing inside the block (output checks of the benchmark)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        from signoise.increments import MomentCache

        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "signoise"]
        for mod_name, attr, span in FUNCTIONS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:  # a layer the package no longer has reads 0
                continue
            wrapped = self.wrap(original, span, _OBSERVERS.get(span))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapped)
        for attr, span, observe in (
            ("__init__", "increments.cache_init", None),
            ("moments", _moments_span, _observe_moments),
        ):
            original = MomentCache.__dict__[attr]
            self._patched.append((MomentCache, attr, original))
            setattr(MomentCache, attr, self.wrap(original, span, observe))

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    # -- summaries -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int32),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "last": np.asarray(self.last, dtype=np.int64),
        }

    def summary(self) -> dict:
        """Per-name self time, inclusive time and call count, plus coverage.

        ``covered_s`` is the time inside top-level spans; the rest of a
        traced section's wall time ran in the benchmark's own code.
        """
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=dur.size)
        self_t = dur - child
        out = {
            "self_s": dict(zip(self.names, np.bincount(a["name_id"], self_t, n_names).tolist())),
            "total_s": dict(zip(self.names, np.bincount(a["name_id"], dur, n_names).tolist())),
            "calls": dict(
                zip(self.names, np.bincount(a["name_id"], minlength=n_names).astype(int).tolist())
            ),
            "covered_s": float(dur[~nested].sum()),
            "spans": int(dur.size),
        }
        return out

    def descendants(self, outer: str, inner_prefix: str) -> int:
        """Spans whose name starts with ``inner_prefix`` below any ``outer`` span.

        Spans are stored in entry order, so the descendants of span i are
        exactly the indices i+1 .. last[i].  Nested ``outer`` spans are
        counted once, at their outermost occurrence.
        """
        if outer not in self._ids:
            return 0
        a = self.arrays()
        inner_ids = [i for n, i in self._ids.items() if n.startswith(inner_prefix)]
        hit = np.isin(a["name_id"], inner_ids).astype(np.int64)
        prefix = np.concatenate(([0], np.cumsum(hit)))
        total = 0
        covered_to = -1
        for i in np.flatnonzero(a["name_id"] == self._ids[outer]):
            if i <= covered_to:
                continue
            total += int(prefix[a["last"][i] + 1] - prefix[i + 1])
            covered_to = int(a["last"][i])
        return total

    @staticmethod
    def span_cost_s(calls: int = 100_000) -> float:
        """Measured cost of one span: a traced no-op call minus a plain one."""

        def noop():
            return None

        probe = Tracer()
        traced = probe.wrap(noop, "probe")
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        return max(time.perf_counter() - t0 - plain, 0.0) / calls

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())


def _moments_span(args, kwargs) -> str:
    return "increments.moments." + moments_route(args[0])


def _observe_moments(tracer, args, kwargs, out):
    tracer.counts["intervals." + moments_route(args[0])] += out.n


def _observe_normal_stream(tracer, args, kwargs, out):
    tracer.counts["normal_draws"] += int(out.size)


def _observe_mle(tracer, args, kwargs, out):
    tracer.counts["mle_iterations"] += int(out.iterations)


def _observe_cubature(tracer, args, kwargs, out):
    tracer.counts["cubature_cells"] += int(out.cells)


def _observe_importance(tracer, args, kwargs, out):
    tracer.counts["ess_ratio_sum"] += float(out.effective_draws) / float(out.draws)


_OBSERVERS = {
    "simulate.normal_stream": _observe_normal_stream,
    "estimate.mle_numeric": _observe_mle,
    "estimate.posterior_mean_quadrature": _observe_cubature,
    "estimate.posterior_mean_importance": _observe_importance,
}
