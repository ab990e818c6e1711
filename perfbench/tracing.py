"""Spans around the public functions of each subabsorb module.

``Tracer.install`` replaces module attributes with timing wrappers, so a
call made inside the package (``run_realization`` calling
``sample_positions``, ``recipes`` calling ``coupled_dipole.run_ensemble``)
is caught as well as one made by the benchmark.  A span holds a name, a
start, an end and the index of its parent span; spans are kept in memory
and written out by the caller at the end of the run.  Counts are read from
the objects the wrapped functions return.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

#: (module, function) pairs wrapped; the parent chain follows call nesting.
TRACED = (
    ("cli", "main"),
    ("recipes", "run_recipe"),
    ("coupled_dipole", "run_ensemble"),
    ("coupled_dipole", "sample_positions"),
    ("coupled_dipole", "build_coupling_matrix"),
    ("coupled_dipole", "evolve_closed_form"),
    ("coupled_dipole", "dipole_trace"),
    ("maxwell_bloch", "propagate_pulse"),
    ("analysis", "optical_depth_trace"),
    ("analysis", "fit_rise_time"),
    ("analysis", "monte_carlo_uncertainty"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the span list, -1 for a top-level span
    count: int = 0       # work read from the return value (see _work)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _work(name: str, result) -> int:
    """Work done by one call, read from what it returned."""
    if name == "analysis.fit_rise_time":
        return int(result.n_iterations)
    if name == "maxwell_bloch.propagate_pulse":
        return len(result.t_points) * len(result.z_points)
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self, modules: dict[str, object]):
        for mod_name, fn_name in TRACED:
            module = modules[mod_name]
            original = getattr(module, fn_name)
            setattr(module, fn_name, self._wrap(f"{mod_name}.{fn_name}", original))
            self._originals.append((module, fn_name, original))

    def uninstall(self):
        for module, fn_name, original in reversed(self._originals):
            setattr(module, fn_name, original)
        self._originals.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.count = _work(name, result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans: list[Span], pass_seconds: float) -> dict[str, float]:
    """Per-layer totals of one traced pass (all spans recorded during it)."""
    own = self_times(spans)

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def self_total(name):
        return sum(o for s, o in zip(spans, own) if s.name == name)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def work(name):
        return sum(s.count for s in spans if s.name == name)

    propagate_s = total("maxwell_bloch.propagate_pulse")
    return {
        "coupled_dipole.sample_positions.s": total("coupled_dipole.sample_positions"),
        "coupled_dipole.build_coupling_matrix.s": total("coupled_dipole.build_coupling_matrix"),
        "coupled_dipole.evolve_closed_form.s": total("coupled_dipole.evolve_closed_form"),
        "coupled_dipole.dipole_trace.s": total("coupled_dipole.dipole_trace"),
        "coupled_dipole.run_ensemble.self_s": self_total("coupled_dipole.run_ensemble"),
        "coupled_dipole.sample_positions.calls": calls("coupled_dipole.sample_positions"),
        "coupled_dipole.evolve_closed_form.calls": calls("coupled_dipole.evolve_closed_form"),
        "analysis.fit_rise_time.s": total("analysis.fit_rise_time"),
        "analysis.fit_rise_time.calls": calls("analysis.fit_rise_time"),
        "analysis.fit_rise_time.iterations": work("analysis.fit_rise_time"),
        "analysis.monte_carlo_uncertainty.s": total("analysis.monte_carlo_uncertainty"),
        "analysis.optical_depth_trace.s": total("analysis.optical_depth_trace"),
        "maxwell_bloch.propagate_pulse.s": propagate_s,
        "maxwell_bloch.propagate_pulse.calls": calls("maxwell_bloch.propagate_pulse"),
        "maxwell_bloch.node_steps_per_s": (work("maxwell_bloch.propagate_pulse") / propagate_s
                                           if propagate_s > 0 else 0.0),
        "recipes.run_recipe.self_s": self_total("recipes.run_recipe"),
        "cli.main.self_s": self_total("cli.main"),
        "trace.self_time_share": sum(own) / pass_seconds,
    }
