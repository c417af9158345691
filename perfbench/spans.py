"""Span tracing of semifold's layers from outside the package.

A traced operation runs with every public function of the layer modules
replaced by a wrapper that records one span per call: name, parent span,
operation id, start and end.  Nothing under ``src/`` changes; the
wrappers are bound into the module dictionaries (and into the CLI's
command table) only while a traced operation runs, and removed after it.

Spans stay in memory; the harness writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

LAYERS = ("config", "eigen", "grid", "problem", "nonlinear", "continuation",
          "subsuper", "verify", "cli")
ROOT_NAME = "bench.op"
# computed bytes of one tridiagonal solve: sub, diag, sup, rhs and solution
SOLVE_ARRAYS = 5


@dataclass(slots=True)
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for an operation's root
    op: int
    start: float = 0.0
    end: float = 0.0
    error: Optional[str] = None
    attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans of traced operations; one instance per run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._last_solve_op = None

    def _open(self, name: str, parent: int, op: int) -> Span:
        span = Span(name, parent, op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, op: int):
        """The root span of one operation; its duration is the traced wall."""
        span = self._open(ROOT_NAME, -1, op)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        """``fn`` recording a span per call.  ``before(span, args)`` may
        attach attributes; ``after(span, result)`` may too, and returns the
        result handed to the caller."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1]
            span = tracer._open(name, parent, tracer.spans[parent].op)
            try:
                if before is not None:
                    before(span, args)
                result = fn(*args, **kwargs)
                if after is not None:
                    result = after(span, result)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer._close(span)

        return traced

    # -- per-function attribute hooks --------------------------------------

    def _solve_before(self, span, args):
        op, rhs = args[0], args[1]
        span.attrs = {"repeat": op is self._last_solve_op, "n": len(rhs)}
        self._last_solve_op = op

    def _instance_after(self, span, inst):
        """Count g and g' by wrapping the callables config built."""
        nl = inst.nonlinearity
        nl = dataclasses.replace(nl, g=self.wrap("problem.g", nl.g),
                                 g_prime=self.wrap("problem.g_prime", nl.g_prime))
        return dataclasses.replace(inst, nonlinearity=nl)

    @contextlib.contextmanager
    def instrumented(self):
        """Bind span-recording wrappers into every semifold module."""
        mods = [importlib.import_module(f"semifold.{name}") for name in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, mods):
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name == "grid.solve_tridiagonal":
                    wrapped[fn] = self.wrap(name, fn, before=self._solve_before)
                elif name == "config.build_scenario_instance":
                    wrapped[fn] = self.wrap(name, fn, after=self._instance_after)
                elif name == "eigen.first_eigenpair":
                    wrapped[fn] = self.wrap(name, fn, after=_attach(
                        lambda r: {"iterations": r.iterations}))
                elif name == "continuation.trace_branch":
                    wrapped[fn] = self.wrap(name, fn, after=_attach(
                        lambda r: {"points": len(r)}))
                else:
                    wrapped[fn] = self.wrap(name, fn)
        restore = []
        for mod in [importlib.import_module("semifold")] + mods:
            # module globals, plus module-level tables such as cli.COMMANDS
            tables = [vars(mod)] + [v for k, v in vars(mod).items()
                                    if isinstance(v, dict) and not k.startswith("__")]
            for table in tables:
                for key, val in list(table.items()):
                    if inspect.isfunction(val) and val in wrapped:
                        restore.append((table, key, val))
                        table[key] = wrapped[val]
        try:
            yield
        finally:
            for table, key, val in reversed(restore):
                table[key] = val
            self._last_solve_op = None


def _attach(make_attrs):
    def after(span, result):
        span.attrs = make_attrs(result)
        return result
    return after


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.
    Children of one span never overlap (single-threaded caller), so the
    covered time is the sum of their durations."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [s.duration - c for s, c in zip(spans, covered)]


@dataclass
class LayerTotals:
    calls: int = 0
    errors: int = 0
    s: float = 0.0
    self_s: float = 0.0


def totals(spans: list[Span]) -> dict[str, LayerTotals]:
    out: dict[str, LayerTotals] = {}
    for span, own in zip(spans, self_times(spans)):
        t = out.setdefault(span.name, LayerTotals())
        t.calls += 1
        t.errors += span.error is not None
        t.s += span.duration
        t.self_s += own
    return out


def child_counts(spans: list[Span], parent: str, child: str) -> tuple[int, int]:
    """(calls, failed calls) of ``child`` made directly by ``parent``."""
    calls = errors = 0
    for span in spans:
        if span.name == child and span.parent >= 0 \
                and spans[span.parent].name == parent:
            calls += 1
            errors += span.error is not None
    return calls, errors


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of the traced operations, averaged per operation
    (``.calls``, ``.s``, ``.self_s``, counts) or per call where named."""
    ops = sum(1 for s in spans if s.parent < 0)
    tot = totals(spans)

    def get(name):
        return tot.get(name, LayerTotals())

    m: dict[str, float] = {}
    for name in ("grid.solve_tridiagonal", "eigen.smallest_eigenvalue",
                 "problem.g", "problem.g_prime", "nonlinear.residual",
                 "nonlinear.jacobian", "nonlinear.newton_solve",
                 "subsuper.monotone_iterate", "verify.e0_norm"):
        m[f"{name}.calls"] = _ratio(get(name).calls, ops)
    for name in ("grid.solve_tridiagonal", "eigen.smallest_eigenvalue",
                 "eigen.first_eigenpair", "config.build_scenario_instance",
                 "problem.g", "problem.g_prime", "nonlinear.residual",
                 "nonlinear.jacobian", "nonlinear.newton_solve",
                 "continuation.trace_branch", "continuation.detect_fold",
                 "continuation.refine_fold", "continuation.bisect_alpha",
                 "continuation.two_solutions", "subsuper.monotone_iterate",
                 "subsuper.build_supersolution", "verify.e0_norm"):
        m[f"{name}.s"] = _ratio(get(name).s, ops)
    for name in ("nonlinear.residual", "nonlinear.newton_solve",
                 "continuation.trace_branch"):
        m[f"{name}.self_s"] = _ratio(get(name).self_s, ops)

    solves = [s for s in spans if s.name == "grid.solve_tridiagonal" and s.attrs]
    m["grid.solve_tridiagonal.repeat_share"] = _ratio(
        sum(s.attrs["repeat"] for s in solves), len(solves))
    m["grid.solve_tridiagonal.bytes_computed"] = _ratio(
        sum(s.attrs["n"] * 8 * SOLVE_ARRAYS for s in solves), ops)

    eig = [s.attrs["iterations"] for s in spans
           if s.name == "eigen.first_eigenpair" and s.attrs]
    m["eigen.first_eigenpair.iterations"] = _ratio(sum(eig), len(eig))

    newton = get("nonlinear.newton_solve")
    m["nonlinear.newton_solve.fails"] = _ratio(newton.errors, ops)
    m["nonlinear.newton_solve.success_ratio"] = _ratio(
        newton.calls - newton.errors, newton.calls)
    m["nonlinear.newton_solve.residuals_per_call"] = _ratio(
        child_counts(spans, "nonlinear.newton_solve", "nonlinear.residual")[0],
        newton.calls)

    points = [s.attrs["points"] for s in spans
              if s.name == "continuation.trace_branch" and s.attrs]
    m["continuation.trace_branch.points"] = _ratio(sum(points), ops)
    probes, failed = child_counts(spans, "continuation.bisect_alpha",
                                  "nonlinear.newton_solve")
    m["continuation.bisect_alpha.probes"] = _ratio(probes, ops)
    m["continuation.bisect_alpha.failed_probes"] = _ratio(failed, ops)

    mono = get("subsuper.monotone_iterate")
    # each monotone step makes exactly one solve with the shifted operator
    steps = child_counts(spans, "subsuper.monotone_iterate",
                         "grid.solve_tridiagonal")[0]
    m["subsuper.monotone_iterate.iterations"] = _ratio(steps, mono.calls)
    m["subsuper.monotone_iterate.fails"] = _ratio(mono.errors, ops)
    return m
