"""Outside-in tracing of the ossmax layers.

The package's modules are the layers.  Tracing wraps, from outside the
package, the instance methods of the objective and polytope objects and the
module attributes of ``ossmax.solvers`` that the solvers look up at call
time.  Each call becomes an in-memory span (name, start, end, parent, root);
a root is one solve or one reference computation opened by the harness.
Nothing is wrapped outside :func:`installed`, so untraced solves run the
package untouched.

A span's busy time is its self time: its duration minus the durations of
its direct children, so a nested call (``opt_bounds`` calling ``value``,
``grid_maximum`` calling ``value_many``) counts once, toward the innermost
span that did the work.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import ossmax.solvers


def _rows(args, result) -> int:
    return len(args[0])


def _members(args, result) -> int:
    return int(result.members.size)


# (attribute, span name, size of one call)
OBJECTIVE_METHODS = (
    ("value", "objectives.value", None),
    ("gradient", "objectives.gradient", None),
    ("value_many", "objectives.value_many", _rows),
)
POLYTOPE_METHODS = (
    ("contains", "polytopes.contains", None),
    ("contains_many", "polytopes.contains_many", _rows),
)
SOLVER_ATTRIBUTES = (
    ("select_directions", "solvers.select_directions", _members),
    ("opt_bounds", "polytopes.opt_bounds", None),
    ("grid_maximum", "solvers.grid_maximum", None),
)

# per-layer metrics in output order: medians over solves, then over grid
# references, then whole-run figures
SOLVE_METRICS = (
    "objectives.gradient.calls",
    "objectives.gradient.busy_s",
    "objectives.value.calls",
    "objectives.value.busy_s",
    "polytopes.contains.calls",
    "polytopes.contains.busy_s",
    "polytopes.contains_many.calls",
    "polytopes.contains_many.rows",
    "polytopes.contains_many.busy_s",
    "polytopes.opt_bounds.busy_s",
    "solvers.select_directions.calls",
    "solvers.select_directions.busy_s",
    "solvers.select_directions.empty_frac",
    "solvers.select_directions.members_mean",
    "solvers.self_s",
    "solvers.steps",
    "solvers.outer_rounds",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # None for a root span
    root: int
    size: int = 0


class Tracer:
    """Records spans in memory; one tracer per benchmark run."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def _call(self, name: str, fn: Callable, size: Optional[Callable], args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self.spans[self._stack[0]].root if self._stack else index
        span = Span(name, 0.0, 0.0, parent, root)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if size is not None:
            span.size = size(args, result)
        return result

    def wrap(self, name: str, fn: Callable, size: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, size, args, kwargs)

        return traced

    def root(self, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` as a new root span; returns (result, root index)."""
        index = len(self.spans)
        return self._call(name, fn, None, args, {}), index


@contextmanager
def installed(tracer: Tracer, objective, polytope):
    """Wrap the layer entry points for the duration of the block."""
    for target, table in ((objective, OBJECTIVE_METHODS), (polytope, POLYTOPE_METHODS)):
        for attr, name, size in table:
            setattr(target, attr, tracer.wrap(name, getattr(target, attr), size))
    originals = {attr: getattr(ossmax.solvers, attr) for attr, _, _ in SOLVER_ATTRIBUTES}
    for attr, name, size in SOLVER_ATTRIBUTES:
        setattr(ossmax.solvers, attr, tracer.wrap(name, originals[attr], size))
    try:
        yield
    finally:
        for attr, original in originals.items():
            setattr(ossmax.solvers, attr, original)
        for target, table in ((objective, OBJECTIVE_METHODS), (polytope, POLYTOPE_METHODS)):
            for attr, _, _ in table:
                delattr(target, attr)


def _self_times(spans: List[Span]) -> List[float]:
    busy = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            busy[s.parent] -= s.end - s.start
    return busy


def _root_totals(spans: List[Span], busy: List[float]) -> Dict[int, Dict[str, float]]:
    totals: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        t = totals[s.root]
        if s.parent is None:
            t["root.self_s"] += busy[i]
            continue
        t[f"{s.name}.calls"] += 1
        t[f"{s.name}.busy_s"] += busy[i]
        t[f"{s.name}.size"] += s.size
        t[f"{s.name}.empty"] += s.size == 0
        if s.parent == s.root and s.name == "objectives.value":
            t["probes"] += 1
    return totals


def span_calls(tracer: Tracer, root: int, name: str) -> int:
    """Spans named ``name`` anywhere under ``root``."""
    return sum(1 for s in tracer.spans if s.root == root and s.name == name and s.parent is not None)


def _solve_row(t: Dict[str, float], steps: int, outer: int) -> Dict[str, float]:
    scans = t["solvers.select_directions.calls"]
    row = {name: t[name] for name in SOLVE_METRICS}
    row["polytopes.contains_many.rows"] = t["polytopes.contains_many.size"]
    row["solvers.select_directions.empty_frac"] = t["solvers.select_directions.empty"] / scans if scans else 0.0
    row["solvers.select_directions.members_mean"] = t["solvers.select_directions.size"] / scans if scans else 0.0
    row["solvers.self_s"] = t["root.self_s"]
    row["solvers.steps"] = steps
    row["solvers.outer_rounds"] = outer
    return row


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(
    tracer: Tracer,
    solves: List[Tuple[int, int, int]],
    references: List[int],
    untraced_solve_s: List[float],
    traced_solve_s: List[float],
) -> Dict[str, float]:
    """Per-layer metrics: medians over solve roots, or over reference roots.

    ``solves`` holds ``(root index, steps, outer rounds)`` per traced solve.
    ``solvers.value_probes_per_step`` is the solver's own value calls (not
    those inside ``opt_bounds``) over all accepted steps of the run.
    """
    totals = _root_totals(tracer.spans, _self_times(tracer.spans))
    rows = [_solve_row(totals[root], steps, outer) for root, steps, outer in solves]
    metrics = {name: _median([row[name] for row in rows]) for name in SOLVE_METRICS}
    metrics["objectives.value_many.rows"] = _median([totals[r]["objectives.value_many.size"] for r in references])
    metrics["objectives.value_many.busy_s"] = _median([totals[r]["objectives.value_many.busy_s"] for r in references])
    metrics["solvers.grid_maximum.busy_s"] = _median([totals[r]["solvers.grid_maximum.busy_s"] for r in references])
    steps = sum(steps for _, steps, _ in solves)
    probes = sum(totals[root]["probes"] for root, _, _ in solves)
    metrics["solvers.value_probes_per_step"] = probes / steps if steps else 0.0
    metrics["trace.overhead_s"] = _median(traced_solve_s) - _median(untraced_solve_s)
    return metrics
