"""Span tracing of the semimatch layers, from outside the package.

Each traced function is replaced by a wrapper wherever a module of the
package holds a reference to it (its defining module, every module that
imported it by name, and the package namespace), so calls through any of
those names are recorded.  A span is (id, name, start, end, parent,
operation id) plus the counts taken from the call's arguments and return
value.  The time spent taking counts is stored with the span and excluded
from every self time.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager


def _matching_units(args, kwargs, result, prefix):
    units = sum(result.client_deg.values())
    return {
        f"{prefix}.units": units,
        # client degrees never exceed kappa, so equal sums mean client-perfect
        "_perfect": int(units == sum(result.profile.kappa.values())),
    }


def _blocking_flow_counts(args, kwargs, result):
    return _matching_units(args, kwargs, result, "matching.blocking_flow")


def _eliminate_counts(args, kwargs, result):
    return _matching_units(args, kwargs, result, "matching.eliminate_short_paths")


def _cancel_cycles_counts(args, kwargs, result):
    mult = args[1] if len(args) > 1 else kwargs["mult"]
    return {
        "rounding.support_edges_in": sum(1 for x in mult.values() if x > 0),
        "rounding.support_edges_out": len(result),
    }


def _client_expand_counts(args, kwargs, result):
    return {"instance.client_expand.copies": len(result.copy_of)}


def _simulation_counts(args, kwargs, result):
    trace = result[1]
    return {
        "simulate.messages": len(trace.messages),
        "simulate.charged_rounds": trace.charged_rounds,
    }


# (module, function, span name, counter).  The metric of a span is its
# name + "_s" (self seconds per operation).
TRACED = (
    ("instance", "generate_instance", "instance.generate", None),
    ("instance", "normalize_weights", "instance.normalize", None),
    ("instance", "weight_classes", "instance.weight_classes", None),
    ("instance", "induced_subinstance", "instance.induced_subinstance", None),
    ("instance", "client_expand", "instance.client_expand", _client_expand_counts),
    ("instance", "read_instance", "instance.read", None),
    ("instance", "write_instance", "instance.write", None),
    ("matching", "blocking_flow_matching", "matching.blocking_flow", _blocking_flow_counts),
    ("matching", "eliminate_short_paths", "matching.eliminate_short_paths", _eliminate_counts),
    ("rounding", "cancel_cycles", "rounding.cancel_cycles", _cancel_cycles_counts),
    ("rounding", "star_round", "rounding.star_round", None),
    ("solvers", "split_assignment_seq", "solvers.split_assembly", None),
    ("solvers", "solve_unweighted", "solvers.solve_unweighted", None),
    ("solvers", "solve_weighted_congest", "solvers.weighted_congest", None),
    ("solvers", "solve_weighted_local", "solvers.weighted_local", None),
    ("simulate", "run_simulation", "simulate.run_simulation", _simulation_counts),
    ("cli", "cmd_solve", "cli.solve", None),
    ("cli", "cmd_verify", "cli.verify", None),
    ("oracle", "opt_split", "oracle.opt_split", None),
)

PACKAGE = "semimatch"
ROOT_SPAN = "bench.op"
# spans whose calls and units are reported, and the parents under which each
# call solves one budget of a doubling schedule
BUDGET_SPANS = ("matching.blocking_flow", "matching.eliminate_short_paths")
SCHEDULE_PARENTS = ("solvers.split_assembly", "solvers.solve_unweighted")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "count_ns", "counts")

    def __init__(self, id_, name, start, parent, op):
        self.id = id_
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.count_ns = 0
        self.counts = {}

    def as_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start_ns": self.start, "end_ns": self.end,
            "parent": self.parent, "op": self.op, "count_ns": self.count_ns,
            "counts": self.counts,
        }


class Tracer:
    """Records spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _open(self, name: str, op) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter_ns(),
                    parent.id if parent else None, op if parent is None else parent.op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, None)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    t0 = time.perf_counter_ns()
                    span.counts = counter(args, kwargs, result)
                    span.count_ns = time.perf_counter_ns() - t0
            finally:
                tracer._close(span)
            return result

        return traced

    @contextmanager
    def operation(self, op_id: str):
        """Trace one operation: install the wrappers, open its root span,
        and restore every original reference afterwards."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        wrappers = {}
        for mod_name, fn_name, span_name, counter in TRACED:
            # a module the workload never imports, or a function it no longer
            # has, leaves that span's metrics at 0
            fn = getattr(sys.modules.get(f"{PACKAGE}.{mod_name}"), fn_name, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, self._wrap(span_name, fn, counter))
        patched = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, value))
        root = self._open(ROOT_SPAN, op_id)
        try:
            yield
        finally:
            self._close(root)
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.as_dict() for s in self.spans], fh)
            fh.write("\n")


def self_times(spans: list[Span]) -> list[int]:
    """Per span: duration minus the time its child spans cover, minus the
    time spent taking its counts (ns).  One thread records the spans, so
    children nest inside their parent and never overlap each other."""
    own = [(s.end - s.start) - s.count_ns for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def per_operation(spans: list[Span]) -> dict[str, dict]:
    """Operation id -> {"self_s": {span name: seconds}, "counts": {...}}.

    Counts hold every span's call count, the summed counter values, and the
    budget schedule tallies behind matching.redundant_budget_share.
    """
    own = self_times(spans)
    ops: dict[str, dict] = {}
    perfect_seen: set[int] = set()
    for s in spans:  # spans are in start order
        op = ops.setdefault(s.op, {"self_s": {}, "counts": {}})
        op["self_s"][s.name] = op["self_s"].get(s.name, 0.0) + own[s.id] / 1e9
        counts = op["counts"]
        counts[f"{s.name}.calls"] = counts.get(f"{s.name}.calls", 0) + 1
        for key, value in s.counts.items():
            if not key.startswith("_"):
                counts[key] = counts.get(key, 0) + value
        parent = spans[s.parent] if s.parent is not None else None
        if s.name in BUDGET_SPANS and parent is not None and parent.name in SCHEDULE_PARENTS:
            counts["budgets"] = counts.get("budgets", 0) + 1
            if parent.id in perfect_seen:
                counts["budgets_redundant"] = counts.get("budgets_redundant", 0) + 1
            if s.counts.get("_perfect"):
                perfect_seen.add(parent.id)
    return ops


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
