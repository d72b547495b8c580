"""Round and message accounting for CONGEST/LOCAL executions.

The matching primitive itself runs centrally; each of its invocations is
charged the published round formula (k^3 * ceil(log2 n) in CONGEST,
k^2 * ceil(log2 n) in LOCAL, constants 1).  Budget-schedule phases run
sequentially and sum; parallel class/budget phases take the maximum.  Final
assignment announcements are explicitly simulated as one ceil(log2 n)-bit
message per assigned edge, riding in the last charged round so that the total
charge matches the closed-form budget exactly.

``REGISTRY`` is the one table of the suite's algorithms; the CLI, its bench
and ``run_simulation`` all dispatch through it.  Each distributed entry names
its model, which fixes the per-edge bandwidth of a trace: 32 * ceil(log2 n)
bits per message in CONGEST, unbounded in LOCAL, checked when a trace is
verified (``verify_message_budget``), not by ``emit``.  ``check_budget`` is
the verdict ``verify --check budget`` prints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from .instance import Instance, InstanceError, _ceil_log2, normalize_weights
from .solvers import (
    b_schedule,
    short_path_bound,
    solve_backup,
    solve_sequential,
    solve_unweighted,
    solve_weighted_congest,
    solve_weighted_local,
    split_schedule,
    unit_schedule,
)


@dataclass
class SimTrace:
    """Audit record: per-phase charged rounds plus explicitly simulated
    messages."""

    algorithm: str
    n: int
    n_expanded: int
    charged_rounds: int = 0
    phases: list[dict] = field(default_factory=list)
    messages: list[dict] = field(default_factory=list)

    def charge(self, label: str, rounds: int) -> None:
        self.phases.append({"label": label, "rounds": rounds})
        self.charged_rounds += rounds

    def emit(self, round_index: int, edge: tuple[int, int], bits: int) -> None:
        self.messages.append({"round": round_index, "edge": list(edge), "bits": bits})

    def to_json(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "nExpanded": self.n_expanded,
            "chargedRounds": self.charged_rounds,
            "phases": self.phases,
            "simulatedMessages": self.messages,
        }

    @classmethod
    def from_json(cls, doc) -> "SimTrace":
        """The trace ``to_json`` wrote, checked field by field in one pass;
        ``InstanceError`` names the first field of the wrong shape, missing
        or unknown."""
        _check_fields("trace", doc, _TRACE_FIELDS)
        for i, phase in enumerate(doc["phases"]):
            _check_fields(f"trace phases[{i}]", phase, _PHASE_FIELDS)
        for i, msg in enumerate(doc["simulatedMessages"]):
            _check_fields(f"trace simulatedMessages[{i}]", msg, _MESSAGE_FIELDS)
            if len(msg["edge"]) != 2 or any(type(v) is not int for v in msg["edge"]):
                raise InstanceError(f"trace simulatedMessages[{i}].edge must be "
                                    f"[int, int], got {msg['edge']!r}")
        return cls(doc["algorithm"], doc["n"], doc["nExpanded"], doc["chargedRounds"],
                   doc["phases"], doc["simulatedMessages"])

    def write(self, path) -> None:
        """Write ``json.dumps(self.to_json(), indent=1)`` and a newline, in
        one string: the head through ``json.dumps``, then each message, the
        ``emit`` record of ints, from ``_MESSAGE_TEXT``."""
        doc = self.to_json()
        messages = ",\n".join([_MESSAGE_TEXT % (msg["round"], *msg["edge"], msg["bits"])
                                for msg in doc.pop("simulatedMessages")])
        head = json.dumps(doc, indent=1)[:-2]  # without its closing "\n}"
        tail = f"[\n{messages}\n ]" if messages else "[]"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f'{head},\n "simulatedMessages": {tail}\n}}\n')


# one message of a trace as json.dumps(..., indent=1) lays it out, two levels deep
_MESSAGE_TEXT = """  {
   "round": %d,
   "edge": [
    %d,
    %d
   ],
   "bits": %d
  }"""


# key -> exact type of each field of a trace file's objects (ints exclude bools)
_TRACE_FIELDS = {"algorithm": str, "n": int, "nExpanded": int, "chargedRounds": int,
                 "phases": list, "simulatedMessages": list}
_PHASE_FIELDS = {"label": str, "rounds": int}
_MESSAGE_FIELDS = {"round": int, "edge": list, "bits": int}


def _check_fields(where: str, obj, fields: dict) -> None:
    if not isinstance(obj, dict):
        raise InstanceError(f"{where} must be an object, got {type(obj).__name__}")
    for key, kind in fields.items():
        if key not in obj:
            raise InstanceError(f"{where}.{key} is missing")
        if type(obj[key]) is not kind:
            raise InstanceError(f"{where}.{key} must be of type {kind.__name__}, "
                                f"got {obj[key]!r}")
    if len(obj) > len(fields):  # every field is present, so some key is not one
        extra = next(key for key in obj if key not in fields)
        raise InstanceError(f"{where}: unknown field {extra!r}")


def _congest_charge(n: int) -> int:
    return short_path_bound(n) ** 3 * _ceil_log2(n)


def _local_charge(n: int) -> int:
    return short_path_bound(n) ** 2 * _ceil_log2(n)


def _per_budget(suffix: str):
    """Charges of a doubling-schedule algorithm: one CONGEST matching per
    budget.  ``suffix`` ends each phase label and may name ``{r}``."""
    return lambda n, n_expanded, r: [
        (f"matching B={B}{suffix.format(r=r)}", _congest_charge(n)) for B in b_schedule(n)
    ]


def _local_phases(n: int, n_expanded: int, r) -> list[tuple[str, int]]:
    return [
        ("expanded emulation (max over parallel budgets)", _local_charge(n_expanded)),
        ("per-class re-matching (max over parallel classes)", _local_charge(n)),
    ]


@dataclass(frozen=True)
class Algorithm:
    """One algorithm of the suite and everything its callers need to know.

    ``solve(inst, r)`` returns the result and stops at the first
    client-perfect budget; ``schedule(inst)``, where set, yields the (budget,
    matching) pairs of the schedule the solve runs, every budget included.
    The table's entries call their solvers through this module's globals at
    call time, so a caller that rebinds those names (a tracer, a test spy)
    sees every call.
    """

    name: str  # CLI --algo
    trace_id: str  # algorithm id in traces and round budgets
    solve: Callable
    model: str | None = None  # CONGEST or LOCAL; None for a sequential algorithm
    phases: Callable | None = None  # (n, n_expanded, r) -> [(label, charged rounds)]
    unit_weights: bool = False  # unit weights only, else power-of-two normalized
    schedule: Callable | None = None  # inst -> lazy (budget, matching) pairs
    takes_r: bool = False  # needs a replication factor r

    def prepare(self, inst: Instance) -> tuple[Instance, bool]:
        """The instance this algorithm accepts, and whether it was
        normalized to get it."""
        if self.unit_weights:
            if not inst.is_unit_weight():
                raise ValueError(
                    f"{self.name} requires unit weights; normalize and use "
                    "congest-weighted (or local-weighted) for weighted instances"
                )
            return inst, False
        if inst.is_normalized():
            return inst, False
        return normalize_weights(inst), True

    def check_request(self, simulate: bool, r: int | None) -> None:
        if simulate and self.model is None:
            raise ValueError(f"{self.name} is a sequential algorithm; nothing to simulate")
        if self.takes_r and r is None:
            raise ValueError(f"{self.name} requires a replication factor r (--r)")


REGISTRY = (
    Algorithm("seq", "seq", lambda inst, r: solve_sequential(inst),
              schedule=lambda inst: split_schedule(inst)),
    Algorithm("congest-unweighted", "congest-unweighted", lambda inst, r: solve_unweighted(inst),
              "CONGEST", _per_budget(""), unit_weights=True,
              schedule=lambda inst: unit_schedule(inst, 1)),
    # classes run in parallel over edge-disjoint subgraphs; every class
    # executes the full budget schedule, so the maximum equals one
    # schedule's worth of charges
    Algorithm("congest-weighted", "congest-weighted", lambda inst, r: solve_weighted_congest(inst),
              "CONGEST", _per_budget(" (max over parallel classes)")),
    Algorithm("local-weighted", "local-weighted", lambda inst, r: solve_weighted_local(inst),
              "LOCAL", _local_phases),
    Algorithm("backup", "congest-backup", lambda inst, r: solve_backup(inst, r),
              "CONGEST", _per_budget(" r={r}"), takes_r=True),
)
_BY_NAME = {a.name: a for a in REGISTRY}
_SIMULATED = {a.trace_id: a for a in REGISTRY if a.model is not None}
ALGORITHMS = tuple(_SIMULATED)


def by_name(name: str) -> Algorithm:
    """The algorithm named ``name`` on the CLI."""
    if name not in _BY_NAME:
        raise ValueError(f"unknown algorithm {name!r}")
    return _BY_NAME[name]


def simulated(algorithm: str) -> Algorithm:
    """The distributed algorithm with trace id ``algorithm``."""
    if algorithm not in _SIMULATED:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return _SIMULATED[algorithm]


def round_budget(algorithm: str, n: int, n_expanded: int | None = None) -> int:
    """Closed-form round budget with explicit constants.

    ``n_expanded`` is the client-expanded vertex count, needed only for
    local-weighted (defaults to n, exact for unit weights).
    """
    logn = _ceil_log2(n)
    if simulated(algorithm).model == "CONGEST":
        return (logn + 1) * _congest_charge(n)
    # LOCAL: parallel-budget emulation phase on the expanded graph plus the
    # parallel per-class phase on the base graph
    nt = n_expanded if n_expanded is not None else n
    return _local_charge(nt) + _local_charge(n)


def run_simulation(inst: Instance, algorithm: str, r: int | None = None):
    """Execute a solver under round accounting, in the model the algorithm's
    table entry names; ``r`` is required by congest-backup only.

    Returns (result, SimTrace).  The result is identical to the direct solver
    call; only the accounting differs.
    """
    algo = simulated(algorithm)
    algo.check_request(True, r)

    n = inst.n
    trace = SimTrace(algorithm, n, inst.n_expanded)
    msg_bits = _ceil_log2(max(2, n))

    result = algo.solve(inst, r)
    for label, rounds in algo.phases(n, trace.n_expanded, r):
        trace.charge(label, rounds)

    # announcement: each client tells its chosen server(s); piggybacks on the
    # final charged round (charged 0 additional rounds)
    trace.charge("announce", 0)
    final_round = trace.charged_rounds
    for c, chosen in sorted(result.mapping.items()):
        for s in (chosen if algo.takes_r else (chosen,)):
            trace.emit(final_round, (c, s), msg_bits)
    return result, trace


def verify_message_budget(trace: SimTrace) -> bool:
    """True iff every explicitly simulated message fits the per-edge
    bandwidth of the traced algorithm's model."""
    if simulated(trace.algorithm).model == "LOCAL":
        return True
    limit = 32 * _ceil_log2(max(2, trace.n))
    return all(msg["bits"] <= limit for msg in trace.messages)


def check_budget(trace: SimTrace, inst: Instance) -> dict:
    """The verdict ``verify --check budget`` prints: ``pass`` iff the trace's
    charge, ``round_budget`` and its phase sum agree, its messages fit the
    bandwidth, its sizes are those of ``inst`` as its algorithm prepares it
    and its announcements are those ``run_simulation`` makes on that
    instance (see ``_announcement_fault``); ``expected_rounds``; and the
    ``reason`` it fails, where one is named.

    A trace relabelled to another algorithm of the same model, sizes and
    closed form still passes: nothing in a trace and an instance tells
    which algorithm made it."""
    algo = simulated(trace.algorithm)
    expected = round_budget(trace.algorithm, trace.n, trace.n_expanded)
    work, _ = algo.prepare(inst)
    solved = {"n": work.n, "nExpanded": work.n_expanded}
    traced = {"n": trace.n, "nExpanded": trace.n_expanded}
    phase_sum = sum(p["rounds"] for p in trace.phases)
    fault = _announcement_fault(trace, work, algo.takes_r)
    verdict = {"pass": (trace.charged_rounds == expected == phase_sum
                        and verify_message_budget(trace) and traced == solved
                        and fault is None),
               "expected_rounds": expected}
    if traced != solved:
        verdict["reason"] = f"trace of another instance: {traced}, instance {solved}"
    elif phase_sum != trace.charged_rounds:
        verdict["reason"] = (f"phase rounds sum to {phase_sum}, "
                             f"trace charges {trace.charged_rounds}")
    elif fault is not None:
        verdict["reason"] = fault
    return verdict


def _announcement_fault(trace: SimTrace, inst: Instance, takes_r: bool) -> str | None:
    """The first way the trace's announcements differ from those of a
    solve of ``inst``, or None: each message must lie on an edge of
    ``inst`` and ride in round ``charged_rounds``, no edge may be announced
    twice, and every client must announce once, or with ``takes_r`` as
    often as the first client and at least once."""
    announced = dict.fromkeys(inst.clients, 0)
    seen = set()  # the edge ids announced so far
    for i, msg in enumerate(trace.messages):
        c, s = edge = msg["edge"]
        e = inst.edge_id(c, s)
        if e is None:
            return f"message {i} on {edge}, not an edge of the instance"
        if msg["round"] != trace.charged_rounds:
            return (f"message {i} in round {msg['round']}, "
                    f"not the final charged round {trace.charged_rounds}")
        if e in seen:
            return f"edge {edge} announced twice"
        seen.add(e)
        announced[c] += 1
    first = next(iter(announced.values()), 1)
    times = first if takes_r and first else 1
    c = next((c for c, k in announced.items() if k != times), None)
    if c is not None:
        return f"client {c} made {announced[c]} announcements, expected {times}"
    return None
