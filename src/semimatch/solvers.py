"""Load-balancing solvers built on the matching engine.

* ``solve_unweighted``: doubling schedule of capacity-doubled matchings with
  short augmenting paths eliminated; each client adopts the smallest budget
  at which it got matched.  8-approximate for the max load, 24-approximate
  for every l_p norm.  It is ``solve_backup`` with r = 1: both run the one
  schedule of ``unit_schedule``.
* ``solve_weighted_congest``: per-weight-class reduction to the unweighted
  solver (O(log n)-approximate).
* ``solve_weighted_local``: the client-expanded graph's schedule, run on the
  base graph with client capacities w (``unit_schedule``), plus per-class
  capacity-guided re-matching (O(1)-approximate).
* ``split_assignment_seq`` / ``solve_sequential``: blocking-flow schedule
  producing a split assignment, then cycle-cancelling rounding.
* ``solve_backup``: replication-factor variant of the same schedule, with
  client capacity r and simple (multiplicity-1) matchings.

Both schedules, ``unit_schedule`` and ``split_schedule``, are lazy
(B, matching) generators; ``_until_client_perfect`` stops one at its first
client-perfect budget, past which no output changes.  Every solver stops
there.  Draining a schedule (``dict(split_schedule(inst))``) is the one way
to get every budget's matching, as ``--dump-matchings`` writes them;
simulated traces charge the full schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

from .instance import Instance, induced_subinstance, weight_classes
from .matching import (
    CapacityProfile,
    blocking_flow_matching,
    eliminate_short_paths,
    is_client_perfect,
)
from .rounding import SplitAssignment, round_split


class InfeasibleError(Exception):
    """No valid assignment exists (some client cannot be served)."""

    def __init__(self, message: str, client: int | None = None):
        super().__init__(message)
        self.client = client


@dataclass
class LoadVector:
    """Per-server integer loads with l_p-norm evaluation."""

    loads: dict[int, int]

    def norm(self, p) -> float:
        values = list(self.loads.values())
        if not values:
            return 0.0
        if p == math.inf:
            return float(max(values))
        if p == 1:
            return float(sum(values))
        try:
            return sum(v**p for v in values) ** (1.0 / p)
        except OverflowError:  # v**p past the float range: scale by the max
            top = max(values)
            return top * sum((v / top) ** p for v in values) ** (1.0 / p)

    def power_sum(self, p: int) -> int:
        """Sum of p-th powers, exact in integers (for tolerance-free ratio
        checks)."""
        return sum(v**p for v in self.loads.values())

    def max(self) -> int:
        return max(self.loads.values(), default=0)

    def total(self) -> int:
        return sum(self.loads.values())


@dataclass
class Assignment:
    """Total map client -> adjacent server."""

    inst: Instance
    mapping: dict[int, int]

    def __post_init__(self) -> None:
        for c in self.inst.clients:
            s = self.mapping.get(c)
            if s is None:
                raise ValueError(f"client {c} is unassigned")
            if s not in self.inst.client_adj[c]:
                raise ValueError(f"client {c} assigned to non-adjacent server {s}")

    def load_vector(self) -> LoadVector:
        loads = {s: 0 for s in self.inst.servers}
        for c, s in self.mapping.items():
            loads[s] += self.inst.weight[c]
        return LoadVector(loads)


@dataclass
class MultiAssignment:
    """Backup placement output: each client on exactly r distinct servers."""

    inst: Instance
    r: int
    mapping: dict[int, tuple[int, ...]]

    def __post_init__(self) -> None:
        for c in self.inst.clients:
            chosen = self.mapping.get(c)
            if chosen is None or len(chosen) != self.r or len(set(chosen)) != self.r:
                raise ValueError(f"client {c} must be on exactly {self.r} distinct servers")
            for s in chosen:
                if s not in self.inst.client_adj[c]:
                    raise ValueError(f"client {c} placed on non-adjacent server {s}")

    def load_vector(self) -> LoadVector:
        loads = {s: 0 for s in self.inst.servers}
        for c, chosen in self.mapping.items():
            for s in chosen:
                loads[s] += self.inst.weight[c]
        return LoadVector(loads)


def _ceil_log2(x: int) -> int:
    return max(1, (x - 1).bit_length()) if x > 1 else 0


def _check_feasible(inst: Instance, min_degree: int = 1) -> None:
    for c in inst.clients:
        if inst.degree(c) < min_degree:
            raise InfeasibleError(
                f"client {c} has degree {inst.degree(c)} < {min_degree}", client=c
            )


def short_path_bound(n: int) -> int:
    """Augmenting-path length threshold used throughout: 4*ceil(log2 n) + 1."""
    return 4 * _ceil_log2(n) + 1


def b_schedule(limit: int) -> list[int]:
    """Doubling budgets 1, 2, 4, ..., 2^ceil(log2 limit)."""
    return [1 << i for i in range(_ceil_log2(limit) + 1)]


def unit_schedule(inst: Instance, r: int):
    """The doubling schedule of the client-expanded graph, run on the base
    graph, lazily: per budget B of ``b_schedule(n')``, (B, an (r*w, 2B)-matching
    free of augmenting paths of length <= short_path_bound(n')), where
    n' = ``inst.n_expanded``; simple when r > 1 (with r = 1 no cap is needed).

    The expanded graph replaces each client c by w(c) unit-weight copies,
    each with all of c's edges; kappa = w stands for them.  Base edges have no
    cap, so an expanded augmenting path through two copies of one client
    shortcuts to a base path that is no longer.  A base matching with no
    augmenting path of length <= k therefore lifts to an expanded matching
    with none, whichever copies hold the units.  With unit weights n' = n and
    kappa = r: the unit-weight schedule itself.
    """
    k = short_path_bound(inst.n_expanded)
    kappa = {c: r * inst.weight[c] for c in inst.clients}
    edge_cap = None if r == 1 else 1
    for B in b_schedule(inst.n_expanded):
        tau = {s: 2 * B for s in inst.servers}
        yield B, eliminate_short_paths(inst, CapacityProfile(kappa, tau, edge_cap), k)


def split_schedule(inst: Instance):
    """The blocking-flow schedule, lazily: for each budget B, (B, a
    (w, 2B)-matching computed by blocking-flow phases)."""
    phases = 9 * _ceil_log2(inst.n_expanded)
    for B in b_schedule(inst.n * inst.max_weight):
        profile = CapacityProfile(dict(inst.weight), {s: 2 * B for s in inst.servers})
        yield B, blocking_flow_matching(inst, profile, phases)


def _until_client_perfect(inst: Instance, budgets):
    """The matchings of ``budgets`` ((B, matching) pairs in schedule order)
    up to and including the first client-perfect one.  Every client has
    taken its servers by then, so no later budget changes any output."""
    for _, x in budgets:
        yield x
        if is_client_perfect(inst, x):
            return
    raise AssertionError("no budget matching of the schedule is client-perfect")


def _adopt(inst: Instance, budgets, r: int) -> dict[int, tuple[int, ...]]:
    """Client -> its matched servers, ascending, at the smallest budget at
    which it is matched r times."""
    chosen: dict[int, tuple[int, ...]] = {}
    for x in _until_client_perfect(inst, budgets):
        for c in inst.clients:
            if c not in chosen and x.client_deg[c] == r:
                chosen[c] = tuple(s for s in inst.client_adj[c] if (c, s) in x.mult)
    return chosen


def solve_unweighted(inst: Instance) -> Assignment:
    """Doubling-budget unweighted solver: the doubling schedule with r = 1,
    each client on the server it got at the smallest budget at which it is
    matched."""
    if not inst.is_unit_weight():
        raise ValueError("solve_unweighted requires unit weights")
    _check_feasible(inst)
    chosen = _adopt(inst, unit_schedule(inst, 1), 1)
    return Assignment(inst, {c: s for c, (s,) in chosen.items()})


def _per_class(inst: Instance, solve_class) -> dict[int, tuple[int, ...]]:
    """The per-weight-class reduction.

    Calls ``solve_class(view, sub)`` on each class's induced sub-instance
    (``view.clients`` then ``view.servers`` relabelled densely, treated as
    unit weight).  It returns sub client -> the sub servers chosen for it;
    this returns base client -> the base servers chosen for it, ascending.
    """
    chosen: dict[int, tuple[int, ...]] = {}
    for view in weight_classes(inst):
        first = len(view.clients)  # sub id of view.servers[0]
        for c, servers in solve_class(view, induced_subinstance(view)).items():
            chosen[view.clients[c]] = tuple(sorted(view.servers[s - first] for s in servers))
    return chosen


def solve_weighted_congest(inst: Instance) -> Assignment:
    """Per-weight-class reduction: run the unweighted solver's schedule on
    each class subgraph (clients treated as unit weight) and combine."""
    _require_normalized(inst)
    _check_feasible(inst)
    chosen = _per_class(inst, lambda view, sub: _adopt(sub, unit_schedule(sub, 1), 1))
    return Assignment(inst, {c: s for c, (s,) in chosen.items()})


def solve_weighted_local(inst: Instance) -> Assignment:
    """The expanded schedule followed by per-class re-matching.

    First places every client's w(c) units by ``unit_schedule(inst, 1)``, the
    unweighted solver's schedule on the client-expanded graph; then, per
    weight class, converts the restricted loads into server capacities,
    doubles them (scaled by the class weight), and computes a short-path-free
    unit matching whose client-perfectness is guaranteed structurally.
    """
    _require_normalized(inst)
    _check_feasible(inst)
    k = short_path_bound(inst.n_expanded)
    # units the expanded schedule places per (class weight, server)
    restricted: dict[tuple[int, int], int] = {}
    for (c, s), units in _split(inst, unit_schedule(inst, 1)).mult.items():
        key = (inst.weight[c], s)
        restricted[key] = restricted.get(key, 0) + units

    def solve_class(view, sub):
        wi = view.class_weight
        # tau_i(s) = restricted load + wi where the class has load, else 0
        sub_tau = {sub_s: 2 * math.ceil((restricted[wi, s] + wi) / wi)
                   if (wi, s) in restricted else 0
                   for sub_s, s in zip(sub.servers, view.servers)}
        profile = CapacityProfile({c: 1 for c in sub.clients}, sub_tau)
        x = eliminate_short_paths(sub, profile, k)
        if not is_client_perfect(sub, x):
            raise AssertionError(f"class {view.class_index} matching not client-perfect; "
                                 "engine bug")
        return {c: (s,) for c, s in x.mult}

    return Assignment(inst, {c: s for c, (s,) in _per_class(inst, solve_class).items()})


def _split(inst: Instance, budgets) -> SplitAssignment:
    """Client c receives units per budget according to the growth of its
    running-maximum matched degree, drawn from its matched servers at that
    budget (preferring servers already holding units of c, then ascending
    id).

    Budgets run on the outside, each matching read once: the clients whose
    matched degree passed their running maximum (``placed``, per client id)
    take their new units from their matched edges in ascending edge order,
    edges already in ``mult`` first.  The edges stay (c, s) keys: the
    matchings arrive keyed so, and turning each key into an edge id costs a
    bisection that the flat state would not win back.
    """
    placed = [0] * inst.n
    mult: dict[tuple[int, int], int] = {}
    for x in _until_client_perfect(inst, budgets):
        deg = x.client_deg
        grown = sorted((e, units) for e, units in x.mult.items() if deg[e[0]] > placed[e[0]])
        for c, slots in groupby(grown, key=lambda slot: slot[0][0]):
            alloc = deg[c] - placed[c]
            # a stable sort keeps ascending order within used and unused edges
            for e, units in sorted(slots, key=lambda slot: slot[0] not in mult):
                take = min(units, alloc)
                mult[e] = mult.get(e, 0) + take
                placed[c] += take
                alloc -= take
                if alloc == 0:
                    break
    for c in inst.clients:
        if placed[c] != inst.weight[c]:
            raise AssertionError(f"client {c} placed {placed[c]} of {inst.weight[c]} units")
    return SplitAssignment(inst, mult)


def split_assignment_seq(inst: Instance) -> SplitAssignment:
    """Blocking-flow schedule producing a split assignment (see ``_split``)."""
    _require_normalized(inst)
    _check_feasible(inst)
    return _split(inst, split_schedule(inst))


def solve_sequential(inst: Instance) -> Assignment:
    """Near-linear sequential solver: split assignment + rounding."""
    return round_split(inst, split_assignment_seq(inst))


def solve_backup(inst: Instance, r: int) -> MultiAssignment:
    """Backup placement with replication factor r.

    Runs the doubling schedule with client capacity r: simple (multiplicity
    <= 1) matchings with server capacity 2B; each client adopts the smallest
    B at which it is matched exactly r times, ignoring budgets with partial
    matches.  Weighted instances are routed through the per-class reduction.
    """
    if r < 1:
        raise ValueError("replication factor must be >= 1")
    _check_feasible(inst, min_degree=r)
    if inst.is_unit_weight():
        chosen = _adopt(inst, unit_schedule(inst, r), r)
    else:
        _require_normalized(inst)
        chosen = _per_class(inst, lambda view, sub: _adopt(sub, unit_schedule(sub, r), r))
    return MultiAssignment(inst, r, chosen)


def _require_normalized(inst: Instance) -> None:
    if not inst.is_normalized():
        raise ValueError(
            "instance weights must be power-of-two normalized; call normalize_weights"
        )
