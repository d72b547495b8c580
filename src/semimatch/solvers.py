"""Load-balancing solvers built on the matching engine.

* ``solve_unweighted``: doubling schedule of capacity-doubled matchings with
  short augmenting paths eliminated; each client adopts the smallest budget
  at which it got matched.  8-approximate for the max load, 24-approximate
  for every l_p norm.
* ``solve_weighted_congest``: per-weight-class reduction to the unweighted
  solver (O(log n)-approximate).
* ``solve_weighted_local``: client-expansion emulation plus per-class
  capacity-guided re-matching (O(1)-approximate).
* ``split_assignment_seq`` / ``solve_sequential``: blocking-flow schedule
  producing a split assignment, then cycle-cancelling rounding.
* ``solve_backup``: replication-factor variant with simple (multiplicity-1)
  matchings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .instance import (
    Instance,
    client_expand,
    induced_subinstance,
    weight_classes,
)
from .matching import (
    CapacityProfile,
    CapMatching,
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
        if p == math.inf or p == "inf":
            return float(max(values))
        if p == 1:
            return float(sum(values))
        return sum(v**p for v in values) ** (1.0 / p)

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


def solve_unweighted(
    inst: Instance,
) -> tuple[Assignment, dict[int, CapMatching]]:
    """Doubling-budget unweighted solver.

    For each budget B, computes a (1, 2B)-matching free of augmenting paths
    of length <= 4*ceil(log2 n) + 1; each client assigns itself according to
    the smallest B at which it is matched.
    """
    if not inst.is_unit_weight():
        raise ValueError("solve_unweighted requires unit weights")
    _check_feasible(inst)
    k = short_path_bound(inst.n)
    matchings: dict[int, CapMatching] = {}
    mapping: dict[int, int] = {}
    for B in b_schedule(inst.n):
        profile = CapacityProfile.uniform(inst, kappa=1, tau=2 * B)
        x = eliminate_short_paths(inst, profile, k)
        matchings[B] = x
        for (c, s), v in x.mult.items():
            if v > 0 and c not in mapping:
                mapping[c] = s
    final = matchings[max(matchings)]
    if not is_client_perfect(inst, final):
        raise AssertionError("final budget matching must be client-perfect")
    return Assignment(inst, mapping), matchings


def _per_class(inst: Instance, solve_class) -> dict[int, tuple[int, ...]]:
    """The per-weight-class reduction.

    Calls ``solve_class(view, sub, smap)`` on each class's induced
    sub-instance (clients relabelled densely and treated as unit weight;
    ``smap`` maps base server ids to sub ids).  It returns sub client ->
    the sub servers chosen for it; this returns base client -> the base
    servers chosen for it, ascending.
    """
    chosen: dict[int, tuple[int, ...]] = {}
    for view in weight_classes(inst):
        sub, cmap, smap = induced_subinstance(inst, view.clients, view.servers)
        inv_c = {v: k for k, v in cmap.items()}
        inv_s = {v: k for k, v in smap.items()}
        for c, servers in solve_class(view, sub, smap).items():
            chosen[inv_c[c]] = tuple(sorted(inv_s[s] for s in servers))
    return chosen


def solve_weighted_congest(inst: Instance) -> Assignment:
    """Per-weight-class reduction: run the unweighted solver on each class
    subgraph (clients treated as unit weight) and combine."""
    _require_normalized(inst)
    _check_feasible(inst)

    def solve_class(view, sub, smap):
        return {c: (s,) for c, s in solve_unweighted(sub)[0].mapping.items()}

    return Assignment(inst, {c: s for c, (s,) in _per_class(inst, solve_class).items()})


def solve_weighted_local(inst: Instance) -> Assignment:
    """Client-expansion emulation followed by per-class re-matching.

    First solves the unweighted problem on the client-expanded graph; then,
    per weight class, converts the restricted loads into server capacities,
    doubles them (scaled by the class weight), and computes a short-path-free
    unit matching whose client-perfectness is guaranteed structurally.
    """
    _require_normalized(inst)
    _check_feasible(inst)
    exp = client_expand(inst)
    tilde_a, _ = solve_unweighted(exp.instance)
    n_tilde = exp.instance.n

    def solve_class(view, sub, smap):
        class_clients = set(view.clients)
        # loads of the expanded assignment restricted to this class's copies
        restricted: dict[int, int] = {s: 0 for s in inst.servers}
        for cid, s_exp in tilde_a.mapping.items():
            base_c, _ = exp.copy_of[cid]
            if base_c in class_clients:
                restricted[exp.server_unmap[s_exp]] += 1
        wi = view.class_weight
        tau_i = {
            s: (restricted[s] + wi if restricted[s] > 0 else 0) for s in view.servers
        }
        sub_tau = {smap[s]: 2 * math.ceil(tau_i[s] / wi) if tau_i[s] > 0 else 0
                   for s in view.servers}
        profile = CapacityProfile({c: 1 for c in sub.clients}, sub_tau)
        x = eliminate_short_paths(sub, profile, short_path_bound(n_tilde))
        if not is_client_perfect(sub, x):
            raise AssertionError(
                f"class {view.class_index} matching not client-perfect; engine bug"
            )
        return {c: (s,) for (c, s), v in x.mult.items() if v > 0}

    return Assignment(inst, {c: s for c, (s,) in _per_class(inst, solve_class).items()})


def split_assignment_seq(
    inst: Instance,
) -> tuple[SplitAssignment, dict[int, CapMatching]]:
    """Blocking-flow schedule producing a split assignment.

    For each budget B, computes a (w, 2B)-matching via blocking-flow phases;
    client c then receives units per budget according to the growth of its
    running-maximum matched degree, drawn from its matched servers at that
    budget (preferring servers already holding units of c, then ascending
    id).
    """
    _require_normalized(inst)
    _check_feasible(inst)
    n_tilde = inst.total_weight + len(inst.servers)  # expanded vertex count
    phases = 9 * _ceil_log2(n_tilde)
    matchings: dict[int, CapMatching] = {}
    schedule = b_schedule(inst.n * inst.max_weight)
    for B in schedule:
        profile = CapacityProfile(dict(inst.weight), {s: 2 * B for s in inst.servers})
        matchings[B] = blocking_flow_matching(inst, profile, phases)
    final = matchings[schedule[-1]]
    if not is_client_perfect(inst, final):
        raise AssertionError("final budget matching must be client-perfect")

    # per-budget index: client -> sorted [(server, multiplicity)]
    by_client: dict[int, dict[int, list[tuple[int, int]]]] = {}
    for B, x in matchings.items():
        idx: dict[int, list[tuple[int, int]]] = {}
        for (c, s), v in x.mult.items():
            if v > 0:
                idx.setdefault(c, []).append((s, v))
        for slots in idx.values():
            slots.sort()
        by_client[B] = idx

    mult: dict[tuple[int, int], int] = {}
    for c in inst.clients:
        placed = 0
        d_star_prev = 0
        d_star = 0
        used: set[int] = set()
        for B in schedule:
            c_slots = by_client[B].get(c, [])
            deg_b = sum(v for _, v in c_slots)
            d_star = max(d_star, deg_b)
            alloc = min(max(0, d_star - d_star_prev), inst.weight[c] - placed)
            if alloc > 0:
                slots = sorted(c_slots, key=lambda sv: (0 if sv[0] in used else 1, sv[0]))
                for s, avail in slots:
                    if alloc == 0:
                        break
                    take = min(avail, alloc)
                    mult[(c, s)] = mult.get((c, s), 0) + take
                    used.add(s)
                    placed += take
                    alloc -= take
            d_star_prev = d_star
        if placed < inst.weight[c]:
            # top up from the final (client-perfect) matching
            for s in inst.client_adj[c]:
                avail = final.mult.get((c, s), 0)
                if avail <= 0:
                    continue
                take = min(avail, inst.weight[c] - placed)
                mult[(c, s)] = mult.get((c, s), 0) + take
                placed += take
                if placed == inst.weight[c]:
                    break
        if placed != inst.weight[c]:
            raise AssertionError(f"client {c} placed {placed} of {inst.weight[c]} units")
    return SplitAssignment(inst, mult), matchings


def solve_sequential(inst: Instance) -> Assignment:
    """Near-linear sequential solver: split assignment + rounding."""
    split, _ = split_assignment_seq(inst)
    return round_split(inst, split)


def solve_backup(inst: Instance, r: int) -> MultiAssignment:
    """Backup placement with replication factor r.

    Uses simple (multiplicity <= 1) matchings with client capacity r and
    server capacity 2B over the doubling schedule; each client adopts the
    smallest B at which it is matched exactly r times, ignoring budgets with
    partial matches.  Weighted instances are routed through the per-class
    reduction.
    """
    if r < 1:
        raise ValueError("replication factor must be >= 1")
    _check_feasible(inst, min_degree=r)
    if inst.is_unit_weight():
        return _solve_backup_unit(inst, r)
    _require_normalized(inst)
    chosen = _per_class(inst, lambda view, sub, smap: _solve_backup_unit(sub, r).mapping)
    return MultiAssignment(inst, r, chosen)


def _solve_backup_unit(inst: Instance, r: int) -> MultiAssignment:
    _check_feasible(inst, min_degree=r)
    k = short_path_bound(inst.n)
    mapping: dict[int, tuple[int, ...]] = {}
    for B in b_schedule(inst.n):
        profile = CapacityProfile(
            {c: r for c in inst.clients}, {s: 2 * B for s in inst.servers}, edge_cap=1
        )
        x = eliminate_short_paths(inst, profile, k)
        for c in inst.clients:
            if c in mapping:
                continue
            chosen = tuple(sorted(s for s in inst.client_adj[c] if x.mult.get((c, s), 0) > 0))
            if len(chosen) == r:
                mapping[c] = chosen
    missing = [c for c in inst.clients if c not in mapping]
    if missing:
        raise AssertionError(f"clients never matched {r} times: {missing[:5]}")
    return MultiAssignment(inst, r, mapping)


def _require_normalized(inst: Instance) -> None:
    if not inst.is_normalized():
        raise ValueError(
            "instance weights must be power-of-two normalized; call normalize_weights"
        )
