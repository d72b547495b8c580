"""Ground-truth computations and structural verifiers.

Flow feasibility checks go through networkx, and the augmenting-path checks
read one O(n + m) residual search of their own on the public dict view of a
matching, so that the oracle side never shares code with the hand-written
matching engine it is used to check.  Enumeration-based optima are exact and
exhaustive, so they are for small instances only.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

from .instance import Instance
from .matching import CapacityProfile, CapMatching
from .solvers import Assignment, InfeasibleError


class PreconditionError(Exception):
    """A verifier's precondition failed (distinct from a negative verdict)."""


class EnumerationTooLarge(Exception):
    """The assignment space exceeds the configured enumeration cutoff."""


# the most assignments (or r-placements) an exhaustive oracle enumerates
_ENUM_LIMIT = 10**6


# ---------------------------------------------------------------------------
# Flow feasibility (networkx side)
# ---------------------------------------------------------------------------


def _flow_value(inst: Instance, kappa: dict[int, int], tau: dict[int, int],
                edge_cap: int | None = None) -> int:
    import networkx as nx  # here, so that a CLI call that checks no flow does not import it

    g = nx.DiGraph()
    for c in inst.clients:
        g.add_edge("src", ("c", c), capacity=kappa[c])
    for s in inst.servers:
        g.add_edge(("s", s), "dst", capacity=tau[s])
    for c, s in inst.edges:
        if edge_cap is None:
            g.add_edge(("c", c), ("s", s))
        else:
            g.add_edge(("c", c), ("s", s), capacity=edge_cap)
    if "src" not in g or "dst" not in g:
        return 0
    return nx.maximum_flow_value(g, "src", "dst")


def client_perfect_matching_exists(inst: Instance, kappa: dict[int, int],
                                   tau: dict[int, int], edge_cap: int | None = None) -> bool:
    demand = sum(kappa[c] for c in inst.clients)
    return _flow_value(inst, kappa, tau, edge_cap) == demand


def opt_minmax_unweighted(inst: Instance) -> int:
    """Minimum B admitting a client-perfect (1, B)-matching: with unit
    weights, the split optimum ``opt_split``."""
    if not inst.is_unit_weight():
        raise ValueError("opt_minmax_unweighted requires unit weights")
    return opt_split(inst)


def opt_split(inst: Instance) -> int:
    """Minimum B admitting a client-perfect (w, B)-matching (the split
    l_inf optimum)."""
    _check_degrees(inst)
    total = inst.total_weight
    lo = max(1, math.ceil(total / max(1, len(inst.servers))))
    hi = total
    kappa = dict(inst.weight)
    while lo < hi:
        mid = (lo + hi) // 2
        if client_perfect_matching_exists(inst, kappa, {s: mid for s in inst.servers}):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _check_degrees(inst: Instance) -> None:
    bad = inst.zero_degree_clients()
    if bad:
        raise InfeasibleError(f"client {bad[0]} has no adjacent server", client=bad[0])


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------


def _picks(inst: Instance, r: int, limit: int):
    """Every way to put each client on r distinct adjacent servers, in
    lexicographic order: yields (the picked servers of each client, a tuple
    of ascending server tuples in client order; the load of every server,
    in server order).  With r = 1 these are the assignments.

    Raises EnumerationTooLarge, before yielding, when there are more than
    ``limit`` picks.
    """
    size = math.prod(math.comb(inst.degree(c), r) for c in inst.clients)
    if size > limit:
        raise EnumerationTooLarge(f"{size} picks exceed the cutoff {limit}")
    clients, servers, weight = inst.clients, inst.servers, inst.weight
    for combo in itertools.product(
            *(itertools.combinations(inst.client_adj[c], r) for c in clients)):
        loads = dict.fromkeys(servers, 0)
        for c, chosen in zip(clients, combo):
            for s in chosen:
                loads[s] += weight[c]
        yield combo, list(loads.values())


def opt_allnorm_enum(
    inst: Instance,
    p_list=(1, 2, 3, math.inf),
    max_assignments: int = _ENUM_LIMIT,
) -> tuple[dict, Assignment | None]:
    """Exhaustive per-norm optima; for unit weights also the canonical
    all-norm optimal assignment.

    Canonical optimum: lexicographically smallest sorted-descending load
    vector, ties broken by the lexicographic assignment map.  For unit
    weights the per-p optima are asserted to coincide with the canonical
    assignment's norms.  The l1 optimum is the total weight, which every
    assignment places.
    """
    _check_degrees(inst)
    finite_ps = [p for p in p_list if p != math.inf and p != 1]
    best_pow = {p: None for p in finite_ps}
    best_inf = None
    unit = inst.is_unit_weight()
    best_key = None
    for combo, values in _picks(inst, 1, max_assignments):
        for p in finite_ps:
            total = sum(v**p for v in values)
            if best_pow[p] is None or total < best_pow[p]:
                best_pow[p] = total
        mx = max(values)
        if best_inf is None or mx < best_inf:
            best_inf = mx
        if unit:
            key = (sorted(values, reverse=True), combo)
            if best_key is None or key < best_key:
                best_key = key
    optima = {}
    for p in p_list:
        if p == math.inf:
            optima[p] = float(best_inf)
        elif p == 1:
            optima[p] = float(inst.total_weight)
        else:
            optima[p] = best_pow[p] ** (1.0 / p)
    witness = None
    if best_key is not None:
        witness = Assignment(inst, {c: s for c, (s,) in zip(inst.clients, best_key[1])})
        lv = witness.load_vector()
        for p in p_list:
            if not math.isclose(lv.norm(p), optima[p], rel_tol=1e-12, abs_tol=1e-9):
                raise AssertionError(
                    f"canonical optimum misses the p={p} optimum: {lv.norm(p)} vs {optima[p]}"
                )
    return optima, witness


def opt_power_sums(inst: Instance, p_list=(2, 3)) -> dict[int, int]:
    """Exact minimum sum of p-th powers of loads over all assignments, per p.

    Integer-valued, so approximation-ratio checks can avoid float tolerance:
    norm_A <= K * norm_opt  iff  power_sum_A <= K**p * opt_power_sum.
    """
    _check_degrees(inst)
    best: dict[int, int | None] = {p: None for p in p_list}
    for _, values in _picks(inst, 1, _ENUM_LIMIT):
        for p in p_list:
            total = sum(v**p for v in values)
            if best[p] is None or total < best[p]:
                best[p] = total
    return best


def opt_backup_enum(inst: Instance, r: int) -> int:
    """Exact backup-placement optimum by exhaustive r-subset enumeration."""
    _check_degrees(inst)
    for c in inst.clients:
        if inst.degree(c) < r:
            raise InfeasibleError(f"client {c} has degree < {r}", client=c)
    return min(max(values) for _, values in _picks(inst, r, _ENUM_LIMIT))


# ---------------------------------------------------------------------------
# Structural verifiers
# ---------------------------------------------------------------------------


def find_cost_reducing_path(inst: Instance, assignment: Assignment):
    """A server-to-server reassignment chain dropping load by >= 2, or None.

    BFS over the digraph with an arc s -> s' whenever a client assigned to s
    is adjacent to s'.  Returns the alternating vertex path
    [s1, c1, s2, c2, ..., sk].
    """
    if not inst.is_unit_weight():
        raise ValueError("cost-reducing paths are defined for unit weights")
    loads = assignment.load_vector().loads
    # arc s -> s' realized by a witness client
    arcs: dict[int, dict[int, int]] = {s: {} for s in inst.servers}
    for c, s in assignment.mapping.items():
        for s2 in inst.client_adj[c]:
            if s2 != s and s2 not in arcs[s]:
                arcs[s][s2] = c
    for start in inst.servers:
        prev: dict[int, tuple[int, int]] = {}
        seen = {start}
        queue = deque([start])
        while queue:
            s = queue.popleft()
            if loads[s] <= loads[start] - 2:
                path = [s]
                while s != start:
                    p, c = prev[s]
                    path.extend([c, p])
                    s = p
                path.reverse()
                return path
            for s2, c in sorted(arcs[s].items()):
                if s2 not in seen:
                    seen.add(s2)
                    prev[s2] = (s, c)
                    queue.append(s2)
    return None


def apply_cost_reducing_path(assignment: Assignment, path) -> Assignment:
    """Shift one unit along the chain (re-assign each client forward)."""
    mapping = dict(assignment.mapping)
    for i in range(1, len(path), 2):
        mapping[path[i]] = path[i + 1]
    return Assignment(assignment.inst, mapping)


def _room_search(inst: Instance, profile: CapacityProfile, mult: dict[tuple[int, int], int]):
    """One breadth-first search from every server with room over the
    residual arcs reversed, with every degree recomputed from ``mult``.

    The residual arcs run client -> server while the edge has capacity left
    and server -> client while it has positive multiplicity.  Returns (free,
    dist, hop): the unsaturated clients in ascending id, every vertex's
    residual distance to a server with room (vertices that reach none are
    absent), and for each vertex at distance >= 1 the next vertex on a
    shortest way there.  O(n + m).
    """
    cdeg = dict.fromkeys(inst.clients, 0)
    sdeg = dict.fromkeys(inst.servers, 0)
    for (c, s), x in mult.items():
        cdeg[c] += x
        sdeg[s] += x
    cap = profile.cap()
    free = [c for c in inst.clients if cdeg[c] < profile.kappa[c]]
    dist = {s: 0 for s in inst.servers if sdeg[s] < profile.tau[s]}
    hop: dict[int, int] = {}
    queue = deque(dist)
    while queue:
        v = queue.popleft()
        d = dist[v] + 1
        if v in inst.server_adj:  # clients with capacity left on the edge into v
            for c in inst.server_adj[v]:
                if c not in dist and mult.get((c, v), 0) < cap:
                    dist[c], hop[c] = d, v
                    queue.append(c)
        else:  # servers holding units of v
            for s in inst.client_adj[v]:
                if s not in dist and mult.get((v, s), 0):
                    dist[s], hop[s] = d, v
                    queue.append(s)
    return free, dist, hop


def verify_no_short_aug_paths(
    inst: Instance,
    profile: CapacityProfile,
    matching: CapMatching,
    k: int,
):
    """True if no augmenting path of length <= k exists; otherwise a witness:
    a shortest augmenting path, as its vertex list, from the least-id
    unsaturated client that has one within k.  One reverse search from the
    servers with room (``_room_search``) answers for every client."""
    if k < 1 or k % 2 == 0:
        raise ValueError("k must be odd and >= 1")
    free, dist, hop = _room_search(inst, profile, matching.mult)
    c = next((c for c in free if dist.get(c, math.inf) <= k), None)
    if c is None:
        return True
    path = [c]
    while path[-1] in hop:
        path.append(hop[path[-1]])
    return path


def residual_source_sink_distance(inst: Instance, matching: CapMatching) -> float:
    """Residual distance from the dummy source to the dummy sink (inf if no
    path): 2 plus the least distance to room of an unsaturated client."""
    free, dist, _ = _room_search(inst, matching.profile, matching.mult)
    return min((dist[c] + 2 for c in free if c in dist), default=math.inf)


@dataclass
class ExpansionCounterexample:
    """Would falsify the structural expansion property; indicates a bug."""

    inst: Instance
    matching: CapMatching
    client: int
    bound: int


def verify_expansion_lemma(
    inst: Instance,
    kappa: dict[int, int],
    tau: dict[int, int],
    alpha: float,
    matching: CapMatching,
):
    """Check that every unsaturated client of an inflated-capacity matching
    has an augmenting path of length <= 2*ceil(log_alpha tau(S)) + 1.

    Precondition (raises PreconditionError if violated): a client-perfect
    (kappa, tau)-matching exists.  Returns True, or a counterexample record.
    """
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    if not client_perfect_matching_exists(inst, kappa, tau):
        raise PreconditionError("no client-perfect base matching exists")
    tau_total = sum(tau.values())
    bound = 2 * math.ceil(math.log(max(2, tau_total), alpha)) + 1
    free, dist, _ = _room_search(inst, matching.profile, matching.mult)
    for c in free:
        if dist.get(c, math.inf) > bound:
            return ExpansionCounterexample(inst, matching, c, bound)
    return True


# ---------------------------------------------------------------------------
# Levels
# ---------------------------------------------------------------------------


@dataclass
class LevelMap:
    """Per-vertex loads under the canonical all-norm optimum."""

    optimal: Assignment
    server_level: dict[int, int]
    client_level: dict[int, int]


def levels(inst: Instance) -> LevelMap:
    """Levels from the canonical all-norm optimum; asserts the no-downhill
    adjacency property (no client adjacent to a server two levels below its
    own) before returning."""
    if not inst.is_unit_weight():
        raise ValueError("levels require unit weights")
    _, witness = opt_allnorm_enum(inst, (2, math.inf))
    assert witness is not None
    loads = witness.load_vector().loads
    client_level = {c: loads[witness.mapping[c]] for c in inst.clients}
    for c in inst.clients:
        for s in inst.client_adj[c]:
            if loads[s] <= client_level[c] - 2:
                raise AssertionError(
                    f"adjacency ({c}, {s}) violates the level structure: "
                    f"{loads[s]} <= {client_level[c]} - 2"
                )
    return LevelMap(witness, dict(loads), client_level)
