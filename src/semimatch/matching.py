"""Capacitated bipartite matchings and the augmenting-path engine.

A matching assigns an integer multiplicity to each edge subject to client
capacities kappa, server capacities tau, and an optional uniform edge cap.
The engine works on the residual orientation: client -> server while the edge
has capacity left, server -> client while the edge has positive multiplicity.

It is built from two pieces:

* ``_bfs``, the one layered breadth-first search.  Started from a given set of
  clients, it labels residual vertices by distance and stops once the layer
  holding the nearest unsaturated server is complete (or at a length limit).
* ``_phases``, the one phase loop (Hopcroft-Karp 1973; Dinic 1970).  Each
  phase layers the residual graph from every unsaturated client and saturates
  the layered graph of the current shortest augmenting-path length with an
  iterative current-arc DFS, so that length strictly increases per phase.

The entry points are thin: ``eliminate_short_paths`` runs phases until no
augmenting path of length <= k remains, ``blocking_flow_matching`` runs a
fixed number of phases, and ``find_augmenting_path`` and
``residual_source_sink_distance`` read one search.  Everything is
deterministic: neighbors are always scanned in ascending id order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .instance import Instance

_INF = float("inf")


@dataclass
class CapacityProfile:
    """Client/server/edge capacities for a capacitated matching.

    ``edge_cap`` caps the multiplicity of every edge: None for unbounded, or
    a positive int (1 gives simple degree-constrained subgraphs, as used for
    backup placement).
    """

    kappa: dict[int, int]
    tau: dict[int, int]
    edge_cap: int | None = None

    def __post_init__(self) -> None:
        for c, k in self.kappa.items():
            if k < 1:
                raise ValueError(f"kappa({c}) must be >= 1, got {k}")
        for s, t in self.tau.items():
            if t < 0:
                raise ValueError(f"tau({s}) must be >= 0, got {t}")
        cap = self.edge_cap
        if cap is not None and (type(cap) is not int or cap < 1):
            raise ValueError(f"edge_cap must be None or a positive int, got {cap!r}")

    def cap(self):
        """The multiplicity cap of every edge (inf when unbounded)."""
        return _INF if self.edge_cap is None else self.edge_cap

    @staticmethod
    def uniform(inst: Instance, kappa: int, tau: int, edge_cap=None) -> "CapacityProfile":
        return CapacityProfile(
            {c: kappa for c in inst.clients},
            {s: tau for s in inst.servers},
            edge_cap,
        )


@dataclass
class CapMatching:
    """Edge multiplicities under a CapacityProfile, with cached degrees."""

    inst: Instance
    profile: CapacityProfile
    mult: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.client_deg = {c: 0 for c in self.inst.clients}
        self.server_deg = {s: 0 for s in self.inst.servers}
        for (c, s), x in list(self.mult.items()):
            if x == 0:
                del self.mult[(c, s)]
                continue
            self.client_deg[c] += x
            self.server_deg[s] += x
        self.check_feasible()

    def client_saturated(self, c: int) -> bool:
        return self.client_deg[c] >= self.profile.kappa[c]

    def server_saturated(self, s: int) -> bool:
        return self.server_deg[s] >= self.profile.tau[s]

    def add(self, c: int, s: int, amount: int) -> None:
        x = self.mult.get((c, s), 0) + amount
        if x < 0:
            raise ValueError(f"negative multiplicity on edge ({c}, {s})")
        if x:
            self.mult[(c, s)] = x
        else:
            self.mult.pop((c, s), None)
        self.client_deg[c] += amount
        self.server_deg[s] += amount

    def check_feasible(self) -> None:
        for c, d in self.client_deg.items():
            if d > self.profile.kappa[c]:
                raise ValueError(f"client {c} over capacity: {d} > {self.profile.kappa[c]}")
        for s, d in self.server_deg.items():
            if d > self.profile.tau[s]:
                raise ValueError(f"server {s} over capacity: {d} > {self.profile.tau[s]}")
        cap = self.profile.cap()
        for e, x in self.mult.items():
            if x > cap:
                raise ValueError(f"edge {e} over capacity: {x} > {cap}")


@dataclass
class AugPath:
    """Alternating path c, s, c', s', ... from an unsaturated client to an
    unsaturated server; odd number of edges."""

    vertices: list[int]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


def is_client_perfect(inst: Instance, matching: CapMatching) -> bool:
    return all(matching.client_deg[c] == matching.profile.kappa[c] for c in inst.clients)


def _free_clients(inst: Instance, matching: CapMatching) -> list[int]:
    kappa, deg = matching.profile.kappa, matching.client_deg
    return [c for c in inst.clients if deg[c] < kappa[c]]


def _bfs(inst: Instance, matching: CapMatching, roots: list[int], max_len: float = _INF):
    """Layer the residual graph from ``roots`` (unsaturated clients).

    Returns (level, parent, end): the distance and BFS parent of every
    labelled vertex, and the first unsaturated server found (None if there is
    none within ``max_len`` edges).  Vertices at distance >= max_len are not
    expanded; once ``end`` is found, neither is its layer, so the labels stop
    at the shortest augmenting-path length, Hopcroft-Karp style.  Clients sit
    at even distances and servers at odd ones; servers with tau = 0 are left
    out of the residual graph.
    """
    mult, cap = matching.mult, matching.profile.cap()
    tau, server_deg = matching.profile.tau, matching.server_deg
    client_adj, server_adj = inst.client_adj, inst.server_adj
    level = {c: 0 for c in roots}
    parent: dict[int, int | None] = {c: None for c in roots}
    end = None
    stop = max_len
    queue = deque(roots)
    while queue:
        v = queue.popleft()
        d = level[v]
        if d >= stop:
            continue
        if d & 1 == 0:  # client: forward over residual edge capacity
            for s in client_adj[v]:
                if s in level or tau[s] == 0 or mult.get((v, s), 0) >= cap:
                    continue
                level[s] = d + 1
                parent[s] = v
                if server_deg[s] < tau[s]:
                    if end is None:
                        end, stop = s, d + 1
                else:
                    queue.append(s)
        else:  # server: backward over matched multiplicity
            for c in server_adj[v]:
                if c in level or (c, v) not in mult:
                    continue
                level[c] = d + 1
                parent[c] = v
                queue.append(c)
    return level, parent, end


def find_augmenting_path(
    inst: Instance,
    matching: CapMatching,
    max_len: int,
    start_client: int | None = None,
) -> AugPath | None:
    """Shortest augmenting path of length <= max_len, or None.

    With no ``start_client`` the search starts from every unsaturated client
    at once.
    """
    if max_len < 1 or max_len % 2 == 0:
        raise ValueError("max_len must be odd and >= 1")
    if start_client is None:
        roots = _free_clients(inst, matching)
    else:
        roots = [] if matching.client_saturated(start_client) else [start_client]
    _, parent, end = _bfs(inst, matching, roots, max_len)
    if end is None:
        return None
    path = [end]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return AugPath(path)


def _blocking_phase(inst: Instance, matching: CapMatching, level: dict[int, int],
                    target_len: int) -> None:
    """Saturate the level graph: push flow along level-increasing residual
    paths of exactly ``target_len`` edges until none remain.

    Iterative current-arc DFS: ``ptr[v]`` is the next arc of v to try; it
    stays on an arc that carried flow and moves past an arc that led to a
    dead end.  ``path[i]`` sits at level i, so even positions are clients.
    """
    mult, cap = matching.mult, matching.profile.cap()
    kappa, tau = matching.profile.kappa, matching.profile.tau
    client_deg, server_deg = matching.client_deg, matching.server_deg
    client_adj, server_adj = inst.client_adj, inst.server_adj
    ptr: dict[int, int] = {}
    for c in inst.clients:
        while client_deg[c] < kappa[c] and level.get(c) == 0:
            path, limits = [c], [kappa[c] - client_deg[c]]
            got = 0
            while path:
                d = len(path) - 1
                v = path[-1]
                if d == target_len:  # a server; end of the path if it has room
                    room = tau[v] - server_deg[v]
                    if room > 0:
                        got = min(limits[-1], room)
                        break
                else:
                    client = d & 1 == 0
                    adj = client_adj[v] if client else server_adj[v]
                    i = ptr.get(v, 0)
                    while i < len(adj):
                        u = adj[i]
                        if level.get(u) == d + 1:
                            if client:
                                residual = cap - mult.get((v, u), 0)
                            else:
                                residual = mult.get((u, v), 0)
                            if residual > 0:
                                break
                        i += 1
                    ptr[v] = i
                    if i < len(adj):
                        path.append(u)
                        limits.append(min(limits[-1], residual))
                        continue
                # dead end: retreat and move the parent past this arc
                path.pop()
                limits.pop()
                if path:
                    ptr[path[-1]] += 1
            if got == 0:
                break
            for i in range(len(path) - 2, -1, -1):  # deepest arc first
                if i & 1:
                    matching.add(path[i + 1], path[i], -got)
                else:
                    matching.add(path[i], path[i + 1], got)


def _phases(inst: Instance, profile: CapacityProfile, max_phases: float,
            max_len: float) -> CapMatching:
    """Run up to ``max_phases`` shortest-augmentation phases from the empty
    matching, stopping once no augmenting path of length <= max_len is
    left."""
    matching = CapMatching(inst, profile)
    phase = 0
    while phase < max_phases:
        level, _, end = _bfs(inst, matching, _free_clients(inst, matching), max_len)
        if end is None:
            break
        _blocking_phase(inst, matching, level, level[end])
        phase += 1
    return matching


def eliminate_short_paths(inst: Instance, profile: CapacityProfile, k: int) -> CapMatching:
    """Compute a matching with no augmenting path of length <= k."""
    if k < 1 or k % 2 == 0:
        raise ValueError("k must be odd and >= 1")
    return _phases(inst, profile, _INF, k)


def blocking_flow_matching(inst: Instance, profile: CapacityProfile, phases: int) -> CapMatching:
    """Run ``phases`` blocking-flow phases on the dummy-source/dummy-sink
    network (source -> clients with capacity kappa, servers -> sink with
    capacity tau).

    A source-sink path has two more edges than the bipartite augmenting path
    it contains, so after p phases the residual source-sink distance exceeds
    p and no augmenting path of length <= p - 2 remains.  Stops early when
    maximum flow is reached (residual distance infinite).
    """
    if phases < 1:
        raise ValueError("phases must be >= 1")
    return _phases(inst, profile, phases, _INF)


def residual_source_sink_distance(inst: Instance, matching: CapMatching) -> float:
    """Residual distance from dummy source to dummy sink (inf if no path)."""
    level, _, end = _bfs(inst, matching, _free_clients(inst, matching))
    return _INF if end is None else level[end] + 2
