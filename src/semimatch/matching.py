"""Capacitated bipartite matchings and the augmenting-path engine.

A matching assigns an integer multiplicity to each edge subject to client
capacities kappa, server capacities tau, and optional per-edge caps.  The
engine works on the residual orientation (forward on remaining edge capacity,
backward on positive multiplicity) and offers two entry points:

* ``eliminate_short_paths``: layered shortest-augmentation phases until no
  augmenting path of length <= k remains.
* ``blocking_flow_matching``: a fixed number of blocking-flow phases over the
  source/sink flow network.

Both are deterministic: neighbors are always scanned in ascending id order.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass, field

from .instance import Instance

_INF = float("inf")


@dataclass
class CapacityProfile:
    """Client/server/edge capacities for a capacitated matching.

    ``edge_cap`` is None for unbounded multiplicities, an int for a uniform
    cap (1 gives simple degree-constrained subgraphs, as used for backup
    placement), or an explicit edge -> cap map.
    """

    kappa: dict[int, int]
    tau: dict[int, int]
    edge_cap: int | dict[tuple[int, int], int] | None = None

    def __post_init__(self) -> None:
        for c, k in self.kappa.items():
            if k < 1:
                raise ValueError(f"kappa({c}) must be >= 1, got {k}")
        for s, t in self.tau.items():
            if t < 0:
                raise ValueError(f"tau({s}) must be >= 0, got {t}")

    def cap(self, edge: tuple[int, int]):
        if self.edge_cap is None:
            return _INF
        if isinstance(self.edge_cap, int):
            return self.edge_cap
        return self.edge_cap.get(edge, _INF)

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

    def degree(self, v: int) -> int:
        return self.client_deg[v] if v in self.client_deg else self.server_deg[v]

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
        for e, x in self.mult.items():
            if x > self.profile.cap(e):
                raise ValueError(f"edge {e} over capacity: {x} > {self.profile.cap(e)}")


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


def _usable_server(matching: CapMatching, s: int) -> bool:
    # tau(s) = 0 servers are excluded from residual graphs entirely
    return matching.profile.tau[s] > 0


def find_augmenting_path(
    inst: Instance,
    matching: CapMatching,
    max_len: int,
    start_client: int | None = None,
) -> AugPath | None:
    """Shortest augmenting path of length <= max_len, or None.

    Layered BFS over the residual orientation: client -> server on remaining
    edge capacity, server -> client on positive multiplicity.  With no
    ``start_client`` the search starts from every unsaturated client at once.
    """
    if max_len < 1 or max_len % 2 == 0:
        raise ValueError("max_len must be odd and >= 1")
    prof = matching.profile
    if start_client is not None:
        roots = [start_client] if not matching.client_saturated(start_client) else []
    else:
        roots = [c for c in inst.clients if not matching.client_saturated(c)]
    parent: dict[int, int | None] = {c: None for c in roots}
    queue = deque(roots)
    depth = {c: 0 for c in roots}
    while queue:
        v = queue.popleft()
        d = depth[v]
        if d >= max_len:
            continue
        if v in inst.client_adj:  # client: forward over residual edge capacity
            for s in inst.client_adj[v]:
                if s in parent or not _usable_server(matching, s):
                    continue
                if matching.mult.get((v, s), 0) >= prof.cap((v, s)):
                    continue
                parent[s] = v
                depth[s] = d + 1
                if not matching.server_saturated(s):
                    path = [s]
                    u: int | None = v
                    while u is not None:
                        path.append(u)
                        u = parent[u]
                    path.reverse()
                    return AugPath(path)
                queue.append(s)
        else:  # server: backward over matched multiplicity
            for c in inst.server_adj[v]:
                if c in parent or matching.mult.get((c, v), 0) == 0:
                    continue
                parent[c] = v
                depth[c] = d + 1
                queue.append(c)
    return None


# ---------------------------------------------------------------------------
# Layered phases (shared by eliminate_short_paths and blocking flow)
# ---------------------------------------------------------------------------


def _bfs_layers(inst: Instance, matching: CapMatching) -> tuple[dict[int, int], int | None]:
    """Layer the residual graph from all unsaturated clients.

    Returns (levels, shortest augmenting path length in edges or None).
    Layering stops once the first layer containing an unsaturated server is
    complete, Hopcroft-Karp style.
    """
    prof = matching.profile
    level: dict[int, int] = {}
    queue: deque[int] = deque()
    for c in inst.clients:
        if not matching.client_saturated(c):
            level[c] = 0
            queue.append(c)
    found: int | None = None
    while queue:
        v = queue.popleft()
        d = level[v]
        if found is not None and d >= found:
            continue
        if v in inst.client_adj:
            for s in inst.client_adj[v]:
                if s in level or not _usable_server(matching, s):
                    continue
                if matching.mult.get((v, s), 0) >= prof.cap((v, s)):
                    continue
                level[s] = d + 1
                if not matching.server_saturated(s):
                    found = d + 1
                else:
                    queue.append(s)
        else:
            for c in inst.server_adj[v]:
                if c in level or matching.mult.get((c, v), 0) == 0:
                    continue
                level[c] = d + 1
                queue.append(c)
    return level, found


def _blocking_phase(inst: Instance, matching: CapMatching, level: dict[int, int],
                    target_len: int) -> int:
    """Saturate the level graph: push flow along level-increasing residual
    paths of exactly ``target_len`` edges until none remain.  Returns units
    pushed."""
    prof = matching.profile
    # current-arc pointers; adjacency is id-sorted already
    ptr: dict[int, int] = {}
    pushed_total = 0

    def dfs(v: int, limit) -> int:
        if v not in inst.client_adj and level[v] == target_len and not matching.server_saturated(v):
            room = prof.tau[v] - matching.server_deg[v]
            return int(min(limit, room))
        adj = inst.client_adj[v] if v in inst.client_adj else inst.server_adj[v]
        i = ptr.get(v, 0)
        while i < len(adj):
            u = adj[i]
            if level.get(u, -1) == level[v] + 1:
                if v in inst.client_adj:
                    residual = prof.cap((v, u)) - matching.mult.get((v, u), 0)
                    if residual > 0 and _usable_server(matching, u):
                        got = dfs(u, min(limit, residual))
                        if got > 0:
                            matching.add(v, u, got)
                            ptr[v] = i
                            return got
                else:
                    x = matching.mult.get((u, v), 0)
                    if x > 0:
                        got = dfs(u, min(limit, x))
                        if got > 0:
                            matching.add(u, v, -got)
                            ptr[v] = i
                            return got
            i += 1
            ptr[v] = i
        return 0

    for c in inst.clients:
        while not matching.client_saturated(c) and level.get(c) == 0:
            slack = prof.kappa[c] - matching.client_deg[c]
            got = dfs(c, slack)
            if got == 0:
                break
            pushed_total += got
    return pushed_total


def _write_debug_row(writer, phase: int, level: dict[int, int], shortest, pushed: int) -> None:
    layers = max(level.values()) + 1 if level else 0
    writer.writerow([phase, layers, shortest if shortest is not None else "", pushed])


def eliminate_short_paths(
    inst: Instance,
    profile: CapacityProfile,
    k: int,
    debug_csv=None,
) -> CapMatching:
    """Compute a matching with no augmenting path of length <= k.

    Runs shortest-augmentation phases; each phase saturates the level graph of
    the current shortest augmenting-path length, so that length strictly
    increases per phase.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError("k must be odd and >= 1")
    matching = CapMatching(inst, profile)
    writer = None
    fh = None
    if debug_csv is not None:
        fh = open(debug_csv, "w", newline="")
        writer = csv.writer(fh)
        writer.writerow(["phase", "layers", "shortest_aug_len", "pushed"])
    phase = 0
    try:
        while True:
            level, shortest = _bfs_layers(inst, matching)
            if shortest is None or shortest > k:
                if writer:
                    _write_debug_row(writer, phase, level, shortest, 0)
                return matching
            pushed = _blocking_phase(inst, matching, level, shortest)
            phase += 1
            if writer:
                _write_debug_row(writer, phase, level, shortest, pushed)
    finally:
        if fh:
            fh.close()


def blocking_flow_matching(
    inst: Instance,
    profile: CapacityProfile,
    phases: int,
    debug_csv=None,
) -> CapMatching:
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
    matching = CapMatching(inst, profile)
    writer = None
    fh = None
    if debug_csv is not None:
        fh = open(debug_csv, "w", newline="")
        writer = csv.writer(fh)
        writer.writerow(["phase", "layers", "shortest_aug_len", "pushed"])
    try:
        for p in range(phases):
            level, shortest = _bfs_layers(inst, matching)
            if shortest is None:
                break
            pushed = _blocking_phase(inst, matching, level, shortest)
            if writer:
                _write_debug_row(writer, p + 1, level, shortest, pushed)
        return matching
    finally:
        if fh:
            fh.close()


def residual_source_sink_distance(inst: Instance, matching: CapMatching) -> float:
    """Residual distance from dummy source to dummy sink (inf if no path)."""
    _, shortest = _bfs_layers(inst, matching)
    return _INF if shortest is None else shortest + 2
