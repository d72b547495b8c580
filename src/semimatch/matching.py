"""Capacitated bipartite matchings and the augmenting-path engine.

A matching assigns an integer multiplicity to each edge subject to client
capacities kappa, server capacities tau, and an optional uniform edge cap.
The engine works on the residual orientation: client -> server while the edge
has capacity left, server -> client while the edge has positive multiplicity.

``CapMatching`` is the one matching type, held on the instance's edge ids
and vertex ids (see ``Instance``): ``edge_mult[e]`` is the multiplicity of
edge id e, ``deg[v]`` the matched degree of vertex v and ``cap[v]`` its
capacity.  The engine and the solvers read and write these flat lists;
``mult``, ``client_deg`` and ``server_deg`` are read-only views keyed by
edge (c, s) and by vertex, built when read, for the oracles and the dumps.
The engine is built from these pieces:

* ``_greedy_fill``, the first phase.  From the empty matching every shortest
  augmenting path is a single edge, so blocking the length-1 layered graph
  is a greedy fill: each client in ascending id takes units from its
  servers with room in ascending order, with no search.
* ``_bfs``, the forward layered breadth-first search.  Started from a given
  list of clients, it labels residual vertices by distance and stops once the
  layer holding the nearest unsaturated server is complete (or at a length limit).
* ``_bfs_back``, the backward search.  Started from the servers with room, it
  labels residual vertices by their distance to room over reversed arcs and
  stops once the layer holding the nearest unsaturated client is complete.
  With D that client's distance, ``level[v] = D - dist[v]`` agrees with the
  forward labels on every shortest augmenting path.
* ``_layers``, the one place that decides whether a phase can end (both
  sides need a free vertex), and the side rule: a phase is layered from the
  side with fewer, unsaturated clients forward or servers with room backward.
* ``_blocking_phase``, which saturates that layered graph from its root
  clients with an iterative current-arc DFS.
* ``_phases``, the one phase loop (Hopcroft-Karp 1973; Dinic 1970).  Its
  first phase is the greedy fill; each later phase is layered by
  ``_layers`` and blocked at the current shortest augmenting-path length,
  so that length strictly increases per phase.  It runs on one empty
  ``CapMatching`` and returns it.

The entry points are thin: ``eliminate_short_paths`` runs phases until no
augmenting path of length <= k remains, and ``blocking_flow_matching`` runs
a fixed number of phases.  The checks of their results (augmenting paths,
the residual source-sink distance) live in ``oracle``, which shares no code
with the engine.  Everything is deterministic: neighbors are always scanned
in ascending id order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import compress
from types import MappingProxyType

from .instance import Instance

_INF = float("inf")


@dataclass
class CapacityProfile:
    """Client/server/edge capacities for a capacitated matching.

    ``edge_cap`` caps the multiplicity of every edge: None for unbounded, or
    a positive int (1 gives simple degree-constrained subgraphs, as used for
    backup placement).  Every capacity, and every vertex id keying kappa and
    tau, is a plain int (a bool or a float is rejected).
    """

    kappa: dict[int, int]
    tau: dict[int, int]
    edge_cap: int | None = None

    def __post_init__(self) -> None:
        for name, given, low in (("kappa", self.kappa, 1), ("tau", self.tau, 0)):
            for v, k in given.items():
                if type(v) is not int:
                    raise ValueError(f"{name} key {v!r} is not a vertex id (an int)")
                if type(k) is not int:
                    raise ValueError(f"{name}({v}) must be an int, got {k!r}")
                if k < low:
                    raise ValueError(f"{name}({v}) must be >= {low}, got {k}")
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


class CapMatching:
    """Edge multiplicities on ``inst`` under a CapacityProfile.

    The state is flat, on ``inst``'s ids: ``edge_mult[e]`` is the
    multiplicity of edge id e, ``deg[v]`` the matched degree of vertex v and
    ``cap[v]`` its capacity (kappa for a client, tau for a server);
    ``edge_cap`` caps every edge (inf when unbounded).  ``mult`` (edge
    (c, s) -> positive multiplicity), ``client_deg`` and ``server_deg`` are
    read-only views of it, built when read.

    The constructor ``add``s each entry of ``mult``, a dict keyed by edge
    (c, s), so it rejects what ``add`` rejects: a key that is not an edge of
    ``inst``, a multiplicity that is not a plain int (a bool or a float
    included) or is negative, and any capacity exceeded.  A profile whose
    kappa and tau do not name exactly the instance's clients and servers is
    rejected too.  Two matchings are equal when their instance, profile and
    multiplicities are.
    """

    __slots__ = ("inst", "profile", "edge_cap", "edge_mult", "deg", "cap")

    def __init__(self, inst: Instance, profile: CapacityProfile,
                 mult: dict[tuple[int, int], int] | None = None) -> None:
        self.inst, self.profile, self.edge_cap = inst, profile, profile.cap()
        self.cap = cap = [0] * inst.n
        for name, kind, ids, given in (("kappa", "client", inst.client_adj, profile.kappa),
                                       ("tau", "server", inst.server_adj, profile.tau)):
            try:
                for v in ids:
                    cap[v] = given[v]
            except KeyError:
                raise ValueError(f"{name} has no entry for {kind} {v}") from None
            if len(given) != len(ids):  # every id is covered, so some key is not one
                extra = next(v for v in given if v not in ids)
                raise ValueError(f"{name} has an entry for {extra!r}, "
                                 f"which is not a {kind} of the instance")
        self.edge_mult = [0] * inst.m
        self.deg = [0] * inst.n
        for (c, s), units in (mult or {}).items():
            self.add(c, s, units)

    @property
    def mult(self) -> MappingProxyType:
        edge_mult = self.edge_mult
        return MappingProxyType(dict(zip(compress(self.inst.edges, edge_mult),
                                         filter(None, edge_mult))))

    @property
    def client_deg(self) -> MappingProxyType:
        deg = self.deg
        return MappingProxyType({c: deg[c] for c in self.inst.clients})

    @property
    def server_deg(self) -> MappingProxyType:
        deg = self.deg
        return MappingProxyType({s: deg[s] for s in self.inst.servers})

    def __eq__(self, other) -> bool:
        if not isinstance(other, CapMatching):
            return NotImplemented
        return ((self.inst, self.profile, self.edge_mult)
                == (other.inst, other.profile, other.edge_mult))

    def free_clients(self) -> list[int]:
        """The unsaturated clients, ascending."""
        deg, cap = self.deg, self.cap
        return [c for c in self.inst.clients if deg[c] < cap[c]]

    def client_saturated(self, v: int) -> bool:
        return self.deg[v] >= self.cap[v]

    server_saturated = client_saturated  # one degree and capacity list for both sides

    def add(self, c: int, s: int, amount: int) -> None:
        """Add ``amount`` (negative to remove) to edge (c, s).  An amount
        that is not a plain int, and a result that is negative or over a
        capacity, raise ValueError and leave the matching as it was."""
        e = self.inst.edge_id(c, s)
        if e is None:
            raise ValueError(f"({c}, {s}) is not an edge of the instance")
        if type(amount) is not int:
            raise ValueError(f"multiplicity {amount!r} on edge ({c}, {s}) is not an int")
        deg, cap = self.deg, self.cap
        x = self.edge_mult[e] + amount
        if x < 0:
            raise ValueError(f"negative multiplicity on edge ({c}, {s})")
        if x > self.edge_cap:
            raise ValueError(f"edge ({c}, {s}) over capacity: {x} > {self.edge_cap}")
        for kind, v in (("client", c), ("server", s)):
            if deg[v] + amount > cap[v]:
                raise ValueError(f"{kind} {v} over capacity: {deg[v] + amount} > {cap[v]}")
        self.edge_mult[e] = x
        deg[c] += amount
        deg[s] += amount

    def check_feasible(self) -> None:
        deg, cap = self.deg, self.cap
        for kind, ids in (("client", self.inst.clients), ("server", self.inst.servers)):
            for v in ids:
                if deg[v] > cap[v]:
                    raise ValueError(f"{kind} {v} over capacity: {deg[v]} > {cap[v]}")
        for e, x in enumerate(self.edge_mult):
            if x > self.edge_cap:
                raise ValueError(f"edge {self.inst.edges[e]} over capacity: "
                                 f"{x} > {self.edge_cap}")


def is_client_perfect(inst: Instance, matching: CapMatching) -> bool:
    deg, cap = matching.deg, matching.cap
    return all(deg[c] == cap[c] for c in inst.clients)


def _bfs(state: CapMatching, roots: list[int], max_len: float = _INF):
    """Layer the residual graph from ``roots`` (unsaturated clients).

    Returns (level, end): the distance of every labelled vertex by vertex id
    (-1 where unlabelled), and the first unsaturated server found (None if
    there is none within ``max_len`` edges).  Vertices at distance >= max_len
    are not expanded; once ``end`` is found, neither is its layer, so the
    labels stop at the shortest augmenting-path length, Hopcroft-Karp style.
    Clients sit at even distances and servers at odd ones; servers with
    tau = 0 are left out of the residual graph.  An arc's multiplicity is
    read only once its head is known to be unlabelled.  Whether any server
    has room is ``_layers``' to decide, before it calls this search.
    """
    inst = state.inst
    mult, deg, cap, edge_cap = state.edge_mult, state.deg, state.cap, state.edge_cap
    client_adj, server_adj = inst.client_adj, inst.server_adj
    edge_start, server_edges = inst.edge_start, inst.server_edges
    level = [-1] * inst.n
    for c in roots:
        level[c] = 0
    end = None
    stop = max_len
    queue = deque(roots)
    while queue:
        v = queue.popleft()
        d = level[v]
        if d >= stop:
            continue
        d += 1
        if d & 1:  # client: forward over residual edge capacity
            for e, s in enumerate(client_adj[v], edge_start[v]):
                if level[s] >= 0 or cap[s] == 0 or mult[e] >= edge_cap:
                    continue
                level[s] = d
                if deg[s] < cap[s]:
                    if end is None:
                        end, stop = s, d
                else:
                    queue.append(s)
        else:  # server: backward over matched multiplicity
            for i, c in enumerate(server_adj[v], edge_start[v]):
                if level[c] >= 0 or not mult[server_edges[i]]:
                    continue
                level[c] = d
                queue.append(c)
    return level, end


def _blocking_phase(state: CapMatching, roots: list[int], level: list[int],
                    target_len: int) -> None:
    """Saturate the level graph that ``_layers`` built for ``roots``: push flow
    along level-increasing residual paths of exactly ``target_len`` edges
    until none remain.

    Iterative current-arc DFS from each root in turn: ``ptr[v]`` is the next
    arc of v to try; it stays on an arc that carried flow and moves past an
    arc that led to a dead end.  ``path[i]`` sits at level i, so even
    positions are clients, and ``arcs[i]`` is the edge id from ``path[i]``
    to the next vertex.  An arc into the target layer is taken only when its
    server has room, and it ends the path; the current-arc pointers bound
    the dead ends at full servers to O(m) per phase.
    """
    inst = state.inst
    mult, deg, cap, edge_cap = state.edge_mult, state.deg, state.cap, state.edge_cap
    client_adj, server_adj = inst.client_adj, inst.server_adj
    edge_start, server_edges = inst.edge_start, inst.server_edges
    ptr = [0] * inst.n
    for c in roots:
        while deg[c] < cap[c]:
            path, arcs, limits = [c], [], [cap[c] - deg[c]]
            got = 0
            while path:
                d = len(path)  # level of the next vertex
                v = path[-1]
                i = ptr[v]
                if d & 1:  # a client: forward arcs to servers
                    adj, first = client_adj[v], edge_start[v]
                    while i < len(adj):
                        u = adj[i]
                        if level[u] == d:
                            e = first + i
                            residual = edge_cap - mult[e]
                            if residual > 0 and (d < target_len or deg[u] < cap[u]):
                                break
                        i += 1
                else:  # a server: backward arcs to clients
                    adj, first = server_adj[v], edge_start[v]
                    while i < len(adj):
                        u = adj[i]
                        if level[u] == d:
                            e = server_edges[first + i]
                            residual = mult[e]
                            if residual > 0:
                                break
                        i += 1
                ptr[v] = i
                if i < len(adj):
                    arcs.append(e)
                    if d == target_len:
                        got = min(limits[-1], residual, cap[u] - deg[u])
                        break
                    path.append(u)
                    limits.append(min(limits[-1], residual))
                    continue
                # dead end: retreat and move the parent past this arc
                path.pop()
                limits.pop()
                if path:
                    arcs.pop()
                    ptr[path[-1]] += 1
            if got == 0:
                break
            for j, e in enumerate(arcs):
                mult[e] += -got if j & 1 else got
            deg[c] += got
            deg[u] += got


def _greedy_fill(state: CapMatching) -> bool:
    """The first phase, on the empty ``state``: block the length-1 layered
    graph, exactly as ``_blocking_phase`` does from every client.

    Each client in ascending id takes units from its servers with room in
    ascending arc order, min(its need, the server's room, edge_cap) from
    each, and the fill stops once no server with room is left.  Every edge
    is met once with multiplicity 0, so no residual search is needed.
    Returns whether any unit moved; if none did, no augmenting path of any
    length exists.
    """
    inst = state.inst
    mult, deg, cap, edge_cap = state.edge_mult, state.deg, state.cap, state.edge_cap
    client_adj, server_adj, edge_start = inst.client_adj, inst.server_adj, inst.edge_start
    # servers with room that some client reaches: once none is left, stop
    # (small budgets fill every server early; seq-heavy's schedules: 30 -> 60 ms without)
    open_ends = sum(1 for s in inst.servers if cap[s] and server_adj[s])
    moved = False
    for c in inst.clients:
        if not open_ends:
            break
        need = cap[c]
        for e, s in enumerate(client_adj[c], edge_start[c]):
            room = cap[s] - deg[s]
            if room <= 0:
                continue
            got = need if need < room else room
            if got > edge_cap:
                got = edge_cap
            mult[e] = got
            deg[s] += got
            need -= got
            if got == room:
                open_ends -= 1
            if not need or not open_ends:
                break
        if need < cap[c]:
            deg[c] = cap[c] - need
            moved = True
    return moved


def _bfs_back(state: CapMatching, ends: list[int], max_len: float = _INF):
    """Layer the residual graph backward from ``ends`` (servers with room).

    Labels every vertex it reaches with its residual distance to the nearest
    of ``ends``, walking arcs against their direction: into a server from
    the clients whose edge to it has capacity left, into a client from the
    servers holding its units.  Vertices at distance >= max_len are not
    expanded; once an unsaturated client is found, neither is its layer, so
    unsaturated clients are never expanded (as ``_bfs`` never expands a
    server with room).

    Returns (roots, level, target_len) for ``_blocking_phase``: the
    unsaturated clients at the least distance D in ascending id,
    ``level[v] = D - dist[v]`` for every labelled vertex (-1 elsewhere), and
    D; or None when no unsaturated client lies within ``max_len``.  On every
    shortest augmenting path these levels are ``_bfs``'s.  A vertex that
    ``_bfs`` labels but that cannot reach room within the remaining length
    is left out, and it is exactly where ``_blocking_phase`` would have
    entered and retreated without moving a unit; a vertex labelled here
    that no root reaches along rising levels is never entered.  So the
    phase pushes the same paths in the same order.
    """
    inst = state.inst
    mult, deg, cap, edge_cap = state.edge_mult, state.deg, state.cap, state.edge_cap
    client_adj, server_adj = inst.client_adj, inst.server_adj
    edge_start, server_edges = inst.edge_start, inst.server_edges
    dist = [-1] * inst.n
    for s in ends:
        dist[s] = 0
    seen = list(ends)  # the queue, kept whole: the labelled vertices in BFS order
    roots = []
    stop = max_len
    for v in seen:
        d = dist[v]
        if d >= stop:  # so is every later vertex
            break
        d += 1
        if d & 1:  # a server: clients with capacity left on the edge into it
            for i, c in enumerate(server_adj[v], edge_start[v]):
                if dist[c] >= 0 or mult[server_edges[i]] >= edge_cap:
                    continue
                dist[c] = d
                seen.append(c)
                if deg[c] < cap[c]:
                    roots.append(c)
                    stop = d
        else:  # a client: the servers holding its units
            for e, s in enumerate(client_adj[v], edge_start[v]):
                if dist[s] >= 0 or not mult[e]:
                    continue
                dist[s] = d
                seen.append(s)
    if not roots:
        return None
    for v in seen:
        dist[v] = stop - dist[v]
    roots.sort()
    return roots, dist, stop


def _layers(state: CapMatching, max_len: float):
    """Layer one phase from whichever side has fewer free vertices.

    With no more unsaturated clients than servers with room, ``_bfs`` runs
    forward from every unsaturated client; otherwise ``_bfs_back`` runs from
    every server with room, and only the vertices near them are labelled.
    Returns (roots, level, target_len) for ``_blocking_phase``, or None when
    no augmenting path of length <= max_len is left.  This is the one place
    that decides a phase can end: with either side empty, before any search.
    """
    deg, cap = state.deg, state.cap
    clients = state.free_clients()
    servers = [s for s in state.inst.servers if deg[s] < cap[s]]
    if not clients or not servers:
        return None
    if len(servers) < len(clients):
        return _bfs_back(state, servers, max_len)
    level, end = _bfs(state, clients, max_len)
    return None if end is None else (clients, level, level[end])


def _phases(inst: Instance, profile: CapacityProfile, max_phases: float,
            max_len: float) -> CapMatching:
    """Run up to ``max_phases`` shortest-augmentation phases from the empty
    matching, stopping once no augmenting path of length <= max_len is
    left.  ``max_phases`` and ``max_len`` are at least 1, so the greedy fill
    is always phase 1; each later phase is layered by ``_layers``, from the
    side with fewer free vertices, and blocked by ``_blocking_phase``."""
    state = CapMatching(inst, profile)
    phase = 1
    if _greedy_fill(state):
        while phase < max_phases and (layered := _layers(state, max_len)) is not None:
            _blocking_phase(state, *layered)
            phase += 1
    return state


def eliminate_short_paths(inst: Instance, profile: CapacityProfile, k: int) -> CapMatching:
    """Compute a matching with no augmenting path of length <= k."""
    if type(k) is not int or k < 1 or k % 2 == 0:
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
    if type(phases) is not int or phases < 1:
        raise ValueError("phases must be >= 1")
    return _phases(inst, profile, phases, _INF)
