"""Rounding split assignments into integral ones.

Two steps.  cancel_cycles removes every cycle from the support of a
capacitated matching in one depth-first walk, cancelling each cycle where it
closes; every vertex degree is preserved and the support becomes a forest.
star_round then rounds the forest into server-centered stars, assigning each
client wholly to one support server.

Both take and return dicts keyed by edge (c, s), but run on the instance's
edge ids (see ``Instance``): a flat multiplicity per edge id, one neighbour
list per vertex filled from the support's ascending edge ids, and per-vertex
flat lists and bytearrays for the walk.  Edge ids sort like (c, s), so the
neighbour lists are ascending at both ends and every result matches the
one the same walk gives on (c, s) tuples.  A positive entry on a key that is
not an edge of the instance raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .instance import Instance


@dataclass
class SplitAssignment:
    """Client-perfect (w, inf)-matching: each client spreads exactly w(c)
    integral units over adjacent servers."""

    inst: Instance
    mult: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        deg = {c: 0 for c in self.inst.clients}
        edge_id = self.inst.edge_id
        for (c, s), x in list(self.mult.items()):
            if x < 0:
                raise ValueError(f"negative multiplicity on edge ({c}, {s})")
            if x == 0:
                del self.mult[(c, s)]
                continue
            if edge_id(c, s) is None:
                raise ValueError(f"edge ({c}, {s}) not in instance")
            deg[c] += x
        for c, d in deg.items():
            if d != self.inst.weight[c]:
                raise ValueError(
                    f"client {c} places {d} units but has weight {self.inst.weight[c]}"
                )

    def loads(self) -> dict[int, int]:
        out = {s: 0 for s in self.inst.servers}
        for (_, s), x in self.mult.items():
            out[s] += x
        return out


def support_degrees(mult: dict[tuple[int, int], int]) -> dict[int, int]:
    deg: dict[int, int] = {}
    for (c, s), x in mult.items():
        if x > 0:
            deg[c] = deg.get(c, 0) + x
            deg[s] = deg.get(s, 0) + x
    return deg


def _support(inst: Instance, mult: dict[tuple[int, int], int]) -> tuple[list[int], list[int]]:
    """The support of ``mult`` on ``inst``'s edge ids: its edge ids in
    ascending order, and the multiplicity of every edge id (0 off the
    support).  Entries of multiplicity <= 0 are ignored; a positive one on a
    key that is not an edge of ``inst`` raises ValueError."""
    ids, x = [], [0] * inst.m
    edge_id = inst.edge_id
    for (c, s), units in mult.items():
        if units > 0:
            e = edge_id(c, s)
            if e is None:
                raise ValueError(f"({c}, {s}) is not an edge of the instance")
            ids.append(e)
            x[e] = units
    ids.sort()
    return ids, x


def cancel_cycles(inst: Instance, mult: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """Remove all support cycles by alternating +/- updates, preserving every
    vertex degree; returns a new dict, in ascending edge order, and leaves
    ``mult`` unchanged.

    One iterative DFS over the support, roots and neighbours in ascending id.
    The DFS path is a tree path, so a live edge from the top vertex to a vertex
    u on the path closes the cycle path[pos(u):] + (top, u).  The alternation
    holding the cycle's lexicographically smallest edge goes up by delta, the
    other down by delta (its minimum), and edges at zero leave the support.
    The path is then cut just above the first tree edge that reached zero; the
    vertices cut off are unvisited again and rescanned from their first
    neighbour when the DFS reaches them anew.

    The walk runs on edge ids: ``x[e]`` is the multiplicity of edge id e and
    ``adj[v]`` lists v's support edge ids in ascending order.  Ids sort like
    (c, s), so that is ascending neighbour order at both ends, and the
    smallest id on a cycle is its lexicographically smallest edge.
    """
    ids, x = _support(inst, mult)
    edges = inst.edges
    adj: list[list[int]] = [[] for _ in range(inst.n)]
    tip = [0] * inst.m  # the sum of edge e's ends: its far end from v is tip[e] - v
    for e in ids:
        c, s = edges[e]
        adj[c].append(e)
        adj[s].append(e)
        tip[e] = c + s
    # Invariant: outside its finished subtree, a finished vertex's only live
    # edge is the tree edge to its parent.  Cycles only change edges of the
    # path, so a finished subtree is a pendant tree for good and is skipped.
    done = bytearray(inst.n)
    pos = [-1] * inst.n  # index on the DFS path, -1 when off it
    scan = [0] * inst.n  # next index of adj[v] to scan
    for root in range(inst.n):
        if done[root] or not adj[root]:
            continue
        path = [root]
        tree = [-1]  # tree[k] is the edge id joining path[k - 1] and path[k]
        pos[root] = scan[root] = 0
        while path:
            v = path[-1]
            vs, i, last = adj[v], scan[v], tree[-1]
            while i < len(vs):
                e = vs[i]
                i += 1
                if x[e] and e != last:
                    u = tip[e] - v
                    if not done[u]:
                        break
            else:
                done[v] = 1
                pos[v] = -1
                path.pop()
                tree.pop()
                continue
            scan[v] = i
            if pos[u] < 0:
                pos[u], scan[u] = len(path), 0
                path.append(u)
                tree.append(e)
                continue
            cycle = tree[pos[u] + 1:]
            cycle.append(e)
            parity = cycle.index(min(cycle)) % 2
            delta = min(x[f] for f in cycle[1 - parity::2])
            for f in cycle[parity::2]:
                x[f] += delta
            for f in cycle[1 - parity::2]:
                x[f] -= delta
            for k in range(pos[u] + 1, len(path)):
                if not x[tree[k]]:
                    for w in path[k:]:
                        pos[w] = -1
                    del path[k:], tree[k:]
                    break
    return {edges[e]: x[e] for e in ids if x[e]}


def star_round(inst: Instance, mult: dict[tuple[int, int], int]) -> dict[int, int]:
    """Round a forest-supported matching with client degrees equal to the
    weights into an assignment.

    Each support tree is rooted at its smallest-id vertex.  A client with a
    child server assigns wholly to its smallest-id child; a childless client
    assigns to its parent server.  Per server s the load is bounded by
    x(delta(s)) + max assigned weight: at most one client assigns down into s
    (its tree parent), and the clients assigning up into s account for at
    most x(delta(s)) units.

    Neighbour lists are filled from the support's edge ids in ascending
    order, so each is ascending.
    """
    ids, x = _support(inst, mult)
    edges, n = inst.edges, inst.n
    deg = [0] * n
    adj: list[list[int]] = [[] for _ in range(n)]
    for e in ids:
        c, s = edges[e]
        deg[c] += x[e]
        adj[c].append(s)
        adj[s].append(c)
    for c in inst.clients:
        if deg[c] != inst.weight[c]:
            raise ValueError(f"client {c} has support degree {deg[c]}, "
                             f"expected its weight {inst.weight[c]}")
    # forest check: edges (distinct) <= vertices - components
    n_vertices = sum(1 for vs in adj if vs)
    seen = bytearray(n)
    parent = [-1] * n
    assignment: dict[int, int] = {}
    components = 0
    for root in range(n):
        if seen[root] or not adj[root]:
            continue
        components += 1
        order = [root]
        seen[root] = 1
        stack = [root]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if not seen[u]:
                    parent[u] = v
                    seen[u] = 1
                    order.append(u)
                    stack.append(u)
        # a client root has a child: every neighbour of the root is one
        for v in order:
            if v in inst.client_adj:
                assignment[v] = next((u for u in adj[v] if parent[u] == v), parent[v])
    if len(ids) > n_vertices - components:
        raise ValueError("support contains a cycle; run cancel_cycles first")
    return assignment


def round_split(inst: Instance, split: SplitAssignment):
    """cancel_cycles followed by star_round; returns a solvers.Assignment."""
    from .solvers import Assignment  # local import to avoid a cycle

    forest = cancel_cycles(inst, split.mult)
    mapping = star_round(inst, forest)
    return Assignment(inst, mapping)
