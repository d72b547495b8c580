"""Rounding split assignments into integral ones.

Two steps.  cancel_cycles removes every cycle from the support of a
capacitated matching in one depth-first walk, cancelling each cycle where it
closes; every vertex degree is preserved and the support becomes a forest.
star_round then rounds the forest into server-centered stars, assigning each
client wholly to one support server.

Both run on the instance's edge ids (see ``Instance``): a flat multiplicity
per edge id, one neighbour list per vertex filled from the support's
ascending edge ids, and per-vertex flat lists and bytearrays for the walk.
Edge ids sort like (c, s), so the neighbour lists are ascending at both ends
and every result matches the one the same walk gives on (c, s) tuples.

A ``SplitAssignment`` holds its units on edge ids already, as ``_split``
builds them, so ``round_split`` runs the two walks back to back on a copy of
them, with no dict and no lookup in between.  The public ``cancel_cycles``
and ``star_round`` take and return dicts keyed by edge (c, s) and look every
key up once: an entry that is not a plain int, a negative one, or a positive
one on a key that is not an edge of the instance, raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from types import MappingProxyType
from typing import Mapping

from .instance import Instance


@dataclass
class SplitAssignment:
    """Client-perfect (w, inf)-matching: each client spreads exactly w(c)
    integral units over adjacent servers.

    ``x[e]`` is the number of units on edge id e of ``inst``, one plain int
    per edge id.  The constructor keeps ``x`` as given and rejects, with a
    ValueError, anything but a list of ``inst.m`` entries, an entry that is
    not a plain int (a bool or a float included) or is negative, and a client
    whose units do not sum to its weight.  ``mult`` (edge (c, s) -> positive
    units) is a read-only view of ``x``, built when read.
    """

    inst: Instance
    x: list[int]

    def __post_init__(self) -> None:
        inst, x = self.inst, self.x
        if type(x) is not list or len(x) != inst.m:
            raise ValueError(f"split must be a list of {inst.m} ints, one per edge id")
        if not set(map(type, x)) <= {int} or min(x, default=0) < 0:
            e, units = next((e, units) for e, units in enumerate(x)
                            if type(units) is not int or units < 0)
            c, s = inst.edges[e]
            if type(units) is not int:
                raise ValueError(f"multiplicity {units!r} on edge ({c}, {s}) is not an int")
            raise ValueError(f"negative multiplicity on edge ({c}, {s})")
        client_adj, edge_start, weight = inst.client_adj, inst.edge_start, inst.weight
        for c in inst.clients:
            first = edge_start[c]
            placed = sum(x[first:first + len(client_adj[c])])
            if placed != weight[c]:
                raise ValueError(f"client {c} places {placed} units but has weight {weight[c]}")

    @property
    def mult(self) -> MappingProxyType:
        x = self.x
        return MappingProxyType(dict(zip(compress(self.inst.edges, x), filter(None, x))))

    def loads(self) -> dict[int, int]:
        out = dict.fromkeys(self.inst.servers, 0)
        for (_, s), units in zip(compress(self.inst.edges, self.x), filter(None, self.x)):
            out[s] += units
        return out


def support_degrees(mult: dict[tuple[int, int], int]) -> dict[int, int]:
    deg: dict[int, int] = {}
    for (c, s), x in mult.items():
        if x > 0:
            deg[c] = deg.get(c, 0) + x
            deg[s] = deg.get(s, 0) + x
    return deg


def _support(inst: Instance, mult: Mapping[tuple[int, int], int]
             ) -> tuple[list[int], list[int]]:
    """The support of ``mult`` on ``inst``'s edge ids: its edge ids in
    ascending order, and the multiplicity of every edge id (0 off the
    support).  Zero entries are ignored.  A value that is not a plain int
    (a bool or a float included) or is negative raises ValueError, and so
    does a positive one on a key that is not an edge of ``inst``."""
    ids, x = [], [0] * inst.m
    edge_id = inst.edge_id
    for (c, s), units in mult.items():
        if type(units) is not int:
            raise ValueError(f"multiplicity {units!r} on edge ({c}, {s}) is not an int")
        if units < 0:
            raise ValueError(f"negative multiplicity on edge ({c}, {s})")
        if units:
            e = edge_id(c, s)
            if e is None:
                raise ValueError(f"({c}, {s}) is not an edge of the instance")
            ids.append(e)
            x[e] = units
    ids.sort()
    return ids, x


def cancel_cycles(inst: Instance, mult: Mapping[tuple[int, int], int]
                  ) -> dict[tuple[int, int], int]:
    """Remove all support cycles by alternating +/- updates, preserving every
    vertex degree; returns a new dict, in ascending edge order, and leaves
    ``mult`` unchanged.  See ``_cancel_walk``."""
    ids, x = _support(inst, mult)
    _cancel_walk(inst, ids, x)
    edges = inst.edges
    return {edges[e]: x[e] for e in ids if x[e]}


def _cancel_walk(inst: Instance, ids: list[int], x: list[int]) -> None:
    """Cancel every cycle of the support ``ids`` (ascending edge ids) in
    place in ``x``, the multiplicity of every edge id.

    One iterative DFS over the support, roots and neighbours in ascending id.
    The DFS path is a tree path, so a live edge from the top vertex to a vertex
    u on the path closes the cycle path[pos(u):] + (top, u).  The alternation
    holding the cycle's lexicographically smallest edge goes up by delta, the
    other down by delta (its minimum), and edges at zero leave the support.
    The path is then cut just above the first tree edge that reached zero; the
    vertices cut off are unvisited again and rescanned from their first
    neighbour when the DFS reaches them anew.

    ``adj[v]`` lists v's support edge ids in ascending order.  Ids sort like
    (c, s), so that is ascending neighbour order at both ends, and the
    smallest id on a cycle is its lexicographically smallest edge.
    """
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


def star_round(inst: Instance, mult: Mapping[tuple[int, int], int]) -> dict[int, int]:
    """Round a forest-supported matching with client degrees equal to the
    weights into an assignment.  See ``_star_walk``."""
    return _star_walk(inst, *_support(inst, mult))


def _star_walk(inst: Instance, ids: list[int], x: list[int]) -> dict[int, int]:
    """The assignment ``star_round`` picks on the support ``ids`` (ascending
    edge ids) with the multiplicity ``x[e]`` of every edge id.

    Each support tree is rooted at its smallest-id vertex.  A client with a
    child server assigns wholly to its smallest-id child; a childless client
    assigns to its parent server.  Per server s the load is bounded by
    x(delta(s)) + max assigned weight: at most one client assigns down into s
    (its tree parent), and the clients assigning up into s account for at
    most x(delta(s)) units.

    Neighbour lists are filled from ``ids`` in ascending order, so each is
    ascending.
    """
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
    """cancel_cycles followed by star_round; returns a solvers.Assignment.

    Both walks run on a copy of ``split.x``, from its ascending support ids.
    ``inst`` may be another instance than ``split.inst`` (a
    ``normalize_weights`` result, say), but its edges must be the same, so
    that the edge ids are; other edges raise ValueError.
    """
    from .solvers import Assignment  # local import to avoid a cycle

    if inst.edges != split.inst.edges:
        raise ValueError("the split is on another instance's edges")
    x = list(split.x)
    ids = list(compress(range(inst.m), x))
    _cancel_walk(inst, ids, x)
    forest = [e for e in ids if x[e]]
    return Assignment(inst, _star_walk(inst, forest, x))
