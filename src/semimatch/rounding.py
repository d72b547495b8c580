"""Rounding split assignments into integral ones.

A split assignment is an integral flow; rounding lays its support out as a
forest and takes stars from it, as in Lenstra, Shmoys and Tardos' rounding
for unrelated machines.  ``_cancel_walk`` inserts the support's edges, in
ascending edge id, into a forest of parent pointers whose one rooting rule
keeps the client end of each inserted edge a root, and each edge that
closes a cycle cancels that one cycle on the spot, preserving every vertex
degree.  ``_stars`` re-roots each tree of that forest at its smallest vertex
and assigns each client wholly to one support server, so how the walk
roots the forest never reaches an assignment.

Both run on edge ids (see ``Instance``), ``round_split`` on a copy of the
``SplitAssignment``'s list, with no dict in between.  The public
``cancel_cycles`` and ``star_round`` take dicts keyed by edge (c, s) and
look every key up once: an entry that is not a plain int, a negative one,
or a positive one on a key that is not an edge of the instance, raises
ValueError.
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


def _cancel_walk(inst: Instance, ids: list[int], x: list[int]) -> list[int]:
    """Cancel every cycle of the support ``ids`` (ascending edge ids) in
    place in ``x``, the multiplicity of every edge id.

    The edges are inserted in ascending id into a rooted forest, held per
    vertex as its parent, the edge id to its parent (-1 at a root) and its
    degree in the forest.  One rule roots it: the client end a of the
    inserted edge is kept a root.  A server b of forest degree 0 is hung
    under a, else an a of forest degree 0 under b, with no search.
    Otherwise a's tree is re-rooted at a, by reversing the parent pointers
    along a's root path, and b walks up its own root path.

    * The path ends at a: the edge closes exactly that cycle, b up to a,
      then across the edge.  The alternation holding the cycle's smallest
      edge id goes up by delta, the other down by delta (its minimum).
      Every tree edge that reached zero is cut.
    * It ends elsewhere: the edge joins two trees.

    If the edge is still positive, a, the root of its piece, is hung under b.

    Invariant: the forest is exactly the positive edges inserted so far,
    and every other inserted edge is 0.  A cancel preserves every vertex
    degree, so at the end the support is a forest with the degrees it had.
    Nothing is rescanned: an insertion whose ends both have forest edges
    walks a's root path and b's, and b's is the cycle when the edge closes
    one.
    Ids sort like (c, s), so the smallest id on a cycle is its
    lexicographically smallest edge.  Returns the forest as each vertex's
    parent, -1 at a root; on a forest support ``x`` stays unchanged.
    """
    edges, n = inst.edges, inst.n
    parent = [-1] * n
    up = [-1] * n
    deg = [0] * n
    for e in ids:
        a, b = edges[e]
        if not deg[b]:
            parent[b], up[b] = a, e
        elif not deg[a]:
            parent[a], up[a] = b, e
        else:
            v, p, f = a, -1, -1  # re-root a's tree at a
            while v >= 0:
                next_v, next_f = parent[v], up[v]
                parent[v], up[v] = p, f
                v, p, f = next_v, v, next_f
            path = []  # b's root path, b first
            v = b
            while v >= 0:
                path.append(v)
                v = parent[v]
            if path[-1] == a:  # same tree: cancel the cycle b .. a, e
                path.pop()
                cycle = [up[u] for u in path]
                cycle.append(e)
                parity = cycle.index(min(cycle)) & 1
                delta = min([x[f] for f in cycle[1 - parity::2]])
                for f in cycle[parity::2]:
                    x[f] += delta
                for f in cycle[1 - parity::2]:
                    x[f] -= delta
                for k in range(1 - parity, len(path), 2):
                    if not x[cycle[k]]:
                        u = path[k]
                        deg[u] -= 1
                        deg[parent[u]] -= 1
                        parent[u] = up[u] = -1
                if not x[e]:
                    continue
            parent[a], up[a] = b, e
        deg[a] += 1
        deg[b] += 1
    return parent


def star_round(inst: Instance, mult: Mapping[tuple[int, int], int]) -> dict[int, int]:
    """Round a forest-supported matching with client degrees equal to the
    weights into an assignment; see ``_stars``, which rejects a cycle."""
    ids, x = _support(inst, mult)
    return _stars(inst, x, _cancel_walk(inst, ids, list(x)))


def _stars(inst: Instance, x: list[int], parent: list[int]) -> dict[int, int]:
    """The assignment, in ascending client order, that star rounding picks
    on the forest ``parent`` that ``_cancel_walk`` returned for ``x``.

    Every client's units in ``x`` must sum to its weight, and then their
    support must be that forest, one edge per vertex with a parent; else
    ValueError.  Each tree is re-rooted in place at its smallest vertex, the
    first of it an ascending pass meets, by reversing the pointers up to the
    old root; the pass marks every vertex it walks, so it is O(n).  A client
    with a child server assigns wholly to its smallest child, a childless
    one to its parent.  Per server s the load is at most x(delta(s)) + max
    assigned weight: at most one client assigns down into s (its tree
    parent), and the clients assigning up into s account for at most
    x(delta(s)) units.
    """
    client_adj, edge_start, weight = inst.client_adj, inst.edge_start, inst.weight
    for c in inst.clients:
        first = edge_start[c]
        degree = sum(x[first:first + len(client_adj[c])])
        if degree != weight[c]:
            raise ValueError(f"client {c} has support degree {degree}, "
                             f"expected its weight {weight[c]}")
    n = inst.n
    if inst.m - x.count(0) != n - parent.count(-1):
        raise ValueError("support contains a cycle; run cancel_cycles first")
    seen = bytearray(n)
    for v in range(n):
        u = v
        while u >= 0 and not seen[u]:
            seen[u] = 1
            u = parent[u]
        if u < 0:  # v is the first vertex of its tree: make it the root
            u, p = v, -1
            while u >= 0:
                parent[u], u, p = p, parent[u], u
    pick = parent.copy()  # a client with no child server assigns to its parent
    for s in reversed(inst.servers):  # so that the smallest child is written last
        if parent[s] >= 0:
            pick[parent[s]] = s
    return {c: pick[c] for c in inst.clients}


def round_split(inst: Instance, split: SplitAssignment):
    """Star rounding of the forest that cycle cancelling leaves of
    ``split``, both on a copy of ``split.x``; returns a solvers.Assignment.

    ``inst`` may be another instance than ``split.inst`` (a
    ``normalize_weights`` result, say), but its edges must be the same, so
    that the edge ids are; other edges raise ValueError.
    """
    from .solvers import Assignment  # local import to avoid a cycle

    if inst.edges != split.inst.edges:
        raise ValueError("the split is on another instance's edges")
    x = list(split.x)
    parent = _cancel_walk(inst, list(compress(range(inst.m), x)), x)
    return Assignment(inst, _stars(inst, x, parent))
