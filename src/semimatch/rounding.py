"""Rounding split assignments into integral ones.

Two steps: cancel cycles in the support of a capacitated matching (degree
preserving, leaves a forest), then round the forest into a collection of
server-centered stars, assigning each client wholly to one support server.
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
        edges = set(self.inst.edges)
        for (c, s), x in list(self.mult.items()):
            if x < 0:
                raise ValueError(f"negative multiplicity on edge ({c}, {s})")
            if x == 0:
                del self.mult[(c, s)]
                continue
            if (c, s) not in edges:
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


def _find_support_cycle(mult: dict[tuple[int, int], int]) -> list[tuple[int, int]] | None:
    """One cycle in the support (as an edge list), or None if it is a forest.

    Iterative DFS over the undirected support; parallel multiplicities on a
    single edge do not count as a cycle.
    """
    adj: dict[int, list[int]] = {}
    for (c, s), x in mult.items():
        if x > 0:
            adj.setdefault(c, []).append(s)
            adj.setdefault(s, []).append(c)
    for vs in adj.values():
        vs.sort()
    seen: set[int] = set()
    for root in sorted(adj):
        if root in seen:
            continue
        parent: dict[int, int | None] = {root: None}
        stack = [root]
        seen.add(root)
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u == parent[v]:
                    continue
                if u in parent:
                    # cycle: path v..root-ward meets u..root-ward
                    pv = _path_to_root(parent, v)
                    pu = _path_to_root(parent, u)
                    common = set(pv) & set(pu)
                    # trim both paths at the lowest common ancestor
                    lca = next(x for x in pv if x in common)
                    cyc_vertices = (
                        pv[: pv.index(lca) + 1] + list(reversed(pu[: pu.index(lca)])) + [v]
                    )
                    # cyc_vertices: v .. lca .. u, close with edge (u, v);
                    # endpoints are unordered, cancel_cycles orients them
                    return list(zip(cyc_vertices, cyc_vertices[1:]))
                parent[u] = v
                seen.add(u)
                stack.append(u)
    return None


def _path_to_root(parent: dict[int, int | None], v: int) -> list[int]:
    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path


def _orient(inst: Instance, a: int, b: int) -> tuple[int, int]:
    return (a, b) if a in inst.client_adj else (b, a)


def cancel_cycles(inst: Instance, mult: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """Remove all support cycles by alternating +/- updates, preserving every
    vertex degree.  The alternation containing the lexicographically smallest
    edge of each cycle is the increased one; DFS restarts after each
    cancellation."""
    mult = {e: x for e, x in mult.items() if x > 0}
    while True:
        cycle = _find_support_cycle(mult)
        if cycle is None:
            return mult
        edges = [_orient(inst, a, b) for a, b in cycle]
        # bipartite cycles have even length; split into the two alternations
        smallest = min(range(len(edges)), key=lambda i: edges[i])
        inc = [edges[i] for i in range(len(edges)) if i % 2 == smallest % 2]
        dec = [edges[i] for i in range(len(edges)) if i % 2 != smallest % 2]
        delta = min(mult[e] for e in dec)
        for e in inc:
            mult[e] = mult.get(e, 0) + delta
        for e in dec:
            mult[e] -= delta
            if mult[e] == 0:
                del mult[e]


def star_round(
    inst: Instance,
    mult: dict[tuple[int, int], int],
    kappa: dict[int, int],
) -> dict[int, int]:
    """Round a forest-supported client-perfect matching into an assignment.

    Each support tree is rooted at its smallest-id vertex.  A client with a
    child server assigns wholly to its smallest-id child; a childless client
    assigns to its parent server.  Per server s the load is bounded by
    x(delta(s)) + max assigned kappa: at most one client assigns down into s
    (its tree parent), and the clients assigning up into s account for at
    most x(delta(s)) units.
    """
    mult = {e: x for e, x in mult.items() if x > 0}
    deg = {c: 0 for c in inst.clients}
    adj: dict[int, list[int]] = {}
    for (c, s), x in mult.items():
        deg[c] += x
        adj.setdefault(c, []).append(s)
        adj.setdefault(s, []).append(c)
    for c in inst.clients:
        if deg[c] != kappa[c]:
            raise ValueError(f"client {c} has support degree {deg[c]}, expected kappa {kappa[c]}")
    # forest check: edges (distinct) <= vertices - components
    n_vertices = len(adj)
    n_edges = len(mult)
    for vs in adj.values():
        vs.sort()
    seen: set[int] = set()
    assignment: dict[int, int] = {}
    components = 0
    for root in sorted(adj):
        if root in seen:
            continue
        components += 1
        parent: dict[int, int | None] = {root: None}
        order = [root]
        seen.add(root)
        stack = [root]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in parent:
                    parent[u] = v
                    seen.add(u)
                    order.append(u)
                    stack.append(u)
        for v in order:
            if v not in inst.client_adj:
                continue
            children = [u for u in adj[v] if parent.get(u) == v]
            if children:
                assignment[v] = children[0]
            elif parent[v] is not None:
                assignment[v] = parent[v]
            else:
                raise ValueError(f"isolated client {v} in support")
    if n_edges > n_vertices - components:
        raise ValueError("support contains a cycle; run cancel_cycles first")
    return assignment


def round_split(inst: Instance, split: SplitAssignment):
    """cancel_cycles followed by star_round; returns a solvers.Assignment."""
    from .solvers import Assignment  # local import to avoid a cycle

    forest = cancel_cycles(inst, split.mult)
    mapping = star_round(inst, forest, dict(inst.weight))
    return Assignment(inst, mapping)
