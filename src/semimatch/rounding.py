"""Rounding split assignments into integral ones.

Two steps.  cancel_cycles removes every cycle from the support of a
capacitated matching in one depth-first walk, cancelling each cycle where it
closes; every vertex degree is preserved and the support becomes a forest.
star_round then rounds the forest into server-centered stars, assigning each
client wholly to one support server.
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


def cancel_cycles(inst: Instance, mult: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """Remove all support cycles by alternating +/- updates, preserving every
    vertex degree; returns a new dict and leaves ``mult`` unchanged.

    One iterative DFS over the support, roots and neighbours in ascending id.
    The DFS path is a tree path, so a live edge from the top vertex to a vertex
    u on the path closes the cycle path[pos(u):] + (top, u).  The alternation
    holding the cycle's lexicographically smallest edge goes up by delta, the
    other down by delta (its minimum), and edges at zero leave the support.
    The path is then cut just above the first tree edge that reached zero; the
    vertices cut off are unvisited again and rescanned from their first
    neighbour when the DFS reaches them anew.
    """
    mult = {e: x for e, x in mult.items() if x > 0}
    adj: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    for e in mult:
        c, s = e
        adj.setdefault(c, []).append((s, e))
        adj.setdefault(s, []).append((c, e))
    for vs in adj.values():
        vs.sort()
    # Invariant: outside its finished subtree, a finished vertex's only live
    # edge is the tree edge to its parent.  Cycles only change edges of the
    # path, so a finished subtree is a pendant tree for good and is skipped.
    done: set[int] = set()
    for root in sorted(adj):
        if root in done:
            continue
        path = [root]
        tree: list[tuple[int, int] | None] = [None]  # tree[k] joins path[k - 1], path[k]
        pos = {root: 0}
        scan = {root: 0}
        while path:
            v = path[-1]
            if scan[v] == len(adj[v]):
                done.add(v)
                del pos[v]
                path.pop()
                tree.pop()
                continue
            u, e = adj[v][scan[v]]
            scan[v] += 1
            if e not in mult or u in done or e == tree[-1]:
                continue
            if u not in pos:
                pos[u], scan[u] = len(path), 0
                path.append(u)
                tree.append(e)
                continue
            cycle = tree[pos[u] + 1:] + [e]
            parity = cycle.index(min(cycle)) % 2
            inc, dec = cycle[parity::2], cycle[1 - parity::2]
            delta = min(mult[f] for f in dec)
            for f in inc:
                mult[f] += delta
            for f in dec:
                mult[f] -= delta
                if mult[f] == 0:
                    del mult[f]
            cut = next((k for k in range(pos[u] + 1, len(path)) if tree[k] not in mult), None)
            if cut is not None:
                for w in path[cut:]:
                    del pos[w]
                del path[cut:], tree[cut:]
    return mult


def star_round(inst: Instance, mult: dict[tuple[int, int], int]) -> dict[int, int]:
    """Round a forest-supported matching with client degrees equal to the
    weights into an assignment.

    Each support tree is rooted at its smallest-id vertex.  A client with a
    child server assigns wholly to its smallest-id child; a childless client
    assigns to its parent server.  Per server s the load is bounded by
    x(delta(s)) + max assigned weight: at most one client assigns down into s
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
        if deg[c] != inst.weight[c]:
            raise ValueError(f"client {c} has support degree {deg[c]}, "
                             f"expected its weight {inst.weight[c]}")
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
    mapping = star_round(inst, forest)
    return Assignment(inst, mapping)
