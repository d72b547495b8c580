import random
import sys
from types import SimpleNamespace

import pytest

from semimatch import build_instance, generate_instance, is_client_perfect, normalize_weights
from semimatch.rounding import _support


@pytest.fixture
def chain():
    """3 clients / 2 servers: c0-s3, c1-s3, c1-s4, c2-s4."""
    return build_instance([0, 1, 2], [3, 4], [(0, 3), (1, 3), (1, 4), (2, 4)])


@pytest.fixture
def star4():
    return generate_instance("star", n_clients=4)


def count_calls(monkeypatch, module, name):
    """Count the calls of ``module.name`` made through any reference the
    package holds to it, wherever it calls from; returns the list of each
    call's positional arguments."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "semimatch" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def first_perfect(inst, matchings):
    """Index in schedule order of the first client-perfect budget."""
    budgets = sorted(matchings)
    return next(i for i, B in enumerate(budgets) if is_client_perfect(inst, matchings[B]))


def random_unit(seed, nc=8, ns=4, p=0.5):
    return generate_instance("random-bipartite", seed=seed, n_clients=nc, n_servers=ns, p=p)


def random_weighted(seed, nc=8, ns=4, p=0.5, max_weight=8, normalized=True):
    inst = generate_instance(
        "weighted-random", seed=seed, n_clients=nc, n_servers=ns, p=p, max_weight=max_weight
    )
    return normalize_weights(inst) if normalized else inst


def support_degrees(mult: dict[tuple[int, int], int]) -> dict[int, int]:
    deg: dict[int, int] = {}
    for (c, s), x in mult.items():
        if x > 0:
            deg[c] = deg.get(c, 0) + x
            deg[s] = deg.get(s, 0) + x
    return deg


def random_split_support(seed):
    """A random client-perfect split of a small weighted instance: each client
    spreads its weight over a prefix of its servers."""
    inst = random_weighted(seed, nc=8, ns=4, p=0.6, max_weight=4)
    rng = random.Random(seed)
    mult = {}
    for c in inst.clients:
        left = inst.weight[c]
        for s in inst.client_adj[c]:
            if left == 0:
                break
            x = rng.randint(0, left)
            if x:
                mult[(c, s)] = x
                left -= x
        if left:
            mult[(c, inst.client_adj[c][0])] = mult.get((c, inst.client_adj[c][0]), 0) + left
    return inst, mult


def client_expand(inst):
    """The client-expanded graph the weighted schedule runs implicitly: each
    client c replaced by w(c) unit-weight copies with c's edges.  Has
    ``instance``, ``copy_of`` (copy -> (base client, copy index)) and
    ``server_map`` (base server -> expanded server)."""
    copy_of = {}
    for c in inst.clients:
        for j in range(1, inst.weight[c] + 1):
            copy_of[len(copy_of)] = (c, j)
    server_map = {s: len(copy_of) + i for i, s in enumerate(inst.servers)}
    edges = [(cid, server_map[s]) for cid, (c, _) in copy_of.items() for s in inst.client_adj[c]]
    expanded = build_instance(copy_of, server_map.values(), edges)
    return SimpleNamespace(instance=expanded, copy_of=copy_of, server_map=server_map)


def heavy_instance():
    """1000 clients of weight 1024 on 24 servers, two edges each: a
    normalized instance whose expanded graph has 1,024,024 vertices."""
    servers = range(1000, 1024)
    edges = [(c, 1000 + (c + i) % 24) for c in range(1000) for i in (0, 1)]
    return build_instance(range(1000), servers, edges, {c: 1024 for c in range(1000)})


def reference_star_round(inst, mult):
    """Star rounding by a DFS from ascending roots over neighbour lists of
    its own, with the forest checked by counting components: the reference
    that ``star_round`` and ``round_split`` are compared against.  ``mult``
    is read by ``rounding._support``, as ``star_round`` reads it.

    Each support tree is rooted at its smallest-id vertex.  A client with a
    child server assigns wholly to its smallest-id child; a childless client
    assigns to its parent server.  Neighbour lists are filled from the
    support's ascending edge ids, so each is ascending.
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


def reference_cancel_walk(inst, ids: list[int], x: list[int]) -> list[int]:
    """The cycle canceller ``rounding._cancel_walk`` is compared against:
    cancel every cycle of the support ``ids`` (ascending edge ids) in
    place in ``x``, the multiplicity of every edge id.

    The edges are inserted in ascending id into a rooted forest, held per
    vertex as its parent, the edge id to its parent (-1 at a root) and its
    degree in the forest.  A vertex of forest degree 0 is hung under the
    other end of its edge with no search.  Otherwise a's root path is marked
    and b walks up to the first marked vertex, their lowest common ancestor,
    or to its own root.

    * Different trees: the end with the shorter root path is re-rooted, by
      reversing the parent pointers along that path, and hung under the
      other end.
    * Same tree: the edge closes exactly one cycle, a up to the ancestor,
      down to b, then across the edge.  The alternation holding the cycle's
      smallest edge id goes up by delta, the other down by delta (its
      minimum).  Every tree edge that reached zero is cut; if the new edge
      is still positive, the piece cut off at the end nearer a cut is
      re-rooted at that end and hung under the other end.

    Invariant: the forest is exactly the positive edges inserted so far,
    and every other inserted edge is 0.  A cancel preserves every vertex
    degree, so at the end the support is a forest with the degrees it had.
    Nothing is rescanned: the cost is the sum of the root paths walked.
    Ids sort like (c, s), so the smallest id on a cycle is its
    lexicographically smallest edge.  Returns the forest as each vertex's
    parent, -1 at a root; on a forest support ``x`` stays unchanged.
    """
    edges, n = inst.edges, inst.n
    parent = [-1] * n
    up = [-1] * n
    deg = [0] * n
    mark = [-1] * n  # the edge id whose insertion marked the vertex last
    for e in ids:
        a, b = edges[e]
        if not (deg[a] and deg[b]):
            if deg[a]:
                a, b = b, a
            parent[a], up[a] = b, e
            deg[a] += 1
            deg[b] += 1
            continue
        v, depth_a = a, 0
        while v >= 0:
            mark[v] = e
            v = parent[v]
            depth_a += 1
        below_b = []  # b's root path below the common ancestor v
        v = b
        while v >= 0 and mark[v] != e:
            below_b.append(v)
            v = parent[v]
        if v >= 0:  # same tree: cancel the cycle a .. v .. b, e
            path = []  # the vertices whose tree edge is on the cycle, in order
            u = a
            while u != v:
                path.append(u)
                u = parent[u]
            n_a = len(path)
            path += reversed(below_b)
            cycle = [up[u] for u in path]
            cycle.append(e)
            parity = cycle.index(min(cycle)) & 1
            delta = min([x[f] for f in cycle[1 - parity::2]])
            for f in cycle[parity::2]:
                x[f] += delta
            for f in cycle[1 - parity::2]:
                x[f] -= delta
            cut = [k for k in range(1 - parity, len(path), 2) if not x[cycle[k]]]
            for k in cut:
                u = path[k]
                deg[u] -= 1
                deg[parent[u]] -= 1
                parent[u] = up[u] = -1
            if not x[e]:
                continue
            # a's piece is rooted at the lowest cut on its side, b's at the
            # highest cut on its side; re-root the one nearer its end
            to_a = cut[0] if cut[0] < n_a else n
            to_b = len(path) - 1 - cut[-1] if cut[-1] >= n_a else n
            if to_b < to_a:
                a, b = b, a
        elif len(below_b) < depth_a:
            a, b = b, a
        v, p, f = a, b, e  # re-root a's tree at a and hang it under b
        while v >= 0:
            next_v, next_f = parent[v], up[v]
            parent[v], up[v] = p, f
            v, p, f = next_v, v, next_f
        deg[a] += 1
        deg[b] += 1
    return parent
