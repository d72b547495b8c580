"""Bipartite client/server instances: construction, normalization, weight classes, I/O.

An instance is a bipartite graph on dense integer ids in [0, n).  Clients carry
positive integer weights; servers accumulate load.  All objects here are
treated as immutable after construction and may be shared freely.
"""

from __future__ import annotations

import copy
import json
import math
import random
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field


class InstanceError(ValueError):
    """Raised for malformed instance data (bad ids, weights, edges, files)."""


def _next_pow2(x: int) -> int:
    return 1 << (x - 1).bit_length() if x > 1 else 1


def _prev_pow2(x: int) -> int:
    return 1 << (x.bit_length() - 1)


@dataclass
class Instance:
    """A bipartite load-balancing instance.

    clients / servers are disjoint dense id ranges covering [0, n), with no
    id repeated; edges join one client and one server; weights are positive
    integers.

    Construction sorts ``clients``, ``servers`` and ``edges``, and fills
    ``client_adj`` and ``server_adj`` in ascending id order.  Edge id e names
    ``edges[e]``.  Since edges sort by client first, client c's edges are
    the contiguous ids ``edge_start[c] + i``, one per ``client_adj[c][i]``.
    Server s's edge ids sit at ``server_edges[edge_start[s] + i]``, one per
    ``server_adj[s][i]``.  ``edge_start`` is indexed by vertex id; both
    arrays are C ints, for the matching engine's edge-indexed state.
    """

    clients: tuple[int, ...]
    servers: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    weight: dict[int, int]

    # adjacency caches and the edge-id layout, filled in __post_init__
    client_adj: dict[int, tuple[int, ...]] = field(default_factory=dict, repr=False)
    server_adj: dict[int, tuple[int, ...]] = field(default_factory=dict, repr=False)
    edge_start: array = field(default_factory=lambda: array("i"), repr=False)
    server_edges: array = field(default_factory=lambda: array("i"), repr=False)

    def __post_init__(self) -> None:
        cset, sset = set(self.clients), set(self.servers)
        for kind, ids, unique in (("client", self.clients, cset), ("server", self.servers, sset)):
            if len(ids) != len(unique):
                repeated = next(i for i, count in Counter(ids).items() if count > 1)
                raise InstanceError(f"{kind} id {repeated} is repeated")
        if cset & sset:
            raise InstanceError(f"client/server id overlap: {sorted(cset & sset)[:5]}")
        n = len(cset) + len(sset)
        if cset | sset != set(range(n)):
            raise InstanceError("ids must be dense integers in [0, n)")
        if len(self.edges) != len(set(self.edges)):
            raise InstanceError("duplicate edges are not allowed")
        self.clients = tuple(sorted(self.clients))
        self.servers = tuple(sorted(self.servers))
        # sorted edges fill every adjacency list in ascending id order
        ca: dict[int, list[int]] = {c: [] for c in self.clients}
        sa: dict[int, list[int]] = {s: [] for s in self.servers}
        se: dict[int, list[int]] = {s: [] for s in self.servers}
        try:
            edges = tuple(sorted(self.edges))
            for e, (c, s) in enumerate(edges):
                ca[c].append(s)
                sa[s].append(c)
                se[s].append(e)
        except (KeyError, TypeError):  # an end that is not a client or server
            for c, s in self.edges:
                if c not in cset:
                    raise InstanceError(f"edge ({c}, {s}): {c} is not a client") from None
                if s not in sset:
                    raise InstanceError(f"edge ({c}, {s}): {s} is not a server") from None
            raise
        self._check_weights()
        self.edges = edges
        self.client_adj = {c: tuple(ca[c]) for c in self.clients}
        self.server_adj = {s: tuple(sa[s]) for s in self.servers}
        start = array("i", [0]) * n
        first = 0
        for c in self.clients:
            start[c] = first
            first += len(ca[c])
        server_edges = array("i")
        for s in self.servers:
            start[s] = len(server_edges)
            server_edges.fromlist(se[s])
        self.edge_start, self.server_edges = start, server_edges

    def _check_weights(self) -> None:
        for c in self.clients:
            w = self.weight.get(c)
            if w is None or w <= 0:
                raise InstanceError(f"client {c} must have a positive weight, got {w}")

    @property
    def n(self) -> int:
        return len(self.clients) + len(self.servers)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def max_weight(self) -> int:
        return max(self.weight.values()) if self.clients else 1

    @property
    def total_weight(self) -> int:
        return sum(self.weight[c] for c in self.clients)

    @property
    def n_expanded(self) -> int:
        """Vertex count of the client-expanded graph: w(c) copies of each
        client c, plus the servers.  The graph itself is never built: its
        schedule runs on this one with client capacities w."""
        return self.total_weight + len(self.servers)

    def is_unit_weight(self) -> bool:
        return all(self.weight[c] == 1 for c in self.clients)

    def is_normalized(self) -> bool:
        return all(
            w & (w - 1) == 0 and w <= self.n for w in self.weight.values()
        )

    def degree(self, v: int) -> int:
        if v in self.client_adj:
            return len(self.client_adj[v])
        return len(self.server_adj[v])

    def edge_id(self, c: int, s: int) -> int | None:
        """The id of edge (c, s), or None when it is not an edge."""
        adj = self.client_adj.get(c)
        if adj is None:
            return None
        i = bisect_left(adj, s)
        return self.edge_start[c] + i if i < len(adj) and adj[i] == s else None

    def zero_degree_clients(self) -> list[int]:
        return [c for c in self.clients if not self.client_adj[c]]


@dataclass
class WeightClassView:
    """Clients of one power-of-two weight class and their induced subgraph."""

    class_index: int  # class weight is 2**class_index
    clients: tuple[int, ...]
    servers: tuple[int, ...]  # N(C_i)
    edges: tuple[tuple[int, int], ...]

    @property
    def class_weight(self) -> int:
        return 1 << self.class_index


def build_instance(
    clients,
    servers,
    edges,
    weights: dict[int, int] | None = None,
) -> Instance:
    """Construct a validated Instance; unit weights when ``weights`` is None."""
    clients = tuple(clients)
    if weights is None:
        weights = {c: 1 for c in clients}
    return Instance(clients, tuple(servers), tuple(tuple(e) for e in edges), dict(weights))


def normalize_weights(inst: Instance) -> Instance:
    """Rescale weights so all are powers of two and at most n.

    When the maximum weight exceeds n, every weight is first rescaled by n/W
    (rounded up), then each weight is rounded up to the nearest power of two.
    A power-of-two rounded weight that still exceeds n is clamped down to the
    largest power of two <= n, which keeps the stated invariant and makes the
    operation idempotent.

    The result shares ``inst``'s ids, edges, adjacency and edge-id layout,
    which are already validated and sorted; only the weights are new.
    """
    n = inst.n
    W = inst.max_weight
    cap = _prev_pow2(n) if n >= 1 else 1
    new_w = {}
    for c in inst.clients:
        w = inst.weight[c]
        if W > n:
            w = math.ceil(w * n / W)
        w = _next_pow2(w)
        if w > n:
            w = cap
        new_w[c] = w
    out = copy.copy(inst)
    out.weight = new_w
    out._check_weights()
    return out


def weight_classes(inst: Instance) -> list[WeightClassView]:
    """Partition a normalized instance into per-weight-class induced subgraphs."""
    for c in inst.clients:
        w = inst.weight[c]
        if w & (w - 1) != 0:
            raise InstanceError(
                f"client {c} has non-power-of-two weight {w}; call normalize_weights first"
            )
    by_class: dict[int, list[int]] = {}
    edges_of: dict[int, list[tuple[int, int]]] = {}
    for c in inst.clients:
        by_class.setdefault(inst.weight[c].bit_length() - 1, []).append(c)
    for e in inst.edges:
        edges_of.setdefault(inst.weight[e[0]].bit_length() - 1, []).append(e)
    views = []
    for i in sorted(by_class):
        es = tuple(edges_of.get(i, ()))
        srv = tuple(sorted({s for _, s in es}))
        views.append(WeightClassView(i, tuple(by_class[i]), srv, es))
    return views


def induced_subinstance(view: WeightClassView) -> Instance:
    """Relabel a weight class's induced subgraph into a dense-id sub-instance:
    ``view.clients[i]`` becomes client i and ``view.servers[j]`` server
    ``len(view.clients) + j``.  Weights are reset to 1 (callers use this for
    the per-class unweighted reduction).
    """
    cmap = {c: i for i, c in enumerate(view.clients)}
    smap = {s: len(cmap) + j for j, s in enumerate(view.servers)}
    return build_instance(cmap.values(), smap.values(),
                          [(cmap[c], smap[s]) for c, s in view.edges])


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

# generator -> the parameters it takes
_GENERATOR_PARAMS = {
    "random-bipartite": ("n_clients", "n_servers", "p"),
    "star": ("n_clients",),
    "disjoint-perfect": ("k",),
    "power-law-degrees": ("n_clients", "n_servers", "exponent"),
    "weighted-random": ("n_clients", "n_servers", "p", "max_weight"),
}
GENERATORS = tuple(_GENERATOR_PARAMS)


def generate_instance(name: str, seed: int = 0, **params) -> Instance:
    """Deterministic instance generators, taking the parameters
    ``_GENERATOR_PARAMS`` lists.  Every client ends up with degree >= 1 (a
    fallback edge is added when sampling leaves a client isolated).
    ``InstanceError`` names a parameter that is missing, of the wrong type
    or not taken by the generator.
    """
    if name not in _GENERATOR_PARAMS:
        raise InstanceError(f"unknown generator {name!r}; expected one of {GENERATORS}")
    unknown = sorted(set(params) - set(_GENERATOR_PARAMS[name]))
    if unknown:
        raise InstanceError(f"{name} takes no parameter {unknown[0]!r}; "
                            f"expected {', '.join(_GENERATOR_PARAMS[name])}")

    def param(key: str, kind, default=None):
        """``params[key]``, an int (``kind`` int) or an int or float (``kind``
        float), never a bool; required unless it has a default."""
        if key not in params:
            if default is None:
                raise InstanceError(f"{name} requires parameter {key!r}")
            return default
        value = params[key]
        if kind is int and type(value) in (bool, float):
            raise InstanceError(f"{name} parameter {key!r} must be an integer, got {value!r}")
        if type(value) not in (int, float):
            raise InstanceError(f"{name} parameter {key!r} must be a number, got {value!r}")
        return kind(value)

    rng = random.Random(seed)
    if name == "star":
        nc = param("n_clients", int)
        if nc < 1:
            raise InstanceError("star requires n_clients >= 1")
        return build_instance(range(nc), [nc], [(c, nc) for c in range(nc)])
    if name == "disjoint-perfect":
        k = param("k", int)
        if k < 1:
            raise InstanceError("disjoint-perfect requires k >= 1")
        return build_instance(range(k), range(k, 2 * k), [(i, k + i) for i in range(k)])
    if name == "random-bipartite":
        return _random_bipartite(rng, param("n_clients", int), param("n_servers", int),
                                 param("p", float))
    if name == "power-law-degrees":
        nc, ns = param("n_clients", int), param("n_servers", int)
        exponent = param("exponent", float, 2.0)
        if nc < 1 or ns < 1:
            raise InstanceError("power-law-degrees parameters out of range")
        if not exponent > 0:  # nan too
            raise InstanceError(f"power-law-degrees requires exponent > 0, got {exponent!r}")
        servers = list(range(nc, nc + ns))
        # server attachment weights ~ rank^(-exponent)
        attach = [1.0 / (i + 1) ** exponent for i in range(ns)]
        edges = set()
        for c in range(nc):
            deg = max(1, min(ns, int(rng.paretovariate(exponent))))
            # bias attachment toward high-rank servers
            for s in rng.choices(servers, weights=attach, k=deg):
                edges.add((c, s))
        return build_instance(range(nc), servers, sorted(edges))
    # weighted-random
    max_w = param("max_weight", int, 8)
    if max_w < 1:
        raise InstanceError("weighted-random requires max_weight >= 1")
    base = _random_bipartite(rng, param("n_clients", int), param("n_servers", int),
                             param("p", float))
    weights = {c: rng.randint(1, max_w) for c in base.clients}
    return build_instance(base.clients, base.servers, base.edges, weights)


def _random_bipartite(rng: random.Random, nc: int, ns: int, p: float) -> Instance:
    if nc < 1 or ns < 1 or not (0.0 <= p <= 1.0):
        raise InstanceError("random-bipartite parameters out of range")
    servers = list(range(nc, nc + ns))
    edges = []
    for c in range(nc):
        row = [s for s in servers if rng.random() < p]
        if not row:
            row = [rng.choice(servers)]
        edges.extend((c, s) for s in row)
    return build_instance(range(nc), servers, edges)


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

_ALLOWED_KEYS = {"clients", "servers", "edges"}


def write_instance(inst: Instance, path) -> None:
    """Write the JSON instance format (keys ordered, arrays sorted by id)."""
    doc = {
        "clients": [{"id": c, "weight": inst.weight[c]} for c in inst.clients],
        "servers": [{"id": s} for s in inst.servers],
        "edges": [[c, s] for c, s in inst.edges],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_instance(path) -> Instance:
    """Read the JSON instance format, with field-level diagnostics."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise InstanceError(f"{path}: top-level value must be an object")
    unknown = set(doc) - _ALLOWED_KEYS
    if unknown:
        raise InstanceError(f"{path}: unknown field {sorted(unknown)[0]!r}")
    for key in ("clients", "servers", "edges"):
        if key not in doc:
            raise InstanceError(f"{path}: missing field {key!r}")
        if not isinstance(doc[key], list):
            raise InstanceError(f"{path}: {key!r} must be a list")
    if not doc["clients"]:
        raise InstanceError(f"{path}: 'clients' must not be empty")
    # type() rather than isinstance(): JSON true is a bool, and a bool is an int
    clients, weights = [], {}
    for i, entry in enumerate(doc["clients"]):
        if not isinstance(entry, dict) or "id" not in entry or "weight" not in entry:
            raise InstanceError(f"{path}: clients[{i}] must have 'id' and 'weight'")
        if type(entry["id"]) is not int:
            raise InstanceError(f"{path}: clients[{i}].id must be an integer")
        if type(entry["weight"]) is not int or entry["weight"] <= 0:
            raise InstanceError(f"{path}: clients[{i}].weight must be a positive integer")
        clients.append(entry["id"])
        weights[entry["id"]] = entry["weight"]
    servers = []
    for i, entry in enumerate(doc["servers"]):
        if not isinstance(entry, dict) or "id" not in entry:
            raise InstanceError(f"{path}: servers[{i}] must have 'id'")
        if type(entry["id"]) is not int:
            raise InstanceError(f"{path}: servers[{i}].id must be an integer")
        servers.append(entry["id"])
    edges = []
    for i, e in enumerate(doc["edges"]):
        if not isinstance(e, list) or len(e) != 2 or any(type(v) is not int for v in e):
            raise InstanceError(
                f"{path}: edges[{i}] must be a [client, server] pair of integer ids"
            )
        edges.append((e[0], e[1]))
    try:
        return build_instance(clients, servers, edges, weights)
    except InstanceError as exc:
        raise InstanceError(f"{path}: {exc}") from exc
