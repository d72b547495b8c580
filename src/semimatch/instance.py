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
from itertools import chain
from operator import itemgetter
from typing import NamedTuple


class InstanceError(ValueError):
    """Raised for malformed instance data (bad ids, weights, edges, files)."""


def _ceil_log2(x: int) -> int:
    """The least i >= 0 with 2**i >= x."""
    return (x - 1).bit_length() if x > 1 else 0


def _prev_pow2(x: int) -> int:
    return 1 << (x.bit_length() - 1)


@dataclass
class Instance:
    """A bipartite load-balancing instance.

    clients / servers are disjoint dense id ranges covering [0, n), with no
    id repeated; edges are (client, server) tuples, a namedtuple none
    (``build_instance`` converts any pair); weights are positive integers.
    Ids, edge ends and weights are plain ints (a bool or a float is none),
    and the constructor checks all of it.

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

    # adjacency caches and the edge-id layout, derived in __post_init__
    client_adj: dict[int, tuple[int, ...]] = field(init=False, compare=False, repr=False)
    server_adj: dict[int, tuple[int, ...]] = field(init=False, compare=False, repr=False)
    edge_start: array = field(init=False, compare=False, repr=False)
    server_edges: array = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self._validate()
        self._layout()

    def _validate(self) -> None:
        """Check the parts and sort ``clients``, ``servers`` and ``edges``.
        ``InstanceError`` names first an id that is not a plain int, an edge
        that is not a tuple or not a pair, or an edge end that is not a plain
        int, before any is hashed."""
        for kind, ids in (("client", self.clients), ("server", self.servers)):
            if not set(map(type, ids)) <= {int}:
                bad = next(v for v in ids if type(v) is not int)
                raise InstanceError(f"{kind} id {bad!r} is not a plain int")
        edges = self.edges
        if not set(map(type, edges)) <= {tuple}:
            bad = next(e for e in edges if type(e) is not tuple)
            raise InstanceError(f"edge {bad!r} must be a (client, server) tuple")
        if not set(map(len, edges)) <= {2}:
            bad = next(e for e in edges if len(e) != 2)
            raise InstanceError(f"edge {bad} must be a (client, server) pair")
        if not set(map(type, chain.from_iterable(edges))) <= {int}:
            c, s = next(e for e in edges if type(e[0]) is not int or type(e[1]) is not int)
            end, kind = (c, "client") if type(c) is not int else (s, "server")
            raise InstanceError(f"edge ({c}, {s}): {end} is not a {kind}")
        cset, sset = set(self.clients), set(self.servers)
        for kind, ids, unique in (("client", self.clients, cset),
                                  ("server", self.servers, sset)):
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
        if not (cset.issuperset(map(itemgetter(0), self.edges))
                and sset.issuperset(map(itemgetter(1), self.edges))):
            for c, s in self.edges:  # name the first edge with a bad end
                if c not in cset:
                    raise InstanceError(f"edge ({c}, {s}): {c} is not a client")
                if s not in sset:
                    raise InstanceError(f"edge ({c}, {s}): {s} is not a server")
        self._check_weights()
        self.clients = tuple(sorted(self.clients))
        self.servers = tuple(sorted(self.servers))
        self.edges = tuple(sorted(self.edges))

    def _layout(self) -> None:
        """Fill the adjacency and the edge-id layout from valid, sorted parts."""
        # sorted edges fill every adjacency list in ascending id order
        ca: dict[int, list[int]] = {c: [] for c in self.clients}
        sa: dict[int, list[int]] = {s: [] for s in self.servers}
        se: dict[int, list[int]] = {s: [] for s in self.servers}
        for e, (c, s) in enumerate(self.edges):
            ca[c].append(s)
            sa[s].append(c)
            se[s].append(e)
        self.client_adj = {c: tuple(ca[c]) for c in self.clients}
        self.server_adj = {s: tuple(sa[s]) for s in self.servers}
        start = array("i", [0]) * self.n
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
            if type(w) is not int or w <= 0:  # a bool or a float is no weight
                raise InstanceError(f"client {c} must have a positive int weight, got {w!r}")

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
        n = self.n
        return all(w & (w - 1) == 0 and w <= n for w in self.weight.values())

    def degree(self, v: int) -> int:
        if v in self.client_adj:
            return len(self.client_adj[v])
        return len(self.server_adj[v])

    def edge_id(self, c: int, s: int) -> int | None:
        """The id of edge (c, s), or None when it is not an edge (an end
        that is not a plain int, a bool or a float included, is none)."""
        adj = self.client_adj.get(c)
        if adj is None or type(c) is not int or type(s) is not int:
            return None
        i = bisect_left(adj, s)
        return self.edge_start[c] + i if i < len(adj) and adj[i] == s else None

    def zero_degree_clients(self) -> list[int]:
        return [c for c in self.clients if not self.client_adj[c]]


class WeightClass(NamedTuple):
    """One power-of-two weight class C_i of a normalized instance: the
    subgraph of C_i and N(C_i) as a unit-weight instance on dense sub ids.
    Sub id v stands for base vertex ``base_id[v]``."""

    weight: int
    instance: Instance
    base_id: tuple[int, ...]


def build_instance(
    clients,
    servers,
    edges,
    weights: dict[int, int] | None = None,
) -> Instance:
    """Construct a validated Instance; unit weights when ``weights`` is None."""
    clients, servers = tuple(clients), tuple(servers)
    try:
        edges = tuple(map(tuple, edges))
    except TypeError:  # edges or an edge that is not iterable; the edge is named
        # unless edges is none or an iterator that already ran past it
        bad = ([e for e in edges if not hasattr(e, "__iter__")][:1]
               if hasattr(edges, "__iter__") else [])
        raise InstanceError(f"edge {bad[0]!r} must be a (client, server) pair" if bad
                            else "edges must be (client, server) pairs") from None
    if weights is None:
        try:
            weights = dict.fromkeys(clients, 1)
        except TypeError:  # an unhashable client id, which Instance names
            weights = {}
    return Instance(clients, servers, edges, dict(weights))


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
        w = 1 << _ceil_log2(w)
        if w > n:
            w = cap
        new_w[c] = w
    out = copy.copy(inst)
    out.weight = new_w
    out._check_weights()
    return out


def weight_classes(inst: Instance) -> list[WeightClass]:
    """The weight classes of a normalized instance, by ascending weight.

    A class's sub-instance numbers its clients C_i from 0 and their
    neighbours N(C_i) after them, each side in ascending base id, so the
    relabelling keeps the order on each side.  All its weights are 1: the
    per-class reduction runs the unweighted solvers on it.  ``InstanceError`` names a client whose
    weight is not a power of two.
    """
    by_weight: dict[int, list[int]] = {}
    for c in inst.clients:
        w = inst.weight[c]
        if w & (w - 1) != 0:
            raise InstanceError(
                f"client {c} has non-power-of-two weight {w}; call normalize_weights first"
            )
        by_weight.setdefault(w, []).append(c)
    classes = []
    for w in sorted(by_weight):
        clients = by_weight[w]
        base_id = (*clients, *sorted({s for c in clients for s in inst.client_adj[c]}))
        sub_id = {v: i for i, v in enumerate(base_id)}
        # ascending on both sides, so the edges come out sorted
        edges = tuple((sub_id[c], sub_id[s]) for c in clients for s in inst.client_adj[c])
        nc = len(clients)
        sub = _laid_out(tuple(range(nc)), tuple(range(nc, len(base_id))), edges,
                        dict.fromkeys(range(nc), 1))
        classes.append(WeightClass(w, sub, base_id))
    return classes


def _laid_out(clients, servers, edges, weight) -> Instance:
    """The Instance of parts cut from a validated one, already valid and
    sorted: the layout step of construction without the validation."""
    inst = object.__new__(Instance)
    inst.clients, inst.servers, inst.edges, inst.weight = clients, servers, edges, weight
    inst._layout()
    return inst


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
    inst = _random_bipartite(rng, param("n_clients", int), param("n_servers", int),
                             param("p", float))
    inst.weight = {c: rng.randint(1, max_w) for c in inst.clients}  # only the weights are new
    return inst


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
# the fields of each entry of the lists that hold objects
_ENTRY_FIELDS = {"clients": ("id", "weight"), "servers": ("id",)}


def write_instance(inst: Instance, path) -> None:
    """Write the JSON instance format (keys ordered, arrays sorted by id):
    the bytes of ``json.dumps(doc, indent=1)`` and a newline, built as one
    string from ``_ENTRY_TEXT``, one template per entry."""
    weight = inst.weight
    lists = {
        "clients": [_ENTRY_TEXT["clients"] % (c, weight[c]) for c in inst.clients],
        "servers": [_ENTRY_TEXT["servers"] % s for s in inst.servers],
        "edges": [_ENTRY_TEXT["edges"] % e for e in inst.edges],
    }
    text = ",\n".join(f' "{key}": [\n' + ",\n".join(entries) + "\n ]" if entries
                      else f' "{key}": []' for key, entries in lists.items())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{{\n{text}\n}}\n")


# one entry of each list of an instance file as json.dumps(..., indent=1) lays
# it out, two levels deep
_ENTRY_TEXT = {
    "clients": """  {
   "id": %d,
   "weight": %d
  }""",
    "servers": """  {
   "id": %d
  }""",
    "edges": """  [
   %d,
   %d
  ]""",
}


def read_json(path):
    """The JSON value in file ``path``.  ``InstanceError`` names the file
    when it is not JSON or nests too deeply to decode."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        except RecursionError:
            raise InstanceError(f"{path}: JSON nested too deeply to decode") from None


def _columns(entries: list, fields: tuple) -> list[list] | None:
    """The column of each field over ``entries`` when every entry is an
    object of exactly ``fields``, else None.  C-level passes only."""
    if not (set(map(type, entries)) <= {dict} and set(map(len, entries)) <= {len(fields)}):
        return None
    try:
        return [list(map(itemgetter(f), entries)) for f in fields]
    except KeyError:  # an object with another key in place of a field
        return None


def _first_bad_entry(path, doc: dict) -> InstanceError | None:
    """The field-level error of the first malformed entry of ``doc``, or
    None when every entry is well formed."""
    for key, fields in _ENTRY_FIELDS.items():
        need = " and ".join(repr(f) for f in fields)
        for i, entry in enumerate(doc[key]):
            if not isinstance(entry, dict) or any(f not in entry for f in fields):
                return InstanceError(f"{path}: {key}[{i}] must have {need}")
            unknown = sorted(set(entry) - set(fields))
            if unknown:
                return InstanceError(f"{path}: {key}[{i}]: unknown field {unknown[0]!r}")
            if type(entry["id"]) is not int:
                return InstanceError(f"{path}: {key}[{i}].id must be an integer")
            if "weight" in fields and (type(entry["weight"]) is not int or entry["weight"] <= 0):
                return InstanceError(f"{path}: {key}[{i}].weight must be a positive integer")
    for i, e in enumerate(doc["edges"]):
        if not isinstance(e, list) or len(e) != 2 or any(type(v) is not int for v in e):
            return InstanceError(
                f"{path}: edges[{i}] must be a [client, server] pair of integer ids"
            )
    return None


def read_instance(path) -> Instance:
    """Read the JSON instance format, with field-level diagnostics."""
    doc = read_json(path)
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
    # the shape in C-level passes, and the client ids before they key the
    # weights; Instance checks the rest, and the per-entry walk only names
    # the first malformed entry
    clients = _columns(doc["clients"], _ENTRY_FIELDS["clients"])
    servers = _columns(doc["servers"], _ENTRY_FIELDS["servers"])
    if (clients is None or servers is None or not set(map(type, clients[0])) <= {int}
            or not set(map(type, doc["edges"])) <= {list}):
        raise _first_bad_entry(path, doc)
    ids, weights = clients
    try:
        return Instance(tuple(ids), tuple(servers[0]), tuple(map(tuple, doc["edges"])),
                        dict(zip(ids, weights)))
    except InstanceError as exc:
        raise _first_bad_entry(path, doc) or InstanceError(f"{path}: {exc}") from exc
