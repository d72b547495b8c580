"""Independent checks of solver outputs.

The benchmark keeps its own copy of each instance's edge list and weights,
validates every assignment against it and recomputes the loads there.  The
split l_inf optimum comes from a binary search over
scipy.sparse.csgraph.maximum_flow, which shares no code with the package.
"""

from __future__ import annotations

import hashlib
import json


class InvalidOutput(Exception):
    """A solver output that breaks the instance it was computed for."""


class EdgeCopy:
    """The benchmark's own copy of an instance: client -> adjacent servers,
    client -> weight, and the server list."""

    def __init__(self, clients, servers, edges, weight):
        self.clients = tuple(clients)
        self.servers = tuple(servers)
        self.edges = tuple(edges)
        self.weight = {c: weight[c] for c in self.clients}
        self.adj: dict[int, set[int]] = {c: set() for c in self.clients}
        for c, s in self.edges:
            self.adj[c].add(s)

    def loads(self, mapping: dict[int, int]) -> dict[int, int]:
        """Validate a client -> server assignment and return its loads."""
        if set(mapping) != set(self.adj):
            missing = sorted(set(self.adj) - set(mapping))[:3]
            extra = sorted(set(mapping) - set(self.adj))[:3]
            raise InvalidOutput(f"assignment covers the wrong clients: missing {missing}, "
                                f"extra {extra}")
        loads = {s: 0 for s in self.servers}
        for c, s in mapping.items():
            if s not in self.adj[c]:
                raise InvalidOutput(f"client {c} assigned to non-adjacent server {s}")
            loads[s] += self.weight[c]
        return loads


def digest(mapping: dict[int, int]) -> str:
    blob = json.dumps(sorted(mapping.items()), separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def split_optimum(copy: EdgeCopy) -> int:
    """Minimum B admitting a client-perfect (w, B)-matching with unbounded
    edge multiplicities, by binary search over scipy maximum flow."""
    # imported here, after the timed loop, so that scipy stays out of
    # peak_rss_mb
    import numpy as np
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_flow

    nc, ns = len(copy.clients), len(copy.servers)
    cidx = {c: 1 + i for i, c in enumerate(copy.clients)}
    sidx = {s: 1 + nc + j for j, s in enumerate(copy.servers)}
    sink = 1 + nc + ns
    total = sum(copy.weight.values())
    if total >= 2**31:
        raise ValueError("total weight does not fit scipy's int32 capacities")
    rows = np.array([0] * nc + [cidx[c] for c, _ in copy.edges]
                    + [sidx[s] for s in copy.servers], dtype=np.int32)
    cols = np.array([cidx[c] for c in copy.clients] + [sidx[s] for _, s in copy.edges]
                    + [sink] * ns, dtype=np.int32)
    caps = np.array([copy.weight[c] for c in copy.clients] + [total] * len(copy.edges)
                    + [0] * ns, dtype=np.int32)

    def feasible(budget: int) -> bool:
        caps[-ns:] = budget
        graph = csr_array((caps, (rows, cols)), shape=(sink + 1, sink + 1))
        return maximum_flow(graph, 0, sink).flow_value == total

    lo, hi = max(1, -(-total // ns)), total
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo
