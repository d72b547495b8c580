import random
import sys
from types import SimpleNamespace

import pytest

from semimatch import build_instance, generate_instance, is_client_perfect, normalize_weights


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
