"""Golden digests of the sequential back end, layer by layer.

``test_golden.py`` hashes only what the CLI prints.  These hash what each
layer hands the next: the split assignment ``split_assignment_seq`` (and
``_split`` on ``local-weighted``'s schedule) assembles, the forest
``cancel_cycles`` leaves and the mapping ``star_round`` picks.  The digests
were recorded before those layers moved onto edge ids, so a rewrite that
keeps them shows bit-identity at each layer, not only at the end.  The
forest and star digests of ``HEAVY`` and ``FULL_KK`` were re-recorded when
cycle cancelling moved from a depth-first walk to inserting the edges, in
ascending id, into a forest: the two cancel the cycles in another order, so
they may leave another forest of the same degrees.

The per-class digests hash what ``weight_classes`` hands the per-class
solvers: each class's weight, the base vertex of each sub id and the
sub-instance's edges.  They were recorded before the relabelling moved into
``weight_classes``, from the class views and ``induced_subinstance``
it replaced.

The engine digests hash what ``matching`` hands the solvers: ``edge_mult``
and ``deg`` of every budget of ``split_schedule`` and of
``unit_schedule`` with r = 1 and 2 (all of each schedule, not only up to
the first client-perfect budget), and of both entry points on random
profiles with zero taus and every kind of edge cap.  They were recorded
before ``_layers`` became the only code that decides whether a phase can
end.
"""

import hashlib
import json
import random

import pytest

from semimatch import (
    CapacityProfile,
    blocking_flow_matching,
    build_instance,
    eliminate_short_paths,
    generate_instance,
    cancel_cycles,
    normalize_weights,
    split_assignment_seq,
    star_round,
    weight_classes,
)
from semimatch.solvers import _split, split_schedule, unit_schedule
from conftest import random_split_support
from test_golden import INSTANCES


def _digest(mapping) -> str:
    items = sorted(([*k] if isinstance(k, tuple) else k, v) for k, v in mapping.items())
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]


def full_kk_support(k: int, seed: int):
    """Every edge of K_k,k with a random multiplicity in 1..5."""
    rng = random.Random(seed)
    inst = build_instance(range(k), range(k, 2 * k),
                          [(c, s) for c in range(k) for s in range(k, 2 * k)])
    return inst, {e: rng.randint(1, 5) for e in inst.edges}


def interleaved(seed: int):
    """Clients on the even ids and servers on the odd ones, with weights
    1, 2, 4 and 8: no class's relabelling is the identity."""
    rng = random.Random(seed)
    clients, servers = range(0, 40, 2), range(1, 40, 2)
    edges = {(c, rng.choice(servers)) for c in clients for _ in range(3)}
    return build_instance(clients, servers, edges, {c: 1 << rng.randrange(4) for c in clients})


def class_digests(inst) -> list[str]:
    """One digest per weight class, in class order, of (class weight, base
    vertex of each sub id, sub-instance edges)."""
    return [
        hashlib.sha256(json.dumps([cls.weight, [*cls.base_id], [[*e] for e in cls.instance.edges]]
                                  ).encode()).hexdigest()[:16]
        for cls in weight_classes(inst)
    ]


def heavy(seed: int):
    return normalize_weights(INSTANCES["weighted-heavy"](seed))


# seed -> (split, forest, star) digests on the weighted-heavy golden family
HEAVY = {
    1: ("6c6947054fbe7b3c", "b3cf3acc3148db2a", "350bc7f72c38d4b8"),
    2: ("f157247366e4f87f", "3b6cf9fa876cd2e6", "34a53e065cca0d73"),
    3: ("6a82f1eae5fbd3a9", "016919421a1f770f", "b872cabada979be0"),
}
# (k, seed) -> forest digest of a random full K_k,k support
FULL_KK = {
    (12, 0): "d34ec5090d0f44b2",
    (12, 1): "4b61ce61fb234726",
    (30, 0): "86eddb73c6c62fa4",
    (30, 1): "2563bc270e1c693e",
}
# seed -> digest of local-weighted's split on the weighted golden family
LOCAL_SPLIT = {1: "d47e59b8029d1120", 2: "b12bb31ce8ab9929", 3: "0a8d5e3872076e92"}
# (family, seed) -> per-class digests; "interleaved" is not a golden family
CLASSES = {
    ("weighted", 1): ["5bb7637900d145f4", "8d7c3c137a897c71", "e996fe4f46ddb8d9"],
    ("weighted", 2): ["ba8f78d140d29c0e", "fe7177802d274ef7"],
    ("weighted", 3): ["34b4837fa2982e7b", "c720d18a780fe8d4", "25fed8d15cbd9602",
                      "24797b3cfa509430"],
    ("weighted-dense", 1): ["9ef9e191d797659a", "5e0d47f94aa9c877", "2dda4396e70ffeff"],
    ("weighted-dense", 2): ["b9be5b0e4cc0af07", "2d787ba0fe726cd1"],
    ("weighted-dense", 3): ["f7e2be7cbdf757ad", "37224cf179384fe1"],
    ("weighted-sparse", 1): ["33b2604dffff53ce", "d0df5bcb080af37e"],
    ("weighted-sparse", 2): ["882b7b84c46b0868", "d1a401e0c0702839"],
    ("weighted-sparse", 3): ["15b381bfdb232f9b", "3a5a1e28a44c8037"],
    ("interleaved", 1): ["2516077517414aa0", "27a26ecf06f4889f", "71397e4db88afe6e",
                         "d98831994c113483"],
    ("interleaved", 2): ["b40739ee4a2d706b", "0bce8f92eac4ca3f", "277f6b62dc801a07",
                         "ae252b5636254e01"],
    ("interleaved", 3): ["e639cf31a3520e3d", "7d82459f926e8d65", "408e343830009e4b",
                         "2e0ef5a143ed0af7"],
}
# digest of the 30 forests of random_split_support(0..29)
RANDOM_SPLIT_FORESTS = "ed28654e89026b3e"


@pytest.mark.parametrize("seed", sorted(HEAVY))
def test_heavy_split_forest_and_stars(seed):
    inst = heavy(seed)
    split = split_assignment_seq(inst).mult
    forest = cancel_cycles(inst, split)
    stars = star_round(inst, forest)
    assert (_digest(split), _digest(forest), _digest(stars)) == HEAVY[seed]


@pytest.mark.parametrize("case", sorted(FULL_KK))
def test_full_kk_forest(case):
    inst, mult = full_kk_support(*case)
    assert _digest(cancel_cycles(inst, mult)) == FULL_KK[case]


@pytest.mark.parametrize("seed", sorted(LOCAL_SPLIT))
def test_local_weighted_split(seed):
    inst = normalize_weights(INSTANCES["weighted"](seed))
    assert _digest(_split(inst, unit_schedule(inst, 1)).mult) == LOCAL_SPLIT[seed]


def test_random_split_forests():
    forests = [cancel_cycles(*random_split_support(seed)) for seed in range(30)]
    assert _digest({i: _digest(f) for i, f in enumerate(forests)}) == RANDOM_SPLIT_FORESTS


@pytest.mark.parametrize("case", sorted(CLASSES))
def test_weight_class_subinstances(case):
    family, seed = case
    inst = interleaved(seed) if family == "interleaved" else INSTANCES[family](seed)
    assert class_digests(normalize_weights(inst)) == CLASSES[case]


def engine_instance(family: str, seed: int):
    rng = random.Random(seed)
    nc, ns = rng.randint(4, 150), rng.randint(2, 40)
    if family == "random-bipartite":
        return generate_instance(family, seed=seed, n_clients=nc, n_servers=ns,
                                 p=rng.choice((0.1, 0.3, 0.6)))
    if family == "power-law-degrees":
        return generate_instance(family, seed=seed, n_clients=nc, n_servers=ns,
                                 exponent=rng.choice((1.5, 2.0, 3.0)))
    return normalize_weights(generate_instance(family, seed=seed, n_clients=nc, n_servers=ns,
                                               p=rng.choice((0.1, 0.3, 0.6)), max_weight=16))


def engine_matchings(inst, seed: int):
    """Every matching of the grid on ``inst``, in a fixed order."""
    yield from (x for _, x in split_schedule(inst))
    yield from (x for _, x in unit_schedule(inst, 1))
    yield from (x for _, x in unit_schedule(inst, 2))
    rng = random.Random(seed)
    for edge_cap in (None, 1, 2):
        profile = CapacityProfile({c: rng.randint(1, 4) for c in inst.clients},
                                  {s: rng.randint(0, 3) for s in inst.servers}, edge_cap)
        for length in (1, 3, 7):
            yield eliminate_short_paths(inst, profile, length)
            yield blocking_flow_matching(inst, profile, length)


# family -> digest of (edge_mult, deg) of every matching on its 150 instances
ENGINE = {
    "power-law-degrees": "3bdf56b3bea46d12",
    "random-bipartite": "ad8cebea0ff4aa2a",
    "weighted-random": "a4961324fec8d72c",
}


@pytest.mark.parametrize("family", sorted(ENGINE))
def test_engine_matchings(family):
    h = hashlib.sha256()
    for seed in range(150):
        for x in engine_matchings(engine_instance(family, seed), seed):
            h.update(json.dumps([x.edge_mult, x.deg]).encode())
    assert h.hexdigest()[:16] == ENGINE[family]
