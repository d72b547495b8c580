"""Golden digests of the sequential back end, layer by layer.

``test_golden.py`` hashes only what the CLI prints.  These hash what each
layer hands the next: the split assignment ``split_assignment_seq`` (and
``_split`` on ``local-weighted``'s schedule) assembles, the forest
``cancel_cycles`` leaves and the mapping ``star_round`` picks.  The digests
were recorded before those layers moved onto edge ids, so a rewrite that
keeps them shows bit-identity at each layer, not only at the end.
"""

import hashlib
import json
import random

import pytest

from semimatch import (
    build_instance,
    cancel_cycles,
    normalize_weights,
    split_assignment_seq,
    star_round,
)
from semimatch.solvers import _split, unit_schedule
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


def heavy(seed: int):
    return normalize_weights(INSTANCES["weighted-heavy"](seed))


# seed -> (split, forest, star) digests on the weighted-heavy golden family
HEAVY = {
    1: ("6c6947054fbe7b3c", "575d4fa356c94dac", "78f280ee7bad8a6f"),
    2: ("f157247366e4f87f", "2e47b237fef6caad", "3f7e72908606af3d"),
    3: ("6a82f1eae5fbd3a9", "9993e71a0c1b5767", "f611e7ec1750aabd"),
}
# (k, seed) -> forest digest of a random full K_k,k support
FULL_KK = {
    (12, 0): "0cf00ef4f506d477",
    (12, 1): "82021173a77822b7",
    (30, 0): "11cedc70d109a5d9",
    (30, 1): "043746b73ad8b17c",
}
# seed -> digest of local-weighted's split on the weighted golden family
LOCAL_SPLIT = {1: "d47e59b8029d1120", 2: "b12bb31ce8ab9929", 3: "0a8d5e3872076e92"}
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
