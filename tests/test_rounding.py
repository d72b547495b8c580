import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semimatch import (
    SplitAssignment,
    build_instance,
    cancel_cycles,
    round_split,
    star_round,
    split_assignment_seq,
)
from conftest import (
    random_split_support,
    random_weighted,
    reference_star_round,
    support_degrees,
)


def is_forest(mult):
    """networkx oracle: the support of ``mult`` has no cycle."""
    graph = nx.Graph()
    graph.add_edges_from(e for e, x in mult.items() if x > 0)
    return nx.is_forest(graph) if graph else True


@st.composite
def supports(draw):
    """A small instance and a positive multiplicity on some of its edges."""
    nc, ns = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    pairs = st.tuples(st.integers(0, nc - 1), st.integers(nc, nc + ns - 1))
    edges = draw(st.lists(pairs, unique=True, max_size=nc * ns))
    inst = build_instance(range(nc), range(nc, nc + ns), edges)
    used = draw(st.lists(st.sampled_from(edges), unique=True) if edges else st.just([]))
    return inst, {e: draw(st.integers(1, 6)) for e in used}


def full_support(a, b, units):
    """K_a,b with every edge in the support, with multiplicities from
    ``units()``."""
    inst = build_instance(range(a), range(a, a + b), [(c, s) for c in range(a) for s in range(a, a + b)])
    return inst, {e: units() for e in inst.edges}


@st.composite
def dense_and_split_supports(draw):
    """A full K_a,b support with a, b <= 12 and random units, or a split in
    the style of ``random_split_support``: weighted clients, each spreading
    its weight over a prefix of its servers."""
    a, b = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    if draw(st.booleans()):
        return full_support(a, b, lambda: draw(st.integers(1, 9)))
    servers = range(a, a + b)
    adj = {c: draw(st.lists(st.sampled_from(servers), min_size=1, unique=True).map(sorted))
           for c in range(a)}
    weight = {c: draw(st.integers(1, 16)) for c in range(a)}
    inst = build_instance(range(a), servers, [(c, s) for c in adj for s in adj[c]], weight)
    mult = {}
    for c, servers_of_c in adj.items():
        left = weight[c]
        for s in servers_of_c[:-1]:
            units = draw(st.integers(0, left))
            if units:
                mult[(c, s)] = units
                left -= units
        if left:
            mult[(c, servers_of_c[-1])] = left
    return inst, mult


@st.composite
def weighted_supports(draw, split=False):
    """A small instance, its ids clients first or interleaved at random, and
    positive units on about half of each client's servers, often with
    cycles.  Each client's weight is its support degree, so the units are a
    split of the instance, except, unless ``split``, one client's at times."""
    nc, ns = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    ids = list(range(nc + ns))
    if draw(st.booleans()):
        ids = draw(st.permutations(ids))
    clients, servers = ids[:nc], ids[nc:]
    mult = {}
    for c in clients:
        support = [s for s in servers if draw(st.booleans())] or [draw(st.sampled_from(servers))]
        mult.update(((c, s), draw(st.integers(1, 5))) for s in support)
    weight = {c: sum(mult.get((c, s), 0) for s in servers) for c in clients}
    if not split and draw(st.booleans()):
        c = draw(st.sampled_from(clients))
        weight[c] = max(1, weight[c] + draw(st.sampled_from([-1, 1])))
    edges = set(mult) | set(draw(st.lists(
        st.tuples(st.sampled_from(clients), st.sampled_from(servers)), max_size=6)))
    return build_instance(clients, servers, edges, weight), mult


def edges_minus_forest_bound(mult):
    """Support edges minus (support vertices - components): 0 on a forest,
    positive when the support has a cycle."""
    graph = nx.Graph(list(mult))
    return len(mult) - (graph.number_of_nodes() - nx.number_connected_components(graph))


class TestFindSupportCycle:
    def test_four_cycle_found(self):
        # the walk must find all four edges of the cycle: the alternation
        # holding the smallest edge (0, 2) goes up, the other one vanishes
        inst = build_instance([0, 1], [2, 3], [(0, 2), (0, 3), (1, 2), (1, 3)],
                              {0: 2, 1: 2})
        mult = {(0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 1}
        with pytest.raises(ValueError, match="cycle"):
            star_round(inst, mult)
        assert cancel_cycles(inst, mult) == {(0, 2): 2, (1, 3): 2}


class TestCancelCycles:
    def test_four_cycle(self):
        inst = build_instance([0, 1], [2, 3], [(0, 2), (0, 3), (1, 2), (1, 3)],
                              {0: 2, 1: 2})
        mult = {(0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 1}
        out = cancel_cycles(inst, mult)
        assert is_forest(out)
        assert support_degrees(out) == support_degrees(mult)

    def test_forest_unchanged(self):
        inst = build_instance([0, 1], [2], [(0, 2), (1, 2)])
        assert cancel_cycles(inst, {(0, 2): 1, (1, 2): 1}) == {(0, 2): 1, (1, 2): 1}

    def test_high_multiplicity_edge_is_not_a_cycle(self):
        # a single edge carrying several units must not read as a 2-cycle
        inst = build_instance([0], [1], [(0, 1)], {0: 3})
        assert cancel_cycles(inst, {(0, 1): 3}) == {(0, 1): 3}

    def test_empty(self, chain):
        assert cancel_cycles(chain, {}) == {}

    def test_acyclic_identity(self, chain):
        mult = {(0, 3): 1, (1, 3): 1, (2, 4): 1}
        assert cancel_cycles(chain, mult) == mult

    def test_two_disjoint_cycles(self):
        inst = build_instance(
            [0, 1, 2, 3],
            [4, 5, 6, 7],
            [(0, 4), (0, 5), (1, 4), (1, 5), (2, 6), (2, 7), (3, 6), (3, 7)],
            {0: 2, 1: 2, 2: 2, 3: 2},
        )
        mult = {e: 1 for e in inst.edges}
        out = cancel_cycles(inst, mult)
        assert is_forest(out)
        assert support_degrees(out) == support_degrees(mult)

    def test_full_k12_12(self):
        # every edge of K_12,12 in the support, with uneven multiplicities
        n = 12
        inst = build_instance(range(n), range(n, 2 * n),
                              [(c, s) for c in range(n) for s in range(n, 2 * n)])
        mult = {(c, s): 1 + (3 * c + 5 * s) % 4 for c, s in inst.edges}
        before = dict(mult)
        out = cancel_cycles(inst, mult)
        assert mult == before
        assert is_forest(out)
        assert set(out) <= set(mult)
        assert support_degrees(out) == support_degrees(mult)

    @pytest.mark.parametrize("seed", range(30))
    def test_degree_preserving_randomized(self, seed):
        inst, mult = random_split_support(seed)
        out = cancel_cycles(inst, mult)
        assert is_forest(out)
        assert support_degrees(out) == support_degrees(mult)

    @settings(max_examples=300, deadline=None)
    @given(supports())
    def test_forest_with_same_degrees(self, case):
        inst, mult = case
        before = dict(mult)
        out = cancel_cycles(inst, mult)
        assert mult == before
        assert is_forest(out)
        assert all(x > 0 for x in out.values())
        assert set(out) <= set(mult)
        assert support_degrees(out) == support_degrees(mult)

    @settings(max_examples=200, deadline=None)
    @given(dense_and_split_supports())
    def test_dense_and_split_supports(self, case):
        inst, mult = case
        out = cancel_cycles(inst, mult)
        assert support_degrees(out) == support_degrees(mult)
        assert edges_minus_forest_bound(out) == 0
        assert all(type(x) is int and x > 0 for x in out.values())
        assert set(out) <= set(mult)
        assert cancel_cycles(inst, out) == out

    def test_full_k120_120_becomes_one_tree(self):
        # units from a wide range, so no two edges of a cycle's lower
        # alternation tie: each cancel zeroes one edge and the support stays
        # connected, a spanning tree of the 240 vertices at the end
        rng = random.Random(0)
        inst, mult = full_support(120, 120, lambda: rng.randint(1, 10**6))
        out = cancel_cycles(inst, mult)
        assert len(out) == 239
        assert edges_minus_forest_bound(out) == 0
        assert support_degrees(out) == support_degrees(mult)


# keys that are not edges of the chain fixture: a missing vertex, a missing
# edge between a client and a server, a swapped pair, two clients, and a bool
# standing for client 1 of edge (1, 3)
NON_EDGES = [(0, 9), (0, 4), (3, 0), (0, 1), (True, 3)]


class TestRejectsNonEdges:
    @pytest.mark.parametrize("edge", NON_EDGES)
    def test_cancel_cycles(self, chain, edge):
        with pytest.raises(ValueError, match=rf"\({edge[0]}, {edge[1]}\) is not an edge"):
            cancel_cycles(chain, {edge: 1})

    @pytest.mark.parametrize("edge", NON_EDGES)
    def test_star_round(self, chain, edge):
        with pytest.raises(ValueError, match=rf"\({edge[0]}, {edge[1]}\) is not an edge"):
            star_round(chain, {edge: 1, (1, 3): 1, (2, 4): 1})

    def test_zero_entries_are_ignored(self, chain):
        assert cancel_cycles(chain, {(0, 9): 0, (0, 3): 1}) == {(0, 3): 1}


class TestRejectsNonIntMultiplicities:
    @pytest.mark.parametrize("units", [0.5, 1.0, True])
    def test_cancel_cycles(self, chain, units):
        with pytest.raises(ValueError, match=r"on edge \(1, 3\) is not an int"):
            cancel_cycles(chain, {(0, 3): 1, (1, 3): units})

    @pytest.mark.parametrize("units", [0.5, 1.0, True])
    def test_star_round(self, chain, units):
        with pytest.raises(ValueError, match=r"on edge \(1, 3\) is not an int"):
            star_round(chain, {(0, 3): 1, (1, 3): units, (2, 4): 1})

    @pytest.mark.parametrize("units", [0.5, 1.0, True])
    def test_split_assignment(self, chain, units):
        # units on edge ids 0..3: (0, 3), (1, 3), (1, 4), (2, 4)
        with pytest.raises(ValueError, match=r"on edge \(1, 3\) is not an int"):
            SplitAssignment(chain, [1, units, 1 - units, 1])


class TestRejectsNegativeMultiplicities:
    def test_cancel_cycles(self, chain):
        with pytest.raises(ValueError, match=r"negative multiplicity on edge \(0, 3\)"):
            cancel_cycles(chain, {(0, 3): -1, (1, 3): 1})

    def test_star_round(self, chain):
        with pytest.raises(ValueError, match=r"negative multiplicity on edge \(1, 4\)"):
            star_round(chain, {(0, 3): 1, (1, 3): 1, (1, 4): -1, (2, 4): 1})


class TestStarRound:
    def test_hand_checked_tree(self):
        # tree: s4 - c0 - s5, s5 - c1, s5 - c2 (rooted at 0 after sorting)
        inst = build_instance(
            [0, 1, 2], [3, 4], [(0, 3), (0, 4), (1, 4), (2, 4)], {0: 2, 1: 1, 2: 1}
        )
        mult = {(0, 3): 1, (0, 4): 1, (1, 4): 1, (2, 4): 1}
        mapping = star_round(inst, mult)
        # root 0 has child servers 3 and 4; picks the smallest
        assert mapping[0] == 3
        # 1 and 2 are leaves under server 4
        assert mapping[1] == 4 and mapping[2] == 4
        loads = {3: 0, 4: 0}
        for c, s in mapping.items():
            loads[s] += inst.weight[c]
        x_delta = {3: 1, 4: 3}
        for s in inst.servers:
            assert loads[s] <= x_delta[s] + inst.max_weight

    def test_cycle_rejected(self):
        inst = build_instance([0, 1], [2, 3], [(0, 2), (0, 3), (1, 2), (1, 3)],
                              {0: 2, 1: 2})
        with pytest.raises(ValueError, match="cycle"):
            star_round(inst, {e: 1 for e in inst.edges})

    def test_wrong_degree_rejected(self, chain):
        with pytest.raises(ValueError, match="support degree"):
            star_round(chain, {(0, 3): 2, (1, 3): 1, (2, 4): 1})

    @pytest.mark.parametrize("seed", range(30))
    def test_load_bound_randomized(self, seed):
        inst = random_weighted(seed, nc=10, ns=5, p=0.5, max_weight=4)
        split = split_assignment_seq(inst)
        forest = cancel_cycles(inst, split.mult)
        mapping = star_round(inst, forest)
        split_loads = {s: 0 for s in inst.servers}
        for (c, s), x in forest.items():
            split_loads[s] += x
        loads = {s: 0 for s in inst.servers}
        for c, s in mapping.items():
            loads[s] += inst.weight[c]
        for s in inst.servers:
            assigned = [inst.weight[c] for c, s2 in mapping.items() if s2 == s]
            bound = split_loads[s] + (max(assigned) if assigned else 0)
            assert loads[s] <= bound


class TestSplitAssignment:
    """Units on the chain's edge ids 0..3: (0, 3), (1, 3), (1, 4), (2, 4)."""

    def test_validates_totality(self, chain):
        with pytest.raises(ValueError, match="units"):
            SplitAssignment(chain, [1, 1, 0, 0])

    # a list cannot name a non-edge, only miss edge ids or add some; and a
    # tuple is not the list the split keeps
    @pytest.mark.parametrize("x", [[1, 1, 0], [1, 1, 0, 1, 0], [], (1, 1, 0, 1)])
    def test_rejects_a_wrong_shape(self, chain, x):
        with pytest.raises(ValueError, match="must be a list of 4 ints, one per edge id"):
            SplitAssignment(chain, x)

    def test_rejects_a_negative_entry(self, chain):
        with pytest.raises(ValueError, match=r"negative multiplicity on edge \(1, 4\)"):
            SplitAssignment(chain, [1, 2, -1, 1])

    def test_zero_entries_dropped(self, chain):
        sa = SplitAssignment(chain, [1, 1, 0, 1])
        assert (1, 4) not in sa.mult

    def test_loads(self, chain):
        sa = SplitAssignment(chain, [1, 0, 1, 1])
        assert sa.loads() == {3: 1, 4: 2}

    def test_mult_is_read_only(self, chain):
        given = [1, 1, 0, 1]
        sa = SplitAssignment(chain, given)
        with pytest.raises(TypeError):
            sa.mult[(1, 3)] = 0
        round_split(chain, sa)
        assert sa.x == given == [1, 1, 0, 1]


class TestRoundSplit:
    @pytest.mark.parametrize("seed", range(10))
    def test_instance_of_another_layout(self, seed):
        inst = random_weighted(seed, nc=8, ns=4, p=0.5, max_weight=8)
        twin = build_instance(inst.clients, inst.servers, inst.edges, inst.weight)
        split = split_assignment_seq(inst)
        assert round_split(twin, split).mapping == round_split(inst, split).mapping

    def test_rejects_an_instance_of_other_edges(self):
        inst = random_weighted(0, nc=8, ns=4, p=0.5, max_weight=8)
        split = split_assignment_seq(inst)
        other = build_instance(inst.clients, inst.servers, inst.edges[1:],
                               {**inst.weight, inst.edges[0][0]: 1})
        with pytest.raises(ValueError, match="another instance's edges"):
            round_split(other, split)

    @pytest.mark.parametrize("seed", range(20))
    def test_per_server_bound(self, seed):
        inst = random_weighted(seed, nc=8, ns=4, p=0.5, max_weight=8)
        split = split_assignment_seq(inst)
        a = round_split(inst, split)
        split_loads = split.loads()
        loads = a.load_vector().loads
        for s in inst.servers:
            assigned = [inst.weight[c] for c, s2 in a.mapping.items() if s2 == s]
            # rounding adds at most one extra client's weight on each server
            assert loads[s] <= split_loads[s] + (max(assigned) if assigned else 0)


class TestStarStepMatchesReference:
    """``star_round`` and ``round_split`` read the forest ``_cancel_walk``
    leaves; the reference builds neighbour lists and runs a DFS of its own."""

    @settings(max_examples=400, deadline=None)
    @given(weighted_supports(), st.booleans())
    def test_star_round(self, case, cancel):
        inst, mult = case
        if cancel:
            mult = cancel_cycles(inst, mult)
        try:
            expected = reference_star_round(inst, mult)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                star_round(inst, mult)
            assert str(got.value) == str(exc)
        else:
            assert star_round(inst, mult) == expected

    @settings(max_examples=300, deadline=None)
    @given(weighted_supports(split=True))
    def test_round_split(self, case):
        inst, mult = case
        split = SplitAssignment(inst, [mult.get(e, 0) for e in inst.edges])
        expected = reference_star_round(inst, cancel_cycles(inst, mult))
        assert round_split(inst, split).mapping == expected
