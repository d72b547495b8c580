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
from semimatch.rounding import support_degrees
from conftest import random_split_support, random_weighted


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


# keys that are not edges of the chain fixture: a missing vertex, a missing
# edge between a client and a server, a swapped pair and two clients
NON_EDGES = [(0, 9), (0, 4), (3, 0), (0, 1)]


class TestRejectsNonEdges:
    @pytest.mark.parametrize("edge", NON_EDGES)
    def test_cancel_cycles(self, chain, edge):
        with pytest.raises(ValueError, match=rf"\({edge[0]}, {edge[1]}\) is not an edge"):
            cancel_cycles(chain, {edge: 1})

    @pytest.mark.parametrize("edge", NON_EDGES)
    def test_star_round(self, chain, edge):
        with pytest.raises(ValueError, match=rf"\({edge[0]}, {edge[1]}\) is not an edge"):
            star_round(chain, {edge: 1, (1, 3): 1, (2, 4): 1})

    @pytest.mark.parametrize("edge", NON_EDGES)
    def test_split_assignment(self, chain, edge):
        with pytest.raises(ValueError, match=rf"edge \({edge[0]}, {edge[1]}\) not in instance"):
            SplitAssignment(chain, {edge: 1, (1, 3): 1, (2, 4): 1})

    def test_non_positive_entries_are_ignored(self, chain):
        assert cancel_cycles(chain, {(0, 9): 0, (0, 3): 1}) == {(0, 3): 1}


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
    def test_validates_totality(self, chain):
        with pytest.raises(ValueError, match="units"):
            SplitAssignment(chain, {(0, 3): 1, (1, 3): 1})

    def test_zero_entries_dropped(self, chain):
        sa = SplitAssignment(chain, {(0, 3): 1, (1, 3): 1, (1, 4): 0, (2, 4): 1})
        assert (1, 4) not in sa.mult

    def test_loads(self, chain):
        sa = SplitAssignment(chain, {(0, 3): 1, (1, 4): 1, (2, 4): 1})
        assert sa.loads() == {3: 1, 4: 2}


class TestRoundSplit:
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
