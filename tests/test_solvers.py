import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semimatch import (
    Assignment,
    CapacityProfile,
    CapMatching,
    InfeasibleError,
    LoadVector,
    MultiAssignment,
    build_instance,
    generate_instance,
    is_client_perfect,
    normalize_weights,
    solve_backup,
    solve_sequential,
    solve_unweighted,
    solve_weighted_congest,
    solve_weighted_local,
    split_assignment_seq,
)
from semimatch import matching, solvers
from semimatch.instance import Instance
from semimatch.rounding import cancel_cycles, round_split, star_round
from semimatch.oracle import (
    opt_backup_enum,
    opt_minmax_unweighted,
    opt_power_sums,
    opt_split,
    verify_no_short_aug_paths,
)
from semimatch.solvers import b_schedule, short_path_bound, split_schedule, unit_schedule
from conftest import (
    client_expand,
    count_calls,
    first_perfect,
    heavy_instance,
    random_unit,
    random_weighted,
)


@st.composite
def feasible_instances(draw, weighted):
    """A small instance in which every client has a server; power-of-two
    weights of at most n when ``weighted``, else unit weights."""
    nc, ns = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    servers = range(nc, nc + ns)
    edges = []
    for c in range(nc):
        row = draw(st.lists(st.sampled_from(servers), min_size=1, unique=True))
        edges.extend((c, s) for s in row)
    weights = None
    if weighted:
        top = (nc + ns).bit_length() - 1
        weights = {c: 1 << draw(st.integers(0, top)) for c in range(nc)}
    return build_instance(range(nc), servers, edges, weights)


def lift(exp, x):
    """A base matching ``x`` with kappa = w as a unit matching of the
    expanded graph ``exp``: each client's units go to its copies in copy
    order, server by ascending id."""
    units = {c: [s for s in x.inst.client_adj[c] for _ in range(x.mult.get((c, s), 0))]
             for c in x.inst.clients}
    mult = {}
    for cid, (c, j) in exp.copy_of.items():
        if j <= len(units[c]):
            mult[(cid, exp.server_map[units[c][j - 1]])] = 1
    profile = CapacityProfile({cid: 1 for cid in exp.copy_of},
                              {exp.server_map[s]: t for s, t in x.profile.tau.items()})
    return CapMatching(exp.instance, profile, mult)


class TestLoadVector:
    def test_norms(self):
        lv = LoadVector({0: 3, 1: 4})
        assert lv.norm(1) == 7.0
        assert lv.norm(2) == 5.0
        assert lv.norm(math.inf) == 4.0
        assert lv.power_sum(3) == 27 + 64
        assert lv.max() == 4
        assert lv.total() == 7

    def test_norm_past_float_range(self):
        # 4.0**1000 overflows a float: the norm falls back to max-scaling
        lv = LoadVector({0: 4, 1: 4, 2: 1})
        assert lv.norm(1000.0) == pytest.approx(4 * 2 ** (1 / 1000))
        assert lv.norm(1000) == pytest.approx(4 * 2 ** (1 / 1000))

    def test_empty(self):
        assert LoadVector({}).norm(2) == 0.0
        assert LoadVector({}).max() == 0


class TestAssignment:
    def test_validation(self, chain):
        with pytest.raises(ValueError, match="unassigned"):
            Assignment(chain, {0: 3, 1: 3})
        with pytest.raises(ValueError, match="non-adjacent"):
            Assignment(chain, {0: 4, 1: 3, 2: 4})

    def test_rejects_a_key_that_is_not_a_client(self, chain):
        # server 3 as a key
        with pytest.raises(ValueError, match="3 is not a client"):
            Assignment(chain, {0: 3, 1: 3, 2: 4, 3: 4})
        # bools were taken as clients 0 and 1
        with pytest.raises(ValueError, match="False is not a client id"):
            Assignment(chain, {False: 3, True: 3, 2: 4})

    def test_rejects_a_server_other_than_an_int(self):
        # False and True were taken as servers 0 and 1
        inst = build_instance([2, 3], [0, 1], [(2, 0), (3, 1)])
        with pytest.raises(ValueError, match="non-adjacent server False"):
            Assignment(inst, {2: False, 3: True})
        with pytest.raises(ValueError, match="non-adjacent server True"):
            MultiAssignment(inst, 1, {2: (0,), 3: (True,)})

    def test_load_vector_weighted(self):
        inst = build_instance([0, 1], [2], [(0, 2), (1, 2)], {0: 2, 1: 1})
        a = Assignment(inst, {0: 2, 1: 2})
        assert a.load_vector().loads == {2: 3}


class TestSchedules:
    def test_short_path_bound(self):
        assert short_path_bound(1) == 1
        assert short_path_bound(2) == 5
        assert short_path_bound(16) == 17
        assert short_path_bound(17) == 21

    def test_b_schedule(self):
        assert b_schedule(1) == [1]
        assert b_schedule(5) == [1, 2, 4, 8]
        assert b_schedule(8) == [1, 2, 4, 8]


class TestBudgetCapacityRule:
    """Every budget B of a doubling schedule is one call of its public engine
    entry, with kappa fixed, tau = 2B at every server and the schedule's edge
    cap and bound; no call is made before the first budget is asked for."""

    @pytest.mark.parametrize("inst", [
        random_unit(5, nc=12, ns=5, p=0.4),
        random_weighted(5, nc=10, ns=4, p=0.5, max_weight=8),
    ], ids=["unit", "weighted"])
    @pytest.mark.parametrize("which", ["unit-r1", "unit-r2", "split"])
    def test_one_engine_call_per_budget(self, monkeypatch, inst, which):
        n_exp = inst.n_expanded
        if which == "split":
            engine, r, edge_cap = "blocking_flow_matching", 1, None
            budgets, bound = b_schedule(inst.n * inst.max_weight), 9 * math.ceil(math.log2(n_exp))
        else:
            engine, r = "eliminate_short_paths", int(which[-1])
            edge_cap = None if r == 1 else 1
            budgets, bound = b_schedule(n_exp), short_path_bound(n_exp)
        calls = count_calls(monkeypatch, matching, engine)
        schedule = split_schedule(inst) if which == "split" else unit_schedule(inst, r)
        assert calls == []
        first = next(schedule)
        assert len(calls) == 1
        pairs = [first, *schedule]
        assert [B for B, _ in pairs] == budgets
        assert len(calls) == len(budgets)
        kappa = {c: r * inst.weight[c] for c in inst.clients}
        for (B, x), (called_inst, profile, called_bound) in zip(pairs, calls):
            assert called_inst is inst and called_bound == bound and profile is x.profile
            assert profile.kappa == kappa
            assert profile.tau == dict.fromkeys(inst.servers, 2 * B)
            assert profile.edge_cap == edge_cap


class TestUnweighted:
    def test_star(self, star4):
        a = solve_unweighted(star4)
        assert a.load_vector().max() == 4
        assert opt_minmax_unweighted(star4) == 4

    def test_chain(self, chain):
        a = solve_unweighted(chain)
        assert a.load_vector().max() <= 8 * opt_minmax_unweighted(chain)
        assert a.load_vector().total() == len(chain.clients)

    def test_matchings_keyed_by_budget(self, chain):
        matchings = dict(unit_schedule(chain, 1))
        assert sorted(matchings) == b_schedule(chain.n)
        assert is_client_perfect(chain, matchings[max(matchings)])

    def test_rejects_weighted(self):
        inst = build_instance([0], [1], [(0, 1)], {0: 2})
        with pytest.raises(ValueError, match="unit"):
            solve_unweighted(inst)

    def test_isolated_client_infeasible(self):
        inst = build_instance([0, 1], [2], [(0, 2)])
        with pytest.raises(InfeasibleError) as exc:
            solve_unweighted(inst)
        assert exc.value.client == 1

    @pytest.mark.parametrize("seed", range(40))
    def test_minmax_ratio(self, seed):
        inst = random_unit(seed, nc=10, ns=4, p=0.5)
        a = solve_unweighted(inst)
        assert a.load_vector().max() <= 8 * opt_minmax_unweighted(inst)

    @pytest.mark.parametrize("seed", range(15))
    def test_monotone_budget_coverage(self, seed):
        # larger budgets can only match more clients, never fewer
        inst = random_unit(seed, nc=12, ns=3, p=0.4)
        matchings = dict(unit_schedule(inst, 1))
        prev = -1
        for B in sorted(matchings):
            matched = sum(matchings[B].mult.values())
            assert matched >= prev
            prev = matched


class TestWeightedCongest:
    def test_two_classes_hand_checked(self):
        # weights (2, 1) forced onto the single shared server
        inst = build_instance([0, 1], [2], [(0, 2), (1, 2)], {0: 2, 1: 1})
        a = solve_weighted_congest(inst)
        assert a.load_vector().loads == {2: 3}

    def test_rejects_unnormalized(self):
        inst = build_instance([0], [1], [(0, 1)], {0: 3})
        with pytest.raises(ValueError, match="normalize"):
            solve_weighted_congest(inst)

    @pytest.mark.parametrize("seed", range(30))
    def test_ratio(self, seed):
        inst = random_weighted(seed, nc=8, ns=4, p=0.5, max_weight=8)
        a = solve_weighted_congest(inst)
        K = 24 * max(1, math.ceil(math.log2(inst.n)))
        assert a.load_vector().max() <= K * opt_split(inst)


class TestWeightedLocal:
    def test_unit_matches_unweighted_quality(self, chain):
        a = solve_weighted_local(chain)
        assert a.load_vector().max() <= 8 * opt_minmax_unweighted(chain)

    @pytest.mark.parametrize("seed", range(30))
    def test_constant_ratio(self, seed):
        inst = random_weighted(seed, nc=8, ns=4, p=0.5, max_weight=8)
        a = solve_weighted_local(inst)
        assert a.load_vector().max() <= 36 * opt_split(inst)

    @pytest.mark.parametrize("p", (2, 3))
    @pytest.mark.parametrize("seed", range(10))
    def test_all_norm_ratio_exact(self, seed, p):
        inst = random_weighted(seed, nc=6, ns=3, p=0.6, max_weight=4)
        a = solve_weighted_local(inst)
        opt = opt_power_sums(inst, (p,))[p]
        assert a.load_vector().power_sum(p) <= 36**p * opt


    def test_no_expansion_cap(self):
        inst = heavy_instance()
        assert inst.is_normalized() and inst.n_expanded == 1_024_024
        a = solve_weighted_local(inst)
        assert a.load_vector().total() == inst.total_weight

    @settings(max_examples=200, deadline=None)
    @given(feasible_instances(weighted=True))
    def test_schedule_lifts_to_the_expanded_graph(self, inst):
        # each budget matching, with its units spread over the client copies,
        # has no short augmenting path in the explicitly expanded graph
        exp = client_expand(inst)
        k = short_path_bound(inst.n_expanded)
        for B, x in unit_schedule(inst, 1):
            assert x.profile.kappa == inst.weight
            y = lift(exp, x)
            assert verify_no_short_aug_paths(exp.instance, y.profile, y, k) is True


class TestSplitSequential:
    def test_split_is_total(self, chain):
        split = split_assignment_seq(chain)
        assert sum(split.mult.values()) == chain.total_weight
        assert sorted(dict(split_schedule(chain))) == b_schedule(chain.n * chain.max_weight)

    def test_split_linf_bound(self):
        inst = normalize_weights(
            build_instance([0, 1, 2], [3, 4], [(0, 3), (1, 3), (1, 4), (2, 4)],
                           {0: 2, 1: 2, 2: 2})
        )
        split = split_assignment_seq(inst)
        assert max(split.loads().values()) <= 8 * opt_split(inst)

    @pytest.mark.parametrize("seed", range(30))
    def test_sequential_ratio(self, seed):
        inst = random_weighted(seed, nc=8, ns=4, p=0.5, max_weight=8)
        a = solve_sequential(inst)
        assert a.load_vector().max() <= 25 * opt_split(inst)

    @pytest.mark.parametrize("seed", range(10))
    def test_l1_is_total_weight(self, seed):
        inst = random_weighted(seed)
        a = solve_sequential(inst)
        assert a.load_vector().total() == inst.total_weight

    def test_rejects_unnormalized(self):
        inst = build_instance([0], [1], [(0, 1)], {0: 3})
        with pytest.raises(ValueError, match="normalize"):
            split_assignment_seq(inst)


class TestBackup:
    def test_two_servers_exact(self):
        inst = build_instance([0, 1], [2, 3], [(0, 2), (0, 3), (1, 2), (1, 3)])
        out = solve_backup(inst, 2)
        assert out.mapping == {0: (2, 3), 1: (2, 3)}
        assert out.load_vector().max() == 2
        assert opt_backup_enum(inst, 2) == 2

    def test_r1_matches_unweighted_shape(self, chain):
        out = solve_backup(chain, 1)
        assert all(len(v) == 1 for v in out.mapping.values())

    def test_degree_too_small_infeasible(self, chain):
        with pytest.raises(InfeasibleError):
            solve_backup(chain, 2)  # client 0 has degree 1

    def test_bad_r(self, chain):
        with pytest.raises(ValueError):
            solve_backup(chain, 0)

    @pytest.mark.parametrize("r", [True, 2.0, "2"])
    def test_r_not_a_plain_int(self, chain, r):
        with pytest.raises(ValueError) as info:
            solve_backup(chain, r)
        assert str(info.value) == f"replication factor r must be a plain int >= 1, got {r!r}"

    @pytest.mark.parametrize("r", (2, 3))
    @pytest.mark.parametrize("seed", range(20))
    def test_ratio(self, seed, r):
        inst = random_unit(seed + 100 * r, nc=6, ns=5, p=0.9)
        if min(inst.degree(c) for c in inst.clients) < r:
            pytest.skip("degree below replication factor")
        out = solve_backup(inst, r)
        assert out.load_vector().max() <= 8 * opt_backup_enum(inst, r)

    def test_weighted_classes(self):
        inst = build_instance(
            [0, 1], [2, 3], [(0, 2), (0, 3), (1, 2), (1, 3)], {0: 2, 1: 1}
        )
        out = solve_backup(inst, 2)
        assert out.load_vector().loads == {2: 3, 3: 3}


class TestBackupWithOneCopy:
    """Backup placement with r = 1 is the unweighted solver (and, through the
    per-class reduction, the CONGEST weighted solver)."""

    @settings(max_examples=200, deadline=None)
    @given(feasible_instances(weighted=False))
    def test_unit_equals_solve_unweighted(self, inst):
        single = solve_unweighted(inst).mapping
        assert solve_backup(inst, 1).mapping == {c: (s,) for c, s in single.items()}

    @settings(max_examples=200, deadline=None)
    @given(feasible_instances(weighted=True))
    def test_weighted_equals_solve_weighted_congest(self, inst):
        assert inst.is_normalized()
        single = solve_weighted_congest(inst).mapping
        assert solve_backup(inst, 1).mapping == {c: (s,) for c, s in single.items()}


# first client-perfect budget: B = 1 of 1, 2, 4, 8 on the chain, B = 2 on star4
EARLY_PERFECT = pytest.mark.parametrize("inst", [
    build_instance([0, 1, 2], [3, 4], [(0, 3), (1, 3), (1, 4), (2, 4)]),
    generate_instance("star", n_clients=4),
], ids=["chain", "star4"])


class TestEarlyStop:
    """Every solver stops at the first client-perfect budget; draining a
    schedule still solves and yields every budget."""

    @EARLY_PERFECT
    def test_unit_schedule(self, monkeypatch, inst):
        calls = count_calls(monkeypatch, matching, "eliminate_short_paths")
        matchings = dict(unit_schedule(inst, 1))
        assert sorted(matchings) == b_schedule(inst.n)
        assert len(calls) == len(matchings)
        stop = first_perfect(inst, matchings)
        assert stop < len(matchings) - 1
        for solve in (lambda: solve_unweighted(inst), lambda: solve_backup(inst, 1),
                      lambda: solve_weighted_congest(inst)):
            calls.clear()
            solve()
            assert len(calls) == stop + 1

    @EARLY_PERFECT
    def test_split_schedule(self, monkeypatch, inst):
        calls = count_calls(monkeypatch, matching, "blocking_flow_matching")
        matchings = dict(split_schedule(inst))
        assert sorted(matchings) == b_schedule(inst.n * inst.max_weight)
        assert len(calls) == len(matchings)
        stop = first_perfect(inst, matchings)
        assert stop < len(matchings) - 1
        for solve in (lambda: split_assignment_seq(inst), lambda: solve_sequential(inst)):
            calls.clear()
            solve()
            assert len(calls) == stop + 1

    def test_solve_sequential_assembles_the_split_once(self, monkeypatch, chain):
        calls = count_calls(monkeypatch, solvers, "split_assignment_seq")
        solve_sequential(chain)
        assert len(calls) == 1


class TestFlatState:
    """The solvers read each budget's matching on edge ids: no solve builds
    a ``CapMatching`` view keyed by edge (c, s) or by vertex."""

    @pytest.mark.parametrize("solve, engine", [
        (solve_sequential, "blocking_flow_matching"),
        (solve_weighted_congest, "eliminate_short_paths"),
        (solve_weighted_local, "eliminate_short_paths"),
        (lambda inst: solve_backup(inst, 2), "eliminate_short_paths"),
    ])
    def test_no_view_is_read(self, monkeypatch, solve, engine):
        reads = []
        for name in ("mult", "client_deg", "server_deg"):
            view = getattr(CapMatching, name)
            monkeypatch.setattr(CapMatching, name, property(
                lambda x, view=view, name=name: reads.append(name) or view.fget(x)))
        calls = count_calls(monkeypatch, matching, engine)
        inst = normalize_weights(generate_instance(
            "weighted-random", seed=1, n_clients=60, n_servers=15, p=0.5, max_weight=8))
        solve(inst)
        assert calls and reads == []
        # the spy sees a read
        assert CapMatching(inst, CapacityProfile.uniform(inst, 1, 1)).mult == {}
        assert reads == ["mult"]


class TestOnEdgeIds:
    """The split stays on edge ids from the schedule to the rounding."""

    @pytest.mark.parametrize("solve", [solve_sequential, solve_weighted_local])
    def test_no_edge_is_looked_up(self, monkeypatch, solve):
        calls = []
        edge_id = Instance.edge_id
        monkeypatch.setattr(Instance, "edge_id",
                            lambda inst, c, s: calls.append((c, s)) or edge_id(inst, c, s))
        inst = normalize_weights(generate_instance(
            "weighted-random", seed=1, n_clients=60, n_servers=15, p=0.5, max_weight=8))
        solve(inst)
        assert calls == []
        # the spy sees a lookup
        inst.edge_id(0, inst.client_adj[0][0])
        assert len(calls) == 1

    @settings(max_examples=200, deadline=None)
    @given(feasible_instances(weighted=True))
    def test_flat_route_matches_the_dict_route(self, inst):
        split = split_assignment_seq(inst)
        mult = split.mult
        assert round_split(inst, split).mapping == star_round(inst, cancel_cycles(inst, mult))
        loads = dict.fromkeys(inst.servers, 0)
        for (_, s), units in mult.items():
            loads[s] += units
        assert split.loads() == loads


class TestMultiAssignment:
    def test_validation(self, chain):
        with pytest.raises(ValueError, match="distinct"):
            MultiAssignment(chain, 2, {0: (3, 3), 1: (3, 4), 2: (4, 3)})

    def test_rejects_a_key_that_is_not_a_client(self, chain):
        with pytest.raises(ValueError, match="7 is not a client"):
            MultiAssignment(chain, 1, {0: (3,), 1: (3,), 2: (4,), 7: (4,)})
        with pytest.raises(ValueError, match="True is not a client id"):
            MultiAssignment(chain, 1, {0: (3,), True: (3,), 2: (4,)})
