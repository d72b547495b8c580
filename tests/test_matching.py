import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semimatch import (
    CapacityProfile,
    CapMatching,
    blocking_flow_matching,
    build_instance,
    eliminate_short_paths,
    generate_instance,
    is_client_perfect,
    solve_sequential,
)
from semimatch import matching
from semimatch.matching import (
    _blocking_phase,
    _bfs,
    _bfs_back,
    _greedy_fill,
    _layers,
)
from semimatch.oracle import (
    _flow_value,
    _room_search,
    client_perfect_matching_exists,
    residual_source_sink_distance,
    verify_expansion_lemma,
    verify_no_short_aug_paths,
)
from semimatch.solvers import short_path_bound
from conftest import count_calls, random_unit, random_weighted


def enumerate_aug_paths(inst, matching, max_len):
    """Independent oracle: exhaustive DFS over all simple alternating paths."""
    prof = matching.profile
    found = []

    def extend(path):
        v = path[-1]
        if len(path) - 1 >= max_len:
            return
        if v in inst.client_adj:
            for s in inst.client_adj[v]:
                if s in path or prof.tau[s] == 0:
                    continue
                if matching.mult.get((v, s), 0) >= prof.cap():
                    continue
                if not matching.server_saturated(s):
                    found.append(path + [s])
                extend(path + [s])
        else:
            for c in inst.server_adj[v]:
                if c in path or matching.mult.get((c, v), 0) == 0:
                    continue
                extend(path + [c])

    for c in inst.clients:
        if not matching.client_saturated(c):
            extend([c])
    return found


def check_witness(inst, matching, max_len):
    """The oracle's verdict on augmenting paths of length <= max_len agrees
    with ``enumerate_aug_paths``: True when there is none, else a shortest
    one from the least-id unsaturated client that has one."""
    verdict = verify_no_short_aug_paths(inst, matching.profile, matching, max_len)
    expected = enumerate_aug_paths(inst, matching, max_len)
    if not expected:
        assert verdict is True
        return
    start = min(p[0] for p in expected)
    assert verdict in expected
    assert verdict[0] == start
    assert len(verdict) == min(len(p) for p in expected if p[0] == start)


class TestFindAugmentingPath:
    """The witness ``verify_no_short_aug_paths`` gives for a short
    augmenting path."""

    def test_single_edge(self):
        inst = build_instance([0], [1], [(0, 1)])
        prof = CapacityProfile.uniform(inst, 1, 1)
        assert verify_no_short_aug_paths(inst, prof, CapMatching(inst, prof), 1) == [0, 1]

    def test_no_escape(self):
        # both clients fight over one unit server; matched client blocks
        inst = build_instance([0, 1], [2], [(0, 2), (1, 2)])
        prof = CapacityProfile.uniform(inst, 1, 1)
        m = CapMatching(inst, prof, {(0, 2): 1})
        assert verify_no_short_aug_paths(inst, prof, m, 5) is True

    def test_chain_alternating_path(self, chain):
        prof = CapacityProfile.uniform(chain, 1, 1)
        m = CapMatching(chain, prof, {(1, 3): 1})
        # client 2 has the shorter path [2, 4], but client 0 has the least id
        assert verify_no_short_aug_paths(chain, prof, m, 3) == [0, 3, 1, 4]
        # oracle cross-check: the full set of simple alternating paths from c0
        all_paths = enumerate_aug_paths(chain, m, 3)
        from_c0 = [p for p in all_paths if p[0] == 0]
        assert [0, 3, 1, 4] in from_c0
        assert min(len(p) for p in from_c0) == 4

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_exhaustive_enumeration(self, seed):
        rng = random.Random(seed)
        inst = random_unit(seed, nc=5, ns=3, p=0.6)
        prof = CapacityProfile.uniform(inst, rng.randint(1, 2), rng.randint(1, 3))
        m = CapMatching(inst, prof)
        # random partial greedy fill
        for c, s in inst.edges:
            if rng.random() < 0.5 and not m.client_saturated(c) and not m.server_saturated(s):
                m.add(c, s, 1)
        for max_len in (1, 3, 5):
            check_witness(inst, m, max_len)


def two_by_two():
    """Clients 0, 1 and servers 2, 3: c0-s2, c1-s2, c1-s3."""
    return build_instance([0, 1], [2, 3], [(0, 2), (1, 2), (1, 3)])


class TestEliminateShortPaths:
    @pytest.mark.parametrize("k", [3.0, True, 0, 2])
    def test_rejects_k_other_than_an_odd_positive_int(self, k):
        inst = two_by_two()
        with pytest.raises(ValueError, match="k must be odd and >= 1"):
            eliminate_short_paths(inst, CapacityProfile.uniform(inst, 1, 1), k)

    def test_star_partial(self, star4):
        prof = CapacityProfile({c: 1 for c in star4.clients}, {4: 2})
        x = eliminate_short_paths(star4, prof, 1)
        assert sum(x.mult.values()) == 2
        assert verify_no_short_aug_paths(star4, prof, x, 1) is True

    def test_disjoint_perfect(self):
        inst = generate_instance("disjoint-perfect", k=3)
        for k in (1, 3, 7):
            x = eliminate_short_paths(inst, CapacityProfile.uniform(inst, 1, 1), k)
            assert x.mult == {(0, 3): 1, (1, 4): 1, (2, 5): 1}

    @pytest.mark.parametrize("seed", range(40))
    def test_contract_randomized(self, seed):
        rng = random.Random(seed)
        inst = random_unit(seed, nc=rng.randint(4, 12), ns=rng.randint(2, 6), p=0.4)
        tau = rng.randint(1, 3)
        k = rng.choice([1, 3, 5, 9])
        prof = CapacityProfile.uniform(inst, 1, tau)
        x = eliminate_short_paths(inst, prof, k)
        assert verify_no_short_aug_paths(inst, prof, x, k) is True

    @pytest.mark.parametrize("seed", range(25))
    def test_doubled_capacity_gives_client_perfect(self, seed):
        # structural expansion property with alpha = 2: doubling server
        # capacities of a feasible profile makes short-path-free matchings
        # client-perfect
        inst = random_unit(seed, nc=10, ns=4, p=0.5)
        # tau from an arbitrary greedy assignment, so feasibility is certain
        tau = {s: 0 for s in inst.servers}
        for c in inst.clients:
            tau[inst.client_adj[c][0]] += 1
        kappa = {c: 1 for c in inst.clients}
        assert client_perfect_matching_exists(inst, kappa, tau)
        doubled = CapacityProfile(kappa, {s: 2 * t for s, t in tau.items()})
        x = eliminate_short_paths(inst, doubled, short_path_bound(inst.n))
        assert is_client_perfect(inst, x)


class TestBlockingFlow:
    @pytest.mark.parametrize("phases", [2.5, 2.0, True, 0])
    def test_rejects_phases_other_than_a_positive_int(self, phases):
        inst = two_by_two()
        with pytest.raises(ValueError, match="phases must be >= 1"):
            blocking_flow_matching(inst, CapacityProfile.uniform(inst, 1, 1), phases)

    def test_chain_maximum(self, chain):
        phases = 9 * math.ceil(math.log2(5))
        x = blocking_flow_matching(chain, CapacityProfile.uniform(chain, 1, 1), phases)
        assert sum(x.mult.values()) == 2  # hand-computed max flow on the chain

    def test_star_all_matched(self, star4):
        prof = CapacityProfile({c: 1 for c in star4.clients}, {4: 4})
        x = blocking_flow_matching(star4, prof, 5)
        assert is_client_perfect(star4, x)

    @pytest.mark.parametrize("seed", range(30))
    def test_residual_distance_exceeds_phases(self, seed):
        inst = random_weighted(seed, nc=10, ns=4, p=0.4)
        phases = 9 * max(1, math.ceil(math.log2(inst.n)))
        prof = CapacityProfile(dict(inst.weight), {s: 4 for s in inst.servers})
        x = blocking_flow_matching(inst, prof, phases)
        assert residual_source_sink_distance(inst, x) > phases

    @pytest.mark.parametrize("seed", range(10))
    def test_no_short_aug_paths_after_phases(self, seed):
        inst = random_unit(seed, nc=12, ns=5, p=0.4)
        phases = 9 * math.ceil(math.log2(inst.n))
        prof = CapacityProfile.uniform(inst, 1, 2)
        x = blocking_flow_matching(inst, prof, phases)
        k = phases - 2 if phases % 2 == 1 else phases - 3
        assert verify_no_short_aug_paths(inst, prof, x, k) is True


class TestFullServers:
    """Every server is full but clients still have room: no augmenting path
    can end.  ``_layers`` decides that before any search; ``_bfs`` itself
    labels the full servers and finds no end."""

    @pytest.fixture
    def full(self, chain):
        prof = CapacityProfile.uniform(chain, 2, 1)
        return chain, CapMatching(chain, prof, {(0, 3): 1, (1, 4): 1})

    def test_bfs_labels_no_server(self, full, monkeypatch):
        inst, x = full
        state = x
        roots = state.free_clients()
        assert roots == [0, 1, 2]
        forward = count_calls(monkeypatch, matching, "_bfs")
        backward = count_calls(monkeypatch, matching, "_bfs_back")
        assert _layers(state, math.inf) is None
        assert forward == [] and backward == []
        level, end = _bfs(state, roots)
        assert end is None
        assert level == [0, 0, 0, 1, 1]

    def test_no_augmenting_path(self, full):
        inst, x = full
        assert verify_no_short_aug_paths(inst, x.profile, x, 9) is True
        assert residual_source_sink_distance(inst, x) == math.inf


class TestCapMatching:
    # (True, 3) names edge (1, 3) if a bool is taken as a client id
    @pytest.mark.parametrize("edge", [(0, 3), (0, 7), (2, 3), (3, 1), (True, 3)])
    def test_rejects_a_key_that_is_not_an_edge(self, edge):
        inst = build_instance([0, 1], [2, 3], [(0, 2), (1, 3)])
        prof = CapacityProfile.uniform(inst, 1, 1)
        with pytest.raises(ValueError, match=rf"\({edge[0]}, {edge[1]}\) is not an edge"):
            CapMatching(inst, prof, {edge: 1})
        m = CapMatching(inst, prof)
        with pytest.raises(ValueError, match="is not an edge"):
            m.add(*edge, 1)
        assert m.mult == {} and set(m.client_deg.values()) == {0}

    @pytest.mark.parametrize("kappa, tau, edge_cap, units, message", [
        (1, 1, None, -1, r"negative multiplicity on edge \(0, 2\)"),
        (1, 1, None, 0.5, r"multiplicity 0.5 on edge \(0, 2\) is not an int"),
        (1, 1, None, 1.0, r"multiplicity 1.0 on edge \(0, 2\) is not an int"),
        (1, 1, None, True, r"multiplicity True on edge \(0, 2\) is not an int"),
        (1, 1, None, 5, r"client 0 over capacity: 5 > 1"),
        (3, 2, None, 3, r"server 2 over capacity: 3 > 2"),
        (3, 3, 1, 2, r"edge \(0, 2\) over capacity: 2 > 1"),
    ])
    def test_rejects_a_bad_multiplicity(self, kappa, tau, edge_cap, units, message):
        inst = build_instance([0, 1], [2, 3], [(0, 2), (1, 3)])
        prof = CapacityProfile.uniform(inst, kappa, tau, edge_cap)
        with pytest.raises(ValueError, match=message):
            CapMatching(inst, prof, {(0, 2): units})
        m = CapMatching(inst, prof, {(1, 3): 1})
        with pytest.raises(ValueError, match=message):
            m.add(0, 2, units)
        # the failed add left the matching as it was
        assert m == CapMatching(inst, prof, {(1, 3): 1})
        assert (m.mult, m.client_deg, m.server_deg) == ({(1, 3): 1}, {0: 0, 1: 1}, {2: 0, 3: 1})

    # the checked constructor and add keep every capacity, so the state is
    # edited directly to see the checker fail
    @pytest.mark.parametrize("list_name, index, message", [
        ("deg", 0, r"client 0 over capacity: 2 > 1"),
        ("deg", 3, r"server 3 over capacity: 2 > 1"),
        ("edge_mult", 1, r"edge \(1, 3\) over capacity: 2 > 1"),
    ])
    def test_check_feasible_names_what_is_over_capacity(self, list_name, index, message):
        inst = build_instance([0, 1], [2, 3], [(0, 2), (1, 3)])
        m = CapMatching(inst, CapacityProfile.uniform(inst, 1, 1, 1), {(0, 2): 1})
        m.check_feasible()
        getattr(m, list_name)[index] = 2
        with pytest.raises(ValueError, match=message):
            m.check_feasible()

    def test_add_and_remove(self):
        inst = build_instance([0, 1], [2, 3], [(0, 2), (1, 3)])
        prof = CapacityProfile.uniform(inst, 2, 2)
        m = CapMatching(inst, prof)
        m.add(0, 2, 2)
        assert not m.client_saturated(1) and m.server_saturated(2)
        m.add(0, 2, -1)
        assert m == CapMatching(inst, prof, {(0, 2): 1, (1, 3): 0})
        assert (m.mult, m.client_deg) == ({(0, 2): 1}, {0: 1, 1: 0})

    def test_views_are_read_only(self):
        inst = build_instance([0, 1], [2, 3], [(0, 2), (1, 3)])
        m = CapMatching(inst, CapacityProfile.uniform(inst, 1, 1), {(0, 2): 1})
        for view, key in ((m.mult, (0, 2)), (m.client_deg, 0), (m.server_deg, 2)):
            with pytest.raises(TypeError):
                view[key] = 0
        assert m.deg == [1, 0, 1, 0]


class TestClientPerfect:
    def test_perfect(self):
        inst = generate_instance("disjoint-perfect", k=3)
        prof = CapacityProfile.uniform(inst, 1, 1)
        x = CapMatching(inst, prof, {(0, 3): 1, (1, 4): 1, (2, 5): 1})
        assert is_client_perfect(inst, x)

    def test_empty_not_perfect(self, chain):
        assert not is_client_perfect(chain, CapMatching(chain, CapacityProfile.uniform(chain, 1, 1)))

    def test_partial_split_not_perfect(self):
        inst = build_instance([0], [1, 2], [(0, 1), (0, 2)], {0: 2})
        prof = CapacityProfile(dict(inst.weight), {1: 2, 2: 2})
        x = CapMatching(inst, prof, {(0, 1): 1})
        assert not is_client_perfect(inst, x)


class TestEdgeCapOne:
    @pytest.mark.parametrize("seed", range(15))
    def test_simple_matching_mode(self, seed):
        rng = random.Random(seed)
        inst = random_unit(seed, nc=8, ns=5, p=0.6)
        r, B = rng.randint(1, 2), rng.randint(1, 3)
        prof = CapacityProfile({c: r for c in inst.clients}, {s: B for s in inst.servers},
                               edge_cap=1)
        x = eliminate_short_paths(inst, prof, 5)
        assert all(v <= 1 for v in x.mult.values())
        assert all(x.client_deg[c] <= r for c in inst.clients)
        assert all(x.server_deg[s] <= B for s in inst.servers)


class TestExpansionLemmaVerifier:
    def test_empty_matching(self, chain):
        kappa = {c: 1 for c in chain.clients}
        tau = {3: 2, 4: 1}
        prof = CapacityProfile(kappa, {s: 2 * t for s, t in tau.items()})
        x = CapMatching(chain, prof)
        assert verify_expansion_lemma(chain, kappa, tau, 2, x) is True

    def test_client_perfect_vacuous(self):
        inst = generate_instance("disjoint-perfect", k=2)
        kappa = {0: 1, 1: 1}
        tau = {2: 1, 3: 1}
        prof = CapacityProfile(kappa, {s: 2 for s in inst.servers})
        x = CapMatching(inst, prof, {(0, 2): 1, (1, 3): 1})
        assert verify_expansion_lemma(inst, kappa, tau, 2, x) is True

    def test_counterexample_names_the_first_client_with_no_short_path(self):
        # the matching's tau is not alpha times the base tau, so client 1,
        # next only to the full server 4, can reach no room
        inst = build_instance([0, 1, 2], [3, 4], [(0, 3), (1, 4), (2, 4)])
        kappa = {c: 1 for c in inst.clients}
        x = CapMatching(inst, CapacityProfile(kappa, {3: 1, 4: 1}), {(2, 4): 1})
        verdict = verify_expansion_lemma(inst, kappa, {3: 1, 4: 2}, 2, x)
        assert (verdict.client, verdict.bound) == (1, 5)

    def test_precondition_failure_raises(self):
        from semimatch.oracle import PreconditionError

        inst = build_instance([0, 1], [2], [(0, 2), (1, 2)])
        kappa = {0: 1, 1: 1}
        tau = {2: 1}  # no client-perfect (1,1)-matching: two clients, one slot
        prof = CapacityProfile(kappa, {2: 2})
        with pytest.raises(PreconditionError):
            verify_expansion_lemma(inst, kappa, tau, 2, CapMatching(inst, prof))


class TestCapacityProfile:
    @pytest.mark.parametrize("edge_cap", [{(0, 1): 1}, True, 0, 1.0])
    def test_rejects_edge_cap_other_than_none_or_positive_int(self, edge_cap):
        with pytest.raises(ValueError, match="edge_cap"):
            CapacityProfile({0: 1}, {1: 1}, edge_cap)

    # a fractional capacity moved half units through the engine, and True
    # was taken as 1
    @pytest.mark.parametrize("kappa", [1.5, 1.0, True])
    def test_rejects_kappa_other_than_an_int(self, kappa):
        with pytest.raises(ValueError, match=r"kappa\(1\) must be an int"):
            CapacityProfile({0: 1, 1: kappa}, {2: 1, 3: 1})

    @pytest.mark.parametrize("tau", [1.5, 1.0, True])
    def test_rejects_tau_other_than_an_int(self, tau):
        with pytest.raises(ValueError, match=r"tau\(2\) must be an int"):
            CapacityProfile({0: 1, 1: 1}, {2: tau, 3: 1})

    # True was taken as client 1, and 2.0 as server 2
    @pytest.mark.parametrize("kappa, tau, message", [
        ({True: 1, 0: 1}, {2: 1, 3: 1}, "kappa key True is not a vertex id"),
        ({0: 1, 1: 1}, {2.0: 1, 3: 1}, "tau key 2.0 is not a vertex id"),
        # and a capacity below its floor
        ({0: 0}, {1: 1}, r"kappa\(0\) must be >= 1, got 0"),
        ({0: 1}, {1: -1}, r"tau\(1\) must be >= 0, got -1"),
    ])
    def test_rejects_a_key_other_than_an_int(self, kappa, tau, message):
        with pytest.raises(ValueError, match=message):
            CapacityProfile(kappa, tau)


class TestProfileCoversInstance:
    """kappa and tau must name exactly the instance's clients and servers."""

    @pytest.mark.parametrize("kappa, tau, message", [
        ({0: 1, 1: 1}, {2: 1}, "tau has no entry for server 3"),
        ({0: 1}, {2: 1, 3: 1}, "kappa has no entry for client 1"),
        ({0: 1, 1: 1}, {0: 1, 2: 1, 3: 1}, "tau has an entry for 0, which is not a server"),
        ({0: 1, 1: 1, 3: 1}, {2: 1, 3: 1}, "kappa has an entry for 3, which is not a client"),
        ({0: 1, 1: 1}, {2: 1, 3: 1, 9: 1}, "tau has an entry for 9, which is not a server"),
    ])
    def test_rejects_a_profile_that_does_not_cover_the_instance(self, kappa, tau, message):
        inst = two_by_two()
        prof = CapacityProfile(kappa, tau)
        for run in (lambda: blocking_flow_matching(inst, prof, 5),
                    lambda: eliminate_short_paths(inst, prof, 5),
                    lambda: CapMatching(inst, prof)):
            with pytest.raises(ValueError, match=message):
                run()


def staircase(n_clients=901):
    """Client i on servers i and i + 1, the last client only on server 0,
    every weight 2.  The last client's augmenting path runs through every
    other client: far deeper than the interpreter's recursion limit."""
    first = n_clients  # server 0
    edges = [(i, first + i + j) for i in range(n_clients - 1) for j in (0, 1)]
    edges.append((n_clients - 1, first))
    return build_instance(range(n_clients), range(first, first + n_clients + 1), edges,
                          {c: 2 for c in range(n_clients)})


class TestStaircase:
    def test_solve_sequential(self):
        inst = staircase()
        assert solve_sequential(inst).mapping[900] == 901

    def test_unit_blocking_flow(self):
        inst = staircase()
        x = blocking_flow_matching(inst, CapacityProfile.uniform(inst, 1, 1), 3)
        assert is_client_perfect(inst, x)

    def test_unit_eliminate_short_paths(self):
        inst = staircase()
        x = eliminate_short_paths(inst, CapacityProfile.uniform(inst, 1, 1), 2001)
        assert is_client_perfect(inst, x)


def distance_to_room(inst, x):
    """Every vertex's residual distance to a server with room under matching
    x, by relaxing the residual arcs until nothing changes (inf where none
    is reachable)."""
    arcs = []
    for c, s in inst.edges:
        units = x.mult.get((c, s), 0)
        if units < x.profile.cap():
            arcs.append((c, s))
        if units:
            arcs.append((s, c))
    dist = [0 if v in inst.server_adj and not x.server_saturated(v) else math.inf
            for v in range(inst.n)]
    changed = True
    while changed:
        changed = False
        for u, v in arcs:
            if dist[v] + 1 < dist[u]:
                dist[u] = dist[v] + 1
                changed = True
    return dist


@st.composite
def small_profiles(draw):
    """A small instance (isolated vertices allowed) and a capacity profile
    on it, zero server capacities included."""
    nc, ns = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    pairs = st.tuples(st.integers(0, nc - 1), st.integers(nc, nc + ns - 1))
    edges = draw(st.lists(pairs, unique=True, max_size=nc * ns))
    inst = build_instance(range(nc), range(nc, nc + ns), edges)
    kappa = {c: draw(st.integers(1, 3)) for c in inst.clients}
    tau = {s: draw(st.integers(0, 4)) for s in inst.servers}
    return inst, CapacityProfile(kappa, tau, draw(st.sampled_from([None, 1, 2])))


class TestEngineProperties:
    @settings(max_examples=300, deadline=None)
    @given(small_profiles(), st.sampled_from([1, 3, 5, 7, 9]))
    def test_eliminate_leaves_no_short_path(self, case, k):
        inst, prof = case
        x = eliminate_short_paths(inst, prof, k)
        x.check_feasible()
        assert verify_no_short_aug_paths(inst, prof, x, k) is True

    @settings(max_examples=300, deadline=None)
    @given(small_profiles())
    def test_blocking_flow_reaches_max_flow(self, case):
        inst, prof = case
        # each phase lengthens the shortest augmenting path, which visits
        # every server at most once
        x = blocking_flow_matching(inst, prof, len(inst.servers) + 1)
        x.check_feasible()
        # the engine's view agrees with the checked public constructor
        rebuilt = CapMatching(inst, prof, dict(x.mult))
        assert (rebuilt.client_deg, rebuilt.server_deg) == (x.client_deg, x.server_deg)
        flow = _flow_value(inst, prof.kappa, prof.tau, prof.edge_cap)
        assert sum(x.client_deg.values()) == flow
        assert residual_source_sink_distance(inst, x) == math.inf

    @settings(max_examples=300, deadline=None)
    @given(small_profiles())
    def test_greedy_fill_is_the_first_blocking_phase(self, case):
        inst, prof = case
        filled, searched = CapMatching(inst, prof), CapMatching(inst, prof)
        moved = _greedy_fill(filled)
        roots = searched.free_clients()
        level, end = _bfs(searched, roots)
        assert moved == (end is not None)
        if end is not None:
            _blocking_phase(searched, roots, level, level[end])
        assert (filled.mult, filled.deg) == (searched.mult, searched.deg)

    @settings(max_examples=1000, deadline=None)
    @given(small_profiles(), st.integers(0, 3), st.sampled_from([1, 3, 5, math.inf]))
    def test_backward_layering_blocks_as_forward(self, case, phases, max_len):
        inst, prof = case
        x = CapMatching(inst, prof) if phases == 0 else blocking_flow_matching(inst, prof, phases)
        forward, backward = CapMatching(inst, prof, x.mult), CapMatching(inst, prof, x.mult)
        roots = forward.free_clients()
        level, end = _bfs(forward, roots, max_len)
        ends = [s for s in inst.servers if backward.deg[s] < backward.cap[s]]
        layered = _bfs_back(backward, ends, max_len)
        assert (layered is None) == (end is None)
        if end is not None:
            back_roots, back_level, target = layered
            assert target == level[end]
            dist = distance_to_room(inst, x)
            assert back_level == [target - d if d <= target else -1 for d in dist]
            assert back_roots == [c for c in roots if dist[c] == target]
            _blocking_phase(forward, roots, level, level[end])
            _blocking_phase(backward, back_roots, back_level, target)
        assert (forward.mult, forward.deg) == (backward.mult, backward.deg)

    @settings(max_examples=200, deadline=None)
    @given(small_profiles(), st.integers(1, 3))
    def test_find_augmenting_path_is_shortest(self, case, phases):
        inst, prof = case
        x = blocking_flow_matching(inst, prof, phases)
        for max_len in (1, 3, 5, 7, 9):
            check_witness(inst, x, max_len)

    @settings(max_examples=300, deadline=None)
    @given(small_profiles(), st.integers(0, 3))
    def test_oracle_distances_match_relaxation(self, case, phases):
        inst, prof = case
        x = CapMatching(inst, prof) if phases == 0 else blocking_flow_matching(inst, prof, phases)
        free, dist, hop = _room_search(inst, prof, x.mult)
        assert free == [c for c in inst.clients if not x.client_saturated(c)]
        assert [dist.get(v, math.inf) for v in range(inst.n)] == distance_to_room(inst, x)
        # each next hop is one step nearer to room
        assert all(dist[u] == dist[v] - 1 for v, u in hop.items())


class TestLayerSide:
    """``_layers`` layers a phase from the side with fewer free vertices."""

    @pytest.fixture
    def searches(self, monkeypatch):
        return (count_calls(monkeypatch, matching, "_bfs"),
                count_calls(monkeypatch, matching, "_bfs_back"))

    def test_one_server_with_room_layers_backward(self, searches):
        # free clients 0, 3, 4, 5; only server 6 has room, next to client 0
        inst = build_instance(range(6), [6, 7, 8],
                              [(0, 6), (1, 7), (2, 8), (3, 7), (4, 8), (5, 7), (5, 8)])
        prof = CapacityProfile.uniform(inst, 1, 1)
        state = CapMatching(inst, prof, {(1, 7): 1, (2, 8): 1})
        roots, level, target = _layers(state, math.inf)
        assert (roots, target) == ([0], 1)
        # only server 6 and its neighbourhood are labelled
        assert {v: level[v] for v in range(inst.n) if level[v] >= 0} == {0: 0, 6: 1}
        assert [len(calls) for calls in searches] == [0, 1]

    def test_one_free_client_layers_forward(self, searches):
        # client 1 is the only free client; servers 3, 4, 5 have room
        inst = build_instance([0, 1], [2, 3, 4, 5], [(0, 2), (1, 2), (1, 3), (1, 4), (1, 5)])
        prof = CapacityProfile.uniform(inst, 1, 1)
        state = CapMatching(inst, prof, {(0, 2): 1})
        roots, level, target = _layers(state, math.inf)
        assert [len(calls) for calls in searches] == [1, 0]
        assert (roots, target) == ([1], 1)
        assert level == _bfs(state, [1])[0]

    @pytest.mark.parametrize("tau, mult", [
        ({3: 1, 4: 1}, {(0, 3): 1, (2, 4): 1}),  # every server full, client 1 free
        ({3: 1, 4: 3}, {(0, 3): 1, (1, 4): 1, (2, 4): 1}),  # every client saturated
    ])
    def test_no_free_vertex_on_a_side_runs_no_search(self, chain, searches, tau, mult):
        prof = CapacityProfile({c: 1 for c in chain.clients}, tau)
        state = CapMatching(chain, prof, mult)
        assert _layers(state, math.inf) is None
        assert [len(calls) for calls in searches] == [0, 0]
