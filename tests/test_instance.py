import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semimatch import (
    Instance,
    InstanceError,
    build_instance,
    generate_instance,
    normalize_weights,
    read_instance,
    weight_classes,
    write_instance,
)
from conftest import client_expand, random_weighted


class TestBuildInstance:
    def test_basic_construction(self, chain):
        assert chain.n == 5
        assert chain.m == 4
        assert chain.max_weight == 1

    def test_empty_edge_list_accepted(self):
        inst = build_instance([0, 1], [2], [])
        assert inst.m == 0
        assert inst.zero_degree_clients() == [0, 1]

    def test_client_client_edge_rejected(self):
        with pytest.raises(InstanceError):
            build_instance([0, 1], [2], [(0, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InstanceError):
            build_instance([0], [1], [(0, 1), (0, 1)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(InstanceError):
            build_instance([0], [1], [(0, 1)], {0: 0})

    def test_dangling_endpoint_rejected(self):
        with pytest.raises(InstanceError):
            build_instance([0], [1], [(0, 5)])

    @pytest.mark.parametrize("edges,detail", [
        ([(0, 2), (1, 2), (0, 1)], r"edge \(0, 1\): 1 is not a server"),
        ([(2, 0), (0, 2)], r"edge \(2, 0\): 2 is not a client"),
        ([(0, 2), ("a", 2)], r"edge \('a', 2\): 'a' is not a client"),
        ([(1, 7), (0, 2), (0, 9)], r"edge \(1, 7\): 7 is not a server"),
    ])
    def test_first_bad_edge_named(self, edges, detail):
        with pytest.raises(InstanceError, match=detail):
            build_instance([0, 1], [2], edges)

    @pytest.mark.parametrize("inst", [
        build_instance([1, 3, 4], [0, 2], [(4, 0), (1, 2), (3, 0), (1, 0), (4, 2)]),
        build_instance([0, 1], [2], []),
        random_weighted(3, nc=12, ns=7, p=0.4),
    ])
    def test_edge_id_layout(self, inst):
        ids = set()
        for c in inst.clients:
            for i, s in enumerate(inst.client_adj[c]):
                e = inst.edge_start[c] + i
                assert inst.edges[e] == (c, s) and inst.edge_id(c, s) == e
                ids.add(e)
        assert ids == set(range(inst.m))
        for s in inst.servers:
            for i, c in enumerate(inst.server_adj[s]):
                assert inst.edges[inst.server_edges[inst.edge_start[s] + i]] == (c, s)
        assert sorted(inst.server_edges) == list(range(inst.m))
        for c, s in [(inst.clients[0], inst.clients[-1]), (inst.servers[0], inst.clients[0]),
                     (inst.clients[0], inst.n)]:
            assert inst.edge_id(c, s) is None
        # an end that is not a plain int names no edge, even one equal to an id
        for c, s in inst.edges:
            assert inst.edge_id(float(c), s) is inst.edge_id(c, float(s)) is None
            if c in (0, 1):
                assert inst.edge_id(bool(c), s) is None

    @pytest.mark.parametrize("clients,servers,detail", [
        ([0, 0, 1], [2], "client id 0 is repeated"),
        ([0], [1, 1], "server id 1 is repeated"),
        ([0, 1], [1, 2], r"client/server id overlap: \[1\]"),
    ])
    def test_repeated_id_rejected(self, clients, servers, detail):
        with pytest.raises(InstanceError, match=detail):
            build_instance(clients, servers, [(0, servers[0])])

    def test_sparse_ids_rejected(self):
        with pytest.raises(InstanceError):
            build_instance([0], [7], [(0, 7)])

    @pytest.mark.parametrize("clients,servers,edges,weights,detail", [
        ([True], [0], [(True, 0)], None, "client id True is not a plain int"),
        ([1.0], [0], [(1, 0)], None, "client id 1.0 is not a plain int"),
        ([0], [1.0], [(0, 1)], None, "server id 1.0 is not a plain int"),
        ([0], [1], [(0, 1)], {0: True}, "client 0 must have a positive int weight, got True"),
        ([0], [1], [(0, 1)], {0: 1.5}, "client 0 must have a positive int weight, got 1.5"),
        ([0], [1], [(0, 1)], {0: "2"}, "client 0 must have a positive int weight, got '2'"),
        ([0], [1], [(0, 1, 2)], None, "edge (0, 1, 2) must be a (client, server) pair"),
        ([0], [1], [(0,)], None, "edge (0,) must be a (client, server) pair"),
        ([0, 1], [2], [(0, 2), (1.0, 2)], None, "edge (1.0, 2): 1.0 is not a client"),
        ([0, 1], [2], [(0, 2), (True, 2)], None, "edge (True, 2): True is not a client"),
        ([0, 1], [2], [(0, 2), (1, 2.0)], None, "edge (1, 2.0): 2.0 is not a server"),
        # an unhashable id or end is named before any is hashed
        ([[0]], [1], [(0, 1)], None, "client id [0] is not a plain int"),
        ([0], [1], [(0, [1])], None, "edge (0, [1]): [1] is not a server"),
        # an edge that is not iterable, in a list and in a one-shot iterator
        ([0], [1], [5], None, "edge 5 must be a (client, server) pair"),
        ([0, 1], [2], iter([(0, 2), 5, (1, 2)]), None, "edges must be (client, server) pairs"),
        # edges that are not iterable at all
        ([0], [1], 5, None, "edges must be (client, server) pairs"),
    ])
    def test_value_that_is_not_a_plain_int_named(self, clients, servers, edges, weights, detail):
        with pytest.raises(InstanceError) as info:
            build_instance(clients, servers, edges, weights)
        assert str(info.value) == detail

    @pytest.mark.parametrize("clients,servers,edges,weights,detail", [
        ((True,), (0,), ((True, 0),), {True: 1}, "client id True is not a plain int"),
        ((0,), (1.0,), ((0, 1.0),), {0: 1}, "server id 1.0 is not a plain int"),
        ((0,), (1,), ((0, 1, 2),), {0: 1}, "edge (0, 1, 2) must be a (client, server) pair"),
        ((0, 1), (2,), ((0, 2), (True, 2)), {0: 1, 1: 1}, "edge (True, 2): True is not a client"),
        # an edge that is not a tuple: no length, unhashable, unindexable
        ((0,), (1,), (5,), {0: 1}, "edge 5 must be a (client, server) tuple"),
        ((0,), (1,), ([0, 1],), {0: 1}, "edge [0, 1] must be a (client, server) tuple"),
        ((0, 1), (2,), ((0, 2), frozenset({1, 2})), {0: 1, 1: 1},
         "edge frozenset({1, 2}) must be a (client, server) tuple"),
        # a pair that is no tuple, read as one or failing only when sorted
        ((0,), (1,), (b"\x00\x01",), {0: 1},
         "edge b'\\x00\\x01' must be a (client, server) tuple"),
        ((0, 1), (2,), ((0, 2), b"\x01\x02"), {0: 1, 1: 1},
         "edge b'\\x01\\x02' must be a (client, server) tuple"),
    ])
    def test_constructor_checks_ids_and_edges(self, clients, servers, edges, weights, detail):
        with pytest.raises(InstanceError) as info:
            Instance(clients, servers, edges, weights)
        assert str(info.value) == detail

    @pytest.mark.parametrize("cache", ["client_adj", "server_adj", "edge_start", "server_edges"])
    def test_derived_caches_are_not_parameters(self, cache):
        with pytest.raises(TypeError, match=cache):
            Instance((0,), (1,), ((0, 1),), {0: 1}, **{cache: {}})
        # equality and repr read only the data the caches are derived from
        inst = build_instance([0, 1], [2], [(1, 2), (0, 2)])
        other = build_instance([0, 1], [2], [(0, 2), (1, 2)])
        setattr(other, cache, None)
        assert inst == other and repr(inst) == repr(other)
        assert cache not in repr(inst)


class TestNormalizeWeights:
    def test_power_of_two_rounding(self):
        # weights (3, 5, 8) with n = 10: no rescale (W=8 <= 10), round up
        inst = build_instance(
            range(3), range(3, 10), [(c, 3 + c) for c in range(3)], {0: 3, 1: 5, 2: 8}
        )
        norm = normalize_weights(inst)
        assert [norm.weight[c] for c in range(3)] == [4, 8, 8]

    @pytest.mark.parametrize(
        "w, n_extra_servers, expected",
        [
            # hand-recomputed: rescale ceil(w * n / W) when W > n, then round
            # up to the next power of two (clamped to the largest power <= n)
            (7, 3, 4),  # n=4: ceil(7*4/7)=4 -> 4
            (9, 3, 4),  # n=4: ceil(9*4/9)=4 -> 4
            (11, 4, 4),  # n=5: ceil(11*5/11)=5 -> 8 -> clamp to 4
            (100, 7, 8),  # n=8: ceil(100*8/100)=8 -> 8
            (33, 2, 2),  # n=3: ceil(33*3/33)=3 -> 4 -> clamp to 2
        ],
    )
    def test_rescaling_cases(self, w, n_extra_servers, expected):
        servers = list(range(1, 1 + n_extra_servers))
        inst = build_instance([0], servers, [(0, 1)], {0: w})
        norm = normalize_weights(inst)
        assert norm.weight[0] == expected
        assert norm.max_weight <= norm.n

    def test_unit_weights_unchanged(self, chain):
        norm = normalize_weights(chain)
        assert norm.weight == chain.weight

    @pytest.mark.parametrize("seed", range(20))
    def test_idempotent_and_bounded(self, seed):
        inst = random_weighted(seed, max_weight=50, normalized=False)
        once = normalize_weights(inst)
        twice = normalize_weights(once)
        assert once.weight == twice.weight
        for w in once.weight.values():
            assert w & (w - 1) == 0
            assert w <= once.n

    @pytest.mark.parametrize("seed", range(5))
    def test_layout_equals_a_fresh_build(self, seed):
        inst = random_weighted(seed, max_weight=50, normalized=False)
        norm = normalize_weights(inst)
        fresh = build_instance(inst.clients, inst.servers, inst.edges, norm.weight)
        assert norm == fresh  # every field: ids, edges, weights, adjacency, edge-id arrays
        # the parent keeps its own weights
        assert inst.weight == random_weighted(seed, max_weight=50, normalized=False).weight
        assert normalize_weights(norm) == norm


class TestWeightClasses:
    def test_partition(self):
        inst = build_instance(
            range(4), [4, 5], [(0, 4), (1, 4), (2, 5), (3, 5)], {0: 1, 1: 1, 2: 2, 3: 4}
        )
        classes = weight_classes(inst)
        assert [cls.weight for cls in classes] == [1, 2, 4]
        assert [len(cls.instance.clients) for cls in classes] == [2, 1, 1]
        all_clients = sorted(cls.base_id[c] for cls in classes for c in cls.instance.clients)
        all_edges = sorted((cls.base_id[c], cls.base_id[s])
                           for cls in classes for c, s in cls.instance.edges)
        assert tuple(all_clients) == inst.clients
        assert tuple(all_edges) == inst.edges

    def test_unit_instance_single_class(self, chain):
        (cls,) = weight_classes(chain)
        assert cls.weight == 1
        assert cls.base_id == chain.clients + chain.servers
        assert cls.instance == chain

    def test_shared_server(self):
        inst = build_instance([0, 1], [2], [(0, 2), (1, 2)], {0: 2, 1: 2})
        (cls,) = weight_classes(inst)
        assert cls.weight == 2
        assert cls.base_id == (0, 1, 2)
        assert cls.instance.edges == ((0, 2), (1, 2))

    @pytest.mark.parametrize("seed", range(5))
    def test_sub_instance_equals_a_fresh_build(self, seed):
        # a class's sub-instance skips validation; it must still be the
        # Instance a validating build makes of the same parts
        for cls in weight_classes(random_weighted(seed, max_weight=50)):
            sub = cls.instance
            assert sub == build_instance(sub.clients, sub.servers, sub.edges)

    def test_rejects_unnormalized(self):
        inst = build_instance([0], [1], [(0, 1)], {0: 3})
        with pytest.raises(InstanceError, match="normalize"):
            weight_classes(inst)

    def test_relabels_each_side_in_ascending_order(self):
        # class 1 holds clients 0, 2 on server 4; class 2 clients 1, 3 on servers 5, 6
        inst = build_instance(range(4), [4, 5, 6],
                              [(0, 4), (1, 5), (1, 6), (2, 4), (3, 6)], {0: 1, 1: 2, 2: 1, 3: 2})
        ones, twos = weight_classes(inst)
        assert ones.base_id == (0, 2, 4)
        assert ones.instance.edges == ((0, 2), (1, 2))
        assert twos.base_id == (1, 3, 5, 6)
        sub = twos.instance
        assert (sub.clients, sub.servers) == ((0, 1), (2, 3))
        assert sub.edges == ((0, 2), (0, 3), (1, 3))
        assert sub.is_unit_weight()


class TestClientExpand:
    """The test-only expanded graph the lift property checks against."""

    def test_single_weighted_client(self):
        inst = build_instance([0], [1, 2], [(0, 1), (0, 2)], {0: 3})
        exp = client_expand(inst)
        assert len(exp.instance.clients) == 3
        assert exp.instance.m == 6
        assert sorted(exp.copy_of.values()) == [(0, 1), (0, 2), (0, 3)]

    def test_unit_instance_isomorphic(self, chain):
        exp = client_expand(chain)
        assert exp.instance.n == chain.n
        assert exp.instance.m == chain.m

    def test_shared_server(self):
        inst = build_instance([0, 1], [2], [(0, 2), (1, 2)], {0: 2, 1: 1})
        exp = client_expand(inst)
        assert len(exp.instance.clients) == 3
        assert all(exp.instance.client_adj[c] for c in exp.instance.clients)

    @pytest.mark.parametrize("seed", range(10))
    def test_total_weight_preserved(self, seed):
        inst = random_weighted(seed)
        exp = client_expand(inst)
        assert len(exp.instance.clients) == inst.total_weight
        assert exp.instance.m == sum(
            inst.weight[c] * inst.degree(c) for c in inst.clients
        )


class TestGenerators:
    def test_star(self, star4):
        assert len(star4.clients) == 4
        assert len(star4.servers) == 1
        assert all(star4.degree(c) == 1 for c in star4.clients)

    def test_disjoint_perfect(self):
        inst = generate_instance("disjoint-perfect", k=3)
        assert inst.m == 3
        assert all(inst.degree(v) == 1 for v in range(6))

    def test_determinism(self):
        a = generate_instance("random-bipartite", seed=7, n_clients=50, n_servers=10, p=0.3)
        b = generate_instance("random-bipartite", seed=7, n_clients=50, n_servers=10, p=0.3)
        assert a.edges == b.edges

    def test_min_degree(self):
        inst = generate_instance("random-bipartite", seed=3, n_clients=40, n_servers=20, p=0.01)
        assert all(inst.degree(c) >= 1 for c in inst.clients)
        pl = generate_instance("power-law-degrees", seed=3, n_clients=40, n_servers=10,
                               exponent=2.0)
        assert all(pl.degree(c) >= 1 for c in pl.clients)

    def test_unknown_generator(self):
        with pytest.raises(InstanceError, match="unknown generator"):
            generate_instance("nope")

    @pytest.mark.parametrize("name,params,missing", [
        ("random-bipartite", {"n_clients": 5, "n_servers": 2}, "p"),
        ("star", {}, "n_clients"),
        ("disjoint-perfect", {}, "k"),
        ("power-law-degrees", {"n_clients": 5}, "n_servers"),
        ("weighted-random", {"n_servers": 2, "p": 0.5}, "n_clients"),
    ])
    def test_missing_parameter_named(self, name, params, missing):
        with pytest.raises(InstanceError, match=f"{name} requires parameter '{missing}'"):
            generate_instance(name, **params)

    @pytest.mark.parametrize("value", [[3], None, "x"])
    def test_non_numeric_parameter_named(self, value):
        with pytest.raises(InstanceError, match="star parameter 'n_clients' must be a number"):
            generate_instance("star", n_clients=value)

    @pytest.mark.parametrize("value", [2.7, 2.0, True])
    def test_integer_parameter_takes_only_integers(self, value):
        with pytest.raises(InstanceError,
                           match="star parameter 'n_clients' must be an integer"):
            generate_instance("star", n_clients=value)

    @pytest.mark.parametrize("value", [True, "0.5"])
    def test_float_parameter_rejects_non_numbers(self, value):
        with pytest.raises(InstanceError,
                           match="random-bipartite parameter 'p' must be a number"):
            generate_instance("random-bipartite", n_clients=5, n_servers=2, p=value)

    @pytest.mark.parametrize("name,params,detail", [
        ("star", {"n_clients": 0}, "star requires n_clients >= 1"),
        ("disjoint-perfect", {"k": 0}, "disjoint-perfect requires k >= 1"),
        ("power-law-degrees", {"n_clients": 0, "n_servers": 2},
         "power-law-degrees parameters out of range"),
        ("weighted-random", {"n_clients": 3, "n_servers": 2, "p": 0.5, "max_weight": 0},
         "weighted-random requires max_weight >= 1"),
        ("random-bipartite", {"n_clients": 3, "n_servers": 2, "p": 1.5},
         "random-bipartite parameters out of range"),
    ])
    def test_parameter_out_of_range_named(self, name, params, detail):
        with pytest.raises(InstanceError) as info:
            generate_instance(name, **params)
        assert str(info.value) == detail

    def test_float_parameter_takes_an_int(self):
        as_int = generate_instance("random-bipartite", seed=4, n_clients=5, n_servers=3, p=1)
        as_float = generate_instance("random-bipartite", seed=4, n_clients=5, n_servers=3, p=1.0)
        assert as_int.edges == as_float.edges

    @pytest.mark.parametrize("name,params,unknown", [
        ("star", {"n_clients": 3, "n_client": 9}, "n_client"),
        ("weighted-random", {"n_clients": 3, "n_servers": 2, "p": 0.5, "exponent": 2},
         "exponent"),
        ("power-law-degrees", {"n_clients": 3, "n_servers": 2, "k": 1}, "k"),
    ])
    def test_unknown_parameter_named(self, name, params, unknown):
        with pytest.raises(InstanceError, match=f"{name} takes no parameter '{unknown}'"):
            generate_instance(name, **params)


class TestFileIO:
    def test_round_trip(self, tmp_path, star4):
        path = tmp_path / "star.json"
        write_instance(star4, path)
        back = read_instance(path)
        assert back.clients == star4.clients
        assert back.edges == star4.edges
        assert back.weight == star4.weight

    def test_weighted_round_trip(self, tmp_path):
        inst = random_weighted(0, normalized=False)
        path = tmp_path / "w.json"
        write_instance(inst, path)
        assert read_instance(path).weight == inst.weight

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_bytes_are_json_dumps_indent_1(self, tmp_path_factory, data):
        # any ids on either side, weights past 32 bits, and possibly no edges
        # (or no vertices) at all, so that empty lists render as []
        ids = data.draw(st.permutations(range(data.draw(st.integers(0, 8)))))
        nc = data.draw(st.integers(0, len(ids)))
        clients, servers = sorted(ids[:nc]), sorted(ids[nc:])
        pairs = [(c, s) for c in clients for s in servers]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        weight = {c: data.draw(st.integers(1, 1 << 40)) for c in clients}
        inst = build_instance(clients, servers, edges, weight)
        path = tmp_path_factory.mktemp("write") / "inst.json"
        write_instance(inst, path)
        doc = {
            "clients": [{"id": c, "weight": inst.weight[c]} for c in inst.clients],
            "servers": [{"id": s} for s in inst.servers],
            "edges": [[c, s] for c, s in inst.edges],
        }
        assert path.read_bytes() == (json.dumps(doc, indent=1) + "\n").encode()

    def test_zero_weight_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"clients":[{"id":0,"weight":0}],"servers":[{"id":1}],"edges":[[0,1]]}')
        with pytest.raises(InstanceError, match="weight"):
            read_instance(path)

    def test_unknown_field_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"clients":[],"servers":[],"edges":[],"extra":1}')
        with pytest.raises(InstanceError, match="extra"):
            read_instance(path)

    def test_malformed_json_diagnostics(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"clients": [')
        with pytest.raises(InstanceError, match="line"):
            read_instance(path)

    @pytest.mark.parametrize("doc,field", [
        ({"clients": [{"id": 0, "weight": True}]}, "clients[0].weight"),
        ({"clients": [{"id": 0.0, "weight": 1}]}, "clients[0].id"),
        ({"clients": [{"id": False, "weight": 1}]}, "clients[0].id"),
        ({"servers": [{"id": 1.0}]}, "servers[0].id"),
        ({"edges": [[0, 1.0]]}, "edges[0]"),
        ({"edges": [[True, 1]]}, "edges[0]"),
        ({"clients": 5}, "'clients' must be a list"),
        ({"servers": {"id": 1}}, "'servers' must be a list"),
        ({"edges": "0-1"}, "'edges' must be a list"),
        ({"clients": [], "servers": [], "edges": []}, "'clients' must not be empty"),
    ])
    def test_field_level_rejection(self, tmp_path, doc, field):
        good = {"clients": [{"id": 0, "weight": 1}], "servers": [{"id": 1}], "edges": [[0, 1]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**good, **doc}))
        with pytest.raises(InstanceError, match=re.escape(field)):
            read_instance(path)

    @pytest.mark.parametrize("doc,detail", [
        # the first bad entry follows good ones
        ({"servers": [{"id": 1}, {"id": 2}, {"id": True}]}, "servers[2].id must be an integer"),
        ({"edges": [[0, 1], [0, 2], [0, 1, 2], [0, 3]]},
         "edges[2] must be a [client, server] pair of integer ids"),
        ({"edges": [[0, 1], [0, 2], [0, 3.0]]},
         "edges[2] must be a [client, server] pair of integer ids"),
        ({"clients": [{"id": 0, "weight": 1}, {"id": 1, "weight": 0}]},
         "clients[1].weight must be a positive integer"),
        ({"clients": [{"id": 0, "weight": 1}, {"id": 1}]}, "clients[1] must have 'id' and 'weight'"),
        ({"servers": [{"id": 2}, [3]]}, "servers[1] must have 'id'"),
        # an entry key that is not a field
        ({"clients": [{"id": 0, "weight": 1, "wieght": 5}]}, "clients[0]: unknown field 'wieght'"),
        ({"servers": [{"id": 1}, {"id": 2, "weight": 3}]}, "servers[1]: unknown field 'weight'"),
    ])
    def test_bad_entry_message(self, tmp_path, doc, detail):
        good = {"clients": [{"id": 0, "weight": 1}], "servers": [{"id": 1}], "edges": [[0, 1]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**good, **doc}))
        with pytest.raises(InstanceError) as info:
            read_instance(path)
        assert str(info.value) == f"{path}: {detail}"

    @pytest.mark.parametrize("text,detail", [
        ("[1, 2]", "top-level value must be an object"),
        ('{"clients": [{"id": 0, "weight": 1}], "servers": [{"id": 1}]}',
         "missing field 'edges'"),
    ])
    def test_document_shape_named(self, tmp_path, text, detail):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(InstanceError) as info:
            read_instance(path)
        assert str(info.value) == f"{path}: {detail}"

    def test_deep_nesting_named(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        with pytest.raises(InstanceError) as info:
            read_instance(path)
        assert str(info.value) == f"{path}: JSON nested too deeply to decode"

    @pytest.mark.parametrize("doc,detail", [
        ({"servers": [{"id": 1}, {"id": 1}]}, "server id 1 is repeated"),
        ({"clients": [{"id": 0, "weight": 1}, {"id": 0, "weight": 2}]},
         "client id 0 is repeated"),
    ])
    def test_repeated_id_named_with_path(self, tmp_path, doc, detail):
        good = {"clients": [{"id": 0, "weight": 1}], "servers": [{"id": 1}], "edges": [[0, 1]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**good, **doc}))
        with pytest.raises(InstanceError, match=re.escape(f"{path}: {detail}")):
            read_instance(path)
