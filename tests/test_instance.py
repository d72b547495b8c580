import json
import math
import re

import pytest

from semimatch import (
    InstanceError,
    build_instance,
    generate_instance,
    normalize_weights,
    read_instance,
    weight_classes,
    write_instance,
)
from semimatch.instance import induced_subinstance
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
        ([(0, 2), ("a", 2)], r"edge \(a, 2\): a is not a client"),
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

    @pytest.mark.parametrize("clients,servers,detail", [
        ([0, 0, 1], [2], "client id 0 is repeated"),
        ([0], [1, 1], "server id 1 is repeated"),
    ])
    def test_repeated_id_rejected(self, clients, servers, detail):
        with pytest.raises(InstanceError, match=detail):
            build_instance(clients, servers, [(0, servers[0])])

    def test_sparse_ids_rejected(self):
        with pytest.raises(InstanceError):
            build_instance([0], [7], [(0, 7)])


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
        views = weight_classes(inst)
        assert [v.class_index for v in views] == [0, 1, 2]
        assert [len(v.clients) for v in views] == [2, 1, 1]
        all_clients = sorted(c for v in views for c in v.clients)
        all_edges = sorted(e for v in views for e in v.edges)
        assert tuple(all_clients) == inst.clients
        assert tuple(all_edges) == inst.edges

    def test_unit_instance_single_class(self, chain):
        views = weight_classes(chain)
        assert len(views) == 1
        assert views[0].clients == chain.clients
        assert views[0].edges == chain.edges

    def test_shared_server(self):
        inst = build_instance([0, 1], [2], [(0, 2), (1, 2)], {0: 2, 1: 2})
        (view,) = weight_classes(inst)
        assert view.clients == (0, 1)
        assert view.servers == (2,)

    def test_rejects_unnormalized(self):
        inst = build_instance([0], [1], [(0, 1)], {0: 3})
        with pytest.raises(InstanceError, match="normalize"):
            weight_classes(inst)

    def test_induced_subinstance_relabels_view(self):
        # class 1 (weight 2) holds clients 1, 3 on servers 5, 6
        inst = build_instance(range(4), [4, 5, 6],
                              [(0, 4), (1, 5), (1, 6), (2, 4), (3, 6)], {0: 1, 1: 2, 2: 1, 3: 2})
        view = weight_classes(inst)[1]
        assert (view.clients, view.servers) == ((1, 3), (5, 6))
        assert view.edges == ((1, 5), (1, 6), (3, 6))
        sub = induced_subinstance(view)
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
