import math

import pytest

from semimatch import Assignment, CapacityProfile, CapMatching, build_instance, generate_instance
from semimatch.oracle import (
    EnumerationTooLarge,
    apply_cost_reducing_path,
    client_perfect_matching_exists,
    find_cost_reducing_path,
    levels,
    opt_allnorm_enum,
    opt_backup_enum,
    opt_minmax_unweighted,
    opt_power_sums,
    opt_split,
    verify_expansion_lemma,
    verify_no_short_aug_paths,
)
from semimatch.solvers import InfeasibleError
from conftest import random_unit, random_weighted


class TestFlowFeasibility:
    def test_chain_perfect_exists(self, chain):
        kappa = {c: 1 for c in chain.clients}
        assert client_perfect_matching_exists(chain, kappa, {3: 2, 4: 1})
        assert not client_perfect_matching_exists(chain, kappa, {3: 1, 4: 1})

    def test_edge_cap(self):
        inst = build_instance([0], [1], [(0, 1)], {0: 2})
        assert client_perfect_matching_exists(inst, {0: 2}, {1: 2})
        assert not client_perfect_matching_exists(inst, {0: 2}, {1: 2}, edge_cap=1)


class TestOptMinmax:
    def test_chain(self, chain):
        assert opt_minmax_unweighted(chain) == 2

    def test_star(self, star4):
        assert opt_minmax_unweighted(star4) == 4

    def test_disjoint_perfect(self):
        assert opt_minmax_unweighted(generate_instance("disjoint-perfect", k=4)) == 1

    def test_isolated_client(self):
        inst = build_instance([0, 1], [2], [(0, 2)])
        with pytest.raises(InfeasibleError):
            opt_minmax_unweighted(inst)


WEIGHTED = build_instance([0], [1], [(0, 1)], {0: 2})


@pytest.mark.parametrize("run, message", [
    (lambda: opt_minmax_unweighted(WEIGHTED), "opt_minmax_unweighted requires unit weights"),
    (lambda: find_cost_reducing_path(WEIGHTED, Assignment(WEIGHTED, {0: 1})),
     "cost-reducing paths are defined for unit weights"),
], ids=["opt_minmax_unweighted", "find_cost_reducing_path"])
def test_unit_weight_oracles_reject_weights(run, message):
    with pytest.raises(ValueError, match=message):
        run()


@pytest.mark.parametrize("alpha", [1, 0.5])
def test_expansion_lemma_rejects_alpha_at_most_one(chain, alpha):
    prof = CapacityProfile.uniform(chain, 1, 2)
    with pytest.raises(ValueError, match="alpha must exceed 1"):
        verify_expansion_lemma(chain, prof.kappa, prof.tau, alpha, CapMatching(chain, prof))


class TestVerifyNoShortAugPaths:
    @pytest.mark.parametrize("k", [-1, 0, 2])
    def test_rejects_k_that_is_not_odd_and_positive(self, chain, k):
        prof = CapacityProfile.uniform(chain, 1, 1)
        with pytest.raises(ValueError, match="k must be odd and >= 1"):
            verify_no_short_aug_paths(chain, prof, CapMatching(chain, prof), k)


class TestOptSplit:
    def test_unit_matches_minmax(self, chain):
        assert opt_split(chain) == opt_minmax_unweighted(chain)

    def test_weighted_split_beats_integral(self):
        # one weight-3 client over two servers: split optimum ceil(3/2) = 2
        inst = build_instance([0], [1, 2], [(0, 1), (0, 2)], {0: 3})
        assert opt_split(inst) == 2

    def test_star_weighted(self):
        inst = build_instance([0, 1], [2], [(0, 2), (1, 2)], {0: 4, 1: 2})
        assert opt_split(inst) == 6


class TestEnumeration:
    def test_chain_allnorm(self, chain):
        optima, witness = opt_allnorm_enum(chain)
        # hand-computed: loads (2, 1) are optimal for every norm
        assert optima[1] == 3.0
        assert optima[math.inf] == 2.0
        assert math.isclose(optima[2], math.sqrt(5))
        assert witness is not None
        assert sorted(witness.load_vector().loads.values(), reverse=True) == [2, 1]

    def test_power_sums_chain(self, chain):
        assert opt_power_sums(chain, (2, 3)) == {2: 5, 3: 9}

    def test_cutoff(self):
        inst = random_unit(0, nc=8, ns=4, p=0.9)
        with pytest.raises(EnumerationTooLarge):
            opt_allnorm_enum(inst, max_assignments=10)

    def test_weighted_no_witness(self):
        inst = build_instance([0], [1, 2], [(0, 1), (0, 2)], {0: 2})
        optima, witness = opt_allnorm_enum(inst)
        assert witness is None
        assert optima[math.inf] == 2.0

    @pytest.mark.parametrize("seed", range(10))
    def test_power_sums_consistent_with_norms(self, seed):
        inst = random_weighted(seed, nc=6, ns=3, p=0.6, max_weight=4)
        optima, _ = opt_allnorm_enum(inst, (2, 3))
        sums = opt_power_sums(inst, (2, 3))
        for p in (2, 3):
            assert math.isclose(optima[p], sums[p] ** (1.0 / p))


class TestBackupEnum:
    def test_square(self):
        inst = build_instance([0, 1], [2, 3], [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert opt_backup_enum(inst, 2) == 2

    def test_infeasible(self, chain):
        with pytest.raises(InfeasibleError):
            opt_backup_enum(chain, 2)


class TestCostReducingPaths:
    def test_imbalanced_star_pair(self):
        # both clients piled on server 2 while server 3 idles
        inst = build_instance([0, 1], [2, 3], [(0, 2), (0, 3), (1, 2)])
        a = Assignment(inst, {0: 2, 1: 2})
        path = find_cost_reducing_path(inst, a)
        assert path == [2, 0, 3]
        better = apply_cost_reducing_path(a, path)
        assert better.load_vector().loads == {2: 1, 3: 1}
        assert find_cost_reducing_path(inst, better) is None

    def test_two_hop_chain(self):
        # load 3 at s3, 1 at s4, 0 at s5; reduction needs two reassignments
        inst = build_instance(
            [0, 1, 2, 3],
            [4, 5, 6],
            [(0, 4), (1, 4), (2, 4), (2, 5), (3, 5), (3, 6)],
        )
        a = Assignment(inst, {0: 4, 1: 4, 2: 4, 3: 5})
        path = find_cost_reducing_path(inst, a)
        assert path == [4, 2, 5]
        a = apply_cost_reducing_path(a, path)
        assert a.load_vector().loads == {4: 2, 5: 2, 6: 0}
        path = find_cost_reducing_path(inst, a)
        assert path == [5, 3, 6]
        a = apply_cost_reducing_path(a, path)
        assert a.load_vector().loads == {4: 2, 5: 1, 6: 1}
        assert find_cost_reducing_path(inst, a) is None

    def test_optimal_has_none(self, chain):
        _, witness = opt_allnorm_enum(chain)
        assert find_cost_reducing_path(chain, witness) is None

    @pytest.mark.parametrize("seed", range(20))
    def test_none_iff_canonical_optimal(self, seed):
        inst = random_unit(seed, nc=6, ns=3, p=0.6)
        _, witness = opt_allnorm_enum(inst)
        assert find_cost_reducing_path(inst, witness) is None

    @pytest.mark.parametrize("seed", range(10))
    def test_repeated_application_reaches_optimum(self, seed):
        inst = random_unit(seed, nc=6, ns=3, p=0.6)
        a = Assignment(inst, {c: inst.client_adj[c][0] for c in inst.clients})
        for _ in range(100):
            path = find_cost_reducing_path(inst, a)
            if path is None:
                break
            a = apply_cost_reducing_path(a, path)
        else:
            pytest.fail("did not converge")
        optima, _ = opt_allnorm_enum(inst, (math.inf,))
        assert a.load_vector().max() == optima[math.inf]


class TestLevels:
    def test_chain(self, chain):
        lm = levels(chain)
        assert sorted(lm.server_level.values(), reverse=True) == [2, 1]
        for c in chain.clients:
            assert lm.client_level[c] == lm.server_level[lm.optimal.mapping[c]]

    def test_star(self, star4):
        lm = levels(star4)
        assert lm.server_level == {4: 4}
        assert all(v == 4 for v in lm.client_level.values())

    @pytest.mark.parametrize("seed", range(20))
    def test_no_downhill_adjacency(self, seed):
        inst = random_unit(seed, nc=7, ns=3, p=0.5)
        lm = levels(inst)  # raises internally if the property fails
        for c in inst.clients:
            for s in inst.client_adj[c]:
                assert lm.server_level[s] > lm.client_level[c] - 2

    def test_rejects_weighted(self):
        inst = build_instance([0], [1], [(0, 1)], {0: 2})
        with pytest.raises(ValueError, match="unit"):
            levels(inst)
