"""Acceptance suite: empirical checks of every published guarantee.

Each test prints one CRITERION line (PASS/FAIL plus the measured figure)
directly to the terminal, then asserts.
"""

import math
import random
import statistics
import time

import pytest

from semimatch import (
    CapacityProfile,
    CapMatching,
    blocking_flow_matching,
    cancel_cycles,
    eliminate_short_paths,
    generate_instance,
    is_client_perfect,
    normalize_weights,
    round_budget,
    round_split,
    run_simulation,
    solve_backup,
    solve_sequential,
    solve_unweighted,
    solve_weighted_congest,
    solve_weighted_local,
    split_assignment_seq,
    verify_message_budget,
)
from semimatch.oracle import (
    client_perfect_matching_exists,
    levels,
    opt_allnorm_enum,
    opt_backup_enum,
    opt_minmax_unweighted,
    opt_power_sums,
    residual_source_sink_distance,
    verify_expansion_lemma,
)
from semimatch.solvers import InfeasibleError, b_schedule, short_path_bound, unit_schedule
from conftest import support_degrees


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def _unit(seed, nc, ns, p):
    return generate_instance("random-bipartite", seed=seed, n_clients=nc, n_servers=ns, p=p)


def _weighted(seed, nc, ns, p, max_weight):
    inst = generate_instance("weighted-random", seed=seed, n_clients=nc, n_servers=ns,
                             p=p, max_weight=max_weight)
    return normalize_weights(inst)


def _enum_unit(seed):
    rng = random.Random(seed)
    nc = rng.randint(5, 9)
    ns = rng.randint(3, 4)
    return _unit(seed, nc, ns, rng.uniform(0.4, 0.8))


def _enum_weighted(seed):
    rng = random.Random(seed)
    nc = rng.randint(5, 7)
    ns = 3
    return _weighted(seed, nc, ns, rng.uniform(0.4, 0.8), rng.choice([2, 4, 8]))


def test_criterion_1_minmax_8_approx(capsys):
    """Min-max quality of the doubling-budget unweighted solver, exact bound 8."""
    start = time.perf_counter()
    worst = 0.0
    trials = 0
    rng = random.Random(11)
    for seed in range(500):
        if seed < 460:
            nc, ns = rng.randint(8, 40), rng.randint(3, 10)
        else:
            nc, ns = rng.randint(100, 320), rng.randint(20, 80)
        inst = _unit(1000 + seed, nc, ns, rng.uniform(0.05, 0.6))
        a = solve_unweighted(inst)
        ratio = a.load_vector().max() / opt_minmax_unweighted(inst)
        worst = max(worst, ratio)
        trials += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 8 and trials >= 500 and elapsed < 60
    report(capsys, 1, ok,
           f"{trials} unit instances, worst linf ratio {worst:.3f} <= 8, {elapsed:.1f}s")


def test_criterion_2_allnorm_24_approx(capsys):
    """All-norm quality on enumeration-sized unit instances, exact bound 24."""
    worst = {2: 0.0, 3: 0.0, math.inf: 0.0}
    l1_dev = 0.0
    trials = 0
    for seed in range(200):
        inst = _enum_unit(2000 + seed)
        a = solve_unweighted(inst)
        lv = a.load_vector()
        opt_pow = opt_power_sums(inst, (2, 3))
        for p in (2, 3):
            # exact integer comparison: norm ratio <= 24 iff power sums obey
            assert lv.power_sum(p) <= 24**p * opt_pow[p]
            worst[p] = max(worst[p], (lv.power_sum(p) / opt_pow[p]) ** (1 / p))
        opt_inf = opt_minmax_unweighted(inst)
        assert lv.max() <= 24 * opt_inf
        worst[math.inf] = max(worst[math.inf], lv.max() / opt_inf)
        l1_dev = max(l1_dev, abs(lv.total() / len(inst.clients) - 1.0))
        trials += 1
    ok = trials >= 200 and l1_dev <= 1e-9
    report(capsys, 2, ok,
           f"{trials} instances, worst ratios p=2/3/inf "
           f"{worst[2]:.2f}/{worst[3]:.2f}/{worst[math.inf]:.2f} <= 24, "
           f"l1 deviation {l1_dev:.1e}")


def test_criterion_3_expansion_property(capsys):
    """Short augmenting paths under doubled capacities, 1000 randomized trials."""
    true_count = 0
    for seed in range(1000):
        rng = random.Random(30_000 + seed)
        inst = _unit(30_000 + seed, rng.randint(4, 8), rng.randint(2, 4), rng.uniform(0.4, 0.9))
        tau = {s: 0 for s in inst.servers}
        for c in inst.clients:
            tau[rng.choice(inst.client_adj[c])] += 1
        kappa = {c: 1 for c in inst.clients}
        profile = CapacityProfile(kappa, {s: 2 * t for s, t in tau.items()})
        x = CapMatching(inst, profile)
        for c, s in rng.sample(inst.edges, k=rng.randint(0, inst.m)):
            if not x.client_saturated(c) and not x.server_saturated(s):
                x.add(c, s, 1)
        if verify_expansion_lemma(inst, kappa, tau, 2, x) is True:
            true_count += 1
    perfect = 0
    feasible = 0
    for seed in range(100):
        rng = random.Random(31_000 + seed)
        inst = _unit(31_000 + seed, rng.randint(6, 12), rng.randint(3, 5), rng.uniform(0.4, 0.8))
        tau = {s: 0 for s in inst.servers}
        for c in inst.clients:
            tau[inst.client_adj[c][0]] += 1
        kappa = {c: 1 for c in inst.clients}
        if not client_perfect_matching_exists(inst, kappa, tau):
            continue
        feasible += 1
        doubled = CapacityProfile(kappa, {s: 2 * t for s, t in tau.items()})
        x = eliminate_short_paths(inst, doubled, short_path_bound(inst.n))
        if is_client_perfect(inst, x):
            perfect += 1
    ok = true_count == 1000 and feasible > 0 and perfect == feasible
    report(capsys, 3, ok,
           f"expansion verifier true on {true_count}/1000 trials; doubled-capacity "
           f"matchings client-perfect on {perfect}/{feasible} feasible trials")


def test_criterion_4_blocking_flow_contract(capsys):
    """Residual distance after the phase budget, 200 random weighted instances."""
    good = 0
    for seed in range(200):
        rng = random.Random(40_000 + seed)
        inst = _weighted(40_000 + seed, rng.randint(6, 14), rng.randint(3, 6),
                         rng.uniform(0.3, 0.7), rng.choice([2, 4, 8]))
        phases = 9 * max(1, math.ceil(math.log2(inst.n)))
        B = rng.choice(b_schedule(inst.n * inst.max_weight))
        profile = CapacityProfile(dict(inst.weight), {s: 2 * B for s in inst.servers})
        x = blocking_flow_matching(inst, profile, phases)
        if residual_source_sink_distance(inst, x) > phases:
            good += 1
    ok = good == 200
    report(capsys, 4, ok, f"residual distance exceeded the phase budget on {good}/200 runs")


def test_criterion_5_rounding_contract(capsys):
    """Degree preservation of cycle cancelling and the per-server rounding bound."""
    degree_ok = 0
    bound_ok = 0
    trials = 100
    for seed in range(trials):
        rng = random.Random(50_000 + seed)
        inst = _weighted(50_000 + seed, rng.randint(6, 12), rng.randint(3, 6),
                         rng.uniform(0.3, 0.7), rng.choice([2, 4, 8]))
        split = split_assignment_seq(inst)
        forest = cancel_cycles(inst, split.mult)
        if support_degrees(forest) == support_degrees(split.mult):
            degree_ok += 1
        a = round_split(inst, split)
        forest_loads = {s: 0 for s in inst.servers}
        for (c, s), x in forest.items():
            forest_loads[s] += x
        loads = a.load_vector().loads
        if all(
            loads[s] <= forest_loads[s]
            + max([inst.weight[c] for c, s2 in a.mapping.items() if s2 == s], default=0)
            for s in inst.servers
        ):
            bound_ok += 1
    ok = degree_ok == trials and bound_ok == trials
    report(capsys, 5, ok,
           f"degrees preserved on {degree_ok}/{trials}, "
           f"per-server bound held on {bound_ok}/{trials} trials")


def test_criterion_6_local_constant_36(capsys):
    """Weighted LOCAL-style solver, exact bound 36 for linf and l2."""
    worst_inf = worst_l2 = 0.0
    trials = 0
    for seed in range(100):
        inst = _enum_weighted(60_000 + seed)
        lv = solve_weighted_local(inst).load_vector()
        optima, _ = opt_allnorm_enum(inst, (math.inf,))
        opt2 = opt_power_sums(inst, (2,))[2]
        assert lv.max() <= 36 * optima[math.inf]
        assert lv.power_sum(2) <= 36**2 * opt2
        worst_inf = max(worst_inf, lv.max() / optima[math.inf])
        worst_l2 = max(worst_l2, (lv.power_sum(2) / opt2) ** 0.5)
        trials += 1
    ok = trials >= 100
    report(capsys, 6, ok,
           f"{trials} weighted instances, worst linf ratio {worst_inf:.2f}, "
           f"worst l2 ratio {worst_l2:.2f}, both <= 36")


def test_criterion_7_sequential_quality_and_scaling(capsys):
    """Sequential solver: exact bound 25 plus near-linear time scaling."""
    worst_inf = worst_l2 = 0.0
    for seed in range(100):
        inst = _enum_weighted(70_000 + seed)
        lv = solve_sequential(inst).load_vector()
        optima, _ = opt_allnorm_enum(inst, (math.inf,))
        opt2 = opt_power_sums(inst, (2,))[2]
        assert lv.max() <= 25 * optima[math.inf]
        assert lv.power_sum(2) <= 25**2 * opt2
        worst_inf = max(worst_inf, lv.max() / optima[math.inf])
        worst_l2 = max(worst_l2, (lv.power_sum(2) / opt2) ** 0.5)
    sizes = []
    times = []
    for exp in range(10, 17):
        n = 1 << exp
        inst = normalize_weights(generate_instance(
            "weighted-random", seed=7, n_clients=n // 2, n_servers=n // 2,
            p=min(1.0, 8 / n), max_weight=4,
        ))
        best = math.inf
        for _ in range(2 if exp <= 12 else 1):
            t0 = time.perf_counter()
            solve_sequential(inst)
            best = min(best, time.perf_counter() - t0)
        sizes.append(inst.m)
        times.append(best)
    slope = statistics.linear_regression([math.log(m) for m in sizes],
                                         [math.log(t) for t in times]).slope
    ok = 0.9 <= slope <= 1.5
    report(capsys, 7, ok,
           f"worst ratios linf {worst_inf:.2f} / l2 {worst_l2:.2f} <= 25; "
           f"doubling benchmark n=2^10..2^16 fitted time exponent {slope:.2f} in [0.9, 1.5]")


def test_criterion_8_weighted_congest_log_factor(capsys):
    """Per-weight-class reduction, bound 24 * ceil(log2 n)."""
    worst = 0.0
    trials = 0
    for seed in range(100):
        inst = _enum_weighted(80_000 + seed)
        K = 24 * max(1, math.ceil(math.log2(inst.n)))
        lv = solve_weighted_congest(inst).load_vector()
        optima, _ = opt_allnorm_enum(inst, (math.inf,))
        opt_pow = opt_power_sums(inst, (2, 3))
        assert lv.max() <= K * optima[math.inf]
        for p in (2, 3):
            assert lv.power_sum(p) <= K**p * opt_pow[p]
        worst = max(worst, lv.max() / optima[math.inf])
        trials += 1
    ok = trials >= 100
    report(capsys, 8, ok,
           f"{trials} weighted instances, worst linf ratio {worst:.2f} within 24*ceil(log2 n)")


def test_criterion_9_backup_8_approx(capsys):
    """Backup placement vs the exhaustive r-subset optimum, exact bound 8."""
    worst = 0.0
    counts = {2: 0, 3: 0}
    for seed in range(400):
        rng = random.Random(90_000 + seed)
        r = 2 if seed % 2 == 0 else 3
        inst = _unit(90_000 + seed, rng.randint(4, 6), rng.randint(r + 1, 4), 0.9)
        if min(inst.degree(c) for c in inst.clients) < r:
            continue
        out = solve_backup(inst, r)
        opt = opt_backup_enum(inst, r)
        ratio = out.load_vector().max() / opt
        assert ratio <= 8
        worst = max(worst, ratio)
        counts[r] += 1
    ok = counts[2] >= 50 and counts[3] >= 50
    report(capsys, 9, ok,
           f"r=2 on {counts[2]} and r=3 on {counts[3]} instances, "
           f"worst linf ratio {worst:.2f} <= 8")


def test_criterion_10_round_accounting(capsys):
    """Charged rounds equal the closed-form budgets; messages fit; results match."""
    checked = 0
    for seed in range(10):
        rng = random.Random(100_000 + seed)
        unit = _unit(100_000 + seed, rng.randint(6, 14), rng.randint(3, 6), 0.6)
        weighted = _weighted(100_500 + seed, rng.randint(6, 10), rng.randint(3, 5),
                             0.6, rng.choice([2, 4]))
        runs = [
            (unit, "congest-unweighted", solve_unweighted),
            (weighted, "congest-weighted", solve_weighted_congest),
            (weighted, "local-weighted", solve_weighted_local),
        ]
        if min(unit.degree(c) for c in unit.clients) >= 2:
            runs.append((unit, "congest-backup", lambda i: solve_backup(i, 2)))
        for inst, algo, direct in runs:
            result, trace = run_simulation(inst, algo, r=2)
            expected = round_budget(algo, inst.n, n_expanded=trace.n_expanded)
            assert trace.charged_rounds == expected, algo
            assert verify_message_budget(trace), algo
            assert result.mapping == direct(inst).mapping, algo
            _, trace2 = run_simulation(inst, algo, r=2)
            assert trace.to_json() == trace2.to_json(), algo
            checked += 1
    ok = checked >= 30
    report(capsys, 10, ok,
           f"{checked} simulated runs: charged rounds equal the budget formula, "
           "message budgets hold, results bit-identical to direct solves")


def test_criterion_11_levels_suite(capsys):
    """Level structure of the canonical optimum and budgeted matchings."""
    nodown_ok = 0
    satopt_ok = 0
    trials = 200
    for seed in range(trials):
        inst = _enum_unit(110_000 + seed)
        lm = levels(inst)  # raises if the adjacency property fails
        nodown_ok += 1
        violated = False
        for B, x in unit_schedule(inst, 1):
            for c in inst.clients:
                if lm.client_level[c] <= B - 1 and x.client_deg[c] < 1:
                    violated = True
        if not violated:
            satopt_ok += 1
    ok = nodown_ok == trials and satopt_ok == trials
    report(capsys, 11, ok,
           f"adjacency level property on {nodown_ok}/{trials}, "
           f"saturation-by-level property on {satopt_ok}/{trials} instances")
