import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semimatch import (
    round_budget,
    run_simulation,
    solve_unweighted,
    solve_weighted_congest,
    verify_message_budget,
)
from semimatch.simulate import (
    ALGORITHMS,
    SimTrace,
)
from conftest import random_unit, random_weighted


def _one_message_trace(algorithm: str, n: int, bits: int) -> SimTrace:
    trace = SimTrace(algorithm, n, n)
    trace.messages.append({"round": 0, "edge": [0, n - 1], "bits": bits})
    return trace


class TestModelSpec:
    """The model each table entry specifies fixes the bandwidth of its traces:
    32 * ceil(log2 n) bits per message in CONGEST, unbounded in LOCAL."""

    def test_congest_bandwidth(self):
        congest = [a for a in ALGORITHMS if a.startswith("congest-")]
        assert len(congest) == 3
        for algorithm in congest:
            # n = 16: ceil(log2 16) = 4, so 128 bits fit and 129 do not
            assert verify_message_budget(_one_message_trace(algorithm, 16, 128)), algorithm
            assert not verify_message_budget(_one_message_trace(algorithm, 16, 129)), algorithm

    def test_local_unbounded(self):
        assert verify_message_budget(_one_message_trace("local-weighted", 16, 10**6))


class TestRoundBudget:
    def test_congest_formula(self):
        # n = 16: logn = 4, k = 17, per matching 17^3 * 4, schedule has 5 budgets
        assert round_budget("congest-unweighted", 16) == 5 * 17**3 * 4

    def test_local_formula(self):
        # base n = 16, expanded 32: k(32)^2 * 5 + k(16)^2 * 4
        assert round_budget("local-weighted", 16, n_expanded=32) == 21**2 * 5 + 17**2 * 4

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            round_budget("nope", 8)


class TestRunSimulation:
    @pytest.mark.parametrize("seed", range(10))
    def test_congest_unweighted_charge_matches_budget(self, seed):
        inst = random_unit(seed, nc=10, ns=6, p=0.5)
        result, trace = run_simulation(inst, "congest-unweighted")
        assert trace.charged_rounds == round_budget("congest-unweighted", inst.n)
        assert verify_message_budget(trace)

    @pytest.mark.parametrize("seed", range(5))
    def test_congest_weighted(self, seed):
        inst = random_weighted(seed, nc=8, ns=4, max_weight=8)
        result, trace = run_simulation(inst, "congest-weighted")
        assert trace.charged_rounds == round_budget("congest-weighted", inst.n)
        # parallel classes: still only one schedule's worth of matching phases
        matching_phases = [p for p in trace.phases if p["rounds"] > 0]
        assert len(matching_phases) == max(1, math.ceil(math.log2(inst.n))) + 1

    @pytest.mark.parametrize("seed", range(5))
    def test_local_weighted(self, seed):
        inst = random_weighted(seed, nc=8, ns=4, max_weight=8)
        result, trace = run_simulation(inst, "local-weighted")
        expected = round_budget("local-weighted", inst.n, n_expanded=trace.n_expanded)
        assert trace.charged_rounds == expected

    def test_congest_backup(self):
        inst = random_unit(3, nc=6, ns=5, p=0.9)
        result, trace = run_simulation(inst, "congest-backup", r=2)
        assert trace.charged_rounds == round_budget("congest-backup", inst.n)
        assert len(trace.messages) == 2 * len(inst.clients)

    def test_congest_backup_requires_r(self):
        inst = random_unit(3, nc=6, ns=5, p=0.9)
        with pytest.raises(ValueError, match="replication factor"):
            run_simulation(inst, "congest-backup")

    def test_congest_backup_rejects_a_bool_r(self):
        # True would run as r = 1 and label every phase "r=True"
        inst = random_unit(3, nc=6, ns=5, p=0.9)
        with pytest.raises(ValueError, match="replication factor r must be a plain int"):
            run_simulation(inst, "congest-backup", True)

    def test_result_identical_to_direct_solver(self):
        inst = random_unit(5, nc=10, ns=4, p=0.5)
        direct = solve_unweighted(inst)
        simulated, _ = run_simulation(inst, "congest-unweighted")
        assert simulated.mapping == direct.mapping

    def test_weighted_result_identical(self):
        inst = random_weighted(5)
        direct = solve_weighted_congest(inst)
        simulated, _ = run_simulation(inst, "congest-weighted")
        assert simulated.mapping == direct.mapping

    def test_unknown_algorithm(self, chain):
        with pytest.raises(ValueError):
            run_simulation(chain, "nope")

    def test_announce_messages(self, chain):
        _, trace = run_simulation(chain, "congest-unweighted")
        assert len(trace.messages) == len(chain.clients)
        assert all(m["round"] == trace.charged_rounds for m in trace.messages)
        assert trace.phases[-1] == {"label": "announce", "rounds": 0}


class TestBandwidth:
    def test_verify_message_budget_local_always_true(self, chain):
        _, trace = run_simulation(chain, "local-weighted")
        assert verify_message_budget(trace)

    def test_verify_detects_violation(self):
        trace = SimTrace("congest-unweighted", 8, 8)
        trace.messages.append({"round": 0, "edge": [0, 1], "bits": 10**6})
        assert not verify_message_budget(trace)


class TestTraceSerialization:
    def test_write_and_shape(self, tmp_path, chain):
        _, trace = run_simulation(chain, "congest-unweighted")
        path = tmp_path / "trace.json"
        trace.write(path)
        doc = json.loads(path.read_text())
        assert set(doc) == {
            "algorithm", "n", "nExpanded", "chargedRounds", "phases", "simulatedMessages",
        }
        assert doc["algorithm"] == "congest-unweighted"
        assert doc["chargedRounds"] == sum(p["rounds"] for p in doc["phases"])

    @settings(max_examples=200, deadline=None)
    @given(
        algorithm=st.text(max_size=8),
        sizes=st.tuples(st.integers(0, 2**80), st.integers(0, 2**80)),
        phases=st.lists(st.tuples(
            st.one_of(st.text(max_size=8), st.sampled_from(
                ['say "hi"', "back\\slash", "tab\tand\nnewline", "é ☃ 𝄞", ""])),
            st.integers(-2**80, 2**80)), max_size=4),
        messages=st.lists(st.tuples(*[st.integers(-2**80, 2**80)] * 4), max_size=6),
    )
    @example(algorithm="", sizes=(0, 0), phases=[], messages=[])
    @example(algorithm="local-weighted", sizes=(5, 9), phases=[("announce", 0)], messages=[])
    @example(algorithm="congest-weighted", sizes=(5, 5), phases=[], messages=[(3, 0, 4, 12)])
    def test_write_is_json_dumps_indent_1(self, tmp_path_factory, algorithm, sizes, phases,
                                          messages):
        trace = SimTrace(algorithm, *sizes)
        for label, rounds in phases:
            trace.charge(label, rounds)
        for round_index, c, s, bits in messages:
            trace.emit(round_index, (c, s), bits)
        path = tmp_path_factory.getbasetemp() / "written-trace.json"
        trace.write(path)
        assert path.read_bytes() == (json.dumps(trace.to_json(), indent=1) + "\n").encode()

    def test_algorithm_names_stable(self):
        assert ALGORITHMS == (
            "congest-unweighted", "congest-weighted", "local-weighted", "congest-backup",
        )
