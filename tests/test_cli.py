import csv
import json
import os
import subprocess
import sys

import pytest

import semimatch
from semimatch import (
    build_instance, generate_instance, matching, oracle, solvers, write_instance,
)
from semimatch.cli import main
from semimatch.simulate import by_name
from conftest import count_calls, first_perfect, heavy_instance, random_unit, random_weighted


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def unit_file(tmp_path):
    path = tmp_path / "unit.json"
    write_instance(random_unit(1, nc=8, ns=4, p=0.5), path)
    return str(path)


@pytest.fixture
def weighted_file(tmp_path):
    path = tmp_path / "weighted.json"
    write_instance(random_weighted(1, normalized=False), path)
    return str(path)


@pytest.fixture
def empty_chain_matching(chain, tmp_path):
    """The chain instance and an empty kappa = tau = 1 matching artifact."""
    path, artifact = tmp_path / "inst.json", tmp_path / "empty.json"
    write_instance(chain, path)
    artifact.write_text(json.dumps({"kappa": {"0": 1, "1": 1, "2": 1},
                                    "tau": {"3": 1, "4": 1}, "edge_cap": None, "mult": []}))
    return str(path), str(artifact)


class TestGen:
    def test_gen_writes_instance(self, tmp_path, capsys):
        out = tmp_path / "star.json"
        code, stdout, _ = run_cli(capsys, "gen", "star", "--clients", "6", "-o", str(out))
        assert code == 0
        summary = json.loads(stdout)
        assert set(summary) == {"digest", "n", "m"}
        assert summary["n"] == 7
        assert json.loads(out.read_text())["edges"]

    def test_gen_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "gen", "random-bipartite", "--clients", "20", "--servers", "5",
                "--p", "0.4", "--seed", "9", "-o", str(a))
        run_cli(capsys, "gen", "random-bipartite", "--clients", "20", "--servers", "5",
                "--p", "0.4", "--seed", "9", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_output_is_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "gen", "star", "--clients", "4",
                               "-o", str(tmp_path / "no" / "such" / "dir" / "x.json"))
        assert code == 1
        assert json.loads(err)["error"]

    @pytest.mark.parametrize("argv,missing", [
        (("random-bipartite", "--clients", "5", "--servers", "2"), "p"),
        (("star",), "n_clients"),
    ])
    def test_missing_parameter_is_error(self, tmp_path, capsys, argv, missing):
        out = tmp_path / "x.json"
        code, stdout, err = run_cli(capsys, "gen", *argv, "-o", str(out))
        assert code == 1
        assert stdout == ""
        error = json.loads(err)
        assert error["error"] == "InstanceError"
        assert f"requires parameter '{missing}'" in error["detail"]
        assert not out.exists()

    @pytest.mark.parametrize("argv,detail", [
        (("star", "--clients", "4", "--servers", "3"),
         "star takes no parameter 'n_servers'; expected n_clients"),
        (("disjoint-perfect", "--k", "3", "--p", "0.5"),
         "disjoint-perfect takes no parameter 'p'; expected k"),
    ])
    def test_unknown_parameter_is_error(self, tmp_path, capsys, argv, detail):
        out = tmp_path / "x.json"
        code, stdout, err = run_cli(capsys, "gen", *argv, "-o", str(out))
        assert code == 1
        assert stdout == ""
        assert json.loads(err) == {"error": "InstanceError", "detail": detail}
        assert not out.exists()

    @pytest.mark.parametrize("exponent", ["nan", "0", "-1.5"])
    def test_power_law_exponent_out_of_range(self, tmp_path, capsys, exponent):
        out = tmp_path / "x.json"
        code, stdout, err = run_cli(capsys, "gen", "power-law-degrees", "--clients", "3",
                                    "--servers", "2", "--exponent", exponent, "-o", str(out))
        assert code == 1
        assert stdout == ""
        error = json.loads(err)
        assert error["error"] == "InstanceError"
        assert "exponent > 0" in error["detail"]
        assert not out.exists()


def test_cli_import_leaves_networkx_out():
    """Only the flow oracle uses networkx, and it imports it when called."""
    src = os.path.dirname(os.path.dirname(semimatch.__file__))
    check = "import sys, semimatch.cli; sys.exit('networkx' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", check], env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


class TestSolveExitCodes:
    def test_success(self, unit_file, capsys):
        code, stdout, _ = run_cli(capsys, "solve", unit_file, "--algo", "seq")
        assert code == 0
        report = json.loads(stdout)
        assert report["algorithm"] == "seq"
        assert set(report["norms"]) == {"1", "2", "3", "inf"}
        assert len(report["assignment"]) == 8

    def test_missing_file_is_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "/nonexistent.json", "--algo", "seq")
        assert code == 1
        assert json.loads(err)["error"]

    def test_infeasible_exit_2(self, tmp_path, capsys):
        path = tmp_path / "iso.json"
        path.write_text(
            '{"clients":[{"id":0,"weight":1},{"id":1,"weight":1}],'
            '"servers":[{"id":2}],"edges":[[0,2]]}'
        )
        code, _, err = run_cli(capsys, "solve", str(path), "--algo", "seq")
        assert code == 2
        assert json.loads(err)["error"] == "infeasible"
        assert json.loads(err)["client"] == 1

    def test_unweighted_algo_rejects_weights(self, weighted_file, capsys):
        code, _, err = run_cli(capsys, "solve", weighted_file, "--algo", "congest-unweighted")
        assert code == 1
        assert "unit weights" in json.loads(err)["detail"]

    def test_backup_requires_r(self, unit_file, capsys):
        code, _, err = run_cli(capsys, "solve", unit_file, "--algo", "backup")
        assert code == 1


class TestRejectedInput:
    """Input the CLI used to accept and ignore exits 1 with a JSON error
    that names the field."""

    @pytest.mark.parametrize("doc,detail", [
        ({"clients": [{"id": 0, "weight": 1}], "servers": [{"id": 1}, {"id": 1}],
          "edges": [[0, 1]]}, "server id 1 is repeated"),
        ({"clients": [{"id": 0, "weight": 2}, {"id": 0, "weight": 2}, {"id": 1, "weight": 1}],
          "servers": [{"id": 2}], "edges": [[0, 2], [1, 2]]}, "client id 0 is repeated"),
    ])
    @pytest.mark.parametrize("argv", [("--algo", "congest-unweighted", "--simulate"),
                                      ("--algo", "seq")])
    def test_repeated_id(self, tmp_path, capsys, doc, detail, argv):
        path = tmp_path / "repeat.json"
        path.write_text(json.dumps(doc))
        code, stdout, err = run_cli(capsys, "solve", str(path), *argv)
        assert code == 1
        assert stdout == ""
        assert json.loads(err) == {"error": "InstanceError", "detail": f"{path}: {detail}"}

    @pytest.mark.parametrize("argv", [
        ("solve", "{deep}", "--algo", "seq"),
        ("verify", "{unit}", "{deep}", "--check", "budget"),
        ("bench", "--suite", "{deep}", "-o", "{out}"),
    ])
    def test_deeply_nested_json(self, unit_file, tmp_path, capsys, argv):
        deep, out = tmp_path / "deep.json", tmp_path / "bench.csv"
        deep.write_text("[" * 200_000)
        code, stdout, err = run_cli(capsys, *[a.format(deep=deep, unit=unit_file, out=out)
                                              for a in argv])
        assert code == 1
        assert stdout == ""
        assert json.loads(err) == {"error": "InstanceError",
                                   "detail": f"{deep}: JSON nested too deeply to decode"}
        assert not out.exists()

    @pytest.mark.parametrize("doc,detail", [
        ({"clients": [{"id": 0, "weight": 1, "wieght": 5}], "servers": [{"id": 1}],
          "edges": [[0, 1]]}, "clients[0]: unknown field 'wieght'"),
        ({"clients": [{"id": 0, "weight": 1}], "servers": [{"id": 1, "weight": 3}],
          "edges": [[0, 1]]}, "servers[0]: unknown field 'weight'"),
    ])
    def test_unknown_entry_field(self, tmp_path, capsys, doc, detail):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(doc))
        code, stdout, err = run_cli(capsys, "solve", str(path), "--algo", "seq")
        assert code == 1
        assert stdout == ""
        assert json.loads(err) == {"error": "InstanceError", "detail": f"{path}: {detail}"}

    def test_trace_out_without_simulate(self, unit_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code, stdout, err = run_cli(capsys, "solve", unit_file, "--algo", "congest-unweighted",
                                    "--trace-out", str(trace_path))
        assert code == 1
        assert stdout == ""
        assert "--trace-out" in json.loads(err)["detail"]
        assert not trace_path.exists()

    @pytest.mark.parametrize("algo", ["seq", "congest-unweighted", "congest-weighted",
                                      "local-weighted"])
    def test_r_without_backup(self, unit_file, capsys, algo):
        code, stdout, err = run_cli(capsys, "solve", unit_file, "--algo", algo, "--r", "3")
        assert code == 1
        assert stdout == ""
        error = json.loads(err)
        assert error["error"] == "ValueError"
        assert error["detail"].startswith("--r ")


class TestBadArguments:
    @pytest.mark.parametrize("argv", [
        ("solve", "{f}", "--algo", "nope"),
        ("solve", "{f}"),
        ("solve", "{f}", "--algo", "seq", "--seed", "3"),
        ("frobnicate",),
        (),
        # --p takes only a finite p >= 1
        ("solve", "{f}", "--algo", "congest-unweighted", "--p", "0"),
        ("solve", "{f}", "--algo", "congest-unweighted", "--p=-1"),
        ("solve", "{f}", "--algo", "congest-unweighted", "--p", "nan"),
        ("solve", "{f}", "--algo", "congest-unweighted", "--p", "inf"),
    ])
    def test_usage_error_exits_1(self, unit_file, capsys, argv):
        code, _, err = run_cli(capsys, *[a.format(f=unit_file) for a in argv])
        assert code == 1
        assert "usage:" in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert "--algo" in capsys.readouterr().out


class TestDumpMatchings:
    @pytest.mark.parametrize("argv", [
        ("--algo", "congest-weighted"),
        ("--algo", "local-weighted"),
        ("--algo", "backup", "--r", "1"),
        ("--algo", "congest-unweighted", "--simulate"),
    ])
    def test_rejected_without_matchings(self, unit_file, tmp_path, capsys, argv):
        dump_dir = tmp_path / "dumps"
        code, stdout, err = run_cli(capsys, "solve", unit_file, *argv,
                                    "--dump-matchings", str(dump_dir))
        assert code == 1
        assert stdout == ""
        assert "--dump-matchings" in json.loads(err)["detail"]
        assert not dump_dir.exists()

    @pytest.mark.parametrize("algo,solver", [
        ("seq", "split_assignment_seq"),
        ("congest-unweighted", "solve_unweighted"),
    ])
    def test_solves_once(self, unit_file, tmp_path, capsys, monkeypatch, algo, solver):
        calls = count_calls(monkeypatch, solvers, solver)
        dump_dir = tmp_path / "dumps"
        code, _, _ = run_cli(capsys, "solve", unit_file, "--algo", algo,
                             "--dump-matchings", str(dump_dir))
        assert code == 0
        assert len(calls) == 1
        assert sorted(dump_dir.glob("B*.json"))


# suite entries of the early-stop instances; the chain has no generator
EARLY_PERFECT = {
    "chain": None,
    "star4": {"generator": "star", "params": {"n_clients": 4}},
    "random": {"generator": "random-bipartite", "seed": 3,
               "params": {"n_clients": 30, "n_servers": 10, "p": 0.2}},
}


class TestEarlyStop:
    """CLI solves, simulations and bench rows call the algorithm's one
    solver once, and it calls the matching primitive once per budget up to
    the first client-perfect one."""

    @pytest.mark.parametrize("algo,solver,primitive", [
        ("seq", "split_assignment_seq", "blocking_flow_matching"),
        ("congest-unweighted", "solve_unweighted", "eliminate_short_paths"),
    ])
    @pytest.mark.parametrize("name", list(EARLY_PERFECT))
    def test_stops_at_first_client_perfect_budget(self, chain, tmp_path, capsys, monkeypatch,
                                                  name, algo, solver, primitive):
        spec = EARLY_PERFECT[name]
        inst = chain if spec is None else generate_instance(
            spec["generator"], seed=spec.get("seed", 0), **spec["params"])
        matchings = dict(by_name(algo).schedule(inst))
        stop = first_perfect(inst, matchings)
        assert stop < len(matchings) - 1
        path = tmp_path / "inst.json"
        write_instance(inst, path)
        calls = count_calls(monkeypatch, matching, primitive)
        solves = count_calls(monkeypatch, solvers, solver)
        runs = [("solve", str(path), "--algo", algo)]
        if algo == "congest-unweighted":
            runs.append(("solve", str(path), "--algo", algo, "--simulate"))
        if spec is not None:
            suite_path = tmp_path / "suite.json"
            suite_path.write_text(json.dumps([{**spec, "algo": algo}]))
            runs.append(("bench", "--suite", str(suite_path), "-o", str(tmp_path / "b.csv")))
        for argv in runs:
            calls.clear()
            solves.clear()
            code, _, _ = run_cli(capsys, *argv)
            assert code == 0
            assert len(calls) == stop + 1, argv
            assert len(solves) == 1, argv


class TestSolveReports:
    def test_auto_normalization_flagged(self, weighted_file, capsys):
        code, stdout, _ = run_cli(capsys, "solve", weighted_file, "--algo", "seq")
        assert code == 0
        assert json.loads(stdout)["normalized"] is True

    def test_oracle_ratios(self, unit_file, capsys):
        code, stdout, _ = run_cli(capsys, "solve", unit_file, "--algo", "congest-unweighted",
                                  "--oracle")
        assert code == 0
        oracle = json.loads(stdout)["oracle"]
        assert oracle["ratios"]["inf"] >= 1.0
        assert oracle["ratios"]["inf"] <= 8.0

    def test_oracle_skipped_past_the_enumeration_cutoff(self, tmp_path, capsys):
        # K_10,5: 5^10 assignments, past the cutoff of 10^6
        path = tmp_path / "full.json"
        write_instance(generate_instance("random-bipartite", n_clients=10, n_servers=5, p=1),
                       path)
        code, stdout, _ = run_cli(capsys, "solve", str(path), "--algo", "seq", "--oracle")
        assert code == 0
        report = json.loads(stdout)["oracle"]
        assert report["skipped"] == "instance too large for oracle enumeration"
        assert "ratios" not in report

    def test_extra_norm(self, unit_file, capsys):
        _, stdout, _ = run_cli(capsys, "solve", unit_file, "--algo", "seq", "--p", "4")
        assert "4.0" in json.loads(stdout)["norms"]

    def test_extra_norm_past_float_range(self, unit_file, capsys):
        # load**2000 overflows a float; the norm is scaled by the max load
        code, stdout, _ = run_cli(capsys, "solve", unit_file, "--algo", "seq", "--p", "2000")
        assert code == 0
        norms = json.loads(stdout)["norms"]
        assert norms["inf"] >= 2
        assert norms["inf"] <= norms["2000.0"] <= norms["inf"] * 1.01

    def test_deterministic_report(self, unit_file, capsys):
        _, out1, _ = run_cli(capsys, "solve", unit_file, "--algo", "seq")
        _, out2, _ = run_cli(capsys, "solve", unit_file, "--algo", "seq")
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("wall_time_s"), r2.pop("wall_time_s")
        assert r1 == r2

    def test_simulate_trace(self, unit_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code, stdout, _ = run_cli(capsys, "solve", unit_file, "--algo", "congest-unweighted",
                                  "--simulate", "--trace-out", str(trace_path))
        assert code == 0
        report = json.loads(stdout)
        doc = json.loads(trace_path.read_text())
        assert report["charged_rounds"] == doc["chargedRounds"]

    def test_simulate_seq_rejected(self, unit_file, capsys):
        code, _, err = run_cli(capsys, "solve", unit_file, "--algo", "seq", "--simulate")
        assert code == 1

    def test_backup_report(self, tmp_path, capsys):
        path = tmp_path / "sq.json"
        path.write_text(
            '{"clients":[{"id":0,"weight":1},{"id":1,"weight":1}],'
            '"servers":[{"id":2},{"id":3}],'
            '"edges":[[0,2],[0,3],[1,2],[1,3]]}'
        )
        code, stdout, _ = run_cli(capsys, "solve", str(path), "--algo", "backup", "--r", "2",
                                  "--oracle")
        assert code == 0
        report = json.loads(stdout)
        assert report["assignment"] == {"0": [2, 3], "1": [2, 3]}
        assert report["oracle"]["ratio_linf"] <= 8.0

    @pytest.mark.parametrize("simulate", [(), ("--simulate",)])
    def test_backup_report_with_one_copy(self, unit_file, capsys, simulate):
        # r = 1 still reports a one-element list per client, and r
        code, stdout, _ = run_cli(capsys, "solve", unit_file, "--algo", "backup", "--r", "1",
                                  *simulate)
        assert code == 0
        report = json.loads(stdout)
        assert report["r"] == 1
        assert report["assignment"] and all(
            type(servers) is list and len(servers) == 1
            for servers in report["assignment"].values())


class TestVerify:
    def test_validity_pass_and_fail(self, unit_file, tmp_path, capsys):
        code, stdout, _ = run_cli(capsys, "solve", unit_file, "--algo", "seq")
        report = json.loads(stdout)
        artifact = tmp_path / "a.json"
        artifact.write_text(json.dumps({"assignment": report["assignment"]}))
        code, stdout, _ = run_cli(capsys, "verify", unit_file, str(artifact),
                                  "--check", "validity")
        assert code == 0
        assert json.loads(stdout)["pass"] is True
        # corrupt: assign a client to a non-adjacent server id that exists
        bad = dict(report["assignment"])
        inst_doc = json.loads(open(unit_file).read())
        servers = [s["id"] for s in inst_doc["servers"]]
        c0 = next(iter(bad))
        adj = [e[1] for e in inst_doc["edges"] if str(e[0]) == c0]
        non_adj = [s for s in servers if s not in adj]
        if non_adj:
            bad[c0] = non_adj[0]
            artifact.write_text(json.dumps({"assignment": bad}))
            code, stdout, _ = run_cli(capsys, "verify", unit_file, str(artifact),
                                      "--check", "validity")
            assert code == 1

    def test_no_short_aug_paths_check(self, unit_file, tmp_path, capsys):
        dump_dir = tmp_path / "dumps"
        run_cli(capsys, "solve", unit_file, "--algo", "congest-unweighted",
                "--dump-matchings", str(dump_dir))
        artifact = dump_dir / "B1.json"
        assert artifact.exists()
        code, stdout, _ = run_cli(capsys, "verify", unit_file, str(artifact),
                                  "--check", "no-short-aug-paths:17")
        assert code == 0
        assert json.loads(stdout)["checks"][0]["pass"] is True

    def test_no_short_aug_paths_witness_on_an_empty_matching(self, empty_chain_matching, capsys):
        path, artifact = empty_chain_matching
        code, stdout, _ = run_cli(capsys, "verify", str(path), str(artifact),
                                  "--check", "no-short-aug-paths:1")
        assert code == 1
        entry = json.loads(stdout)["checks"][0]
        assert entry["pass"] is False
        assert entry["witness"] == [0, 3]

    @pytest.mark.parametrize("k", ["-1", "0", "2", "abc"])
    def test_no_short_aug_paths_rejects_bad_k(self, empty_chain_matching, capsys, k):
        path, artifact = empty_chain_matching
        code, stdout, err = run_cli(capsys, "verify", str(path), str(artifact),
                                    "--check", f"no-short-aug-paths:{k}")
        assert code == 1
        assert stdout == ""
        detail = json.loads(err)["detail"]
        assert f"K must be an odd integer >= 1, got {k!r}" in detail

    def test_expansion_check(self, unit_file, tmp_path, capsys):
        dump_dir = tmp_path / "dumps"
        run_cli(capsys, "solve", unit_file, "--algo", "congest-unweighted",
                "--dump-matchings", str(dump_dir))
        # the largest budget's matching is client-perfect, so the check is
        # immediate regardless of alpha
        budgets = sorted(int(p.stem[1:]) for p in dump_dir.glob("B*.json"))
        artifact = dump_dir / f"B{budgets[-1]}.json"
        code, stdout, _ = run_cli(capsys, "verify", unit_file, str(artifact),
                                  "--check", "expansion:2")
        assert code == 0

    def test_expansion_without_base_matching_is_reported(self, unit_file, tmp_path, capsys):
        dump_dir = tmp_path / "dumps"
        run_cli(capsys, "solve", unit_file, "--algo", "congest-unweighted",
                "--dump-matchings", str(dump_dir))
        # tau = 2 at B = 1, so tau / 100 rounds up to 1 per server: 4 servers
        # cannot take 8 clients
        code, stdout, _ = run_cli(capsys, "verify", unit_file, str(dump_dir / "B1.json"),
                                  "--check", "expansion:100", "--check", "no-short-aug-paths:17")
        assert code == 1
        expansion, short_paths = json.loads(stdout)["checks"]
        assert expansion["pass"] is False
        assert "no client-perfect base matching" in expansion["reason"]
        assert short_paths["pass"] is True

    @pytest.mark.parametrize("alpha", ["inf", "nan", "1", "0.5", "-2", "abc"])
    def test_expansion_rejects_bad_alpha(self, unit_file, tmp_path, capsys, alpha):
        dump_dir = tmp_path / "dumps"
        run_cli(capsys, "solve", unit_file, "--algo", "congest-unweighted",
                "--dump-matchings", str(dump_dir))
        code, stdout, err = run_cli(capsys, "verify", unit_file, str(dump_dir / "B1.json"),
                                    "--check", f"expansion:{alpha}")
        assert code == 1
        assert stdout == ""
        assert "ALPHA must be a finite number > 1" in json.loads(err)["detail"]

    def test_expansion_counterexample_names_its_client(self, empty_chain_matching, capsys,
                                                       monkeypatch):
        # the lemma makes a real counterexample unreachable, so the oracle
        # reports one here
        def counterexample(inst, kappa, tau, alpha, matching):
            return oracle.ExpansionCounterexample(inst, matching, 2, 3)

        monkeypatch.setattr(oracle, "verify_expansion_lemma", counterexample)
        path, artifact = empty_chain_matching
        code, stdout, _ = run_cli(capsys, "verify", path, artifact, "--check", "expansion:2")
        assert code == 1
        assert json.loads(stdout)["checks"] == [
            {"check": "expansion:2", "pass": False, "witness_client": 2}]

    def test_budget_check(self, unit_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        run_cli(capsys, "solve", unit_file, "--algo", "congest-unweighted",
                "--simulate", "--trace-out", str(trace_path))
        code, stdout, _ = run_cli(capsys, "verify", unit_file, str(trace_path),
                                  "--check", "budget")
        assert code == 0
        entry = json.loads(stdout)["checks"][0]
        assert entry["pass"] is True
        assert "reason" not in entry

    def test_budget_check_of_local_weighted_past_a_million_units(self, tmp_path, capsys):
        # total weight 1,024,000: local-weighted builds no expanded graph
        inst_path, trace_path = tmp_path / "heavy.json", tmp_path / "trace.json"
        write_instance(heavy_instance(), inst_path)
        code, _, err = run_cli(capsys, "solve", str(inst_path), "--algo", "local-weighted",
                               "--simulate", "--trace-out", str(trace_path))
        assert code == 0, err
        code, stdout, _ = run_cli(capsys, "verify", str(inst_path), str(trace_path),
                                  "--check", "budget")
        assert code == 0
        assert json.loads(stdout)["pass"] is True

    def test_budget_check_rejects_trace_of_another_instance(self, tmp_path, capsys):
        big, small = tmp_path / "big.json", tmp_path / "small.json"
        write_instance(random_unit(1, nc=200, ns=50, p=0.05), big)
        write_instance(random_unit(1, nc=20, ns=5, p=0.5), small)
        trace_path = tmp_path / "trace.json"
        run_cli(capsys, "solve", str(big), "--algo", "congest-unweighted",
                "--simulate", "--trace-out", str(trace_path))
        code, stdout, _ = run_cli(capsys, "verify", str(small), str(trace_path),
                                  "--check", "budget")
        assert code == 1
        entry = json.loads(stdout)["checks"][0]
        assert entry["pass"] is False
        assert "another instance" in entry["reason"]
        code, _, _ = run_cli(capsys, "verify", str(big), str(trace_path), "--check", "budget")
        assert code == 0

    @pytest.mark.parametrize("edit,field", [
        (lambda d: d.update(n=11.0), "trace.n"),
        (lambda d: d.update(n=True), "trace.n"),
        (lambda d: d.pop("nExpanded"), "trace.nExpanded"),
        (lambda d: d.update(chargedRounds="5"), "trace.chargedRounds"),
        (lambda d: d.update(algorithm=["congest-unweighted"]), "trace.algorithm"),
        (lambda d: d.update(phases=5), "trace.phases"),
        (lambda d: d["phases"].append(3), "trace phases[6]"),
        (lambda d: d["phases"][0].update(rounds=1.5), "trace phases[0].rounds"),
        (lambda d: d["phases"][1].pop("label"), "trace phases[1].label"),
        (lambda d: d.update(simulatedMessages={}), "trace.simulatedMessages"),
        (lambda d: d["simulatedMessages"][0].update(edge=[1]), "trace simulatedMessages[0].edge"),
        (lambda d: d["simulatedMessages"][0].update(edge=[0, "4"]),
         "trace simulatedMessages[0].edge"),
        (lambda d: d["simulatedMessages"][2].update(bits=True),
         "trace simulatedMessages[2].bits"),
        (lambda d: d["simulatedMessages"][2].pop("round"), "trace simulatedMessages[2].round"),
        (lambda d: d.update(extra=1), "trace: unknown field 'extra'"),
        (lambda d: d["phases"][0].update(roudns=5), "trace phases[0]: unknown field 'roudns'"),
        (lambda d: d["simulatedMessages"][2].update(bitz=1),
         "trace simulatedMessages[2]: unknown field 'bitz'"),
    ])
    def test_budget_check_rejects_bad_trace_fields(self, unit_file, tmp_path, capsys, edit,
                                                   field):
        trace_path = tmp_path / "trace.json"
        run_cli(capsys, "solve", unit_file, "--algo", "congest-unweighted",
                "--simulate", "--trace-out", str(trace_path))
        doc = json.loads(trace_path.read_text())
        edit(doc)
        trace_path.write_text(json.dumps(doc))
        code, stdout, err = run_cli(capsys, "verify", unit_file, str(trace_path),
                                    "--check", "budget")
        assert code == 1
        assert stdout == ""
        error = json.loads(err)
        assert error["error"] == "InstanceError"
        assert error["detail"].startswith(field)

    def test_budget_check_rejects_non_object_trace(self, unit_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        trace_path.write_text("[1]")
        code, _, err = run_cli(capsys, "verify", unit_file, str(trace_path),
                               "--check", "budget")
        assert code == 1
        assert json.loads(err) == {"error": "InstanceError",
                                   "detail": "trace must be an object, got list"}

    def test_budget_check_fails_when_phases_miss_the_charge(self, unit_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        run_cli(capsys, "solve", unit_file, "--algo", "congest-unweighted",
                "--simulate", "--trace-out", str(trace_path))
        doc = json.loads(trace_path.read_text())
        doc["phases"][0]["rounds"] += 1
        trace_path.write_text(json.dumps(doc))
        code, stdout, _ = run_cli(capsys, "verify", unit_file, str(trace_path),
                                  "--check", "budget")
        assert code == 1
        entry = json.loads(stdout)["checks"][0]
        assert entry["pass"] is False
        assert entry["reason"] == (f"phase rounds sum to {doc['chargedRounds'] + 1}, "
                                   f"trace charges {doc['chargedRounds']}")

    @pytest.mark.parametrize("algo,passes", [("congest-weighted", False),
                                             ("local-weighted", True)])
    def test_budget_check_bandwidth_follows_model(self, weighted_file, tmp_path, capsys,
                                                  algo, passes):
        """One message of 32 * ceil(log2 n) + 1 bits breaks CONGEST's
        bandwidth; LOCAL has none."""
        trace_path = tmp_path / "trace.json"
        run_cli(capsys, "solve", weighted_file, "--algo", algo,
                "--simulate", "--trace-out", str(trace_path))
        doc = json.loads(trace_path.read_text())
        doc["simulatedMessages"][1]["bits"] = 32 * (doc["n"] - 1).bit_length() + 1
        trace_path.write_text(json.dumps(doc))
        code, stdout, _ = run_cli(capsys, "verify", weighted_file, str(trace_path),
                                  "--check", "budget")
        assert code == (0 if passes else 1)
        report = json.loads(stdout)
        assert report["pass"] is passes
        assert report["checks"][0]["pass"] is passes

    @pytest.mark.parametrize("algo,r,traced,verified,edit,stdout", [
        ("congest-unweighted", None, lambda: random_unit(1), None, None,
         '{\n "checks": [\n  {\n   "check": "budget",\n   "pass": true,\n'
         '   "expected_rounds": 98260\n  }\n ],\n "pass": true\n}\n'),
        ("congest-weighted", None,
         lambda: random_weighted(2, nc=20, ns=10, p=0.3, normalized=False), None, None,
         '{\n "checks": [\n  {\n   "check": "budget",\n   "pass": true,\n'
         '   "expected_rounds": 277830\n  }\n ],\n "pass": true\n}\n'),
        ("local-weighted", None, lambda: random_weighted(1, normalized=False), None, None,
         '{\n "checks": [\n  {\n   "check": "budget",\n   "pass": true,\n'
         '   "expected_rounds": 4906\n  }\n ],\n "pass": true\n}\n'),
        ("backup", 2, lambda: random_unit(3, nc=30, ns=10, p=0.8), None, None,
         '{\n "checks": [\n  {\n   "check": "budget",\n   "pass": true,\n'
         '   "expected_rounds": 656250\n  }\n ],\n "pass": true\n}\n'),
        ("congest-unweighted", None, lambda: random_unit(1, nc=200, ns=50, p=0.05),
         lambda: random_unit(1, nc=20, ns=5, p=0.5), None,
         '{\n "checks": [\n  {\n   "check": "budget",\n   "pass": false,\n'
         '   "expected_rounds": 2587464,\n   "reason": "trace of another instance: '
         "{'n': 250, 'nExpanded': 250}, instance {'n': 25, 'nExpanded': 25}\"\n"
         '  }\n ],\n "pass": false\n}\n'),
        ("congest-unweighted", None, lambda: random_unit(1), None,
         lambda doc: doc["phases"][0].update(rounds=doc["phases"][0]["rounds"] + 1),
         '{\n "checks": [\n  {\n   "check": "budget",\n   "pass": false,\n'
         '   "expected_rounds": 98260,\n'
         '   "reason": "phase rounds sum to 98261, trace charges 98260"\n'
         '  }\n ],\n "pass": false\n}\n'),
    ], ids=["congest-unweighted", "congest-weighted", "local-weighted", "congest-backup-r2",
            "another-instance", "phases-miss-charge"])
    def test_budget_verdict_printed(self, tmp_path, capsys, algo, r, traced, verified, edit,
                                    stdout):
        """The report of ``verify --check budget`` on a simulated solve's
        trace, byte for byte: the verdict's fields, their order, texts and
        exit codes for each simulated algorithm, a trace of another instance
        and a trace whose phases miss its charge."""
        inst_path, trace_path = tmp_path / "inst.json", tmp_path / "trace.json"
        write_instance(traced(), inst_path)
        code, _, err = run_cli(capsys, "solve", str(inst_path), "--algo", algo, "--simulate",
                               "--trace-out", str(trace_path), *(["--r", str(r)] if r else []))
        assert code == 0, err
        if edit is not None:
            doc = json.loads(trace_path.read_text())
            edit(doc)
            trace_path.write_text(json.dumps(doc))
        if verified is not None:
            write_instance(verified(), inst_path)
        code, out, _ = run_cli(capsys, "verify", str(inst_path), str(trace_path),
                               "--check", "budget")
        assert out == stdout
        assert code == (0 if stdout.endswith('"pass": true\n}\n') else 1)

    @pytest.mark.parametrize("edge_cap", [{"0,4": 1}, True, 0, 1.5])
    def test_matching_artifact_rejects_bad_edge_cap(self, unit_file, tmp_path, capsys,
                                                    edge_cap):
        dump_dir = tmp_path / "dumps"
        run_cli(capsys, "solve", unit_file, "--algo", "congest-unweighted",
                "--dump-matchings", str(dump_dir))
        artifact = dump_dir / "B1.json"
        doc = json.loads(artifact.read_text())
        assert doc["edge_cap"] is None
        for cap, expected in ((1, 0), (edge_cap, 1)):
            artifact.write_text(json.dumps({**doc, "edge_cap": cap}))
            code, _, err = run_cli(capsys, "verify", unit_file, str(artifact),
                                   "--check", "no-short-aug-paths:17")
            assert code == expected
        error = json.loads(err)
        assert error["error"] == "InstanceError"
        assert "edge_cap" in error["detail"]

    @pytest.mark.parametrize("bad", [[0, 4, 1], [0, 3, -1], [0, 3, 1.0], [0, 3], {"c": 0},
                                     [True, 3, 1]])
    def test_matching_artifact_rejects_bad_mult(self, tmp_path, capsys, bad):
        # client 0 is adjacent to server 3 only
        path = tmp_path / "inst.json"
        write_instance(build_instance([0, 1, 2], [3, 4], [(0, 3), (1, 3), (1, 4), (2, 4)]),
                       path)
        dump_dir = tmp_path / "dumps"
        run_cli(capsys, "solve", str(path), "--algo", "congest-unweighted",
                "--dump-matchings", str(dump_dir))
        artifact = dump_dir / "B1.json"
        doc = json.loads(artifact.read_text())
        assert doc["mult"][0] == [0, 3, 1]
        code, _, _ = run_cli(capsys, "verify", str(path), str(artifact),
                             "--check", "no-short-aug-paths:5")
        assert code == 0
        doc["mult"][0] = bad
        artifact.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify", str(path), str(artifact),
                               "--check", "no-short-aug-paths:5")
        assert code == 1
        error = json.loads(err)
        assert error["error"] == "InstanceError"
        assert "mult[0] must be" in error["detail"]

    def test_matching_artifact_rejects_repeated_edge(self, unit_file, tmp_path, capsys):
        dump_dir = tmp_path / "dumps"
        run_cli(capsys, "solve", unit_file, "--algo", "congest-unweighted",
                "--dump-matchings", str(dump_dir))
        artifact = dump_dir / "B1.json"
        doc = json.loads(artifact.read_text())
        doc["mult"].append(doc["mult"][0])
        artifact.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify", unit_file, str(artifact),
                               "--check", "no-short-aug-paths:17")
        assert code == 1
        assert f"mult[{len(doc['mult']) - 1}] repeats edge" in json.loads(err)["detail"]

    @pytest.mark.parametrize("name, key, value, detail", [
        ("kappa", "0", True, 'kappa["0"] must be an int'),
        ("kappa", "0", 1.5, 'kappa["0"] must be an int'),
        ("kappa", "99", 1, 'kappa["99"]: not a client id'),
        ("tau", "4", None, 'tau["4"] is missing'),
    ], ids=["kappa-bool", "kappa-float", "kappa-extra-key", "tau-missing-key"])
    def test_matching_artifact_rejects_bad_capacities(self, chain, tmp_path, capsys,
                                                      name, key, value, detail):
        path = tmp_path / "inst.json"
        write_instance(chain, path)
        dump_dir = tmp_path / "dumps"
        run_cli(capsys, "solve", str(path), "--algo", "congest-unweighted",
                "--dump-matchings", str(dump_dir))
        artifact = dump_dir / "B1.json"
        doc = json.loads(artifact.read_text())
        assert doc["kappa"] == {"0": 1, "1": 1, "2": 1}
        assert doc["tau"] == {"3": 2, "4": 2}
        if value is None:
            del doc[name][key]
        else:
            doc[name][key] = value
        artifact.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify", str(path), str(artifact),
                               "--check", "no-short-aug-paths:5")
        assert code == 1
        error = json.loads(err)
        assert error["error"] == "InstanceError"
        assert detail in error["detail"]

    def test_matching_artifact_rejects_kappa_that_is_not_an_object(self, empty_chain_matching,
                                                                   capsys):
        path, artifact = empty_chain_matching
        with open(artifact) as fh:
            doc = json.load(fh)
        doc["kappa"] = [1, 1, 1]
        with open(artifact, "w") as fh:
            json.dump(doc, fh)
        code, stdout, err = run_cli(capsys, "verify", path, artifact,
                                    "--check", "no-short-aug-paths:5")
        assert code == 1
        assert stdout == ""
        assert json.loads(err) == {"error": "InstanceError",
                                   "detail": "artifact kappa must be an object keyed by client id"}

    @pytest.mark.parametrize("check", ["validity", "cost-reducing"])
    @pytest.mark.parametrize("assignment, detail", [
        ({"0": True}, 'assignment["0"] must be an int'),
        ({"0": 1.0}, 'assignment["0"] must be an int'),
        ({"0": 1, "99": 1}, 'assignment["99"]: not a client id'),
    ], ids=["bool", "float", "extra-key"])
    def test_assignment_rejects_bad_ids(self, tmp_path, capsys, check, assignment, detail):
        path, artifact = tmp_path / "inst.json", tmp_path / "a.json"
        run_cli(capsys, "gen", "disjoint-perfect", "--k", "1", "-o", str(path))
        artifact.write_text(json.dumps({"assignment": {"0": 1}}))
        code, _, _ = run_cli(capsys, "verify", str(path), str(artifact), "--check", check)
        assert code == 0
        artifact.write_text(json.dumps({"assignment": assignment}))
        code, _, err = run_cli(capsys, "verify", str(path), str(artifact), "--check", check)
        assert code == 1
        error = json.loads(err)
        assert error["error"] == "InstanceError"
        assert detail in error["detail"]

    @pytest.mark.parametrize("assignment, reason", [
        ({"0": 3, "1": 3}, "client 0 assigned to non-adjacent server 3"),
        ({"1": 3}, "client 0 is unassigned"),
    ], ids=["non-adjacent", "unassigned"])
    def test_invalid_assignment_is_reported(self, tmp_path, capsys, assignment, reason):
        # disjoint-perfect k=2: clients 0, 1 on servers 2, 3 respectively
        path, artifact = tmp_path / "dp.json", tmp_path / "bad.json"
        run_cli(capsys, "gen", "disjoint-perfect", "--k", "2", "-o", str(path))
        artifact.write_text(json.dumps({"assignment": assignment}))
        code, stdout, err = run_cli(capsys, "verify", str(path), str(artifact),
                                    "--check", "validity", "--check", "cost-reducing")
        assert code == 1
        assert err == ""
        report = json.loads(stdout)
        assert report["pass"] is False
        # the check after the failed one still runs and reports
        assert report["checks"] == [
            {"check": "validity", "pass": False, "reason": reason},
            {"check": "cost-reducing", "pass": False, "reason": reason},
        ]

    def test_cost_reducing_check(self, tmp_path, capsys):
        path = tmp_path / "pair.json"
        path.write_text(
            '{"clients":[{"id":0,"weight":1},{"id":1,"weight":1}],'
            '"servers":[{"id":2},{"id":3}],'
            '"edges":[[0,2],[0,3],[1,2]]}'
        )
        artifact = tmp_path / "a.json"
        artifact.write_text(json.dumps({"assignment": {"0": 2, "1": 2}}))
        code, stdout, _ = run_cli(capsys, "verify", str(path), str(artifact),
                                  "--check", "cost-reducing")
        assert code == 1
        entry = json.loads(stdout)["checks"][0]
        assert entry["pass"] is False
        assert entry["witness"] == [2, 0, 3]

    def test_unknown_check(self, unit_file, tmp_path, capsys):
        artifact = tmp_path / "a.json"
        artifact.write_text("{}")
        code, _, err = run_cli(capsys, "verify", unit_file, str(artifact),
                               "--check", "bogus")
        assert code == 1

    def test_missing_artifact_data(self, unit_file, tmp_path, capsys):
        artifact = tmp_path / "a.json"
        artifact.write_text("{}")
        code, _, err = run_cli(capsys, "verify", unit_file, str(artifact),
                               "--check", "validity")
        assert code == 1
        assert "artifact" in json.loads(err)["detail"]


class TestBench:
    def test_doubling_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, stdout, _ = run_cli(capsys, "bench", "--doubling", "4", "6", "-o", str(out))
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "m", "algo", "time_ns", "linf", "ratio", "charged_rounds"]
        assert len(rows) == 4
        assert [int(r[0]) for r in rows[1:]] == [16, 32, 64]

    @pytest.mark.parametrize("lo,hi", [("5", "3"), ("-1", "2"), ("0", "1")])
    def test_doubling_rejects_bad_range(self, tmp_path, capsys, lo, hi):
        out = tmp_path / "bench.csv"
        code, stdout, err = run_cli(capsys, "bench", "--doubling", lo, hi, "-o", str(out))
        assert code == 1
        assert stdout == ""
        error = json.loads(err)
        assert error["error"] == "ValueError"
        assert "--doubling" in error["detail"]
        assert not out.exists()

    def test_suite_file(self, tmp_path, capsys):
        suite = [
            {"generator": "star", "params": {"n_clients": 5}, "algo": "congest-unweighted",
             "oracle": True},
            {"generator": "random-bipartite",
             "params": {"n_clients": 8, "n_servers": 4, "p": 0.5}, "seed": 3,
             "algo": "congest-unweighted", "simulate": True},
        ]
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps(suite))
        out = tmp_path / "bench.csv"
        code, _, _ = run_cli(capsys, "bench", "--suite", str(suite_path), "-o", str(out))
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3
        assert float(rows[1][5]) == 1.0  # star solve is exactly optimal
        assert rows[2][6] != ""  # simulated entry records charged rounds

    @pytest.mark.parametrize("entry,detail", [
        ({"algo": "nope"}, "unknown algorithm"),
        ({}, "unknown algorithm"),
        ({"algo": "seq", "simulate": True}, "nothing to simulate"),
        ({"algo": "backup"}, "replication factor"),
        ({"algo": "backup", "simulate": True}, "replication factor"),
        ({"algo": "seq", "params": [1]}, "params must be an object"),
        ({"algo": "seq", "params": None}, "params must be an object"),
        ({"algo": "backup", "r": "2"}, "r must be a positive int"),
        ({"algo": "backup", "r": 0}, "r must be a positive int"),
        ({"algo": "backup", "r": True, "simulate": True}, "r must be a positive int"),
        ({"algo": "backup", "r": 1.0}, "r must be a positive int"),
        ({"algo": "seq", "seed": [1]}, "seed must be an int"),
        ({"algo": "seq", "seed": True}, "seed must be an int"),
        ({"algo": "seq", "seed": 1.0}, "seed must be an int"),
        ({"algo": "seq", "params": {"n_clients": 5, "seed": 2}}, "must not contain 'seed'"),
    ])
    def test_suite_rejects_bad_entry(self, tmp_path, capsys, entry, detail):
        star = {"generator": "star", "params": {"n_clients": 5}}
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps([{**star, "algo": "seq"}, {**star, **entry}]))
        out = tmp_path / "bench.csv"
        code, _, err = run_cli(capsys, "bench", "--suite", str(suite_path), "-o", str(out))
        assert code == 1
        assert detail in json.loads(err)["detail"]
        assert not out.exists()

    @pytest.mark.parametrize("suite", [[1], {"a": 1}, [{"generator": "star", "algo": "seq"}, 1]])
    def test_suite_must_be_list_of_objects(self, tmp_path, capsys, suite):
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps(suite))
        out = tmp_path / "bench.csv"
        code, _, err = run_cli(capsys, "bench", "--suite", str(suite_path), "-o", str(out))
        assert code == 1
        assert "list of objects" in json.loads(err)["detail"]
        assert not out.exists()

    @pytest.mark.parametrize("entry", [{"algo": "seq"}, {"algo": "seq", "generator": "nope"}])
    def test_suite_rejects_missing_or_unknown_generator(self, tmp_path, capsys, entry):
        star = {"generator": "star", "params": {"n_clients": 5}, "algo": "seq"}
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps([star, entry]))
        out = tmp_path / "bench.csv"
        code, _, err = run_cli(capsys, "bench", "--suite", str(suite_path), "-o", str(out))
        assert code == 1
        assert "unknown generator" in json.loads(err)["detail"]
        assert not out.exists()

    @pytest.mark.parametrize("params,detail", [
        (None, "star requires parameter 'n_clients'"),
        ({"n_clients": [5]}, "star parameter 'n_clients' must be a number, got [5]"),
        ({"n_clients": 2.7}, "star parameter 'n_clients' must be an integer, got 2.7"),
        ({"n_clients": 3, "n_client": 9}, "star takes no parameter 'n_client'; expected n_clients"),
    ])
    def test_suite_entry_missing_generator_parameter(self, tmp_path, capsys, params, detail):
        entry = {"generator": "star", "algo": "seq"}
        if params is not None:
            entry["params"] = params
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps([entry]))
        out = tmp_path / "bench.csv"
        code, _, err = run_cli(capsys, "bench", "--suite", str(suite_path), "-o", str(out))
        assert code == 1
        assert json.loads(err) == {"error": "InstanceError", "detail": detail}
        assert not out.exists()

    def test_suite_backup_r_direct_and_simulated(self, tmp_path, capsys):
        entry = {"generator": "random-bipartite", "seed": 3, "algo": "backup", "r": 2,
                 "params": {"n_clients": 6, "n_servers": 5, "p": 0.9}}
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps([entry, {**entry, "simulate": True}]))
        out = tmp_path / "bench.csv"
        code, _, _ = run_cli(capsys, "bench", "--suite", str(suite_path), "-o", str(out))
        assert code == 0
        with open(out) as fh:
            direct, simulated = list(csv.reader(fh))[1:]
        assert direct[4] == simulated[4]  # same r, same max load
        assert simulated[6] != ""

    @pytest.mark.parametrize("entry,detail", [
        ({"algo": "seq", "r": 2}, "suite entry r is the replication factor of backup"),
        ({"algo": "congest-unweighted", "r": 1, "simulate": True}, "suite entry r "),
        ({"algo": "congest-unweighted", "simualte": True}, "unknown key 'simualte'"),
        ({"algo": "congest-unweighted", "simulate": "no"}, "simulate must be true or false"),
        ({"algo": "congest-unweighted", "simulate": 1}, "simulate must be true or false"),
        ({"algo": "congest-unweighted", "oracle": "yes"}, "oracle must be true or false"),
        ({"algo": "backup", "r": 2, "oracle": None}, "oracle must be true or false"),
    ])
    def test_suite_rejects_ignored_input(self, tmp_path, capsys, monkeypatch, entry, detail):
        runs = count_calls(monkeypatch, solvers, "solve_unweighted")
        star = {"generator": "star", "params": {"n_clients": 5}}
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps([{**star, "algo": "congest-unweighted"},
                                          {**star, **entry}]))
        out = tmp_path / "bench.csv"
        code, stdout, err = run_cli(capsys, "bench", "--suite", str(suite_path), "-o", str(out))
        assert code == 1
        assert stdout == ""
        error = json.loads(err)
        assert error["error"] == "ValueError"
        assert detail in error["detail"]
        assert not out.exists()
        assert runs == []  # rejected before any row runs

    @pytest.mark.parametrize("entry,argv", [
        # against the optimum single assignment this row's ratio would read 1.5
        ({"algo": "backup", "r": 2}, ("--r", "2")),
        ({"algo": "backup", "r": 3}, ("--r", "3")),
        ({"algo": "congest-unweighted"}, ()),
        ({"algo": "seq"}, ()),
    ])
    def test_suite_ratio_is_solve_oracle_ratio(self, tmp_path, capsys, entry, argv):
        spec = {"generator": "random-bipartite", "seed": 3,
                "params": {"n_clients": 6, "n_servers": 4, "p": 0.9}}
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps([{**spec, **entry, "oracle": True}]))
        out = tmp_path / "bench.csv"
        code, _, _ = run_cli(capsys, "bench", "--suite", str(suite_path), "-o", str(out))
        assert code == 0
        with open(out) as fh:
            (row,) = list(csv.DictReader(fh))
        path = tmp_path / "inst.json"
        write_instance(generate_instance(spec["generator"], seed=3, **spec["params"]), path)
        code, stdout, _ = run_cli(capsys, "solve", str(path), "--algo", entry["algo"], *argv,
                                  "--oracle")
        assert code == 0
        report = json.loads(stdout)
        optima = report["oracle"]
        expected = optima["ratio_linf"] if entry["algo"] == "backup" else optima["ratios"]["inf"]
        assert float(row["ratio"]) == expected
        assert int(row["linf"]) == max(report["loads"].values())

    @pytest.mark.parametrize("name,doubled,entry,argv", [
        ("opt_allnorm_enum",
         lambda exact: lambda inst, ps: ({p: 2 * v for p, v in exact(inst, ps)[0].items()}, None),
         {"algo": "seq"}, ()),
        ("opt_backup_enum", lambda exact: lambda inst, r: 2 * exact(inst, r),
         {"algo": "backup", "r": 1}, ("--r", "1")),
    ], ids=["seq", "backup"])
    def test_ratio_below_one_raises_as_solve_does(self, unit_file, tmp_path, monkeypatch,
                                                  name, doubled, entry, argv):
        monkeypatch.setattr(oracle, name, doubled(getattr(oracle, name)))
        with pytest.raises(AssertionError, match="beat the exact optimum"):
            main(["solve", unit_file, "--algo", entry["algo"], *argv, "--oracle"])
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps([{"generator": "star", "params": {"n_clients": 5},
                                           **entry, "oracle": True}]))
        with pytest.raises(AssertionError, match="beat the exact optimum"):
            main(["bench", "--suite", str(suite_path), "-o", str(tmp_path / "b.csv")])
