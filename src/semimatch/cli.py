"""Command-line surface: generate, solve, verify, bench.

Exit codes: 0 success, 1 error (bad input or bad arguments), 2 infeasible
instance.  All reports are JSON on stdout; bench writes CSV.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time

from . import oracle as oracle_mod
from .instance import (
    GENERATORS,
    Instance,
    InstanceError,
    generate_instance,
    read_instance,
    read_json,
    write_instance,
)
from .matching import CapacityProfile, CapMatching
from .simulate import REGISTRY, Algorithm, SimTrace, by_name, check_budget, run_simulation
from .solvers import Assignment, InfeasibleError


def instance_digest(inst: Instance) -> str:
    # tuples encode as JSON arrays, so the edges go in as they are; the
    # document holds no cycle to check for
    doc = {
        "clients": [(c, inst.weight[c]) for c in inst.clients],
        "servers": inst.servers,
        "edges": inst.edges,
    }
    blob = json.dumps(doc, separators=(",", ":"), check_circular=False).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# (report key, p) of the norms every report gives
_NORMS = (("1", 1), ("2", 2), ("3", 3), ("inf", math.inf))


def _norms(lv, extra_p=()) -> dict:
    out = {key: lv.norm(p) for key, p in _NORMS}
    for p in extra_p:
        out[str(p)] = lv.norm(p)
    return out


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


_GEN_PARAMS = ("n_clients", "n_servers", "p", "k", "exponent", "max_weight")


def cmd_gen(args) -> int:
    params = {key: getattr(args, key) for key in _GEN_PARAMS if getattr(args, key) is not None}
    inst = generate_instance(args.generator, seed=args.seed, **params)
    write_instance(inst, args.out)
    print(json.dumps({"digest": instance_digest(inst), "n": inst.n, "m": inst.m}))
    return 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _ratio(value: float, opt) -> float | None:
    """``value / opt`` (None if ``opt`` is 0), which no solver can bring below 1."""
    ratio = value / opt if opt else None
    if ratio is not None and ratio < 1 - 1e-9:
        raise AssertionError(f"solver beat the exact optimum: ratio {ratio}")
    return ratio


def _oracle_comparison(inst: Instance, algo: Algorithm, r: int | None, lv) -> dict:
    out: dict = {}
    try:
        if algo.takes_r:
            opt = oracle_mod.opt_backup_enum(inst, r)
            out["opt_linf"] = opt
            out["ratio_linf"] = _ratio(lv.max(), opt)
            return out
        if inst.is_unit_weight():
            out["opt_minmax"] = oracle_mod.opt_minmax_unweighted(inst)
        optima, _ = oracle_mod.opt_allnorm_enum(inst, (1, 2, 3, math.inf))
        out["opt_norms"] = {key: optima[p] for key, p in _NORMS}
        out["ratios"] = {key: _ratio(lv.norm(p), optima[p]) for key, p in _NORMS}
    except oracle_mod.EnumerationTooLarge:
        out["skipped"] = "instance too large for oracle enumeration"
    return out


def _solve(algo: Algorithm, inst: Instance, r: int | None, simulate: bool, oracle: bool,
           extra_p=()) -> tuple[Instance, dict, SimTrace | None, int]:
    """Run ``algo`` on ``inst`` as ``solve`` does: the instance it solved, the
    report, the trace (None unless ``simulate``) and the run's nanoseconds."""
    inst, normalized = algo.prepare(inst)
    report: dict = {"instance": instance_digest(inst), "algorithm": algo.name,
                    "normalized": normalized}
    start = time.perf_counter_ns()
    trace = None
    if simulate:
        result, trace = run_simulation(inst, algo.trace_id, r)
    else:
        result = algo.solve(inst, r)
    elapsed = time.perf_counter_ns() - start

    lv = result.load_vector()
    report["loads"] = {str(s): v for s, v in sorted(lv.loads.items())}
    report["norms"] = _norms(lv, extra_p)
    # a MultiAssignment's server tuples encode as the same JSON arrays as lists
    report["assignment"] = {str(c): s for c, s in sorted(result.mapping.items())}
    if algo.takes_r:
        report["r"] = r
    if oracle:
        report["oracle"] = _oracle_comparison(inst, algo, r, lv)
    if trace is not None:
        report["charged_rounds"] = trace.charged_rounds
    report["wall_time_s"] = round(elapsed / 1e9, 6)
    return inst, report, trace, elapsed


def _check_request(algo: Algorithm, simulate: bool, r: int | None, r_field: str) -> None:
    """The algorithm's own request checks, and that only an algorithm that
    takes a replication factor is given one (in ``r_field``)."""
    algo.check_request(simulate, r)
    if r is not None and not algo.takes_r:
        takers = " or ".join(a.name for a in REGISTRY if a.takes_r)
        raise ValueError(f"{r_field} is the replication factor of {takers}; "
                         f"{algo.name} takes none")


def cmd_solve(args) -> int:
    algo = by_name(args.algo)
    _check_request(algo, args.simulate, args.r, "--r")
    if args.trace_out and not args.simulate:
        raise ValueError("--trace-out writes the trace of a --simulate solve; "
                         "add --simulate or drop --trace-out")
    if args.dump_matchings and (args.simulate or algo.schedule is None):
        dumpers = " or ".join(a.name for a in REGISTRY if a.schedule)
        raise ValueError(f"--dump-matchings needs a direct {dumpers} solve")
    inst, report, trace, _ = _solve(algo, read_instance(args.instance), args.r,
                                    args.simulate, args.oracle, args.p or ())
    if args.trace_out:
        trace.write(args.trace_out)
    if args.dump_matchings:
        _dump_matchings(inst, algo.schedule(inst), args.dump_matchings)

    print(json.dumps(report, indent=1))
    return 0


def _dump_matchings(inst: Instance, budgets, directory: str) -> None:
    """Write each (budget B, matching) pair of ``budgets`` to B<B>.json."""
    import os

    os.makedirs(directory, exist_ok=True)
    for b, matching in budgets:
        doc = {
            "kappa": {str(c): matching.profile.kappa[c] for c in inst.clients},
            "tau": {str(s): matching.profile.tau[s] for s in inst.servers},
            "edge_cap": matching.profile.edge_cap,
            "mult": [[c, s, x] for (c, s), x in sorted(matching.mult.items())],
        }
        with open(os.path.join(directory, f"B{b}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _int_by_id(doc: dict, name: str, ids, kind: str) -> dict[int, int]:
    """``doc[name]``, an object keyed by ``kind`` ids of ``ids`` (as JSON
    strings) with int values, as {id: value}; an id may be missing."""
    raw = doc[name]
    if not isinstance(raw, dict):
        raise InstanceError(f"artifact {name} must be an object keyed by {kind} id")
    by_key = {str(i): i for i in ids}
    out: dict[int, int] = {}
    for key, v in raw.items():
        field = f"artifact {name}[{json.dumps(key)}]"
        if key not in by_key:
            raise InstanceError(f"{field}: not a {kind} id of the instance")
        if type(v) is not int:
            raise InstanceError(f"{field} must be an int, got {v!r}")
        out[by_key[key]] = v
    return out


def _load_matching_artifact(inst: Instance, doc: dict) -> CapMatching:
    kappa = _int_by_id(doc, "kappa", inst.clients, "client")
    tau = _int_by_id(doc, "tau", inst.servers, "server")
    for name, ids, got in (("kappa", inst.clients, kappa), ("tau", inst.servers, tau)):
        missing = [i for i in ids if i not in got]
        if missing:
            raise InstanceError(f'artifact {name}["{missing[0]}"] is missing')
    try:
        profile = CapacityProfile(kappa, tau, doc.get("edge_cap"))
    except ValueError as exc:
        raise InstanceError(f"matching artifact: {exc}") from exc
    edges = set(inst.edges)
    mult: dict[tuple[int, int], int] = {}
    for i, entry in enumerate(doc["mult"]):
        if (not isinstance(entry, list) or len(entry) != 3
                or any(type(v) is not int for v in entry) or entry[2] < 1
                or (entry[0], entry[1]) not in edges):
            raise InstanceError(f"matching artifact: mult[{i}] must be [client, server, "
                                f"positive int] on an instance edge, got {entry!r}")
        c, s, x = entry
        if (c, s) in mult:
            raise InstanceError(f"matching artifact: mult[{i}] repeats edge ({c}, {s})")
        mult[(c, s)] = x
    return CapMatching(inst, profile, mult)


def _alpha(param: str) -> float:
    """The ALPHA of ``--check expansion:ALPHA`` (default 2)."""
    try:
        alpha = float(param) if param else 2.0
    except ValueError:
        alpha = math.nan
    if not (math.isfinite(alpha) and alpha > 1):
        raise ValueError(f"expansion ALPHA must be a finite number > 1, got {param!r}")
    return alpha


def _path_bound(param: str) -> int:
    """The K of ``--check no-short-aug-paths:K``: an odd integer >= 1."""
    try:
        k = int(param)
    except ValueError:
        k = 0
    if k < 1 or k % 2 == 0:
        raise ValueError(f"no-short-aug-paths K must be an odd integer >= 1, got {param!r}")
    return k


def cmd_verify(args) -> int:
    inst = read_instance(args.instance)
    doc = read_json(args.artifact)
    results = []
    ok = True
    for check in args.check:
        name, _, param = check.partition(":")
        entry: dict = {"check": check}
        try:
            if name in ("validity", "cost-reducing"):
                mapping = _int_by_id(doc, "assignment", inst.clients, "client")
                try:
                    assignment = Assignment(inst, mapping)
                except ValueError as exc:  # a client unassigned or on a non-adjacent server
                    entry["pass"], entry["reason"] = False, str(exc)
                else:
                    path = (oracle_mod.find_cost_reducing_path(inst, assignment)
                            if name == "cost-reducing" else None)
                    entry["pass"] = path is None
                    if path is not None:
                        entry["witness"] = path
            elif name == "no-short-aug-paths":
                k = _path_bound(param)
                matching = _load_matching_artifact(inst, doc)
                verdict = oracle_mod.verify_no_short_aug_paths(inst, matching.profile, matching, k)
                entry["pass"] = verdict is True
                if verdict is not True:
                    entry["witness"] = verdict
            elif name == "expansion":
                alpha = _alpha(param)
                matching = _load_matching_artifact(inst, doc)
                base_tau = {s: math.ceil(t / alpha) for s, t in matching.profile.tau.items()}
                try:
                    verdict = oracle_mod.verify_expansion_lemma(
                        inst, matching.profile.kappa, base_tau, alpha, matching
                    )
                except oracle_mod.PreconditionError as exc:
                    entry["pass"], entry["reason"] = False, f"{exc} for tau / {alpha:g} rounded up"
                else:
                    entry["pass"] = verdict is True
                    if verdict is not True:
                        entry["witness_client"] = verdict.client
            elif name == "budget":
                entry.update(check_budget(SimTrace.from_json(doc), inst))
            else:
                raise ValueError(f"unknown check {name!r}")
        except (KeyError, TypeError) as exc:
            raise InstanceError(f"artifact missing data for check {check!r}: {exc}") from exc
        ok = ok and entry["pass"]
        results.append(entry)
    print(json.dumps({"checks": results, "pass": ok}, indent=1))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _doubling_suite(lo: int, hi: int, seed: int) -> list[dict]:
    return [{"generator": "weighted-random",
             "params": {"n_clients": n // 2, "n_servers": n // 2, "p": min(1.0, 8 / n),
                        "max_weight": 4},
             "seed": seed, "algo": "seq"} for n in (1 << exp for exp in range(lo, hi + 1))]


_SUITE_KEYS = ("generator", "params", "seed", "algo", "r", "simulate", "oracle")


def cmd_bench(args) -> int:
    if args.suite:
        suite = read_json(args.suite)
        if not isinstance(suite, list) or not all(isinstance(e, dict) for e in suite):
            raise ValueError("suite must be a JSON list of objects")
    elif args.doubling:
        lo, hi = args.doubling
        if not 1 <= lo <= hi:
            raise ValueError(f"--doubling LO HI needs 1 <= LO <= HI, got {lo} {hi}")
        suite = _doubling_suite(lo, hi, args.seed)
    else:
        suite = []
    algos = [by_name(entry.get("algo")) for entry in suite]
    for entry, algo in zip(suite, algos):
        unknown = sorted(set(entry) - set(_SUITE_KEYS))
        if unknown:
            raise ValueError(f"suite entry has unknown key {unknown[0]!r}; "
                             f"expected some of {_SUITE_KEYS}")
        for key in ("simulate", "oracle"):
            if type(entry.get(key, False)) is not bool:
                raise ValueError(f"suite entry {key} must be true or false, got {entry[key]!r}")
        _check_request(algo, entry.get("simulate", False), entry.get("r"), "suite entry r")
        if entry.get("generator") not in GENERATORS:
            raise ValueError(f"unknown generator {entry.get('generator')!r}; "
                             f"expected one of {GENERATORS}")
        if not isinstance(entry.get("params", {}), dict):
            raise ValueError(f"suite entry params must be an object, got {entry['params']!r}")
        if "seed" in entry.get("params", {}):
            raise ValueError("suite entry params must not contain 'seed'; "
                             "give it as the entry's seed")
        if "seed" in entry and type(entry["seed"]) is not int:
            raise ValueError(f"suite entry seed must be an int, got {entry['seed']!r}")
        if "r" in entry and not (type(entry["r"]) is int and entry["r"] >= 1):
            raise ValueError(f"suite entry r must be a positive int, got {entry['r']!r}")
    rows = []
    for entry, algo in zip(suite, algos):
        inst = generate_instance(entry["generator"], seed=entry.get("seed", 0),
                                 **entry.get("params", {}))
        work, report, _, elapsed = _solve(algo, inst, entry.get("r"),
                                          entry.get("simulate", False), entry.get("oracle", False))
        oracle = report.get("oracle", {})
        ratio = oracle.get("ratio_linf", oracle.get("ratios", {}).get("inf", ""))
        rows.append([work.n, work.m, algo.name, elapsed, max(report["loads"].values(), default=0),
                     ratio, report.get("charged_rounds", "")])
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "m", "algo", "time_ns", "linf", "ratio", "charged_rounds"])
        writer.writerows(rows)
    print(json.dumps({"rows": len(rows), "out": args.out}))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _norm_p(text: str) -> float:
    try:
        p = float(text)
    except ValueError:
        p = math.nan
    if not (math.isfinite(p) and p >= 1):
        raise argparse.ArgumentTypeError(f"p must be finite and >= 1, got {text}")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="semimatch")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("generator", choices=GENERATORS)
    gen.add_argument("--clients", type=int, dest="n_clients")
    gen.add_argument("--servers", type=int, dest="n_servers")
    gen.add_argument("--p", type=float)
    gen.add_argument("--k", type=int)
    gen.add_argument("--exponent", type=float)
    gen.add_argument("--max-weight", type=int, dest="max_weight")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--out", required=True)
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="solve an instance")
    solve.add_argument("instance")
    solve.add_argument("--algo", choices=[a.name for a in REGISTRY], required=True)
    solve.add_argument("--r", type=int)
    solve.add_argument("--oracle", action="store_true")
    solve.add_argument("--simulate", action="store_true")
    solve.add_argument("--trace-out", dest="trace_out")
    solve.add_argument("--dump-matchings", dest="dump_matchings")
    solve.add_argument("--p", type=_norm_p, action="append",
                       help="report an additional l_p norm (finite p >= 1)")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="verify a solve/matching artifact")
    verify.add_argument("instance")
    verify.add_argument("artifact")
    verify.add_argument("--check", action="append", required=True,
                        help="validity | no-short-aug-paths:K | expansion:ALPHA | "
                             "cost-reducing | budget")
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="run a benchmark suite to CSV")
    bench.add_argument("--suite")
    bench.add_argument("--doubling", nargs=2, type=int, metavar=("LO", "HI"),
                       help="doubling series of the sequential solver, n = 2^LO .. 2^HI")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("-o", "--out", required=True)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments, but 2 means infeasible here
        if exc.code == 0:  # --help
            raise
        return 1
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(json.dumps({"error": "infeasible", "detail": str(exc),
                          "client": exc.client}), file=sys.stderr)
        return 2
    except (InstanceError, ValueError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
