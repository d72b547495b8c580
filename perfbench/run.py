#!/usr/bin/env python3
"""The semimatch benchmark: one workload, one process, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload seq-heavy --seed 1 --seconds 40 --trace 0

The workloads, their generators, parameters and operations are recorded in
perfbench/workloads.json.  A run generates its instances from --seed with
the package's own seeded generator, setting up each instance once and at
least three times in all.  It then runs operations back to back, on each
instance in turn, in a closed loop with a single caller until --seconds of
operation time are measured.  Between operations it repeats the set-up
while that has taken less than a quarter of the operation time; setup_s is
the import time plus the median set-up.  op_s.p50 and edges_per_s.p50 are
medians over the untraced operations.
Every output is checked against the benchmark's own copy of the instance.
The split optimum behind linf_ratio comes from a scipy max-flow binary
search, checked against semimatch.oracle.opt_split (networkx) on the first
instance of the CLI workload; both run outside every timed region.

With --trace 0 the operations run untraced and the end-to-end metrics are
printed.  With --trace 1 traced and untraced operations alternate; spans are
recorded around every public function of the package's layers (see
perfbench/spans.py) and written to perfbench/out/ when the run ends, and
the per-layer metrics are printed, with the tracing overhead.

Every assignment digest and per-layer count is also kept in
perfbench/out/record-<workload>-<seed>.json.  A later run of the same code
and seed that disagrees with it fails the correctness check.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout

import reference
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# layers that run only during set-up; their self times are medians over the
# set-up repetitions, every other layer's over the traced operations
SETUP_LAYERS = ("instance.generate", "instance.normalize", "instance.write")
COUNT_METRICS = (
    "matching.blocking_flow.calls",
    "matching.blocking_flow.units",
    "matching.eliminate_short_paths.calls",
    "matching.eliminate_short_paths.units",
    "rounding.support_edges_in",
    "rounding.support_edges_out",
    "instance.client_expand.copies",
    "simulate.messages",
    "simulate.charged_rounds",
)


class Run:
    """Outcome tallies and the problems that make a run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # "<instance>:<algorithm>" -> assignment digest / max load
        self.digests: dict[str, str] = {}
        self.max_loads: dict[str, int] = {}

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            print(f"problem: {text}")
        self.problems.append(text)


# ---------------------------------------------------------------------------
# set-up and operations
# ---------------------------------------------------------------------------


class Input:
    """One generated instance of a run, the benchmark's copy of it and, for
    the CLI workload, its file and the CLI steps that use it."""

    def __init__(self, inst, paths: dict, spec: dict):
        self.inst = inst
        self.copy = reference.EdgeCopy(inst.clients, inst.servers, inst.edges, inst.weight)
        self.steps = [[arg.format(**paths) for arg in step]
                      for step in spec["operation"].get("steps", ())]


def set_up(sm, spec: dict, seed: int, paths: dict):
    inst = sm.generate_instance(spec["generator"], seed=seed, **spec["params"])
    inst = sm.normalize_weights(inst)
    if spec["operation"]["kind"] == "cli":
        sm.write_instance(inst, paths["instance"])
    return inst


def run_cli(cli, steps: list[list[str]]) -> list[tuple[int, str, str]]:
    outputs = []
    for argv in steps:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        outputs.append((code, out.getvalue(), err.getvalue()))
    return outputs


def check_cli(outputs, steps, copy: reference.EdgeCopy) -> dict[str, tuple[dict, dict]]:
    """Validate the four CLI steps; returns algorithm -> (assignment, loads)."""
    assignments = {}
    for (code, out, err), argv in zip(outputs, steps):
        if code != 0:
            raise reference.InvalidOutput(f"{argv[0]} exited {code}: {err.strip()[:200]}")
        report = json.loads(out)
        if argv[0] == "verify":
            if report.get("pass") is not True:
                raise reference.InvalidOutput(f"verify failed: {report}")
            continue
        algo = argv[argv.index("--algo") + 1]
        mapping = {int(c): s for c, s in report["assignment"].items()}
        loads = copy.loads(mapping)
        if report["loads"] != {str(s): v for s, v in loads.items()}:
            raise reference.InvalidOutput(f"{algo}: reported loads differ from recomputed loads")
        if report["norms"]["inf"] != float(max(loads.values())):
            raise reference.InvalidOutput(f"{algo}: reported l_inf differs from max load")
        with open(argv[argv.index("--trace-out") + 1], encoding="utf-8") as fh:
            trace = json.load(fh)
        announced = [tuple(m["edge"]) for m in trace["simulatedMessages"]]
        if len(announced) != len(mapping) or set(announced) != set(mapping.items()):
            raise reference.InvalidOutput(f"{algo}: trace announces another assignment")
        if report["charged_rounds"] != trace["chargedRounds"]:
            raise reference.InvalidOutput(f"{algo}: report and trace disagree on rounds")
        assignments[algo] = (mapping, loads)
    return assignments


def record_outputs(run: Run, j: int, assignments: dict[str, tuple[dict, dict]]) -> None:
    for algo, (mapping, loads) in assignments.items():
        key = f"{j}:{algo}"
        run.max_loads[key] = max(loads.values())
        digest = reference.digest(mapping)
        if run.digests.setdefault(key, digest) != digest:
            run.problem(f"assignment {key} changed between operations: {digest} vs "
                        f"{run.digests[key]}")


# ---------------------------------------------------------------------------
# determinism record
# ---------------------------------------------------------------------------


def code_digest() -> str:
    h = hashlib.sha256()
    files = []
    for base in (SRC, HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d not in ("out", "__pycache__"))
            files += [os.path.join(dirpath, f) for f in filenames
                      if f.endswith((".py", ".json"))]
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def check_record(run: Run, path: str, counts: dict | None) -> None:
    """Compare this run's digests and counts with an earlier run of the same
    code and seed, then store the union."""
    entry = {"code": code_digest(), "digests": run.digests}
    if counts is not None:
        entry["counts"] = counts
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            old = json.load(fh)
        if old.get("code") == entry["code"]:
            for key in ("digests", "counts"):
                if key in old and key in entry and old[key] != entry[key]:
                    run.problem(f"{key} differ from an earlier run of the same code and "
                                f"seed ({path})")
            for key in ("digests", "counts"):
                entry.setdefault(key, old.get(key))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({k: v for k, v in entry.items() if v is not None}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def layer_metrics(tracer: spans.Tracer, traced_ids: dict[str, int], setup_ids, run: Run
                  ) -> tuple[dict, dict]:
    """Per-layer metrics (name -> (value, unit)) and the exact counts of each
    instance's traced operations.  Times are medians over operations; counts
    are means over the run's instances of one operation's counts."""
    ops = spans.per_operation(tracer.spans)
    traced = [ops[i] for i in traced_ids if i in ops]
    setups = [ops[i] for i in setup_ids if i in ops]
    checks = [ops["check"]] if "check" in ops else []
    metrics = {}
    for name in [span_name for _, _, span_name, _ in spans.TRACED] + [spans.ROOT_SPAN]:
        source = setups if name in SETUP_LAYERS else checks if name.startswith("oracle.") \
            else traced
        key = "bench.op_self_s" if name == spans.ROOT_SPAN else f"{name}_s"
        metrics[key] = (spans.median(o["self_s"].get(name, 0.0) for o in source), "s")
    counts: dict[str, dict] = {}
    for op_id, j in traced_ids.items():
        if op_id not in ops:
            continue
        first = counts.setdefault(str(j), ops[op_id]["counts"])
        if ops[op_id]["counts"] != first:
            run.problem(f"per-layer counts of instance {j} changed between operations: "
                        f"{ops[op_id]['counts']} vs {first}")
    per_instance = list(counts.values()) or [{}]
    for name in COUNT_METRICS:
        metrics[name] = (sum(c.get(name, 0) for c in per_instance) / len(per_instance),
                         "count")
    budgets = sum(c.get("budgets", 0) for c in per_instance)
    redundant = sum(c.get("budgets_redundant", 0) for c in per_instance)
    metrics["matching.redundant_budget_share"] = (redundant / budgets if budgets else 0.0,
                                                  "share")
    return metrics, counts


def declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc[kind]}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def instance_seed(seed: int, j: int) -> int:
    return 16 * seed + j


def main(argv=None) -> int:
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(record["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "semimatch", "__init__.py")):
        print(f"perfbench: no semimatch package under {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    spec = record["workloads"][args.workload]
    is_cli = spec["operation"]["kind"] == "cli"
    trace = bool(args.trace)
    min_ops = int(record["min_ops"])

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    sm = importlib.import_module("semimatch")
    cli = importlib.import_module("semimatch.cli") if is_cli else None
    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(sm.__file__))) != SRC:
        print(f"perfbench: imported semimatch from {sm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = os.path.join(OUT, f"work-{args.workload}")
    os.makedirs(work, exist_ok=True)
    n_inputs = int(spec["instances"])
    paths = [{"instance": os.path.join(work, f"instance-{j}.json"),
              "trace_congest": os.path.join(work, "trace-congest.json"),
              "trace_local": os.path.join(work, "trace-local.json")} for j in range(n_inputs)]
    tracer = spans.Tracer()
    run = Run()

    # set-up, repeated; repetition r makes instance r mod n_inputs
    setup_times, setup_ids, insts = [], [], [None] * n_inputs

    def set_up_once():
        r = len(setup_times)
        j = r % n_inputs
        gc.collect()
        setup_ids.append(f"setup{r}")
        ctx = tracer.operation(setup_ids[-1]) if trace else nullcontext()
        start = time.perf_counter()
        with ctx:
            inst = set_up(sm, spec, instance_seed(args.seed, j), paths[j])
        setup_times.append(time.perf_counter() - start)
        if insts[j] is None:
            insts[j] = inst
        elif (inst.edges, inst.weight) != (insts[j].edges, insts[j].weight):
            run.problem(f"set-up {r} made another instance {j} from the same seed")

    while len(setup_times) < max(n_inputs, record["setup_min_repeats"]):
        set_up_once()
    inputs = [Input(inst, paths[j], spec) for j, inst in enumerate(insts)]

    # closed loop over the inputs in turn, each input at least once.
    # Operation 0 warms the heap and is checked but not timed (a cold first
    # solve runs up to a third slower).  With tracing, each input gets an
    # untraced and then a traced operation.
    kinds = ("untraced", "traced") if trace else ("untraced",)
    times = {k: [] for k in kinds}
    traced_ids: dict[str, int] = {}
    measured = 0.0
    edges_solved = 0
    ok_times, ok_rates = [], []  # untraced operations whose output passed
    i = 0
    while (i <= n_inputs * len(kinds) or measured < args.seconds
           or any(len(times[k]) < min_ops for k in kinds)):
        # Further set-up repetitions are spread over the run, between
        # operations, while they take less than a share of the operation
        # time, so that setup_s is a median over the same span of machine
        # time as op_s.p50 rather than over its first seconds.
        if i > 0 and sum(setup_times) < record["setup_share"] * measured:
            set_up_once()
        kind = "warm-up" if i == 0 else kinds[(i - 1) % len(kinds)]
        op_id = f"op{i}"
        j = 0 if i == 0 else (i - 1) // len(kinds) % n_inputs
        inp = inputs[j]
        i += 1
        gc.collect()
        run.attempted += 1
        ctx = tracer.operation(op_id) if kind == "traced" else nullcontext()
        start = time.perf_counter()
        try:
            with ctx:
                result = run_cli(cli, inp.steps) if is_cli else sm.solve_sequential(inp.inst)
        except Exception as exc:  # an operation that raises counts as failed
            result = None
            run.failed += 1
            run.problem(f"{op_id} raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        if kind in times:
            times[kind].append(elapsed)
            measured += elapsed
            edges_solved += len(inp.copy.edges)
        if kind == "traced":
            traced_ids[op_id] = j
        if result is None:
            continue
        try:
            if is_cli:
                assignments = check_cli(result, inp.steps, inp.copy)
            else:
                assignments = {"seq": (result.mapping, inp.copy.loads(result.mapping))}
            record_outputs(run, j, assignments)
            if kind == "untraced":
                ok_times.append(elapsed)
                ok_rates.append(len(inp.copy.edges) / elapsed)
        except (reference.InvalidOutput, OSError, ValueError, KeyError, TypeError) as exc:
            run.failed += 1
            run.problem(f"{op_id} output rejected: {exc}")
    for kind in kinds:
        print(f"{kind} operation seconds: {[round(t, 4) for t in times[kind]]}")
    print(f"set-up seconds: import {import_s:.4f}, repetitions "
          f"{[round(t, 4) for t in setup_times]}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # references, outside every timed region
    ratios = []
    for j, inp in enumerate(inputs):
        split_opt = reference.split_optimum(inp.copy)
        print(f"instance {j}: seed {instance_seed(args.seed, j)}, m {len(inp.copy.edges)}, "
              f"split optimum (scipy max-flow) {split_opt}")
        if is_cli and j == 0:
            oracle = importlib.import_module("semimatch.oracle")
            with tracer.operation("check") if trace else nullcontext():
                nx_opt = oracle.opt_split(inp.inst)
            print(f"instance {j}: split optimum (semimatch.oracle, networkx) {nx_opt}")
            if nx_opt != split_opt:
                run.problem(f"split optima disagree: scipy {split_opt}, networkx {nx_opt}")
        lower_bound = max(split_opt, max(inp.copy.weight.values()))
        loads = {key: v for key, v in run.max_loads.items() if key.startswith(f"{j}:")}
        for key, load in sorted(loads.items()):
            ratios.append(load / lower_bound)
            print(f"{key}: max load {load}, ratio {ratios[-1]:.4f}, "
                  f"digest {run.digests[key]}")
        if not loads:
            run.problem(f"no operation on instance {j} produced an output")

    counts = None
    if trace:
        metrics, counts = layer_metrics(tracer, traced_ids, setup_ids, run)
        traced_p50 = spans.median(times["traced"])
        untraced_p50 = spans.median(times["untraced"])
        metrics["trace.op_s.p50"] = (traced_p50, "s")
        metrics["trace.untraced_op_s.p50"] = (untraced_p50, "s")
        metrics["trace.overhead_ratio"] = (traced_p50 / untraced_p50, "ratio")
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"))
        wanted = declared("per_layer")
    else:
        # Medians over the successful operations of the whole run: a single
        # slow operation (another tenant of a shared machine, a late garbage
        # collection) moves neither.  Failures show in ok_share and correct.
        op_times = times["untraced"]
        metrics = {
            "op_s.p50": (spans.median(ok_times) if ok_times else max(op_times), "s"),
            "edges_per_s.p50": (spans.median(ok_rates), "edges/s"),
            "setup_s": (import_s + spans.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_share": ((run.attempted - run.failed) / run.attempted, "share"),
            "linf_ratio": (sum(ratios) / len(ratios) if ratios else 0.0, "ratio"),
        }
        print(f"timed operations: {len(op_times)}, of them successful: {len(ok_times)}")
        print(f"edges_per_s (total edges / total seconds): {edges_solved / sum(op_times)} "
              "edges/s")
        print(f"failed_share: {run.failed / run.attempted} share")
        wanted = declared("end_to_end")
    check_record(run, os.path.join(OUT, f"record-{args.workload}-{args.seed}.json"), counts)

    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != wanted:
        print(f"perfbench: metrics {sorted(got.items())} do not match BENCHMARK.json "
              f"{sorted(wanted.items())}", file=sys.stderr)
        return 3
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
