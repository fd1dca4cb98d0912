#!/usr/bin/env python3
"""Benchmark mdclique from DIMACS bytes to a verified optimum.

    python3 perfbench/run.py --workload coprime --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: it imports mdclique from ./src
and fails when there is none. One process, one thread. The run builds the
workload's instances (timed as set-up), then makes whole passes over them
until --seconds have gone by, at least MIN_PASSES times. Each instance is
parsed from its DIMACS bytes and solved with `solve`; dense-random instances
are also solved with plain `max_weight_clique`. Every answer is checked
against an oracle that does not come from mdclique, after the timed passes.

With --trace 0 the last line of output is a JSON object with the end-to-end
metrics; with --trace 1 the same passes run under spans and the object holds
the per-layer metrics instead. Spans are written to
perfbench/out/spans-<workload>-seed<seed>.json when the run ends.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("coprime", "prime-free", "dense-random")
# set-up repeats until both hold; the median of the repeats is setup_s
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0
MIN_PASSES = 3
# every solve carries a limit, so a regression shows as a failure, not a hang
TIME_LIMIT_S = 30.0


def load_program() -> None:
    """Put the checkout's src/ first on the import path, or stop."""
    package = ROOT / "src" / "mdclique"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mdclique sources at {package}; "
                         "run from the root of a source checkout")
    sys.path.insert(0, str(package.parent))
    import mdclique

    if Path(mdclique.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported mdclique from {mdclique.__file__}, "
                         f"not from {package}")


@dataclass
class Outcome:
    """One instance in one pass. Times are in seconds; tree figures are
    read from SolveInfo after the clock stops."""

    index: int
    total_s: float = 0.0
    solve_s: float = 0.0
    md: object = None
    plain: object = None
    error: str | None = None
    tree_nodes: int = 0
    prime_nodes: int = 0
    depth: int = 0
    max_prime_k: int = 0
    prime_calls: int = 0


def tree_figures(tree) -> tuple[int, int, int, int]:
    """(nodes, prime nodes, depth in edges, largest prime child count),
    walked without recursion."""
    from mdclique import NodeKind

    nodes = primes = depth = widest = 0
    stack = [(tree.root, 0)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        if node.kind is NodeKind.PRIME:
            primes += 1
            widest = max(widest, len(node.children))
        stack.extend((child, d + 1) for child in node.children)
    return nodes, primes, depth, widest


def run_pass(instances, config, tracer, pass_no: int) -> list[Outcome]:
    from mdclique import CliqueSearch, max_weight_clique, parse_dimacs, solve

    span = tracer.span if tracer else (lambda name: nullcontext())
    clock = time.perf_counter
    outcomes = []
    for index, inst in enumerate(instances):
        spec = inst.spec
        out = Outcome(index)
        if tracer:
            tracer.instance = f"{pass_no}:{spec.name}"
        g = info = search = None
        t0 = clock()
        try:
            with span("bench.instance"):
                with span("graph.parse"):
                    g = parse_dimacs(inst.dimacs)
                t1 = clock()
                with span("mdsolve.solve"):
                    out.md, info = solve(g, config)
                if spec.plain:
                    if tracer:
                        with span("wclique.plain_init"):
                            search = CliqueSearch(g, config)
                        with span("wclique.plain_search") as s:
                            out.plain = search.run()
                        s.counts["nodes"] = search.nodes
                    else:
                        out.plain = max_weight_clique(g, config)
            t2 = clock()
            out.solve_s, out.total_s = t2 - t1, t2 - t0
        except Exception as exc:  # an operation's failure is counted, not fatal
            out.total_s = clock() - t0
            out.error = f"{type(exc).__name__}: {exc}"
        if info is not None:
            out.tree_nodes, out.prime_nodes, out.depth, out.max_prime_k = tree_figures(info.tree)
            out.prime_calls = info.prime_solver_calls
        outcomes.append(out)
        # free this instance's graph and tree before the next clock starts
        g = info = search = None
    return outcomes


def check(instances, passes) -> tuple[bool, int, int, Counter]:
    """Score every operation against the oracles. An exception or a
    TimedOut status fails the operation; a wrong answer also makes the run
    incorrect. Returns (correct, attempted, failed, failure reasons)."""
    from mdclique import SolveStatus
    from instances import witness_error

    correct = True
    attempted = failed = 0
    reasons: Counter = Counter()

    def verdict(spec, mode, solution) -> tuple[str | None, bool]:
        if solution.status is not SolveStatus.OPTIMAL:
            return f"status {solution.status.value}", False
        if solution.weight != spec.optimum:
            return f"weight {solution.weight}, optimum is {spec.optimum}", True
        problem = witness_error(spec, solution.vertices, solution.weight)
        return problem, problem is not None

    for outcomes in passes:
        for out in outcomes:
            spec = instances[out.index].spec
            modes = ("md", "plain") if spec.plain else ("md",)
            attempted += len(modes)
            if out.error:
                failed += len(modes)
                for mode in modes:
                    reasons[(spec.name, mode, out.error)] += 1
                continue
            for mode in modes:
                problem, wrong = verdict(spec, mode, getattr(out, mode))
                if problem is None and mode == "md" and spec.prime_free and out.prime_nodes:
                    problem, wrong = f"{out.prime_nodes} prime nodes in a cograph's tree", True
                if problem is None and mode == "plain" and out.plain.weight != out.md.weight:
                    problem, wrong = "MD and plain weights differ", True
                if problem is not None:
                    failed += 1
                    correct = correct and not wrong
                    reasons[(spec.name, mode, problem)] += 1
    return correct, attempted, failed, reasons


def median_of(passes, value) -> float:
    return statistics.median(value(outcomes) for outcomes in passes)


def end_to_end(passes, setup_times, peak_rss_mb) -> dict:
    return {
        "time_to_optimum_s": (median_of(passes, lambda os: sum(o.total_s for o in os)), "s"),
        "solve_s": (median_of(passes, lambda os: sum(o.solve_s for o in os)), "s"),
        "slowest_instance_s": (median_of(passes, lambda os: max(o.total_s for o in os)), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer, instances, passes, pass_spans, setup_spans) -> dict:
    """Per-layer figures of the traced run: medians over passes of each
    pass's sums (set-up layers: over set-up repeats), exact counts as read."""
    def sums(first, last):
        total: Counter = Counter()
        counts: Counter = Counter()
        own = tracer.self_seconds(first, last)
        for i, s in enumerate(tracer.spans[first:last]):
            total[s.name] += s.seconds
            for key, value in s.counts.items():
                counts[f"{s.name}.{key}"] += value
            if s.name == "mdsolve.solve":
                total["mdsolve.fold_self"] += own[i]
        return total, counts

    parsed_mb = sum(len(inst.dimacs) for inst in instances) / 1e6
    rows = []
    for (first, last), outcomes in zip(pass_spans, passes):
        t, c = sums(first, last)
        k = c["wclique.init.k"]
        rows.append({
            "graph.parse_s": t["graph.parse"],
            "graph.parse_MBps": parsed_mb / t["graph.parse"],
            "mdtree.decompose_s": t["mdtree.decompose"],
            "mdtree.quotient_s": t["mdtree.quotient"],
            "mdtree.tree_nodes": sum(o.tree_nodes for o in outcomes),
            "mdtree.prime_nodes": sum(o.prime_nodes for o in outcomes),
            "mdtree.depth": max(o.depth for o in outcomes),
            "mdtree.max_prime_k": max(o.max_prime_k for o in outcomes),
            "mdsolve.fold_self_s": t["mdsolve.fold_self"],
            "mdsolve.prime_calls": sum(o.prime_calls for o in outcomes),
            "wclique.init_s": t["wclique.init"],
            "wclique.survivor_ratio": c["wclique.init.survivors"] / k if k else 0.0,
            "wclique.search_s": t["wclique.search"],
            "wclique.nodes": c["wclique.search.nodes"],
            "wclique.nodes_per_s": (c["wclique.search.nodes"] / t["wclique.search"]
                                    if t["wclique.search"] else 0.0),
            "wclique.plain_search_s": t["wclique.plain_search"],
            "wclique.plain_nodes": c["wclique.plain_search.nodes"],
            "trace.time_to_optimum_s": sum(o.total_s for o in outcomes),
        })
    setup_rows = [sums(first, last)[0] for first, last in setup_spans]
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["generators.gen_s"] = statistics.median(t["generators.gen"] for t in setup_rows)
    metrics["graph.write_dimacs_s"] = statistics.median(
        t["graph.write_dimacs"] for t in setup_rows)
    return {name: (value, LAYER_UNITS[name]) for name, value in sorted(metrics.items())}


LAYER_UNITS = {
    "generators.gen_s": "s", "graph.parse_s": "s", "graph.parse_MBps": "MB/s",
    "graph.write_dimacs_s": "s", "mdtree.decompose_s": "s", "mdtree.quotient_s": "s",
    "mdtree.tree_nodes": "count", "mdtree.prime_nodes": "count", "mdtree.depth": "count",
    "mdtree.max_prime_k": "count", "mdsolve.fold_self_s": "s", "mdsolve.prime_calls": "count",
    "wclique.init_s": "s", "wclique.survivor_ratio": "ratio", "wclique.search_s": "s",
    "wclique.nodes": "count", "wclique.nodes_per_s": "1/s", "wclique.plain_search_s": "s",
    "wclique.plain_nodes": "count", "trace.time_to_optimum_s": "s",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="draws the vertex relabelling")
    parser.add_argument("--seconds", type=float, required=True, help="how long to make passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import instances as ladder
    from mdclique import SolverConfig
    from tracing import Tracer, install

    tracer = Tracer() if args.trace else None
    config = SolverConfig(time_limit=TIME_LIMIT_S)

    def timed(name):
        if tracer is None:
            return lambda fn, *a: fn(*a)

        def call(fn, *a):
            with tracer.span(name):
                return fn(*a)
        return call

    setup_times, setup_spans = [], []
    while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
        gc.collect()
        first = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.instance = f"setup{len(setup_times)}"
        t0 = time.perf_counter()
        instances = ladder.build(args.workload, args.seed,
                                 timed("generators.gen"), timed("graph.write_dimacs"))
        setup_times.append(time.perf_counter() - t0)
        setup_spans.append((first, len(tracer.spans) if tracer else 0))

    passes, pass_spans = [], []
    started = time.perf_counter()
    with install(tracer) if tracer else nullcontext():
        while len(passes) < MIN_PASSES or time.perf_counter() - started < args.seconds:
            gc.collect()
            first = len(tracer.spans) if tracer else 0
            passes.append(run_pass(instances, config, tracer, len(passes)))
            pass_spans.append((first, len(tracer.spans) if tracer else 0))
    measured_s = time.perf_counter() - started
    # ru_maxrss is in KiB on Linux; read before the oracle imports networkx
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for inst in instances:
        if inst.spec.optimum is None:
            inst.spec.optimum = ladder.networkx_optimum(inst.spec)
    correct, attempted, failed, reasons = check(instances, passes)

    print(f"workload {args.workload}, seed {args.seed}, tracing {'on' if tracer else 'off'}: "
          f"{len(instances)} instances, {len(passes)} passes in {measured_s:.1f} s")
    for inst in instances:
        s = inst.spec
        weights = "unit" if set(s.weights) == {1} else f"{min(s.weights)}..{max(s.weights)}"
        print(f"  {s.name:28} n={s.n:<5} m={s.m:<7} weights={weights:<7} "
              f"{len(inst.dimacs) / 1e6:6.2f} MB  optimum {s.optimum}")
    for (name, mode, reason), count in sorted(reasons.items()):
        print(f"FAILED {name} ({mode}) in {count} of {len(passes)} passes: {reason}")
    if tracer:
        metrics = per_layer(tracer, instances, passes, pass_spans, setup_spans)
        tracer.write(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics = end_to_end(passes, setup_times, peak_rss_mb)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"attempted {attempted} failed {failed} correct {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
