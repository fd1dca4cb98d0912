"""Command-line front end: solve, md, gen, bench.

Exit codes: 0 success (solve: optimum proven), 1 error, 2 timed out. A
reader that closes standard output early (`mdclique md x.clq | head -c 1`)
also gives exit code 1, with nothing on standard error. Each file's parser
warnings go to standard error as `warning: <path>: <message>` lines. A
command that runs out of memory ends with the one line
`error: <path>: out of memory` (`error: out of memory` for gen and bench)
and exit code 1.
"""
from __future__ import annotations

import argparse
import os
import sys
import warnings
from contextlib import nullcontext
from pathlib import Path

from . import bench as bench_mod
from .graph import DimacsWarning, SolveStatus, write_dimacs
from .generators import coprime_graph, gnp, random_cograph
from .mdsolve import solve
from .mdtree import decompose, verify_tree
from .wclique import Ordering, SolverConfig

_ORDERINGS = {o.value: o for o in Ordering}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _fail_path(path: str, exc: Exception) -> int:
    # an OSError's own text repeats the path, so only its strerror is shown
    detail = exc.strerror if isinstance(exc, OSError) else exc
    return _fail(f"{path}: {detail}")


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        config = SolverConfig(time_limit=args.time_limit, ordering=_ORDERINGS[args.ordering])
    except ValueError as exc:
        return _fail(str(exc))
    try:
        g = bench_mod.load_instance(args.path)
    except (OSError, ValueError) as exc:
        return _fail_path(args.path, exc)
    solution, info = solve(g, config, md=not args.plain)
    md_s, solve_s = info.md_seconds, info.solve_seconds
    print(f"instance: {args.path}")
    print(f"n={g.n} m={g.m}")
    print(f"clique weight: {solution.weight}")
    print("vertices:", " ".join(str(v + 1) for v in solution.vertices))
    print(f"status: {solution.status.value}")
    print(f"md time: {md_s:.6f} s")
    print(f"solve time: {solve_s:.6f} s")
    print(f"total time: {md_s + solve_s:.6f} s")
    return 0 if solution.status is SolveStatus.OPTIMAL else 2


def cmd_md(args: argparse.Namespace) -> int:
    try:
        g = bench_mod.load_instance(args.path)
    except (OSError, ValueError) as exc:
        return _fail_path(args.path, exc)
    tree = decompose(g)
    counts = tree.kind_counts()
    print(tree.serialize())
    print(
        "nodes: prime={prime} series={series} parallel={parallel} leaf={leaf}".format(
            **counts
        )
    )
    print(f"depth: {tree.depth()}")
    if args.verify:
        problems = verify_tree(g, tree)
        if problems:
            for problem in problems:
                print(f"violation: {problem}")
            return 1
        print("verify: OK")
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        if args.kind == "coprime":
            g = coprime_graph(args.n)
        elif args.kind == "cograph":
            g = random_cograph(args.n, args.seed)
        else:
            g = gnp(args.n, args.p, args.seed)
    except ValueError as exc:
        return _fail(str(exc))
    text = write_dimacs(g)
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            return _fail_path(args.output, exc)
    else:
        sys.stdout.write(text)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        config = SolverConfig(time_limit=args.time_limit)
    except ValueError as exc:
        return _fail(str(exc))
    requested = set()
    for mode in args.modes.split(","):
        mode = mode.strip().lower()
        if mode == "md":
            requested.add(bench_mod.MODE_MD)
        elif mode == "plain":
            requested.add(bench_mod.MODE_PLAIN)
        else:
            return _fail(f"unknown mode {mode!r} (expected md and/or plain)")
    # per-instance row order is always MD first
    modes = [m for m in (bench_mod.MODE_MD, bench_mod.MODE_PLAIN) if m in requested]
    # open the output first, so an unwritable path fails before any solve
    try:
        output = open(args.output, "w") if args.output else nullcontext(sys.stdout)
    except OSError as exc:
        return _fail_path(args.output, exc)
    with output as stream:
        records = bench_mod.run_bench(args.paths, modes, config)
        stream.write(bench_mod.records_to_csv(records))
    return 1 if any(r.status == "ERROR" for r in records) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdclique",
        description="Exact maximum-weight clique with modular-decomposition preprocessing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one DIMACS instance")
    p_solve.add_argument("path")
    mode = p_solve.add_mutually_exclusive_group()
    mode.add_argument("--md", action="store_true", help="decompose first (default)")
    mode.add_argument("--plain", action="store_true", help="plain branch and bound")
    p_solve.add_argument("--time-limit", type=float, default=300.0, metavar="SEC")
    p_solve.add_argument(
        "--ordering", choices=sorted(_ORDERINGS), default=Ordering.DEGREE_DESC.value
    )
    p_solve.set_defaults(func=cmd_solve)

    p_md = sub.add_parser("md", help="print the decomposition tree of an instance")
    p_md.add_argument("path")
    p_md.add_argument("--verify", action="store_true", help="check every tree invariant")
    p_md.set_defaults(func=cmd_md)

    p_gen = sub.add_parser("gen", help="generate a benchmark instance")
    p_gen.add_argument("kind", choices=["coprime", "cograph", "gnp"])
    p_gen.add_argument("n", type=int)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--p", type=float, default=0.5, help="edge probability (gnp)")
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="benchmark instances to CSV")
    p_bench.add_argument("paths", nargs="+", help="DIMACS files or directories")
    p_bench.add_argument("--time-limit", type=float, default=300.0, metavar="SEC")
    p_bench.add_argument("--modes", default="md,plain", help="comma list: md,plain")
    p_bench.add_argument("-o", "--output", default=None, help="CSV path (default stdout)")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # "always": the default filter drops a repeat from the same source line
        warnings.simplefilter("always", DimacsWarning)
        warnings.showwarning = lambda message, *_: print(
            f"warning: {message}", file=sys.stderr)
        out_of_memory = False
        try:
            code = args.func(args)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader is gone; aim stdout at devnull so that the
            # interpreter's final flush of the buffered rest cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        except MemoryError:
            out_of_memory = True
    if out_of_memory:
        # reported only here, once the traceback and the frames it held
        # alive, with the memory they used, are gone
        path = getattr(args, "path", None)
        return _fail(f"{path}: out of memory" if path else "out of memory")
    return code


if __name__ == "__main__":
    sys.exit(main())
