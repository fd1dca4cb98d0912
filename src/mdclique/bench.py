"""Benchmark harness: solve instances with and without decomposition
preprocessing under a time cap, timing the decomposition separately, and
emit one CSV row per (instance, mode)."""
from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable

from .graph import DimacsWarning, Graph, is_clique, parse_dimacs, set_weight
from .mdsolve import solve
from .wclique import SolverConfig

MODE_MD = "MD"
MODE_PLAIN = "Plain"


@dataclass(frozen=True)
class BenchRecord:
    """One CSV row; the field order is the column order."""

    instance: str
    n: int
    m: int
    mode: str
    clique_weight: int
    status: str
    md_time_s: float
    solve_time_s: float
    total_time_s: float
    prime_nodes: int
    tree_depth: int

    def row(self) -> list[str]:
        values = (getattr(self, name) for name in CSV_COLUMNS)
        return [f"{v:.6f}" if isinstance(v, float) else str(v) for v in values]


CSV_COLUMNS = [f.name for f in fields(BenchRecord)]


def error_record(instance: str, mode: str) -> BenchRecord:
    return BenchRecord(instance, 0, 0, mode, 0, "ERROR", 0.0, 0.0, 0.0, 0, 0)


def load_instance(path: str | Path) -> Graph:
    """Read and parse one DIMACS file. Raises OSError, DimacsError, or
    ValueError for a graph with no vertices, which has nothing to solve.
    Each warning from the parser is issued again with the path in front."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DimacsWarning)
        g = parse_dimacs(Path(path).read_bytes())
    for w in caught:
        warnings.warn(f"{path}: {w.message}", w.category, stacklevel=2)
    if g.n < 1:
        raise ValueError("graph has no vertices")
    return g


def bench_graph(instance: str, g: Graph, mode: str,
                config: SolverConfig) -> BenchRecord:
    """Solve one instance in one mode and build its record. The returned
    witness is re-verified against the graph; a mismatch is a hard error."""
    if mode not in (MODE_MD, MODE_PLAIN):
        raise ValueError(f"unknown mode {mode!r}")
    solution, info = solve(g, config, md=mode == MODE_MD)
    if not is_clique(g, solution.vertices):
        raise RuntimeError(f"{instance}/{mode}: reported witness is not a clique")
    if set_weight(g, solution.vertices) != solution.weight:
        raise RuntimeError(f"{instance}/{mode}: witness weight mismatch")
    return BenchRecord(
        instance=instance,
        n=g.n,
        m=g.m,
        mode=mode,
        clique_weight=solution.weight,
        status=solution.status.value,
        md_time_s=info.md_seconds,
        solve_time_s=info.solve_seconds,
        total_time_s=info.md_seconds + info.solve_seconds,
        prime_nodes=info.prime_solver_calls,
        tree_depth=0 if info.tree is None else info.tree.depth(),
    )


def expand_paths(paths: Iterable[str | Path]) -> list[Path]:
    """Files stay as given; directories expand to their sorted *.clq, *.col
    and *.dimacs files."""
    out: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            out.extend(
                sorted(
                    child
                    for child in p.iterdir()
                    if child.suffix in (".clq", ".col", ".dimacs") and child.is_file()
                )
            )
        else:
            out.append(p)
    return out


def run_bench(paths: Iterable[str | Path], modes: list[str],
              config: SolverConfig) -> list[BenchRecord]:
    """One record per (instance, mode), instances in input order, MD before
    Plain. A file that fails to load, or holds no vertex, yields ERROR
    rows and processing continues."""
    records: list[BenchRecord] = []
    for path in expand_paths(paths):
        name = path.stem
        try:
            g = load_instance(path)
        except (OSError, ValueError):
            records.extend(error_record(name, mode) for mode in modes)
            continue
        for mode in modes:
            records.append(bench_graph(name, g, mode, config))
    return records


def records_to_csv(records: Iterable[BenchRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow(record.row())
    return buf.getvalue()
