"""Exact maximum-weight clique with modular-decomposition preprocessing."""

from .graph import (
    DimacsError,
    DimacsWarning,
    Graph,
    Solution,
    SolveStatus,
    induced_subgraph,
    is_clique,
    parse_dimacs,
    set_weight,
    write_dimacs,
)
from .mdtree import (
    MDNode,
    MDTree,
    NodeKind,
    decompose,
    enumerate_modules_bruteforce,
    is_module,
    quotient,
    verify_tree,
)
from .wclique import (
    Bound,
    CliqueSearch,
    Ordering,
    SolverConfig,
    brute_force_clique,
    max_weight_clique,
    order_vertices,
)
from .mdsolve import SolveInfo, solve, solve_node
from .generators import coprime_graph, gnp, random_cograph, random_partition
from .bench import BenchRecord, bench_graph, records_to_csv, run_bench

__all__ = [
    "BenchRecord",
    "Bound",
    "CliqueSearch",
    "DimacsError",
    "DimacsWarning",
    "Graph",
    "MDNode",
    "MDTree",
    "NodeKind",
    "Ordering",
    "Solution",
    "SolveInfo",
    "SolveStatus",
    "SolverConfig",
    "bench_graph",
    "brute_force_clique",
    "coprime_graph",
    "decompose",
    "enumerate_modules_bruteforce",
    "gnp",
    "induced_subgraph",
    "is_clique",
    "is_module",
    "max_weight_clique",
    "order_vertices",
    "parse_dimacs",
    "quotient",
    "random_cograph",
    "random_partition",
    "records_to_csv",
    "run_bench",
    "set_weight",
    "solve",
    "solve_node",
    "verify_tree",
    "write_dimacs",
]

__version__ = "0.1.0"
