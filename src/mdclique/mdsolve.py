"""Maximum-weight clique via the decomposition tree.

The tree is folded bottom-up, every child before its parent: a leaf
contributes its own vertex; a parallel node takes its best child (no clique
crosses disconnected parts); a series node takes the union of all child
cliques (all parts are fully interconnected); a prime node builds the
weighted quotient on its children, runs the branch-and-bound solver on it,
and expands the chosen quotient vertices back to their child cliques.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import chain
from operator import itemgetter

from .graph import Graph, Solution, SolveStatus
from .mdtree import MDNode, MDTree, NodeKind, decompose, quotient
from .wclique import DEFAULT_CONFIG, Bound, SolverConfig, max_weight_clique


@dataclass(frozen=True)
class SolveInfo:
    """Timing split and tree of one solve run; prime_solver_calls is read
    from the tree after the clocks stop. A plain run builds no tree: its
    tree is None and its md_seconds and prime_solver_calls are 0."""

    md_seconds: float
    solve_seconds: float
    tree: MDTree | None

    @property
    def prime_solver_calls(self) -> int:
        """Quotient solves in the fold, one per prime node."""
        return 0 if self.tree is None else self.tree.kind_counts()["prime"]


def solve_node(g: Graph, node: MDNode, config: SolverConfig = DEFAULT_CONFIG) -> Solution:
    """Best clique within `node`'s span, its vertices sorted. The config's
    time limit applies to each prime-node quotient solve separately; the
    status is TIMED_OUT when any of them hit it (the weight is then a valid
    lower bound)."""
    # quotient solves always use the colour bound, which closes dense prime
    # quotients that the suffix bound of plain branch and bound cannot, and
    # the dominance reduction, which is sound for any instance. It does not
    # change the colour search's node count on the benchmark's quotients; it
    # shrinks the search's reindexing gather (coprime 1200: 642 rows to 109)
    prime_config = replace(config, reduce_dominated=True, bound=Bound.COLOUR)
    order = [node]
    for parent in order:
        order.extend(parent.children)
    # reversed breadth-first order puts every child before its parent;
    # inner nodes concatenate child cliques unsorted and only the returned
    # clique is sorted, since sorting at every level is quadratic on deep trees
    solved: dict[MDNode, tuple[int, tuple[int, ...]]] = {}
    timed_out = False
    for current in reversed(order):
        if current.is_leaf:
            v = current.vertex
            solved[current] = (g.weights[v], (v,))
            continue
        parts = [solved.pop(child) for child in current.children]
        if current.kind is NodeKind.PARALLEL:
            solved[current] = max(parts, key=itemgetter(0))
        elif current.kind is NodeKind.SERIES:
            solved[current] = (sum(weight for weight, _ in parts),
                               tuple(chain.from_iterable(vertices for _, vertices in parts)))
        else:
            q = quotient(g, current, [weight for weight, _ in parts])
            picked = max_weight_clique(q, prime_config)
            timed_out = timed_out or picked.status is SolveStatus.TIMED_OUT
            solved[current] = (picked.weight,
                               tuple(chain.from_iterable(parts[qv][1] for qv in picked.vertices)))
    weight, vertices = solved[node]
    status = SolveStatus.TIMED_OUT if timed_out else SolveStatus.OPTIMAL
    return Solution(tuple(sorted(vertices)), weight, status)


def solve(g: Graph, config: SolverConfig = DEFAULT_CONFIG, *,
          md: bool = True) -> tuple[Solution, SolveInfo]:
    """Decompose g, fold the tree, and return the whole-graph solution with
    the decomposition and fold times reported separately. With md=False,
    run plain branch and bound on the whole graph instead."""
    if g.n < 1:
        raise ValueError("cannot solve an empty graph")
    t0 = time.perf_counter()
    if not md:
        solution = max_weight_clique(g, config)
        return solution, SolveInfo(0.0, time.perf_counter() - t0, None)
    tree = decompose(g)
    t1 = time.perf_counter()
    solution = solve_node(g, tree.root, config)
    return solution, SolveInfo(t1 - t0, time.perf_counter() - t1, tree)
