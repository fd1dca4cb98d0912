"""Maximum-weight clique via the decomposition tree.

The tree is folded bottom-up, every child before its parent: a leaf
contributes its own vertex; a parallel node takes its best child (no clique
crosses disconnected parts); a series node takes the union of all child
cliques (all parts are fully interconnected); a prime node builds the
weighted quotient on its children, already in the solver's search order,
runs the branch-and-bound solver on it, and takes the child cliques of the
chosen quotient vertices. Each node keeps only its clique's weight and the
children that clique uses; one walk from the root collects the vertices,
so the fold stays linear in the size of the tree however deep it is.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .graph import Graph, Solution, SolveStatus
from .mdtree import MDNode, MDTree, NodeKind, decompose, quotient
from .wclique import DEFAULT_CONFIG, Bound, SolverConfig, _search_order, max_weight_clique


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
    # the colour bound closes dense prime quotients that the suffix bound cannot
    prime_config = replace(config, bound=Bound.COLOUR)
    nodes = [node]
    for parent in nodes:
        nodes.extend(parent.children)
    # reversed breadth-first order puts every child before its parent;
    # joining child cliques at every level would be quadratic on deep trees
    weight: dict[MDNode, int] = {}
    used: dict[MDNode, tuple[MDNode, ...]] = {}
    timed_out = False
    weights = g.weights
    parallel, series = NodeKind.PARALLEL, NodeKind.SERIES
    for current in reversed(nodes):
        children = current.children
        if not children:
            weight[current] = weights[current.vertex]
            continue
        parts = list(map(weight.pop, children))
        if current.kind is parallel:
            # index() of the maximum is the first heaviest child
            heaviest = parts.index(max(parts))
            weight[current] = parts[heaviest]
            used[current] = (children[heaviest],)
        elif current.kind is series:
            weight[current] = sum(parts)
            used[current] = children
        else:
            # the quotient is built in the order the search would impose on
            # it, so the search keeps it as it is and gathers no second copy
            reps = [(c.span & -c.span).bit_length() - 1 for c in children]
            repmask = sum(1 << r for r in reps)
            order = _search_order(prime_config.ordering, len(reps),
                                  lambda i: (g.adj[reps[i]] & repmask).bit_count(),
                                  parts.__getitem__)
            q = quotient(g, current, parts, order)
            picked = max_weight_clique(q, prime_config)
            timed_out = timed_out or picked.status is SolveStatus.TIMED_OUT
            weight[current] = picked.weight
            used[current] = tuple(children[order[qv]] for qv in picked.vertices)
    vertices: list[int] = []
    pending = [node]
    while pending:
        current = pending.pop()
        if current.children:
            pending.extend(used[current])
        else:
            vertices.append(current.vertex)
    status = SolveStatus.TIMED_OUT if timed_out else SolveStatus.OPTIMAL
    return Solution(tuple(sorted(vertices)), weight[node], status)


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
