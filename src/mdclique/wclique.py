"""Exact maximum-weight clique by branch and bound with suffix bounds.

Vertices are processed in a fixed order. For each position i (from the back
of the order forward) the search solves the suffix problem "best clique
inside {order[i..n-1]} containing order[i]", recording the suffix optimum in
`suffix_best[i]`. Two prunes drive the search: the remaining candidates'
total weight, and the suffix bound of the earliest candidate. Within one
suffix pass, the optimum can improve by at most the weight of order[i], so
the pass aborts as soon as that cap is reached.

`brute_force_clique` is the independent oracle: plain exhaustive clique
enumeration, no bounds shared with the search above.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from enum import Enum

from .graph import Graph, Solution, SolveStatus, _compress, iter_bits


class Ordering(Enum):
    DEGREE_DESC = "degree"
    WEIGHT_DESC = "weight"
    NATURAL = "natural"


@dataclass(frozen=True)
class SolverConfig:
    """time_limit is in seconds; 0 means unlimited. The limit applies per
    solver call and is checked every 4096 search nodes.

    reduce_dominated preprocesses the instance by deleting vertices whose
    candidacy is dominated by a non-adjacent peer (see _dominance_survivors).
    It preserves the optimum weight and a witness but makes the search run
    on the surviving subproblem, so it is off by default: the default solver
    is the unmodified suffix-bound branch and bound used as the baseline."""

    time_limit: float = 0.0
    ordering: Ordering = Ordering.DEGREE_DESC
    reduce_dominated: bool = False

    def __post_init__(self):
        # written so that NaN, which compares false both ways, is rejected
        if not self.time_limit >= 0:
            raise ValueError(f"time limit must be >= 0, got {self.time_limit}")


DEFAULT_CONFIG = SolverConfig()


def order_vertices(g: Graph, strategy: Ordering) -> list[int]:
    """Vertex permutation for the search: descending degree or weight
    (ties by id), or the natural 0..n-1 order."""
    ids = list(range(g.n))
    if strategy is Ordering.DEGREE_DESC:
        ids.sort(key=lambda v: (-g.degree(v), v))
    elif strategy is Ordering.WEIGHT_DESC:
        ids.sort(key=lambda v: (-g.weights[v], v))
    return ids


class _Deadline(Exception):
    pass


def _dominance_survivors(g: Graph) -> int:
    """Mask of vertices left after iterated dominance deletion.

    A vertex u may be deleted while some non-adjacent alive v satisfies
    N(u) ∩ alive ⊆ N(v) ∩ alive and w(u) <= w(v): any clique through u maps
    to one through v of at least the same weight (v is compatible with
    everything u is, and cannot already be in a clique containing u). Each
    deletion is justified against the current alive set, so applying them
    one at a time to a fixpoint preserves the maximum weight and keeps a
    witness among the survivors.
    """
    adj = g.adj
    weights = g.weights
    alive = g.full_mask
    changed = True
    while changed:
        changed = False
        for u in iter_bits(alive):
            au = adj[u] & alive
            wu = weights[u]
            for v in iter_bits(alive & ~adj[u] & ~(1 << u)):
                if wu <= weights[v] and au & ~adj[v] == 0:
                    alive &= ~(1 << u)
                    changed = True
                    break
    return alive


class CliqueSearch:
    """One branch-and-bound run over a fixed graph and config.

    After run(): `order` is the permutation used, `suffix_best[i]` the best
    clique weight within the order suffix starting at i (nonincreasing in i
    when the run completed), `nodes` the search-node count.
    """

    def __init__(self, g: Graph, config: SolverConfig = DEFAULT_CONFIG):
        self.config = config
        alive = _dominance_survivors(g) if config.reduce_dominated else g.full_mask
        self.order = [v for v in order_vertices(g, config.ordering) if alive >> v & 1]
        # adjacency and weights reindexed into order space: bit b of
        # _radj[i] means order[i] ~ order[b], so the lowest set bit of a
        # candidate mask is the earliest order position in it
        self._radj = _compress(g.adj, self.order, self.order)
        self._rw = [g.weights[v] for v in self.order]
        self.suffix_best = [0] * len(self.order)
        self.nodes = 0

    def run(self) -> Solution:
        n = len(self.order)
        if n == 0:
            return Solution((), 0, SolveStatus.OPTIMAL)
        if sys.getrecursionlimit() < n + 256:
            sys.setrecursionlimit(n + 256)
        limit = self.config.time_limit
        deadline = time.perf_counter() + limit if limit > 0 else 0.0
        perf_counter = time.perf_counter
        radj = self._radj
        rw = self._rw
        suffix_best = self.suffix_best
        unit = min(rw) == max(rw) == 1
        nodes = 0
        best_weight = 0
        best_mask = 0
        stack: list[int] = []
        cap = 0
        cap_hit = False

        def expand(candidates: int, weight: int) -> None:
            nonlocal nodes, best_weight, best_mask, cap_hit
            nodes += 1
            if nodes & 4095 == 0 and deadline and perf_counter() > deadline:
                raise _Deadline
            if unit:
                remaining = candidates.bit_count()
            else:
                remaining = 0
                m = candidates
                while m:
                    low = m & -m
                    remaining += rw[low.bit_length() - 1]
                    m ^= low
            while candidates:
                if weight + remaining <= best_weight:
                    return
                low = candidates & -candidates
                j = low.bit_length() - 1
                if weight + suffix_best[j] <= best_weight:
                    return
                candidates ^= low
                remaining -= rw[j]
                grown = weight + rw[j]
                next_candidates = candidates & radj[j]
                stack.append(j)
                if next_candidates:
                    expand(next_candidates, grown)
                elif grown > best_weight:
                    best_weight = grown
                    mask = 0
                    for k in stack:
                        mask |= 1 << k
                    best_mask = mask
                    if grown == cap:
                        cap_hit = True
                stack.pop()
                if cap_hit:
                    return

        status = SolveStatus.OPTIMAL
        try:
            for i in range(n - 1, -1, -1):
                cap = best_weight + rw[i]
                cap_hit = False
                stack.clear()
                stack.append(i)
                candidates = radj[i] >> (i + 1) << (i + 1)
                if candidates:
                    expand(candidates, rw[i])
                elif rw[i] > best_weight:
                    best_weight = rw[i]
                    best_mask = 1 << i
                suffix_best[i] = best_weight
        except _Deadline:
            status = SolveStatus.TIMED_OUT
        self.nodes = nodes
        vertices = tuple(sorted(self.order[k] for k in iter_bits(best_mask)))
        return Solution(vertices, best_weight, status)


def max_weight_clique(g: Graph, config: SolverConfig = DEFAULT_CONFIG) -> Solution:
    """Exact maximum-weight clique (status OPTIMAL), or the best clique found
    before the time limit (status TIMED_OUT)."""
    return CliqueSearch(g, config).run()


def brute_force_clique(g: Graph, limit: int = 22) -> Solution:
    """Oracle: exhaustive enumeration of every clique, depth-first in
    ascending vertex order, keeping the first (= lexicographically smallest)
    witness among maximum-weight cliques."""
    if g.n > limit:
        raise ValueError(f"n={g.n} exceeds brute-force limit {limit}")
    adj = g.adj
    weights = g.weights
    best_weight = 0
    best: tuple[int, ...] = ()
    stack: list[int] = []

    def visit(candidates: int, weight: int) -> None:
        nonlocal best_weight, best
        for v in iter_bits(candidates):
            grown = weight + weights[v]
            stack.append(v)
            if grown > best_weight:
                best_weight = grown
                best = tuple(stack)
            above = ~((1 << (v + 1)) - 1)
            visit(candidates & adj[v] & above, grown)
            stack.pop()

    visit(g.full_mask, 0)
    return Solution(best, best_weight, SolveStatus.OPTIMAL)
