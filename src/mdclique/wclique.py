"""Exact maximum-weight clique by branch and bound, with two bounds.

Both searches run on the same vertex order. The suffix bound (Östergård)
is the default and the paper's baseline: for each position i, from the back
of the order forward, the search solves the suffix problem "best clique
inside {order[i..n-1]} containing order[i]" and records the suffix optimum
in `suffix_best[i]`. Two prunes drive it: the remaining candidates' total
weight, and the suffix bound of the earliest candidate. Within one suffix
pass the optimum can improve by at most the weight of order[i], so the pass
aborts as soon as that cap is reached.

The colour bound (MCQ/BBMC, weighted as in Kumlander 2004) greedily
colours each node's candidates into independent sets; a clique takes at
most one vertex per colour class, so the heaviest vertex of each class
bounds what the class can add. The search branches on the vertices of the
highest colours first, on an explicit stack.

`brute_force_clique` is the independent oracle: plain exhaustive clique
enumeration, no bounds shared with the searches above.
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


class Bound(Enum):
    SUFFIX = "suffix"
    COLOUR = "colour"


@dataclass(frozen=True)
class SolverConfig:
    """time_limit is in seconds; 0 means unlimited. The limit applies per
    solver call and is checked every 4096 search nodes.

    reduce_dominated preprocesses the instance by deleting vertices whose
    candidacy is dominated by a non-adjacent peer (see _dominance_survivors).
    It preserves the optimum weight and a witness but makes the search run
    on the surviving subproblem, so it is off by default: the default solver
    is the unmodified suffix-bound branch and bound used as the baseline.

    bound picks the search. SUFFIX, the default, is Östergård's suffix-bound
    search, the paper's baseline for plain branch and bound. COLOUR is the
    greedy-colouring search; it prunes far better on dense graphs, and the
    decomposition pipeline uses it for every prime-node quotient."""

    time_limit: float = 0.0
    ordering: Ordering = Ordering.DEGREE_DESC
    reduce_dominated: bool = False
    bound: Bound = Bound.SUFFIX

    def __post_init__(self):
        # written so that NaN, which compares false both ways, is rejected
        if not self.time_limit >= 0:
            raise ValueError(f"time limit must be >= 0, got {self.time_limit}")
        if not isinstance(self.ordering, Ordering):
            raise TypeError(f"ordering must be an Ordering, got {self.ordering!r}")
        if not isinstance(self.bound, Bound):
            raise TypeError(f"bound must be a Bound, got {self.bound!r}")


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

    After run(), with either bound: `order` is the permutation used and
    `nodes` the search-node count. Only the suffix search fills
    `suffix_best[i]`, the best clique weight within the order suffix
    starting at i (nonincreasing in i when the run completed); the colour
    search leaves it all zeros.
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
        if not self.order:
            return Solution((), 0, SolveStatus.OPTIMAL)
        limit = self.config.time_limit
        deadline = time.perf_counter() + limit if limit > 0 else 0.0
        search = self._colour if self.config.bound is Bound.COLOUR else self._suffix
        best_weight, best_mask, status = search(deadline)
        vertices = tuple(sorted(self.order[k] for k in iter_bits(best_mask)))
        return Solution(vertices, best_weight, status)

    def _suffix(self, deadline: float) -> tuple[int, int, SolveStatus]:
        """Östergård's search; returns (weight, order-space mask, status)."""
        n = len(self.order)
        perf_counter = time.perf_counter
        radj = self._radj
        rw = self._rw
        suffix_best = self.suffix_best
        unit = min(rw) == max(rw) == 1
        nodes = 0
        best_weight = 0
        best_mask = 0
        cap = 0
        # stop ends the pass (cap reached or deadline), timed_out the run
        stop = timed_out = False

        def expand(candidates: int, weight: int, clique: int) -> None:
            nonlocal nodes, best_weight, best_mask, stop, timed_out
            nodes += 1
            if nodes & 4095 == 0 and deadline and perf_counter() > deadline:
                stop = timed_out = True
                return
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
                if next_candidates:
                    expand(next_candidates, grown, clique | low)
                elif grown > best_weight:
                    best_weight = grown
                    best_mask = clique | low
                    if grown == cap:
                        stop = True
                if stop:
                    return

        # expand recurses once per clique vertex
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, n + 256))
        try:
            for i in range(n - 1, -1, -1):
                cap = best_weight + rw[i]
                stop = False
                candidates = radj[i] >> (i + 1) << (i + 1)
                if candidates:
                    expand(candidates, rw[i], 1 << i)
                elif rw[i] > best_weight:
                    best_weight = rw[i]
                    best_mask = 1 << i
                if timed_out:
                    break
                suffix_best[i] = best_weight
        finally:
            sys.setrecursionlimit(old_limit)
        self.nodes = nodes
        status = SolveStatus.TIMED_OUT if timed_out else SolveStatus.OPTIMAL
        return best_weight, best_mask, status

    def _colour(self, deadline: float) -> tuple[int, int, SolveStatus]:
        """Colour-bound search; returns (weight, order-space mask, status).

        Each node colours its candidates greedily and lists, in colouring
        order, the vertices whose bound can still beat the incumbent; it
        branches from the last listed vertex back to the first, dropping
        each from the candidates once its subtree is done. When vertex v
        is branched on, the candidates left are those coloured up to v, so
        a clique among them takes at most one vertex of each class: v's
        bound caps its weight. Bounds grow along the list, so the first
        one that fails ends the node. The current frame lives in locals
        and its ancestors on `stack`, so search depth costs no recursion.
        """
        perf_counter = time.perf_counter
        radj = self._radj
        rw = self._rw
        # q & apart[j] drops j and its neighbours from q
        apart = [~(a | 1 << j) for j, a in enumerate(radj)]

        def colour(candidates: int, need: int) -> tuple[list[int], list[int]]:
            """Greedy colouring: each class starts from the lowest uncoloured
            bit and drops that vertex's neighbours. A vertex's bound is the
            heaviest weight of every earlier class plus the heaviest in its
            own class up to and including it; returns the vertices whose
            bound exceeds need, in colouring order, and their bounds."""
            listed: list[int] = []
            bounds: list[int] = []
            base = 0
            while candidates:
                q = candidates
                top = 0
                while q:
                    low = q & -q
                    j = low.bit_length() - 1
                    candidates ^= low
                    q &= apart[j]
                    if rw[j] > top:
                        top = rw[j]
                    if base + top > need:
                        listed.append(j)
                        bounds.append(base + top)
                base += top
            return listed, bounds

        nodes = 1
        best_weight = 0
        best_mask = 0
        candidates = (1 << len(rw)) - 1
        weight = clique = 0
        listed, bounds = colour(candidates, 0)
        index = len(listed) - 1
        stack: list[tuple[int, int, int, list[int], list[int], int]] = []
        status = SolveStatus.OPTIMAL
        while True:
            if index < 0 or weight + bounds[index] <= best_weight:
                if not stack:
                    break
                candidates, weight, clique, listed, bounds, index = stack.pop()
                continue
            j = listed[index]
            index -= 1
            low = 1 << j
            candidates ^= low
            grown = weight + rw[j]
            next_candidates = candidates & radj[j]
            if next_candidates:
                nodes += 1
                if nodes & 4095 == 0 and deadline and perf_counter() > deadline:
                    status = SolveStatus.TIMED_OUT
                    break
                next_listed, next_bounds = colour(next_candidates, best_weight - grown)
                if next_listed:
                    stack.append((candidates, weight, clique, listed, bounds, index))
                    candidates, weight, clique = next_candidates, grown, clique | low
                    listed, bounds = next_listed, next_bounds
                    index = len(listed) - 1
            elif grown > best_weight:
                best_weight = grown
                best_mask = clique | low
        self.nodes = nodes
        return best_weight, best_mask, status


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
