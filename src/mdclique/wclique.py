"""Exact maximum-weight clique by branch and bound, with two bounds.

Both searches run on the same vertex order. The suffix bound (Östergård)
is the default and the paper's baseline: for each position i, from the back
of the order forward, the search solves the suffix problem "best clique
inside {order[i..n-1]} containing order[i]" and records the suffix optimum
in `suffix_best[i]`. Two prunes drive it: the remaining candidates' total
weight, and the suffix bound of the earliest candidate. Within one suffix
pass the optimum can improve by at most the weight of order[i], so the pass
aborts as soon as that cap is reached. A child node is counted and bounded
by its parent before it is entered, so the many children that the
remaining weight prunes are never pushed; weighted candidate sets are
summed a byte at a time from per-byte tables.

The colour bound (MCQ/BBMC, weighted as in Kumlander 2004) greedily
colours each node's candidates into independent sets; a clique takes at
most one vertex per colour class, so the heaviest vertex of each class
bounds what the class can add. The search branches on the vertices of the
highest colours first.

Both searches keep the current node in locals and its ancestors on an
explicit stack, so a deep clique costs no recursion, and neither touches
process-wide state such as the recursion limit: threads may solve at once.

`brute_force_clique` is the independent oracle: plain exhaustive clique
enumeration, no bounds shared with the searches above.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from operator import getitem
from typing import Callable

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

    bound picks the search. SUFFIX, the default, is Östergård's suffix-bound
    search, the paper's baseline for plain branch and bound. COLOUR is the
    greedy-colouring search; it prunes far better on dense graphs, and the
    decomposition pipeline uses it for every prime-node quotient."""

    time_limit: float = 0.0
    ordering: Ordering = Ordering.DEGREE_DESC
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


def _search_order(strategy: Ordering, n: int, degree: Callable[[int], int],
                 weight: Callable[[int], int]) -> list[int]:
    """Permutation of 0..n-1 for the search: descending degree(v) or
    weight(v), ties by id, or the natural order. A graph whose vertices
    already stand in this order gets the identity back."""
    if strategy is Ordering.NATURAL:
        return list(range(n))
    key = degree if strategy is Ordering.DEGREE_DESC else weight
    # the sort is stable even in reverse, so equal keys keep ascending ids
    return sorted(range(n), key=key, reverse=True)


def order_vertices(g: Graph, strategy: Ordering) -> list[int]:
    """Vertex permutation for the search on g (see `_search_order`)."""
    return _search_order(strategy, g.n, g.degree, g.weights.__getitem__)


def _bit_weight(mask: int, weights: list[int]) -> int:
    """Sum of weights[v] over the set bits v of mask, one bit at a time."""
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


def _byte_tables(weights: list[int]) -> list[list[int]]:
    """Table k maps a byte b to the sum of weights[8k + t] over the set bits
    t of b. Each table doubles from [0], one weight at a time, so it costs
    one list comprehension per weight rather than a Python step per entry."""
    tables = []
    for start in range(0, len(weights), 8):
        table = [0]
        for w in weights[start:start + 8]:
            table += [x + w for x in table]
        tables.append(table)
    return tables


def _weigher(weights: list[int]) -> Callable[[int], int]:
    """A function that sums weights[v] over the set bits v of a mask.

    A mask with fewer than len(weights) / 64 bits walks its bits, the
    sparse rule of `_compress`; any other adds one table entry per byte of
    the mask. The tables are built at the first such mask, so a search that
    only meets sparse masks never builds them.
    """
    n = len(weights)
    size = (n + 7) // 8
    tables = None

    def weigh(mask: int) -> int:
        nonlocal tables
        if mask.bit_count() << 6 < n:
            return _bit_weight(mask, weights)
        if tables is None:
            tables = _byte_tables(weights)
        return sum(map(getitem, tables, mask.to_bytes(size, "little")))

    return weigh


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
        self.order = order_vertices(g, config.ordering)
        # adjacency and weights reindexed into order space: bit b of
        # _radj[i] means order[i] ~ order[b], so the lowest set bit of a
        # candidate mask is the earliest order position in it; a graph
        # already in search order, as the fold's quotients are, is copied
        self._radj = _compress(g.adj, self.order)
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
        """Östergård's search; returns (weight, order-space mask, status).

        A parent counts each child node, runs the deadline check every 4096
        nodes, sums the child's candidate weight and enters the child only
        if that total can beat the incumbent. Inside a node, `need` is what
        the clique must still add; it changes only when a child returns or
        the incumbent improves. The current node lives in locals and its
        ancestors on `stack`, so search depth costs no recursion and the
        search touches no process-wide state.
        """
        n = len(self.order)
        perf_counter = time.perf_counter
        radj = self._radj
        rw = self._rw
        suffix_best = self.suffix_best
        weigh = int.bit_count if min(rw) == max(rw) == 1 else _weigher(rw)
        nodes = 0
        best_weight = 0
        best_mask = 0
        stack: list[tuple[int, int, int, int]] = []
        status = SolveStatus.OPTIMAL
        for i in range(n - 1, -1, -1):
            cap = best_weight + rw[i]
            candidates = radj[i] >> (i + 1) << (i + 1)
            if candidates:
                nodes += 1
                if nodes & 4095 == 0 and deadline and perf_counter() > deadline:
                    status = SolveStatus.TIMED_OUT
                    break
                # the pass's root; a root that cannot beat the incumbent
                # ends at once, as an unentered child would
                weight = rw[i]
                clique = 1 << i
                remaining = weigh(candidates)
                need = best_weight - weight
                while True:
                    while remaining > need and candidates:
                        low = candidates & -candidates
                        j = low.bit_length() - 1
                        if suffix_best[j] <= need:
                            break
                        candidates ^= low
                        remaining -= rw[j]
                        grown = weight + rw[j]
                        next_candidates = candidates & radj[j]
                        if next_candidates:
                            nodes += 1
                            if nodes & 4095 == 0 and deadline and perf_counter() > deadline:
                                # an empty stack ends the pass, and the
                                # status the run
                                status = SolveStatus.TIMED_OUT
                                stack.clear()
                                break
                            total = weigh(next_candidates)
                            if grown + total > best_weight:
                                stack.append((candidates, weight, clique, remaining))
                                # not one four-name assignment, which would
                                # build and unpack a tuple per entered child
                                candidates, weight, remaining = next_candidates, grown, total
                                clique |= low
                                need = best_weight - grown
                        elif grown > best_weight:
                            best_weight = grown
                            best_mask = clique | low
                            # the pass cannot do better: leave it
                            if grown == cap:
                                stack.clear()
                                break
                            need = best_weight - weight
                    # the node is done: resume its parent, if it has one
                    if not stack:
                        break
                    candidates, weight, clique, remaining = stack.pop()
                    need = best_weight - weight
                if status is SolveStatus.TIMED_OUT:
                    break
            elif rw[i] > best_weight:
                best_weight = rw[i]
                best_mask = 1 << i
            suffix_best[i] = best_weight
        self.nodes = nodes
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
        one that fails ends the node. A child is counted, and coloured
        against the incumbent, by its parent before it is entered. The
        current frame lives in locals and its ancestors on `stack`, so
        search depth costs no recursion.
        """
        perf_counter = time.perf_counter
        radj = self._radj
        rw = self._rw
        # q & apart[j] drops j and its neighbours from q; a positive mask
        # keeps the AND off CPython's two's-complement path for negative ints
        full = (1 << len(rw)) - 1
        apart = [full ^ (a | 1 << j) for j, a in enumerate(radj)]

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
                room = need - base
                while q:
                    low = q & -q
                    j = low.bit_length() - 1
                    candidates ^= low
                    q &= apart[j]
                    if rw[j] > top:
                        top = rw[j]
                    if top > room:
                        listed.append(j)
                        bounds.append(base + top)
                base += top
            return listed, bounds

        nodes = 1
        best_weight = 0
        best_mask = 0
        candidates = full
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
