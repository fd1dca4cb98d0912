from __future__ import annotations

import random
import sys

import pytest

from mdclique import (
    Bound,
    CliqueSearch,
    Graph,
    Ordering,
    SolveStatus,
    SolverConfig,
    brute_force_clique,
    coprime_graph,
    gnp,
    induced_subgraph,
    is_clique,
    max_weight_clique,
    order_vertices,
    set_weight,
)
from conftest import weighted_gnp

PATH_QUOTIENT = Graph(4, [(0, 1), (1, 2), (2, 3)], weights=[3, 1, 1, 1])


class TestOrderVertices:
    def test_degree_desc_puts_hub_first(self, hub7):
        order = order_vertices(hub7, Ordering.DEGREE_DESC)
        assert order == [3, 0, 1, 2, 4, 5, 6]

    def test_natural_is_identity(self, hub7):
        assert order_vertices(hub7, Ordering.NATURAL) == list(range(7))

    def test_weight_desc_puts_heaviest_first(self):
        order = order_vertices(PATH_QUOTIENT, Ordering.WEIGHT_DESC)
        assert order[0] == 0
        assert order == [0, 1, 2, 3]


class TestMaxWeightClique:
    def test_worked_path_example(self):
        sol = max_weight_clique(PATH_QUOTIENT)
        assert sol.weight == 4
        assert sol.vertices == (0, 1)
        assert sol.status is SolveStatus.OPTIMAL

    def test_weighted_triangle_takes_all(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)], weights=[1, 2, 3])
        sol = max_weight_clique(g)
        assert sol.weight == 6
        assert sol.vertices == (0, 1, 2)

    def test_empty_graph(self):
        sol = max_weight_clique(Graph(0))
        assert sol.vertices == () and sol.weight == 0 and sol.status is SolveStatus.OPTIMAL

    def test_single_vertex(self):
        sol = max_weight_clique(Graph(1, weights=[5]))
        assert sol.weight == 5 and sol.vertices == (0,)

    @pytest.mark.parametrize("trial", range(50))
    def test_matches_bruteforce_on_gnp16(self, trial):
        g = weighted_gnp(16, 0.5, seed=9000 + trial)
        fast = max_weight_clique(g)
        slow = brute_force_clique(g)
        assert fast.weight == slow.weight
        assert is_clique(g, fast.vertices)
        assert set_weight(g, fast.vertices) == fast.weight

    def test_all_orderings_agree(self):
        rng = random.Random(77)
        for _ in range(25):
            g = weighted_gnp(rng.randint(1, 14), rng.random(), seed=rng.randint(0, 10**9))
            weights = {
                max_weight_clique(g, SolverConfig(ordering=o, bound=b)).weight
                for o in Ordering for b in Bound
            }
            assert len(weights) == 1

    def test_unit_weights_give_cardinality(self):
        rng = random.Random(88)
        for _ in range(20):
            g = gnp(rng.randint(1, 15), rng.random(), seed=rng.randint(0, 10**9))
            sol = max_weight_clique(g)
            assert sol.weight == len(sol.vertices)
            assert sol.weight == brute_force_clique(g).weight

    def test_deterministic(self):
        g = weighted_gnp(15, 0.6, seed=4242)
        runs = {max_weight_clique(g) for _ in range(3)}
        assert len(runs) == 1

    def test_dominance_reduction_agrees(self):
        rng = random.Random(99)
        cfg = SolverConfig(reduce_dominated=True)
        for _ in range(60):
            g = weighted_gnp(rng.randint(0, 14), rng.random(), seed=rng.randint(0, 10**9))
            reduced = max_weight_clique(g, cfg)
            assert reduced.weight == brute_force_clique(g).weight
            assert is_clique(g, reduced.vertices)
            assert set_weight(g, reduced.vertices) == reduced.weight


class TestSearchState:
    def test_suffix_bounds_match_suffix_optima(self):
        rng = random.Random(111)
        for _ in range(25):
            g = weighted_gnp(rng.randint(1, 12), rng.random(), seed=rng.randint(0, 10**9))
            search = CliqueSearch(g)
            sol = search.run()
            order = search.order
            for i in range(g.n):
                suffix, _ = induced_subgraph(g, order[i:])
                assert search.suffix_best[i] == brute_force_clique(suffix).weight
            assert search.suffix_best[0] == sol.weight

    def test_monotone_bounds(self):
        rng = random.Random(112)
        for _ in range(30):
            g = weighted_gnp(rng.randint(1, 15), rng.random(), seed=rng.randint(0, 10**9))
            search = CliqueSearch(g)
            search.run()
            c = search.suffix_best
            assert all(c[i] >= c[i + 1] for i in range(len(c) - 1))

    def test_last_suffix_bound_is_last_weight(self):
        g = weighted_gnp(12, 0.5, seed=777)
        search = CliqueSearch(g)
        search.run()
        assert search.suffix_best[-1] == g.weights[search.order[-1]]

    def test_suffix_bounds_hold_under_reduction(self):
        g = weighted_gnp(14, 0.5, seed=778)
        search = CliqueSearch(g, SolverConfig(reduce_dominated=True))
        sol = search.run()
        assert search.suffix_best[0] == sol.weight == brute_force_clique(g).weight


class TestTimeout:
    def test_times_out_with_valid_incumbent(self):
        # this instance needs ~84k search nodes, far beyond one 4096-node
        # deadline-check interval, so any positive limit this small trips
        g = gnp(80, 0.7, seed=5)
        search = CliqueSearch(g, SolverConfig(time_limit=1e-9))
        sol = search.run()
        assert sol.status is SolveStatus.TIMED_OUT
        assert search.nodes == 4096
        assert sol.weight >= 1
        assert_witness(g, sol)

    def test_zero_limit_means_unlimited(self):
        g = weighted_gnp(14, 0.5, seed=55)
        sol = max_weight_clique(g, SolverConfig(time_limit=0.0))
        assert sol.status is SolveStatus.OPTIMAL

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(time_limit=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(time_limit=float("nan"))

    @pytest.mark.parametrize("field, value, kind", [
        ("ordering", "degree", "an Ordering"), ("bound", "colour", "a Bound"),
    ])
    def test_non_member_rejected(self, field, value, kind):
        with pytest.raises(TypeError, match=f"^{field} must be {kind}, got '{value}'$"):
            SolverConfig(**{field: value})


def complete_graph(n: int) -> Graph:
    return Graph.from_adjacency(n, [((1 << n) - 1) ^ (1 << v) for v in range(n)])


class TestSuffixRecursionLimit:
    @pytest.mark.parametrize("n, edges", [(1000, False), (1100, True)])
    def test_caller_limit_restored(self, n, edges):
        # the suffix search recurses once per clique vertex, so it raises
        # the limit for its run and must put the caller's back
        g = complete_graph(n) if edges else Graph(n)
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            sol = max_weight_clique(g)
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(old_limit)
        assert sol.status is SolveStatus.OPTIMAL and sol.weight == (n if edges else 1)


COLOUR = SolverConfig(bound=Bound.COLOUR)
COLOUR_REDUCED = SolverConfig(bound=Bound.COLOUR, reduce_dominated=True)


def assert_witness(g, sol):
    assert is_clique(g, sol.vertices)
    assert set_weight(g, sol.vertices) == sol.weight
    assert sol.vertices == tuple(sorted(sol.vertices))


class TestColourBound:
    @pytest.mark.parametrize("chunk", range(10))
    def test_matches_bruteforce(self, chunk):
        # 100 graphs per chunk with n <= 20: unit weights, or weights up to
        # 10 or 200, each searched with and without the dominance reduction
        rng = random.Random(4000 + chunk)
        for _ in range(100):
            n, p, seed = rng.randint(0, 20), rng.random(), rng.randint(0, 10**9)
            max_weight = rng.choice([1, 10, 200])
            g = gnp(n, p, seed) if max_weight == 1 else weighted_gnp(n, p, seed, max_weight)
            expected = brute_force_clique(g).weight
            for config in (COLOUR, COLOUR_REDUCED):
                sol = max_weight_clique(g, config)
                assert sol.status is SolveStatus.OPTIMAL
                assert sol.weight == expected
                assert_witness(g, sol)

    def test_matches_suffix_search(self):
        # p stops at 0.85: above it the suffix search alone takes seconds
        # per graph at these sizes
        rng = random.Random(4100)
        for _ in range(200):
            n, p, seed = rng.randint(30, 60), rng.uniform(0, 0.85), rng.randint(0, 10**9)
            g = weighted_gnp(n, p, seed, rng.choice([1, 10, 200]))
            sol = max_weight_clique(g, COLOUR)
            assert sol.weight == max_weight_clique(g).weight
            assert_witness(g, sol)

    def test_search_state_after_run(self):
        g = weighted_gnp(40, 0.6, seed=4300)
        search = CliqueSearch(g, COLOUR_REDUCED)
        sol = search.run()
        assert set(sol.vertices) <= set(search.order)
        assert search.nodes >= 1
        # the suffix bounds belong to the suffix search alone
        assert search.suffix_best == [0] * len(search.order)

    def test_times_out_with_valid_incumbent(self):
        # the colour search needs about 548k nodes on this instance, far
        # beyond one 4096-node deadline-check interval, so any positive
        # limit this small trips at the first check
        g = gnp(150, 0.9, seed=5)
        search = CliqueSearch(g, SolverConfig(time_limit=1e-9, bound=Bound.COLOUR))
        sol = search.run()
        assert sol.status is SolveStatus.TIMED_OUT
        assert search.nodes == 4096
        assert sol.weight >= 1
        assert_witness(g, sol)

    def test_deep_search_within_default_recursion_limit(self):
        # a complete graph puts every vertex on one root-to-leaf path
        n = 1200
        g = complete_graph(n)
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            sol = max_weight_clique(g, COLOUR)
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(old_limit)
        assert sol.weight == n and sol.vertices == tuple(range(n))


class TestBruteForce:
    def test_hub7(self, hub7):
        sol = brute_force_clique(hub7)
        assert sol.weight == 4
        assert sol.vertices == (0, 1, 2, 3)
        assert sol.status is SolveStatus.OPTIMAL

    def test_edgeless_takes_heaviest_vertex(self):
        g = Graph(2, weights=[5, 2])
        sol = brute_force_clique(g)
        assert sol.weight == 5 and sol.vertices == (0,)

    def test_coprime8_unit(self):
        sol = brute_force_clique(coprime_graph(8))
        assert sol.weight == 5
        assert sol.vertices == (0, 1, 2, 4, 6)  # numbers {1,2,3,5,7}

    def test_lexicographic_tie_break(self):
        # two disjoint maximum triangles; the lexicographically first wins
        g = Graph(6, [(0, 2), (0, 4), (2, 4), (1, 3), (1, 5), (3, 5)])
        assert brute_force_clique(g).vertices == (0, 2, 4)

    def test_limit_guard(self):
        with pytest.raises(ValueError, match="limit"):
            brute_force_clique(Graph(23))
