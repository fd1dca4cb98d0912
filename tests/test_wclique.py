from __future__ import annotations

import random
import sys
from unittest import mock

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
from mdclique import wclique
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


def suffix_steps(suffix_best: list[int]) -> list[tuple[int, int]]:
    """(i, suffix_best[i]) at i = 0 and wherever the value changes: the
    whole nonincreasing list in a few pairs."""
    return [(i, b) for i, b in enumerate(suffix_best) if i == 0 or b != suffix_best[i - 1]]


# Library graphs and the exact work both searches do on them: (graph,
# suffix nodes, colour nodes, suffix witness, colour witness, suffix_best
# steps). A change to either search's pruning or branching order moves
# these; one that only makes each node cheaper must not.
PINNED = [
    pytest.param(lambda: gnp(45, 0.6, 3), 1402, 28,
                 (3, 5, 9, 11, 12, 22, 39, 40, 43), (3, 5, 9, 11, 12, 20, 39, 40, 43),
                 [(0, 9), (1, 8), (5, 7), (16, 6), (25, 5), (32, 4), (36, 3), (39, 2), (43, 1)],
                 id="gnp-45"),
    pytest.param(lambda: gnp(90, 0.5, 11), 6485, 288,
                 (1, 14, 20, 24, 31, 35, 44, 50, 65), (1, 23, 44, 52, 56, 58, 75, 77, 85),
                 [(0, 9), (4, 8), (21, 7), (45, 6), (51, 5), (65, 4), (79, 3), (85, 2), (88, 1)],
                 id="gnp-90"),
    pytest.param(lambda: gnp(130, 0.3, 4), 1929, 122,
                 (8, 48, 53, 72, 75, 93, 118), (8, 48, 53, 72, 75, 93, 118),
                 [(0, 7), (10, 6), (30, 5), (77, 4), (99, 3), (119, 2), (127, 1)],
                 id="gnp-130"),
    pytest.param(lambda: weighted_gnp(61, 0.55, 7, 100), 2112, 224,
                 (4, 6, 9, 19, 25, 29, 30, 37), (4, 6, 9, 19, 25, 29, 30, 37),
                 [(0, 539), (4, 513), (7, 460), (18, 440), (20, 405), (29, 392), (32, 367),
                  (34, 363), (37, 280), (44, 210), (45, 162), (54, 111), (58, 99), (59, 93),
                  (60, 1)],
                 id="weighted-61"),
    pytest.param(lambda: weighted_gnp(100, 0.45, 2, 200), 6378, 559,
                 (22, 34, 37, 53, 59, 60, 71), (22, 34, 37, 53, 59, 60, 71),
                 [(0, 1088), (1, 1037), (4, 919), (5, 916), (14, 904), (17, 873), (43, 782),
                  (46, 771), (64, 690), (68, 667), (77, 589), (80, 545), (84, 482), (91, 319),
                  (92, 315), (99, 186)],
                 id="weighted-100"),
    pytest.param(lambda: weighted_gnp(150, 0.3, 5, 10), 4368, 722,
                 (52, 59, 67, 80, 117, 122), (52, 59, 67, 80, 117, 122),
                 [(0, 48), (10, 47), (21, 45), (75, 38), (87, 32), (97, 29), (132, 25),
                  (138, 18), (141, 17), (149, 8)],
                 id="weighted-150"),
]


class TestPinnedWork:
    @pytest.mark.parametrize("make, suffix_nodes, colour_nodes, suffix_witness, colour_witness, steps",
                             PINNED)
    def test_nodes_witness_and_suffix_bounds(self, make, suffix_nodes, colour_nodes,
                                             suffix_witness, colour_witness, steps):
        g = make()
        search = CliqueSearch(g)
        sol = search.run()
        assert (search.nodes, sol.vertices) == (suffix_nodes, suffix_witness)
        assert suffix_steps(search.suffix_best) == steps
        assert sol.weight == steps[0][1] == set_weight(g, sol.vertices)
        colour = CliqueSearch(g, SolverConfig(bound=Bound.COLOUR))
        colour_sol = colour.run()
        assert (colour.nodes, colour_sol.vertices) == (colour_nodes, colour_witness)
        assert colour_sol.weight == sol.weight
        assert colour.suffix_best == [0] * g.n


class TestWeightSums:
    @pytest.mark.parametrize("n, p, seed", [(70, 0.08, 1), (130, 0.05, 2), (200, 0.03, 3)])
    def test_both_paths_give_suffix_optima(self, n, p, seed):
        # with n >= 64, candidate masks of fewer than n / 64 bits walk their
        # bits and larger ones sum the per-byte tables; both must give the
        # suffix optima that brute force finds
        g = weighted_gnp(n, p, seed, 100)
        with mock.patch.object(wclique, "_bit_weight", wraps=wclique._bit_weight) as walked, \
                mock.patch.object(wclique, "_byte_tables", wraps=wclique._byte_tables) as built:
            search = CliqueSearch(g)
            sol = search.run()
        assert walked.call_count > 0
        assert built.call_count == 1
        for i in range(n):
            suffix, _ = induced_subgraph(g, search.order[i:])
            assert search.suffix_best[i] == brute_force_clique(suffix, limit=n).weight
        assert sol.weight == search.suffix_best[0]
        assert_witness(g, sol)

    def test_byte_tables_sum_every_byte(self):
        rng = random.Random(5)
        weights = [rng.randint(1, 1000) for _ in range(21)]
        tables = wclique._byte_tables(weights)
        assert [len(t) for t in tables] == [256, 256, 32]
        weigh = wclique._weigher(weights)
        for mask in [0, 1, (1 << 21) - 1, *(rng.getrandbits(21) for _ in range(200))]:
            expected = sum(w for v, w in enumerate(weights) if mask >> v & 1)
            assert weigh(mask) == wclique._bit_weight(mask, weights) == expected

    def test_sparse_search_builds_no_tables(self):
        # every candidate mask of a perfect matching on 128 vertices has at
        # most one bit, below 128 / 64
        n = 128
        g = Graph(n, [(v, v + 1) for v in range(0, n, 2)], [v % 7 + 1 for v in range(n)])
        with mock.patch.object(wclique, "_byte_tables", wraps=wclique._byte_tables) as built:
            sol = max_weight_clique(g)
        assert built.call_count == 0
        assert sol.weight == max(g.weights[v] + g.weights[v + 1] for v in range(0, n, 2))


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
        # the suffix search keeps its ancestors on an explicit stack, so a
        # clique deeper than the caller's limit needs no change to it: the
        # limit is process-wide, and another thread may be recursing under it
        g = complete_graph(n) if edges else Graph(n)
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            with mock.patch.object(sys, "setrecursionlimit", side_effect=AssertionError):
                sol = max_weight_clique(g)
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(old_limit)
        assert sol.status is SolveStatus.OPTIMAL and sol.weight == (n if edges else 1)


COLOUR = SolverConfig(bound=Bound.COLOUR)


def assert_witness(g, sol):
    assert is_clique(g, sol.vertices)
    assert set_weight(g, sol.vertices) == sol.weight
    assert sol.vertices == tuple(sorted(sol.vertices))


class TestColourBound:
    @pytest.mark.parametrize("chunk", range(10))
    def test_matches_bruteforce(self, chunk):
        # 100 graphs per chunk with n <= 20: unit weights, or weights up to
        # 10 or 200
        rng = random.Random(4000 + chunk)
        for _ in range(100):
            n, p, seed = rng.randint(0, 20), rng.random(), rng.randint(0, 10**9)
            max_weight = rng.choice([1, 10, 200])
            g = gnp(n, p, seed) if max_weight == 1 else weighted_gnp(n, p, seed, max_weight)
            expected = brute_force_clique(g).weight
            sol = max_weight_clique(g, COLOUR)
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
        search = CliqueSearch(g, COLOUR)
        sol = search.run()
        assert sorted(search.order) == list(range(g.n))
        assert_witness(g, sol)
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
