from __future__ import annotations

import random
import sys
import time
from dataclasses import replace

import pytest

from mdclique import (
    Bound,
    CliqueSearch,
    Graph,
    NodeKind,
    Ordering,
    SolveStatus,
    SolverConfig,
    brute_force_clique,
    coprime_graph,
    decompose,
    gnp,
    induced_subgraph,
    is_clique,
    max_weight_clique,
    quotient,
    random_cograph,
    set_weight,
    solve,
    solve_node,
    verify_tree,
)
from mdclique import mdsolve
from conftest import alternating_threshold, weighted_gnp


class TestSolveNode:
    def test_hub7_series_child(self, hub7):
        tree = decompose(hub7)
        series = tree.root.children[0]
        assert series.kind is NodeKind.SERIES
        sol = solve_node(hub7, series)
        assert sol.weight == 3
        assert sol.vertices == (0, 1, 2)

    def test_hub7_parallel_child(self, hub7):
        tree = decompose(hub7)
        parallel = tree.root.children[2]
        assert parallel.kind is NodeKind.PARALLEL
        sol = solve_node(hub7, parallel)
        assert sol.weight == 1
        assert sol.vertices == (4,)  # tie broken toward the first child

    def test_hub7_prime_root(self, hub7):
        sol = solve_node(hub7, decompose(hub7).root)
        assert sol.weight == 4
        assert sol.vertices == (0, 1, 2, 3)
        assert sol.status is SolveStatus.OPTIMAL

    def test_leaf(self, hub7):
        leaf = decompose(hub7).root.children[1]
        sol = solve_node(hub7, leaf)
        assert sol.weight == 1 and sol.vertices == (3,)

    def test_every_node_matches_bruteforce_on_span(self):
        rng = random.Random(211)
        for _ in range(30):
            g = weighted_gnp(rng.randint(1, 14), rng.random(), seed=rng.randint(0, 10**9))
            tree = decompose(g)
            for node in tree.iter_nodes():
                span = node.span_vertices()
                sub, _ = induced_subgraph(g, span)
                folded = solve_node(g, node)
                assert folded.weight == brute_force_clique(sub).weight
                assert is_clique(g, folded.vertices)
                assert set(folded.vertices) <= set(span)
                assert set_weight(g, folded.vertices) == folded.weight

    def test_parallel_solution_stays_in_one_child(self):
        rng = random.Random(212)
        for _ in range(30):
            g = weighted_gnp(rng.randint(2, 14), 0.3, seed=rng.randint(0, 10**9))
            tree = decompose(g)
            for node in tree.iter_nodes():
                if node.kind is not NodeKind.PARALLEL:
                    continue
                sol = solve_node(g, node)
                picked = set(sol.vertices)
                assert any(
                    picked <= set(child.span_vertices()) for child in node.children
                )

    def test_series_solution_unions_all_children(self):
        rng = random.Random(213)
        for _ in range(30):
            g = weighted_gnp(rng.randint(2, 14), 0.7, seed=rng.randint(0, 10**9))
            tree = decompose(g)
            for node in tree.iter_nodes():
                if node.kind is not NodeKind.SERIES:
                    continue
                sol = solve_node(g, node)
                picked = set(sol.vertices)
                assert is_clique(g, sol.vertices)
                for child in node.children:
                    assert picked & set(child.span_vertices())


class TestPrimeQuotientOrder:
    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_quotient_arrives_in_search_order(self, monkeypatch, ordering):
        # the fold hands the search a quotient already in its own order, so
        # the search keeps it as it is; the answer is that of the search on
        # the canonical quotient
        searched = []

        def recording(q, config):
            searched.append((q, config))
            return max_weight_clique(q, config)

        monkeypatch.setattr(mdsolve, "max_weight_clique", recording)
        config = SolverConfig(ordering=ordering)
        prime_config = replace(config, bound=Bound.COLOUR)
        for seed in range(6):
            g = weighted_gnp(30, 0.75, seed=seed)
            root = decompose(g).root
            assert root.kind is NodeKind.PRIME and all(c.is_leaf for c in root.children)
            searched.clear()
            folded = solve_node(g, root, config)
            ((q, used),) = searched
            assert used == prime_config
            assert CliqueSearch(q, used).order == list(range(q.n))
            assert folded == max_weight_clique(quotient(g, root, g.weights), prime_config)


class TestSolve:
    def test_hub7(self, hub7):
        sol, info = solve(hub7)
        assert sol.weight == 4
        assert sol.vertices == (0, 1, 2, 3)
        assert sol.status is SolveStatus.OPTIMAL
        assert info.md_seconds >= 0 and info.solve_seconds >= 0
        assert info.prime_solver_calls == 1

    def test_coprime8(self):
        sol, _ = solve(coprime_graph(8))
        assert sol.weight == 5
        assert is_clique(coprime_graph(8), sol.vertices)

    def test_complete_graph_no_prime_solve(self):
        k5 = gnp(5, 1.0, seed=0)
        sol, info = solve(k5)
        assert sol.weight == 5
        assert sol.vertices == (0, 1, 2, 3, 4)
        assert info.prime_solver_calls == 0

    def test_single_vertex(self):
        sol, info = solve(Graph(1, weights=[7]))
        assert sol.weight == 7 and sol.vertices == (0,)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            solve(Graph(0))
        with pytest.raises(ValueError):
            solve(Graph(0), md=False)

    @pytest.mark.parametrize("g", [coprime_graph(60), gnp(40, 0.5, seed=3),
                                   weighted_gnp(30, 0.6, seed=4)])
    def test_plain_mode_is_max_weight_clique(self, g):
        config = SolverConfig(ordering=Ordering.WEIGHT_DESC)
        sol, info = solve(g, config, md=False)
        assert sol == max_weight_clique(g, config)
        assert info.md_seconds == 0.0 and info.solve_seconds >= 0
        assert info.tree is None and info.prime_solver_calls == 0

    def test_cographs_use_zero_prime_solves(self):
        for seed in range(5):
            g = random_cograph(120, seed)
            sol, info = solve(g)
            assert info.prime_solver_calls == 0
            assert sol.weight == max_weight_clique(g).weight

    def test_timeout_propagates_from_prime_solve(self):
        # unstructured dense graph: one prime root whose colour-bound
        # quotient search needs about 548k nodes, far more than one
        # 4096-node deadline-check interval (it trips there holding 32)
        g = gnp(150, 0.9, seed=5)
        sol, info = solve(g, SolverConfig(time_limit=1e-9))
        assert info.prime_solver_calls >= 1
        assert sol.status is SolveStatus.TIMED_OUT
        assert is_clique(g, sol.vertices)
        assert set_weight(g, sol.vertices) == sol.weight

    def test_dense_prime_node_closes(self):
        # one prime node over all 100 vertices: the colour bound closes it
        # in well under a second, where the suffix bound runs out of time
        g = gnp(100, 0.9, seed=1)
        sol, info = solve(g, SolverConfig(time_limit=10))
        assert info.prime_solver_calls == 1
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.weight == 30
        assert is_clique(g, sol.vertices) and len(sol.vertices) == 30
        nx = pytest.importorskip("networkx")
        reference = nx.Graph()
        reference.add_nodes_from(range(g.n))
        reference.add_edges_from(g.edges())
        assert nx.max_weight_clique(reference, weight=None)[1] == 30

    def test_deep_tree_within_default_recursion_limit(self):
        n = 1500
        g = alternating_threshold(n)
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            tree = decompose(g)
            assert verify_tree(g, tree) == []
            assert tree.serialize().startswith("Series[Parallel[Series[")
            assert tree.depth() == n - 1
            sol, _ = solve(g)
            assert sol.status is SolveStatus.OPTIMAL and sol.weight == 751
            assert random_cograph(2000, 7).n == 2000
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(old_limit)

    def test_deep_weighted_threshold_folds_in_linear_time(self):
        # a chain of 15999 Series and Parallel levels: a fold that joined
        # child cliques at every level would take time quadratic in the depth
        n = 16000
        rng = random.Random(16)
        # at[p] is the p-th vertex added; at an odd position it joins every
        # vertex added before it
        at = list(range(n))
        rng.shuffle(at)
        weights = [rng.randint(1, 100) for _ in range(n)]
        adj = [0] * n
        earlier = later = 0
        for p, v in enumerate(at):
            if p % 2:
                adj[v] |= earlier
            earlier |= 1 << v
        # the best clique added first at position p takes every odd
        # position after it
        optimum = later_weight = 0
        for p in range(n - 1, -1, -1):
            v = at[p]
            adj[v] |= later
            optimum = max(optimum, weights[v] + later_weight)
            if p % 2:
                later |= 1 << v
                later_weight += weights[v]
        g = Graph._from_masks(n, adj, weights)
        tree = decompose(g)
        assert tree.depth() == n - 1
        started = time.perf_counter()
        sol = solve_node(g, tree.root)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        assert sol.status is SolveStatus.OPTIMAL and sol.weight == optimum
        assert is_clique(g, sol.vertices) and set_weight(g, sol.vertices) == optimum

    def test_weights_carried_through_tree(self):
        g = Graph(7, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6)],
                  weights=[1, 1, 1, 2, 5, 1, 4])
        sol, _ = solve(g)
        assert sol.weight == brute_force_clique(g).weight
        assert set_weight(g, sol.vertices) == sol.weight


class TestFoldCheck:
    def test_hub7(self, hub7):
        assert solve(hub7)[0].weight == max_weight_clique(hub7).weight

    def test_accepts_prebuilt_tree(self, hub7):
        tree = decompose(hub7)
        assert solve_node(hub7, tree.root).weight == max_weight_clique(hub7).weight

    def test_random_cographs(self):
        rng = random.Random(311)
        config = SolverConfig(ordering=Ordering.NATURAL)
        for _ in range(100):
            g = random_cograph(rng.randint(1, 200), rng.randint(0, 10**6))
            assert solve(g, config)[0].weight == max_weight_clique(g, config).weight

    def test_random_weighted_graphs(self):
        rng = random.Random(312)
        for _ in range(60):
            g = weighted_gnp(rng.randint(1, 15), rng.random(), seed=rng.randint(0, 10**9))
            folded = solve(g)[0].weight
            assert folded == max_weight_clique(g).weight
            assert folded == brute_force_clique(g).weight
