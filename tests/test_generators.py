from __future__ import annotations

import hashlib
import math
import random
from itertools import combinations

import pytest

from mdclique import (
    coprime_graph,
    decompose,
    gnp,
    max_weight_clique,
    random_cograph,
    random_partition,
    solve,
    write_dimacs,
)
from mdclique import Ordering, SolverConfig
from mdclique.graph import MAX_VERTICES


class TestCoprimeGraph:
    def test_adjacency_is_gcd_predicate(self):
        # the reference: one gcd per pair of labels
        for n in [*range(1, 151), 997, 1200]:
            adj = [0] * n
            for i, j in combinations(range(1, n + 1), 2):
                if math.gcd(i, j) == 1:
                    adj[i - 1] |= 1 << (j - 1)
                    adj[j - 1] |= 1 << (i - 1)
            assert coprime_graph(n).adj == adj, n

    def test_vertex_one_is_universal(self):
        g = coprime_graph(8)
        assert g.degree(0) == 7

    def test_specific_pairs(self):
        g = coprime_graph(8)
        assert not g.has_edge(5, 7)  # 6 and 8 share a factor
        assert g.has_edge(1, 4)      # 2 and 5 are coprime

    def test_decomposition_structure(self):
        t = decompose(coprime_graph(8))
        assert t.serialize() == "Series[1,Parallel[Series[Parallel[2,4,8],3],6],5,7]"

    def test_single_vertex(self):
        g = coprime_graph(1)
        assert g.n == 1 and g.m == 0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            coprime_graph(0)

    def test_rejects_over_vertex_limit(self):
        with pytest.raises(ValueError, match="exceeds the limit"):
            coprime_graph(MAX_VERTICES + 1)


class TestRandomPartition:
    def test_one_has_single_partition(self):
        assert random_partition(1, random.Random(0)) == [1]

    def test_parts_sum_and_bounds(self):
        rng = random.Random(9)
        for _ in range(300):
            n = rng.randint(2, 60)
            parts = random_partition(n, rng)
            assert sum(parts) == n
            assert all(p >= 1 for p in parts)
            assert len(parts) >= 2

    def test_golden_fixed_seed(self):
        assert random_partition(10, random.Random(42)) == [1, 6, 1, 2]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            random_partition(0, random.Random(0))


class TestRandomCograph:
    def test_single_vertex(self):
        g = random_cograph(1, 0)
        assert g.n == 1 and g.m == 0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_never_contains_prime_node(self, seed):
        g = random_cograph(150, seed)
        counts = decompose(g).kind_counts()
        assert counts["prime"] == 0

    def test_alternation_holds(self):
        from mdclique import NodeKind

        g = random_cograph(200, 17)
        tree = decompose(g)
        for node in tree.iter_nodes():
            if node.kind in (NodeKind.PARALLEL, NodeKind.SERIES):
                for child in node.children:
                    assert child.kind is not node.kind

    def test_deterministic_per_seed(self):
        a = random_cograph(137, 99)
        b = random_cograph(137, 99)
        assert a == b
        assert write_dimacs(a) == write_dimacs(b)

    @pytest.mark.parametrize(
        "n, seed, digest",
        [(500, 1, "6be942a87e5c5e68"), (137, 99, "60e99343622ac7a5"), (2000, 7, "7d44bad118fa31d0")],
    )
    def test_golden_dimacs_digest(self, n, seed, digest):
        text = write_dimacs(random_cograph(n, seed))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_different_seeds_differ(self):
        assert random_cograph(100, 1) != random_cograph(100, 2)

    def test_solvers_agree_on_large_instance(self):
        g = random_cograph(500, 2018)
        md, info = solve(g)
        plain = max_weight_clique(g, SolverConfig(ordering=Ordering.NATURAL))
        assert info.tree.kind_counts()["prime"] == 0
        assert md.weight == plain.weight == 98

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            random_cograph(0, 0)

    def test_rejects_over_vertex_limit(self):
        with pytest.raises(ValueError, match="exceeds the limit"):
            random_cograph(MAX_VERTICES + 1, 0)


class TestGnp:
    def test_extreme_probabilities(self):
        assert gnp(10, 0.0, seed=3).m == 0
        assert gnp(10, 1.0, seed=3).m == 45

    def test_deterministic_per_seed(self):
        assert write_dimacs(gnp(18, 0.5, seed=7)) == write_dimacs(gnp(18, 0.5, seed=7))

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            gnp(5, 1.5, seed=0)
        with pytest.raises(ValueError):
            gnp(5, -0.1, seed=0)

    def test_empty(self):
        assert gnp(0, 0.5, seed=0).n == 0

    def test_rejects_over_vertex_limit(self):
        with pytest.raises(ValueError, match="exceeds the limit"):
            gnp(MAX_VERTICES + 1, 0.5, seed=0)
