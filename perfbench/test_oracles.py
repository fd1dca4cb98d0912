"""Tests of the benchmark's own oracles against mdclique's brute-force
clique enumerator on small graphs.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import random

import pytest

import instances as ladder
from mdclique import Graph, brute_force_clique, coprime_graph, decompose, parse_dimacs


def brute_weight(adj: list[int], weights: list[int]) -> int:
    return brute_force_clique(Graph.from_adjacency(len(adj), adj, weights)).weight


def test_prime_count_matches_trial_division():
    def is_prime(k):
        return k > 1 and all(k % d for d in range(2, int(k**0.5) + 1))

    for n in range(0, 300):
        assert ladder.prime_count(n) == sum(is_prime(k) for k in range(n + 1))


@pytest.mark.parametrize("n", range(1, 21))
def test_coprime_optimum_is_one_plus_pi(n):
    assert ladder.coprime_optimum(n) == brute_force_clique(coprime_graph(n)).weight


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("n", [1, 2, 7, 13, 20])
def test_cograph_optimum_by_construction(n, seed):
    ids = list(range(n))
    random.Random(seed).shuffle(ids)
    adj, weights, optimum = ladder.weighted_cograph(ids, random.Random(seed), 0.5, 3, 50)
    assert optimum == brute_weight(adj, weights)
    g = Graph.from_adjacency(n, adj, weights)    # checks symmetry and loops
    kinds = decompose(g).kind_counts()
    assert kinds["prime"] == 0


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("dominating_p", [None, 0.5, 0.2])
def test_threshold_optimum_by_construction(dominating_p, seed):
    n = 20
    ids = list(range(n))
    random.Random(seed).shuffle(ids)
    adj, weights, optimum = ladder.weighted_threshold(ids, random.Random(seed), dominating_p, 50)
    assert optimum == brute_weight(adj, weights)
    tree = decompose(Graph.from_adjacency(n, adj, weights))
    assert tree.kind_counts()["prime"] == 0
    if dominating_p is None:
        assert tree.depth() == n - 1


@pytest.mark.parametrize("seed", range(6))
def test_networkx_oracle_matches_brute_force(seed):
    spec, _ = ladder.make_gnp("small", 18, 0.5, seed, list(range(18)), seed)
    assert ladder.networkx_optimum(spec) == brute_weight(spec.adj, spec.weights)


def test_relabelled_coprime_keeps_labels_and_optimum():
    perm = list(range(20))
    random.Random(3).shuffle(perm)
    spec, graph = ladder.make_coprime(20, perm)
    assert sorted(spec.labels) == list(range(1, 21))
    assert spec.optimum == brute_force_clique(graph).weight
    witness = brute_force_clique(graph).vertices
    assert ladder.witness_error(spec, witness, spec.optimum) is None


def test_witness_error_catches_bad_witnesses():
    spec, _ = ladder.make_coprime(10, list(range(10)))
    # ids 1 and 3 carry labels 2 and 4
    assert "share a factor" in ladder.witness_error(spec, (1, 3), 2)
    assert "repeats" in ladder.witness_error(spec, (0, 0), 2)
    assert "claims" in ladder.witness_error(spec, (0, 1), 3)
    adj, weights, _ = ladder.weighted_threshold(list(range(6)), random.Random(1), None, 9)
    spec = ladder.Spec("t", adj, weights)
    assert "misses" in ladder.witness_error(spec, (0, 2), weights[0] + weights[2])


def test_utf8_twin_differs_only_by_its_comment():
    by_name = {inst.spec.name: inst for inst in ladder.build("prime-free", 1)}
    tiny = by_name[f"cograph-{ladder.TINY_N}"]
    twin = by_name[f"cograph-{ladder.TINY_N}-utf8"]
    assert twin.dimacs == ladder.UTF8_COMMENT.encode("utf-8") + tiny.dimacs
    assert not twin.dimacs.isascii()
    text = twin.dimacs.decode("utf-8")
    assert parse_dimacs(text) == parse_dimacs(tiny.dimacs)


def _profile(spec):
    """Each vertex's degree with its weight: kept by any relabelling."""
    return sorted((mask.bit_count(), w) for mask, w in zip(spec.adj, spec.weights))


def test_seed_relabels_but_keeps_structure():
    first = ladder.build("dense-random", 1)
    again = ladder.build("dense-random", 1)
    other = ladder.build("dense-random", 2)
    assert [i.dimacs for i in first] == [i.dimacs for i in again]
    for a, b in zip(first, other):
        assert a.dimacs != b.dimacs
        assert _profile(a.spec) == _profile(b.spec)
        assert a.spec.m == b.spec.m
