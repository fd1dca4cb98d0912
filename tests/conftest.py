from __future__ import annotations

import random

import pytest
from hypothesis import settings

from mdclique import Graph

# property tests draw the same examples on every run, so a tier-1 failure
# reproduces, and the example counts keep the suite's time bounded
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=150)
settings.load_profile("tier1")

# 7-vertex fixture used throughout: a..g = ids 0..6. The triangle a,b,c
# hangs off hub d; the non-adjacent pair e,f sits between d and g. Its
# decomposition tree is Prime[Series[a,b,c],d,Parallel[e,f],g] and its
# maximum clique is {a,b,c,d} with weight 4.
HUB7_EDGES = [
    (0, 1), (0, 2), (1, 2),       # a-b, a-c, b-c
    (0, 3), (1, 3), (2, 3),       # a-d, b-d, c-d
    (3, 4), (3, 5),               # d-e, d-f
    (4, 6), (5, 6),               # e-g, f-g
]


def make_hub7() -> Graph:
    return Graph(7, HUB7_EDGES, labels=list("abcdefg"))


@pytest.fixture
def hub7() -> Graph:
    return make_hub7()


def weighted_gnp(n: int, p: float, seed: int, max_weight: int = 10) -> Graph:
    """G(n, p) with uniform random integer weights in 1..max_weight."""
    from mdclique import gnp

    base = gnp(n, p, seed)
    rng = random.Random(seed ^ 0x5EED)
    return Graph(n, list(base.edges()), [rng.randint(1, max_weight) for _ in range(n)])


def alternating_threshold(n: int) -> Graph:
    """Threshold graph where vertex v is joined to every earlier vertex iff
    v is odd: its tree is a Series/Parallel chain of depth n - 1, and its
    best clique is vertex 0 plus every odd vertex."""
    odd = sum(1 << v for v in range(1, n, 2))
    adj = [odd >> (v + 1) << (v + 1) | ((1 << v) - 1 if v % 2 else 0) for v in range(n)]
    return Graph.from_adjacency(n, adj)
