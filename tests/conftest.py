from __future__ import annotations

import random

import pytest
from hypothesis import settings

from mdclique import Graph
from mdclique.graph import iter_bits

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


# Reference bodies of the graph I/O: one Python step per vertex pair or
# per edge. The library gathers whole rows at C speed and must agree with
# these exactly.

def edges_by_bits(g: Graph) -> list[tuple[int, int]]:
    """Every edge (u, v), u < v, in sorted order, one bit at a time."""
    return [(u, v) for u in range(g.n) for v in iter_bits(g.adj[u] >> (u + 1) << (u + 1))]


def write_dimacs_per_edge(g: Graph) -> str:
    """DIMACS text with one formatted line per edge."""
    out = [f"p edge {g.n} {g.m}"]
    for v, w in enumerate(g.weights):
        if w != 1:
            out.append(f"n {v + 1} {w}")
    for u, v in edges_by_bits(g):
        out.append(f"e {u + 1} {v + 1}")
    out.append("")
    return "\n".join(out)


def first_asymmetry(n: int, adj: list[int]) -> tuple[int, int] | None:
    """The lowest u whose row and column of the bit matrix differ, and the
    lowest v where they do; None for a symmetric matrix."""
    rows = [format(mask, f"0{n}b")[::-1] for mask in adj]
    for u, column in enumerate(map("".join, zip(*rows))):
        if column != rows[u]:
            return u, next(v for v in range(n) if column[v] != rows[u][v])
    return None
