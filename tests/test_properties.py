"""Property tests: the tree fold and the colour-bound search against the
brute-force oracle, tree validity, DIMACS round trips, and the parser on
arbitrary input."""
from __future__ import annotations

import warnings

from hypothesis import given, strategies as st

from mdclique import (
    Bound,
    DimacsError,
    DimacsWarning,
    Graph,
    SolverConfig,
    brute_force_clique,
    decompose,
    is_clique,
    max_weight_clique,
    parse_dimacs,
    random_cograph,
    set_weight,
    solve,
    verify_tree,
    write_dimacs,
)


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 14) -> Graph:
    """Graphs on min_n..max_n vertices with weights in 1..20 and either
    arbitrary edges or the edges of a random cograph (a tree with no prime
    node)."""
    n = draw(st.integers(min_n, max_n))
    if n and draw(st.booleans()):
        edges = list(random_cograph(n, draw(st.integers(0, 2**32))).edges())
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [pair for pair, kept in zip(pairs, keep) if kept]
    weights = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    return Graph(n, edges, weights)


@given(graphs())
def test_solve_matches_brute_force(g):
    solution, _ = solve(g)
    assert solution.weight == brute_force_clique(g).weight
    assert solution.vertices == tuple(sorted(solution.vertices))
    assert is_clique(g, solution.vertices)
    assert set_weight(g, solution.vertices) == solution.weight


@given(graphs(), st.booleans())
def test_colour_bound_matches_brute_force(g, reduce_dominated):
    config = SolverConfig(bound=Bound.COLOUR, reduce_dominated=reduce_dominated)
    solution = max_weight_clique(g, config)
    assert solution.weight == brute_force_clique(g).weight
    assert is_clique(g, solution.vertices)
    assert set_weight(g, solution.vertices) == solution.weight


@given(graphs())
def test_decompose_passes_verify_tree(g):
    assert verify_tree(g, decompose(g)) == []


@given(graphs(min_n=0))
def test_dimacs_round_trip(g):
    assert parse_dimacs(write_dimacs(g)) == g


# a problem line, then lines of every kind with small numbers, in and out
# of range, and tokens the parser must reject outside comments
_number = st.integers(-1, 4).map(str)
_count = st.integers(0, 4).map(str)
_problem = st.tuples(st.just("p edge"), _count, _count).map(" ".join)
_line = st.one_of(
    st.tuples(st.sampled_from(["e", "n"]), _number, _number).map(" ".join),
    st.lists(st.sampled_from(["p", "edge", "e", "c", "1", "x", "\t", "\r", "\xe9"]),
             max_size=4).map(" ".join),
)
_dimacs_like = st.tuples(_problem, st.lists(_line, max_size=8)).map(
    lambda lines: "\n".join([lines[0], *lines[1]]).encode("latin-1")
)


@given(st.one_of(st.binary(max_size=200), _dimacs_like))
def test_parse_returns_graph_or_dimacs_error(data):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DimacsWarning)
        try:
            g = parse_dimacs(data)
        except DimacsError:
            return
    assert isinstance(g, Graph)
    assert parse_dimacs(write_dimacs(g)) == g
