"""Property tests: the tree fold and the colour-bound search against the
brute-force oracle, tree validity and its independence of vertex ids,
DIMACS round trips, and the parser on arbitrary input."""
from __future__ import annotations

import random
import warnings
from unittest import mock

from hypothesis import example, given, strategies as st

from mdclique import (
    Bound,
    DimacsError,
    DimacsWarning,
    Graph,
    NodeKind,
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
from mdclique import graph as graph_module, mdtree as mdtree_module
from mdclique.graph import iter_bits, vertex_mask
from mdclique.mdtree import _maximal_modules_avoiding, _module_closure
from conftest import edges_by_bits, write_dimacs_per_edge


def threshold_graph(joins: list[bool], ids: list[int], weights: list[int] | None = None) -> Graph:
    """Threshold graph whose vertex at position p, with id ids[p], is joined
    to every earlier vertex iff joins[p]. Its tree is a Series/Parallel
    chain with one level per run of equal values in joins[1:]."""
    n = len(joins)
    return Graph(n, [(ids[q], ids[p]) for p in range(n) if joins[p] for q in range(p)], weights)


def nested_threshold(blocks: list[list[bool]], join: bool, outer: list[bool],
                     ids: list[int], weights: list[int] | None = None) -> Graph:
    """The threshold chain `outer` around the union, or with join the join,
    of the threshold graphs `blocks`, each given by its joins as in
    threshold_graph. The blocks take the first positions, in order, and the
    chain the rest; the vertex at position p has id ids[p]."""
    block_of = [b for b, joins in enumerate(blocks) for _ in joins]
    joins = [j for block in blocks for j in block] + outer
    inner = len(block_of)
    n = len(joins)
    return Graph(n, [(ids[q], ids[p]) for p in range(n) for q in range(p)
                     if (joins[p] if p >= inner or block_of[q] == block_of[p] else join)],
                 weights)


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 14) -> Graph:
    """Graphs on min_n..max_n vertices with weights in 1..20 and either
    arbitrary edges, the edges of a random cograph (a tree with no prime
    node), those of a threshold graph on shuffled ids, whose chain is
    often deeper than n.bit_length(), the depth from which `decompose`
    ranks spans by degree, or, on 2..14 vertices, those of a threshold
    chain around the union or join of 2-3 threshold graphs, on shuffled
    ids, whose blocks often sit below that depth."""
    n = draw(st.integers(min_n, max_n))
    shapes = ["arbitrary", "cograph", "threshold"] + (["nested"] if 2 <= n <= 14 else [])
    shape = draw(st.sampled_from(shapes)) if n else "arbitrary"
    weights = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    if shape == "cograph":
        edges = list(random_cograph(n, draw(st.integers(0, 2**32))).edges())
    elif shape == "threshold":
        joins = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        return threshold_graph(joins, draw(st.permutations(range(n))), weights)
    elif shape == "nested":
        k = draw(st.integers(2, min(3, n)))
        inner = draw(st.integers(k, n))
        cuts = sorted(draw(st.sets(st.integers(1, inner - 1), min_size=k - 1, max_size=k - 1)))
        blocks = [draw(st.lists(st.booleans(), min_size=b - a, max_size=b - a))
                  for a, b in zip([0, *cuts], [*cuts, inner])]
        outer = draw(st.lists(st.booleans(), min_size=n - inner, max_size=n - inner))
        return nested_threshold(blocks, draw(st.booleans()), outer,
                                draw(st.permutations(range(n))), weights)
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [pair for pair, kept in zip(pairs, keep) if kept]
    return Graph(n, edges, weights)


# threshold chains on 8 shuffled vertices on each side of the depth from
# which decompose ranks spans by degree, 8 .bit_length() = 4: at depth 4 the
# deepest internal node sits at depth 3 and no span is ranked; at depth 5
# the one at depth 4 is
_SHUFFLED_8 = [5, 2, 7, 0, 3, 6, 1, 4]
_AT_LIMIT = threshold_graph([0, 1, 0, 1, 0, 0, 0, 0], _SHUFFLED_8)
_PAST_LIMIT = threshold_graph([0, 1, 0, 1, 0, 1, 1, 1], _SHUFFLED_8)


# threshold chains of 5 levels around three blocks, on 11 and 14 shuffled
# vertices, so the blocks' parent sits at depth 5, past the limit 4. Each
# block holds less than half of that parent and ranks its own members: a
# K2, or a threshold graph Parallel[Series[a,b],c] whose Series child holds
# two of its three vertices and so trims the block's new list.
_BELOW_HALF = nested_threshold([[0, 1]] * 3, False, [1, 0, 1, 0, 1],
                               [7, 2, 10, 4, 0, 9, 5, 1, 8, 3, 6])
_RERANK_STEERS = nested_threshold([[0, 1, 0]] * 3, True, [0, 1, 0, 1, 0],
                                  [12, 3, 7, 0, 10, 5, 13, 1, 8, 4, 11, 2, 9, 6])


def test_limit_examples_straddle_the_relabel_depth():
    assert decompose(_AT_LIMIT).depth() == _AT_LIMIT.n.bit_length()
    assert decompose(_PAST_LIMIT).depth() == _PAST_LIMIT.n.bit_length() + 1


@given(graphs())
def test_solve_matches_brute_force(g):
    solution, _ = solve(g)
    assert solution.weight == brute_force_clique(g).weight
    assert solution.vertices == tuple(sorted(solution.vertices))
    assert is_clique(g, solution.vertices)
    assert set_weight(g, solution.vertices) == solution.weight


@given(graphs())
def test_colour_bound_matches_brute_force(g):
    solution = max_weight_clique(g, SolverConfig(bound=Bound.COLOUR))
    assert solution.weight == brute_force_clique(g).weight
    assert is_clique(g, solution.vertices)
    assert set_weight(g, solution.vertices) == solution.weight


@given(graphs())
@example(_AT_LIMIT)
@example(_PAST_LIMIT)
def test_decompose_passes_verify_tree(g):
    assert verify_tree(g, decompose(g)) == []


# a path 0-1-2-3-4 with a false twin 5 of vertex 2 or of vertex 0, and a
# path 2-3-0-4-5 with a false twin 1 of vertex 0: the twin pair avoids
# vertex 0, holds 0 but avoids 1, or holds both, so each is found by a
# different one of the three steps of `_quotient_is_primitive`
_PATH_5 = [(0, 1), (1, 2), (2, 3), (3, 4)]
_TWINS_AVOID_0 = Graph(6, _PATH_5 + [(1, 5), (3, 5)])
_TWINS_HOLD_0_AVOID_1 = Graph(6, _PATH_5 + [(1, 5)])
_TWINS_HOLD_0_AND_1 = Graph(6, [(2, 3), (3, 0), (0, 4), (4, 5), (3, 1), (1, 4)])


def primitive_by_closures(qadj: list[int]) -> bool:
    """Primality from the refinement avoiding vertex 0 and the module
    closure of {0, j} for every j != 0: a module holding 0 holds one of
    those closures. k - 1 closures, where `_quotient_is_primitive` takes a
    second refinement and one closure."""
    full = (1 << len(qadj)) - 1
    if any(cls & (cls - 1) for cls in _maximal_modules_avoiding(qadj, full, 0)):
        return False
    return all(_module_closure(qadj, full, 1 | 1 << j) == full for j in range(1, len(qadj)))


@given(graphs(min_n=2, max_n=11))
@example(_TWINS_AVOID_0)
@example(_TWINS_HOLD_0_AVOID_1)
@example(_TWINS_HOLD_0_AND_1)
def test_primitive_matches_a_closure_per_vertex(g):
    assert mdtree_module._quotient_is_primitive(g.adj) == primitive_by_closures(g.adj)


def test_deep_spans_take_both_ranking_rules():
    # past the limit, a child holding less than half of its parent's span
    # ranks its own members, and a chain nested under such a child trims
    # that new list; the two examples take one path each
    assert decompose(_BELOW_HALF).depth() == 7
    assert decompose(_RERANK_STEERS).depth() == 8
    taken = {"below half": 0, "steered by a re-rank": 0}
    steer = mdtree_module._steer
    reranked: list[list[int]] = []

    def counted(adj, span, parent):
        got = steer(adj, span, parent)
        if parent and got[0] is not parent[0]:
            taken["below half"] += 1
            reranked.append(got[0])
        elif parent and any(got[0] is ranked for ranked in reranked):
            taken["steered by a re-rank"] += 1
        return got

    @given(graphs())
    @example(_BELOW_HALF)
    @example(_RERANK_STEERS)
    def check(g):
        reranked.clear()
        with mock.patch.object(mdtree_module, "_steer", counted):
            t = decompose(g)
        assert verify_tree(g, t) == []

    check()
    assert all(taken.values()), taken


def kinds_and_spans(tree, relabel) -> set[tuple[NodeKind, int]]:
    """Every node of the tree as (kind, span), the span mapped through
    relabel, a sequence from the tree's vertex ids to other ids."""
    return {(node.kind, vertex_mask(relabel[v] for v in iter_bits(node.span)))
            for node in tree.iter_nodes()}


@given(graphs(max_n=30), st.randoms(use_true_random=False))
@example(_AT_LIMIT, random.Random(1))
@example(_PAST_LIMIT, random.Random(1))
@example(_BELOW_HALF, random.Random(1))
@example(_RERANK_STEERS, random.Random(1))
def test_decompose_invariant_under_relabelling(g, rng):
    # the search seeds, the pivot and the degree order of deep spans all
    # depend on the ids; the strong modules and their kinds must not
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    inverse = [0] * g.n
    for v, image in enumerate(perm):
        inverse[image] = v
    assert kinds_and_spans(decompose(h), inverse) == kinds_and_spans(decompose(g), range(g.n))


@given(graphs(min_n=0, max_n=40))
def test_dimacs_round_trip(g):
    text = write_dimacs(g)
    assert text == write_dimacs_per_edge(g)
    assert list(g.edges()) == edges_by_bits(g)
    assert parse_dimacs(text) == g


# a problem line, then lines of every kind with small numbers, in and out
# of range, and tokens the parser must reject outside comments; among them
# the valid edge lines that only the line-by-line reader takes
# (int() reads `1_0` as 10 and `0_3` as 3, and the parser must not)
_number = st.sampled_from(["-1", "0", "1", "2", "3", "4", "1_0", "0_2"])
_count = st.integers(0, 4).map(str)
_problem = st.tuples(st.just("p edge"), st.sampled_from(["0", "1", "2", "3", "4", "0_3"]),
                     st.sampled_from(["0", "1", "2", "3", "4", "1_0"])).map(" ".join)
_edge = st.tuples(st.just("e"), _number, _number).map(" ".join)
_line = st.one_of(
    st.tuples(st.sampled_from(["e", "n", "ee", "e1"]), _number, _number).map(" ".join),
    st.lists(st.sampled_from(["p", "edge", "e", "c", "1", "x", "\t", "\r", "\xe9"]),
             max_size=4).map(" ".join),
    st.tuples(st.sampled_from([" ", "\t", " \t"]), _edge).map("".join),
    _edge.map(lambda line: line + "\r"),
    st.sampled_from(["e 01 2", "e +1 2", "e 1 02", "e 1 2 e 3 4", "", "c between edges"]),
)
_dimacs_like = st.tuples(_problem, st.lists(st.one_of(_edge, _line), max_size=12)).map(
    lambda lines: "\n".join([lines[0], *lines[1]]).encode("latin-1")
)
# valid edge lines, among some of the lines above, under a problem
# line of 3 vertices, whose n * n = 9 bytes puts any edge block of a line
# or more through the parser's byte matrix, or of 30 vertices, which
# leaves every such short block to the two-OR loop. Their separators and
# line ends other than one space and none leave a chunk to the parser's
# normalising retry.
_separator = st.sampled_from([" ", "\t", "  "])
_valid_edge = st.tuples(st.integers(1, 3), st.integers(1, 2), _separator, _separator,
                        st.sampled_from(["", " ", "\r"])).map(
    lambda e: f"e{e[2]}{e[0]}{e[3]}{e[1] + (e[1] >= e[0])}{e[4]}")
_sized_problem = st.tuples(st.just("p edge"), st.sampled_from(["3", "30"]),
                           _count).map(" ".join)
_valid_dimacs_like = st.tuples(
    _sized_problem, st.lists(st.one_of(_valid_edge, _line), min_size=1, max_size=12)
).map(lambda lines: "\n".join([lines[0], *lines[1]]).encode("latin-1"))


@given(st.one_of(st.binary(max_size=200), _dimacs_like))
def test_parse_returns_graph_or_dimacs_error(data):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DimacsWarning)
        try:
            g = parse_dimacs(data)
        except DimacsError:
            return
    assert isinstance(g, Graph)
    # int() reads `1_0` as 10, but only a comment may hold an underscore
    assert all(line.split()[:1] == ["c"] or "_" not in line
               for line in data.decode("latin-1").split("\n"))
    assert parse_dimacs(write_dimacs(g)) == g


def _parse_outcome(data: bytes) -> tuple[object, list[str]]:
    """The Graph, or the DimacsError's line and text, and the warning texts
    of one parse."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result: object = parse_dimacs(data)
        except DimacsError as exc:
            result = (exc.line, str(exc))
    return result, [str(w.message) for w in caught]


def test_parse_matches_line_by_line_reference():
    # _read_edges must take some chunk whole both into the byte matrix and
    # by the two-OR loop, and some only once _canonical has normalised it;
    # the first three examples take one path each, and the last two hold a
    # short last line and a CR inside a line
    taken = {"matrix": 0, "ors": 0, "normalised": 0}
    read_edges, canonical = graph_module._read_edges, graph_module._canonical
    normalised = [None]

    def counted(chunk, *args):
        read = read_edges(chunk, *args)
        if read:
            taken["ors" if args[-1] is None else "matrix"] += 1
            taken["normalised"] += chunk is normalised[-1]
        return read

    def canonical_recorded(chunk):
        text = canonical(chunk)
        if text != chunk:
            normalised.append(text)
        return text

    @given(st.one_of(st.binary(max_size=200), _dimacs_like, _valid_dimacs_like),
           st.one_of(st.just(1), st.integers(2, 40), st.just(graph_module._CHUNK_CHARS)))
    @example(b"p edge 3 1\ne 1 2\n", graph_module._CHUNK_CHARS)
    @example(b"p edge 30 1\ne 1 2\n", graph_module._CHUNK_CHARS)
    @example(b"p edge 3 1\ne\t1  2\r\n", graph_module._CHUNK_CHARS)
    @example(b"p edge 3 1\ne 1 2\ne 3", graph_module._CHUNK_CHARS)
    @example(b"p edge 30 1\ne 1\r2 3\n", graph_module._CHUNK_CHARS)
    def matches(data, chunk_chars):
        # chunk_chars 1 puts a chunk boundary at every line end, and the
        # default holds the whole edge block of these short inputs in one
        # chunk
        with mock.patch.object(graph_module, "_CHUNK_CHARS", chunk_chars), \
                mock.patch.object(graph_module, "_read_edges", counted), \
                mock.patch.object(graph_module, "_canonical", canonical_recorded):
            got = _parse_outcome(data)
        with mock.patch.object(graph_module, "_read_edges", lambda *args: False):
            want = _parse_outcome(data)
        assert got == want

    matches()
    assert all(taken.values()), taken
