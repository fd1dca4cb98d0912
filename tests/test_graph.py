from __future__ import annotations

import random

import pytest

from mdclique import (
    DimacsError,
    DimacsWarning,
    Graph,
    coprime_graph,
    gnp,
    induced_subgraph,
    is_clique,
    parse_dimacs,
    set_weight,
    write_dimacs,
)
from mdclique.graph import MAX_VERTICES, _compress

TRIANGLE = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"


class TestGraph:
    def test_basic_construction(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.m == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.weights == [1, 1, 1]
        assert g.neighbors(1) == (0, 2)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(1, 1)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            Graph(2, [], weights=[1, 0])
        with pytest.raises(ValueError):
            Graph(2, [], weights=[1])

    def test_duplicate_edges_collapse(self):
        g = Graph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_labels_default_to_dimacs_ids(self):
        g = Graph(2)
        assert g.label(0) == "1"
        g2 = Graph(2, labels=["x", "y"])
        assert g2.label(1) == "y"


class TestFromAdjacency:
    def test_accepts_symmetric_masks(self):
        g = Graph.from_adjacency(3, [0b110, 0b001, 0b001], weights=[2, 1, 1])
        assert g == Graph(3, [(0, 1), (0, 2)], weights=[2, 1, 1])

    def test_copies_caller_list(self):
        adj = [0b10, 0b01]
        g = Graph.from_adjacency(2, adj)
        adj[0] = adj[1] = 0
        assert g.has_edge(0, 1)

    def test_rejects_asymmetric_row(self):
        with pytest.raises(ValueError, match="asymmetric adjacency between (0 and 2|2 and 0)"):
            Graph.from_adjacency(3, [0b110, 0b001, 0b000])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop at vertex 1"):
            Graph.from_adjacency(2, [0b00, 0b10])

    def test_rejects_out_of_range_bit(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_adjacency(2, [0b100, 0b000])

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValueError, match="one adjacency mask per vertex"):
            Graph.from_adjacency(3, [0b10, 0b01])

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="positive integer"):
            Graph.from_adjacency(2, [0b10, 0b01], weights=[1, 0])


class TestParseDimacs:
    def test_triangle(self):
        g = parse_dimacs(TRIANGLE)
        assert g.n == 3 and g.m == 3
        assert g.weights == [1, 1, 1]
        assert is_clique(g, [0, 1, 2])

    def test_edgeless(self):
        g = parse_dimacs("p edge 2 0\n")
        assert g.n == 2 and g.m == 0

    def test_weight_extension(self):
        g = parse_dimacs("p edge 3 1\nn 2 7\ne 1 2\n")
        assert g.weights == [1, 7, 1]
        assert g.m == 1

    def test_accepts_bytes_crlf_and_tabs(self):
        g = parse_dimacs(b"c comment\r\np edge 2 1\r\ne\t1\t 2\r\n")
        assert g.n == 2 and g.has_edge(0, 1)

    def test_comments_anywhere(self):
        g = parse_dimacs("c x\np edge 2 1\nc y\ne 1 2\nc z\n")
        assert g.m == 1

    def test_utf8_comment_accepted(self):
        g = parse_dimacs("c graphe généré\np edge 2 1\nc ü\ne 1 2\n".encode("utf-8"))
        assert g.n == 2 and g.m == 1

    def test_latin1_byte_in_edge_line(self):
        with pytest.raises(DimacsError, match="line 2: non-ASCII"):
            parse_dimacs(b"p edge 2 1\ne 1 2\xe9\n")

    def test_non_ascii_digits_in_str(self):
        # int() would accept the Arabic-Indic digit one
        with pytest.raises(DimacsError, match="line 2: non-ASCII"):
            parse_dimacs("p edge 2 1\ne \u0661 2\n")

    def test_vertex_count_limit(self):
        # the boundary allocates two 65536-entry lists; one more is refused
        # before any allocation
        assert parse_dimacs(f"p edge {MAX_VERTICES} 0\n").n == MAX_VERTICES
        with pytest.raises(DimacsError, match="line 2: vertex count 65537 exceeds"):
            parse_dimacs(f"c big\np edge {MAX_VERTICES + 1} 0\n".encode())

    def test_edge_before_problem_line(self):
        with pytest.raises(DimacsError, match="line 1"):
            parse_dimacs("e 1 2\np edge 2 1\n")

    def test_missing_problem_line(self):
        with pytest.raises(DimacsError, match="missing problem line"):
            parse_dimacs("c only a comment\n")

    def test_malformed_problem_line(self):
        with pytest.raises(DimacsError, match="line 1"):
            parse_dimacs("p edge three 3\n")
        with pytest.raises(DimacsError, match="problem"):
            parse_dimacs("p col 3 3\n")

    def test_duplicate_problem_line(self):
        with pytest.raises(DimacsError, match="line 2"):
            parse_dimacs("p edge 2 0\np edge 2 0\n")

    def test_endpoint_out_of_range(self):
        with pytest.raises(DimacsError, match="line 2.*out of range"):
            parse_dimacs("p edge 2 1\ne 1 3\n")

    def test_self_loop_rejected(self):
        with pytest.raises(DimacsError, match="self-loop"):
            parse_dimacs("p edge 2 1\ne 2 2\n")

    def test_nonpositive_weight(self):
        with pytest.raises(DimacsError, match="positive"):
            parse_dimacs("p edge 2 0\nn 1 0\n")

    def test_duplicate_weight_line(self):
        with pytest.raises(DimacsError, match="duplicate weight"):
            parse_dimacs("p edge 2 0\nn 1 3\nn 1 3\n")

    def test_unknown_line_kind(self):
        with pytest.raises(DimacsError, match="line 2"):
            parse_dimacs("p edge 2 0\nq 1 2\n")

    def test_edge_count_mismatch_warns(self):
        with pytest.warns(DimacsWarning):
            parse_dimacs("p edge 3 5\ne 1 2\n")

    def test_duplicate_edges_deduplicated(self):
        with pytest.warns(DimacsWarning):
            g = parse_dimacs("p edge 2 2\ne 1 2\ne 2 1\n")
        assert g.m == 1

    def test_mismatch_warning_counts_distinct_edges(self):
        with pytest.warns(DimacsWarning, match="^problem line declares 2 edges, file has 1$"):
            parse_dimacs("p edge 2 2\ne 1 2\ne 2 1\n")


class TestWriteDimacs:
    def test_triangle_round_trip(self):
        g = parse_dimacs(TRIANGLE)
        assert parse_dimacs(write_dimacs(g)) == g

    def test_edgeless_output(self):
        text = write_dimacs(Graph(2))
        assert text == "p edge 2 0\n"

    def test_weights_round_trip(self):
        g = Graph(3, [(0, 2)], weights=[2, 1, 9])
        text = write_dimacs(g)
        assert "n 1 2" in text and "n 3 9" in text and "n 2" not in text.replace("n 3", "")
        assert parse_dimacs(text) == g

    def test_coprime8_round_trip(self):
        g = coprime_graph(8)
        assert parse_dimacs(write_dimacs(g)) == g

    def test_random_round_trips(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(0, 30)
            g0 = gnp(n, rng.random(), seed=rng.randint(0, 10**9))
            g = Graph(n, list(g0.edges()), [rng.randint(1, 6) for _ in range(n)])
            assert parse_dimacs(write_dimacs(g)) == g


class TestCliquePredicates:
    def test_hub7_abcd_is_clique(self, hub7):
        assert is_clique(hub7, [0, 1, 2, 3])

    def test_hub7_ef_not_clique(self, hub7):
        assert not is_clique(hub7, [4, 5])

    def test_empty_and_singleton_are_cliques(self, hub7):
        assert is_clique(hub7, [])
        assert is_clique(hub7, [6])

    def test_out_of_range_vertex(self, hub7):
        with pytest.raises(ValueError, match="out of range"):
            is_clique(hub7, [0, 7])

    def test_set_weight(self, hub7):
        assert set_weight(hub7, [0, 1, 2, 3]) == 4
        assert set_weight(hub7, []) == 0

    def test_set_weight_quotient_style(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], weights=[3, 1, 1, 1])
        assert set_weight(g, [0, 1]) == 4

    def test_set_weight_additive_over_disjoint_sets(self, hub7):
        rng = random.Random(3)
        for _ in range(20):
            picks = [v for v in range(7) if rng.random() < 0.5]
            left = [v for v in picks if rng.random() < 0.5]
            right = [v for v in picks if v not in left]
            assert set_weight(hub7, picks) == set_weight(hub7, left) + set_weight(
                hub7, right
            )


class TestCompress:
    @staticmethod
    def reference(adj, rows, cols):
        out = []
        for r in rows:
            mask = 0
            for j, c in enumerate(cols):
                if adj[r] >> c & 1:
                    mask |= 1 << j
            out.append(mask)
        return out

    def test_matches_bitwise_reference(self):
        rng = random.Random(41)
        for _ in range(300):
            n = rng.randint(1, 70)
            adj = [rng.getrandbits(n) for _ in range(n)]
            rows = [rng.randrange(n) for _ in range(rng.randint(0, n))]
            cols = rng.sample(range(n), rng.randint(0, n))
            assert _compress(adj, rows, cols) == self.reference(adj, rows, cols)

    def test_edge_shapes(self):
        adj = [0b1011, 0b0110, 0b1111, 0b0001]
        assert _compress(adj, [], [0, 1]) == []
        assert _compress(adj, [0, 1, 2], []) == [0, 0, 0]
        assert _compress(adj, [0, 1, 2, 3], [1]) == [1, 1, 1, 0]
        assert _compress(adj, [2, 0], [3, 0, 2]) == [0b111, 0b011]
        assert _compress([], [], []) == []


class TestInducedSubgraph:
    def test_hub7_abc_triangle(self, hub7):
        sub, remap = induced_subgraph(hub7, [0, 1, 2])
        assert sub.n == 3 and sub.m == 3
        assert remap == {0: 0, 1: 1, 2: 2}
        assert is_clique(sub, [0, 1, 2])

    def test_hub7_ef_isolated(self, hub7):
        sub, remap = induced_subgraph(hub7, [4, 5])
        assert sub.n == 2 and sub.m == 0
        assert remap == {4: 0, 5: 1}

    def test_identity(self, hub7):
        sub, _ = induced_subgraph(hub7, range(7))
        assert sub == hub7

    def test_weights_and_labels_carry(self, hub7):
        sub, _ = induced_subgraph(hub7, [3, 6])
        assert sub.weights == [1, 1]
        assert sub.label(0) == "d" and sub.label(1) == "g"

    def test_is_clique_matches_completeness(self):
        rng = random.Random(11)
        for _ in range(30):
            g = gnp(rng.randint(1, 12), rng.random(), seed=rng.randint(0, 10**9))
            picks = [v for v in range(g.n) if rng.random() < 0.5]
            sub, _ = induced_subgraph(g, picks)
            complete = sub.m == sub.n * (sub.n - 1) // 2
            assert is_clique(g, picks) == complete
