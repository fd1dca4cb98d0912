from __future__ import annotations

import random
import time
import tracemalloc

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
from mdclique import graph as graph_module
from mdclique.graph import MAX_VERTICES, _compress, vertex_mask
from conftest import edges_by_bits, first_asymmetry, write_dimacs_per_edge

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
        with pytest.raises(ValueError, match="^asymmetric adjacency between 0 and 2$"):
            Graph.from_adjacency(3, [0b110, 0b001, 0b000])

    def test_asymmetry_reported_at_lowest_row_then_column(self):
        rng = random.Random(12)
        for _ in range(400):
            n = rng.randint(2, 12)
            g = gnp(n, rng.random(), seed=rng.randrange(10**9))
            adj = list(g.adj)
            for _ in range(rng.randint(1, 3)):
                u, v = rng.sample(range(n), 2)
                adj[u] ^= 1 << v
            expected = first_asymmetry(n, adj)
            if expected is None:
                assert Graph.from_adjacency(n, adj).adj == adj
                continue
            with pytest.raises(ValueError) as info:
                Graph.from_adjacency(n, adj)
            assert str(info.value) == "asymmetric adjacency between {} and {}".format(*expected)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="^self-loop at vertex 1$"):
            Graph.from_adjacency(2, [0b00, 0b10])

    def test_rejects_out_of_range_bit(self):
        with pytest.raises(ValueError, match="^adjacency of vertex 0 out of range$"):
            Graph.from_adjacency(2, [0b100, 0b000])

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValueError, match="^need one adjacency mask per vertex$"):
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

    @pytest.mark.parametrize("text, message", [
        ("p edge 1_2 1\n", "line 1: malformed problem line: 'p edge 1_2 1'"),
        ("p edge 12 1_0\n", "line 1: malformed problem line: 'p edge 12 1_0'"),
        ("p edge 12 1\ne 1_0 2\n", "line 2: malformed edge line: 'e 1_0 2'"),
        ("p edge 12 1\ne 2 1_0\n", "line 2: malformed edge line: 'e 2 1_0'"),
        ("p edge 2 0\nn 2 1_00\n", "line 2: malformed weight line: 'n 2 1_00'"),
        ("p edge 12 0\nn 1_0 7\n", "line 2: malformed weight line: 'n 1_0 7'"),
    ])
    def test_underscore_in_number_rejected(self, text, message):
        # int() reads `1_0` as 10
        with pytest.raises(DimacsError) as caught:
            parse_dimacs(text)
        assert str(caught.value) == message

    def test_sign_and_leading_zero_accepted(self):
        g = parse_dimacs("p edge 3 2\ne +1 2\ne 01 3\nn 03 +5\n")
        assert g.has_edge(0, 1) and g.has_edge(0, 2)
        assert g.weights == [1, 1, 5]

    def test_vertex_count_limit(self):
        # the boundary allocates two 65536-entry lists and a 65536-entry id
        # table; one more is refused before any allocation
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
        with pytest.warns(DimacsWarning) as caught:
            parse_dimacs("p edge 3 5\ne 1 2\n")
        # attributed to the caller, not to a line inside graph.py
        assert caught[0].filename == __file__

    def test_duplicate_edges_deduplicated(self):
        with pytest.warns(DimacsWarning):
            g = parse_dimacs("p edge 2 2\ne 1 2\ne 2 1\n")
        assert g.m == 1

    def test_mismatch_warning_counts_distinct_edges(self):
        with pytest.warns(DimacsWarning, match="^problem line declares 2 edges, file has 1$"):
            parse_dimacs("p edge 2 2\ne 1 2\ne 2 1\n")


@pytest.fixture(params=[
    ("dense", None), ("dense", 1 << 20), ("sparse", None), ("sparse", 1 << 20),
], ids=["default-chunks", "one-chunk", "sparse-default-chunks", "sparse-one-chunk"])
def edge_block(request, monkeypatch):
    """A graph and the lines of its DIMACS text, with the parser's chunk
    size at its default, which puts chunk boundaries all through the edge
    block, and at a size that holds the whole block in one chunk.

    The dense graph, coprime_graph(300) (254 kB, 27,398 lines), is read
    through the parser's byte matrix; the sparse one, gnp(3000, 0.0004,
    seed=5) (20 kB, two default chunks), by ORing two bits per edge."""
    kind, chunk_chars = request.param
    if chunk_chars is not None:
        monkeypatch.setattr(graph_module, "_CHUNK_CHARS", chunk_chars)
    g = coprime_graph(300) if kind == "dense" else gnp(3000, 0.0004, seed=5)
    return g, write_dimacs(g).split("\n")


class TestParseDeepEdgeLines:
    def test_errors_report_their_line(self, edge_block):
        g, block = edge_block
        k = 2 * len(block) // 3
        for bad, message in [
            ("e 5", "malformed edge line: 'e 5'"),
            (f"e 1 {g.n + 1}", f"edge endpoint out of range 1..{g.n}"),
            ("e 7 7", "self-loop at vertex 7"),
            ("e 1 2 e 3 4", "malformed edge line: 'e 1 2 e 3 4'"),
            # with a blank line after it, the chunk's token count is still
            # three per line
            ("e 1 2 e 3 4\n", "malformed edge line: 'e 1 2 e 3 4'"),
            ("ee 1 2", "unrecognized line: 'ee 1 2'"),
            # the id table rejects the chunk, and the line loop the line
            ("e 1_0 2", "malformed edge line: 'e 1_0 2'"),
            # str.split() takes a no-break space for a separator
            ("e 1\xa02", "non-ASCII character in line: 'e 1\\xa02'"),
            # a CR inside a line separates tokens, so normalising must not
            # drop it and read `e 12 3`
            ("e 1\r2 3", "malformed edge line: 'e 1\\r2 3'"),
        ]:
            lines = list(block)
            lines.insert(k - 1, bad)
            with pytest.raises(DimacsError) as caught:
                parse_dimacs("\n".join(lines))
            assert caught.value.line == k
            assert str(caught.value) == f"line {k}: {message}"

    def test_short_last_line(self, edge_block):
        # the block's last chunk then splits into an even number of tokens
        g, block = edge_block
        with pytest.raises(DimacsError) as caught:
            parse_dimacs("\n".join(block[:-1] + ["e 5"]))
        assert str(caught.value) == f"line {len(block)}: malformed edge line: 'e 5'"

    def test_chunk_that_starts_with_a_blank_line(self, monkeypatch):
        # the second chunk is "\ne 1 2 e 3 4": its token count is three per
        # line, but its first line is blank
        monkeypatch.setattr(graph_module, "_CHUNK_CHARS", len("e 1 2\n"))
        with pytest.raises(DimacsError, match="^line 4: malformed edge line: 'e 1 2 e 3 4'$"):
            parse_dimacs("p edge 4 0\ne 1 2\n\ne 1 2 e 3 4\n")

    def test_comment_and_blank_lines_mid_block(self, edge_block):
        g, block = edge_block
        k = len(block) // 2
        lines = block[:k] + ["c a comment in the edge block", "", "\t"] + block[k:]
        assert parse_dimacs("\n".join(lines)) == g

    @pytest.mark.parametrize("form", ["e 0{} {}", "e +{} {}", "e {} 0{}", "\te {} {}", "  e\t{}\t{}"])
    def test_unusual_edge_forms_accepted(self, edge_block, form):
        g, block = edge_block
        k = len(block) // 2
        _, u, v = block[k].split()
        lines = list(block)
        lines[k] = form.format(u, v)
        assert parse_dimacs("\n".join(lines)) == g

    @pytest.mark.parametrize("repeat", ["duplicated", "reversed", "reversed-with-comment"])
    def test_repeated_edges_match_line_loop(self, edge_block, repeat, monkeypatch):
        # the edge block a second time, as given or with each line's
        # endpoints swapped; with default chunks, the comment line among
        # the swapped lines leaves its chunk to the line loop while the
        # others are read in bulk
        g, block = edge_block
        head, edges = block[:1], [line for line in block if line.startswith("e")]
        if repeat != "duplicated":
            edges += [f"e {v} {u}" for _, u, v in map(str.split, edges)]
        else:
            edges += edges
        if repeat == "reversed-with-comment":
            edges.insert(len(edges) * 3 // 4, "c a comment in the edge block")
        text = "\n".join(head + edges) + "\n"
        got = parse_dimacs(text)
        assert got == g
        monkeypatch.setattr(graph_module, "_read_edges", lambda *args: False)
        assert parse_dimacs(text) == got


    @pytest.mark.filterwarnings("ignore::mdclique.DimacsWarning")
    def test_chunk_rejected_part_way_matches_line_loop(self, edge_block, monkeypatch):
        # the matrix path sets the valid line's byte before it meets the
        # leading zero, then the line loop reads the whole chunk again; the
        # sparse graph has no edge 1-3, so its edge count is one short
        g, block = edge_block
        k = len(block) // 2
        lines = block[: k + 1] + ["e 01 3"] + block[k + 1 :]
        text = "\n".join(lines)
        got = parse_dimacs(text)
        monkeypatch.setattr(graph_module, "_read_edges", lambda *args: False)
        assert got == parse_dimacs(text)
        assert got.has_edge(0, 2)

    def test_self_loop_before_rejected_line_reports_its_own_line(self, edge_block):
        # the matrix path sets the loop's diagonal byte before `+1` rejects
        # the chunk; the line loop stops at the loop
        g, block = edge_block
        k = len(block) // 2
        lines = block[:k] + ["e 3 3", "e +1 2"] + block[k:]
        with pytest.raises(DimacsError) as caught:
            parse_dimacs("\n".join(lines))
        assert str(caught.value) == f"line {k + 1}: self-loop at vertex 3"

    @pytest.mark.parametrize("spacing", ["crlf", "tabs", "trailing-space"])
    def test_other_spacing_taken_whole(self, edge_block, spacing, monkeypatch):
        # the first chunk is rejected as it stands and taken once
        # normalised; every later chunk is normalised first and taken, so
        # no chunk falls to the line loop
        g, block = edge_block
        text = {
            "crlf": "\r\n".join(block),
            "tabs": "\n".join(block).replace(" ", "\t"),
            "trailing-space": " \n".join(block),
        }[spacing]
        results = []
        read_edges = graph_module._read_edges

        def counted(*args):
            results.append(read_edges(*args))
            return results[-1]

        monkeypatch.setattr(graph_module, "_read_edges", counted)
        assert parse_dimacs(text) == g
        assert results[:2] == [False, True] and all(results[1:])


class TestParseMemory:
    def test_dense_block_peak_is_text_plus_matrix(self):
        # the byte matrix is the parse's one n * n allocation; beside it
        # and the decoded text, the chunks' tokens and the masks stay small
        g = coprime_graph(1200)
        data = write_dimacs(g).encode()
        tracemalloc.start()
        try:
            parsed = parse_dimacs(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert parsed == g
        assert peak <= len(data) + g.n * g.n + (1 << 20)

    def test_sparse_block_at_the_vertex_limit_allocates_no_matrix(self):
        n = MAX_VERTICES
        data = f"p edge {n} 3\ne 1 2\ne 3 4\ne {n - 1} {n}\n".encode()
        tracemalloc.start()
        try:
            parsed = parse_dimacs(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert parsed.m == 3 and parsed.has_edge(n - 2, n - 1)
        # the id table and the per-vertex lists; a matrix would be 4 GiB
        assert peak < n * n >> 8


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

    @pytest.mark.parametrize("g", [
        Graph(0),
        Graph(1),
        Graph(1, weights=[4]),
        Graph(6),
        Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)]),
        Graph(5, [(0, 4), (1, 2)], weights=[3, 1, 1, 7, 2]),
        Graph(4, [(0, 1), (2, 3)], labels=["w", "x", "y", "z"]),
        Graph(130, [(0, 129), (63, 64), (64, 65), (1, 128)]),
        coprime_graph(300),
        gnp(200, 0.5, seed=3),
    ], ids=["n0", "n1", "n1-weighted", "edgeless", "complete", "weighted", "labelled",
            "word-boundaries", "coprime300", "gnp200"])
    def test_matches_per_edge_reference(self, g):
        text = write_dimacs(g)
        assert text == write_dimacs_per_edge(g)
        assert list(g.edges()) == edges_by_bits(g)
        assert parse_dimacs(text) == g


class TestSparseRowsWritten:
    @pytest.fixture(scope="class")
    def shuffled_path(self):
        # every row holds two bits spread over 32768 ids, so formatting
        # each row in full would make the writer quadratic
        n = 32768
        ids = list(range(n))
        random.Random(3).shuffle(ids)
        return Graph(n, [(ids[i], ids[i + 1]) for i in range(n - 1)])

    def test_write_dimacs_matches_per_edge_reference(self, shuffled_path):
        start = time.perf_counter()
        text = write_dimacs(shuffled_path)
        elapsed = time.perf_counter() - start
        assert text == write_dimacs_per_edge(shuffled_path)
        assert elapsed < 2

    def test_edges_match_bit_reference(self, shuffled_path):
        assert list(shuffled_path.edges()) == edges_by_bits(shuffled_path)


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
    def reference(adj, ids):
        out = []
        for r in ids:
            mask = 0
            for j, c in enumerate(ids):
                if adj[r] >> c & 1:
                    mask |= 1 << j
            out.append(mask)
        return out

    def test_matches_bitwise_reference(self):
        rng = random.Random(41)
        for _ in range(300):
            n = rng.randint(1, 70)
            adj = [rng.getrandbits(n) for _ in range(n)]
            ids = rng.sample(range(n), rng.randint(0, n))
            assert _compress(adj, ids) == self.reference(adj, ids)

    def test_edge_shapes(self):
        adj = [0b1011, 0b0110, 0b1111, 0b0001]
        assert _compress(adj, []) == []
        assert _compress(adj, [1]) == [1]
        assert _compress(adj, [3]) == [0]
        assert _compress(adj, [2, 0, 3]) == [0b111, 0b110, 0b010]
        assert _compress([], []) == []

    @staticmethod
    def mixed_rows(rng, n):
        """Rows of all three kinds: empty, sparse (fewer than n / 64 bits,
        renamed bit by bit) and dense (gathered by transposition)."""
        adj = []
        for _ in range(n):
            kind = rng.randrange(3)
            if kind == 0:
                adj.append(0)
            elif kind == 1:
                adj.append(vertex_mask(rng.sample(range(n), rng.randint(1, (n - 1) // 64))))
            else:
                adj.append(rng.getrandbits(n))
        return adj

    def test_sparse_and_dense_rows_in_one_call(self):
        rng = random.Random(42)
        for _ in range(40):
            n = rng.randint(130, 400)
            adj = self.mixed_rows(rng, n)
            counts = [mask.bit_count() for mask in adj]
            assert any(0 < c * 64 < n for c in counts) and any(c * 64 >= n for c in counts)
            # a permutation, then a subset
            for size in (n, rng.randint(1, n - 1)):
                ids = rng.sample(range(n), size)
                assert _compress(adj, ids) == self.reference(adj, ids)

    def test_empty_rows_and_empty_cols(self):
        n = 200
        adj = self.mixed_rows(random.Random(44), n)
        assert _compress(adj, []) == []
        ids = random.Random(44).sample(range(n), n)
        assert _compress([0] * n, ids) == [0] * n

    def test_identity_is_a_copy(self):
        adj = self.mixed_rows(random.Random(47), 200)
        before = list(adj)
        out = _compress(adj, list(range(200)))
        assert out == adj and out is not adj
        out[0] ^= 1
        out.append(0)
        assert adj == before

    @pytest.mark.parametrize("gather_chars", [1, 7, 300, 5000])
    def test_many_blocks_in_one_call(self, monkeypatch, gather_chars):
        monkeypatch.setattr(graph_module, "_GATHER_CHARS", gather_chars)
        rng = random.Random(45)
        for _ in range(10):
            n = rng.randint(130, 260)
            adj = self.mixed_rows(rng, n)
            ids = rng.sample(range(n), rng.randint(1, n))
            assert _compress(adj, ids) == self.reference(adj, ids)

    def test_dense_scratch_is_bounded(self):
        # a whole 4096-row matrix of digits and its transpose would take
        # about 32 MiB; a block of them stays under 1 MiB beside the output
        n = 4096
        rng = random.Random(46)
        adj = [rng.getrandbits(n) & ~(1 << v) for v in range(n)]
        # a permutation, since the identity is a plain copy of adj
        ids = rng.sample(range(n), n)
        tracemalloc.start()
        try:
            out = _compress(adj, ids)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # what the call leaves allocated is its output; its first three
        # rows, gathered by hand
        assert out[:3] == [vertex_mask(j for j, c in enumerate(ids) if adj[r] >> c & 1)
                           for r in ids[:3]]
        assert peak - kept < 1 << 20


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
