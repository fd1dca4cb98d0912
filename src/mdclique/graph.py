"""Undirected vertex-weighted graphs with bitset adjacency, plus DIMACS I/O.

Vertices are ids 0..n-1. Adjacency is kept as one Python int bitmask per
vertex, so pairwise adjacency tests and neighborhood intersections cost a
single big-int operation (one machine word per 64 vertices).
"""
from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from enum import Enum
from itertools import compress, repeat
from typing import Iterable, Iterator, Sequence


# largest vertex count parse_dimacs accepts: the bitset adjacency of a dense
# graph takes about n * n / 8 bytes, 512 MiB at this bound, and the parser
# allocates its per-vertex lists and its id table before it reads any edge.
# A dense edge block is read into an n * n byte matrix, which is allocated
# only when it is at most twice the size of the block's text.
MAX_VERTICES = 1 << 16

# parse_dimacs takes its edge lines in chunks of at least this many
# characters, each ending at a line end. A chunk's tokens take about 11
# bytes per character (13 with a sparse block's two id lists), so the chunk
# bounds the parse's extra memory beside the dense block's byte matrix;
# chunks of 1 << 18 were no faster and raised the dense-random benchmark's
# peak RSS by 11%.
_CHUNK_CHARS = 1 << 14

# _compress gathers dense rows a block at a time, each block's row matrix
# and its transpose holding at most this many one-byte characters between
# them. With the lists that build them and about 57 bytes per column slice,
# a block's scratch peaks at 0.94 MiB at n = k = 4096.
_GATHER_CHARS = 1 << 19


class DimacsError(ValueError):
    """Malformed DIMACS input. `line` is the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DimacsWarning(UserWarning):
    """Non-fatal DIMACS issues, e.g. the advisory edge count not matching."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a nonnegative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# the ASCII digits of a binary numeral to itertools.compress selectors
_DIGIT_TO_BIT = bytes.maketrans(b"01", b"\0\1")


def _above(mask: int, u: int, items: Sequence) -> Iterator:
    """The items[v] for the set bits v > u of mask, ascending.

    The bits above u are formatted once as a binary numeral, reversed so
    that index j holds bit u + 1 + j, and translated into selector bytes
    for one itertools.compress, so a row costs a few C-level passes
    instead of a Python step per bit. A row with fewer than
    (len(items) - u) / 64 bits above u is walked bit by bit instead, as
    `_compress` renames its sparse rows, so a sparse graph costs O(n + m)
    Python steps here rather than n rows formatted in full.
    """
    high = mask >> (u + 1)
    if high.bit_count() << 6 < len(items) - u:
        return map(items.__getitem__, iter_bits(high << (u + 1)))
    digits = format(high, "b")[::-1].encode("ascii")
    return compress(items[u + 1 :], digits.translate(_DIGIT_TO_BIT))


def vertex_mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class SolveStatus(Enum):
    OPTIMAL = "Optimal"
    TIMED_OUT = "TimedOut"


@dataclass(frozen=True)
class Solution:
    """A clique witness: sorted vertex ids, its total weight, and how the
    solve ended. OPTIMAL means `weight` is the true maximum clique weight;
    TIMED_OUT means it is the best lower bound found before the deadline."""

    vertices: tuple[int, ...]
    weight: int
    status: SolveStatus


class Graph:
    """Simple undirected graph: no self-loops, symmetric adjacency,
    per-vertex positive integer weights (default 1).

    Instances are frozen after construction; all mutation happens in the
    constructor or in parsers, so a Graph may be read concurrently.
    """

    __slots__ = ("n", "adj", "weights", "labels")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        weights: list[int] | None = None,
        labels: list[str] | None = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        if weights is None:
            weights = [1] * n
        else:
            weights = list(weights)
            if len(weights) != n:
                raise ValueError("need one weight per vertex")
            for v, w in enumerate(weights):
                if not isinstance(w, int) or w < 1:
                    raise ValueError(f"weight of vertex {v} must be a positive integer")
        if labels is not None:
            labels = list(labels)
            if len(labels) != n:
                raise ValueError("need one label per vertex")
        self.n = n
        self.adj = adj
        self.weights = weights
        self.labels = labels

    @classmethod
    def from_adjacency(
        cls,
        n: int,
        adj: list[int],
        weights: list[int] | None = None,
        labels: list[str] | None = None,
    ) -> "Graph":
        """Build from bitmask adjacency, checked for range, symmetry and
        irreflexivity. The masks are copied.

        Symmetry is checked on one row-major n * n bytearray, whose byte
        u * n + v is bit v of adj[u]: row u is the slice mat[u * n:(u + 1) * n]
        and column u the strided slice mat[u::n], so each vertex costs a
        few C-level slice operations. An asymmetry is reported at the
        lowest u whose row and column differ, and there at the lowest v.
        """
        adj = list(adj)
        if len(adj) != n:
            raise ValueError("need one adjacency mask per vertex")
        full = (1 << n) - 1
        for v, mask in enumerate(adj):
            if mask & ~full:
                raise ValueError(f"adjacency of vertex {v} out of range")
            if mask >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        mat = bytearray(n * n)
        width = f"0{n}b"
        for u, mask in enumerate(adj):
            mat[u * n : (u + 1) * n] = format(mask, width)[::-1].encode("ascii")
        for u in range(n):
            row, column = mat[u * n : (u + 1) * n], mat[u::n]
            if row != column:
                v = next(v for v in range(n) if row[v] != column[v])
                raise ValueError(f"asymmetric adjacency between {u} and {v}")
        return cls._from_masks(n, adj, weights, labels)

    @classmethod
    def _from_masks(
        cls,
        n: int,
        adj: list[int],
        weights: list[int] | None = None,
        labels: list[str] | None = None,
    ) -> "Graph":
        """Trusted constructor: takes ownership of `adj`, which must already
        be symmetric, loop-free and within range. Weights and labels are
        checked as in the main constructor."""
        g = cls(n, (), weights, labels)
        g.adj = adj
        return g

    @property
    def m(self) -> int:
        return sum(mask.bit_count() for mask in self.adj) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(iter_bits(self.adj[v]))

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in sorted order."""
        ids = range(self.n)
        for u, mask in enumerate(self.adj):
            yield from zip(repeat(u), _above(mask, u, ids))

    def label(self, v: int) -> str:
        if self.labels is not None:
            return self.labels[v]
        return str(v + 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj and self.weights == other.weights

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.adj), tuple(self.weights)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _check_vertices(g: Graph, s: Iterable[int]) -> int:
    """Validate s ⊆ V(g) and return it as a bitmask."""
    mask = 0
    for v in s:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
        mask |= 1 << v
    return mask


def is_clique(g: Graph, s: Iterable[int]) -> bool:
    """True iff every distinct pair in s is adjacent (vacuously for |s| <= 1)."""
    mask = _check_vertices(g, s)
    for v in iter_bits(mask):
        if g.adj[v] & mask != mask ^ (1 << v):
            return False
    return True


def set_weight(g: Graph, s: Iterable[int]) -> int:
    """Total weight of the vertex set (0 for the empty set)."""
    mask = _check_vertices(g, s)
    return sum(g.weights[v] for v in iter_bits(mask))


def _gather_dense(masks: list[int], n: int, cols: list[int]) -> list[int]:
    """_compress on a block of row masks, by a double transposition.

    The rows are formatted into one row-major matrix of binary digits,
    most significant first, so column c is the strided slice
    mat[n - 1 - c::n]. The requested columns, joined in reverse, form the
    transposed block, in which each result row is again one strided slice
    read by int(..., 2).
    """
    mat = "".join([format(mask, f"0{n}b") for mask in masks])
    transposed = "".join([mat[n - 1 - c :: n] for c in reversed(cols)])
    del mat
    height = len(masks)
    return [int(transposed[x::height], 2) for x in range(height)]


def _compress(adj: list[int], rows: list[int], cols: list[int]) -> list[int]:
    """The submatrix of adj on the given rows and columns: bit j of entry i
    is bit cols[j] of adj[rows[i]]. Rows may repeat and may hold bits
    outside cols; no symmetry is assumed.

    A row with fewer than len(adj) / 64 bits is renamed bit by bit through
    a table from column to position, so a sparse input costs O(n + m)
    Python steps here. Every other row goes through `_gather_dense`, a
    double transposition at C speed, a block of rows at a time. A block's
    matrix and its transpose hold at most _GATHER_CHARS digits together:
    the strings of a whole dense graph would take about 2 n (n + k) bytes
    of scratch, 1 GiB at n = k = 16384.

    With rows and cols both 0..len(adj)-1 the submatrix is adj itself
    (a row holds no bit at or above len(adj)), and a copy is returned.
    """
    if rows == cols and len(rows) == len(adj) and rows == list(range(len(adj))):
        return list(adj)
    out = [0] * len(rows)
    if not cols:
        return out
    n = len(adj)
    step = max(1, _GATHER_CHARS // (n + len(cols)))
    # a row is sparse below n / 64 bits; the position table holds one
    # position per column, so with a repeated column no row is sparse
    sparse_below = n if len(set(cols)) == len(cols) else 0
    place = None
    for start in range(0, len(rows), step):
        block = []
        for i in range(start, min(start + step, len(rows))):
            mask = adj[rows[i]]
            if mask.bit_count() << 6 >= sparse_below:
                block.append(i)
            elif mask:
                if place is None:
                    place = dict(zip(cols, range(len(cols))))
                renamed = 0
                for c in iter_bits(mask):
                    j = place.get(c)
                    if j is not None:
                        renamed |= 1 << j
                out[i] = renamed
        if block:
            gathered = _gather_dense([adj[rows[i]] for i in block], n, cols)
            for i, row in zip(block, gathered):
                out[i] = row
    return out


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by s, plus the old->new id mapping.

    New ids are 0..|s|-1 in ascending old-id order; weights and labels carry
    over.
    """
    old_ids = list(iter_bits(_check_vertices(g, s)))
    sub = Graph._from_masks(
        len(old_ids),
        _compress(g.adj, old_ids, old_ids),
        [g.weights[v] for v in old_ids],
        [g.label(v) for v in old_ids] if g.labels is not None else None,
    )
    return sub, {old: new for new, old in enumerate(old_ids)}


def _canonical(chunk: str) -> str:
    """chunk with tabs and CRs made spaces, each run of spaces made one
    space and the spaces at both ends of every line dropped, as far as
    `_read_edges` can tell.

    str.split() takes each of these characters for a separator, so every
    line splits into the same tokens as before, and the line ends are kept.
    The first pass drops one blank before each line end, which is all that
    CRLF or single trailing spaces need. If what is left holds two spaces
    per line, it is returned as it is: a line that splits into `e <u> <v>`
    holds at least two blanks, so either each line holds just its two
    separators or some line is no edge line. Only otherwise does the full
    pass run, whose two-character searches cost more than the rest.
    """
    text = chunk.replace("\t", " ").replace("\r", " ").replace(" \n", "\n").strip(" ")
    if text.count(" ") != 2 * text.count("\n") + 2:
        while "  " in text:
            text = text.replace("  ", " ")
        text = text.replace(" \n", "\n").replace("\n ", "\n")
    return text


def _read_edges(
    chunk: str, ids: dict[str, int], ends: dict[str, int], adj: list[int],
    mat: bytearray, rows: list[memoryview] | None,
) -> bool:
    """Set the edges of a chunk and return True when every line is exactly
    `e <u> <v>`, single-spaced, with u and v keys of ids and u != v.
    Otherwise return False.

    The chunk with `\ne` appended is split on single spaces, so each
    line's end is glued to its v token as `<v>\ne`: the tokens are `e`,
    then u and `<v>\ne` in turn. A u token is read through ids and a v
    token through ends, whose keys are those of ids with `\ne` appended.
    The first token is `e`, the token count is odd and every lookup hits,
    which together force exactly the lines `e <u> <v>`.

    Without rows, the ids are gathered into two lists and an edge ORs both
    of its bits into adj; a rejected chunk sets nothing. With rows, the
    rows of parse_dimacs's byte matrix mat, one loop sets the byte
    rows[u][v] to `1` as it looks the ids up, so no per-edge int is
    allocated and the caller adds the mirrored half from the matrix's
    columns; self-loops are found afterwards on the matrix's diagonal. A
    chunk rejected part-way may have set some bytes already, but each of
    them comes from a well-formed line `e <u> <v>` of the chunk, whose
    lines the caller then reads one by one: either one of them is bad (a
    self-loop is), and the parse fails, or they set the same edges again.
    """
    tokens = (chunk + "\ne").split(" ")
    if tokens[0] != "e" or not len(tokens) & 1:
        return False
    try:
        if rows is None:
            us = list(map(ids.__getitem__, tokens[1::2]))
            vs = list(map(ends.__getitem__, tokens[2::2]))
        else:
            for u, v in zip(tokens[1::2], tokens[2::2]):
                rows[ids[u]][ends[v]] = 49  # ord("1")
    except KeyError:
        return False
    if rows is not None:
        return 49 not in mat[:: len(adj) + 1]
    if any(map(operator.eq, us, vs)):
        return False
    for u, v in zip(us, vs):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return True


def parse_dimacs(data: str | bytes) -> Graph:
    """Parse the DIMACS ASCII clique format.

    Accepted lines: `c ...` comments anywhere, exactly one `p edge <n> <m>`
    problem line, `e <u> <v>` edges (1-based, deduplicated, symmetrized),
    and optional `n <v> <w>` vertex-weight lines. Lines may end in LF or
    CRLF; tokens are separated by runs of spaces/tabs. Comment lines may
    hold any bytes; any other line must be ASCII. The declared edge count
    is advisory: a mismatch warns (DimacsWarning) instead of failing. At
    most MAX_VERTICES vertices are accepted.

    A dense edge block, one with n * n at most twice the number of
    characters from the first edge line to the end, is read into one
    transient n * n matrix of ASCII digits, byte u * n + v set for a line
    `e <u+1> <v+1>`. Row u of the adjacency is then the row u and the
    column u of that matrix, each read by int(..., 2), ORed with the bits
    that the line loop set. A sparse block ORs two bits per edge instead.

    Edge lines written `e <u> <v>` with single spaces are read a chunk at
    a time by `_read_edges`. A chunk it rejects is offered once more as
    `_canonical(chunk)`, with its blanks normalised, which `str.split()`
    would not tell apart; once one chunk has been taken that way, later
    chunks are normalised before they are offered. A chunk rejected both
    ways goes to the line loop, which alone reports errors, always from
    the original text.
    """
    if isinstance(data, bytes):
        # latin-1 maps every byte to one character, so decoding cannot fail
        data = data.decode("latin-1")
    n = -1
    adj: list[int] = []
    weights: list[int] = []
    weighted = 0
    declared_m = 0
    mat = bytearray()

    def unread_lines() -> Iterator[tuple[int, str]]:
        """The numbered lines that `_read_edges` leaves to the loop below,
        which alone reports errors. From the first line that starts with
        `e`, the text is cut at line ends into chunks and each chunk is
        offered to `_read_edges` whole, as it stands or normalised; n and
        adj are read, and mat made for a dense block, only after the loop
        has read every line before that first one."""
        nonlocal mat
        if data.startswith("e"):
            pos = 0
        else:
            pos = data.find("\ne") + 1 or len(data) + 1
        if pos:
            yield from enumerate(data[: pos - 1].split("\n"), start=1)
        # a miss rejects an id out of range and a form like `01` or `+1`;
        # ends holds the same ids glued to the start of the next edge line,
        # and shares their int values
        ids = {str(v + 1): v for v in range(n)}
        ends = {key + "\ne": v for key, v in ids.items()}
        rows = None
        if 0 < n and n * n <= 2 * (len(data) - pos):
            mat = bytearray(b"0") * (n * n)
            view = memoryview(mat)
            rows = [view[u * n : (u + 1) * n] for u in range(n)]
        line_no = data.count("\n", 0, pos) + 1
        canonical = False
        while pos < len(data):
            end = data.find("\n", min(pos + _CHUNK_CHARS, len(data)) - 1)
            if end < 0:
                end = len(data)
            chunk = data[pos:end]
            if canonical:
                taken = _read_edges(_canonical(chunk), ids, ends, adj, mat, rows)
            elif not (taken := _read_edges(chunk, ids, ends, adj, mat, rows)):
                text = _canonical(chunk)
                taken = canonical = text != chunk and _read_edges(text, ids, ends, adj, mat, rows)
            if not taken:
                yield from enumerate(chunk.split("\n"), start=line_no)
            line_no += chunk.count("\n") + 1
            pos = end + 1

    for line_no, raw in unread_lines():
        line = raw.rstrip("\r")
        fields = line.split()
        if not fields or fields[0] == "c":
            continue
        if not line.isascii():
            raise DimacsError(line_no, f"non-ASCII character in line: {line!r}")
        kind = fields[0]
        # int() reads `1_0` as 10, so each numeric line rejects underscores
        if kind == "p":
            if n >= 0:
                raise DimacsError(line_no, "duplicate problem line")
            if len(fields) != 4 or fields[1] != "edge" or "_" in line:
                raise DimacsError(line_no, f"malformed problem line: {line!r}")
            try:
                n, declared_m = int(fields[2]), int(fields[3])
            except ValueError:
                raise DimacsError(line_no, f"malformed problem line: {line!r}") from None
            if n < 0 or declared_m < 0:
                raise DimacsError(line_no, "problem line counts must be >= 0")
            if n > MAX_VERTICES:
                raise DimacsError(line_no, f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
            adj = [0] * n
            weights = [1] * n
        elif kind == "e":
            if n < 0:
                raise DimacsError(line_no, "edge line before problem line")
            if len(fields) != 3 or "_" in line:
                raise DimacsError(line_no, f"malformed edge line: {line!r}")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise DimacsError(line_no, f"malformed edge line: {line!r}") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise DimacsError(line_no, f"edge endpoint out of range 1..{n}")
            if u == v:
                raise DimacsError(line_no, f"self-loop at vertex {u}")
            u -= 1
            v -= 1
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        elif kind == "n":
            if n < 0:
                raise DimacsError(line_no, "weight line before problem line")
            if len(fields) != 3 or "_" in line:
                raise DimacsError(line_no, f"malformed weight line: {line!r}")
            try:
                v, w = int(fields[1]), int(fields[2])
            except ValueError:
                raise DimacsError(line_no, f"malformed weight line: {line!r}") from None
            if not 1 <= v <= n:
                raise DimacsError(line_no, f"weight vertex out of range 1..{n}")
            if w <= 0:
                raise DimacsError(line_no, f"weight of vertex {v} must be positive")
            if weighted >> (v - 1) & 1:
                raise DimacsError(line_no, f"duplicate weight line for vertex {v}")
            weighted |= 1 << (v - 1)
            weights[v - 1] = w
        else:
            raise DimacsError(line_no, f"unrecognized line: {line!r}")
    if n < 0:
        raise DimacsError(max(1, data.count("\n") + 1), "missing problem line")
    if mat:
        for u in range(n):
            adj[u] |= int(mat[u * n : (u + 1) * n][::-1], 2) | int(mat[u::n][::-1], 2)
    g = Graph._from_masks(n, adj, weights)
    if g.m != declared_m:
        warnings.warn(
            f"problem line declares {declared_m} edges, file has {g.m}",
            DimacsWarning,
            stacklevel=2,
        )
    return g


def write_dimacs(g: Graph) -> str:
    """Serialize to DIMACS text; parse_dimacs(write_dimacs(g)) == g.

    Non-unit weights are emitted as `n <v> <w>` lines. The edge lines of
    vertex u are written as one string: its neighbours above u are
    gathered from a list of the 1-based vertex names, as in `edges()`, and
    joined with the separator `\ne <u+1> `, so the text costs a few C-level
    passes per vertex instead of a string per edge.
    """
    out = [f"p edge {g.n} {g.m}"]
    out += [f"n {v + 1} {w}" for v, w in enumerate(g.weights) if w != 1]
    names = [str(v + 1) for v in range(g.n)]
    for u, mask in enumerate(g.adj):
        if mask >> (u + 1):
            head = f"e {u + 1} "
            out.append(head + f"\n{head}".join(_above(mask, u, names)))
    out.append("")
    return "\n".join(out)
