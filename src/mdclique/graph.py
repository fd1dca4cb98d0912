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
from typing import Iterable, Iterator


# largest vertex count parse_dimacs accepts: the bitset adjacency of a dense
# graph takes about n * n / 8 bytes, 512 MiB at this bound, and the parser
# allocates its per-vertex lists before it reads any edge
MAX_VERTICES = 1 << 16


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
        irreflexivity. The masks are copied."""
        adj = list(adj)
        if len(adj) != n:
            raise ValueError("need one adjacency mask per vertex")
        full = (1 << n) - 1
        for v, mask in enumerate(adj):
            if mask & ~full:
                raise ValueError(f"adjacency of vertex {v} out of range")
            if mask >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        # symmetry: the bit matrix equals its transpose; row v as a string
        # holds bit u of adj[v] at index u
        rows = [format(mask, f"0{n}b")[::-1] for mask in adj]
        for u, column in enumerate(map("".join, zip(*rows))):
            if column != rows[u]:
                v = next(v for v in range(n) if column[v] != rows[u][v])
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
        for u in range(self.n):
            for v in iter_bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

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


def _compress(adj: list[int], rows: list[int], cols: list[int]) -> list[int]:
    """The submatrix of adj on the given rows and columns: bit j of entry i
    is bit cols[j] of adj[rows[i]].

    Each row is formatted as a binary string of the full width len(adj)
    (a row may hold bits outside cols) and its column characters are
    gathered by one itemgetter, so a row costs a few C-level passes
    instead of a Python loop over its bits.
    """
    if not cols:
        # itemgetter() takes at least one index
        return [0] * len(rows)
    n = len(adj)
    get = operator.itemgetter(*[n - 1 - c for c in reversed(cols)])
    width = f"0{n}b"
    return [int("".join(get(format(adj[r], width))), 2) for r in rows]


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


def parse_dimacs(data: str | bytes) -> Graph:
    """Parse the DIMACS ASCII clique format.

    Accepted lines: `c ...` comments anywhere, exactly one `p edge <n> <m>`
    problem line, `e <u> <v>` edges (1-based, deduplicated, symmetrized),
    and optional `n <v> <w>` vertex-weight lines. Lines may end in LF or
    CRLF; tokens are separated by runs of spaces/tabs. Comment lines may
    hold any bytes; any other line must be ASCII. The declared edge count
    is advisory: a mismatch warns (DimacsWarning) instead of failing. At
    most MAX_VERTICES vertices are accepted.
    """
    if isinstance(data, bytes):
        # latin-1 maps every byte to one character, so decoding cannot fail
        data = data.decode("latin-1")
    n = -1
    adj: list[int] = []
    weights: list[int] = []
    weighted = 0
    declared_m = 0
    for line_no, raw in enumerate(data.split("\n"), start=1):
        line = raw.rstrip("\r")
        fields = line.split()
        if not fields or fields[0] == "c":
            continue
        if not line.isascii():
            raise DimacsError(line_no, f"non-ASCII character in line: {line!r}")
        kind = fields[0]
        if kind == "p":
            if n >= 0:
                raise DimacsError(line_no, "duplicate problem line")
            if len(fields) != 4 or fields[1] != "edge":
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
            if len(fields) != 3:
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
            if len(fields) != 3:
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

    Non-unit weights are emitted as `n <v> <w>` lines.
    """
    out = [f"p edge {g.n} {g.m}"]
    for v, w in enumerate(g.weights):
        if w != 1:
            out.append(f"n {v + 1} {w}")
    for u, v in g.edges():
        out.append(f"e {u + 1} {v + 1}")
    out.append("")
    return "\n".join(out)
