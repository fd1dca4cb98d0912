"""Modular decomposition trees.

A module is a vertex set whose members all have the same neighbors outside
the set. The strong modules (those overlapping no other module) form a
canonical rooted tree: leaves are vertices, and each internal node is typed
Parallel (children have no cross edges), Series (all cross edges present),
or Prime (the quotient on the children has only trivial modules).

`decompose` splits each span top-down: into its connected components
(Parallel), else its co-connected components (Series), else the prime
node's children, the maximal proper modules. Those come from partition
refinement around a pivot, M(G, v), and reachability in the forcing graph
of the quotient G/M(G, v) (Ehrenfeucht, Gabow, McConnell and Sullivan,
J. Algorithms 1994), built on the graph's own rows of one vertex per
class, with no gathered copy. In the refinement each part carries a
superset of its splitters, and a split computes exact splitters for its
smaller half only (Hopcroft's rule; Habib, Paul and Viennot, IJFCS 1999);
a part that outlives |part| candidate scans trades the rest for its exact
splitters, so a twin class is proved a module in O(|class|) steps. Spans
wait on an explicit stack, so no tree depth meets the interpreter's
recursion limit.

Deep trees (threshold graphs reach depth n - 1) stay cheap because no
level rescans its whole span. Every span is a mask of input ids. A span
still unsplit at depth n.bit_length(), where only a chain of small peels
can have brought it, carries a list of its members ranked by ascending
degree; its first component search starts at the list's last entry, its
highest-degree vertex, and its first co-component search at the first
entry, so the search from a vertex of the large side reaches most of it
in one round. A child holding at least half of its parent's span trims
the parent's list at both ends, and any other ranks its own members.
Every search is direction-optimising (Beamer et al., SC 2012): each round
ORs the rows of the frontier or sweeps the still-unreached vertices,
whichever set is smaller, so peeling one vertex off a large span costs
about the small side. Each later component is searched only inside the
still-unassigned rest.

It is not linear-time, but it is bitmask-fast in practice. The tree is
validated by a brute-force module enumerator in tests and by
`verify_tree`, which keeps pace with `decompose` without its forcing
graph. A prime quotient has a nontrivial module M iff one of three steps
finds one: if M avoids vertex 0 it lies inside a class of the refinement
avoiding 0; if it holds 0 but avoids 1, inside a class of the refinement
avoiding 1; if it holds both, it holds the module closure of {0, 1}. So
two refinements and one closure decide primality. Module and cross-edge
checks run from the smaller side of each cut, so a wide Parallel or
Series node costs the size of its children, not their number times n.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence

from .graph import Graph, _check_vertices, _compress, iter_bits


class NodeKind(Enum):
    LEAF = "Leaf"
    PARALLEL = "Parallel"
    SERIES = "Series"
    PRIME = "Prime"


class MDNode:
    """One node of the decomposition tree.

    `span` is the bitmask of original-graph vertices below the node. A leaf
    carries its `vertex`; internal nodes carry >= 2 `children`, ordered by
    the smallest vertex id in each child's span (the canonical order).
    """

    __slots__ = ("kind", "vertex", "children", "span")

    def __init__(self, kind: NodeKind, vertex: int | None = None,
                 children: tuple["MDNode", ...] = ()):
        self.kind = kind
        self.vertex = vertex
        self.children = children
        if kind is NodeKind.LEAF:
            if vertex is None or children:
                raise ValueError("a leaf needs a vertex and no children")
            self.span = 1 << vertex
        else:
            if vertex is not None or len(children) < 2:
                raise ValueError(f"a {kind.value} node needs >= 2 children and no vertex")
            span = 0
            for child in children:
                span |= child.span
            self.span = span

    @property
    def is_leaf(self) -> bool:
        return self.kind is NodeKind.LEAF

    def span_vertices(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.span))

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"MDNode(Leaf, vertex={self.vertex})"
        return f"MDNode({self.kind.value}, {len(self.children)} children)"


@dataclass(frozen=True)
class MDTree:
    root: MDNode
    graph: Graph

    def serialize(self) -> str:
        """One-line bracketed form, e.g. Prime[Series[a,b,c],d,Parallel[e,f],g]."""
        out = []
        stack: list[MDNode | str] = [self.root]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
            elif item.is_leaf:
                out.append(self.graph.label(item.vertex))
            else:
                out.append(f"{item.kind.value}[")
                stack.append("]")
                for i, child in enumerate(reversed(item.children)):
                    if i:
                        stack.append(",")
                    stack.append(child)
        return "".join(out)

    def iter_nodes(self) -> Iterator[MDNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def kind_counts(self) -> dict[str, int]:
        counts = {"prime": 0, "series": 0, "parallel": 0, "leaf": 0}
        for node in self.iter_nodes():
            counts[node.kind.value.lower()] += 1
        return counts

    def depth(self) -> int:
        """Longest root-to-leaf path in edges (0 for a bare leaf root)."""
        deepest = 0
        stack = [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            deepest = max(deepest, d)
            stack.extend((c, d + 1) for c in node.children)
        return deepest


def is_module(g: Graph, s: Iterable[int]) -> bool:
    """True iff every vertex outside s is adjacent to all of s or none of s."""
    mask = _check_vertices(g, s)
    if mask == 0:
        raise ValueError("a module must be nonempty")
    return _is_module_mask(g.adj, g.full_mask, mask)


def _is_module_mask(adj: list[int], universe: int, mask: int) -> bool:
    """True iff mask, a nonempty subset of universe, is a module of the
    universe-induced subgraph.

    An outside vertex x splits the mask iff it sees some members and not
    others; by symmetry of adj, iff two members' rows differ at x. So the
    check runs from the smaller side, as the cross-edge checks of
    `verify_tree` do: a small mask compares its members' rows on the
    outside, and a large one scans the outside. A child of a wide Parallel
    or Series node then costs its own size, not its parent's.
    """
    outside = universe & ~mask
    if mask.bit_count() <= outside.bit_count():
        row = adj[(mask & -mask).bit_length() - 1]
        return not any((row ^ adj[v]) & outside for v in iter_bits(mask))
    return all(adj[x] & mask in (0, mask) for x in iter_bits(outside))


def _reach(rows: list[int] | Mapping[int, int], start: int, within: int, flip: int = 0,
           back: list[int] | Mapping[int, int] | None = None) -> int:
    """Vertices of `within` reachable from the start mask, where the
    out-neighbours of vertex v are rows[v] ^ flip and its in-neighbours
    back[v] ^ flip (back defaults to rows, for a symmetric graph).

    Direction-optimising breadth-first search (Beamer, Asanovic and
    Patterson, SC 2012): each round works on the smaller of the frontier
    and the unreached rest of `within`. Top-down ORs the frontier's rows;
    bottom-up keeps each unreached vertex with an in-neighbour already
    reached. The search stops once nothing in `within` is unreached.
    """
    if back is None:
        back = rows
    reached = frontier = start
    unreached = within & ~start
    while frontier and unreached:
        if frontier.bit_count() <= unreached.bit_count():
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= rows[v] ^ flip
            frontier = nxt & unreached
        else:
            frontier = 0
            for u in iter_bits(unreached):
                if (back[u] ^ flip) & reached:
                    frontier |= 1 << u
        reached |= frontier
        unreached ^= frontier
    return reached


def _components(adj: list[int], span: int, flip: int, seed: int = 0) -> list[int]:
    """Connected components of the subgraph induced by span, as masks
    ordered by lowest vertex; with flip = span, those of its complement
    (each row is XORed with flip). No edge leaves a finished component, so
    each later search runs inside the still-unassigned rest only.

    The first search starts at the vertex mask `seed` if one is given.
    Every other component search starts at the rest's highest vertex, and
    every other co-component search at its lowest. A deep span passes its
    highest-degree vertex as the seed of its component search and its
    lowest-degree vertex as that of its co-component search (see
    `_decompose_span`): that is the vertex most likely to reach the large
    side in one round."""
    comps = []
    rest = span
    while rest:
        if not seed:
            seed = rest & -rest if flip else 1 << (rest.bit_length() - 1)
        comp = _reach(adj, seed, rest, flip)
        comps.append(comp)
        rest &= ~comp
        seed = 0
    comps.sort(key=lambda c: (c & -c).bit_length())
    return comps


def _maximal_modules_avoiding(adj: list[int], span: int, pivot: int) -> list[int]:
    """Maximal modules of the span-induced subgraph that avoid `pivot`.

    Partition refinement from {N(pivot), non-neighbours}, where each part
    carries a superset of the vertices that split it (adjacent to some but
    not all of it). A candidate that splits no part splits none of its
    subsets and is dropped; a part with none left is a maximal module. A
    part scans at most |part| candidates: if none of them splits it, its
    exact splitters, the OR of its lowest member's row XOR each other
    member's row, replace the rest, so proving a part a module costs
    O(|part|) steps whatever its candidates. At a split only the smaller
    half pays for exact splitters (Hopcroft's rule). The larger half
    inherits the remaining candidates plus the smaller half.
    """
    inside = span & ~(1 << pivot)
    nbrs = adj[pivot] & inside
    pending = [(p, inside ^ p) for p in (nbrs, inside ^ nbrs) if p]
    modules = []
    while pending:
        part, cands = pending.pop()
        # a single vertex is never split, so its candidates go unscanned
        scans = part.bit_count() if part & (part - 1) else 0
        for z in islice(iter_bits(cands), scans):
            hit = part & adj[z]
            if hit and hit != part:
                break
        else:
            if cands.bit_count() > scans > 0:
                # the part comes back with its exact splitters only, the
                # first of which is the one a longer scan would have met
                row = adj[(part & -part).bit_length() - 1]
                exact = 0
                for v in iter_bits(part & (part - 1)):
                    exact |= row ^ adj[v]
                pending.append((part, cands & exact))
            else:
                modules.append(part)
            continue
        # candidates up to z split nothing of this part any more
        cands = cands >> z + 1 << z + 1
        small, large = sorted((hit, part ^ hit), key=int.bit_count)
        first = small & -small
        row = adj[first.bit_length() - 1]
        splitters = 0
        for v in iter_bits(small ^ first):
            splitters |= row ^ adj[v]
        pending.append((small, splitters & (cands | large)))
        pending.append((large, cands | small))
    return modules


def _module_closure(adj: list[int], span: int, seed: int) -> int:
    """Smallest module of the span-induced subgraph containing seed.

    A vertex outside S splits S iff its adjacency to some member differs
    from its adjacency to a fixed member r, so the splitters of S are the
    outside bits of the OR of adj[r] ^ adj[v] over the members v. Each
    vertex added to S contributes one XOR to that OR, and the outside is
    never rescanned.
    """
    row = adj[(seed & -seed).bit_length() - 1]
    s = 0
    grow = seed
    diff = 0
    while grow:
        s |= grow
        for v in iter_bits(grow):
            diff |= row ^ adj[v]
        grow = diff & span & ~s
    return s


def _reaching_all(out: Mapping[int, int], into: Mapping[int, int], nodes: int) -> int:
    """Mask of the nodes that reach every node, in the digraph on the node
    mask `nodes` with out-neighbour masks `out` and their transpose `into`,
    both keyed by node and holding no bit outside `nodes`.

    The node that finishes last in a depth-first search lies in a source
    component of the condensation. A node reaching everything exists only
    if that source is the only one, and then the nodes reaching everything
    are exactly the nodes that reach it.
    """
    seen = 0
    last = 0
    rest = nodes
    while rest:
        start = rest & -rest
        seen |= start
        stack = [start.bit_length() - 1]
        while stack:
            fresh = out[stack[-1]] & ~seen
            if fresh:
                low = fresh & -fresh
                seen |= low
                stack.append(low.bit_length() - 1)
            else:
                last = stack.pop()
        rest = nodes & ~seen
    if _reach(out, 1 << last, nodes, back=into) != nodes:
        return 0
    return _reach(into, 1 << last, nodes, back=out)


def _prime_children(adj: list[int], span: int) -> list[int]:
    """Child spans of a prime node (span connected and co-connected).

    The children are the maximal proper modules. Partition refinement
    gives the maximal modules avoiding the pivot v, the classes M(G, v);
    each is a child or lies inside v's own child. On the quotient
    G/M(G, v), class X forces class Y when Y tells v and X apart, so the
    smallest module holding v and X is v plus every class X reaches. X is
    a child exactly when that module is the whole span: when X reaches
    every class. Any pivot gives the same children.

    The forcing digraph lives on the graph's own rows: its nodes are the
    classes' lowest members, the heads, by vertex id, and no submatrix is
    gathered.
    """
    pivot_bit = span & -span
    pivot = pivot_bit.bit_length() - 1
    classes = _maximal_modules_avoiding(adj, span, pivot)
    heads = 0
    for cls in classes:
        heads |= cls & -cls
    pv = adj[pivot] & heads
    # head x forces head y iff y is adjacent to exactly one of v and x; by
    # symmetry of adj, the transpose flips row y whole when y ~ v. The
    # self-loops this leaves where x ~ v change no reachability.
    forces = {}
    forced_by = {}
    for h in iter_bits(heads):
        row = adj[h] & heads
        forces[h] = row ^ pv
        forced_by[h] = row ^ heads if pv >> h & 1 else row
    sources = _reaching_all(forces, forced_by, heads)
    pivot_child = pivot_bit
    children = []
    for cls in classes:
        if sources & cls:
            children.append(cls)
        else:
            pivot_child |= cls
    children.append(pivot_child)
    return children


def _split(adj: list[int], span: int, high: int = 0, low: int = 0) -> tuple[NodeKind, list[int]]:
    """Kind and child spans of the node over a span of >= 2 vertices; the
    first component search starts at the vertex mask `high` and the first
    co-component search at `low`, where given."""
    comps = _components(adj, span, 0, high)
    if len(comps) > 1:
        return NodeKind.PARALLEL, comps
    cocomps = _components(adj, span, span, low)
    if len(cocomps) > 1:
        return NodeKind.SERIES, cocomps
    return NodeKind.PRIME, _prime_children(adj, span)


# (ranked, lo, hi, count): ranked[lo:hi] holds the count members of a span
# in ascending degree, ties by id, among vertices that have left the span;
# ranked[lo] and ranked[hi - 1] are members
_Steer = tuple[list[int], int, int, int]


def _steer(adj: list[int], span: int, parent: _Steer | None) -> _Steer:
    """The steering list of a span split at depth >= n.bit_length().

    A span holding at least half of its parent's span trims the parent's
    list to its own members at both ends; any other span sorts its members
    anew. A small child trimming its parent's list would scan past its
    siblings' entries, so a vertex is sorted again only when its span
    shrinks below half of its parent's: O(n log^2 n) steps in all."""
    count = span.bit_count()
    if parent and 2 * count >= parent[3]:
        ranked, lo, hi, _ = parent
        while not span >> ranked[lo] & 1:
            lo += 1
        while not span >> ranked[hi - 1] & 1:
            hi -= 1
    else:
        ranked = sorted(iter_bits(span), key=lambda v: adj[v].bit_count())
        lo, hi = 0, count
    return ranked, lo, hi, count


def _decompose_span(g: Graph) -> MDNode:
    """Tree of g; every span is a mask of input ids.

    A tree whose every split halved its span would end above depth
    n.bit_length(), so only long chains of small peels, as in threshold
    graphs, get deeper, and only they need a well-placed seed for
    `_components`. A span split at that depth or deeper carries a list of
    its members ranked by ascending degree in g (`_steer`), and its first
    component search starts at the list's last entry, its first
    co-component search at its first. Above the limit a bad seed costs
    O(|S|) steps per level, O(n log n) in all, and shallow trees rank
    nothing.

    Each stack frame is an internal node under construction: (kind, built
    children, pending child spans, depth, steering list or None)."""
    limit = g.n.bit_length()
    adj = g.adj
    span = g.full_mask
    depth = 0
    steer: _Steer | None = None
    stack: list[tuple[NodeKind, list[MDNode], list[int], int, _Steer | None]] = []
    while True:
        if span & (span - 1):
            if depth < limit:
                kind, pending = _split(adj, span)
            else:
                steer = _steer(adj, span, steer)
                ranked, lo, hi, _ = steer
                kind, pending = _split(adj, span, 1 << ranked[hi - 1], 1 << ranked[lo])
            stack.append((kind, [], pending, depth, steer))
            span = pending.pop()
            depth += 1
            continue
        node = MDNode(NodeKind.LEAF, vertex=span.bit_length() - 1)
        # hand the finished node to its parent, closing every frame that
        # has no pending span left, until one does
        while stack:
            kind, built, pending, depth, steer = stack[-1]
            built.append(node)
            if pending:
                span = pending.pop()
                depth += 1
                break
            stack.pop()
            built.sort(key=lambda c: (c.span & -c.span).bit_length())
            node = MDNode(kind, children=tuple(built))
        else:
            return node


def decompose(g: Graph) -> MDTree:
    """Canonical modular decomposition tree of g (n >= 1).

    Single-vertex graphs decompose to a bare leaf root. Children of every
    internal node are ordered by smallest vertex id in their spans, so equal
    graphs yield identical trees.

    The splitting works in input ids throughout. From depth
    n.bit_length() on, each span's members ranked by degree steer its
    component searches (see `_decompose_span` and `_components`).
    """
    if g.n < 1:
        raise ValueError("cannot decompose an empty graph")
    return MDTree(root=_decompose_span(g), graph=g)


def quotient(g: Graph, node: MDNode, child_weights: list[int],
             order: Sequence[int] | None = None) -> Graph:
    """Quotient of an internal node with the given per-child weights:
    two quotient vertices are adjacent iff any (hence every) pair of their
    spans' vertices is adjacent in g. Quotient vertex i is
    node.children[order[i]], with weight child_weights[order[i]]; `order`
    is a permutation of the child indices and defaults to the canonical
    order, so that vertex i is node.children[i].

    Adjacency is decided by one representative per child (valid because the
    children are modules), in one gather of g's rows.
    """
    if node.is_leaf:
        raise ValueError("quotient of a leaf node")
    k = len(node.children)
    if len(child_weights) != k:
        raise ValueError(f"expected {k} child weights, got {len(child_weights)}")
    if order is None:
        children = node.children
    else:
        if sorted(order) != list(range(k)):
            raise ValueError(f"order must be a permutation of range({k})")
        children = [node.children[i] for i in order]
        child_weights = [child_weights[i] for i in order]
    reps = [(c.span & -c.span).bit_length() - 1 for c in children]
    # a symmetric submatrix of the symmetric, loop-free adjacency is itself
    # symmetric and loop-free, so the trusted constructor applies; it still
    # checks that every weight is a positive integer
    return Graph._from_masks(k, _compress(g.adj, reps), child_weights)


def enumerate_modules_bruteforce(g: Graph, limit: int = 15) -> list[tuple[int, ...]]:
    """All nonempty modules by exhaustive subset check, ordered by
    (size, vertex tuple). Only feasible for small n; the guard is `limit`."""
    if g.n > limit:
        raise ValueError(f"n={g.n} exceeds brute-force limit {limit}")
    full = g.full_mask
    adj = g.adj
    found = []
    for mask in range(1, full + 1):
        if _is_module_mask(adj, full, mask):
            found.append(tuple(iter_bits(mask)))
    found.sort(key=lambda t: (len(t), t))
    return found


def _quotient_is_primitive(qadj: list[int]) -> bool:
    """True iff the graph with adjacency qadj (k >= 2 vertices) has only
    trivial modules.

    Exact, with two refinements and one closure. The maximal modules that
    avoid a vertex v partition the other vertices, each class is a module,
    and every module avoiding v lies inside one class (Ehrenfeucht, Gabow,
    McConnell and Sullivan, J. Algorithms 1994). A nontrivial module M
    falls into one of three cases, each caught by one step:
    - M avoids 0: it lies inside a class of the refinement avoiding 0,
      which then has two members;
    - M holds 0 but avoids 1: it lies inside a class of the refinement
      avoiding 1, which then has two members;
    - M holds 0 and 1: it holds the module closure of {0, 1}, which then
      is not the whole vertex set.
    Conversely a class with two members, or a closure short of the whole
    set, is itself a nontrivial module. This stays independent of the
    forcing graph that `decompose` uses for the same question.
    """
    full = (1 << len(qadj)) - 1
    for pivot in (0, 1):
        if any(cls & (cls - 1) for cls in _maximal_modules_avoiding(qadj, full, pivot)):
            return False
    return _module_closure(qadj, full, 0b11) == full


def verify_tree(g: Graph, t: MDTree) -> list[str]:
    """Check every tree invariant; returns a list of violations (empty = valid).

    Each entry names the offending node by its child-index path from the
    root and the rule violated.
    """
    problems: list[str] = []

    def report(path: str | tuple, msg: str) -> None:
        # below the root a path is (parent path, child index), joined only
        # here, so a deep tree pays for the paths it reports and no others
        steps = []
        while not isinstance(path, str):
            path, i = path
            steps.append(f".{i}")
        problems.append(path + "".join(reversed(steps)) + f": {msg}")

    if t.root.span != g.full_mask:
        report("root", f"span {t.root.span_vertices()} != V(G)")
        # ids outside V(G) have no rows to check the tree against
        if t.root.span & ~g.full_mask:
            return problems

    # each node is checked as a module of its parent's span only: a module
    # of a module of G is a module of G, and the root's parent is V(G)
    stack = [(t.root, "root", g.full_mask)]
    leaves = 0
    while stack:
        node, path, parent_span = stack.pop()
        if node.is_leaf:
            leaves |= 1 << node.vertex
            if node.span != 1 << node.vertex:
                report(path, "leaf span != {vertex}")
            continue
        if len(node.children) < 2:
            report(path, "internal node with < 2 children")
        union = 0
        for i, child in enumerate(node.children):
            if union & child.span:
                report(path, f"child {i} span overlaps earlier siblings")
            union |= child.span
        if union != node.span:
            report(path, "children spans do not partition the span")
        if not _is_module_mask(g.adj, parent_span, node.span):
            report(path, "span is not a module of the graph")
        # the adjacency is symmetric, so the cross edges between a child and
        # the rest of the span are checked from the smaller side: a chain of
        # peels then costs O(1) rows per node instead of O(n)
        if node.kind is not NodeKind.PRIME:
            series = node.kind is NodeKind.SERIES
            for i, child in enumerate(node.children):
                side, other = sorted((child.span, node.span & ~child.span), key=int.bit_count)
                want = other if series else 0
                if any(g.adj[v] & other != want for v in iter_bits(side)):
                    report(path, f"{node.kind.value.lower()} node: child {i} "
                           + ("misses a cross edge" if series else "has a cross edge"))
            if any(c.kind is node.kind for c in node.children):
                report(path, "{0} node with a {0} child".format(node.kind.value.lower()))
        else:
            k = len(node.children)
            if k < 4:
                report(path, "prime node with < 4 children")
            q = quotient(g, node, [1] * k)
            if q.m == 0:
                report(path, "prime node quotient is edgeless")
            elif q.m == k * (k - 1) // 2:
                report(path, "prime node quotient is complete")
            if not _quotient_is_primitive(q.adj):
                report(path, "prime node quotient has a nontrivial module")
        for i in reversed(range(len(node.children))):
            stack.append((node.children[i], (path, i), node.span))

    if leaves != g.full_mask:
        report("root", "tree leaves are not exactly V(G)")
    return problems
