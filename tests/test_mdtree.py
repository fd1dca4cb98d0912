from __future__ import annotations

import random
import time
import tracemalloc
from collections import deque

import pytest

from mdclique import (
    Graph,
    MDNode,
    MDTree,
    NodeKind,
    coprime_graph,
    decompose,
    enumerate_modules_bruteforce,
    gnp,
    induced_subgraph,
    is_module,
    quotient,
    solve,
    verify_tree,
)
from mdclique.graph import _compress, iter_bits, vertex_mask
from mdclique.mdtree import (
    _components,
    _maximal_modules_avoiding,
    _module_closure,
    _prime_children,
    _reach,
    _reaching_all,
)
from conftest import alternating_threshold

HUB7_TREE = "Prime[Series[a,b,c],d,Parallel[e,f],g]"
# canonical decomposition of the coprime graph on 1..8: vertices 1, 5 and 7
# are universal (series at the root), 2, 4, 8 are false twins (parallel),
# and 3 joins onto them; cross-checked below against the exhaustive module
# enumerator
COPRIME8_TREE = "Series[1,Parallel[Series[Parallel[2,4,8],3],6],5,7]"


def strong_modules_bruteforce(g: Graph) -> set[int]:
    """Strong modules (overlapping no other module), as span masks."""
    masks = [vertex_mask(m) for m in enumerate_modules_bruteforce(g)]
    strong = set()
    for a in masks:
        if all(
            not (a & b) or (a & b) == a or (a & b) == b
            for b in masks
            if b != a
        ):
            strong.add(a)
    return strong


def tree_spans(t: MDTree) -> set[int]:
    return {node.span for node in t.iter_nodes()}


# A substitution spec is NodeKind.LEAF (one vertex) or (kind, [block specs]).
# A Parallel or Series spec has >= 2 blocks, none of its own kind; a Prime
# spec substitutes its k >= 4 blocks into the path P_k, which has only
# trivial modules. The strong modules of the built graph are then exactly
# the spans of the spec's nodes, each with the spec's kind.
_OTHER = {NodeKind.PARALLEL: NodeKind.SERIES, NodeKind.SERIES: NodeKind.PARALLEL}


def cotree_spec(rng: random.Random, size: int, kind: NodeKind):
    """Random cograph of `size` vertices whose root has the given kind."""
    if size == 1:
        return NodeKind.LEAF
    cuts = sorted(rng.sample(range(1, size), rng.randint(1, min(size - 1, 4))))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [size])]
    return (kind, [cotree_spec(rng, p, _OTHER[kind]) for p in parts])


def threshold_spec(rng: random.Random, size: int):
    """Threshold graph of `size` >= 2 vertices: runs of isolated and
    dominating vertices, so its tree is a caterpillar of depth up to size - 1."""
    spec = NodeKind.LEAF
    kind = rng.choice(list(_OTHER))
    left = size - 1
    while left:
        run = rng.randint(1, min(left, 3))
        left -= run
        spec = (kind, [spec] + [NodeKind.LEAF] * run)
        kind = _OTHER[kind]
    return spec


def prime_spec(rng: random.Random, k: int, levels: int):
    """Path P_k with each vertex replaced by a random block: a vertex, a
    cograph, a threshold graph or, for `levels` > 0, a smaller substituted
    path."""
    blocks = []
    for _ in range(k):
        roll = rng.random()
        if levels and roll < 0.15:
            blocks.append(prime_spec(rng, rng.randint(4, 8), levels - 1))
        elif roll < 0.4:
            blocks.append(NodeKind.LEAF)
        elif roll < 0.7:
            blocks.append(cotree_spec(rng, rng.randint(2, 20), rng.choice(list(_OTHER))))
        else:
            blocks.append(threshold_spec(rng, rng.randint(2, 24)))
    return (NodeKind.PRIME, blocks)


def substituted_graph(spec, seed: int) -> tuple[Graph, dict[int, NodeKind]]:
    """Build the spec's graph with randomly permuted vertex ids, plus its
    strong modules as span -> tree node kind."""
    def size(spec) -> int:
        return 1 if spec is NodeKind.LEAF else sum(size(b) for b in spec[1])

    n = size(spec)
    ids = list(range(n))
    random.Random(seed).shuffle(ids)
    adj = [0] * n
    kinds: dict[int, NodeKind] = {}

    def build(spec) -> int:
        if spec is NodeKind.LEAF:
            span = 1 << ids.pop()
            kinds[span] = NodeKind.LEAF
            return span
        kind, blocks = spec
        spans = [build(b) for b in blocks]
        whole = sum(spans)  # the blocks are disjoint
        for i, s in enumerate(spans):
            if kind is NodeKind.SERIES:
                joined = whole & ~s
            elif kind is NodeKind.PRIME:
                joined = (spans[i - 1] if i else 0) | (spans[i + 1] if i + 1 < len(spans) else 0)
            else:
                joined = 0
            for v in iter_bits(s):
                adj[v] |= joined
        kinds[whole] = kind
        return whole

    build(spec)
    return Graph.from_adjacency(n, adj), kinds


def unlabeled_shape(node: MDNode) -> str:
    if node.is_leaf:
        return "."
    inner = ",".join(sorted(unlabeled_shape(c) for c in node.children))
    return f"{node.kind.value}[{inner}]"


def reference_reach(out: list[int], start: int, within: int) -> int:
    """Plain breadth-first search over explicit out-neighbour masks: the
    start mask plus every vertex of `within` reachable through `within`."""
    seen = set(iter_bits(start))
    queue = deque(seen)
    while queue:
        for u in iter_bits(out[queue.popleft()] & within):
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return vertex_mask(seen)


def twin_blowup(rng: random.Random, max_n: int) -> Graph:
    """A small gnp with each vertex replaced by an independent set or a
    clique of 1-3 vertices (false or true twins), at most max_n in all,
    with shuffled ids."""
    sizes: list[int] = []
    while sum(sizes) < max_n:
        sizes.append(rng.randint(1, min(3, max_n - sum(sizes))))
        if rng.random() < 0.2:
            break
    base = gnp(len(sizes), rng.choice([0.3, 0.5, 0.7]), seed=rng.randrange(10**9))
    n = sum(sizes)
    ids = list(range(n))
    rng.shuffle(ids)
    blocks = []
    for size in sizes:
        blocks.append(vertex_mask(ids[:size]))
        del ids[:size]
    adj = [0] * n
    for b, block in enumerate(blocks):
        joined = 0
        for c in iter_bits(base.adj[b]):
            joined |= blocks[c]
        clique = rng.random() < 0.5
        for v in iter_bits(block):
            adj[v] = joined | (block & ~(1 << v) if clique else 0)
    return Graph.from_adjacency(n, adj)


def reference_prime_children(adj: list[int], span: int) -> list[int]:
    """The prime split on a gathered quotient: the classes' representatives
    and the pivot are compressed into a (k + 1)-vertex copy, whose rows,
    with the pivot's column masked off, index the forcing digraph by class
    number."""
    pivot_bit = span & -span
    pivot = pivot_bit.bit_length() - 1
    classes = _maximal_modules_avoiding(adj, span, pivot)
    full = (1 << len(classes)) - 1
    reps = [(cls & -cls).bit_length() - 1 for cls in classes]
    rows = [row & full for row in _compress(adj, reps + [pivot])]
    pv = rows.pop()
    forces = [row ^ pv for row in rows]
    forced_by = [row ^ full if pv >> j & 1 else row for j, row in enumerate(rows)]
    sources = _reaching_all(forces, forced_by, full)
    pivot_child = pivot_bit
    children = []
    for i, cls in enumerate(classes):
        if sources >> i & 1:
            children.append(cls)
        else:
            pivot_child |= cls
    children.append(pivot_child)
    return children


def random_rows(rng: random.Random, n: int, p: float) -> list[int]:
    """Out-neighbour masks of a random loop-free digraph."""
    return [vertex_mask(u for u in range(n) if u != v and rng.random() < p) for v in range(n)]


def random_subset(rng: random.Random, n: int) -> int:
    return vertex_mask(v for v in range(n) if rng.random() < 0.7)


def shuffled_rows(adj: list[int], seed: int) -> list[int]:
    """The rows of adj with the vertex ids permuted at random."""
    ids = list(range(len(adj)))
    random.Random(seed).shuffle(ids)
    return _compress(adj, ids)


def chain_over(adj: list[int], levels: int, seed: int, join_first: bool = True) -> Graph:
    """A threshold chain of `levels` vertices around the graph with rows
    adj, on shuffled ids: each new vertex joins every earlier vertex or
    none, alternately, the first one joining iff join_first. Each adds one
    tree level above adj's root when join_first is True for a Parallel or
    prime root, or False for a Series or prime root."""
    rows = list(adj)
    for level in range(levels):
        n = len(rows)
        if (level % 2 == 0) == join_first:
            rows = [row | 1 << n for row in rows] + [(1 << n) - 1]
        else:
            rows.append(0)
    return Graph._from_masks(len(rows), shuffled_rows(rows, seed))


def timed_decompose(g: Graph) -> tuple[MDTree, float]:
    started = time.perf_counter()
    t = decompose(g)
    return t, time.perf_counter() - started


class TestIsModule:
    def test_hub7_abc(self, hub7):
        assert is_module(hub7, [0, 1, 2])

    def test_hub7_ef(self, hub7):
        assert is_module(hub7, [4, 5])

    def test_hub7_ad_is_not(self, hub7):
        # e is adjacent to d but not to a
        assert not is_module(hub7, [0, 3])

    def test_singletons_and_v(self, hub7):
        for v in range(7):
            assert is_module(hub7, [v])
        assert is_module(hub7, range(7))

    def test_empty_rejected(self, hub7):
        with pytest.raises(ValueError, match="nonempty"):
            is_module(hub7, [])

    @pytest.mark.parametrize("s", [[-1], [7], [0, 7]])
    def test_out_of_range_rejected(self, hub7, s):
        with pytest.raises(ValueError, match="out of range"):
            is_module(hub7, s)


class TestDecompose:
    def test_hub7_golden(self, hub7):
        assert decompose(hub7).serialize() == HUB7_TREE

    def test_coprime8_golden(self):
        g = coprime_graph(8)
        t = decompose(g)
        assert t.serialize() == COPRIME8_TREE
        # the golden is pinned by the strong modules themselves
        assert tree_spans(t) == strong_modules_bruteforce(g)

    def test_single_vertex(self):
        t = decompose(Graph(1))
        assert t.root.is_leaf and t.root.vertex == 0
        assert t.depth() == 0
        assert t.serialize() == "1"

    def test_complete_graph_is_series(self):
        for n in (2, 3, 6):
            g = gnp(n, 1.0, seed=0)
            root = decompose(g).root
            assert root.kind is NodeKind.SERIES
            assert all(c.is_leaf for c in root.children)
            assert len(root.children) == n

    def test_edgeless_graph_is_parallel(self):
        root = decompose(Graph(4)).root
        assert root.kind is NodeKind.PARALLEL
        assert len(root.children) == 4

    def test_two_vertex_cases(self):
        assert decompose(Graph(2, [(0, 1)])).root.kind is NodeKind.SERIES
        assert decompose(Graph(2)).root.kind is NodeKind.PARALLEL

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            decompose(Graph(0))

    def test_internal_spans_are_modules(self, hub7):
        for g in (hub7, coprime_graph(12), gnp(15, 0.4, seed=9)):
            t = decompose(g)
            for node in t.iter_nodes():
                if not node.is_leaf:
                    assert is_module(g, node.span_vertices())

    def test_node_typing_on_quotients(self):
        rng = random.Random(17)
        for _ in range(40):
            g = gnp(rng.randint(2, 12), rng.random(), seed=rng.randint(0, 10**9))
            for node in decompose(g).iter_nodes():
                if node.is_leaf:
                    continue
                reps = [(c.span & -c.span).bit_length() - 1 for c in node.children]
                k = len(reps)
                cross = sum(
                    1
                    for i in range(k)
                    for j in range(i + 1, k)
                    if g.has_edge(reps[i], reps[j])
                )
                if node.kind is NodeKind.PARALLEL:
                    assert cross == 0
                elif node.kind is NodeKind.SERIES:
                    assert cross == k * (k - 1) // 2
                else:
                    assert 0 < cross < k * (k - 1) // 2
                    assert k >= 4
                    q = quotient(g, node, [1] * k)
                    mods = enumerate_modules_bruteforce(q)
                    assert all(len(m) in (1, k) for m in mods)

    def test_known_tree_at_scale(self):
        # two levels of paths substituted into a path of 100 blocks: far
        # beyond the brute-force enumerator, with the tree known by
        # construction
        spec = prime_spec(random.Random(44), 100, levels=2)
        g, expected = substituted_graph(spec, seed=47)
        assert 1800 <= g.n <= 2600
        t = decompose(g)
        assert {node.span: node.kind for node in t.iter_nodes()} == expected
        assert max(len(node.children) for node in t.iter_nodes()
                   if node.kind is NodeKind.PRIME) >= 100

    @pytest.mark.parametrize("cycle", [False, True])
    def test_long_shuffled_path_and_cycle_are_prime(self, cycle):
        # paths and cycles on >= 5 vertices have only trivial modules, so
        # the root is one prime node over n leaves; shuffled ids spread each
        # refinement part over the whole id range
        n = 3000
        ids = list(range(n))
        random.Random(71).shuffle(ids)
        edges = [(ids[i], ids[i + 1]) for i in range(n - 1)]
        if cycle:
            edges.append((ids[-1], ids[0]))
        root = decompose(Graph(n, edges)).root
        assert root.kind is NodeKind.PRIME
        assert [child.vertex for child in root.children] == list(range(n))

    def test_strong_modules_match_bruteforce(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 10)
            g = gnp(n, rng.choice([0.15, 0.35, 0.5, 0.7, 0.9]), seed=rng.randint(0, 10**9))
            assert tree_spans(decompose(g)) == strong_modules_bruteforce(g)

    def test_isomorphism_equivariance(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(2, 14)
            g = gnp(n, rng.random(), seed=rng.randint(0, 10**9))
            perm = list(range(n))
            rng.shuffle(perm)
            h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert unlabeled_shape(decompose(g).root) == unlabeled_shape(decompose(h).root)

    def test_no_degenerate_nesting(self):
        rng = random.Random(37)
        for _ in range(40):
            g = gnp(rng.randint(1, 14), rng.random(), seed=rng.randint(0, 10**9))
            for node in decompose(g).iter_nodes():
                for child in node.children:
                    if node.kind in (NodeKind.PARALLEL, NodeKind.SERIES):
                        assert child.kind is not node.kind


class TestSearchKernels:
    def test_reach_on_digraphs_with_transpose(self):
        rng = random.Random(61)
        for _ in range(300):
            n = rng.randint(1, 40)
            rows = random_rows(rng, n, rng.choice([0.02, 0.05, 0.1, 0.3, 0.6]))
            into = [vertex_mask(u for u in range(n) if rows[u] >> v & 1) for v in range(n)]
            within = random_subset(rng, n) | 1 << rng.randrange(n)
            start = 1 << rng.choice(list(iter_bits(within)))
            if rng.random() < 0.3:
                start |= within & random_subset(rng, n)
            expected = reference_reach(rows, start, within)
            assert _reach(rows, start, within, back=into) == expected
            transposed = reference_reach(into, start, within)
            assert _reach(into, start, within, back=rows) == transposed

    def test_reach_on_symmetric_graphs_both_flips(self):
        rng = random.Random(62)
        for _ in range(300):
            n = rng.randint(1, 40)
            adj = gnp(n, rng.choice([0.03, 0.1, 0.3, 0.7, 0.95]), seed=rng.randrange(10**9)).adj
            within = random_subset(rng, n) | 1 << rng.randrange(n)
            start = 1 << rng.choice(list(iter_bits(within)))
            for flip in (0, within):
                expected = reference_reach([row ^ flip for row in adj], start, within)
                assert _reach(adj, start, within, flip) == expected

    def test_components_both_flips(self):
        rng = random.Random(63)
        for _ in range(300):
            n = rng.randint(1, 40)
            adj = gnp(n, rng.choice([0.02, 0.05, 0.1, 0.5, 0.9, 0.97]), seed=rng.randrange(10**9)).adj
            span = random_subset(rng, n) | 1 << rng.randrange(n)
            for flip in (0, span):
                rows = [row ^ flip for row in adj]
                expected = []
                rest = span
                while rest:
                    comp = reference_reach(rows, rest & -rest, span)
                    expected.append(comp)
                    rest &= ~comp
                assert _components(adj, span, flip) == expected

    def test_maximal_modules_avoiding_match_bruteforce(self):
        # twin-rich inputs keep parts alive past |part| candidate scans, so
        # the refinement's switch to exact splitters is exercised too
        rng = random.Random(64)
        for trial in range(600):
            if trial % 2:
                g = twin_blowup(rng, 11)
            else:
                n = rng.randint(2, 11)
                g = gnp(n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]), seed=rng.randrange(10**9))
            n = g.n
            if n < 2:
                continue
            old_ids = sorted(rng.sample(range(n), rng.randint(2, n)))
            span = vertex_mask(old_ids)
            sub, _ = induced_subgraph(g, old_ids)
            modules = [vertex_mask(old_ids[v] for v in m)
                       for m in enumerate_modules_bruteforce(sub)]
            for pivot in old_ids:
                avoiding = [m for m in modules if not m >> pivot & 1]
                maximal = sorted(m for m in avoiding
                                 if not any(m != o and m & o == m for o in avoiding))
                assert sorted(_maximal_modules_avoiding(g.adj, span, pivot)) == maximal

    def test_reaching_all_on_a_node_mask_with_gaps(self):
        # the nodes are a scattered subset of 0..n-1, rows keyed by node
        rng = random.Random(66)
        for _ in range(300):
            n = rng.randint(1, 12)
            nodes = random_subset(rng, n) or 1 << rng.randrange(n)
            p = rng.choice([0.1, 0.3, 0.6])
            out = {v: vertex_mask(u for u in iter_bits(nodes) if u != v and rng.random() < p)
                   for v in iter_bits(nodes)}
            into = {v: vertex_mask(u for u in iter_bits(nodes) if out[u] >> v & 1)
                    for v in iter_bits(nodes)}
            expected = vertex_mask(v for v in iter_bits(nodes)
                                   if reference_reach(out, 1 << v, nodes) == nodes)
            assert _reaching_all(out, into, nodes) == expected

    def test_prime_children_match_gathered_reference(self):
        def check(adj: list[int], span: int) -> None:
            assert sorted(_prime_children(adj, span)) == sorted(reference_prime_children(adj, span))

        rng = random.Random(67)
        checked = 0
        while checked < 200:
            n = rng.randint(4, 14)
            g = gnp(n, rng.choice([0.3, 0.5, 0.7]), seed=rng.randrange(10**9))
            span = random_subset(rng, n)
            if (span.bit_count() >= 4 and len(_components(g.adj, span, 0)) == 1
                    and len(_components(g.adj, span, span)) == 1):
                check(g.adj, span)
                checked += 1
        for seed in range(4):
            g, _ = substituted_graph(prime_spec(random.Random(seed), 12, levels=1), seed)
            primes = [node for node in decompose(g).iter_nodes() if node.kind is NodeKind.PRIME]
            assert primes
            for node in primes:
                check(g.adj, node.span)
        g = coprime_graph(200)
        (node,) = [node for node in decompose(g).iter_nodes() if node.kind is NodeKind.PRIME]
        check(g.adj, node.span)

    def test_module_closure_matches_bruteforce(self):
        # the closure is the intersection of every module of the span that
        # holds the seed
        rng = random.Random(65)
        for _ in range(300):
            n = rng.randint(2, 11)
            g = gnp(n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]), seed=rng.randrange(10**9))
            old_ids = sorted(rng.sample(range(n), rng.randint(2, n)))
            span = vertex_mask(old_ids)
            sub, _ = induced_subgraph(g, old_ids)
            modules = [vertex_mask(old_ids[v] for v in m)
                       for m in enumerate_modules_bruteforce(sub)]
            seed = vertex_mask(rng.sample(old_ids, rng.randint(1, len(old_ids))))
            expected = span
            for m in modules:
                if m & seed == seed:
                    expected &= m
            assert _module_closure(g.adj, span, seed) == expected

    def test_deep_alternating_threshold(self):
        n = 3000
        g = alternating_threshold(n)
        t = decompose(g)
        assert verify_tree(g, t) == []
        assert t.depth() == n - 1
        sol, _ = solve(g)
        assert sol.weight == n // 2 + 1
        assert sol.vertices == (0, *range(1, n, 2))

    def test_deep_shuffled_threshold_under_five_seconds(self):
        # on random ids the lowest id of a span lies in its large side,
        # which a search seeded there would walk at every level
        n = 8000
        g = alternating_threshold(n)
        ids = list(range(n))
        random.Random(81).shuffle(ids)
        shuffled = Graph._from_masks(n, _compress(g.adj, ids))
        started = time.perf_counter()
        t = decompose(shuffled)
        elapsed = time.perf_counter() - started
        assert t.depth() == n - 1
        assert elapsed < 5.0
        sol, _ = solve(shuffled)
        assert sol.weight == n // 2 + 1
        new_id = {old: new for new, old in enumerate(ids)}
        assert sol.vertices == tuple(sorted(new_id[v] for v in (0, *range(1, n, 2))))

    def test_deep_chains_below_a_shallow_root_under_five_seconds(self):
        # a Parallel root over two shuffled threshold chains 3999 levels
        # deep: each chain ranks its own members, well below the root
        n = 4000
        g = alternating_threshold(n)
        adj: list[int] = []
        for seed in (1, 2):
            ids = list(range(n))
            random.Random(seed).shuffle(ids)
            base = len(adj)
            adj += [row << base for row in _compress(g.adj, ids)]
        union = Graph._from_masks(2 * n, adj)
        started = time.perf_counter()
        t = decompose(union)
        elapsed = time.perf_counter() - started
        assert t.root.kind is NodeKind.PARALLEL
        assert t.depth() == n
        assert t.kind_counts() == {"prime": 0, "series": n, "parallel": n - 1, "leaf": 2 * n}
        assert verify_tree(union, t) == []
        assert elapsed < 5.0
        sol, _ = solve(union)
        assert sol.weight == n // 2 + 1

    def test_chain_past_the_relabel_depth_keeps_its_tree(self):
        # depth 11, past the depth 12 .bit_length() = 4 from which spans are ranked
        t = decompose(alternating_threshold(12))
        assert t.serialize() == (
            "Series[Parallel[Series[Parallel[Series[Parallel[Series[Parallel["
            "Series[Parallel[Series[1,2],3],4],5],6],7],8],9],10],11],12]")

    def test_chain_over_a_thousand_small_children_under_two_seconds(self):
        # a Parallel node of 1000 K2s 200 levels deep: each K2 holds far
        # less than half of it, so it ranks its own two members instead of
        # trimming the Parallel node's list past its siblings' entries
        k2s = [1 << (v ^ 1) for v in range(2000)]
        g = chain_over(k2s, 200, seed=5)
        t, elapsed = timed_decompose(g)
        assert verify_tree(g, t) == []
        assert t.kind_counts() == {"prime": 0, "series": 1100, "parallel": 101, "leaf": 2200}
        assert t.depth() == 202
        assert elapsed < 2.0
        # the 100 joining vertices and one K2
        assert solve(g)[0].weight == 102

    def test_chain_over_three_deep_chains_under_two_seconds(self):
        # each of the three chains holds a third of the Parallel node below
        # the outer chain, so each is ranked anew and then trims its own list
        n = 2000
        inner = alternating_threshold(n).adj
        adj: list[int] = []
        for seed in (1, 2, 3):
            adj += [row << len(adj) for row in shuffled_rows(inner, seed)]
        g = chain_over(adj, 40, seed=6)
        t, elapsed = timed_decompose(g)
        assert verify_tree(g, t) == []
        assert t.kind_counts() == {"prime": 0, "series": 3020, "parallel": 3018, "leaf": 6040}
        assert t.depth() == 40 + 1 + n - 1
        assert elapsed < 2.0
        # one inner chain's best clique, n / 2 + 1, and the 20 joining vertices
        assert solve(g)[0].weight == n // 2 + 1 + 20

    def test_chain_over_a_deep_prime_node_under_two_seconds(self):
        # a shuffled path P_3000, a prime node with 3000 leaves, split 400
        # levels deep with its pivot at its lowest input id
        n = 3000
        path = [(1 << v - 1 if v else 0) | (1 << v + 1 if v + 1 < n else 0) for v in range(n)]
        g = chain_over(shuffled_rows(path, 7), 400, seed=8)
        t, elapsed = timed_decompose(g)
        assert verify_tree(g, t) == []
        assert t.kind_counts() == {"prime": 1, "series": 200, "parallel": 200, "leaf": 3400}
        assert t.depth() == 401
        assert elapsed < 2.0
        # an edge of the path and the 200 joining vertices
        assert solve(g)[0].weight == 202

    def test_chain_over_coprime_under_two_seconds(self):
        # coprime 800's root is Series, so the chain starts with a
        # Parallel level; below the chain its tree is 3 deep
        g = chain_over(coprime_graph(800).adj, 200, seed=9, join_first=False)
        t, elapsed = timed_decompose(g)
        assert verify_tree(g, t) == []
        # coprime 800's tree, {"prime": 1, "series": 1, "parallel": 125,
        # "leaf": 800}, under 100 levels of each kind
        assert t.kind_counts() == {"prime": 1, "series": 101, "parallel": 225, "leaf": 1000}
        assert t.depth() == 203
        assert elapsed < 2.0
        # 1 and the 139 primes up to 800 are pairwise coprime, and no 141
        # numbers are; the chain adds its 100 joining vertices
        assert solve(g)[0].weight == 1 + 139 + 100


class TestDecomposeMemory:
    def test_deep_chain_peak_is_the_tree(self):
        # the finished tree of a shuffled threshold chain of 8000 vertices
        # holds about 14 MiB; decompose keeps no copy of the graph on the
        # way, so its peak stays within 2 MiB of that
        n = 8000
        g = Graph._from_masks(n, shuffled_rows(alternating_threshold(n).adj, 81))
        tracemalloc.start()
        try:
            t = decompose(g)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert t.depth() == n - 1
        assert peak - held < 2 << 20

    def test_sparse_random_graph_peak(self):
        # a random graph of average degree 3 on 8192 vertices, with one
        # prime node; decompose peaks near 20 MiB here, and an index of the
        # rows that groups twins before refining would take over 40 MiB
        n = 8192
        rng = random.Random(5)
        adj = [0] * n
        m = 0
        while m < 3 * n // 2:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and not adj[u] >> v & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                m += 1
        g = Graph.from_adjacency(n, adj)
        tracemalloc.start()
        try:
            decompose(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 << 20

    def test_edgeless_graph_peak(self):
        # 16384 one-vertex components under one Parallel root: sorting them
        # by a key as wide as the span peaked at 36.8 MiB, and by the index
        # of the lowest vertex it peaks near 20 MiB
        tracemalloc.start()
        try:
            t = decompose(Graph(16384))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(t.root.children) == 16384
        assert peak < 28 << 20


class TestMDNode:
    # checked by raising, not by assert, so that python -O keeps the checks
    @pytest.mark.parametrize("kind, vertex, n_children", [
        (NodeKind.LEAF, None, 0),
        (NodeKind.LEAF, 0, 2),
        (NodeKind.PRIME, None, 0),
        (NodeKind.SERIES, None, 1),
        (NodeKind.PARALLEL, 0, 2),
    ])
    def test_malformed_node_rejected(self, kind, vertex, n_children):
        children = tuple(MDNode(NodeKind.LEAF, vertex=v) for v in range(1, n_children + 1))
        with pytest.raises(ValueError):
            MDNode(kind, vertex=vertex, children=children)


class TestVerifyTree:
    def test_decompose_output_is_valid(self, hub7):
        assert verify_tree(hub7, decompose(hub7)) == []

    def test_flat_series_over_hub7_rejected(self, hub7):
        bad = MDTree(
            root=MDNode(
                NodeKind.SERIES,
                children=tuple(MDNode(NodeKind.LEAF, vertex=v) for v in range(7)),
            ),
            graph=hub7,
        )
        problems = verify_tree(hub7, bad)
        assert problems
        assert any("cross edge" in p for p in problems)

    def test_parallel_over_edgeless(self):
        g = Graph(3)
        t = MDTree(
            root=MDNode(
                NodeKind.PARALLEL,
                children=tuple(MDNode(NodeKind.LEAF, vertex=v) for v in range(3)),
            ),
            graph=g,
        )
        assert verify_tree(g, t) == []

    def test_wrong_leaf_set_detected(self, hub7):
        sub = Graph(6, [(u, v) for u, v in hub7.edges() if v < 6])
        problems = verify_tree(hub7, decompose(sub))
        assert problems

    def test_random_decompositions_verify(self):
        rng = random.Random(41)
        for _ in range(50):
            g = gnp(rng.randint(1, 16), rng.random(), seed=rng.randint(0, 10**9))
            assert verify_tree(g, decompose(g)) == []

    @pytest.mark.parametrize("path_len", [5, 17])
    def test_prime_node_with_twins_rejected(self, path_len):
        # a path plus a false twin of one of its vertices: the flat Prime
        # node's quotient is the graph itself, whose twin pair is a
        # nontrivial module. A twin of vertex 2 avoids vertex 0 and is found
        # by the refinement avoiding 0; a twin of vertex 0 holds vertex 0
        # but avoids vertex 1 and is found by the refinement avoiding 1.
        # k = 6 and k = 18 sit on either side of 15 children.
        n = path_len + 1
        for twin_of in (2, 0):
            edges = [(v, v + 1) for v in range(path_len - 1)]
            edges += [(u, path_len) for u in (twin_of - 1, twin_of + 1) if u >= 0]
            g = Graph(n, edges)
            t = MDTree(
                root=MDNode(
                    NodeKind.PRIME,
                    children=tuple(MDNode(NodeKind.LEAF, vertex=v) for v in range(n)),
                ),
                graph=g,
            )
            assert verify_tree(g, t) == ["root: prime node quotient has a nontrivial module"]

    def test_non_module_inside_a_module_reported(self):
        # P4 0-1-2-3 joined to vertex 4: {0..3} is a module of the graph,
        # but {0, 1} is not a module even within it (2 sees 1, not 0)
        g = Graph(5, [(0, 1), (1, 2), (2, 3)] + [(v, 4) for v in range(4)])
        leaf = [MDNode(NodeKind.LEAF, vertex=v) for v in range(5)]
        t = MDTree(
            root=MDNode(NodeKind.SERIES, children=(
                MDNode(NodeKind.PRIME, children=(
                    MDNode(NodeKind.SERIES, children=(leaf[0], leaf[1])), leaf[2], leaf[3],
                )),
                leaf[4],
            )),
            graph=g,
        )
        problems = verify_tree(g, t)
        assert "root.0.0: span is not a module of the graph" in problems
        assert not any(p.startswith("root.0:") and "module of the graph" in p
                       for p in problems)

    def test_coprime_1200_verifies(self):
        # a prime node of 642 children: one closure per pair would take minutes
        g = coprime_graph(1200)
        assert verify_tree(g, decompose(g)) == []

    def test_tree_of_a_larger_graph_reported(self):
        # the tree's spans hold ids that have no row in the graph
        g = coprime_graph(8)
        assert verify_tree(g, decompose(coprime_graph(12))) == [
            f"root: span {tuple(range(12))} != V(G)"]

    @staticmethod
    def timed_verify(adj: list[int]) -> float:
        g = Graph._from_masks(len(adj), adj)
        t = decompose(g)
        started = time.perf_counter()
        assert verify_tree(g, t) == []
        return time.perf_counter() - started

    def test_shuffled_path_under_half_a_second(self):
        # one prime node over 4000 leaves: its quotient is the graph itself
        n = 4000
        path = [(1 << v - 1 if v else 0) | (1 << v + 1 if v + 1 < n else 0) for v in range(n)]
        assert self.timed_verify(shuffled_rows(path, 3)) < 0.5

    def test_shuffled_matching_under_a_second(self):
        # a Parallel root over 4000 children of two vertices: each child's
        # module check looks at its own two rows, not at the 7998 others
        matching = [1 << (v ^ 1) for v in range(8000)]
        assert self.timed_verify(shuffled_rows(matching, 4)) < 1.0


class TestQuotient:
    def test_hub7_root_quotient(self, hub7):
        t = decompose(hub7)
        q = quotient(hub7, t.root, [3, 1, 1, 1])
        assert q.n == 4
        assert list(q.edges()) == [(0, 1), (1, 2), (2, 3)]
        assert q.weights == [3, 1, 1, 1]

    def test_series_node_quotient_complete(self, hub7):
        series = decompose(hub7).root.children[0]
        assert series.kind is NodeKind.SERIES
        q = quotient(hub7, series, [1, 1, 1])
        assert q.m == 3

    def test_parallel_node_quotient_edgeless(self, hub7):
        parallel = decompose(hub7).root.children[2]
        assert parallel.kind is NodeKind.PARALLEL
        q = quotient(hub7, parallel, [1, 1])
        assert q.m == 0

    def test_order_permutes_the_children(self, hub7):
        root = decompose(hub7).root
        weights = [3, 1, 2, 5]
        canonical = quotient(hub7, root, weights)
        order = [2, 0, 3, 1]
        q = quotient(hub7, root, weights, order)
        assert q.weights == [weights[i] for i in order]
        for i in range(4):
            for j in range(4):
                assert q.has_edge(i, j) == canonical.has_edge(order[i], order[j])
        assert quotient(hub7, root, weights, range(4)).adj == canonical.adj

    @pytest.mark.parametrize("order", [[0, 1, 2], [0, 1, 2, 2], [0, 1, 2, 4], [1, 2, 3, 4]])
    def test_order_must_be_a_permutation(self, hub7, order):
        with pytest.raises(ValueError, match="permutation"):
            quotient(hub7, decompose(hub7).root, [1, 1, 1, 1], order)

    def test_weight_count_mismatch(self, hub7):
        with pytest.raises(ValueError, match="child weights"):
            quotient(hub7, decompose(hub7).root, [1, 1])

    def test_nonpositive_weight_rejected(self, hub7):
        with pytest.raises(ValueError, match="weight of vertex 2"):
            quotient(hub7, decompose(hub7).root, [1, 1, 0, 1])

    def test_leaf_rejected(self, hub7):
        leaf = decompose(hub7).root.children[1]
        assert leaf.is_leaf
        with pytest.raises(ValueError):
            quotient(hub7, leaf, [])


class TestEnumerateModules:
    def test_triangle_all_subsets(self):
        g = gnp(3, 1.0, seed=0)
        assert len(enumerate_modules_bruteforce(g)) == 7

    def test_path_modules(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert enumerate_modules_bruteforce(g) == [
            (0,),
            (1,),
            (2,),
            (0, 2),
            (0, 1, 2),
        ]

    def test_hub7_members(self, hub7):
        mods = enumerate_modules_bruteforce(hub7)
        assert (0, 1, 2) in mods
        assert (4, 5) in mods
        for v in range(7):
            assert (v,) in mods
        assert tuple(range(7)) in mods
        # every reported module satisfies the definition verbatim
        for m in mods:
            inside = set(m)
            for x in range(7):
                if x in inside:
                    continue
                hits = sum(1 for v in m if hub7.has_edge(x, v))
                assert hits in (0, len(m))

    def test_limit_guard(self):
        with pytest.raises(ValueError, match="limit"):
            enumerate_modules_bruteforce(Graph(16))


class TestSerialization:
    def test_tree_stats(self, hub7):
        t = decompose(hub7)
        assert t.kind_counts() == {"prime": 1, "series": 1, "parallel": 1, "leaf": 7}
        assert t.depth() == 2

    def test_coprime8_stats(self):
        t = decompose(coprime_graph(8))
        assert t.kind_counts() == {"prime": 0, "series": 2, "parallel": 2, "leaf": 8}
