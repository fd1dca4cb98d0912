"""Benchmark instances and the oracles that check the solver's answers.

Each workload is a fixed ladder of graph structures drawn from LADDER_SEED.
The run's seed draws a random relabelling of every graph's vertex ids (and
nothing else), so a new seed gives the program new DIMACS bytes, new pivots
and new tie-breaks with the same optimum. Fixed structures keep the amount
of work steady across seeds: on fresh G(n, p) draws the branch-and-bound
node count swings by 20-40% per instance.

Every optimum here is known without the solver: 1 + pi(n) for coprime
graphs (the benchmark's own sieve), by construction for the benchmark's
cographs and threshold graphs, and from networkx for G(n, p).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from mdclique import Graph, coprime_graph, gnp, write_dimacs

# Structures are drawn from this seed; the run's --seed only relabels them.
LADDER_SEED = 20171011
# Prepended to a tiny graph's DIMACS text; the README promises that `c`
# lines may appear anywhere, so this must parse like its comment-free twin.
UTF8_COMMENT = "c twin of the tiny cograph, with a non-ASCII comment: naïve café\n"

@dataclass
class Spec:
    """What the benchmark knows about one instance without the solver: its
    own adjacency masks and weights in the relabelled ids the program sees,
    the optimum, and which checks apply."""

    name: str
    adj: list[int]
    weights: list[int]
    optimum: int | None = None        # None until networkx_optimum fills it
    labels: list[int] | None = None   # coprime: the integer label of each id
    prime_free: bool = False          # its MD tree must have no prime node
    plain: bool = False               # also solve with plain branch and bound

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def m(self) -> int:
        return sum(mask.bit_count() for mask in self.adj) // 2


@dataclass
class Instance:
    spec: Spec
    dimacs: bytes


# ---------------------------------------------------------------- oracles

def prime_count(n: int) -> int:
    """pi(n) by the sieve of Eratosthenes."""
    if n < 2:
        return 0
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return sum(sieve)


def coprime_optimum(n: int) -> int:
    """Largest clique of the coprime graph on labels 1..n: label 1 plus
    every prime. Two labels in a clique share no prime factor, so mapping
    each label > 1 to its smallest prime factor is injective."""
    return 1 + prime_count(n)


def witness_error(spec: Spec, vertices: tuple[int, ...], weight: int) -> str | None:
    """Why the witness is not a clique of the claimed weight, checked on the
    benchmark's own data (pairwise gcd of labels for coprime graphs), or
    None when it is."""
    if len(set(vertices)) != len(vertices):
        return "witness repeats a vertex"
    if any(not 0 <= v < spec.n for v in vertices):
        return "witness vertex out of range"
    if spec.labels is not None:
        labels = [spec.labels[v] for v in vertices]
        for i, a in enumerate(labels):
            for b in labels[i + 1 :]:
                if math.gcd(a, b) != 1:
                    return f"labels {a} and {b} share a factor"
    else:
        mask = 0
        for v in vertices:
            mask |= 1 << v
        for v in vertices:
            if spec.adj[v] & mask != mask ^ (1 << v):
                return f"vertex {v} misses a witness neighbour"
    total = sum(spec.weights[v] for v in vertices)
    if total != weight:
        return f"witness weighs {total}, solution claims {weight}"
    return None


def networkx_optimum(spec: Spec) -> int:
    """Maximum clique weight from networkx, an implementation that shares
    nothing with mdclique."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from((v, {"w": w}) for v, w in enumerate(spec.weights))
    for u, mask in enumerate(spec.adj):
        g.add_edges_from((u, v) for v in _bits(mask >> (u + 1) << (u + 1)))
    return nx.max_weight_clique(g, weight="w")[1]


# ----------------------------------------------------------- constructors

def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _prefix_masks(ids: list[int]) -> list[int]:
    """pre[i] is the mask of ids[:i], so ids[a:b] is pre[b] ^ pre[a]."""
    pre = [0]
    for v in ids:
        pre.append(pre[-1] | 1 << v)
    return pre


def weighted_cograph(ids: list[int], rng: random.Random, join_p: float,
                     max_parts: int, max_weight: int) -> tuple[list[int], list[int], int]:
    """Random weighted cograph on the vertex ids `ids` (a permutation of
    0..n-1). Returns (adjacency masks, weights, optimum).

    A cotree is grown top-down over position ranges: every node of size >= 2
    splits into 2..max_parts random parts and is a join with probability
    join_p, else a union; the root is a union. The optimum follows the
    cotree: a union's best clique is its best child's, a join's is the sum
    of its children's.
    """
    n = len(ids)
    pre = _prefix_masks(ids)
    weights = [0] * n
    for v in ids:
        weights[v] = rng.randint(1, max_weight)
    adj = [0] * n
    nodes: list[tuple[int, int, bool, int]] = []   # (lo, hi, join, parent)
    pending = [(0, n, False, -1)]
    while pending:
        lo, hi, join, parent = pending.pop()
        node = len(nodes)
        nodes.append((lo, hi, join, parent))
        if hi - lo == 1:
            continue
        k = rng.randint(2, min(max_parts, hi - lo))
        cuts = [lo, *sorted(rng.sample(range(lo + 1, hi), k - 1)), hi]
        parts = list(zip(cuts, cuts[1:]))
        if join:
            span = pre[hi] ^ pre[lo]
            for a, b in parts:
                others = span ^ pre[b] ^ pre[a]
                for i in range(a, b):
                    adj[ids[i]] |= others
        for a, b in parts:
            pending.append((a, b, rng.random() < join_p, node))
    # children always follow their parent in `nodes`, so a reverse sweep
    # folds every node after all of its children
    best = [0] * len(nodes)
    for node in range(len(nodes) - 1, -1, -1):
        lo, hi, _, parent = nodes[node]
        if hi - lo == 1:
            best[node] = weights[ids[lo]]
        if parent >= 0:
            if nodes[parent][2]:
                best[parent] += best[node]
            else:
                best[parent] = max(best[parent], best[node])
    return adj, weights, best[0]


def weighted_threshold(ids: list[int], rng: random.Random, dominating_p: float | None,
                       max_weight: int) -> tuple[list[int], list[int], int]:
    """Random weighted threshold graph on the vertex ids `ids`, built by
    adding ids[0], ids[1], ... each as an isolated vertex or as one adjacent
    to all earlier ones. dominating_p=None alternates the two strictly,
    which gives an MD tree of depth n - 1; a coin of 0.5 gives about n / 2.

    Returns (adjacency masks, weights, optimum). A clique's earliest vertex
    i sees exactly the dominating vertices added after it, so the optimum is
    max over i of w_i plus their weights.
    """
    n = len(ids)
    pre = _prefix_masks(ids)
    weights = [0] * n
    for v in ids:
        weights[v] = rng.randint(1, max_weight)
    if dominating_p is None:
        dominating = [i % 2 == 1 for i in range(n)]
    else:
        dominating = [rng.random() < dominating_p for _ in range(n)]
    adj = [0] * n
    later_mask = 0      # dominating vertices after position i
    later_weight = 0
    optimum = 0
    for i in range(n - 1, -1, -1):
        v = ids[i]
        adj[v] = later_mask | (pre[i] if dominating[i] else 0)
        optimum = max(optimum, weights[v] + later_weight)
        if dominating[i]:
            later_mask |= 1 << v
            later_weight += weights[v]
    return adj, weights, optimum


def _relabel(adj: list[int], weights: list[int], perm: list[int]) -> tuple[list[int], list[int]]:
    """Adjacency masks and weights with vertex v renamed perm[v]."""
    bit = [1 << p for p in perm]
    new_adj = [0] * len(adj)
    new_weights = [0] * len(adj)
    for v, mask in enumerate(adj):
        new = 0
        while mask:
            low = mask & -mask
            new |= bit[low.bit_length() - 1]
            mask ^= low
        new_adj[perm[v]] = new
        new_weights[perm[v]] = weights[v]
    return new_adj, new_weights


def _permutation(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _made(spec: Spec) -> tuple[Spec, Graph]:
    return spec, Graph.from_adjacency(spec.n, spec.adj, spec.weights)


def make_coprime(n: int, perm: list[int]) -> tuple[Spec, Graph]:
    g = coprime_graph(n)
    adj, weights = _relabel(g.adj, g.weights, perm)
    labels = [0] * n
    for v in range(n):
        labels[perm[v]] = v + 1    # coprime_graph gives id v the label v + 1
    return _made(Spec(f"coprime-{n}", adj, weights, coprime_optimum(n), labels=labels))


def make_cograph(name: str, ids: list[int], structure_seed: int, join_p: float,
                 max_parts: int, max_weight: int) -> tuple[Spec, Graph]:
    adj, weights, opt = weighted_cograph(
        ids, random.Random(structure_seed), join_p, max_parts, max_weight)
    return _made(Spec(name, adj, weights, opt, prime_free=True))


def make_threshold(name: str, ids: list[int], structure_seed: int,
                   dominating_p: float | None) -> tuple[Spec, Graph]:
    adj, weights, opt = weighted_threshold(ids, random.Random(structure_seed), dominating_p, 100)
    return _made(Spec(name, adj, weights, opt, prime_free=True))


def make_gnp(name: str, n: int, p: float, structure_seed: int, perm: list[int],
             weight_seed: int | None) -> tuple[Spec, Graph]:
    g = gnp(n, p, structure_seed)
    weights = g.weights
    if weight_seed is not None:
        wrng = random.Random(weight_seed)
        weights = [wrng.randint(1, 200) for _ in range(n)]
    adj, weights = _relabel(g.adj, weights, perm)
    return _made(Spec(name, adj, weights, plain=True))


# ------------------------------------------------------------- workloads

# coprime: n of each instance
COPRIME_NS = (800, 1000, 1200)
# prime-free cographs: (n, join probability, most parts per cotree node)
COGRAPHS = ((500, 0.5, 4), (500, 0.5, 4), (500, 0.5, 4), (2000, 0.3, 3))
# prime-free threshold graphs: (n, dominating coin, or None to alternate)
THRESHOLDS = ((1000, None), (1400, None), (1000, 0.5))
TINY_N = 8
# dense-random: (n, p, weighted)
GNPS = (
    (220, 0.5, False), (160, 0.55, False), (120, 0.65, False), (100, 0.7, False),
    (150, 0.5, True), (120, 0.6, True), (100, 0.65, True), (130, 0.55, True),
)


def plan(workload: str, seed: int) -> list[tuple[Callable, tuple]]:
    """The constructor calls that make the workload for this seed. Graph
    structures come from LADDER_SEED; `seed` only draws the relabellings."""
    ladder = random.Random(LADDER_SEED)
    rng = random.Random(seed)
    calls: list[tuple[Callable, tuple]] = []
    if workload == "coprime":
        for n in COPRIME_NS:
            calls.append((make_coprime, (n, _permutation(n, rng))))
    elif workload == "prime-free":
        for n, join_p, max_parts in COGRAPHS:
            name = f"cograph-{n}-{len(calls)}"
            calls.append((make_cograph, (name, _permutation(n, rng), ladder.randrange(2**32),
                                         join_p, max_parts, 100)))
        for n, dominating_p in THRESHOLDS:
            kind = "alternating" if dominating_p is None else "coin"
            ids = _permutation(n, rng)
            calls.append((make_threshold, (f"threshold-{kind}-{n}", ids,
                                           ladder.randrange(2**32), dominating_p)))
        # the tiny pair does not depend on the seed, so the UTF-8 twin fails
        # the same way in every run
        for name in (f"cograph-{TINY_N}", f"cograph-{TINY_N}-utf8"):
            calls.append((make_cograph, (name, list(range(TINY_N)), LADDER_SEED, 0.5, 3, 9)))
    elif workload == "dense-random":
        for n, p, weighted in GNPS:
            name = f"gnp-{n}-{p}" + ("-w" if weighted else "")
            structure_seed = ladder.randrange(2**32)
            weight_seed = ladder.randrange(2**32) if weighted else None
            calls.append((make_gnp, (name, n, p, structure_seed, _permutation(n, rng),
                                     weight_seed)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return calls


def _call(fn: Callable, *args):
    return fn(*args)


def build(workload: str, seed: int, generate: Callable = _call,
          serialise: Callable = _call) -> list[Instance]:
    """The workload's instances for this seed: DIMACS bytes plus the
    benchmark's own description of each graph.

    `generate(maker, *args)` and `serialise(write_dimacs, graph)` make the
    constructor and writer calls, so a caller can time them.
    """
    instances = []
    for maker, args in plan(workload, seed):
        spec, graph = generate(maker, *args)
        text = serialise(write_dimacs, graph)
        if spec.name.endswith("-utf8"):
            text = UTF8_COMMENT + text
        instances.append(Instance(spec, text.encode("utf-8")))
    return instances
