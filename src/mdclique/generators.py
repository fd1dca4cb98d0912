"""Benchmark graph generators, deterministic per seed.

All randomness comes from `random.Random(seed)` (Mersenne Twister), with a
fixed drawing order, so a given (n, seed) always produces the same graph.
"""
from __future__ import annotations

import math
import random
from itertools import compress

from .graph import MAX_VERTICES, Graph


def _check_n(n: int, least: int) -> None:
    """Reject a vertex count below `least`, or one that parse_dimacs would
    refuse, before any work is done."""
    if n < least:
        raise ValueError(f"n must be >= {least}")
    if n > MAX_VERTICES:
        raise ValueError(f"n={n} exceeds the limit of {MAX_VERTICES} vertices")


def coprime_graph(n: int) -> Graph:
    """Graph on vertices labelled 1..n with an edge wherever the labels are
    coprime (gcd = 1); unit weights. Vertex id k carries label k+1.

    A sieve finds the primes up to n. For each prime p the mask of the ids
    whose label p divides is built once and ORed into the `shared` mask of
    each of its multiples, so the row of label i > 1 is every id except
    those sharing a prime with i (i itself among them), and the row of
    label 1 is every id but its own: O(n log log n) big-int operations.
    """
    _check_n(n, 1)
    prime = bytearray([1]) * (n + 1)
    prime[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if prime[p]:
            prime[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    shared = [0] * n
    for p in compress(range(n + 1), prime):
        # bit k - 1 is set iff p divides k: "1" leads each block of p digits
        multiples = int(("1" + "0" * (p - 1)) * (n // p), 2)
        for k in range(p, n + 1, p):
            shared[k - 1] |= multiples
    full = (1 << n) - 1
    shared[0] = 1
    return Graph._from_masks(n, [full ^ mask for mask in shared])


def random_partition(n: int, rng: random.Random) -> list[int]:
    """Random composition of n: repeatedly draw a uniform part in
    [1, remaining]. For n >= 2 the single-part outcome [n] is rejected and
    redrawn, so the result always has >= 2 parts (otherwise the cograph
    construction below could never terminate). The draw list is returned
    reversed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return [1]
    while True:
        parts = []
        left = n
        while left > 0:
            p = rng.randint(1, left)
            parts.append(p)
            left -= p
        if len(parts) >= 2:
            break
    parts.reverse()
    return parts


def random_cograph(n: int, seed: int) -> Graph:
    """Random cograph on n vertices, unit weights: recursively partition,
    then take the disjoint union (coin 0) or the join (coin 1) of the parts.
    By construction its decomposition tree has no prime node.

    Each part is a contiguous block of vertex ids. Blocks are expanded in
    pre-order from an explicit stack, so the draws per block come in the
    order of the recursive definition: partition first, then the
    union/join coin, then the parts left to right."""
    _check_n(n, 1)
    rng = random.Random(seed)
    adj = [0] * n
    stack = [(0, n)]
    while stack:
        lo, size = stack.pop()
        if size == 1:
            continue
        blocks = []
        start = lo
        for part in random_partition(size, rng):
            blocks.append((start, part))
            start += part
        if rng.randint(0, 1) == 1:
            span = ((1 << size) - 1) << lo
            for start, part in blocks:
                others = span & ~(((1 << part) - 1) << start)
                for v in range(start, start + part):
                    adj[v] |= others
        stack.extend(reversed(blocks))
    return Graph._from_masks(n, adj)


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), unit weights; pairs scanned in row order."""
    _check_n(n, 0)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = random.Random(seed)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph._from_masks(n, adj)
