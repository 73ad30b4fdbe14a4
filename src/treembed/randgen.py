"""Seeded random instances.

Stress runs need byte-identical output across repeats, so every trial
derives its own seed from the master seed through splitmix64 and feeds a
private random.Random.  Nothing here touches the global RNG state.
"""

from __future__ import annotations

import heapq
import random
from math import ceil

from .graphs import GraphError, SimpleGraph, TreeGraph, build_tree, degree_stats
from .rational import as_fraction

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One splitmix64 step; the standard finalizer constants."""
    z = (x + _GOLDEN) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return (z ^ (z >> 31)) & _M64


def trial_seed(master: int, index: int) -> int:
    """Decorrelated per-trial seed; stable across platforms and runs."""
    return splitmix64((splitmix64(master & _M64) + index * _GOLDEN) & _M64)


def random_tree(
    k: int,
    rng: random.Random,
    max_degree: int | None = None,
    attempts: int = 1000,
) -> TreeGraph:
    """Uniform random tree with k edges via a random sequence decode.

    The decode repeatedly attaches the smallest remaining leaf, which makes
    the vertex order deterministic given the drawn sequence.  A max_degree
    cap is enforced by resampling; trees that cannot satisfy the cap raise
    GraphError after the attempt budget.
    """
    if k < 0:
        raise GraphError(f"edge count must be non-negative, got {k}")
    n = k + 1
    if max_degree is not None and max_degree < 2 and n > max_degree + 1:
        raise GraphError(f"no tree on {n} vertices has max degree {max_degree}")
    if n == 1:
        return build_tree(1, [])
    if n == 2:
        return build_tree(2, [(0, 1)])
    for _ in range(attempts):
        code = [rng.randrange(n) for _ in range(n - 2)]
        edges = _decode_tree(n, code)
        tree = build_tree(n, edges)
        if max_degree is None or degree_stats(tree.graph).max_degree <= max_degree:
            return tree
    raise GraphError(
        f"no tree with {k} edges and max degree {max_degree} in {attempts} attempts"
    )


def _decode_tree(n: int, code: list[int]) -> list[tuple[int, int]]:
    degree = [1] * n
    for v in code:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return edges


def random_host(
    n: int,
    k: int,
    alpha,
    rng: random.Random,
    attempts: int = 200,
) -> SimpleGraph:
    """Random host meeting both degree bounds for the given k and alpha.

    Edges appear independently with probability tuned so the expected
    degree is about twice the minimum bound; vertex 0 first gets
    ceil(2(1-alpha)k) neighbors so the maximum degree bound holds by
    construction.  Hosts are resampled until degree_stats clears both
    bounds; exhausting the attempts raises GraphError, and so, before any
    draw, does a bound no host on n vertices can meet.
    """
    a = as_fraction(alpha)
    d_min = ceil((1 + a) * k / 2)
    d_plant = ceil(2 * (1 - a) * k)
    if max(d_min, d_plant) > n - 1:
        raise GraphError(
            f"degree bounds need {max(d_min, d_plant)} neighbors, only {n - 1} available"
        )
    p, rand = min(0.95, float(1 + a) * k / max(n - 1, 1)), rng.random
    for _ in range(attempts):
        hub = set(rng.sample(range(1, n), d_plant))
        # each pair u < v takes one draw in lexicographic order, a planted one
        # none; an edge writes "1" at v in row u, the cheapest mark to make
        rows = []
        for u in range(n):
            row, planted = bytearray(b"0" * n), hub if u == 0 else ()
            for v in range(u + 1, n):
                if v in planted or rand() < p:
                    row[v] = 49
            rows.append(row)
        # u's smaller neighbors mark it in column u of the stacked rows; row
        # and column, reversed, are base-2 numerals whose union is u's mask
        stacked = b"".join(rows)
        masks = tuple(
            int(rows[u][::-1], 2) | int(stacked[u::n][::-1], 2) for u in range(n)
        )
        g = SimpleGraph.from_masks(n, masks)
        stats = degree_stats(g)
        if stats.min_degree >= d_min and stats.max_degree >= d_plant:
            return g
    raise GraphError(f"no host met the degree bounds in {attempts} attempts")
