"""Independent reference implementations the fast code is judged against.

Everything here is deliberately naive: permutation scans, subset
enumeration, per-vertex BFS.  Keep these slow and obvious.
"""

from __future__ import annotations

import itertools
from collections import deque

from treembed.graphs import SimpleGraph, TreeGraph


def naive_embed_exists(tree_graph: SimpleGraph, host: SimpleGraph) -> bool:
    """Try every injective map tree -> host."""
    if tree_graph.n > host.n:
        return False
    edges = list(tree_graph.edges())
    for perm in itertools.permutations(range(host.n), tree_graph.n):
        if all(host.has_edge(perm[u], perm[v]) for u, v in edges):
            return True
    return False


def brute_bipartition_exists(g: SimpleGraph) -> bool:
    """Try every 2-coloring; feasible only for small n."""
    for bits in range(1 << g.n):
        if all((bits >> u & 1) != (bits >> v & 1) for u, v in g.edges()):
            return True
    return False


def _connected_after_removal(g: SimpleGraph, removed: set[int]) -> bool:
    remaining = [v for v in range(g.n) if v not in removed]
    if len(remaining) <= 1:
        return True
    seen = {remaining[0]}
    queue = deque([remaining[0]])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if w not in removed and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(remaining)


def brute_vertex_connectivity(g: SimpleGraph) -> int:
    """Smallest separator by subset enumeration; complete graphs get n-1."""
    for size in range(g.n - 1):
        for cut in itertools.combinations(range(g.n), size):
            if not _connected_after_removal(g, set(cut)):
                return size
    return g.n - 1


def brute_max_component_orders(tree: TreeGraph) -> list[int]:
    """Per vertex v: the largest component order of T - v, one BFS per vertex."""
    g = tree.graph
    result = []
    for z in range(g.n):
        seen = {z}
        worst = 0
        for s in range(g.n):
            if s in seen:
                continue
            seen.add(s)
            queue = deque([s])
            size = 1
            while queue:
                u = queue.popleft()
                for w in g.adj[u]:
                    if w not in seen:
                        seen.add(w)
                        size += 1
                        queue.append(w)
            worst = max(worst, size)
        result.append(worst)
    return result


def capped_sequences(max_len: int, total: int):
    """All tuples of positive integers, length <= max_len, sum <= total,
    every entry <= ceil(total/2).  The partition lemma input space."""
    cap = (total + 1) // 2
    def extend(prefix: tuple[int, ...], remaining: int):
        yield prefix
        if len(prefix) == max_len:
            return
        for nxt in range(1, min(cap, remaining) + 1):
            yield from extend(prefix + (nxt,), remaining - nxt)
    for first in range(1, min(cap, total) + 1):
        yield from extend((first,), total - first)


def brute_stabiliser_orbits(g: SimpleGraph, fixed: set[int]) -> list[set[int]]:
    """Orbits of the automorphisms fixing every vertex in fixed, by trying
    every permutation; feasible only for small n."""
    edges = set(g.edges())
    orbit = [{v} for v in range(g.n)]
    for perm in itertools.permutations(range(g.n)):
        if any(perm[v] != v for v in fixed):
            continue
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in edges for u, v in edges):
            for v in range(g.n):
                orbit[v].add(perm[v])
    return orbit


def brute_hall_holds(nbrs: list[int], demand: list[int]) -> bool:
    """Hall's condition for groups with neighborhood bitmasks nbrs and
    demands, over every nonempty subset."""
    for size in range(1, len(nbrs) + 1):
        for subset in itertools.combinations(range(len(nbrs)), size):
            union = 0
            for g in subset:
                union |= nbrs[g]
            if bin(union).count("1") < sum(demand[g] for g in subset):
                return False
    return True
