"""Percentiles, the witness checker and run metadata.

Kept free of treembed imports so the checks stay independent of the code
they judge.
"""

from __future__ import annotations

import math
import os
import platform
from pathlib import Path
from typing import Mapping, Sequence

# a reported percentile needs at least this many samples beyond it
MIN_TAIL = 10

# Typical time of a warm `reference()` run between instances on the machine
# the benchmark was tuned on (2 vCPUs, Python 3.11).  Timings are scaled by
# REFERENCE_S / (the mean reference time measured next to them), so they
# read as seconds on that machine in its usual state.
REFERENCE_S = 0.0015


def reference() -> int:
    """Fixed pure-Python work, timed between instances to track how fast the
    machine runs right now: dict updates, a bitmask backtracking search and
    a small adjacency build with a BFS, the kinds of work treembed does."""
    acc, table = 0, {}
    for i in range(5000):
        table[i & 1023] = i
        acc += table.get(i >> 3 & 1023, 0)
    full = (1 << 7) - 1
    stack = [(0, 0, 0)]
    while stack:
        cols, d1, d2 = stack.pop()
        if cols == full:
            acc += 1
            continue
        free = full & ~(cols | d1 | d2)
        while free:
            bit = free & -free
            free ^= bit
            stack.append((cols | bit, ((d1 | bit) << 1) & full, (d2 | bit) >> 1))
    adj = [[] for _ in range(200)]
    for u in range(200):
        for v in (u * 7 + 1, u * 13 + 5, u * 31 + 11):
            v %= 200
            if v != u:
                adj[u].append(v)
                adj[v].append(u)
    nbrs = tuple(tuple(sorted(set(a))) for a in adj)
    seen, queue = {0}, [0]
    for u in queue:
        for v in nbrs[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return acc + len(seen)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank q-th percentile (0 < q <= 100) of a nonempty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-th percentile of `count`."""
    return count - max(1, math.ceil(q / 100.0 * count))


def min_samples_for(q: float) -> int:
    """Smallest sample count whose q-th percentile has MIN_TAIL beyond it."""
    count = 1
    while samples_beyond(count, q) < MIN_TAIL:
        count += 1
    return count


def timing_summary(values_ms: Sequence[float], q: float = 90.0) -> dict[str, float]:
    """Median and q-th percentile with the sample count.

    Raises ValueError when the sample leaves fewer than MIN_TAIL values
    beyond the q-th percentile, because such a percentile is one or two
    samples and not a tail.
    """
    n = len(values_ms)
    if samples_beyond(n, q) < MIN_TAIL:
        raise ValueError(
            f"p{q:g} needs {min_samples_for(q)} samples for {MIN_TAIL} beyond it, got {n}"
        )
    return {"p50": percentile(values_ms, 50.0), f"p{q:g}": percentile(values_ms, q),
            "samples": n}


def witness_problems(
    tree_n: int,
    tree_edges: Sequence[tuple[int, int]],
    host_n: int,
    host_adj: Sequence[frozenset[int]],
    mapping: Mapping[int, int],
) -> list[str]:
    """Why `mapping` is not an embedding of the tree in the host; empty if it is.

    An embedding maps every tree vertex to its own host vertex and every
    tree edge to a host edge.
    """
    if set(mapping) != set(range(tree_n)):
        return ["mapping does not cover exactly the tree's vertices"]
    images = list(mapping.values())
    if any(not (0 <= w < host_n) for w in images):
        return ["an image is not a host vertex"]
    if len(set(images)) != len(images):
        return ["two tree vertices share an image"]
    return [
        f"tree edge ({u}, {v}) maps to non-edge ({mapping[u]}, {mapping[v]})"
        for u, v in tree_edges
        if mapping[v] not in host_adj[mapping[u]]
    ]


def src_lines(root: Path) -> int:
    """Lines in the library's Python sources."""
    return sum(
        len(p.read_text().splitlines()) for p in sorted((root / "src" / "treembed").rglob("*.py"))
    )


def commit(root: Path) -> str:
    """HEAD commit read from .git without starting git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_meta(root: Path, seed: int, node_budget: int) -> dict:
    return {
        "src_lines": src_lines(root),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "node_budget": node_budget,
        "commit": commit(root),
    }
