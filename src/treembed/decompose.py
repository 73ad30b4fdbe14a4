"""Tree decomposition helpers.

A tree with t edges always has a centroid vertex whose removal leaves
components of order at most ceil(t/2); the pieces can then be split into
two or three groups with balanced total size.  These routines back the
two-component embedding strategy and the obstruction checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .graphs import BfsLayout, GraphError, SimpleGraph, TreeGraph, bfs_layout
from .rational import RationalLike, as_fraction


@dataclass(frozen=True)
class SeparatorResult:
    """Centroid vertex z, the components of T - z as sorted vertex tuples
    in order of their smallest vertex, the largest order, each component's
    root (its neighbor of z), and every vertex's distance from z."""

    separator: int
    components: tuple[tuple[int, ...], ...]
    max_component_order: int
    roots: tuple[int, ...]
    distance: tuple[int, ...]


def find_separator(tree: TreeGraph) -> SeparatorResult:
    """Exact centroid (see centroid) with the components of T - z.

    The winner always satisfies max_component_order <= ceil(t/2) where t is
    the edge count.
    """
    g = tree.graph
    n = g.n
    if n < 2:
        raise GraphError("separator needs a tree with at least one edge")
    z = centroid(tree)
    # one search per neighbor of z, which the run it starts lists first
    layout = bfs_layout(g, g.adj[z], blocked=(z,))
    rooted = sorted((tuple(sorted(run)), run[0]) for run in layout.trees())
    comps = tuple(comp for comp, _root in rooted)
    realized = max(len(c) for c in comps)
    # the vertices minimizing the largest component are those leaving none
    # above n/2; a second one is the root of a component of exactly n/2
    if realized > n // 2:
        raise RuntimeError("separator bug: centroid bound ceil(t/2) violated")
    if any(2 * len(comp) == n and root < z for comp, root in rooted):
        raise RuntimeError("separator bug: centroid tie not to the smaller id")
    # depths count from each root and z's reads -1, so one more is the distance
    distance = tuple(d + 1 for d in layout.depth)
    return SeparatorResult(z, comps, realized, tuple(r for _comp, r in rooted), distance)


def centroid(tree: TreeGraph) -> int:
    """The vertex z minimizing the largest component of T - z, ties to the
    smallest id: one subtree-size pass from vertex 0, then a walk into the
    child holding more than n/2 vertices while there is one.  The walk
    stops at a centroid, as the part through its parent holds fewer than
    n/2; a second centroid is a child holding exactly n/2."""
    return _centroid_layout(tree.graph)[0]


def _centroid_layout(g: SimpleGraph) -> tuple[int, BfsLayout]:
    """centroid's vertex, and the BFS layout from vertex 0 it walks."""
    n = g.n
    if n < 2:
        raise GraphError("needs a tree with at least one edge")
    layout = bfs_layout(g, (0,))
    parent = layout.parent
    size = [1] * n
    for v in reversed(layout.order):
        p = parent[v]
        if p >= 0:
            size[p] += size[v]
    z = 0
    while True:
        heavy = next((c for c in g.adj[z] if parent[c] == z and 2 * size[c] >= n), None)
        if heavy is None:
            return z, layout
        if 2 * size[heavy] == n:
            return min(z, heavy), layout
        z = heavy


@dataclass(frozen=True)
class TwoWayPartition:
    """Index split with heavy_sum >= light_sum and heavy_sum <= 2t/3."""

    heavy: tuple[int, ...]
    light: tuple[int, ...]
    heavy_sum: int
    light_sum: int


def partition_two(sizes: Sequence[int], t: int) -> TwoWayPartition:
    """Split indices into two groups, the heavier one summing to at most 2t/3.

    Requires t >= 2, every size in 1..ceil(t/2), and a total of at most t.
    (At t = 1 the only admissible sequence is (1), and no split can keep the
    heavy side under 2/3, so that degenerate case is excluded.)

    Greedy over descending sizes, always into the currently lighter group,
    meets the bound: a singleton heavy group is one size <= ceil(t/2)
    <= 2t/3, and otherwise the last size x to enter the heavy group entered
    when that group was lighter, so heavy <= (t + x)/2 with x at most the
    third largest size, hence x <= t/3.
    """
    if t < 2:
        raise GraphError(f"the two-way bound needs t >= 2, got {t}")
    _check_partition_input(sizes, t)
    (heavy, light), (heavy_sum, light_sum) = _greedy_groups(sizes, 2)
    if Fraction(heavy_sum) > Fraction(2 * t, 3):
        raise RuntimeError("partition bug: two-way bounds violated on valid input")
    return TwoWayPartition(heavy, light, heavy_sum, light_sum)


@dataclass(frozen=True)
class ThreeWayPartition:
    """Index split into three groups, each summing to at most ceil(t/2),
    ordered by descending sum."""

    groups: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    sums: tuple[int, int, int]


def partition_three(sizes: Sequence[int], t: int) -> ThreeWayPartition:
    """Split indices into three groups each summing to at most ceil(t/2).

    Unlike the two-way split this holds for every t >= 1.  Greedy over
    descending sizes into the currently lightest group: the first three
    sizes open their own groups, and any later size x satisfies
    4x <= total <= t while the lightest group holds at most (total - x)/3,
    so the new sum stays at most t/3 + t/6 = t/2.
    """
    _check_partition_input(sizes, t)
    groups, sums = _greedy_groups(sizes, 3)
    if sums[0] > (t + 1) // 2:
        raise RuntimeError("partition bug: three-way cap violated on valid input")
    return ThreeWayPartition(groups, sums)


def _greedy_groups(sizes: Sequence[int], count: int) -> tuple[tuple, tuple[int, ...]]:
    """The indices split into count groups, and their sums.  Sizes are
    taken in descending order, ties to the smaller index, each into the
    lightest group, ties to the first.  Each group lists its indices
    ascending, and the groups are ranked by descending sum, ties to the
    first."""
    groups: list[list[int]] = [[] for _ in range(count)]
    sums = [0] * count
    for i in sorted(range(len(sizes)), key=lambda i: (-sizes[i], i)):
        side = sums.index(min(sums))
        groups[side].append(i)
        sums[side] += sizes[i]
    ranked = sorted(range(count), key=lambda s: (-sums[s], s))
    return tuple(tuple(sorted(groups[s])) for s in ranked), tuple(sums[s] for s in ranked)


def split_family_by_cap(
    weights: Sequence[int], k: int, alpha: RationalLike
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Greedy inclusion-maximal index subset under the weight cap (1+alpha)k/2.

    Scans the weights in the given order and takes each one that still
    fits.  Every weight must be at most alpha*k; a larger weight belongs to
    the single-heavy-piece embedding case and is rejected here.  When the
    total weight reaches the cap, the taken part is guaranteed at least
    (1-alpha)k/2: the first skipped weight w has taken + w > cap and
    w <= alpha*k.
    """
    a = as_fraction(alpha)
    if k < 1:
        raise GraphError(f"k must be positive, got {k}")
    if a < 0:
        raise GraphError(f"alpha must be nonnegative, got {a}")
    cap = (1 + a) * Fraction(k, 2)
    taken: list[int] = []
    rest: list[int] = []
    total = 0
    for i, w in enumerate(weights):
        if w < 0:
            raise GraphError(f"weights must be nonnegative, got {w}")
        if w > a * k:
            raise GraphError(
                f"weight {w} at index {i} exceeds alpha*k = {a * k}; that piece "
                "needs the single-heavy-piece case"
            )
        if total + w <= cap:
            taken.append(i)
            total += w
        else:
            rest.append(i)
    if sum(weights) >= cap and not total >= (1 - a) * Fraction(k, 2):
        raise RuntimeError("split bug: taken weight fell below (1-alpha)k/2")
    return tuple(taken), tuple(rest)


def _check_partition_input(sizes: Sequence[int], t: int) -> None:
    if t < 1:
        raise GraphError(f"t must be positive, got {t}")
    cap = (t + 1) // 2
    for i, s in enumerate(sizes):
        if not (0 < s <= cap):
            raise GraphError(
                f"size {s} at index {i} outside 1..ceil(t/2) = {cap} for t={t}"
            )
    if sum(sizes) > t:
        raise GraphError(f"sizes sum to {sum(sizes)}, more than t={t}")

