"""Extremal host families and the broom trees they are built to block.

Every generator lays its vertices out in fixed blocks (hub first, then each
part in ascending order), tags the blocks, and asserts the degree identities
it advertises before returning.  A construction bug therefore fails loudly
instead of leaking a wrong host into tests or reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .graphs import (
    GraphError,
    SimpleGraph,
    TreeGraph,
    build_tree,
    degree_stats,
)
from .rational import RationalLike, as_fraction


@dataclass(frozen=True)
class ExtremalParams:
    """Parameters (ell, c, k) shared by the blocker families.

    ell is odd and at least 3, divides k, and c ranges over
    1 <= c <= k / (ell (ell+1)).  k must be even so the B parts have
    integer order k/2 + (c-1)(ell+1)/2 - 1.
    """

    ell: int
    c: int
    k: int

    def __post_init__(self) -> None:
        if self.ell < 3 or self.ell % 2 == 0:
            raise GraphError(f"ell must be odd and at least 3, got {self.ell}")
        if self.k <= 0 or self.k % self.ell != 0:
            raise GraphError(f"k must be a positive multiple of ell, got k={self.k}")
        if self.k % 2 != 0:
            raise GraphError(f"k must be even, got k={self.k}")
        if self.c < 1 or self.c * self.ell * (self.ell + 1) > self.k:
            raise GraphError(
                f"c must satisfy 1 <= c <= k/(ell(ell+1)), got c={self.c} for "
                f"ell={self.ell}, k={self.k}"
            )

    @property
    def star_order(self) -> int:
        return self.k // self.ell

    @property
    def wing_a_order(self) -> int:
        return (self.ell - 1) * (self.star_order - 1)

    @property
    def wing_b_order(self) -> int:
        return self.k // 2 + (self.c - 1) * (self.ell + 1) // 2 - 1

    @property
    def clique_order(self) -> int:
        return self.wing_b_order + 1

    @property
    def matched_wing_a_order(self) -> int:
        return (self.ell - 1) * (self.star_order - 2)


@dataclass(frozen=True)
class TaggedGraph:
    """A host graph together with its named parts and generator metadata."""

    graph: SimpleGraph
    parts: Mapping[str, tuple[int, ...]]
    meta: Mapping[str, object]

    @property
    def n(self) -> int:
        return self.graph.n


def two_wing_degree_forms(params: ExtremalParams) -> tuple[int, int]:
    """(min degree, max degree) the two-wing host realizes.

    delta = k/2 + (c-1)(ell+1)/2, attained by the A vertices, and
    Delta = 2(ell-1)(k/ell - 1), attained by the hub.
    """
    return params.wing_b_order + 1, 2 * params.wing_a_order


def wing_clique_degree_forms(params: ExtremalParams) -> tuple[int, int, int]:
    """(min degree, quoted max degree, realized max degree) for the
    wing-plus-clique host.

    The quoted closed form for the max degree undercounts the hub, which is
    adjacent to the whole clique as well as the wing's A part; the realized
    value is wing_a_order + clique_order.  The sweep report shows both so
    the discrepancy stays visible instead of being patched over.
    """
    delta = params.clique_order
    quoted = (
        (3 * params.ell - 2) * params.k // (2 * params.ell)
        + (params.c - 3) * (params.ell + 1) // 2
        - 2
    )
    realized = params.wing_a_order + params.clique_order
    return delta, quoted, realized


def matched_wing_degree_forms(params: ExtremalParams) -> tuple[int, int]:
    """(min degree, max degree) the matched-wing host realizes:
    delta = min(|A|, |B|) + 1, and Delta = 2|A|, attained by the hub."""
    a = params.matched_wing_a_order
    return min(a, params.wing_b_order) + 1, 2 * a


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RuntimeError(f"generator bug: {message}")


def two_wing_host(params: ExtremalParams) -> TaggedGraph:
    """Hub over two complete bipartite wings, joined to both A sides.

    Layout: hub x = 0, then A1, B1, A2, B2 as consecutive blocks with
    |A_i| = (ell-1)(k/ell - 1) and |B_i| = k/2 + (c-1)(ell+1)/2 - 1.
    Every A vertex has degree |B|+1, every B vertex degree |A|, and the hub
    degree 2|A|, so delta and Delta match two_wing_degree_forms exactly.
    """
    a, b = params.wing_a_order, params.wing_b_order
    blocks = _block_layout(("A1", a), ("B1", b), ("A2", a), ("B2", b))
    masks = _block_masks(blocks, ("hub", "A1"), ("A1", "B1"), ("hub", "A2"), ("A2", "B2"))
    return _extremal_host("h", params, blocks, masks, *two_wing_degree_forms(params))


def wing_clique_host(params: ExtremalParams) -> TaggedGraph:
    """Hub over one complete bipartite wing plus a clique.

    Layout: hub x = 0, then A1, B1, and a clique C of order
    k/2 + (c-1)(ell+1)/2; the hub is joined to A1 and to all of C.  The min
    degree equals the clique order (shared by A and C vertices) and the max
    degree is the hub's |A1| + |C|, which the build asserts.
    """
    a, b, cq = params.wing_a_order, params.wing_b_order, params.clique_order
    blocks = _block_layout(("A1", a), ("B1", b), ("clique", cq))
    masks = _block_masks(
        blocks, ("hub", "A1"), ("A1", "B1"), ("hub", "clique"), ("clique", "clique")
    )
    delta, _quoted, realized = wing_clique_degree_forms(params)
    return _extremal_host("g", params, blocks, masks, delta, realized)


def matched_wing_host(params: ExtremalParams) -> TaggedGraph:
    """Two-wing host with thinner A parts and a perfect matching across the
    B parts, which makes the graph connected without the hub.

    |A_i| shrinks to (ell-1)(k/ell - 2), so k/ell >= 3 is required.  The
    matching joins B1[j] to B2[j] by block position; every B vertex then has
    degree |A|+1 and the hub keeps the max degree 2|A|.
    """
    if params.star_order < 3:
        raise GraphError(
            f"matched wings need k/ell >= 3, got k/ell = {params.star_order}"
        )
    a, b = params.matched_wing_a_order, params.wing_b_order
    blocks = _block_layout(("A1", a), ("B1", b), ("A2", a), ("B2", b))
    masks = _block_masks(blocks, ("hub", "A1"), ("A1", "B1"), ("hub", "A2"), ("A2", "B2"))
    for u, v in zip(blocks["B1"], blocks["B2"]):
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    host = _extremal_host("hprime", params, blocks, masks, *matched_wing_degree_forms(params))
    for v in blocks["B1"] + blocks["B2"]:
        _require(host.graph.degree(v) == a + 1, f"hprime B vertex {v} degree != |A|+1")
    return host


def _extremal_host(
    family: str, params: ExtremalParams, blocks: Mapping[str, tuple[int, ...]],
    masks: list[int], delta: int, big: int,
) -> TaggedGraph:
    """The family's host on its blocks and masks, tagged by block, once its
    min and max degree are checked against delta and big and its max
    degree is found at the hub."""
    g = SimpleGraph.from_masks(len(masks), tuple(masks), _block_tags(blocks))
    stats = degree_stats(g)
    _require(stats.min_degree == delta, f"{family} delta {stats.min_degree} != {delta}")
    _require(stats.max_degree == big, f"{family} Delta {stats.max_degree} != {big}")
    _require(stats.argmax == 0, f"{family} max degree not at the hub")
    meta = {"family": family, "ell": params.ell, "c": params.c, "k": params.k}
    return TaggedGraph(g, blocks, meta)


def broom_tree(ell: int, k: int) -> TreeGraph:
    """The k-edge broom: ell stars of order k/ell whose centers hang off a
    common handle vertex.

    Layout: handle v = 0, then star i as center followed by its
    k/ell - 1 leaves.  Rooted at the handle.
    """
    if ell < 1:
        raise GraphError(f"need at least one star, got ell={ell}")
    if k < ell or k % ell != 0:
        raise GraphError(f"k must be a positive multiple of ell, got k={k}, ell={ell}")
    order = k // ell
    edges = []
    tags = {0: "hub"}
    for i in range(ell):
        center = 1 + i * order
        edges.append((0, center))
        for leaf in range(center + 1, center + order):
            edges.append((center, leaf))
            tags[leaf] = "leaf"
    return build_tree(k + 1, edges, tags=tags)


def complete_bipartite(n1: int, n2: int) -> TaggedGraph:
    """K_{n1,n2} with the first side tagged A1 and the second B1."""
    if n1 < 1 or n2 < 1:
        raise GraphError(f"both sides need a vertex, got ({n1}, {n2})")
    parts = {"A1": tuple(range(n1)), "B1": tuple(range(n1, n1 + n2))}
    masks = _block_masks(parts, ("A1", "B1"))
    g = SimpleGraph.from_masks(n1 + n2, tuple(masks), _block_tags(parts))
    meta = {"family": "kbip", "n1": n1, "n2": n2}
    return TaggedGraph(g, parts, meta)


def cliques_with_apex(order: int, count: int) -> TaggedGraph:
    """An apex joined to every vertex of count disjoint cliques of the given
    order.  Deleting the apex leaves the cliques as separate components."""
    if order < 1 or count < 1:
        raise GraphError(f"need positive clique order and count, got ({order}, {count})")
    blocks = _block_layout(*((f"clique{i}", order) for i in range(count)))
    joins = [(name, other) for name in blocks if name != "hub" for other in ("hub", name)]
    masks = _block_masks(blocks, *joins)
    parts = {"hub": (0,), "clique": tuple(range(1, 1 + order * count))}
    g = SimpleGraph.from_masks(len(masks), tuple(masks), _block_tags(parts))
    meta = {"family": "cliques-apex", "order": order, "count": count}
    return TaggedGraph(g, parts, meta)


def caterpillar(path_edges: int, leaf_counts: Optional[Sequence[int]] = None) -> TreeGraph:
    """A spine path with leaf_counts[i] pendant leaves on spine vertex i.

    With the default of no leaves this is the bare path on path_edges
    edges.  Layout: spine 0..path_edges, then leaf blocks in spine order.
    """
    if path_edges < 0:
        raise GraphError(f"path_edges must be nonnegative, got {path_edges}")
    spine = path_edges + 1
    counts = list(leaf_counts) if leaf_counts is not None else [0] * spine
    if len(counts) != spine:
        raise GraphError(
            f"leaf_counts must list one count per spine vertex ({spine}), got {len(counts)}"
        )
    if any(c < 0 for c in counts):
        raise GraphError("leaf counts must be nonnegative")
    edges = [(i, i + 1) for i in range(path_edges)]
    tags = {i: "path" for i in range(spine)}
    nxt = spine
    for i, c in enumerate(counts):
        for _ in range(c):
            edges.append((i, nxt))
            tags[nxt] = "leaf"
            nxt += 1
    return build_tree(nxt, edges, tags=tags)


@dataclass(frozen=True)
class SharpnessInstance:
    """A parameter witness: a host meeting stated degree bounds together
    with the broom that does not embed into it."""

    params: ExtremalParams
    host: TaggedGraph
    tree: TreeGraph
    min_degree: int
    max_degree: int
    min_degree_bound: Fraction
    max_degree_bound: Fraction


def sharpness_instance_for_alpha(alpha: RationalLike) -> SharpnessInstance:
    """Witness that the max-degree factor 2(1-alpha) cannot be improved at
    min degree exactly k/2.

    For 0 < alpha <= 1/2 take ell = 2*ceil(1/alpha) - 1, k = ell(ell+1), and
    c = 1.  The two-wing host then has delta = k/2 and
    Delta = 2(1 - 2/(ell+1))k >= 2(1-alpha)k, while the k-edge broom with
    ell stars does not embed.  At alpha = 1/2 the max-degree bound holds
    with equality (ell = 3, k = 12, Delta = 12).
    """
    a = as_fraction(alpha)
    if not (0 < a <= Fraction(1, 2)):
        raise GraphError(f"alpha must lie in (0, 1/2], got {a}")
    ell = 2 * math.ceil(1 / a) - 1
    k = ell * (ell + 1)
    params = ExtremalParams(ell, 1, k)
    host = two_wing_host(params)
    stats = degree_stats(host.graph)
    min_bound = Fraction(k, 2)
    max_bound = 2 * (1 - a) * k
    _require(stats.min_degree == min_bound, "alpha witness delta != k/2")
    _require(stats.max_degree >= max_bound, "alpha witness Delta below 2(1-alpha)k")
    return SharpnessInstance(
        params, host, broom_tree(ell, k), stats.min_degree, stats.max_degree,
        min_bound, max_bound,
    )


def sharpness_instance_for_gamma(ell: int, gamma: RationalLike) -> SharpnessInstance:
    """Witness that degree slack gamma does not rescue hosts built on ell
    stars: delta >= (1 + 1/ell - gamma)k/2 and Delta >= 2(1 - 1/ell - gamma)k
    both hold, yet the broom stays out.

    Takes the smallest c with 1/(c*ell) <= gamma and k = c*ell(ell+1).
    gamma may equal 1/ell (then c = 1); anything larger would make the
    min-degree bound weaker than k/2 and stop being a sharpness statement.
    """
    g = as_fraction(gamma)
    if ell < 3 or ell % 2 == 0:
        raise GraphError(f"ell must be odd and at least 3, got {ell}")
    if not (0 < g <= Fraction(1, ell)):
        raise GraphError(f"gamma must lie in (0, 1/ell], got {g}")
    c = math.ceil(1 / (ell * g))
    k = c * ell * (ell + 1)
    params = ExtremalParams(ell, c, k)
    host = two_wing_host(params)
    stats = degree_stats(host.graph)
    min_bound = (1 + Fraction(1, ell) - g) * Fraction(k, 2)
    max_bound = 2 * (1 - Fraction(1, ell) - g) * k
    _require(stats.min_degree >= min_bound, "gamma witness delta below bound")
    _require(stats.max_degree >= max_bound, "gamma witness Delta below bound")
    return SharpnessInstance(
        params, host, broom_tree(ell, k), stats.min_degree, stats.max_degree,
        min_bound, max_bound,
    )


def _block_layout(*sizes: tuple[str, int]) -> dict[str, tuple[int, ...]]:
    """Consecutive vertex blocks after the hub at 0."""
    blocks: dict[str, tuple[int, ...]] = {"hub": (0,)}
    nxt = 1
    for name, size in sizes:
        blocks[name] = tuple(range(nxt, nxt + size))
        nxt += size
    return blocks


def _block_masks(
    blocks: Mapping[str, tuple[int, ...]], *joins: tuple[str, str]
) -> list[int]:
    """Adjacency masks of the graph on the blocks, runs of consecutive ids
    covering 0..n-1: each join (a, b) links every vertex of block a to every
    vertex of block b, and (a, a) makes block a a clique.  The vertices of a
    block that is no clique share one mask object."""
    span = {name: ((1 << len(vs)) - 1) << vs[0] for name, vs in blocks.items()}
    nbrs = dict.fromkeys(blocks, 0)
    for a, b in joins:
        nbrs[a] |= span[b]
        nbrs[b] |= span[a]
    masks = [0] * sum(map(len, blocks.values()))
    for name, vs in blocks.items():
        mask = nbrs[name]
        masks[vs[0] : vs[-1] + 1] = (
            [mask ^ 1 << v for v in vs] if mask & span[name] else [mask] * len(vs)
        )
    return masks


def _block_tags(blocks: Mapping[str, tuple[int, ...]]) -> dict[int, str]:
    tags = {}
    for name, verts in blocks.items():
        for v in verts:
            tags[v] = name
    return tags
