"""Graph primitives with deterministic layouts.

Vertices are dense integers 0..n-1.  Neighbor lists are kept sorted and
every traversal runs in ascending vertex order, so generated files, solver
traces, and reports reproduce byte for byte across runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

VERTEX_TAGS = frozenset(
    {"hub", "A1", "B1", "A2", "B2", "clique", "path", "leaf", "untagged"}
)


class GraphError(ValueError):
    """Raised for invalid graphs, trees, or construction parameters."""


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph with sorted adjacency and optional role tags."""

    n: int
    adj: tuple[tuple[int, ...], ...]
    tags: Mapping[int, str] = field(default_factory=dict)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adj)

    @cached_property
    def m(self) -> int:
        return sum(self.degrees) // 2

    @cached_property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(nbrs) for nbrs in self.adj)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighborhoods as integer bitmasks, the solver's working format."""
        masks = []
        for nbrs in self.adj:
            mask = 0
            for w in nbrs:
                mask |= 1 << w
            masks.append(mask)
        return tuple(masks)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbor_sets[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, ascending."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)


def build_graph(
    n: int,
    edges: Iterable[tuple[int, int]],
    tags: Optional[Mapping[int, str]] = None,
) -> SimpleGraph:
    """Validate an edge list and return the normalized SimpleGraph.

    Self-loops, duplicate edges, and endpoints outside 0..n-1 are rejected
    with the offending edge named in the error.
    """
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    adj: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise GraphError(f"malformed edge {edge!r}") from None
        if not isinstance(u, int) or not isinstance(v, int):
            raise GraphError(f"non-integer edge ({u!r}, {v!r})")
        if u == v:
            raise GraphError(f"self-loop ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphError(f"duplicate edge ({key[0]}, {key[1]})")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    tag_map: dict[int, str] = {}
    if tags:
        for v in sorted(tags):
            role = tags[v]
            if not (0 <= v < n):
                raise GraphError(f"tagged vertex {v} out of range for n={n}")
            if role not in VERTEX_TAGS:
                raise GraphError(f"unknown tag {role!r} on vertex {v}")
            tag_map[v] = role
    return SimpleGraph(n, tuple(tuple(sorted(nbrs)) for nbrs in adj), tag_map)


@dataclass(frozen=True)
class TreeGraph:
    """A SimpleGraph validated to be a tree, with an optional root."""

    graph: SimpleGraph
    root: Optional[int] = None

    def __post_init__(self) -> None:
        g = self.graph
        if g.n == 0:
            raise GraphError("a tree needs at least one vertex")
        if g.m != g.n - 1:
            raise GraphError(f"tree must have n-1 edges, got {g.m} for n={g.n}")
        if any(d < 0 for d in distance_bfs(g, 0)):
            raise GraphError("tree must be connected")
        if self.root is not None and not (0 <= self.root < g.n):
            raise GraphError(f"root {self.root} out of range")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def edge_count(self) -> int:
        return self.graph.m


def build_tree(
    n: int,
    edges: Iterable[tuple[int, int]],
    root: Optional[int] = None,
    tags: Optional[Mapping[int, str]] = None,
) -> TreeGraph:
    return TreeGraph(build_graph(n, edges, tags), root)


@dataclass(frozen=True)
class DegreeStats:
    min_degree: int
    max_degree: int
    argmax: int


def degree_stats(g: SimpleGraph) -> DegreeStats:
    """Minimum degree, maximum degree, and the smallest vertex attaining the max."""
    if g.n == 0:
        raise GraphError("degree stats of the empty graph are undefined")
    degs = g.degrees
    dmax = max(degs)
    return DegreeStats(min(degs), dmax, degs.index(dmax))


@dataclass(frozen=True)
class Bipartition:
    """Two color classes covering a bipartite component; every edge crosses.

    side0 is the class containing the component's smallest vertex.
    """

    side0: tuple[int, ...]
    side1: tuple[int, ...]

    def larger(self) -> tuple[int, ...]:
        """The larger side; ties go to side0, which holds the smallest vertex."""
        return self.side0 if len(self.side0) >= len(self.side1) else self.side1

    def smaller(self) -> tuple[int, ...]:
        return self.side1 if len(self.side0) >= len(self.side1) else self.side0


@dataclass(frozen=True)
class Component:
    """A connected component as its sorted vertex ids in the graph it came
    from, with its two-coloring when it has one."""

    vertices: tuple[int, ...]
    bipartition: Optional[Bipartition]

    @property
    def order(self) -> int:
        return len(self.vertices)


def induced_subgraph(
    g: SimpleGraph, vertices: Iterable[int]
) -> tuple[SimpleGraph, dict[int, int]]:
    """Subgraph on the given vertices with dense relabeling.

    Returns the relabeled graph and the old-to-new id map.  Vertex order is
    preserved by rank, so relabeling is deterministic.
    """
    vs = sorted(set(vertices))
    for v in vs:
        if not (0 <= v < g.n):
            raise GraphError(f"vertex {v} out of range for n={g.n}")
    index_map = {v: i for i, v in enumerate(vs)}
    # relabeling keeps the order, so each filtered row stays sorted
    adj = tuple(tuple(index_map[w] for w in g.adj[v] if w in index_map) for v in vs)
    tags = {index_map[v]: g.tags[v] for v in vs if v in g.tags}
    return SimpleGraph(len(vs), adj, tags), index_map


class BfsLayout(NamedTuple):
    """Breadth-first layout from a sequence of roots.

    order lists the reached vertices, each root's search finished before
    the next root starts; parent is -1 for roots and unreached vertices;
    depth is the distance from the vertex's own root, -1 when unreached.
    """

    order: list[int]
    parent: list[int]
    depth: list[int]

    def trees(self) -> list[list[int]]:
        """order cut into one run per root that started a search."""
        runs: list[list[int]] = []
        for v in self.order:
            if self.depth[v] == 0:
                runs.append([])
            runs[-1].append(v)
        return runs


def bfs_layout(
    g: SimpleGraph, roots: Iterable[int], blocked: Iterable[int] = ()
) -> BfsLayout:
    """Breadth-first search from each root in turn, never entering blocked.

    Neighbors are scanned in ascending order.  A root already reached, or
    blocked, starts no search of its own.
    """
    depth = [-1] * g.n
    blocked = tuple(blocked)
    for b in blocked:
        depth[b] = -2
    parent = [-1] * g.n
    order: list[int] = []
    adj = g.adj
    for r in roots:
        if depth[r] != -1:
            continue
        depth[r] = 0
        head = len(order)
        order.append(r)
        while head < len(order):
            u = order[head]
            head += 1
            d = depth[u] + 1
            for w in adj[u]:
                if depth[w] == -1:
                    depth[w] = d
                    parent[w] = u
                    order.append(w)
    for b in blocked:
        depth[b] = -1
    return BfsLayout(order, parent, depth)


def components(g: SimpleGraph, exclude: Optional[int] = None) -> tuple[Component, ...]:
    """Connected components of g, or of g minus the vertex exclude, in
    ascending order of their smallest vertex.

    Vertex ids stay those of g.  Each component carries its two-coloring
    when one exists; an odd cycle leaves bipartition as None.
    """
    if exclude is not None and not (0 <= exclude < g.n):
        raise GraphError(f"excluded vertex {exclude} out of range for n={g.n}")
    layout = bfs_layout(g, range(g.n), () if exclude is None else (exclude,))
    depth = layout.depth
    out: list[Component] = []
    for verts in layout.trees():
        verts.sort()
        bipartite = all(
            (depth[u] ^ depth[w]) & 1
            for u in verts
            for w in g.adj[u]
            if w != exclude
        )
        bip = None
        if bipartite:
            anchor = depth[verts[0]] & 1
            side0 = tuple(v for v in verts if depth[v] & 1 == anchor)
            side1 = tuple(v for v in verts if depth[v] & 1 != anchor)
            bip = Bipartition(side0, side1)
        out.append(Component(tuple(verts), bip))
    return tuple(out)


def distance_bfs(g: SimpleGraph, source: int) -> tuple[int, ...]:
    """BFS distances from source; unreachable vertices get -1."""
    if not (0 <= source < g.n):
        raise GraphError(f"source {source} out of range for n={g.n}")
    return tuple(bfs_layout(g, (source,)).depth)


class _SplitFlow:
    """Unit-capacity flow network for vertex cuts.

    Each vertex v becomes an arc 2v -> 2v+1 of capacity one; each edge uv
    becomes arcs u_out -> v_in and v_out -> u_in of effectively infinite
    capacity.  A max flow from s_out to t_in then equals the least number
    of vertices separating non-adjacent s from t.
    """

    def __init__(self, g: SimpleGraph):
        self.size = 2 * g.n
        self.head: list[list[int]] = [[] for _ in range(self.size)]
        self.to: list[int] = []
        self.base_cap: list[int] = []
        unbounded = g.n
        for v in range(g.n):
            self._arc(2 * v, 2 * v + 1, 1)
        for u, v in g.edges():
            self._arc(2 * u + 1, 2 * v, unbounded)
            self._arc(2 * v + 1, 2 * u, unbounded)

    def _arc(self, a: int, b: int, cap: int) -> None:
        self.head[a].append(len(self.to))
        self.to.append(b)
        self.base_cap.append(cap)
        self.head[b].append(len(self.to))
        self.to.append(a)
        self.base_cap.append(0)

    def min_cut(self, s: int, t: int, cutoff: int) -> int:
        """Max flow s_out -> t_in, aborting once the cutoff is reached."""
        cap = self.base_cap.copy()
        head, to = self.head, self.to
        source, sink = 2 * s + 1, 2 * t
        flow = 0
        while flow < cutoff:
            parent_arc = [-1] * self.size
            parent_arc[source] = -2
            queue = deque([source])
            while queue and parent_arc[sink] == -1:
                a = queue.popleft()
                for arc in head[a]:
                    b = to[arc]
                    if parent_arc[b] == -1 and cap[arc] > 0:
                        parent_arc[b] = arc
                        queue.append(b)
            if parent_arc[sink] == -1:
                break
            b = sink
            while b != source:
                arc = parent_arc[b]
                cap[arc] -= 1
                cap[arc ^ 1] += 1
                b = to[arc ^ 1]
            flow += 1
        return flow


def vertex_connectivity(g: SimpleGraph) -> int:
    """Exact vertex connectivity.

    Complete graphs return n-1 by convention.  Otherwise kappa is the least
    s-t cut over non-adjacent pairs, computed by unit-capacity flow on the
    split digraph.  Fixing a minimum degree vertex v0, it is enough to scan
    the pairs (v0, w) with w outside N[v0] plus the non-adjacent pairs
    inside N(v0): a minimum cut either misses v0, or contains it and then
    has neighbors of v0 strictly on both sides.
    """
    if g.n < 2:
        raise GraphError("connectivity needs at least two vertices")
    if g.m == g.n * (g.n - 1) // 2:
        return g.n - 1
    degs = g.degrees
    v0 = min(range(g.n), key=lambda v: (degs[v], v))
    closed = set(g.adj[v0]) | {v0}
    net = _SplitFlow(g)
    best = g.n - 1
    for w in range(g.n):
        if w in closed:
            continue
        best = min(best, net.min_cut(v0, w, best))
        if best == 0:
            return 0
    nbrs = list(g.adj[v0])
    for i, u in enumerate(nbrs):
        for w in nbrs[i + 1 :]:
            if not g.has_edge(u, w):
                best = min(best, net.min_cut(u, w, best))
                if best == 0:
                    return 0
    return best
