"""Graph primitives with deterministic layouts.

Vertices are dense integers 0..n-1.  Neighbor lists are kept sorted and
every traversal runs in ascending vertex order, so generated files, solver
traces, and reports reproduce byte for byte across runs.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

VERTEX_TAGS = frozenset(
    {"hub", "A1", "B1", "A2", "B2", "clique", "path", "leaf", "untagged"}
)


class GraphError(ValueError):
    """Raised for invalid graphs, trees, or construction parameters."""


_BITS = bytes.maketrans(b"01", b"\x00\x01")
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")

# every vertex id _members has decoded, one int object each, so that the
# rows derived from masks share them; grown to the longest mask decoded
_IDS: list[int] = []


def _members(mask: int) -> Iterable[int]:
    """The vertices whose bits are set in mask, ascending.  Fewer than 64
    are peeled off one at a time from the low end; more are read in one
    scan of the binary string, as on masks of thousands of bits each peel
    is a big-int operation.  The scan goes through a list, since a range
    would make an int object for every bit scanned."""
    size = mask.bit_length()
    if size > len(_IDS):
        _IDS.extend(range(len(_IDS), size))
    if mask.bit_count() >= 64:
        return compress(_IDS, bin(mask)[:1:-1].encode().translate(_BITS))
    ws = []
    while mask:
        low = mask & -mask
        ws.append(_IDS[low.bit_length() - 1])
        mask ^= low
    return ws


def _bitmask(vertices: Iterable[int]) -> int:
    """The set of vertices as an integer with bit v set for each v.  From
    64 vertices on it is parsed from one flag per id, in time linear in the
    largest: or-ing in each bit costs a big-int operation per vertex."""
    vertices = vertices if isinstance(vertices, (list, tuple)) else list(vertices)
    if len(vertices) < 64:
        mask = 0
        for v in vertices:
            mask |= 1 << v
        return mask
    flags = bytearray(max(vertices) + 1)
    for v in vertices:
        flags[v] = 1
    return int(flags[::-1].translate(_DIGITS), 2)


class SimpleGraph:
    """Undirected simple graph on 0..n-1 with optional role tags.

    The adjacency has two forms: adj, sorted neighbor rows, and
    adjacency_masks, one integer bitmask per vertex.  A graph stores the
    form it was built from and derives the other on first read, then keeps
    it.  build_graph stores rows, which suit trees and parsed files;
    from_masks stores masks, which the generated hosts use and the solvers
    read, so a host that is only solved never holds rows.  Equality
    compares n, tags and adjacency, whatever form each side holds.
    Instances are immutable.
    """

    n: int
    tags: Mapping[int, str]

    def __init__(
        self,
        n: int,
        adj: tuple[tuple[int, ...], ...],
        tags: Optional[Mapping[int, str]] = None,
    ):
        self.__dict__.update(n=n, adj=adj, tags={} if tags is None else tags)

    @classmethod
    def from_masks(
        cls, n: int, masks: tuple[int, ...], tags: Optional[Mapping[int, str]] = None
    ) -> "SimpleGraph":
        """The graph whose vertex v has neighborhood masks[v].  The masks
        must be symmetric and free of loops; nothing checks them, so outside
        input goes through build_graph."""
        g = cls.__new__(cls)
        g.__dict__.update(n=n, adjacency_masks=masks, tags={} if tags is None else tags)
        return g

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"SimpleGraph is immutable, cannot set {name}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        if self.n != other.n or self.tags != other.tags:
            return False
        if "adj" in self.__dict__ and "adj" in other.__dict__:
            return self.adj == other.adj
        return self.adjacency_masks == other.adjacency_masks

    __hash__ = None

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, m={self.m})"

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor rows; derived rows share one int per vertex id."""
        return tuple(tuple(_members(mask)) for mask in self.adjacency_masks)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighborhoods as integer bitmasks, the solvers' working format."""
        return tuple(map(_bitmask, self.adj))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Each vertex's degree.  From masks, a run of vertices sharing one
        object, as each block of a generated host does, is counted once; an
        identity test per vertex costs next to nothing on distinct masks."""
        if "adj" in self.__dict__:
            return tuple(map(len, self.adj))
        degs, last, d = [], None, 0
        for mask in self.adjacency_masks:
            if mask is not last:
                last, d = mask, mask.bit_count()
            degs.append(d)
        return tuple(degs)

    @cached_property
    def m(self) -> int:
        return sum(self.degrees) // 2

    @cached_property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        """Neighborhoods as frozensets, for callers outside the library,
        decoded from the masks so that a graph stored as masks derives no
        rows: on the extremal hosts they take about 75 times the memory of
        adjacency_masks, so no library routine builds them."""
        return tuple(frozenset(_members(mask)) for mask in self.adjacency_masks)

    @cached_property
    def component_sizes(self) -> tuple[int, ...]:
        """The order of each vertex's connected component, read off the
        twin quotient: classes are modules, so a component of the graph is
        the union of the classes of a component of the quotient graph.  A
        class with no neighbour class is the exception when open: its
        members see nobody, so each is a component of one vertex."""
        q = self.twin_quotient
        size = [0] * len(q.adj)
        for comp in components(SimpleGraph(len(q.adj), tuple(map(tuple, q.adj)))):
            cs = comp.vertices
            if len(cs) == 1 and not q.clique[cs[0]]:
                total = 1
            else:
                total = sum(len(q.members[c]) for c in cs)
            for c in cs:
                size[c] = total
        return tuple(map(size.__getitem__, q.class_of))

    @cached_property
    def rank(self) -> tuple[int, ...]:
        """Each vertex's place in the order by descending degree, ties to
        the smaller id: the order the exact search tries candidates in."""
        rank = [0] * self.n
        # a stable sort keeps equal degrees in ascending id order
        for idx, w in enumerate(sorted(range(self.n), key=self.degrees.__getitem__, reverse=True)):
            rank[w] = idx
        return tuple(rank)

    @cached_property
    def twin_quotient(self) -> "TwinQuotient":
        """The graph with its twin classes contracted, and its refined
        colouring once asked for; the exact search reads both."""
        return TwinQuotient.of_graph(self)

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def has_edge(self, u: int, v: int) -> bool:
        # a negative v would make the shift raise, a negative u index from the end
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.adjacency_masks[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, ascending.  A graph stored as masks
        is read from them and does not derive its rows."""
        if "adj" in self.__dict__:
            for u, row in enumerate(self.adj):
                for v in row:
                    if u < v:
                        yield (u, v)
            return
        for u, mask in enumerate(self.adjacency_masks):
            for v in _members(mask >> (u + 1) << (u + 1)):
                yield (u, v)


def build_graph(
    n: int,
    edges: Iterable[tuple[int, int]],
    tags: Optional[Mapping[int, str]] = None,
) -> SimpleGraph:
    """Validate an edge list and return the normalized SimpleGraph.

    Self-loops, duplicate edges, and endpoints that are not of type int
    (bools and other int subclasses included) or lie outside 0..n-1 are
    rejected with the offending edge named in the error.
    """
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    adj: list[list[int]] = [[] for _ in range(n)]
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise GraphError(f"malformed edge {edge!r}") from None
        # exact type: bool is an int subclass, but True is no vertex id
        if type(u) is not int or type(v) is not int:
            raise GraphError(f"non-integer edge ({u!r}, {v!r})")
        if u == v:
            raise GraphError(f"self-loop ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        adj[u].append(v)
        adj[v].append(u)
    # a repeated edge shows as two equal neighbors in a sorted row
    for u, row in enumerate(adj):
        row.sort()
        if len(set(row)) != len(row):
            w = next(row[i] for i in range(1, len(row)) if row[i] == row[i - 1])
            raise GraphError(f"duplicate edge ({min(u, w)}, {max(u, w)})")
    tag_map: dict[int, str] = {}
    if tags:
        for v in sorted(tags):
            role = tags[v]
            if not (0 <= v < n):
                raise GraphError(f"tagged vertex {v} out of range for n={n}")
            if role not in VERTEX_TAGS:
                raise GraphError(f"unknown tag {role!r} on vertex {v}")
            tag_map[v] = role
    return SimpleGraph(n, tuple(map(tuple, adj)), tag_map)


@dataclass(frozen=True)
class TreeGraph:
    """A SimpleGraph validated to be a tree."""

    graph: SimpleGraph

    def __post_init__(self) -> None:
        g = self.graph
        if g.n == 0:
            raise GraphError("a tree needs at least one vertex")
        if g.m != g.n - 1:
            raise GraphError(f"tree must have n-1 edges, got {g.m} for n={g.n}")
        if any(d < 0 for d in distance_bfs(g, 0)):
            raise GraphError("tree must be connected")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def edge_count(self) -> int:
        return self.graph.m


def build_tree(
    n: int,
    edges: Iterable[tuple[int, int]],
    tags: Optional[Mapping[int, str]] = None,
) -> TreeGraph:
    return TreeGraph(build_graph(n, edges, tags))


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


class BfsLayout(NamedTuple):
    """Breadth-first layout from a sequence of roots.

    order lists the reached vertices, each root's search finished before
    the next root starts; parent is -1 for roots and unreached vertices;
    depth is the distance from the vertex's own root, -1 when unreached.
    odd_cycle holds one flag per root that started a search, in order:
    whether that search met an edge with both ends in one layer.  Every
    edge joins equal or adjacent layers, so what a search reached is
    bipartite, its layers alternating sides, exactly when its flag is off.
    """

    order: list[int]
    parent: list[int]
    depth: list[int]
    odd_cycle: list[bool]

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

    Neighbors are scanned in ascending order, and each row is read once.
    A root already reached, or blocked, starts no search of its own.
    """
    depth = [-1] * g.n
    blocked = tuple(blocked)
    for b in blocked:
        depth[b] = -2
    parent = [-1] * g.n
    order: list[int] = []
    odd_cycle: list[bool] = []
    adj = g.adj
    for r in roots:
        if depth[r] != -1:
            continue
        depth[r] = 0
        queue, odd = [r], False
        for u in queue:  # grows while it runs
            du = depth[u]
            for w in adj[u]:
                dw = depth[w]
                if dw == -1:
                    depth[w] = du + 1
                    parent[w] = u
                    queue.append(w)
                elif dw == du:
                    odd = True
        order += queue
        odd_cycle.append(odd)
    for b in blocked:
        depth[b] = -1
    return BfsLayout(order, parent, depth, odd_cycle)


def components(g: SimpleGraph, exclude: Optional[int] = None) -> tuple[Component, ...]:
    """Connected components of g, or of g minus the vertex exclude, in
    ascending order of their smallest vertex.

    Vertex ids stay those of g.  Each component carries its two-coloring
    when one exists; an odd cycle leaves bipartition as None.  One
    bfs_layout from every vertex in turn finds them all, reading each row
    once.
    """
    if exclude is not None and not (0 <= exclude < g.n):
        raise GraphError(f"excluded vertex {exclude} out of range for n={g.n}")
    layout = bfs_layout(g, range(g.n), () if exclude is None else (exclude,))
    depth = layout.depth
    out: list[Component] = []
    for verts, odd in zip(layout.trees(), layout.odd_cycle):
        verts.sort()
        # the smallest vertex rooted the search, so side0 is the even layers
        bip = None if odd else Bipartition(tuple(v for v in verts if not depth[v] & 1),
                                           tuple(v for v in verts if depth[v] & 1))
        out.append(Component(tuple(verts), bip))
    return tuple(out)


def distance_bfs(g: SimpleGraph, source: int) -> tuple[int, ...]:
    """BFS distances from source; unreachable vertices get -1."""
    if not (0 <= source < g.n):
        raise GraphError(f"source {source} out of range for n={g.n}")
    return tuple(bfs_layout(g, (source,)).depth)


class TwinQuotient:
    """A graph with each class of twins contracted to one vertex.

    Two vertices are twins when they have the same open neighborhood N(v)
    or the same closed neighborhood N[v].  A vertex with an open twin has
    no closed twin (if N(a) = N(b) and N[a] = N[c] then c is in N(b), so b
    is in N[a] and thus in N(a) = N(b)), so keying each vertex by N(v)
    when that is shared and by N[v] otherwise finds both kinds.

    Classes are numbered in the order of their smallest member.  Closed
    twins form a clique (clique[c]) and open twins an independent set,
    and every class is a module: a vertex outside it sees all of it or
    none.  So adj, the quotient graph, is well defined, and a permutation
    of the classes that keeps adj and the colour (size, clique) lifts to
    an automorphism of the graph mapping each class onto its image in id
    order.  Swapping two members of one class is an automorphism fixing
    everything else.

    The exact search reads three tables, each built on first read:
    twin_masks, pair_families and involutions.  The first two are the
    same on any numbering of the vertices; the last tests each refined
    cell once, its smallest class against its next smallest, so which
    involutions it keeps may vary.
    """

    def __init__(self, class_of: list[int], clique: list[bool], adj: list[list[int]]):
        self.class_of = class_of
        self.members: list[list[int]] = [[] for _ in clique]
        for v, c in enumerate(class_of):
            self.members[c].append(v)
        self.clique = clique
        self.colour_key = [(len(m), flag) for m, flag in zip(self.members, clique)]
        self.adj = adj

    @classmethod
    def of_graph(cls, g: SimpleGraph) -> "TwinQuotient":
        masks = g.adjacency_masks

        def closed_key(v: int) -> int:
            return masks[v] | 1 << v

        def setdefault(table: dict[int, list], key: Callable, w: int, value: int) -> int:
            # an int hashes to its value mod 2**61 - 1, so a block's mask
            # minus each member in turn gives at most 61 hashes; bytes do
            # not.  A bucket holds (vertex, value) pairs and a hit is
            # confirmed by building the vertex's key again, so no n-bit key
            # outlives the vertex it was built for
            m = key(w)
            bucket = table.setdefault(hash(m.to_bytes((g.n + 7) // 8, "little")), [])
            for v, known in bucket:
                if key(v) == m:
                    return known
            bucket.append((w, value))
            return value

        # generated hosts share one mask object per block, so each distinct
        # object is counted and hashed once, by id; equal objects then merge
        # by value onto the id of the first, which keys their open class
        objects: dict[int, list] = {}
        for w, m in enumerate(masks):
            objects.setdefault(id(m), [w, 0])[1] += 1
        first: dict[int, list] = {}
        key_of: dict[int, int] = {}
        counts: dict[int, int] = {}
        for i, (w, count) in objects.items():
            key = key_of[i] = setdefault(first, masks.__getitem__, w, i)
            counts[key] = counts.get(key, 0) + count
        opened: dict[int, int] = {}
        closed: dict[int, list] = {}
        class_of = []
        reps: list[int] = []
        clique: list[bool] = []
        for w, m in enumerate(masks):
            key = key_of[id(m)]
            if counts[key] > 1:
                c = opened.setdefault(key, len(reps))
            else:
                c = setdefault(closed, closed_key, w, len(reps))
                if c < len(reps):
                    clique[c] = True
            if c == len(reps):
                reps.append(w)
                clique.append(False)
            class_of.append(c)
        # classes are modules, so a representative sees a class other than
        # its own exactly when it sees that class's representative
        rep_mask = _bitmask(reps)
        adj = [
            sorted({class_of[w] for w in _members(masks[r] & rep_mask)} - {c})
            for c, r in enumerate(reps)
        ]
        return cls(class_of, clique, adj)

    @cached_property
    def twin_masks(self) -> list[int]:
        """The bitmask of each class of two or more members, in class
        order: a candidate set cleared of these holds singleton classes
        only."""
        return [_bitmask(m) for m in self.members if len(m) > 1]

    @cached_property
    def pair_families(self) -> tuple[list[tuple[int, int]], dict[int, int]]:
        """The families of matched pairs, each as the mask of its x-ends
        and the mask of its y-ends, in the order of their first pairs; and
        the partner of every end of a family.

        A pair is two singleton classes joined by a quotient edge, at least
        one of which has no other singleton neighbour, and whose ends are
        in no other pair.  The rest of an end is its neighbour classes
        other than its partner; the x-end is the one of the smaller (rest,
        class).  Pairs with the same two rests form a family when there are
        two or more of them, and swapping two of them end for end is an
        automorphism (see embedding._Backtracker)."""
        members, adj = self.members, self.adj
        single = [len(m) == 1 for m in members]
        pairs = set()
        for c in compress(range(len(members)), single):
            mates = [d for d in adj[c] if single[d]]
            if len(mates) == 1:
                pairs.add((min(c, mates[0]), max(c, mates[0])))
        ends = Counter(c for pair in pairs for c in pair)
        families: dict[tuple, list[tuple[int, int]]] = {}
        for pair in sorted(pairs):
            if ends[pair[0]] == ends[pair[1]] == 1:
                (rx, x), (ry, y) = sorted(
                    (tuple(d for d in adj[c] if d != e), c) for c, e in (pair, pair[::-1]))
                families.setdefault((rx, ry), []).append((members[x][0], members[y][0]))
        masks, partner = [], {}
        for family in families.values():
            if len(family) > 1:
                masks.append((_bitmask([x for x, _ in family]), _bitmask([y for _, y in family])))
                for x, y in family:
                    partner[x], partner[y] = y, x
        return masks, partner

    @cached_property
    def class_partner(self) -> dict[int, int]:
        """pair_families' partners as classes: the partner class of each
        end's class, built once for every involution test."""
        cls = self.class_of
        return {cls[v]: cls[u] for v, u in self.pair_families[1].items()}

    @cached_property
    def partition(self) -> tuple[list[int], list[set[int]]]:
        """The coarsest equitable refinement of the colours, as the colour
        of each class and the classes of each colour."""
        ids = {key: i for i, key in enumerate(sorted(set(self.colour_key)))}
        col = [ids[key] for key in self.colour_key]
        cells: list[set[int]] = [set() for _ in ids]
        for c, x in enumerate(col):
            cells[x].add(c)
        _refine(self.adj, col, cells, list(range(len(cells))))
        return col, cells

    @cached_property
    def involutions(self) -> list[tuple[int, int, dict[int, int]]]:
        """Verified involutions of the quotient, each as two masks of host
        vertices and its swapped class pairs: the members of the classes it
        moves, the members of those it maps to a smaller class, and the
        image of each class it moves (moved, drop, swap).  The refined
        cells are walked in colour order; a cell whose smallest class a
        kept involution already moves is skipped, and otherwise its two
        smallest classes are tested, once.  So a cell costs at most one
        test, and a rigid host one per cell of two or more classes."""
        members, moved = self.members, set()
        out = []
        for cell in self.partition[1]:
            first, *rest = sorted(cell)
            if not rest or first in moved:
                continue
            perm = self.involution(first, rest[0])
            if perm is not None:
                swap = {d: e for d, e in enumerate(perm) if d != e}
                moved.update(swap)
                out.append((_bitmask([w for d in swap for w in members[d]]),
                            _bitmask([w for d, e in swap.items() if e < d for w in members[d]]),
                            swap))
        return out

    def involution(self, a: int, b: int) -> Optional[list[int]]:
        """A verified automorphism of this quotient that swaps the classes a
        and b, of one refined colour; or None when the one map built from
        that pair is not an automorphism.

        The map grows from the pair (a, b): the unmatched neighbours of each
        matched pair are paired up, and those the two ends share are fixed.
        When the unmatched neighbours of one end have their partners in the
        pair families (pair_families) among those of the other, each goes
        to its partner; otherwise the i-th of one end goes to the i-th of
        the other in the order (refined colour, id).  A class reached by no
        pair is fixed too.  Every pairing is made both ways, so the map is
        an involution."""
        col, adj, mate = self.partition[0], self.adj, self.class_partner

        def key(d: int) -> tuple[int, int]:
            return col[d], d

        perm = list(range(len(adj)))
        perm[a], perm[b] = b, a
        seen = {a, b}
        pairs = [(a, b)]
        for x, y in pairs:  # grows while it runs
            xs, ys = set(adj[x]) - seen, set(adj[y]) - seen
            if not (xs or ys):
                continue
            seen |= xs | ys
            xs, ys = xs - ys, ys - xs
            if len(xs) == len(ys) and ys == {mate.get(d) for d in xs}:
                xs = sorted(xs)
                ys = [mate[d] for d in xs]
            else:
                xs, ys = sorted(xs, key=key), sorted(ys, key=key)
                if [col[d] for d in xs] != [col[d] for d in ys]:
                    return None
            for p, q in zip(xs, ys):
                perm[p], perm[q] = q, p
            pairs += zip(xs, ys)
        return perm if self._is_automorphism(perm) else None

    def _is_automorphism(self, perm: list[int]) -> bool:
        """Whether the permutation perm of the classes keeps the colours
        and maps the neighbours of each class onto those of its image."""
        key, adj = self.colour_key, self.adj
        return [key[d] for d in perm] == key and all(
            sorted(map(perm.__getitem__, nbrs)) == adj[perm[c]] for c, nbrs in enumerate(adj))


def _refine(adj: list[list[int]], col: list[int], cells: list[set[int]], queue: list[int]) -> None:
    """Refine (col, cells) in place until equitable, splitting by the
    colours in queue and the new colours the splits create.

    Every step depends only on colours and neighbor counts, never on
    class ids, so every automorphism keeps the colours it gives.  Of the
    parts of a split cell the largest (the first of them on a tie) keeps
    the old colour and is not queued again: the counts to it follow from
    those to the others, so the work stays near linear per level of
    splitting.
    """
    head = 0
    while head < len(queue):
        cell = cells[queue[head]]
        head += 1
        if len(cell) == 1:
            # one member sends each neighbor one edge: nothing to count
            counts = dict.fromkeys(adj[next(iter(cell))], 1)
        else:
            counts = {}
            for x in cell:
                for y in adj[x]:
                    counts[y] = counts.get(y, 0) + 1
        hit: dict[int, dict[int, set[int]]] = defaultdict(lambda: defaultdict(set))
        for y, k in counts.items():
            # a cell of one member cannot split
            if len(cells[col[y]]) > 1:
                hit[col[y]][k].add(y)
        for colour in sorted(hit):
            by_count = hit[colour]
            parts = [by_count[k] for k in sorted(by_count)]
            sizes = list(map(len, parts))
            cell = cells[colour]
            if sum(sizes) < len(cell):
                parts.insert(0, cell.difference(*parts))
                sizes.insert(0, len(parts[0]))
            if len(parts) == 1:
                continue
            cells[colour] = parts.pop(sizes.index(max(sizes)))
            for part in parts:
                for x in part:
                    col[x] = len(cells)
                queue.append(len(cells))
                cells.append(part)


def vertex_connectivity(g: SimpleGraph) -> int:
    """Exact vertex connectivity.

    Complete graphs return n-1 by convention.  Otherwise kappa is the least
    number of vertices separating a non-adjacent pair, which by Menger's
    theorem is the most paths between them that share no inner vertex
    (_disjoint_paths).  Fixing a minimum degree vertex v0, it is enough to
    scan the pairs (v0, w) with w outside N[v0] plus the non-adjacent pairs
    inside N(v0): a minimum cut either misses v0, or contains it and then
    has neighbors of v0 strictly on both sides.
    """
    if g.n < 2:
        raise GraphError("connectivity needs at least two vertices")
    if g.m == g.n * (g.n - 1) // 2:
        return g.n - 1
    masks, degs = g.adjacency_masks, g.degrees
    v0 = min(range(g.n), key=degs.__getitem__)
    nbrs = list(_members(masks[v0]))
    pairs = [(v0, w) for w in _members(~(masks[v0] | 1 << v0) & (1 << g.n) - 1)]
    pairs += [(u, w) for i, u in enumerate(nbrs) for w in nbrs[i + 1 :] if not masks[u] >> w & 1]
    best = g.n - 1
    for s, t in pairs:
        best = min(best, _disjoint_paths(masks, s, t, best))
        if best == 0:
            return 0
    return best


def _disjoint_paths(masks: Sequence[int], s: int, t: int, cutoff: int) -> int:
    """The most s-t paths that share no inner vertex, counted up to cutoff,
    for non-adjacent s and t.

    Paths are added one augmenting path at a time, over the split graph in
    which each vertex v is entered at v_in and left at v_out, with room for
    one path.  pred[v] is the vertex before v on its path, -1 for a vertex
    on none.  The search runs over out-sides from s_out: y_out enters w_in
    for every neighbor w, and y_in when y is on a path; a w_in on no path
    leads on to w_out, one on a path back to pred[w]_out.  On the path
    found, a step (y, w) makes y the vertex before w, or, when w is y,
    takes y off its path.
    """
    pred = [-1] * len(masks)
    for count in range(cutoff):
        came = {s: (s, s)}
        queue = [s]
        seen = 1 << s
        for y in queue:  # grows while it runs
            fresh = (masks[y] | (pred[y] >= 0) << y) & ~seen
            seen |= fresh
            if fresh >> t & 1:
                break
            for w in _members(fresh):
                x = w if pred[w] < 0 else pred[w]
                if x not in came:
                    came[x] = (y, w)
                    queue.append(x)
        else:
            return count
        while y != s:
            y, w = came[y]
            pred[w] = -1 if w == y else y
    return cutoff
