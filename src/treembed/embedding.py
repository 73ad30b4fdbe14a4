"""Embedding solvers.

exact_embed is a complete backtracking search over injective adjacency
preserving maps and the only routine that searches; it is the oracle
every other routine is judged against, and a NotEmbedded from it means the
whole (symmetry reduced) space was exhausted.  greedy_min_degree_embed and
strategy_embed are the constructive routines, the second shaped after the
two-component degree-condition strategy; they answer Unknown when a greedy
placement stalls and never claim a non-embedding.  Every greedy placement
goes through one walker over a bfs_layout order.  auto_embed runs greedy,
then the exact search within the budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .decompose import _centroid_layout, find_separator, partition_two, split_family_by_cap
from .graphs import (
    BfsLayout,
    SimpleGraph,
    TreeGraph,
    _bitmask,
    _members,
    bfs_layout,
    degree_stats,
)
from .structure import classify_apex_structure


class Verdict(Enum):
    EMBEDDED = "embedded"
    NOT_EMBEDDED = "not_embedded"
    UNKNOWN = "unknown"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class Budget:
    """Search limits.  max_nodes caps the candidates tried and is
    deterministic; time_ms is wall clock and therefore only suitable where
    reproducible verdicts are not required."""

    max_nodes: Optional[int] = None
    time_ms: Optional[float] = None


@dataclass
class EmbedVerdict:
    kind: Verdict
    embedding: Optional[dict[int, int]]
    nodes_explored: int = 0
    detail: str = ""


def embedding_violations(
    tree: TreeGraph, host: SimpleGraph, mapping: Mapping[int, int]
) -> list[str]:
    """Reasons a claimed embedding is invalid; empty means it checks out."""
    g = tree.graph
    issues = []
    for v in range(g.n):
        if v not in mapping:
            issues.append(f"vertex {v} has no image")
    images = {}
    for v, w in mapping.items():
        if not (0 <= v < g.n):
            issues.append(f"mapped vertex {v} is not a tree vertex")
            continue
        if not (0 <= w < host.n):
            issues.append(f"image {w} of vertex {v} is not a host vertex")
            continue
        if w in images:
            issues.append(f"vertices {images[w]} and {v} share the image {w}")
        images[w] = v
    if issues:
        return issues
    # every image is a host vertex now, so each edge is one bit of a mask
    masks = host.adjacency_masks
    for u, row in enumerate(g.adj):
        mask = masks[mapping[u]]
        for v in row:
            if u < v and not mask >> mapping[v] & 1:
                issues.append(
                    f"tree edge ({u}, {v}) maps to non-edge ({mapping[u]}, {mapping[v]})"
                )
    return issues


def validate_embedding(
    tree: TreeGraph, host: SimpleGraph, mapping: Mapping[int, int]
) -> bool:
    """True when mapping is a total injective adjacency preserving map."""
    return not embedding_violations(tree, host, mapping)


class _Backtracker:
    """Depth first search for an injective adjacency preserving map.

    Vertices are assigned in BFS order from the given root.  A candidate
    image must be an unused host vertex adjacent to the parent's image,
    with host degree at least the tree degree, with enough unused
    neighbors left for its children, and leaving the parent's image enough
    unused neighbors for its children still unplaced.  The root
    additionally needs a host component large enough for the whole tree.
    The search keeps one frame per depth on an explicit stack, so tree
    depth is not bounded by the interpreter's recursion.  A frame is only
    the choice point: the depth's candidates and the next one to try.  The
    images, the used vertices and the leaf holding (below) are kept once
    and undone on backtrack.  Each candidate tried counts as one node.

    The host tables are built once per host and kept on it: rank,
    component sizes and the twin quotient with its symmetry tables (below).
    Each search builds the capacity mask, the degree masks (the vertices
    of degree at least d, for each tree degree d, as one all-ones mask
    when d is at most the host's minimum degree and so removes no vertex)
    and the tree side.  The tree side takes one BFS layout, which the
    caller may hand over (exact_embed hands over the centroid walk's when
    the root is vertex 0), and one walk over it that lists the search
    order as it goes and builds every table of the order, the leaf groups
    included; the chains take one more walk, up the search order.

    symmetry=False is the plain search: every vertex is a search vertex
    and only the prunes above apply.  It builds the twin quotient too, as
    the component sizes of the root's prune are read off it, but none of
    the quotient's symmetry tables.  With symmetry on, five reductions
    apply.  Each but the leaves reads a table of the host by masks, and
    none tests for symmetry at a node.

    * Leaves by matching.  Non-root childless vertices (leaves) are not
      searched.  The leaves of one parent form a group, whose free
      neighborhood is the set of unused vertices next to the parent's
      image.  Every node checks Hall's condition for the groups of the
      placed parents: each set of groups has at least as many free
      neighbors as leaves.  The search keeps one holding, a b-matching
      of the placed groups into free neighbors.  Placing u at w leaves at
      most these groups short: the earlier group that held w, if any, and
      u's own group, which holds nothing yet.  One routine,
      _complete_holding, takes them: it gives each the highest free ids
      nobody holds, then completes the holding by augmenting paths over
      the groups, or finds the set of groups that violates the condition.
      In the common case, where nobody holds w and u's group finds enough
      free ids nobody holds, _hall gives it the highest of them in place,
      which is the holding _complete_holding builds.
      Placing more vertices only shrinks the free neighborhoods, so a
      violation holds in every extension and the prune is exact.
      Backtracking to u clears u's groups from the holding.  What is left
      is complete for the groups before u's: their parents keep their
      images, and the used vertices have only shrunk, so every held
      vertex is still a free neighbor.  Hall's condition does not depend
      on which complete holding is kept, so neither do the verdicts or
      the node counts; only the leaves' images in a witness may differ.
      Once every other vertex is placed, the holding gives the leaves
      their images.
    * Chain order.  Interchangeable sibling vertices (equal rooted shape)
      take images of ascending class: once the twin classes are read, a
      chain sibling keeps the candidates of classes no smaller than its
      predecessor's image's.
    * Twin classes.  Each node tries only the smallest candidate of each
      class of graphs.TwinQuotient (_one_per_class).
    * Involutions.  Each entry (moved, drop, swap) of
      TwinQuotient.involutions is a verified involution of the host
      quotient: the members of the classes it moves, the members of those
      it maps to a smaller class, and the image of each class it moves.
      An entry applies at u's node when it moves no used vertex but the
      images of earlier siblings in u's chain.  With none of those moved,
      the drop mask leaves the candidates.  Otherwise a candidate in the
      drop mask goes when, counting it with the earlier siblings, the
      first swapped class pair (c, swap[c]) with c < swap[c], in order of
      c, whose counts differ has more siblings in swap[c]: that is, when
      swap maps the sorted classes onto smaller ones (_swap_lowers).  A
      chain sibling with a later sibling keeps, on place, its chain's
      classes so far, its predecessor's and its own, so a node reads the
      classes of its earlier siblings at once and only those, and
      backtracking undoes nothing.  The earlier siblings are used, so they
      are all the moved used vertices when as many of them are moved.
    * Matched pairs.  TwinQuotient.pair_families gives each family as a
      mask of x-ends and one of y-ends, and each end its partner.  A pair
      is free when neither end is used; blocked, the partners of used
      ends, is updated on place and on backtrack.  At each node, of each
      family's free x-ends only the lowest stays a candidate, and of its
      free y-ends too.

    Soundness: order host vertices by (class, id), the classes coming in
    the order of their smallest members.  Let the group act on embeddings
    by sibling subtree swaps (on the tree side) and by host automorphisms
    (on the host side), and take, in the orbit of a given embedding, the
    one L whose images, internal vertices in search order first, are
    lexicographically smallest.  At each node on L's path, L's image
    survives every cut; each cut is argued against L alone, so they
    combine in any order.  A chain sibling at a smaller class than its
    predecessor's image would be undone by swapping the two subtrees,
    which changes nothing before the earlier sibling.  An automorphism
    sigma that fixes every used vertex and maps L(u) lower gives sigma o
    L, equal to L before u and smaller at u; so L(u) is none of these:
    - a class member above a smaller free one, by a twin swap;
    - a member of a dropped class, when no used vertex is moved: the
      involution lifts to an automorphism mapping each class onto its
      image in id order, a smaller class for a dropped one;
    - an end above the lowest free end of its side of a family: its pair
      and the pair of that end swap, x-end for x-end and y-end for y-end.
      This is an automorphism because the x-ends of a family share one
      rest (the neighbours but the partner), as do the y-ends, and each
      rest avoids all four ends: an x-end's rest holds neither the x-end
      nor its partner, nor, being the other x-end's rest too, the other
      x-end or its partner.  So each moved end sees its partner's image
      and its own rest.  Both pairs are free, so it fixes the used
      vertices, and ends are singleton classes, so the end moves lower.
    When an involution sigma moves earlier siblings of u's chain and no
    other used vertex, let K be the classes of the images of those
    siblings and of u, counted with multiplicity.  BFS places all of the
    children of u's parent before any deeper vertex, so every vertex
    placed since the chain's first sibling is a child of that parent too,
    and fixed by sigma unless it is in the chain.  The used members of a
    moved class are then chain siblings, and a twin swap makes them its
    lowest members, which sigma maps onto the lowest members of the image
    class.  So sigma(K) is smaller than K, sorted by (class, id), exactly
    when at the first unequal swapped pair (c, sigma(c)) sigma(c) holds
    more: c is then the first class whose count sigma changes, and it
    gains.  Apply sigma to L, then swap the chain's subtrees into
    ascending (class, id) order.  Before u only the chain's positions
    change; in L they hold K sorted, the chain being ascending, and now
    the smallest images under sigma of the whole chain's, each no larger
    than the same position of sigma(K) sorted.  So the result is smaller
    than L by u, and L(u) is not cut.  With no earlier sibling moved, K
    differs from sigma(K) only at u's class, which is the drop mask rule.
    Held leaves do not count as used: their images come after the
    internal vertices in the order, so moving them cannot make sigma o L
    larger.  The capacity and Hall prunes hold for every extendable
    prefix.  So L is found whenever an embedding exists, and verdicts
    agree with the plain search; only node counts differ.
    """

    def __init__(
        self,
        tree: SimpleGraph,
        root: int,
        host: SimpleGraph,
        symmetry: bool = True,
        layout: Optional[BfsLayout] = None,
    ):
        self.tree = tree
        n_t = tree.n
        if layout is None:
            layout = bfs_layout(tree, (root,))
        order, self.parent = layout.order, layout.parent
        self.tree_deg = tree.degrees
        # every neighbor but the parent is a child
        self.child_count = child_count = [d - 1 for d in self.tree_deg]
        child_count[root] += 1

        # one walk over the search order, which grows as it runs: the
        # children of each vertex come in one run of the layout, after those
        # of the vertices before it, and leaves have none.  sib_rest counts
        # the children of the parent still unplaced once a vertex is placed,
        # leaves included; the leaf groups, the leaves of one parent each,
        # are numbered in the search order of their parents
        plain = not symmetry
        self.order = search = [root]
        self.sib_rest = sib_rest = [0] * n_t
        self.group_leaves: list[list[int]] = []
        self.group_start = group_start = [0] * n_t
        self.group_end = group_end = [0] * n_t
        self.demand: list[int] = []
        # the searched children of each search vertex, in search order
        inner_runs: list[list[int]] = []
        at = 1
        for u in search:  # grows while it runs
            count = child_count[u]
            kids = order[at:at + count]
            at += count
            inner = [c for c in kids if plain or child_count[c]]
            inner_runs.append(inner)
            for left, c in enumerate(reversed(inner), count - len(inner)):
                sib_rest[c] = left
            search += inner
            group_start[u] = len(self.demand)
            if len(inner) < count:
                self.group_leaves.append([c for c in kids if not child_count[c]])
                self.demand.append(count - len(inner))
            group_end[u] = len(self.demand)
        # free neighborhood of each group, before masking out used vertices
        self.group_nbrs = [0] * len(self.demand)

        self.host_masks = host.adjacency_masks
        self.rank = host.rank
        full, degs = (1 << host.n) - 1, host.degrees
        low = min(degs, default=0)
        self.deg_mask = {d: full if d <= low else _bitmask(w for w, x in enumerate(degs) if x >= d)
                         for d in set(self.tree_deg)}

        host_comp = host.component_sizes
        if min(host_comp, default=n_t) >= n_t:
            self.cap_mask = full
        else:
            self.cap_mask = _bitmask(w for w in range(host.n) if host_comp[w] >= n_t)

        self.chain_prev: list[Optional[int]] = [None] * n_t
        # the chain siblings with a later sibling, whose classes are kept
        self.chained = [False] * n_t
        if symmetry:
            q = host.twin_quotient
            self.class_of, self.twin_masks = q.class_of, q.twin_masks
            self.involutions = q.involutions
            self.pair_families, self.partner = q.pair_families
            self._build_chains(inner_runs)
        else:
            # the plain search keeps every candidate, as if each were a class
            self.class_of, self.twin_masks, self.involutions, self.pair_families = [], [], [], []
            self.partner = {}

    def _build_chains(self, inner_runs: list[list[int]]) -> None:
        # one walk up the search order: a vertex's code keys its leaf count
        # and its searched children's codes, sorted, so equal codes are equal
        # rooted shapes; its children's codes are known by then, and chain
        # each to the previous one of its code
        codes = [0] * self.tree.n
        table: dict[tuple[int, ...], int] = {}
        chain_prev, chained, child_count = self.chain_prev, self.chained, self.child_count
        # the classes of a chain serve the involutions only
        keep = bool(self.involutions)
        for v, inner in zip(reversed(self.order), reversed(inner_runs)):
            last: dict[int, int] = {}
            for c in inner:
                code = codes[c]
                if code in last:
                    prev = chain_prev[c] = last[code]
                    chained[prev] = keep
                last[code] = c
            key = (child_count[v] - len(inner), *sorted(codes[c] for c in inner))
            codes[v] = table.setdefault(key, len(table))

    def _hall(self, u: int, w: int, used: int, hold: list[int], taken: int) -> Optional[tuple]:
        """The leaf holding after placing u at w, as (holding per group,
        union of the holdings), or None when Hall's condition fails.  The
        holding passed in is complete for the groups before u's and holds
        nothing for the others; only the earlier group that held w, if
        any, and u's own group can be short.  When nobody holds w and u's
        group has enough free neighbors nobody holds, it takes the highest
        of them in place: the holding _complete_holding would build,
        without its copy."""
        start, end = self.group_start[u], self.group_end[u]
        nbrs = self.group_nbrs
        mask = self.host_masks[w]
        for g in range(start, end):
            nbrs[g] = mask
        short = range(start, end)
        if taken >> w & 1:
            short = [next(g for g in range(start) if hold[g] >> w & 1), *short]
        elif start < end:
            spare = mask & ~used & ~taken
            if spare.bit_count() >= self.demand[start]:
                hold[start] = got = _top_bits(spare, self.demand[start])
                return hold, taken | got
        return _complete_holding(nbrs, ~used, self.demand, hold, taken, short, end)

    def _place_leaves(self, images: list[int], hold: list[int]) -> None:
        # peeled in place: most groups hold one leaf, and a _members call
        # per group tripled this routine's time on the grid's witnesses
        for leaves, mask in zip(self.group_leaves, hold):
            for v in leaves:
                low = mask & -mask
                images[v] = low.bit_length() - 1
                mask ^= low

    def run(self, budget: Optional[Budget]) -> tuple[str, Optional[list[int]], int]:
        limit = float("inf")
        if budget and budget.max_nodes is not None:
            limit = budget.max_nodes
        deadline = None
        if budget and budget.time_ms is not None:
            if budget.time_ms <= 0:
                return ("time", None, 0)
            deadline = time.perf_counter() + budget.time_ms / 1000.0

        order = self.order
        parent = self.parent
        masks = self.host_masks
        deg_mask = self.deg_mask
        cap_mask = self.cap_mask
        tree_deg = self.tree_deg
        chain_prev, chained = self.chain_prev, self.chained
        class_of = self.class_of
        child_count = self.child_count
        sib_rest = self.sib_rest
        twin_masks = self.twin_masks
        involutions = self.involutions
        pair_families, partner = self.pair_families, self.partner
        rank = self.rank
        group_start, group_end = self.group_start, self.group_end
        n_s = len(order)
        images = [-1] * self.tree.n
        # the choice point of each depth: candidates in rank order and the
        # next one to try; the rest of the state is kept once
        frame_chosen: list[list[int]] = [[]] * n_s
        frame_next = [0] * n_s
        hold, taken = [0] * len(self.demand), 0
        # used vertices, and the partners of used pair ends
        used = blocked = 0
        # the classes of the images of a chain's siblings up to each one
        # with a later sibling, in chain order, kept on place and read only
        # below it; a chain's first sibling extends the entry of None
        sib_classes: dict[Optional[int], tuple[int, ...]] = {None: ()}
        nodes = 0
        pos = 0
        descend = True
        while True:
            if descend and pos == n_s:
                self._place_leaves(images, hold)
                return ("found", images, nodes)
            u = order[pos]
            p = parent[u]
            pmask = masks[images[p]] if p >= 0 else 0
            if descend:
                cand = (pmask if p >= 0 else cap_mask) & ~used & deg_mask[tree_deg[u]]
                for moved, drop, _ in involutions:
                    if not used & moved:
                        cand &= ~drop
                gone = used | blocked
                for xs, ys in pair_families:
                    # the free ends of each side, but the lowest
                    xs &= ~gone
                    ys &= ~gone
                    cand &= ~(xs & (xs - 1) | ys & (ys - 1))
                chosen = _one_per_class(cand, twin_masks)
                cp = chain_prev[u]
                if cp is not None:
                    least = class_of[images[cp]]
                    chosen = [w for w in chosen if class_of[w] >= least]
                    # the involutions that move earlier siblings of u's
                    # chain and no other used vertex
                    for moved, drop, swap in involutions:
                        hit = used & moved
                        if hit and cand & drop:
                            classes = sib_classes[cp]
                            if hit.bit_count() == sum(map(swap.__contains__, classes)):
                                chosen = [w for w in chosen if not (
                                    drop >> w & 1 and _swap_lowers(classes, swap, class_of[w]))]
                if len(chosen) > 1:
                    chosen.sort(key=rank.__getitem__)
                i = 0
            else:
                chosen = frame_chosen[pos]
                i = frame_next[pos]
                w = images[u]
                used ^= 1 << w
                if w in partner:
                    blocked ^= 1 << partner[w]
                images[u] = -1
                # the deeper groups hold nothing by now; with u's cleared,
                # the holding is complete again for the groups before u's
                for g in range(group_start[u], group_end[u]):
                    taken &= ~hold[g]
                    hold[g] = 0
            pend = child_count[u]
            rest = sib_rest[u]
            grouped = group_start[u] != group_end[u]
            descend = False
            while i < len(chosen):
                if nodes >= limit:
                    return ("node", None, nodes)
                if deadline is not None and nodes & 2047 == 0:
                    if time.perf_counter() > deadline:
                        return ("time", None, nodes)
                w = chosen[i]
                i += 1
                nodes += 1
                nxt = used | 1 << w
                if pend and (masks[w] & ~nxt).bit_count() < pend:
                    continue
                if rest and (pmask & ~nxt).bit_count() < rest:
                    continue
                if grouped or taken >> w & 1:
                    after = self._hall(u, w, nxt, hold, taken)
                    if after is None:
                        continue
                    hold, taken = after
                images[u] = w
                used = nxt
                if w in partner:
                    blocked ^= 1 << partner[w]
                if chained[u]:
                    sib_classes[u] = sib_classes[chain_prev[u]] + (class_of[w],)
                frame_chosen[pos] = chosen
                frame_next[pos] = i
                pos += 1
                descend = True
                break
            if not descend:
                if pos == 0:
                    return ("exhausted", None, nodes)
                pos -= 1


def _swap_lowers(classes: tuple[int, ...], swap: Mapping[int, int], d: int) -> bool:
    """Whether the class involution swap (each moved class: its image) maps
    the classes of a chain's placed siblings and one more of class d onto a
    lexicographically smaller multiset, both sorted."""
    both = (*classes, d)
    return sorted(map(swap.get, both, both)) < sorted(both)


def _one_per_class(cand: int, twin_masks: Sequence[int]) -> list[int]:
    """The smallest member of each class that meets cand, unsorted.  Each
    class of two or more members has its mask in twin_masks, and every
    other class is one vertex."""
    chosen = []
    for mask in twin_masks:
        hit = cand & mask
        if hit:
            chosen.append((hit & -hit).bit_length() - 1)
            cand ^= hit
    # the singletons left: one scan of n bits, or one big-int step per bit
    # peeled here, as a _members call per node cost 1-2% of the grid proofs
    if cand.bit_count() >= 64:
        chosen.extend(_members(cand))
    else:
        while cand:
            w = cand.bit_length() - 1
            chosen.append(w)
            cand ^= 1 << w
    return chosen


def _top_bits(mask: int, count: int) -> int:
    """The count highest set bits of mask (all of them when it has fewer),
    cut off in one shift at the largest s with at least count bits at or
    above s.  s is at most the bit length less count, and is that when
    those top count positions are all set, as in a block of a generated
    host; otherwise a binary search finds it."""
    if mask.bit_count() <= count:
        return mask
    top = mask.bit_length() - count
    if (mask >> top).bit_count() == count:
        return mask >> top << top
    lo, hi = 0, top - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if (mask >> mid).bit_count() >= count:
            lo = mid
        else:
            hi = mid - 1
    return mask >> lo << lo


def _complete_holding(
    nbrs: Sequence[int], free: int, demand: Sequence[int], hold: list[int], taken: int,
    short: Sequence[int], end: int,
) -> Optional[tuple[list[int], int]]:
    """hold, a b-matching of groups 0..end-1 into their free
    neighborhoods nbrs[g] & free with union taken, made complete, as
    (holding, union); or None when Hall's condition fails and no complete
    one exists.  Only the groups in short, ascending, may be short; hold
    is not changed.

    Each short group first loses its vertices that are no longer free and
    takes the highest free ids nobody holds, as many as it lacks: the
    search tries low ids first.  Each vertex still missing comes from an
    augmenting path, found by a search over groups from the short group: a
    group reaches the free neighbors it does not hold, and a reached
    vertex held by another group leads on to that group.  The first
    vertex nobody holds ends the path, and each group on it takes the
    vertex its predecessor gave up.  When the search reaches no such
    vertex, the reached groups hold all of their free neighbors and still
    want more: Hall's condition fails for them.
    """
    hold = hold.copy()
    lacking = []
    for s in short:
        keep = hold[s] & free
        got = _top_bits(nbrs[s] & free & ~taken, demand[s] - keep.bit_count())
        # the vertices no longer free (hold[s] ^ keep) leave taken, got joins
        taken ^= hold[s] ^ keep ^ got
        hold[s] = keep | got
        if hold[s].bit_count() < demand[s]:
            lacking.append(s)
    # an augmenting path changes no count but its first group's, so a group
    # complete now stays complete
    for s in lacking:
        while hold[s].bit_count() < demand[s]:
            # each reached group's predecessor and the vertex it leads on by
            came = {s: (-1, 0)}
            queue = [s]
            seen = 0
            for g in queue:  # grows while it runs
                fresh = nbrs[g] & free & ~seen & ~hold[g]
                seen |= fresh
                spare = fresh & ~taken
                if spare:
                    break
                for h in range(end):
                    mask = hold[h] & fresh
                    if mask and h not in came:
                        came[h] = (g, mask & -mask)
                        queue.append(h)
            else:
                return None
            got = 1 << (spare.bit_length() - 1)
            taken |= got
            while g >= 0:
                pred, lost = came[g]
                hold[g] ^= got | lost
                g, got = pred, lost
    return hold, taken


def _check_witness(tree: TreeGraph, host: SimpleGraph, mapping: dict) -> None:
    issues = embedding_violations(tree, host, mapping)
    if issues:
        raise RuntimeError(f"solver bug: invalid witness: {issues[0]}")


def exact_embed(
    tree: TreeGraph,
    host: SimpleGraph,
    budget: Optional[Budget] = None,
    symmetry: bool = True,
) -> EmbedVerdict:
    """Complete backtracking search for the tree inside the host.

    Vertices are assigned in BFS order from the centroid separator, and
    candidates are tried by descending host degree with ties to the
    smaller id.  NotEmbedded is only returned once the search space is
    exhausted, so it is a proof; running out of budget yields Timeout.
    A node is one candidate image tried for a searched vertex.  By default
    the leaves are not searched but matched, and symmetries are reduced
    (see _Backtracker); symmetry=False runs the plain search over every
    vertex.  The verdicts agree; only the node counts differ.
    """
    g = tree.graph
    if g.n > host.n:
        return EmbedVerdict(
            Verdict.NOT_EMBEDDED, None, 0, f"tree has {g.n} vertices, host only {host.n}"
        )
    root, layout = _centroid_layout(g) if g.n > 1 else (0, None)
    # the centroid walk lays the tree out from vertex 0; a search from
    # there takes that layout
    solver = _Backtracker(g, root, host, symmetry, layout if root == 0 else None)
    status, images, nodes = solver.run(budget)
    if status == "found":
        mapping = {v: images[v] for v in range(g.n)}
        _check_witness(tree, host, mapping)
        return EmbedVerdict(Verdict.EMBEDDED, mapping, nodes)
    if status == "exhausted":
        return EmbedVerdict(Verdict.NOT_EMBEDDED, None, nodes, "search space exhausted")
    return EmbedVerdict(Verdict.TIMEOUT, None, nodes, f"{status} budget exhausted")


def greedy_min_degree_embed(tree: TreeGraph, host: SimpleGraph) -> EmbedVerdict:
    """Single pass greedy embedding.

    Walks the tree in BFS order from vertex 0, sends it to host vertex 0
    and every child to the smallest unused neighbor of its parent's
    image.  When delta(host) >= k this cannot stall, because at most k
    host vertices are in use whenever a child needs a slot.  A stall is
    reported as Unknown.
    """
    g = tree.graph
    if host.n < g.n:
        return EmbedVerdict(Verdict.UNKNOWN, None, 0, "host too small")
    layout = bfs_layout(g, (0,))
    images: dict[int, int] = {}
    stalled = _greedy_walk(host, layout.order, layout.parent, images)
    if stalled is not None:
        return EmbedVerdict(
            Verdict.UNKNOWN, None, len(images), f"greedy stalled at tree vertex {stalled}"
        )
    _check_witness(tree, host, images)
    return EmbedVerdict(Verdict.EMBEDDED, images, len(images))


def _greedy_walk(
    host: SimpleGraph,
    order: Sequence[int],
    parent: Sequence[int],
    images: dict[int, int],
    allowed: Optional[Sequence[int]] = None,
) -> Optional[int]:
    """Greedy placement along a BFS order.

    Each vertex takes the smallest host vertex not yet an image that is
    adjacent to its parent's image (any host vertex when it has no parent)
    and whose bit is set in allowed[v].  images grows in place.  Returns
    the first vertex left without an image, or None once all are placed.
    """
    masks = host.adjacency_masks
    free = ((1 << host.n) - 1) ^ _bitmask(images.values())
    for v in order:
        p = parent[v]
        cand = masks[images[p]] & free if p >= 0 else free
        if allowed is not None:
            cand &= allowed[v]
        if not cand:
            return v
        low = cand & -cand
        images[v] = low.bit_length() - 1
        free ^= low
    return None


# the share of a component of G - x that x must see for strategy_embed to
# count it, the theta of classify_apex_structure
_THETA = Fraction(1, 10)


def strategy_embed(
    tree: TreeGraph, host: SimpleGraph, budget: Optional[Budget] = None
) -> EmbedVerdict:
    """Heuristic that mirrors the two-component degree-condition strategy.

    Let x be the max degree host vertex and alpha the clamped lower end of
    the feasible interval [1 - Delta/(2k), 2 delta/k - 1]; an empty
    interval skips the pipeline.  The tree splits at its centroid z with
    V0 the class at positive even distance from z.  Routing:

      * |V0| < (1+alpha)k/2: two-way partition of the pieces; the heavy
        group goes into the primary bipartite component of G - x with the
        roots on neighbors of x in its larger side, the light group
        greedily into the secondary component, z onto x itself.
      * otherwise, all pieces light (V0 weight <= alpha k): capped greedy
        family into the primary component, the remainder greedy into the
        secondary, z again onto x.
      * otherwise one heavy piece F*: everything but F* goes into the
        primary component with the color roles reversed and z on a
        neighbor of x there, while F* hangs its root on x and continues
        greedily into the secondary component.

    In each case one tree vertex, the hub (z, or the root of F*), lands on
    x, and each component takes the subtrees hanging from the hub at its
    roots in one greedy walk over a BFS layout, in tree ids: each vertex
    goes next to its parent's image, and in the primary component into the
    larger side at even depth below its root and the smaller side at odd
    depth.  Any stall, capacity refusal, or missing structure answers
    Unknown; this routine never reports NotEmbedded.  No search runs, so
    budget limits nothing; it is accepted so that all solvers share one
    call shape.
    """
    g = tree.graph
    k = g.m

    def unknown(msg: str, nodes: int = 0) -> EmbedVerdict:
        return EmbedVerdict(Verdict.UNKNOWN, None, nodes, msg)

    if host.n == 0:
        return unknown("empty host")
    if k == 0:
        mapping = {0: 0}
        return EmbedVerdict(Verdict.EMBEDDED, mapping, 1)
    if g.n > host.n:
        return unknown("tree has more vertices than the host")
    if k == 1:
        # one edge cannot split across two components
        return _greedy_fallback(tree, host, "single edge tree")

    stats = degree_stats(host)
    alpha_lo = 1 - Fraction(stats.max_degree, 2 * k)
    alpha_hi = Fraction(2 * stats.min_degree, k) - 1
    if alpha_lo > alpha_hi:
        return unknown(f"infeasible degree interval [{alpha_lo}, {alpha_hi}]")
    alpha = max(Fraction(0), alpha_lo)
    x = stats.argmax

    report = classify_apex_structure(host, x, k, _THETA)
    facts = report.facts
    primary = next(
        (
            i
            for i in report.seen_indices
            if facts[i].component.bipartition is not None and facts[i].x_degree_smaller == 0
        ),
        None,
    )
    secondary = next((i for i in report.seen_indices if i != primary), None)
    if primary is None or secondary is None:
        return _greedy_fallback(tree, host, "no two-component structure")
    # x sees the primary component only in its larger side, and sees at
    # least one vertex of every component the classifier counts (theta is
    # positive), so both components hold a neighbor of x for the first
    # vertex below the hub
    bipartition = facts[primary].component.bipartition
    larger, smaller = bipartition.larger(), bipartition.smaller()
    c2 = facts[secondary].component.vertices

    sep = find_separator(tree)
    z, pieces, piece_roots, dist = sep.separator, sep.components, sep.roots, sep.distance
    # V0, the vertices at positive even distance from z, counted per piece
    weights = [sum(1 for v in piece if dist[v] & 1 == 0) for piece in pieces]

    if Fraction(sum(weights)) < (1 + alpha) * Fraction(k, 2):
        split = partition_two([len(p) for p in pieces], k)
        into_primary, into_secondary = split.heavy, split.light
        star_piece = None
    elif all(Fraction(w) <= alpha * k for w in weights):
        into_primary, into_secondary = split_family_by_cap(weights, k, alpha)
        star_piece = None
    else:
        star_piece = max(range(len(pieces)), key=lambda i: (weights[i], -i))

    if star_piece is None:
        hub = z
        primary_roots = [piece_roots[i] for i in into_primary]
        secondary_roots = [piece_roots[i] for i in into_secondary]
        stall_where = "secondary component"
    else:
        hub = piece_roots[star_piece]
        primary_roots = [z]
        secondary_roots = [v for v in g.adj[hub] if v != z]
        stall_where = "heavy piece"

    layout = bfs_layout(g, primary_roots, blocked=(hub,))
    odd = sum(layout.depth[v] & 1 for v in layout.order)
    for label, count, side in ((0, len(layout.order) - odd, larger), (1, odd, smaller)):
        if count > len(side):
            return unknown(
                f"primary component: capacity certificate: color class {label} "
                f"has {count} vertices, its side only {len(side)}"
            )
    # nodes, as in greedy, count the tree vertices that have an image
    images = {hub: x}

    def grow(layout: BfsLayout, sides: tuple[int, int]) -> Optional[int]:
        # the subtrees hanging from the hub at the layout's roots, one after
        # another: each vertex next to its parent's image, at depth d below
        # its root inside the host vertices of mask sides[d & 1]; returns
        # the first vertex left without an image, or None
        parent = [hub if d == 0 else p for p, d in zip(layout.parent, layout.depth)]
        allowed = [sides[d & 1] for d in layout.depth]
        return _greedy_walk(host, layout.order, parent, images, allowed)

    stalled = grow(layout, (_bitmask(larger), _bitmask(smaller)))
    if stalled is not None:
        return unknown(
            f"primary component: greedy stalled at tree vertex {stalled}", len(images)
        )
    in_c2 = _bitmask(c2)
    stalled = grow(bfs_layout(g, secondary_roots, blocked=(hub,)), (in_c2, in_c2))
    if stalled is not None:
        return unknown(f"{stall_where} stalled at tree vertex {stalled}", len(images))
    _check_witness(tree, host, images)
    return EmbedVerdict(Verdict.EMBEDDED, images, len(images))


def _greedy_fallback(tree: TreeGraph, host: SimpleGraph, reason: str) -> EmbedVerdict:
    verdict = greedy_min_degree_embed(tree, host)
    if verdict.kind is Verdict.EMBEDDED:
        verdict.detail = f"{reason}; greedy fallback succeeded"
        return verdict
    return EmbedVerdict(
        Verdict.UNKNOWN, None, verdict.nodes_explored, f"{reason}; greedy fallback failed"
    )


def auto_embed(
    tree: TreeGraph, host: SimpleGraph, budget: Optional[Budget] = None
) -> EmbedVerdict:
    """Greedy, then the exact oracle within the budget.

    A greedy Embedded answer wins; otherwise the oracle's verdict stands:
    Embedded, NotEmbedded once the search space is exhausted, or Timeout
    when the budget runs out first.
    """
    t0 = time.perf_counter()
    quick = greedy_min_degree_embed(tree, host)
    if quick.kind is Verdict.EMBEDDED:
        return quick
    remaining = budget
    if budget is not None and budget.time_ms is not None:
        left = budget.time_ms - (time.perf_counter() - t0) * 1000.0
        remaining = Budget(max_nodes=budget.max_nodes, time_ms=max(left, 0.0))
    return exact_embed(tree, host, budget=remaining)
