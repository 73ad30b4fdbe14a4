"""Structural analysis of hosts around a high degree apex.

The classifier checks whether deleting an apex x leaves the very specific
shape the blocker families realize: exactly two components that x sees
with at least a theta fraction of their vertices, every component small
relative to k, the primary component bipartite with x confined to its
larger side, and the secondary component either near-bipartite-shaped or
small.  All threshold comparisons use exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .families import ExtremalParams
from .graphs import Component, GraphError, SimpleGraph, components
from .rational import RationalLike, as_fraction


@dataclass(frozen=True)
class ComponentFacts:
    """What the classifier finds about one component of G - x: how x sees
    it, and whether it is small.  Its order and sides are those of
    component."""

    component: Component
    x_degree: int
    x_degree_larger: int
    x_degree_smaller: int
    seen: bool
    small_at_k: bool
    small_at_two_thirds_k: bool


@dataclass(frozen=True)
class StructureReport:
    """Outcome of classify_apex_structure.

    seen_indices lists the seen components ranked by total x-degree, ties
    to the smaller least vertex; primary and secondary are its first two
    entries.  special_shaped is the conjunction of the four conditions.
    """

    x: int
    k: int
    theta: Fraction
    facts: tuple[ComponentFacts, ...]
    seen_indices: tuple[int, ...]
    primary: Optional[int]
    secondary: Optional[int]
    all_components_small: bool
    exactly_two_seen: bool
    primary_shape: bool
    secondary_shape: bool
    special_shaped: bool


def classify_apex_structure(
    g: SimpleGraph, x: int, k: int, theta: RationalLike
) -> StructureReport:
    """Classify the components of G - x against the blocker shape.

    The four conditions:
      1. every component of G - x is (k, theta)-small;
      2. x theta-sees exactly two components and sends no edge anywhere else;
      3. the primary seen component is bipartite, (2k/3, theta)-large, and
         x touches only its larger side;
      4. the secondary seen component is (2k/3, theta)-small when it is not
         bipartite, and x touches only one of its sides when it is.

    Side ties inside a bipartite component go to the side holding the
    smallest vertex.  Primary/secondary ties between equally seen
    components go to larger x-degree, then to the smaller least vertex.
    """
    th = as_fraction(theta)
    if not (0 <= x < g.n):
        raise GraphError(f"apex {x} out of range for n={g.n}")
    if g.n < 2:
        raise GraphError("classification needs at least one non-apex vertex")
    if k < 1:
        raise GraphError(f"k must be positive, got {k}")
    xs = set(g.adj[x])
    facts = [_component_facts(xs, k, th, comp) for comp in components(g, exclude=x)]
    seen_indices = tuple(sorted(
        (i for i, f in enumerate(facts) if f.seen),
        key=lambda i: (-facts[i].x_degree, facts[i].component.vertices[0]),
    ))
    unseen_untouched = all(f.x_degree == 0 for f in facts if not f.seen)
    primary = seen_indices[0] if len(seen_indices) >= 1 else None
    secondary = seen_indices[1] if len(seen_indices) >= 2 else None
    all_small = all(f.small_at_k for f in facts)
    two_seen = len(seen_indices) == 2 and unseen_untouched
    primary_shape = False
    secondary_shape = False
    if primary is not None and secondary is not None:
        pf = facts[primary]
        primary_shape = (
            pf.component.bipartition is not None
            and not pf.small_at_two_thirds_k
            and pf.x_degree_smaller == 0
        )
        sf = facts[secondary]
        if sf.component.bipartition is not None:
            secondary_shape = sf.x_degree_smaller == 0 or sf.x_degree_larger == 0
        else:
            secondary_shape = sf.small_at_two_thirds_k
    special = all_small and two_seen and primary_shape and secondary_shape
    return StructureReport(
        x=x,
        k=k,
        theta=th,
        facts=tuple(facts),
        seen_indices=seen_indices,
        primary=primary,
        secondary=secondary,
        all_components_small=all_small,
        exactly_two_seen=two_seen,
        primary_shape=primary_shape,
        secondary_shape=secondary_shape,
        special_shaped=special,
    )


def _component_facts(
    xs: set[int], k: int, theta: Fraction, comp: Component
) -> ComponentFacts:
    """The facts about comp for an apex whose neighbors are xs."""
    x_degree = sum(1 for v in comp.vertices if v in xs)
    # (k, theta)-smallness of a bipartite component is judged by its
    # larger side, of any other by its order
    size, x_larger, x_smaller = comp.order, 0, 0
    if comp.bipartition is not None:
        larger = comp.bipartition.larger()
        size = len(larger)
        x_larger = sum(1 for v in larger if v in xs)
        x_smaller = x_degree - x_larger
    return ComponentFacts(
        component=comp,
        x_degree=x_degree,
        x_degree_larger=x_larger,
        x_degree_smaller=x_smaller,
        seen=Fraction(x_degree) >= theta * comp.order,
        small_at_k=size < (1 + theta) * k,
        small_at_two_thirds_k=size < (1 + theta) * Fraction(2 * k, 3),
    )


@dataclass(frozen=True)
class BroomObstructionCertificate:
    """Two exact inequalities that together block the broom from the
    two-wing host.

    leaf_demand is (ell+1)/2 * (k/ell - 1), the non-center interior of any
    majority group of stars, which must exceed one B part; center_demand is
    (ell-1)(k/ell - 1) + 1, the occupancy forced into one A part when the
    handle sits on the hub or inside a wing, which must exceed |A|.
    """

    params: ExtremalParams
    leaf_demand: int
    b_capacity: int
    center_demand: int
    a_capacity: int
    holds: bool


def verify_broom_obstruction(ell: int, c: int, k: int) -> BroomObstructionCertificate:
    """Evaluate the counting certificate for the (ell, c, k) two-wing host.

    Integer arithmetic only: ell odd makes (ell+1)/2 exact and ell | k makes
    k/ell exact.  holds is True when both strict inequalities hold, which is
    the case for every valid parameter triple; the oracle cross-checks this
    on desk-scale instances.
    """
    params = ExtremalParams(ell, c, k)
    leaf_demand = (ell + 1) // 2 * (k // ell - 1)
    center_demand = (ell - 1) * (k // ell - 1) + 1
    holds = leaf_demand > params.wing_b_order and center_demand > params.wing_a_order
    return BroomObstructionCertificate(
        params=params,
        leaf_demand=leaf_demand,
        b_capacity=params.wing_b_order,
        center_demand=center_demand,
        a_capacity=params.wing_a_order,
        holds=holds,
    )
