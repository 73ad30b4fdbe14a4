"""Tree containment under degree conditions: extremal hosts, an exact
embedding oracle, and the constructive strategy routines, with a CLI
harness for generation, verification, and stress runs."""

from .decompose import (
    SeparatorResult,
    ThreeWayPartition,
    TwoWayPartition,
    centroid,
    find_separator,
    partition_three,
    partition_two,
    split_family_by_cap,
)
from .embedding import (
    Budget,
    EmbedVerdict,
    Verdict,
    auto_embed,
    embedding_violations,
    exact_embed,
    greedy_min_degree_embed,
    strategy_embed,
    validate_embedding,
)
from .families import (
    ExtremalParams,
    SharpnessInstance,
    TaggedGraph,
    broom_tree,
    caterpillar,
    cliques_with_apex,
    complete_bipartite,
    matched_wing_degree_forms,
    matched_wing_host,
    sharpness_instance_for_alpha,
    sharpness_instance_for_gamma,
    two_wing_degree_forms,
    two_wing_host,
    wing_clique_degree_forms,
    wing_clique_host,
)
from .formats import (
    FORMAT_TAG,
    InstanceReport,
    ParseError,
    graph_from_dimacs,
    graph_from_json,
    graph_to_dimacs,
    graph_to_json,
    parse_graph_file,
    witness_from_text,
    witness_to_text,
)
from .graphs import (
    Bipartition,
    Component,
    DegreeStats,
    GraphError,
    SimpleGraph,
    TreeGraph,
    build_graph,
    build_tree,
    components,
    degree_stats,
    distance_bfs,
    vertex_connectivity,
)
from .randgen import random_host, random_tree, splitmix64, trial_seed
from .rational import as_fraction
from .structure import (
    BroomObstructionCertificate,
    ComponentFacts,
    StructureReport,
    classify_apex_structure,
    verify_broom_obstruction,
)

__version__ = "0.1.0"
