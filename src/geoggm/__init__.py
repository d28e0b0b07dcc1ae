"""Structure learning for Gaussian Markov fields on random geometric graphs.

Synthesizes bounded-degree geometric graphs on a torus, builds the
associated Gaussian models, recovers edge structure by pooling sample
covariances over lattice copies of local vertex patterns, and computes
the matching information-theoretic sample-complexity bounds.
"""

from .geometry import (
    CollisionError,
    Lattice,
    PatternTemplate,
    Torus,
    convex_hull,
    matching_distance,
    quantize,
    similarity,
)
from .graphgen import (
    FamilyParams,
    GeoGraph,
    PlantSpec,
    build_edges,
    generate,
    read_graph,
    write_graph,
)
from .gmrf import (
    BlockIndex,
    CouplingTooLarge,
    NotPositiveDefinite,
    PrecisionModel,
    SampleMatrix,
    assemble_precision,
    cdp_check,
    graph_distance,
    hellinger,
    read_samples,
    schur_conditional_precision,
    stationarity_gamma,
    sym_kl,
    write_samples,
)
from .selector import (
    CopySet,
    DetectionSkipped,
    SelectionReport,
    SelectorParams,
    default_params,
    detect_edges,
    find_copies,
    greedy_separated,
    pooled_scm,
    run_selection,
    zero_one_loss,
)
from . import bounds

__all__ = [
    "CollisionError", "Lattice", "PatternTemplate", "Torus", "convex_hull",
    "matching_distance", "quantize", "similarity",
    "FamilyParams", "GeoGraph", "PlantSpec", "build_edges", "generate",
    "read_graph", "write_graph",
    "BlockIndex", "CouplingTooLarge", "NotPositiveDefinite", "PrecisionModel",
    "SampleMatrix", "assemble_precision", "cdp_check", "graph_distance",
    "hellinger", "read_samples", "schur_conditional_precision",
    "stationarity_gamma", "sym_kl", "write_samples",
    "CopySet", "DetectionSkipped", "SelectionReport", "SelectorParams",
    "default_params", "detect_edges", "find_copies", "greedy_separated",
    "pooled_scm", "run_selection", "zero_one_loss",
    "bounds",
]

__version__ = "0.1.0"
