"""Exact deciders, spectral bounds, and sufficient-condition verification
for fractional [a, b]-deleted graphs."""

from .graph import (
    EdgeListError,
    Graph,
    Graph6Error,
    complete,
    components,
    cut_count,
    degree_sum_minus,
    delete_edge,
    delete_vertices,
    disjoint_union,
    extremal,
    is_connected,
    join,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .maxflow import MaxFlow, feasible_flow
from .oracle import (
    SUBSET_GUARD,
    DeficiencyWitness,
    FractionalAssignment,
    SizeGuardError,
    deficiency_witness,
    epsilon,
    factor_deficiency_witness,
    find_fractional_factor,
    has_fractional_gf_factor,
    is_fractional_ab_deleted,
    theta,
)
from .spectral import (
    DEFAULT_TOL,
    MATRIX_GUARD,
    ConvergenceError,
    SpectralSummary,
    adjacency_matrix,
    feng_yu_bound,
    hsf_bound,
    hsf_bound_at,
    signless_laplacian_matrix,
    spectral_summary,
)
from .theorems import (
    DEFAULT_MARGIN,
    THEOREM_IDS,
    ScanRecord,
    SharpnessError,
    SharpnessReport,
    TheoremReport,
    eval_theorem,
    extremal_spectra,
    graphs_with_min_edges,
    scan,
    summarize,
    verify_sharpness,
)

__version__ = "0.1.0"
