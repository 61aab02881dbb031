"""slinv: exact invariants of link diagrams on closed orientable surfaces.

Combinatorial maps with genus/duality/homology, the four-variable
spanning-subgraph polynomial of an embedded graph, Tait graphs of
checkerboard-colorable diagrams, the two-variable polynomial J_K(t, z)
with its Jones specialization, homological twist numbers, coefficient
verifiers, and hyperbolic volume bounds.
"""

from .diagram import (
    DEFAULT_CAP,
    Coloring,
    ReducedFlags,
    SurfaceLinkDiagram,
    TaitPair,
    checkerboard,
    crossing_sign,
    is_alternating,
    parse_diagram,
    reduced_flags,
    serialize_diagram,
    state_numbers,
    state_tally,
    tait_graphs,
    writhe,
)
from .errors import (
    BadSlot,
    ContextMismatch,
    CrossingCapExceeded,
    DanglingHalfEdge,
    Disconnected,
    EdgeCapExceeded,
    EndpointsDiffer,
    GenusZero,
    HomologyRankMismatch,
    HypothesisViolated,
    InconsistentOrientation,
    InputError,
    NegativeGenus,
    NonIntegerGenus,
    NonMonomialDenominator,
    NotALoop,
    NotAlternating,
    NotCheckerboardColorable,
    NotFourValent,
    NotInvolution,
    NotReduced,
    NotTrivialLoop,
    PreconditionError,
    SlinvError,
    ZeroPolynomial,
)
from .homology import (
    HomologyContext,
    SpanningSubgraph,
    State,
    SubgraphProfile,
    boundary_walks,
    chain_of_walk,
    cycle_of_pair,
    edge_class,
    enumerate_states,
    parallel,
    subgraph_profile,
)
from .invariants import (
    V_OCT,
    V_TET,
    DiagramAnalysis,
    InvariantReport,
    MapAnalysis,
    ReducedGraphData,
    Verdict,
    big_P,
    full_report,
    jones_krushkal_statesum,
    jones_krushkal_via_P,
    jones_specialization,
    kauffman_bracket_jones,
    krushkal,
    loop_deletion_check,
    reduce,
    tau,
    tau_formula,
    tutte_check,
    twist_regions,
    verify_jk_coefficients,
    verify_krushkal_coeffs,
    verify_polynomial_duality,
    verify_route_equality,
    verify_span,
    verify_state_kernel,
    verify_subgraph_count,
    verify_tait_duality,
    verify_twist_formula,
    volume_bounds,
)
from .poly import CURVE_BINOMIAL, JKPoly, LaurentPoly, curve_binomial_terms
from .ribbon import (
    CombinatorialMap,
    delete_edge,
    dual,
    edge_kernels,
    is_isomorphic,
    parse_map,
    subgraph_numbers,
    subgraph_rows,
    subgraph_tally,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
