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
    State,
    SurfaceLinkDiagram,
    TaitPair,
    checkerboard,
    crossing_sign,
    enumerate_states,
    is_alternating,
    parse_diagram,
    reduced_flags,
    serialize_diagram,
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
    HypothesisViolated,
    InconsistentOrientation,
    InputError,
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
from .poly import JKPoly, LaurentPoly
from .ribbon import (
    CombinatorialMap,
    HomologyContext,
    SpanningSubgraph,
    SubgraphProfile,
    boundary_walks,
    build_map,
    chain_of_walk,
    cycle_of_pair,
    delete_edge,
    dual,
    edge_class,
    faces,
    genus,
    is_isomorphic,
    parallel,
    parse_map,
    subgraph_profile,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
