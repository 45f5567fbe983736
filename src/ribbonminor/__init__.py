"""Ribbon graphs as arrow presentations: duality, minor moves, and
excluded-minor checks, exhaustively verifiable at small edge counts.

All values are immutable and all operations are pure functions, so anything
here can be shared freely between threads or workers.
"""

from .arrow_core import (
    ArpError,
    ArrowPresentation,
    BoundaryComponent,
    EdgeLineSegment,
    UnderlyingGraph,
    VertexLineSegment,
    canonical_presentation,
    canonicalize,
    euler_genus,
    format_arp,
    is_equivalent,
    parse_arp,
    trace_boundaries,
    underlying_graph,
)
from .duality import geometric_dual, partial_dual
from .minor_ops import (
    MinorMove,
    boundary_distance,
    can_split_face,
    can_split_vertex,
    contract_edge,
    delete_component,
    delete_edge,
    delete_vertex,
    dual_distance,
    is_orientable_loop,
    is_permissible_join,
    is_proper_contraction,
    is_proper_deletion,
    join_vertices,
    split_face,
    split_vertex,
    vls_dual_distance,
)
from .minor_search import (
    MinorFamily,
    applicable_moves,
    bipartite_by_even_face_minors,
    bipartite_by_excluded_minors,
    bipartite_by_join_minors,
    bipartite_plane_by_excluded_minors,
    cc_by_excluded_eulerian_minors,
    cc_by_excluded_minors,
    cc_plane_by_excluded_minors,
    contains_minor,
    minor_witness,
    plane_bipartite_by_excluded_minors,
    plane_cc_by_excluded_minors,
    replay_witness,
    target_catalog,
)
from .predicates import (
    checkerboard_colouring,
    is_bipartite,
    is_checkerboard_colourable,
    is_eulerian,
    is_even_face,
    is_plane,
)
from .verify import (
    CHECKS,
    EnumerationSpec,
    LEMMAS,
    VerificationReport,
    enumerate_presentations,
    verify_lemma,
    verify_theorem,
)

__version__ = "0.1.0"
