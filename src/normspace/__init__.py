"""Goldman-Iwahori geometry of norm spaces.

Exact ultrametric norms over Q with a p-adic absolute value (distances,
joins, Helly witnesses, building graphs), Archimedean norms as convex
bodies (closed-form distances, John ellipsoids, intersection witnesses),
tight spans of finite metric spaces, and the signed-permutation
obstruction for alternating groups.
"""

from .errors import (
    InfeasibleScaleError,
    NormspaceError,
    PairwiseRadiusError,
    UsageError,
)
from .valued import (
    DiagNorm,
    PAdicContext,
    common_adapted_basis,
    eval_log_norm,
    gi_distance,
    helly_witness_na,
    join_norms,
    leq_norms,
    pval,
    scale_norm,
)
from .building import (
    BallCertificate,
    LatticeVertex,
    ball_bfs,
    helly_check_building,
    helly_triple_campaign,
    neighbors,
    random_vertex,
)
from .bodies import (
    MeetNorm,
    PolyNorm,
    SpdNorm,
    body_from_json,
    body_to_json,
    gauge,
    gi_distance_bodies,
    john_ellipsoid,
    polar,
    sampled_sup_ratio,
)
from .tightspan import (
    FiniteMetric,
    extremal_closure,
    is_admissible,
    is_extremal,
    kuratowski_embed,
    tight_span_vertices,
    ts_distance,
)
from .obstruction import (
    ObstructionReport,
    SignedPerm,
    cube_isometries,
    injective_hom_decision,
)

__version__ = "0.1.0"
