"""Polyhedral Wasserstein geometry in the probability simplex.

Exact rational Wasserstein distances and balls, closed-form censuses of
full-dimensional Voronoi cells of the Hardy-Weinberg curve, and raster
Voronoi diagrams that confirm the counts pixel by pixel.
"""

from polyvor.ball import (
    Face,
    PolyBall,
    ball_generators,
    build_ball,
    edge_directions,
    face_cone_membership,
    facet_count_bound,
)
from polyvor.counting import CellCensus, OddFacetCount, count_full_dim_cells_hw, full_dim_upper_bound
from polyvor.curve import (
    ParameterOutOfRange,
    ParametricCurve,
    TangencyEntry,
    TangencyReport,
    circle_curve,
    hardy_weinberg_curve,
    hw_tangency_points,
    hw_tangent,
    veronese_curve,
    veronese_point,
    veronese_tangent,
)
from polyvor.metrics import (
    FiniteMetric,
    MetricError,
    NonpositiveOffDiagonal,
    NonzeroDiagonal,
    NotSymmetric,
    TriangleViolation,
    random_metric,
    validate_metric,
)
from polyvor.transport import (
    AffinePoint,
    DimensionMismatch,
    DirectionVector,
    Infeasible,
    TransportPlan,
    as_affine_point,
    exact_point,
    wasserstein_distance,
)
from polyvor.voronoi import (
    CurveSample,
    DimensionCertificate,
    NotFound,
    VoronoiRaster,
    classify,
    dimension_certificate,
    exact_gauge,
    raster_voronoi,
    sample_curve,
)

__version__ = "0.1.0"
