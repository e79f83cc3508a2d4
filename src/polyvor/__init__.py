"""Polyhedral Wasserstein geometry in the probability simplex.

Exact rational Wasserstein distances and balls, closed-form censuses of
full-dimensional Voronoi cells of the Hardy-Weinberg curve, and raster
Voronoi diagrams that confirm the counts pixel by pixel.
"""

from polyvor.ball import (
    PolyBall,
    build_ball,
    edge_directions,
)
from polyvor.counting import (
    CellCensus,
    OddFacetCount,
    TangencyEntry,
    count_full_dim_cells_hw,
    full_dim_upper_bound,
)
from polyvor.curve import (
    ParameterOutOfRange,
    circle_curve,
    hardy_weinberg_curve,
    veronese_point,
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
    Infeasible,
    TransportPlan,
    as_affine_point,
    wasserstein_distance,
)
from polyvor.voronoi import (
    CurveSample,
    DimensionCertificate,
    NotFound,
    VoronoiRaster,
    dimension_certificate,
    raster_voronoi,
    sample_curve,
)

__version__ = "0.1.0"
