"""The public surface of ``polyvor``, pinned name by name.

An addition or removal must edit the list below, so it shows in the diff.
"""

import types

import polyvor

PUBLIC_NAMES = [
    "AffinePoint",
    "CellCensus",
    "CurveSample",
    "DimensionCertificate",
    "DimensionMismatch",
    "FiniteMetric",
    "Infeasible",
    "MetricError",
    "NonpositiveOffDiagonal",
    "NonzeroDiagonal",
    "NotFound",
    "NotSymmetric",
    "OddFacetCount",
    "ParameterOutOfRange",
    "ParametricCurve",
    "PolyBall",
    "TangencyEntry",
    "TransportPlan",
    "TriangleViolation",
    "VoronoiRaster",
    "as_affine_point",
    "build_ball",
    "circle_curve",
    "count_full_dim_cells_hw",
    "dimension_certificate",
    "edge_directions",
    "exact_point",
    "full_dim_upper_bound",
    "hardy_weinberg_curve",
    "random_metric",
    "raster_voronoi",
    "sample_curve",
    "validate_metric",
    "veronese_point",
    "wasserstein_distance",
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(polyvor).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
