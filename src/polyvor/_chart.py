"""Planar charts on the affine hyperplane sum(t) = 1 (three coordinates).

Two charts are used side by side:

* the rational chart ``(t1, t2)``: drop the last coordinate; a point lifts
  back with t3 = 1 - t1 - t2 and a vector with t3 = -t1 - t2.  Linear and
  exact, so the exact planar geometry (unit hull, facet table, certificate
  edges) runs on Fraction pairs here.
* the plotting chart ``(t1 + t2/2, sqrt(3)/2 * t2)``: the equilateral
  drawing of the simplex.  Up to a global scale it is an isometry for the
  Euclidean metric induced on the hyperplane, so Euclidean constructions
  (normals, perpendiculars, pixel grids) happen here, in floats.

Both maps are linear, so they apply unchanged to direction vectors.
"""

import math

SQRT3 = math.sqrt(3.0)
HALF_SQRT3 = SQRT3 / 2.0
INV_HALF_SQRT3 = 2.0 / SQRT3


def plot_xy(coords):
    """Plotting chart of a point or vector, in floats.

    Reads only the first two coordinates, so a rational-chart pair maps
    too, and so do arrays: ``plot_xy((u1, u2))`` charts every sample.
    """
    t1, t2 = coords[0], coords[1]
    return t1 + 0.5 * t2, HALF_SQRT3 * t2


def plot_to_point(x, y):
    """Invert the plotting chart; returns (t1, t2, t3) with t3 = 1 - t1 - t2."""
    t2 = y * INV_HALF_SQRT3
    t1 = x - 0.5 * t2
    return t1, t2, 1.0 - t1 - t2
