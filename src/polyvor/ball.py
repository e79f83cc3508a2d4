"""Polyhedral Wasserstein balls of planar metrics.

The ball of radius r around c is the convex hull of the 2*C(n+1,2) points
c + r*(e_i - e_j)/d_ij.  For n = 2 the hull of the unit ball is computed
once per metric, exactly: every generator is a vertex unless its triangle
inequality is tight (d_ij = d_ik + d_kj), so the hull has 6 vertices, or 4
exactly when a triangle inequality is tight; every ball is a scaled
translate of it.  Balls are planar: other n raise DimensionMismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from polyvor._chart import chart2
from polyvor.metrics import FiniteMetric
from polyvor.transport import (
    AffinePoint,
    DimensionMismatch,
    DirectionVector,
    exact_point,
)


def _generator(d: FiniteMetric, i: int, j: int) -> DirectionVector:
    """The generator (e_i - e_j)/d_ij, exact."""
    coords = [Fraction(0)] * d.n_states
    coords[i] = 1 / d[i, j]
    coords[j] = -1 / d[i, j]
    return DirectionVector(tuple(coords))


def ball_generators(d: FiniteMetric):
    """Generators (e_i - e_j)/d_ij for all ordered pairs i != j."""
    k = d.n_states
    return [_generator(d, i, j) for i in range(k) for j in range(k) if i != j]


# the generators' rays in counterclockwise order in the rational chart:
# g13, g23, g21, g31, g32, g12 (1-based states), 0-based pairs here
_CYCLE = ((0, 2), (1, 2), (1, 0), (2, 0), (2, 1), (0, 1))


@lru_cache(maxsize=None)
def unit_hull(d: FiniteMetric) -> tuple:
    """Generators at the vertices of the unit ball of a planar (n = 2) metric.

    Every g_ij is a vertex unless d_ij = d_ik + d_kj; then g_ij lies on the
    edge from g_ik to g_kj, at (e_i - e_j)/(d_ik + d_kj), and the ball is a
    quadrilateral.  (At most one triangle inequality is tight.)  The
    vertices run counterclockwise from the least rational-chart point,
    computed once per metric.  Every ball of ``d`` is c + r*g over this
    sequence and the gauge's facet table follows it, so vertex, edge and
    facet indices agree everywhere.
    """
    verts = [_generator(d, i, j) for i, j in _CYCLE
             if d[i, j] != d[i, 3 - i - j] + d[3 - i - j, j]]
    k = min(range(len(verts)), key=lambda a: chart2(verts[a].coords))
    return tuple(verts[k:] + verts[:k])


@dataclass(frozen=True)
class PolyBall:
    """A planar Wasserstein ball conv{c + r*g} with exact hull data."""

    center: AffinePoint
    radius: Fraction
    generators: tuple
    hull_vertices: tuple   # CCW AffinePoints
    edges: tuple           # ((vertex index pair), inward normal) per edge

    @property
    def vertex_count(self) -> int:
        return len(self.hull_vertices)


def build_ball(center, radius, d: FiniteMetric) -> PolyBall:
    """Ball of radius ``radius`` around ``center`` under metric ``d``.

    Exact throughout: the hull (4 or 6 vertices) and its inward edge
    normals.  Planar only: other n raise DimensionMismatch.
    """
    if d.n != 2:
        raise DimensionMismatch("balls are built for n = 2")
    c = exact_point(center)
    r = Fraction(radius)
    if r <= 0:
        raise ValueError("radius must be positive")
    if len(c.coords) != d.n_states:
        raise DimensionMismatch("center dimension does not match the metric")
    gens = tuple(ball_generators(d))
    verts = tuple(c.translate(g, r) for g in unit_hull(d))
    m = len(verts)

    edges = []
    for a in range(m):
        b = (a + 1) % m
        u = (verts[b] - verts[a]).coords
        # the left normal of a counterclockwise edge points inward
        nrm = DirectionVector((u[2] - u[1], u[0] - u[2], u[1] - u[0]))
        edges.append(((a, b), nrm))

    return PolyBall(c, r, gens, verts, tuple(edges))


def edge_directions(d: FiniteMetric):
    """The three edge-direction classes (a), (b), (c) of a planar ball.

    Differences of generators: (a) g12-g13, (b) g13-g23, (c) g12-g32.
    Every edge of every ball of ``d`` is parallel to one of these.
    """
    if d.n != 2:
        raise DimensionMismatch("edge direction classes are defined for n = 2")

    return [
        _generator(d, 0, 1) - _generator(d, 0, 2),
        _generator(d, 0, 2) - _generator(d, 1, 2),
        _generator(d, 0, 1) - _generator(d, 2, 1),
    ]
