"""Polyhedral Wasserstein balls of planar metrics.

The ball of radius r around c is the convex hull of the 2*C(n+1,2) points
c + r*(e_i - e_j)/d_ij.  For n = 2 the hull of the unit ball is computed
once per metric, exactly: every generator is a vertex unless its triangle
inequality is tight (d_ij = d_ik + d_kj), so the hull has 6 vertices, or 4
exactly when a triangle inequality is tight; every ball is a scaled
translate of it.  Balls are planar: other n raise DimensionMismatch.
The geometry runs on exact rational-chart pairs (t1, t2); a vector leaves
the module as the triple (t1, t2, -t1 - t2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from polyvor.metrics import FiniteMetric
from polyvor.transport import AffinePoint, DimensionMismatch, _point_of


def _generator(d: FiniteMetric, i: int, j: int) -> tuple:
    """The generator (e_i - e_j)/d_ij in the rational chart (t1, t2), exact."""
    g = [Fraction(0)] * 3
    g[i] = 1 / d[i, j]
    g[j] = -g[i]
    return g[0], g[1]


def _lift(v) -> tuple:
    """The sum-zero triple (t1, t2, -t1 - t2) of a rational-chart vector."""
    return v[0], v[1], -v[0] - v[1]


# the generators' rays in counterclockwise order in the rational chart:
# g13, g23, g21, g31, g32, g12 (1-based states), 0-based pairs here
_CYCLE = ((0, 2), (1, 2), (1, 0), (2, 0), (2, 1), (0, 1))


@lru_cache(maxsize=1024)       # bounded like voronoi._facet_data, which reads it
def unit_hull(d: FiniteMetric) -> tuple:
    """Generators at the vertices of the unit ball of a planar (n = 2) metric.

    Every g_ij is a vertex unless d_ij = d_ik + d_kj; then g_ij lies on the
    edge from g_ik to g_kj, at (e_i - e_j)/(d_ik + d_kj), and the ball is a
    quadrilateral.  (At most one triangle inequality is tight.)  The
    vertices are rational-chart pairs (t1, t2), counterclockwise from the
    least one, computed once per metric.  Every ball of ``d`` is c + r*g
    over this sequence and the gauge's facet table follows it, so vertex,
    edge and facet indices agree everywhere.
    """
    verts = [_generator(d, i, j) for i, j in _CYCLE
             if d[i, j] != d[i, 3 - i - j] + d[3 - i - j, j]]
    k = verts.index(min(verts))
    return tuple(verts[k:] + verts[:k])


@lru_cache(maxsize=1024)       # bounded like unit_hull
def _generators(d: FiniteMetric) -> tuple:
    """The six lifted generators g_ij of a planar metric, ordered by (i, j), once per metric."""
    return tuple(_lift(_generator(d, i, j)) for i in range(3) for j in range(3) if i != j)


@dataclass(frozen=True)
class PolyBall:
    """A planar Wasserstein ball conv{c + r*g} with exact hull data."""

    center: AffinePoint
    radius: Fraction
    generators: tuple      # six Fraction triples g_ij, ordered by (i, j)
    hull_vertices: tuple   # CCW AffinePoints
    edges: tuple           # ((vertex index pair), inward normal triple) per edge

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
    c = _point_of(center, d.n_states, "center dimension does not match the metric")
    try:
        r = Fraction(radius)
    except (ValueError, OverflowError):     # Fraction(nan), Fraction(inf)
        raise ValueError("radius must be finite") from None
    if r <= 0:
        raise ValueError("radius must be positive")
    c1, c2, c3 = c.coords
    hull = unit_hull(d)
    verts = tuple(AffinePoint((c1 + r * g1, c2 + r * g2, c3 - r * (g1 + g2)))
                  for g1, g2 in hull)
    m = len(hull)

    edges = []
    for a in range(m):
        b = (a + 1) % m
        u0, u1 = r * (hull[b][0] - hull[a][0]), r * (hull[b][1] - hull[a][1])
        # the left normal of a counterclockwise edge points inward: with the
        # edge (u0, u1, u2), u2 = -u0 - u1, it is (u2 - u1, u0 - u2, u1 - u0)
        edges.append(((a, b), (-u0 - 2 * u1, 2 * u0 + u1, u1 - u0)))

    return PolyBall(c, r, _generators(d), verts, tuple(edges))


def edge_directions(d: FiniteMetric):
    """The three edge-direction classes (a), (b), (c) of a planar ball.

    Differences of generators: (a) g12-g13, (b) g13-g23, (c) g12-g32, as
    sum-zero Fraction triples.  Every edge of every ball of ``d`` is
    parallel to one of these.
    """
    if d.n != 2:
        raise DimensionMismatch("edge direction classes are defined for n = 2")

    # g12 = (r12, -r12), g13 = (r13, 0), g23 = (0, r23), g32 = (0, -r23)
    r12, r13, r23 = 1 / d[0, 1], 1 / d[0, 2], 1 / d[1, 2]
    return [_lift(v) for v in ((r12 - r13, -r12), (r13, -r23), (r12, r23 - r12))]
