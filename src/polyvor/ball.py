"""Polyhedral Wasserstein balls and their face structure.

The ball of radius r around c is the convex hull of the 2*C(n+1,2) points
c + r*(e_i - e_j)/d_ij.  For n = 2 the hull is computed exactly (monotone
chain on Fraction coordinates in the rational chart) and always has 4 or 6
vertices; for higher n only the generators are stored.

Face cones: for a face F of the ball centered at x, C_F(x) is the open
cone of points seen from x through the relative interior of the antipodal
face -F.  Together with {x} these cones partition the plane, which is what
makes cell membership decidable by exact sign tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from polyvor._chart import chart2
from polyvor.metrics import FiniteMetric
from polyvor.transport import (
    AffinePoint,
    DimensionMismatch,
    DirectionVector,
    as_affine_point,
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


def _orient(o, a, b):
    """Exact 2D orientation: > 0 iff o->a->b turns left."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_ccw(points):
    """Monotone-chain hull of exact 2D points, counterclockwise.

    Collinear points are dropped, so every returned point is a vertex.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _orient(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _orient(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


@dataclass(frozen=True)
class Face:
    """A proper face of a planar ball: a vertex (dim 0) or an edge (dim 1).

    ``opposite`` indexes the antipodal face -F in the owning ball's face
    list.  The back-reference to the ball is attached after construction
    and excluded from equality.
    """

    dim: int
    vertex_indices: tuple
    opposite: int
    ball: "PolyBall" = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class PolyBall:
    """A Wasserstein ball conv{c + r*g}: exact hull data for n = 2."""

    center: AffinePoint
    radius: Fraction
    generators: tuple
    hull_vertices: tuple   # CCW AffinePoints; empty for n != 2
    edges: tuple           # ((vertex index pair), inward normal) per edge
    faces: tuple           # vertex faces first, then edge faces

    @property
    def vertex_count(self) -> int:
        return len(self.hull_vertices)


def build_ball(center, radius, d: FiniteMetric) -> PolyBall:
    """Ball of radius ``radius`` around ``center`` under metric ``d``.

    Exact throughout.  For n = 2 the hull, inward edge normals and the
    face list (with antipodal partners) are computed; the hull always has
    4 or 6 vertices.  For other n the ball stores generators only.
    """
    c = exact_point(as_affine_point(center, chart="hyperplane"))
    r = Fraction(radius)
    if r <= 0:
        raise ValueError("radius must be positive")
    if len(c.coords) != d.n_states:
        raise DimensionMismatch("center dimension does not match the metric")
    gens = tuple(ball_generators(d))
    if d.n != 2:
        return PolyBall(c, r, gens, (), (), ())

    by_chart = {}
    for g in gens:
        p = c.translate(g, r)
        by_chart[chart2(p.coords)] = p
    hull2 = _hull_ccw(list(by_chart))
    verts = tuple(by_chart[q] for q in hull2)
    m = len(verts)

    edges = []
    for a in range(m):
        b = (a + 1) % m
        u = (verts[b] - verts[a]).coords
        nrm = DirectionVector((u[1] - u[2], u[2] - u[0], u[0] - u[1]))
        side = sum(x * y for x, y in zip(nrm.coords, (c - verts[a]).coords))
        if side < 0:
            nrm = -nrm
        edges.append(((a, b), nrm))

    anti = {}
    index_of = {chart2(v.coords): i for i, v in enumerate(verts)}
    for i, v in enumerate(verts):
        mirrored = tuple(2 * cc - vc for cc, vc in zip(c.coords, v.coords))
        anti[i] = index_of[chart2(mirrored)]

    faces = []
    for i in range(m):
        faces.append(Face(0, (i,), anti[i]))
    for a in range(m):
        b = (a + 1) % m
        target = {anti[a], anti[b]}
        opp = next(e for e in range(m) if {e, (e + 1) % m} == target)
        faces.append(Face(1, (a, b), m + opp))

    ball = PolyBall(c, r, gens, verts, tuple(edges), tuple(faces))
    for f in faces:
        object.__setattr__(f, "ball", ball)
    return ball


def face_cone_membership(x, face, y) -> bool:
    """Is y in the cone C_F(x) of points seen from x through -F?

    ``face=None`` denotes the empty face, whose cone is {x} itself.  The
    cones of proper faces are open (they exclude x).  All predicates are
    exact rational sign tests in the rational chart.
    """
    x = exact_point(as_affine_point(x, chart="hyperplane"))
    y = exact_point(as_affine_point(y, chart="hyperplane"))
    if face is None:
        return x.coords == y.coords
    ball = face.ball
    if ball is None:
        raise ValueError("face is not attached to a ball")
    if exact_point(ball.center).coords != x.coords:
        raise ValueError("face belongs to a ball not centered at x")
    if not ball.hull_vertices:
        raise ValueError("face cones need an explicit hull (n = 2)")

    u = chart2((y - x).coords)
    if u == (0, 0):
        return False

    opp = ball.faces[face.opposite]
    if face.dim == 0:
        w = ball.hull_vertices[opp.vertex_indices[0]]
        a = chart2((w - x).coords)
        cross = u[0] * a[1] - u[1] * a[0]
        dot = u[0] * a[0] + u[1] * a[1]
        return cross == 0 and dot > 0
    if face.dim == 1:
        p = ball.hull_vertices[opp.vertex_indices[0]]
        q = ball.hull_vertices[opp.vertex_indices[1]]
        av = chart2((p - x).coords)
        bv = chart2((q - x).coords)
        det = av[0] * bv[1] - av[1] * bv[0]
        alpha = (u[0] * bv[1] - u[1] * bv[0]) / det
        beta = (av[0] * u[1] - av[1] * u[0]) / det
        return alpha > 0 and beta > 0
    raise ValueError(f"unsupported face dimension {face.dim}")


def facet_count_bound(n: int) -> int:
    """Facet count of any n-dimensional ball of this family: C(2n, n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return math.comb(2 * n, n)


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
