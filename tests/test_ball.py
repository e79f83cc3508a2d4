"""Ball construction tests: exact hulls, faces, cones.

The hull oracle here is gift wrapping written directly against exact cross
products -- independent of the monotone chain used by the library.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from polyvor import (
    DimensionMismatch,
    build_ball,
    ball_generators,
    edge_directions,
    face_cone_membership,
)
from polyvor._chart import chart2
from polyvor.metrics import random_metric
from polyvor.transport import AffinePoint
from polyvor.voronoi import _facet_data

from oracles import as_direction, exact_gauge, face_cone_decomposition_check

F = Fraction
CENTROID = (F(1, 3), F(1, 3), F(1, 3))


def wrap_hull(points):
    """Gift-wrapping convex hull of 2D rational points, CCW, no collinear."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    start = min(pts)
    hull = [start]
    while True:
        cur = hull[-1]
        cand = None
        for p in pts:
            if p == cur:
                continue
            if cand is None:
                cand = p
                continue
            cross = ((cand[0] - cur[0]) * (p[1] - cur[1])
                     - (cand[1] - cur[1]) * (p[0] - cur[0]))
            if cross < 0 or (cross == 0
                             and (abs(p[0] - cur[0]) + abs(p[1] - cur[1])
                                  > abs(cand[0] - cur[0]) + abs(cand[1] - cur[1]))):
                cand = p
        if cand == start:
            break
        hull.append(cand)
    return hull


def hull_chart(ball):
    return [chart2(v.coords) for v in ball.hull_vertices]


def test_hexagon_vertices_exact(metrics):
    ball = build_ball(CENTROID, F(1, 3), metrics["unit"])
    assert ball.vertex_count == 6
    want = set()
    for i in range(3):
        for j in range(3):
            if i != j:
                v = list(CENTROID)
                v[i] += F(1, 3)
                v[j] -= F(1, 3)
                want.add(tuple(v))
    assert {v.coords for v in ball.hull_vertices} == want


def test_quadrilateral_drops_absorbed_generator(metrics):
    # the long-pair generator lies on an edge of the hull, not at a vertex
    ball = build_ball(CENTROID, F(1, 3), metrics["line"])
    assert ball.vertex_count == 4
    absorbed = (F(1, 2), F(1, 3), F(1, 6))   # center + (1/3)(e1 - e3)/2
    assert absorbed not in {v.coords for v in ball.hull_vertices}


def test_hull_matches_gift_wrapping_random():
    rng = np.random.default_rng(2718)
    for _ in range(30):
        d = random_metric(3, int(rng.integers(0, 100000)))
        ball = build_ball((F(1, 3), F(1, 3), F(1, 3)), F(2, 5), d)
        got = hull_chart(ball)
        pts = [chart2(tuple(F(1, 3) + F(2, 5) * c for c in g.coords))
               for g in ball.generators]
        want = wrap_hull(pts)
        # same cyclic order; both CCW; align at the minimum
        k = got.index(min(got))
        got = got[k:] + got[:k]
        j = want.index(min(want))
        want = want[j:] + want[:j]
        assert got == want


def test_gauge_is_radius_on_hull(metrics):
    for name in ("unit", "line", "two_cell", "three_cell"):
        d = metrics[name]
        ball = build_ball(CENTROID, F(2, 7), d)
        for v in ball.hull_vertices:
            w = as_direction(tuple(a - b for a, b in zip(v.coords, CENTROID)))
            assert exact_gauge(d, w) == F(2, 7)


def test_central_symmetry_and_scaling(metrics):
    d = metrics["two_cell"]
    b1 = build_ball(CENTROID, F(1, 5), d)
    verts1 = {v.coords for v in b1.hull_vertices}
    mirrored = {tuple(2 * c - x for c, x in zip(CENTROID, v)) for v in verts1}
    assert mirrored == verts1
    b2 = build_ball(CENTROID, F(2, 5), d)
    scaled = {tuple(c + 2 * (x - c) for c, x in zip(CENTROID, v)) for v in verts1}
    assert scaled == {v.coords for v in b2.hull_vertices}


def _fixture_and_random_metrics(metrics, count):
    return [metrics[name] for name in ("unit", "line", "two_cell", "three_cell")] \
        + [random_metric(3, s) for s in range(count)]


def test_faces_and_opposites(metrics):
    for d in _fixture_and_random_metrics(metrics, 30):
        ball = build_ball(CENTROID, F(1, 3), d)
        m = ball.vertex_count
        assert len(ball.faces) == 2 * m
        for f in ball.faces:
            g = ball.faces[f.opposite]
            assert g.dim == f.dim
            assert g.opposite == ball.faces.index(f)
        dims = [f.dim for f in ball.faces]
        assert dims == [0] * m + [1] * m

        def mirror(i):
            v = ball.hull_vertices[i].coords
            return tuple(2 * c - x for c, x in zip(CENTROID, v))

        for i in range(m):
            j = ball.faces[i].opposite
            assert ball.hull_vertices[j].coords == mirror(i)
        for f in ball.faces[m:]:
            opp = ball.faces[f.opposite].vertex_indices
            assert {ball.hull_vertices[k].coords for k in opp} \
                == {mirror(k) for k in f.vertex_indices}


def test_facet_functionals_follow_ball_edge_order(metrics):
    # edge f of every ball lies on facet f of the unit ball's table
    r = F(2, 5)
    for d in _fixture_and_random_metrics(metrics, 30):
        exact, _, _ = _facet_data(d)
        ball = build_ball(CENTROID, r, d)
        assert len(exact) == len(ball.edges)
        for f, ((a, b), _) in enumerate(ball.edges):
            for v in (ball.hull_vertices[a], ball.hull_vertices[b]):
                w1, w2 = chart2((v - ball.center).coords)
                assert exact[f][0] * w1 + exact[f][1] * w2 == r


def _geometry_text(ball):
    """Canonical text of a ball's hull, edges and faces, from str(Fraction)."""
    def row(values):
        return ",".join(str(v) for v in values)

    verts = [row(v.coords) for v in ball.hull_vertices]
    edges = [f"{a} {b} {row(n.coords)}" for (a, b), n in ball.edges]
    faces = [f"{f.dim} {row(f.vertex_indices)} {f.opposite}" for f in ball.faces]
    return "|".join((";".join(verts), ";".join(edges), ";".join(faces)))


# sha256 of the ball geometry, pinned from the per-ball hull construction
# that the shared unit hull replaced: a moved vertex, normal or antipode
# index shows here
BALL_GEOMETRY_SHA256 = "4b0c6e25c4a970a85505a6dffd57744a64982a2cdc114af5b13bf44bcd749d40"


def test_ball_geometry_matches_pinned_hash(metrics):
    h = hashlib.sha256()
    for d in _fixture_and_random_metrics(metrics, 40):
        for center in (CENTROID, (0.2, 0.3, 0.5)):
            h.update(_geometry_text(build_ball(center, F(2, 5), d)).encode())
            h.update(b"\n")
    assert h.hexdigest() == BALL_GEOMETRY_SHA256


def test_edge_normals_point_inward(metrics):
    for name in ("unit", "line", "two_cell"):
        ball = build_ball(CENTROID, F(1, 3), metrics[name])
        for (a, b), normal in ball.edges:
            va, vb = ball.hull_vertices[a], ball.hull_vertices[b]
            mid = tuple((x + y) / 2 for x, y in zip(va.coords, vb.coords))
            inward = sum(n * (c - mm)
                         for n, c, mm in zip(normal.coords, CENTROID, mid))
            assert inward > 0


def test_face_cone_membership_cases(metrics):
    d = metrics["unit"]
    ball = build_ball(CENTROID, F(1, 3), d)
    m = ball.vertex_count
    # a point through the interior of an antipodal edge: edge cone fires
    (a, b), _ = ball.edges[0]
    va, vb = ball.hull_vertices[a], ball.hull_vertices[b]
    mid = tuple((p + q) / 2 for p, q in zip(va.coords, vb.coords))
    through = AffinePoint(tuple(2 * c - mm for c, mm in zip(CENTROID, mid)))
    face = next(f for f in ball.faces
                if f.dim == 1 and tuple(f.vertex_indices) == (a, b))
    opp = ball.faces[face.opposite]
    assert face_cone_membership(ball, face, through)
    assert not face_cone_membership(ball, opp, through)
    # a vertex ray: vertex cone fires, neighboring edge cones do not
    v0 = ball.hull_vertices[0].coords
    ray = AffinePoint(tuple(c + 3 * (p - c) for c, p in zip(CENTROID, v0)))
    vface = ball.faces[0]
    assert face_cone_membership(ball, ball.faces[vface.opposite], ray)
    # the center belongs to the empty face only
    assert face_cone_membership(ball, None, CENTROID)
    assert not face_cone_membership(ball, ball.faces[0], CENTROID)


def test_face_cone_membership_refuses_a_face_of_another_ball(metrics):
    hexagon = build_ball(CENTROID, F(1, 3), metrics["unit"])
    quad = build_ball(CENTROID, F(1, 3), metrics["line"])
    y = (F(1, 2), F(1, 4), F(1, 4))
    for face in quad.faces:
        with pytest.raises(ValueError, match="not a face of this ball"):
            face_cone_membership(hexagon, face, y)
    # a face record equal to one of the ball's own is one of its faces
    twin = build_ball((F(1, 5), F(2, 5), F(2, 5)), F(1, 7), metrics["unit"])
    assert [face_cone_membership(hexagon, f, y) for f in twin.faces] \
        == [face_cone_membership(hexagon, f, y) for f in hexagon.faces]


def test_face_cones_partition_random_points(metrics):
    rng = np.random.default_rng(5150)
    for name in ("unit", "line", "three_cell"):
        ball = build_ball(CENTROID, F(1, 3), metrics[name])
        pts = []
        for _ in range(120):
            a = F(int(rng.integers(-40, 41)), 120)
            b = F(int(rng.integers(-40, 41)), 120)
            pts.append(AffinePoint((F(1, 3) + a, F(1, 3) + b, F(1, 3) - a - b)))
        assert face_cone_decomposition_check(pts, ball)


def test_edge_directions_three_classes(metrics):
    dirs = edge_directions(metrics["two_cell"])
    assert len(dirs) == 3
    for v in dirs:
        assert sum(v.coords) == 0
    d4 = random_metric(4, 1)
    with pytest.raises(DimensionMismatch):
        edge_directions(d4)


def test_facet_count_bound_values():
    # planar hulls never exceed the facet count bound C(2n, n) = 6
    rng = np.random.default_rng(31)
    for _ in range(20):
        d = random_metric(3, int(rng.integers(0, 100000)))
        ball = build_ball(CENTROID, 1, d)
        assert ball.vertex_count <= 6
        assert ball.vertex_count in (4, 6)


def test_generators_ordered_pairs(metrics):
    gens = ball_generators(metrics["line"])
    assert len(gens) == 6
    seen = set()
    for g in gens:
        nz = [c for c in g.coords if c != 0]
        assert sorted(nz)[0] < 0 < sorted(nz)[1]
        seen.add(tuple(g.coords))
    assert len(seen) == 6
