"""Ball construction tests: exact hulls, faces, cones.

The hull oracle here is gift wrapping written directly against exact cross
products -- independent of the monotone chain used by the library.
"""

from fractions import Fraction

import numpy as np
import pytest

from polyvor import (
    DimensionMismatch,
    build_ball,
    ball_generators,
    edge_directions,
    exact_gauge,
    face_cone_membership,
    facet_count_bound,
)
from polyvor._chart import chart2
from polyvor.metrics import random_metric
from polyvor.transport import AffinePoint

from oracles import as_direction, face_cone_decomposition_check

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


def test_faces_and_opposites(metrics):
    ball = build_ball(CENTROID, F(1, 3), metrics["unit"])
    m = ball.vertex_count
    assert len(ball.faces) == 2 * m
    for f in ball.faces:
        g = ball.faces[f.opposite]
        assert g.dim == f.dim
        assert g.opposite == ball.faces.index(f)
    dims = [f.dim for f in ball.faces]
    assert dims == [0] * m + [1] * m


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
    x = AffinePoint(CENTROID)
    ball = build_ball(CENTROID, F(1, 3), d)
    m = ball.vertex_count
    # a point through the interior of an antipodal edge: edge cone fires
    (a, b), _ = ball.edges[0]
    va, vb = ball.hull_vertices[a], ball.hull_vertices[b]
    mid = tuple((p + q) / 2 for p, q in zip(va.coords, vb.coords))
    through = AffinePoint(tuple(2 * c - mm for c, mm in zip(CENTROID, mid)),
                          chart="hyperplane")
    face = next(f for f in ball.faces
                if f.dim == 1 and tuple(f.vertex_indices) == (a, b))
    opp = ball.faces[face.opposite]
    assert face_cone_membership(x, face, through)
    assert not face_cone_membership(x, opp, through)
    # a vertex ray: vertex cone fires, neighboring edge cones do not
    v0 = ball.hull_vertices[0].coords
    ray = AffinePoint(tuple(c + 3 * (p - c) for c, p in zip(CENTROID, v0)),
                      chart="hyperplane")
    vface = ball.faces[0]
    assert face_cone_membership(x, ball.faces[vface.opposite], ray)
    # the center belongs to the empty face only
    assert face_cone_membership(x, None, x)
    assert not face_cone_membership(x, ball.faces[0], x)


def test_face_cones_partition_random_points(metrics):
    rng = np.random.default_rng(5150)
    for name in ("unit", "line", "three_cell"):
        ball = build_ball(CENTROID, F(1, 3), metrics[name])
        pts = []
        for _ in range(120):
            a = F(int(rng.integers(-40, 41)), 120)
            b = F(int(rng.integers(-40, 41)), 120)
            pts.append(AffinePoint((F(1, 3) + a, F(1, 3) + b,
                                    F(1, 3) - a - b), chart="hyperplane"))
        assert face_cone_decomposition_check(AffinePoint(CENTROID), pts, ball)


def test_edge_directions_three_classes(metrics):
    dirs = edge_directions(metrics["two_cell"])
    assert len(dirs) == 3
    for v in dirs:
        assert sum(v.coords) == 0
    d4 = random_metric(4, 1)
    with pytest.raises(DimensionMismatch):
        edge_directions(d4)


def test_facet_count_bound_values():
    assert facet_count_bound(2) == 6
    assert facet_count_bound(3) == 20
    # planar hulls never exceed it
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
