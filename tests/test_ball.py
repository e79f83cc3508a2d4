"""Ball construction tests: exact hulls, antipodes, face cones.

The hull oracle here is gift wrapping written directly against exact cross
products -- independent of the closed-form rule used by the library.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from polyvor import (
    DimensionMismatch,
    build_ball,
    count_full_dim_cells_hw,
    edge_directions,
)
from polyvor.ball import unit_hull
from polyvor.metrics import random_metric, validate_metric
from polyvor.transport import AffinePoint

from oracles import (
    ball_generators,
    chart2,
    exact_gauge,
    face_cone_decomposition_check,
    face_cone_membership,
    facet_table,
)

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


# the generators' rays counterclockwise in the rational chart, 1-based states
CCW_PAIRS = ((1, 3), (2, 3), (2, 1), (3, 1), (3, 2), (1, 2))


def test_quadrilateral_drops_absorbed_generator(metrics):
    # the long-pair generator lies on an edge of the hull, not at a vertex
    ball = build_ball(CENTROID, F(1, 3), metrics["line"])
    assert ball.vertex_count == 4
    absorbed = (F(1, 2), F(1, 3), F(1, 6))   # center + (1/3)(e1 - e3)/2
    assert absorbed not in {v.coords for v in ball.hull_vertices}
    # one metric per tight triangle inequality, and a strict one
    for rows, pair in (([[0, 1, 2], [1, 0, 1], [2, 1, 0]], {(1, 3), (3, 1)}),   # d13 = d12 + d23
                       ([[0, 2, 1], [2, 0, 1], [1, 1, 0]], {(1, 2), (2, 1)}),   # d12 = d13 + d32
                       ([[0, 1, 1], [1, 0, 2], [1, 2, 0]], {(2, 3), (3, 2)}),   # d23 = d21 + d13
                       ([[0, 2, 3], [2, 0, 4], [3, 4, 0]], set())):
        d = validate_metric(rows)
        want = []
        for i, j in CCW_PAIRS:
            if (i, j) not in pair:
                g = [F(0)] * 3
                g[i - 1], g[j - 1] = 1 / d[i - 1, j - 1], -1 / d[i - 1, j - 1]
                want.append(chart2(g))
        got = list(unit_hull(d))
        assert len(got) == 6 - len(pair)
        k = want.index(got[0])
        assert got == want[k:] + want[:k]


def test_hull_matches_gift_wrapping_random():
    rng = np.random.default_rng(2718)
    for _ in range(30):
        d = random_metric(3, int(rng.integers(0, 100000)))
        ball = build_ball((F(1, 3), F(1, 3), F(1, 3)), F(2, 5), d)
        got = hull_chart(ball)
        pts = [chart2(tuple(F(1, 3) + F(2, 5) * c for c in g))
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
            w = tuple(a - b for a, b in zip(v.coords, CENTROID))
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
    # the face-cone oracle reads antipodes off indices: through the center,
    # vertex i + m/2 mirrors vertex i and edge a + m/2 mirrors edge a
    for d in _fixture_and_random_metrics(metrics, 30):
        ball = build_ball(CENTROID, F(1, 3), d)
        m = ball.vertex_count
        half = m // 2
        assert 2 * half == m

        def mirror(i):
            v = ball.hull_vertices[i].coords
            return tuple(2 * c - x for c, x in zip(CENTROID, v))

        for i in range(m):
            assert ball.hull_vertices[(i + half) % m].coords == mirror(i)
        for a, (pair, normal) in enumerate(ball.edges):
            assert pair == (a, (a + 1) % m)
            opp, opp_normal = ball.edges[(a + half) % m]
            assert {ball.hull_vertices[k].coords for k in opp} \
                == {mirror(k) for k in pair}
            assert opp_normal == tuple(-c for c in normal)


def test_facet_functionals_follow_ball_edge_order(metrics):
    # edge f of every ball lies on facet f of the unit ball's table
    r = F(2, 5)
    for d in _fixture_and_random_metrics(metrics, 30):
        exact, _, _ = facet_table(d)
        ball = build_ball(CENTROID, r, d)
        assert len(exact) == len(ball.edges)
        for f, ((a, b), _) in enumerate(ball.edges):
            for v in (ball.hull_vertices[a], ball.hull_vertices[b]):
                w1 = v.coords[0] - ball.center.coords[0]
                w2 = v.coords[1] - ball.center.coords[1]
                assert exact[f][0] * w1 + exact[f][1] * w2 == r


def _geometry_text(ball):
    """Canonical text of a ball's hull and edges, from str(Fraction)."""
    def row(values):
        return ",".join(str(v) for v in values)

    verts = [row(v.coords) for v in ball.hull_vertices]
    edges = [f"{a} {b} {row(n)}" for (a, b), n in ball.edges]
    return "|".join((";".join(verts), ";".join(edges)))


# sha256 of the ball geometry, pinned from the per-ball hull construction
# that the shared unit hull replaced: a moved vertex or normal shows here
BALL_GEOMETRY_SHA256 = "c0046a252842bb33d8ff771399fbe3f1076e13b96e6b74ae1d6e369a97e5a173"


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
                         for n, c, mm in zip(normal, CENTROID, mid))
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
    edge, opp = m, m + m // 2   # edge 0 and its antipodal edge
    assert face_cone_membership(ball, edge, through)
    assert not face_cone_membership(ball, opp, through)
    # a vertex ray: vertex cone fires, the edge cones do not
    v0 = ball.hull_vertices[0].coords
    ray = AffinePoint(tuple(c + 3 * (p - c) for c, p in zip(CENTROID, v0)))
    assert face_cone_membership(ball, m // 2, ray)
    assert not any(face_cone_membership(ball, f, ray) for f in range(m, 2 * m))
    # the center belongs to the empty face only
    assert face_cone_membership(ball, None, CENTROID)
    assert not face_cone_membership(ball, 0, CENTROID)
    with pytest.raises(ValueError, match="not one of the ball's 12 faces"):
        face_cone_membership(ball, 2 * m, CENTROID)


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
        assert sum(v) == 0
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
    gens = build_ball(CENTROID, 1, metrics["line"]).generators
    assert len(gens) == 6
    seen = set()
    for g in gens:
        nz = [c for c in g if c != 0]
        assert sorted(nz)[0] < 0 < sorted(nz)[1]
        seen.add(g)
    assert len(seen) == 6


def _fraction_triple_summing_to(v, total):
    return len(v) == 3 and all(type(c) is F for c in v) and sum(v) == total


def test_exact_geometry_leaves_as_fraction_triples(metrics):
    # balls and censuses compute on rational-chart pairs and lift at the
    # library's edge: every vector must leave as a sum-zero Fraction triple
    # and every vertex as a point of the plane sum(t) = 1
    pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
    for d in _fixture_and_random_metrics(metrics, 400):
        ball = build_ball(CENTROID, F(2, 5), d)
        gens = ball_generators(d)
        assert list(ball.generators) == gens          # (i, j) order
        vectors = list(ball.generators) + [n for _, n in ball.edges] \
            + [e.direction for e in count_full_dim_cells_hw(d).entries]
        assert all(_fraction_triple_summing_to(v, 0) for v in vectors)
        assert all(_fraction_triple_summing_to(v.coords, 1) for v in ball.hull_vertices)
        by_pair = dict(zip(pairs, gens))
        for t1, t2 in unit_hull(d):
            lifted = (t1, t2, -t1 - t2)
            # g_ij is +1/d_ij at i and -1/d_ij at j
            assert lifted == by_pair[lifted.index(max(lifted)), lifted.index(min(lifted))]


@pytest.mark.parametrize("radius", [float("inf"), float("-inf"), float("nan")])
def test_infinite_radius_is_a_value_error(metrics, radius):
    # as AffinePoint refuses an infinite coordinate, not Fraction's OverflowError
    with pytest.raises(ValueError, match="radius must be finite"):
        build_ball((Fraction(1, 3),) * 3, radius, metrics["unit"])
