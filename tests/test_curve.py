"""Curve and tangency tests.

Tangency parameters come from exact closed forms; the planar bracketing
root finder re-derives them numerically from the plotting chart, which is
as independent as the two routes get.
"""

from fractions import Fraction

import numpy as np
import pytest

from polyvor import (
    ParameterOutOfRange,
    circle_curve,
    edge_directions,
    hardy_weinberg_curve,
    hw_tangency_points,
    hw_tangent,
    validate_metric,
    veronese_curve,
    veronese_point,
)

from oracles import planar_tangency_points

F = Fraction


def test_veronese_point_exact_values():
    p = veronese_point(2, F(1, 2))
    assert p.coords == (F(1, 4), F(1, 2), F(1, 4))
    p = veronese_point(2, F(4, 5))
    assert p.coords == (F(16, 25), F(8, 25), F(1, 25))
    p3 = veronese_point(3, F(1, 3))
    assert p3.coords == (F(1, 27), F(6, 27), F(12, 27), F(8, 27))
    assert sum(p3.coords) == 1


def test_parameter_range():
    with pytest.raises(ParameterOutOfRange):
        veronese_point(2, F(3, 2))
    with pytest.raises(ParameterOutOfRange):
        veronese_point(2, -0.25)
    veronese_point(2, 0)    # endpoints allowed
    veronese_point(2, 1)


def test_hw_tangent_closed_form():
    for p in (F(0), F(1, 4), F(1, 2), F(9, 10)):
        t = hw_tangent(p)
        assert t.coords == (2 * p, 2 - 4 * p, 2 * p - 2)
        assert sum(t.coords) == 0


def test_tangent_matches_finite_differences():
    rng = np.random.default_rng(614)
    curves = [hardy_weinberg_curve(), veronese_curve(3), circle_curve()]
    h = 1e-6
    for curve in curves:
        for _ in range(100):
            p = float(rng.uniform(0.05, 0.95))
            a = curve.eval(p - h)
            b = curve.eval(p + h)
            t = curve.tangent(p)
            for i, tc in enumerate(t.coords):
                fd = (float(b.coords[i]) - float(a.coords[i])) / (2 * h)
                scale = max(1.0, abs(fd))
                assert abs(float(tc) - fd) <= 1e-6 * scale


def test_hw_is_veronese_2():
    hw = hardy_weinberg_curve()
    v2 = veronese_curve(2)
    for p in (0.0, 0.3, 0.72, 1.0):
        assert np.allclose([float(c) for c in hw.eval(p).coords],
                           [float(c) for c in v2.eval(p).coords])
    assert hw.degree_dual == 2


def test_tangency_sets_exact(metrics):
    assert [e.p_star for e in hw_tangency_points(metrics["unit"]).entries] \
        == [F(1, 2)]
    assert [e.p_star for e in hw_tangency_points(metrics["two_cell"]).entries] \
        == [F(2, 3), F(4, 5)]
    assert [e.p_star for e in hw_tangency_points(metrics["three_cell"]).entries] \
        == [F(1, 3), F(1, 2), F(2, 3)]


def test_tangency_edge_cases_labelled(metrics):
    rep = hw_tangency_points(metrics["three_cell"])
    cases = {e.p_star: e.edge_case for e in rep.entries}
    assert cases == {F(1, 3): "a", F(1, 2): "c", F(2, 3): "b"}
    assert not rep.degenerate


def test_degenerate_tangencies_reported():
    # d12 == d13 and d23 == d13: both strict cases collapse
    rep = hw_tangency_points(validate_metric([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
    assert len(rep.entries) == 1
    assert len(rep.degenerate) == 2
    for msg in rep.degenerate:
        assert "parallel" in msg or "degenerate" in msg or "equal" in msg


def test_planar_root_finder_agrees_with_closed_form(metrics):
    hw = hardy_weinberg_curve()
    for name in ("unit", "two_cell", "three_cell"):
        d = metrics[name]
        want = sorted(float(e.p_star) for e in hw_tangency_points(d).entries)
        got = set()
        for direction in edge_directions(d):
            for r in planar_tangency_points(hw, direction):
                got.add(round(r, 9))
        # the root finder sees every direction class; keep the ones the
        # closed form predicts and check nothing there is missed
        for w in want:
            assert any(abs(g - w) <= 1e-9 for g in got), (name, w, sorted(got))


def test_circle_horizontal_tangents():
    circle = circle_curve()
    horizontal = circle.tangent(0.25)
    roots = planar_tangency_points(circle, horizontal)
    assert len(roots) == 2
    assert abs(roots[0] - 0.25) <= 1e-10
    assert abs(roots[1] - 0.75) <= 1e-10


def test_circle_points_on_circle():
    circle = circle_curve(radius=0.2)
    from polyvor._chart import plot_xy
    cx, cy = 0.5, float(np.sqrt(3) / 6)
    for p in np.linspace(0, 1, 17):
        x, y = plot_xy(circle.eval(float(p)).coords)
        assert abs((x - cx) ** 2 + (y - cy) ** 2 - 0.04) < 1e-12
    a = plot_xy(circle.eval(0.0).coords)
    b = plot_xy(circle.eval(1.0).coords)
    assert abs(a[0] - b[0]) < 1e-12 and abs(a[1] - b[1]) < 1e-12


def test_tangency_direction_matches_tangent(metrics):
    """At p*, the curve tangent is parallel to the reported edge direction."""
    from polyvor._chart import chart2
    for name in ("unit", "two_cell", "three_cell"):
        rep = hw_tangency_points(metrics[name])
        for e in rep.entries:
            t = chart2(hw_tangent(e.p_star).coords)
            u = chart2(e.direction.coords)
            assert t[0] * u[1] - t[1] * u[0] == 0
