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
    count_full_dim_cells_hw,
    edge_directions,
    hardy_weinberg_curve,
    validate_metric,
    veronese_point,
)

from oracles import (
    chart2,
    circle_tangent,
    hw_tangent,
    planar_tangency_points,
    veronese_curve,
    veronese_tangent,
)

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
        assert t == (2 * p, 2 - 4 * p, 2 * p - 2)
        assert sum(t) == 0


def test_tangent_matches_finite_differences():
    rng = np.random.default_rng(614)
    curves = [(hardy_weinberg_curve(), hw_tangent),
              (veronese_curve(3), lambda p: veronese_tangent(3, p)),
              (circle_curve(), circle_tangent())]
    h = 1e-6
    for curve, tangent in curves:
        for _ in range(100):
            p = float(rng.uniform(0.05, 0.95))
            a = curve(p - h)
            b = curve(p + h)
            t = tangent(p)
            for i, tc in enumerate(t):
                fd = (float(b.coords[i]) - float(a.coords[i])) / (2 * h)
                scale = max(1.0, abs(fd))
                assert abs(float(tc) - fd) <= 1e-6 * scale


def test_tangency_sets_exact(metrics):
    assert count_full_dim_cells_hw(metrics["unit"]).parameters == (F(1, 2),)
    assert count_full_dim_cells_hw(metrics["two_cell"]).parameters == (F(2, 3), F(4, 5))
    assert count_full_dim_cells_hw(metrics["three_cell"]).parameters \
        == (F(1, 3), F(1, 2), F(2, 3))


def test_tangency_edge_cases_labelled(metrics):
    census = count_full_dim_cells_hw(metrics["three_cell"])
    cases = {e.p_star: e.edge_case for e in census.entries}
    assert cases == {F(1, 3): "a", F(1, 2): "c", F(2, 3): "b"}
    assert not census.degenerate


def test_degenerate_tangencies_reported():
    # d12 == d13 and d23 == d13: both strict cases collapse
    census = count_full_dim_cells_hw(validate_metric([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
    assert len(census.entries) == 1
    assert len(census.degenerate) == 2
    for msg in census.degenerate:
        assert "parallel" in msg or "degenerate" in msg or "equal" in msg


def test_planar_root_finder_agrees_with_closed_form(metrics):
    hw = hardy_weinberg_curve()
    for name in ("unit", "two_cell", "three_cell"):
        d = metrics[name]
        want = sorted(float(p) for p in count_full_dim_cells_hw(d).parameters)
        got = set()
        for direction in edge_directions(d):
            for r in planar_tangency_points(hw, hw_tangent, direction):
                got.add(round(r, 9))
        # the root finder sees every direction class; keep the ones the
        # closed form predicts and check nothing there is missed
        for w in want:
            assert any(abs(g - w) <= 1e-9 for g in got), (name, w, sorted(got))


def test_circle_horizontal_tangents():
    circle, tangent = circle_curve(), circle_tangent()
    roots = planar_tangency_points(circle, tangent, tangent(0.25))
    assert len(roots) == 2
    assert abs(roots[0] - 0.25) <= 1e-10
    assert abs(roots[1] - 0.75) <= 1e-10


def test_circle_points_on_circle():
    circle = circle_curve(radius=0.2)
    from polyvor._chart import plot_xy
    cx, cy = 0.5, float(np.sqrt(3) / 6)
    for p in np.linspace(0, 1, 17):
        x, y = plot_xy(circle(float(p)).coords)
        assert abs((x - cx) ** 2 + (y - cy) ** 2 - 0.04) < 1e-12
    a = plot_xy(circle(0.0).coords)
    b = plot_xy(circle(1.0).coords)
    assert abs(a[0] - b[0]) < 1e-12 and abs(a[1] - b[1]) < 1e-12


def test_tangency_direction_matches_tangent(metrics):
    """At p*, the curve tangent is parallel to the reported edge direction."""
    for name in ("unit", "two_cell", "three_cell"):
        census = count_full_dim_cells_hw(metrics[name])
        for e in census.entries:
            t = chart2(hw_tangent(e.p_star))
            u = chart2(e.direction)
            assert t[0] * u[1] - t[1] * u[0] == 0
