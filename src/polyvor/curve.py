"""Parametric curves in the simplex and ball-edge tangency points.

The Hardy-Weinberg curve is the image of p |-> (p^2, 2p(1-p), (1-p)^2),
the n = 2 Veronese curve of binomial densities.  A Voronoi cell of a point
x on the curve is full-dimensional exactly when some edge of the ball is
tangent to the curve at x, so the tangency parameters below are the whole
story for the census module.

Tangency parameters for the three edge-direction classes of a planar
ball (closed form, exact):

    (a) exists iff d12 > d13, at p = (d12 - d13) / (2 d12 - d13)
    (b) exists iff d23 > d13, at p = d23 / (2 d23 - d13)
    (c) always exists,        at p = d23 / (d12 + d23)

When d13 equals d12 or d23 the corresponding tangency degenerates (the
parameter leaves (0,1)); this is reported, not silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from polyvor import _chart
from polyvor.ball import edge_directions
from polyvor.metrics import FiniteMetric
from polyvor.transport import AffinePoint, DirectionVector


class ParameterOutOfRange(ValueError):
    """Curve parameter outside [0, 1]."""


def veronese_point(n: int, p) -> AffinePoint:
    """Binomial density with parameter p: coords C(n,k) p^(n-k) (1-p)^k."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if isinstance(p, float):
        if not 0.0 <= p <= 1.0:
            raise ParameterOutOfRange(f"p = {p} outside [0, 1]")
    else:
        p = Fraction(p)
        if not 0 <= p <= 1:
            raise ParameterOutOfRange(f"p = {p} outside [0, 1]")
    q = 1 - p
    coords = tuple(math.comb(n, k) * p ** (n - k) * q ** k for k in range(n + 1))
    return AffinePoint(coords)


def veronese_tangent(n: int, p) -> DirectionVector:
    """Derivative in p of the Veronese point (a sum-zero vector)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not isinstance(p, float):
        p = Fraction(p)
    q = 1 - p
    coords = []
    for k in range(n + 1):
        c = math.comb(n, k)
        up = (n - k) * p ** (n - k - 1) * q ** k if k < n else 0 * p
        down = k * p ** (n - k) * q ** (k - 1) if k > 0 else 0 * p
        coords.append(c * (up - down))
    return DirectionVector(tuple(coords))


def hw_tangent(p) -> DirectionVector:
    """Tangent of the Hardy-Weinberg curve: (2p, 2-4p, 2p-2)."""
    if not isinstance(p, float):
        p = Fraction(p)
    return DirectionVector((2 * p, 2 - 4 * p, 2 * p - 2))


@dataclass(frozen=True)
class ParametricCurve:
    """A curve [0,1] -> simplex with a tangent field.

    ``degree_dual`` is the degree of the dual curve (2 for conics), used by
    the cell-count bound; None when unknown.
    """

    name: str
    eval: Callable
    tangent: Callable
    degree_dual: int = None


def hardy_weinberg_curve() -> ParametricCurve:
    return ParametricCurve("hardy-weinberg", lambda p: veronese_point(2, p),
                           hw_tangent, degree_dual=2)


def veronese_curve(n: int) -> ParametricCurve:
    return ParametricCurve(f"veronese-{n}", lambda p: veronese_point(n, p),
                           lambda p: veronese_tangent(n, p),
                           degree_dual=2 if n == 2 else None)


def circle_curve(radius: float = 0.2) -> ParametricCurve:
    """Plotting-chart circle about the centroid, p |-> angle 2*pi*p; a closed conic."""
    cx, cy = 0.5, _chart.HALF_SQRT3 / 3.0
    rho = float(radius)
    if rho <= 0:
        raise ValueError("radius must be positive")

    def ev(p):
        th = 2.0 * math.pi * p
        coords = _chart.plot_to_point(cx + rho * math.cos(th), cy + rho * math.sin(th))
        chart = "simplex" if min(coords) >= -1e-12 else "hyperplane"
        return AffinePoint(coords, chart=chart)

    def tan(p):
        th = 2.0 * math.pi * p
        a = -2.0 * math.pi * rho * math.sin(th)
        b = 2.0 * math.pi * rho * math.cos(th)
        return DirectionVector(_chart.plot_to_direction(a, b))

    return ParametricCurve("circle", ev, tan, degree_dual=2)


@dataclass(frozen=True)
class TangencyEntry:
    p_star: Fraction
    edge_case: str          # 'a', 'b' or 'c'
    direction: DirectionVector


@dataclass(frozen=True)
class TangencyReport:
    entries: tuple          # TangencyEntry, sorted by p_star
    degenerate: tuple       # human-readable records of equality coincidences


def hw_tangency_points(d: FiniteMetric) -> TangencyReport:
    """Exact tangency parameters of ball edges along the HW curve."""
    dir_a, dir_b, dir_c = edge_directions(d)
    d12, d13, d23 = d[0, 1], d[0, 2], d[1, 2]
    entries = []
    degenerate = []

    if d12 > d13:
        entries.append(TangencyEntry((d12 - d13) / (2 * d12 - d13), "a", dir_a))
    elif d12 == d13:
        degenerate.append("d12 == d13: case (a) tangency degenerates to p = 0")

    if d23 > d13:
        entries.append(TangencyEntry(d23 / (2 * d23 - d13), "b", dir_b))
    elif d23 == d13:
        degenerate.append("d23 == d13: case (b) tangency degenerates to p = 1")

    entries.append(TangencyEntry(d23 / (d12 + d23), "c", dir_c))

    entries.sort(key=lambda e: e.p_star)
    return TangencyReport(tuple(entries), tuple(degenerate))

