"""Parametric curves in the simplex.

A curve is its point map: a callable p |-> AffinePoint for p in [0, 1].
The Hardy-Weinberg curve is the image of p |-> (p^2, 2p(1-p), (1-p)^2),
the n = 2 Veronese curve of binomial densities; its ball-edge tangencies
are counted in ``polyvor.counting``.  The circle is a closed conic in the
plotting chart.
"""

from __future__ import annotations

import math
from fractions import Fraction

from polyvor import _chart
from polyvor.transport import AffinePoint


class ParameterOutOfRange(ValueError):
    """Curve parameter outside [0, 1]."""


def veronese_point(n: int, p) -> AffinePoint:
    """Binomial density with parameter p: coords C(n,k) p^(n-k) (1-p)^k."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not isinstance(p, float):
        p = Fraction(p)
    if not 0 <= p <= 1:
        raise ParameterOutOfRange(f"p = {p} outside [0, 1]")
    q = 1 - p
    coords = tuple(math.comb(n, k) * p ** (n - k) * q ** k for k in range(n + 1))
    return AffinePoint(coords)


def hardy_weinberg_curve():
    """The n = 2 Veronese curve p |-> (p^2, 2p(1-p), (1-p)^2)."""
    return lambda p: veronese_point(2, p)


def circle_curve(radius: float = 0.2):
    """Plotting-chart circle about the centroid, p |-> angle 2*pi*p; a closed conic."""
    cx, cy = 0.5, _chart.HALF_SQRT3 / 3.0
    rho = float(radius)
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError(f"circle radius must be finite and > 0, got {rho!r}")

    def point(p):
        th = 2.0 * math.pi * p
        coords = _chart.plot_to_point(cx + rho * math.cos(th), cy + rho * math.sin(th))
        return AffinePoint(coords)

    return point

