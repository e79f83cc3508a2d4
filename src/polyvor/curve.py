"""Parametric curves in the simplex.

A curve is its chart map: a callable that takes an array of parameters
in [0, 1] and returns the rational-chart arrays (u1, u2) of its points,
whose third coordinate is 1 - u1 - u2.  The Hardy-Weinberg curve is the
image of p |-> (p^2, 2p(1-p), (1-p)^2), the n = 2 Veronese curve of
binomial densities; its ball-edge tangencies are counted in
``polyvor.counting``.  The circle is a closed conic in the plotting
chart.  ``veronese_point`` gives one exact point of a Veronese curve.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from polyvor import _chart
from polyvor.metrics import _as_int
from polyvor.transport import AffinePoint


class ParameterOutOfRange(ValueError):
    """Curve parameter outside [0, 1]."""


def veronese_point(n: int, p) -> AffinePoint:
    """Binomial density with parameter p: coords C(n,k) p^(n-k) (1-p)^k, exact.

    A float p is read at its exact binary value; NaN and infinities are
    out of range.
    """
    n = _as_int(n, "n")
    if n < 1:
        raise ValueError("n must be at least 1")
    if isinstance(p, float) and not math.isfinite(p):     # Fraction would raise
        raise ParameterOutOfRange(f"p = {p} outside [0, 1]")
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ParameterOutOfRange(f"p = {p} outside [0, 1]")
    q = 1 - p
    return AffinePoint(tuple(math.comb(n, k) * p ** (n - k) * q ** k for k in range(n + 1)))


def hardy_weinberg_curve():
    """Chart map of the n = 2 Veronese curve: p |-> (p^2, 2p(1-p)), p in [0, 1]."""
    def chart(p):
        if not np.all((p >= 0) & (p <= 1)):
            raise ParameterOutOfRange("Hardy-Weinberg parameters must lie in [0, 1]")
        # float_power calls C pow like Python's float ** 2; numpy's p ** 2 is
        # p * p, 1 ulp off it on about 0.09 % of inputs
        return np.float_power(p, 2.0), 2 * p * (1 - p)

    return chart


def circle_curve(radius: float = 0.2):
    """Plotting-chart circle about the centroid, p |-> angle 2*pi*(p mod 1); a closed conic.

    p = 1 gives the p = 0 point bit for bit, so the seam closes exactly.
    Parameters outside [0, 1] raise ParameterOutOfRange: past one period
    the map would meet its own points again, up to rounding.
    """
    cx, cy = 0.5, _chart.HALF_SQRT3 / 3.0
    rho = float(radius)
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError(f"circle radius must be finite and > 0, got {rho!r}")

    def chart(p):
        if not np.all((p >= 0) & (p <= 1)):
            raise ParameterOutOfRange("circle parameters must lie in [0, 1]")
        th = 2.0 * math.pi * (p % 1.0)
        return _chart.plot_to_point(cx + rho * np.cos(th), cy + rho * np.sin(th))[:2]

    return chart
