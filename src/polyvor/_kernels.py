"""Raster classification kernel (the only hot loop in the package).

Label every pixel of a grid over the simplex with the index of the nearest
curve sample under a polyhedral norm, the norm being evaluated as the max
of its facet functionals on the rational-chart difference vector.

Every float distance in the package goes through ``gauge`` and every
nearest / second-nearest / TIE decision through ``_nearest``, so the grid,
loose points and the certificate screen share one elementwise expression
order (scalar multiply, add, running max; no dot products) and agree bit
for bit.
"""

import numpy as np

from polyvor._chart import HALF_SQRT3, INV_HALF_SQRT3

OUTSIDE = -1
TIE = -2


def backend_name() -> str:
    """Name of the raster kernel, reported in the raster JSON."""
    return "numpy"


def gauge(a0, a1, d1, d2, out):
    """Write max_f(a0[f]*d1 + a1[f]*d2) into ``out`` and return it.

    (d1, d2) are rational-chart difference vectors, broadcast to the shape
    of ``out``; (a0[f], a1[f]) are the float facet functionals of the unit
    ball.  Products go into preallocated buffers: fresh full-size
    temporaries per facet cost page faults, not arithmetic.
    """
    term = np.empty_like(out)
    np.multiply(a0[0], d1, out=out)
    out += a1[0] * d2
    for f in range(1, len(a0)):
        np.multiply(a0[f], d1, out=term)
        term += a1[f] * d2
        np.maximum(out, term, out=out)
    return out


def _nearest(dist, tie_tol):
    """Per row of ``dist``: (label, best, second), label TIE when ambiguous.

    The label is the first column of minimal distance, or TIE when the
    second-smallest distance is within ``tie_tol`` of it.  Overwrites the
    minimal entries of ``dist``.
    """
    rows = np.arange(dist.shape[0])
    arg = np.argmin(dist, axis=1)
    best = dist[rows, arg]
    dist[rows, arg] = np.inf
    second = dist.min(axis=1)
    lab = arg.astype(np.int64)
    lab[second - best < tie_tol] = TIE
    return lab, best, second


def classify_grid(res, a0, a1, s1, s2, tie_tol):
    """Label a res x res grid of pixel centers by nearest sample (s1, s2).

    Pixel centers live on the plotting-chart box [0,1] x [0,sqrt(3)/2],
    row iy = 0 at the bottom; pixels outside the simplex are OUTSIDE.
    """
    labels = np.full((res, res), OUTSIDE, dtype=np.int64)
    px = (np.arange(res) + 0.5) * (1.0 / res)
    dy = HALF_SQRT3 / res
    d1 = np.empty((res, len(s1)))
    dist = np.empty_like(d1)
    for iy in range(res):
        t2 = (iy + 0.5) * dy * INV_HALF_SQRT3
        t1 = px - 0.5 * t2
        t3 = 1.0 - t1 - t2
        inside = (t1 >= 0.0) & (t3 >= 0.0) & (t2 >= 0.0)
        t1in = t1[inside]
        n = len(t1in)
        if n == 0:
            continue
        np.subtract(s1, t1in[:, None], out=d1[:n])
        gauge(a0, a1, d1[:n], s2 - t2, dist[:n])
        labels[iy, inside] = _nearest(dist[:n], tie_tol)[0]
    return labels


def classify_points(t1, t2, a0, a1, s1, s2, tie_tol):
    """Classify loose rational-chart points (no grid); same arithmetic.

    Returns (labels, best, second) so callers can inspect margins.
    """
    t1 = np.atleast_1d(np.asarray(t1, dtype=np.float64))
    t2 = np.atleast_1d(np.asarray(t2, dtype=np.float64))
    dist = np.empty((len(t1), len(s1)))
    gauge(a0, a1, s1 - t1[:, None], s2 - t2[:, None], dist)
    return _nearest(dist, tie_tol)
