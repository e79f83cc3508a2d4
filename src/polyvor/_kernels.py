"""Raster classification kernel (the only hot loop in the package).

Label every pixel of a grid over the simplex with the index of the nearest
curve sample under a polyhedral norm, the norm being evaluated as the max
of its facet functionals on the rational-chart difference vector.

Every float distance in the package goes through ``gauge`` and every
nearest / second-nearest / TIE decision through ``_nearest``, so the grid,
loose points and the certificate screen share one elementwise expression
order (scalar multiply, add, running max; no dot products) and agree bit
for bit.

Tile pruning.  The distance from a pixel center t to sample k is
``dist_k(t) = max_f (P[f,k] - a_f.t)`` with ``P[f,k] = a_f.s_k``, and
``a_f.t`` is linear in t.  ``classify_grid`` walks the grid in bands of
TILE pixel rows, cut into TILE x TILE tiles.  With lo_f and hi_f the min
and max of ``a_f.t`` over a tile's inside pixel centers,

    LB_k = max_f (P[f,k] - hi_f)  <=  dist_k(t)  <=  max_f (P[f,k] - lo_f) = UB_k

at every inside pixel of the tile.  A label depends only on the nearest
sample (the first one on equal distances) and on the second-smallest
distance m2(t): TIE when m2(t) - best < tie_tol.  The two samples of least
UB are both within UB2, the second-smallest UB, so m2(t) <= UB2, and every
sample with dist_k(t) <= m2(t) has LB_k <= UB2.  A tile therefore keeps,
in index order, the samples with ``LB_k <= UB2 + tie_tol + slack`` (about
7 % of them at 512^2 with 1001 samples) and runs the unchanged ``gauge``
and ``_nearest`` on those columns only.  Both are elementwise, so the kept
columns carry the bits of the full row: same nearest sample, same
first-index tie-breaking, same TIE marks.  The labels are those of every
pixel x sample pair (``tests/oracles.py: brute_classify_grid``).

Slack.  The bound and the gauge are different float expressions, so the
slack covers the rounding of both.  Let u = eps/2, A = max_f (|a0[f]| +
|a1[f]|), S = max |s| over both sample coordinates; inside pixel centers
have coordinates in [0, 1].  P[f,k] is within 2u A S of a_f.s_k, a_f.t is
within 2u A of exact, the subtraction P - hi or P - lo adds u A (S + 1),
and the gauge (difference, two products, a sum) is within 3u A (S + 1).
Each side of the bound is thus off by at most 6u A (S + 1) to first
order, and both sides plus the rounding of the cut itself by less than
14u A (S + 1).  The slack is SLACK_ULPS * eps * A * (S + 1) = 32u A (S + 1).
S is read from the samples because they may leave the simplex (a circle
of large radius does).

Memory.  Bounds are computed one band at a time: (F, tiles) extremes and
(tiles, K) LB / UB for the band's tiles only.  Each tile classifies all of
its TILE^2 pixels against its kept samples and writes the inside ones, so
the label array is the only grid-sized allocation.
"""

import numpy as np

from polyvor._chart import HALF_SQRT3, plot_to_point

OUTSIDE = -1
TIE = -2
TILE = 8          # tile edge in pixels
SLACK_ULPS = 16   # rounding slack of the tile bound, in eps * A * (S + 1)


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
    Each TILE x TILE tile evaluates only the samples its bounds keep (see
    the module docstring), so the labels are those of all pixel x sample
    pairs at a fraction of the work.
    """
    labels = np.full((res, res), OUTSIDE, dtype=np.int64)
    ntiles = -(-res // TILE)
    # the grid is padded to whole tiles; padded pixels lie right of x = 1
    # or above y = sqrt(3)/2, so the inside test drops them
    px = (np.arange(ntiles * TILE) + 0.5) * (1.0 / res)
    dy = HALF_SQRT3 / res
    P = a0[:, None] * s1 + a1[:, None] * s2          # (F, K): a_f . s_k
    scale = np.max(np.abs(a0) + np.abs(a1)) * (
        max(np.max(np.abs(s1)), np.max(np.abs(s2))) + 1.0)
    slack = SLACK_ULPS * np.finfo(np.float64).eps * scale
    kth = min(1, len(s1) - 1)                        # UB2; a lone sample's own UB
    for y0 in range(0, res, TILE):
        y = (np.arange(y0, y0 + TILE) + 0.5)[:, None] * dy
        t1, t2, t3 = plot_to_point(px, y)
        inside = (t1 >= 0.0) & (t3 >= 0.0) & (t2 >= 0.0)
        tiles = np.flatnonzero(inside.reshape(TILE, ntiles, TILE).any(axis=(0, 2)))
        if len(tiles) == 0:
            continue
        # min and max of a_f . t over the inside pixel centers of each tile
        q = a0[:, None, None] * t1 + a1[:, None, None] * t2
        lo = np.where(inside, q, np.inf).reshape(-1, TILE, ntiles, TILE)
        hi = np.where(inside, q, -np.inf).reshape(-1, TILE, ntiles, TILE)
        lo = lo.min(axis=(1, 3))[:, tiles, None]
        hi = hi.max(axis=(1, 3))[:, tiles, None]
        lb = P[0] - hi[0]
        ub = P[0] - lo[0]
        term = np.empty_like(lb)
        for f in range(1, len(a0)):
            np.maximum(lb, np.subtract(P[f], hi[f], out=term), out=lb)
            np.maximum(ub, np.subtract(P[f], lo[f], out=term), out=ub)
        cut = np.partition(ub, kth, axis=1)[:, kth] + tie_tol + slack
        keep = lb <= cut[:, None]
        # kept samples of the band's tiles, tile after tile, in index order
        cand = np.nonzero(keep)[1]
        ends = np.cumsum(keep.sum(axis=1))
        c1, c2 = s1[cand], s2[cand]
        # every pixel of a tile is classified; only inside ones are kept
        t2px = np.repeat(t2, TILE)
        band = np.empty((TILE, ntiles * TILE), dtype=np.int64)
        start = 0
        for tile, end in zip(tiles, ends):
            x0 = tile * TILE
            lab = classify_points(t1[:, x0:x0 + TILE].reshape(-1), t2px, a0, a1,
                                  c1[start:end], c2[start:end], tie_tol)[0]
            pos = lab >= 0
            lab[pos] = cand[start:end][lab[pos]]
            band[:, x0:x0 + TILE] = lab.reshape(TILE, TILE)
            start = end
        rows = labels[y0:y0 + TILE]
        np.copyto(rows, band[:len(rows), :res], where=inside[:len(rows), :res])
    return labels


def classify_points(t1, t2, a0, a1, s1, s2, tie_tol):
    """Classify rational-chart points (t1, t2) by nearest sample (s1, s2).

    Loose points and every tile of ``classify_grid`` go through here.
    Returns (labels, best, second) so callers can inspect margins.
    """
    t1 = np.asarray(t1, dtype=np.float64).reshape(-1, 1)
    t2 = np.asarray(t2, dtype=np.float64).reshape(-1, 1)
    dist = np.empty((len(t1), len(s1)))
    gauge(a0, a1, s1 - t1, s2 - t2, dist)
    return _nearest(dist, tie_tol)
