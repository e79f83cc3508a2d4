"""Raster classification kernel (the only hot loop in the package).

Label every pixel of a grid over the simplex with the index of the nearest
curve sample under a polyhedral norm, the norm being evaluated as the max
of its facet functionals on the rational-chart difference vector.

Every float distance in the package goes through ``gauge`` (scalar
multiply, add, running max; no dot products), every nearest / TIE decision
of the grid through ``_nearest`` and every rounding band through ``slack``.

Facet table.  A norm's unit ball is centrally symmetric, so its m facet
functionals come in antipodal pairs, and the table of
``voronoi._facet_data`` holds one functional per pair:
gauge(w) = max_f |a_f.w| over its m/2 rows.

Pruning.  The distance from a pixel center t to sample k is
``dist_k(t) = max_f (P[f,k] - a_f.t)`` with ``P[f,k] = a_f.s_k``, and
``a_f.t`` is linear in t.  With lo_f and hi_f the min and max of ``a_f.t``
over the inside pixel centers of a region R of the grid,

    LB_k = max_f (P[f,k] - hi_f)  <=  dist_k(t)  <=  max_f (P[f,k] - lo_f) = UB_k

at every inside pixel of R, f running over all m facets.  The facet -a_f
of a table row a_f has P = -P[f,k], lo = -hi_f and hi = -lo_f, so with
x = P[f,k] - hi_f and y = lo_f - P[f,k] over the m/2 rows,
LB_k = max (max(x, y)) and UB_k = -min (min(x, y)).  A label depends only
on the nearest sample (the first one on equal distances) and on the
second-smallest distance m2(t): TIE when m2(t) - best < tie_tol.  The two
samples of least UB are both within UB2, the second-smallest UB, so
m2(t) <= UB2, and every sample with dist_k(t) <= m2(t) has LB_k <= UB2.
So R may keep, in index order, only the samples with
``LB_k <= UB2 + tie_tol + slack``: the nearest sample, every sample within
m2(t) and hence m2(t) itself are among them, at every inside pixel of R.

Segment, then tile.  ``classify_grid`` walks the grid in bands of TILE
pixel rows, cut into TILE x TILE tiles; the tiles of a band with an inside
pixel are grouped, SEG at a time, into segments.  A segment is bounded
against all K samples.  Its tiles are then bounded only against the
segment's kept samples: those hold the nearest and every sample within
m2(t) of each of the segment's pixels, so the argument above, run on the
candidates, keeps them again, and the dominance cut below drops more.  At
512^2 with 1001 samples a tile keeps 59-76 samples (6-8 %) on the
Hardy-Weinberg curve and the circle under the worked metrics d1-d3, 33-35
under the path metric.  Each tile runs the unchanged ``gauge`` and
``_nearest`` on its kept columns only, in blocks of whole pixel rows of at
most BLOCK pixel x sample pairs (one row when a row alone holds more).
Both are elementwise, and the difference s2 - t2, constant along a pixel
row, enters ``gauge`` as one (rows, 1, k) row per block, so its products
are formed once per row and broadcast: the kept columns carry the bits of
the full row, the same nearest sample, the same first-index tie-breaking
and the same TIE marks.  The labels are those of every pixel x sample pair
under the gauge over all m facets (``tests/oracles.py:
brute_classify_grid``).

Dominance.  Within one tile write, for sample k and table row f,
x_f = P[f,k] - hi_f, y_f = lo_f - P[f,k] and ub_f = -min(x_f, y_f), so
that |a_f.(s_k - t)| <= ub_f at every inside pixel t; margin = tie_tol +
slack as above.  Sample j is pure in (f, +) when
x_f >= max_{g != f} ub_g + margin, and in (f, -) when y_f >= that bar.
Then dist_j(t) = sigma (P[f,j] - a_f.t) at every inside pixel, sigma = +1
or -1, while every sample k has dist_k(t) >= sigma (P[f,k] - a_f.t).
With V the second-smallest sigma P[f,j] over the samples pure in
(f, sigma), a sample k with sigma P[f,k] > V + margin is farther than two
samples at every inside pixel: neither the nearest nor within m2(t), so
the tile drops it.  Every sample within m2(t) thus survives the cut, as it
survives the LB test, and the tile keeps the samples that pass both.  On
8-pixel tiles or on segments the cut cost more than it saved.

In floats, in the notation of "Slack" and to first order in u: x, y and
ub are at most A (S + 1) in size and within 3u A (S + 1) of their exact
values (P 2u A S, lo and hi 2u A, the subtraction u A (S + 1)).  A purity
test passed in floats, its sum rounded, leaves the exact
x_f - ub_g >= margin (1 - u) - 7u A (S + 1) > 0 for every g != f (one
exists: m/2 >= 2).  So exactly sigma a_f.(s_j - t) > ub_g >=
|a_g.(s_j - t)|, and it is positive, as ub_g >= (hi_g - lo_g) / 2 >= 0,
so it beats its antipode too: it is the exact gauge of j.  The exact gauge
of k exceeds it by at least sigma a_f.(s_k - s_j), which the rounded cut
keeps above margin (1 - u) - 5u A S when sigma P[f,j] <= V.  The two float
gauges add 6u A (S + 1), so the float gauge of k exceeds both pure
samples' by more than margin (1 - u) - 11u A (S + 1) >= tie_tol (1 - 2u) +
20u A (S + 1) > 0: strictly farther at every inside pixel, and by more
than tie_tol while tie_tol < 10 A (S + 1).

Slack.  The bound and the gauge are different float expressions, so the
slack covers the rounding of both.  Let u = eps/2, A = max_f (|a0[f]| +
|a1[f]|), S = max |s| over both sample coordinates; inside pixel centers
have coordinates in [0, 1].  P[f,k] is within 2u A S of a_f.s_k, a_f.t is
within 2u A of exact, the subtraction P - hi or P - lo adds u A (S + 1),
and the gauge (difference, two products, a sum) is within 3u A (S + 1).
Each side of the bound is thus off by at most 6u A (S + 1) to first
order, and both sides plus the rounding of the cut itself by less than
14u A (S + 1).  The slack is ``slack(a0, a1, S + 1)`` = 32u A (S + 1).
A segment's lo and hi are the min and max of the same float a_f.t as its
tiles', so one slack serves both levels.  S is read from the samples
because they may leave the simplex (a circle of large radius does).

Memory.  Bounds are computed one band at a time, in three float arrays and
a partition copy of one shape: (segments, K) for the band's segments,
then (tiles, candidates) for one segment's tiles, after the segment
arrays are dropped.  The dominance cut holds three float arrays of
(m/2, tiles, candidates) and a few of (tiles, candidates).  Each block of a
tile takes three float arrays of its pixel x sample pairs (difference,
distance, ``gauge``'s product buffer), at most BLOCK of them or one pixel
row; a tile classifies all of its TILE^2 pixels and writes the inside
ones, so the label array is the only grid-sized allocation.  Whole
16-pixel tiles raised the peak of a 512^2 raster by 0.75 MB; blocks of
2^14 pairs (128 KiB a float array) hold it 0.6 MB under the 8-pixel
kernel's, where 2^15 ran about 45 % slower at 128^2 (2 vCPU host).
"""

import numpy as np

from polyvor._chart import HALF_SQRT3, plot_to_point

OUTSIDE = -1
TIE = -2
TILE = 16         # tile edge in pixels
SEG = 4           # tiles per segment of the two-level bound
BLOCK = 2 ** 14   # most pixel x sample pairs per gauge call
SLACK_ULPS = 16   # rounding slack of a gauge comparison, in eps * A * reach


def backend_name() -> str:
    """Name of the raster kernel, reported in the raster JSON."""
    return "numpy"


def gauge(a0, a1, d1, d2, out):
    """Write max_f |a0[f]*d1 + a1[f]*d2| into ``out`` and return it.

    (d1, d2) are rational-chart difference vectors, broadcast to the shape
    of ``out``; (a0[f], a1[f]) are the float facet functionals of the unit
    ball, one per antipodal pair (see the module docstring).  Products go
    into preallocated buffers: fresh full-size temporaries per facet cost
    page faults, not arithmetic.
    """
    term = np.empty_like(out)
    np.multiply(a0[0], d1, out=out)
    out += a1[0] * d2
    np.abs(out, out=out)
    for f in range(1, len(a0)):
        np.multiply(a0[f], d1, out=term)
        term += a1[f] * d2
        np.abs(term, out=term)
        np.maximum(out, term, out=out)
    return out


def slack(a0, a1, reach):
    """SLACK_ULPS * eps * A * reach, A = max_f (|a0[f]| + |a1[f]|): see "Slack" above."""
    return SLACK_ULPS * np.finfo(np.float64).eps * (np.max(np.abs(a0) + np.abs(a1)) * reach)


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


def _kept(prows, lo, hi, margin):
    """Mask of the samples each region keeps (see the module docstring).

    ``prows`` yields P[f, cols] for the table's rows, one at a time; lo[f]
    and hi[f] are (regions, 1) extremes of a_f.t.  A region keeps the
    columns with LB <= UB2 + margin.
    """
    for f, p in enumerate(prows):
        if f == 0:
            lb = np.subtract(p, hi[0])
            nub = lb.copy()                     # running min of x, y: -UB
            term = np.empty_like(lb)
        else:
            np.subtract(p, hi[f], out=term)
            np.maximum(lb, term, out=lb)
            np.minimum(nub, term, out=nub)
        np.subtract(lo[f], p, out=term)
        np.maximum(lb, term, out=lb)
        np.minimum(nub, term, out=nub)
    del term
    k = max(nub.shape[1] - 2, 0)        # -UB2 is the second-largest -UB; a lone column's own
    cut = margin - np.partition(nub, k, axis=1)[:, k]
    return lb <= cut[:, None]


def _dominated(prows, lo, hi, margin):
    """Mask of the columns the dominance cut drops (see the module docstring).

    ``prows`` is the (m/2, cols) array P[f, cols]; lo[f] and hi[f] are
    (regions, 1) extremes of a_f.t.  A region drops the columns farther
    than two columns pure on one signed facet by more than ``margin``.
    """
    x = prows[:, None, :] - hi              # (m/2, regions, cols)
    y = lo - prows[:, None, :]
    ub = -np.minimum(x, y)
    drop = np.zeros(x.shape[1:], dtype=bool)
    if x.shape[2] < 2:
        return drop
    for f, p in enumerate(prows):
        bar = np.delete(ub, f, axis=0).max(axis=0) + margin
        for w, sp in ((x[f], p), (y[f], -p)):
            # V: the second-smallest sigma P over the pure columns
            v = np.partition(np.where(w >= bar, sp, np.inf), 1, axis=1)[:, 1:2]
            drop |= sp > v + margin
    return drop


def _block_labels(a0, a1, s1, s2, t1, t2, tie_tol):
    """``_nearest`` labels of a block of pixel rows against the columns (s1, s2).

    t1 is (rows, TILE) and t2 (rows, 1); the block's arrays are freed on
    return, before the next block allocates its own.
    """
    d1 = s1 - t1[..., None]
    dist = gauge(a0, a1, d1, (s2 - t2)[:, None, :], np.empty_like(d1))
    return _nearest(dist.reshape(-1, len(s1)), tie_tol)[0]


def classify_grid(res, a0, a1, s1, s2, tie_tol):
    """Label a res x res grid of pixel centers by nearest sample (s1, s2).

    Pixel centers live on the plotting-chart box [0,1] x [0,sqrt(3)/2],
    row iy = 0 at the bottom; pixels outside the simplex are OUTSIDE.
    Each TILE x TILE tile evaluates only the samples kept by its segment's
    bounds, then by its own and by the dominance cut (see the module
    docstring), so the labels are those of all pixel x sample pairs at a
    fraction of the work.
    """
    labels = np.full((res, res), OUTSIDE, dtype=np.int64)
    ntiles = -(-res // TILE)
    # the grid is padded to whole tiles; padded pixels lie right of x = 1
    # or above y = sqrt(3)/2, so the inside test drops them
    px = (np.arange(ntiles * TILE) + 0.5) * (1.0 / res)
    dy = HALF_SQRT3 / res
    P = a0[:, None] * s1 + a1[:, None] * s2          # (m/2, K): a_f . s_k
    margin = tie_tol + slack(a0, a1, max(np.max(np.abs(s1)), np.max(np.abs(s2))) + 1.0)
    for y0 in range(0, res, TILE):
        y = (np.arange(y0, y0 + TILE) + 0.5)[:, None] * dy
        t1, t2, t3 = plot_to_point(px, y)
        inside = (t1 >= 0.0) & (t3 >= 0.0) & (t2 >= 0.0)
        del t3
        tiles = np.flatnonzero(inside.reshape(TILE, ntiles, TILE).any(axis=(0, 2)))
        if len(tiles) == 0:
            continue
        # min and max of a_f . t over the inside pixel centers of each tile
        q = a0[:, None, None] * t1 + a1[:, None, None] * t2
        lo = np.where(inside, q, np.inf).reshape(-1, TILE, ntiles, TILE).min(axis=(1, 3))
        hi = np.where(inside, q, -np.inf).reshape(-1, TILE, ntiles, TILE).max(axis=(1, 3))
        lo, hi = lo[:, tiles], hi[:, tiles]
        del q
        starts = np.arange(0, len(tiles), SEG)
        seg_keep = _kept(P, np.minimum.reduceat(lo, starts, axis=1)[..., None],
                         np.maximum.reduceat(hi, starts, axis=1)[..., None], margin)
        # every pixel of a tile is classified; only inside ones are kept
        band = np.empty((TILE, ntiles * TILE), dtype=np.int64)
        for j, s0 in enumerate(starts):
            cols = np.flatnonzero(seg_keep[j])
            seg = slice(s0, s0 + SEG)
            pc = P[:, cols]
            tlo, thi = lo[:, seg, None], hi[:, seg, None]
            keep = _kept(pc, tlo, thi, margin)
            keep &= ~_dominated(pc, tlo, thi, margin)
            for tile, kept in zip(tiles[seg], keep):
                cand = cols[kept]
                sc1, sc2 = s1[cand], s2[cand]
                x0 = tile * TILE
                step = max(1, min(TILE, BLOCK // (TILE * len(cand))))    # pixel rows per block
                for r0 in range(0, TILE, step):
                    r = slice(r0, r0 + step)
                    lab = _block_labels(a0, a1, sc1, sc2, t1[r, x0:x0 + TILE], t2[r], tie_tol)
                    pos = lab >= 0
                    lab[pos] = cand[lab[pos]]
                    band[r, x0:x0 + TILE] = lab.reshape(-1, TILE)
        rows = labels[y0:y0 + TILE]
        np.copyto(rows, band[:len(rows), :res], where=inside[:len(rows), :res])
    return labels

