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
on the nearest sample (the first one on equal distances) and on whether
another sample lies within tie_tol of it: TIE when m2(t) - best < tie_tol,
m2(t) the second-smallest distance, which is never needed beyond
best + tie_tol.  The sample of least UB, UB1, is within UB1, so
best(t) <= UB1, and every sample with dist_k(t) < best(t) + tie_tol has
LB_k < UB1 + tie_tol.  So R may keep, in index order, only the samples
with ``LB_k <= UB1 + tie_tol + slack``: the nearest sample and every
sample within tie_tol of it are among them, at every inside pixel of R,
so the first minimum and the TIE test come out as over all samples.

Segment, then tile.  ``classify_grid`` walks the grid in bands of TILE
pixel rows, cut into TILE x TILE tiles; the tiles of a band with an inside
pixel are grouped, SEG at a time, into segments.  A segment is bounded
against all K samples.  Its tiles are then bounded only against the
segment's kept samples: those hold the nearest and every sample within
tie_tol of it at each of the segment's pixels, and the least UB among
them still bounds best(t), so the argument above, run on the candidates,
keeps them again, and the dominance cut below drops more.  The tiles of
several segments are bounded in one call: a band's segments are grouped
into chunks of at least one segment whose padded (m/2, tiles, columns)
table of P holds at most BLOCK / 2 entries.  Each tile's row holds its
segment's kept columns in index order, padded to the chunk's widest
segment with its own rejects (a stable argsort of the segment's mask).
The padding is inert, in floats.  A tile's lo and hi are a min and max
over a subset of its segment's floats, so every x and y, and so every LB,
is at least the segment's.  The segment's least-UB column has LB <= UB <=
fl(margin + UB1), so it is in every row of the segment, with a tile UB at
most UB1: a tile's cut is at most its segment's.  A reject has tile LB >
segment cut >= tile cut, so it is never kept, and UB >= LB > UB1 (x <= -y,
rounding being monotone), so it never holds the least UB.  In the
dominance cut a padding column is a real sample, which is all the proof
asks of a pure column.  At 512^2 with 1001
samples a tile keeps 57-74 samples (6-7 %) on the Hardy-Weinberg curve
under the worked metrics d1-d3 and on the circle under d1, 31 on the
circle under the path metric.  Each tile runs the unchanged ``gauge`` and
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
With V the least sigma P[f,j] over the samples pure in (f, sigma), a
sample k with sigma P[f,k] > V + margin is farther than that one pure
sample by more than tie_tol at every inside pixel: neither the nearest
nor within tie_tol of it, so the tile drops it.  The tile keeps the
samples that pass both tests.  On 8-pixel tiles or on segments the cut
cost more than it saved.

In floats, in the notation of "Slack" and to first order in u: x, y and
ub are at most A (S + 1) in size and within 3u A (S + 1) of their exact
values (P 2u A S, lo and hi 2u A, the subtraction u A (S + 1)).  A purity
test passed in floats, its sum rounded, leaves the exact
x_f - ub_g >= margin (1 - u) - 7u A (S + 1) > 0 for every g != f (one
exists: m/2 >= 2).  So exactly sigma a_f.(s_j - t) > ub_g >=
|a_g.(s_j - t)|, and it is positive, as ub_g >= (hi_g - lo_g) / 2 >= 0,
so it beats its antipode too: it is the exact gauge of j.  The exact gauge
of k exceeds it by at least sigma a_f.(s_k - s_j), which the rounded cut
keeps above margin (1 - u) - 5u A S for the j with sigma P[f,j] = V.  The
two float gauges add 6u A (S + 1), so the float gauge of k exceeds j's,
and so the least float gauge, by more than margin (1 - u) -
11u A (S + 1) >= tie_tol (1 - 2u) + 20u A (S + 1) > 0 while
tie_tol < 10 A (S + 1).  From there on neither test cuts anything:
|sigma P[f,k] - V| <= 2 A S and LB_k - UB1 <= A (S + 1) are both below
the margin.

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

Memory.  ``scratch_bytes(res, K)`` charges what one process of the
kernel allocates beside its labels, and ``raster_voronoi`` checks the
labels plus ``processes(res)`` times that scratch.
Bounds are computed one band at a time: its pixel centers and facet
values take up to 66 B per pixel of its TILE rows at m/2 = 3 (charged
72 B per pixel of a band padded to whole tiles), and the segment bounds
three float arrays of (segments, K) (charged 32 B per sample for each
segment of a band, or for each tile of one segment when that is more).
A chunk's tile bounds, two float arrays of (m/2, tiles, columns) and a
few of (tiles, columns), are capped at BLOCK / 2 entries.  A block of a
tile holds at most BLOCK pixel x sample pairs or one pixel row, written
into the two rows of one work array of max(BLOCK, TILE K) floats made
once per call; ``gauge``'s product buffer is the one array a block
allocates.  These are charged 40 B per pair over max(BLOCK, TILE K)
pairs (a cap of BLOCK entries went over that and ran no faster).  A tile
classifies all of its TILE^2 pixels and writes the inside ones, so the
label array is the only grid-sized allocation.  Over R = 8 to 2048 with
1000 to 20001 samples (HW and a circle of radius 5), tracemalloc read
peaks over the labels of 0.43-0.80 of the scratch term (80 cases).  At
2^15 pairs a 512^2 tile of up to 128 kept samples is one ``gauge`` call;
fresh block arrays that size, over glibc's 128 KiB mmap threshold, were
mapped and unmapped per block (12244 minor page faults per 128^2 raster,
against 26 with the work array).

Processes.  A band of TILE rows has its own segment and tile bounds and
blocks and writes only its own rows, so bands can be labelled in any
order, by any process, with the same bits.  ``processes(res)`` is 2 when
the grid is at least SPLIT_RES wide, ``os.fork`` exists, the process may
run on at least 2 CPUs and runs no other Python thread; else 1.  With 2,
the labels live in a shared anonymous mapping, a forked worker labels
every other band (so both halves meet the wide bottom and the narrow top
of the simplex) and this process the rest; a worker that fails has its
bands labelled here.  Exactly two: a higher count could not be measured
on the 2-CPU host the kernel was timed on, where two threads were no
faster than one.  SPLIT_RES is the measured break-even: with 1001
Hardy-Weinberg samples under d1-d3 (best of many rasters, three
alternated fresh processes per side) two processes took 15.0-18.7 ms
against one's 15.3-16.8 ms at 32^2, 19.3-20.9 against 22.3-25.7 ms at
48^2 and 43-61 against 65-69 ms at 128^2.  A fork, exit and wait took
about 2 ms whether the caller held 0 or 800 MB.
"""

import mmap
import os
import signal
import threading
from functools import reduce

import numpy as np

from polyvor._chart import HALF_SQRT3, plot_to_point

OUTSIDE = -1
TIE = -2
TILE = 16         # tile edge in pixels
SEG = 4           # tiles per segment of the two-level bound
BLOCK = 2 ** 15   # most pixel x sample pairs per gauge call
SLACK_ULPS = 16   # rounding slack of a gauge comparison, in eps * A * reach
SPLIT_RES = 48    # least resolution whose bands are split over two processes


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


def scratch_bytes(res, k):
    """Bytes charged beside the labels of res^2 pixels and k samples: see "Memory"."""
    ntiles = -(-res // TILE)
    regions = max(-(-ntiles // SEG), min(ntiles, SEG))
    return 32 * regions * k + 40 * max(BLOCK, TILE * k) + 72 * TILE ** 2 * ntiles


def _nearest(dist, tie_tol):
    """Per row of ``dist``: (label, best, second), label TIE when ambiguous.

    The label is the first column of minimal distance, or TIE when the
    second-smallest distance is within ``tie_tol`` of it.  Overwrites the
    minimal entries of ``dist``.  On the columns a tile keeps, ``second``
    is the true second-smallest distance only when it is below
    best + ``tie_tol``; the label is exact either way.
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
    and hi[f] are extremes of a_f.t per region, broadcast against them.  A
    region keeps the columns with LB <= UB1 + margin, UB1 their least UB.
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
    return lb <= margin - nub.max(axis=-1, keepdims=True)


def _dominated(prows, lo, hi, margin):
    """Mask of the columns the dominance cut drops (see the module docstring).

    ``prows`` is the (m/2, regions, cols) array P[f, cols]; lo[f] and hi[f]
    are (regions, 1) extremes of a_f.t.  A region drops the columns farther
    than one of its columns pure on a signed facet by more than ``margin``.
    """
    ub = np.subtract(hi, prows)                 # -min(x, y), a row at a time
    for u, p, l in zip(ub, prows, lo):
        np.maximum(u, p - l, out=u)
    drop = np.zeros(ub.shape[1:], dtype=bool)
    for f, p in enumerate(prows):
        bar = reduce(np.maximum, [u for g, u in enumerate(ub) if g != f]) + margin
        # V: the least sigma P over the columns pure in (f, sigma);
        # for sigma = -1, -p > -W + margin is p < W - margin, W = -V
        v = np.where(p - hi[f] >= bar, p, np.inf).min(axis=-1, keepdims=True)
        drop |= p > v + margin
        w = np.where(lo[f] - p >= bar, p, -np.inf).max(axis=-1, keepdims=True)
        drop |= p < w - margin
    return drop


def _chunks(counts, ntiles, rows):
    """(first, end) ranges of a band's segments, by the kept ``counts`` of each.

    A chunk holds at least one segment; its padded (``rows``, tiles,
    columns) table, columns the chunk's largest count, at most BLOCK / 2
    entries (see "Memory" above).
    """
    j0, width = 0, 0
    for j, c in enumerate(counts):
        tiles = min((j + 1) * SEG, ntiles) - j0 * SEG
        if j > j0 and rows * tiles * max(width, c) > BLOCK // 2:
            yield j0, j
            j0, width = j, 0
        width = max(width, c)
    yield j0, len(counts)


def _block_labels(a0, a1, s1, s2, t1, t2, tie_tol, work):
    """``_nearest`` labels of a block of pixel rows against the columns (s1, s2).

    t1 is (rows, TILE) and t2 (rows, 1); the differences and distances are
    written into the two rows of ``work``.
    """
    shape = t1.shape + s1.shape
    n = t1.size * len(s1)
    d1 = np.subtract(s1, t1[..., None], out=work[0, :n].reshape(shape))
    dist = gauge(a0, a1, d1, (s2 - t2)[:, None, :], work[1, :n].reshape(shape))
    return _nearest(dist.reshape(-1, len(s1)), tie_tol)[0]


def processes(res):
    """Processes that label the bands of a res x res grid: 2 or 1 (see "Processes")."""
    if (res >= SPLIT_RES and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1):
        return 2
    return 1


def _in_two_processes(label_band, bands):
    """Run ``label_band`` on bands[1::2] in a forked worker and on bands[::2] here.

    The worker never returns into the caller's code: it leaves by
    ``os._exit``, so it runs no exit handler and flushes no stdio buffer
    it inherited.  When it exits nonzero or is killed, its bands are
    labelled here.  When this side raises, the worker is killed and
    reaped before the exception goes on.
    """
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            for y0 in bands[1::2]:
                label_band(y0)
            code = 0
        finally:
            os._exit(code)
    exited = False
    try:
        for y0 in bands[::2]:
            label_band(y0)
        # wait without reaping, so that the pid stays ours until waitpid below
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        exited = True
    finally:
        if not exited:
            os.kill(pid, signal.SIGKILL)
        status = os.waitpid(pid, 0)[1]
    if status:
        for y0 in bands[1::2]:
            label_band(y0)


def classify_grid(res, a0, a1, s1, s2, tie_tol):
    """Label a res x res grid of pixel centers by nearest sample (s1, s2).

    Pixel centers live on the plotting-chart box [0,1] x [0,sqrt(3)/2],
    row iy = 0 at the bottom; pixels outside the simplex are OUTSIDE.
    Each TILE x TILE tile evaluates only the samples kept by its segment's
    bounds, then by its own and by the dominance cut (see the module
    docstring), so the labels are those of all pixel x sample pairs at a
    fraction of the work.  The bands of TILE rows are labelled by
    ``processes(res)`` processes (see "Processes").
    """
    ntiles = -(-res // TILE)
    # the grid is padded to whole tiles; padded pixels lie right of x = 1
    # or above y = sqrt(3)/2, so the inside test drops them
    px = (np.arange(ntiles * TILE) + 0.5) * (1.0 / res)
    dy = HALF_SQRT3 / res
    P = a0[:, None] * s1 + a1[:, None] * s2          # (m/2, K): a_f . s_k
    margin = tie_tol + slack(a0, a1, max(np.max(np.abs(s1)), np.max(np.abs(s2))) + 1.0)
    work = np.empty((2, max(BLOCK, TILE * len(s1))))

    def label_band(y0):
        y = (np.arange(y0, y0 + TILE) + 0.5)[:, None] * dy
        t1, t2, t3 = plot_to_point(px, y)
        inside = (t1 >= 0.0) & (t3 >= 0.0) & (t2 >= 0.0)
        del t3
        tiles = np.flatnonzero(inside.reshape(TILE, ntiles, TILE).any(axis=(0, 2)))
        if len(tiles) == 0:
            return
        # min and max of a_f . t over the inside pixel centers of each tile
        q = a0[:, None, None] * t1 + a1[:, None, None] * t2
        lo = np.where(inside, q, np.inf).reshape(-1, TILE, ntiles, TILE).min(axis=(1, 3))
        hi = np.where(inside, q, -np.inf).reshape(-1, TILE, ntiles, TILE).max(axis=(1, 3))
        lo, hi = lo[:, tiles], hi[:, tiles]
        del q
        starts = np.arange(0, len(tiles), SEG)
        seg_keep = _kept(P, np.minimum.reduceat(lo, starts, axis=1)[..., None],
                         np.maximum.reduceat(hi, starts, axis=1)[..., None], margin)
        counts = seg_keep.sum(axis=1)
        order = np.argsort(~seg_keep, axis=1, kind="stable")   # kept columns first, in order
        del seg_keep
        # every pixel of a tile is classified; only inside ones are kept
        band = np.empty((TILE, ntiles * TILE), dtype=np.int64)
        for j0, j1 in _chunks(counts, len(tiles), len(P)):
            chunk = slice(j0 * SEG, j1 * SEG)
            seg = np.arange(len(tiles))[chunk] // SEG
            width = counts[j0:j1].max()
            cols = order[seg, :width]        # each tile's segment columns, padded with rejects
            pc = P[:, cols]
            tlo, thi = lo[:, chunk, None], hi[:, chunk, None]
            keep = _kept(pc, tlo, thi, margin)
            keep &= ~_dominated(pc, tlo, thi, margin)
            del pc
            for tile, row, kept in zip(tiles[chunk], cols, keep):
                cand = row[kept]
                sc1, sc2 = s1[cand], s2[cand]
                x0 = tile * TILE
                step = max(1, min(TILE, BLOCK // (TILE * len(cand))))    # pixel rows per block
                for r0 in range(0, TILE, step):
                    r = slice(r0, r0 + step)
                    lab = _block_labels(a0, a1, sc1, sc2, t1[r, x0:x0 + TILE], t2[r], tie_tol,
                                        work)
                    pos = lab >= 0
                    lab[pos] = cand[lab[pos]]
                    band[r, x0:x0 + TILE] = lab.reshape(-1, TILE)
        rows = labels[y0:y0 + TILE]
        np.copyto(rows, band[:len(rows), :res], where=inside[:len(rows), :res])

    bands = range(0, res, TILE)
    if processes(res) == 1:
        labels = np.full((res, res), OUTSIDE, dtype=np.int64)
        for y0 in bands:
            label_band(y0)
        return labels
    # a shared anonymous mapping: the worker's writes land in these pages
    labels = np.frombuffer(mmap.mmap(-1, 8 * res * res), dtype=np.int64).reshape(res, res)
    labels.fill(OUTSIDE)
    _in_two_processes(label_band, bands)
    return labels
