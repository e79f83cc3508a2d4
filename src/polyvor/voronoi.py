"""Brute-force Voronoi diagrams of sampled curves under polyhedral norms.

The raster is the empirical side of the package: the census module
predicts how many full-dimensional cells the continuum diagram has, the
raster labels every pixel by its nearest curve sample and the cells whose
pixel area clears a threshold must match the prediction.

Distances are evaluated as the max of |a_f.w| over the facet functionals
of the exact unit ball, one per antipodal pair (same metric as the
transport LP; the test suite cross-checks the two).  The table is derived
once per metric as exact rationals, read by the certificate's exact check,
and floated for the raster kernel and the certificate's float filter.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from polyvor import _kernels
from polyvor._chart import plot_to_point, plot_xy
from polyvor.ball import unit_hull
from polyvor.metrics import FiniteMetric
from polyvor.transport import AffinePoint, DimensionMismatch

DEFAULT_TIE_TOL = 1e-9
FULL_DIM_THRESHOLD = 0.001
WITNESS_OFFSETS = 24   # most halvings of the certificate's witness offset


@lru_cache(maxsize=1024)       # well above the metrics a run holds at once
def _facet_data(d: FiniteMetric):
    """Exact facet functionals of the unit ball, one per antipodal pair, plus floats.

    Each CCW edge (p, q) of the unit hull gives a functional a with
    <a, p> = <a, q> = 1.  The ball is centrally symmetric and ``unit_hull``
    lists -p m/2 places after p, so edge f + m/2 carries -a_f exactly; the
    table keeps edges 0..m/2-1 only, and gauge(w) = max_f |<a_f, w>| in the
    rational chart.  Returns (exact functionals, A0, A1).
    """
    if d.n != 2:
        raise ValueError("raster classification is planar (n = 2)")
    hull = unit_hull(d)
    exact = []
    for p, q in zip(hull[:len(hull) // 2], hull[1:]):
        det = p[0] * q[1] - p[1] * q[0]
        exact.append(((q[1] - p[1]) / det, (p[0] - q[0]) / det))
    a0 = np.array([float(a) for a, _ in exact])
    a1 = np.array([float(b) for _, b in exact])
    a0.setflags(write=False)
    a1.setflags(write=False)
    return tuple(exact), a0, a1


def _facet_values(exact, w1, w2):
    """Exact facet values |<a_f, w>| at a rational-chart vector."""
    return [abs(a * w1 + b * w2) for a, b in exact]


def _check_nonnegative(name, value):
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def _check_memory(size, need):
    """Refuse ``size`` bytes over a quarter of physical memory, before allocating."""
    if size > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 4:
        raise ValueError(f"{need}, over a quarter of physical memory")


@dataclass(frozen=True)
class CurveSample:
    """A finite sample of a curve, as the rational-chart arrays the kernels read.

    Raster labels and certificates name a sample by its index in ``params``.
    The params must name distinct points, except that a closed curve's last
    point may repeat its first: that last sample is dropped (the seam).
    """

    params: np.ndarray     # (k,) float parameters
    u1: np.ndarray         # (k,) rational-chart coordinates; the third
    u2: np.ndarray         # simplex coordinate is 1 - u1 - u2

    @classmethod
    def at_params(cls, curve, params) -> "CurveSample":
        """Sample the chart map ``curve`` at ``params``, in one call.

        It must return two arrays of the params' shape (else DimensionMismatch).
        """
        params = np.asarray(params, dtype=np.float64)
        # an overflow to inf or NaN is refused below, as an extent error
        with np.errstate(over="ignore", invalid="ignore"):
            chart = [np.array(u, dtype=np.float64) for u in curve(params)]
        if len(chart) != 2 or any(u.shape != params.shape for u in chart):
            raise DimensionMismatch(f"a curve map must return 2 arrays of shape {params.shape}, "
                                    f"got shapes {[u.shape for u in chart]}")
        u1, u2 = chart
        _check_extent(u1, u2)
        # the seam's rounding gap grows with the coordinates (1.7e-12 at circle
        # radius 5000) but stays far below the samples' own spacing: two points
        # 0.5 apart at u1 = -2^47 are two samples
        if len(params) > 1:
            e = [0, -1]
            top = max(1.0, float(np.abs([u1[e], u2[e], 1.0 - u1[e] - u2[e]]).max()))
            gap = math.hypot(u1[-1] - u1[0], u2[-1] - u2[0])
            if gap <= 1e-12 or (gap <= 1e-12 * top and
                                gap <= 1e-6 * np.max(np.hypot(np.diff(u1), np.diff(u2)))):
                params, u1, u2 = params[:-1], u1[:-1], u2[:-1]
        for arr in (params, u1, u2):
            arr.setflags(write=False)
        return cls(params, u1, u2)

    @property
    def count(self) -> int:
        return len(self.params)

    @property
    def points(self) -> np.ndarray:
        """A fresh (k, 3) array of the simplex coordinates (u1, u2, 1 - u1 - u2)."""
        return np.stack([self.u1, self.u2, 1.0 - self.u1 - self.u2], axis=1)

    def spacing(self) -> float:
        """Max plotting-chart distance between consecutive samples."""
        xs, ys = plot_xy((self.u1, self.u2))
        dx, dy = np.diff(xs), np.diff(ys)
        return float(np.max(np.hypot(dx, dy))) if len(dx) else 0.0


def _check_extent(u1, u2):
    """Refuse chart coordinates too large for a float gauge to see the simplex.

    A pixel center moves a gauge by at most A, and a gauge comparison rounds
    within ``_kernels.slack(a0, a1, S + 1)`` = SLACK_ULPS eps A (S + 1), S =
    max(|u1|, |u2|) the extent: from S + 1 = 2^48 on that covers the whole
    move, and near the float maximum it overflows.  NaN fails the test too.
    """
    # np.maximum, not max: it keeps a NaN in either argument
    extent = float(np.maximum(np.max(np.abs(u1), initial=0.0), np.max(np.abs(u2), initial=0.0)))
    if not extent + 1.0 < 1.0 / (_kernels.SLACK_ULPS * np.finfo(np.float64).eps):
        raise ValueError(f"curve sample extent {extent!r} is not below 2^48 - 1, "
                         "where float gauges no longer resolve the simplex")


def sample_curve(curve, count: int) -> CurveSample:
    """Sample the chart map at ``count`` uniformly spaced parameters including endpoints.

    Sampling peaks at 56 B per sample (tracemalloc: 40 B on the
    Hardy-Weinberg curve, 56 B on the circle), and the count is refused
    when that exceeds a quarter of physical memory.  A closed curve needs
    3, as its last sample repeats the first and is dropped.
    """
    if count < 2:
        raise ValueError("need at least 2 samples")
    size = 56 * count
    _check_memory(size, f"{count} samples need {size} B")
    sample = CurveSample.at_params(curve, np.linspace(0.0, 1.0, count))
    if sample.count < 2:
        raise ValueError("2 samples of a closed curve are one point: need at least 3")
    return sample


@dataclass(frozen=True)
class VoronoiRaster:
    """Pixel labels over the plotting-chart box [0,1] x [0,sqrt(3)/2].

    labels[iy, ix] is the nearest sample's index, OUTSIDE (-1) for
    pixels outside the simplex, or TIE (-2).  Row iy = 0 is the bottom.
    """

    resolution: int
    labels: np.ndarray
    sample: CurveSample

    def pixel_counts(self) -> dict:
        """Pixel count per sample label (labels >= 0 only)."""
        flat = self.labels[self.labels >= 0]
        counts = np.bincount(flat, minlength=self.sample.count)
        return {int(i): int(c) for i, c in enumerate(counts) if c > 0}

    def full_dim_labels(self, threshold: float = FULL_DIM_THRESHOLD):
        """Labels whose pixel area reaches threshold * resolution^2."""
        _check_nonnegative("threshold", threshold)
        cut = threshold * self.resolution * self.resolution
        return sorted(i for i, c in self.pixel_counts().items() if c >= cut)

    def parameter(self, label: int) -> float:
        return float(self.sample.params[label])


def raster_voronoi(sample: CurveSample, d: FiniteMetric, resolution: int,
                   tie_tolerance: float = DEFAULT_TIE_TOL) -> VoronoiRaster:
    """Label a resolution^2 grid with nearest-sample indices under ``d``.

    The int64 label array, plus the kernel's per-band bounds and per-tile
    distances, may take at most a quarter of physical memory: counting and
    rendering each make label-sized copies of the labels.  The bounds take
    about 32 B per sample for each segment of a band (SEG tiles), or for
    each tile of one segment when the band has fewer segments than that.
    A tile classifies its pixels in blocks of rows of at most
    max(BLOCK, TILE * K) pixel x sample pairs, and at small R a tile keeps
    nearly every sample: 40 B per pair of such a block is budgeted for the
    tile stage (the dominance cut, then the blocks).  With every sample
    kept, tracemalloc read peaks over the labels of 483-619 B per sample
    (1001 to 16001 samples, R = 8 to 200) against 672-783 B budgeted.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    size = 8 * resolution * resolution
    _check_memory(size, f"resolution {resolution} needs a {size} B label array")
    ntiles = -(-resolution // _kernels.TILE)
    regions = max(-(-ntiles // _kernels.SEG), min(ntiles, _kernels.SEG))
    size += 32 * regions * sample.count
    _check_memory(size, f"resolution {resolution} with {sample.count} samples "
                        f"needs {size} B of labels and tile bounds")
    size += 40 * max(_kernels.BLOCK, _kernels.TILE * sample.count)
    _check_memory(size, f"resolution {resolution} with {sample.count} samples "
                        f"needs {size} B of labels, tile bounds and tile distances")
    _check_nonnegative("tie tolerance", tie_tolerance)
    _, a0, a1 = _facet_data(d)
    labels = _kernels.classify_grid(resolution, a0, a1, sample.u1, sample.u2,
                                    tie_tolerance)
    labels.setflags(write=False)
    return VoronoiRaster(resolution, labels, sample)


@dataclass(frozen=True)
class NotFound:
    """Outcome of an exhausted witness search: no full-dimension evidence.

    Not a disproof -- the cell may still be full-dimensional at offsets
    the search never tried.  Falsy, so callers can write ``if not cert``.
    """

    trials: int

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class DimensionCertificate:
    """Witness that a sample's cell is full-dimensional.

    The ball of radius ``epsilon`` around ``witness_y`` touches the sample
    set only at ``x``, and x lies in the relative interior of a facet (a
    face of dimension 1), so the cell of x contains a neighborhood of y and
    has dimension >= 2.  Exact-rational data throughout.
    """

    x: AffinePoint
    witness_y: AffinePoint
    epsilon: Fraction


def dimension_certificate(point, sample: CurveSample, d: FiniteMetric):
    """Search for a full-dimension certificate at a sample point.

    Witness candidates walk away from x along the perpendiculars of the
    ball edges best aligned with the curve tangent, with offsets floored
    at 4x the max sample spacing -- smaller balls see no second sample and
    would certify anything.  A candidate is accepted only after an exact
    check: every other sample strictly outside the ball, and x on exactly
    one facet functional (relative interior of an edge).  Returns a falsy
    NotFound when no candidate survives.  The point is a plain sequence of
    d.n_states coordinates (else DimensionMismatch), not necessarily summing
    to 1, whose first two lie within 1e-9 of a sample in the plotting chart
    (else ValueError).

    Floats only skip candidates the exact check would reject.  Coordinates
    are floats, which Fraction reads exactly.  In the ``_kernels`` "Slack"
    model (u = eps/2) each term a0[f] w1, a1[f] w2 of w = s - y meets four
    roundings (table entry, difference, product, sum) and abs and max none,
    so a float gauge is within gamma_4 A W of exact: gamma_4 = 4u/(1 - 4u),
    A = max_f (|a0[f]| + |a1[f]|), W = S + max(|y1|, |y2|) >= |s - y| with S
    the largest sample coordinate.  A candidate is skipped when another
    sample's float gauge is below x's by over ``_kernels.slack(a0, a1, W)`` =
    32u A W > 2 gamma_4 A W + u A W (the cut's rounding): its exact gauge is
    below eps.  The rest are checked exactly, samples nearest first.
    """
    exact, a0, a1 = _facet_data(d)
    if len(point) != d.n_states:
        raise DimensionMismatch(f"point has {len(point)} coordinates, not {d.n_states}")
    px, py = plot_xy(point)
    xs, ys = plot_xy((sample.u1, sample.u2))
    # math.hypot, not np.hypot: they differ in the last bit on about
    # 0.6 % of inputs, which could move a near tie to another sample
    dist = list(map(math.hypot, (xs - px).tolist(), (ys - py).tolist()))
    idx = dist.index(min(dist))
    if not dist[idx] <= 1e-9:       # a NaN point is no sample point either
        raise ValueError("point is not a sample point")
    # certify the sample itself, not the caller's point near it
    x0, y0 = xs[idx], ys[idx]

    # tangent estimate from neighbors, central difference when possible
    lo, hi = max(idx - 1, 0), min(idx + 1, sample.count - 1)
    tx, ty = float(xs[hi] - xs[lo]), float(ys[hi] - ys[lo])
    th = math.hypot(tx, ty)
    if th == 0.0:
        return NotFound(0)
    tx, ty = tx / th, ty / th

    hull = unit_hull(d)
    edges = [plot_xy((b[0] - a[0], b[1] - a[1])) for a, b in zip(hull, hull[1:] + hull[:1])]
    edges.sort(key=lambda e: abs((e[0] * tx + e[1] * ty) / math.hypot(*e)), reverse=True)

    floor = 4.0 * sample.spacing()
    ts = []
    t = 0.25
    while t > floor and len(ts) < WITNESS_OFFSETS:
        ts.append(t)
        t *= 0.5
    ts.append(max(floor, 1e-6))

    x1, x2 = Fraction(sample.u1[idx]), Fraction(sample.u2[idx])
    top = max(np.max(np.abs(sample.u1)), np.max(np.abs(sample.u2)))     # S
    dist = np.empty(sample.count)
    trials = 0
    for ex, ey in edges:
        h = math.hypot(ex, ey)
        nu = (-ey / h, ex / h)
        for t in ts:
            for sgn in (1.0, -1.0):
                trials += 1
                wy = plot_to_point(x0 + sgn * t * nu[0], y0 + sgn * t * nu[1])
                _kernels.gauge(a0, a1, sample.u1 - wy[0], sample.u2 - wy[1], dist)
                near, dist[idx] = dist[idx], np.inf
                band = _kernels.slack(a0, a1, top + max(abs(wy[0]), abs(wy[1])))
                if dist.min() < near - band:
                    continue

                # exact confirmation, on rational-chart pairs
                y1, y2 = Fraction(wy[0]), Fraction(wy[1])
                vals = _facet_values(exact, x1 - y1, x2 - y2)
                eps = max(vals)
                # one value per antipodal pair: with eps > 0, a_f.w and -a_f.w
                # cannot both be eps, so one pair at eps is one facet of m
                if eps <= 0 or sum(1 for v in vals if v == eps) != 1:
                    continue
                order = np.argsort(dist, kind="stable")
                order = order[order != idx]
                for s1, s2 in zip(sample.u1[order].tolist(), sample.u2[order].tolist()):
                    if max(_facet_values(exact, Fraction(s1) - y1, Fraction(s2) - y2)) <= eps:
                        break
                else:
                    return DimensionCertificate(AffinePoint((x1, x2, 1 - x1 - x2)),
                                                AffinePoint((y1, y2, 1 - y1 - y2)), eps)
    return NotFound(trials)

