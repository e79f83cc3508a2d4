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
from functools import cached_property, lru_cache

import numpy as np

from polyvor import _kernels
from polyvor._chart import plot_to_point, plot_xy
from polyvor.ball import unit_hull
from polyvor.metrics import FiniteMetric, _as_int
from polyvor.transport import AffinePoint, DimensionMismatch

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


def _first_above(rows, s1, s2, eps):
    """Position of the first row (a, b, c) in ``rows`` with |a s1 + b s2 - c| > eps, else -1.

    It stops there, so it makes position + 1 exact facet products, or
    len(rows) when every value is within eps of 0.
    """
    for f, (a, b, c) in enumerate(rows):
        v = a * s1 + b * s2 - c
        if v > eps or v < -eps:
            return f
    return -1


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
    point may equal its first: that last sample is dropped (the seam).  Any
    other two samples with equal chart floats are refused (ValueError).
    """

    params: np.ndarray     # (k,) float parameters
    u1: np.ndarray         # (k,) rational-chart coordinates; the third
    u2: np.ndarray         # simplex coordinate is 1 - u1 - u2

    @classmethod
    def at_params(cls, curve, params) -> "CurveSample":
        """Sample the chart map ``curve`` at ``params``, in one call.

        The params must be a nonempty 1-D array (else ValueError when empty,
        DimensionMismatch when not 1-D), and the map must return two arrays
        of their shape (else DimensionMismatch).  A refusal names the
        repeated pair of lowest first index.
        """
        params = np.asarray(params, dtype=np.float64)
        if params.ndim != 1:
            raise DimensionMismatch(f"params must be 1-D, got shape {params.shape}")
        if not len(params):
            raise ValueError("params are empty: a sample needs at least one point")
        # an overflow to inf or NaN is refused below, as an extent error
        with np.errstate(over="ignore", invalid="ignore"):
            chart = [np.array(u, dtype=np.float64) for u in curve(params)]
        if len(chart) != 2 or any(u.shape != params.shape for u in chart):
            raise DimensionMismatch(f"a curve map must return 2 arrays of shape {params.shape}, "
                                    f"got shapes {[u.shape for u in chart]}")
        u1, u2 = chart
        _check_extent(u1, u2)
        if len(params) > 1 and u1[-1] == u1[0] and u2[-1] == u2[0]:
            params, u1, u2 = params[:-1], u1[:-1], u2[:-1]
        # a repeated point ties its twin everywhere; equal points are
        # neighbours in (u1, u2) order, lower index first
        order = np.lexsort((u2, u1))
        v = u1[order]
        same = v[1:] == v[:-1]
        np.take(u2, order, out=v)             # one buffer for both coordinates
        same &= v[1:] == v[:-1]
        if same.any():
            at = int(np.argmin(np.where(same, order[:-1], len(order))))
            i, j = int(order[at]), int(order[at + 1])
            raise ValueError(f"samples {i} and {j} (params {float(params[i])!r} and "
                             f"{float(params[j])!r}) are one point")
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

    @cached_property
    def _exact(self):
        """The Fractions of u1 and u2 as two lists, built on first use.

        They hold 248 B per sample and peak at 280 B (tracemalloc, on the
        Hardy-Weinberg curve and on circles), charged before they are built.
        """
        size = 280 * self.count
        _check_memory(size, f"an exact view of {self.count} samples needs {size} B")
        return list(map(Fraction, self.u1.tolist())), list(map(Fraction, self.u2.tolist()))

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

    Sampling peaks at 56 B per sample (tracemalloc: 49 B on the
    Hardy-Weinberg curve, 56 B on the circle), and the count is refused
    when that exceeds a quarter of physical memory.  A closed curve needs
    3, as its last sample repeats the first and is dropped.
    """
    count = _as_int(count, "sample count")
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
        """The curve parameter of a sample label; TIE, OUTSIDE or any other
        label that is not a sample index, or not an int, raises ValueError."""
        label = _as_int(label, "label")
        if not 0 <= label < self.sample.count:
            raise ValueError(f"label {label} is not a sample index in [0, {self.sample.count})")
        return float(self.sample.params[label])


def raster_voronoi(sample: CurveSample, d: FiniteMetric, resolution: int) -> VoronoiRaster:
    """Label a resolution^2 grid with nearest-sample indices under ``d``.

    TIE marks the pixels whose two nearest samples the floats cannot order
    (``_kernels`` "Pruning"); every other label is exact.

    The int64 labels plus the kernel's scratch (``_kernels.scratch_bytes``,
    see its "Memory") for each process that labels bands may take at most
    a quarter of physical memory: counting and rendering each make
    label-sized copies of the labels.
    """
    resolution = _as_int(resolution, "resolution")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    size = 8 * resolution * resolution
    _check_memory(size, f"resolution {resolution} needs a {size} B label array")
    size += _kernels.processes(resolution) * _kernels.scratch_bytes(resolution, sample.count)
    _check_memory(size, f"resolution {resolution} with {sample.count} samples "
                        f"needs {size} B of labels and kernel scratch")
    _, a0, a1 = _facet_data(d)
    labels = _kernels.classify_grid(resolution, a0, a1, sample.u1, sample.u2)
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
    NotFound when no candidate survives.  The metric must be planar (else
    DimensionMismatch).  The point is a plain sequence of d.n_states
    coordinates (else DimensionMismatch), not necessarily summing to 1,
    whose first two lie within 1e-9 of a sample in the plotting chart (else
    ValueError).

    Floats only skip candidates the exact check would reject.  Coordinates
    are floats, which Fraction reads exactly.  In the ``_kernels`` "Slack"
    model (u = eps/2) each term a0[f] w1, a1[f] w2 of w = s - y meets four
    roundings (table entry, difference, product, sum) and abs and max none,
    so a float gauge is within gamma_4 A W of exact: gamma_4 = 4u/(1 - 4u),
    A = max_f (|a0[f]| + |a1[f]|), W = S + max(|y1|, |y2|) >= |s - y| with S
    the largest sample coordinate.  A candidate is skipped when another
    sample's float gauge is below x's by over ``_kernels.slack(a0, a1, W)`` =
    32u A W > 2 gamma_4 A W + u A W (the cut's rounding): its exact gauge is
    below eps.  The rest are checked exactly, samples nearest first, on
    the sample's exact view (the Fractions of u1 and u2, built once per
    sample on first use: 248 B per point, charged at its 280 B peak).  Each
    checked trial computes the offset c_f = <a_f, y> once per facet; a
    sample s is outside the ball at its first facet with v = <a_f, s> - c_f
    above eps or below -eps, trying first the facet that decided the last
    sample, and only a sample with every |v| <= eps rejects the witness.
    That decision does not depend on the facet order, so it is the full
    maximum's.
    """
    if d.n != 2:
        raise DimensionMismatch("dimension certificates are made for n = 2")
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

    s1, s2 = sample._exact
    x1, x2 = s1[idx], s2[idx]
    top = max(np.max(np.abs(sample.u1)), np.max(np.abs(sample.u2)))     # S
    dist = np.empty(sample.count)
    # the sample check's rows [a, b, a.y], last decider first
    rows = [[a, b, None] for a, b in exact]
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
                for row in rows:
                    row[2] = row[0] * y1 + row[1] * y2
                order = np.argsort(dist, kind="stable")
                for k in order[order != idx].tolist():
                    f = _first_above(rows, s1[k], s2[k], eps)
                    if f < 0:
                        break
                    if f:
                        rows.insert(0, rows.pop(f))
                else:
                    return DimensionCertificate(AffinePoint((x1, x2, 1 - x1 - x2)),
                                                AffinePoint((y1, y2, 1 - y1 - y2)), eps)
    return NotFound(trials)

