"""Brute-force Voronoi diagrams of sampled curves under polyhedral norms.

The raster is the empirical side of the package: the census module
predicts how many full-dimensional cells the continuum diagram has, the
raster labels every pixel by its nearest curve sample and the cells whose
pixel area clears a threshold must match the prediction.

Distances are evaluated as the max of the facet functionals of the exact
unit ball (same metric as the transport LP; the test suite cross-checks
the two).  Functionals are derived once per metric as exact rationals and
floated for the kernels.
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
from polyvor.transport import AffinePoint, DimensionMismatch, as_affine_point

OUTSIDE = _kernels.OUTSIDE
TIE = _kernels.TIE

DEFAULT_TIE_TOL = 1e-9
FULL_DIM_THRESHOLD = 0.001
WITNESS_OFFSETS = 24   # most halvings of the certificate's witness offset


@lru_cache(maxsize=None)
def _facet_data(d: FiniteMetric):
    """Exact facet functionals of the unit ball, plus float copies.

    Each CCW edge (p, q) of the unit hull gives a functional a
    with <a, p> = <a, q> = 1; then gauge(w) = max_f <a_f, w> in the
    rational chart.  Returns (exact functionals, A0, A1).
    """
    if d.n != 2:
        raise ValueError("raster classification is planar (n = 2)")
    hull = unit_hull(d)
    exact = []
    for idx, p in enumerate(hull):
        q = hull[(idx + 1) % len(hull)]
        det = p[0] * q[1] - p[1] * q[0]
        exact.append(((q[1] - p[1]) / det, (p[0] - q[0]) / det))
    a0 = np.array([float(a) for a, _ in exact])
    a1 = np.array([float(b) for _, b in exact])
    a0.setflags(write=False)
    a1.setflags(write=False)
    return tuple(exact), a0, a1


def _facet_values(exact, w1, w2):
    """Exact facet functional values <a_f, w> at a rational-chart vector."""
    return [a * w1 + b * w2 for a, b in exact]


def _check_nonnegative(name, value):
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def _check_memory(size, need):
    """Refuse ``size`` bytes over a quarter of physical memory, before allocating."""
    if size > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 4:
        raise ValueError(f"{need}, over a quarter of physical memory")


@dataclass(frozen=True)
class CurveSample:
    """A finite sample of a curve, with chart arrays ready for the kernels.

    Raster labels and certificates name a sample by its index in ``params``.
    The params must name distinct points, except that a closed curve's last
    point may repeat its first: that last sample is dropped (the seam).
    Points must have 3 coordinates (n = 2): others raise DimensionMismatch.
    """

    params: np.ndarray     # (k,) float parameters
    points: np.ndarray     # (k, 3) float simplex coordinates
    u1: np.ndarray         # (k,) rational-chart coords, points[:, 0] and
    u2: np.ndarray         # points[:, 1] as contiguous copies

    @classmethod
    def at_params(cls, curve, params) -> "CurveSample":
        """Sample the point map ``curve`` at each of ``params``."""
        params = np.asarray(params, dtype=np.float64)
        pts = np.array([[float(c) for c in curve(float(p)).coords] for p in params])
        if pts.shape[1:] != (3,):
            raise DimensionMismatch(f"curve samples need 3 coordinates, got shape {pts.shape}")
        # the seam's rounding gap grows with the coordinates (1.7e-12 at circle radius 5000)
        if len(pts) > 1 and math.hypot(pts[-1, 0] - pts[0, 0], pts[-1, 1] - pts[0, 1]) \
                <= 1e-12 * max(1.0, float(np.abs(pts[[0, -1]]).max())):
            params, pts = params[:-1], pts[:-1]
        # contiguous copies: the kernel at 512^2/1001 took 0.270 s on them and
        # 0.278 s on strided columns (2 vCPU, best of 5 in 8 rounds)
        u1 = np.ascontiguousarray(pts[:, 0])
        u2 = np.ascontiguousarray(pts[:, 1])
        for arr in (params, pts, u1, u2):
            arr.setflags(write=False)
        return cls(params, pts, u1, u2)

    @property
    def count(self) -> int:
        return len(self.params)

    def spacing(self) -> float:
        """Max plotting-chart distance between consecutive samples."""
        xs, ys = plot_xy(self.points.T)
        dx, dy = np.diff(xs), np.diff(ys)
        return float(np.max(np.hypot(dx, dy))) if len(dx) else 0.0


def sample_curve(curve, count: int) -> CurveSample:
    """Sample the point map at ``count`` uniformly spaced parameters including endpoints.

    ``CurveSample.at_params`` peaks near 260 B per sample, and the count is
    refused when that exceeds a quarter of physical memory.  A closed curve
    needs 3, as its last sample repeats the first and is dropped.
    """
    if count < 2:
        raise ValueError("need at least 2 samples")
    size = 260 * count
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
    A tile's distances take five float arrays of TILE^2 rows and one column
    per kept sample, and at small R a tile keeps nearly every sample.
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
    size += 40 * _kernels.TILE ** 2 * sample.count
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
    NotFound when no candidate survives.  The point must have d.n_states
    coordinates (else DimensionMismatch) and lie within 1e-9 of a sample
    in the plotting chart (else ValueError).
    """
    exact, a0, a1 = _facet_data(d)
    p = as_affine_point(point)
    if len(p.coords) != d.n_states:
        raise DimensionMismatch(f"point has {len(p.coords)} coordinates, not {d.n_states}")
    px, py = plot_xy(p.coords)
    xs, ys = plot_xy(sample.points.T)
    # math.hypot, not np.hypot: they differ in the last bit on about
    # 0.6 % of inputs, which could move a near tie to another sample
    dist = list(map(math.hypot, (xs - px).tolist(), (ys - py).tolist()))
    idx = dist.index(min(dist))
    if dist[idx] > 1e-9:
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

    def alignment(e):
        ex, ey = e
        h = math.hypot(ex, ey)
        return abs((ex * tx + ey * ty) / h)

    hull = unit_hull(d)
    edges = [plot_xy((b[0] - a[0], b[1] - a[1])) for a, b in zip(hull, hull[1:] + hull[:1])]
    edges.sort(key=alignment, reverse=True)

    floor = 4.0 * sample.spacing()
    ts = []
    t = 0.25
    while t > floor and len(ts) < WITNESS_OFFSETS:
        ts.append(t)
        t *= 0.5
    ts.append(max(floor, 1e-6))

    x1, x2 = Fraction(sample.u1[idx]), Fraction(sample.u2[idx])
    trials = 0
    for ex, ey in edges:
        h = math.hypot(ex, ey)
        nu = (-ey / h, ex / h)
        for t in ts:
            for sgn in (1.0, -1.0):
                trials += 1
                wy = plot_to_point(x0 + sgn * t * nu[0], y0 + sgn * t * nu[1])
                lab, _, _ = _kernels.classify_points(wy[0], wy[1], a0, a1, sample.u1,
                                                     sample.u2, DEFAULT_TIE_TOL)
                if lab[0] != idx:
                    continue

                # exact confirmation, on rational-chart pairs
                y1, y2 = Fraction(wy[0]), Fraction(wy[1])
                vals = _facet_values(exact, x1 - y1, x2 - y2)
                eps = max(vals)
                if eps <= 0 or sum(1 for v in vals if v == eps) != 1:
                    continue
                ok = True
                for k in range(sample.count):
                    if k == idx:
                        continue
                    s1 = Fraction(float(sample.u1[k]))
                    s2 = Fraction(float(sample.u2[k]))
                    dv = max(_facet_values(exact, s1 - y1, s2 - y2))
                    if dv <= eps:
                        ok = False
                        break
                if ok:
                    return DimensionCertificate(AffinePoint((x1, x2, 1 - x1 - x2)),
                                                AffinePoint((y1, y2, 1 - y1 - y2)), eps)
    return NotFound(trials)

