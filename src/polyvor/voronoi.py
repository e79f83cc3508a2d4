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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from polyvor import _kernels
from polyvor._chart import PLOT_BOX, chart2, plot_to_point, plot_xy
from polyvor.ball import _hull_ccw, ball_generators
from polyvor.curve import ParametricCurve
from polyvor.metrics import FiniteMetric
from polyvor.transport import (
    AffinePoint,
    as_affine_point,
    exact_point,
)

OUTSIDE = _kernels.OUTSIDE
TIE = _kernels.TIE

DEFAULT_TIE_TOL = 1e-9
FULL_DIM_THRESHOLD = 0.001
WITNESS_OFFSETS = 24   # most halvings of the certificate's witness offset


@lru_cache(maxsize=None)
def _facet_data(d: FiniteMetric):
    """Exact facet functionals of the unit ball, plus float copies.

    Each CCW hull edge (p, q) of conv(generators) gives a functional a
    with <a, p> = <a, q> = 1; then gauge(w) = max_f <a_f, w> in the
    rational chart.  Returns (exact functionals, A0, A1, hull chart pts).
    """
    if d.n != 2:
        raise ValueError("raster classification is planar (n = 2)")
    pts = [chart2(g.coords) for g in ball_generators(d)]
    hull = _hull_ccw(pts)
    exact = []
    for idx, p in enumerate(hull):
        q = hull[(idx + 1) % len(hull)]
        det = p[0] * q[1] - p[1] * q[0]
        exact.append(((q[1] - p[1]) / det, (p[0] - q[0]) / det))
    a0 = np.array([float(a) for a, _ in exact])
    a1 = np.array([float(b) for _, b in exact])
    a0.setflags(write=False)
    a1.setflags(write=False)
    return tuple(exact), a0, a1, tuple(hull)


def _facet_values(exact, w1, w2):
    """Exact facet functional values <a_f, w> at a rational-chart vector."""
    return [a * w1 + b * w2 for a, b in exact]


def exact_gauge(d: FiniteMetric, w) -> Fraction:
    """Exact unit-ball gauge of a sum-zero vector via facet functionals."""
    exact, _, _, _ = _facet_data(d)
    w1, w2 = chart2(w.coords if hasattr(w, "coords") else tuple(w))
    return max(_facet_values(exact, w1, w2))


def _check_nonnegative(name, value):
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class CurveSample:
    """A finite sample of a curve, with chart arrays ready for the kernels.

    Samples that coincide as points (a closed curve's seam) are merged to
    the first index: ``rep`` maps unique-slot -> representative sample
    index, and kernel labels are reported as representative indices.
    """

    curve: ParametricCurve
    params: np.ndarray     # (k,) float parameters
    points: np.ndarray     # (k, 3) float simplex coordinates
    u1: np.ndarray         # (m,) rational-chart coords of unique points
    u2: np.ndarray
    rep: np.ndarray        # (m,) representative original index per unique point

    @classmethod
    def at_params(cls, curve: ParametricCurve, params) -> "CurveSample":
        params = np.asarray(params, dtype=np.float64)
        pts = np.array([[float(c) for c in curve.eval(float(p)).coords] for p in params])
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        groups = []     # [unique slot] -> list of original indices
        for i in order:
            if groups:
                j = groups[-1][0]
                if math.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1]) <= 1e-12:
                    groups[-1].append(i)
                    continue
            groups.append([i])
        u1 = np.array([pts[g[0], 0] for g in groups])
        u2 = np.array([pts[g[0], 1] for g in groups])
        rep = np.array([min(g) for g in groups], dtype=np.int64)
        for arr in (params, pts, u1, u2, rep):
            arr.setflags(write=False)
        return cls(curve, params, pts, u1, u2, rep)

    @property
    def count(self) -> int:
        return len(self.params)

    def spacing(self) -> float:
        """Max plotting-chart distance between consecutive samples."""
        xs, ys = [], []
        for p in self.points:
            x, y = plot_xy(p)
            xs.append(x)
            ys.append(y)
        dx = np.diff(np.array(xs))
        dy = np.diff(np.array(ys))
        return float(np.max(np.hypot(dx, dy))) if len(dx) else 0.0

    def nearest_index(self, point) -> int:
        """Index of the sample nearest a point, in the plotting chart."""
        p = as_affine_point(point, chart="hyperplane")
        x, y = plot_xy(p.coords)
        best, arg = np.inf, -1
        for i, q in enumerate(self.points):
            qx, qy = plot_xy(q)
            h = math.hypot(qx - x, qy - y)
            if h < best:
                best, arg = h, i
        return arg


def sample_curve(curve: ParametricCurve, count: int) -> CurveSample:
    """Sample at ``count`` uniformly spaced parameters including endpoints."""
    if count < 2:
        raise ValueError("need at least 2 samples")
    return CurveSample.at_params(curve, np.linspace(0.0, 1.0, count))


def classify(point, sample: CurveSample, d: FiniteMetric,
             tie_tolerance: float = DEFAULT_TIE_TOL) -> int:
    """Index of the strictly nearest sample, or TIE (-2) when ambiguous.

    Two samples tie when their distances differ by less than
    ``tie_tolerance``; samples that coincide as points count as one.
    """
    _check_nonnegative("tie tolerance", tie_tolerance)
    _, a0, a1, _ = _facet_data(d)
    p = as_affine_point(point, chart="hyperplane")
    t1, t2 = float(p.coords[0]), float(p.coords[1])
    lab, _, _ = _kernels.classify_points(t1, t2, a0, a1,
                                         sample.u1, sample.u2, tie_tolerance)
    out = int(lab[0])
    return out if out < 0 else int(sample.rep[out])


@dataclass(frozen=True)
class VoronoiRaster:
    """Pixel labels over the plotting-chart bounding box of the simplex.

    labels[iy, ix] is the representative sample index, OUTSIDE (-1) for
    pixels outside the simplex, or TIE (-2).  Row iy = 0 is the bottom.
    """

    resolution: int
    labels: np.ndarray
    chart: tuple           # plotting-chart box (xmin, xmax, ymin, ymax)
    tie_tolerance: float
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
    """Label a resolution^2 grid with nearest-sample indices under ``d``."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    _check_nonnegative("tie tolerance", tie_tolerance)
    _, a0, a1, _ = _facet_data(d)
    labels = _kernels.classify_grid(resolution, a0, a1, sample.u1, sample.u2,
                                    tie_tolerance)
    pos = labels >= 0
    labels[pos] = sample.rep[labels[pos]]
    labels.setflags(write=False)
    return VoronoiRaster(resolution, labels, PLOT_BOX, tie_tolerance, sample)


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
    set only at ``x``, and x lies in the relative interior of a facet
    (face_dim = 1), so the cell of x contains a neighborhood of y and has
    dimension >= claimed_lower_bound.  Exact-rational data throughout.
    """

    x: AffinePoint
    witness_y: AffinePoint
    epsilon: Fraction
    face_dim: int
    claimed_lower_bound: int


def _unit_ball_edges_plot(d: FiniteMetric):
    """Plot-chart edge directions of the unit ball, one per hull edge."""
    _, _, _, hull = _facet_data(d)
    dirs = []
    for i, p in enumerate(hull):
        q = hull[(i + 1) % len(hull)]
        u = (q[0] - p[0], q[1] - p[1], -(q[0] - p[0]) - (q[1] - p[1]))
        dirs.append(plot_xy(u))
    return dirs


def dimension_certificate(point, sample: CurveSample, d: FiniteMetric,
                          tie_tolerance: float = DEFAULT_TIE_TOL):
    """Search for a full-dimension certificate at a sample point.

    Witness candidates walk away from x along the perpendiculars of the
    ball edges best aligned with the curve tangent, with offsets floored
    at 4x the max sample spacing -- smaller balls see no second sample and
    would certify anything.  A candidate is accepted only after an exact
    check: every other sample strictly outside the ball, and x on exactly
    one facet functional (relative interior of an edge).  Returns a falsy
    NotFound when no candidate survives.
    """
    _check_nonnegative("tie tolerance", tie_tolerance)
    exact, a0, a1, _ = _facet_data(d)
    idx = sample.nearest_index(point)
    p = as_affine_point(point, chart="hyperplane")
    x0, y0 = plot_xy(p.coords)
    sx, sy = plot_xy(sample.points[idx])
    if math.hypot(sx - x0, sy - y0) > 1e-9:
        raise ValueError("point is not a sample point")

    # unique slot of x (duplicates of x merge into it)
    self_slot = int(np.argmin((sample.u1 - sample.points[idx][0]) ** 2
                              + (sample.u2 - sample.points[idx][1]) ** 2))

    # tangent estimate from neighbors, central difference when possible
    lo, hi = max(idx - 1, 0), min(idx + 1, sample.count - 1)
    tx = plot_xy(sample.points[hi])[0] - plot_xy(sample.points[lo])[0]
    ty = plot_xy(sample.points[hi])[1] - plot_xy(sample.points[lo])[1]
    th = math.hypot(tx, ty)
    if th == 0.0:
        return NotFound(0)
    tx, ty = tx / th, ty / th

    def alignment(e):
        ex, ey = e
        h = math.hypot(ex, ey)
        return abs((ex * tx + ey * ty) / h)

    edges = sorted(_unit_ball_edges_plot(d), key=alignment, reverse=True)

    floor = 4.0 * sample.spacing()
    ts = []
    t = 0.25
    while t > floor and len(ts) < WITNESS_OFFSETS:
        ts.append(t)
        t *= 0.5
    ts.append(max(floor, 1e-6))

    x_ex = exact_point(p)
    trials = 0
    for ex, ey in edges:
        h = math.hypot(ex, ey)
        nu = (-ey / h, ex / h)
        for t in ts:
            for sgn in (1.0, -1.0):
                trials += 1
                wy = (x0 + sgn * t * nu[0], y0 + sgn * t * nu[1])
                t1, t2, _ = plot_to_point(*wy)
                lab, _, _ = _kernels.classify_points(t1, t2, a0, a1, sample.u1,
                                                     sample.u2, tie_tolerance)
                if lab[0] != self_slot:
                    continue

                # exact confirmation
                y_ex = exact_point(AffinePoint(plot_to_point(*wy), chart="hyperplane"))
                w1 = x_ex.coords[0] - y_ex.coords[0]
                w2 = x_ex.coords[1] - y_ex.coords[1]
                vals = _facet_values(exact, w1, w2)
                eps = max(vals)
                if eps <= 0 or sum(1 for v in vals if v == eps) != 1:
                    continue
                ok = True
                for slot in range(len(sample.u1)):
                    if slot == self_slot:
                        continue
                    s1 = Fraction(float(sample.u1[slot]))
                    s2 = Fraction(float(sample.u2[slot]))
                    dv = max(_facet_values(exact, s1 - y_ex.coords[0],
                                           s2 - y_ex.coords[1]))
                    if dv <= eps:
                        ok = False
                        break
                if ok:
                    return DimensionCertificate(x_ex, y_ex, eps, 1, 2)
    return NotFound(trials)

