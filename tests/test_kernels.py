"""Bit-identity and behaviour tests for the raster classifiers."""

import hashlib
import math
import os
import random
import signal
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_classify_grid, classify_points, facet_table, full_gauge
from polyvor._chart import HALF_SQRT3, plot_to_point
from polyvor import _kernels
from polyvor._kernels import (OUTSIDE, SEG, SPLIT_RES, TIE, TILE, _dominated, _kept, classify_grid,
                              gauge, slack)
from polyvor.ball import unit_hull
from polyvor.voronoi import _facet_data, _facet_values
from polyvor import circle_curve, hardy_weinberg_curve, random_metric, raster_voronoi, sample_curve

SQRT3_2 = math.sqrt(3.0) / 2.0


def setup_arrays(metrics, name="two_cell", n=201):
    _, a0, a1 = _facet_data(metrics[name])
    s = sample_curve(hardy_weinberg_curve(), n)
    return a0, a1, s.u1, s.u2


def _facet_tables(metrics):
    """(library table, all-m oracle table) of random_metric(3, 0..399) and the fixtures."""
    ds = [random_metric(3, seed) for seed in range(400)] + list(metrics.values())
    return [(_facet_data(d), facet_table(d)) for d in ds]


def _matches_brute_force(d, res, s1, s2, tie_tol):
    """classify_grid on the library table against every pixel x sample pair over all m facets."""
    _, a0, a1 = _facet_data(d)
    _, b0, b1 = facet_table(d)
    return np.array_equal(classify_grid(res, a0, a1, s1, s2, tie_tol),
                          brute_classify_grid(res, b0, b1, s1, s2, tie_tol))


def test_facet_functionals_are_antipodal(metrics):
    # unit_hull lists g_ji m/2 places after g_ij, so edge f + m/2 carries
    # -a_f exactly: the library keeps edges 0..m/2-1 and the rest negate them
    assert [len(_facet_data(metrics[name])[0]) for name in ("unit", "line")] == [3, 2]
    for (exact, a0, a1), (full, b0, b1) in _facet_tables(metrics):
        m = len(full)
        assert m in (4, 6)
        assert exact == full[:m // 2]
        assert np.array_equal(a0, b0[:m // 2]) and np.array_equal(a1, b1[:m // 2])
        assert full[m // 2:] == tuple((-a, -b) for a, b in exact)
        assert np.array_equal(b0[m // 2:], -a0) and np.array_equal(b1[m // 2:], -a1)


def test_pair_maximum_is_the_all_m_maximum(metrics):
    # max_f |a_f.w| over the m/2 library rows equals max_f a_f.w over all m,
    # and one pair attains it exactly when one of the m facets does, as the
    # certificate's uniqueness test needs; hull vertices (two facets) and
    # edge midpoints (one) give both answers
    rng = random.Random(19)
    seen = set()
    for d in [random_metric(3, seed) for seed in range(300)] + list(metrics.values()):
        pairs, full = _facet_data(d)[0], facet_table(d)[0]
        hull = unit_hull(d)
        ws = [(Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
               Fraction(rng.randint(-99, 99), rng.randint(1, 99))) for _ in range(20)]
        ws += list(hull) + [((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)
                            for p, q in zip(hull, hull[1:] + hull[:1])] + [(0, 0)]
        for w1, w2 in ws:
            vals = _facet_values(pairs, w1, w2)
            facets = [a * w1 + b * w2 for a, b in full]
            eps = max(facets)
            assert max(vals) == eps
            one = facets.count(eps) == 1
            assert (vals.count(eps) == 1) == one
            seen.add(one)
    assert seen == {True, False}


def test_gauge_matches_the_full_facet_loop_bit_for_bit(metrics):
    rng = np.random.default_rng(16)
    t1, t2 = rng.random(64), rng.random(64)             # points of the unit square
    # samples: eight of those points, then points out to |s| <= 50
    s1 = np.concatenate([t1[:8], rng.uniform(-50.0, 50.0, 56)])
    s2 = np.concatenate([t2[:8], rng.uniform(-50.0, 50.0, 56)])
    diffs = [(np.zeros((4, 5)), np.zeros((4, 5))),            # zero differences
             (t1 - t1[:, None], t2 - t2[:, None]),            # equal points on the diagonal
             (s1 - t1[:, None], s2 - t2[:, None])]
    for (_, a0, a1), (_, b0, b1) in _facet_tables(metrics):
        for d1, d2 in diffs:
            want = full_gauge(b0, b1, d1, d2, np.empty(d1.shape))
            got = gauge(a0, a1, d1, d2, np.empty(d1.shape))
            assert got.tobytes() == want.tobytes()


# sha256 of the int64 classify_grid labels at 128^2 with 201 samples, as
# produced by the brute-force row kernel (oracles.brute_classify_grid);
# any kernel change must keep them
PINNED_LABELS = {
    ("unit", "hw"): "0569ddc0c65c831d90a93b5f85efc47716b10ea794ea5604544854ae547b12e5",
    ("line", "hw"): "714d846d8f2f32dfcf28945c5173193b8d080b4ebe8679c35af6c644ad000d15",
    ("two_cell", "hw"): "c2fed2dcc1673ef730d38545f5c6c33855c9b934b31c224a34c4641198ade795",
    ("three_cell", "hw"): "f6e447a045805bbe2a4996173e3eed4d79bffc366649c3dec7ac215cd57d720d",
    ("unit", "circle"): "c5594d00feac64697c121ee65e3b22edc1b5051e4aafafc2a2dac94af6e49911",
}


@pytest.mark.parametrize("name, curve", sorted(PINNED_LABELS))
def test_labels_match_pinned_hashes(metrics, name, curve):
    _, a0, a1 = _facet_data(metrics[name])
    c = hardy_weinberg_curve() if curve == "hw" else circle_curve()
    s = sample_curve(c, 201)
    labels = classify_grid(128, a0, a1, s.u1, s.u2, 1e-9)
    assert labels.dtype == np.int64 and labels.shape == (128, 128)
    assert hashlib.sha256(labels.tobytes()).hexdigest() == PINNED_LABELS[name, curve]


# sha256 of the 512^2 raster labels of 1001 Hardy-Weinberg samples for the
# worked metrics d1, d2, d3, as pinned in perfbench/references.json
PINNED_512 = {
    "unit": "8a2b9b1d34abe15ca1b13fb779c6921a61dde2cf52e555c50633cf08e7468573",
    "two_cell": "e77bfe454f0199553b75c469c2aee1b043e936a6099ca9a8e6ed0dffc48faf17",
    "three_cell": "be7c62431a0074ccddca1eed80c76ca3d5f05b8aa1a08234235fbab036d26c54",
}


@pytest.mark.parametrize("name", sorted(PINNED_512))
def test_worked_rasters_match_pinned_hashes(hw_raster, name):
    labels = hw_raster(name, 512, 1001).labels
    assert hashlib.sha256(labels.tobytes()).hexdigest() == PINNED_512[name]


# random metrics (all but seed 2 are tight: a triangle inequality is an
# equality); a tolerance of 0.05 makes wide TIE bands, and 10.0 is above
# every distance here, so every inside pixel is TIE
@pytest.mark.parametrize("seed", range(8))
def test_tiled_kernel_matches_brute_force(seed):
    d = random_metric(3, seed)
    # radius 0.7 puts circle samples outside the simplex
    for curve in (hardy_weinberg_curve(), circle_curve(), circle_curve(0.7)):
        s = sample_curve(curve, 151)
        for res in (64, 100):                 # 100 is not a multiple of the tile
            for tie_tol in (0.0, 1e-9, 1e-3, 0.05, 10.0):
                assert _matches_brute_force(d, res, s.u1, s.u2, tie_tol)


@pytest.mark.parametrize("s1, s2", [
    ([0.3], [0.3]),                                   # one sample
    ([0.25, 0.25], [0.5, 0.5]),                       # one point twice
    ([0.1, 0.6, 0.1, 0.3, 0.6], [0.1, 0.2, 0.1, 0.3, 0.2]),   # two repeats
])
def test_tiled_kernel_matches_brute_force_on_few_samples(metrics, s1, s2):
    s1, s2 = np.array(s1), np.array(s2)
    for name in ("unit", "line"):
        for tie_tol in (0.0, 1e-9, 1e-3, 0.05, 10.0):
            assert _matches_brute_force(metrics[name], 37, s1, s2, tie_tol)


def _simplex_point(uv):
    u, v = uv
    return (1.0 - u, 1.0 - v) if u + v > 1.0 else (u, v)


@st.composite
def sample_points(draw):
    """1-40 rational-chart points, in the simplex or out to |s| <= 50, with
    exact repeats and near-duplicates of earlier points mixed in."""
    unit = st.floats(0.0, 1.0)
    point = st.one_of(st.tuples(unit, unit).map(_simplex_point),
                      st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)))
    pts = draw(st.lists(point, min_size=1, max_size=40))
    copies = draw(st.lists(st.tuples(st.integers(0, len(pts) - 1),
                                     st.sampled_from([0.0, 1e-15, 1e-12, 1e-9])),
                           max_size=40 - len(pts)))
    pts += [(pts[i][0] + off, pts[i][1] - off) for i, off in copies]
    pts = draw(st.permutations(pts))
    return np.array([p[0] for p in pts]), np.array([p[1] for p in pts])


# random_metric(3, s) is tight for 25 of the seeds s < 40
@settings(derandomize=True, deadline=None)
@given(seed=st.integers(0, 39), points=sample_points(), res=st.integers(2, 40),
       tie_tol=st.sampled_from([0.0, 1e-9, 1e-3, 0.05, 10.0]))
def test_tiled_kernel_matches_brute_force_property(seed, points, res, tie_tol):
    assert _matches_brute_force(random_metric(3, seed), res, *points, tie_tol)


@pytest.mark.parametrize("tie_tol", [0.0, 1e-9, 0.05])
def test_tile_cut_drops_only_columns_past_the_nearest(tie_tol):
    # the lemma of the kernel's "Pruning", "Segment, then tile" and
    # "Dominance", on tile rows built as classify_grid builds them: each
    # segment's kept columns in index order, padded with its own rejects.
    # No padding column is kept or holds a tile's least UB, and at every
    # inside pixel of its tile a column that the LB test or the dominance
    # cut drops has a float gauge above the least gauge over all samples by
    # more than the tie tolerance
    rng = np.random.default_rng(22)
    cut_rows = set()
    cut_total = 0
    for seed in range(40):
        _, a0, a1 = _facet_data(random_metric(3, seed))   # m/2 = 2 on tight metrics
        inner = rng.random((60, 2))
        inner = np.where(inner.sum(axis=1, keepdims=True) > 1.0, 1.0 - inner, inner)
        pts = np.concatenate([inner, rng.uniform(-50.0, 50.0, (20, 2))])
        offsets = rng.choice([0.0, 1e-15, 1e-12, 1e-9], (20, 1))
        copies = pts[rng.integers(0, len(pts), 20)] + offsets
        s1, s2 = np.concatenate([pts, copies]).T
        margin = tie_tol + slack(a0, a1, max(np.max(np.abs(s1)), np.max(np.abs(s2))) + 1.0)
        # up to two segments of tiles of one band in the lower half of the
        # grid, whose pixel centers and extremes are computed as classify_grid does
        res = int(rng.integers(2 * TILE, 600))
        y0 = TILE * int(rng.integers(0, res // (2 * TILE)))
        px = (np.arange(-(-res // TILE) * TILE) + 0.5) * (1.0 / res)
        y = (np.arange(y0, y0 + TILE) + 0.5)[:, None] * (HALF_SQRT3 / res)
        t1, t2, t3 = plot_to_point(px, y)
        t2 = np.broadcast_to(t2, t1.shape)
        inside = (t1 >= 0.0) & (t3 >= 0.0) & (t2 >= 0.0)
        tiles = np.flatnonzero(inside.reshape(TILE, -1, TILE).any(axis=(0, 2)))
        tiles = np.sort(rng.permutation(tiles)[:2 * SEG])
        pix = [(slice(None), slice(x0, x0 + TILE)) for x0 in tiles * TILE]
        q = a0[:, None, None] * t1 + a1[:, None, None] * t2
        lo = np.array([[np.min(qf[p][inside[p]]) for p in pix] for qf in q])
        hi = np.array([[np.max(qf[p][inside[p]]) for p in pix] for qf in q])
        P = a0[:, None] * s1 + a1[:, None] * s2
        starts = np.arange(0, len(tiles), SEG)
        seg_keep = _kept(P, np.minimum.reduceat(lo, starts, axis=1)[..., None],
                         np.maximum.reduceat(hi, starts, axis=1)[..., None], margin)
        counts = seg_keep.sum(axis=1)
        seg = np.arange(len(tiles)) // SEG
        cols = np.argsort(~seg_keep, axis=1, kind="stable")[seg, :counts.max()]
        pad = np.arange(counts.max()) >= counts[seg, None]
        pc, lo, hi = P[:, cols], lo[..., None], hi[..., None]
        kept = _kept(pc, lo, hi, margin)
        dominated = _dominated(pc, lo, hi, margin)
        ub = np.maximum(hi - pc, pc - lo).max(axis=0)
        assert not kept[pad].any()
        assert np.all(np.where(pad, ub, np.inf).min(axis=1) > np.where(pad, np.inf, ub).min(axis=1))
        for p, row, gone in zip(pix, cols, ~kept | dominated):
            t = inside[p]
            d1, d2 = s1 - t1[p][t][:, None], s2 - t2[p][t][:, None]
            dist = gauge(a0, a1, d1, d2, np.empty(d1.shape))
            best = dist.min(axis=1, keepdims=True)
            assert np.all(dist[:, row[gone]] - best > tie_tol)
        cut = dominated & ~pad
        if cut.any():
            cut_rows.add(len(a0))
            cut_total += cut.sum()
    assert cut_rows == {2, 3}
    assert cut_total > 1000


def test_numpy_path_alone_is_deterministic(metrics):
    a0, a1, s1, s2 = setup_arrays(metrics, "three_cell", 101)
    one = classify_grid(64, a0, a1, s1, s2, 1e-9)
    two = classify_grid(64, a0, a1, s1, s2, 1e-9)
    assert np.array_equal(one, two)


def test_outside_pixels_marked(metrics):
    a0, a1, s1, s2 = setup_arrays(metrics, "unit", 51)
    labels = classify_grid(32, a0, a1, s1, s2, 1e-9)
    # bottom corners of the box are inside; top corners far outside
    assert labels[-1, 0] == OUTSIDE
    assert labels[-1, -1] == OUTSIDE
    assert (labels == OUTSIDE).sum() > 0
    inside = labels >= 0
    assert inside.sum() > 0.4 * 32 * 32   # triangle fills half the box


def test_duplicate_samples_tie_everywhere(metrics):
    _, a0, a1 = _facet_data(metrics["unit"])
    s1 = np.array([0.25, 0.25])
    s2 = np.array([0.5, 0.5])
    labels = classify_grid(16, a0, a1, s1, s2, 1e-9)
    inside = labels != OUTSIDE
    assert np.all(labels[inside] == TIE)


def test_single_sample_owns_the_simplex(metrics):
    _, a0, a1 = _facet_data(metrics["line"])
    labels = classify_grid(16, a0, a1, np.array([0.25]), np.array([0.5]),
                                 1e-9)
    inside = labels != OUTSIDE
    assert inside.any()
    assert np.all(labels[inside] == 0)


def test_points_agree_with_grid_pixels(metrics):
    a0, a1, s1, s2 = setup_arrays(metrics, "two_cell", 101)
    res = 64
    labels = classify_grid(res, a0, a1, s1, s2, 1e-9)
    rng = np.random.default_rng(3)
    for _ in range(50):
        iy = int(rng.integers(0, res))
        ix = int(rng.integers(0, res))
        if labels[iy, ix] == OUTSIDE:
            continue
        py = (iy + 0.5) * SQRT3_2 / res
        t2 = py * 2.0 / math.sqrt(3.0)
        t1 = (ix + 0.5) / res - 0.5 * t2
        lab, best, second = classify_points(t1, t2, a0, a1, s1, s2, 1e-9)
        assert lab[0] == labels[iy, ix]
        assert best[0] <= second[0]


def test_tie_band_appears_between_two_samples(metrics):
    """A generous tolerance turns the midline between two samples into TIE."""
    _, a0, a1 = _facet_data(metrics["unit"])
    s1 = np.array([0.2, 0.6])
    s2 = np.array([0.2, 0.2])
    labels = classify_grid(64, a0, a1, s1, s2, 0.05)
    inside = labels != OUTSIDE
    assert (labels[inside] == TIE).any()
    assert (labels[inside] == 0).any()
    assert (labels[inside] == 1).any()


# the band split over two processes (the kernel's "Processes"); the CPU
# count is patched both ways, so both paths run on any host
def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _count_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _split_case(seed_or_name, metrics, curve):
    d = random_metric(3, seed_or_name) if isinstance(seed_or_name, int) else metrics[seed_or_name]
    return sample_curve(hardy_weinberg_curve() if curve == "hw" else circle_curve(0.2), 501), d


@pytest.mark.parametrize("curve", ["hw", "circle"])
@pytest.mark.parametrize("name", ["unit", "two_cell", "three_cell", 4])  # d1, d2, d3; tight
def test_split_labels_match_one_process(monkeypatch, metrics, name, curve):
    s, d = _split_case(name, metrics, curve)
    for res in (SPLIT_RES, SPLIT_RES + 9):       # the second is not a multiple of the tile
        for tie_tol in (1e-9, 0.0):
            _cpus(monkeypatch, 1)
            one = raster_voronoi(s, d, res, tie_tol).labels
            _cpus(monkeypatch, 2)
            forks = _count_forks(monkeypatch)
            two = raster_voronoi(s, d, res, tie_tol).labels
            assert forks == [1]
            _no_child_left()
            assert np.array_equal(one, two)


@pytest.mark.parametrize("how", ["raises", "killed"])
def test_split_redoes_the_bands_of_a_failed_worker(monkeypatch, metrics, how):
    s, d = _split_case("two_cell", metrics, "hw")
    _cpus(monkeypatch, 1)
    want = raster_voronoi(s, d, SPLIT_RES).labels
    parent = os.getpid()
    block_labels = _kernels._block_labels

    def failing(*args):
        if os.getpid() != parent:
            if how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("worker fails")
        return block_labels(*args)

    _cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(_kernels, "_block_labels", failing)
    got = raster_voronoi(s, d, SPLIT_RES).labels
    assert forks == [1]
    _no_child_left()
    assert np.array_equal(got, want)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_split_reaps_the_worker_when_this_side_raises(monkeypatch, metrics, error):
    s, d = _split_case("two_cell", metrics, "hw")
    parent = os.getpid()
    block_labels = _kernels._block_labels

    def failing(*args):
        if os.getpid() == parent:
            raise error("parent fails")
        return block_labels(*args)

    _cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(_kernels, "_block_labels", failing)
    with pytest.raises(error, match="parent fails"):
        raster_voronoi(s, d, SPLIT_RES)
    assert forks == [1]
    _no_child_left()


def test_split_worker_flushes_no_inherited_stdout():
    # the worker leaves by os._exit: text buffered before the raster, in
    # a block-buffered stdout, is written by this process alone
    code = ("import os, sys\n"
            "from polyvor import hardy_weinberg_curve, random_metric, raster_voronoi, sample_curve\n"
            "from polyvor._kernels import SPLIT_RES\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "sys.stdout.write('buffered once')\n"
            "raster_voronoi(sample_curve(hardy_weinberg_curve(), 101), random_metric(3, 0), SPLIT_RES)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    out = subprocess.run([sys.executable, "-c", code], env=dict(env, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "buffered once"
