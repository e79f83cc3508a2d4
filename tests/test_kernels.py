"""Bit-identity and behaviour tests for the raster classifiers."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_classify_grid
from polyvor._kernels import OUTSIDE, TIE, classify_grid, classify_points
from polyvor.voronoi import _facet_data
from polyvor import circle_curve, hardy_weinberg_curve, random_metric, sample_curve

SQRT3_2 = math.sqrt(3.0) / 2.0


def setup_arrays(metrics, name="two_cell", n=201):
    _, a0, a1 = _facet_data(metrics[name])
    s = sample_curve(hardy_weinberg_curve(), n)
    return a0, a1, s.u1, s.u2


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
# equality); a tolerance of 0.05 makes wide TIE bands
@pytest.mark.parametrize("seed", range(8))
def test_tiled_kernel_matches_brute_force(seed):
    _, a0, a1 = _facet_data(random_metric(3, seed))
    # radius 0.7 puts circle samples outside the simplex
    for curve in (hardy_weinberg_curve(), circle_curve(), circle_curve(0.7)):
        s = sample_curve(curve, 151)
        for res in (64, 100):                 # 100 is not a multiple of the tile
            for tie_tol in (0.0, 1e-9, 1e-3, 0.05):
                args = (res, a0, a1, s.u1, s.u2, tie_tol)
                assert np.array_equal(classify_grid(*args), brute_classify_grid(*args))


@pytest.mark.parametrize("s1, s2", [
    ([0.3], [0.3]),                                   # one sample
    ([0.25, 0.25], [0.5, 0.5]),                       # one point twice
    ([0.1, 0.6, 0.1, 0.3, 0.6], [0.1, 0.2, 0.1, 0.3, 0.2]),   # two repeats
])
def test_tiled_kernel_matches_brute_force_on_few_samples(metrics, s1, s2):
    s1, s2 = np.array(s1), np.array(s2)
    for name in ("unit", "line"):
        _, a0, a1 = _facet_data(metrics[name])
        for tie_tol in (0.0, 1e-9, 1e-3, 0.05):
            args = (37, a0, a1, s1, s2, tie_tol)
            assert np.array_equal(classify_grid(*args), brute_classify_grid(*args))


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
       tie_tol=st.sampled_from([0.0, 1e-9, 1e-3, 0.05]))
def test_tiled_kernel_matches_brute_force_property(seed, points, res, tie_tol):
    _, a0, a1 = _facet_data(random_metric(3, seed))
    args = (res, a0, a1, *points, tie_tol)
    assert np.array_equal(classify_grid(*args), brute_classify_grid(*args))


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
