"""Nearest-sample classification, rasters, and dimension certificates."""

import hashlib
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from polyvor import (
    CurveSample,
    DimensionCertificate,
    DimensionMismatch,
    NotFound,
    build_ball,
    circle_curve,
    count_full_dim_cells_hw,
    dimension_certificate,
    hardy_weinberg_curve,
    random_metric,
    raster_voronoi,
    sample_curve,
    validate_metric,
    veronese_point,
)
from polyvor import _kernels, ball, voronoi
from polyvor._chart import plot_xy
from polyvor._kernels import OUTSIDE, TIE
from polyvor.ball import unit_hull
from polyvor.voronoi import _facet_data, _facet_values

from oracles import (
    ball_generators,
    brute_classify_grid,
    classify,
    curve_point,
    exact_gauge,
    face_cone_decomposition_check,
    facet_table,
    gauge_distance,
    half_ball_test,
    sample_point,
    veronese_curve,
)

HW = hardy_weinberg_curve()


def exhaustive_nearest(point, sample, d):
    """Exact linear scan over all samples; (index, value, strict_margin)."""
    y1 = Fraction(float(point[0]))
    y2 = Fraction(float(point[1]))
    vals = []
    for k in range(sample.count):
        s1 = Fraction(float(sample.u1[k]))
        s2 = Fraction(float(sample.u2[k]))
        vals.append(exact_gauge(d, (s1 - y1, s2 - y2, 0)))
    best = min(range(sample.count), key=lambda k: (vals[k], k))
    runner = min(vals[k] for k in range(sample.count) if k != best)
    return best, vals[best], runner - vals[best]


def test_classify_sample_point_is_itself(metrics):
    sample = sample_curve(HW, 101)
    for i in (0, 17, 50, 100):
        assert classify(sample_point(sample, i), sample, metrics["unit"]) == i


def test_classify_matches_exhaustive_scan(metrics):
    """Spot point from a dense sample, cross-checked two independent ways."""
    d = metrics["unit"]
    sample = sample_curve(HW, 501)
    y = (0.6, 0.3, 0.1)
    label = classify(y, sample, d)
    best, value, margin = exhaustive_nearest(y, sample, d)
    assert margin > 1e-6
    assert label == best
    # the LP gauge agrees with the facet-functional gauge at the winner
    y_ex = (Fraction(6, 10), Fraction(3, 10), Fraction(1, 10))
    s1, s2 = Fraction(float(sample.u1[best])), Fraction(float(sample.u2[best]))
    s_ex = (s1, s2, 1 - s1 - s2)
    lp = gauge_distance(y_ex, s_ex, ball_generators(d))
    assert lp == exact_gauge(d, tuple(a - b for a, b in zip(s_ex, y_ex)))


def test_classify_random_points_against_scan(metrics):
    rng = np.random.default_rng(11)
    sample = sample_curve(HW, 101)
    for name in ("unit", "two_cell"):
        d = metrics[name]
        hits = 0
        while hits < 15:
            w = rng.dirichlet((1.0, 1.0, 1.0))
            best, _, margin = exhaustive_nearest(w, sample, d)
            if margin <= 1e-6:
                continue    # too close to a boundary for a strict answer
            hits += 1
            assert classify(tuple(w), sample, d) == best


def test_classify_tie_on_symmetry_axis(metrics):
    # params p and 1-p are mirror images; the unit hexagon shares the
    # mirror symmetry, so any point on the axis is exactly equidistant.
    sample = CurveSample.at_params(HW, [0.3, 0.7])
    y = (0.25, 0.5, 0.25)
    assert classify(y, sample, metrics["unit"]) == TIE


def test_classify_rejects_nothing_inside(metrics):
    sample = sample_curve(HW, 11)
    lab = classify((0.5, 0.3, 0.2), sample, metrics["three_cell"])
    assert 0 <= lab < sample.count


def test_sample_curve_basic_properties():
    s = sample_curve(HW, 3)
    assert list(s.params) == [0.0, 0.5, 1.0]
    assert s.points.tolist() == [[0.0, 0.0, 1.0], [0.25, 0.5, 0.25], [1.0, 0.0, 0.0]]
    assert s.count == 3
    assert len(s.u1) == 3
    with pytest.raises(ValueError):
        sample_curve(HW, 1)


def test_closed_sample_drops_its_repeated_endpoint():
    # grouping the points in coordinate order kept both seam points at
    # (0.7, 151), so their shared cell read TIE; the circle's p = 1 is its
    # p = 0 point bit for bit, at radius 5000 too
    for radius, n in ((0.2, 1001), (0.7, 151), (0.7, 301), (5000, 101)):
        s = sample_curve(circle_curve(radius), n)
        assert s.count == len(s.u1) == n - 1
        assert s.params[-1] < 1.0
        gap = np.hypot(s.u1[:, None] - s.u1, s.u2[:, None] - s.u2)
        np.fill_diagonal(gap, np.inf)
        assert gap.min() > 1e-12
    # the seam is one sample, so its cell has no everywhere-tied twin
    raster = raster_voronoi(sample_curve(circle_curve(0.7), 151), random_metric(3, 0), 96)
    assert int((raster.labels == TIE).sum()) == 0


def test_seam_gap_is_bounded_by_the_sample_spacing():
    # only an endpoint equal to the first is a seam: these points at
    # u1 = -2^47 are 0.5 apart, whatever the coordinates' size
    def far(p):
        return p * 0 - 2.0 ** 47, p

    assert CurveSample.at_params(far, [0.25, 0.75]).count == 2
    assert CurveSample.at_params(far, [0.25, 0.5, 0.75]).count == 3
    # 200001 samples of radius 5000 are 0.16 apart, and the seam closes exactly
    for radius in (0.2, 0.7, 5, 5000):
        for n in (3, 1001, 200001):
            assert sample_curve(circle_curve(radius), n).count == n - 1


def test_closed_curve_refuses_a_count_that_leaves_one_sample():
    # p = 0 and p = 1 are the seam point, so 2 samples of a circle are one
    with pytest.raises(ValueError, match="are one point: need at least 3"):
        sample_curve(circle_curve(0.2), 2)
    s = sample_curve(circle_curve(0.2), 3)
    assert list(s.params) == [0.0, 0.5]


def test_consecutive_samples_at_one_point_are_refused():
    # at radius 1e-15 the circle's chart coordinates move in steps below
    # their last bit: 1000 samples hold 117 distinct points, and every cell
    # of a repeated point was TIE at every pixel
    for radius, first in ((1e-14, 90), (1e-15, 0), (1e-17, 0), (1e-320, 0)):
        message = rf"samples {first} and {first + 1} \(params \S+ and \S+\) are one point"
        with pytest.raises(ValueError, match=message):
            sample_curve(circle_curve(radius), 1001)
    with pytest.raises(ValueError, match=r"samples 1 and 2 \(params 0.5 and 0.75\) are one point"):
        CurveSample.at_params(lambda p: (np.minimum(p, 0.5), p * 0), [0.25, 0.5, 0.75])
    # a seam is dropped first; a repeat elsewhere is not a seam
    assert CurveSample.at_params(lambda p: (np.minimum(p, 0.5) % 0.5, p * 0),
                                 [0.0, 0.25, 0.5]).count == 2
    # the sample-array pins' curves keep every sample
    assert sample_curve(circle_curve(1e-12), 1001).count == 1000
    assert sample_curve(HW, 200001).count == 200001


def test_samples_at_one_point_anywhere_are_refused():
    # 1.5 periods of a circle pass every point of the first half twice;
    # accepted with 30 samples, its 64^2 raster under the unit metric had
    # 922 of 2048 inside pixels TIE (circle_curve itself refuses p > 1)
    circle = circle_curve(0.2)
    with pytest.raises(ValueError, match=r"samples 0 and 20 \(params 0.0 and 1.0\) are one point"):
        CurveSample.at_params(lambda p: circle(p % 1.0), np.linspace(0, 1.5, 31)[:-1])
    # a repeat that is neither consecutive nor the seam
    with pytest.raises(ValueError, match=r"samples 0 and 2 \(params 0.25 and 0.75\) are one point"):
        CurveSample.at_params(lambda p: (np.abs(p - 0.5), p * 0), [0.25, 0.5, 0.75, 0.9])


def test_samples_off_the_plane_are_refused():
    # the kernels and certificates read two chart arrays, the rational chart
    # of the simplex; the chart of the 3-simplex has three, the segment's one
    with pytest.raises(DimensionMismatch, match=r"got shapes \[\(11,\), \(11,\), \(11,\)\]"):
        sample_curve(veronese_curve(3), 11)
    with pytest.raises(DimensionMismatch, match=r"got shapes \[\(2,\)\]"):
        CurveSample.at_params(veronese_curve(1), [0.25, 0.75])
    # two arrays, but not one value per parameter
    with pytest.raises(DimensionMismatch, match=r"of shape \(2,\), got shapes \[\(1,\), \(2,\)\]"):
        CurveSample.at_params(lambda p: (p[:1], p), [0.25, 0.75])


def test_empty_params_are_refused():
    # an empty sample would reach the raster's reductions with no samples
    with pytest.raises(ValueError, match="params are empty"):
        CurveSample.at_params(HW, [])


@pytest.mark.parametrize("params", [0.5, [[0.25, 0.75]], np.zeros((2, 2))],
                         ids=["scalar", "row", "square"])
def test_params_that_are_not_1d_are_refused(params):
    with pytest.raises(DimensionMismatch, match="params must be 1-D, got shape"):
        CurveSample.at_params(HW, params)


def test_chart_coordinates_past_the_gauge_resolution_are_refused():
    # from extent 2^48 - 1 on a gauge's rounding band covers the simplex
    for bad in (math.nan, math.inf, -math.inf, 2.0 ** 48):
        for curve in (lambda p: (p * 0 + bad, p), lambda p: (p, p * 0 + bad)):
            with pytest.raises(ValueError, match="curve sample extent"):
                CurveSample.at_params(curve, [0.25, 0.75])
    s = CurveSample.at_params(lambda p: (-p * 2.0 ** 47, p), [0.25, 0.75])
    assert s.count == 2


def test_exact_ties_go_to_the_lowest_sample_index():
    # at tie tolerance 0, 420 pixels are exactly as near samples 37 and 38
    # of this circle; the first-index rule gives them to 37 (coordinate
    # order would give them to 38)
    d = random_metric(3, 2)
    s = sample_curve(circle_curve(0.2), 151)
    _, a0, a1 = facet_table(d)
    labels = raster_voronoi(s, d, 96, tie_tolerance=0.0).labels
    want = brute_classify_grid(96, a0, a1, s.u1, s.u2, 0.0)
    assert np.array_equal(labels, want)
    assert int((labels == 37).sum()) == 442


def test_sample_chart_geometry_matches_per_sample_scan():
    for s in (sample_curve(HW, 201), sample_curve(circle_curve(), 301)):
        xy = np.array([plot_xy(p) for p in zip(s.u1.tolist(), s.u2.tolist())])
        steps = np.hypot(np.diff(xy[:, 0]), np.diff(xy[:, 1]))
        assert s.spacing() == float(np.max(steps))


def test_single_point_sample_owns_every_pixel(metrics):
    sample = CurveSample.at_params(HW, [0.5, 0.5])
    raster = raster_voronoi(sample, metrics["two_cell"], 32)
    inside = raster.labels != OUTSIDE
    assert inside.any()
    assert np.all(raster.labels[inside] == 0)


def test_raster_is_deterministic(metrics):
    sample = sample_curve(HW, 51)
    a = raster_voronoi(sample, metrics["unit"], 64)
    b = raster_voronoi(sample, metrics["unit"], 64)
    assert np.array_equal(a.labels, b.labels)
    with pytest.raises(ValueError):
        raster_voronoi(sample, metrics["unit"], 1)


def test_raster_refuses_a_label_array_over_the_memory_budget(metrics):
    # 8 * (10^7)^2 B is 728 TiB, so even a broken check fails fast
    sample = sample_curve(HW, 11)
    with pytest.raises(ValueError, match="over a quarter of physical memory"):
        raster_voronoi(sample, metrics["unit"], 10**7)


def test_raster_refuses_tile_bounds_over_the_memory_budget(metrics):
    # 10^12 samples as zero-stride views: 32 B of tile bounds per sample
    # alone is 29 TiB at R = 8, while the views hold one number; the one
    # refusal names the labels and the whole kernel scratch
    n = 10**12
    flat = np.broadcast_to(np.array(0.5), (n,))
    sample = CurveSample(flat, flat, flat)
    size = 512 + 32 * n + 40 * 16 * n + 72 * 16 * 16
    message = (f"resolution 8 with {n} samples needs {size} B of labels "
               "and kernel scratch, over a quarter of physical memory")
    with pytest.raises(ValueError) as err:
        raster_voronoi(sample, metrics["unit"], 8)
    assert str(err.value) == message


def test_raster_refuses_tile_distances_over_the_memory_budget(metrics, monkeypatch):
    # 2 MiB of physical memory gives a 512 KiB budget: R = 8 with 1001
    # samples needs 32544 B of labels and tile bounds, but the one tile
    # keeps every sample, in blocks of up to 2^15 pixel x sample pairs at
    # 40 B per pair, and its band is one 16 x 16 tile at 72 B per pixel:
    # 1298 KiB more
    sample = sample_curve(HW, 1001)
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 512}
    monkeypatch.setattr(voronoi.os, "sysconf", pages.__getitem__)
    size = 512 + 32 * 1001 + 40 * 2 ** 15 + 72 * 16 * 16
    assert size == 512 + _kernels.scratch_bytes(8, 1001)
    message = (f"resolution 8 with 1001 samples needs {size} B of labels and kernel "
               "scratch, over a quarter of physical memory")
    with pytest.raises(ValueError) as err:
        raster_voronoi(sample, metrics["unit"], 8)
    assert str(err.value) == message


@pytest.mark.parametrize("cpus", [1, 2])
def test_raster_charges_the_scratch_of_each_labelling_process(metrics, monkeypatch, cpus):
    # a budget of exactly the labels: the refusal names labels plus one
    # scratch term per process that labels bands
    res = _kernels.SPLIT_RES
    sample = sample_curve(HW, 1001)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 4 * 8 * res * res}
    monkeypatch.setattr(voronoi.os, "sysconf", pages.__getitem__)
    assert _kernels.processes(res) == cpus
    size = 8 * res * res + cpus * _kernels.scratch_bytes(res, 1001)
    message = (f"resolution {res} with 1001 samples needs {size} B of labels and kernel "
               "scratch, over a quarter of physical memory")
    with pytest.raises(ValueError) as err:
        raster_voronoi(sample, metrics["unit"], res)
    assert str(err.value) == message


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-9])
def test_raster_parameters_checked_at_the_api(metrics, bad):
    sample = sample_curve(HW, 11)
    with pytest.raises(ValueError):
        raster_voronoi(sample, metrics["unit"], 8, tie_tolerance=bad)
    raster = raster_voronoi(sample, metrics["unit"], 8)
    with pytest.raises(ValueError):
        raster.full_dim_labels(threshold=bad)


def test_parameter_refuses_labels_that_are_not_sample_indices(metrics):
    # TIE and OUTSIDE would index the params from the end
    raster = raster_voronoi(sample_curve(HW, 51), metrics["unit"], 16)
    for label in (TIE, OUTSIDE, 51):
        with pytest.raises(ValueError, match=rf"label {label} is not a sample index in \[0, 51\)"):
            raster.parameter(label)
    for label in (0.5, True):
        with pytest.raises(ValueError, match=f"label must be an int, got {label}"):
            raster.parameter(label)
    assert raster.parameter(0) == 0.0 and raster.parameter(50) == 1.0
    assert raster.parameter(np.int64(50)) == 1.0


@pytest.mark.parametrize("call, message", [
    (lambda d: raster_voronoi(sample_curve(HW, 11), d, 16.5), "resolution must be an int, got 16.5"),
    (lambda d: raster_voronoi(sample_curve(HW, 11), d, True), "resolution must be an int, got True"),
    (lambda d: sample_curve(HW, 10.5), "sample count must be an int, got 10.5"),
    (lambda d: random_metric(3.5, 1), "n_states must be an int, got 3.5"),
    (lambda d: veronese_point(2.5, Fraction(1, 2)), "n must be an int, got 2.5"),
])
def test_non_integer_arguments_are_value_errors(metrics, call, message):
    # operator.index, not int(): 16.5 is not truncated and True is not 1
    with pytest.raises(ValueError) as err:
        call(metrics["unit"])
    assert str(err.value) == message


def test_raster_pixel_counts_account_for_all_pixels(metrics):
    sample = sample_curve(HW, 51)
    raster = raster_voronoi(sample, metrics["three_cell"], 64)
    counted = sum(raster.pixel_counts().values())
    special = int((raster.labels == OUTSIDE).sum() + (raster.labels == TIE).sum())
    assert counted + special == 64 * 64


def test_full_dim_cells_unit_metric(hw_raster):
    """One full-dimensional cell, at the curve's midpoint parameter."""
    raster = hw_raster("unit")
    labels = raster.full_dim_labels()
    assert len(labels) == 1
    assert abs(raster.parameter(labels[0]) - 0.5) <= 2 / 1001


def test_full_dim_cells_three_cell_metric(hw_raster):
    raster = hw_raster("three_cell")
    labels = raster.full_dim_labels()
    assert len(labels) == 3
    params = [raster.parameter(i) for i in labels]
    for got, want in zip(params, (1 / 3, 1 / 2, 2 / 3)):
        assert abs(got - want) <= 2 / 1001


def test_full_dim_cells_refine_monotonically(hw_raster, metrics):
    """Cells that clear the scale-invariant area cut at R=512 stay above
    it at R=1024 (both charts use the same relative threshold)."""
    for name in ("unit", "three_cell"):
        coarse = hw_raster(name, resolution=512)
        fine = hw_raster(name, resolution=1024)
        coarse_params = {round(coarse.parameter(i), 6)
                         for i in coarse.full_dim_labels()}
        fine_params = {round(fine.parameter(i), 6)
                       for i in fine.full_dim_labels()}
        assert coarse_params <= fine_params


RESOLVABLE_SEEDS = [1, 2, 7, 10, 11, 12, 13, 15, 24, 27, 28, 30,
                    33, 34, 38, 39, 43, 45, 50, 54]


@pytest.mark.parametrize("seed", RESOLVABLE_SEEDS)
def test_raster_confirms_tangency_census_frozen_seeds(seed):
    """Raster cells match the closed-form tangency parameters.

    The seeds are the well-separated random metrics (tangency parameters
    in [1/10, 9/10], pairwise gaps >= 1/20, no degenerate coincidences)
    whose cells resolve at this resolution; metrics with tangencies too
    close together or cells clipped thin by the simplex boundary need a
    finer grid than a regression test can afford.
    """
    d = random_metric(3, seed)
    predicted = sorted(float(p) for p in count_full_dim_cells_hw(d).parameters)
    sample = sample_curve(HW, 4001)
    raster = raster_voronoi(sample, d, 512)
    got = sorted(raster.parameter(i) for i in raster.full_dim_labels())
    assert len(got) == len(predicted)
    for g, p in zip(got, predicted):
        assert abs(g - p) <= 2 / 4001


def test_half_ball_tangent_vs_transversal(metrics):
    apex = (0.25, 0.5, 0.25)           # HW point at p = 1/2, top of the arc
    assert half_ball_test(apex, (0.0, 1.0), HW) is True
    assert half_ball_test(apex, (1.0, 0.0), HW) is False


def test_half_ball_circle_top():
    circle = circle_curve()
    top = max((curve_point(circle, p) for p in (0.25, 0.75)), key=lambda q: q[1])
    assert half_ball_test(top, (0.0, 1.0), circle) is True


def test_certificate_at_the_full_dim_cell(metrics):
    d = metrics["unit"]
    sample = sample_curve(HW, 1001)
    cert = dimension_certificate(sample_point(sample, 500), sample, d)
    assert isinstance(cert, DimensionCertificate)
    assert bool(cert)
    assert cert.epsilon > 0
    # the ball around the witness really touches the curve at x
    w = tuple(a - b for a, b in zip(cert.x.coords, cert.witness_y.coords))
    assert exact_gauge(d, w) == cert.epsilon


def test_certificate_near_a_sample_certifies_the_sample(metrics):
    # 4e-10 off the sample: accepted as that sample, and the certificate
    # is the sample's own, not one made around the caller's point
    d = metrics["unit"]
    sample = sample_curve(HW, 1001)
    t1, t2, t3 = sample_point(sample, 500)
    near = dimension_certificate((t1 + 4e-10, t2, t3 - 4e-10), sample, d)
    assert near == dimension_certificate(sample_point(sample, 500), sample, d)
    assert near.x.coords == (Fraction(t1), Fraction(t2), 1 - Fraction(t1) - Fraction(t2))


def test_certificate_not_found_off_tangency(metrics):
    d = metrics["unit"]
    sample = sample_curve(HW, 1001)
    nf = dimension_certificate(sample_point(sample, 300), sample, d)
    assert isinstance(nf, NotFound)
    assert not nf
    assert nf.trials > 0


def _log_trials(monkeypatch, filtered=False):
    """Log the certificate's trials and exact checks, its float filter off unless ``filtered``.

    With the filter off the band is infinite, so no trial is skipped.  The
    log gets "T" for each trial (one band per trial) and "E" for each exact
    evaluation of eps at x (the sample checks use ``_first_above``), so a
    "T" followed by an "E" is a trial the exact check saw.
    """
    log = []
    slack = _kernels.slack

    def band(*args):
        log.append("T")
        return slack(*args) if filtered else math.inf

    def values(*args):
        log.append("E")
        return _facet_values(*args)

    monkeypatch.setattr(_kernels, "slack", band)
    monkeypatch.setattr(voronoi, "_facet_values", values)
    return log


def _trials_checked(log):
    """(trials, trials that reached the exact check) of a log as above."""
    return (log.count("T"),
            sum(1 for a, b in zip(log, log[1:] + ["T"]) if (a, b) == ("T", "E")))


def test_exact_confirmation_decides_the_certificate(monkeypatch):
    # with a float filter that passes every trial, the exact check alone
    # must reject all 48 witnesses: each sees another sample within eps
    sample = sample_curve(HW, 1001)
    x = sample_point(sample, 70)                # parameter 0.07
    log = _log_trials(monkeypatch)
    assert dimension_certificate(x, sample, random_metric(3, 0)) == NotFound(48)
    assert _trials_checked(log) == (48, 48)


def test_witness_on_a_vertex_direction_is_rejected(monkeypatch, metrics):
    # y - x = 2^-6 (-1, 1, 0) points at a vertex of the unit hexagon, so two
    # facets attain eps and x is not in the relative interior of one facet:
    # every trial must be rejected, though the sample check alone accepts it
    sample = sample_curve(HW, 1001)
    x = sample_point(sample, 500)               # (1/4, 1/2, 1/4)
    log = _log_trials(monkeypatch)
    h = 2.0 ** -6
    monkeypatch.setattr(voronoi, "plot_to_point", lambda *args: (0.25 - h, 0.5 + h, 0.25))
    assert dimension_certificate(x, sample, metrics["unit"]) == NotFound(72)
    assert _trials_checked(log) == (72, 72)


def test_sample_check_stops_at_the_first_facet_above_eps(monkeypatch):
    # a confirmation decides each sample at its first facet value above eps,
    # starting with the facet that decided the last sample: on the found
    # certificates of seeds 0..9 that is about one exact product per sample,
    # where evaluating every facet makes m/2 = 3
    first = voronoi._first_above
    tally = [0, 0]          # facet products, samples checked

    def counted(rows, *args):
        f = first(rows, *args)
        tally[0] += f + 1 if f >= 0 else len(rows)
        tally[1] += 1
        return f

    monkeypatch.setattr(voronoi, "_first_above", counted)
    hw = sample_curve(HW, 1001)
    products = checked = found = 0
    for seed in range(10):
        d = random_metric(3, seed)
        for p in count_full_dim_cells_hw(d).parameters:
            tally[:] = [0, 0]
            k = int(np.argmin(np.abs(hw.params - float(p))))
            if dimension_certificate(sample_point(hw, k), hw, d):
                products, checked, found = products + tally[0], checked + tally[1], found + 1
    assert found > 0 and checked >= 1000 * found
    assert checked <= products <= 1.1 * checked


# sha256 of certificate outcomes: a moved x or witness, a changed epsilon
# or a different trial count shows here
CERTIFICATE_SHA256 = "8a623c33dfd66ccb23cc21b747c7d1e4ca830938f282c0e311242daab7d4e5c1"


def _certificate_outcomes():
    """Outcome lines: HW census samples, two more HW samples and circle samples."""
    hw = sample_curve(HW, 1001)
    circle = sample_curve(circle_curve(0.7), 301)
    for seed in range(8):
        d = random_metric(3, seed)
        cases = [(hw, int(np.argmin(np.abs(hw.params - float(p)))))
                 for p in count_full_dim_cells_hw(d).parameters]
        cases += [(hw, 70), (hw, 300)] + [(circle, k) for k in (0, 75, 150)]
        for s, k in cases:
            cert = dimension_certificate(sample_point(s, k), s, d)
            if cert:
                out = f"{cert.x.coords} {cert.witness_y.coords} {cert.epsilon}"
            else:
                out = f"trials {cert.trials}"
            yield f"{seed} {s.count} {k} {out}"


def test_certificate_outcomes_match_pinned_hash():
    h = hashlib.sha256()
    for line in _certificate_outcomes():
        h.update(line.encode())
        h.update(b"\n")
    assert h.hexdigest() == CERTIFICATE_SHA256


def _gate_outcomes():
    """Certificates at HW census samples and circle samples on random metrics."""
    hw = sample_curve(HW, 1001)
    circle = sample_curve(circle_curve(0.7), 301)
    for seed in range(10):              # seeds 4 and 5 are tight
        d = random_metric(3, seed)
        cases = [(hw, int(np.argmin(np.abs(hw.params - float(p)))))
                 for p in count_full_dim_cells_hw(d).parameters]
        cases += [(hw, 300)] + [(circle, k) for k in (0, 150)]
        for s, k in cases:
            yield dimension_certificate(sample_point(s, k), s, d)


def test_float_filter_changes_no_certificate(monkeypatch):
    # the filter only skips trials the exact check would reject, so with it
    # disabled every certificate and NotFound.trials is the same
    with monkeypatch.context() as patch:
        log = _log_trials(patch, filtered=True)
        filtered = list(_gate_outcomes())
    assert any(filtered) and not all(filtered)
    trials, checked = _trials_checked(log)
    assert 0 < checked < trials
    log = _log_trials(monkeypatch)
    assert list(_gate_outcomes()) == filtered
    assert _trials_checked(log) == (trials, trials)


def test_float_gauge_is_within_half_the_band():
    # the band's lemma: |fl gauge - exact gauge| <= band / 2 from a witness-like
    # point y to every sample, band = slack(a0, a1, S + max(|y1|, |y2|))
    rng = np.random.default_rng(5)
    for curve in (HW, circle_curve(0.2), circle_curve(0.7), circle_curve(5)):
        s = sample_curve(curve, 201)
        top = max(np.max(np.abs(s.u1)), np.max(np.abs(s.u2)))
        xs, ys = plot_xy((s.u1, s.u2))
        dist = np.empty(s.count)
        for seed in range(6):
            exact, a0, a1 = _facet_data(random_metric(3, seed))
            for k in rng.integers(0, s.count, 5):
                off = rng.uniform(-0.25, 0.25, 2)
                y1, y2, _ = voronoi.plot_to_point(xs[k] + off[0], ys[k] + off[1])
                _kernels.gauge(a0, a1, s.u1 - y1, s.u2 - y2, dist)
                half = Fraction(_kernels.slack(a0, a1, top + max(abs(y1), abs(y2)))) / 2
                for g, s1, s2 in zip(dist.tolist(), s.u1.tolist(), s.u2.tolist()):
                    w = _facet_values(exact, Fraction(s1) - Fraction(y1), Fraction(s2) - Fraction(y2))
                    assert abs(Fraction(g) - max(w)) <= half


def test_facet_table_cache_is_bounded():
    # one entry per metric: a long run over distinct metrics must not grow
    # the per-metric caches past their bound
    for n in range(1, 1101):
        d = validate_metric([[0, n, n], [n, 0, n], [n, n, 0]])
        _facet_data(d)
        build_ball((Fraction(1, 3),) * 3, 1, d)
    for cache in (_facet_data, unit_hull, ball._generators):
        info = cache.cache_info()
        assert info.maxsize == 1024
        assert info.currsize == info.maxsize


def test_exact_view_is_the_sample_read_exactly_once(metrics, monkeypatch):
    # the certificate reads x and every other sample off one list of
    # Fractions per coordinate, built at the first certificate of a sample
    builds = []
    check = voronoi._check_memory
    monkeypatch.setattr(voronoi, "_check_memory", lambda *args: builds.append(args) or check(*args))
    for curve, k in ((HW, 150), (circle_curve(0.2), 75)):
        sample = sample_curve(curve, 301)
        builds.clear()
        for _ in range(2):
            dimension_certificate(sample_point(sample, k), sample, metrics["unit"])
        size = 280 * sample.count         # 301 on HW, 300 on the closed circle
        assert builds == [(size, f"an exact view of {sample.count} samples needs {size} B")]
        s1, s2 = sample._exact
        assert all(type(v) is Fraction for v in s1 + s2)
        assert s1 == [Fraction(float(u)) for u in sample.u1]
        assert s2 == [Fraction(float(u)) for u in sample.u2]


def test_exact_view_over_the_memory_budget_is_refused(metrics, monkeypatch):
    # 1 MiB of physical memory gives a 256 KiB budget, and the view of 1001
    # samples is charged 280 B each: 280280 B
    sample = sample_curve(HW, 1001)
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}
    monkeypatch.setattr(voronoi.os, "sysconf", pages.__getitem__)
    message = "an exact view of 1001 samples needs 280280 B, over a quarter of physical memory"
    with pytest.raises(ValueError) as err:
        dimension_certificate(sample_point(sample, 500), sample, metrics["unit"])
    assert str(err.value) == message
    assert "_exact" not in vars(sample)


def test_sample_on_the_ball_is_not_above_eps():
    # a sample with a s1 + b s2 - c = eps or -eps exactly lies on the ball:
    # not above eps, so it rejects the witness; one step past it is outside
    eps, a, b, c = Fraction(1, 7), Fraction(3, 5), Fraction(-2, 3), Fraction(1, 11)
    s2 = Fraction(1, 3)
    step = Fraction(1, 10**30)
    for v in (eps, -eps):
        s1 = (v + c - b * s2) / a
        assert voronoi._first_above([[a, b, c]], s1, s2, eps) == -1
        assert voronoi._first_above([[a, b, c]], s1 + (step if v > 0 else -step), s2, eps) == 0


def test_certificate_refuses_a_metric_that_is_not_planar(metrics, monkeypatch):
    # refused before the facet table, whose message names the raster
    monkeypatch.setattr(voronoi, "_facet_data", None)
    sample = sample_curve(HW, 101)
    point = sample_point(sample, 50) + (0.0,)
    with pytest.raises(DimensionMismatch) as err:
        dimension_certificate(point, sample, random_metric(4, 1))
    assert str(err.value) == "dimension certificates are made for n = 2"


def test_certificate_requires_a_sample_point(metrics):
    sample = sample_curve(HW, 101)
    with pytest.raises(ValueError):
        dimension_certificate((0.6, 0.3, 0.1), sample, metrics["unit"])


def test_certificate_refuses_a_point_of_the_wrong_dimension(metrics):
    # the first two coordinates are those of sample 500, (1/4, 1/2, 1/4):
    # reading only the chart would certify that sample for a 4-state point
    sample = sample_curve(HW, 1001)
    for point in ((0.25, 0.5, 0.125, 0.125), (0.25, 0.75)):
        with pytest.raises(DimensionMismatch, match="coordinates, not 3"):
            dimension_certificate(point, sample, metrics["unit"])


def test_face_cone_decomposition_random_points(metrics):
    rng = np.random.default_rng(23)
    center = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    for name in ("unit", "two_cell"):
        ball = build_ball(center, Fraction(1, 5), metrics[name])
        pts = [center]                 # the apex itself: empty face only
        for _ in range(40):
            w = rng.integers(1, 30, size=3)
            pts.append(tuple(Fraction(int(a), int(w.sum())) for a in w))
        # rays through a vertex and through an edge midpoint, both exact
        v0 = ball.hull_vertices[0].coords
        v1 = ball.hull_vertices[1].coords
        pts.append(tuple(2 * a - c for a, c in zip(v0, center)))
        pts.append(tuple((a + b) / 2 for a, b in zip(v0, v1)))
        assert face_cone_decomposition_check(pts, ball)
