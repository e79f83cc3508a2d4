"""Shared fixtures: the worked example metrics and a session raster cache.

The metrics are named for what they produce on the Hardy-Weinberg curve:
``unit`` (all off-diagonal distances 1, hexagonal ball, one cell),
``line`` (path metric on three states, quadrilateral ball),
``two_cell`` and ``three_cell`` (two and three full-dimensional cells).
"""

import pytest

from polyvor import (
    hardy_weinberg_curve,
    raster_voronoi,
    sample_curve,
    validate_metric,
)

UNIT = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
LINE = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
TWO_CELL = [[0, 2, 3], [2, 0, 4], [3, 4, 0]]
THREE_CELL = [[0, 2, 1], [2, 0, 2], [1, 2, 0]]


@pytest.fixture(scope="session")
def metrics():
    return {
        "unit": validate_metric(UNIT),
        "line": validate_metric(LINE),
        "two_cell": validate_metric(TWO_CELL),
        "three_cell": validate_metric(THREE_CELL),
    }


@pytest.fixture(scope="session")
def hw():
    return hardy_weinberg_curve()


@pytest.fixture(scope="session")
def hw_raster(hw, metrics):
    """Memoized Hardy-Weinberg rasters keyed by (metric name, R, samples).

    The 512x512 rasters take a few seconds each, so they are computed once
    and reused by the voronoi unit tests and the acceptance suite.
    """
    samples = {}
    rasters = {}

    def get(name, resolution=512, n_samples=1001):
        key = (name, resolution, n_samples)
        if key not in rasters:
            if n_samples not in samples:
                samples[n_samples] = sample_curve(hw, n_samples)
            rasters[key] = raster_voronoi(samples[n_samples], metrics[name],
                                          resolution)
        return rasters[key]

    return get
