"""Metric container and validation tests."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from polyvor import (
    FiniteMetric,
    MetricError,
    NonpositiveOffDiagonal,
    NonzeroDiagonal,
    NotSymmetric,
    TriangleViolation,
    validate_metric,
)
from polyvor.metrics import random_metric


def test_validate_examples(metrics):
    for d in metrics.values():
        assert isinstance(d, FiniteMetric)
        assert d.n_states == 3
        for row in d.entries:
            for v in row:
                assert isinstance(v, Fraction)


def test_string_rational_entries():
    d = validate_metric([[0, "1/2"], ["1/2", 0]])
    assert d[0, 1] == Fraction(1, 2)
    d = validate_metric([[0, "10000"], ["10000", 0]])     # no "e": no exponent
    assert d[0, 1] == 10000
    with pytest.raises(MetricError, match=r"entry \(1,2\) is not a finite rational"):
        validate_metric([[0, "1e5000"], ["1e5000", 0]])


def test_non_square_rejected():
    with pytest.raises(MetricError):
        validate_metric([[0, 1], [1, 0], [1, 1]])
    with pytest.raises(MetricError):
        validate_metric([[0]])
    for bad in (5, [1, 2], [[0, 1], 2]):
        with pytest.raises(MetricError, match="must be square"):
            validate_metric(bad)


def test_boolean_entries_rejected():
    with pytest.raises(MetricError, match=r"entry \(1,2\) is not a finite rational: True"):
        validate_metric([[0, True, True], [True, 0, True], [True, True, 0]])
    with pytest.raises(MetricError, match=r"entry \(1,1\) is not a finite rational: False"):
        validate_metric([[False, 1], [1, 0]])


def test_indexing_and_symmetry_access(metrics):
    d = metrics["two_cell"]
    assert d[0, 1] == 2
    assert d[1, 0] == 2
    assert d[0, 2] == 3
    assert d[1, 2] == 4
    assert d.n_states == 3
    assert d.n == 2


def test_nonzero_diagonal():
    with pytest.raises(NonzeroDiagonal) as exc:
        validate_metric([[1, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert exc.value.indices == (1,)


def test_not_symmetric():
    with pytest.raises(NotSymmetric) as exc:
        validate_metric([[0, 1, 1], [2, 0, 1], [1, 1, 0]])
    assert exc.value.indices == (1, 2)


def test_nonpositive_off_diagonal():
    with pytest.raises(NonpositiveOffDiagonal) as exc:
        validate_metric([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    assert exc.value.indices == (1, 2)


def test_triangle_violation_reports_1_based_triple():
    # d(1,3) = 3 > d(1,2) + d(2,3) = 2
    with pytest.raises(TriangleViolation) as exc:
        validate_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    assert exc.value.indices == (1, 3, 2)
    assert isinstance(exc.value, MetricError)


def test_errors_are_metric_errors():
    for bad, err in (
        ([[0, -1], [-1, 0]], NonpositiveOffDiagonal),
        ([[0, 1], [2, 0]], NotSymmetric),
        ([[0, "1/0"], ["1/0", 0]], MetricError),
        ([[0, float("inf")], [float("inf"), 0]], MetricError),
        ([[0, float("nan")], [float("nan"), 0]], MetricError),
        ([[0, None], [None, 0]], MetricError),
    ):
        with pytest.raises(err):
            validate_metric(bad)


def test_random_metric_is_valid_and_deterministic():
    rng = np.random.default_rng(4821)
    for _ in range(50):
        seed = int(rng.integers(0, 10_000))
        for n in (2, 3, 4):
            d = random_metric(n, seed)
            again = random_metric(n, seed)
            assert d.entries == again.entries
            assert validate_metric(d.entries).entries == d.entries
            for i in range(n):
                for j in range(n):
                    assert isinstance(d[i, j], Fraction)
                    assert d[i, j] == d[j, i]


def test_random_metric_refuses_seeds_that_are_not_ints():
    # random.Random(None) seeds from the OS, so two calls would differ
    for seed in (None, "a", 1.5, True):
        with pytest.raises(ValueError, match=f"seed must be an int, got {seed!r}"):
            random_metric(3, seed)
    assert random_metric(3, np.int64(7)) == random_metric(3, 7)


# sha256 of random_metric(k, seed) for k in (3, 4, 6, 20, 40) and seeds 0..4,
# pinned from the closure on Fractions that the integer closure replaced
RANDOM_METRIC_SHA256 = "8b4a71bd09a9006a16df722d584e34e18d49e5950f0d59042c988039df4fb8c3"


def test_random_metric_matches_pinned_hash():
    h = hashlib.sha256()
    for k in (3, 4, 6, 20, 40):
        for seed in range(5):
            d = random_metric(k, seed)
            h.update(";".join(",".join(str(x) for x in row) for row in d.entries).encode())
            h.update(b"\n")
    assert h.hexdigest() == RANDOM_METRIC_SHA256


def test_metric_hashable(metrics):
    seen = {metrics["unit"]: "a", metrics["line"]: "b"}
    assert seen[validate_metric([[0, 1, 1], [1, 0, 1], [1, 1, 0]])] == "a"
