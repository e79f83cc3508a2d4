"""Cell census and upper-bound tests."""

from fractions import Fraction

import numpy as np
import pytest

from polyvor import (
    OddFacetCount,
    count_full_dim_cells_hw,
    full_dim_upper_bound,
)
from polyvor.metrics import random_metric

F = Fraction


def test_census_on_the_three_examples(metrics):
    got = {name: count_full_dim_cells_hw(metrics[name])
           for name in ("unit", "two_cell", "three_cell")}
    assert got["unit"].count == 1
    assert got["two_cell"].count == 2
    assert got["three_cell"].count == 3
    # the all-equal metric sits on both equality strata
    assert got["unit"].regime == "boundary"
    assert got["two_cell"].regime == "strict_case_2"
    assert got["three_cell"].regime == "strict_case_3"


def test_census_parameters_property(metrics):
    census = count_full_dim_cells_hw(metrics["three_cell"])
    assert census.parameters == (F(1, 3), F(1, 2), F(2, 3))
    assert census.parameters == tuple(e.p_star for e in census.entries)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("seed", [4, 5])
def test_census_parameters_are_distinct_on_tight_metrics(seed):
    # both metrics are tight, and their quadrilateral balls make two closed-form
    # tangencies coincide: seed 4 gives 5/13, 11/19, 11/19 and seed 5 gives
    # 11/16, 11/16
    params = count_full_dim_cells_hw(random_metric(3, seed)).parameters
    assert len(set(params)) == len(params)


def test_census_equals_entry_count_random():
    rng = np.random.default_rng(1234)
    for _ in range(300):
        d = random_metric(3, int(rng.integers(0, 10 ** 6)))
        census = count_full_dim_cells_hw(d)
        assert census.count == len(census.entries)
        formula = 1 + (d[0, 1] > d[0, 2]) + (d[1, 2] > d[0, 2])
        assert census.count == formula
        assert 1 <= census.count <= 3


def test_strict_regimes_partition_random():
    rng = np.random.default_rng(88)
    seen = set()
    for _ in range(200):
        d = random_metric(3, int(rng.integers(0, 10 ** 6)))
        census = count_full_dim_cells_hw(d)
        seen.add(census.regime)
        if census.regime == "strict_case_1":
            assert census.count == 1
        elif census.regime == "strict_case_2":
            assert census.count == 2
        elif census.regime == "strict_case_3":
            assert census.count == 3
        else:
            assert census.regime == "boundary"
    assert "boundary" in seen    # the closure makes equalities common


def test_upper_bound_values():
    assert full_dim_upper_bound(6, 2) == 6
    assert full_dim_upper_bound(4, 2) == 4
    assert isinstance(full_dim_upper_bound(6, 2), F)
    assert full_dim_upper_bound(6, 3) == 9


def test_upper_bound_rejects_bad_input():
    with pytest.raises(OddFacetCount):
        full_dim_upper_bound(5, 2)
    with pytest.raises(ValueError):
        full_dim_upper_bound(0, 2)
    with pytest.raises(ValueError):
        full_dim_upper_bound(6, 0)


@pytest.mark.parametrize("facets, degree", [(6.7, 2), (4.5, 2), (6, 2.9), (F(6), 2),
                                            (True, 2), (6, True)])
def test_upper_bound_refuses_non_integers(facets, degree):
    # truncating to int would read (6.7, 2) and (6, 2.9) as (6, 2), a bound of 6
    with pytest.raises(ValueError, match="must be ints"):
        full_dim_upper_bound(facets, degree)


def test_census_never_exceeds_bound_random():
    from polyvor import build_ball
    rng = np.random.default_rng(4096)
    c = (F(1, 3),) * 3
    for _ in range(120):
        d = random_metric(3, int(rng.integers(0, 10 ** 6)))
        census = count_full_dim_cells_hw(d)
        facets = build_ball(c, 1, d).vertex_count
        assert census.count <= full_dim_upper_bound(facets, 2)
