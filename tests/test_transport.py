"""Transport solver tests: exact network simplex vs independent oracles.

The spanning-tree brute force enumerates every basic feasible solution of
the transportation polytope, so agreement with it on random instances is
the strongest check we have short of an external LP solver.  The gauge LP
(minimal generator combination) gives a second, geometry-flavored oracle.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from polyvor import (
    AffinePoint,
    DimensionMismatch,
    DirectionVector,
    Infeasible,
    TransportPlan,
    as_affine_point,
    exact_point,
    wasserstein_distance,
)
from polyvor.ball import ball_generators
from polyvor.metrics import random_metric

from oracles import TooLarge, as_direction, brute_force_distance, exact_direction, gauge_distance

F = Fraction


def vertex(i, k=3):
    return AffinePoint(tuple(F(int(i == j)) for j in range(k)))


def random_simplex_point(rng, k, denom=60):
    """Random rational point in the (k-1)-simplex."""
    cuts = sorted(int(rng.integers(0, denom + 1)) for _ in range(k - 1))
    parts = [cuts[0]] + [b - a for a, b in zip(cuts, cuts[1:])] + [denom - cuts[-1]]
    return AffinePoint(tuple(F(p, denom) for p in parts))


# ---------------------------------------------------------------- containers


def test_affine_point_validation():
    with pytest.raises(ValueError):
        AffinePoint((F(1, 2), F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        AffinePoint((F(3, 2), F(-1, 2), F(0)), chart="simplex")
    p = AffinePoint((F(3, 2), F(-1, 2), F(0)), chart="hyperplane")
    assert p.dim == 2 and p.is_exact
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            AffinePoint((bad, 0.5, 0.5), chart="hyperplane")
        with pytest.raises(ValueError):
            DirectionVector((bad, -0.5, 0.5))
    # float tolerance: 1e-9 on the sum, FEAS_TOL = 1e-12 on nonnegativity
    AffinePoint((0.5, 0.5, 5e-10))
    AffinePoint((0.5, 0.5 + 1e-13, -1e-13))
    DirectionVector((0.5, -0.5, 5e-10))
    tiny = F(1, 10 ** 30)
    for bad in ((0.5, 0.5, 2e-9), (0.5, 0.5 + 1e-11, -1e-11),
                (F(1, 2), F(1, 2), tiny), (F(1, 2), F(1, 2) + tiny, -tiny)):
        with pytest.raises(ValueError):
            AffinePoint(bad)
    for bad in ((0.5, -0.5, 2e-9), (F(1, 2), F(-1, 2), tiny)):
        with pytest.raises(ValueError):
            DirectionVector(bad)


def test_point_difference_is_direction():
    p = AffinePoint((F(1, 2), F(1, 4), F(1, 4)))
    q = AffinePoint((F(1, 4), F(1, 4), F(1, 2)))
    v = p - q
    assert isinstance(v, DirectionVector)
    assert sum(v.coords) == 0
    assert q.translate(v).coords == p.coords
    assert (-v).coords == tuple(-c for c in v.coords)
    w = v * F(1, 3)
    assert sum(w.coords) == 0


def test_exact_point_absorbs_float_slack():
    p = as_affine_point((0.1, 0.2, 0.7))
    ex = exact_point(p)
    assert sum(ex.coords) == 1
    assert all(isinstance(c, F) for c in ex.coords)
    v = exact_direction(as_direction((0.25, -0.1, -0.15)))
    assert sum(v.coords) == 0


def test_transport_plan_marginal_check(metrics):
    mu = AffinePoint((F(1, 2), F(1, 2), F(0)))
    nu = AffinePoint((F(0), F(1, 2), F(1, 2)))
    flow = ((F(0), F(1, 2), F(0)), (F(0), F(0), F(1, 2)), (F(0),) * 3)
    plan = TransportPlan(flow, mu, nu)
    assert plan.cost(metrics["line"]) == 1
    bad = ((F(1, 2), F(0), F(0)), (F(0), F(1, 2), F(0)), (F(0),) * 3)
    with pytest.raises(Infeasible):
        TransportPlan(bad, mu, nu)


# ------------------------------------------------------------ frozen oracles


def test_frozen_brute_force_values(metrics):
    mu = AffinePoint((F(1, 2), F(1, 4), F(1, 4)))
    nu = AffinePoint((F(1, 6), F(1, 3), F(1, 2)))
    assert brute_force_distance(mu, nu, metrics["two_cell"]) == F(11, 12)
    assert brute_force_distance(mu, nu, metrics["three_cell"]) == F(5, 12)
    assert brute_force_distance(mu, nu, metrics["line"]) == F(7, 12)


def test_network_simplex_matches_frozen_values(metrics):
    mu = AffinePoint((F(1, 2), F(1, 4), F(1, 4)))
    nu = AffinePoint((F(1, 6), F(1, 3), F(1, 2)))
    cost, plan = wasserstein_distance(mu, nu, metrics["two_cell"])
    assert cost == F(11, 12)
    assert plan.cost(metrics["two_cell"]) == cost


def test_adjacent_mass_shift_on_line_metric(metrics):
    # moving half the mass one step costs exactly a half, twice
    mu = AffinePoint((F(1, 2), F(1, 2), F(0)))
    nu = AffinePoint((F(0), F(1, 2), F(1, 2)))
    cost, _ = wasserstein_distance(mu, nu, metrics["line"])
    assert cost == 1


def test_gauge_distance_frozen_value(metrics):
    x = AffinePoint((F(1, 2), F(1, 3), F(1, 6)))
    y = AffinePoint((F(1, 6), F(1, 2), F(1, 3)))
    g = gauge_distance(x, y, ball_generators(metrics["two_cell"]))
    assert g == F(5, 6)
    assert wasserstein_distance(x, y, metrics["two_cell"])[0] == g


# --------------------------------------------------------- random properties


def test_solver_oracle_equivalence_random():
    rng = np.random.default_rng(20260814)
    for trial in range(60):
        k = 3 if trial % 2 else 4
        d = random_metric(k, int(rng.integers(0, 100000)))
        mu = random_simplex_point(rng, k)
        nu = random_simplex_point(rng, k)
        exact_cost, plan = wasserstein_distance(mu, nu, d)
        assert exact_cost == brute_force_distance(mu, nu, d)
        assert plan.cost(d) == exact_cost
        g = gauge_distance(mu, nu, ball_generators(d))
        assert g == exact_cost
        float_cost, _ = wasserstein_distance(
            as_affine_point(tuple(float(c) for c in mu.coords)),
            as_affine_point(tuple(float(c) for c in nu.coords)), d,
            exact=False)
        assert abs(float_cost - float(exact_cost)) <= 1e-9


def test_vertex_recovery_random():
    rng = np.random.default_rng(99)
    for _ in range(30):
        k = int(rng.integers(3, 5))
        d = random_metric(k, int(rng.integers(0, 100000)))
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                cost, _ = wasserstein_distance(vertex(i, k), vertex(j, k), d)
                assert cost == d[i, j]


def test_metric_axioms_of_wasserstein(metrics):
    rng = np.random.default_rng(7)
    d = metrics["two_cell"]
    for _ in range(40):
        mu = random_simplex_point(rng, 3)
        nu = random_simplex_point(rng, 3)
        rho = random_simplex_point(rng, 3)
        ab, _ = wasserstein_distance(mu, nu, d)
        ba, _ = wasserstein_distance(nu, mu, d)
        assert ab == ba
        assert ab >= 0
        assert (ab == 0) == (mu.coords == nu.coords)
        ac, _ = wasserstein_distance(mu, rho, d)
        cb, _ = wasserstein_distance(rho, nu, d)
        assert ab <= ac + cb


def test_translation_invariance_via_gauge(metrics):
    """W(mu, nu) only depends on mu - nu: it is a polyhedral norm."""
    rng = np.random.default_rng(12)
    d = metrics["three_cell"]
    gens = ball_generators(d)
    for _ in range(20):
        mu = random_simplex_point(rng, 3)
        nu = random_simplex_point(rng, 3)
        cost, _ = wasserstein_distance(mu, nu, d)
        assert gauge_distance(mu, nu, gens) == cost


# ------------------------------------------------------------------- errors


def test_dimension_mismatch(metrics):
    mu = AffinePoint((F(1, 2), F(1, 2)))
    nu = AffinePoint((F(1), F(0), F(0)))
    with pytest.raises(DimensionMismatch):
        wasserstein_distance(mu, nu, metrics["unit"])


def test_brute_force_size_cap():
    # ambient dimension 5 exceeds the enumeration cap (> 4)
    d = random_metric(6, 3)
    mu = random_simplex_point(np.random.default_rng(0), 6)
    nu = random_simplex_point(np.random.default_rng(1), 6)
    with pytest.raises(TooLarge):
        brute_force_distance(mu, nu, d)


def test_plan_with_wrong_target_marginal_rejected():
    nu = AffinePoint((F(1), F(0), F(0)))
    flow = ((F(1), F(0), F(0)), (F(0),) * 3, (F(0),) * 3)
    with pytest.raises(Infeasible):
        TransportPlan(flow, nu, AffinePoint((F(0), F(1), F(0))))
