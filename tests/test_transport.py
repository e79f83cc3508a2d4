"""Transport solver tests: exact network simplex vs independent oracles.

The spanning-tree brute force enumerates every basic feasible solution of
the transportation polytope, so agreement with it on random instances is
the strongest check we have short of an external LP solver.  The gauge LP
(minimal generator combination) gives a second, geometry-flavored oracle.
The full k x k simplex checks the reduction to the moved mass up to
k = 12, and scipy's HiGHS checks the cost up to k = 60.  Points are exact
only: a float coordinate is read at its exact binary value, and a point
whose binary values do not sum to exactly 1 is refused.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyvor import (
    AffinePoint,
    DimensionMismatch,
    Infeasible,
    TransportPlan,
    as_affine_point,
    wasserstein_distance,
)
from polyvor.metrics import random_metric

from oracles import (
    TooLarge,
    ball_generators,
    brute_force_distance,
    full_transport_distance,
    gauge_distance,
)

F = Fraction


def vertex(i, k=3):
    return AffinePoint(tuple(F(int(i == j)) for j in range(k)))


def random_simplex_point(rng, k, denom=60):
    """Random rational point in the (k-1)-simplex."""
    cuts = sorted(int(rng.integers(0, denom + 1)) for _ in range(k - 1))
    parts = [cuts[0]] + [b - a for a, b in zip(cuts, cuts[1:])] + [denom - cuts[-1]]
    return AffinePoint(tuple(F(p, denom) for p in parts))


def rebalanced_floats(coords):
    """The exact point that floats of ``coords`` used to be solved at.

    Before points were exact only, a float endpoint was read as its first
    coordinates' binary values with the last set to 1 minus their sum, then
    clamped at 0 with the clamped mass given to the largest entry.  The
    pinned plans keep solving those same endpoints.
    """
    head = [F(float(c)) for c in coords[:-1]]
    point = [max(c, F(0)) for c in head + [1 - sum(head)]]
    point[point.index(max(point))] += 1 - sum(point)
    return tuple(point)


# ---------------------------------------------------------------- containers


def test_affine_point_validation():
    with pytest.raises(ValueError):
        AffinePoint((F(1, 2), F(1, 2), F(1, 2)))
    # a point of the hyperplane outside the simplex is a valid point
    p = AffinePoint((F(3, 2), F(-1, 2), F(0)))
    assert all(isinstance(c, F) for c in p.coords)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            AffinePoint((bad, 0.5, 0.5))
    # no tolerance on the sum, for floats either
    tiny = F(1, 10 ** 30)
    for bad in ((0.5, 0.5, 5e-10), (0.1, 0.2, 0.7), (F(1, 2), F(1, 2), tiny)):
        with pytest.raises(ValueError, match="sum to 1"):
            AffinePoint(bad)


def test_float_coordinates_are_read_exactly(metrics):
    # dyadic floats are their own binary values, which sum to 1 exactly
    mu, nu = (0.5, 0.25, 0.25), (0.25, 0.5, 0.25)
    assert as_affine_point(mu).coords == (F(1, 2), F(1, 4), F(1, 4))
    cost, plan = wasserstein_distance(mu, nu, metrics["line"])
    assert cost == F(1, 4) and plan.source == as_affine_point(mu)
    # the binary values of 0.1, 0.2 and 0.7 miss 1, so the point is refused
    assert sum(map(F, (0.1, 0.2, 0.7))) != 1
    with pytest.raises(ValueError, match="sum to 1"):
        wasserstein_distance((0.1, 0.2, 0.7), nu, metrics["line"])
    rng = np.random.default_rng(20261020)
    for k in (3, 5, 8, 12):
        d = random_metric(k, 200 + k)
        mu, nu = random_simplex_point(rng, k, 64), random_simplex_point(rng, k, 64)
        floats = [tuple(float(c) for c in p.coords) for p in (mu, nu)]
        assert wasserstein_distance(*floats, d) == wasserstein_distance(mu, nu, d)


def test_transport_plan_marginal_check(metrics):
    mu = AffinePoint((F(1, 2), F(1, 2), F(0)))
    nu = AffinePoint((F(0), F(1, 2), F(1, 2)))
    flow = ((F(0), F(1, 2), F(0)), (F(0), F(0), F(1, 2)), (F(0),) * 3)
    plan = TransportPlan(flow, mu, nu)
    assert plan.cost(metrics["line"]) == 1
    bad = ((F(1, 2), F(0), F(0)), (F(0), F(1, 2), F(0)), (F(0),) * 3)
    with pytest.raises(Infeasible):
        TransportPlan(bad, mu, nu)
    with pytest.raises(ValueError, match="shape"):
        TransportPlan(flow[:2], mu, nu)


# sha256 of repr((cost, plan.flow)) over _pinned_solves(): costs and
# marginals can hold while the flow moves to another optimal vertex, and
# that shows here
PLANS_SHA256 = "811a7d749062525040c9d26816621b12876e53522e49ff2d79efc8177d6b43be"


def _pinned_solves():
    rng = np.random.default_rng(20261018)
    for k, seed in ((3, 11), (4, 12), (6, 13), (9, 14)):
        d = random_metric(k, seed)
        mu, nu = random_simplex_point(rng, k), random_simplex_point(rng, k)
        yield wasserstein_distance(mu, nu, d)
        yield wasserstein_distance(rebalanced_floats(mu.coords), rebalanced_floats(nu.coords), d)
    # floats with a slightly negative coordinate, clamped to 0 and rebalanced
    d = random_metric(4, 15)
    yield wasserstein_distance(rebalanced_floats((0.25, 0.5 + 1e-13, -1e-13, 0.25)),
                               rebalanced_floats((0.1, 0.2, 0.3, 0.4)), d)
    mu = random_simplex_point(rng, 6)
    yield wasserstein_distance(mu, mu, random_metric(6, 16))
    # a pivot with a tie for the leaving arc, which Bland's rule breaks
    mu = tuple(F(w, 46) for w in (6, 4, 0, 2, 10, 7, 10, 7))
    nu = tuple(F(w, 69) for w in (3, 1, 13, 5, 1, 2, 29, 15))
    yield wasserstein_distance(mu, nu, random_metric(8, 1182))


def test_plans_match_pinned_hash():
    h = hashlib.sha256()
    for cost, plan in _pinned_solves():
        h.update(repr((cost, plan.flow)).encode())
    assert h.hexdigest() == PLANS_SHA256


def _random_solves():
    rng = np.random.default_rng(20261019)
    for k in (3, 5, 8, 12, 20):
        d = random_metric(k, 100 + k)
        mu, nu = random_simplex_point(rng, k), random_simplex_point(rng, k)
        yield wasserstein_distance(mu, nu, d)
        yield wasserstein_distance(rebalanced_floats(mu.coords), rebalanced_floats(nu.coords), d)


@pytest.mark.parametrize("solves", [_pinned_solves, _random_solves])
def test_plans_move_only_the_excess(solves):
    """flow[i][i] = min(sup_i, dem_i); off the diagonal only S -> D carries mass."""
    for cost, plan in solves():
        sup, dem = plan.source.coords, plan.target.coords
        k = len(sup)
        for i in range(k):
            assert plan.flow[i][i] == min(sup[i], dem[i])
            for j in range(k):
                if i != j and plan.flow[i][j] != 0:
                    assert sup[i] > dem[i] and sup[j] < dem[j]


@pytest.mark.parametrize("exact", [True, False])
def test_transport_endpoints_must_lie_in_the_simplex(metrics, exact):
    """Every coordinate must be >= 0, floats at their binary values too."""
    d = metrics["unit"]
    inside = (F(1, 3),) * 3
    tiny = F(1, 10 ** 30)
    if exact:
        bads = ((F(3, 2), F(-1, 2), F(0)), (F(1, 2), F(1, 2) + tiny, -tiny))
        edge = (F(1, 2), F(1, 2), F(0))
    else:
        bads = ((0.5, 0.75, -0.25), (0.5, 0.5 + 2 ** -40, -(2 ** -40)))
        edge = (0.5, 0.5, 0.0)
    for bad in bads:
        for mu, nu in ((bad, inside), (inside, bad)):
            with pytest.raises(ValueError, match="closed simplex"):
                wasserstein_distance(mu, nu, d)
    for mu, nu in ((edge, inside), (inside, edge)):
        cost, plan = wasserstein_distance(mu, nu, d)
        assert cost == F(1, 3) and min(plan.source.coords) >= 0


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


@st.composite
def transport_instances(draw):
    """A random metric on 3..12 states and two rational simplex points."""
    k = draw(st.integers(3, 12))
    d = random_metric(k, draw(st.integers(0, 10 ** 6)))
    points = []
    for _ in range(2):
        w = draw(st.lists(st.integers(0, 20), min_size=k, max_size=k))
        w[draw(st.integers(0, k - 1))] += 1
        points.append(AffinePoint(tuple(F(x, sum(w)) for x in w)))
    return d, *points


@settings(derandomize=True, deadline=None, max_examples=60)
@given(transport_instances())
def test_reduced_solve_equals_full_solve(instance):
    d, mu, nu = instance
    cost, plan = wasserstein_distance(mu, nu, d)
    assert cost == full_transport_distance(mu, nu, d)
    assert plan.cost(d) == cost


@pytest.mark.parametrize("k", [20, 40, 60])
def test_costs_match_highs(k):
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(k)
    d = random_metric(k, 7 * k)
    mu, nu = random_simplex_point(rng, k), random_simplex_point(rng, k)
    rows = np.kron(np.eye(k), np.ones(k))           # sum_j x_ij = mu_i
    cols = np.kron(np.ones(k), np.eye(k))           # sum_i x_ij = nu_j
    res = linprog(np.array([[float(d[i, j]) for j in range(k)] for i in range(k)]).ravel(),
                  A_eq=np.vstack([rows, cols]),
                  b_eq=np.array([float(c) for c in mu.coords + nu.coords]),
                  bounds=(0, None), method="highs")
    assert res.status == 0
    cost, _ = wasserstein_distance(mu, nu, d)
    assert abs(float(cost) - res.fun) <= 1e-9


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
