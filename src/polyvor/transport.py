"""Points of the hyperplane sum(t) = 1 and Wasserstein distances on it.

``AffinePoint`` and ``DirectionVector`` hold exact (Fraction) or float
coordinates.  ``wasserstein_distance`` solves the transportation LP with a
dense network simplex that runs unchanged on Fractions (exact path) or
floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

SUM_TOL = 1e-9     # float-path tolerance on sum(t) = 1 and sum(v) = 0
FEAS_TOL = 1e-12   # float-path feasibility tolerance
OPT_TOL = 1e-9     # float-path optimality tolerance


class DimensionMismatch(ValueError):
    """Operands live in simplices of different dimension."""


class Infeasible(ValueError):
    """The LP has no feasible solution, e.g. flow marginals that miss the endpoints."""


def _is_exact(values) -> bool:
    return all(not isinstance(v, float) for v in values)


def _coerce_coords(seq):
    """Normalize a coordinate sequence to all-Fraction or all-float."""
    vals = list(seq)
    if _is_exact(vals):
        return tuple(Fraction(v) for v in vals)
    floats = tuple(float(v) for v in vals)
    if not all(math.isfinite(v) for v in floats):
        raise ValueError("coordinates must be finite")
    return floats


@dataclass(frozen=True)
class AffinePoint:
    """A point of the hyperplane sum(t) = 1.

    ``chart`` records whether the point is asserted to lie in the closed
    simplex ("simplex") or merely on the hyperplane ("hyperplane").  Exact
    points get exact validation; float points get tolerance 1e-9 on the sum
    and -1e-12 on simplex nonnegativity.
    """

    coords: tuple
    chart: str = "simplex"

    def __post_init__(self):
        object.__setattr__(self, "coords", _coerce_coords(self.coords))
        if self.chart not in ("simplex", "hyperplane"):
            raise ValueError(f"unknown chart {self.chart!r}")
        sum_tol, neg_tol = (0, 0) if self.is_exact else (SUM_TOL, FEAS_TOL)
        if abs(sum(self.coords) - 1) > sum_tol:
            raise ValueError("coordinates must sum to 1")
        if self.chart == "simplex" and any(c < -neg_tol for c in self.coords):
            raise ValueError("simplex-chart coordinates must be >= 0")

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    @property
    def is_exact(self) -> bool:
        return _is_exact(self.coords)

    def __sub__(self, other: "AffinePoint") -> "DirectionVector":
        if len(self.coords) != len(other.coords):
            raise DimensionMismatch("points live in different simplices")
        return DirectionVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def translate(self, v: "DirectionVector", scale=1) -> "AffinePoint":
        if len(self.coords) != len(v.coords):
            raise DimensionMismatch("vector dimension does not match point")
        return AffinePoint(
            tuple(c + scale * w for c, w in zip(self.coords, v.coords)),
            chart="hyperplane",
        )


@dataclass(frozen=True)
class DirectionVector:
    """A vector in the sum-zero hyperplane (difference of affine points)."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", _coerce_coords(self.coords))
        if abs(sum(self.coords)) > (0 if self.is_exact else SUM_TOL):
            raise ValueError("direction coordinates must sum to 0")

    @property
    def is_exact(self) -> bool:
        return _is_exact(self.coords)

    def __neg__(self) -> "DirectionVector":
        return DirectionVector(tuple(-c for c in self.coords))

    def __add__(self, other: "DirectionVector") -> "DirectionVector":
        return DirectionVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "DirectionVector") -> "DirectionVector":
        return DirectionVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __mul__(self, s) -> "DirectionVector":
        return DirectionVector(tuple(c * s for c in self.coords))

    __rmul__ = __mul__


def as_affine_point(obj, chart="simplex") -> AffinePoint:
    if isinstance(obj, AffinePoint):
        return obj
    return AffinePoint(tuple(obj), chart=chart)


def exact_point(p) -> AffinePoint:
    """Exact-rational copy of a point; the last coordinate absorbs float slack.

    Float coordinates are converted to their exact binary values, then the
    last coordinate is recomputed as 1 minus the rest so the affine
    constraint holds exactly (a perturbation below 1e-9 by construction).
    """
    p = as_affine_point(p)
    if p.is_exact:
        return p
    head = [Fraction(c) for c in p.coords[:-1]]
    return AffinePoint(tuple(head) + (1 - sum(head),), chart="hyperplane")


@dataclass(frozen=True)
class TransportPlan:
    """A feasible transport plan: flow[i][j] moves mass from state i to j."""

    flow: tuple
    source: AffinePoint
    target: AffinePoint

    def __post_init__(self):
        k = len(self.source.coords)
        if len(self.flow) != k or any(len(r) != k for r in self.flow):
            raise ValueError("flow matrix shape does not match the marginals")
        exact = _is_exact([x for row in self.flow for x in row])
        for i in range(k):
            row = sum(self.flow[i])
            col = sum(self.flow[j][i] for j in range(k))
            if exact:
                if row != self.source.coords[i] or col != self.target.coords[i]:
                    raise Infeasible("flow marginals do not match the endpoints")
            else:
                if (abs(row - self.source.coords[i]) > FEAS_TOL
                        or abs(col - self.target.coords[i]) > FEAS_TOL):
                    raise Infeasible("flow marginals do not match the endpoints")

    def cost(self, d) -> Fraction:
        """Total cost of the plan under the metric ``d``."""
        k = len(self.flow)
        return sum(d[i, j] * self.flow[i][j] for i in range(k) for j in range(k))


def _network_simplex(supply, demand, cost, opt_tol):
    """Primal network simplex on a dense transportation instance.

    Runs elementwise on whatever number type the inputs carry: Fractions
    for the exact path (opt_tol = 0), floats otherwise.  Bland's smallest
    index rule picks both the entering arc and the leaving arc, so the
    exact path cannot cycle.  Returns (flow matrix, objective).
    """
    k = len(supply)
    zero = sum(supply) * 0

    # northwest-corner initial basic feasible solution
    flow = [[zero] * k for _ in range(k)]
    basis = []
    ra, rb = list(supply), list(demand)
    i = j = 0
    while len(basis) < 2 * k - 1:
        t = min(ra[i], rb[j])
        flow[i][j] = t
        basis.append((i, j))
        ra[i] -= t
        rb[j] -= t
        if i == k - 1:
            j += 1
        elif j == k - 1:
            i += 1
        elif ra[i] <= zero:
            i += 1
        else:
            j += 1

    basis_set = set(basis)
    max_iter = 500 * k * k
    for _ in range(max_iter):
        # node potentials from the basis tree (rows 0..k-1, cols k..2k-1)
        adj = [[] for _ in range(2 * k)]
        for (a, b) in basis:
            adj[a].append(k + b)
            adj[k + b].append(a)
        pot = [None] * (2 * k)
        pot[0] = zero
        stack = [0]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if pot[w] is None:
                    c = cost[u][w - k] if u < k else cost[w][u - k]
                    pot[w] = c - pot[u]
                    stack.append(w)

        entering = None
        for a in range(k):
            for b in range(k):
                if (a, b) in basis_set:
                    continue
                if cost[a][b] - pot[a] - pot[k + b] < -opt_tol:
                    entering = (a, b)
                    break
            if entering is not None:
                break
        if entering is None:
            break

        # unique tree path from row node to col node of the entering arc
        ei, ej = entering
        parent = {ei: None}
        stack = [ei]
        while stack:
            u = stack.pop()
            if u == k + ej:
                break
            for w in adj[u]:
                if w not in parent:
                    parent[w] = u
                    stack.append(w)
        path = [k + ej]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        path.reverse()  # node sequence ei ... k+ej

        # arcs along the path alternate -,+,-,... starting at the row of the
        # entering arc; theta is limited by the '-' arcs
        cells = []
        for a, b in zip(path, path[1:]):
            cell = (a, b - k) if a < k else (b, a - k)
            cells.append(cell)
        minus = cells[0::2]
        theta = min(flow[a][b] for (a, b) in minus)
        leaving = min((a, b) for (a, b) in minus if flow[a][b] == theta)

        flow[ei][ej] = theta
        for idx, (a, b) in enumerate(cells):
            if idx % 2 == 0:
                flow[a][b] -= theta
            else:
                flow[a][b] += theta
        flow[leaving[0]][leaving[1]] = zero
        basis_set.remove(leaving)
        basis_set.add(entering)
        basis[basis.index(leaving)] = entering
    else:
        raise RuntimeError("network simplex failed to converge")

    total = sum(cost[a][b] * flow[a][b] for a in range(k) for b in range(k))
    return flow, total


def wasserstein_distance(mu, nu, d, *, exact=True):
    """Wasserstein distance between two simplex points under metric ``d``.

    Returns ``(cost, plan)`` where the plan attains the cost.  The exact
    path (default) computes on Fractions; ``exact=False`` runs the same
    simplex on floats with tolerances FEAS_TOL/OPT_TOL.
    """
    mu = as_affine_point(mu)
    nu = as_affine_point(nu)
    if len(mu.coords) != len(nu.coords) or len(mu.coords) != d.n_states:
        raise DimensionMismatch("points and metric must share one state set")
    if any(c < (0 if mu.is_exact else -FEAS_TOL) for c in mu.coords) or \
       any(c < (0 if nu.is_exact else -FEAS_TOL) for c in nu.coords):
        raise ValueError("transport endpoints must lie in the closed simplex")

    if exact:
        mu_e, nu_e = exact_point(mu), exact_point(nu)
        sup = [max(c, Fraction(0)) for c in mu_e.coords]
        dem = [max(c, Fraction(0)) for c in nu_e.coords]
        # clamping can only have removed float slack; rebalance the largest entry
        sup[sup.index(max(sup))] += 1 - sum(sup)
        dem[dem.index(max(dem))] += 1 - sum(dem)
        costm = [[d[i, j] for j in range(d.n_states)] for i in range(d.n_states)]
        flow, total = _network_simplex(sup, dem, costm, 0)
        src = AffinePoint(tuple(sup))
        dst = AffinePoint(tuple(dem))
    else:
        sup = [max(float(c), 0.0) for c in mu.coords]
        dem = [max(float(c), 0.0) for c in nu.coords]
        costm = [[float(d[i, j]) for j in range(d.n_states)] for i in range(d.n_states)]
        flow, total = _network_simplex(sup, dem, costm, OPT_TOL)
        src = AffinePoint(tuple(sup))
        dst = AffinePoint(tuple(dem))
    plan = TransportPlan(tuple(tuple(r) for r in flow), src, dst)
    return total, plan
