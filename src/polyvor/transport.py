"""Wasserstein distances on the hyperplane sum(t) = 1.

``wasserstein_distance`` solves the transportation LP with a dense network
simplex that runs unchanged on Fractions (exact path) or floats.  For
points allowed to leave the simplex, ``gauge_distance`` evaluates the same
metric as the gauge of the polyhedral unit ball, via an exact two-phase
simplex.  ``brute_force_distance`` enumerates every spanning tree of the
complete bipartite graph — hopeless asymptotically, which is exactly what
makes it an independent oracle for small instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

FEAS_TOL = 1e-12   # float-path feasibility tolerance
OPT_TOL = 1e-9     # float-path optimality tolerance


class DimensionMismatch(ValueError):
    """Operands live in simplices of different dimension."""


class TooLarge(ValueError):
    """Instance too big for exhaustive enumeration."""


class Infeasible(ValueError):
    """Target vector is not in the cone/span of the generators."""


def _is_exact(values) -> bool:
    return all(not isinstance(v, float) for v in values)


def _coerce_coords(seq, exact=None):
    """Normalize a coordinate sequence to all-Fraction or all-float."""
    vals = list(seq)
    if exact is None:
        exact = _is_exact(vals)
    if exact:
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
        total = sum(self.coords)
        if self.is_exact:
            if total != 1:
                raise ValueError("coordinates must sum to 1")
            if self.chart == "simplex" and any(c < 0 for c in self.coords):
                raise ValueError("simplex-chart coordinates must be >= 0")
        else:
            if abs(total - 1.0) > 1e-9:
                raise ValueError("coordinates must sum to 1")
            if self.chart == "simplex" and any(c < -FEAS_TOL for c in self.coords):
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
        total = sum(self.coords)
        if self.is_exact:
            if total != 0:
                raise ValueError("direction coordinates must sum to 0")
        elif abs(total) > 1e-9:
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


def as_direction(obj) -> DirectionVector:
    if isinstance(obj, DirectionVector):
        return obj
    return DirectionVector(tuple(obj))


def exact_point(p, chart=None) -> AffinePoint:
    """Exact-rational copy of a point; the last coordinate absorbs float slack.

    Float coordinates are converted to their exact binary values, then the
    last coordinate is recomputed as 1 minus the rest so the affine
    constraint holds exactly (a perturbation below 1e-9 by construction).
    """
    p = as_affine_point(p) if not isinstance(p, AffinePoint) else p
    if p.is_exact:
        return p if chart is None else AffinePoint(p.coords, chart=chart)
    head = [Fraction(c) for c in p.coords[:-1]]
    coords = tuple(head) + (1 - sum(head),)
    return AffinePoint(coords, chart=chart or "hyperplane")


def exact_direction(v) -> DirectionVector:
    """Exact-rational copy of a vector; the last coordinate absorbs float slack."""
    v = as_direction(v)
    if v.is_exact:
        return v
    head = [Fraction(c) for c in v.coords[:-1]]
    return DirectionVector(tuple(head) + (-sum(head),))


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


# ---------------------------------------------------------------------------
# gauge of a polyhedral ball, as an exact LP


def _pivot(T, basis, r, c):
    piv = T[r][c]
    T[r] = [x / piv for x in T[r]]
    for rr in range(len(T)):
        if rr != r and T[rr][c] != 0:
            f = T[rr][c]
            T[rr] = [x - f * y for x, y in zip(T[rr], T[r])]
    basis[r] = c


def _simplex_min(T, basis, costs):
    """Minimize costs'x over the tableau rows; Bland's rule, exact."""
    m = len(T[0]) - 1
    while True:
        lam = [costs[basis[r]] for r in range(len(T))]
        entering = None
        for c in range(m):
            if costs[c] is None:
                continue
            red = costs[c] - sum(l * T[r][c] for r, l in enumerate(lam))
            if red < 0:
                entering = c
                break
        if entering is None:
            return
        ratio, row = None, None
        for r in range(len(T)):
            if T[r][entering] > 0:
                q = T[r][-1] / T[r][entering]
                if ratio is None or q < ratio or (q == ratio and basis[r] < basis[row]):
                    ratio, row = q, r
        if row is None:
            raise RuntimeError("unbounded LP")
        _pivot(T, basis, row, entering)


def gauge_distance(x, y, generators) -> Fraction:
    """Distance from x to y as the gauge of conv(generators) at y - x.

    Exact: solves  min sum(lambda)  s.t.  G lambda = y - x, lambda >= 0
    by a two-phase simplex on Fractions.  Valid anywhere on the hyperplane,
    in particular outside the simplex.  Raises Infeasible when y - x is not
    in the span of the generators.  For the distance to be symmetric the
    generator set should be centrally symmetric (not enforced here).
    """
    x = exact_point(as_affine_point(x, chart="hyperplane"))
    y = exact_point(as_affine_point(y, chart="hyperplane"))
    if len(x.coords) != len(y.coords):
        raise DimensionMismatch("points live in different simplices")
    gens = [exact_direction(g) for g in generators]
    if not gens:
        raise Infeasible("no generators")
    if any(len(g.coords) != len(x.coords) for g in gens):
        raise DimensionMismatch("generator dimension does not match the points")

    w = (y - x).coords[:-1]  # rational chart: sum-zero, last coord redundant
    n = len(w)
    m = len(gens)
    if all(v == 0 for v in w):
        return Fraction(0)

    # phase 1 tableau with artificial columns; rows flipped to keep rhs >= 0
    T = []
    for r in range(n):
        row = [g.coords[r] for g in gens]
        b = w[r]
        if b < 0:
            row = [-a for a in row]
            b = -b
        T.append(row + [Fraction(int(i == r)) for i in range(n)] + [b])
    basis = [m + r for r in range(n)]

    phase1 = [Fraction(0)] * m + [Fraction(1)] * n
    _simplex_min(T, basis, phase1)
    if sum(T[r][-1] for r in range(n) if basis[r] >= m) != 0:
        raise Infeasible("target vector is outside the span of the generators")

    # drive zero-level artificials out of the basis; drop redundant rows
    for r in range(len(T) - 1, -1, -1):
        if basis[r] >= m:
            col = next((c for c in range(m) if T[r][c] != 0), None)
            if col is None:
                del T[r]
                del basis[r]
            else:
                _pivot(T, basis, r, col)

    phase2 = [Fraction(1)] * m + [None] * n  # artificials barred from entering
    _simplex_min(T, basis, phase2)
    return sum(T[r][-1] for r in range(len(T)))


# ---------------------------------------------------------------------------
# brute-force oracle


@lru_cache(maxsize=None)
def _tree_orders(k):
    """Spanning trees of K_{k,k} with precomputed leaf-elimination orders.

    Each tree is a tuple of (edge_index, leaf_node) steps; edge e = (e // k,
    e % k), nodes 0..k-1 are rows and k..2k-1 are columns.  Cached per k:
    enumeration is the expensive part, reused across instances.
    """
    n_nodes = 2 * k
    trees = []
    for combo in itertools.combinations(range(k * k), n_nodes - 1):
        parent = list(range(n_nodes))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        acyclic = True
        for e in combo:
            ra, rb = find(e // k), find(k + e % k)
            if ra == rb:
                acyclic = False
                break
            parent[ra] = rb
        if not acyclic:
            continue

        deg = [0] * n_nodes
        inc = [[] for _ in range(n_nodes)]
        for e in combo:
            i, j = e // k, k + e % k
            deg[i] += 1
            deg[j] += 1
            inc[i].append(e)
            inc[j].append(e)
        used = set()
        order = []
        leaves = [v for v in range(n_nodes) if deg[v] == 1]
        while leaves:
            v = leaves.pop()
            if deg[v] != 1:    # consumed from the other end already
                continue
            e = next(x for x in inc[v] if x not in used)
            used.add(e)
            order.append((e, v))
            u = (k + e % k) if v == e // k else e // k
            deg[v] -= 1
            deg[u] -= 1
            if deg[u] == 1:
                leaves.append(u)
        trees.append(tuple(order))
    return tuple(trees)


def brute_force_distance(mu, nu, d) -> Fraction:
    """Exact transport cost by trying every spanning tree of K_{k,k}.

    Every vertex of the transportation polytope is the flow of some
    spanning tree, so the minimum over feasible trees is the distance.
    Kept deliberately naive as an independent check on the simplex;
    refuses instances with n > 4.
    """
    mu = exact_point(as_affine_point(mu))
    nu = exact_point(as_affine_point(nu))
    k = d.n_states
    if len(mu.coords) != k or len(nu.coords) != k:
        raise DimensionMismatch("points and metric must share one state set")
    if d.n > 4:
        raise TooLarge("brute force is limited to n <= 4")

    denom = math.lcm(*[c.denominator for c in mu.coords + nu.coords])
    res0 = [int(c * denom) for c in mu.coords] + [int(c * denom) for c in nu.coords]
    cden = math.lcm(*[d[i, j].denominator for i in range(k) for j in range(k) if i != j])
    cint = [[int(d[i, j] * cden) for j in range(k)] for i in range(k)]

    best = None
    for order in _tree_orders(k):
        res = res0.copy()
        total = 0
        feasible = True
        for e, leaf in order:
            i, j = e // k, e % k
            f = res[leaf]
            if f < 0:
                feasible = False
                break
            other = (k + j) if leaf == i else i
            res[leaf] = 0
            res[other] -= f
            total += cint[i][j] * f
        if feasible and (best is None or total < best):
            best = total
    if best is None:
        raise Infeasible("no feasible tree flow (unbalanced marginals?)")
    return Fraction(best, cden * denom)
