"""Independent cross-check oracles for the test suite.

Each oracle computes something the library also computes, by a route that
shares as little code with it as possible:

* ``gauge_distance`` -- the distance as the gauge of the unit ball, via an
  exact two-phase simplex over the ball generators (valid off the simplex);
* ``brute_force_distance`` -- the transport cost by enumerating every
  spanning tree of the complete bipartite graph, hopeless asymptotically,
  which is what makes it independent on small instances;
* ``face_cone_decomposition_check`` -- the face cones of a ball partition
  the plane;
* ``half_ball_test`` -- the curve stays on one side of a line near a point;
* ``planar_tangency_points`` -- tangency parameters by numeric bracketing.

Only tests import this module; pytest puts ``tests/`` on ``sys.path``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from polyvor import _chart
from polyvor._chart import plot_xy
from polyvor.ball import face_cone_membership
from polyvor.curve import ParametricCurve
from polyvor.transport import (
    DimensionMismatch,
    DirectionVector,
    Infeasible,
    as_affine_point,
    exact_point,
)


class TooLarge(ValueError):
    """Instance too big for exhaustive enumeration."""


def as_direction(obj) -> DirectionVector:
    if isinstance(obj, DirectionVector):
        return obj
    return DirectionVector(tuple(obj))


def exact_direction(v) -> DirectionVector:
    """Exact-rational copy of a vector; the last coordinate absorbs float slack."""
    v = as_direction(v)
    if v.is_exact:
        return v
    head = [Fraction(c) for c in v.coords[:-1]]
    return DirectionVector(tuple(head) + (-sum(head),))


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
# brute-force transport


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


# ---------------------------------------------------------------------------
# ball and curve geometry


def face_cone_decomposition_check(center, points, ball) -> bool:
    """Every point must land in exactly one face cone of the ball at center.

    The empty face (cone {center}) participates, so the cones partition
    the plane and the check is a hard exactly-one count per point.
    """
    x = exact_point(as_affine_point(center, chart="hyperplane"))
    faces = [None] + list(ball.faces)
    for q in points:
        hits = sum(1 for f in faces if face_cone_membership(x, f, q))
        if hits != 1:
            return False
    return True


def half_ball_test(point, normal, curve: ParametricCurve, r: float = 0.05,
                   sample_density: int = 2048) -> bool:
    """Does the curve stay on one side of the line through ``point``?

    Checks the sign of <normal, c - point> in the plotting chart over all
    curve points sampled at ``sample_density`` parameters that fall within
    Euclidean distance r of the point (the point itself excluded).  True
    for the tangent-line normal at a tangency; False where the curve
    crosses the line.
    """
    p = as_affine_point(point, chart="hyperplane")
    x0, y0 = plot_xy(p.coords)
    nrm = tuple(normal.coords) if hasattr(normal, "coords") else tuple(normal)
    if len(nrm) == 3:
        n0, n1 = plot_xy(nrm)
    else:
        n0, n1 = float(nrm[0]), float(nrm[1])

    ps = np.linspace(0.0, 1.0, sample_density)
    xs = np.empty(sample_density)
    ys = np.empty(sample_density)
    for i, t in enumerate(ps):
        cx, cy = plot_xy(curve.eval(float(t)).coords)
        xs[i] = cx
        ys[i] = cy
    dx = xs - x0
    dy = ys - y0
    r2 = dx * dx + dy * dy
    near = (r2 > 1e-18) & (r2 < r * r)
    if not near.any():
        return True
    s = n0 * dx[near] + n1 * dy[near]
    return bool(np.all(s > 0.0) or np.all(s < 0.0))


def planar_tangency_points(curve: ParametricCurve, direction, bracket_count: int = 256):
    """Parameters where the curve's tangent is parallel to ``direction``.

    Numeric counterpart of ``hw_tangency_points``: sign changes of the
    plotting-chart cross product are bracketed on a uniform grid and
    bisected to 1e-12.  Open curves report interior parameters only; on
    closed curves (endpoints coincide) a tangency at the seam is reported
    once, as p = 0.
    """
    if bracket_count < 2:
        raise ValueError("bracket_count must be at least 2")
    if isinstance(direction, DirectionVector):
        dx, dy = _chart.plot_xy(direction.coords)
    else:
        dx, dy = _chart.plot_xy(tuple(direction))

    def g(p):
        tx, ty = _chart.plot_xy(curve.tangent(p).coords)
        return tx * dy - ty * dx

    grid = [i / bracket_count for i in range(bracket_count + 1)]
    vals = [g(p) for p in grid]
    roots = []
    for i in range(bracket_count):
        a, b = grid[i], grid[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0.0:
            while b - a > 1e-12:
                mid = 0.5 * (a + b)
                fm = g(mid)
                if fm == 0.0:
                    a = b = mid
                elif fa * fm < 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
    if vals[-1] == 0.0:
        roots.append(1.0)

    p0, p1 = curve.eval(0), curve.eval(1)
    x0, y0 = _chart.plot_xy(p0.coords)
    x1, y1 = _chart.plot_xy(p1.coords)
    closed = math.hypot(x1 - x0, y1 - y0) < 1e-9

    cleaned = []
    for r in sorted(roots):
        if closed and r > 1.0 - 1e-9:
            r = 0.0
        if not closed and (r < 1e-9 or r > 1.0 - 1e-9):
            continue
        if all(abs(r - s) > 1e-9 for s in cleaned):
            cleaned.append(r)
    return sorted(cleaned)
