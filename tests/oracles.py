"""Independent cross-check oracles for the test suite.

Each oracle computes something the library also computes, by a route that
shares as little code with it as possible:

* ``gauge_distance`` -- the distance as the gauge of the unit ball, via an
  exact two-phase simplex over the ball generators (valid off the simplex),
  and ``ball_generators`` -- the generators (e_i - e_j)/d_ij of any n;
* ``brute_force_distance`` -- the transport cost by enumerating every
  spanning tree of the complete bipartite graph, hopeless asymptotically,
  which is what makes it independent on small instances;
* ``full_transport_distance`` -- the exact transport cost from the network
  simplex on the whole k x k problem in Fractions, with no reduction to
  the moved mass and no integer scaling;
* ``face_cone_membership`` -- is a point in the face cone C_F(x) of a
  ball centered at x, by exact sign tests against the antipodal face;
* ``face_cone_decomposition_check`` -- the face cones of a ball partition
  the plane;
* ``half_ball_test`` -- the curve stays on one side of a line near a point;
* ``planar_tangency_points`` -- tangency parameters by numeric bracketing
  of a tangent field;
* ``veronese_tangent``, ``hw_tangent`` and ``circle_tangent`` -- the
  curves' tangent fields, by differentiating their closed forms, and
  ``veronese_curve`` -- the point map of the Veronese curve of any degree n;
* ``full_gauge`` -- the float gauge as the running max over all m facet
  functionals, without the central-symmetry shortcut of ``_kernels.gauge``;
* ``brute_classify_grid`` -- raster labels from every pixel x sample pair
  under ``full_gauge``, the row kernel the pruned ``classify_grid`` must
  reproduce.

Two helpers at the end are not independent: ``exact_gauge`` and
``classify`` read the library's own facet table (``_facet_data``), so they
only give the tests an exact gauge and a single-point label.  ``chart2``
reads the rational chart (t1, t2) off a point or vector.

Only tests import this module; pytest puts ``tests/`` on ``sys.path``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from polyvor import _kernels
from polyvor._chart import HALF_SQRT3, INV_HALF_SQRT3, plot_xy
from polyvor._kernels import OUTSIDE, _nearest
from polyvor.curve import veronese_point
from polyvor.transport import (
    DimensionMismatch,
    Infeasible,
    _network_simplex,
    as_affine_point,
    exact_point,
)
from polyvor.voronoi import DEFAULT_TIE_TOL, _facet_data, _facet_values


class TooLarge(ValueError):
    """Instance too big for exhaustive enumeration."""


def chart2(coords):
    """Rational chart of a 3-coordinate point or vector: drop the last entry."""
    return coords[0], coords[1]


def _chart_difference(p, q):
    """Rational chart of the vector p - q between two AffinePoints."""
    return p.coords[0] - q.coords[0], p.coords[1] - q.coords[1]


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


def ball_generators(d):
    """Generators (e_i - e_j)/d_ij for all ordered pairs i != j, any n.

    Exact sum-zero tuples, in (i, j) order.
    """
    k = d.n_states
    gens = []
    for i in range(k):
        for j in range(k):
            if i != j:
                g = [Fraction(0)] * k
                g[i] = 1 / d[i, j]
                g[j] = -1 / d[i, j]
                gens.append(tuple(g))
    return gens


def gauge_distance(x, y, generators) -> Fraction:
    """Distance from x to y as the gauge of conv(generators) at y - x.

    Exact: solves  min sum(lambda)  s.t.  G lambda = y - x, lambda >= 0
    by a two-phase simplex on Fractions; the generators are exact sum-zero
    tuples.  Valid anywhere on the hyperplane, in particular outside the
    simplex.  Raises Infeasible when y - x is not in the span of the
    generators.  For the distance to be symmetric the generator set should
    be centrally symmetric (not enforced here).
    """
    x = exact_point(as_affine_point(x))
    y = exact_point(as_affine_point(y))
    if len(x.coords) != len(y.coords):
        raise DimensionMismatch("points live in different simplices")
    gens = [tuple(Fraction(c) for c in g) for g in generators]
    if not gens:
        raise Infeasible("no generators")
    if any(len(g) != len(x.coords) for g in gens):
        raise DimensionMismatch("generator dimension does not match the points")

    # rational chart: sum-zero, last coord redundant
    w = [b - a for a, b in zip(x.coords, y.coords)][:-1]
    n = len(w)
    m = len(gens)
    if all(v == 0 for v in w):
        return Fraction(0)

    # phase 1 tableau with artificial columns; rows flipped to keep rhs >= 0
    T = []
    for r in range(n):
        row = [g[r] for g in gens]
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


def full_transport_distance(mu, nu, d) -> Fraction:
    """Exact transport cost from the network simplex on the whole k x k problem.

    Every state is a source and a sink, the common mass min(mu_i, nu_i)
    included, and the simplex pivots on Fractions; the endpoints are
    clamped and rebalanced as ``wasserstein_distance`` does.
    """
    mu = exact_point(as_affine_point(mu))
    nu = exact_point(as_affine_point(nu))
    sup = [max(c, Fraction(0)) for c in mu.coords]
    dem = [max(c, Fraction(0)) for c in nu.coords]
    sup[sup.index(max(sup))] += 1 - sum(sup)
    dem[dem.index(max(dem))] += 1 - sum(dem)
    k = d.n_states
    cost = [[Fraction(d[i, j]) for j in range(k)] for i in range(k)]
    return _network_simplex(sup, dem, cost)[1]


# ---------------------------------------------------------------------------
# ball and curve geometry


def face_cone_membership(ball, face, y) -> bool:
    """Is y in the cone C_F(x) of points seen from x = ball.center through -F?

    ``face`` is None, the empty face whose cone is {x} itself, or an index
    into the ball's 2m proper faces: i < m is vertex i, and m + a is the
    edge from vertex a to vertex a + 1.  Vertex i + m/2 mirrors vertex i
    through the center (g_ji = -g_ij), so the antipode -F is the index plus
    m/2 within its block.  The cones of proper faces are open (they exclude
    x).  All predicates are exact rational sign tests in the rational chart.
    """
    x = ball.center
    y = exact_point(y)
    if face is None:
        return x.coords == y.coords
    m = ball.vertex_count
    if not 0 <= face < 2 * m:
        raise ValueError(f"face index {face} is not one of the ball's {2 * m} faces")

    u = _chart_difference(y, x)
    if u == (0, 0):
        return False

    opp = (face + m // 2) % m
    av = _chart_difference(ball.hull_vertices[opp], x)
    if face < m:
        cross = u[0] * av[1] - u[1] * av[0]
        dot = u[0] * av[0] + u[1] * av[1]
        return cross == 0 and dot > 0
    bv = _chart_difference(ball.hull_vertices[(opp + 1) % m], x)
    det = av[0] * bv[1] - av[1] * bv[0]
    alpha = (u[0] * bv[1] - u[1] * bv[0]) / det
    beta = (av[0] * u[1] - av[1] * u[0]) / det
    return alpha > 0 and beta > 0


def face_cone_decomposition_check(points, ball) -> bool:
    """Every point must land in exactly one face cone of the ball.

    The empty face (cone {center}) participates, so the cones partition
    the plane and the check is a hard exactly-one count per point.
    """
    faces = [None] + list(range(2 * ball.vertex_count))
    for q in points:
        hits = sum(1 for f in faces if face_cone_membership(ball, f, q))
        if hits != 1:
            return False
    return True


def half_ball_test(point, normal, curve, r: float = 0.05,
                   sample_density: int = 2048) -> bool:
    """Does the curve stay on one side of the line through ``point``?

    ``curve`` is a point map p |-> AffinePoint, as ``hardy_weinberg_curve()``
    returns.  Checks the sign of <normal, c - point> in the plotting chart
    over all curve points sampled at ``sample_density`` parameters that
    fall within Euclidean distance r of the point (the point itself
    excluded).  True for the tangent-line normal at a tangency; False where
    the curve crosses the line.
    """
    p = as_affine_point(point)
    x0, y0 = plot_xy(p.coords)
    nrm = tuple(normal)
    if len(nrm) == 3:
        n0, n1 = plot_xy(nrm)
    else:
        n0, n1 = float(nrm[0]), float(nrm[1])

    ps = np.linspace(0.0, 1.0, sample_density)
    xs = np.empty(sample_density)
    ys = np.empty(sample_density)
    for i, t in enumerate(ps):
        cx, cy = plot_xy(curve(float(t)).coords)
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


def veronese_curve(n: int):
    """The Veronese curve's point map p |-> veronese_point(n, p) of binomial densities."""
    return lambda p: veronese_point(n, p)


def veronese_tangent(n: int, p) -> tuple:
    """Derivative in p of ``veronese_point(n, p)``, a sum-zero tuple.

    Exact for exact p, float for float p.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not isinstance(p, float):
        p = Fraction(p)
    q = 1 - p
    coords = []
    for k in range(n + 1):
        c = math.comb(n, k)
        up = (n - k) * p ** (n - k - 1) * q ** k if k < n else 0 * p
        down = k * p ** (n - k) * q ** (k - 1) if k > 0 else 0 * p
        coords.append(c * (up - down))
    return tuple(coords)


def hw_tangent(p) -> tuple:
    """Tangent of the Hardy-Weinberg curve: (2p, 2 - 4p, 2p - 2)."""
    return veronese_tangent(2, p)


def circle_tangent(radius: float = 0.2):
    """Tangent field of ``circle_curve(radius)``: p |-> a sum-zero float triple.

    The derivative of the plotting-chart circle, taken back through the
    inverse of the (linear) plotting chart.
    """
    def tangent(p):
        th = 2.0 * math.pi * p
        a = -2.0 * math.pi * radius * math.sin(th)
        b = 2.0 * math.pi * radius * math.cos(th)
        t2 = b * INV_HALF_SQRT3
        t1 = a - 0.5 * t2
        return t1, t2, -t1 - t2

    return tangent


def planar_tangency_points(curve, tangent, direction, bracket_count: int = 256):
    """Parameters where ``tangent(p)`` is parallel to ``direction``.

    ``curve`` is the point map p |-> AffinePoint, read only at p = 0 and 1
    to tell a closed curve; ``tangent`` is its tangent field, p |-> a
    sum-zero triple.
    Numeric counterpart of ``count_full_dim_cells_hw``: sign changes of the
    plotting-chart cross product are bracketed on a uniform grid and
    bisected to 1e-12.  Open curves report interior parameters only; on
    closed curves (endpoints coincide) a tangency at the seam is reported
    once, as p = 0.
    """
    if bracket_count < 2:
        raise ValueError("bracket_count must be at least 2")
    dx, dy = plot_xy(tuple(direction))

    def g(p):
        tx, ty = plot_xy(tangent(p))
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

    p0, p1 = curve(0), curve(1)
    x0, y0 = plot_xy(p0.coords)
    x1, y1 = plot_xy(p1.coords)
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


# ---------------------------------------------------------------------------
# raster labels without pruning


def full_gauge(a0, a1, d1, d2, out):
    """Write max_f(a0[f]*d1 + a1[f]*d2) over all m facets into ``out``.

    Each facet value is formed as in ``_kernels.gauge`` (scalar multiply,
    then add), but all m of them enter the running max as they are, so no
    symmetry of the table is assumed.
    """
    term = np.empty_like(out)
    np.multiply(a0[0], d1, out=out)
    out += a1[0] * d2
    for f in range(1, len(a0)):
        np.multiply(a0[f], d1, out=term)
        term += a1[f] * d2
        np.maximum(out, term, out=out)
    return out


def brute_classify_grid(res, a0, a1, s1, s2, tie_tol):
    """Label a res x res grid of pixel centers by nearest sample (s1, s2).

    Pixel centers live on the plotting-chart box [0,1] x [0,sqrt(3)/2],
    row iy = 0 at the bottom; pixels outside the simplex are OUTSIDE.
    """
    labels = np.full((res, res), OUTSIDE, dtype=np.int64)
    px = (np.arange(res) + 0.5) * (1.0 / res)
    dy = HALF_SQRT3 / res
    d1 = np.empty((res, len(s1)))
    dist = np.empty_like(d1)
    for iy in range(res):
        t2 = (iy + 0.5) * dy * INV_HALF_SQRT3
        t1 = px - 0.5 * t2
        t3 = 1.0 - t1 - t2
        inside = (t1 >= 0.0) & (t3 >= 0.0) & (t2 >= 0.0)
        t1in = t1[inside]
        n = len(t1in)
        if n == 0:
            continue
        np.subtract(s1, t1in[:, None], out=d1[:n])
        full_gauge(a0, a1, d1[:n], s2 - t2, dist[:n])
        labels[iy, inside] = _nearest(dist[:n], tie_tol)[0]
    return labels


# ---------------------------------------------------------------------------
# helpers on the library's facet table


def exact_gauge(d, w) -> Fraction:
    """Exact unit-ball gauge of a sum-zero vector via facet functionals."""
    exact, _, _ = _facet_data(d)
    w1, w2 = chart2(w)
    return max(_facet_values(exact, w1, w2))


def classify(point, sample, d) -> int:
    """Index of the strictly nearest sample, or TIE (-2) when ambiguous.

    Two samples tie when their distances differ by less than
    DEFAULT_TIE_TOL.
    """
    _, a0, a1 = _facet_data(d)
    p = as_affine_point(point)
    t1, t2 = float(p.coords[0]), float(p.coords[1])
    lab, _, _ = _kernels.classify_points(t1, t2, a0, a1,
                                         sample.u1, sample.u2, DEFAULT_TIE_TOL)
    return int(lab[0])
