"""Points of the hyperplane sum(t) = 1 and Wasserstein distances on it.

``AffinePoint`` holds exact (Fraction) coordinates: a float is read at its
exact binary value, and the coordinates must sum to exactly 1.  Points
live on the whole hyperplane: the polyhedral Wasserstein distance is a
norm there, so balls and certificate witnesses may leave the simplex.
Only the two transport endpoints must be probability distributions, and
``wasserstein_distance`` checks that.

``wasserstein_distance`` leaves min(mu_i, nu_i) in place at every state i
and solves the transportation LP only from the excess states S (mu > nu)
to the deficit states D (mu < nu).  That is optimal: any plan that routes
mass i -> l -> j through a state l can send it i -> j directly at no more
cost, by the triangle inequality d(i, j) <= d(i, l) + d(l, j), so some
optimal plan keeps the common mass on the diagonal, moves only mu - nu
and costs as much as the reduced |S| x |D| problem.  A dense network
simplex solves that problem exactly: the reduced supplies and demands are
scaled by the lcm of their denominators, and the costs by the lcm of
theirs, so every pivot runs on Python ints; a positive scaling keeps
every comparison, so Bland's rule pivots as it would on Fractions, and
the flow and total are divided back once.  A caller that wants floats
rounds the exact answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class DimensionMismatch(ValueError):
    """Operands live in simplices of different dimension."""


class Infeasible(ValueError):
    """The LP has no feasible solution, e.g. flow marginals that miss the endpoints."""


@dataclass(frozen=True)
class AffinePoint:
    """A point of the hyperplane sum(t) = 1, inside the simplex or not.

    Coordinates are read with ``Fraction``, floats at their exact binary
    values; NaN and infinities raise ValueError, and the coordinates must
    sum to exactly 1.  Simplex membership is checked where it matters, at
    the transport endpoints of ``wasserstein_distance``.
    """

    coords: tuple

    def __post_init__(self):
        try:
            coords = tuple(map(Fraction, self.coords))
        except (ValueError, OverflowError):     # Fraction(nan), Fraction(inf)
            raise ValueError("coordinates must be finite numbers") from None
        object.__setattr__(self, "coords", coords)
        if sum(coords) != 1:
            raise ValueError("coordinates must sum to 1")


def as_affine_point(obj) -> AffinePoint:
    if isinstance(obj, AffinePoint):
        return obj
    return AffinePoint(tuple(obj))


def _point_of(obj, k: int, message: str) -> AffinePoint:
    """``as_affine_point(obj)`` with k coordinates, else DimensionMismatch(message).

    The count goes first: a short point is short, not one off the hyperplane.
    """
    coords = obj.coords if isinstance(obj, AffinePoint) else tuple(obj)
    if len(coords) != k:
        raise DimensionMismatch(message)
    return obj if isinstance(obj, AffinePoint) else AffinePoint(coords)


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
        # a plan moves mass on few arcs: summing only nonzero entries gives
        # the same exact marginals
        out, into = [0] * k, [0] * k
        for i, row in enumerate(self.flow):
            for j, v in enumerate(row):
                if v:
                    out[i] += v
                    into[j] += v
        if out != list(self.source.coords) or into != list(self.target.coords):
            raise Infeasible("flow marginals do not match the endpoints")

    def cost(self, d) -> Fraction:
        """Total cost of the plan under the metric ``d``."""
        k = len(self.flow)
        return sum(d[i, j] * self.flow[i][j] for i in range(k) for j in range(k))


def _network_simplex(supply, demand, cost):
    """Primal network simplex on a dense transportation instance.

    Runs elementwise on exact numbers: ints from ``wasserstein_distance``,
    Fractions from the test oracle.  Bland's smallest index rule picks both
    the entering arc and the leaving arc, so it cannot cycle.  Returns
    (flow matrix, objective).
    """
    m, n = len(supply), len(demand)

    # northwest-corner initial basic feasible solution
    flow = [[0] * n for _ in range(m)]
    basis = set()
    ra, rb = list(supply), list(demand)
    i = j = 0
    while len(basis) < m + n - 1:
        t = min(ra[i], rb[j])
        flow[i][j] = t
        basis.add((i, j))
        ra[i] -= t
        rb[j] -= t
        if i == m - 1:
            j += 1
        elif j == n - 1:
            i += 1
        elif ra[i] <= 0:
            i += 1
        else:
            j += 1

    for _ in range(500 * m * n):
        # one walk of the basis tree from row 0 (rows 0..m-1, cols m..m+n-1)
        # gives the node potentials and the parent and depth of every node
        adj = [[] for _ in range(m + n)]
        for (a, b) in basis:
            adj[a].append(m + b)
            adj[m + b].append(a)
        pot = [None] * (m + n)
        parent = [None] * (m + n)
        depth = [0] * (m + n)
        pot[0] = 0
        stack = [0]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if pot[w] is None:
                    c = cost[u][w - m] if u < m else cost[w][u - m]
                    pot[w] = c - pot[u]
                    parent[w] = u
                    depth[w] = depth[u] + 1
                    stack.append(w)

        entering = None
        for a in range(m):
            for b in range(n):
                if (a, b) in basis:
                    continue
                if cost[a][b] - pot[a] - pot[m + b] < 0:
                    entering = (a, b)
                    break
            if entering is not None:
                break
        if entering is None:
            break

        # the cycle is the entering arc plus the tree path between its ends;
        # climbing from each end to their common ancestor, the tree arcs
        # alternate -, +, -, ... and theta is limited by the '-' arcs
        ei, ej = entering
        ends, arcs = [ei, m + ej], ([], [])
        while ends[0] != ends[1]:
            s = 0 if depth[ends[0]] >= depth[ends[1]] else 1
            w, p = ends[s], parent[ends[s]]
            arcs[s].append((w, p - m) if w < m else (p, w - m))
            ends[s] = p
        minus = arcs[0][0::2] + arcs[1][0::2]
        plus = arcs[0][1::2] + arcs[1][1::2]
        theta = min(flow[a][b] for (a, b) in minus)
        leaving = min((a, b) for (a, b) in minus if flow[a][b] == theta)

        flow[ei][ej] = theta
        for (a, b) in minus:
            flow[a][b] -= theta
        for (a, b) in plus:
            flow[a][b] += theta
        flow[leaving[0]][leaving[1]] = 0
        basis.remove(leaving)
        basis.add(entering)
    else:
        raise RuntimeError("network simplex failed to converge")

    total = sum(cost[a][b] * flow[a][b] for a in range(m) for b in range(n))
    return flow, total


def wasserstein_distance(mu, nu, d):
    """Wasserstein distance between two simplex points under metric ``d``.

    Returns ``(cost, plan)`` where the plan attains the cost, both in
    Fractions, computed on scaled integers; the plan's marginals are the
    endpoints themselves.  An endpoint with a coordinate below 0 raises
    ValueError.
    """
    k = d.n_states
    mu, nu = (_point_of(p, k, "points and metric must share one state set") for p in (mu, nu))
    if min(mu.coords) < 0 or min(nu.coords) < 0:
        raise ValueError("transport endpoints must lie in the closed simplex")
    sup, dem = mu.coords, nu.coords

    # the mass min(sup_i, dem_i) stays at i; only the excess S moves to the deficit D
    flow = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        flow[i][i] = min(sup[i], dem[i])
    S = [i for i in range(k) if sup[i] > dem[i]]
    D = [j for j in range(k) if sup[j] < dem[j]]
    rs = [sup[i] - dem[i] for i in S]
    rd = [dem[j] - sup[j] for j in D]
    rc = [[Fraction(d[i, j]) for j in D] for i in S]
    total = Fraction(0)
    if S and D:
        ms = math.lcm(*(x.denominator for x in rs + rd))
        mc = math.lcm(*(c.denominator for row in rc for c in row))
        rflow, total = _network_simplex([int(x * ms) for x in rs], [int(x * ms) for x in rd],
                                        [[int(c * mc) for c in row] for row in rc])
        total = Fraction(total, ms * mc)
        for a, i in enumerate(S):
            for b, j in enumerate(D):
                flow[i][j] = Fraction(rflow[a][b], ms)
    plan = TransportPlan(tuple(tuple(r) for r in flow), mu, nu)
    return total, plan
