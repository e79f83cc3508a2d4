"""Counts of full-dimensional Voronoi cells, exact and as an upper bound.

A Voronoi cell of a point x on the Hardy-Weinberg curve is
full-dimensional exactly when some edge of the ball is tangent to the
curve at x, so the census counts ball-edge tangencies.  Tangency
parameters for the three edge-direction classes of a planar ball (closed
form, exact):

    (a) exists iff d12 > d13, at p = (d12 - d13) / (2 d12 - d13)
    (b) exists iff d23 > d13, at p = d23 / (2 d23 - d13)
    (c) always exists,        at p = d23 / (d12 + d23)

When d13 equals d12 or d23 the corresponding tangency degenerates (the
parameter leaves (0,1)); this is reported, not silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from polyvor.ball import edge_directions
from polyvor.metrics import FiniteMetric, _as_int


class OddFacetCount(ValueError):
    """Centrally symmetric polytopes have an even number of facets."""


@dataclass(frozen=True)
class TangencyEntry:
    p_star: Fraction
    edge_case: str          # 'a', 'b' or 'c'
    direction: tuple        # the class's edge direction, a sum-zero Fraction triple


@dataclass(frozen=True)
class CellCensus:
    """Full-dimensional Voronoi cell count of the HW curve under a metric."""

    entries: tuple          # TangencyEntry, sorted by p_star
    degenerate: tuple       # human-readable records of equality coincidences

    @property
    def count(self) -> int:
        return len(self.entries)

    @property
    def regime(self) -> str:
        # boundary when d13 equals d12 or d23; else the count names the strict case
        return "boundary" if self.degenerate else f"strict_case_{self.count}"

    @property
    def parameters(self):
        return tuple(e.p_star for e in self.entries)


def count_full_dim_cells_hw(d: FiniteMetric) -> CellCensus:
    """Census of full-dimensional cells: 1 + [d12 > d13] + [d23 > d13].

    One entry per ball-edge tangency along the curve, by the closed form.
    """
    dir_a, dir_b, dir_c = edge_directions(d)
    d12, d13, d23 = d[0, 1], d[0, 2], d[1, 2]
    entries = []
    degenerate = []

    if d12 > d13:
        entries.append(TangencyEntry((d12 - d13) / (2 * d12 - d13), "a", dir_a))
    elif d12 == d13:
        degenerate.append("d12 == d13: case (a) tangency degenerates to p = 0")

    if d23 > d13:
        entries.append(TangencyEntry(d23 / (2 * d23 - d13), "b", dir_b))
    elif d23 == d13:
        degenerate.append("d23 == d13: case (b) tangency degenerates to p = 1")

    entries.append(TangencyEntry(d23 / (d12 + d23), "c", dir_c))

    entries.sort(key=lambda e: e.p_star)
    return CellCensus(tuple(entries), tuple(degenerate))


def full_dim_upper_bound(facet_count: int, dual_degree: int) -> Fraction:
    """Upper bound facet_count * dual_degree / 2 on full-dimensional cells.

    Each full-dimensional cell consumes a tangency between the curve and a
    ball edge; a dual curve of degree delta meets each of the facet_count/2
    edge direction classes in at most delta points.
    """
    facet_count = _as_int(facet_count, "facet count")
    dual_degree = _as_int(dual_degree, "dual degree")
    if facet_count <= 0 or dual_degree <= 0:
        raise ValueError("facet count and dual degree must be positive")
    if facet_count % 2 != 0:
        raise OddFacetCount(f"facet count {facet_count} is odd")
    return Fraction(facet_count * dual_degree, 2)
