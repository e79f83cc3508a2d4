"""Counts of full-dimensional Voronoi cells, exact and as an upper bound."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from polyvor.curve import TangencyReport, hw_tangency_points
from polyvor.metrics import FiniteMetric


class OddFacetCount(ValueError):
    """Centrally symmetric polytopes have an even number of facets."""


@dataclass(frozen=True)
class CellCensus:
    """Full-dimensional Voronoi cell count of the HW curve under a metric."""

    count: int
    regime: str             # strict_case_1|2|3 or boundary
    report: TangencyReport

    @property
    def parameters(self):
        return tuple(e.p_star for e in self.report.entries)


def count_full_dim_cells_hw(d: FiniteMetric) -> CellCensus:
    """Census of full-dimensional cells: 1 + [d12 > d13] + [d23 > d13].

    The count is the number of ball-edge tangencies along the curve; the
    regime records where d13 sits relative to d12 and d23 (boundary when
    it equals either, in which case a tangency degenerates).
    """
    report = hw_tangency_points(d)
    count = len(report.entries)
    # with no degenerate record d13 equals neither d12 nor d23, so the
    # count names the strict case
    regime = "boundary" if report.degenerate else f"strict_case_{count}"
    return CellCensus(count, regime, report)


def full_dim_upper_bound(facet_count: int, dual_degree: int) -> Fraction:
    """Upper bound facet_count * dual_degree / 2 on full-dimensional cells.

    Each full-dimensional cell consumes a tangency between the curve and a
    ball edge; a dual curve of degree delta meets each of the facet_count/2
    edge direction classes in at most delta points.
    """
    facet_count = int(facet_count)
    dual_degree = int(dual_degree)
    if facet_count <= 0 or dual_degree <= 0:
        raise ValueError("facet count and dual degree must be positive")
    if facet_count % 2 != 0:
        raise OddFacetCount(f"facet count {facet_count} is odd")
    return Fraction(facet_count * dual_degree, 2)
