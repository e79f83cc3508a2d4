"""Finite metric spaces on the states {1, ..., n+1}.

Cost matrices are stored as exact rationals (`fractions.Fraction`) so that
everything computed from them downstream -- ball vertices, tangency
parameters, cell counts -- stays exact.  Floats are taken at their exact
binary value; strings are read exactly by ``rational``: "0.1" is 1/10.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction


def rational(x) -> Fraction:
    """``Fraction(x)``, refusing a string exponent over 4300 (Python's int-digit limit)."""
    if isinstance(x, str):
        # Fraction would build 10 ** exponent, in time growing faster than the
        # exponent; the first five digits after the last "e" decide
        _, e, exp = x.lower().rpartition("e")
        exp = exp.strip().lstrip("+-").replace("_", "").lstrip("0")
        if e and exp.isdecimal() and int(exp[:5]) > 4300:
            raise ValueError(f"exponent of {x!r} is over 4300 in magnitude")
    return Fraction(x)


def _as_int(x, name) -> int:
    """``operator.index(x)``; a bool or a non-integer raises ValueError naming ``name``."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an int, got {x!r}")


class MetricError(ValueError):
    """Base class for cost-matrix validation failures."""


class NotSymmetric(MetricError):
    def __init__(self, i, j):
        self.indices = (i, j)
        super().__init__(f"entry ({i},{j}) differs from entry ({j},{i})")


class NonzeroDiagonal(MetricError):
    def __init__(self, i):
        self.indices = (i,)
        super().__init__(f"diagonal entry ({i},{i}) is not zero")


class NonpositiveOffDiagonal(MetricError):
    def __init__(self, i, j):
        self.indices = (i, j)
        super().__init__(f"off-diagonal entry ({i},{j}) is not positive")


class TriangleViolation(MetricError):
    def __init__(self, i, j, k):
        self.indices = (i, j, k)
        super().__init__(f"d({i},{j}) > d({i},{k}) + d({k},{j})")


@dataclass(frozen=True)
class FiniteMetric:
    """A metric on {1, ..., n+1}, stored as a symmetric matrix of Fractions.

    Hashable, so derived structures (unit balls, facet functionals) can be
    cached per metric.  Index with 0-based pairs: ``d[i, j]``.
    """

    entries: tuple

    @property
    def n_states(self) -> int:
        return len(self.entries)

    @property
    def n(self) -> int:
        """Dimension of the ambient simplex: number of states minus one."""
        return len(self.entries) - 1

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i][j]


def _entry(x, i, j) -> Fraction:
    """One matrix entry as a Fraction; non-finite or malformed is a MetricError.

    Booleans are malformed too, although Python counts them as integers.
    """
    if not isinstance(x, bool):
        try:
            return rational(x)
        except (TypeError, ValueError, ArithmeticError):
            pass
    raise MetricError(f"entry ({i + 1},{j + 1}) is not a finite rational: {x!r}")


def validate_metric(matrix) -> FiniteMetric:
    """Check metric axioms on a square matrix and return a FiniteMetric.

    Entries may be ints, Fractions, finite floats or "p/q" strings.  Checks
    run in a fixed order (conversion, diagonal, symmetry, positivity,
    triangle) and the raised error carries the offending 1-based indices.
    """
    try:
        rows = [list(r) for r in matrix]
    except TypeError:  # a scalar where the matrix or a row should be
        rows = []
    k = len(rows)
    if k < 2 or any(len(r) != k for r in rows):
        raise MetricError("cost matrix must be square with at least 2 states")
    m = [[_entry(x, i, j) for j, x in enumerate(r)] for i, r in enumerate(rows)]
    for i in range(k):
        if m[i][i] != 0:
            raise NonzeroDiagonal(i + 1)
    for i in range(k):
        for j in range(i + 1, k):
            if m[i][j] != m[j][i]:
                raise NotSymmetric(i + 1, j + 1)
            if m[i][j] <= 0:
                raise NonpositiveOffDiagonal(i + 1, j + 1)
    for i in range(k):
        for j in range(k):
            for l in range(k):
                if m[i][j] > m[i][l] + m[l][j]:
                    raise TriangleViolation(i + 1, j + 1, l + 1)
    return FiniteMetric(tuple(tuple(row) for row in m))


def random_metric(n_states: int, seed: int) -> FiniteMetric:
    """Random valid metric on ``n_states`` points, deterministic per int seed.

    Draws small random rationals p/q (p in 1..24, q in 1..4) for the
    off-diagonal entries and repairs triangle violations with a
    shortest-path (Floyd-Warshall) closure, which preserves symmetry and
    positivity.  The closure runs on the entries scaled by 12, a common
    denominator, so it adds ints.  Rational entries keep exact equalities
    reachable, so boundary strata of downstream counts do occur.
    """
    n_states = _as_int(n_states, "n_states")
    if n_states < 2:
        raise MetricError("need at least 2 states")
    rng = random.Random(_as_int(seed, "seed"))
    k = n_states
    m = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            m[i][j] = m[j][i] = 12 * rng.randint(1, 24) // rng.randint(1, 4)
    for l in range(k):
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                via = m[i][l] + m[l][j]
                if via < m[i][j]:
                    m[i][j] = via
    return FiniteMetric(tuple(tuple(Fraction(x, 12) for x in row) for row in m))
