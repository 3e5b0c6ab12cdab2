"""Eulerian numbers and polynomials by several independent routes.

The Eulerian polynomial of degree ell is the numerator of the rational
function sum_{k>=1} k^ell x^k = A_ell(x) / (1-x)^(ell+1); its coefficients
A(ell, k) form the Eulerian triangle.  The triangle route uses the descent
recurrence, the closed form uses an alternating binomial sum, and the series
route extracts the numerator from the truncated power-sum series, so the
three can cross-check each other.

Degree-zero convention: A_0(x) = 1, matching both the k >= 0 power-sum
normalization and the exponential generating function whose t^0 term is 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .polynomial import Poly, binom_poly
from .series import Series, expand_quotient, series_t_divide


@lru_cache(maxsize=None)
def _triangle_rows(ell: int) -> tuple[tuple[int, ...], ...]:
    rows: list[tuple[int, ...]] = []
    prev: tuple[int, ...] = ()
    for n in range(1, ell + 1):
        if n == 1:
            row = (1,)
        else:
            row = tuple(
                k * (prev[k - 1] if k <= n - 1 else 0)
                + (n - k + 1) * (prev[k - 2] if k >= 2 else 0)
                for k in range(1, n + 1)
            )
        rows.append(row)
        prev = row
    return tuple(rows)


@dataclass(frozen=True)
class EulerianTriangle:
    """Triangular table of Eulerian numbers A(n, k), 1 <= k <= n <= ell."""

    ell: int
    rows: tuple[tuple[int, ...], ...]

    def row(self, n: int) -> tuple[int, ...]:
        if not 1 <= n <= self.ell:
            raise IndexError(f"row {n} outside table range 1..{self.ell}")
        return self.rows[n - 1]

    def entry(self, n: int, k: int) -> int:
        row = self.row(n)
        if not 1 <= k <= n:
            return 0
        return row[k - 1]

    def to_csv(self) -> str:
        return "\n".join(",".join(str(v) for v in row) for row in self.rows)

    def to_json(self) -> str:
        return json.dumps([[str(v) for v in row] for row in self.rows])


def eulerian_triangle(ell: int) -> EulerianTriangle:
    """Eulerian triangle with rows 1..ell built by the descent recurrence."""
    if ell < 0:
        raise ValueError("triangle size must be >= 0")
    return EulerianTriangle(ell, _triangle_rows(ell))


def eulerian_number(ell: int, k: int) -> int:
    """A(ell, k) from the recurrence table; 0 outside 1 <= k <= ell."""
    if ell < 1 or not 1 <= k <= ell:
        return 0
    return _triangle_rows(ell)[-1][k - 1]


def eulerian_number_closed_form(ell: int, k: int) -> int:
    """A(ell, k) as the alternating sum of binomials times shifted powers.

    Independent of the recurrence route; returns 0 for k outside 1..ell.
    """
    if ell < 1:
        raise ValueError("closed form needs ell >= 1")
    if k <= 0 or k > ell:
        return 0
    total = 0
    for j in range(k + 1):
        total += (-1) ** j * comb(ell + 1, j) * (k - j) ** ell
    return total


@lru_cache(maxsize=None)
def eulerian_poly(ell: int) -> Poly:
    """The Eulerian polynomial A_ell(x); A_0(x) = 1 by convention."""
    if ell < 0:
        raise ValueError("degree must be >= 0")
    if ell == 0:
        return Poly.one()
    return Poly((0,) + _triangle_rows(ell)[-1])


def power_sum_series(ell: int, order: int) -> Series:
    """Truncated power-sum series sum_{k=1..order} k^ell x^k."""
    if ell < 0:
        raise ValueError("exponent must be >= 0")
    return Series((0,) + tuple(k**ell for k in range(1, order + 1)), order)


def series_coefficient_polynomial(f: Poly, ell: int) -> Poly:
    """The polynomial giving the series coefficients of f(x)/(1-x)^(ell+1).

    For deg f <= ell those coefficients are values of a unique polynomial of
    degree <= ell; it is recovered by Newton forward differences on the
    nodes 0..ell and then verified on the ell+1 following nodes, so a bad
    input fails loudly instead of returning garbage.
    """
    if ell < 0:
        raise ValueError("degree bound must be >= 0")
    if f.degree > ell:
        raise ValueError("numerator degree exceeds the polynomial-coefficient bound")
    series = expand_quotient(f, ell + 1, 2 * ell + 1)
    values = [series.coefficient(k) for k in range(ell + 1)]
    result = Poly()
    diffs = list(values)
    for j in range(ell + 1):
        result = result + binom_poly(0, j) * diffs[0]
        diffs = [diffs[i + 1] - diffs[i] for i in range(len(diffs) - 1)]
    for k in range(ell + 1, 2 * ell + 2):
        if result(k) != series.coefficient(k):
            raise ValueError(
                "series coefficients are not polynomial of the expected degree"
            )
    return result


def eulerian_egf_check(order: int) -> tuple[bool, Series, Series]:
    """Compare the Eulerian exponential generating function with its kernel.

    Left side: sum_ell A_ell(x) t^ell / ell! through t^order.  Right side:
    the closed kernel (1-x) / (1 - x*exp(t(1-x))), computed after cancelling
    the common factor 1-x so the denominator has unit constant term, then
    divided as truncated series.  Returns (agree, lhs, rhs).
    """
    if order < 1:
        raise ValueError("truncation order must be >= 1")
    lhs = Series(
        tuple(eulerian_poly(l) / factorial(l) for l in range(order + 1)), order
    )
    one_minus_x = Poly((1, -1))
    den_coeffs: list[Poly] = [Poly.one()]
    for n in range(1, order + 1):
        den_coeffs.append(Poly((0, -1)) * one_minus_x ** (n - 1) / factorial(n))
    rhs = series_t_divide(
        Series.constant(Poly.one(), order), Series(den_coeffs, order)
    )
    return lhs == rhs, lhs, rhs


def signed_egf_kernel(order: int) -> Series:
    """2/(1 + e^{2t}) through t^order; n! times its t^n coefficient is A_n(-1)."""
    den = Series(
        (2,) + tuple(Fraction(2**n, factorial(n)) for n in range(1, order + 1)), order
    )
    return series_t_divide(Series.constant(2, order), den)


def eulerian_at_minus_one(ell: int) -> Fraction:
    """A_ell(-1) by direct evaluation.

    ``signed_egf_kernel`` gives the same values by an independent route;
    the audit compares the two.
    """
    return eulerian_poly(ell)(-1)
