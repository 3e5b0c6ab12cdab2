"""Bernoulli polynomials and their exact bridges to Eulerian polynomials.

B_ell(x) is defined through the exponential generating function
t*exp(x*t)/(exp(t) - 1); the removable zero of the denominator at t = 0 is
handled by cancelling one factor of t, after which the series division has
a unit constant term.  B_ell(0) is the Bernoulli number (B_1(0) = -1/2
convention, as the generating function dictates).

The bridges implemented here are exact rational identities: the Bernoulli
number in terms of the Eulerian polynomial at -1, the power-sum formula,
the shift-operator form of the Bernoulli difference B_{ell+1}(t) -
B_{ell+1}(0), and the negative zeta values that both routes must agree on.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .eulerian import eulerian_at_minus_one, eulerian_poly
from .polynomial import Poly, binom_poly
from .series import Series, series_t_divide
from .shift import apply_shift


@lru_cache(maxsize=None)
def bernoulli_poly(ell: int) -> Poly:
    """B_ell(x), monic of degree ell, from the generating-function division."""
    if ell < 0:
        raise ValueError("degree must be >= 0")
    num = Series(
        tuple(Poly.monomial(n) / factorial(n) for n in range(ell + 1)), ell
    )
    # (exp(t) - 1)/t has coefficient 1/(n+1)! at t^n.
    den = Series(tuple(Fraction(1, factorial(n + 1)) for n in range(ell + 1)), ell)
    quotient = series_t_divide(num, den)
    return quotient.coefficient(ell) * factorial(ell)


def bernoulli_number(ell: int) -> Fraction:
    """The Bernoulli number B_ell(0)."""
    return bernoulli_poly(ell)(0)


def bernoulli_number_from_eulerian(ell: int) -> Fraction:
    """B_ell(0) computed from A_{ell-1}(-1), entirely Eulerian-side.

    B_ell(0) = ell / (2^ell (1 - 2^ell)) * A_{ell-1}(-1).
    """
    if ell < 1:
        raise ValueError("needs ell >= 1")
    scale = Fraction(ell, 2**ell * (1 - 2**ell))
    return scale * eulerian_at_minus_one(ell - 1)


def power_sum_via_bernoulli(ell: int, n: int) -> Fraction:
    """sum_{x=0}^{n-1} x^ell as (B_{ell+1}(n) - B_{ell+1}(0)) / (ell+1)."""
    if ell < 1 or n < 1:
        raise ValueError("needs ell >= 1 and n >= 1")
    b = bernoulli_poly(ell + 1)
    return (b(n) - b(0)) / (ell + 1)


def bernoulli_shift_identity(ell: int) -> tuple[bool, Poly, Poly]:
    """Check B_{ell+1}(t) - B_{ell+1}(0) == (ell+1) * A_ell(S) C(t+ell, ell+1).

    The right side applies the Eulerian polynomial in the shift operator to
    a binomial polynomial; both sides are exact polynomials in t.  Returns
    (equal, left, right).
    """
    if ell < 1:
        raise ValueError("needs ell >= 1")
    b = bernoulli_poly(ell + 1)
    left = b - b(0)
    right = apply_shift(eulerian_poly(ell), binom_poly(ell, ell + 1)) * (ell + 1)
    return left == right, left, right


def zeta_negative(ell: int) -> Fraction:
    """zeta(-ell) for ell >= 1 as an exact rational, -B_{ell+1}(0)/(ell+1).

    The audit checks it against the Eulerian route
    A_ell(-1) / (2^{ell+1} (2^{ell+1} - 1)).
    """
    if ell < 1:
        raise ValueError("needs ell >= 1")
    return -bernoulli_number(ell + 1) / (ell + 1)


def bernoulli_table(ell: int) -> list[Poly]:
    """B_0(x) .. B_ell(x) as a list, for tabular output."""
    if ell < 0:
        raise ValueError("table size must be >= 0")
    return [bernoulli_poly(n) for n in range(ell + 1)]
