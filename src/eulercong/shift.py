"""Polynomials in the shift operator S and the identities they satisfy.

S acts on polynomials f(t) by (S f)(t) = f(t - 1), so (S^k f)(t) = f(t - k).
An operator here is just its symbol, a rational ``Poly`` in S: applying it
sums shifted copies of the argument, and composing, powering and dividing
operators are the same operations on their symbols.  This is enough to state
the Worpitzky identity in operator form, both closed formulas for the
characteristic polynomial of the Linial hyperplane arrangement, and the
divisibility of their difference by (S - 1)^(ell+1).
"""

from __future__ import annotations

from fractions import Fraction

from .eulerian import eulerian_poly
from .polynomial import (
    Poly,
    binom_poly,
    compose_monomial,
    remainder_mod_power,
    taylor_shift,
)


def apply_shift(symbol: Poly, f: Poly) -> Poly:
    """Apply the operator symbol(S) to f: sum of c_k * f(t - k)."""
    out = Poly()
    for k, c in enumerate(symbol.coeffs):
        if not c:
            continue
        out = out + taylor_shift(f, -k) * c
    return out


def mean_of_shifts(m: int) -> Poly:
    """Symbol of the averaging operator (1 + S + ... + S^m) / (m + 1)."""
    if m < 0:
        raise ValueError("shift window must be >= 0")
    return Poly((Fraction(1, m + 1),) * (m + 1))


def eulerian_operator(ell: int, step: int = 1) -> Poly:
    """Symbol A_ell(S^step): the Eulerian polynomial in S^step."""
    return compose_monomial(eulerian_poly(ell), step)


def worpitzky_check(ell: int) -> tuple[bool, Poly]:
    """Verify t^ell == A_ell(S) applied to C(t + ell, ell); return (ok, value)."""
    if ell < 1:
        raise ValueError("needs ell >= 1")
    value = apply_shift(eulerian_operator(ell), binom_poly(ell, ell))
    return value == Poly.monomial(ell), value


def linial_charpoly_mean_shift(ell: int, m: int) -> Poly:
    """Characteristic polynomial of the Linial arrangement, averaging route.

    Applies ((1 + S + ... + S^m)/(m+1))^(ell+1) to t^ell.  m = 0 degenerates
    to the empty arrangement, giving t^ell.
    """
    if ell < 1 or m < 0:
        raise ValueError("needs ell >= 1 and m >= 0")
    return apply_shift(mean_of_shifts(m) ** (ell + 1), Poly.monomial(ell))


def linial_charpoly_worpitzky(ell: int, m: int) -> Poly:
    """Characteristic polynomial of the Linial arrangement, Worpitzky route.

    Applies A_ell(S^(m+1)) to the binomial polynomial C(t + ell, ell).
    """
    if ell < 1 or m < 0:
        raise ValueError("needs ell >= 1 and m >= 0")
    return apply_shift(eulerian_operator(ell, m + 1), binom_poly(ell, ell))


def operator_divisibility(ell: int, m: int) -> tuple[Poly, Poly]:
    """Divide the difference of the two Linial operators by (S - 1)^(ell+1).

    The operator ((1+S+...+S^m)/(m+1))^(ell+1) A_ell(S) - A_ell(S^(m+1))
    annihilates C(t + ell, ell), hence is divisible by (S - 1)^(ell+1);
    returns the (quotient, remainder) symbols, the remainder expected to be
    zero.
    """
    if ell < 1 or m < 1:
        raise ValueError("needs ell >= 1 and m >= 1")
    diff = mean_of_shifts(m) ** (ell + 1) * eulerian_operator(ell)
    diff = diff - eulerian_operator(ell, m + 1)
    remainder, quotient = remainder_mod_power(diff, 1, ell + 1)
    return quotient, remainder
