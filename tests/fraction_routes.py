"""Slow reference routes over ``Fraction``, kept as differential oracles.

The library checks and solves the congruence with integer numerators over
one shared denominator.  These are the straightforward rational routes it
replaced: the window power built by ``Poly.__pow__``, the ``Fraction``
Horner Taylor shift, the shift-cut-shift split against (x - c)^k, and the
solver whose columns are full defects of the basis monomials.  The tests
compare the library against them on random inputs.
"""

from fractions import Fraction

from eulercong.congruence import _fraction_free_solve
from eulercong.polynomial import Poly, compose_monomial


def taylor_shift(p: Poly, c) -> Poly:
    """q(u) = p(u + c) by Horner's rule on Fraction coefficients."""
    c = Fraction(c)
    acc: list[Fraction] = []
    for a in reversed(p.coeffs):
        nxt = [Fraction(0)] * (len(acc) + 1)
        for i, r in enumerate(acc):
            nxt[i + 1] += r
            nxt[i] += r * c
        nxt[0] += a
        acc = nxt
    return Poly(acc)


def remainder_mod_power(p: Poly, c, k: int) -> tuple[Poly, Poly]:
    """(remainder, quotient) of p against (x - c)^k: shift, cut, shift back."""
    shifted = taylor_shift(p, c)
    low, high = Poly(shifted.coeffs[:k]), Poly(shifted.coeffs[k:])
    return taylor_shift(low, -c), taylor_shift(high, -c)


def congruence_defect(f: Poly, ell: int, m: int) -> Poly:
    """f(x^m) - ((1 + ... + x^(m-1))/m)^(ell+1) f(x) with the window power."""
    window = Poly((Fraction(1, m),) * m) ** (ell + 1)
    return compose_monomial(f, m) - window * f


def congruence_report(f: Poly, ell: int, m: int) -> tuple[Poly, Poly, Poly, bool]:
    """(defect, remainder, quotient, holds) against (x - 1)^(ell+1)."""
    defect = congruence_defect(f, ell, m)
    remainder, quotient = remainder_mod_power(defect, 1, ell + 1)
    return defect, remainder, quotient, remainder.is_zero


def solve_characterization(ell: int, m: int) -> tuple[Poly, int, bool]:
    """(solution, rank, unique), each column the remainder of a full defect."""

    def remainder_of(p: Poly) -> list[Fraction]:
        _, remainder, _, _ = congruence_report(p, ell, m)
        return [remainder.coefficient(i) for i in range(ell + 1)]

    columns = [remainder_of(Poly.monomial(ell - j)) for j in range(1, ell + 1)]
    offset = remainder_of(Poly.monomial(ell))
    rows = [[columns[j][i] for j in range(ell)] for i in range(ell + 1)]
    unknowns, rank, unique = _fraction_free_solve(rows, [-b for b in offset])
    coeffs = [Fraction(0)] * ell + [Fraction(1)]
    for j, a in enumerate(unknowns, start=1):
        coeffs[ell - j] = a
    return Poly(coeffs), rank, unique
