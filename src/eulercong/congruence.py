"""The defining congruence of the Eulerian polynomial, verified and solved.

For a polynomial f of degree at most ell and an integer m >= 2, the defect

    f(x^m) - ((1 + x + ... + x^(m-1)) / m)^(ell+1) * f(x)

is divisible by (x - 1)^(ell+1) exactly when f is the Eulerian polynomial
A_ell (among monic degree-ell polynomials the congruence has that single
solution, for every choice of m).  This module computes the defect, its
remainder and exact quotient against powers of (x - 1), checks the m = 2
case as a closed polynomial identity, checks the sharper even-degree
divisibility, corroborates polynomiality of the rescaled defect series, and
recovers A_ell by solving the congruence as an exact linear system in the
unknown coefficients.

Sign convention: all remainders and quotients are taken against (x - 1)^k.
Statements phrased against (1 - x)^k describe the same ideal; only the
quotient changes, by the explicit factor (-1)^k.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, lcm

from .eulerian import eulerian_poly, power_sum_series
from .polynomial import Poly, _shift_ints, compose_monomial, negate_variable, poly_text
from .series import Series


@dataclass(frozen=True)
class CongruenceReport:
    """Exact record of one congruence check.

    defect == quotient * (x - 1)**(ell + 1) + remainder holds exactly, and
    ``holds`` is equivalent to the remainder being zero.
    """

    ell: int
    m: int
    f: Poly
    defect: Poly
    remainder: Poly
    quotient: Poly
    holds: bool

    def to_json_dict(self) -> dict:
        return {
            "ell": self.ell,
            "m": self.m,
            "f": poly_text(self.f),
            "holds": self.holds,
            "defect": poly_text(self.defect),
            "remainder": poly_text(self.remainder),
            "quotient": poly_text(self.quotient),
        }


@dataclass(frozen=True)
class CharacterizationSolution:
    """Result of solving the congruence for a monic degree-ell unknown."""

    ell: int
    m: int
    solution: Poly
    system_rank: int
    unique: bool


@dataclass(frozen=True)
class EquivalenceAudit:
    """Solutions of the congruence across several m, and their agreement."""

    ell: int
    m_values: tuple[int, ...]
    solutions: tuple[Poly, ...]
    all_equal: bool


def _window_sums(ints: list[int], m: int, times: int) -> list[int]:
    """ints times (1 + x + ... + x^(m-1))^times, by sliding-window sums."""
    for _ in range(times):
        prefix = [0] * m + list(accumulate(ints + [0] * (m - 1)))
        ints = [hi - lo for lo, hi in zip(prefix, prefix[m:])]
    return ints


def _split_at_one(ints: list[int], k: int) -> tuple[list[int], list[int]]:
    """Divide by (x - 1) k times; each division is one running sum.

    Returns the first k coefficients of the expansion at x = 1 + u, lowest
    power of u first, and the quotient by (x - 1)^k in powers of x.
    """
    digits = []
    for _ in range(k):
        sums = list(accumulate(reversed(ints)))
        digits.append(sums.pop() if sums else 0)
        ints = sums[::-1]
    return digits, ints


def _defect_numerators(f: Poly, ell: int, m: int) -> tuple[list[int], int]:
    """The defect of f as integer numerators over one denominator.

    With F = D*f integral, the numerators are m^(ell+1) F(x^m) - W F, where
    W = (1 + ... + x^(m-1))^(ell+1), over the denominator D*m^(ell+1).
    """
    if m < 1 or ell < 0:
        raise ValueError("needs ell >= 0 and m >= 1")
    d = lcm(*(c.denominator for c in f.coeffs))
    ints = [c.numerator * (d // c.denominator) for c in f.coeffs]
    scaled = m ** (ell + 1)
    window_f = _window_sums(ints, m, ell + 1)
    out = [0] * max(len(window_f), m * len(ints))
    for i, c in enumerate(ints):
        out[m * i] = scaled * c
    for i, c in enumerate(window_f):
        out[i] -= c
    return out, d * scaled


def _over(ints: list[int], denominator: int) -> Poly:
    return Poly(Fraction(n, denominator) for n in ints)


def congruence_defect(f: Poly, ell: int, m: int) -> Poly:
    """f(x^m) - ((1 + x + ... + x^(m-1))/m)^(ell+1) * f(x), exactly."""
    return _over(*_defect_numerators(f, ell, m))


def congruence_report(f: Poly, ell: int, m: int) -> CongruenceReport:
    """Full congruence check of f against modulus (x - 1)^(ell + 1).

    Dividing the defect numerators by x - 1 ell+1 times gives the quotient
    and the remainder in powers of x - 1, which is shifted back to x.
    """
    if ell < 1:
        raise ValueError("needs ell >= 1")
    if m < 2:
        raise ValueError("needs m >= 2")
    if f.degree > ell:
        raise ValueError("f must have degree <= ell")
    defect, scale = _defect_numerators(f, ell, m)
    digits, quotient = _split_at_one(defect, ell + 1)
    remainder = _over(_shift_ints(digits, -1, 1), scale)
    return CongruenceReport(
        ell, m, f, _over(defect, scale), remainder, _over(quotient, scale), remainder.is_zero
    )


def m2_exact_identity(ell: int) -> bool:
    """The m = 2 congruence as a closed identity, in two forms.

    Polynomial form: ((1+x)/2)^(ell+1) A_ell(x) - A_ell(x^2) equals
    -((1-x)/2)^(ell+1) A_ell(-x) exactly.  Series form: the power-sum series
    satisfies F(x) - 2^(ell+1) F(x^2) == -F(-x) on truncations through
    x^(4*ell).  Both must hold.
    """
    if ell < 1:
        raise ValueError("needs ell >= 1")
    a = eulerian_poly(ell)
    half = Fraction(1, 2)
    left = Poly((half, half)) ** (ell + 1) * a - compose_monomial(a, 2)
    right = -(Poly((half, -half)) ** (ell + 1)) * negate_variable(a)
    if left != right:
        return False

    order = 4 * ell
    plain = power_sum_series(ell, order)
    squared = Series(
        tuple(
            (n // 2) ** ell if n and n % 2 == 0 else 0 for n in range(order + 1)
        ),
        order,
    )
    alternating = Series(
        tuple((-1) ** n * n**ell if n else 0 for n in range(order + 1)), order
    )
    combined = plain - squared * (2 ** (ell + 1)) + alternating
    return combined.is_zero


def even_degree_strengthening(ell: int, m: int) -> bool:
    """Whether the Eulerian defect is divisible by one extra power of x - 1.

    True exactly when ell is even: the coefficient symmetry of A_ell and
    A_ell(-1) = 0 push the defect into (x - 1)^(ell + 2).  Odd ell is
    accepted so the failure side is observable.
    """
    if ell < 1:
        raise ValueError("needs ell >= 1")
    if m < 2:
        raise ValueError("needs m >= 2")
    defect, _ = _defect_numerators(eulerian_poly(ell), ell, m)
    return not any(_split_at_one(defect, ell + 2)[0])


def polynomiality_check(ell: int, m: int, order: int) -> tuple[bool, Poly]:
    """Corroborate that the rescaled defect series is a polynomial.

    Builds (1 + x + ... + x^(m-1))^(ell+1) times the lacunary series
    m * sum (mk)^ell x^(mk) - sum k^ell x^k truncated through x^order and
    reports whether every coefficient beyond the predicted degree bound
    (m-1)(ell+1) + m*ell vanishes.  A truncated check corroborates but can
    never prove polynomiality; the order must leave a generous margin,
    which is what the precondition enforces.  Returns (verdict, the
    polynomial part).
    """
    if ell < 1:
        raise ValueError("needs ell >= 1")
    if m < 2:
        raise ValueError("needs m >= 2")
    least = m * (ell + 1) + (m - 1) * (ell + 1) + 2 * m * (ell + 1)
    if order < least:
        raise ValueError(
            f"truncation order {order} is inconclusive; need at least {least}"
        )
    inner = [Fraction(0)]
    for n in range(1, order + 1):
        coeff = Fraction(m * n**ell if n % m == 0 else 0) - n**ell
        inner.append(coeff)
    product = Series(inner, order) * Poly(_window_sums([1], m, ell + 1))
    bound = (m - 1) * (ell + 1) + m * ell
    tail_clean = all(product.coefficient(n) == 0 for n in range(bound + 1, order + 1))
    poly_part = Poly(product.coeffs[: bound + 1])
    return tail_clean, poly_part


def _fraction_free_solve(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[list[Fraction], int, bool]:
    """Solve an overdetermined exact linear system by fraction-free elimination.

    Rows are scaled to integers, reduced Bareiss-style (each elimination
    step divides exactly by the previous pivot), and back-substituted with
    exact rationals.  Returns (solution, rank, unique); free variables are
    set to zero when the system is rank-deficient.  Raises ArithmeticError
    on an inconsistent system.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    work: list[list[int]] = []
    for row, b in zip(rows, rhs):
        entries = list(row) + [b]
        scale = lcm(*(e.denominator for e in entries))
        work.append([int(e * scale) for e in entries])

    pivot_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pivot = work[r][c]
        for i in range(r + 1, n_rows):
            factor = work[i][c]
            for j in range(c, n_cols + 1):
                numerator = work[i][j] * pivot - work[r][j] * factor
                quotient, residue = divmod(numerator, prev)
                if residue:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                work[i][j] = quotient
        prev = pivot
        pivot_cols.append(c)
        r += 1
        if r == n_rows:
            break
    rank = len(pivot_cols)

    for i in range(rank, n_rows):
        if any(work[i][c] != 0 for c in range(n_cols)):
            continue  # unreduced leftovers cannot appear below the pivots
        if work[i][n_cols] != 0:
            raise ArithmeticError("inconsistent linear system")

    solution = [Fraction(0)] * n_cols
    for i in reversed(range(rank)):
        c = pivot_cols[i]
        acc = Fraction(work[i][n_cols])
        for j in range(c + 1, n_cols):
            acc -= work[i][j] * solution[j]
        solution[c] = acc / work[i][c]
    return solution, rank, rank == n_cols


def solve_characterization(ell: int, m: int) -> CharacterizationSolution:
    """Recover the unique monic degree-ell polynomial obeying the congruence.

    The defect is linear in f, so the remainder coefficients of the defect
    of x^ell + a_1 x^(ell-1) + ... + a_ell, in powers of x - 1, are affine in
    the unknowns; the ell+1 equations "remainder == 0" are assembled from the
    responses of the basis monomials and solved exactly.  The solution is the
    Eulerian polynomial A_ell, whatever m is chosen.
    """
    if ell < 1:
        raise ValueError("needs ell >= 1")
    if m < 2:
        raise ValueError("needs m >= 2")

    # Row i, column k: coefficient of u^i in m^(ell+1) x^(mk) - W x^k at
    # x = 1 + u, the monomial's defect numerators truncated (x-1)-adically.
    scaled = m ** (ell + 1)
    wu, _ = _split_at_one(_window_sums([1], m, ell + 1), ell + 1)

    def column(k: int) -> list[int]:
        return [
            scaled * comb(m * k, i) - sum(wu[j] * comb(k, i - j) for j in range(i + 1))
            for i in range(ell + 1)
        ]

    columns = [column(ell - j) for j in range(1, ell + 1)]
    offset = column(ell)
    rows = [[columns[j][i] for j in range(ell)] for i in range(ell + 1)]
    rhs = [-offset[i] for i in range(ell + 1)]
    unknowns, rank, unique = _fraction_free_solve(rows, rhs)

    coeffs = [Fraction(0)] * (ell + 1)
    coeffs[ell] = Fraction(1)
    for j, a in enumerate(unknowns, start=1):
        coeffs[ell - j] = a
    return CharacterizationSolution(ell, m, Poly(coeffs), rank, unique)


def equivalence_audit(ell: int, m_values) -> EquivalenceAudit:
    """Solve the congruence for each m and report whether answers coincide."""
    ms = tuple(m_values)
    if not ms:
        raise ValueError("need at least one modulus parameter")
    solutions = tuple(solve_characterization(ell, m).solution for m in ms)
    all_equal = all(s == solutions[0] for s in solutions)
    return EquivalenceAudit(ell, ms, solutions, all_equal)


def random_monic_perturbation(ell: int, rng: random.Random) -> Poly:
    """A_ell plus nonzero lower-order noise: monic, degree ell, not Eulerian.

    Every noise coefficient is drawn from +-{1, 2, 3}, so the perturbation
    polynomial is never zero.
    """
    if ell < 1:
        raise ValueError("needs ell >= 1")
    noise = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(ell)]
    return eulerian_poly(ell) + Poly(noise)
