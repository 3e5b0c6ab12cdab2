from fractions import Fraction
from math import comb, factorial

import pytest

from eulercong.bernoulli import (
    bernoulli_number,
    bernoulli_number_from_eulerian,
    bernoulli_poly,
    bernoulli_shift_identity,
    bernoulli_table,
    power_sum_via_bernoulli,
    zeta_negative,
)
from eulercong.eulerian import eulerian_poly
from eulercong.polynomial import Poly
from eulercong.series import Series, series_t_divide


def recurrence_numbers(count):
    # independent oracle: B_0 = 1, sum_{j=0}^{n-1} C(n+1, j) B_j = -(n+1) B_n
    numbers = [Fraction(1)]
    for n in range(1, count + 1):
        acc = sum(comb(n + 1, j) * numbers[j] for j in range(n))
        numbers.append(-acc / (n + 1))
    return numbers


def recurrence_poly(n, numbers):
    return Poly([comb(n, k) * numbers[n - k] for k in range(n + 1)])


def test_known_polynomials():
    assert bernoulli_poly(0) == Poly.one()
    assert bernoulli_poly(1) == Poly((Fraction(-1, 2), 1))
    assert bernoulli_poly(2) == Poly((Fraction(1, 6), -1, 1))
    assert bernoulli_poly(3) == Poly((0, Fraction(1, 2), Fraction(-3, 2), 1))
    assert bernoulli_poly(4) == Poly((Fraction(-1, 30), 0, 1, -2, 1))


def test_generating_function_matches_recurrence_oracle():
    numbers = recurrence_numbers(12)
    for n in range(13):
        assert bernoulli_poly(n) == recurrence_poly(n, numbers)


def test_structure():
    for n in range(13):
        p = bernoulli_poly(n)
        assert p.degree == n
        assert p.is_monic
        if n >= 2:
            assert p(0) == p(1)
    # odd Bernoulli numbers vanish
    for k in range(1, 11):
        assert bernoulli_number(2 * k + 1) == 0


def test_eulerian_bridge():
    assert bernoulli_number_from_eulerian(1) == Fraction(-1, 2)
    assert bernoulli_number_from_eulerian(2) == Fraction(1, 6)
    assert bernoulli_number_from_eulerian(3) == 0
    for ell in range(1, 21):
        assert bernoulli_number_from_eulerian(ell) == bernoulli_number(ell)


def test_power_sums():
    assert power_sum_via_bernoulli(1, 5) == 10
    assert power_sum_via_bernoulli(2, 4) == 14
    assert power_sum_via_bernoulli(3, 3) == 9
    for ell in range(1, 9):
        for n in range(1, 13):
            assert power_sum_via_bernoulli(ell, n) == sum(x**ell for x in range(n))


def test_binomial_difference_form():
    # B_{ell+1}(n) - B_{ell+1}(0) as an Eulerian-weighted binomial sum
    from eulercong.eulerian import eulerian_number

    for ell in range(1, 9):
        b = bernoulli_poly(ell + 1)
        for n in range(1, 13):
            weighted = (ell + 1) * sum(
                eulerian_number(ell, k) * comb(ell + n - k, ell + 1)
                for k in range(1, ell + 1)
            )
            assert b(n) - b(0) == weighted


def test_shift_identity():
    ok, left, right = bernoulli_shift_identity(1)
    assert ok
    assert left == Poly((0, -1, 1))
    for ell in range(1, 11):
        ok, left, right = bernoulli_shift_identity(ell)
        assert ok and left == right


def test_zeta_values():
    assert zeta_negative(1) == Fraction(-1, 12)
    assert zeta_negative(2) == 0
    assert zeta_negative(3) == Fraction(1, 120)
    # the Eulerian route must agree exactly
    for ell in range(1, 16):
        via_eulerian = eulerian_poly(ell)(-1) / (2 ** (ell + 1) * (2 ** (ell + 1) - 1))
        assert zeta_negative(ell) == via_eulerian


def test_split_kernel_identity():
    # 2t/(e^{2t}+1) == 2t/(e^{2t}-1) - 4t/(e^{4t}-1), truncated in t
    order = 12

    def front_over_expm1(front, scale):
        den = Series(
            [
                Poly((Fraction(scale ** (n + 1), factorial(n + 1)),))
                for n in range(order + 1)
            ],
            order,
        )
        return series_t_divide(Series.constant(Poly((front,)), order), den)

    rhs = front_over_expm1(2, 2) - front_over_expm1(4, 4)
    den = [Poly((2,))] + [
        Poly((Fraction(2**n, factorial(n)),)) for n in range(1, order + 1)
    ]
    base = series_t_divide(Series.constant(Poly((2,)), order), Series(den, order))
    lhs = Series((Poly(),) + base.coeffs[:order], order)
    assert lhs == rhs


def test_table():
    table = bernoulli_table(4)
    assert len(table) == 5
    assert table[2] == Poly((Fraction(1, 6), -1, 1))


def test_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(31):
        coeffs = sympy.Poly(sympy.bernoulli(n, x), x).all_coeffs()[::-1]
        expected = Poly([Fraction(int(c.p), int(c.q)) for c in coeffs])
        assert bernoulli_poly(n) == expected, n
        assert bernoulli_number(n) == expected(0), n
