import json
from fractions import Fraction
from math import comb, factorial

import pytest

from eulercong.eulerian import (
    eulerian_at_minus_one,
    eulerian_egf_check,
    eulerian_number,
    eulerian_number_closed_form,
    eulerian_poly,
    eulerian_triangle,
    power_sum_series,
    series_coefficient_polynomial,
    signed_egf_kernel,
)
from eulercong.polynomial import Poly
from eulercong.series import Series


def test_first_rows():
    t = eulerian_triangle(4)
    assert t.row(1) == (1,)
    assert t.row(3) == (1, 4, 1)
    assert t.row(4) == (1, 11, 11, 1)


def test_polynomials_match_known_list():
    assert eulerian_poly(0) == Poly.one()
    assert eulerian_poly(1) == Poly((0, 1))
    assert eulerian_poly(2) == Poly((0, 1, 1))
    assert eulerian_poly(3) == Poly((0, 1, 4, 1))
    assert eulerian_poly(4) == Poly((0, 1, 11, 11, 1))


def test_closed_form_values():
    assert eulerian_number_closed_form(3, 2) == 4
    assert eulerian_number_closed_form(4, 3) == 11
    for ell in range(1, 7):
        assert eulerian_number_closed_form(ell, 1) == 1
    assert eulerian_number_closed_form(5, 0) == 0
    assert eulerian_number_closed_form(5, 6) == 0


def test_recurrence_vs_closed_form():
    for ell in range(1, 13):
        for k in range(1, ell + 1):
            assert eulerian_number(ell, k) == eulerian_number_closed_form(ell, k)


def test_palindromy():
    for ell in range(1, 31):
        row = eulerian_triangle(ell).row(ell)
        assert row == row[::-1]


def test_row_sums_are_factorials():
    for ell in range(1, 16):
        assert sum(eulerian_triangle(ell).row(ell)) == factorial(ell)


def test_entries_positive():
    for row in eulerian_triangle(20).rows:
        assert all(v > 0 for v in row)


def test_power_sum_series():
    assert power_sum_series(1, 4) == Series((0, 1, 2, 3, 4))
    assert power_sum_series(0, 3) == Series((0, 1, 1, 1))


def test_series_extraction_recovers_polynomial():
    # multiplying the truncated power-sum series by (1-x)^(ell+1) leaves
    # A_ell followed by zeros
    for ell in range(1, 11):
        order = 3 * ell
        product = power_sum_series(ell, order) * (Poly((1, -1)) ** (ell + 1))
        assert product == Series.from_poly(eulerian_poly(ell), order)


def test_numeric_worpitzky():
    for ell in range(1, 11):
        for k in range(1, 21):
            total = sum(
                eulerian_number(ell, j) * comb(k + ell - j, ell)
                for j in range(1, ell + 1)
            )
            assert total == k**ell


def test_series_coefficient_polynomial_examples():
    assert series_coefficient_polynomial(eulerian_poly(2), 2) == Poly.monomial(2)
    assert series_coefficient_polynomial(Poly.one(), 0) == Poly.one()
    # x/(1-x)^3 has coefficients C(k+1, 2) = k(k+1)/2
    assert series_coefficient_polynomial(Poly((0, 1)), 2) == Poly(
        (0, Fraction(1, 2), Fraction(1, 2))
    )


def test_series_coefficient_polynomial_eulerian_is_pure_power():
    for ell in range(11):
        assert series_coefficient_polynomial(
            eulerian_poly(ell), ell
        ) == Poly.monomial(ell)


def test_series_coefficient_polynomial_detects_non_eulerian():
    for ell in range(1, 9):
        perturbed = eulerian_poly(ell) + Poly((1,))
        assert series_coefficient_polynomial(perturbed, ell) != Poly.monomial(ell)


def test_series_coefficient_polynomial_degree_guard():
    with pytest.raises(ValueError):
        series_coefficient_polynomial(Poly.monomial(3), 2)


def test_egf_check():
    ok, lhs, rhs = eulerian_egf_check(6)
    assert ok
    assert rhs.coefficient(1) == Poly((0, 1))
    assert rhs.coefficient(2) == Poly((0, Fraction(1, 2), Fraction(1, 2)))
    for ell in range(7):
        assert lhs.coefficient(ell) == eulerian_poly(ell) / factorial(ell)


def test_values_at_minus_one():
    assert eulerian_at_minus_one(1) == -1
    assert eulerian_at_minus_one(2) == 0
    assert eulerian_at_minus_one(3) == 2
    for ell in range(2, 21, 2):
        assert eulerian_at_minus_one(ell) == 0
    # independent route: n! [t^n] 2/(1 + e^{2t})
    kernel = signed_egf_kernel(20)
    for ell in range(21):
        assert eulerian_at_minus_one(ell) == kernel.coefficient(ell) * factorial(ell)


def test_triangle_serialization():
    t = eulerian_triangle(3)
    assert t.to_csv() == "1\n1,1\n1,4,1"
    assert json.loads(t.to_json()) == [["1"], ["1", "1"], ["1", "4", "1"]]


def test_triangle_entry_out_of_range():
    t = eulerian_triangle(3)
    assert t.entry(3, 0) == 0
    assert t.entry(3, 4) == 0
    with pytest.raises(IndexError):
        t.row(4)
