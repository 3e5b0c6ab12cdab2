import random
from fractions import Fraction

import pytest

from eulercong.polynomial import Poly, binom_poly
from eulercong.shift import (
    apply_shift,
    eulerian_operator,
    linial_charpoly_mean_shift,
    linial_charpoly_worpitzky,
    mean_of_shifts,
    operator_divisibility,
    worpitzky_check,
)


def rand_op(rng, max_degree=4):
    return Poly([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(max_degree + 1)])


def rand_poly(rng, max_degree=5):
    return Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, max_degree + 1))])


def test_shift_action():
    s = Poly.monomial(1)
    assert apply_shift(s, Poly((0, 0, 1))) == Poly((1, -2, 1))  # (t-1)^2
    assert apply_shift(Poly.one(), Poly((5, 3))) == Poly((5, 3))
    assert apply_shift(Poly.monomial(3), Poly((0, 1))) == Poly((-3, 1))


def test_action_is_linear():
    rng = random.Random(31)
    for _ in range(15):
        op = rand_op(rng)
        f, g = rand_poly(rng), rand_poly(rng)
        c = Fraction(rng.randint(-3, 3))
        assert apply_shift(op, f + g) == apply_shift(op, f) + apply_shift(op, g)
        assert apply_shift(op, f * c) == apply_shift(op, f) * c


def test_composition_is_symbol_product():
    rng = random.Random(37)
    for _ in range(15):
        op1, op2 = rand_op(rng, 3), rand_op(rng, 3)
        f = rand_poly(rng, 4)
        assert apply_shift(op1 * op2, f) == apply_shift(op1, apply_shift(op2, f))


def test_eulerian_operator_on_binomial():
    # A_2(S) C(t+2, 2) collapses to t^2
    assert apply_shift(eulerian_operator(2), binom_poly(2, 2)) == Poly.monomial(2)


def test_worpitzky_identity():
    for ell in range(1, 13):
        ok, value = worpitzky_check(ell)
        assert ok
        assert value == Poly.monomial(ell)


def test_linial_hand_derived_values():
    assert linial_charpoly_mean_shift(2, 1) == Poly((3, -3, 1))
    assert linial_charpoly_mean_shift(1, 1) == Poly((-1, 1))
    assert linial_charpoly_worpitzky(1, 2) == Poly((-2, 1))


def test_linial_routes_agree():
    for ell in range(1, 9):
        for m in range(1, 6):
            assert linial_charpoly_mean_shift(ell, m) == linial_charpoly_worpitzky(
                ell, m
            ), (ell, m)


def test_linial_monic_integral():
    for ell in range(1, 9):
        for m in range(1, 6):
            p = linial_charpoly_mean_shift(ell, m)
            assert p.degree == ell
            assert p.is_monic
            assert all(c.denominator == 1 for c in p.coeffs)


def test_linial_degenerate_window():
    # m = 0 is the empty arrangement; both routes reduce to t^ell
    for ell in range(1, 6):
        assert linial_charpoly_mean_shift(ell, 0) == Poly.monomial(ell)
        assert linial_charpoly_worpitzky(ell, 0) == Poly.monomial(ell)


def test_operator_divisibility_small_case():
    quotient, remainder = operator_divisibility(1, 1)
    assert remainder.is_zero
    assert quotient == Poly((0, Fraction(1, 4)))


def test_operator_divisibility_range():
    for ell in range(1, 9):
        for m in range(1, 6):
            quotient, remainder = operator_divisibility(ell, m)
            assert remainder.is_zero, (ell, m)
            assert quotient.degree == m * ell + m - 1, (ell, m)
            # reconstruct: quotient * (S-1)^(ell+1) equals the difference
            diff = (
                mean_of_shifts(m) ** (ell + 1) * eulerian_operator(ell)
            ) - eulerian_operator(ell, m + 1)
            assert quotient * Poly((-1, 1)) ** (ell + 1) == diff


def test_difference_operator_annihilates_binomial():
    for ell in range(1, 7):
        for m in range(1, 5):
            diff = mean_of_shifts(m) ** (ell + 1) * eulerian_operator(
                ell
            ) - eulerian_operator(ell, m + 1)
            assert apply_shift(diff, binom_poly(ell, ell)).is_zero


def test_validation():
    with pytest.raises(ValueError):
        worpitzky_check(0)
    with pytest.raises(ValueError):
        linial_charpoly_mean_shift(0, 1)
    with pytest.raises(ValueError):
        operator_divisibility(1, 0)
    with pytest.raises(ValueError):
        mean_of_shifts(-1)
