import random
from fractions import Fraction
from math import factorial

import pytest

from eulercong.polynomial import Poly
from eulercong.series import Series, expand_quotient, series_t_divide


def test_series_shape_checks():
    with pytest.raises(ValueError):
        Series((1, 2), order=3)
    s = Series((1, 2, 3))
    assert s.order == 2
    with pytest.raises(IndexError):
        s.coefficient(3)


def test_series_arithmetic_truncates_to_min_order():
    a = Series((1, 1, 1, 1))
    b = Series((1, 2), order=1)
    assert (a + b).order == 1
    assert (a + b).coeffs == (Fraction(2), Fraction(3))
    assert (a * b).order == 1
    assert (a * b).coeffs == (Fraction(1), Fraction(3))


def test_expand_quotient_examples():
    assert expand_quotient(Poly((0, 1)), 2, 4) == Series((0, 1, 2, 3, 4))
    assert expand_quotient(Poly.one(), 1, 3) == Series((1, 1, 1, 1))
    # x + x^2 over (1-x)^3 generates the squares
    assert expand_quotient(Poly((0, 1, 1)), 3, 4) == Series((0, 1, 4, 9, 16))


def test_expand_quotient_round_trip():
    rng = random.Random(17)
    for _ in range(20):
        degree = rng.randint(0, 6)
        p = Poly([rng.randint(-5, 5) for _ in range(degree + 1)])
        d = rng.randint(1, 4)
        order = max(p.degree, 0) + 7
        back = expand_quotient(p, d, order) * (Poly((1, -1)) ** d)
        assert back == Series.from_poly(p, order)


def test_expand_quotient_needs_room():
    with pytest.raises(ValueError):
        expand_quotient(Poly((0, 0, 1)), 2, 1)


def test_poly_series_divide_geometric():
    num = Series.constant(Poly.one(), 6)
    den = Series([Poly((1,)), Poly((-1,))] + [Poly()] * 5, 6)
    q = series_t_divide(num, den)
    assert all(q.coefficient(i) == Poly.one() for i in range(7))


def test_series_t_divide_round_trip():
    rng = random.Random(23)
    for _ in range(10):
        order = 5
        num = Series(
            [Poly([rng.randint(-3, 3) for _ in range(3)]) for _ in range(order + 1)],
            order,
        )
        den_coeffs = [Poly((rng.choice((1, 2, -1, 3)),))] + [
            Poly([rng.randint(-2, 2) for _ in range(3)]) for _ in range(order)
        ]
        den = Series(den_coeffs, order)
        q = series_t_divide(num, den)
        assert den * q == num


def test_series_t_divide_rejects_nonconstant_lead():
    num = Series.constant(Poly.one(), 3)
    bad = Series([Poly((1, -1))] + [Poly()] * 3, 3)
    with pytest.raises(ValueError):
        series_t_divide(num, bad)
    zero_lead = Series([Poly()] + [Poly.one()] * 3, 3)
    with pytest.raises(ValueError):
        series_t_divide(num, zero_lead)


def exp_series(scale, order):
    # exp(scale * t) truncated in t: coefficient n is scale^n / n!
    return Series([scale**n / factorial(n) for n in range(order + 1)], order)


def test_poly_series_product_matches_cauchy():
    a = exp_series(Poly((0, 1)), 4)       # exp(x t)
    b = exp_series(Poly((0, -1)), 4)      # exp(-x t)
    prod = a * b
    assert prod.coefficient(0) == Poly.one()
    for n in range(1, 5):
        assert prod.coefficient(n).is_zero
