import random
from fractions import Fraction

import pytest

from eulercong.polynomial import (
    Poly,
    binom_poly,
    compose_monomial,
    format_poly,
    negate_variable,
    parse_poly,
    poly_text,
    remainder_mod_power,
    taylor_shift,
)


def rand_poly(rng, max_degree=8):
    return Poly(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(0, max_degree) + 1)]
    )


def test_normalization_strips_trailing_zeros():
    assert Poly((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
    assert Poly((0, 0)).is_zero
    assert Poly().degree == -1
    assert Poly((0, 1)).degree == 1


def test_immutability():
    p = Poly((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = ()


def test_multiply_examples():
    assert Poly((1, -1)) * Poly((1, 1)) == Poly((1, 0, -1))
    assert Poly((0, 1, 1)) * Poly.one() == Poly((0, 1, 1))
    # (1+x)^4 by repeated convolution
    assert Poly((1, 1)) ** 4 == Poly((1, 4, 6, 4, 1))


def test_multiply_degree_adds():
    rng = random.Random(7)
    for _ in range(25):
        p, q = rand_poly(rng), rand_poly(rng)
        if p.is_zero or q.is_zero:
            assert (p * q).is_zero
        else:
            assert (p * q).degree == p.degree + q.degree


def test_ring_axioms():
    rng = random.Random(11)
    for _ in range(30):
        a, b, c = rand_poly(rng, 6), rand_poly(rng, 6), rand_poly(rng, 6)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_taylor_shift_examples():
    assert taylor_shift(Poly((0, 0, 1)), 1) == Poly((1, 2, 1))
    assert taylor_shift(Poly((1, -1)), 1) == Poly((0, -1))


def test_taylor_shift_round_trip():
    rng = random.Random(3)
    for _ in range(30):
        p = rand_poly(rng)
        c = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
        assert taylor_shift(taylor_shift(p, c), -c) == p


def test_taylor_shift_matches_evaluation():
    rng = random.Random(5)
    for _ in range(15):
        p = rand_poly(rng)
        c = Fraction(rng.randint(-5, 5))
        q = taylor_shift(p, c)
        for u in (-2, 0, 1, 3):
            assert q(u) == p(u + c)


def test_compose_monomial():
    assert compose_monomial(Poly((0, 1, 1)), 2) == Poly((0, 0, 1, 0, 1))
    p = Poly((2, 0, -3, 1))
    assert compose_monomial(p, 1) == p
    assert compose_monomial(Poly((0, 1)), 5) == Poly.monomial(5)
    with pytest.raises(ValueError):
        compose_monomial(p, 0)


def test_compose_monomial_degree():
    rng = random.Random(9)
    for _ in range(20):
        p = rand_poly(rng)
        m = rng.randint(1, 5)
        if not p.is_zero:
            assert compose_monomial(p, m).degree == m * p.degree


def test_negate_variable():
    p = Poly((1, 2, 3, 4))
    assert negate_variable(p) == Poly((1, -2, 3, -4))
    assert negate_variable(negate_variable(p)) == p


def test_remainder_mod_power_examples():
    # -x(1-x)^4/8 is exactly divisible by (x-1)^3
    p = Poly((0, Fraction(-1, 8))) * Poly((1, -1)) ** 4
    r, q = remainder_mod_power(p, 1, 3)
    assert r.is_zero
    assert q == Poly((0, Fraction(1, 8), Fraction(-1, 8)))
    # (x-1)^2 is already reduced mod (x-1)^3
    p = Poly((1, -2, 1))
    r, q = remainder_mod_power(p, 1, 3)
    assert r == p and q.is_zero
    # k = 1 leaves the evaluation
    p = Poly((3, 1, 2))
    r, q = remainder_mod_power(p, 1, 1)
    assert r == Poly((p(1),))


def test_remainder_mod_power_division_identity():
    rng = random.Random(21)
    for _ in range(40):
        p = rand_poly(rng, 10)
        k = rng.randint(1, 8)
        c = Fraction(rng.choice((-2, -1, 1, 2, 3)))
        r, q = remainder_mod_power(p, c, k)
        assert r.degree < k
        assert q * Poly((-c, 1)) ** k + r == p


def test_binom_poly():
    assert binom_poly(2, 2) == Poly((1, Fraction(3, 2), Fraction(1, 2)))
    assert binom_poly(0, 0) == Poly.one()
    # C(t+2, 2) at t = 1, 2, 3 walks Pascal's triangle
    p = binom_poly(2, 2)
    assert [p(t) for t in (1, 2, 3)] == [3, 6, 10]


def test_binom_poly_degree_and_integers():
    for a in range(-2, 4):
        for n in range(6):
            p = binom_poly(a, n)
            assert p.degree == n
            # integer values at integer arguments
            for t in range(-3, 4):
                assert p(t).denominator == 1


def test_canonical_text_round_trip():
    for text in ("0", "0 1 1", "0 -1/8 1/2 -3/4 1/2 -1/8", "5"):
        assert poly_text(parse_poly(text)) == text


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly("")
    with pytest.raises(ValueError):
        parse_poly("1 x 2")
    with pytest.raises(ValueError):
        parse_poly("1/0")


def test_format_poly():
    assert format_poly(Poly((0, 1, 11, 11, 1))) == "x + 11x^2 + 11x^3 + x^4"
    assert format_poly(Poly((3, -3, 1)), var="t", descending=True) == "t^2 - 3t + 3"
    assert format_poly(Poly()) == "0"
    assert format_poly(Poly((0, -1))) == "-x"
    assert format_poly(Poly((Fraction(-1, 2), 1)), descending=True) == "x - 1/2"


def test_evaluate():
    p = Poly((1, -2, 1))
    assert p(1) == 0
    assert p(Fraction(1, 2)) == Fraction(1, 4)


def test_hash_agrees_with_scalar_equality():
    assert Poly((3,)) == 3
    assert len({Poly((3,)), 3}) == 1
    assert hash(Poly((Fraction(1, 2),))) == hash(Fraction(1, 2))
    assert hash(Poly()) == 0
    assert len({Poly(), 0, Fraction(0)}) == 1


def test_bool_coefficients_rejected():
    with pytest.raises(TypeError):
        Poly((True, False, True))
