"""Property tests for the polynomial, series, shift and congruence layers.

They add to the example tests in the other modules: the ring laws of
``Poly`` and of ``Series`` over both coefficient rings, the laws of the
shift operators, and the integer kernels of ``taylor_shift`` and the
congruence checked against the ``Fraction`` routes in fraction_routes.py.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_routes as oracle
from eulercong.congruence import congruence_defect, congruence_report, solve_characterization
from eulercong.polynomial import Poly, remainder_mod_power, taylor_shift
from eulercong.series import Series, expand_quotient, series_t_divide
from eulercong.shift import apply_shift

SETTINGS = settings(max_examples=40, deadline=None)

fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


def polys(max_degree):
    return st.lists(fractions, max_size=max_degree + 1).map(Poly)


def series_of_order(coeff, order):
    return st.lists(coeff, min_size=order + 1, max_size=order + 1).map(
        lambda cs: Series(cs, order)
    )


def series_over(coeff):
    return st.integers(0, 5).flatmap(lambda n: series_of_order(coeff, n))


RINGS = {"fraction": fractions, "poly": polys(2)}


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
@SETTINGS
@given(data=st.data())
def test_series_ring_laws(ring, data):
    a, b, c = (data.draw(series_over(ring)) for _ in range(3))
    assert (a + b).order == (a * b).order == min(a.order, b.order)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero
    assert a * Series.constant(1, a.order) == a
    assert a + Series.constant(0, a.order) == a


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
@SETTINGS
@given(data=st.data())
def test_series_t_divide_inverts_product(ring, data):
    order = data.draw(st.integers(0, 5))
    num = data.draw(series_of_order(ring, order))
    lead = data.draw(fractions.filter(bool))
    rest = data.draw(st.lists(ring, min_size=order, max_size=order))
    den = Series([lead] + rest, order)
    assert den * series_t_divide(num, den) == num


@SETTINGS
@given(p=polys(5), d=st.integers(1, 4), extra=st.integers(0, 6))
def test_expand_quotient_times_denominator(p, d, extra):
    order = max(p.degree, 0) + extra
    expanded = expand_quotient(p, d, order)
    assert expanded * Poly((1, -1)) ** d == Series.from_poly(p, order)


@SETTINGS
@given(a=polys(4), f=polys(5), g=polys(5), c=fractions)
def test_apply_shift_is_linear(a, f, g, c):
    assert apply_shift(a, f + g) == apply_shift(a, f) + apply_shift(a, g)
    assert apply_shift(a, f * c) == apply_shift(a, f) * c


@SETTINGS
@given(a=polys(3), b=polys(3), f=polys(5))
def test_apply_shift_composes_as_symbol_product(a, b, f):
    assert apply_shift(a * b, f) == apply_shift(a, apply_shift(b, f))


@SETTINGS
@given(k=st.integers(0, 6), f=polys(6), t=fractions)
def test_apply_shift_monomial_is_pure_shift(k, f, t):
    assert apply_shift(Poly.monomial(k), f)(t) == f(t - k)


@SETTINGS
@given(a=polys(4), b=polys(4), c=polys(4))
def test_poly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero
    assert a * Poly.one() == a
    assert a + Poly.zero() == a


@SETTINGS
@given(p=polys(8), c=fractions)
def test_taylor_shift_matches_fraction_horner(p, c):
    # c ranges over both signs, integral and not.
    assert taylor_shift(p, c) == oracle.taylor_shift(p, c)


@SETTINGS
@given(p=polys(8), c=fractions)
def test_taylor_shift_round_trip(p, c):
    assert taylor_shift(taylor_shift(p, c), -c) == p


@SETTINGS
@given(p=polys(10), c=fractions, k=st.integers(1, 6))
def test_remainder_mod_power_split(p, c, k):
    remainder, quotient = remainder_mod_power(p, c, k)
    assert p == quotient * Poly((-c, 1)) ** k + remainder
    assert remainder.degree < k
    assert (remainder, quotient) == oracle.remainder_mod_power(p, c, k)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), ell=st.integers(1, 16), m=st.integers(2, 7))
def test_congruence_report_matches_fraction_route(data, ell, m):
    # Degree -1 (zero) up to ell, so short and zero f are drawn too.
    f = data.draw(polys(ell))
    report = congruence_report(f, ell, m)
    expected = oracle.congruence_report(f, ell, m)
    assert (report.defect, report.remainder, report.quotient, report.holds) == expected
    # The defect alone takes f of any degree.
    g = data.draw(polys(ell + 3))
    assert congruence_defect(g, ell, m) == oracle.congruence_defect(g, ell, m)


@settings(max_examples=15, deadline=None)
@given(ell=st.integers(1, 12), m=st.integers(2, 6))
def test_solve_matches_defect_columns(ell, m):
    result = solve_characterization(ell, m)
    expected = oracle.solve_characterization(ell, m)
    assert (result.solution, result.system_rank, result.unique) == expected
