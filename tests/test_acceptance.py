"""Acceptance gate: every criterion checked exactly, one printed line each.

All arithmetic is exact rational, so every comparison is equality with zero
tolerance.  Criteria with stated runtime budgets assert them; the budgets
are generous, the work is milliseconds.
"""

import random
import time
from fractions import Fraction
from math import comb, factorial

from eulercong.bernoulli import (
    bernoulli_number,
    bernoulli_number_from_eulerian,
    bernoulli_poly,
    bernoulli_shift_identity,
    zeta_negative,
)
from eulercong.congruence import (
    congruence_report,
    even_degree_strengthening,
    m2_exact_identity,
    random_monic_perturbation,
    solve_characterization,
)
from eulercong.eulerian import (
    eulerian_egf_check,
    eulerian_number,
    eulerian_number_closed_form,
    eulerian_poly,
    eulerian_triangle,
    power_sum_series,
)
from eulercong.polynomial import Poly
from eulercong.series import Series, series_t_divide
from eulercong.shift import (
    linial_charpoly_mean_shift,
    linial_charpoly_worpitzky,
    operator_divisibility,
    worpitzky_check,
)


def _report(num, label, ok, seconds=None):
    stamp = f" [{seconds:.3f}s]" if seconds is not None else ""
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {label}{stamp}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_01_known_values():
    start = time.perf_counter()
    eulerian_expected = {
        1: Poly((0, 1)),
        2: Poly((0, 1, 1)),
        3: Poly((0, 1, 4, 1)),
        4: Poly((0, 1, 11, 11, 1)),
    }
    bernoulli_expected = {
        0: Poly((1,)),
        1: Poly((Fraction(-1, 2), 1)),
        2: Poly((Fraction(1, 6), -1, 1)),
        3: Poly((0, Fraction(1, 2), Fraction(-3, 2), 1)),
        4: Poly((Fraction(-1, 30), 0, 1, -2, 1)),
    }
    ok = all(eulerian_poly(l) == p for l, p in eulerian_expected.items()) and all(
        bernoulli_poly(l) == p for l, p in bernoulli_expected.items()
    )
    elapsed = time.perf_counter() - start
    _report(1, "known values A_1..A_4 and B_0..B_4", ok and elapsed < 1.0, elapsed)


def test_criterion_02_dual_route_eulerian():
    start = time.perf_counter()
    ok = True
    for ell in range(1, 13):
        row = eulerian_triangle(ell).row(ell)
        closed = tuple(
            eulerian_number_closed_form(ell, k) for k in range(1, ell + 1)
        )
        series = power_sum_series(ell, 2 * ell) * (Poly((1, -1)) ** (ell + 1))
        extracted = Series.from_poly(eulerian_poly(ell), 2 * ell)
        ok = ok and row == closed and series == extracted
    elapsed = time.perf_counter() - start
    _report(
        2,
        "recurrence vs closed form vs series extraction, ell <= 12",
        ok and elapsed < 5.0,
        elapsed,
    )


def test_criterion_03_congruence_holds():
    start = time.perf_counter()
    cases = [
        congruence_report(eulerian_poly(ell), ell, m)
        for ell in range(2, 13)
        for m in range(2, 7)
    ]
    ok = len(cases) == 55 and all(
        r.holds and r.remainder.is_zero for r in cases
    )
    elapsed = time.perf_counter() - start
    _report(3, "congruence remainder zero, 55 cases", ok and elapsed < 30.0, elapsed)


def test_criterion_04_characterization():
    start = time.perf_counter()
    ok = True
    for ell in range(1, 11):
        for m in (2, 3, 5):
            result = solve_characterization(ell, m)
            ok = ok and result.solution == eulerian_poly(ell) and result.unique
    rng = random.Random(42)
    for ell in range(1, 9):
        for m in (2, 3):
            for _ in range(50):
                f = random_monic_perturbation(ell, rng)
                ok = ok and not congruence_report(f, ell, m).holds
    elapsed = time.perf_counter() - start
    _report(
        4,
        "solver recovers A_ell (ell <= 10, m in {2,3,5}); 800 perturbations fail",
        ok and elapsed < 60.0,
        elapsed,
    )


def test_criterion_05_even_strengthening():
    ok = all(
        even_degree_strengthening(ell, m)
        for ell in range(2, 13, 2)
        for m in range(2, 6)
    ) and all(not even_degree_strengthening(ell, 2) for ell in (3, 5, 7))
    _report(5, "extra (x-1) factor for even ell <= 12, absent for odd", ok)


def test_criterion_06_m2_identity():
    ok = all(m2_exact_identity(ell) for ell in range(1, 13))
    _report(6, "m=2 closed identity, ell <= 12", ok)


def test_criterion_07_linial():
    ok = linial_charpoly_mean_shift(2, 1) == Poly((3, -3, 1))
    for ell in range(1, 9):
        for m in range(1, 6):
            ok = ok and (
                linial_charpoly_mean_shift(ell, m)
                == linial_charpoly_worpitzky(ell, m)
            )
            _, remainder = operator_divisibility(ell, m)
            ok = ok and remainder.is_zero
    _report(7, "Linial formulas agree and operator divisibility, ell <= 8, m <= 5", ok)


def test_criterion_08_worpitzky():
    ok = all(worpitzky_check(ell)[0] for ell in range(1, 13))
    for ell in range(1, 13):
        for k in range(1, 21):
            total = sum(
                eulerian_number(ell, j) * comb(k + ell - j, ell)
                for j in range(1, ell + 1)
            )
            ok = ok and total == k**ell
    _report(8, "Worpitzky identity exact (ell <= 12) and numeric (k <= 20)", ok)


def test_criterion_09_bernoulli_bridges():
    ok = all(
        bernoulli_number_from_eulerian(ell) == bernoulli_number(ell)
        for ell in range(1, 21)
    )
    ok = ok and all(bernoulli_shift_identity(ell)[0] for ell in range(1, 11))
    ok = ok and zeta_negative(1) == Fraction(-1, 12)
    ok = ok and zeta_negative(3) == Fraction(1, 120)
    # second route recomputed here, independently of zeta_negative
    for ell in (1, 3):
        via_eulerian = eulerian_poly(ell)(-1) / (
            2 ** (ell + 1) * (2 ** (ell + 1) - 1)
        )
        ok = ok and via_eulerian == zeta_negative(ell)
    _report(9, "Bernoulli bridges and zeta values via both routes", ok)


def test_criterion_10_egf_truncations():
    agree, lhs, rhs = eulerian_egf_check(6)
    ok = agree
    for ell in range(7):
        ok = ok and rhs.coefficient(ell) == eulerian_poly(ell) / factorial(ell)
    # signed-value generating function 2/(1 + e^{2t}) through t^8
    order = 8
    den = [Poly((2,))] + [
        Poly((Fraction(2**n, factorial(n)),)) for n in range(1, order + 1)
    ]
    signed = series_t_divide(
        Series.constant(Poly((2,)), order), Series(den, order)
    )
    for ell in range(order + 1):
        value = signed.coefficient(ell).coefficient(0) * factorial(ell)
        ok = ok and value == eulerian_poly(ell)(-1)
    _report(10, "generating functions through t^6 and t^8 match direct values", ok)
