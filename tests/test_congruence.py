import json
import random
from fractions import Fraction

import pytest

from eulercong.congruence import (
    congruence_defect,
    congruence_report,
    equivalence_audit,
    even_degree_strengthening,
    m2_exact_identity,
    polynomiality_check,
    random_monic_perturbation,
    solve_characterization,
)
from eulercong.eulerian import eulerian_poly
from eulercong.cli import main
from eulercong.polynomial import Poly, negate_variable, parse_poly, poly_text


def test_report_for_a2_m2():
    report = congruence_report(eulerian_poly(2), 2, 2)
    assert report.holds
    # defect expands to -x(1-x)^4 / 8
    assert poly_text(report.defect) == "0 -1/8 1/2 -3/4 1/2 -1/8"
    assert report.remainder.is_zero
    assert poly_text(report.quotient) == "0 1/8 -1/8"
    # exact reassembly
    assert report.quotient * Poly((-1, 1)) ** 3 + report.remainder == report.defect


def test_perturbed_polynomial_fails():
    report = congruence_report(eulerian_poly(2) + Poly((0, 1)), 2, 2)
    assert not report.holds


def test_soundness_over_range():
    for ell in range(1, 11):
        for m in range(2, 6):
            assert congruence_report(eulerian_poly(ell), ell, m).holds, (ell, m)


def test_defect_degree_bound():
    for ell in range(1, 7):
        for m in range(2, 6):
            defect = congruence_defect(eulerian_poly(ell), ell, m)
            assert defect.degree <= m * ell + (m - 1) * (ell + 1)
            assert defect.degree == m * ell + m - 1


def test_report_validation():
    with pytest.raises(ValueError):
        congruence_report(Poly((0, 1)), 1, 1)
    with pytest.raises(ValueError):
        congruence_report(Poly.monomial(3), 2, 2)
    with pytest.raises(ValueError):
        congruence_report(Poly((0, 1)), 0, 2)


def test_m2_exact_identity_small():
    # ((1+x)/2)^2 x - x^2 == x(1-x)^2/4 == -((1-x)/2)^2 (-x)
    half = Fraction(1, 2)
    lhs = Poly((half, half)) ** 2 * Poly((0, 1)) - Poly((0, 0, 1))
    rhs = -(Poly((half, -half)) ** 2) * negate_variable(Poly((0, 1)))
    assert lhs == rhs == Poly((0, 1)) * Poly((1, -1)) ** 2 / 4
    assert m2_exact_identity(1)


def test_m2_exact_identity_range():
    for ell in range(1, 13):
        assert m2_exact_identity(ell), ell


def test_m2_right_side_is_multiple_of_modulus():
    # the closed right side reduced mod (x-1)^(ell+1) must vanish,
    # re-deriving the congruence for m = 2
    from eulercong.polynomial import remainder_mod_power

    for ell in range(1, 13):
        a = eulerian_poly(ell)
        half = Fraction(1, 2)
        right = -(Poly((half, -half)) ** (ell + 1)) * negate_variable(a)
        remainder, _ = remainder_mod_power(right, 1, ell + 1)
        assert remainder.is_zero


def test_even_degree_strengthening():
    for ell in range(2, 13, 2):
        for m in range(2, 6):
            assert even_degree_strengthening(ell, m), (ell, m)
    for ell in (3, 5, 7):
        assert not even_degree_strengthening(ell, 2), ell
    assert not even_degree_strengthening(1, 2)


def test_quotient_parity_and_degree():
    # even ell: the quotient keeps a root at 1; odd ell: it does not
    for ell in range(1, 9):
        for m in range(2, 6):
            report = congruence_report(eulerian_poly(ell), ell, m)
            assert (report.quotient(1) == 0) == (ell % 2 == 0), (ell, m)
            assert report.quotient.degree == m * ell + m - ell - 2, (ell, m)


def test_polynomiality_check():
    ok, part = polynomiality_check(1, 2, 24)
    assert ok
    ok, part = polynomiality_check(2, 3, 60)
    assert ok
    with pytest.raises(ValueError):
        polynomiality_check(2, 3, 10)


def test_polynomiality_matches_quotient():
    # the polynomial part is the (x-1)-quotient rescaled by (-m)^(ell+1)
    for ell, m in ((1, 2), (2, 2), (2, 3), (3, 2)):
        order = 4 * m * (ell + 1)
        ok, part = polynomiality_check(ell, m, order)
        assert ok
        report = congruence_report(eulerian_poly(ell), ell, m)
        assert part == report.quotient * Fraction((-1) ** (ell + 1) * m ** (ell + 1))


def test_solver_examples():
    assert solve_characterization(2, 2).solution == Poly((0, 1, 1))
    assert solve_characterization(4, 2).solution == Poly((0, 1, 11, 11, 1))
    assert solve_characterization(3, 5).solution == Poly((0, 1, 4, 1))


def test_solver_round_trip():
    for ell in range(1, 11):
        for m in (2, 3, 5):
            result = solve_characterization(ell, m)
            assert result.solution == eulerian_poly(ell), (ell, m)
            assert result.unique
            assert result.system_rank == ell
            # the solution satisfies its own congruence
            assert congruence_report(result.solution, ell, m).holds


def test_equivalence_audit():
    audit = equivalence_audit(3, (2, 3, 4))
    assert audit.all_equal
    assert audit.solutions[0] == eulerian_poly(3)
    single = equivalence_audit(1, (2,))
    assert single.solutions == (Poly((0, 1)),)
    six = equivalence_audit(6, (2, 3))
    assert six.all_equal and six.solutions[0] == eulerian_poly(6)
    with pytest.raises(ValueError):
        equivalence_audit(3, ())


def test_falsification():
    rng = random.Random(42)
    for ell in range(1, 9):
        for m in (2, 3):
            for _ in range(10):
                f = random_monic_perturbation(ell, rng)
                assert f.is_monic and f.degree == ell and f != eulerian_poly(ell)
                assert not congruence_report(f, ell, m).holds, (ell, m)


def _check_verify_output(out, f, ell, m):
    # The printed polynomials obey both identities at two rational points.
    report = json.loads(out)
    defect, remainder, quotient = (
        parse_poly(report[key]) for key in ("defect", "remainder", "quotient")
    )
    for x in (Fraction(3, 7), Fraction(-5, 2)):
        window = (sum(x**j for j in range(m)) / m) ** (ell + 1)
        assert defect(x) == f(x**m) - window * f(x)
        assert defect(x) == quotient(x) * (x - 1) ** (ell + 1) + remainder(x)
    return report


def test_verify_large_sizes(capsys):
    ell, m = 80, 6
    a = eulerian_poly(ell)
    assert main(["verify", "--ell", str(ell), "--m", str(m)]) == 0
    report = _check_verify_output(capsys.readouterr().out, a, ell, m)
    assert report["holds"] and report["remainder"] == "0"

    f = a + Poly([(-1) ** i * (i % 3 + 1) for i in range(ell)])
    assert main(["verify", "--ell", str(ell), "--m", str(m), "--f", poly_text(f)]) == 1
    report = _check_verify_output(capsys.readouterr().out, f, ell, m)
    assert not report["holds"] and report["remainder"] != "0"


def test_solve_large_size(capsys):
    assert main(["solve", "--ell", "20", "--m", "4", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["solution"] == poly_text(eulerian_poly(20))
    assert report["rank"] == 20 and report["unique"]
