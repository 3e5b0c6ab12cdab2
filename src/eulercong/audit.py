"""Self-audit battery: every module's invariants, run within given bounds.

Each check exercises one family of identities or contracts and reports a
single pass/fail with a short detail string.  The battery is deterministic
for a fixed seed and bounds, which makes it usable both as a CI gate (the
CLI exposes it with exit-code semantics) and as a quick health check after
changes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable

from . import bernoulli, congruence, eulerian, shift
from .polynomial import (
    Poly,
    binom_poly,
    compose_monomial,
    remainder_mod_power,
    taylor_shift,
)
from .series import Series, expand_quotient, series_t_divide


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_poly(rng: random.Random, max_degree: int) -> Poly:
    degree = rng.randint(0, max_degree)
    coeffs = [
        Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree + 1)
    ]
    return Poly(coeffs)


def _check_ring_axioms(rng: random.Random) -> tuple[bool, str]:
    for _ in range(20):
        a, b, c = (_random_poly(rng, 6) for _ in range(3))
        if a + b != b + a or a * b != b * a:
            return False, "commutativity broken"
        if (a + b) + c != a + (b + c) or (a * b) * c != a * (b * c):
            return False, "associativity broken"
        if a * (b + c) != a * b + a * c:
            return False, "distributivity broken"
    return True, "20 random triples, degree <= 6"


def _check_taylor_shift_round_trip(rng: random.Random) -> tuple[bool, str]:
    for _ in range(20):
        p = _random_poly(rng, 8)
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        if taylor_shift(taylor_shift(p, c), -c) != p:
            return False, f"round trip failed at c={c}"
    return True, "20 random shifts"


def _check_power_remainder(rng: random.Random) -> tuple[bool, str]:
    for _ in range(20):
        p = _random_poly(rng, 10)
        k = rng.randint(1, 8)
        c = Fraction(rng.choice((-2, -1, 1, 2)))
        r, q = remainder_mod_power(p, c, k)
        if r.degree >= k:
            return False, "remainder degree too large"
        if q * Poly((-c, 1)) ** k + r != p:
            return False, "division identity broken"
    return True, "20 random splits, k <= 8"


def _check_series_round_trip(rng: random.Random) -> tuple[bool, str]:
    for _ in range(12):
        p = _random_poly(rng, 6)
        d = rng.randint(1, 4)
        order = p.degree + 8 if p.degree >= 0 else 8
        expanded = expand_quotient(p, d, order)
        back = expanded * (Poly((1, -1)) ** d)
        if back != Series.from_poly(p, order):
            return False, f"round trip failed for d={d}"
    return True, "12 random quotient expansions"


def _check_compose_monomial_degree(rng: random.Random) -> tuple[bool, str]:
    for _ in range(12):
        p = _random_poly(rng, 6)
        m = rng.randint(1, 5)
        q = compose_monomial(p, m)
        if not p.is_zero and q.degree != m * p.degree:
            return False, "degree bookkeeping broken"
    return True, "12 random compositions"


def _check_triangle(max_ell: int, mutate) -> tuple[bool, str]:
    rows = [list(row) for row in eulerian.eulerian_triangle(max_ell).rows]
    if mutate is not None:
        rows = mutate(rows)
    for n, row in enumerate(rows, start=1):
        if sum(row) != factorial(n):
            return False, f"row {n} does not sum to {n}!"
        if any(v <= 0 for v in row):
            return False, f"row {n} has a nonpositive entry"
        if row != row[::-1]:
            return False, f"row {n} is not palindromic"
    return True, f"rows 1..{max_ell}: sums, positivity, symmetry"


def _check_dual_routes(max_ell: int) -> tuple[bool, str]:
    for ell in range(1, max_ell + 1):
        row = eulerian.eulerian_triangle(ell).row(ell)
        closed = tuple(
            eulerian.eulerian_number_closed_form(ell, k) for k in range(1, ell + 1)
        )
        if row != closed:
            return False, f"recurrence vs closed form differ at ell={ell}"
        series = eulerian.power_sum_series(ell, 3 * ell)
        recovered = series * (Poly((1, -1)) ** (ell + 1))
        expected = Series.from_poly(eulerian.eulerian_poly(ell), 3 * ell)
        if recovered != expected:
            return False, f"series extraction differs at ell={ell}"
    return True, f"ell <= {max_ell}: recurrence, closed form, series extraction"


def _check_worpitzky(max_ell: int) -> tuple[bool, str]:
    for ell in range(1, max_ell + 1):
        ok, _ = shift.worpitzky_check(ell)
        if not ok:
            return False, f"operator identity fails at ell={ell}"
        for k in range(1, 21):
            total = sum(
                eulerian.eulerian_number(ell, j) * comb(k + ell - j, ell)
                for j in range(1, ell + 1)
            )
            if total != k**ell:
                return False, f"numeric identity fails at ell={ell}, k={k}"
    return True, f"ell <= {max_ell}, numeric k <= 20"


def _check_coefficient_polynomial(max_ell: int, rng: random.Random) -> tuple[bool, str]:
    for ell in range(1, max_ell + 1):
        alpha = eulerian.series_coefficient_polynomial(
            eulerian.eulerian_poly(ell), ell
        )
        if alpha != Poly.monomial(ell):
            return False, f"Eulerian coefficient polynomial is not t^ell at ell={ell}"
        perturbed = congruence.random_monic_perturbation(ell, rng)
        alpha2 = eulerian.series_coefficient_polynomial(perturbed, ell)
        if alpha2 == Poly.monomial(ell):
            return False, f"perturbed polynomial passes falsely at ell={ell}"
    return True, f"ell <= {max_ell}, with perturbed counterexamples"


def _check_egf(max_ell: int) -> tuple[bool, str]:
    order = max(2, min(max_ell, 8))
    ok, _, _ = eulerian.eulerian_egf_check(order)
    if not ok:
        return False, f"generating function mismatch through t^{order}"
    kernel = eulerian.signed_egf_kernel(2 * max_ell)
    for ell in range(0, 2 * max_ell + 1):
        value = eulerian.eulerian_at_minus_one(ell)
        if value != kernel.coefficient(ell) * factorial(ell):
            return False, f"A_{ell}(-1) differs from the 2/(1+e^(2t)) route"
        if ell >= 2 and ell % 2 == 0 and value != 0:
            return False, f"A_ell(-1) nonzero for even ell={ell}"
    return True, f"kernel through t^{order}, signed values through ell={2 * max_ell}"


def _bernoulli_numbers_recurrence(count: int) -> list[Fraction]:
    # Independent oracle: B_0 = 1 and sum_{j<n} C(n, j) B_j = 0 for n >= 2.
    numbers = [Fraction(1)]
    for n in range(1, count + 1):
        acc = sum(comb(n + 1, j) * numbers[j] for j in range(n))
        numbers.append(-acc / (n + 1))
    return numbers


def _check_bernoulli(max_ell: int) -> tuple[bool, str]:
    top = max(max_ell + 1, 4)
    numbers = _bernoulli_numbers_recurrence(top)
    for ell in range(top + 1):
        poly = bernoulli.bernoulli_poly(ell)
        oracle = Poly(
            [
                numbers[ell - k] * comb(ell, k)
                for k in range(ell + 1)
            ]
        )
        if poly != oracle:
            return False, f"EGF route differs from recurrence oracle at ell={ell}"
        if ell >= 2 and poly(0) != poly(1):
            return False, f"B_ell(0) != B_ell(1) at ell={ell}"
        if ell >= 3 and ell % 2 == 1 and poly(0) != 0:
            return False, f"odd Bernoulli number nonzero at ell={ell}"
    for ell in range(1, top + 1):
        if bernoulli.bernoulli_number_from_eulerian(ell) != numbers[ell]:
            return False, f"Eulerian bridge wrong at ell={ell}"
    return True, f"ell <= {top}: recurrence oracle, bridge, parity"


def _check_bernoulli_power_sums(max_ell: int) -> tuple[bool, str]:
    for ell in range(1, max_ell + 1):
        for n in range(1, 13):
            brute = sum(x**ell for x in range(n))
            if bernoulli.power_sum_via_bernoulli(ell, n) != brute:
                return False, f"power sum wrong at ell={ell}, n={n}"
            binom_form = (ell + 1) * sum(
                eulerian.eulerian_number(ell, k) * comb(ell + n - k, ell + 1)
                for k in range(1, ell + 1)
            )
            b = bernoulli.bernoulli_poly(ell + 1)
            if b(n) - b(0) != binom_form:
                return False, f"binomial form wrong at ell={ell}, n={n}"
    return True, f"ell <= {max_ell}, n <= 12, vs brute force"


def _check_bernoulli_shift_identity(max_ell: int) -> tuple[bool, str]:
    for ell in range(1, max_ell + 1):
        ok, _, _ = bernoulli.bernoulli_shift_identity(ell)
        if not ok:
            return False, f"shift identity fails at ell={ell}"
    return True, f"ell <= {max_ell}"


def _check_zeta(max_ell: int) -> tuple[bool, str]:
    kernel = eulerian.signed_egf_kernel(max_ell)
    for ell in range(1, max_ell + 1):
        via_eulerian = kernel.coefficient(ell) * factorial(ell)
        via_eulerian /= 2 ** (ell + 1) * (2 ** (ell + 1) - 1)
        if bernoulli.zeta_negative(ell) != via_eulerian:
            return False, f"zeta(-{ell}) routes disagree"
    known = {1: Fraction(-1, 12), 2: Fraction(0), 3: Fraction(1, 120)}
    for ell, expected in known.items():
        if bernoulli.zeta_negative(ell) != expected:
            return False, f"zeta(-{ell}) wrong"
    return True, f"both routes agree for ell <= {max_ell}"


def _check_split_kernel_identity(order: int = 10) -> tuple[bool, str]:
    # 2t/(e^{2t}+1) == 2t/(e^{2t}-1) - 4t/(e^{4t}-1) as truncated series.
    def over_expm1(front: int, scale: int) -> Series:
        den = Series(
            tuple(Fraction(scale ** (n + 1), factorial(n + 1)) for n in range(order + 1)),
            order,
        )
        return series_t_divide(Series.constant(front, order), den)

    rhs = over_expm1(2, 2) - over_expm1(4, 4)
    base = eulerian.signed_egf_kernel(order)
    lhs = Series((0,) + base.coeffs[:order], order)
    if lhs != rhs:
        return False, "kernel split identity fails"
    return True, f"through t^{order}"


def _check_linial(max_ell: int, max_m: int) -> tuple[bool, str]:
    for ell in range(1, max_ell + 1):
        for m in range(0, max_m + 1):
            a = shift.linial_charpoly_mean_shift(ell, m)
            b = shift.linial_charpoly_worpitzky(ell, m)
            if a != b:
                return False, f"formulas disagree at ell={ell}, m={m}"
            if a.degree != ell or not a.is_monic:
                return False, f"not monic of degree ell at ell={ell}, m={m}"
            if any(c.denominator != 1 for c in a.coeffs):
                return False, f"non-integer coefficients at ell={ell}, m={m}"
    return True, f"ell <= {max_ell}, m <= {max_m}: agreement, monic, integral"


def _check_operator_divisibility(max_ell: int, max_m: int) -> tuple[bool, str]:
    for ell in range(1, max_ell + 1):
        for m in range(1, max_m + 1):
            quotient, remainder = shift.operator_divisibility(ell, m)
            if not remainder.is_zero:
                return False, f"nonzero remainder at ell={ell}, m={m}"
            if quotient.degree != m * ell + m - 1:
                return False, f"quotient degree off at ell={ell}, m={m}"
            diff = shift.mean_of_shifts(m) ** (ell + 1) * shift.eulerian_operator(ell)
            diff = diff - shift.eulerian_operator(ell, m + 1)
            if not shift.apply_shift(diff, binom_poly(ell, ell)).is_zero:
                return False, f"difference fails to annihilate at ell={ell}, m={m}"
    return True, f"ell <= {max_ell}, m <= {max_m}: division and annihilation"


def _check_congruence_soundness(max_ell: int, max_m: int) -> tuple[bool, str]:
    cases = 0
    for ell in range(1, max_ell + 1):
        for m in range(2, max(max_m, 2) + 1):
            if not congruence.congruence_report(
                eulerian.eulerian_poly(ell), ell, m
            ).holds:
                return False, f"Eulerian polynomial fails at ell={ell}, m={m}"
            cases += 1
    return True, f"{cases} (ell, m) cases hold"


def _check_congruence_falsification(
    max_ell: int, rng: random.Random
) -> tuple[bool, str]:
    cases = 0
    for ell in range(1, min(max_ell, 8) + 1):
        for m in (2, 3):
            for _ in range(10):
                f = congruence.random_monic_perturbation(ell, rng)
                if congruence.congruence_report(f, ell, m).holds:
                    return False, f"perturbation passed at ell={ell}, m={m}"
                cases += 1
    return True, f"{cases} perturbed polynomials all fail"


def _check_solver(max_ell: int, max_m: int) -> tuple[bool, str]:
    for ell in range(1, max_ell + 1):
        solutions = []
        for m in range(2, max(max_m, 2) + 1):
            sol = congruence.solve_characterization(ell, m)
            if sol.solution != eulerian.eulerian_poly(ell) or not sol.unique:
                return False, f"solver wrong at ell={ell}, m={m}"
            solutions.append(sol.solution)
        if any(s != solutions[0] for s in solutions):
            return False, f"solutions differ across m at ell={ell}"
    return True, f"ell <= {max_ell}, m <= {max(max_m, 2)}: unique Eulerian solution"


def _check_m2_identity(max_ell: int) -> tuple[bool, str]:
    for ell in range(1, max_ell + 1):
        if not congruence.m2_exact_identity(ell):
            return False, f"identity fails at ell={ell}"
    return True, f"ell <= {max_ell}: polynomial and series forms"


def _check_even_strengthening(max_ell: int, max_m: int) -> tuple[bool, str]:
    for ell in range(2, max_ell + 1, 2):
        for m in range(2, max(max_m, 2) + 1):
            if not congruence.even_degree_strengthening(ell, m):
                return False, f"even ell={ell}, m={m} not strengthened"
    for ell in range(1, max_ell + 1, 2):
        if congruence.even_degree_strengthening(ell, 2):
            return False, f"odd ell={ell} unexpectedly strengthened"
    return True, f"even ell <= {max_ell} pass, odd fail, m <= {max(max_m, 2)}"


def _check_quotient_structure(max_ell: int, max_m: int) -> tuple[bool, str]:
    for ell in range(1, max_ell + 1):
        for m in range(2, max(max_m, 2) + 1):
            report = congruence.congruence_report(
                eulerian.eulerian_poly(ell), ell, m
            )
            if report.quotient.degree != m * ell + m - ell - 2:
                return False, f"quotient degree off at ell={ell}, m={m}"
            divisible = report.quotient(1) == 0
            if divisible != (ell % 2 == 0):
                return False, f"quotient parity wrong at ell={ell}, m={m}"
    return True, f"degree and parity of quotients, ell <= {max_ell}"


def _check_polynomiality(max_ell: int, max_m: int, order: int | None) -> tuple[bool, str]:
    for ell in range(1, min(max_ell, 4) + 1):
        for m in range(2, max(min(max_m, 4), 2) + 1):
            n = order if order is not None else 4 * m * (ell + 1)
            try:
                ok, part = congruence.polynomiality_check(ell, m, n)
            except ValueError as exc:
                return False, str(exc)
            if not ok:
                return False, f"tail not clean at ell={ell}, m={m}"
            report = congruence.congruence_report(eulerian.eulerian_poly(ell), ell, m)
            scaled = report.quotient * Fraction((-1) ** (ell + 1) * m ** (ell + 1))
            if part != scaled:
                return False, f"polynomial part mismatch at ell={ell}, m={m}"
    return True, "tail vanishes and matches the exact quotient"


def run_audit(
    max_ell: int = 6,
    max_m: int = 4,
    seed: int = 42,
    order: int | None = None,
    mutate_triangle: Callable | None = None,
) -> list[CheckResult]:
    """Run the full invariant battery within the given bounds.

    ``mutate_triangle`` is a test hook: it receives the Eulerian triangle
    rows as nested lists and may corrupt them; the triangle checks must then
    fail and drive a nonzero exit through the CLI.
    """
    if max_ell < 1 or max_m < 1:
        raise ValueError("bounds must be >= 1")
    rng = random.Random(seed)
    checks: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
        ("poly ring axioms", lambda: _check_ring_axioms(rng)),
        ("taylor shift round trip", lambda: _check_taylor_shift_round_trip(rng)),
        ("power-of-(x-1) split", lambda: _check_power_remainder(rng)),
        ("series quotient round trip", lambda: _check_series_round_trip(rng)),
        ("monomial composition degree", lambda: _check_compose_monomial_degree(rng)),
        ("eulerian triangle shape", lambda: _check_triangle(max_ell, mutate_triangle)),
        ("eulerian dual routes", lambda: _check_dual_routes(max_ell)),
        ("worpitzky identity", lambda: _check_worpitzky(max_ell)),
        (
            "series coefficient polynomial",
            lambda: _check_coefficient_polynomial(max_ell, rng),
        ),
        ("eulerian generating function", lambda: _check_egf(max_ell)),
        ("bernoulli vs recurrence oracle", lambda: _check_bernoulli(max_ell)),
        ("bernoulli power sums", lambda: _check_bernoulli_power_sums(max_ell)),
        (
            "bernoulli shift identity",
            lambda: _check_bernoulli_shift_identity(max_ell),
        ),
        ("zeta negative values", lambda: _check_zeta(max_ell)),
        ("split kernel identity", _check_split_kernel_identity),
        ("linial formula agreement", lambda: _check_linial(max_ell, max_m)),
        (
            "operator divisibility",
            lambda: _check_operator_divisibility(max_ell, max_m),
        ),
        (
            "congruence soundness",
            lambda: _check_congruence_soundness(max_ell, max_m),
        ),
        (
            "congruence falsification",
            lambda: _check_congruence_falsification(max_ell, rng),
        ),
        ("characterization solver", lambda: _check_solver(max_ell, max_m)),
        ("m=2 exact identity", lambda: _check_m2_identity(max_ell)),
        (
            "even-degree strengthening",
            lambda: _check_even_strengthening(max_ell, max_m),
        ),
        ("quotient structure", lambda: _check_quotient_structure(max_ell, max_m)),
        (
            "polynomiality of rescaled defect",
            lambda: _check_polynomiality(max_ell, max_m, order),
        ),
    ]
    results = []
    for name, fn in checks:
        passed, detail = fn()
        results.append(CheckResult(name, passed, detail))
    return results
