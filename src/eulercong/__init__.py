"""Exact arithmetic for Eulerian polynomials and the congruence they satisfy.

Everything is computed over the rationals with no floating point anywhere:
dense polynomials and truncated series built on ``fractions.Fraction``,
Eulerian and Bernoulli polynomials by independent routes, shift-operator
calculus with both closed formulas for Linial characteristic polynomials,
and the congruence

    f(x^m) == ((1 + x + ... + x^(m-1))/m)^(ell+1) f(x)   mod (x-1)^(ell+1)

verified for the Eulerian polynomial and solved, as an exact linear system,
to recover it.
"""

from .audit import CheckResult, run_audit
from .bernoulli import (
    bernoulli_number,
    bernoulli_number_from_eulerian,
    bernoulli_poly,
    bernoulli_shift_identity,
    bernoulli_table,
    power_sum_via_bernoulli,
    zeta_negative,
)
from .congruence import (
    CharacterizationSolution,
    CongruenceReport,
    EquivalenceAudit,
    congruence_defect,
    congruence_report,
    equivalence_audit,
    even_degree_strengthening,
    m2_exact_identity,
    polynomiality_check,
    random_monic_perturbation,
    solve_characterization,
)
from .eulerian import (
    EulerianTriangle,
    eulerian_at_minus_one,
    eulerian_egf_check,
    eulerian_number,
    eulerian_number_closed_form,
    eulerian_poly,
    eulerian_triangle,
    power_sum_series,
    series_coefficient_polynomial,
)
from .polynomial import (
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
from .series import (
    Series,
    expand_quotient,
    series_t_divide,
)
from .shift import (
    apply_shift,
    eulerian_operator,
    linial_charpoly_mean_shift,
    linial_charpoly_worpitzky,
    mean_of_shifts,
    operator_divisibility,
    worpitzky_check,
)

__all__ = [
    "CheckResult",
    "CharacterizationSolution",
    "CongruenceReport",
    "EquivalenceAudit",
    "EulerianTriangle",
    "Poly",
    "Series",
    "apply_shift",
    "bernoulli_number",
    "bernoulli_number_from_eulerian",
    "bernoulli_poly",
    "bernoulli_shift_identity",
    "bernoulli_table",
    "binom_poly",
    "compose_monomial",
    "congruence_defect",
    "congruence_report",
    "equivalence_audit",
    "eulerian_at_minus_one",
    "eulerian_egf_check",
    "eulerian_number",
    "eulerian_number_closed_form",
    "eulerian_operator",
    "eulerian_poly",
    "eulerian_triangle",
    "even_degree_strengthening",
    "expand_quotient",
    "format_poly",
    "linial_charpoly_mean_shift",
    "linial_charpoly_worpitzky",
    "m2_exact_identity",
    "mean_of_shifts",
    "negate_variable",
    "operator_divisibility",
    "parse_poly",
    "poly_text",
    "polynomiality_check",
    "power_sum_series",
    "power_sum_via_bernoulli",
    "random_monic_perturbation",
    "remainder_mod_power",
    "run_audit",
    "series_coefficient_polynomial",
    "series_t_divide",
    "solve_characterization",
    "taylor_shift",
    "worpitzky_check",
    "zeta_negative",
]

__version__ = "0.1.0"
