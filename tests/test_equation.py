import math
import re
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from _examples import CAPUTO, RL, example1, example2
from quasibessel import (
    QuasiBesselEquation,
    Term,
    ValidationIssue,
    equation,
    from_constant_coefficients,
    from_power_factors,
    nu_min_threshold,
    uniqueness_bound,
    validate,
)
from quasibessel.equation import FATAL, WARNING
from quasibessel.series import compute_step

# frozen from mpmath at 40 digits
THRESHOLD_EX1 = 0.84628437532163443042  # 1.5/sqrt(pi)
THRESHOLD_HALF = 0.56418958354775628695  # 1/sqrt(pi)
UNIQ_HALF = 1.3761263890318375246  # 1 + 1/(1.5 sqrt(pi))


def test_construction_normalises_term_order():
    eq = QuasiBesselEquation(
        terms=(Term(3.0, 0.5, "0.5"), Term(1.5, 1.5, "0"), Term(-1.2, 1.1, "0.8")),
        beta="2",
        nu_squared=4.0,
        kind=CAPUTO,
    )
    assert [t.alpha for t in eq.terms] == [1.5, 1.1, 0.5]
    assert eq.terms[0].is_pure_bessel
    assert eq.m1 == 1 and eq.m0 == 1
    assert eq.n_max == 2 and eq.n_m0 == 2


def test_construction_rejects_float_indices():
    with pytest.raises(TypeError):
        Term(1.0, 1.5, 0.8)
    with pytest.raises(TypeError):
        QuasiBesselEquation(terms=(Term(1.0, 1.0, "0"),), beta=2.0)


def _fatal_codes(eq):
    return [issue.code for issue in validate(eq) if issue.severity == FATAL]


def test_validate_example1_is_clean():
    assert validate(example1(2.0)) == ()


def test_validate_flags_shifted_leading_term():
    eq = QuasiBesselEquation(
        terms=(Term(1.5, 1.5, "0.8"), Term(-1.2, 1.1, "0"), Term(3.0, 0.5, "0.5")),
        beta="2",
        nu_squared=4.0,
        kind=CAPUTO,
    )
    assert _fatal_codes(eq)[0] == "E_SHIFTED_LEADING_TERM"


def test_zero_terms_take_no_part_in_the_leading_shift_rule():
    # the verdict is taken from the highest-order terms with d != 0: a zero
    # unshifted term does not hide a shifted one, nor does a zero shifted
    # term shift an unshifted one
    zero, shifted, pure = Term(0.0, 1.5, "0"), Term(1.0, 1.5, "0.5"), Term(1.0, 1.5, "0")
    lower = Term(1.0, 0.5, "0")
    for terms, fatal in [
        ((shifted, lower), ["E_SHIFTED_LEADING_TERM"]),
        ((zero, shifted, lower), ["E_SHIFTED_LEADING_TERM"]),
        ((Term(0.0, 1.5, "0.5"), pure, lower), []),
        ((zero, pure, shifted, lower), []),
        ((Term(0.0, 1.5, "0.5"), lower), ["E_ZERO_LEADING_COEFFICIENT"]),
    ]:
        eq = QuasiBesselEquation(terms=terms, beta="1", nu_squared=1.0, kind=CAPUTO)
        assert _fatal_codes(eq) == fatal, terms


def test_validate_example2_single_integer_term():
    assert _fatal_codes(example2()) == []


def test_validate_warns_on_nonpositive_bessel_coefficient():
    eq = QuasiBesselEquation(
        terms=(Term(-1.0, 1.5, "0"),), beta="2", nu_squared=1.0, kind=CAPUTO
    )
    assert _fatal_codes(eq) == []  # warning only
    codes = [i.code for i in validate(eq) if i.severity == WARNING]
    assert codes == ["W_NONPOSITIVE_BESSEL_COEFFICIENT"]


@pytest.mark.parametrize("kind", [CAPUTO, RL])
def test_validate_rejects_equation_without_derivative(kind):
    # order 0 is an algebraic equation; the root search would divide by alpha1
    eq = QuasiBesselEquation(terms=(Term(1.0, 0.0, "0"),), beta="2", nu_squared=4.0, kind=kind)
    assert _fatal_codes(eq) == ["E_NO_DERIVATIVE"]


@pytest.mark.parametrize("kind", [CAPUTO, RL])
def test_validate_rejects_an_order_above_the_limit(kind):
    # the order is checked with r applied: 1.5 r = 1500 is above 1000
    def codes(alpha, r=1.0):
        return _fatal_codes(from_constant_coefficients([(1.0, alpha)], r=r, kind=kind))

    assert codes("999.5") == [] and codes("1000") == []
    assert codes("1000.5") == codes("1.5", r=1000.0) == ["E_ORDER_TOO_LARGE"]
    eq = QuasiBesselEquation(terms=(Term(1.0, 1e300, "0"),), beta="1", kind=kind)
    assert _fatal_codes(eq) == ["E_ORDER_TOO_LARGE"]


def test_validate_rejects_a_zero_leading_coefficient():
    # d = 0 on the highest-order term is fatal; on a lower-order term it is
    # legal, and a zero pure Bessel coefficient there only warns
    leading = from_constant_coefficients([(0.0, "0.7")], kind=CAPUTO)
    assert _fatal_codes(leading) == ["E_ZERO_LEADING_COEFFICIENT"]
    eq = QuasiBesselEquation(
        terms=(Term(0.0, 1.5, "0"), Term(1.0, 0.5, "0")), beta="1", nu_squared=0.04, kind=CAPUTO
    )
    assert _fatal_codes(eq) == ["E_ZERO_LEADING_COEFFICIENT"]
    # a second term of the highest order with d != 0 keeps that derivative,
    # whichever of the two is listed first
    zero, one = Term(0.0, 1.5, "0"), Term(1.0, 1.5, "0")
    for pair in [(zero, one), (one, zero)]:
        tied = QuasiBesselEquation(terms=pair, beta="1", nu_squared=0.04, kind=CAPUTO)
        assert "E_ZERO_LEADING_COEFFICIENT" not in _fatal_codes(tied)
    assert _fatal_codes(from_constant_coefficients([(1.0, "1.5"), (0.0, "0.5")], kind=RL)) == []
    lower = QuasiBesselEquation(
        terms=(Term(1.0, 1.5, "0"), Term(0.0, 0.5, "0")), beta="1", kind=CAPUTO
    )
    assert [(i.code, i.severity) for i in validate(lower)] == [
        ("W_NONPOSITIVE_BESSEL_COEFFICIENT", WARNING)
    ]


def test_zero_beta_is_reported_as_unsupported():
    # RL x^1.5 D^1.5 u + 2 x^0.5 D^0.5 u + u = 0 reduces to beta = 0; folding
    # the constant +1 into nu^2 would need nu^2 = -1, so neither message may
    # suggest it
    eq = from_power_factors([(1.0, "1.5", "1.5"), (2.0, "0.5", "0.5")], delta="0", kind=RL)
    assert eq.beta == 0
    (issue,) = [i for i in validate(eq) if i.severity == FATAL]
    assert issue.code == "E_ZERO_BETA"
    with pytest.raises(ValueError) as exc:
        compute_step(eq)
    for message in (issue.message, str(exc.value)):
        assert "without an x^beta term" in message and "not supported" in message
        assert "nu_squared" not in message


def test_nu_min_threshold_inapplicable_for_integer_orders():
    with pytest.raises(ValueError):
        nu_min_threshold(example2())  # no fractional pure Bessel term


def test_nu_min_threshold_single_half_order():
    eq = QuasiBesselEquation(
        terms=(Term(1.0, 0.5, "0"),), beta="1", nu_squared=0.0, kind=CAPUTO
    )
    assert nu_min_threshold(eq) == pytest.approx(THRESHOLD_HALF, rel=1e-12)


def test_nu_min_threshold_example1():
    threshold = nu_min_threshold(example1(2.0))
    assert threshold == pytest.approx(THRESHOLD_EX1, rel=1e-12)
    assert 4.0 >= threshold  # nu = 2 satisfies the guarantee


def test_nu_min_threshold_monotone_in_bessel_coefficient():
    def with_d(d):
        return QuasiBesselEquation(
            terms=(Term(d, 1.5, "0"), Term(1.0, 0.5, "0.5")),
            beta="2",
            nu_squared=4.0,
            kind=CAPUTO,
        )

    values = [nu_min_threshold(with_d(d)) for d in (0.5, 1.0, 1.5, 4.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize(
    "terms",
    [
        (Term(1.0, 171.5, "0"),),  # Gamma(172) overflows
        (Term(1.0, 400.5, "0"), Term(1.0, 0.5, "0")),  # and Gamma(401 - 0.5) first
    ],
    ids=["gamma-n_m0", "gamma-of-arg"],
)
def test_nu_min_threshold_is_inf_past_gammas_range(terms):
    eq = QuasiBesselEquation(terms=terms, beta="1", kind=CAPUTO)
    assert nu_min_threshold(eq) == math.inf
    # Gamma(171)/Gamma(0.5) is still in range
    below = QuasiBesselEquation(terms=(Term(1.0, 170.5, "0"),), beta="1", kind=CAPUTO)
    assert nu_min_threshold(below) == pytest.approx(float(mp.gamma(171) / mp.gamma(0.5)))


def test_nu_min_threshold_sums_in_log_space_where_a_gamma_overflows():
    # Gamma(172) overflows, but 1e-300 Gamma(172)/Gamma(0.5) is about 7.0e8
    eq = QuasiBesselEquation(terms=(Term(1e-300, 171.5, "0"),), beta="1", kind=CAPUTO)
    with mp.workdps(30):
        exact = mp.mpf(1e-300) * mp.gamma(172) / mp.gamma(mp.mpf(0.5))
    assert nu_min_threshold(eq) == pytest.approx(float(exact), rel=1e-12)


def test_nu_min_threshold_gamma_pole_is_error():
    # integer alpha equal to n_max makes Gamma(n_max - alpha) a pole
    eq = QuasiBesselEquation(
        terms=(Term(1.0, 2.0, "0"), Term(1.0, 1.5, "0")),
        beta="2",
        nu_squared=1.0,
        kind=CAPUTO,
    )
    with pytest.raises(ValueError):
        nu_min_threshold(eq)


def test_uniqueness_bound_single_integer_term():
    eq = QuasiBesselEquation(
        terms=(Term(1.0, 1.0, "0"),), beta="0", nu_squared=0.0, kind=CAPUTO
    )
    assert uniqueness_bound(eq, 1.0) == pytest.approx(2.0, rel=1e-12)


def test_uniqueness_bound_single_half_order_term():
    eq = QuasiBesselEquation(
        terms=(Term(1.0, 0.5, "0"),), beta="0", nu_squared=0.0, kind=CAPUTO
    )
    assert uniqueness_bound(eq, 1.0) == pytest.approx(UNIQ_HALF, rel=1e-12)


def test_uniqueness_bound_example1_matches_direct_formula():
    # direct evaluation with the high-precision Gamma oracle
    mp.mp.dps = 30
    qs = []
    for alpha, n in ((1.5, 2), (1.1, 2), (0.5, 1)):
        gap = n - alpha
        qs.append(1.0 / float(mp.gamma(gap) * (gap + 1)))
    expected = 1.0 + qs[0] * 1.5 + qs[1] * 1.2 + qs[2] * 3.0
    assert uniqueness_bound(example1(2.0), 1.0) == pytest.approx(expected, rel=1e-12)


def test_from_constant_coefficients_worked_example():
    eq = from_constant_coefficients([(2.0, "2.1"), (0.5, "1.4"), (1.0, "0.7")], kind=RL)
    assert [t.p for t in eq.terms] == [Fraction(0), Fraction(7, 10), Fraction(14, 10)]
    assert eq.beta == Fraction(21, 10)
    assert eq.nu_squared == 0.0
    assert _fatal_codes(eq) == []


def test_from_constant_coefficients_example2():
    eq = from_constant_coefficients([(1.0, "1")], kind=CAPUTO)
    assert eq.beta == Fraction(1)
    assert eq.terms[0].p == 0 and eq.terms[0].alpha == 1.0


def test_from_constant_coefficients_requires_strict_max():
    with pytest.raises(ValueError):
        from_constant_coefficients([(1.0, "2.1"), (1.0, "2.1")])


def test_from_power_factors_example4():
    eq = from_power_factors([(-2.0, "0", "0.5")], delta="0.7", kind=RL)
    assert eq.beta == Fraction(6, 5)
    assert eq.terms[0].p == 0
    assert eq.terms[0].alpha == 0.5


def test_from_power_factors_reduces_to_constant_coefficients():
    triples = [(2.0, "0", "2.1"), (0.5, "0", "1.4"), (1.0, "0", "0.7")]
    via_power = from_power_factors(triples, delta="0", kind=RL)
    via_const = from_constant_coefficients(
        [(2.0, "2.1"), (0.5, "1.4"), (1.0, "0.7")], kind=RL
    )
    assert via_power.beta == via_const.beta
    assert [t.p for t in via_power.terms] == [t.p for t in via_const.terms]


def test_from_power_factors_identity_case():
    eq = from_power_factors([(1.0, "1", "1")], delta="1", kind=RL)
    assert eq.beta == Fraction(1)
    assert eq.terms[0].p == 0


def test_from_power_factors_side_condition():
    with pytest.raises(ValueError):
        # alpha_1 - beta_1 = 0.5 < alpha_2 - beta_2 = 0.7
        from_power_factors([(1.0, "1", "1.5"), (1.0, "0", "0.7")], delta="0")


def test_transformed_powers_are_exact():
    # the declared p_i equals (power of x) - (derivative order) exactly
    eq = from_constant_coefficients([(2.0, "2.1"), (0.5, "1.4"), (1.0, "0.7")], kind=RL)
    a1 = Fraction(21, 10)
    for t in eq.terms:
        alpha_exact = a1 - t.p
        assert t.p == a1 - alpha_exact
        assert float(alpha_exact) == pytest.approx(t.alpha, abs=1e-15)


def test_uniqueness_bound_overflow_is_inf():
    # 1e300 ** 2 is beyond the float range, so the bound exceeds every nu^2
    assert uniqueness_bound(example1(2.0), 1e300) == math.inf
    # a zero coefficient adds nothing, even where its power would overflow
    eq = QuasiBesselEquation(
        terms=(Term(1.0, 0.5, "0"), Term(0.0, 0.5, "400")), beta="1", kind=CAPUTO
    )
    expected = 1e10 * (1.0 + 2.0 / (3.0 * math.sqrt(math.pi)))
    assert uniqueness_bound(eq, 1e10) == pytest.approx(expected, rel=1e-12)


def test_severity_is_fatal_exactly_for_e_codes():
    # an issue is its code and message; the code's prefix gives the severity
    eqs = [
        QuasiBesselEquation(terms=(Term(1.0, 1000.5, "0"),), beta="1", kind=CAPUTO),
        QuasiBesselEquation(terms=(Term(1.0, 0.0, "0"),), beta="2", kind=RL),
        QuasiBesselEquation(terms=(Term(1.0, 1.5, "0.5"), Term(1.0, 0.5, "0")), beta="1"),
        QuasiBesselEquation(terms=(Term(0.0, 1.5, "0"), Term(-1.0, 0.5, "0")), beta="1"),
        from_power_factors([(1.0, "1.5", "1.5"), (2.0, "0.5", "0.5")], delta="0", kind=RL),
    ]
    severities = {}
    for eq in eqs:
        for issue in validate(eq):
            assert issue == ValidationIssue(issue.code, issue.message)
            severities.setdefault(issue.code, set()).add(issue.severity)
    assert ValidationIssue._fields == ("code", "message")
    # every code that validate can give, each with its one severity
    assert set(severities) == set(re.findall(r'code="(\w+)"', Path(equation.__file__).read_text()))
    assert severities == {
        "E_ORDER_TOO_LARGE": {FATAL},
        "E_NO_DERIVATIVE": {FATAL},
        "E_SHIFTED_LEADING_TERM": {FATAL},
        "E_ZERO_LEADING_COEFFICIENT": {FATAL},
        "W_NONPOSITIVE_BESSEL_COEFFICIENT": {WARNING},
        "E_ZERO_BETA": {FATAL},
    }
