import math
import re
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _examples import (
    CAPUTO,
    RL,
    divergent_equation,
    example1,
    example2,
    example3,
    example4,
    remark3_equation,
    step_worked_example,
)
from quasibessel import (
    CancellationWarning,
    CoefficientUnderflowError,
    DenominatorPoleError,
    DerivativeUndefinedError,
    QuasiBesselEquation,
    SeriesSolution,
    Term,
    build_coefficients,
    caputo_integer_exponents,
    compute_step,
    evaluate,
    find_roots,
    from_constant_coefficients,
    from_power_factors,
    residual,
    screen_collisions,
    series,
)
from quasibessel.cli import read_spec
from quasibessel.equation import DerivativeKind, ceil_order, is_integer_order
from quasibessel.gammafn import gamma_ratio
from quasibessel.series import (
    CAPUTO_FLOOR_WIDTH,
    EPS_TAIL,
    MAX_TERMS,
    _BLOWUP_LIMIT,
    _TAU_DENOM_SCALE,
    Truncation,
    _log_magnitude,
)


SOLVEBENCH = Path(__file__).resolve().parents[1] / "solvebench"


def _valid_gamma(eq):
    return [r for r in find_roots(eq) if r.is_valid][0].gamma


@pytest.fixture(scope="module")
def reference():
    """solvebench's 50-digit reference, imported by path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(SOLVEBENCH))
        import reference
    return reference


# -- step plan --------------------------------------------------------------


def test_compute_step_worked_example():
    plan = compute_step(step_worked_example())
    assert plan.s == Fraction(3, 10)
    assert plan.n_beta == 10
    assert sorted(plan.n_p.values()) == [1, 2]
    assert plan.lcd == 10 and plan.gcf == 3


def test_compute_step_example1():
    plan = compute_step(example1(2.0))
    assert plan.s == Fraction(1, 10)
    assert plan.n_beta == 20
    assert plan.n_p == {1: 8, 2: 5}
    assert plan.lcd == 10 and plan.gcf == 1


def test_common_factor_r_matches_its_r1_restatement():
    # x^0.5 D^1.5 u + 0.5 D^0.5 u + x u = 0 in units of r = 2, and as r = 1:
    # the lattices differ (s = 1/4 and 1/2, N_LCD = 4 and 2), the step s*r,
    # the roots and every coefficient do not
    eq = from_power_factors([(1, "0.25", "0.75"), (0.5, "0", "0.25")], delta="0.5", r=2.0)
    ref = from_power_factors([(1, "0.5", "1.5"), (0.5, "0", "0.5")], delta="1")
    plan, ref_plan = compute_step(eq), compute_step(ref)
    assert (plan.s, plan.lcd, ref_plan.s, ref_plan.lcd) == (Fraction(1, 4), 4, Fraction(1, 2), 2)
    assert plan.step_value == ref_plan.step_value == 0.5
    roots = screen_collisions(find_roots(eq), plan)
    assert roots == screen_collisions(find_roots(ref), ref_plan)
    assert [r.gamma for r in roots if r.is_valid] == [0.5]
    sol = build_coefficients(eq, 0.5, plan, x_max=2.0)
    assert sol.truncation.converged
    assert sol.coefficients == build_coefficients(ref, 0.5, ref_plan, x_max=2.0).coefficients


def test_compute_step_example3():
    plan = compute_step(example3())
    assert plan.s == Fraction(17, 10)
    assert plan.n_beta == 1
    assert plan.n_p == {}


def test_compute_step_exact_round_trip():
    for eq in (example1(2.0), step_worked_example(), example3(), remark3_equation()):
        plan = compute_step(eq)
        assert plan.s * plan.n_beta == eq.beta
        for i, shift in plan.n_p.items():
            assert plan.s * shift == eq.terms[i].p
        assert math.gcd(plan.n_beta, *plan.n_p.values()) == 1 if plan.n_p else plan.n_beta >= 1


def test_compute_step_rejects_zero_beta():
    eq = QuasiBesselEquation(terms=(Term(1.0, 1.0, "0"),), beta="0", nu_squared=0.0)
    with pytest.raises(ValueError):
        compute_step(eq)


# -- coefficient recursion ----------------------------------------------------


def test_build_coefficients_rejects_a_cap_below_one():
    # a cap below one, like a term count below one, leaves no recursion step
    eq = example2()
    with pytest.raises(ValueError, match=r"^max_terms must be >= 1, got 0$"):
        build_coefficients(eq, 0.0, compute_step(eq), max_terms=0)
    with pytest.raises(ValueError, match=r"^n_terms must be >= 1, got 0$"):
        build_coefficients(eq, 0.0, compute_step(eq), n_terms=0)


def test_example2_factorial_coefficients():
    eq = example2()
    plan = compute_step(eq)
    sol = build_coefficients(eq, 0.0, plan, n_terms=30)
    c = sol.coefficients
    # ratio test, term by term: c_n = -c_(n-1)/n
    for n in range(1, 31):
        assert abs(c[n] * n + c[n - 1]) <= 1e-15 * abs(c[n - 1])
    for n in range(0, 31):
        assert c[n] == pytest.approx((-1.0) ** n / math.factorial(n), rel=1e-14)


def test_example3_closed_form_coefficients():
    eq = example3()
    plan = compute_step(eq)
    sol = build_coefficients(eq, 0.7, plan, n_terms=25)
    mp.mp.dps = 30
    for n, c in enumerate(sol.coefficients):
        ref = float(2**n * mp.gamma(1.7) / mp.gamma(1.7 + 1.7 * n))
        assert c == pytest.approx(ref, rel=1e-12)


def test_remark3_denominator_pole():
    eq = remark3_equation()
    plan = compute_step(eq)
    with pytest.raises(DenominatorPoleError) as err:
        build_coefficients(eq, -0.5, plan, n_terms=20)
    assert err.value.n == 5
    # the surviving root builds fine
    sol = build_coefficients(eq, 0.5, plan, n_terms=40)
    assert all(math.isfinite(c) for c in sol.coefficients)


def test_linearity_in_c0_is_exact():
    eq = example1(2.0)
    plan = compute_step(eq)
    g = _valid_gamma(eq)
    base = build_coefficients(eq, g, plan, n_terms=80)
    scaled = build_coefficients(eq, g, plan, n_terms=80, c0=-3.7)
    assert all(b * -3.7 == s for b, s in zip(base.coefficients, scaled.coefficients))


def test_telescoping_identity_against_oracle():
    # recompute the recursion balance with mpmath Gamma ratios: the float
    # coefficients must satisfy it to 1e-12 of the participating terms
    eq = example1(2.0)
    plan = compute_step(eq)
    g = _valid_gamma(eq)
    sol = build_coefficients(eq, g, plan, n_terms=80)
    c = sol.coefficients
    mp.mp.dps = 30
    gm = mp.mpf(g)
    s = mp.mpf(1) / 10

    def q(r, p):
        return mp.gamma(1 + gm + r) / mp.gamma(1 + gm + r - p)

    for n in range(20, 81):
        d_n = mp.mpf("1.5") * q(n * s, mp.mpf("1.5")) - 4
        parts = [
            d_n * c[n],
            mp.mpf(c[n - 20]),
            mp.mpf("-1.2") * c[n - 8] * q((n - 8) * s, mp.mpf("1.1")),
            mp.mpf(3) * c[n - 5] * q((n - 5) * s, mp.mpf("0.5")),
        ]
        balance = float(abs(sum(parts)))
        scale = float(max(abs(p) for p in parts))
        assert balance <= 1e-12 * scale


def test_divergent_equation_blows_up():
    eq = divergent_equation()
    plan = compute_step(eq)
    roots = find_roots(eq)
    assert roots[0].gamma == pytest.approx(-0.5, abs=1e-12)
    sol = build_coefficients(eq, -0.5, plan, n_terms=200)
    crossed = [n for n, c in enumerate(sol.coefficients) if abs(c) > 1e12]
    assert crossed and crossed[0] < 200
    assert not sol.truncation.converged


def test_truncation_rule_and_tail_estimate():
    eq = example1(2.0)
    plan = compute_step(eq)
    g = _valid_gamma(eq)
    sol = build_coefficients(eq, g, plan, x_max=3.0)
    tr = sol.truncation
    assert tr.converged
    assert tr.terms_used <= 2000
    n = tr.terms_used
    window = [
        abs(sol.coefficients[j]) * 3.0 ** sol.exponent(j)
        for j in range(n - plan.n_beta + 1, n + 1)
    ]
    assert all(v < 1e-14 for v in window)
    assert tr.tail_estimate == pytest.approx(max(window), rel=1e-12)
    # smallest such N: the window ending one step earlier must fail
    prev = build_coefficients(eq, g, plan, n_terms=n - 1, x_max=3.0)
    window_prev = [
        abs(prev.coefficients[j]) * 3.0 ** prev.exponent(j)
        for j in range(n - plan.n_beta, n)
    ]
    assert any(v >= 1e-14 for v in window_prev)


def test_truncation_cap_reports_non_convergence():
    eq = example1(2.0)
    plan = compute_step(eq)
    g = _valid_gamma(eq)
    sol = build_coefficients(eq, g, plan, x_max=3.0, max_terms=100)
    assert not sol.truncation.converged
    assert sol.truncation.terms_used == 100


def test_weighted_terms_eventually_decay():
    # block maxima (one lattice period of n_beta = 20) decrease strictly past
    # the hump, and the weighted terms fall below 1e-16
    eq = example1(2.0)
    plan = compute_step(eq)
    g = _valid_gamma(eq)
    sol = build_coefficients(eq, g, plan, n_terms=900)
    for x_max, start in ((1.0, 40), (3.0, 100)):
        w = [abs(c) * x_max ** sol.exponent(n) for n, c in enumerate(sol.coefficients)]
        blocks = [max(w[i : i + 20]) for i in range(start, 880, 20)]
        assert all(b < a for a, b in zip(blocks, blocks[1:]))
        assert blocks[-1] < 1e-16


# The recursion as it was when it rescanned its n_beta window at every step
# and again for the tail, verbatim apart from the name, the type annotations
# and SeriesSolution's c0 field, which is gone (c_0 is coefficients[0]): each
# term's size is computed once now, and Q is no longer cached.
def _window_rescan_build(
    eq,
    gamma,
    plan,
    n_terms=None,
    c0=1.0,
    *,
    x_max=1.0,
    eps_tail=EPS_TAIL,
    max_terms=MAX_TERMS,
):
    if n_terms is not None and n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    if x_max <= 0:
        raise ValueError(f"x_max must be positive, got {x_max}")
    s = plan.step_value
    tau_denom = _TAU_DENOM_SCALE * (1.0 + eq.nu_squared)
    pure = [eq.terms[i] for i in eq.pure_indices]
    shifted = [(eq.terms[i], plan.n_p[i]) for i in eq.shifted_indices]

    q_cache = {}

    def q_at(k, alpha):
        key = (k, alpha)
        if key not in q_cache:
            q_cache[key] = gamma_ratio(gamma, k * s, alpha)
        return q_cache[key]

    unit = [1.0]
    limit = n_terms if n_terms is not None else max_terms
    log_x = math.log(x_max)
    log_eps = math.log(eps_tail)
    converged = False
    for n in range(1, limit + 1):
        num = 0.0
        if n >= plan.n_beta:
            num += unit[n - plan.n_beta]
        for term, shift in shifted:
            k = n - shift
            if k >= 0 and unit[k] != 0.0:
                num += unit[k] * term.d * q_at(k, term.alpha)
        d_n = -eq.nu_squared
        for term in pure:
            d_n += term.d * q_at(n, term.alpha)
        if abs(d_n) < tau_denom:
            raise DenominatorPoleError(n, d_n)
        c = -num / d_n
        if not math.isfinite(c):
            raise ArithmeticError(f"coefficient overflow at n={n}")
        unit.append(c)
        blown_up = abs(c) > _BLOWUP_LIMIT
        converged = (
            not blown_up
            and n >= plan.n_beta
            and all(
                _log_magnitude(c0 * unit[j], gamma + s * j, log_x) < log_eps
                for j in range(n - plan.n_beta + 1, n + 1)
            )
        )
        if blown_up or (converged and n_terms is None):
            break

    coeffs = [c0 * u for u in unit]
    n_used = len(coeffs) - 1
    tail_logs = [
        _log_magnitude(coeffs[j], gamma + s * j, log_x)
        for j in range(max(1, n_used - plan.n_beta + 1), n_used + 1)
    ]
    tail_log = max(tail_logs, default=-math.inf)
    tail = math.exp(tail_log) if tail_log < 700.0 else math.inf
    return SeriesSolution(
        gamma=gamma,
        s=s,
        coefficients=coeffs,
        truncation=Truncation(
            terms_used=n_used, tail_estimate=tail, converged=converged, blown_up=blown_up
        ),
    )


@st.composite
def _recursion_case(draw):
    kind = draw(st.sampled_from((CAPUTO, RL)))
    step = draw(st.sampled_from((Fraction(1, 10), Fraction(1, 4), Fraction(1, 2))))
    beta = step * draw(st.integers(1, 20))
    n_terms = draw(st.integers(1, 3))
    alphas = draw(st.lists(st.floats(0.1, 2.5), min_size=n_terms, max_size=n_terms))
    # a shifted d of 1e305 or 1e307 makes a coefficient blow up or overflow
    ds = [
        draw(st.sampled_from((1.0, -1.0))) * draw(st.floats(0.2, 3.0))
        * (draw(st.sampled_from((1.0, 1.0, 1.0, 1e305, 1e307))) if i else 1.0)
        for i in range(n_terms)
    ]
    ps = [Fraction(0)] + draw(
        st.lists(st.sampled_from((0, step, 3 * step, beta)), min_size=n_terms - 1,
                 max_size=n_terms - 1)
    )
    floor = -1.0 if kind is RL else ceil_order(max(alphas)) - 1.0
    gamma = floor + draw(st.floats(0.05, 3.0))
    terms = tuple(Term(d, a, p) for d, a, p in zip(ds, alphas, ps))
    eq = QuasiBesselEquation(terms=terms, beta=beta, kind=kind)
    plan = compute_step(eq)
    if draw(st.integers(0, 3)):
        nu_squared = draw(st.floats(0.0, 10.0))
    else:
        # D_n vanishes at n = n0: a root collision
        n0 = draw(st.integers(1, 60))
        nu_squared = math.fsum(
            eq.terms[i].d * gamma_ratio(gamma, n0 * plan.step_value, eq.terms[i].alpha)
            for i in eq.pure_indices
        )
        assume(0.0 <= nu_squared < math.inf)
    eq = QuasiBesselEquation(terms=terms, beta=beta, nu_squared=nu_squared, kind=kind)
    options = dict(
        c0=draw(st.sampled_from((1.0, -1.0))) * 10 ** draw(st.floats(-3.0, 3.0)),
        x_max=draw(st.one_of(st.floats(0.05, 0.95), st.just(1.0), st.floats(1.05, 20.0))),
        eps_tail=10 ** draw(st.floats(-16.0, -6.0)),
    )
    return eq, gamma, plan, options, draw(st.integers(1, 400)), draw(st.integers(1, 60))


def _build_outcome(build, *args, **kwargs):
    """A series as the fields that tell two builds apart (the tables in
    ``ratios`` are a cache), or an error as its type and message."""
    try:
        sol = build(*args, **kwargs)
    except ArithmeticError as exc:
        return type(exc), str(exc)
    return sol.gamma, sol.s, sol.coefficients, sol.truncation


def _check_lost_coefficient(eq, gamma, plan, options, n):
    """The reference's c_n is subnormal or zero, while its term at x_max,
    |c0 num / D_n| x_max^(gamma+sn) taken at 50 digits from the quotient
    before it was rounded, is at least eps_tail."""
    unit = _window_rescan_build(
        eq, gamma, plan, n_terms=n, x_max=options["x_max"], eps_tail=options["eps_tail"]
    ).coefficients
    assert abs(unit[n]) < sys.float_info.min
    s = plan.step_value
    with mp.workdps(50):
        num = mp.mpf(unit[n - plan.n_beta]) if n >= plan.n_beta else mp.mpf(0)
        for i in eq.shifted_indices:
            k, term = n - plan.n_p[i], eq.terms[i]
            if k >= 0:
                num += mp.mpf(unit[k]) * term.d * gamma_ratio(gamma, k * s, term.alpha)
        d_n = -mp.mpf(eq.nu_squared)
        for i in eq.pure_indices:
            d_n += mp.mpf(eq.terms[i].d) * gamma_ratio(gamma, n * s, eq.terms[i].alpha)
        size = abs(options["c0"] * num / d_n) * mp.mpf(options["x_max"]) ** (gamma + mp.mpf(s) * n)
        assert size >= options["eps_tail"] * (1 - 1e-9)


def _lost_coefficient_case():
    # c_133 = 3.7e-310 is subnormal while its term at x_max is 7e91: the
    # reference stops at N = 139, converged with tail_estimate 0.0
    eq = QuasiBesselEquation(terms=(Term(1.5, 1.0, "0"),), beta="3", nu_squared=8.0, kind=RL)
    options = dict(c0=20.0, x_max=10.0, eps_tail=1e-11)
    return eq, 1.0, compute_step(eq), options, 144, 140


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(case=_recursion_case())
@example(case=_lost_coefficient_case())
def test_build_coefficients_matches_window_rescan(case):
    # equal outcomes, except where a coefficient that still matters underflows
    eq, gamma, plan, options, max_terms, n_terms = case
    for mode in (dict(max_terms=max_terms), dict(n_terms=n_terms)):
        args = (eq, gamma, plan)
        new = _build_outcome(build_coefficients, *args, **options, **mode)
        lost = isinstance(new[1], str) and re.fullmatch(
            r"coefficient underflow at n=(\d+)", new[1]
        )
        if lost:
            assert new[0] is CoefficientUnderflowError
            _check_lost_coefficient(eq, gamma, plan, options, int(lost[1]))
        else:
            assert new == _build_outcome(_window_rescan_build, *args, **options, **mode)


def _check_caputo_series(reference, spec, gamma, bound=1e-12):
    """|c_n - c_ref| x_max^(gamma+sn) <= bound times the largest term, with
    c_ref from the 50-digit reference recursion at the same float gamma,
    which takes the Caputo derivative of x^j (j a nonnegative integer below
    ceil(alpha)) as 0."""
    eq, x_max, *_ = read_spec(spec)
    plan = compute_step(eq)
    sol = build_coefficients(eq, gamma, plan, x_max=x_max)
    ref = reference.build_series(
        reference.parse_spec(spec), reference.ctx.mpf(gamma), len(sol.coefficients) - 1
    )
    with mp.workdps(50):
        step = mp.mpf(plan.s.numerator) / plan.s.denominator
        weights = [mp.mpf(x_max) ** (gamma + step * n) for n in range(len(sol.coefficients))]
        c_ref = [mp.mpf(c) for c in ref.coefficients]
        largest = max(abs(c) * w for c, w in zip(c_ref, weights))
        for n, (c, exact, w) in enumerate(zip(sol.coefficients, c_ref, weights)):
            assert abs(c - exact) * w <= bound * largest, n


@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_caputo_integer_exponent_series_match_50_digits(reference, gamma):
    # Caputo D^1.5 u + D^1.2 u + u = 0: at gamma = 0 the recursion needs
    # D^1.2 x^0 = 0 and, at gamma = 1, D^1.2 x^1 = 0, where Riemann-Liouville's
    # values are nonzero
    spec = {
        "kind": "caputo",
        "form": "constant_coefficients",
        "terms": [{"d": "1", "alpha": "1.5"}, {"d": "1", "alpha": "1.2"}],
        "domain": {"x_min": "0.1", "x_max": "1", "n_points": 5},
    }
    _check_caputo_series(reference, spec, gamma)


def test_caputo_integer_order_series_match_50_digits(reference):
    # Caputo x^2 u'' + x^0.5 D^0.5 u + (x - 1) u = 0: the integer order 2 is
    # the classical derivative, which exists at the root gamma = 0.9048 below
    # the fractional floor ceil(2) - 1 = 1
    spec = {
        "kind": "caputo",
        "form": "quasi_bessel",
        "terms": [{"d": "1", "alpha": "2", "p": "0"}, {"d": "1", "alpha": "0.5", "p": "0"}],
        "beta": "1",
        "nu": "1",
        "domain": {"x_min": "0.1", "x_max": "1", "n_points": 5},
    }
    eq = read_spec(spec)[0]
    (root,) = find_roots(eq)
    assert root.is_valid and 0.9 < root.gamma < 0.91
    _check_caputo_series(reference, spec, root.gamma)
    # the residual needs D^2 of x^gamma itself; its slot 0 is G(gamma), which
    # the root's bisection leaves at ~3e-11
    sol = build_coefficients(eq, root.gamma, compute_step(eq), x_max=1.0)
    assert max(map(abs, residual(eq, sol, [0.1, 0.55, 1.0]))) <= 1e-10


@st.composite
def _caputo_constant_coefficients(draw):
    # sum_i D^alpha_i u + u = 0 with 2-3 orders alpha_i = k/20 in (0.3, 2.4)
    orders = draw(st.lists(st.integers(7, 47), min_size=2, max_size=3, unique=True))
    return {
        "kind": "caputo",
        "form": "constant_coefficients",
        "terms": [{"d": "1", "alpha": repr(k / 20)} for k in orders],
        "domain": {"x_min": "0.1", "x_max": draw(st.sampled_from(("0.5", "1", "2"))),
                   "n_points": 2},
    }


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(spec=_caputo_constant_coefficients())
def test_caputo_integer_exponent_series_match_50_digits_random(reference, spec):
    # every integer leading exponent that survives the collision screening.
    # The bound is not 1e-12: the program's Gamma ratios are off by up to a
    # few hundred ulp, and over ~2000 steps of small-step lattices
    # (s = 1/20) whose terms reach 1e17 that gives up to 1.7e-12 of the
    # largest term, against 7e-14 with correctly rounded ratios.  Taking the
    # Riemann-Liouville value for the Caputo derivative of x^j errs by the
    # size of the terms themselves.
    eq = read_spec(spec)[0]
    integers = set(map(float, caputo_integer_exponents(eq)))
    roots = screen_collisions(find_roots(eq), compute_step(eq))
    for gamma in sorted({r.gamma for r in roots if r.is_valid} & integers):
        _check_caputo_series(reference, spec, gamma, bound=1e-10)


# -- evaluation ---------------------------------------------------------------


def test_evaluate_example2_matches_exponential():
    eq = example2()
    plan = compute_step(eq)
    sol = build_coefficients(eq, 0.0, plan, n_terms=30)
    xs = [0.05 * i for i in range(41)]  # includes x = 0 (all exponents >= 0)
    us = evaluate(sol, xs)
    assert max(abs(u - math.exp(-x)) for u, x in zip(us, xs)) < 1e-10


def test_evaluate_single_term():
    sol = SeriesSolution(
        gamma=-0.5,
        s=1.2,
        coefficients=[2.0],
        truncation=Truncation(terms_used=0, tail_estimate=0.0, converged=False),
    )
    assert evaluate(sol, [4.0]) == [pytest.approx(2.0 * 4.0**-0.5, rel=1e-15)]


def test_evaluate_example3_combined_against_direct_series():
    eq = example3()
    plan = compute_step(eq)
    # c0 makes D^gamma u(0+) = c0 Gamma(1+gamma) equal 1.2 and 1.5
    c01 = 1.2 / gamma_ratio(0.7, 0.0, 0.7)
    c02 = 1.5 / gamma_ratio(-0.3, 0.0, -0.3)
    sol1 = build_coefficients(eq, 0.7, plan, n_terms=40, c0=c01)
    sol2 = build_coefficients(eq, -0.3, plan, n_terms=40, c0=c02)
    xs = [0.1 + 0.1 * i for i in range(20)]
    combined = [a + b for a, b in zip(evaluate(sol1, xs), evaluate(sol2, xs))]

    mp.mp.dps = 30
    worst = 0.0
    for x, u in zip(xs, combined):
        xm = mp.mpf(repr(x))
        ref = mp.mpf(0)
        for n in range(41):
            ref += mp.mpf("1.2") * 2**n * xm ** (0.7 + 1.7 * n) / mp.gamma(1.7 + 1.7 * n)
            ref += mp.mpf("1.5") * 2**n * xm ** (-0.3 + 1.7 * n) / mp.gamma(0.7 + 1.7 * n)
        worst = max(worst, abs(u - float(ref)))
    assert worst < 1e-10


def test_evaluate_warns_on_cancellation():
    # a step so small that x^s rounds to 1: the two huge terms cancel exactly
    sol = SeriesSolution(
        gamma=0.0,
        s=1e-18,
        coefficients=[1e16, -1e16],
        truncation=Truncation(terms_used=1, tail_estimate=0.0, converged=False),
    )
    with pytest.warns(CancellationWarning):
        evaluate(sol, [1.5])


def test_evaluate_overflowing_product_raises():
    # x**e is finite but c * x**e is not: the sum would be -inf + inf
    sol = SeriesSolution(
        gamma=0.0,
        s=1.0,
        coefficients=[1e300, -1e300],
        truncation=Truncation(terms_used=1, tail_estimate=0.0, converged=False),
    )
    with pytest.raises(OverflowError, match=r"series overflows at x = 10000000000\.0$"):
        evaluate(sol, [1.0, 1e10])


def test_evaluate_at_zero_and_zero_sums():
    def series(gamma, coefficients):
        return SeriesSolution(
            gamma=gamma,
            s=0.5,
            coefficients=coefficients,
            truncation=Truncation(terms_used=len(coefficients) - 1, tail_estimate=0.0,
                                  converged=False),
        )

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # t = ln 0 = -inf: the slope-0 line gives c_0, the others vanish
        assert evaluate(series(0.0, [-3.0, 1e30, 2.0]), [0.0]) == [-3.0]
        assert evaluate(series(0.5, [1.0, 1e30]), [0.0]) == [0.0]
        assert evaluate(series(0.0, [0.0, 0.0]), [0.0, 1.0]) == [0.0, 0.0]
        # every term underflows to zero: no term is nonzero, no warning
        assert evaluate(series(400.0, [1.0]), [1e-300]) == [0.0]
    # an exact zero sum of nonzero terms warns
    with pytest.warns(CancellationWarning):
        assert evaluate(series(0.0, [1.0, 0.0, -1.0]), [1.0]) == [0.0]


_EPS = sys.float_info.epsilon
_TINY = 2.0**-1074  # the smallest subnormal
_HUGE = sys.float_info.max


def _lattice_sums(sol, x):
    """At 50 digits, with gamma and s taken as exact floats: the sum
    u = sum_n c_n x^(gamma+s*n), the size S = sum_n |c_n| x^(gamma+s*n), the
    error allowed to evaluate, and a bound on every value evaluate forms.

    The error allowed is 4 max(N,1) eps S plus an allowance for underflow:
    y = x^s, x^gamma and each product may be off by half the smallest
    subnormal, and that error grows with x^gamma y^n.  The bound covers
    x^gamma, y, and each Horner partial sum scaled by x^gamma."""
    n_top = max(len(sol.coefficients) - 1, 0)
    with mp.workdps(50):
        xm, gamma, s = mp.mpf(x), mp.mpf(sol.gamma), mp.mpf(sol.s)
        terms = [c * xm ** (gamma + s * n) for n, c in enumerate(sol.coefficients)]
        size = mp.fsum(map(abs, terms))
        scale, grow = xm**gamma, max(1, xm**s) ** n_top
        weights = mp.fsum((n + 1) * abs(c) for n, c in enumerate(sol.coefficients))
        floor = _TINY * (n_top + 2) * (1 + scale) * (1 + weights) * grow
        largest = max(scale, xm**s, max(1, scale) * mp.fsum(map(abs, sol.coefficients)) * grow)
        return mp.fsum(terms), size, 4 * max(n_top, 1) * _EPS * size + floor, largest


# evaluate as it was before the terms were streamed into fsum and the largest
# term read from the log envelope, verbatim apart from its name, the ratio's
# and evaluate's up-front rejection of x = 0 when gamma < 0: the exactly
# rounded sum of the terms c_n x^e at the float exponents e = gamma + s*n.
def _list_evaluate(sol, xs):
    for x in xs:
        if x < 0:
            raise ValueError(f"series is defined for x >= 0, got {x}")
        if x == 0 and sol.gamma < 0:
            raise ValueError(f"series with gamma = {sol.gamma!r} < 0 is undefined at x = 0")
    lattice = [
        (c, sol.gamma + sol.s * n) for n, c in enumerate(sol.coefficients) if c != 0.0
    ]
    out = []
    lost = False
    for x in xs:
        terms = [c * x**e for c, e in lattice]
        total = math.fsum(terms)
        largest = max(max(terms), -min(terms)) if terms else 0.0
        if largest > 1e15 * abs(total):
            lost = True
        out.append(total)
    if lost:
        warnings.warn(
            CancellationWarning(
                "series evaluation lost more than 15 digits to cancellation "
                "(x too large for this truncation)"
            )
        )
    return out


def _outcome(evaluator, sol, xs):
    """(values as reprs, number of CancellationWarnings) or (exception type,
    message)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            values = evaluator(sol, xs)
        except (ArithmeticError, ValueError) as exc:
            return type(exc), str(exc)
    return [repr(v) for v in values], sum(w.category is CancellationWarning for w in caught)


def _list_error(sol, x):
    """_list_evaluate's own error at x > 0: each term is off by about
    2 + |e ln x| ulp, the rounding of e = gamma + s*n counting |e ln x|-fold
    (and that of s*n as much again), plus the final rounding and underflow."""
    with mp.workdps(50):
        log_x, total, error = mp.log(x), 0, 0
        for n, c in enumerate(sol.coefficients):
            e = mp.mpf(sol.gamma) + mp.mpf(sol.s) * n
            term = c * mp.mpf(x) ** e
            total += term
            error += abs(term) * (2 + (abs(e) + abs(sol.s * n)) * abs(log_x)) + abs(c) * _TINY
        return _EPS * (error + abs(total)) + len(sol.coefficients) * _TINY


def _check_point(sol, x, point):
    """evaluate(sol, [x])'s outcome: an OverflowError only where some value
    Horner forms leaves the float range and always where S does; otherwise a
    value within the bound of the 50-digit sum and of _list_evaluate's, and
    a warning exactly when S > 1e15 |u|, up to the error of the computed S."""
    if x == 0 and sol.gamma < 0:
        message = f"series with gamma = {sol.gamma!r} < 0 is undefined at x = 0"
        assert point == (ValueError, message)
        return
    u, size, allowed, largest = _lattice_sums(sol, x)
    if point[0] is OverflowError:
        assert largest > _HUGE * (1 - 1e-9)
        assert point[1] == f"series overflows at x = {x!r}"
        return
    assert size <= _HUGE * (1 + 1e-9)
    (value,), warned = point
    value = float(value)
    assert abs(value - u) <= allowed
    listed = _outcome(_list_evaluate, sol, [x])
    if x > 0 and isinstance(listed[0], list) and math.isfinite(float(listed[0][0])):
        assert abs(value - float(listed[0][0])) <= allowed + _list_error(sol, x)
    if size - allowed > 1e15 * abs(value):
        assert warned == 1
    if size + allowed <= 1e15 * abs(value):
        assert warned == 0


def _lattice_solution(gamma, s, cs):
    return SeriesSolution(
        gamma=gamma,
        s=s,
        coefficients=cs,
        truncation=Truncation(terms_used=len(cs) - 1, tail_estimate=0.0, converged=False),
    )


def _alternating(lam, s, n_top):
    # exp(-lam x)-type: c_n = (-lam)^n / Gamma(1 + s n)
    return [(-1.0) ** n * math.exp(n * math.log(lam) - math.lgamma(1 + s * n))
            for n in range(n_top + 1)]


@st.composite
def _lattice_series(draw):
    n_top = draw(st.integers(0, 200))
    s = draw(st.sampled_from((0.1, 0.25, 1 / 3, 0.5, 1.0, 1.7)))
    if draw(st.booleans()):
        cs = _alternating(draw(st.floats(0.1, 10.0)), s, n_top)
    else:
        signs = draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=n_top + 1,
                              max_size=n_top + 1))
        mags = draw(st.lists(st.floats(-8.0, 8.0), min_size=n_top + 1, max_size=n_top + 1))
        cs = [sg * 10.0**m for sg, m in zip(signs, mags)]
    sol = _lattice_solution(draw(st.floats(-1.0, 3.0)), s, cs)
    return sol, draw(st.lists(st.floats(0.01, 6.0), min_size=1, max_size=4))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=_lattice_series())
# exp(-x) to 120 terms: at x = 40, S = e^40 is 1e23 times the sum
@example(case=(_lattice_solution(0.0, 1.0, _alternating(1.0, 1.0, 120)), [0.5, 40.0]))
def test_evaluate_within_bound_of_50_digit_sum(case):
    sol, xs = case
    for x in xs:
        _check_point(sol, x, _outcome(evaluate, sol, [x]))


_MAGNITUDES = st.one_of(
    st.floats(-30.0, 30.0),  # ordinary
    st.floats(250.0, 307.0),  # products overflow
    st.floats(-320.0, -300.0),  # subnormal and underflowing terms
)


@st.composite
def _coefficient_lists(draw):
    size = draw(st.integers(0, 12))
    signs = draw(st.lists(st.sampled_from((1.0, -1.0, 0.0)), min_size=size, max_size=size))
    mags = draw(st.lists(_MAGNITUDES, min_size=size, max_size=size))
    return [sg * 10.0**m for sg, m in zip(signs, mags)]


_POINTS = st.one_of(
    st.floats(0.01, 5.0),
    st.floats(1e10, 1e200),  # pow or the product overflows
    st.floats(1e-300, 1e-100),
    st.just(0.0),  # a negative gamma divides by zero
)


@st.composite
def _general_case(draw):
    sol = SeriesSolution(
        gamma=draw(st.floats(-2.0, 3.0)),
        s=10.0 ** draw(st.floats(-2.0, 0.5)),
        coefficients=draw(_coefficient_lists()),
        truncation=Truncation(terms_used=0, tail_estimate=0.0, converged=False),
    )
    xs = draw(st.lists(_POINTS, min_size=1, max_size=5))
    if draw(st.sampled_from([False] * 9 + [True])):
        xs.append(draw(st.floats(-2.0, -1e-3)))  # rejected up front
    return sol, xs


@st.composite
def _cancellation_case(draw):
    # c (1 - x^s) + small terms with s ln x ~ 1/ratio: S is about 2 ratio
    # times the sum, drawn on both sides of the 1e15 threshold
    ratio = 10.0 ** draw(st.floats(13.0, 17.0))
    x = draw(st.floats(1.1, 3.0))
    c = 10.0 ** draw(st.floats(-5.0, 5.0))
    extra = [c * 10.0 ** draw(st.floats(-25.0, -12.0)) for _ in range(draw(st.integers(0, 3)))]
    sol = SeriesSolution(
        gamma=draw(st.floats(0.0, 2.0)),
        s=1.0 / (ratio * math.log(x)),
        coefficients=[c, -c] + extra,
        truncation=Truncation(terms_used=1, tail_estimate=0.0, converged=False),
    )
    return sol, [x] + draw(st.lists(st.floats(0.5, 3.0), max_size=3))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(case=st.one_of(_general_case(), _cancellation_case()))
# (1 - y)^2 with y = x^0.5: the largest y, at x = 4, is well conditioned,
# while the sum at x = 1 is an exact zero of nonzero terms and warns
@example(case=(_lattice_solution(0.5, 0.5, [1.0, -2.0, 1.0]), [4.0, 1.0, 0.25]))
def test_evaluate_matches_list_evaluate(case):
    # at most 14 coefficients, below the first degree a point can stop at
    # (16): the grid call and the one-point calls sum the same terms
    sol, xs = case
    outcome = _outcome(evaluate, sol, xs)
    if any(x < 0 or x == 0 and sol.gamma < 0 for x in xs):
        assert outcome == _outcome(_list_evaluate, sol, xs)
        return
    points = [_outcome(evaluate, sol, [x]) for x in xs]
    for x, point in zip(xs, points):
        _check_point(sol, x, point)
    # the whole grid: the first point's error, or every value and one warning
    failed = [point for point in points if isinstance(point[0], type)]
    if failed:
        assert outcome == failed[0]
    else:
        assert outcome == ([v for (v,), _ in points], int(any(w for _, w in points)))


def _counting_horner(monkeypatch):
    calls = []  # the number of coefficients of each call

    def counted(coeffs_top_first, y):
        coeffs = list(coeffs_top_first)
        calls.append(len(coeffs))
        return horner(coeffs, y)

    horner = series._horner
    monkeypatch.setattr(series, "_horner", counted)
    return calls


def test_evaluate_sums_sizes_once_per_grid(monkeypatch):
    # example 1 on dense-grid's domain: the size bound at the largest y
    # clears every point, so S is never summed at a point; the bound is the
    # last Horner partial of the grid's cut table, not a pass of its own
    eq = example1()
    sol = build_coefficients(eq, _valid_gamma(eq), compute_step(eq), x_max=3.0)
    xs = [0.003 + i * (3.0 - 0.003) / 999 for i in range(1000)]
    calls = _counting_horner(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        us = evaluate(sol, xs)
    assert len(calls) == len(xs)
    monkeypatch.undo()
    assert us == [evaluate(sol, [x])[0] for x in xs]


def test_evaluate_sums_size_again_only_where_the_bound_fails(monkeypatch):
    # exp(-x) to 120 terms: S / |u| = e^(2x) passes 1e15 only at x = 18,
    # and the bound e^18 clears 1e15 e^(-x) at every other point: one sum
    # per point and S once more at x = 18
    sol = _lattice_solution(0.0, 1.0, _alternating(1.0, 1.0, 120))
    xs = [0.5, 1.0, 2.0, 18.0, 4.0, 8.0, 16.0]
    calls = _counting_horner(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        evaluate(sol, xs)
    assert len(calls) == len(xs) + 1
    assert [w.category for w in caught] == [CancellationWarning]


def test_evaluate_rejects_zero_for_negative_gamma():
    sol = _lattice_solution(-0.5, 0.5, [1.0, 2.0])
    with pytest.raises(ValueError, match=r"^series with gamma = -0\.5 < 0 is undefined at x = 0$"):
        evaluate(sol, [1.0, 0.0])
    assert evaluate(_lattice_solution(0.0, 0.5, [1.0, 2.0]), [0.0]) == [1.0]


def test_evaluate_rejects_nan():
    sol = _lattice_solution(0.0, 0.5, [1.0, 2.0])
    with pytest.raises(ValueError, match=r"^series is defined for x >= 0, got nan$"):
        evaluate(sol, [1.0, math.nan])


def _dyadic_sums(coefficients, y, scale):
    """scale * sum_n c_n y^n and scale * sum_n |c_n| y^n, exactly, at the
    floats y and scale: every float is an integer over a power of two."""
    ny, dy = y.as_integer_ratio()
    top = (dy.bit_length() - 1) * len(coefficients) + 1075  # a common denominator exponent
    total = size = 0
    for n, c in enumerate(coefficients):
        nc, dc = c.as_integer_ratio()
        term = nc * ny**n << (top - (dc.bit_length() - 1) - (dy.bit_length() - 1) * n)
        total, size = total + term, size + abs(term)
    return (Fraction(scale) * Fraction(total, 1 << top),
            Fraction(scale) * Fraction(size, 1 << top))


@st.composite
def _cut_series(draw):
    n_top = draw(st.integers(0, 120))
    s = draw(st.sampled_from((0.1, 0.25, 0.5, 1.0, 1.7)))
    shape = draw(st.sampled_from(("alternating", "growing", "decaying", "random")))
    if shape == "alternating":
        cs = _alternating(draw(st.floats(0.1, 10.0)), s, n_top)
    elif shape == "random":
        mags = draw(st.lists(st.floats(-30.0, 30.0), min_size=n_top + 1, max_size=n_top + 1))
        cs = [draw(st.sampled_from((1.0, -1.0))) * 10.0**m for m in mags]
    else:
        rate = draw(st.floats(0.01, 0.5)) * (1 if shape == "growing" else -3)
        cs = [(-1.0) ** draw(st.integers(0, 1)) * 10.0 ** (rate * n) for n in range(n_top + 1)]
    for _ in range(draw(st.integers(0, 3))):  # runs of zeros
        start = draw(st.integers(0, n_top))
        run = slice(start, start + draw(st.integers(1, 20)))
        cs[run] = [0.0] * len(cs[run])
    cs[0] = draw(st.sampled_from((cs[0], cs[0], 0.0, 5e-324, -3e-310)))
    sol = _lattice_solution(draw(st.floats(-1.0, 3.0)), s, cs)
    return sol, draw(st.lists(st.floats(1e-3, 6.0), min_size=1, max_size=8))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=_cut_series())
# decaying terms over a wide grid: the small x keep a fraction of the terms
@example(case=(_lattice_solution(0.5, 0.25, _alternating(2.0, 0.25, 120)), [0.001, 0.1, 6.0]))
def test_evaluate_cut_within_bound_of_exact_sum(case):
    # Horner's error at the float y, (2(N+1) + 2^-7) eps S with the cut,
    # plus half the smallest subnormal per rounding, grown by x^gamma y^n
    sol, xs = case
    n_top = len(sol.coefficients) - 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CancellationWarning)
        us = evaluate(sol, xs)
    for x, u in zip(xs, us):
        y, scale = x**sol.s, x**sol.gamma
        exact, size = _dyadic_sums(sol.coefficients, y, scale)
        underflow = _TINY * ((n_top + 2) * scale * max(1.0, y) ** n_top + 1)
        assert abs(Fraction(u) - exact) <= (2 * (n_top + 1) + 2.0**-7) * _EPS * size + Fraction(underflow)


def test_evaluate_and_residual_sum_only_the_terms_each_point_needs(monkeypatch):
    # example 1 on dense-grid's domain: most points stop well below the top
    eq = example1()
    sol = build_coefficients(eq, _valid_gamma(eq), compute_step(eq), x_max=3.0)
    xs = [0.003 + i * (3.0 - 0.003) / 999 for i in range(1000)]
    folded, _ = series._fold(eq, sol)
    lengths = _counting_horner(monkeypatch)
    evaluate(sol, xs)
    assert sum(lengths) <= 0.70 * len(sol.coefficients) * len(xs)
    lengths.clear()
    residual(eq, sol, xs)
    assert sum(lengths) <= 0.45 * len(folded) * len(xs)


# -- fractional power rule ----------------------------------------------------


def _power(kind, alpha, q):
    """The power rule's coefficient of D^alpha x^q, at gamma = q and n = 0."""
    return series._PowerRule(kind, alpha, q, 0.0)(0)


def test_power_rule_trivial_cases():
    assert _power(RL, 0.5, -0.5) == 0.0  # Gamma(0.5)/Gamma(0) = 0
    # integer power below ceil(alpha), and any q within CAPUTO_FLOOR_WIDTH of it
    assert _power(CAPUTO, 1.5, 1.0) == 0.0
    assert _power(CAPUTO, 1.5, 1 + 2**-52) == 0.0
    assert _power(CAPUTO, 1.5, 1 + CAPUTO_FLOOR_WIDTH / 2) == 0.0
    assert _power(CAPUTO, 1.5, 1 + CAPUTO_FLOOR_WIDTH) == 0.0  # the floor
    assert _power(RL, 1.0, 2.0) == pytest.approx(2.0, rel=1e-15)


def test_power_rule_matches_gamma_ratio_for_valid_exponents():
    mp.mp.dps = 30
    for alpha in (0.5, 1.1, 1.5, 2.0):
        for q in (1.8, 2.5, 3.3):
            rl = _power(RL, alpha, q)
            cap = _power(CAPUTO, alpha, q)
            ref = float(mp.gamma(q + 1) / mp.gamma(q + 1 - alpha))
            assert rl == pytest.approx(ref, rel=1e-12)
            assert cap == rl
    # an integer order is the classical derivative at every q > -1:
    # (x^0.5)'' = -0.25 x^-1.5, below the fractional floor ceil(2) - 1
    assert _power(CAPUTO, 2.0, 0.5) == pytest.approx(-0.25, rel=1e-15)
    # above the floor ceil(1.5) - 1 = 1 by more than CAPUTO_FLOOR_WIDTH, where
    # find_roots calls a root valid, Caputo is the Gamma ratio too
    q = 1 + 5e-10
    assert _power(CAPUTO, 1.5, q) == gamma_ratio(q, 0.0, 1.5) > 0.0


def test_power_rule_preconditions():
    with pytest.raises(DerivativeUndefinedError):
        _power(RL, 0.5, -1.5)
    with pytest.raises(DerivativeUndefinedError):
        _power(CAPUTO, 1.5, 0.3)  # below ceil(alpha) - 1, not integer
    with pytest.raises(DerivativeUndefinedError):
        _power(CAPUTO, 1.5, 1 - 5e-10)  # beyond CAPUTO_FLOOR_WIDTH of 1


# The power rule as it was before its values were kept in tables, verbatim
# apart from the name: one memoised closure per (kind, alpha, gamma, s).
def _memo_power_rule(kind, alpha, gamma, s, memo):
    caputo = kind is DerivativeKind.CAPUTO and not is_integer_order(alpha)
    width = CAPUTO_FLOOR_WIDTH
    floor = ceil_order(alpha) - 1 + width if caputo else -1.0
    known = memo.setdefault((kind, alpha, gamma, s), {})

    def rule(n: int) -> float:
        value = known.get(n)
        if value is None:
            r = n * s
            q = gamma + r
            if q > floor:
                try:
                    value = gamma_ratio(gamma, r, alpha)
                except OverflowError:
                    raise OverflowError(f"{kind.value} D^{alpha} of x^{q} overflows") from None
            elif caputo and (j := round(q)) >= 0 and j - width <= q <= j + width:
                value = 0.0
            else:
                raise DerivativeUndefinedError(f"{kind.value} D^{alpha} of x^{q} is undefined")
            known[n] = value
        return value

    return rule


def _rule_outcome(rule, n):
    try:
        return rule(n).hex()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def _table_case(draw):
    kind = draw(st.sampled_from((CAPUTO, RL)))
    step = draw(st.sampled_from((Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(1))))
    beta = step * draw(st.integers(1, 6))
    # fractional, integer and near-integer orders, and one that overflows
    # within a few dozen indices
    order = st.one_of(
        st.floats(0.1, 2.9),
        st.sampled_from((1.0, 2.0, 1.0 + 5e-10, 2.0 - 2e-9, 150.5)),
    )
    alphas = sorted(draw(st.lists(order, min_size=1, max_size=3)), reverse=True)
    ps = [Fraction(0)] + [
        draw(st.sampled_from((0, step, 3 * step, beta))) for _ in alphas[1:]
    ]
    eq = QuasiBesselEquation(
        terms=tuple(Term(1.0, a, p) for a, p in zip(alphas, ps)),
        beta=beta,
        nu_squared=draw(st.floats(0.0, 4.0)),
        kind=kind,
    )
    # exponents at and around the Caputo floors, on the Caputo integer zeros,
    # where 1 + q - alpha is a pole of Gamma, and anywhere
    a = draw(st.sampled_from(alphas))
    gamma = draw(st.one_of(
        st.floats(-1.5, 4.0),
        st.integers(-1, 2).map(float),
        st.builds(lambda j, e: ceil_order(a) - 1 + j + e, st.integers(-1, 1),
                  st.sampled_from((0.0, 1e-13, 2e-12, -2e-12))),
        st.builds(lambda m, e: a - 1 - m + e, st.integers(0, 3), st.sampled_from((0.0, 1e-10))),
    ))
    return eq, gamma, draw(st.integers(1, 80))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=_table_case())
def test_power_rule_tables_match_the_memoised_rule(case):
    # every table entry the recursion or the fold fills, and so every one
    # either reads, is the memoised rule's value bit for bit, or NaN; NaN
    # means "ask the rule", which gives the memoised rule's value or error
    eq, gamma, n_terms = case
    plan = compute_step(eq)
    s = plan.step_value
    tables = {}
    try:
        sol = build_coefficients(eq, gamma, plan, n_terms=n_terms)
        tables = sol.ratios
        series._fold(eq, sol)
    except (ArithmeticError, ValueError):
        pass
    # a build that raised keeps no tables: fill them as the recursion would
    for t in eq.terms:
        key = (eq.kind, t.alpha, gamma, s)
        if key not in tables:
            tables[key] = series._PowerRule(*key)
            tables[key].grow(n_terms + 1)
    memo = {}
    for (kind, alpha, g, step), table in tables.items():
        assert len(table.values) % series._BLOCK == 0
        rule = _memo_power_rule(kind, alpha, g, step, memo)
        for n, value in enumerate(table.values):
            new = value.hex() if value == value else _rule_outcome(table, n)
            assert new == _rule_outcome(rule, n), (alpha, g, n)


def test_no_index_asks_the_rule_twice(monkeypatch):
    # Caputo x^2 u'' + x u' + (x - 1) u = 0: integer orders leave their
    # tables NaN, so each value is asked of the rule; the rule stores it, and
    # the recursion and the fold each read it once per (gamma, n*s, alpha)
    calls = []
    monkeypatch.setattr(series, "gamma_ratio", lambda *a: calls.append(a) or gamma_ratio(*a))
    eq = QuasiBesselEquation(
        terms=(Term(1.0, 2.0, "0"), Term(1.0, 1.0, "0")), beta="1", nu_squared=1.0, kind=CAPUTO
    )
    plan = compute_step(eq)
    for root in screen_collisions(find_roots(eq), plan):
        if root.is_valid:
            sol = build_coefficients(eq, root.gamma, plan, x_max=1.0)
            residual(eq, sol, [0.1, 0.55, 1.0])
    assert calls and len(calls) == len(set(calls))


def test_an_overflow_past_the_last_index_read_is_deferred():
    # Caputo D^150.5 at gamma = 150.5 with s = 1: Gamma(196.5)/Gamma(46)
    # overflows at n = 45, inside the block of n = 32..47, which a build of
    # 44 steps fills
    eq = QuasiBesselEquation(terms=(Term(1.0, 150.5, "0"),), beta="1", kind=CAPUTO)
    plan = compute_step(eq)
    sol = build_coefficients(eq, 150.5, plan, n_terms=44)
    (table,) = sol.ratios.values()
    assert len(table.values) == 48 and math.isnan(table.values[45])
    assert residual(eq, sol, [0.5]) == residual(eq, sol, [0.5])
    message = r"^caputo D\^150\.5 of x\^195\.5 overflows$"
    with pytest.raises(OverflowError, match=message):
        build_coefficients(eq, 150.5, plan, n_terms=45)


# -- residual -----------------------------------------------------------------


def test_residual_example2_is_tiny():
    eq = example2()
    plan = compute_step(eq)
    sol = build_coefficients(eq, 0.0, plan, n_terms=30)
    xs = [0.1 + 0.1 * i for i in range(20)]
    res = residual(eq, sol, xs)
    assert max(abs(v) for v in res) < 1e-10


def test_residual_zero_solution_is_zero():
    eq = example1(2.0)
    sol = SeriesSolution(
        gamma=2.0,
        s=0.1,
        coefficients=[0.0] * 10,
        truncation=Truncation(terms_used=9, tail_estimate=0.0, converged=True),
    )
    assert residual(eq, sol, [0.5, 1.0, 2.0]) == [0.0, 0.0, 0.0]


def test_residual_example1_small_relative_to_solution_terms():
    eq = example1(2.0)
    plan = compute_step(eq)
    g = _valid_gamma(eq)
    sol = build_coefficients(eq, g, plan, x_max=3.0)
    xs = [0.1 + 0.05 * i for i in range(59)]
    res = residual(eq, sol, xs)
    largest_term = max(
        abs(c) * x ** sol.exponent(n)
        for x in (xs[0], xs[-1])
        for n, c in enumerate(sol.coefficients)
    )
    assert max(abs(v) for v in res) / largest_term < 1e-6


def test_residual_example1_matches_50_digit_defect():
    # the defect of the same float coefficients summed at 50 digits: the
    # residual is that defect up to a few roundings of the largest parts
    eq = example1(2.0)
    plan = compute_step(eq)
    sol = build_coefficients(eq, _valid_gamma(eq), plan, x_max=3.0)
    mp.mp.dps = 50
    parts = []  # (coefficient, lattice slot) of every contribution
    for n, c in enumerate(sol.coefficients):
        q = mp.mpf(sol.gamma) + mp.mpf(sol.s) * n
        parts.append((mp.mpf(c), n + plan.n_beta))
        parts.append((-mp.mpf(c) * eq.nu_squared, n))
        for i, t in enumerate(eq.terms):
            rule = mp.gamma(q + 1) / mp.gamma(q + 1 - t.alpha)
            parts.append((mp.mpf(c) * t.d * rule, n + plan.n_p.get(i, 0)))
    xs = [0.1, 1.0, 2.3, 3.0]
    for x, r in zip(xs, residual(eq, sol, xs)):
        terms = [a * mp.mpf(x) ** (mp.mpf(sol.gamma) + mp.mpf(sol.s) * k) for a, k in parts]
        defect = mp.fsum(terms)
        scale = mp.fsum(abs(v) for v in terms)
        assert abs(r - defect) <= 8 * sys.float_info.epsilon * scale


def test_residual_propagates_derivative_errors():
    eq = QuasiBesselEquation(
        terms=(Term(1.0, 1.5, "0"),), beta="1", nu_squared=0.0, kind=CAPUTO
    )
    sol = SeriesSolution(
        gamma=0.5,  # below the Caputo floor: D_C^1.5 of x^0.5 undefined
        s=1.0,
        coefficients=[1.0],
        truncation=Truncation(terms_used=0, tail_estimate=0.0, converged=False),
    )
    with pytest.raises(DerivativeUndefinedError):
        residual(eq, sol, [1.0])
    # the grid is checked before any derivative is taken
    with pytest.raises(ValueError, match=r"^residual is defined for x > 0, got -1\.0$"):
        residual(eq, sol, [1.0, -1.0])


def test_residual_overflow_raises():
    def first_bad(eq, sol, xs, bad):
        # evaluate and residual name the same first bad x of the grid
        for stage, run in (("series", evaluate), ("residual", lambda sol, xs: residual(eq, sol, xs))):
            with pytest.raises(OverflowError, match=f"^{stage} overflows at x = {re.escape(repr(bad))}$"):
                run(sol, xs)

    # exp(-x) at x = 1e20: the slots reach y^30 = 1e600
    eq = example2()
    sol = build_coefficients(eq, 0.0, compute_step(eq), n_terms=30)
    first_bad(eq, sol, [1e20], 1e20)
    # x**gamma itself overflows at x = 1e300 (gamma = 2.2), x**s (s = 0.1)
    # does not, and the finite point after it changes nothing
    eq = example1(2.0)
    ex1 = build_coefficients(eq, _valid_gamma(eq), compute_step(eq), n_terms=5)
    first_bad(eq, ex1, [1.0, 1e300], 1e300)
    first_bad(eq, ex1, [1.0, 1e300, 2.0], 1e300)
    # x**s itself overflows at x = 1e300 with s = 1.2, x**gamma does not,
    # also as the grid's first point; inf**s is inf, inf**-0.5 is 0.0
    eq = example4(2.0)
    sol = build_coefficients(eq, -0.5, compute_step(eq), n_terms=10)
    first_bad(eq, sol, [1.0, 1e300], 1e300)
    first_bad(eq, sol, [1e300, 1.0], 1e300)
    first_bad(eq, sol, [1.0, math.inf, 2.0], math.inf)
    # the sum is not finite at x = 1e200, before x**s overflows at 1e300:
    # each stage names the first bad point of the grid
    first_bad(eq, sol, [1.0, 1e200, 1e300], 1e200)
    # a hand-made empty coefficient list is never multiplied, in either
    # stage: it sums to 0.0 where only x**s overflows, and overflows where
    # x**gamma does (inf * 0)
    def empty(gamma):
        return SeriesSolution(
            gamma=gamma, s=1.2, coefficients=[],
            truncation=Truncation(terms_used=0, tail_estimate=0.0, converged=False),
        )

    # u = 0 solves the linear homogeneous equation: the residual is exactly 0.0
    for stage in (evaluate, lambda sol, xs: residual(eq, sol, xs)):
        assert stage(empty(-0.5), [1.0, 1e300, math.inf]) == [0.0, 0.0, 0.0]
    first_bad(eq, empty(ex1.gamma), [1.0, 1e300], 1e300)


def test_gamma_ratio_overflow_names_the_derivative():
    # Caputo D^200 u + u = 0 at gamma = 0: D_1 needs Gamma(201)/Gamma(1) =
    # 200!, beyond the float range, and so does the residual's slot of a
    # series x^200
    eq = from_constant_coefficients([(1.0, "200")], kind=CAPUTO)
    message = r"^caputo D\^200\.0 of x\^200\.0 overflows$"
    with pytest.raises(OverflowError, match=message):
        build_coefficients(eq, 0.0, compute_step(eq))
    sol = SeriesSolution(
        gamma=200.0,
        s=200.0,
        coefficients=[1.0],
        truncation=Truncation(terms_used=0, tail_estimate=0.0, converged=False),
    )
    with pytest.raises(OverflowError, match=message):
        residual(eq, sol, [0.5])
    with pytest.raises(OverflowError, match=message):
        _power(CAPUTO, 200.0, 200.0)


def test_residual_rejects_nan():
    eq = example2()
    sol = build_coefficients(eq, 0.0, compute_step(eq), n_terms=5)
    with pytest.raises(ValueError, match=r"^residual is defined for x > 0, got nan$"):
        residual(eq, sol, [1.0, math.nan])


def test_residual_takes_the_recursions_gamma_ratios():
    # the residual reads the recursion's tables as they are and fills only
    # the shifted terms' top indices, which the recursion never reached; its
    # slots are bit-identical to those of a series that carries no tables
    eq = example1(2.0)
    plan = compute_step(eq)
    # N = 501: the recursion reads the p = 0.8 term (shift 8) up to n = 493,
    # whose block ends at 495
    sol = build_coefficients(eq, _valid_gamma(eq), plan, x_max=2.0)
    n_top = len(sol.coefficients) - 1
    assert n_top == 501
    tables = series._tables(eq, sol.gamma, sol.s, sol.ratios)
    built = [list(table.values) for table in tables]
    xs = [0.1, 1.0, 2.3, 3.0]
    res = residual(eq, sol, xs)
    assert len(sol.ratios) == len(eq.terms)
    filled = []
    for i, (table, before) in enumerate(zip(tables, built)):
        shift = plan.n_p.get(i, 0)
        assert len(before) >= n_top + 1 - shift
        assert all(a is b for a, b in zip(table.values, before))
        assert n_top + 1 <= len(table.values) < n_top + 1 + series._BLOCK
        filled += [(shift, n) for n in range(len(before), len(table.values))]
    assert filled and all(shift > 0 and n > n_top - shift for shift, n in filled)
    bare = SeriesSolution(gamma=sol.gamma, s=sol.s, coefficients=sol.coefficients,
                          truncation=sol.truncation)
    bare_bits, sol_bits = (
        ([f.hex() for f in slots], floor.hex())
        for slots, floor in (series._fold(eq, bare), series._fold(eq, sol))
    )
    assert bare_bits == sol_bits
    assert [r.hex() for r in residual(eq, bare, xs)] == [r.hex() for r in res]


# The residual's slots as folded before the Horner sum, apart from the names
# and from each ratio being taken directly from gamma_ratio at the residual's
# documented arguments (gamma, n*s): one exactly rounded sum per slot.
def _folded_slots(eq, sol):
    plan = compute_step(eq)
    shifts = [plan.n_p.get(i, 0) for i in range(len(eq.terms))]
    slots = [
        [] for _ in range(len(sol.coefficients) + max(shifts + [plan.n_beta]))
    ]
    for n, c in enumerate(sol.coefficients):
        if c == 0.0:
            continue
        for t, shift in zip(eq.terms, shifts):
            slots[n + shift].append(t.d * c * gamma_ratio(sol.gamma, n * sol.s, t.alpha))
        slots[n + plan.n_beta].append(c)
        slots[n].append(-eq.nu_squared * c)
    return [math.fsum(slot) for slot in slots]


_BETAS = st.sampled_from([Fraction(1, 5), Fraction(1, 2), Fraction(2), Fraction(3)])


@st.composite
def _series_and_points(draw, max_terms=20):
    beta = draw(_BETAS)
    kind = draw(st.sampled_from((CAPUTO, RL)))
    n_terms = draw(st.integers(1, 3))
    alphas = draw(st.lists(st.floats(0.1, 2.5), min_size=n_terms, max_size=n_terms))
    ds = draw(st.lists(st.floats(0.2, 3.0), min_size=n_terms, max_size=n_terms))
    signs = draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=n_terms, max_size=n_terms))
    ps = [Fraction(0)] + draw(
        st.lists(st.sampled_from((0, beta / 2, beta, 2 * beta)), min_size=n_terms - 1,
                 max_size=n_terms - 1)
    )
    eq = QuasiBesselEquation(
        terms=tuple(Term(sg * d, a, p) for sg, d, a, p in zip(signs, ds, alphas, ps)),
        beta=beta,
        nu_squared=draw(st.floats(0.0, 10.0)),
        kind=kind,
    )
    # every exponent must lie where the derivatives exist: gamma > -1 for
    # Riemann-Liouville, gamma > ceil(alpha) - 1 for Caputo
    floor = -1.0 if kind is RL else ceil_order(max(alphas)) - 1.0
    gamma = floor + draw(st.floats(0.05, 3.0))
    try:
        sol = build_coefficients(eq, gamma, compute_step(eq),
                                 n_terms=draw(st.integers(1, max_terms)))
    except ArithmeticError:
        assume(False)
    below = st.floats(0.1, 0.95)
    above = st.floats(1.05, 3.0)
    xs = draw(st.lists(st.one_of(below, above), min_size=1, max_size=6))
    return eq, sol, xs


def _caputo_three_term_case():
    # Caputo D^1.625 u (p = 3/2) + D^1 u + D^0.5 u, beta = 3, at x = 0.5
    eq = QuasiBesselEquation(
        terms=(Term(1.0, 1.625, Fraction(3, 2)), Term(1.0, 1.0, 0), Term(1.0, 0.5, 0)),
        beta=3,
        nu_squared=0.0,
        kind=CAPUTO,
    )
    return eq, build_coefficients(eq, 3.3685345578359898, compute_step(eq), n_terms=20), [0.5]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=_series_and_points())
# a reference taking its ratios at the float exponent gamma + s*n, whose
# Gamma argument 1 + q rounds differently, lay 4.1e-11 from the residual
# here, against 3.2e-11 allowed
@example(case=_caputo_three_term_case())
def test_residual_horner_within_bound_of_fsum_sum(case):
    # Horner in y = x^s: within 4 M eps of the slot magnitudes of the exact
    # sum, at the same float y and x^gamma, of the reference slots
    eq, sol, xs = case
    folded = _folded_slots(eq, sol)
    m_top = len(folded) - 1
    for x, r in zip(xs, residual(eq, sol, xs)):
        exact, size = _dyadic_sums(folded, x**sol.s, x**sol.gamma)
        assert abs(Fraction(r) - exact) <= 4 * m_top * _EPS * size


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(case=_series_and_points(max_terms=150))
def test_residual_cut_within_bound_of_exact_sum(case):
    # Horner's error at the float y, 3 M eps sum_m |F_m| x^(gamma+s*m), plus
    # the cut's 2^-7 eps x^gamma sum |slot-0 contributions|
    eq, sol, xs = case
    folded, floor = series._fold(eq, sol)
    slots = folded[::-1]
    m_top = len(slots) - 1
    sums = {x: _dyadic_sums(slots, x**sol.s, x**sol.gamma) for x in xs}
    xs = [x for x in xs if sums[x][1] < 1e300]  # a diverging series overflows
    for x, r in zip(xs, residual(eq, sol, xs)):
        y, scale = x**sol.s, x**sol.gamma
        exact, size = sums[x]
        allowed = 3 * m_top * _EPS * size + Fraction(2.0**-7 * _EPS * scale * floor)
        underflow = _TINY * ((m_top + 2) * scale * max(1.0, y) ** m_top + 1)
        assert abs(Fraction(r) - exact) <= allowed + Fraction(underflow)
