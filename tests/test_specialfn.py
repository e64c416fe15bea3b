import math

import mpmath as mp
import pytest

from _examples import example2, example4
from quasibessel import (
    KilbasSaigoParams,
    build_coefficients,
    compute_step,
    evaluate,
    kilbas_saigo,
    kilbas_saigo_coefficients,
    kilbas_saigo_for_single_term,
)
from quasibessel.gammafn import GammaPoleError, gamma_ratio


def _mittag_leffler(alpha, z, n_terms=60):
    # E_alpha = E_(alpha,1,0): the coefficient product telescopes to
    # 1/Gamma(1 + alpha k)
    return kilbas_saigo(KilbasSaigoParams(alpha, 1.0, 0.0), [z], n_terms)[0]


def _mittag_leffler_series(alpha, z, n_terms):
    # sum_{n <= N} z^n / Gamma(1 + alpha n) at 30 digits
    mp.mp.dps = 30
    return float(mp.nsum(lambda n: mp.mpf(z) ** n / mp.gamma(1 + alpha * n), [0, n_terms]))


def test_mittag_leffler_trivial():
    assert _mittag_leffler(1.0, 0.0) == 1.0
    assert _mittag_leffler(1.0, 1.0, 40) == pytest.approx(math.e, abs=1e-12)
    assert _mittag_leffler(2.0, 1.0, 40) == pytest.approx(math.cosh(1.0), abs=1e-12)
    assert _mittag_leffler(1.0, -1.0, 60) == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_mittag_leffler_against_mpmath_series():
    for alpha in (0.5, 0.7, 1.3):
        for z in (-0.8, 0.3, 2.0):
            ref = _mittag_leffler_series(alpha, z, 200)
            assert _mittag_leffler(alpha, z, 200) == pytest.approx(ref, rel=1e-12)


def test_kilbas_saigo_at_zero_is_one():
    assert kilbas_saigo(KilbasSaigoParams(0.5, 2.4, 0.4), [0.0]) == [1.0]


def test_kilbas_saigo_past_overflowing_powers():
    # E_(1,1,0)(z) = exp(z); 60^k overflows at k = 174, where 1/k! is still
    # a nonzero subnormal and 1/k! underflows to zero from k = 178 on
    params = KilbasSaigoParams(1.0, 1.0, 0.0)
    big, small = kilbas_saigo(params, [60.0, 20.0], 400)
    assert big == pytest.approx(math.exp(60.0), rel=1e-14)
    assert small == pytest.approx(math.exp(20.0), rel=1e-14)
    # at z = 700 the largest terms, near k = 700, all have c_k flushed to 0.0
    assert kilbas_saigo(params, [700.0], 1000)[0] == pytest.approx(math.exp(700.0), rel=1e-12)
    # alternating: the terms cancel from ~e^672 to e^-672, so what is left is
    # rounding; a wrong sign past the overflow would leave ~e^672
    assert abs(kilbas_saigo(params, [-672.0], 1000)[0]) < 1e-12 * math.exp(672.0)
    # a term that itself overflows still shows
    assert kilbas_saigo(params, [1e5], 400) == [math.inf]


def test_kilbas_saigo_example4_coefficients():
    # c_k = prod_{j<k} Gamma(1.2 + 1.2 j)/Gamma(1.7 + 1.2 j)
    mp.mp.dps = 30
    triples = kilbas_saigo_coefficients(KilbasSaigoParams(0.5, 2.4, 0.4), 12)
    assert len(triples) == 13
    prod = mp.mpf(1)
    for k, (c, sign, log_c) in enumerate(triples):
        assert c == pytest.approx(float(prod), rel=1e-12)
        assert sign == 1 and log_c == pytest.approx(float(mp.log(prod)), abs=1e-12)
        prod *= mp.gamma(mp.mpf("1.2") + mp.mpf("1.2") * k) / mp.gamma(
            mp.mpf("1.7") + mp.mpf("1.2") * k
        )


def test_kilbas_saigo_reduces_to_mittag_leffler():
    # the coefficient product telescopes to 1/Gamma(1 + alpha k) when m=1, l=0
    params = KilbasSaigoParams(0.7, 1.0, 0.0)
    zs = [0.3, -0.5, 1.2]
    for z, value in zip(zs, kilbas_saigo(params, zs, 80)):
        assert value == pytest.approx(_mittag_leffler_series(0.7, z, 80), abs=1e-12)


def test_kilbas_saigo_numerator_pole_is_error():
    # alpha(jm + l) + 1 = 0 at j = 0
    params = KilbasSaigoParams(1.0, 1.0, -1.0)
    with pytest.raises(GammaPoleError):
        kilbas_saigo_coefficients(params, 4)


def test_kilbas_saigo_params_validation():
    with pytest.raises(ValueError):
        KilbasSaigoParams(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        KilbasSaigoParams(0.5, -1.0, 0.0)


def test_series_for_example2_equals_mittag_leffler_image():
    # u = c0 e^(-x) = c0 E_1(-x)
    eq = example2()
    plan = compute_step(eq)
    sol = build_coefficients(eq, 0.0, plan, n_terms=40)
    for x in (0.2, 1.0, 2.0):
        assert evaluate(sol, [x])[0] == pytest.approx(math.exp(-x), abs=1e-10)


def test_series_for_example4_equals_kilbas_saigo():
    for lam in (0.5, 1.0):
        eq = example4(lam)
        plan = compute_step(eq)
        # b = 1: c0 makes D^-0.5 u(0+) = c0 Gamma(0.5) equal 1
        c0 = 1.0 / gamma_ratio(-0.5, 0.0, -0.5)
        assert c0 == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
        sol = build_coefficients(eq, -0.5, plan, c0=c0, x_max=2.0, eps_tail=1e-16)
        params, lam_rec = kilbas_saigo_for_single_term(0.5, sol.s, -0.5, -1.0 / lam)
        assert lam_rec == pytest.approx(lam, rel=1e-15)
        assert params.alpha == pytest.approx(0.5)
        assert params.m == pytest.approx(2.4)
        assert params.l == pytest.approx(0.4)
        xs = [0.1 + 0.1 * i for i in range(20)]
        closed = kilbas_saigo(params, [lam * x**1.2 for x in xs], 80)
        worst = 0.0
        for x, u, e in zip(xs, evaluate(sol, xs), closed):
            worst = max(worst, abs(u - c0 * x**-0.5 * e))
        assert worst < 1e-9


def test_single_term_mapping_for_example3():
    params, lam = kilbas_saigo_for_single_term(1.7, 1.7, 0.7, -0.5)
    assert lam == pytest.approx(2.0)
    assert params.m == pytest.approx(1.0)
    assert params.l == pytest.approx(0.7 / 1.7)
