import math
import random
from dataclasses import dataclass

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasibessel.gammafn import TAU_POLE, GammaPoleError, gamma_ratio, signed_log_gamma

# Independent oracle values, frozen from mpmath at 40 digits:
#   Gamma(-1/2) = -2 sqrt(pi)            -> log|.| = log(2 sqrt(pi))
#   Q(gamma=0.7, r=1.7, p=1.7) = Gamma(3.4)/Gamma(1.7)
LOG_2_SQRT_PI = 1.2655121234846453965
Q_EX3 = 3.280958998356589686


def test_positive_values():
    one_log, one_sign = signed_log_gamma(1.0)
    assert one_sign == 1 and abs(one_log) < 1e-15
    half_log, half_sign = signed_log_gamma(0.5)
    assert half_sign == 1
    assert half_log == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-15)


def test_negative_half_via_reflection():
    # oracle: Gamma(0.5) by high-precision quadrature of the defining
    # integral, then the recurrence Gamma(-1/2) = Gamma(1/2)/(-1/2)
    mp.mp.dps = 30
    gamma_half = mp.quad(lambda t: t**mp.mpf("-0.5") * mp.exp(-t), [0, mp.inf])
    oracle = gamma_half / mp.mpf("-0.5")
    assert oracle == pytest.approx(-2 * math.sqrt(math.pi), rel=1e-20)

    log_abs, sign = signed_log_gamma(-0.5)
    assert sign == -1
    assert log_abs == pytest.approx(LOG_2_SQRT_PI, rel=1e-14)
    assert log_abs == pytest.approx(float(mp.log(abs(oracle))), rel=1e-14)


def test_poles_detected():
    # 5e-10 lies within TAU_POLE of the pole at 0; TAU_POLE itself does not
    for x in (0.0, -1.0, -2.0, -7.0, -3.0 + 1e-12, 5e-10):
        assert signed_log_gamma(x) == (math.inf, 0)
    for x in (-2.5, 1e-6, TAU_POLE):
        assert signed_log_gamma(x)[1] != 0


def test_sign_alternation_on_negative_axis():
    # Gamma is negative on (-1, 0), positive on (-2, -1), and so on
    for k in range(6):
        x = -k - 0.5
        expected = -1 if k % 2 == 0 else 1
        assert signed_log_gamma(x)[1] == expected


def test_accuracy_against_mpmath_oracle():
    mp.mp.dps = 30
    rng = random.Random(1729)
    for _ in range(200):
        x = rng.uniform(-20, 30)
        if abs(x - round(x)) < 1e-6:
            continue
        ref = mp.gamma(x)
        log_abs, sign = signed_log_gamma(x)
        assert sign == (1 if ref > 0 else -1)
        assert log_abs == pytest.approx(float(mp.log(abs(ref))), rel=1e-12, abs=1e-12)


def test_gamma_ratio_trivial_integer_p():
    for n in range(1, 12):
        assert gamma_ratio(0.0, float(n), 1.0) == pytest.approx(n, rel=1e-15)
    # p = 0 is exactly 1
    assert gamma_ratio(0.3, 2.7, 0.0) == 1.0


def test_gamma_ratio_denominator_pole_is_zero():
    # the ratio behind a root collision: Gamma(1.5)/Gamma(0)
    assert gamma_ratio(-0.5, 5 * 0.2, 1.5) == 0.0


def test_gamma_ratio_numerator_pole_raises():
    with pytest.raises(GammaPoleError):
        gamma_ratio(-2.0, 0.0, 0.5)


def test_gamma_ratio_example3_value():
    assert gamma_ratio(0.7, 1.7, 1.7) == pytest.approx(Q_EX3, rel=1e-13)


def test_gamma_ratio_recurrence_identity():
    # Gamma(x+1)/Gamma(x) = x
    rng = random.Random(8128)
    for _ in range(10_000):
        x = rng.uniform(1e-3, 50.0)
        assert abs(gamma_ratio(x, 0.0, 1.0) - x) <= 1e-12 * x


def test_gamma_ratio_large_n_asymptotic():
    # Gamma(n) n^alpha / Gamma(n+alpha) -> 1
    n = 1000.0
    for alpha in (0.5, 1.7):
        ratio = gamma_ratio(n - 1.0 - alpha, alpha, alpha) / n**alpha
        assert abs(1.0 / ratio - 1.0) < 0.01


def test_gamma_ratio_matches_mpmath_on_fractional_p():
    mp.mp.dps = 30
    rng = random.Random(31337)
    for _ in range(200):
        g = rng.uniform(-0.9, 5.0)
        r = rng.uniform(0.0, 40.0)
        p = rng.uniform(0.1, 3.0)
        y = 1 + g + r - p
        if abs(y - round(y)) < 1e-6 and round(y) <= 0:
            continue
        ref = float(mp.gamma(1 + g + r) / mp.gamma(y))
        assert gamma_ratio(g, r, p) == pytest.approx(ref, rel=1e-12, abs=1e-15)


# The dataclass-based implementation that the tuple-returning one replaced,
# copied verbatim apart from the _REF names and the docstrings, as the
# reference for bit identity.
_REF_TAU_POLE = 1e-9
_REF_MAX_PRODUCT_P = 128


@dataclass(frozen=True)
class _RefSignedLogGamma:
    log_abs: float
    sign: int

    @property
    def is_pole(self) -> bool:
        return self.sign == 0


def _ref_signed_log_gamma(x: float) -> _RefSignedLogGamma:
    if not math.isfinite(x):
        raise ValueError(f"signed_log_gamma expects finite x, got {x}")
    nearest = round(x)
    if nearest <= 0 and abs(x - nearest) < _REF_TAU_POLE:
        return _RefSignedLogGamma(math.inf, 0)
    if x > 0:
        return _RefSignedLogGamma(math.lgamma(x), 1)
    floor = math.floor(x)
    frac = x - floor  # in (0, 1)
    log_abs = math.log(math.pi) - math.log(math.sin(math.pi * frac)) - math.lgamma(1.0 - x)
    sign = 1 if floor % 2 == 0 else -1
    return _RefSignedLogGamma(log_abs, sign)


def _ref_gamma_ratio(gamma: float, r: float, p: float) -> float:
    x = 1.0 + gamma + r
    num = _ref_signed_log_gamma(x)
    if num.is_pole:
        raise GammaPoleError(
            f"Gamma pole in ratio numerator: 1+gamma+r = {x!r} is a nonpositive integer"
        )
    y = x - p
    den = _ref_signed_log_gamma(y)
    if den.is_pole:
        return 0.0
    k = round(p)
    if (
        abs(p - k) < _REF_TAU_POLE
        and 0 <= k <= _REF_MAX_PRODUCT_P
        and k * math.log10(abs(x) + k + 2.0) < 280.0
    ):
        prod = 1.0
        for j in range(1, k + 1):
            prod *= x - j
        return prod
    return num.sign * den.sign * math.exp(num.log_abs - den.log_abs)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


_NEAR = st.sampled_from((0.0, 1e-12, 5e-10, 1e-9, 2e-9))
_SIDE = st.sampled_from((1.0, -1.0))
_ARGS = st.one_of(
    st.builds(lambda n, d, side: n + side * d, st.integers(-30, 200), _NEAR, _SIDE),
    st.floats(-30.0, 200.0),
)
_ORDERS = st.one_of(
    st.builds(lambda n, d, side: n + side * d, st.integers(0, 6), _NEAR, _SIDE),
    st.floats(0.0, 6.0),
)
_LATTICE = st.integers(0, 100).map(lambda k: k * 0.1)


@settings(max_examples=400, derandomize=True, database=None)
@given(x=_ARGS)
@example(x=5e-10)
@example(x=_REF_TAU_POLE)
def test_signed_log_gamma_bit_identical_to_dataclass_version(x):
    ref = _outcome(_ref_signed_log_gamma, x)
    if isinstance(ref, _RefSignedLogGamma):
        ref = (ref.log_abs, ref.sign)
    assert _outcome(signed_log_gamma, x) == ref


@settings(max_examples=400, derandomize=True, database=None)
@given(arg=_ARGS, r=_LATTICE, p=_ORDERS)
@example(arg=5e-10, r=0.0, p=0.5)
@example(arg=2.0 + 5e-10, r=0.0, p=2.0)
def test_gamma_ratio_bit_identical_to_dataclass_version(arg, r, p):
    # the numerator argument 1 + gamma + r lands on (or next to) ``arg``
    gamma = arg - 1.0 - r
    assert _outcome(gamma_ratio, gamma, r, p) == _outcome(_ref_gamma_ratio, gamma, r, p)


# gamma_ratio verbatim apart from the name, frozen as the reference for
# special inputs: a shortcut added to gamma_ratio must keep every outcome
def _general_gamma_ratio(gamma: float, r: float, p: float) -> float:
    x = 1.0 + gamma + r
    num_log, num_sign = signed_log_gamma(x)
    if num_sign == 0:
        raise GammaPoleError(
            f"Gamma pole in ratio numerator: 1+gamma+r = {x!r} is a nonpositive integer"
        )
    y = x - p
    den_log, den_sign = signed_log_gamma(y)
    if den_sign == 0:
        return 0.0
    k = round(p)
    # the size guard keeps the product finite and admits only k <= 131
    if abs(p - k) < TAU_POLE and k >= 0 and k * math.log10(abs(x) + k + 2.0) < 280.0:
        prod = 1.0
        for j in range(1, k + 1):
            prod *= x - j
        return prod
    return num_sign * den_sign * math.exp(num_log - den_log)


def _bits_outcome(fn, *args):
    """The float's bits, or the exception's type and message."""
    try:
        return fn(*args).hex()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 5e-324, -5e-324,
            2.2250738585072014e-308, 0.5, 1.0, 2.5, 30.25]
# nonpositive integers and the points within TAU_POLE of them, and just beyond
_NEAR_POLES = [n + e for n in (0, -1, -3, -40)
               for e in (0.0, 0.5 * TAU_POLE, -0.5 * TAU_POLE, TAU_POLE, -TAU_POLE,
                         2 * TAU_POLE, -2 * TAU_POLE)]
_INTEGER_ORDERS = [k / 2 for k in range(0, 401)] + [k + e for k in (1, 2, 131, 200)
                                                    for e in (0.5 * TAU_POLE, -2 * TAU_POLE)]


def test_gamma_ratio_fast_path_keeps_every_outcome_on_special_inputs():
    args = _SPECIAL + _NEAR_POLES
    for gamma in args:
        for r in (0.0, -0.0, 0.7, 1e300, math.inf, math.nan):
            for p in args + [-p for p in _NEAR_POLES] + _INTEGER_ORDERS:
                assert _bits_outcome(gamma_ratio, gamma, r, p) == _bits_outcome(
                    _general_gamma_ratio, gamma, r, p
                ), (gamma, r, p)


_ANY_FLOAT = st.one_of(st.floats(), st.floats(-50.0, 250.0), st.sampled_from(_NEAR_POLES))


@settings(max_examples=2000, derandomize=True, database=None)
@given(gamma=_ANY_FLOAT, r=st.one_of(st.just(0.0), _ANY_FLOAT),
       p=st.one_of(_ANY_FLOAT, st.sampled_from(_INTEGER_ORDERS)))
def test_gamma_ratio_fast_path_keeps_every_outcome(gamma, r, p):
    new, old = (_bits_outcome(f, gamma, r, p) for f in (gamma_ratio, _general_gamma_ratio))
    assert new == old
