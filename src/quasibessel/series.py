"""Series construction: step lattice, coefficient recursion, evaluation,
term-wise fractional derivatives, and the residual check.

A solution is sought as u(x) = sum_n c_n x^(gamma + s*n).  The step s is the
largest increment putting every power generated by the equation on one
lattice: rationalise beta/r and the nonzero p_i/r, take 1/LCD of their
denominators, then multiply back the GCF of the resulting integer shifts.
With the shifts n_beta = beta/(r*s) and n_pi = p_i/(r*s) the coefficients
satisfy

    c_n = -[ c_(n-n_beta) + sum over shifted terms of
             c_(n-n_pi) * d_i * Q((n-n_pi)s, alpha_i) ] / D_n,

    D_n = sum over pure Bessel terms of d_j * Q(ns, alpha_j) - nu^2,

where Q(r, p) = Gamma(1+gamma+r)/Gamma(1+gamma+r-p) and terms whose index
would be negative are absent.  A vanishing D_n means gamma + s*n is itself a
root of the characteristic equation (a root collision) and the series does
not exist; that is reported as DenominatorPoleError rather than patched.

The recursion takes each Q, and the residual check each derivative, from one
power rule (frac_derivative_power), so any disagreement beyond the truncation
tail is a bug, not discretisation error.  Every power the equation produces,
x^(gamma+s(n+n_pi)) and x^(gamma+s(n+n_beta)), lies on the series lattice,
so the residual is folded onto integer lattice slots and evaluated as one
more coefficient vector.

Evaluation and residual sum the same way: by Horner's rule in y = x^s on
the integer lattice indices, scaled by x^gamma, with two pow calls per point
and no float exponent.  evaluate sums the coefficients c_n, residual its
folded slots F_m.  evaluate's size sum_n |c_n| x^(gamma+s*n) is summed once
per grid, at the largest y, as a bound for every point, and summed again only
at a point where that bound leaves the overflow or cancellation test open.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

from .equation import DerivativeKind, QuasiBesselEquation, ceil_order, is_integer_order
from .gammafn import TAU_POLE, gamma_ratio
from .rational import gcf, lcd

__all__ = [
    "StepPlan",
    "Truncation",
    "SeriesSolution",
    "DenominatorPoleError",
    "DerivativeUndefinedError",
    "CancellationWarning",
    "compute_step",
    "build_coefficients",
    "evaluate",
    "frac_derivative_power",
    "residual",
    "c0_for_initial_derivative",
    "EPS_TAIL",
    "MAX_TERMS",
]

EPS_TAIL = 1e-14
MAX_TERMS = 2000

# below this, a recursion denominator is treated as an exact collision
_TAU_DENOM_SCALE = 1e-8
# a coefficient beyond this magnitude means the series is blowing up
_BLOWUP_LIMIT = 1e280


class DenominatorPoleError(ArithmeticError):
    """The recursion denominator D_n vanished: gamma + s*n is (numerically)
    another characteristic root, so this gamma generates no series."""

    def __init__(self, n: int, value: float):
        self.n = n
        self.value = value
        super().__init__(
            f"recursion denominator vanished at n={n} (D_n={value:.3e}): "
            f"gamma + s*n collides with another characteristic root"
        )


class DerivativeUndefinedError(ValueError):
    """The requested fractional derivative of x^q does not exist at the
    origin for this exponent."""


class CancellationWarning(UserWarning):
    """Series evaluation lost most of its significant digits to cancellation."""


@dataclass(frozen=True)
class StepPlan:
    """Step s (exact, in units of r) and the integer shifts of beta and the
    nonzero shifting indices onto the lattice.

    Invariants: s * n_beta = beta/r and s * n_p[i] = p_i/r exactly, and the
    shifts share no common factor (s is maximal).
    """

    s: Fraction
    n_beta: int
    n_p: Dict[int, int]
    lcd: int
    gcf: int
    r: float = 1.0

    @property
    def step_value(self) -> float:
        """The step with the common irrational factor applied."""
        return float(self.s) * self.r


@dataclass(frozen=True)
class Truncation:
    terms_used: int
    tail_estimate: float
    converged: bool


@dataclass(frozen=True)
class SeriesSolution:
    """Truncated series sum c_n x^(gamma + s*n); s carries the factor r."""

    gamma: float
    s: float
    coefficients: List[float]
    c0: float
    truncation: Truncation

    def exponent(self, n: int) -> float:
        return self.gamma + self.s * n


def compute_step(eq: QuasiBesselEquation) -> StepPlan:
    """Compute the maximal step and the lattice shifts for ``eq``."""
    if eq.beta == 0:
        raise ValueError(
            "beta = 0: the zeroth-order factor is constant and defines no step; "
            "fold it into nu_squared"
        )
    shifted = [(i, eq.terms[i].p) for i in eq.shifted_indices]
    values = [eq.beta] + [p for _, p in shifted]
    n_lcd = lcd(values)
    raw_beta = eq.beta * n_lcd
    raw_p = {i: p * n_lcd for i, p in shifted}
    assert raw_beta.denominator == 1 and all(v.denominator == 1 for v in raw_p.values())
    shifts = [int(raw_beta)] + [int(v) for v in raw_p.values()]
    n_gcf = gcf(shifts)
    return StepPlan(
        s=Fraction(n_gcf, n_lcd),
        n_beta=int(raw_beta) // n_gcf,
        n_p={i: int(v) // n_gcf for i, v in raw_p.items()},
        lcd=n_lcd,
        gcf=n_gcf,
        r=eq.r,
    )


def _log_magnitude(c: float, exponent: float, log_x: float) -> float:
    if c == 0.0:
        return -math.inf
    return math.log(abs(c)) + exponent * log_x


def build_coefficients(
    eq: QuasiBesselEquation,
    gamma: float,
    plan: StepPlan,
    n_terms: Optional[int] = None,
    c0: float = 1.0,
    *,
    x_max: float = 1.0,
    eps_tail: float = EPS_TAIL,
    max_terms: int = MAX_TERMS,
) -> SeriesSolution:
    """Run the coefficient recursion from c_0 = c0.

    With ``n_terms`` given, exactly that many steps are taken.  Otherwise the
    recursion stops at the smallest N that ends n_beta consecutive terms
    below eps_tail, a term being |c_n| x_max^(gamma+sn) for n >= 1 -- a
    single small term proves nothing, since runs of up to n_beta zero
    coefficients occur legitimately on the lattice -- capped at
    ``max_terms`` with the converged flag cleared.  The recursion also stops
    early, not converged, if a coefficient exceeds 1e280: that is the
    divergent regime, reported rather than overflowed.  The tail estimate is
    the largest of the last n_beta terms.

    A coefficient that overflows raises ArithmeticError, and so does one
    that falls below the normal range (|c_n| < sys.float_info.min, c0 != 0)
    while its term, taken from num and D_n before the division, is still at
    least eps_tail: its digits are lost, and the truncation rule would read
    the lost term as small.  A derivative the power rule leaves undefined
    raises DerivativeUndefinedError, except in D_n when num_n = 0: c_n = 0.

    The recursion is linear in c0, and that linearity is exact here: the
    coefficients are built once with unit normalisation and scaled at the end.
    """
    if n_terms is not None and n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    if x_max <= 0:
        raise ValueError(f"x_max must be positive, got {x_max}")
    s = plan.step_value
    tau_denom = _TAU_DENOM_SCALE * (1.0 + eq.nu_squared)
    rules = [(t.d, _power_rule(eq.kind, t.alpha, gamma)) for t in eq.terms]
    pure = [rules[i] for i in eq.pure_indices]
    shifted = [rules[i] + (plan.n_p[i],) for i in eq.shifted_indices]

    unit = [1.0]
    # log|c0 c_n| + (gamma + s n) ln x_max of each term made, n = 1, 2, ...
    sizes: List[float] = []
    small_run = 0  # consecutive terms below eps_tail that end at n
    limit = n_terms if n_terms is not None else max_terms
    log_x = math.log(x_max)
    log_eps = math.log(eps_tail)
    converged = False
    for n in range(1, limit + 1):
        num = 0.0
        if n >= plan.n_beta:
            num += unit[n - plan.n_beta]
        for d, rule, shift in shifted:
            k = n - shift
            if k >= 0 and unit[k] != 0.0:
                num += unit[k] * d * rule(k * s)
        d_n = -eq.nu_squared
        try:
            for d, rule in pure:
                d_n += d * rule(n * s)
        except DerivativeUndefinedError:
            if num != 0.0:
                raise
            d_n = math.inf  # no term sits at n: c_n = -0/inf
        if abs(d_n) < tau_denom:
            raise DenominatorPoleError(n, d_n)
        c = -num / d_n
        if not math.isfinite(c):
            raise ArithmeticError(f"coefficient overflow at n={n}")
        if num != 0.0 and c0 != 0.0 and abs(c) < sys.float_info.min and (
            math.log(abs(c0)) + math.log(abs(num)) - math.log(abs(d_n))
            + (gamma + s * n) * log_x >= log_eps
        ):
            raise ArithmeticError(f"coefficient underflow at n={n}")
        unit.append(c)
        size = _log_magnitude(c0 * c, gamma + s * n, log_x)
        sizes.append(size)
        small_run = small_run + 1 if size < log_eps else 0
        blown_up = abs(c) > _BLOWUP_LIMIT
        converged = not blown_up and small_run >= plan.n_beta
        if blown_up or (converged and n_terms is None):
            break

    tail_log = max(sizes[-plan.n_beta:], default=-math.inf)
    tail = math.exp(tail_log) if tail_log < 700.0 else math.inf
    return SeriesSolution(
        gamma=gamma,
        s=s,
        coefficients=[c0 * u for u in unit],
        c0=c0,
        truncation=Truncation(terms_used=len(unit) - 1, tail_estimate=tail, converged=converged),
    )


def _horner(coeffs_top_first: Sequence[float], y: float) -> float:
    """sum_m a_m y^m by Horner's rule, the coefficients given from a_M down
    to a_0."""
    acc = 0.0
    for a in coeffs_top_first:
        acc = acc * y + a
    return acc


def evaluate(sol: SeriesSolution, xs: Sequence[float]) -> List[float]:
    """Evaluate the truncated series on a grid of x > 0 (x = 0 is accepted
    when gamma >= 0).

    At each x, u = x^gamma * P(y) with y = x^s and P(y) = sum_n c_n y^n
    summed by Horner's rule, so every term sits on the exact lattice
    gamma + s*n.  For N+1 coefficients the error is at most 2(N+1) eps S to
    first order, S = sum_n |c_n| x^(gamma+s*n) being the size (Higham 2002,
    section 5.1; the rounding of y counts n-fold in y^n).  Where values fall
    below the normal range each rounding may add up to half the smallest
    subnormal, grown by x^gamma y^n.  A u or S that is not finite raises
    OverflowError, as x**gamma or x**s does when that power alone
    overflows; both name the first such x of the grid.

    When S exceeds 1e15 |u| the digits are gone to cancellation; a
    CancellationWarning is issued once per call and no compensation is
    attempted.  S is at most N+1 times the largest term, and is the quantity
    the error bound is stated in.  A sum of exactly zero warns when S is not.

    S is summed once per grid, at the largest y, and x^gamma times that sum
    bounds the computed S at every x, since Horner on |c_n| rounds each
    multiply and add monotonically; S itself is summed only at an x where the
    bound is not finite or exceeds 1e15 |u|.
    """
    for x in xs:
        if x < 0:
            raise ValueError(f"series is defined for x >= 0, got {x}")
        if x == 0 and sol.gamma < 0:
            raise ValueError(f"series with gamma = {sol.gamma!r} < 0 is undefined at x = 0")
    cs = sol.coefficients[::-1]  # c_N first
    sizes = [abs(c) for c in cs]
    powers = []
    for x in xs:
        try:
            powers.append((x**sol.s, x**sol.gamma))
        except OverflowError:
            powers.append(None)  # raised in grid order below
    bound = _horner(sizes, max((p[0] for p in powers if p), default=0.0))
    out = []
    lost = False
    for x, p in zip(xs, powers):
        if p is None:
            raise OverflowError(f"series overflows at x = {x!r}")
        y, scale = p
        total = scale * _horner(cs, y)
        # fails on a bound that is not finite, since inf > float max
        if not scale * bound <= min(1e15 * abs(total), sys.float_info.max):
            size = scale * _horner(sizes, y)
            # rounding is monotone, so |total| <= size at every step: when
            # size is finite, so is total
            if not math.isfinite(size):
                raise OverflowError(f"series overflows at x = {x!r}")
            lost = lost or size > 1e15 * abs(total)
        out.append(total)
    if lost:
        warnings.warn(
            CancellationWarning(
                "series evaluation lost more than 15 digits to cancellation "
                "(x too large for this truncation)"
            )
        )
    return out


def _power_rule(kind: DerivativeKind, alpha: float, gamma: float) -> Callable[[float], float]:
    """frac_derivative_power at gamma + r as a function of r, ceil(alpha) taken once."""
    caputo = kind is DerivativeKind.CAPUTO and not is_integer_order(alpha)
    floor = ceil_order(alpha) - 1 + TAU_POLE if caputo else -1.0

    def rule(r: float) -> float:
        q = gamma + r
        if q > floor:
            return gamma_ratio(gamma, r, alpha)
        if caputo and round(q) >= 0 and abs(q - round(q)) < TAU_POLE:
            return 0.0
        raise DerivativeUndefinedError(f"{kind.value} D^{alpha} of x^{q} is undefined")

    return rule


def frac_derivative_power(kind: DerivativeKind, alpha: float, exponent: float) -> float:
    """Coefficient of the fractional power rule, the one that the recursion
    and the residual share: D^alpha x^q = Gamma(q+1)/Gamma(q+1-alpha) x^(q-alpha).

    Riemann-Liouville needs q > -1, and the coefficient is exactly zero when
    q+1-alpha is a nonpositive integer.  For a fractional order, Caputo of
    x^q with q a nonnegative integer below ceil(alpha) is exactly zero (the
    classical derivative of a low-degree monomial); otherwise Caputo needs
    q > ceil(alpha)-1 and then agrees with Riemann-Liouville.  For an integer
    order n both are the classical D^n (Kilbas, Srivastava & Trujillo 2006,
    2.4), so Caputo takes the Riemann-Liouville rule: D^n x^q =
    q(q-1)...(q-n+1) x^(q-n) for q > -1, zero at q = 0..n-1.
    """
    return _power_rule(kind, alpha, exponent)(0.0)


def residual(
    eq: QuasiBesselEquation, sol: SeriesSolution, xs: Sequence[float]
) -> List[float]:
    """Substitute the truncated series into the equation, term by term.

    Precondition: ``sol.s`` is the step of ``compute_step(eq)``, as it is for
    every series ``build_coefficients`` makes from that plan.

    Every series term is differentiated with the recursion's own power rule
    and arguments, and every power the equation produces lies on the lattice:
    term i maps c_n x^(gamma+s*n) into slot n + n_p[i] (n_p = 0 for pure
    Bessel terms), x^beta into slot n + n_beta and -nu^2 into slot n.  Each
    slot is summed exactly rounded with math.fsum, so the result is the
    genuine defect of the truncated series up to rounding: slots up to the
    truncation point hold the recursion's arithmetic rounding, not its Gamma
    ratios' error (tested at 50 digits), and the slots beyond it the tail.

    The slot vector F_0..F_M is summed at each x by Horner's rule in
    y = x^s, r(x) = x^gamma * (...(F_M*y + F_(M-1))*y + ... + F_0).  With
    the rounding of y amplified m-fold in y^m, the error is at most about
    3M eps sum_m |F_m| x^(gamma+s*m) (Higham 2002, section 5.1): M eps
    relative to a quantity that is itself the residual's rounding level.
    A result that is not finite raises OverflowError, as x**gamma or x**s
    does; both name x.
    """
    plan = compute_step(eq)
    shifts = [plan.n_p.get(i, 0) for i in range(len(eq.terms))]
    rules = [(t.d, _power_rule(eq.kind, t.alpha, sol.gamma)) for t in eq.terms]
    slots: List[List[float]] = [
        [] for _ in range(len(sol.coefficients) + max(shifts + [plan.n_beta]))
    ]
    for n, c in enumerate(sol.coefficients):
        if c == 0.0:
            continue
        for (d, rule), shift in zip(rules, shifts):
            slots[n + shift].append(d * c * rule(n * sol.s))
        slots[n + plan.n_beta].append(c)
        slots[n].append(-eq.nu_squared * c)
    for x in xs:
        if x <= 0:
            raise ValueError(f"residual is defined for x > 0, got {x}")
    folded = [math.fsum(slot) for slot in reversed(slots)]  # F_M first
    out = []
    for x in xs:
        try:
            r = x**sol.gamma * _horner(folded, x**sol.s)
        except OverflowError:
            r = math.inf
        if not math.isfinite(r):
            raise OverflowError(f"residual overflows at x = {x!r}")
        out.append(r)
    return out


def c0_for_initial_derivative(gamma: float, mu: float, value: float) -> float:
    """Normalisation c0 making D^mu u(0+) equal ``value`` for a series with
    leading exponent gamma: inverts c0 * Gamma(1+gamma)/Gamma(1+gamma-mu) = value.

    Meaningful when mu = gamma (the differentiated leading term is then the
    only one surviving at the origin)."""
    ratio = gamma_ratio(gamma, 0.0, mu)
    if ratio == 0.0:
        raise ValueError(
            f"D^{mu} of x^{gamma} vanishes identically; it cannot fix c0"
        )
    return value / ratio
