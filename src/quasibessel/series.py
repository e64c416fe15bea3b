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
power rule, _PowerRule at (gamma, n*s) for the lattice index n, with the
Gamma arguments 1 + gamma + n*s and 1 + gamma + n*s - alpha; so any
disagreement beyond the truncation tail is a bug, not discretisation error.
Every power the equation produces, x^(gamma+s(n+n_pi)) and
x^(gamma+s(n+n_beta)), lies on the series lattice, so the residual is folded
onto integer lattice slots and evaluated as one more coefficient vector.

Each derivative's ratios are one table, Q(0), Q(1), ..., indexed by n and
filled _BLOCK indices at a time.  A block where the rule is a plain Gamma
ratio at every index is one list of exp(lgamma - lgamma), the same floats
gamma_ratio gives there; every other block holds NaN, and NaN has one
meaning: ask the rule at that index.  So an error of the rule, overflow or
an undefined derivative, is raised only when the recursion or the residual
reads that index.  The recursion sums D_n index by index from the pure
terms' tables.  The tables are kept with the series the recursion returns,
and the residual reads them from there: it fills only the shifted terms'
top indices, which the recursion never reached.

Evaluation and residual sum through one routine, _lattice_sums: Horner's
rule in y = x^s on the integer lattice indices, scaled by x^gamma, with two
pow calls per point and no float exponent.  Its docstring states the cut
rule, by which each point sums only the terms it needs, and the overflow
rule; evaluate (on c_n) and residual (on its folded slots F_m) state what
each adds to their error bounds.  The points that take one degree are
summed four to a pass over their shared head; each point's sum is the
float sequence of a one-point Horner loop, so no error bound changes.
"""

from __future__ import annotations

import math
import sys
import warnings
from bisect import bisect_left
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .equation import DerivativeKind, QuasiBesselEquation, ceil_order, is_integer_order
from .gammafn import TAU_POLE, gamma_ratio

__all__ = [
    "StepPlan",
    "Truncation",
    "SeriesSolution",
    "DenominatorPoleError",
    "CoefficientUnderflowError",
    "DerivativeUndefinedError",
    "CancellationWarning",
    "compute_step",
    "build_coefficients",
    "evaluate",
    "residual",
    "EPS_TAIL",
    "MAX_TERMS",
    "CAPUTO_FLOOR_WIDTH",
]

EPS_TAIL = 1e-14
MAX_TERMS = 2000
# The width of the Caputo floor, for the power rule and the root screening
# alike: a fractional D^alpha x^q needs q > ceil(alpha) - 1 + this, and a q
# within this of an integer j >= 0 is j there.  A lattice point gamma + n*s
# that is an integer in exact arithmetic lands within ~1e-13 of it.
CAPUTO_FLOOR_WIDTH = 1e-12

# below this, a recursion denominator is treated as an exact collision
_TAU_DENOM_SCALE = 1e-8
# a coefficient beyond this magnitude means the series is blowing up
_BLOWUP_LIMIT = 1e280
# a point's Horner degree is one of every 16th, so a grid's table of
# degrees costs one log per 16 terms
_CUT_STRIDE = 16
# log of the share of eps times its floor that a point's dropped terms may reach
_LOG_CUT = math.log(2.0**-7 * sys.float_info.epsilon)
# indices per block of a power-rule table; a series of N terms fills at most
# one block per term past N
_BLOCK = 16


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


class CoefficientUnderflowError(ArithmeticError):
    """A recursion coefficient fell below the normal float range while its
    term was still above the tail tolerance, so its digits are lost."""


class DerivativeUndefinedError(ValueError):
    """The requested fractional derivative of x^q does not exist at the
    origin for this exponent."""


class CancellationWarning(UserWarning):
    """Series evaluation lost most of its significant digits to cancellation."""


class StepPlan(NamedTuple):
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


class Truncation(NamedTuple):
    terms_used: int
    tail_estimate: float
    converged: bool
    # the recursion stopped on a coefficient beyond _BLOWUP_LIMIT
    blown_up: bool = False


class SeriesSolution:
    """Truncated series sum c_n x^(gamma + s*n); s carries the factor r."""

    __slots__ = ("gamma", "s", "coefficients", "truncation", "ratios")

    def __init__(
        self, gamma: float, s: float, coefficients: List[float], truncation: Truncation,
        ratios: Optional[Dict[tuple, _PowerRule]] = None,
    ) -> None:
        self.gamma = gamma
        self.s = s
        self.coefficients = coefficients
        self.truncation = truncation
        # the power rule's tables by (kind, alpha, gamma, s), as the recursion
        # filled them: residual reads them, and fills only the indices beyond
        self.ratios = {} if ratios is None else ratios

    def exponent(self, n: int) -> float:
        return self.gamma + self.s * n


def compute_step(eq: QuasiBesselEquation) -> StepPlan:
    """Compute the maximal step and the lattice shifts for ``eq``."""
    if eq.beta == 0:
        raise ValueError(
            "beta = 0: an equation without an x^beta term (beta > 0) is not supported"
        )
    shifted = [(i, eq.terms[i].p) for i in eq.shifted_indices]
    n_lcd = math.lcm(eq.beta.denominator, *(p.denominator for _, p in shifted))
    raw_beta = eq.beta * n_lcd
    raw_p = {i: p * n_lcd for i, p in shifted}
    assert raw_beta.denominator == 1 and all(v.denominator == 1 for v in raw_p.values())
    shifts = [int(raw_beta)] + [int(v) for v in raw_p.values()]
    n_gcf = math.gcd(*shifts)
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

    A coefficient that overflows raises ArithmeticError.  One that falls
    below the normal range (|c_n| < sys.float_info.min, c0 != 0) while its
    term, taken from num and D_n before the division, is still at least
    eps_tail raises CoefficientUnderflowError: its digits are lost, and the
    truncation rule would read the lost term as small.  A derivative the
    power rule leaves undefined raises DerivativeUndefinedError, except in
    D_n when num_n = 0: c_n = 0.

    The recursion is linear in c0, and that linearity is exact here: the
    coefficients are built once with unit normalisation and scaled at the end.
    """
    if n_terms is not None and n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    if max_terms < 1:
        raise ValueError(f"max_terms must be >= 1, got {max_terms}")
    if x_max <= 0:
        raise ValueError(f"x_max must be positive, got {x_max}")
    s = plan.step_value
    n_beta = plan.n_beta  # read once: a NamedTuple field is a slow read in a loop
    tau_denom = _TAU_DENOM_SCALE * (1.0 + eq.nu_squared)
    ratios: Dict[tuple, _PowerRule] = {}
    tables = _tables(eq, gamma, s, ratios)
    pure = [(eq.terms[i].d, tables[i], tables[i].values) for i in eq.pure_indices]
    shifted = [
        (eq.terms[i].d, tables[i], tables[i].values, plan.n_p[i]) for i in eq.shifted_indices
    ]

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
        if n >= n_beta:
            num += unit[n - n_beta]
        for d, table, values, shift in shifted:
            k = n - shift
            if k >= 0 and unit[k] != 0.0:
                if k >= len(values):
                    table.grow(k + 1)
                q = values[k]
                num += unit[k] * d * (q if q == q else table(k))
        d_n = -eq.nu_squared
        try:
            for d, table, values in pure:
                if n >= len(values):
                    table.grow(n + 1)
                q = values[n]
                d_n += d * (q if q == q else table(n))
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
            raise CoefficientUnderflowError(f"coefficient underflow at n={n}")
        unit.append(c)
        size = _log_magnitude(c0 * c, gamma + s * n, log_x)
        sizes.append(size)
        small_run = small_run + 1 if size < log_eps else 0
        blown_up = abs(c) > _BLOWUP_LIMIT
        converged = not blown_up and small_run >= n_beta
        if blown_up or (converged and n_terms is None):
            break

    tail_log = max(sizes[-n_beta:], default=-math.inf)
    tail = math.exp(tail_log) if tail_log < 700.0 else math.inf
    return SeriesSolution(
        gamma=gamma,
        s=s,
        coefficients=[c0 * u for u in unit],
        truncation=Truncation(len(unit) - 1, tail, converged, blown_up),
        ratios=ratios,
    )


def _horner(coeffs_top_first: Sequence[float], ys: Sequence[float]) -> List[float]:
    """sum_m a_m y^m by Horner's rule at every y of a list, the coefficients
    given from a_M down to a_0.

    Four points share each pass over the coefficients, and the zero to three
    left over take one pass each.  Every point's accumulator runs
    p = p * y + a, rounded at the multiply and at the add as Python floats
    always are, so its sum is the float sequence of a one-point Horner loop
    whatever the lane."""
    out: List[float] = []
    split = len(ys) - len(ys) % 4
    for i in range(0, split, 4):
        y0, y1, y2, y3 = ys[i:i + 4]
        p0 = p1 = p2 = p3 = 0.0
        for a in coeffs_top_first:
            p0 = p0 * y0 + a
            p1 = p1 * y1 + a
            p2 = p2 * y2 + a
            p3 = p3 * y3 + a
        out += (p0, p1, p2, p3)
    for y in ys[split:]:
        p = 0.0
        for a in coeffs_top_first:
            p = p * y + a
        out.append(p)
    return out


def _powers(xs: Sequence[float], p: float) -> List[float]:
    """x**p at every x of a grid, inf where that power overflows."""
    out = []
    for x in xs:
        try:
            out.append(x**p)
        except OverflowError:
            out.append(math.inf)
    return out


def _lattice_sums(
    coeffs_top_first: Sequence[float], gamma: float, s: float, xs: Sequence[float],
    floor: float,
) -> Tuple[float, List[Tuple[float, float, float]]]:
    """Sum a_0..a_N, given top first, on the lattice at every x of a grid:
    x^gamma * P(y) with y = x^s and P(y) = sum_n a_n y^n by Horner's rule.

    Each point sums only the terms below a degree M whose dropped tail
    sum_(n>=M) |a_n| y^n is at most 2^-7 eps floor.  With the partials
    U_M = sum_(n>=M) |a_n| y_max^(n-M) at the largest finite y, that tail is
    at most y^M U_M for every y <= y_max, so degree M serves every y up to
    (2^-7 eps floor / U_M)^(1/M).  M runs over every 16th degree below
    N + 1.  A suffix minimum makes those limits nondecreasing, so each y
    takes, by one bisection, the lowest degree that serves it together with
    every listed degree above; a partial that is zero or not finite leaves
    its degree and every lower one out.  The table is built once per grid,
    so a one-point call may keep a different number of terms than the grid
    call.  The points that take one degree, in any grid order and repeats
    included, go to _horner together, four to a pass over that degree's
    head; each point's sum is the float sequence of a one-point Horner loop,
    so grouping changes no bit and no error bound.

    Overflow is a value, not an event: x**s and x**gamma are formed once per
    point, each as inf where it overflows.  At y = inf Horner's first step
    is 0 * inf = NaN, and x^gamma = inf makes the sum inf or NaN, so a
    caller's finiteness test of each sum names the first such x in grid
    order.  An empty coefficient list is never multiplied: its sum is 0.0
    at any y, and NaN only where x^gamma = inf.

    Returns U_0, which is Horner's rule on |a_n| at y_max, and a list of
    (y, x^gamma, x^gamma * P(y)) for every point, in grid order.
    """
    ys, scales = _powers(xs, s), _powers(xs, gamma)
    y_max = max(filter(math.isfinite, ys), default=0.0)
    acc = 0.0
    partials = [acc := acc * y_max + abs(a) for a in coeffs_top_first]  # U_N .. U_0
    n_top = len(partials) - 1
    degrees, limits = [n_top + 1], [math.inf]  # from the top down
    if 0.0 < floor < math.inf:
        log_target = math.log(floor) + _LOG_CUT
        for m in range(n_top - n_top % _CUT_STRIDE, 0, -_CUT_STRIDE):
            u = partials[n_top - m]
            if not 0.0 < u < math.inf:
                break
            degrees.append(m)
            limits.append(min(limits[-1], math.exp((log_target - math.log(u)) / m)))
    degrees.reverse()
    limits.reverse()
    groups: Dict[int, List[int]] = {}  # grid positions by the degree they take
    for i, y in enumerate(ys):
        groups.setdefault(bisect_left(limits, y), []).append(i)
    totals = [0.0] * len(ys)
    for j, positions in groups.items():
        head = coeffs_top_first[n_top + 1 - degrees[j]:]
        for i, total in zip(positions, _horner(head, [ys[i] for i in positions])):
            totals[i] = total
    sums = [(y, scale, scale * total) for y, scale, total in zip(ys, scales, totals)]
    return (partials[-1] if partials else 0.0), sums


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
    OverflowError naming the first such x of the grid; by the overflow rule
    of _lattice_sums, an x where x**gamma or x**s overflows is one.

    Each x sums only the terms that _lattice_sums keeps for the floor |c_0|:
    the dropped terms add at most 2^-7 eps |c_0| x^gamma, and
    |c_0| x^gamma <= S, so the bound becomes (2(N+1) + 2^-7) eps S.

    When S exceeds 1e15 |u| the digits are gone to cancellation; a
    CancellationWarning is issued once per call and no compensation is
    attempted.  S is at most N+1 times the largest term, and is the quantity
    the error bound is stated in.  A sum of exactly zero warns when S is not.

    The cut table's last partial, sum_n |c_n| y^n at the largest finite y,
    times x^gamma bounds the computed S at every x of finite y, since Horner
    on |c_n| rounds each multiply and add monotonically; S itself is summed,
    over every term, only at an x where the bound is not finite or exceeds
    1e15 |u|, or where u is NaN, as it is at y = inf.
    """
    for x in xs:
        if not x >= 0:
            raise ValueError(f"series is defined for x >= 0, got {x}")
        if x == 0 and sol.gamma < 0:
            raise ValueError(f"series with gamma = {sol.gamma!r} < 0 is undefined at x = 0")
    cs = sol.coefficients[::-1]  # c_N first
    floor = abs(sol.coefficients[0]) if cs else 0.0
    bound, sums = _lattice_sums(cs, sol.gamma, sol.s, xs, floor)
    out = []
    lost = False
    for x, (y, scale, total) in zip(xs, sums):
        # fails on a bound that is not finite, since inf > float max
        if not scale * bound <= min(1e15 * abs(total), sys.float_info.max):
            size = scale * _horner([abs(c) for c in cs], [y])[0]
            # rounding is monotone and total sums fewer terms, so
            # |total| <= size: when size is finite, so is total
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


class _PowerRule:
    """The coefficient of the fractional power rule,
    D^alpha x^q = Gamma(q+1)/Gamma(q+1-alpha) x^(q-alpha), for
    q = gamma + n*s as a function of the lattice index n, ceil(alpha) taken
    once: the ratio is gamma_ratio(gamma, n*s, alpha), whose Gamma argument
    is 1 + gamma + n*s, which can round differently from 1 + q.  A ratio
    beyond the float range, or an exponent q that is itself inf, raises
    OverflowError naming the derivative and the exponent.

    Riemann-Liouville needs q > -1, and the coefficient is exactly zero when
    q+1-alpha is a nonpositive integer.  For a fractional order, Caputo of
    x^q with q a nonnegative integer below ceil(alpha) is exactly zero (the
    classical derivative of a low-degree monomial); otherwise Caputo needs
    q > ceil(alpha)-1 and then agrees with Riemann-Liouville; both tests take
    CAPUTO_FLOOR_WIDTH, a q within it of an integer being that integer.  For
    an integer order n both are the classical D^n (Kilbas, Srivastava &
    Trujillo 2006, 2.4), so Caputo takes the Riemann-Liouville rule:
    D^n x^q = q(q-1)...(q-n+1) x^(q-n) for q > -1, zero at q = 0..n-1.  A q
    the rule leaves undefined raises DerivativeUndefinedError.

    Calling the rule computes the value at one index and stores it into
    ``values`` when the index is inside the table, so no index asks the rule
    twice; an error is raised on each read.  ``values`` is the
    table Q(0), Q(1), ..., which ``grow`` fills _BLOCK indices at a time.
    For a fractional order, a block whose first index has q above the floor
    and 1 + gamma + n*s - alpha >= TAU_POLE is regular throughout: with
    s > 0 both grow with n, and alpha > 0 puts 1 + gamma + n*s above
    TAU_POLE too.  Such a block is one list of
    exp(lgamma(x) - lgamma(x - alpha)), x = 1 + gamma + n*s formed as
    gamma_ratio forms it, which is gamma_ratio's value there (an x of inf
    gives NaN).  Every other block, and a regular one that overflows, is
    NaN.  The rule never returns NaN: NaN in the table means "ask the
    rule", so a reader that finds it calls the rule at that index, and each
    error is raised, with its own message, only where an index is read.
    """

    def __init__(self, kind: DerivativeKind, alpha: float, gamma: float, s: float):
        self.kind, self.alpha, self.gamma, self.s = kind, alpha, gamma, s
        self.fractional = not is_integer_order(alpha)
        self.caputo = kind is DerivativeKind.CAPUTO and self.fractional
        self.floor = ceil_order(alpha) - 1 + CAPUTO_FLOOR_WIDTH if self.caputo else -1.0
        self.values: List[float] = []

    def __call__(self, n: int) -> float:
        value = self._rule(n)
        if n < len(self.values):
            self.values[n] = value
        return value

    def _rule(self, n: int) -> float:
        r = n * self.s
        q = self.gamma + r
        if q > self.floor:
            try:
                if q < math.inf:  # an exponent of inf overflows as a ratio does
                    return gamma_ratio(self.gamma, r, self.alpha)
            except OverflowError:
                pass
            raise OverflowError(f"{self.kind.value} D^{self.alpha} of x^{q} overflows")
        width = CAPUTO_FLOOR_WIDTH
        if self.caputo and (j := round(q)) >= 0 and j - width <= q <= j + width:
            return 0.0
        raise DerivativeUndefinedError(f"{self.kind.value} D^{self.alpha} of x^{q} is undefined")

    def grow(self, stop: int) -> None:
        """Fill ``values`` in whole blocks until it holds index stop - 1."""
        values, gamma, alpha, s = self.values, self.gamma, self.alpha, self.s
        while len(values) < stop:
            start = len(values)
            block = [math.nan] * _BLOCK
            if (
                self.fractional
                and gamma + start * s > self.floor
                and 1.0 + gamma + start * s - alpha >= TAU_POLE
            ):
                try:
                    block = [
                        math.exp(math.lgamma(x := 1.0 + gamma + n * s) - math.lgamma(x - alpha))
                        for n in range(start, start + _BLOCK)
                    ]
                except OverflowError:
                    pass
            values += block


def _tables(
    eq: QuasiBesselEquation, gamma: float, s: float, ratios: Dict[tuple, _PowerRule]
) -> List[_PowerRule]:
    """Each term's table from ``ratios``, which is keyed, and shared by the
    terms of one derivative, by (kind, alpha, gamma, s)."""
    keys = [(eq.kind, t.alpha, gamma, s) for t in eq.terms]
    for key in keys:
        if key not in ratios:
            ratios[key] = _PowerRule(*key)
    return [ratios[key] for key in keys]


def _fold(eq: QuasiBesselEquation, sol: SeriesSolution) -> Tuple[List[float], float]:
    """The residual's slots F_M, ..., F_0 (top first), each summed exactly
    rounded, and the sum of the absolute values summed into F_0.  An empty
    coefficient list has no slots: u = 0 solves the linear homogeneous
    equation, so its residual is exactly 0.0."""
    if not sol.coefficients:
        return [], 0.0
    plan = compute_step(eq)
    shifts = [plan.n_p.get(i, 0) for i in range(len(eq.terms))]
    n_beta = plan.n_beta
    tables = _tables(eq, sol.gamma, sol.s, sol.ratios)
    for table in tables:
        table.grow(len(sol.coefficients))
    terms = [(t.d, tab, tab.values, shift) for t, tab, shift in zip(eq.terms, tables, shifts)]
    slots: List[List[float]] = [
        [] for _ in range(len(sol.coefficients) + max(shifts + [n_beta]))
    ]
    for n, c in enumerate(sol.coefficients):
        if c == 0.0:
            continue
        for d, table, values, shift in terms:
            q = values[n]
            slots[n + shift].append(d * c * (q if q == q else table(n)))
        slots[n + n_beta].append(c)
        slots[n].append(-eq.nu_squared * c)
    return [math.fsum(slot) for slot in reversed(slots)], math.fsum(map(abs, slots[0]))


def residual(
    eq: QuasiBesselEquation, sol: SeriesSolution, xs: Sequence[float]
) -> List[float]:
    """Substitute the truncated series into the equation, term by term.

    Precondition: ``sol.s`` is the step of ``compute_step(eq)``, as it is for
    every series ``build_coefficients`` makes from that plan.

    Every series term is differentiated with the recursion's own power rule
    and arguments, and every power the equation produces lies on the lattice:
    term i maps c_n x^(gamma+s*n) into slot n + n_p[i] (n_p = 0 for pure
    Bessel terms), x^beta into slot n + n_beta and -nu^2 into slot n.  The
    derivatives are read from the recursion's own tables (kept in
    ``sol.ratios``), so only the indices it never reached are filled here.  Each
    slot is summed exactly rounded with math.fsum, so the result is the
    genuine defect of the truncated series up to rounding: slots up to the
    truncation point hold the recursion's arithmetic rounding, not its Gamma
    ratios' error (tested at 50 digits), and the slots beyond it the tail.

    The slot vector F_0..F_M is summed at each x by Horner's rule in
    y = x^s, r(x) = x^gamma * (...(F_M*y + F_(M-1))*y + ... + F_0).  With
    the rounding of y amplified m-fold in y^m, the error is at most about
    3M eps sum_m |F_m| x^(gamma+s*m) (Higham 2002, section 5.1): M eps
    relative to a quantity that is itself the residual's rounding level.
    Each x sums only the slots that _lattice_sums keeps for the floor
    sum |slot-0 contributions|: the dropped slots add at most 2^-7 eps
    x^gamma times it, a 2^-7 share of the rounding floor
    eps sum_k |contribution_k| x^(gamma+s*slot_k), and that share adds to
    the bound.  An x that is not > 0 raises ValueError before anything is
    folded.  A result that is not finite raises OverflowError naming the
    first such x of the grid; by the overflow rule of _lattice_sums, an x
    where x**gamma or x**s overflows is one.
    """
    for x in xs:
        if not x > 0:
            raise ValueError(f"residual is defined for x > 0, got {x}")
    folded, floor = _fold(eq, sol)
    out = []
    for x, (_, _, r) in zip(xs, _lattice_sums(folded, sol.gamma, sol.s, xs, floor)[1]):
        if not math.isfinite(r):
            raise OverflowError(f"residual overflows at x = {x!r}")
        out.append(r)
    return out
