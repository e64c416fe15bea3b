"""Independent 50-digit reference for quasi-Bessel series solutions.

Nothing here imports the package under test.  The reference reads the same
JSON specs as ``quasibessel solve`` and recomputes, with mpmath at 50
significant digits:

* the roots of the characteristic function
  G(g) = sum over pure terms of d Gamma(1+g)/Gamma(1+g-alpha) - nu^2,
  found by a double-precision sign scan on a window that is proven to hold
  every root and refined by ``findroot``;
* the screening of those roots (Caputo floor, collisions after a whole
  number of steps, and the integer leading exponents of Caputo equations
  with nu = 0);
* the coefficient recursion and the series sum;
* Mittag-Leffler and Kilbas-Saigo closed forms for single-term equations;
* the rounding floors eps * sum |terms| of the series and of its residual,
  and the truncation defect of a series cut after N terms.

Every derivative order, shifting index and beta is an exact decimal, so the
lattice is kept in exact fractions and exponents are gamma + k*s with k an
integer.  Gamma ratios along the lattice are advanced with
Gamma(z+1) = z Gamma(z), which is a different algorithm from the program's
log-Gamma differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import mpmath

DPS = 50
EPS = 2.0**-52

# Roots of G closer than this to gamma + n*s of a larger root collide.
COLLISION_TOL = 1e-6
# A root is below the Caputo floor when gamma <= n_max - 1 + this.
FLOOR_TOL = 1e-12
# Lower end of the root window; G has a pole at -1.
ROOT_FLOOR = -1.0 + 1e-9
# Cells of the double-precision sign scan.
SCAN_CELLS = 4000
# A series is summed until its last max_shift terms fall below REL_TAIL
# times its largest term, within N_CAP terms.
REL_TAIL = 1e-32
N_CAP = 6000
# is_root: |G(g)| within this share of the sum of |terms| of G.
ROOT_RESIDUAL_TOL = 1e-30

ctx = mpmath.MPContext()
ctx.dps = DPS


def _dec(text: object) -> Fraction:
    return Fraction(str(text).strip())


def _mp(q: Fraction):
    return ctx.mpf(q.numerator) / q.denominator


@dataclass
class Equation:
    """sum_i d_i x^(alpha_i+p_i) D^alpha_i u + (x^beta - nu^2) u = 0 with r = 1."""

    kind: str
    terms: List[Tuple[Fraction, Fraction, Fraction]]  # (d, alpha, p), alpha descending
    beta: Fraction
    nu: Fraction
    c0: Fraction = Fraction(1)
    s: Fraction = field(init=False)
    n_beta: int = field(init=False)
    n_p: List[int] = field(init=False)

    def __post_init__(self) -> None:
        self.terms.sort(key=lambda t: (-t[1], t[2]))
        shifts = [self.beta] + [p for _, _, p in self.terms if p != 0]
        den = math.lcm(*(q.denominator for q in shifts))
        num = math.gcd(*(int(q * den) for q in shifts))
        self.s = Fraction(num, den)
        self.n_beta = int(self.beta / self.s)
        self.n_p = [int(p / self.s) for _, _, p in self.terms]

    @property
    def caputo(self) -> bool:
        return self.kind == "caputo"

    @property
    def pure(self) -> List[Tuple[Fraction, Fraction]]:
        return [(d, a) for d, a, p in self.terms if p == 0]

    @property
    def nu2(self):
        return _mp(self.nu) ** 2

    @property
    def n_max(self) -> Optional[int]:
        ceilings = [math.ceil(a) for _, a, _ in self.terms if a.denominator != 1]
        return max(ceilings) if ceilings else None

    @property
    def max_shift(self) -> int:
        return max([self.n_beta] + self.n_p)


def parse_spec(spec: dict) -> Equation:
    """Build the reference equation from a solver spec (r must be 1)."""
    if _dec(spec.get("r", "1")) != 1:
        raise ValueError("the reference handles r = 1 only")
    kind = spec["kind"]
    form = spec["form"]
    nu = _dec(spec.get("nu", "0"))
    c0 = _dec(spec.get("options", {}).get("c0", "1"))
    raw = spec["terms"]
    if form == "quasi_bessel":
        terms = [(_dec(t["d"]), _dec(t["alpha"]), _dec(t.get("p", "0"))) for t in raw]
        return Equation(kind, terms, _dec(spec["beta"]), nu, c0)
    if form == "constant_coefficients":
        pairs = sorted(((_dec(t["d"]), _dec(t["alpha"])) for t in raw), key=lambda t: -t[1])
        a1 = pairs[0][1]
        return Equation(kind, [(d, a, a1 - a) for d, a in pairs], a1, nu, c0)
    if form == "power_factors":
        triples = sorted(
            ((_dec(t["d"]), _dec(t.get("beta_i", "0")), _dec(t["alpha"])) for t in raw),
            key=lambda t: -t[2],
        )
        _, b1, a1 = triples[0]
        terms = [(d, a, a1 - b1 + b - a) for d, b, a in triples]
        return Equation(kind, terms, a1 - b1 + _dec(spec["delta"]), nu, c0)
    raise ValueError(f"unknown form {form!r}")


def grid(spec: dict) -> List[float]:
    """The x grid as the spec defines it: n_points equally spaced points."""
    dom = spec["domain"]
    lo, hi, n = float(dom["x_min"]), float(dom["x_max"]), int(dom["n_points"])
    if n == 1:
        return [lo]
    h = (hi - lo) / (n - 1)
    return [lo + i * h for i in range(n)]


# -- characteristic function and its roots --------------------------------


def _ratio_float(z: float, alpha: float) -> float:
    """Gamma(z)/Gamma(z-alpha) in double precision for z > 0 (scan only)."""
    w = z - alpha
    if w > 0:
        return math.exp(math.lgamma(z) - math.lgamma(w))
    try:
        inv = 1.0 / math.gamma(w)
    except ValueError:  # pole of Gamma(w): 1/Gamma vanishes
        inv = 0.0
    return math.gamma(z) * inv


def g_float(eq: Equation, g: float) -> float:
    nu2 = float(eq.nu) ** 2
    return sum(float(d) * _ratio_float(1.0 + g, float(a)) for d, a in eq.pure) - nu2


def g_mp(eq: Equation, g):
    total = -eq.nu2
    for d, a in eq.pure:
        total += _mp(d) * ctx.gamma(1 + g) * ctx.rgamma(1 + g - _mp(a))
    return total


def root_window(eq: Equation) -> float:
    """An H beyond which G > 0: for g >= alpha_1 every ratio grows and
    Q_1/Q_i grows, so d_1 Q_1(H) > sum |d_i| Q_i(H) + nu^2 holds for all g >= H."""
    (d1, a1), rest = eq.pure[0], eq.pure[1:]
    if d1 <= 0:
        raise ValueError("the leading pure term needs d > 0 for a bounded root window")

    def log_q(h: float, a: Fraction) -> float:
        return math.lgamma(1.0 + h) - math.lgamma(1.0 + h - float(a))

    nu2 = float(eq.nu) ** 2
    h = float(a1) + 1.0
    while h < 1e4:
        lead = math.log(float(d1)) + log_q(h, a1)
        others = sum(abs(float(d)) * math.exp(log_q(h, a) - lead) for d, a in rest) + nu2 * math.exp(-lead)
        if others < 1.0:
            return h
        h *= 1.5
    raise ValueError("no root window below 1e4")


def characteristic_roots(eq: Equation) -> List:
    """All roots of G on (-1, inf), as 50-digit numbers, ascending."""
    pure = eq.pure
    if not pure:
        return []
    if eq.nu == 0 and len(pure) == 1:
        # G vanishes exactly where 1/Gamma(1+g-alpha) does: g = alpha - k
        alpha = pure[0][1]
        return [_mp(alpha - k) for k in range(math.ceil(alpha + 1) + 1, 0, -1) if alpha - k > -1]
    hi = root_window(eq)
    step = (hi - ROOT_FLOOR) / SCAN_CELLS
    xs = [ROOT_FLOOR + i * step for i in range(SCAN_CELLS + 1)]
    fs = [g_float(eq, x) for x in xs]
    roots = []
    for (a, fa), (b, fb) in zip(zip(xs, fs), zip(xs[1:], fs[1:])):
        if fa == 0.0:
            roots.append(refine_root(eq, a))
        elif (fa < 0) != (fb < 0):
            roots.append(ctx.findroot(lambda g: g_mp(eq, g), (ctx.mpf(a), ctx.mpf(b)), solver="anderson"))
    return roots


def refine_root(eq: Equation, guess: float):
    """Newton-secant refinement of a root of G from a double-precision guess."""
    return ctx.findroot(lambda g: g_mp(eq, g), ctx.mpf(guess), tol=ctx.mpf(10) ** (-45))


def is_root(eq: Equation, g) -> bool:
    scale = sum(abs(_mp(d)) * abs(ctx.gamma(1 + g) * ctx.rgamma(1 + g - _mp(a))) for d, a in eq.pure)
    return abs(g_mp(eq, g)) <= ROOT_RESIDUAL_TOL * (scale + eq.nu2)


@dataclass
class Root:
    gamma: object  # mpf
    status: str
    collision_step: Optional[int] = None

    @property
    def valid(self) -> bool:
        return self.status == "valid"


def screen(eq: Equation, gammas: Sequence) -> List[Root]:
    """Statuses the paper assigns: below the Caputo floor, colliding with a
    larger root after n whole steps, or valid.  For Caputo equations with
    nu = 0 the integers j below every pure order's ceiling are leading
    exponents too: D^alpha x^j = 0 there, so the zeroth balance holds."""
    gammas = sorted(gammas)
    exponents = set()  # integer leading exponents: exempt from the floor
    if eq.caputo and eq.nu == 0 and eq.pure:
        limit = min(math.ceil(a) for _, a in eq.pure)
        for j in range(limit):
            if all(abs(g - j) > 1e-9 for g in gammas):
                gammas.append(ctx.mpf(j))
                exponents.add(j)
        gammas.sort()
    floor = eq.n_max - 1 if eq.caputo and eq.n_max is not None else None
    step = _mp(eq.s)
    out = []
    for i, g in enumerate(gammas):
        if floor is not None and g <= floor + FLOOR_TOL and g not in exponents:
            out.append(Root(g, "below_caputo_floor"))
            continue
        hits = []
        for other in gammas[i + 1 :]:
            n = int(ctx.nint((other - g) / step))
            if n >= 1 and abs(other - g - n * step) < COLLISION_TOL:
                hits.append(n)
        out.append(Root(g, "collision_invalid", min(hits)) if hits else Root(g, "valid"))
    return out


# -- Gamma ratios on the lattice ------------------------------------------


class LatticeRatios:
    """Q(k, alpha) = D^alpha applied to x^(gamma + k s), as the coefficient of
    x^(gamma + k s - alpha), for k = 0, 1, 2, ...

    Riemann-Liouville: Gamma(1+q)/Gamma(1+q-alpha), zero on poles of the
    denominator.  Caputo: zero when q is a nonnegative integer below
    ceil(alpha), the same ratio otherwise.  Values are advanced b steps at a
    time (s = a/b moves q by the integer a) with Gamma(z+1) = z Gamma(z).
    """

    def __init__(self, eq: Equation, gamma, alpha: Fraction):
        self.gamma = gamma
        self.alpha = _mp(alpha)
        self.a, self.b = eq.s.numerator, eq.s.denominator
        self.step = _mp(eq.s)
        self.raw: List = []
        self.zero_at = set()
        if eq.caputo:
            for j in range(math.ceil(alpha)):
                k = (j - gamma) / self.step
                if k >= -TINY and abs(k - ctx.nint(k)) < TINY:
                    self.zero_at.add(int(ctx.nint(k)))

    def _direct(self, q):
        return ctx.gamma(1 + q) * ctx.rgamma(1 + q - self.alpha)

    def _extend(self, k: int) -> None:
        raw = self.raw
        while len(raw) <= k:
            j = len(raw)
            q = self.gamma + j * self.step
            if j < self.b:
                raw.append(self._direct(q))
                continue
            prev_q = q - self.a
            value = raw[j - self.b]
            for i in range(1, self.a + 1):
                den = prev_q + i - self.alpha
                if abs(den) < TINY:
                    value = self._direct(q)
                    break
                value = value * (prev_q + i) / den
            raw.append(value)

    def __call__(self, k: int):
        if k >= len(self.raw):
            self._extend(k)
        return ctx.zero if k in self.zero_at else self.raw[k]


# -- the series -----------------------------------------------------------

LN2 = math.log(2.0)
TINY = ctx.mpf(10) ** -30


def _log_abs(c) -> float:
    """log|c| in double precision for any 50-digit c (no underflow)."""
    _, man, exp, _ = c._mpf_
    return math.log(man) + exp * LN2 if man else -math.inf


@dataclass
class Series:
    eq: Equation
    gamma: object
    coefficients: List  # mpf, c_0 .. c_N
    ratios: List[LatticeRatios]
    logs: List[float]  # log|c_n|
    min_denominator: float = math.inf  # smallest |D_n| met by the recursion


def build_series(eq: Equation, gamma, n_terms: int) -> Series:
    """Coefficients c_0 .. c_n_terms of the recursion from c_0 = c0.

    Raises ZeroDivisionError when a recursion denominator vanishes."""
    c0 = _mp(eq.c0)
    series = Series(eq, gamma, [c0], [LatticeRatios(eq, gamma, a) for _, a, _ in eq.terms], [_log_abs(c0)])
    extend_series(series, n_terms)
    return series


def extend_series(series: Series, n_to: int) -> None:
    """Append coefficients up to index n_to."""
    eq, c = series.eq, series.coefficients
    ds = [_mp(d) for d, _, _ in eq.terms]
    pure = [(ds[i], series.ratios[i]) for i, (_, _, p) in enumerate(eq.terms) if p == 0]
    shifted = [(ds[i], series.ratios[i], eq.n_p[i]) for i, (_, _, p) in enumerate(eq.terms) if p != 0]
    nu2 = eq.nu2
    for n in range(len(c), n_to + 1):
        num = c[n - eq.n_beta] if n >= eq.n_beta else ctx.zero
        for d, ratio, shift in shifted:
            k = n - shift
            if k >= 0 and c[k] != 0:
                num += c[k] * d * ratio(k)
        d_n = -nu2
        for d, ratio in pure:
            d_n += d * ratio(n)
        if abs(d_n) < TINY:
            raise ZeroDivisionError(f"recursion denominator vanishes at n={n}")
        series.min_denominator = min(series.min_denominator, float(abs(d_n)))
        value = -num / d_n
        c.append(value)
        series.logs.append(_log_abs(value))


def term_logs(series: Series, x: float) -> List[float]:
    """log|c_n x^(gamma + s n)| for every coefficient held."""
    g, s, lx = float(series.gamma), float(series.eq.s), math.log(x)
    return [v + (g + s * n) * lx for n, v in enumerate(series.logs)]


def converge(series: Series, x_max: float) -> Series:
    """Extend (or trim) the series to the first n at which the last max_shift
    terms at x_max are all below REL_TAIL times the largest term."""
    window = series.eq.max_shift
    log_rel = math.log(REL_TAIL)
    n_to = max(64, len(series.coefficients) - 1)
    while True:
        extend_series(series, n_to)
        logs = term_logs(series, x_max)
        peak, last_big = -math.inf, 0
        for n, v in enumerate(logs):
            peak = max(peak, v)
            if v >= peak + log_rel:
                last_big = n
            if n >= window and n - last_big >= window:
                del series.coefficients[n + 1 :], series.logs[n + 1 :]
                return series
        if n_to >= N_CAP:
            raise ArithmeticError(f"series not converged within {N_CAP} terms at x = {x_max}")
        n_to = min(2 * n_to, N_CAP)


def solution_series(eq: Equation, gamma, x_max: float) -> Series:
    """The series of root gamma, summed to REL_TAIL at x_max."""
    return converge(build_series(eq, gamma, 0), x_max)


def series_value(series: Series, x: float, n_terms: Optional[int] = None):
    """Horner evaluation of x^gamma sum c_n t^n with t = x^s."""
    coeffs = series.coefficients if n_terms is None else series.coefficients[:n_terms]
    xm = ctx.mpf(x)
    t = xm ** _mp(series.eq.s)
    acc = ctx.zero
    for cn in reversed(coeffs):
        acc = acc * t + cn
    return acc * xm**series.gamma


def split_value(series: Series, x: float, n_terms: int):
    """(sum of the first n_terms terms, sum of the rest) at 50 digits."""
    xm = ctx.mpf(x)
    t = xm ** _mp(series.eq.s)
    head, tail = ctx.zero, ctx.zero
    for cn in reversed(series.coefficients[n_terms:]):
        tail = tail * t + cn
    for cn in reversed(series.coefficients[:n_terms]):
        head = head * t + cn
    scale = xm**series.gamma
    return head * scale, tail * t**n_terms * scale


def series_floor(series: Series, x: float, n_terms: int) -> float:
    """sum |c_n x^(gamma+sn)| over the first n_terms terms: eps times this is
    the rounding floor of a floating-point sum of the series."""
    return math.fsum(math.exp(v) for v in term_logs(series, x)[:n_terms] if v > -745.0)


def cancellation(series: Series, xs: Sequence[float]) -> float:
    """Largest sum |terms| / |sum| over xs: how many digits a double-precision
    sum of the series must lose to cancellation."""
    worst = 1.0
    for x in xs:
        total = abs(series_value(series, x))
        floor = series_floor(series, x, len(series.coefficients))
        worst = max(worst, floor / float(total) if total else math.inf)
    return worst


def residual_terms(series: Series, xs: Sequence[float], n_terms: int) -> List[Tuple[object, float]]:
    """Substitute the first n_terms terms into the equation at each x.

    Returns per x (exact defect of that truncated series, sum of
    |contributions|).  The recursion zeroes the lattice slots 1..N, so the
    defect is slot 0 (G(gamma) c_0, nonzero when gamma is a rounded root)
    plus the slots past the truncation point.  eps times the absolute sum is
    the rounding floor; it is summed in double precision."""
    eq = series.eq
    ds = [_mp(d) for d, _, _ in eq.terms]
    nu2 = eq.nu2
    parts = []  # (lattice slot, log|value|)
    slots: Dict[int, object] = {}
    for n, cn in enumerate(series.coefficients[:n_terms]):
        if cn == 0:
            continue
        values = [(n + eq.n_p[i], ds[i] * cn * series.ratios[i](n)) for i in range(len(ds))]
        values.append((n + eq.n_beta, cn))
        if nu2 != 0:
            values.append((n, -nu2 * cn))
        for slot, value in values:
            if value != 0:
                parts.append((slot, _log_abs(value)))
                if slot == 0 or slot >= n_terms:
                    slots[slot] = slots.get(slot, ctx.zero) + value
    g, s = float(series.gamma), float(eq.s)
    out = []
    for x in xs:
        lx = math.log(x)
        abs_sum = math.fsum(math.exp(v + (g + s * slot) * lx) for slot, v in parts if v + (g + s * slot) * lx > -745.0)
        xm = ctx.mpf(x)
        defect = ctx.fsum(v * xm ** (series.gamma + slot * _mp(eq.s)) for slot, v in slots.items())
        out.append((defect, abs_sum))
    return out


# -- closed forms ---------------------------------------------------------


def kilbas_saigo_coefficients(alpha: Fraction, m, l, n_terms: int) -> List:
    """c_0 .. c_n_terms of E_{alpha,m,l}(z) = sum_k c_k z^k: c_0 = 1,
    c_k = prod_{j<k} Gamma(alpha(jm+l)+1) / Gamma(alpha(jm+l+1)+1)."""
    a = _mp(alpha)
    out = [ctx.one]
    for j in range(n_terms):
        out.append(out[-1] * ctx.gamma(a * (j * m + l) + 1) * ctx.rgamma(a * (j * m + l + 1) + 1))
    return out


def mittag_leffler(alpha, z, n_terms: int):
    """E_alpha(z) = sum_k z^k / Gamma(alpha k + 1)."""
    a = ctx.mpf(alpha)
    return ctx.fsum(ctx.mpf(z) ** k * ctx.rgamma(a * k + 1) for k in range(n_terms + 1))


def closed_form(series: Series, xs: Sequence[float]) -> List:
    """c0 x^gamma E_{alpha,m,l}(lam x^s) at each x, for a single term
    d x^alpha D^alpha u + x^beta u = 0: m = s/alpha, l = (gamma+s-alpha)/alpha,
    lam = -1/d.  One coefficient list serves every x."""
    eq = series.eq
    (d, alpha, p), = eq.terms
    if p != 0 or eq.nu != 0:
        raise ValueError("closed form needs one unshifted term and nu = 0")
    a, s = _mp(alpha), _mp(eq.s)
    ks = kilbas_saigo_coefficients(alpha, s / a, (series.gamma + s - a) / a, len(series.coefficients) + 10)
    out = []
    for x in xs:
        xm = ctx.mpf(x)
        z = -(xm**s) / _mp(d)
        acc = ctx.zero
        for c in reversed(ks):
            acc = acc * z + c
        out.append(_mp(eq.c0) * xm**series.gamma * acc)
    return out


def has_closed_form(eq: Equation) -> bool:
    return len(eq.terms) == 1 and eq.terms[0][2] == 0 and eq.nu == 0


# -- self-test ------------------------------------------------------------


def self_test() -> None:
    """E_1(-x) = exp(-x); Remark 3's root -0.5 collides after 5 steps; the
    recursion for u' + u = 0 gives exp(-x)."""
    for x in (0.5, 1.0, 3.0):
        err = abs(mittag_leffler(1, -x, 120) - ctx.exp(-x))
        if err > ctx.mpf(10) ** -45:
            raise AssertionError(f"E_1(-{x}) differs from exp(-{x}) by {err}")
    remark3 = Equation(
        "riemann_liouville",
        [(Fraction(1), Fraction(3, 2), Fraction(0)), (Fraction(1), Fraction(1, 2), Fraction(1, 5))],
        Fraction(6, 5),
        Fraction(0),
    )
    roots = screen(remark3, characteristic_roots(remark3))
    got = [(float(r.gamma), r.status, r.collision_step) for r in roots]
    if got != [(-0.5, "collision_invalid", 5), (0.5, "valid", None)]:
        raise AssertionError(f"Remark 3 screening gave {got}")
    ex2 = Equation("caputo", [(Fraction(1), Fraction(1), Fraction(0))], Fraction(1), Fraction(0))
    (root,) = [r for r in screen(ex2, characteristic_roots(ex2)) if r.valid]
    series = solution_series(ex2, root.gamma, 2.0)
    for x, cf in zip((0.5, 2.0), closed_form(series, (0.5, 2.0))):
        err = abs(series_value(series, x) - ctx.exp(-x))
        cf = abs(cf - ctx.exp(-x))
        if err > ctx.mpf(10) ** -30 or cf > ctx.mpf(10) ** -30:
            raise AssertionError(f"u' + u = 0 series is off exp(-x) at x={x}: {err}, {cf}")
