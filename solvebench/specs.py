"""Workload specs: the paper's fixed examples plus seeded equations.

Each workload is a list of cases; a case is one solver spec together with
the reference data the checks need.  Seeded equations are drawn from
``random.Random(f"{workload}:{seed}")``, so a seed always gives the same
specs.  The generator filters only on properties it computes from the
equation with the reference: the leading term has p = 0, nu^2 against the
Caputo convergence threshold, the lattice step, the root screening, roots
the solver's scan can see, |c_n| staying well inside the float range up to
x_max, and the 50-digit series converging at x_max within the reference's
term cap.  It never runs the program.

The domain end x_max is chosen so that the series length N (the number of
terms until the last n_beta of them fall below 1e-14 at x_max, the solver's
documented stopping rule) hits a fixed target per slot.  The targets, term
counts and equation kinds are the same for every seed; only the equations
change.  That keeps the cost of a round nearly independent of the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Dict, List, Optional

import reference as ref

EPS_TAIL = 1e-14
# |c_n| and x^(gamma+sn) must stay this far inside the double range
RANGE_LOG10 = 250.0
# sum |terms| / |u| allowed on the grid: three digits lost to cancellation
MAX_CANCELLATION = 1e3

WORKLOADS = ("dense-grid", "root-scan", "long-sparse")

SHORT = "series shorter than the target even at the largest x_max"
MISSED_BY_SCAN = "a root next to the pole at -1 or two roots in one cell of the solver's scan"
# e.g. two pure orders 0.1 apart and a large root: |c_n x_max^(sn)| keeps
# growing for thousands of terms, though the series is entire
NO_CONVERGENCE = "50-digit series not converged at x_max within the reference's term cap"


@dataclass(frozen=True)
class KnownFault:
    """A program fault that fails one fixed case every time.  Only this exact
    outcome is the known fault; any other failure of the case is a real one."""

    exit_code: int
    message: str  # part of the solver's stderr

    def matches(self, rec: dict) -> bool:
        return rec["error"] is None and rec["code"] == self.exit_code and self.message in rec["stderr"]


# Example 4 (lambda=2) with x_max >= 4.5: c_n underflows near n=394 and
# evaluate overflows in x**exponent, so solve gives up on its only root.
EX4_FAULT = KnownFault(4, "error: every valid root failed numerically")


@dataclass
class Case:
    name: str
    spec: dict
    eq: ref.Equation
    g_roots: List  # roots of G, 50 digits
    roots: List[ref.Root]  # screened, with the Caputo integer exponents
    series: Dict[int, ref.Series] = field(default_factory=dict)  # by root index
    known_fault: Optional[KnownFault] = None

    @property
    def expected_exit(self) -> int:
        return 0 if any(r.valid for r in self.roots) else 3


class Rejected(Exception):
    """A drawn equation lacks a required property; draw again."""


def dec(q) -> str:
    """Exact decimal string of a Fraction with a 2^a 5^b denominator or a float."""
    if isinstance(q, float):
        return format(Decimal(q), "f")
    return format(Decimal(q.numerator) / Decimal(q.denominator), "f")


def _frac(rng: random.Random, lo: float, hi: float, den: int = 10, fractional: bool = True) -> Fraction:
    while True:
        q = Fraction(rng.randint(math.ceil(lo * den), math.floor(hi * den)), den)
        if not fractional or q.denominator != 1:
            return q


def _qb_spec(kind: str, terms, beta: Fraction, nu: str, domain: dict) -> dict:
    return {
        "kind": kind,
        "form": "quasi_bessel",
        "terms": [{"d": dec(d), "alpha": dec(a), "p": dec(p)} for d, a, p in terms],
        "beta": dec(beta),
        "nu": nu,
        "domain": domain,
    }


def _domain(x_min: float, x_max: float, n: int) -> dict:
    return {"x_min": repr(x_min), "x_max": repr(x_max), "n_points": n}


def caputo_threshold(eq: ref.Equation) -> Optional[float]:
    """nu^2 above which the Caputo series provably converges:
    Gamma(n_m0) sum_pure d_i / Gamma(n_max - alpha_i); None if inapplicable."""
    fractional = [a for _, a in eq.pure if a.denominator != 1]
    if not eq.caputo or not fractional or any(d <= 0 for d, _ in eq.pure):
        return None
    n_max = eq.n_max
    n_m0 = max(math.ceil(a) for a in fractional)
    total = sum(float(d) / math.gamma(float(n_max - a)) for d, a in eq.pure)
    return math.gamma(n_m0) * total


def _prepare(name: str, spec: dict, known_fault: Optional[KnownFault] = None) -> Case:
    eq = ref.parse_spec(spec)
    if eq.terms[0][2] != 0:
        raise Rejected("leading term is shifted")
    try:
        g_roots = ref.characteristic_roots(eq)
    except ValueError as exc:
        raise Rejected(str(exc)) from None
    return Case(name, spec, eq, g_roots, ref.screen(eq, g_roots), known_fault=known_fault)


def _separated(case: Case) -> bool:
    """Roots either collide (within 1e-9) or stay 1e-4 off every lattice
    multiple of each other, so the screening has one clear answer."""
    step = float(case.eq.s)
    gs = sorted(float(r.gamma) for r in case.roots)
    for i, a in enumerate(gs):
        for b in gs[i + 1 :]:
            n = round((b - a) / step)
            off = abs(b - a - n * step)
            if n >= 1 and 1e-9 < off < 1e-4:
                return False
            if b - a < 1e-3:
                return False
    return True


def _length_at(logs: List[float], gamma: float, step: float, window: int, log_x: float) -> Optional[int]:
    """Series length by the stopping rule: first n >= window whose last
    `window` terms are all below EPS_TAIL at x; None if never within logs."""
    log_eps = math.log(EPS_TAIL)
    last_big = 0
    for n in range(1, len(logs)):
        if logs[n] + (gamma + step * n) * log_x >= log_eps:
            last_big = n
        if n >= window and n - last_big >= window:
            return n
    return None


def _fit_x_max(case: Case, target: int, n_cap: int, x_lo: float, x_hi: float) -> float:
    """x_max at which the valid roots' series lengths sum to ~target, with
    every used coefficient and power inside the double range."""
    valid = [(k, r) for k, r in enumerate(case.roots) if r.valid]
    if not valid:
        raise Rejected("no valid root")
    eq = case.eq
    step = float(eq.s)
    built = {}
    for k, r in valid:
        try:
            series = ref.build_series(eq, r.gamma, n_cap)
        except ZeroDivisionError:
            raise Rejected("recursion denominator vanishes") from None
        if series.min_denominator < 1e-6:
            raise Rejected("near-vanishing recursion denominator")
        built[k] = (series, series.logs)

    def total(log_x: float) -> Optional[int]:
        out = 0
        for k, r in valid:
            n = _length_at(built[k][1], float(r.gamma), step, eq.n_beta, log_x)
            if n is None:
                return None
            out += n
        return out

    lo, hi = math.log(x_lo), math.log(x_hi)
    if (total(lo) or n_cap * len(valid)) > target:
        raise Rejected("series longer than the target even at the smallest x_max")
    if (total(hi) or math.inf) < target:
        raise Rejected(SHORT)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        n = total(mid)
        if n is not None and n <= target:
            lo = mid
        else:
            hi = mid
    x_max = float(f"{math.exp(lo):.4g}")
    log_x = math.log(x_max)
    for k, r in valid:
        series, logs = built[k]
        n = _length_at(logs, float(r.gamma), step, eq.n_beta, log_x)
        if n is None:
            raise Rejected("no convergence at the fitted x_max")
        used = [v for v in logs[: n + 1] if v > -math.inf]
        if min(used) / math.log(10) < -RANGE_LOG10:
            raise Rejected("coefficients too close to the double underflow limit")
        if (float(r.gamma) + step * n) * math.log10(max(x_max, 1.0)) > RANGE_LOG10:
            raise Rejected("powers of x_max too close to the double overflow limit")
        try:
            case.series[k] = ref.converge(series, x_max)
        except ArithmeticError:
            raise Rejected(NO_CONVERGENCE) from None
    return x_max


def finish(case: Case) -> Case:
    """Attach each valid root's 50-digit series, run to convergence at x_max."""
    x_max = float(case.spec["domain"]["x_max"])
    for k, r in enumerate(case.roots):
        if r.valid and k not in case.series:
            case.series[k] = ref.solution_series(case.eq, r.gamma, x_max)
    return case


def _well_conditioned(case: Case) -> bool:
    """Attach the series and require that a double-precision sum loses at
    most MAX_CANCELLATION to cancellation at x_min, the middle and x_max."""
    try:
        finish(case)
    except ArithmeticError:
        raise Rejected(NO_CONVERGENCE) from None
    xs = ref.grid(case.spec)
    probe = [xs[0], xs[len(xs) // 2], xs[-1]]
    return all(ref.cancellation(s, probe) <= MAX_CANCELLATION for s in case.series.values())


def _draw(make: Callable[[random.Random], Case], rng: random.Random, tries: int = 200) -> Case:
    for _ in range(tries):
        try:
            return make(rng)
        except Rejected:
            continue
    raise RuntimeError("generator found no admissible equation")


# -- the paper's examples -------------------------------------------------


def example1(nu: str, domain: dict) -> dict:
    return _qb_spec(
        "caputo",
        [(Fraction(3, 2), Fraction(3, 2), Fraction(0)), (Fraction(-6, 5), Fraction(11, 10), Fraction(4, 5)),
         (Fraction(3), Fraction(1, 2), Fraction(1, 2))],
        Fraction(2), nu, domain,
    )


def step_worked_example(domain: dict) -> dict:
    return _qb_spec(
        "caputo",
        [(Fraction(2), Fraction(12, 5), Fraction(0)), (Fraction(-3), Fraction(3, 2), Fraction(3, 10)),
         (Fraction(1), Fraction(2, 5), Fraction(3, 5))],
        Fraction(3), "1", domain,
    )


def remark3(domain: dict) -> dict:
    return _qb_spec(
        "riemann_liouville",
        [(Fraction(1), Fraction(3, 2), Fraction(0)), (Fraction(1), Fraction(1, 2), Fraction(1, 5))],
        Fraction(6, 5), "0", domain,
    )


def example2(domain: dict) -> dict:
    return {"kind": "caputo", "form": "constant_coefficients",
            "terms": [{"d": "1", "alpha": "1"}], "domain": domain}


def example3(domain: dict) -> dict:
    return {"kind": "riemann_liouville", "form": "constant_coefficients",
            "terms": [{"d": "-0.5", "alpha": "1.7"}], "domain": domain}


def example4(lam: Fraction, domain: dict) -> dict:
    return {"kind": "riemann_liouville", "form": "power_factors",
            "terms": [{"d": dec(-1 / lam), "beta_i": "0", "alpha": "0.5"}],
            "delta": "0.7", "domain": domain}


# -- dense-grid -----------------------------------------------------------

DENSE_POINTS = 1000
# Series lengths of the seeded equations: one below and one above the
# example-1 solves (N = 699..726), so the median operation is an example-1
# solve whatever the seed, and a round is short enough for five rounds a run.
DENSE_SLOTS = (("caputo", 400), ("riemann_liouville", 900))


def _dense_equation(rng: random.Random, kind: str, target: int) -> Case:
    a1 = _frac(rng, 1.1, 1.9)
    terms = [(Fraction(rng.randint(10, 20), 10), a1, Fraction(0))]
    for _ in range(2):
        d = Fraction(rng.choice((-1, 1)) * rng.randint(5, 15), 10)
        terms.append((d, _frac(rng, 0.2, float(a1) - 0.1), _frac(rng, 0.1, 0.9, fractional=False)))
    beta = rng.choice((Fraction(1), Fraction(3, 2), Fraction(2)))
    probe = ref.Equation(kind, list(terms), beta, Fraction(0))
    if probe.s != Fraction(1, 10):
        raise Rejected("lattice step is not 1/10")
    threshold = caputo_threshold(probe)
    if threshold is not None:
        nu = math.ceil(100 * math.sqrt(threshold * rng.uniform(1.1, 2.5))) / 100
    else:
        nu = rng.randint(50, 250) / 100
    spec = _qb_spec(kind, terms, beta, f"{nu:.2f}", _domain(0.01, 1.0, DENSE_POINTS))
    case = _prepare("", spec)
    if threshold is not None and float(case.eq.nu) ** 2 < threshold:
        raise Rejected("nu^2 below the Caputo convergence threshold")
    if not _separated(case):
        raise Rejected("roots too close to a collision")
    if not _scan_sees_all_roots(case):
        raise Rejected(MISSED_BY_SCAN)
    x_max = _fit_x_max(case, target, int(target * 1.6) + 40, 0.2, 40.0)
    spec["domain"] = _domain(x_max / DENSE_POINTS, x_max, DENSE_POINTS)
    if not _well_conditioned(case):
        raise Rejected("series cancels too much on the grid")
    return case


def dense_grid(seed: int) -> List[Case]:
    rng = random.Random(f"dense-grid:{seed}")
    dom = _domain(0.003, 3.0, DENSE_POINTS)
    cases = [_prepare(f"ex1-nu{nu}", example1(nu, dom)) for nu in ("1.5", "2", "3.5")]
    for j, (kind, target) in enumerate(DENSE_SLOTS):
        case = _draw(lambda r: _dense_equation(r, kind, target), rng)
        case.name = f"seeded-{j}-{kind[:2]}-N{target}"
        cases.append(case)
    return [finish(c) for c in cases]


# -- root-scan ------------------------------------------------------------

SCAN_DOMAIN = _domain(0.25, 1.0, 4)
# x_max <= 1 is fitted so that the valid roots' series have this many terms
SCAN_TERMS = 60
# Most slots have two pure terms; with the series lengths fitted, those
# operations cost about the same, and the median operation is one of them.
SCAN_SLOTS = (
    ("plain", "riemann_liouville", 2), ("plain", "caputo", 2),
    ("plain", "riemann_liouville", 2), ("plain", "caputo", 2),
    ("collision", "riemann_liouville", 2), ("collision", "riemann_liouville", 2),
    ("novalid", "caputo", 2),
    ("plain", "riemann_liouville", 3), ("novalid", "caputo", 3),
    ("doubling", "riemann_liouville", 2), ("doubling", "caputo", 2),
)


def _initial_window(eq: ref.Equation) -> float:
    """The root search's documented first window top:
    max(n_max, 4) + nu^(2/alpha_1) + 10."""
    base = float(max(eq.n_max or 0, 4))
    if eq.nu != 0:
        base += float(eq.nu) ** (2.0 / float(eq.terms[0][1]))
    return base + 10.0


# The solver's documented root scan: PROGRAM_GRID_POINTS cells on
# (-1, hi], G first sampled one cell above -1; hi starts at the first window
# and doubles, at most three times, until G is positive and non-decreasing
# over the top PROGRAM_TOP_POINTS samples.
PROGRAM_GRID_POINTS = 10_000
PROGRAM_TOP_POINTS = 20


def _scan_cell(eq: ref.Equation) -> float:
    floor = -1.0 + 1e-9
    hi = _initial_window(eq)
    for _ in range(3):
        step = (hi - floor) / PROGRAM_GRID_POINTS
        top = [ref.g_float(eq, floor + i * step)
               for i in range(PROGRAM_GRID_POINTS - PROGRAM_TOP_POINTS + 1, PROGRAM_GRID_POINTS + 1)]
        if all(v > 0 for v in top) and all(b >= a for a, b in zip(top, top[1:])):
            break
        hi = floor + 2.0 * (hi - floor)
    return (hi - floor) / PROGRAM_GRID_POINTS


def _scan_sees_all_roots(case: Case) -> bool:
    """No root in the scan's first cell above the pole at -1 (G is never
    evaluated there) and no two roots in one cell (no sign change)."""
    cell = _scan_cell(case.eq)
    gs = sorted(float(r.gamma) for r in case.roots)
    return all(g > -1 + cell for g in gs) and all(b - a > cell for a, b in zip(gs, gs[1:]))


def _scan_equation(rng: random.Random, mode: str, kind: str, n_pure: int) -> Case:
    lo_a1 = 2.1 if mode == "novalid" else 1.1
    a1 = _frac(rng, lo_a1, lo_a1 + 0.8)
    orders = sorted({_frac(rng, 0.2, float(a1) - 0.1) for _ in range(n_pure - 1)}, reverse=True)
    if len(orders) != n_pure - 1:
        raise Rejected("repeated order")
    pure = [(Fraction(rng.randint(5, 20), 10), a1)] + [(Fraction(rng.randint(2, 15), 10), a) for a in orders]
    shifted = (Fraction(rng.choice((-1, 1)) * rng.randint(2, 10), 10), _frac(rng, 0.2, float(a1) - 0.1),
               _frac(rng, 0.1, 0.9, fractional=False))
    beta = _frac(rng, 0.5, 2.0, fractional=False)
    nu = Fraction(rng.randint(50, 300), 100)
    threshold = caputo_threshold(ref.Equation(kind, [(d, a, Fraction(0)) for d, a in pure], beta, nu))
    if threshold is not None:
        nu = Fraction(math.ceil(100 * math.sqrt(threshold * rng.uniform(1.1, 3.0))), 100)
    if mode == "doubling":
        # a negative second term keeps G below zero past the first window,
        # so the search must widen it; G crosses zero near g_c
        probe = ref.Equation(kind, [(d, a, Fraction(0)) for d, a in pure], beta, nu)
        g_c = _initial_window(probe) * rng.uniform(1.2, 1.8)
        d1, a2 = pure[0][0], pure[1][1]
        d2 = -d1 * Fraction(g_c ** float(a1 - a2)).limit_denominator(100)
        pure[1] = (Fraction(math.floor(d2 * 100), 100), a2)
    if mode == "collision":
        return _collision_equation(rng, kind, pure, shifted, beta)
    if mode == "novalid":
        # every root below the Caputo floor: G(floor) > nu^2 and G grows past it
        probe = ref.Equation(kind, [(d, a, Fraction(0)) for d, a in pure], beta, Fraction(0))
        g_floor = ref.g_float(probe, float(probe.n_max - 1))
        if g_floor <= 0.05:
            raise Rejected("G at the floor is not positive")
        nu = Fraction(math.floor(100 * math.sqrt(g_floor * rng.uniform(0.2, 0.8))), 100)
        if nu <= 0:
            raise Rejected("nu rounds to zero")
    spec = _qb_spec(kind, [(d, a, Fraction(0)) for d, a in pure] + [shifted], beta, dec(nu), SCAN_DOMAIN)
    case = _check_scan(spec)
    if mode == "novalid" and any(r.valid for r in case.roots):
        raise Rejected("a root is above the floor")
    if mode != "novalid" and not any(r.valid for r in case.roots):
        raise Rejected("no valid root")
    if mode == "doubling" and max(float(r.gamma) for r in case.roots) <= _initial_window(case.eq):
        raise Rejected("no root beyond the first window")
    return case


def _collision_equation(rng, kind, pure, shifted, beta) -> Case:
    """Choose d_2 and nu^2 so that G vanishes at g_a and at g_a + n s."""
    probe = ref.Equation(kind, [(d, a, Fraction(0)) for d, a in pure] + [shifted], beta, Fraction(0))
    step = probe.s
    n = rng.randint(1, 4)
    g_a = Fraction(rng.randint(-8, 15), 10) + Fraction(1, 20)
    g_b = g_a + n * step
    ctx = ref.ctx

    def q(g, a):
        return ctx.gamma(1 + ref._mp(g)) * ctx.rgamma(1 + ref._mp(g) - ref._mp(a))

    fixed_a = sum(ref._mp(d) * q(g_a, a) for d, a in pure[:1] + pure[2:])
    fixed_b = sum(ref._mp(d) * q(g_b, a) for d, a in pure[:1] + pure[2:])
    a2 = pure[1][1]
    den = q(g_b, a2) - q(g_a, a2)
    if abs(den) < 1e-6:
        raise Rejected("degenerate collision system")
    d2 = (fixed_a - fixed_b) / den
    nu2 = fixed_a + d2 * q(g_a, a2)
    if nu2 < 0.1 or abs(d2) > 50 or abs(d2) < 0.05:
        raise Rejected("collision system gives nu^2 <= 0 or an extreme d_2")
    terms = [pure[0], (float(d2), a2)] + pure[2:]
    spec = _qb_spec(kind, [(d, a, Fraction(0)) for d, a in terms] + [shifted], beta,
                    dec(float(ctx.sqrt(nu2))), SCAN_DOMAIN)
    case = _check_scan(spec)
    if not any(r.status == "collision_invalid" for r in case.roots):
        raise Rejected("constructed collision not present")
    if not any(r.valid for r in case.roots):
        raise Rejected("no valid root")
    return case


def _check_scan(spec: dict) -> Case:
    case = _prepare("", spec)
    if case.roots and max(float(r.gamma) for r in case.roots) > 4 * _initial_window(case.eq):
        # the documented search doubles its first window at most three times
        raise Rejected("a root lies beyond the solver's search window")
    threshold = caputo_threshold(case.eq)
    if threshold is not None and float(case.eq.nu) ** 2 < threshold and any(r.valid for r in case.roots):
        raise Rejected("nu^2 below the Caputo convergence threshold")
    if not _separated(case):
        raise Rejected("roots too close to a collision")
    if not _scan_sees_all_roots(case):
        raise Rejected(MISSED_BY_SCAN)
    if any(r.valid for r in case.roots):
        try:
            x_max = _fit_x_max(case, SCAN_TERMS, 1500, 1e-3, 1.0)
        except Rejected as exc:
            if str(exc) != SHORT:
                raise
            x_max = 1.0
        case.spec["domain"] = _domain(x_max / 4, x_max, 4)
    if not _well_conditioned(case):
        raise Rejected("series cancel too much on the grid")
    return case


def root_scan(seed: int) -> List[Case]:
    rng = random.Random(f"root-scan:{seed}")
    cases = [_prepare("step-worked", step_worked_example(SCAN_DOMAIN))]
    for j, (mode, kind, n_pure) in enumerate(SCAN_SLOTS):
        case = _draw(lambda r: _scan_equation(r, mode, kind, n_pure), rng)
        case.name = f"seeded-{j}-{mode}-{kind[:2]}{n_pure}"
        cases.append(case)
    return [finish(c) for c in cases]


# -- long-sparse ----------------------------------------------------------

SPARSE_POINTS = 16
# Two seeded series well below example 4 (lambda=2, N=308) and five well
# above it, so the median operation is that example whatever the seed.
SPARSE_SLOTS = (
    ("cc-single", "caputo", 150, 1), ("pf-single", "riemann_liouville", 150, 1),
    ("pf-multi", "riemann_liouville", 1100, 2), ("cc-multi", "riemann_liouville", 1200, 3),
    ("pf-multi", "riemann_liouville", 1300, 2), ("pf-single", "riemann_liouville", 1400, 1),
    ("cc-multi", "riemann_liouville", 1500, 2),
)


def _sparse_equation(rng: random.Random, family: str, kind: str, target: int, n_terms: int) -> Case:
    if family == "cc-single":
        alpha = _frac(rng, 0.1, 0.4, den=20)
        terms = [{"d": dec(-Fraction(rng.randint(5, 20), 10)), "alpha": dec(alpha)}]
        spec = {"kind": kind, "form": "constant_coefficients", "terms": terms}
    elif family == "cc-multi":
        orders = sorted({_frac(rng, 0.3, 2.4, den=20) for _ in range(n_terms)}, reverse=True)
        if len(orders) < n_terms:
            raise Rejected("repeated order")
        terms = [{"d": dec(Fraction(rng.choice((-1, 1)) * rng.randint(3, 15), 10)), "alpha": dec(a)} for a in orders]
        spec = {"kind": kind, "form": "constant_coefficients", "terms": terms}
    else:
        # a long single-term series keeps |c_n| in double range only for a
        # small order: log|c_N| ~ -alpha N log(s N / e)
        if family == "pf-single":
            a1 = _frac(rng, 0.1, 0.35 if target < 800 else 0.2, den=20)
        else:
            a1 = _frac(rng, 0.5, 1.8, den=20)
        b1 = _frac(rng, 0.0, float(a1) - 0.05, den=20, fractional=False)
        terms = [{"d": dec(-Fraction(rng.randint(5, 20), 10)), "beta_i": dec(b1), "alpha": dec(a1)}]
        if family == "pf-multi":
            a2 = _frac(rng, 0.1, float(a1) - 0.05, den=20)
            gap = a1 - b1
            b2 = _frac(rng, 0.0, float(a2), den=20, fractional=False)
            if a2 - b2 > gap or gap - (a2 - b2) == 0:
                raise Rejected("second term would be pure or violate alpha_1 - beta_1 >= alpha_2 - beta_2")
            terms.append({"d": dec(Fraction(rng.choice((-1, 1)) * rng.randint(3, 15), 10)),
                          "beta_i": dec(b2), "alpha": dec(a2)})
        delta = _frac(rng, 0.05, 0.3, den=20, fractional=False)
        spec = {"kind": kind, "form": "power_factors", "terms": terms, "delta": dec(delta)}
    spec["domain"] = _domain(0.1, 1.0, SPARSE_POINTS)
    case = _prepare("", spec)
    if len(case.eq.pure) != 1:
        raise Rejected("more than one pure term: the roots would need a scan")
    if not _separated(case):
        raise Rejected("roots too close to a collision")
    x_max = _fit_x_max(case, target, int(target * 1.6) + 40, 0.05, 2000.0)
    spec["domain"] = _domain(float(f"{x_max / SPARSE_POINTS:.4g}"), x_max, SPARSE_POINTS)
    if not _well_conditioned(case):
        raise Rejected("series cancels too much on the grid")
    return case


def long_sparse(seed: int) -> List[Case]:
    rng = random.Random(f"long-sparse:{seed}")
    cases = [
        _prepare("ex2", example2(_domain(0.25, 4.0, SPARSE_POINTS))),
        _prepare("ex3", example3(_domain(0.1875, 3.0, SPARSE_POINTS))),
        _prepare("ex4-lam2", example4(Fraction(2), _domain(0.25, 4.0, SPARSE_POINTS))),
        _prepare("remark3", remark3(_domain(0.5, 8.0, SPARSE_POINTS))),
        _prepare("ex4-lam2-xmax5", example4(Fraction(2), _domain(0.3125, 5.0, SPARSE_POINTS)), EX4_FAULT),
    ]
    for j, (family, kind, target, n_terms) in enumerate(SPARSE_SLOTS):
        case = _draw(lambda r: _sparse_equation(r, family, kind, target, n_terms), rng)
        case.name = f"seeded-{j}-{family}-{kind[:2]}-N{target}"
        cases.append(case)
    return [finish(c) for c in cases]


BUILDERS = {"dense-grid": dense_grid, "root-scan": root_scan, "long-sparse": long_sparse}


def cases_for(workload: str, seed: int) -> List[Case]:
    return BUILDERS[workload](seed)
