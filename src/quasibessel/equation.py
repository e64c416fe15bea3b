"""Problem model for fractional quasi-Bessel equations.

An equation

    sum_i d_i x^(alpha_i + p_i) D^alpha_i u(x) + (x^beta - nu^2) u(x) = 0

is held as a list of terms plus the power beta, the constant nu^2, the kind
of fractional derivative, and an optional common irrational factor r.  The
shifting indices p_i and beta are exact rationals after division by r; the
derivative orders alpha_i may be arbitrary nonnegative reals.

Terms with p_i = 0 are the "pure Bessel" terms: their x-power matches their
derivative order, and only they enter the characteristic equation.  The term
with the largest derivative order is stored first and must have p = 0 for a
series solution to exist.

This module also provides the two reductions that bring constant-coefficient
and power-factor equations into quasi-Bessel form, the convergence threshold
on nu^2 for Caputo equations, and the contraction bound used by the
uniqueness criterion for the initial value problem.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import NamedTuple, Sequence, Tuple

from .gammafn import TAU_POLE, signed_log_gamma
from .rational import RationalLike, as_rational

__all__ = [
    "DerivativeKind",
    "Term",
    "QuasiBesselEquation",
    "ValidationIssue",
    "validate",
    "nu_min_threshold",
    "uniqueness_bound",
    "from_constant_coefficients",
    "from_power_factors",
    "ceil_order",
    "is_integer_order",
    "MAX_ORDER",
]


class DerivativeKind(enum.Enum):
    CAPUTO = "caputo"
    RIEMANN_LIOUVILLE = "riemann_liouville"

    @classmethod
    def from_string(cls, name: str) -> "DerivativeKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown derivative kind {name!r}; "
                f"expected 'caputo' or 'riemann_liouville'"
            ) from None


def is_integer_order(alpha: float) -> bool:
    """True when alpha is an integer to within the pole tolerance."""
    return abs(alpha - round(alpha)) < TAU_POLE


def ceil_order(alpha: float) -> int:
    """Integer ceiling n of a derivative order: n-1 < alpha < n for
    fractional alpha, and n = alpha for integer alpha."""
    if is_integer_order(alpha):
        return int(round(alpha))
    return math.ceil(alpha)


class Term:
    """One derivative term d * x^(alpha+p) * D^alpha u.

    ``p`` is the shifting index in units of the common factor r, stored as an
    exact fraction (decimal strings are accepted and parsed exactly).
    """

    __slots__ = ("d", "alpha", "p")

    def __init__(self, d: float, alpha: float, p: RationalLike = Fraction(0)) -> None:
        self.p = as_rational(p)
        if not math.isfinite(d):
            raise ValueError(f"term coefficient must be finite, got {d}")
        if not math.isfinite(alpha) or alpha < 0:
            raise ValueError(f"derivative order must be finite and >= 0, got {alpha}")
        if self.p < 0:
            raise ValueError(f"shifting index must be >= 0, got {self.p}")
        self.d = d
        self.alpha = alpha

    @property
    def is_pure_bessel(self) -> bool:
        return self.p == 0


class QuasiBesselEquation:
    """The full problem statement.  Every field, and the classification
    derived from the terms, is set once at construction.

    ``beta`` and every ``Term.p`` are exact rationals in units of ``r``; the
    true powers are r * beta and r * p.  Terms are normalised to descending
    derivative order (ties broken so an unshifted term comes first).

    Derived from the terms: ``pure_indices`` (the pure Bessel terms, p = 0),
    ``shifted_indices`` (the others), ``fractional_pure_indices`` (the pure
    terms of non-integer order), ``n_max`` (the largest integer ceiling of a
    non-integer order, None when every order is an integer) and ``n_m0``
    (the same over the fractional pure orders).
    """

    __slots__ = (
        "terms", "beta", "nu_squared", "r", "kind",
        "pure_indices", "shifted_indices", "fractional_pure_indices", "n_max", "n_m0",
    )

    def __init__(
        self, terms: Sequence[Term], beta: RationalLike, nu_squared: float = 0.0,
        r: float = 1.0, kind: DerivativeKind = DerivativeKind.CAPUTO,
    ) -> None:
        self.terms = tuple(sorted(terms, key=lambda t: (-t.alpha, t.p)))
        if not self.terms:
            raise ValueError("equation needs at least one derivative term")
        self.beta = as_rational(beta)
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if not math.isfinite(nu_squared) or nu_squared < 0:
            raise ValueError(f"nu_squared must be finite and >= 0, got {nu_squared}")
        if not math.isfinite(r) or r <= 0:
            raise ValueError(f"common factor r must be finite and > 0, got {r}")
        self.nu_squared = nu_squared
        self.r = r
        self.kind = kind
        self.pure_indices = tuple(i for i, t in enumerate(self.terms) if t.is_pure_bessel)
        self.shifted_indices = tuple(i for i, t in enumerate(self.terms) if not t.is_pure_bessel)
        self.fractional_pure_indices = tuple(
            i for i in self.pure_indices if not is_integer_order(self.terms[i].alpha)
        )
        ceilings = [ceil_order(t.alpha) for t in self.terms if not is_integer_order(t.alpha)]
        self.n_max = max(ceilings, default=None)
        ceilings = [ceil_order(self.terms[i].alpha) for i in self.fractional_pure_indices]
        self.n_m0 = max(ceilings, default=None)

    @property
    def m1(self) -> int:
        """Number of pure Bessel terms."""
        return len(self.pure_indices)

    @property
    def m0(self) -> int:
        """Number of pure Bessel terms with non-integer derivative order."""
        return len(self.fractional_pure_indices)

    @property
    def alpha1(self) -> float:
        """Highest derivative order."""
        return self.terms[0].alpha

    # -- true (r-applied) powers ------------------------------------------

    @property
    def beta_value(self) -> float:
        return float(self.beta) * self.r

    def p_value(self, i: int) -> float:
        return float(self.terms[i].p) * self.r


# -- validation -----------------------------------------------------------

FATAL = "fatal"
WARNING = "warning"

# The highest derivative order a spec may give, r applied.  The root list
# and the Caputo integer exponents grow with the order: the closed-form
# family has one root per unit of alpha and Caputo adds ceil(alpha)
# integers, so an order of 1e300 would never finish.  1000 admits every
# order the tests use (up to 400.5) and the benchmark uses (up to 2.9).
# On 2 shared CPUs with Python 3.11, a Caputo solve of order 999.5 takes
# about 0.2 s, every root failing numerically, while the root list and
# screen_collisions alone take about 19 s at 9999.5, since the screening is
# quadratic in the number of roots.
MAX_ORDER = 1000.0


class ValidationIssue(NamedTuple):
    """A finding of ``validate``.  Its code says its severity: every ``E_``
    code is fatal, every ``W_`` code a warning."""

    code: str
    message: str

    @property
    def severity(self) -> str:
        return FATAL if self.code.startswith("E_") else WARNING


def validate(eq: QuasiBesselEquation) -> Tuple[ValidationIssue, ...]:
    """Check the structural conditions a series solution requires.

    Rationality of p_i/r and beta/r is already enforced at construction
    (shifting indices are stored as exact fractions), so the checks here are
    the highest order's size (at most MAX_ORDER), a derivative term's
    presence, the leading-term conditions (some term of the highest order
    with d != 0, and one such term unshifted; a d = 0 term counts as
    absent), the sign condition on the pure Bessel coefficients and
    beta > 0.  Returns every issue found, fatal or not.
    """
    issues = []
    if eq.alpha1 > MAX_ORDER:
        issues.append(
            ValidationIssue(
                code="E_ORDER_TOO_LARGE",
                message=(
                    f"the highest derivative order is {eq.alpha1!r}, above the limit "
                    f"{MAX_ORDER:g}: the root list grows with the order"
                ),
            )
        )
    if ceil_order(eq.alpha1) == 0:
        issues.append(
            ValidationIssue(
                code="E_NO_DERIVATIVE",
                message=(
                    f"the highest derivative order is {eq.alpha1}: without a derivative "
                    "term the equation is algebraic and has no series solution"
                ),
            )
        )
    # a d = 0 term is absent: it neither carries nor shifts the derivative
    leading = [t for t in eq.terms if t.alpha == eq.alpha1 and t.d != 0.0]
    if leading and not any(t.is_pure_bessel for t in leading):
        issues.append(
            ValidationIssue(
                code="E_SHIFTED_LEADING_TERM",
                message=(
                    f"the highest-order derivative (alpha={leading[0].alpha}) carries a "
                    f"positive shift p={leading[0].p}; the recursion numerator then grows "
                    "faster than its denominator, the coefficients blow up, and no series "
                    "solution on the step lattice exists"
                ),
            )
        )
    if not leading:
        issues.append(
            ValidationIssue(
                code="E_ZERO_LEADING_COEFFICIENT",
                message=(
                    f"the highest-order term (alpha={eq.alpha1}) has d = 0, so the "
                    "equation lacks its highest derivative; drop the term so that the "
                    "highest derivative present leads"
                ),
            )
        )
    for i in eq.pure_indices:
        if eq.terms[i].d <= 0:
            issues.append(
                ValidationIssue(
                    code="W_NONPOSITIVE_BESSEL_COEFFICIENT",
                    message=(
                        f"pure Bessel term {i} has d={eq.terms[i].d} <= 0; real roots of "
                        "the characteristic equation are no longer guaranteed"
                    ),
                )
            )
    if eq.beta == 0:
        issues.append(
            ValidationIssue(
                code="E_ZERO_BETA",
                message=(
                    "beta = 0: an equation without an x^beta term (beta > 0) is not "
                    "supported"
                ),
            )
        )
    return tuple(issues)


# -- convergence threshold and uniqueness bound ---------------------------


def nu_min_threshold(eq: QuasiBesselEquation) -> float:
    """Threshold on nu^2 above which the Caputo series is guaranteed to
    converge: Gamma(n_m0) * sum over pure Bessel terms of d_i/Gamma(n_max - alpha_i).

    Applicable only to Caputo equations with positive pure Bessel
    coefficients and at least one fractional pure Bessel term.  Where a
    Gamma leaves the float range, which needs n_m0 >= 172, the sum is taken
    in log space, of exp(log d_i + lgamma(n_m0) - lgamma(n_max - alpha_i));
    a threshold beyond the float range is +inf: every summand is positive,
    and inf can withhold the guarantee but never grant it.
    """
    if eq.kind is not DerivativeKind.CAPUTO:
        raise ValueError("nu_min_threshold applies to Caputo equations only")
    if eq.m0 == 0:
        raise ValueError("no pure Bessel term with fractional order")
    if any(eq.terms[i].d <= 0 for i in eq.pure_indices):
        raise ValueError("threshold requires positive pure Bessel coefficients")
    n_max = eq.n_max
    assert n_max is not None  # m0 >= 1 implies a fractional order exists
    total = 0.0
    try:
        for i in eq.pure_indices:
            arg = n_max - eq.terms[i].alpha
            if signed_log_gamma(arg)[1] == 0:
                raise ValueError(
                    f"Gamma pole at n_max - alpha = {arg} (term {i}, alpha={eq.terms[i].alpha})"
                )
            total += eq.terms[i].d / math.gamma(arg)
        return math.gamma(eq.n_m0) * total
    except OverflowError:
        pass
    # a Gamma left the float range: sum in log space
    log_g = math.lgamma(eq.n_m0)
    try:
        return math.fsum(
            math.exp(math.log(eq.terms[i].d) + log_g - math.lgamma(n_max - eq.terms[i].alpha))
            for i in eq.pure_indices
        )
    except OverflowError:
        return math.inf


def uniqueness_bound(eq: QuasiBesselEquation, b: float) -> float:
    """Contraction bound for the initial value problem on [0, b] (Caputo).

    The IVP solution is unique whenever nu^2 exceeds
    b1^beta + sum_i q_i |d_i| b1^(n_i + p_i), with b1 = max(1, b) and
    q_i = 1/(Gamma(n_i - alpha_i) (n_i - alpha_i + 1)) for fractional orders,
    q_i = 1 for integer orders.  The bound is +inf when a power of b1 exceeds
    the float range.
    """
    if eq.kind is not DerivativeKind.CAPUTO:
        raise ValueError("uniqueness_bound applies to Caputo equations only")
    if b <= 0:
        raise ValueError(f"domain endpoint must be positive, got {b}")
    b1 = max(1.0, b)
    try:
        total = b1 ** eq.beta_value
        for i, t in enumerate(eq.terms):
            if t.d == 0.0:
                continue
            n_i = ceil_order(t.alpha)
            if is_integer_order(t.alpha):
                q_i = 1.0
            else:
                gap = n_i - t.alpha
                q_i = 1.0 / (math.gamma(gap) * (gap + 1.0))
            total += q_i * abs(t.d) * b1 ** (n_i + eq.p_value(i))
    except OverflowError:  # a power of b1 beyond the float range: every summand is >= 0
        return math.inf
    return total


# -- reductions to quasi-Bessel form --------------------------------------


def from_constant_coefficients(
    coeffs: Sequence[Tuple[float, RationalLike]],
    r: float = 1.0,
    kind: DerivativeKind = DerivativeKind.RIEMANN_LIOUVILLE,
) -> QuasiBesselEquation:
    """Bring sum_i d_i D^alpha_i u + u = 0 into quasi-Bessel form.

    Multiplying every term by x^alpha_1 gives shifting indices
    p_i = alpha_1 - alpha_i, beta = alpha_1, and nu = 0.  The derivative
    orders are supplied as exact rationals in units of r (decimal strings
    are fine) so the shifts stay exact.
    """
    return from_power_factors([(d, 0, a) for d, a in coeffs], delta=0, r=r, kind=kind)


def from_power_factors(
    triples: Sequence[Tuple[float, RationalLike, RationalLike]],
    delta: RationalLike,
    r: float = 1.0,
    kind: DerivativeKind = DerivativeKind.RIEMANN_LIOUVILLE,
) -> QuasiBesselEquation:
    """Bring sum_i d_i x^beta_i D^alpha_i u + x^delta u = 0 into quasi-Bessel
    form by multiplying through by x^(alpha_1 - beta_1).

    Each triple is (d_i, beta_i, alpha_i) with beta_i and alpha_i exact
    rationals in units of r.  Requires alpha_1 >= beta_1 and
    alpha_1 - beta_1 >= alpha_i - beta_i for every term; the resulting
    shifting indices are p_i = alpha_1 - beta_1 + beta_i - alpha_i and the
    zeroth-order power is beta = alpha_1 - beta_1 + delta.
    """
    if not triples:
        raise ValueError("need at least one derivative term")
    exact = [(float(d), as_rational(b), as_rational(a)) for d, b, a in triples]
    exact.sort(key=lambda t: t[2], reverse=True)
    _, b1, a1 = exact[0]
    if a1 <= 0:
        raise ValueError(f"highest derivative order must be positive, got {a1}")
    if a1 < b1:
        raise ValueError(f"need alpha_1 >= beta_1, got alpha_1={a1}, beta_1={b1}")
    for _, b, a in exact[1:]:
        if a >= a1:
            raise ValueError(
                f"highest derivative order must be strictly greater than the "
                f"others, got {a1} and {a}"
            )
        if a <= 0:
            raise ValueError(f"derivative orders must be positive, got {a}")
        if a1 - b1 < a - b:
            raise ValueError(
                f"need alpha_1 - beta_1 >= alpha_i - beta_i; "
                f"violated by (beta_i={b}, alpha_i={a})"
            )
    d0 = as_rational(delta)
    if d0 < 0:
        raise ValueError(f"delta must be >= 0, got {d0}")
    terms = [Term(d=d, alpha=float(a) * r, p=a1 - b1 + b - a) for d, b, a in exact]
    return QuasiBesselEquation(
        terms=tuple(terms), beta=a1 - b1 + d0, nu_squared=0.0, r=r, kind=kind
    )
