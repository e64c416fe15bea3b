"""Characteristic equation: evaluation, leading exponents, and root screening.

The leading exponent gamma of a series solution must satisfy

    G(gamma) = sum over pure Bessel terms of d_i * Gamma(1+gamma)/Gamma(1+gamma-alpha_i) - nu^2 = 0.

G is continuous on gamma > -1 (1/Gamma is entire), so roots are located by
bracketing sign changes between neighbouring points of a uniform fine grid
(GRID_POINTS steps) and refining by bisection down to two neighbouring
floats, so a scanned root is exact to G's rounding.  ``_scan_roots`` states
the scan's one window rule, its one zero rule, the coarse pass that limits
where G is computed on the fine grid, and the roots it cannot detect.  Every
batch of G goes through ``_grid_values``, bit-identical point by point to the
scalar ``characteristic_value``; bisection calls that scalar, which stays the
definition of G.  When a single pure Bessel term meets nu = 0 the roots are
known in closed form -- gamma = alpha - k for integers k >= 1 down to the -1
floor -- and are emitted exactly instead of scanned.

``find_roots`` adds the Caputo integer exponents (``caputo_integer_exponents``)
to the roots of G, so it is the one list of leading exponents the solver tries.

A root can fail to generate a solution in two ways: for Caputo equations it
may sit at or below n_max - 1, where the fractional derivatives of x^gamma do
not exist; and it may collide with a larger root after a whole number of
steps, which zeroes a recursion denominator and blows the series up.  Both
conditions are recorded on the root rather than silently dropped.
"""

from __future__ import annotations

import enum
import math
import warnings
from typing import List, NamedTuple, Optional, Sequence

from .equation import DerivativeKind, QuasiBesselEquation, ceil_order, is_integer_order
from .gammafn import TAU_POLE, gamma_ratio
from .series import CAPUTO_FLOOR_WIDTH, StepPlan

__all__ = [
    "RootStatus",
    "CharacteristicRoot",
    "RootSearchWarning",
    "characteristic_value",
    "find_roots",
    "screen_collisions",
    "caputo_integer_exponents",
    "GRID_POINTS",
    "TAU_COLLISION",
]

GRID_POINTS = 10_000
TAU_COLLISION = 1e-6

# grid samples inspected when deciding whether G is already monotone positive
# at the top of the scan window
_TOP_WINDOW = 20
_MAX_DOUBLINGS = 3
# fine grid steps per coarse cell of the root scan
_COARSE = 16


class RootSearchWarning(UserWarning):
    """Raised as a warning when the scan finds no sign change, or when G is
    still not monotone positive at the top of its last window."""


class RootStatus(enum.Enum):
    VALID = "valid"
    BELOW_CAPUTO_FLOOR = "below_caputo_floor"
    COLLISION_INVALID = "collision_invalid"
    DENOMINATOR_POLE = "denominator_pole"


class CharacteristicRoot(NamedTuple):
    """A root gamma of G with its screening outcome.

    ``collision_step`` is the step count n at which gamma + s*n lands on a
    larger root; present exactly when status is COLLISION_INVALID.
    """

    gamma: float
    status: RootStatus = RootStatus.VALID
    collision_step: Optional[int] = None

    @property
    def is_valid(self) -> bool:
        return self.status is RootStatus.VALID


def characteristic_value(eq: QuasiBesselEquation, gamma: float) -> float:
    """Evaluate G(gamma).  Only pure Bessel terms contribute; a term whose
    denominator argument hits a Gamma pole contributes exactly zero."""
    total = -eq.nu_squared
    for i in eq.pure_indices:
        t = eq.terms[i]
        total += t.d * gamma_ratio(gamma, 0.0, t.alpha)
    return total


def _grid_values(eq: QuasiBesselEquation, grid: Sequence[float]) -> List[float]:
    """G at every point of a grid of gamma > -1, in any order, each value
    bit-identical to ``characteristic_value`` at that point.

    Each total is -nu^2, then + d_i * Q_i per pure term in ``pure_indices``
    order, the operations and order of the scalar loop.  Where 1+gamma-alpha_i
    >= TAU_POLE, Q_i = exp(lgamma(1+gamma) - lgamma(1+gamma-alpha_i)), which is
    what ``gamma_ratio`` computes there; lgamma(1+gamma) is formed once per
    point and shared by every term.  Below that cut (a pole of either Gamma
    argument is near), and at every point of an integer-order term (the
    falling-product path), Q_i comes from ``gamma_ratio`` itself, so a pole
    raises the same error as the scalar loop.
    """
    # 1.0 + gamma as gamma_ratio forms it (adding r = 0.0 changes nothing)
    xs = [1.0 + g for g in grid]
    log_num = [math.lgamma(x) for x in xs]
    values = [-eq.nu_squared] * len(grid)
    for i in eq.pure_indices:
        d, alpha = eq.terms[i].d, eq.terms[i].alpha
        # an integer order takes gamma_ratio's falling product at every point
        cut = math.inf if is_integer_order(alpha) else TAU_POLE
        values = [
            v + d * math.exp(ln - math.lgamma(x - alpha))
            if x - alpha >= cut
            else v + d * gamma_ratio(g, 0.0, alpha)
            for v, g, x, ln in zip(values, grid, xs, log_num)
        ]
    return values


def _status_for(eq: QuasiBesselEquation, gamma: float) -> RootStatus:
    # Caputo derivatives of fractional order alpha need gamma > ceil(alpha) - 1
    # by more than CAPUTO_FLOOR_WIDTH, the floor the power rule applies
    caputo = eq.kind is DerivativeKind.CAPUTO and eq.n_max is not None
    if caputo and gamma <= eq.n_max - 1 + CAPUTO_FLOOR_WIDTH:
        return RootStatus.BELOW_CAPUTO_FLOOR
    return RootStatus.VALID


def _analytic_family(eq: QuasiBesselEquation) -> List[CharacteristicRoot]:
    # single pure Bessel term, nu = 0: G vanishes exactly where the
    # denominator Gamma(1+gamma-alpha) has a pole, i.e. gamma = alpha - k
    alpha = eq.terms[eq.pure_indices[0]].alpha
    roots = []
    k = 1
    while alpha - k > -1.0 + TAU_POLE:
        g = alpha - k
        roots.append(CharacteristicRoot(gamma=g, status=_status_for(eq, g)))
        k += 1
    return roots


def _bisect(eq: QuasiBesselEquation, lo: float, hi: float, f_lo: float) -> float:
    # the one stop rule: halve until no float lies strictly between lo and
    # hi, and return the end the midpoint rounds to, one of the neighbouring
    # floats across which the computed G changes sign.  G sees gamma only
    # through 1 + gamma, so its sign changes no closer to 0 than ~1e-16 and a
    # fine cell takes at most about 100 halvings
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        f_mid = characteristic_value(eq, mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0) != (f_mid < 0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
        mid = 0.5 * (lo + hi)
    return mid


def _first_window_top(eq: QuasiBesselEquation) -> float:
    base = float(max(eq.n_max or 0, 4))
    if eq.nu_squared > 0:
        base += eq.nu_squared ** (1.0 / eq.alpha1)
    return base + 10.0


def _tail_monotone_positive(values: Sequence[float]) -> bool:
    window = values[-_TOP_WINDOW:]
    if any(v <= 0 for v in window):
        return False
    return all(b >= a for a, b in zip(window, window[1:]))


def find_roots(eq: QuasiBesselEquation) -> List[CharacteristicRoot]:
    """Every leading exponent the solver tries, sorted ascending: the real
    roots of G (in closed form for one pure term with nu = 0, else by
    ``_scan_roots`` on its GRID_POINTS-step grid over its one window,
    (-1, ``_first_window_top``] doubled up to ``_MAX_DOUBLINGS`` times, each
    zero of G once) and the integers of ``caputo_integer_exponents``.

    A root of G within TAU_POLE of such an integer j is replaced by j, valid.
    Other Caputo roots at or below n_max - 1 + CAPUTO_FLOOR_WIDTH (1e-12,
    the width the power rule gives the floor) are returned flagged rather
    than dropped, so callers can report why they generate no solution.
    """
    if eq.m1 == 0:
        warnings.warn(
            RootSearchWarning(
                "no pure Bessel terms: G(gamma) is the constant -nu^2 and has no roots"
            )
        )
        return []
    if eq.nu_squared == 0.0 and eq.m1 == 1:
        roots = _analytic_family(eq)
    else:
        roots = _scan_roots(eq)
    integers = caputo_integer_exponents(eq)
    roots = [r for r in roots if all(abs(r.gamma - j) >= TAU_POLE for j in integers)]
    roots += [CharacteristicRoot(float(j)) for j in integers]
    roots.sort(key=lambda root: root.gamma)
    return roots


def caputo_integer_exponents(eq: QuasiBesselEquation) -> List[int]:
    """The integers j >= 0 below every pure order's ceiling, for a Caputo
    equation with nu = 0: D^alpha_i x^j = 0 there, so the zeroth balance holds
    without G(j) = 0.  They carry the constant-coefficient (Mittag-Leffler)
    solutions, whose characteristic roots sit below the Caputo floor."""
    if eq.kind is not DerivativeKind.CAPUTO or eq.nu_squared != 0.0 or eq.m1 == 0:
        return []
    return list(range(min(ceil_order(eq.terms[i].alpha) for i in eq.pure_indices)))


def _scan_roots(eq: QuasiBesselEquation) -> List[CharacteristicRoot]:
    """All real roots of G on (-1 + 2*TAU_POLE, hi], for an equation with a
    pure Bessel term, each reported once.

    One window rule: hi starts at ``_first_window_top``,
    max(n_max, 4) + nu^(2/alpha_1) + 10, and doubles (up to
    ``_MAX_DOUBLINGS`` = 3 times) until G is monotone positive on the top
    ``_TOP_WINDOW`` fine points, since G grows like d_1 gamma^alpha_1; only
    those points are computed for a window that is then doubled.  If G still
    is not monotone positive after the last doubling, a RootSearchWarning
    names the window, since a root above it would be missed.

    The fine grid runs from floor + step to hi in GRID_POINTS steps, with
    floor = -1 + TAU_POLE.  GRID_POINTS is the one source of the scan
    resolution, the documented 10^4 steps, and the benchmark's root-scan
    generator (solvebench/specs.py) mirrors it as PROGRAM_GRID_POINTS.  One
    more sample at -1 + 2*TAU_POLE, just above the pole at -1, covers the
    first cell (G is continuous on (-1, inf)); the window is at least 15
    wide, so that sample lies below floor + step.

    One zero rule: a fine point where G is exactly 0.0 is a root, and a fine
    pair is bisected only when its values have strictly opposite signs, until
    the bracket is two neighbouring floats.  So a zero on the grid is
    reported once, as the low end of its pair or as the window top.  G is
    computed on the fine grid only where a root can be:

    - G is first computed on every ``_COARSE``-th fine point and the last
      one.  A coarse cell is kept when its end values differ in sign or one
      is exactly 0.0, and when the coarse differences change sign (or one is
      zero) between it and a neighbour: there G has an extremum, which may
      hide two roots inside a cell whose ends share a sign; both cells next
      to the turn are kept.  The first and the last cell, with no difference
      known beyond them, are always kept.
    - G is then computed at every fine point of the kept cells in one
      ``_grid_values`` call (an end that two kept cells share is computed
      for each), and each cell's fine pairs are scanned as if the whole fine
      grid had been.

    Values are bit-identical to ``characteristic_value`` point by point
    (``_grid_values``), so the roots are those of the full fine scan unless
    a root escapes the coarse test.  Undetected: tangential (double) roots,
    which give no sign change at any resolution, and two roots in one cell
    when G turns twice within three coarse cells, so that the coarse
    differences do not change sign.  Bisection calls the scalar
    ``characteristic_value``.
    """
    floor = -1.0 + TAU_POLE
    first = -1.0 + 2.0 * TAU_POLE
    hi = _first_window_top(eq)

    def points(indices: Sequence[int]) -> List[float]:
        # fine index i > 0 is floor + i*step; index 0 is the sample at `first`
        return [floor + i * step if i else first for i in indices]

    for doublings in range(_MAX_DOUBLINGS + 1):
        if doublings:
            hi = floor + 2.0 * (hi - floor)
        step = (hi - floor) / GRID_POINTS
        top = range(GRID_POINTS + 1 - _TOP_WINDOW, GRID_POINTS + 1)
        if _tail_monotone_positive(_grid_values(eq, points(top))):
            break
    else:
        warnings.warn(
            RootSearchWarning(
                f"G(gamma) is not monotone positive at the top of the last "
                f"scan window ({floor:.3g}, {hi:.6g}] after {_MAX_DOUBLINGS} "
                f"doublings; roots above it are not searched"
            )
        )

    coarse = [*range(0, GRID_POINTS, _COARSE), GRID_POINTS]
    values = _grid_values(eq, points(coarse))
    diffs = [b - a for a, b in zip(values, values[1:])]
    # turns[j]: the coarse differences do not keep one strict sign across
    # coarse point j, so cells j-1 and j are both kept; the two ends of the
    # window count as turns, since no difference is known beyond them
    turns = [True] + [not (a > 0 < b or a < 0 > b) for a, b in zip(diffs, diffs[1:])] + [True]
    cells = [
        points(range(coarse[j], coarse[j + 1] + 1))
        for j, (a, b) in enumerate(zip(values, values[1:]))
        if a == 0.0 or b == 0.0 or (a < 0) != (b < 0) or turns[j] or turns[j + 1]
    ]
    fine_values = iter(_grid_values(eq, [g for cell in cells for g in cell]))
    roots: List[CharacteristicRoot] = []
    for cell in cells:
        f = [next(fine_values) for _ in cell]
        for g_lo, g_hi, f_lo, f_hi in zip(cell, cell[1:], f, f[1:]):
            if f_lo == 0.0:
                roots.append(CharacteristicRoot(g_lo, _status_for(eq, g_lo)))
            elif f_lo < 0 < f_hi or f_hi < 0 < f_lo:
                g = _bisect(eq, g_lo, g_hi, f_lo)
                roots.append(CharacteristicRoot(g, _status_for(eq, g)))
    if values[-1] == 0.0:
        g = floor + GRID_POINTS * step
        roots.append(CharacteristicRoot(g, _status_for(eq, g)))

    if not roots:
        warnings.warn(
            RootSearchWarning(
                f"no sign change of G(gamma) found on ({floor:.3g}, {hi:.6g}] "
                f"with {GRID_POINTS} samples"
            )
        )
    return roots


def screen_collisions(
    roots: Sequence[CharacteristicRoot], plan: StepPlan
) -> List[CharacteristicRoot]:
    """Invalidate every root that lands on a larger root after a whole number
    of steps (the recursion denominator vanishes there and the series blows
    up).  The largest root has nothing to collide with and always survives.

    Collision targets include flagged roots -- the denominator vanishes at a
    root of G whether or not that root generates a solution itself.  Roots
    already flagged for another reason keep their original status.  The
    operation is idempotent.
    """
    step = plan.step_value
    ordered = sorted(roots, key=lambda root: root.gamma)
    screened: List[CharacteristicRoot] = []
    for idx, root in enumerate(ordered):
        if root.status is not RootStatus.VALID:
            screened.append(root)
            continue
        hit: Optional[int] = None
        for other in ordered[idx + 1 :]:
            # a step of 0, or a step count past the float range, is out of
            # reach: each root then fails on its own denominator test
            steps = (other.gamma - root.gamma) / step if step else math.inf
            n = round(steps) if steps < math.inf else 0
            if n >= 1 and abs(other.gamma - (root.gamma + step * n)) < TAU_COLLISION:
                hit = n if hit is None else min(hit, n)
        if hit is not None:
            screened.append(
                root._replace(status=RootStatus.COLLISION_INVALID, collision_step=hit)
            )
        else:
            screened.append(root)
    return screened

