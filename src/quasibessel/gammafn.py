"""Signed log-Gamma and Gamma-function ratios, robust at negative arguments.

Every denominator in the series recursion and every characteristic-equation
term is a ratio Gamma(1+g+r)/Gamma(1+g+r-p) whose arguments may be negative
or may sit on a pole of Gamma.  Ratios are therefore assembled from
log|Gamma| plus a sign, and a pole in the denominator yields an exact zero
(1/Gamma is entire).

``signed_log_gamma(x)`` returns a plain ``(log_abs, sign)`` tuple: sign is +1
or -1, or 0 on a pole (log_abs is +inf there).  Every x within TAU_POLE of a
nonpositive integer is a pole, including 0 < x < TAU_POLE (the pole at 0);
x >= TAU_POLE takes math.lgamma directly.
"""

from __future__ import annotations

import math
from typing import Tuple

__all__ = [
    "TAU_POLE",
    "GammaPoleError",
    "signed_log_gamma",
    "gamma_ratio",
]

# Absolute distance to the nearest nonpositive integer below which an
# argument is treated as a pole.  Arguments such as 1 + gamma + r - p are
# formed in float arithmetic, so one that is a pole in exact arithmetic
# lands a few ulp off the integer; 1e-9 stays far above that rounding.
TAU_POLE = 1e-9


class GammaPoleError(ValueError):
    """Gamma was evaluated at (or within TAU_POLE of) a nonpositive integer."""


def signed_log_gamma(x: float) -> Tuple[float, int]:
    """Return (log|Gamma(x)|, sign of Gamma(x)) for finite real x.

    The sign is +1 or -1, or 0 when x lies within TAU_POLE of a nonpositive
    integer (a pole; log_abs is +inf there).  That includes 0 < x < TAU_POLE,
    the pole at 0.  For x >= TAU_POLE this is (math.lgamma(x), 1).  For
    negative non-integer x the reflection identity
    Gamma(x)Gamma(1-x) = pi/sin(pi*x) is used; the sign is the sign of
    sin(pi*x), evaluated from the fractional part of x so it stays exact
    arbitrarily close to the poles.
    """
    if not math.isfinite(x):
        raise ValueError(f"signed_log_gamma expects finite x, got {x}")
    if x >= TAU_POLE:
        return math.lgamma(x), 1
    if abs(x - round(x)) < TAU_POLE:
        return math.inf, 0
    floor = math.floor(x)
    frac = x - floor  # in (0, 1)
    log_abs = math.log(math.pi) - math.log(math.sin(math.pi * frac)) - math.lgamma(1.0 - x)
    sign = 1 if floor % 2 == 0 else -1
    return log_abs, sign


def gamma_ratio(gamma: float, r: float, p: float) -> float:
    """Ratio Gamma(1+gamma+r) / Gamma(1+gamma+r-p).

    A pole in the numerator argument is an error (the ratio has no finite
    value there); a pole in the denominator argument gives exactly 0.  When p
    is a small nonnegative integer the ratio collapses to the falling product
    (x-1)(x-2)...(x-p), which is evaluated directly: it is exact where the
    log-space path would lose ~1e-14 of relative accuracy.
    """
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
