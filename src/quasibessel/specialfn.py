"""Closed-form oracle: the Kilbas-Saigo function E_{alpha,m,l}.

A plain truncated sum with Gamma factors, intentionally independent of the
series machinery so it can validate it.  Single-term equations with nu = 0
have solutions c0 x^gamma E_{alpha,m,l}(lam x^s);
``kilbas_saigo_for_single_term`` maps a computed root and step onto those
parameters for cross-checks.  The Mittag-Leffler function is the case m = 1,
l = 0, whose coefficient product telescopes to 1/Gamma(alpha k + 1):
E_alpha(z) is ``kilbas_saigo(KilbasSaigoParams(alpha, 1.0, 0.0), [z])[0]``.
"""

from __future__ import annotations

import math
import sys
from typing import List, Sequence, Tuple

from .gammafn import GammaPoleError, signed_log_gamma

_LOG_MAX = math.log(sys.float_info.max)

__all__ = [
    "KilbasSaigoParams",
    "kilbas_saigo",
    "kilbas_saigo_coefficients",
    "kilbas_saigo_for_single_term",
]


class KilbasSaigoParams:
    """Parameters of E_{alpha,m,l}(z) = sum_k c_k z^k with c_0 = 1 and
    c_k = prod_{j<k} Gamma(alpha(jm+l)+1)/Gamma(alpha(jm+l+1)+1)."""

    __slots__ = ("alpha", "m", "l")

    def __init__(self, alpha: float, m: float, l: float) -> None:
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if m <= 0:
            raise ValueError(f"m must be positive, got {m}")
        self.alpha = alpha
        self.m = m
        self.l = l


def kilbas_saigo_coefficients(
    params: KilbasSaigoParams, n_terms: int
) -> List[Tuple[float, int, float]]:
    """Coefficients c_0..c_N of the Kilbas-Saigo series, each as the triple
    (c_k, sign, log|c_k|).  c_k underflows to 0.0 below about e^-745 while
    its logarithm stays finite; the sign is 0 for a coefficient a pole has
    zeroed.

    A Gamma pole in a numerator factor is an error; a pole in a denominator
    factor terminates the series (all later coefficients are zero).
    """
    a, m, l = params.alpha, params.m, params.l
    terms = [(1.0, 1, 0.0)]
    log_c, sign = 0.0, 1
    for j in range(n_terms):
        if sign == 0:
            terms.append((0.0, 0, -math.inf))
            continue
        num_log, num_sign = signed_log_gamma(a * (j * m + l) + 1.0)
        if num_sign == 0:
            raise GammaPoleError(
                f"Kilbas-Saigo coefficient pole: alpha(jm+l)+1 = "
                f"{a * (j * m + l) + 1.0} at j={j}"
            )
        den_log, den_sign = signed_log_gamma(a * (j * m + l + 1.0) + 1.0)
        if den_sign == 0:
            sign = 0
            terms.append((0.0, 0, -math.inf))
            continue
        log_c += num_log - den_log
        sign *= num_sign * den_sign
        terms.append((sign * math.exp(log_c), sign, log_c))
    return terms


def kilbas_saigo(
    params: KilbasSaigoParams, zs: Sequence[float], n_terms: int = 60
) -> List[float]:
    """Truncated E_{alpha,m,l}(z) at each z; the coefficients are built once.

    Each term is c_k times the running power z^k while |z|^k <= e^709,
    safely inside the float range.  Past that c_k may have underflowed to
    zero while c_k z^k has not, so each later term is formed as
    sign_k exp(log|c_k| + k log|z|) from the coefficient's logarithm; a term
    whose logarithm exceeds the float range is infinite.
    """
    terms = kilbas_saigo_coefficients(params, n_terms)
    coeffs = [c for c, _, _ in terms]
    out = []
    for z in zs:
        log_z = math.log(abs(z)) if z else -math.inf
        n_powers = min(len(terms), math.ceil(709.0 / log_z)) if log_z > 0.0 else len(terms)
        total = 0.0
        zk = 1.0
        for c in coeffs[:n_powers]:
            total += c * zk
            zk *= z
        for k, (_, sign, log_c) in enumerate(terms[n_powers:], n_powers):
            log_term = log_c + k * log_z
            term = math.exp(log_term) if log_term < _LOG_MAX else math.inf
            total += sign * term if z > 0 or k % 2 == 0 else -sign * term
        out.append(total)
    return out


def kilbas_saigo_for_single_term(
    alpha: float, step: float, gamma: float, d: float
) -> Tuple[KilbasSaigoParams, float]:
    """Closed form of the series built from a single derivative term with
    nu = 0: u(x) = c0 x^gamma E_{alpha,m,l}(lam x^step) with m = step/alpha,
    l = (gamma + step - alpha)/alpha and lam = -1/d.

    Covers the constant-coefficient reduction (step = alpha gives m = 1; a
    zero leading exponent then collapses to the plain Mittag-Leffler
    function) and the power-factor reduction.
    """
    if d == 0:
        raise ValueError("term coefficient must be nonzero")
    params = KilbasSaigoParams(
        alpha=alpha, m=step / alpha, l=(gamma + step - alpha) / alpha
    )
    return params, -1.0 / d
