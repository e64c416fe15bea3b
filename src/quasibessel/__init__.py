"""Fractional power-series solver for quasi-Bessel equations.

Constructs, screens, and evaluates series solutions
u(x) = sum_n c_n x^(gamma + s*n) of

    sum_i d_i x^(alpha_i + p_i) D^alpha_i u(x) + (x^beta - nu^2) u(x) = 0

for Caputo and Riemann-Liouville derivatives, including the reductions of
constant-coefficient and power-factor equations to this form.
"""

from .characteristic import (
    CharacteristicRoot,
    RootSearchWarning,
    RootStatus,
    caputo_integer_exponents,
    characteristic_value,
    find_roots,
    screen_collisions,
)
from .equation import (
    DerivativeKind,
    QuasiBesselEquation,
    Term,
    ValidationIssue,
    ValidationReport,
    from_constant_coefficients,
    from_power_factors,
    nu_min_threshold,
    uniqueness_bound,
    validate,
)
from .gammafn import GammaPoleError, gamma_ratio, signed_log_gamma
from .rational import as_rational, parse_decimal
from .series import (
    CancellationWarning,
    DenominatorPoleError,
    DerivativeUndefinedError,
    SeriesSolution,
    StepPlan,
    build_coefficients,
    c0_for_initial_derivative,
    compute_step,
    evaluate,
    frac_derivative_power,
    residual,
)
from .specialfn import (
    KilbasSaigoParams,
    kilbas_saigo,
    kilbas_saigo_coefficients,
    kilbas_saigo_for_single_term,
    mittag_leffler,
)

__version__ = "0.1.0"

__all__ = [
    "CancellationWarning",
    "CharacteristicRoot",
    "DenominatorPoleError",
    "DerivativeKind",
    "DerivativeUndefinedError",
    "GammaPoleError",
    "KilbasSaigoParams",
    "QuasiBesselEquation",
    "RootSearchWarning",
    "RootStatus",
    "SeriesSolution",
    "StepPlan",
    "Term",
    "ValidationIssue",
    "ValidationReport",
    "as_rational",
    "build_coefficients",
    "c0_for_initial_derivative",
    "caputo_integer_exponents",
    "characteristic_value",
    "compute_step",
    "evaluate",
    "find_roots",
    "frac_derivative_power",
    "from_constant_coefficients",
    "from_power_factors",
    "gamma_ratio",
    "kilbas_saigo",
    "kilbas_saigo_coefficients",
    "kilbas_saigo_for_single_term",
    "mittag_leffler",
    "nu_min_threshold",
    "parse_decimal",
    "residual",
    "screen_collisions",
    "signed_log_gamma",
    "uniqueness_bound",
    "validate",
]
