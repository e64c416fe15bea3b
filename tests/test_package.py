import importlib

import quasibessel

MODULES = ("characteristic", "equation", "gammafn", "rational", "series", "specialfn")

# the names the package exported when it listed them itself
EARLIER_NAMES = (
    "CancellationWarning", "CharacteristicRoot", "DenominatorPoleError",
    "DerivativeKind", "DerivativeUndefinedError", "GammaPoleError",
    "KilbasSaigoParams", "QuasiBesselEquation", "RootSearchWarning", "RootStatus",
    "SeriesSolution", "StepPlan", "Term", "ValidationIssue", "ValidationReport",
    "as_rational", "build_coefficients", "c0_for_initial_derivative",
    "caputo_integer_exponents", "characteristic_value", "compute_step", "evaluate",
    "find_roots", "frac_derivative_power", "from_constant_coefficients",
    "from_power_factors", "gamma_ratio", "kilbas_saigo", "kilbas_saigo_coefficients",
    "kilbas_saigo_for_single_term", "mittag_leffler", "nu_min_threshold",
    "parse_decimal", "residual", "screen_collisions", "signed_log_gamma",
    "uniqueness_bound", "validate",
)


def test_package_all_is_the_module_lists_joined():
    modules = [importlib.import_module(f"quasibessel.{name}") for name in MODULES]
    joined = [name for module in modules for name in module.__all__]
    assert quasibessel.__all__ == joined
    assert len(set(joined)) == len(joined)
    for module in modules:
        for name in module.__all__:
            assert getattr(quasibessel, name) is getattr(module, name), name


def test_every_earlier_public_name_still_imports():
    assert len(EARLIER_NAMES) == 38
    namespace: dict = {}
    exec(f"from quasibessel import {', '.join(EARLIER_NAMES)}", namespace)
    assert all(namespace[name] is getattr(quasibessel, name) for name in EARLIER_NAMES)
    star: dict = {}
    exec("from quasibessel import *", star)
    del star["__builtins__"]
    assert set(star) == set(quasibessel.__all__) >= set(EARLIER_NAMES)
