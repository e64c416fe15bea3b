import importlib
import os
import subprocess
import sys
from pathlib import Path

import quasibessel

MODULES = ("characteristic", "equation", "gammafn", "rational", "series", "specialfn")

# the names the package exported when it listed them itself, apart from
# RETIRED_NAMES
EARLIER_NAMES = (
    "CancellationWarning", "CharacteristicRoot", "DenominatorPoleError",
    "DerivativeKind", "DerivativeUndefinedError", "GammaPoleError",
    "KilbasSaigoParams", "QuasiBesselEquation", "RootSearchWarning", "RootStatus",
    "SeriesSolution", "StepPlan", "Term", "ValidationIssue",
    "as_rational", "build_coefficients",
    "caputo_integer_exponents", "characteristic_value", "compute_step", "evaluate",
    "find_roots", "from_constant_coefficients",
    "from_power_factors", "gamma_ratio", "kilbas_saigo", "kilbas_saigo_coefficients",
    "kilbas_saigo_for_single_term", "nu_min_threshold",
    "parse_decimal", "residual", "screen_collisions", "signed_log_gamma",
    "uniqueness_bound", "validate",
)
# earlier names that no solve stage called: validate returns its issues, c0
# comes from the spec alone, the power rule is series._PowerRule, and E_alpha
# is kilbas_saigo with m = 1 and l = 0
RETIRED_NAMES = (
    "ValidationReport", "c0_for_initial_derivative", "frac_derivative_power", "mittag_leffler",
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
    assert len(EARLIER_NAMES) == 34
    namespace: dict = {}
    exec(f"from quasibessel import {', '.join(EARLIER_NAMES)}", namespace)
    assert all(namespace[name] is getattr(quasibessel, name) for name in EARLIER_NAMES)
    star: dict = {}
    exec("from quasibessel import *", star)
    del star["__builtins__"]
    assert set(star) == set(quasibessel.__all__) >= set(EARLIER_NAMES)
    for name in RETIRED_NAMES:
        assert not hasattr(quasibessel, name), name


def test_cold_cli_import_loads_no_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize, which once made up
    # most of the import time that every solve pays first; argparse is for
    # main() alone, and solve_command, which a worker calls, never needs it
    src = Path(quasibessel.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    probe = (
        "import sys, quasibessel.cli; "
        "print(sorted({'argparse', 'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n")
