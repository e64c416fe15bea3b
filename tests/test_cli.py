import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasibessel import (
    QuasiBesselEquation, Term, __version__, characteristic, cli, series, specialfn,
)
from quasibessel.cli import (
    EXIT_NO_ROOTS,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
    solve_command,
)
from quasibessel.gammafn import gamma_ratio, signed_log_gamma

SOLVEBENCH = Path(__file__).resolve().parents[1] / "solvebench"

EXAMPLE1_SPEC = {
    "kind": "caputo",
    "form": "quasi_bessel",
    "terms": [
        {"d": "1.5", "alpha": "1.5", "p": "0"},
        {"d": "-1.2", "alpha": "1.1", "p": "0.8"},
        {"d": "3", "alpha": "0.5", "p": "0.5"},
    ],
    "beta": "2",
    "nu": "2",
    "domain": {"x_min": "0.1", "x_max": "3", "n_points": 30},
}

NOSOL_SPEC = {
    "kind": "riemann_liouville",
    "form": "constant_coefficients",
    "terms": [
        {"d": "1", "alpha": "2.1"},
        {"d": "1", "alpha": "1.5"},
        {"d": "1", "alpha": "0.7"},
    ],
    "domain": {"x_min": "0.1", "x_max": "2", "n_points": 20},
}

ML_SPEC = {
    "kind": "caputo",
    "form": "constant_coefficients",
    "terms": [{"d": "-2", "alpha": "0.7"}],
    "domain": {"x_min": "0.1", "x_max": "1.5", "n_points": 15},
}

# Caputo u' + u = 0 on [0.1, 1]
EXP_SPEC = {
    "kind": "caputo",
    "form": "constant_coefficients",
    "terms": [{"d": "1", "alpha": "1"}],
    "domain": {"x_min": "0.1", "x_max": "1", "n_points": 10},
}


def _order_spec(alpha: str, **fields) -> dict:
    # Caputo D^alpha u + u = 0 on [0.1, 1]
    return dict(EXP_SPEC, terms=[{"d": "1", "alpha": alpha}],
                domain={"x_min": "0.1", "x_max": "1", "n_points": 5}, **fields)


# Caputo D^1.5 u + (x^(3r) - 4) u = 0 with r = 1e308: the step s*r = 3e308
# is inf, so every lattice exponent gamma + n*s past n = 0 is inf
INFINITE_STEP_SPEC = {
    "kind": "caputo",
    "form": "quasi_bessel",
    "terms": [{"d": "1", "alpha": "1.5"}],
    "beta": "3",
    "nu": "2",
    "r": "1e308",
    "domain": {"x_min": "0.1", "x_max": "1", "n_points": 5},
}

# RL -x^2 D^2 u - x D u + (x - 1) u = 0: G(gamma) = -gamma(gamma - 1) -
# gamma - 1 = -gamma^2 - 1 is negative on the whole scan
NO_SIGN_SPEC = {
    "kind": "riemann_liouville",
    "form": "quasi_bessel",
    "terms": [{"d": "-1", "alpha": "2", "p": "0"}, {"d": "-1", "alpha": "1", "p": "0"}],
    "beta": "1",
    "nu": "1",
    "domain": {"x_min": "0.1", "x_max": "1", "n_points": 5},
}


def _example4_spec(x_max: float) -> dict:
    # D_R^0.5 u = 2 x^0.7 u on [x_max/16, x_max]
    return {
        "kind": "riemann_liouville",
        "form": "power_factors",
        "terms": [{"d": "-0.5", "beta_i": "0", "alpha": "0.5"}],
        "delta": "0.7",
        "domain": {"x_min": repr(x_max / 16), "x_max": repr(x_max), "n_points": 16},
    }


def write_spec(tmp_path: Path, spec: dict, name: str = "spec.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_example1_pipeline(tmp_path):
    spec = write_spec(tmp_path, EXAMPLE1_SPEC)
    out = tmp_path / "out"
    assert solve_command(spec, out) == EXIT_OK

    report = (out / "report.txt").read_text()
    assert "s = 1/10" in report
    assert "n_beta = 20" in report
    assert "term 1: 8, term 2: 5" in report
    assert "satisfies the guarantee" in report

    roots = read_csv(out / "roots.csv")
    valid = [r for r in roots if r["status"] == "valid"]
    assert len(valid) == 1
    assert float(valid[0]["gamma"]) == pytest.approx(2.1995, abs=5e-4)

    # per-root files exist only for the valid root (index 1)
    assert (out / "coefficients_1.csv").exists()
    assert (out / "solution_1.csv").exists()
    assert (out / "residual_1.csv").exists()
    assert not (out / "coefficients_0.csv").exists()

    sols = read_csv(out / "solution_1.csv")
    assert len(sols) == 30
    assert float(sols[0]["x"]) == pytest.approx(0.1)
    assert float(sols[-1]["x"]) == pytest.approx(3.0)


def test_nosol_example_statuses(tmp_path):
    spec = write_spec(tmp_path, NOSOL_SPEC)
    out = tmp_path / "out"
    assert solve_command(spec, out) == EXIT_OK  # the largest root survives

    rows = read_csv(out / "roots.csv")
    by_gamma = {round(float(r["gamma"]), 6): r for r in rows}
    assert by_gamma[-0.9]["status"] == "collision_invalid"
    assert by_gamma[-0.9]["collision_step"] == "10"
    assert by_gamma[0.1]["status"] == "collision_invalid"
    assert by_gamma[0.1]["collision_step"] == "10"
    assert by_gamma[1.1]["status"] == "valid"
    assert by_gamma[1.1]["collision_step"] == ""


def test_shifted_leading_term_is_fatal(tmp_path):
    bad = dict(EXAMPLE1_SPEC)
    bad["terms"] = [
        {"d": "1.5", "alpha": "1.5", "p": "0.8"},
        {"d": "-1.2", "alpha": "1.1", "p": "0"},
        {"d": "3", "alpha": "0.5", "p": "0.5"},
    ]
    spec = write_spec(tmp_path, bad)
    assert solve_command(spec, tmp_path / "out") == EXIT_VALIDATION


# Caputo D^1.5 with p = 0.5 leads; a d = 0 unshifted D^1.5 term, which the
# term sort puts first, is absent and must not hide the shift
_SHIFTED_LEADING_SPEC = {
    "kind": "caputo",
    "form": "quasi_bessel",
    "terms": [{"d": "1", "alpha": "1.5", "p": "0.5"}, {"d": "1", "alpha": "0.5", "p": "0"}],
    "beta": "1",
    "nu": "1",
    "domain": {"x_min": "0.1", "x_max": "1", "n_points": 5},
}


def test_zero_term_does_not_hide_a_shifted_leading_term(tmp_path, capsys):
    zero = {"d": "0", "alpha": "1.5", "p": "0"}
    lines = []
    for terms in (_SHIFTED_LEADING_SPEC["terms"], [zero, *_SHIFTED_LEADING_SPEC["terms"]]):
        spec = dict(_SHIFTED_LEADING_SPEC, terms=terms)
        out = tmp_path / "out"
        assert solve_command(write_spec(tmp_path, spec), out) == EXIT_VALIDATION
        errors = [x for x in capsys.readouterr().err.splitlines() if x.startswith("error:")]
        assert len(errors) == 1 and not out.exists()
        lines.append(errors[0])
    assert lines[0] == lines[1]
    assert lines[0].startswith(
        "error: [E_SHIFTED_LEADING_TERM] the highest-order derivative (alpha=1.5) carries "
        "a positive shift p=1/2;"
    )


_ZERO_LEADING_SPECS = [
    # the only term is zero, so G is identically 0 and every recursion
    # denominator vanishes
    {
        "kind": "caputo",
        "form": "constant_coefficients",
        "terms": [{"d": "0", "alpha": "0.7"}],
        "domain": {"x_min": "0.1", "x_max": "1", "n_points": 5},
    },
    # a zero D^1.5 term leaves x^0.5 D^0.5 u + (x - 0.04) u = 0, a lower-order
    # equation than the spec states
    {
        "kind": "caputo",
        "form": "quasi_bessel",
        "terms": [{"d": "0", "alpha": "1.5", "p": "0"}, {"d": "1", "alpha": "0.5", "p": "0"}],
        "beta": "1",
        "nu": "0.2",
        "domain": {"x_min": "0.1", "x_max": "1", "n_points": 5},
    },
]


@pytest.mark.parametrize("spec", _ZERO_LEADING_SPECS)
def test_zero_leading_coefficient_is_fatal(tmp_path, capsys, spec):
    out = tmp_path / "out"
    assert solve_command(write_spec(tmp_path, spec), out) == EXIT_VALIDATION
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: [E_ZERO_LEADING_COEFFICIENT] the highest-order term (alpha=")
    assert not out.exists()


def test_zero_coefficient_below_the_leading_term_is_legal(tmp_path, capsys):
    # RL D^1.5 u + 0 D^0.5 u + u = 0 is D^1.5 u + u = 0
    spec = dict(NOSOL_SPEC, terms=[{"d": "1", "alpha": "1.5"}, {"d": "0", "alpha": "0.5"}])
    assert solve_command(write_spec(tmp_path, spec), tmp_path / "out") == EXIT_OK
    assert capsys.readouterr().err == ""


def test_malformed_spec_files(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert solve_command(missing, tmp_path / "out") == EXIT_VALIDATION

    not_json = tmp_path / "bad.json"
    not_json.write_text("{not json")
    assert solve_command(not_json, tmp_path / "out") == EXIT_VALIDATION

    no_beta = dict(EXAMPLE1_SPEC)
    del no_beta["beta"]
    assert solve_command(write_spec(tmp_path, no_beta), tmp_path / "out") == EXIT_VALIDATION

    # each is rejected with a one-line error, not a traceback
    domain = EXAMPLE1_SPEC["domain"]
    bad_fields = [
        ("options", {"c0": "abc"}),
        ("options", {"eps_tail": "zz"}),
        ("options", {"eps_tail": "0"}),
        ("options", {"n_terms_max": "x"}),
        ("options", {"n_terms_max": "0"}),
        ("options", {"n_terms_max": "-5"}),
        ("options", [1, 2]),
        ("domain", dict(domain, n_points="abc")),
        ("domain", dict(domain, n_points=4.7)),
        ("domain", 5),
        ("domain", dict(domain, x_min="nan")),
        ("domain", dict(domain, x_max="inf")),
        ("options", {"c0": "inf"}),
        ("options", {"c0": "0"}),
        ("options", {"c0": "-0"}),
        ("options", {"eps_tail": "inf"}),
        ("kind", "foo"),
        ("kind", 5),
        ("terms", [{"d": "1", "alpha": "0", "p": "0"}]),
        ("terms", []),
        ("beta", "0"),
        # example 1 has nu = 2, which neither reduction form accepts
        ("form", "constant_coefficients"),
        ("form", "power_factors"),
        ("form", "bessel"),
        ("domain", dict(domain, x_min="0")),
        ("domain", dict(domain, x_max="0.05")),
        ("domain", dict(domain, n_points=0)),
    ]
    for key, value in bad_fields:
        capsys.readouterr()
        spec = write_spec(tmp_path, dict(EXAMPLE1_SPEC, **{key: value}))
        assert solve_command(spec, tmp_path / "out") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if key == "form" and value != "bessel":
            assert err == f"error: {value} form requires nu = 0\n"

    # values that the equation's own checks reject, each with its exact line
    term = EXAMPLE1_SPEC["terms"][0]
    ex4 = _example4_spec(2.0)
    term4 = ex4["terms"][0]
    bad_values = [
        (dict(EXAMPLE1_SPEC, terms=[dict(term, d="inf")]),
         "term coefficient must be finite, got inf"),
        (dict(EXAMPLE1_SPEC, terms=[dict(term, alpha="-1")]),
         "derivative order must be finite and >= 0, got -1.0"),
        (dict(EXAMPLE1_SPEC, terms=[dict(term, p="-0.5")]),
         "shifting index must be >= 0, got -1/2"),
        (dict(EXAMPLE1_SPEC, beta="-1"), "beta must be >= 0, got -1"),
        (dict(EXAMPLE1_SPEC, nu="1e200"), "nu_squared must be finite and >= 0, got inf"),
        (dict(EXAMPLE1_SPEC, r="0"), "common factor r must be finite and > 0, got 0.0"),
        (dict(ex4, terms=[dict(term4, beta_i="1")]),
         "need alpha_1 >= beta_1, got alpha_1=1/2, beta_1=1"),
        (dict(ex4, delta="-1"), "delta must be >= 0, got -1"),
        (dict(ex4, terms=[term4, dict(term4, alpha="0")]),
         "derivative orders must be positive, got 0"),
        (dict(ML_SPEC, terms=[{"d": "1", "alpha": "0"}]),
         "highest derivative order must be positive, got 0"),
    ]
    for spec, message in bad_values:
        capsys.readouterr()
        assert solve_command(write_spec(tmp_path, spec), tmp_path / "out") == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: bad equation spec: {message}\n"

    capsys.readouterr()
    as_list = write_spec(tmp_path, [EXAMPLE1_SPEC])
    assert solve_command(as_list, tmp_path / "out") == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: spec file must contain a JSON object\n"

    capsys.readouterr()
    out = tmp_path / "capped"
    capped = dict(EXAMPLE1_SPEC, options={"n_terms_max": 0})
    assert solve_command(write_spec(tmp_path, capped), out) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: n_terms_max must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "spec, error",
    [
        (dict(EXP_SPEC, Nu="2"),
         "unknown field 'Nu' in the top level of a constant_coefficients spec"),
        (dict(EXP_SPEC, beta="1"),
         "unknown field 'beta' in the top level of a constant_coefficients spec"),
        (dict(EXP_SPEC, options={"n_terms_mx": 3}), "unknown field 'n_terms_mx' in 'options'"),
        (dict(EXP_SPEC, domain=dict(EXP_SPEC["domain"], dx="0.1")),
         "unknown field 'dx' in 'domain'"),
        (dict(_example4_spec(2.0), terms=[{"d": "-0.5", "alpha": "0.5", "p": "1"}]),
         "unknown field 'p' in a term of a power_factors spec"),
        (dict(EXAMPLE1_SPEC, terms=[{"d": "1.5", "alpha": "1.5", "beta_i": "0"}]),
         "unknown field 'beta_i' in a term of a quasi_bessel spec"),
        (dict(EXAMPLE1_SPEC, delta="0"),
         "unknown field 'delta' in the top level of a quasi_bessel spec"),
        (dict(EXP_SPEC, terms=[3]), "each term must be a JSON object, got 3"),
    ],
    ids=[
        "misspelt-top-level", "other-forms-top-level", "misspelt-option", "domain",
        "other-forms-term", "quasi-bessel-term", "quasi-bessel-top-level", "term-not-an-object",
    ],
)
def test_field_that_the_form_does_not_read_exits_2(tmp_path, capsys, spec, error):
    out = tmp_path / "out"
    assert solve_command(write_spec(tmp_path, spec), out) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "base, top_fields, term_fields",
    [
        (EXAMPLE1_SPEC, ["delta"], ["beta_i"]),
        (EXP_SPEC, ["beta", "delta"], ["p", "beta_i"]),
        (_example4_spec(2.0), ["beta"], ["p"]),
    ],
    ids=["quasi_bessel", "constant_coefficients", "power_factors"],
)
def test_a_field_that_only_other_forms_read_exits_2(
    tmp_path, capsys, base, top_fields, term_fields
):
    form = base["form"]
    cases = [
        (dict(base, **{name: "1"}), f"unknown field {name!r} in the top level of a {form} spec")
        for name in top_fields
    ] + [
        (dict(base, terms=[dict(base["terms"][0], **{name: "0"})]),
         f"unknown field {name!r} in a term of a {form} spec")
        for name in term_fields
    ]
    for spec, error in cases:
        assert solve_command(write_spec(tmp_path, spec), tmp_path / "out") == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {error}\n"


# every field name of every level, a misspelt one, and values of each JSON
# type as JSON texts.  The decimals are coarse: a decimal order or index with
# many digits makes a lattice finer than the term cap, which is still slow
# to fail.
_FUZZ_NAMES = (
    "kind", "form", "terms", "beta", "delta", "nu", "r", "domain", "options", "d", "alpha",
    "p", "beta_i", "x_min", "x_max", "n_points", "c0", "n_terms_max", "eps_tail", "Nu",
)
_FUZZ_VALUES = (
    "null", "true", "[]", "{}", "3", '"nan"', '"inf"', '"1e999"', '"-1"', '"0"', '"0.5"',
    '"2"', '"2.5"', '"abc"', '"caputo"', '"riemann_liouville"', '"quasi_bessel"',
    '"constant_coefficients"', '"power_factors"',
)


@st.composite
def _mutated_spec(draw):
    """A spec of each form with one or two fields replaced, deleted or added,
    each at a random level.  Most mutations pick a field that the level has,
    so that some specs still solve."""
    base = draw(st.sampled_from((EXAMPLE1_SPEC, EXP_SPEC, NOSOL_SPEC, _example4_spec(2.0))))
    spec = json.loads(json.dumps(dict(base, options={"n_terms_max": 300})))
    for _ in range(draw(st.integers(1, 2))):
        terms = spec.get("terms") if isinstance(spec.get("terms"), list) else []
        levels = [spec, spec.get("domain"), spec.get("options"), *terms]
        level = draw(st.sampled_from([v for v in levels if isinstance(v, dict)]))
        names = sorted(level) if level and draw(st.integers(0, 3)) else _FUZZ_NAMES
        name = draw(st.sampled_from(names))
        if name in level and not draw(st.integers(0, 3)):
            del level[name]
        else:
            level[name] = json.loads(draw(st.sampled_from(_FUZZ_VALUES)))
    return spec


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(spec=_mutated_spec())
def test_a_mutated_spec_exits_with_its_documented_code(spec):
    text = json.dumps(spec)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "spec.json", Path(tmp) / "out"
        path.write_text(text)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = solve_command(path, out)
        lines = err.getvalue().splitlines(keepends=True)
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NO_ROOTS, EXIT_NUMERICAL)
        assert all(line.startswith("error: ") and line.endswith("\n") for line in lines)
        # one line on a nonzero exit, or one per fatal issue on exit 2
        fatal = [line for line in lines if line.startswith("error: [E_")]
        if code == EXIT_VALIDATION and fatal:
            assert fatal == lines
        else:
            assert len(lines) == (code != EXIT_OK), lines
        if code == EXIT_VALIDATION:
            assert not out.exists()
    # the reader reads copies: the spec it is given stays as it was
    with contextlib.suppress(cli.SpecFileError):
        cli.read_spec(spec)
    assert json.dumps(spec) == text


def test_single_grid_point_is_x_min(tmp_path):
    out = tmp_path / "out"
    spec = dict(EXAMPLE1_SPEC, domain=dict(EXAMPLE1_SPEC["domain"], n_points=1))
    assert solve_command(write_spec(tmp_path, spec), out) == EXIT_OK
    for name in ("solution_1.csv", "residual_1.csv"):
        (row,) = read_csv(out / name)
        assert row["x"] == "0.10000000000000001"


def test_root_index_restriction(tmp_path):
    spec = write_spec(tmp_path, NOSOL_SPEC)
    out = tmp_path / "out"
    assert solve_command(spec, out, root_index=2) == EXIT_OK
    assert (out / "coefficients_2.csv").exists()
    # index 0 is collision-invalid: not selectable
    assert solve_command(spec, tmp_path / "out2", root_index=0) == EXIT_NO_ROOTS


def test_no_selected_root_still_writes_roots_and_report(tmp_path, capsys):
    out = tmp_path / "out"
    assert solve_command(write_spec(tmp_path, NOSOL_SPEC), out, root_index=0) == EXIT_NO_ROOTS
    assert capsys.readouterr().err == "error: --root 0 is not a valid root index\n"
    assert sorted(p.name for p in out.iterdir()) == ["report.txt", "roots.csv"]
    assert len(read_csv(out / "roots.csv")) == 3
    report = (out / "report.txt").read_text()
    assert "roots:" in report
    assert "series solutions:" not in report


def test_unconverged_series_exits_numerical(tmp_path, capsys):
    spec = dict(EXAMPLE1_SPEC, options={"n_terms_max": 1})
    out = tmp_path / "out"
    assert solve_command(write_spec(tmp_path, spec), out) == EXIT_NUMERICAL
    assert capsys.readouterr().err == "error: no series reached the tail tolerance\n"
    for name in ("coefficients_1.csv", "solution_1.csv", "residual_1.csv"):
        assert (out / name).exists()
    report = (out / "report.txt").read_text()
    assert "  root [1]: gamma = " in report and "converged = False" in report
    assert "[W_NOT_CONVERGED] root 1: truncation cap 1 reached" in report
    # RL 1e-3 D^0.5 u + (x - 0.0009) u = 0: the recursion stops at N = 126,
    # long before the cap, because c_126 passed 1e280
    spec = {
        "kind": "riemann_liouville",
        "form": "quasi_bessel",
        "terms": [{"d": "1e-3", "alpha": "0.5", "p": "0"}],
        "beta": "1",
        "nu": "0.03",
        "domain": {"x_min": "0.1", "x_max": "0.5", "n_points": 5},
    }
    assert solve_command(write_spec(tmp_path, spec), out) == EXIT_NUMERICAL
    assert capsys.readouterr().err == "error: no series reached the tail tolerance\n"
    report = (out / "report.txt").read_text()
    assert "  root [0]: gamma = 0.5254980607542088  N = 126  " in report
    assert (
        "[W_NOT_CONVERGED] root 0: coefficient c_126 passed the blow-up limit 1e+280 "
        "before the tail fell below eps_tail\n"
    ) in report
    assert "truncation cap" not in report


def test_uniqueness_bound_overflow_reported_as_inf(tmp_path):
    spec = dict(EXAMPLE1_SPEC, domain=dict(EXAMPLE1_SPEC["domain"], x_max="1e300"))
    out = tmp_path / "out"
    # the series cannot be summed at x = 1e300, but the report is still written
    assert solve_command(write_spec(tmp_path, spec), out) == EXIT_NUMERICAL
    report = (out / "report.txt").read_text()
    assert "uniqueness bound at b = 1e+300: inf; nu^2 does not exceed it" in report
    # x**gamma overflows at the second grid point; the line names the stage and x
    assert "[W_OVERFLOW] root 1: series overflows at x = 3.4482758620689656e+298\n" in report


def test_exact_zero_of_G_is_written_as_one_root(tmp_path):
    # RL x^8.5 D^8.5 u + 3 x^0.5 D^0.5 u + x u = 0: both denominators of G
    # count as Gamma poles within TAU_POLE of gamma = -0.5, so G is exactly
    # 0.0 at the fine point -0.49999999902499997.  That zero is one root:
    # the fine pair below it, negative and 0.0, is not bisected into another
    spec = {
        "kind": "riemann_liouville",
        "form": "quasi_bessel",
        "terms": [{"d": "1", "alpha": "8.5", "p": "0"}, {"d": "3", "alpha": "0.5", "p": "0"}],
        "beta": "1",
        "nu": "0",
        "domain": {"x_min": "0.1", "x_max": "1", "n_points": 5},
    }
    out = tmp_path / "out"
    assert solve_command(write_spec(tmp_path, spec), out) == EXIT_OK
    rows = read_csv(out / "roots.csv")
    near = [r for r in rows if abs(float(r["gamma"]) + 0.5) <= 1e-9]
    assert [(r["gamma"], r["status"], r["G"]) for r in near] == [
        ("-0.49999999902499997", "valid", "0"),
    ]
    assert len(rows) == 9 and all(r["status"] == "valid" for r in rows)


def test_root_search_overflow_exits_numerical(tmp_path, capsys):
    # Gamma(1+gamma)/Gamma(1+gamma-400.5) overflows on the scan grid
    spec = dict(EXAMPLE1_SPEC, terms=[{"d": "1", "alpha": "400.5", "p": "0"}])
    out = tmp_path / "out"
    assert solve_command(write_spec(tmp_path, spec), out) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("error: numerical failure") and "overflow" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_root_search_without_sign_change_exits_no_roots(tmp_path, capsys):
    # G = -gamma^2 - 1 < 0, so the window doubles three times and no root is
    # found
    out = tmp_path / "out"
    assert solve_command(write_spec(tmp_path, NO_SIGN_SPEC), out) == EXIT_NO_ROOTS
    assert capsys.readouterr().err == (
        "error: no valid characteristic roots; no series solution exists\n"
    )
    assert read_csv(out / "roots.csv") == []
    report = (out / "report.txt").read_text()
    assert (
        "  [W_ROOT_SEARCH] G(gamma) is not monotone positive at the top of the last "
        "scan window (-1, 127] after 3 doublings; roots above it are not searched\n"
    ) in report
    assert (
        "  [W_ROOT_SEARCH] no sign change of G(gamma) found on (-1, 127] with 10000 samples\n"
    ) in report


def test_cancellation_warning_is_reported(tmp_path, capsys):
    # Caputo u' + u = 0 on [0.1, 40]: the series of exp(-x) at x = 40 sums
    # terms up to 40^40/40! ~ 1e16 to a value of 4e-18; the one series
    # converged but lost its digits, so it is no success
    spec = {
        "kind": "caputo",
        "form": "constant_coefficients",
        "terms": [{"d": "1", "alpha": "1"}],
        "domain": {"x_min": "0.1", "x_max": "40", "n_points": 10},
    }
    out = tmp_path / "out"
    assert solve_command(write_spec(tmp_path, spec), out) == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "error: every converged series lost its digits to cancellation\n"
    )
    report = (out / "report.txt").read_text()
    assert report.count("[W_CANCELLATION]") == 1
    assert (
        "  [W_CANCELLATION] root 0: series evaluation lost more than 15 digits to "
        "cancellation (x too large for this truncation)\n"
    ) in report


def _decay_spec(lam: int) -> dict:
    # (1/lam) u' + u = 0: u = exp(-lam x), whose series terms reach
    # lam^n x^n / n! ~ exp(lam x) before they cancel
    return {
        "kind": "caputo",
        "form": "constant_coefficients",
        "terms": [{"d": repr(1 / lam), "alpha": "1"}],
        "domain": {"x_min": "0.1", "x_max": "1.2", "n_points": 12},
        "options": {"n_terms_max": 5000},
    }


def test_nu_below_threshold_is_reported(tmp_path, capsys):
    # example 1's Caputo terms at nu = 0.5: both roots lie below the Caputo
    # floor, and nu^2 = 0.25 is below the threshold 0.846 of the guarantee
    out = tmp_path / "out"
    spec = write_spec(tmp_path, dict(EXAMPLE1_SPEC, nu="0.5"))
    assert solve_command(spec, out) == EXIT_NO_ROOTS
    capsys.readouterr()
    report = (out / "report.txt").read_text()
    assert (
        "\nconvergence threshold: nu^2_min = 0.8462843753216345; nu^2 = 0.25 "
        "is below the guarantee\n"
    ) in report
    assert (
        "\n  [W_NU_BELOW_THRESHOLD] nu^2 is below the convergence threshold; the series "
        "may still converge but it is not guaranteed\n"
    ) in report


def test_threshold_inapplicable_is_reported(tmp_path, capsys):
    # Caputo u'' + u = 0 has no pure term of fractional order
    spec = dict(EXP_SPEC, terms=[{"d": "1", "alpha": "2"}])
    out = tmp_path / "out"
    assert solve_command(write_spec(tmp_path, spec), out) == EXIT_OK
    assert capsys.readouterr().err == ""
    report = (out / "report.txt").read_text()
    reason = "no pure Bessel term with fractional order"
    assert f"\nconvergence threshold: inapplicable ({reason})\n" in report
    assert f"\n  [W_THRESHOLD_INAPPLICABLE] {reason}\n" in report


def test_no_oracle_is_reported(tmp_path, capsys):
    out = tmp_path / "out"
    assert solve_command(write_spec(tmp_path, EXAMPLE1_SPEC), out, oracle=True) == EXIT_OK
    assert capsys.readouterr().err == ""
    report = (out / "report.txt").read_text()
    assert "oracle:" not in report
    assert (
        "\n  [W_NO_ORACLE] no closed-form oracle applies to this equation "
        "(needs a single derivative term with p = 0 and nu = 0)\n"
    ) in report


def _points_spec(n_points: int) -> dict:
    return dict(EXP_SPEC, domain=dict(EXP_SPEC["domain"], n_points=n_points))


def _tiny_r_spec(beta: str, r: str) -> dict:
    # RL D^1.5 u + (x^(beta r) - 0.49) u = 0: the step s*r = beta*r is so
    # small that the collision screening cannot count the steps between the
    # roots
    return {
        "kind": "riemann_liouville",
        "form": "quasi_bessel",
        "terms": [{"d": "1", "alpha": "1.5", "p": "0"}],
        "beta": beta,
        "nu": "0.7",
        "r": r,
        "domain": {"x_min": "0.1", "x_max": "1", "n_points": 5},
    }


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    # python -m quasibessel.cli in its own process, on this tree's package
    src = Path(cli.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-m", "quasibessel.cli", *args], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )


def test_cli_process_prints_version_and_solves(tmp_path):
    done = _run_cli("--version")
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    assert done.stdout == f"quasibessel {__version__}\n"
    out = tmp_path / "out"
    done = _run_cli("solve", str(write_spec(tmp_path, EXP_SPEC)), "-o", str(out))
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    assert (out / "roots.csv").is_file()


@pytest.mark.parametrize(
    "spec, target, code, error",
    [
        (None, "out", EXIT_VALIDATION, "cannot read spec file: "),
        ("not json {", "out", EXIT_VALIDATION, "spec file is not valid JSON: "),
        (b"\xff", "out", EXIT_VALIDATION, "spec file is not valid JSON: "),
        ("[" * 100000 + "]" * 100000, "out", EXIT_VALIDATION, "spec file is not valid JSON: "),
        (EXP_SPEC, "afile", EXIT_VALIDATION, "cannot write output: "),
        (dict(EXP_SPEC, options={"c0": "0"}), "out", EXIT_VALIDATION, "c0 must be finite"),
        (dict(EXP_SPEC, Nu="2"), "out", EXIT_VALIDATION, "unknown field 'Nu' in the top level"),
        (NO_SIGN_SPEC, "out", EXIT_NO_ROOTS, "no valid characteristic roots"),
        (dict(EXP_SPEC, options={"n_terms_max": 1}), "out", EXIT_NUMERICAL, "no series reached"),
        (INFINITE_STEP_SPEC, "out", EXIT_NUMERICAL, "every valid root failed numerically"),
        (_points_spec(10**18), "out", EXIT_VALIDATION, "n_points must be at most 1000000"),
        (_tiny_r_spec("1", "1e-310"), "out", EXIT_NUMERICAL, "every valid root failed"),
        (_tiny_r_spec("0.5", "5e-324"), "out", EXIT_NUMERICAL, "every valid root failed"),
    ],
    ids=[
        "missing-spec", "not-json", "not-utf8", "nested-too-deep", "output-is-a-file", "zero-c0",
        "unknown-field", "no-sign-change", "one-term-cap", "infinite-exponent", "too-many-points",
        "step-count-past-float-range", "zero-step",
    ],
)
def test_cli_process_failure_prints_one_error_line(tmp_path, spec, target, code, error):
    path = tmp_path / "spec.json"
    if isinstance(spec, bytes):
        path.write_bytes(spec)
    elif spec is not None:
        path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    (tmp_path / "afile").write_text("keep")
    done = _run_cli("solve", str(path), "-o", str(tmp_path / target))
    assert done.returncode == code, done.stderr
    assert done.stderr.startswith(f"error: {error}") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "spec",
    [
        _order_spec("171.5", r="1e300"),
        dict(NO_SIGN_SPEC, terms=[{"d": "1", "alpha": "1e300", "p": "0"}], nu="0"),
    ],
    ids=["r", "alpha"],
)
def test_an_absurd_order_exits_2_at_once(tmp_path, capsys, spec):
    # validation stops it before the root list, which grows with the order:
    # closed-form roots alpha - k, and Caputo integers below ceil(alpha)
    eq = cli.read_spec(spec)[0]
    assert [i.code for i in cli.validate(eq) if i.severity == "fatal"] == ["E_ORDER_TOO_LARGE"]
    out = tmp_path / "out"
    start = time.perf_counter()
    assert solve_command(write_spec(tmp_path, spec), out) == EXIT_VALIDATION
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        f"error: [E_ORDER_TOO_LARGE] the highest derivative order is {eq.alpha1!r}, above "
        "the limit 1000: the root list grows with the order\n"
    )
    assert not out.exists()


def test_too_many_grid_points_exit_2_at_once(tmp_path, capsys):
    # the limit is checked before the grid is built
    out = tmp_path / "out"
    start = time.perf_counter()
    assert solve_command(write_spec(tmp_path, _points_spec(10**18)), out) == EXIT_VALIDATION
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        f"error: n_points must be at most {cli.MAX_POINTS}, got {10**18}\n"
    )
    assert not out.exists()
    assert len(cli.read_spec(_points_spec(cli.MAX_POINTS))[2]) == cli.MAX_POINTS


def test_an_exponent_beyond_the_float_range_fails_its_root(tmp_path, capsys):
    out = tmp_path / "out"
    assert solve_command(write_spec(tmp_path, INFINITE_STEP_SPEC), out) == EXIT_NUMERICAL
    assert capsys.readouterr().err == "error: every valid root failed numerically\n"
    report = (out / "report.txt").read_text()
    assert "  s = 3 in units of r;  step s*r = inf\n" in report
    assert "[W_OVERFLOW] root 1: caputo D^1.5 of x^inf overflows\n" in report
    assert sorted(p.name for p in out.iterdir()) == ["report.txt", "roots.csv"]


@pytest.mark.parametrize("alpha", ["171.5", "400.5"])
def test_an_order_past_gammas_range_fails_numerically(tmp_path, capsys, alpha):
    # Gamma(n_m0) overflows in the threshold, and Gamma(1 + j)/Gamma(1 + j -
    # alpha) in G at the Caputo integer exponents j above about 170
    out = tmp_path / "out"
    assert solve_command(write_spec(tmp_path, _order_spec(alpha)), out) == EXIT_NUMERICAL
    assert capsys.readouterr().err == "error: every valid root failed numerically\n"
    report = (out / "report.txt").read_text()
    assert "convergence threshold: nu^2_min = inf; nu^2 = 0.0 is below the guarantee" in report
    assert "[W_NU_BELOW_THRESHOLD]" in report
    rows = read_csv(out / "roots.csv")
    infinite = [row for row in rows if math.isinf(float(row["G"]))]
    assert infinite and all(float(row["gamma"]).is_integer() for row in infinite)
    for row in infinite:
        g = mp.mpf(row["gamma"])
        # the sign of d Gamma(1 + g)/Gamma(1 + g - alpha), with d = 1
        exact = mp.gamma(1 + g) * mp.rgamma(1 + g - mp.mpf(alpha))
        assert (float(row["G"]) > 0) == (exact > 0), row
    # every other cell is characteristic_value's
    eq = cli.read_spec(_order_spec(alpha))[0]
    for row in rows:
        if row not in infinite:
            assert float(row["G"]) == characteristic.characteristic_value(eq, float(row["gamma"]))


def test_an_infinite_g_cell_takes_the_sign_of_d_and_both_gammas():
    # Caputo D^400.5: Gamma(1 + gamma)/Gamma(1 + gamma - 400.5) overflows at
    # these gammas, with Gamma(-99.25) > 0 and Gamma(-98.75) < 0
    for d in (1.0, -2.0):
        spec = dict(_order_spec("400.5"), terms=[{"d": repr(d), "alpha": "400.5"}])
        eq = cli.read_spec(spec)[0]
        for gamma in (300.0, 300.25, 300.75):
            with pytest.raises(OverflowError):
                characteristic.characteristic_value(eq, gamma)
            exact = d * mp.gamma(1 + gamma) * mp.rgamma(1 + gamma - mp.mpf("400.5"))
            assert cli._g_cell(eq, gamma) == math.copysign(math.inf, exact), (d, gamma)


# cli._g_cell as it was when it asked characteristic_value first and summed
# G itself only after an OverflowError, verbatim apart from the name, the
# docstring and the module prefixes
def _g_cell_with_fallback(eq, gamma):
    try:
        return characteristic.characteristic_value(eq, gamma)
    except OverflowError:
        pass
    total = -eq.nu_squared
    for i in eq.pure_indices:
        t = eq.terms[i]
        try:
            q = gamma_ratio(gamma, 0.0, t.alpha)
        except OverflowError:
            x = 1.0 + gamma
            q = signed_log_gamma(x)[1] * signed_log_gamma(x - t.alpha)[1] * math.inf
        total += t.d * q
    return total


# orders of 171.5 and above overflow Gamma(1 + gamma)/Gamma(1 + gamma - alpha)
# at the Caputo integer exponents and near them
_G_ORDERS = st.one_of(
    st.floats(1e-3, 3.0), st.sampled_from((1.0, 2.0, 171.5, 200.25, 400.5, 999.5))
)


@st.composite
def _g_cell_case(draw):
    alphas = draw(st.lists(_G_ORDERS, min_size=1, max_size=3))
    terms = tuple(
        Term(draw(st.floats(-3.0, 3.0)), a, draw(st.sampled_from(("0", "0", "0.5"))))
        for a in alphas
    )
    eq = QuasiBesselEquation(terms=terms, beta="1", nu_squared=draw(st.floats(0.0, 50.0)))
    gamma = draw(st.one_of(
        st.floats(-1.0, 1200.0, exclude_min=True),
        st.integers(0, 1000).map(float),
        st.builds(lambda j, f: j + f, st.integers(150, 1000), st.sampled_from((0.25, 0.5, 0.75))),
    ))
    return eq, gamma


def _cell_outcome(fn, eq, gamma):
    try:
        return fn(eq, gamma).hex()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


# in the examples G overflows: one ratio gives -inf, and two give +inf
@settings(max_examples=400, derandomize=True, database=None)
@given(case=_g_cell_case())
@example(case=(QuasiBesselEquation(terms=(Term(-2.0, 400.5),), beta="1"), 300.25))
@example(case=(QuasiBesselEquation(terms=(Term(1.0, 171.5), Term(1.0, 200.25)), beta="1"), 180.0))
def test_g_cell_is_bit_identical_to_the_fallback_form(case):
    eq, gamma = case
    assert _cell_outcome(cli._g_cell, eq, gamma) == _cell_outcome(_g_cell_with_fallback, eq, gamma)


def test_each_roots_csvs_are_written_before_the_next_root_is_built(tmp_path, monkeypatch):
    # a spec with several roots holds one root's CSV texts at a time
    out = tmp_path / "out"
    on_disk = []
    build = cli.build_coefficients

    def recording_build(*args, **kwargs):
        on_disk.append(sorted(p.name for p in out.iterdir()) if out.exists() else [])
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "build_coefficients", recording_build)
    assert solve_command(write_spec(tmp_path, CAPUTO_TWO_TERM_SPEC), out) == EXIT_OK
    # roots 1 and 3 (gamma = 0 and 1) are the valid ones
    assert on_disk == [[], ["coefficients_1.csv", "residual_1.csv", "solution_1.csv"]]
    assert sorted(p.name for p in out.iterdir()) == [
        "coefficients_1.csv", "coefficients_3.csv", "report.txt",
        "residual_1.csv", "residual_3.csv", "roots.csv", "solution_1.csv", "solution_3.csv",
    ]


@pytest.mark.parametrize("lam", [600, 700])
def test_overflowing_series_fails_its_root(tmp_path, capsys, lam):
    # the terms' products overflow to +-inf at x = 1.2 although no pow does
    out = tmp_path / "out"
    assert solve_command(write_spec(tmp_path, _decay_spec(lam)), out, oracle=True) == EXIT_NUMERICAL
    assert capsys.readouterr().err == "error: every valid root failed numerically\n"
    assert sorted(p.name for p in out.iterdir()) == ["report.txt", "roots.csv"]
    report = (out / "report.txt").read_text()
    assert "[W_OVERFLOW] root 0: series overflows at x = 1.2" in report


@pytest.mark.parametrize("x_max", [4.0, 5.0, 8.0])
def test_underflowing_coefficient_fails_its_root(tmp_path, capsys, x_max):
    # c_379 underflows below the normal range; at x_max = 5 and 8 its term
    # still exceeds the tail tolerance, so the truncation could not be trusted
    out = tmp_path / "out"
    code = solve_command(write_spec(tmp_path, _example4_spec(x_max)), out, oracle=True)
    report = (out / "report.txt").read_text()
    if x_max == 4.0:
        assert code == EXIT_OK
        return
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err == "error: every valid root failed numerically\n"
    assert "[W_UNDERFLOW] root 0: coefficient underflow at n=379" in report
    assert "[W_OVERFLOW]" not in report


def _oracle_value(report: str) -> float:
    (line,) = [line for line in report.splitlines() if "oracle:" in line]
    return float(line.rsplit(" = ", 1)[1])


def test_oracle_reports_a_nan_difference(tmp_path, monkeypatch):
    real = cli.kilbas_saigo

    def nan_at_last_point(params, zs, n_terms):
        return real(params, zs, n_terms)[:-1] + [float("nan")]

    monkeypatch.setattr(cli, "kilbas_saigo", nan_at_last_point)
    out = tmp_path / "out"
    assert solve_command(write_spec(tmp_path, ML_SPEC), out, oracle=True) == EXIT_OK
    assert math.isnan(_oracle_value((out / "report.txt").read_text()))


def test_oracle_checks_a_series_whose_closed_form_powers_overflow(tmp_path):
    # u = exp(500 x), up to e^600 on the grid.  The closed form's powers z^k
    # overflow where its coefficients 1/k! have underflowed to zero, so its
    # terms past e^709 must come from log|c_k| for the oracle to be finite
    out = tmp_path / "out"
    assert solve_command(write_spec(tmp_path, _decay_spec(-500)), out, oracle=True) == EXIT_OK
    assert 0.0 < _oracle_value((out / "report.txt").read_text()) < 1e-12 * math.exp(600.0)


def test_tracer_times_every_stage(tmp_path, monkeypatch):
    # solvebench/tracing.py wraps the stages by their names in the cli module,
    # so a stage called from anywhere else would read zero time here
    monkeypatch.syspath_prepend(str(SOLVEBENCH))
    import tracing

    modules = (characteristic, cli, series, specialfn)
    saved = [(module, dict(vars(module))) for module in modules]
    try:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        spec = write_spec(tmp_path, ML_SPEC)
        assert cli.solve_command(spec, tmp_path / "out", oracle=True) == EXIT_OK
        metrics = tracer.snapshot()
    finally:
        for module, attrs in saved:
            for name, value in attrs.items():
                setattr(module, name, value)
    for _, metric in tracing.TIMED_STAGES:
        assert metrics.get(metric, 0) > 0, metric
    # the oracle builds its coefficients through the traced name
    for metric in (
        "characteristic.roots", "series.terms", "series.term_points", "specialfn.ks_coeff_calls",
    ):
        assert metrics.get(metric, 0) > 0, metric
    assert cli.solve_command is solve_command


# Caputo D^1.5 u + D^1.2 u + u = 0: both integer leading exponents carry a
# solution, whose coefficients depend on the Caputo derivative of x^0 and x^1
CAPUTO_TWO_TERM_SPEC = {
    "kind": "caputo",
    "form": "constant_coefficients",
    "terms": [{"d": "1", "alpha": "1.5"}, {"d": "1", "alpha": "1.2"}],
    "domain": {"x_min": "0.1", "x_max": "1", "n_points": 5},
}

# u(0) = 1, u'(0) = 0 (gamma = 0) and u(0) = 0, u'(0) = 1 (gamma = 1) have the
# Laplace transforms (p^0.5 + p^0.2)/(p^1.5 + p^1.2 + 1) and
# (p^-0.5 + p^-0.8)/(p^1.5 + p^1.2 + 1); their inverses at x = 0.1 and x = 1,
# by mpmath.invertlaplace (Talbot and de Hoog agree to 1e-42 at 40 digits)
CAPUTO_TWO_TERM_U = {
    0.0: {0.1: 0.9831242029575731168644177, 1.0: 0.6380402611460231533958852},
    1.0: {0.1: 0.09930140292834957576475759, 1.0: 0.8393848023181784736035071},
}


def test_caputo_integer_exponents_match_inverse_laplace(tmp_path):
    out = tmp_path / "out"
    assert solve_command(write_spec(tmp_path, CAPUTO_TWO_TERM_SPEC), out) == EXIT_OK
    index = {float(r["gamma"]): k for k, r in enumerate(read_csv(out / "roots.csv"))}
    report = (out / "report.txt").read_text()
    for gamma, exact in CAPUTO_TWO_TERM_U.items():
        k = index[gamma]
        line = next(x for x in report.splitlines() if x.startswith(f"  root [{k}]: gamma"))
        assert "converged = True" in line
        assert float(line.rsplit("= ", 1)[1]) <= 1e-12
        u = {float(r["x"]): float(r["u"]) for r in read_csv(out / f"solution_{k}.csv")}
        for x, value in exact.items():
            assert abs(u[x] - value) <= 1e-14, (gamma, x)


# Bagley-Torvik u'' + D^1.5 u + u = 0 (Caputo).  The solution with u(0) = 0,
# u'(0) = 1 (gamma = 1) has the Laplace transform
# (1 + p^-0.5)/(p^2 + p^1.5 + 1); its inverse at x = 0.1 and x = 1, by
# mpmath.invertlaplace (Talbot and de Hoog agree to 1e-44 at 40 digits)
BAGLEY_TORVIK_SPEC = {
    "kind": "caputo",
    "form": "constant_coefficients",
    "terms": [{"d": "1", "alpha": "2"}, {"d": "1", "alpha": "1.5"}],
    "domain": {"x_min": "0.1", "x_max": "1", "n_points": 5},
}
BAGLEY_TORVIK_U = {0.1: 0.09985694880909062220421505, 1.0: 0.8949108189449708611419411}


def test_bagley_torvik_matches_inverse_laplace(tmp_path):
    out = tmp_path / "out"
    assert solve_command(write_spec(tmp_path, BAGLEY_TORVIK_SPEC), out) == EXIT_OK
    rows = read_csv(out / "roots.csv")
    assert [(float(r["gamma"]), r["status"], r["collision_step"]) for r in rows] == [
        (0.0, "collision_invalid", "2"), (1.0, "valid", ""),
    ]
    report = (out / "report.txt").read_text()
    assert "  root [1]: gamma = 1.0 " in report and "converged = True" in report
    u = {float(r["x"]): float(r["u"]) for r in read_csv(out / "solution_1.csv")}
    for x, value in BAGLEY_TORVIK_U.items():
        assert abs(u[x] - value) <= 1e-14, x


def test_caputo_integer_order_below_fractional_floor(tmp_path, capsys):
    # Caputo x^2 u'' + x^0.5 D^0.5 u + (x - 1) u = 0: the root 0.9048 lies
    # below ceil(2) - 1 = 1, but D^2 is classical and exists there
    spec = {
        "kind": "caputo",
        "form": "quasi_bessel",
        "terms": [{"d": "1", "alpha": "2", "p": "0"}, {"d": "1", "alpha": "0.5", "p": "0"}],
        "beta": "1",
        "nu": "1",
        "domain": {"x_min": "0.1", "x_max": "1", "n_points": 5},
    }
    out = tmp_path / "out"
    assert solve_command(write_spec(tmp_path, spec), out) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert [r["status"] for r in read_csv(out / "roots.csv")] == ["valid"]
    report = (out / "report.txt").read_text()
    assert "  root [0]: gamma = 0.90479848" in report and "converged = True" in report


def test_caputo_root_just_above_the_floor_is_solved(tmp_path, capsys):
    # Caputo D^1.5 u + (x - nu^2) u = 0 with nu^2 = Q(1 + 5e-10, 1.5): the
    # root 1 + 5e-10 is valid, and the series' first slot must take
    # D^1.5 x^gamma as the Gamma ratio, not as the zero of an integer power
    spec = {
        "kind": "caputo",
        "form": "quasi_bessel",
        "terms": [{"d": "1", "alpha": "1.5", "p": "0"}],
        "beta": "1",
        "nu": "0.7511255449130444",
        "domain": {"x_min": "0.1", "x_max": "1", "n_points": 5},
    }
    out = tmp_path / "out"
    assert main(["solve", str(write_spec(tmp_path, spec)), "-o", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    roots = read_csv(out / "roots.csv")
    assert [(r["gamma"], r["status"]) for r in roots][1] == ("1.0000000005000005", "valid")
    assert "warnings: none" in (out / "report.txt").read_text()
    assert max(abs(float(r["residual"])) for r in read_csv(out / "residual_1.csv")) < 1e-15


def test_undefined_caputo_derivative_fails_its_root(tmp_path, capsys):
    # Caputo x^2.3 D^2.3 u + x^0.7 u = 0: at gamma = 0 and gamma = 1 the
    # recursion needs D^2.3 of x^0.7 and x^1.7, which do not exist, while
    # gamma = 2 has a series
    spec = {
        "kind": "caputo",
        "form": "quasi_bessel",
        "terms": [{"d": "1", "alpha": "2.3", "p": "0"}],
        "beta": "0.7",
        "domain": {"x_min": "0.1", "x_max": "1", "n_points": 5},
    }
    out = tmp_path / "out"
    assert solve_command(write_spec(tmp_path, spec), out) == EXIT_OK
    assert capsys.readouterr().err == ""
    gammas = [float(r["gamma"]) for r in read_csv(out / "roots.csv")]
    assert [gammas[k] for k in (1, 3, 5)] == [0.0, 1.0, 2.0]
    report = (out / "report.txt").read_text()
    for k in (1, 3):
        assert report.count(f"  root [{k}]: failed - ") == 1
        assert report.count(f"[W_DERIVATIVE_UNDEFINED] root {k}: ") == 1
    assert report.count("failed - ") == report.count("[W_DERIVATIVE_UNDEFINED]") == 2
    assert "  root [5]: gamma = 2.0 " in report and "converged = True" in report
    assert (out / "solution_5.csv").exists() and not (out / "solution_1.csv").exists()


def test_gamma_ratio_overflow_fails_its_root_with_one_line(tmp_path, capsys):
    # Caputo D^200 u + u = 0: at every root j = 0..199 the recursion needs
    # D^200 of x^(j+200), whose Gamma ratio (j+200)!/j! exceeds the float
    # range; each failure names the derivative and the exponent
    spec = {
        "kind": "caputo",
        "form": "constant_coefficients",
        "terms": [{"d": "1", "alpha": "200"}],
        "domain": {"x_min": "0.1", "x_max": "1", "n_points": 5},
    }
    out = tmp_path / "out"
    assert solve_command(write_spec(tmp_path, spec), out) == EXIT_NUMERICAL
    assert capsys.readouterr().err == "error: every valid root failed numerically\n"
    report = (out / "report.txt").read_text()
    assert "math range error" not in report
    assert report.count("[W_OVERFLOW] root ") == 200
    assert "[W_OVERFLOW] root 0: caputo D^200.0 of x^200.0 overflows\n" in report
    assert "  root [199]: failed - caputo D^200.0 of x^399.0 overflows\n" in report


def test_caputo_mittag_leffler_path(tmp_path):
    # all characteristic roots sit below the Caputo floor, but the integer
    # exponent gamma = 0 carries the Mittag-Leffler solution
    spec = write_spec(tmp_path, ML_SPEC)
    out = tmp_path / "out"
    assert solve_command(spec, out, oracle=True) == EXIT_OK
    rows = read_csv(out / "roots.csv")
    statuses = {round(float(r["gamma"]), 6): r["status"] for r in rows}
    assert statuses[0.0] == "valid"
    assert statuses[-0.3] == "below_caputo_floor"
    report = (out / "report.txt").read_text()
    assert "oracle: max |series - c0 x^gamma E_(" in report


def test_oracle_flag_example4(tmp_path):
    spec = {
        "kind": "riemann_liouville",
        "form": "power_factors",
        "terms": [{"d": "-2", "alpha": "0.5", "beta_i": "0"}],
        "delta": "0.7",
        "domain": {"x_min": "0.1", "x_max": "2", "n_points": 20},
    }
    out = tmp_path / "out"
    assert solve_command(write_spec(tmp_path, spec), out, oracle=True) == EXIT_OK
    report = (out / "report.txt").read_text()
    assert "E_(0.5,2.4," in report


def test_deterministic_output(tmp_path):
    spec = write_spec(tmp_path, EXAMPLE1_SPEC)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert solve_command(spec, out_a) == EXIT_OK
    assert solve_command(spec, out_b) == EXIT_OK
    for path_a in sorted(out_a.iterdir()):
        path_b = out_b / path_a.name
        assert path_b.exists()
        assert path_a.read_bytes() == path_b.read_bytes()


def test_csv_floats_round_trip(tmp_path):
    # every float cell of the four CSVs parses back to exactly the value that
    # the library computes in this process, and every header is exact
    out = tmp_path / "out"
    assert solve_command(write_spec(tmp_path, EXAMPLE1_SPEC), out) == EXIT_OK
    eq, x_max, xs, c0, max_terms, eps_tail = cli.read_spec(EXAMPLE1_SPEC)
    plan = series.compute_step(eq)
    roots = characteristic.screen_collisions(characteristic.find_roots(eq), plan)

    def rows(name, header):
        head, *lines = (out / name).read_text().splitlines()
        assert head == header
        return [line.split(",") for line in lines]

    statuses = [r.status.value for r in roots]
    built = 0
    for k, root in enumerate(roots):
        if not root.is_valid:
            continue
        try:
            sol = series.build_coefficients(
                eq, root.gamma, plan, c0=c0, x_max=x_max, eps_tail=eps_tail, max_terms=max_terms
            )
        except series.DenominatorPoleError:
            statuses[k] = "denominator_pole"
            continue
        built += 1
        table = rows(f"coefficients_{k}.csv", "n,c_n,exponent")
        assert [(int(n), float(c), float(e)) for n, c, e in table] == [
            (n, c, sol.exponent(n)) for n, c in enumerate(sol.coefficients)
        ]
        for name, header, values in (
            (f"solution_{k}.csv", "x,u", series.evaluate(sol, xs)),
            (f"residual_{k}.csv", "x,residual", series.residual(eq, sol, xs)),
        ):
            assert [tuple(map(float, row)) for row in rows(name, header)] == list(zip(xs, values))
    assert built >= 1
    assert [
        (float(g), status, step, float(big_g))
        for g, status, step, big_g in rows("roots.csv", "gamma,status,collision_step,G")
    ] == [
        (r.gamma, status, "" if r.collision_step is None else str(r.collision_step),
         characteristic.characteristic_value(eq, r.gamma))
        for r, status in zip(roots, statuses)
    ]


def test_csv_line_endings(tmp_path):
    spec = write_spec(tmp_path, EXAMPLE1_SPEC)
    out = tmp_path / "out"
    solve_command(spec, out)
    blob = (out / "roots.csv").read_bytes()
    assert b"\r" not in blob
    assert blob.endswith(b"\n")


def test_main_entrypoint(tmp_path):
    spec = write_spec(tmp_path, EXAMPLE1_SPEC)
    out = tmp_path / "out"
    assert main(["solve", str(spec), "-o", str(out)]) == EXIT_OK
    assert main(["solve", str(spec), "-o", str(out), "--root", "1"]) == EXIT_OK


def test_settings_come_from_the_spec_only(tmp_path, capsys):
    # the truncation cap and the tail tolerance have no command-line override
    spec = write_spec(tmp_path, EXAMPLE1_SPEC)
    for flag, value in (("--max-terms", "1500"), ("--eps-tail", "1e-10")):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(spec), "-o", str(tmp_path / "out"), flag, value])
        assert exc.value.code == EXIT_VALIDATION
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("target", ["afile", "afile/sub"])
def test_unwritable_output_dir_exits_2_with_one_line(tmp_path, capsys, target):
    # an existing file where the output directory, or its parent, should be
    (tmp_path / "afile").write_text("keep")
    spec = write_spec(tmp_path, EXAMPLE1_SPEC)
    assert main(["solve", str(spec), "-o", str(tmp_path / target)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert str(tmp_path / "afile") in err
    assert (tmp_path / "afile").read_text() == "keep"


R2_SPEC = {
    "kind": "riemann_liouville",
    "form": "quasi_bessel",
    "terms": [{"d": "1", "alpha": "1.5"}, {"d": "0.5", "alpha": "0.5", "p": "0.5"}],
    "beta": "1",
    "nu": "1.3",
    "r": "2",
    "domain": {"x_min": "0.1", "x_max": "2", "n_points": 5},
}


def test_common_factor_r_writes_the_files_of_its_r1_restatement(tmp_path):
    # p and beta are in units of r: p 0.5 and beta 1 at r = 2 are p 1 and
    # beta 2 at r = 1, and only report.txt, which prints r, p and the step
    # plan, may tell them apart
    restated = dict(
        R2_SPEC, r="1", beta="2",
        terms=[{"d": "1", "alpha": "1.5"}, {"d": "0.5", "alpha": "0.5", "p": "1"}],
    )
    outs = []
    for name, spec in (("r2.json", R2_SPEC), ("r1.json", restated)):
        outs.append(tmp_path / name.replace(".json", ""))
        assert solve_command(write_spec(tmp_path, spec, name), outs[-1]) == EXIT_OK
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert {"roots.csv", "coefficients_0.csv", "coefficients_1.csv"} <= set(names)
    for name in names:
        if name != "report.txt":
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_irrational_common_factor_r(tmp_path):
    out = tmp_path / "out"
    spec = dict(R2_SPEC, r="1.4142135623730951")
    assert solve_command(write_spec(tmp_path, spec), out) == EXIT_OK
    roots = read_csv(out / "roots.csv")
    assert [r["status"] for r in roots] == ["valid", "valid"]
    report = (out / "report.txt").read_text()
    assert "step s*r = 0.7071067811865476" in report
    assert report.count("converged = True") == 2
    for k in range(2):
        assert max(abs(float(r["residual"])) for r in read_csv(out / f"residual_{k}.csv")) < 1e-13


def test_denominator_pole_status_is_the_same_in_report_and_roots_csv(
    tmp_path, monkeypatch, capsys
):
    # the root list of report.txt is written after the series build, from
    # the statuses that roots.csv also carries
    real = cli.build_coefficients

    def pole_at_root_0(eq, gamma, *args, **kwargs):
        if gamma < 0:  # root 0, gamma = -0.824; root 1 is gamma = 1.704
            raise series.DenominatorPoleError(3, 0.0)
        return real(eq, gamma, *args, **kwargs)

    monkeypatch.setattr(cli, "build_coefficients", pole_at_root_0)
    out = tmp_path / "out"
    assert solve_command(write_spec(tmp_path, dict(R2_SPEC, r="1")), out) == EXIT_OK
    assert capsys.readouterr().err == ""
    statuses = [r["status"] for r in read_csv(out / "roots.csv")]
    assert statuses == ["denominator_pole", "valid"]
    report = (out / "report.txt").read_text()
    roots_block = report.split("\nroots:\n", 1)[1].split("\n\n", 1)[0]
    assert [line.split("status = ")[1] for line in roots_block.splitlines()] == statuses
    assert "  [W_DENOMINATOR_POLE] root 0: recursion denominator vanished at n=3" in report


def test_divergent_spec_flagged_by_validation(tmp_path):
    spec = {
        "kind": "riemann_liouville",
        "form": "quasi_bessel",
        "terms": [
            {"d": "1", "alpha": "1.5", "p": "0.4"},
            {"d": "1", "alpha": "0.5", "p": "0"},
        ],
        "beta": "1",
        "nu": "0",
        "domain": {"x_min": "0.1", "x_max": "1", "n_points": 5},
    }
    assert solve_command(write_spec(tmp_path, spec), tmp_path / "out") == EXIT_VALIDATION
