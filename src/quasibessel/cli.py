"""Command-line pipeline: equation spec in, roots/coefficients/solution/
residual CSVs plus a plain-text report out.

The equation spec is a JSON file; every numeric field is a decimal string so
the shifting indices survive parsing exactly.  Schema:

    {
      "kind": "caputo" | "riemann_liouville",
      "form": "quasi_bessel" | "constant_coefficients" | "power_factors",
      "terms": [{"d": "...", "alpha": "...", "p": "..." | "beta_i": "..."}],
      "beta": "...",            # quasi_bessel only
      "delta": "...",           # power_factors only
      "nu": "...",              # default "0"
      "r": "...",               # default "1"
      "domain": {"x_min": "...", "x_max": "...", "n_points": int},
      "options": {"c0": "...", "n_terms_max": int, "eps_tail": "..."}
    }

Exit codes: 0 success (at least one valid, converged root); 2 validation
failure; 3 no valid roots; 4 numerical failure (denominator pole, overflow,
or nothing converged).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from . import __version__
from .characteristic import (
    CharacteristicRoot,
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
    from_constant_coefficients,
    from_power_factors,
    nu_min_threshold,
    uniqueness_bound,
    validate,
)
from .series import (
    EPS_TAIL,
    MAX_TERMS,
    DenominatorPoleError,
    SeriesSolution,
    build_coefficients,
    compute_step,
    evaluate,
    residual,
)
from .specialfn import kilbas_saigo, kilbas_saigo_for_single_term

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_ROOTS = 3
EXIT_NUMERICAL = 4


class SpecFileError(ValueError):
    """The equation spec file is missing, malformed, or inconsistent."""


def _fmt(v: float) -> str:
    """Round-trip-safe float formatting (17 significant digits), used in CSVs."""
    return f"{v:.17g}"


def _pretty(v: float) -> str:
    """Shortest round-trip formatting, used in the report."""
    return repr(v)


def _require(spec: dict, key: str) -> object:
    if key not in spec:
        raise SpecFileError(f"spec is missing required field {key!r}")
    return spec[key]


def _as_float(value: object, what: str) -> float:
    try:
        return float(str(value))
    except (TypeError, ValueError):
        raise SpecFileError(f"{what} is not a number: {value!r}") from None


def _as_int(value: object, what: str) -> int:
    number = _as_float(value, what)
    if not number.is_integer():
        raise SpecFileError(f"{what} is not an integer: {value!r}")
    return int(number)


def _as_object(value: object, what: str) -> dict:
    if not isinstance(value, dict):
        raise SpecFileError(f"{what} must be a JSON object, got {value!r}")
    return value


def load_spec(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"cannot read spec file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"spec file is not valid JSON: {exc}") from None
    if not isinstance(spec, dict):
        raise SpecFileError("spec file must contain a JSON object")
    return spec


def build_equation(spec: dict) -> QuasiBesselEquation:
    kind = DerivativeKind.from_string(str(_require(spec, "kind")))
    form = str(_require(spec, "form"))
    raw_terms = _require(spec, "terms")
    if not isinstance(raw_terms, list) or not raw_terms:
        raise SpecFileError("'terms' must be a non-empty list")
    r = _as_float(spec.get("r", "1"), "r")
    nu = _as_float(spec.get("nu", "0"), "nu")
    try:
        if form == "quasi_bessel":
            terms = tuple(
                Term(
                    d=_as_float(_require(t, "d"), "term d"),
                    alpha=_as_float(_require(t, "alpha"), "term alpha"),
                    p=str(t.get("p", "0")),
                )
                for t in raw_terms
            )
            return QuasiBesselEquation(
                terms=terms,
                beta=str(_require(spec, "beta")),
                nu_squared=nu * nu,
                r=r,
                kind=kind,
            )
        if form == "constant_coefficients":
            if nu != 0.0:
                raise SpecFileError("constant_coefficients form requires nu = 0")
            coeffs = [
                (_as_float(_require(t, "d"), "term d"), str(_require(t, "alpha")))
                for t in raw_terms
            ]
            return from_constant_coefficients(coeffs, r=r, kind=kind)
        if form == "power_factors":
            if nu != 0.0:
                raise SpecFileError("power_factors form requires nu = 0")
            triples = [
                (
                    _as_float(_require(t, "d"), "term d"),
                    str(t.get("beta_i", "0")),
                    str(_require(t, "alpha")),
                )
                for t in raw_terms
            ]
            return from_power_factors(
                triples, delta=str(_require(spec, "delta")), r=r, kind=kind
            )
    except (ValueError, TypeError) as exc:
        if isinstance(exc, SpecFileError):
            raise
        raise SpecFileError(f"bad equation spec: {exc}") from None
    raise SpecFileError(
        f"unknown form {form!r}; expected quasi_bessel, constant_coefficients, "
        "or power_factors"
    )


def _domain_grid(spec: dict) -> Tuple[float, float, List[float]]:
    domain = _as_object(_require(spec, "domain"), "'domain'")
    x_min = _as_float(_require(domain, "x_min"), "x_min")
    x_max = _as_float(_require(domain, "x_max"), "x_max")
    n_points = _as_int(_require(domain, "n_points"), "n_points")
    if x_min <= 0 or x_max < x_min:
        raise SpecFileError(f"need 0 < x_min <= x_max, got [{x_min}, {x_max}]")
    if n_points < 1:
        raise SpecFileError(f"n_points must be >= 1, got {n_points}")
    if n_points == 1:
        return x_min, x_max, [x_min]
    h = (x_max - x_min) / (n_points - 1)
    return x_min, x_max, [x_min + i * h for i in range(n_points)]


def _options(
    spec: dict, max_terms: Optional[int], eps_tail: Optional[float]
) -> Tuple[float, int, float]:
    """c0, the truncation cap and the tail tolerance; the command-line
    overrides, when given, replace the spec's values."""
    options = _as_object(spec.get("options", {}), "'options'")
    c0 = _as_float(options.get("c0", "1"), "c0")
    if max_terms is None:
        max_terms = _as_int(options.get("n_terms_max", MAX_TERMS), "n_terms_max")
    if eps_tail is None:
        eps_tail = _as_float(options.get("eps_tail", repr(EPS_TAIL)), "eps_tail")
    if not eps_tail > 0:
        raise SpecFileError(f"eps_tail must be positive, got {eps_tail!r}")
    return c0, max_terms, eps_tail


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@dataclass
class _RootOutcome:
    index: int
    root: CharacteristicRoot
    solution: Optional[SeriesSolution] = None
    max_residual: Optional[float] = None
    failure: Optional[str] = None
    oracle_line: Optional[str] = None


def _root_rows(eq, roots: Sequence[CharacteristicRoot]) -> List[List[str]]:
    rows = []
    for root in roots:
        step = "" if root.collision_step is None else str(root.collision_step)
        rows.append(
            [_fmt(root.gamma), root.status.value, step, _fmt(characteristic_value(eq, root.gamma))]
        )
    return rows


def _oracle_check(
    eq, sol: SeriesSolution, xs: Sequence[float], u_vals: Sequence[float]
) -> Optional[str]:
    # closed form exists for a single derivative term with p = 0 and nu = 0
    if len(eq.terms) != 1 or eq.terms[0].p != 0 or eq.nu_squared != 0.0:
        return None
    t = eq.terms[0]
    params, lam = kilbas_saigo_for_single_term(t.alpha, sol.s, sol.gamma, t.d)
    n_terms = max(80, len(sol.coefficients))
    closed = kilbas_saigo(params, [lam * x**sol.s for x in xs], n_terms)
    worst = 0.0
    for x, u, e in zip(xs, u_vals, closed):
        worst = max(worst, abs(u - sol.c0 * x**sol.gamma * e))
    return (
        f"oracle: max |series - c0 x^gamma E_({_pretty(params.alpha)},{_pretty(params.m)},"
        f"{_pretty(params.l)})({_pretty(lam)} x^{_pretty(sol.s)})| = {_pretty(worst)}"
    )


def solve_command(
    spec_path: Path,
    output_dir: Path,
    root_index: Optional[int] = None,
    oracle: bool = False,
    max_terms: Optional[int] = None,
    eps_tail: Optional[float] = None,
) -> int:
    """Run the full pipeline and write the report and CSVs to output_dir."""
    try:
        spec = load_spec(spec_path)
        eq = build_equation(spec)
        x_min, x_max, xs = _domain_grid(spec)
        c0, n_terms_max, tail_eps = _options(spec, max_terms, eps_tail)
    except SpecFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    report: List[str] = [
        f"quasibessel {__version__} solver report",
        f"spec: {spec_path.name}",
        f"kind: {eq.kind.value}",
        "equation terms (d, alpha, p in units of r):",
    ]
    for t in eq.terms:
        report.append(f"  d={_pretty(t.d)}  alpha={_pretty(t.alpha)}  p={t.p}")
    report.append(f"beta = {eq.beta} (units of r),  nu^2 = {_pretty(eq.nu_squared)},  r = {_pretty(eq.r)}")
    warning_lines: List[str] = []

    check = validate(eq)
    for issue in check.issues:
        line = f"[{issue.code}] {issue.message}"
        if issue.severity == "fatal":
            print(f"error: {line}", file=sys.stderr)
        else:
            warning_lines.append(line)
    if not check.is_valid:
        return EXIT_VALIDATION

    try:
        plan = compute_step(eq)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    shifts = ", ".join(f"term {i}: {n}" for i, n in sorted(plan.n_p.items()))
    report += [
        "",
        "step plan:",
        f"  s = {plan.s} in units of r;  step s*r = {_pretty(plan.step_value)}",
        f"  n_beta = {plan.n_beta}" + (f";  shifts: {shifts}" if shifts else ""),
        f"  N_LCD = {plan.lcd},  N_gcf = {plan.gcf}",
    ]

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        roots = find_roots(eq)
    for w in caught:
        warning_lines.append(f"[W_ROOT_SEARCH] {w.message}")
    present = {round(r.gamma, 9) for r in roots}
    for j in caputo_integer_exponents(eq):
        if round(float(j), 9) not in present:
            roots.append(CharacteristicRoot(gamma=float(j), status=RootStatus.VALID))
    roots.sort(key=lambda root: root.gamma)
    roots = screen_collisions(roots, plan)

    output_dir.mkdir(parents=True, exist_ok=True)

    report += ["", "roots:"]
    for k, root in enumerate(roots):
        extra = f" (collides after {root.collision_step} steps)" if root.collision_step else ""
        report.append(f"  [{k}] gamma = {_pretty(root.gamma)}  status = {root.status.value}{extra}")

    # threshold and uniqueness bound (Caputo only)
    report.append("")
    if eq.kind is DerivativeKind.CAPUTO:
        try:
            threshold = nu_min_threshold(eq)
            ok = eq.nu_squared >= threshold
            report.append(
                f"convergence threshold: nu^2_min = {_pretty(threshold)}; "
                f"nu^2 = {_pretty(eq.nu_squared)} "
                + ("satisfies the guarantee" if ok else "is below the guarantee")
            )
            if not ok:
                warning_lines.append(
                    "[W_NU_BELOW_THRESHOLD] nu^2 is below the convergence threshold; "
                    "the series may still converge but it is not guaranteed"
                )
        except ValueError as exc:
            report.append(f"convergence threshold: inapplicable ({exc})")
            warning_lines.append(f"[W_THRESHOLD_INAPPLICABLE] {exc}")
        bound = uniqueness_bound(eq, x_max)
        unique = eq.nu_squared > bound
        report.append(
            f"uniqueness bound at b = {_pretty(x_max)}: {_pretty(bound)}; nu^2 "
            + ("exceeds it (IVP solution unique)" if unique else "does not exceed it")
        )
    else:
        report.append("convergence threshold: not required for Riemann-Liouville derivatives")

    valid = [(k, r) for k, r in enumerate(roots) if r.is_valid]
    if root_index is not None:
        valid = [(k, r) for k, r in valid if k == root_index]
        if not valid:
            _finish(output_dir, eq, roots, report, warning_lines)
            print(f"error: --root {root_index} is not a valid root index", file=sys.stderr)
            return EXIT_NO_ROOTS
    if not valid:
        _finish(output_dir, eq, roots, report, warning_lines)
        print("error: no valid characteristic roots; no series solution exists", file=sys.stderr)
        return EXIT_NO_ROOTS

    outcomes: List[_RootOutcome] = []
    for k, root in valid:
        outcome = _RootOutcome(index=k, root=root)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                sol = build_coefficients(
                    eq, root.gamma, plan, c0=c0,
                    x_max=x_max, eps_tail=tail_eps, max_terms=n_terms_max,
                )
                u_vals = evaluate(sol, xs)
                res_vals = residual(eq, sol, xs)
            for w in caught:
                warning_lines.append(f"[W_CANCELLATION] root {k}: {w.message}")
        except DenominatorPoleError as exc:
            outcome.failure = str(exc)
            roots[k] = replace(root, status=RootStatus.DENOMINATOR_POLE)
            warning_lines.append(f"[W_DENOMINATOR_POLE] root {k}: {exc}")
            outcomes.append(outcome)
            continue
        except ArithmeticError as exc:
            outcome.failure = str(exc)
            warning_lines.append(f"[W_OVERFLOW] root {k}: {exc}")
            outcomes.append(outcome)
            continue
        outcome.solution = sol
        outcome.max_residual = max(abs(v) for v in res_vals)
        if not sol.truncation.converged:
            warning_lines.append(
                f"[W_NOT_CONVERGED] root {k}: truncation cap {n_terms_max} reached "
                "before the tail fell below eps_tail"
            )
        _write_csv(
            output_dir / f"coefficients_{k}.csv",
            ["n", "c_n", "exponent"],
            [
                [str(n), _fmt(cn), _fmt(sol.exponent(n))]
                for n, cn in enumerate(sol.coefficients)
            ],
        )
        _write_csv(
            output_dir / f"solution_{k}.csv",
            ["x", "u"],
            [[_fmt(x), _fmt(u)] for x, u in zip(xs, u_vals)],
        )
        _write_csv(
            output_dir / f"residual_{k}.csv",
            ["x", "residual"],
            [[_fmt(x), _fmt(v)] for x, v in zip(xs, res_vals)],
        )
        if oracle:
            outcome.oracle_line = _oracle_check(eq, sol, xs, u_vals)
            if outcome.oracle_line is None:
                warning_lines.append(
                    "[W_NO_ORACLE] no closed-form oracle applies to this equation "
                    "(needs a single derivative term with p = 0 and nu = 0)"
                )
        outcomes.append(outcome)

    report += ["", "series solutions:"]
    built = []
    for outcome in outcomes:
        k = outcome.index
        if outcome.failure is not None:
            report.append(f"  root [{k}]: failed - {outcome.failure}")
            continue
        sol = outcome.solution
        assert sol is not None
        built.append(outcome)
        report.append(
            f"  root [{k}]: gamma = {_pretty(sol.gamma)}  N = {sol.truncation.terms_used}  "
            f"tail_estimate = {_pretty(sol.truncation.tail_estimate)}  "
            f"converged = {sol.truncation.converged}  "
            f"max |residual| on grid = {_pretty(outcome.max_residual or 0.0)}"
        )
        if outcome.oracle_line:
            report.append(f"  root [{k}]: {outcome.oracle_line}")

    _finish(output_dir, eq, roots, report, warning_lines)

    if not built:
        print("error: every valid root failed numerically", file=sys.stderr)
        return EXIT_NUMERICAL
    if not any(o.solution.truncation.converged for o in built):
        print("error: no series reached the tail tolerance", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _finish(
    output_dir: Path,
    eq: QuasiBesselEquation,
    roots: Sequence[CharacteristicRoot],
    report: List[str],
    warning_lines: List[str],
) -> None:
    """Write roots.csv, with the statuses the series build left, and report.txt."""
    _write_csv(
        output_dir / "roots.csv",
        ["gamma", "status", "collision_step", "G"],
        _root_rows(eq, roots),
    )
    report = list(report)
    report.append("")
    if warning_lines:
        report.append("warnings:")
        report.extend(f"  {line}" for line in warning_lines)
    else:
        report.append("warnings: none")
    report.append("")
    (output_dir / "report.txt").write_text("\n".join(report), encoding="utf-8")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="quasibessel",
        description="Series solver for fractional quasi-Bessel equations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="solve an equation spec and write CSV reports")
    solve.add_argument("spec", type=Path, help="path to the JSON equation spec")
    solve.add_argument(
        "-o", "--output-dir", type=Path, default=Path("out"),
        help="directory for the CSV and report output (default: ./out)",
    )
    solve.add_argument("--root", type=int, default=None, help="restrict output to one root index")
    solve.add_argument(
        "--oracle", action="store_true",
        help="cross-check solutions against the closed-form special functions where applicable",
    )
    solve.add_argument("--max-terms", type=int, default=None, help="override the truncation cap")
    solve.add_argument("--eps-tail", type=float, default=None, help="override the tail tolerance")
    args = parser.parse_args(argv)
    if args.command == "solve":
        return solve_command(
            args.spec,
            args.output_dir,
            root_index=args.root,
            oracle=args.oracle,
            max_terms=args.max_terms,
            eps_tail=args.eps_tail,
        )
    parser.error(f"unknown command {args.command!r}")
    return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
