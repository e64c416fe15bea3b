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

A field is accepted exactly when its form's reader reads it: ``read_spec``
copies each level of the spec and pops each field as it reads it.  Each
form reads these fields:

    quasi_bessel           kind, form, terms, r, domain, options, beta, nu;
                           each term d, alpha, p
    constant_coefficients  kind, form, terms, r, domain, options, nu;
                           each term d, alpha
    power_factors          kind, form, terms, r, domain, options, delta, nu;
                           each term d, alpha, beta_i

plus x_min, x_max and n_points in ``domain`` and c0, n_terms_max and
eps_tail in ``options``.  Each term must be a JSON object.  A field left
unread at any level exits 2 with one line that names the field and its
level, so a misspelt or misplaced field is never silently ignored; this
check runs after every other check of the spec.

The spec's ``options`` is the one source of c0, the truncation cap and the
tail tolerance (defaults "1", series.MAX_TERMS and series.EPS_TAIL); no
command-line flag overrides them, so the spec that report.txt names fixes
every numerical setting of the solve.  c0 must be finite and nonzero (c0 = 0
gives the trivial solution u = 0), n_terms_max at least 1, and eps_tail
finite and positive.

Exit codes: 0 success (at least one valid root whose series converged and
kept its digits, with no W_CANCELLATION); 2 validation failure, such as
E_ORDER_TOO_LARGE for a derivative order above equation.MAX_ORDER, an
n_points above MAX_POINTS (10^6, checked before the grid is built), or an
output directory that cannot be created or written; 3 no valid roots, or
``--root`` names a root that is not valid; 4 numerical failure (overflow in
the root search, every valid root failing with a denominator pole, an
overflow, reported as W_OVERFLOW, which includes a lattice exponent
gamma + n*s beyond the float range, a coefficient underflow, reported as
W_UNDERFLOW, or an undefined derivative, reported as
W_DERIVATIVE_UNDEFINED, no series converging, or every converged series
losing its digits to cancellation).  Exits 2 and a root-search overflow
write nothing, except that an output error may leave the files written
before it.  Every other exit 3 or 4 still writes roots.csv and report.txt,
plus the coefficient, solution and residual CSVs of each root whose series
was built.  A nonzero exit prints one ``error:`` line to stderr, or one per
fatal issue when validation fails.

report.txt's root list and roots.csv carry the same final statuses: a root
whose series build meets a vanishing recursion denominator reads
``denominator_pole`` in both.  A G cell of roots.csv is inf or -inf where
a Gamma ratio of G leaves the float range, as at the Caputo integer
exponents of an order above 171.  The two reduction forms share one path:
``constant_coefficients`` is ``power_factors`` with every beta_i and delta 0,
and both require nu = 0.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .characteristic import RootStatus, find_roots, screen_collisions
from .equation import (
    FATAL,
    DerivativeKind,
    QuasiBesselEquation,
    Term,
    from_power_factors,
    nu_min_threshold,
    uniqueness_bound,
    validate,
)
from .gammafn import gamma_ratio, signed_log_gamma
from .series import (
    EPS_TAIL,
    MAX_TERMS,
    _BLOWUP_LIMIT,
    CoefficientUnderflowError,
    DenominatorPoleError,
    DerivativeUndefinedError,
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

# The most grid points a spec may ask for.  The grid and one root's u and
# residual values and CSV texts are in memory at a time, since each root's
# files are written as soon as its series is built.  On 2 shared CPUs with
# Python 3.11, Caputo u' + u = 0 (one root) at 10^6 points takes 4.6 s and
# 466 MB peak RSS and writes 80 MB; at 2*10^5 points a spec with two valid
# roots peaks at about 105 MB, as one root does.  10^8 points would exhaust
# memory.
MAX_POINTS = 10**6


class SpecFileError(ValueError):
    """The equation spec file is missing, malformed, or inconsistent."""


def _require(level: dict, key: str) -> object:
    """Pop a field that must be present."""
    if key not in level:
        raise SpecFileError(f"spec is missing required field {key!r}")
    return level.pop(key)


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
    """A copy of a JSON object, for its reader to pop."""
    if not isinstance(value, dict):
        raise SpecFileError(f"{what} must be a JSON object, got {value!r}")
    return dict(value)


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


def read_spec(spec: dict) -> Tuple[QuasiBesselEquation, float, List[float], float, int, float]:
    """The equation, x_max, the grid, c0, the truncation cap and the tail
    tolerance that a spec gives.  Each level of the spec is copied and each
    field popped as it is read, so a field still left once every other check
    has passed is one that the form does not read, and it is rejected."""
    top = dict(spec)
    form = str(_require(top, "form"))
    raw_terms = _require(top, "terms")
    if not isinstance(raw_terms, list) or not raw_terms:
        raise SpecFileError("'terms' must be a non-empty list")
    terms = [_as_object(t, "each term") for t in raw_terms]
    r = _as_float(top.pop("r", "1"), "r")
    nu = _as_float(top.pop("nu", "0"), "nu")
    try:
        kind = DerivativeKind.from_string(str(_require(top, "kind")))
        if form == "quasi_bessel":
            eq = QuasiBesselEquation(
                terms=tuple(
                    Term(
                        d=_as_float(_require(t, "d"), "term d"),
                        alpha=_as_float(_require(t, "alpha"), "term alpha"),
                        p=str(t.pop("p", "0")),
                    )
                    for t in terms
                ),
                beta=str(_require(top, "beta")),
                nu_squared=nu * nu,
                r=r,
                kind=kind,
            )
        elif form in ("constant_coefficients", "power_factors"):
            if nu != 0.0:
                raise SpecFileError(f"{form} form requires nu = 0")
            # constant coefficients are power factors with every beta_i and
            # delta 0, the reduction from_constant_coefficients performs
            constant = form == "constant_coefficients"
            triples = [
                (
                    _as_float(_require(t, "d"), "term d"),
                    "0" if constant else str(t.pop("beta_i", "0")),
                    str(_require(t, "alpha")),
                )
                for t in terms
            ]
            delta = "0" if constant else str(_require(top, "delta"))
            eq = from_power_factors(triples, delta=delta, r=r, kind=kind)
        else:
            raise SpecFileError(
                f"unknown form {form!r}; expected quasi_bessel, constant_coefficients, "
                "or power_factors"
            )
    except (ValueError, TypeError) as exc:
        if isinstance(exc, SpecFileError):
            raise
        raise SpecFileError(f"bad equation spec: {exc}") from None

    domain = _as_object(_require(top, "domain"), "'domain'")
    x_min = _as_float(_require(domain, "x_min"), "x_min")
    x_max = _as_float(_require(domain, "x_max"), "x_max")
    n_points = _as_int(_require(domain, "n_points"), "n_points")
    if not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise SpecFileError(f"domain bounds must be finite, got [{x_min}, {x_max}]")
    if x_min <= 0 or x_max < x_min:
        raise SpecFileError(f"need 0 < x_min <= x_max, got [{x_min}, {x_max}]")
    if n_points < 1:
        raise SpecFileError(f"n_points must be >= 1, got {n_points}")
    if n_points > MAX_POINTS:
        raise SpecFileError(f"n_points must be at most {MAX_POINTS}, got {n_points}")
    h = (x_max - x_min) / max(n_points - 1, 1)  # finite: a single point is x_min
    xs = [x_min + i * h for i in range(n_points)]

    options = _as_object(top.pop("options", {}), "'options'")
    c0 = _as_float(options.pop("c0", "1"), "c0")
    # c0 = 0 gives u = 0, the trivial solution, not the series of a root
    if not math.isfinite(c0) or c0 == 0.0:
        raise SpecFileError(f"c0 must be finite and nonzero, got {c0!r}")
    max_terms = _as_int(options.pop("n_terms_max", MAX_TERMS), "n_terms_max")
    if max_terms < 1:
        raise SpecFileError(f"n_terms_max must be >= 1, got {max_terms}")
    eps_tail = _as_float(options.pop("eps_tail", repr(EPS_TAIL)), "eps_tail")
    if not 0 < eps_tail < math.inf:
        raise SpecFileError(f"eps_tail must be finite and positive, got {eps_tail!r}")

    for fields, level in [
        (top, f"the top level of a {form} spec"),
        *((t, f"a term of a {form} spec") for t in terms),
        (domain, "'domain'"),
        (options, "'options'"),
    ]:
        if fields:
            raise SpecFileError(f"unknown field {next(iter(fields))!r} in {level}")
    return eq, x_max, xs, c0, max_terms, eps_tail


def _g_cell(eq: QuasiBesselEquation, gamma: float) -> float:
    """G(gamma) for roots.csv, summed as ``characteristic_value`` sums it:
    -nu^2, then + d_i * Q_i per pure term in ``pure_indices`` order.  A Gamma
    ratio beyond the float range, as at the Caputo integer exponents of an
    order above 171, is taken as its signed infinity: the sign of d_i times
    the signs of both Gamma values."""
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


def _write_files(output_dir: Path, files: Dict[str, str]) -> None:
    output_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (output_dir / name).write_text(text, encoding="utf-8", newline="")


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
    c0 = sol.coefficients[0]
    diffs = [abs(u - c0 * x**sol.gamma * e) for x, u, e in zip(xs, u_vals, closed)]
    # max() drops a NaN that is not first; a NaN difference must show
    worst = math.nan if any(map(math.isnan, diffs)) else max(diffs, default=0.0)
    return (
        f"oracle: max |series - c0 x^gamma E_({params.alpha!r},{params.m!r},"
        f"{params.l!r})({lam!r} x^{sol.s!r})| = {worst!r}"
    )


def solve_command(
    spec_path: Path,
    output_dir: Path,
    root_index: Optional[int] = None,
    oracle: bool = False,
) -> int:
    """Run the full pipeline and write the report and CSVs to output_dir.

    One pass: each selected root's report line is appended and its
    coefficient, solution and residual CSVs are written as soon as its series
    is built, so no root's texts are held until the last root.  The root list
    is then filled in from the statuses that build leaves, roots.csv and
    report.txt are written last, and the exit code and its stderr line are
    chosen once, after that write.  output_dir is created just before the
    first write.  An OSError while creating output_dir or writing a file
    prints ``error: cannot write output: ...`` and exits 2, leaving the files
    written before it.
    """
    try:
        eq, x_max, xs, c0, n_terms_max, tail_eps = read_spec(load_spec(spec_path))
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
        report.append(f"  d={t.d!r}  alpha={t.alpha!r}  p={t.p}")
    report.append(f"beta = {eq.beta} (units of r),  nu^2 = {eq.nu_squared!r},  r = {eq.r!r}")
    warning_lines: List[str] = []

    issues = validate(eq)
    for issue in issues:
        line = f"[{issue.code}] {issue.message}"
        if issue.severity == FATAL:
            print(f"error: {line}", file=sys.stderr)
        else:
            warning_lines.append(line)
    if any(issue.severity == FATAL for issue in issues):
        return EXIT_VALIDATION

    plan = compute_step(eq)

    shifts = ", ".join(f"term {i}: {n}" for i, n in sorted(plan.n_p.items()))
    report += [
        "",
        "step plan:",
        f"  s = {plan.s} in units of r;  step s*r = {plan.step_value!r}",
        f"  n_beta = {plan.n_beta}" + (f";  shifts: {shifts}" if shifts else ""),
        f"  N_LCD = {plan.lcd},  N_gcf = {plan.gcf}",
    ]

    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            roots = find_roots(eq)
    except OverflowError as exc:
        print(f"error: numerical failure in the root search: overflow ({exc})", file=sys.stderr)
        return EXIT_NUMERICAL
    for w in caught:
        warning_lines.append(f"[W_ROOT_SEARCH] {w.message}")
    roots = screen_collisions(roots, plan)

    report += ["", "roots:"]
    roots_at = len(report)  # the root list goes here once every status is final

    # threshold and uniqueness bound (Caputo only)
    report.append("")
    if eq.kind is DerivativeKind.CAPUTO:
        try:
            threshold = nu_min_threshold(eq)
            ok = eq.nu_squared >= threshold
            report.append(
                f"convergence threshold: nu^2_min = {threshold!r}; "
                f"nu^2 = {eq.nu_squared!r} "
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
            f"uniqueness bound at b = {x_max!r}: {bound!r}; nu^2 "
            + ("exceeds it (IVP solution unique)" if unique else "does not exceed it")
        )
    else:
        report.append("convergence threshold: not required for Riemann-Liouville derivatives")

    selected = [k for k, r in enumerate(roots) if r.is_valid and root_index in (None, k)]
    if selected:
        report += ["", "series solutions:"]
    built = converged = usable = 0
    # every CSV float has 17 significant digits, so it parses back exactly;
    # no field needs quoting
    x_cells = ["%.17g" % x for x in xs]  # shared by every solution and residual CSV
    try:  # an OSError from any write exits 2
        for k in selected:
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    sol = build_coefficients(
                        eq, roots[k].gamma, plan, c0=c0,
                        x_max=x_max, eps_tail=tail_eps, max_terms=n_terms_max,
                    )
                    u_vals = evaluate(sol, xs)
                    res_vals = residual(eq, sol, xs)
            except (ArithmeticError, DerivativeUndefinedError) as exc:
                if isinstance(exc, DenominatorPoleError):
                    roots[k] = roots[k]._replace(status=RootStatus.DENOMINATOR_POLE)
                    warning_lines.append(f"[W_DENOMINATOR_POLE] root {k}: {exc}")
                elif isinstance(exc, DerivativeUndefinedError):
                    warning_lines.append(f"[W_DERIVATIVE_UNDEFINED] root {k}: {exc}")
                elif isinstance(exc, CoefficientUnderflowError):
                    warning_lines.append(f"[W_UNDERFLOW] root {k}: {exc}")
                else:
                    warning_lines.append(f"[W_OVERFLOW] root {k}: {exc}")
                report.append(f"  root [{k}]: failed - {exc}")
                continue
            for w in caught:
                warning_lines.append(f"[W_CANCELLATION] root {k}: {w.message}")
            trunc = sol.truncation
            built += 1
            converged += trunc.converged
            # evaluate is the one stage that warns, and only of cancellation
            usable += trunc.converged and not caught
            if not trunc.converged:
                limit = (
                    f"coefficient c_{trunc.terms_used} passed the blow-up limit {_BLOWUP_LIMIT:g}"
                    if trunc.blown_up else f"truncation cap {n_terms_max} reached"
                )
                warning_lines.append(
                    f"[W_NOT_CONVERGED] root {k}: {limit} before the tail fell below eps_tail"
                )
            report.append(
                f"  root [{k}]: gamma = {sol.gamma!r}  N = {trunc.terms_used}  "
                f"tail_estimate = {trunc.tail_estimate!r}  converged = {trunc.converged}  "
                f"max |residual| on grid = {max(map(abs, res_vals))!r}"
            )
            # written now, so that no root's texts wait for the last root
            _write_files(output_dir, {
                f"coefficients_{k}.csv": "n,c_n,exponent\n" + "".join(
                    "%d,%.17g,%.17g\n" % (n, cn, sol.exponent(n))
                    for n, cn in enumerate(sol.coefficients)
                ),
                f"solution_{k}.csv": "x,u\n" + "".join(
                    "%s,%.17g\n" % row for row in zip(x_cells, u_vals)
                ),
                f"residual_{k}.csv": "x,residual\n" + "".join(
                    "%s,%.17g\n" % row for row in zip(x_cells, res_vals)
                ),
            })
            if oracle:
                oracle_line = _oracle_check(eq, sol, xs, u_vals)
                if oracle_line is None:
                    warning_lines.append(
                        "[W_NO_ORACLE] no closed-form oracle applies to this equation "
                        "(needs a single derivative term with p = 0 and nu = 0)"
                    )
                else:
                    report.append(f"  root [{k}]: {oracle_line}")
            # the next root's values need not share the peak with these
            del sol, u_vals, res_vals

        # report.txt's root list and roots.csv carry the statuses the series
        # build left
        report[roots_at:roots_at] = [
            f"  [{k}] gamma = {r.gamma!r}  status = {r.status.value}"
            + (f" (collides after {r.collision_step} steps)" if r.collision_step else "")
            for k, r in enumerate(roots)
        ]
        report += ["", "warnings:" if warning_lines else "warnings: none"]
        report += [f"  {line}" for line in warning_lines] + [""]
        _write_files(output_dir, {
            "roots.csv": "gamma,status,collision_step,G\n" + "".join(
                "%.17g,%s,%s,%.17g\n" % (
                    r.gamma, r.status.value, "" if r.collision_step is None else r.collision_step,
                    _g_cell(eq, r.gamma),
                )
                for r in roots
            ),
            "report.txt": "\n".join(report),
        })
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if not selected and root_index is not None:
        code, error = EXIT_NO_ROOTS, f"--root {root_index} is not a valid root index"
    elif not selected:
        code, error = EXIT_NO_ROOTS, "no valid characteristic roots; no series solution exists"
    elif not built:
        code, error = EXIT_NUMERICAL, "every valid root failed numerically"
    elif not converged:
        code, error = EXIT_NUMERICAL, "no series reached the tail tolerance"
    elif not usable:
        code, error = EXIT_NUMERICAL, "every converged series lost its digits to cancellation"
    else:
        return EXIT_OK
    print(f"error: {error}", file=sys.stderr)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse  # only the command line needs it, not solve_command

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
    args = parser.parse_args(argv)  # "solve" is the one, required, subcommand
    return solve_command(args.spec, args.output_dir, root_index=args.root, oracle=args.oracle)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
