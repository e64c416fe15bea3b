"""Output checks against the 50-digit reference.

A case's output directory holds the files of its last operation; every
other operation on the case must have produced byte-identical files, so the
checks below cover all of them.  Checked grid points are up to 25 evenly
spaced indices, both ends included.

* roots.csv: every reference root present within ROOT_TOL, no root that is
  not a root of G, and the same status and collision step.  A program root
  the scan did not see is accepted when ``findroot`` confirms it.  ROOT_TOL
  is the solver's bisection tolerance: its roots are bracket midpoints, so
  they are within half of it.
* everything below is checked against the 50-digit series of the root the
  program printed, read as the exact double it wrote, so that errors in the
  coefficients and the sums show apart from the root's own error.  That is
  also what u_digits measures.
* exit code 0 or 3 as the reference screening predicts.
* coefficients_k.csv: |c_n - c_ref| x_max^(gamma+sn) within COEF_TOL of the
  largest term.
* solution_k.csv: |u - u_ref| <= U_K (eps sum|terms| + truncation part), and
  the same against the closed form when the equation has one term.
* residual_k.csv: |residual| <= RES_K (exact truncation defect + eps
  sum|contributions|).  A bound on the truncation tail alone fails on correct
  output, because the residual of a long series is set by rounding.

U_K and RES_K sit six to seven times above the largest ratios seen on
correct output over seeds 101-110 of every workload and 111-135 of
long-sparse: |u - u_ref| 3.6e4 times its floor (the coefficient errors of
long series) and the residual 21 times its floor (rounding in sums of up to
1500 terms).
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import reference as ref
from specs import Case

ROOT_TOL = 1e-10
COEF_TOL = 1e-9
U_K = 2.0**18
RES_K = 2.0**7
DIGITS_CAP = 17.0
CHECK_POINTS = 25

_ROOT_LINE = re.compile(r"root \[(\d+)\]: gamma = \S+\s+N = (\d+)\s+tail_estimate = \S+\s+converged = (\w+)")
_ORACLE_LINE = re.compile(r"root \[(\d+)\]: oracle: .* = (\S+)$")


@dataclass
class CaseCheck:
    problems: List[str] = field(default_factory=list)
    digits: List[float] = field(default_factory=list)  # per solution: min over checked points
    ratios: Dict[str, float] = field(default_factory=dict)  # worst check ratios

    @property
    def ok(self) -> bool:
        return not self.problems

    def worst(self, key: str, value: float) -> None:
        self.ratios[key] = max(self.ratios.get(key, 0.0), value)


def _rows(path: Path) -> List[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def checked_indices(n: int) -> List[int]:
    if n <= CHECK_POINTS:
        return list(range(n))
    return sorted({round(i * (n - 1) / (CHECK_POINTS - 1)) for i in range(CHECK_POINTS)})


def check_roots(case: Case, rows: List[dict], out: CaseCheck) -> None:
    prog = [float(r["gamma"]) for r in rows]
    known = [float(r.gamma) for r in case.roots]
    extra = [g for g in prog if all(abs(g - k) > ROOT_TOL for k in known)]
    if extra:
        # roots the reference scan missed (two in one cell): accept true ones
        for g in extra:
            confirmed = ref.refine_root(case.eq, g)
            if abs(float(confirmed) - g) > ROOT_TOL or not ref.is_root(case.eq, confirmed):
                out.problems.append(f"roots.csv: {g!r} is not a root of G")
                return
            case.g_roots.append(confirmed)
        case.roots = ref.screen(case.eq, case.g_roots)
    if len(prog) != len(case.roots):
        out.problems.append(f"roots.csv: {len(prog)} roots, reference has {len(case.roots)}")
        return
    for row, g, root in zip(rows, prog, case.roots):
        out.worst("root_err", abs(g - float(root.gamma)))
        if abs(g - float(root.gamma)) > ROOT_TOL:
            out.problems.append(f"roots.csv: gamma {g!r} vs reference {float(root.gamma)!r}")
        step = int(row["collision_step"]) if row["collision_step"] else None
        if (row["status"], step) != (root.status, root.collision_step):
            out.problems.append(
                f"roots.csv: gamma {g!r} is {row['status']}/{step}, reference says "
                f"{root.status}/{root.collision_step}"
            )


def check_case(case: Case, out_dir: Path, xs: List[float]) -> CaseCheck:
    """Check the files in out_dir; fills the reference series it needs."""
    out = CaseCheck()
    check_roots(case, _rows(out_dir / "roots.csv"), out)
    if not out.ok:
        return out
    report = (out_dir / "report.txt").read_text(encoding="utf-8")
    lengths = {int(k): (int(n), conv == "True") for k, n, conv in _ROOT_LINE.findall(report)}
    oracles = {int(k): float(v) for line in report.splitlines()
               for k, v in _ORACLE_LINE.findall(line.strip())}
    valid = [k for k, r in enumerate(case.roots) if r.valid]
    for k in range(len(case.roots)):
        present = (out_dir / f"solution_{k}.csv").exists()
        if present != (k in valid):
            out.problems.append(f"solution_{k}.csv {'present' if present else 'missing'}")
    if not out.ok:
        return out
    x_max = float(case.spec["domain"]["x_max"])
    for k in valid:
        _check_solution(case, k, out_dir, xs, x_max, lengths.get(k), oracles.get(k), out)
    return out


def _check_solution(case, k, out_dir, xs, x_max, length, oracle, out) -> None:
    gamma = float(_rows(out_dir / "roots.csv")[k]["gamma"])
    series = ref.solution_series(case.eq, ref.ctx.mpf(gamma), x_max)
    coeffs = [float(r["c_n"]) for r in _rows(out_dir / f"coefficients_{k}.csv")]
    n_terms = len(coeffs)
    if length is None or length[0] != n_terms - 1:
        out.problems.append(f"root {k}: report N {length} does not match {n_terms - 1} coefficients")
        return
    if not length[1]:
        out.problems.append(f"root {k}: series not converged")
    if n_terms > len(series.coefficients):
        ref.extend_series(series, n_terms - 1)
    weights = ref.term_logs(series, x_max)[:n_terms]
    scale = max(weights)
    worst = max(
        ref._log_abs(ref.ctx.mpf(c) - c_ref) + w - ref._log_abs(c_ref)
        for c, c_ref, w in zip(coeffs, series.coefficients, weights)
        if c_ref != 0
    ) - scale
    out.worst("coef_err", math.exp(worst))
    if worst > math.log(COEF_TOL):
        out.problems.append(f"root {k}: coefficient error {math.exp(worst):.3g} of the largest term")

    sol = _rows(out_dir / f"solution_{k}.csv")
    res = _rows(out_dir / f"residual_{k}.csv")
    idx = checked_indices(len(xs))
    if len(sol) != len(xs) or len(res) != len(xs):
        out.problems.append(f"root {k}: {len(sol)} solution and {len(res)} residual rows for {len(xs)} points")
        return
    closed = ref.closed_form(series, [xs[i] for i in idx]) if ref.has_closed_form(case.eq) else None
    errs, refs = [], []
    residuals = ref.residual_terms(series, [xs[i] for i in idx], n_terms)
    for j, i in enumerate(idx):
        x = float(sol[i]["x"])
        if abs(x - xs[i]) > 1e-15 * xs[i] or float(res[i]["x"]) != x:
            out.problems.append(f"root {k}: grid point {i} is {x!r}, expected {xs[i]!r}")
            return
        u, r = float(sol[i]["u"]), float(res[i]["residual"])
        head, tail = ref.split_value(series, x, n_terms)
        u_ref, trunc = head + tail, abs(tail)
        floor = ref.EPS * ref.series_floor(series, x, n_terms)
        err = abs(ref.ctx.mpf(u) - u_ref)
        errs.append(float(err))
        refs.append(float(abs(u_ref)))
        ratio = float(err / (floor + trunc)) if floor + trunc > 0 else (0.0 if err == 0 else math.inf)
        out.worst("u_ratio", ratio)
        if ratio > U_K:
            out.problems.append(f"root {k}: u({x!r}) = {u!r}, reference {float(u_ref)!r}")
        if closed is not None:
            cf_err = abs(ref.ctx.mpf(u) - closed[j])
            if cf_err > U_K * (floor + trunc):
                out.problems.append(f"root {k}: u({x!r}) = {u!r}, closed form {float(closed[j])!r}")
            if abs(closed[j] - u_ref) > ref.ctx.mpf(10) ** -30 * (abs(u_ref) + 1):
                out.problems.append(f"root {k}: reference series and closed form disagree at {x!r}")
        defect, abs_sum = residuals[j]
        bound = abs(float(defect)) + ref.EPS * abs_sum
        rratio = abs(r) / bound if bound > 0 else (0.0 if r == 0 else math.inf)
        out.worst("res_ratio", rratio)
        if rratio > RES_K:
            out.problems.append(f"root {k}: residual({x!r}) = {r!r} exceeds {RES_K:g} x {bound:.3g}")
    top = max(refs)
    if top > 0:
        rel = max(errs) / top
        out.digits.append(min(DIGITS_CAP, -math.log10(rel)) if rel > 0 else DIGITS_CAP)
    if closed is not None:
        if oracle is None or not math.isfinite(oracle):
            out.problems.append(f"root {k}: report has no closed-form oracle line")
        elif top > 0:
            out.worst("oracle_rel", oracle / top)
