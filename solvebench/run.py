"""Solve benchmark: one command for every workload.

    python3 solvebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ./src; nothing
is installed.  A run

1. checks the reference (``reference.self_test``) and generates the
   workload's specs from the seed, with their 50-digit reference data;
2. measures set-up: ``import quasibessel.cli`` in SETUP_SAMPLES fresh
   interpreters, drift-corrected by the kernel timed between them (with
   --trace 1, under ``-X importtime`` for per-module self times);
3. runs the workload process (worker.py) for S seconds of whole rounds;
4. checks every operation's output against the reference;
5. prints one JSON line: correct, attempted, failed and the end-to-end
   metrics (--trace 0) or the per-layer metrics (--trace 1).

It exits 1 when an operation fails that is not a known program fault, and 2
when the package source is missing.  Work files go to solvebench/out/,
which git ignores; a traced run also leaves solvebench/out/trace-NAME.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 15
MIN_KERNELS = 4  # kernel samples behind each operation's drift factor
# The host's speed changes within fractions of a second: an operation
# longer than HOST_STEP_S takes its drift factor from round(duration /
# HOST_STEP_S) gaps on each side, its host's speed over several seconds.
HOST_STEP_S = 0.3
WORKER_GRACE_S = 150
KNOWN = "known fault"  # outcome of an operation that failed by its case's known fault
MODULES = ("gammafn", "rational", "equation", "characteristic", "series", "specialfn", "cli")

PROBE = """
import json, time
t0 = time.perf_counter()
import quasibessel.cli
print(json.dumps({"import_s": time.perf_counter() - t0}))
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup(trace: bool):
    """Drift-corrected median import time, its raw median, and per-module
    self import times.  The kernel runs in this process between the children:
    a kernel timed inside a fresh interpreter runs cold and is too noisy."""
    import drift

    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + ["-c", PROBE]
    raw, kernels, self_times = [], [], {m: [] for m in MODULES}
    for i in range(SETUP_SAMPLES + 1):
        kernels += [drift.time_kernel() for _ in range(3)]
        proc = subprocess.run(cmd, cwd=HERE, env=_child_env(), capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-500:]}")
        if i == 0:
            continue  # the first child may compile the bytecode cache
        raw.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2].startswith("quasibessel."):
                name = parts[2].split(".", 1)[1]
                if name in self_times:
                    self_times[name].append(int(parts[0].split(":")[1]) * 1e-6)
    kernels += [drift.time_kernel() for _ in range(3)]
    setup_raw = statistics.median(raw)
    modules = {m: statistics.median(v) for m, v in self_times.items() if v}
    return setup_raw * drift.NOMINAL_S / statistics.median(kernels), setup_raw, modules


def drift_factors(gaps, seconds):
    """Per operation: median of the kernel samples in the gaps just before and
    after it, over NOMINAL_S.  The window widens by one gap on each side until
    it holds MIN_KERNELS samples and reaches round(duration / HOST_STEP_S)
    gaps on each side, so that a one-second operation is corrected by the
    host's speed over several seconds, not by two snapshots of it."""
    import drift

    out = []
    for i, op_s in enumerate(seconds):
        reach = round(op_s / HOST_STEP_S)
        samples, w = gaps[i] + gaps[i + 1], 1
        while (len(samples) < MIN_KERNELS or w < reach) and (i - w >= 0 or i + 1 + w < len(gaps)):
            samples += (gaps[i - w] if i - w >= 0 else []) + (gaps[i + 1 + w] if i + 1 + w < len(gaps) else [])
            w += 1
        out.append(statistics.median(samples) / drift.NOMINAL_S)
    return out


def run_worker(cases, work: Path, seconds: float, trace: bool) -> dict:
    manifest = {
        "src": str(SRC),
        "seconds": seconds,
        "trace": trace,
        "cases": [{"name": c.name, "spec": str(work / c.name / "spec.json"), "out": str(work / c.name / "out")}
                  for c in cases],
    }
    for c in cases:
        (work / c.name).mkdir(parents=True, exist_ok=True)
        (work / c.name / "spec.json").write_text(json.dumps(c.spec, indent=1), encoding="utf-8")
    (work / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    result = work / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(work / "manifest.json"), str(result)],
        cwd=HERE, env=_child_env(), timeout=seconds + WORKER_GRACE_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(result.read_text())


def _op_problem(case, rec) -> str:
    if rec["error"] is not None:
        return f"raised {rec['error']}"
    if rec["code"] != case.expected_exit:
        return f"exit {rec['code']}, expected {case.expected_exit}: {rec['stderr'].strip()}"
    if case.expected_exit == 3 and "no valid characteristic roots" not in rec["stderr"]:
        return f"exit 3 without the no-valid-roots message: {rec['stderr'].strip()}"
    if case.expected_exit == 0 and rec["stderr"]:
        return f"unexpected error output: {rec['stderr'].strip()}"
    return ""


def evaluate_run(cases, work: Path, result: dict):
    """Per-operation outcome ("" passed, KNOWN for the case's known fault, or
    the problem), and the check ratios and u_digits values."""
    import checks
    import reference

    by_name = {c.name: c for c in cases}
    last = {}
    for rec in result["records"]:
        last[rec["case"]] = rec
    case_problem, digits, ratios = {}, {}, {}
    for c in cases:
        rec = last[c.name]
        if c.known_fault and c.known_fault.matches(rec):
            case_problem[c.name] = ""
            continue
        problem = ""
        if rec["code"] is not None and rec["error"] is None:
            chk = checks.check_case(c, work / c.name / "out", reference.grid(c.spec))
            problem = "; ".join(chk.problems[:3])
            if chk.digits:
                digits[c.name] = chk.digits
            for key, value in chk.ratios.items():
                ratios[key] = max(ratios.get(key, 0.0), value)
        case_problem[c.name] = _op_problem(c, rec) or problem
    outcomes = []
    for rec in result["records"]:
        c = by_name[rec["case"]]
        known = bool(c.known_fault and c.known_fault.matches(rec))
        problem = "" if known else case_problem[c.name] or _op_problem(c, rec)
        if not problem and rec["digest"] != last[c.name]["digest"]:
            problem = "output differs from another operation on the same spec"
        if problem:
            print(f"FAIL {c.name}: {problem}", file=sys.stderr)
        outcomes.append(problem or (KNOWN if known else ""))
    return outcomes, digits, ratios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quasibessel" / "cli.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import reference
    import specs

    if args.workload not in specs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(specs.WORKLOADS)}",
              file=sys.stderr)
        return 2
    reference.self_test()
    cases = specs.cases_for(args.workload, args.seed)
    setup_s, setup_raw_s, import_s = measure_setup(bool(args.trace))

    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = run_worker(cases, work, args.seconds, bool(args.trace))
    outcomes, digits, ratios = evaluate_run(cases, work, result)
    op_ok = [not o for o in outcomes]

    records = result["records"]
    factors = drift_factors(result["kernels"], [rec["seconds"] for rec in records])
    corrected = [rec["seconds"] / f for rec, f in zip(records, factors)]
    ok_times = [t for t, ok in zip(corrected, op_ok) if ok]
    raw_ok = [rec["seconds"] for rec, ok in zip(records, op_ok) if ok]
    failed = op_ok.count(False)
    correct = all(o in ("", KNOWN) for o in outcomes)

    summary = {
        "workload": args.workload, "seed": args.seed, "cases": [c.name for c in cases],
        "operations": len(records), "rounds": len(records) // len(cases),
        "raw_p50_s": statistics.median(raw_ok) if raw_ok else None,
        "kernel_median_s": statistics.median(k for gap in result["kernels"] for k in gap),
        "setup_raw_s": setup_raw_s,
        "check_ratios": ratios,
        "case_p50_s": {c.name: statistics.median(t for rec, t in zip(records, corrected) if rec["case"] == c.name)
                       for c in cases},
        "u_digits_by_case": digits,
    }
    if len(ok_times) >= 40:
        # highest percentile with at least ten samples beyond it
        q = 1.0 - 10.0 / len(ok_times)
        summary["tail"] = {"percentile": round(100 * q, 1), "samples": len(ok_times),
                           "corrected_s": sorted(ok_times)[int(q * len(ok_times)) - 1],
                           "raw_s": sorted(raw_ok)[int(q * len(raw_ok)) - 1]}
    if args.trace:
        metrics = layer_metrics(records, factors, op_ok, import_s)
        summary["solve_time_p50_s"] = statistics.median(ok_times) if ok_times else None
        summary["per_op"] = [
            dict({k: v / f if k.endswith("_s") else v for k, v in rec["trace"].items()},
                 case=rec["case"], seconds=t, ok=ok)
            for rec, f, t, ok in zip(records, factors, corrected, op_ok)
        ]
        summary["metrics"] = metrics
        (OUT / f"trace-{args.workload}.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    else:
        metrics = {
            "solve_time.p50": (statistics.median(ok_times) if ok_times else float("nan"), "s"),
            "solves_per_s": (len(ok_times) / sum(corrected), "1/s"),
            "setup_s": (setup_s, "s"),
            "rss_peak_mb": (result["rss_kb"] / 1024.0, "MB"),
            "u_digits": (statistics.median(d for ds in digits.values() for d in ds), "digits"),
        }
        print(json.dumps(summary), file=sys.stderr)
    shutil.rmtree(OUT / "work", ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def layer_metrics(records, factors, op_ok, import_s):
    """Per-operation medians of the traced numbers (times drift-corrected)."""
    times = ("characteristic.find_roots_s", "series.compute_step_s", "series.build_s", "series.evaluate_s",
             "series.residual_s", "equation.validate_s", "specialfn.oracle_s", "cli.self_s")
    counts = (("characteristic.G_evals", "count"), ("characteristic.roots", "count"),
              ("gammafn.gamma_ratio_calls", "count"), ("series.terms", "count"),
              ("series.term_points", "count"), ("specialfn.ks_coeff_calls", "count"))
    kept = [(rec["trace"], f, rec["bytes"]) for rec, f, ok in zip(records, factors, op_ok) if ok]
    out = {}
    for name in times:
        out[name] = (statistics.median(t.get(name, 0.0) / f for t, f, _ in kept), "s")
    for name, unit in counts:
        out[name] = (statistics.median(t.get(name, 0) for t, _, _ in kept), unit)
    g_evals = sum(t.get("characteristic.G_evals", 0) for t, _, _ in kept)
    roots = sum(t.get("characteristic.roots", 0) for t, _, _ in kept)
    out["characteristic.G_evals_per_root"] = (g_evals / roots if roots else float("nan"), "evals/root")
    out["cli.bytes_out"] = (statistics.median(b for _, _, b in kept), "bytes")
    for module in MODULES:
        out[f"{module}.import_s"] = (import_s.get(module, float("nan")), "s")
    return out


if __name__ == "__main__":
    sys.exit(main())
