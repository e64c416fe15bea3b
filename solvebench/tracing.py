"""Per-layer tracing by wrapping the package's functions from outside.

Nothing in the package changes.  ``install`` replaces module attributes with
wrappers that either time a stage (a span with self time: its duration minus
the spans it encloses) or count calls.  The CLI imports its stages by name,
so the timed stages are patched in the ``quasibessel.cli`` namespace; the
counted inner calls are patched in the namespace of the module that makes
them (``characteristic`` for G evaluations, ``characteristic`` and
``series`` for Gamma ratios, ``specialfn`` for Kilbas-Saigo coefficients).
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List

# (module attribute in quasibessel.cli, per-layer metric that gets its time)
TIMED_STAGES = (
    ("solve_command", "cli.self_s"),
    ("validate", "equation.validate_s"),
    ("nu_min_threshold", "equation.validate_s"),
    ("uniqueness_bound", "equation.validate_s"),
    ("compute_step", "series.compute_step_s"),
    ("find_roots", "characteristic.find_roots_s"),
    ("build_coefficients", "series.build_s"),
    ("evaluate", "series.evaluate_s"),
    ("residual", "series.residual_s"),
    ("_oracle_check", "specialfn.oracle_s"),
)


class Tracer:
    """Span times and call counts for one operation at a time."""

    def __init__(self) -> None:
        self.times: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[float] = []  # child time accumulated per open span

    def reset(self) -> None:
        self.times.clear()
        self.counts.clear()
        self._stack.clear()

    def timed(self, fn: Callable, metric: str) -> Callable:
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                children = self._stack.pop()
                self.times[metric] += duration - children
                if self._stack:
                    self._stack[-1] += duration

        return wrapper

    def counted(self, fn: Callable, metric: str) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def snapshot(self) -> Dict[str, float]:
        out: Dict[str, float] = dict(self.times)
        out.update(self.counts)
        return out


def install(tracer: Tracer) -> None:
    """Wrap the package's stages; the stage results feed the work counters."""
    from quasibessel import characteristic, cli, series, specialfn

    for name, metric in TIMED_STAGES:
        setattr(cli, name, tracer.timed(getattr(cli, name), metric))

    find_roots = cli.find_roots
    build = cli.build_coefficients
    evaluate = cli.evaluate
    residual = cli.residual

    def find_roots_counted(eq, *args, **kwargs):
        roots = find_roots(eq, *args, **kwargs)
        tracer.counts["characteristic.roots"] += len(roots)
        return roots

    def build_counted(*args, **kwargs):
        sol = build(*args, **kwargs)
        tracer.counts["series.terms"] += sol.truncation.terms_used
        return sol

    def evaluate_counted(sol, xs):
        tracer.counts["series.term_points"] += len(sol.coefficients) * len(xs)
        return evaluate(sol, xs)

    def residual_counted(eq, sol, xs):
        tracer.counts["series.term_points"] += len(sol.coefficients) * len(xs)
        return residual(eq, sol, xs)

    cli.find_roots = find_roots_counted
    cli.build_coefficients = build_counted
    cli.evaluate = evaluate_counted
    cli.residual = residual_counted

    characteristic.characteristic_value = tracer.counted(
        characteristic.characteristic_value, "characteristic.G_evals"
    )
    characteristic.gamma_ratio = tracer.counted(characteristic.gamma_ratio, "gammafn.gamma_ratio_calls")
    series.gamma_ratio = tracer.counted(series.gamma_ratio, "gammafn.gamma_ratio_calls")
    specialfn.kilbas_saigo_coefficients = tracer.counted(
        specialfn.kilbas_saigo_coefficients, "specialfn.ks_coeff_calls"
    )
