"""The workload process: runs solve operations for a fixed time.

    python3 worker.py MANIFEST RESULT

MANIFEST names the package source directory, the run length, whether to
trace, and the cases (spec path and output directory).  Each operation is
one in-process ``quasibessel.cli.solve_command(spec, out_dir, oracle=True)``
call on a spec written before timing starts.  Rounds of every case repeat
until the run length has passed, so each run attempts whole rounds.  The
drift kernel is timed before the first operation and after each one
(a gap of one or more kernel runs).
Output files are hashed outside the timed region.  RESULT receives every
operation's record and the process's peak resident memory.  This process
never imports mpmath, so its memory is the solver's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import time
from pathlib import Path


def _digest(out_dir: Path):
    h = hashlib.sha256()
    size = 0
    for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else []:
        data = path.read_bytes()
        size += len(data)
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest(), size


def _peak_rss_kb() -> int:
    """This process's resident-memory high-water mark.  getrusage's ru_maxrss
    would also count the parent's resident size at fork time."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(manifest_path: str, result_path: str) -> int:
    manifest = json.loads(Path(manifest_path).read_text())
    sys.path.insert(0, manifest["src"])
    import drift
    from quasibessel import cli

    tracer = None
    if manifest["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    cases = [(c["name"], Path(c["spec"]), Path(c["out"])) for c in manifest["cases"]]
    seconds = float(manifest["seconds"])

    # one untimed operation so first-call costs are not charged to a case
    shutil.rmtree(cases[0][2], ignore_errors=True)
    with contextlib.redirect_stderr(io.StringIO()):
        cli.solve_command(cases[0][1], cases[0][2], oracle=True)

    # kernel samples per gap between operations: about 3% of the operation
    # before the gap, so long operations get a finer host-speed estimate
    kernels = [[drift.time_kernel() for _ in range(2)]]
    records = []
    start = time.perf_counter()
    while True:
        for name, spec, out in cases:
            shutil.rmtree(out, ignore_errors=True)
            if tracer is not None:
                tracer.reset()
            err = io.StringIO()
            error = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stderr(err):
                    code = cli.solve_command(spec, out, oracle=True)
            except Exception as exc:  # an operation that raises is a failed operation
                code, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            n_kernels = max(1, min(16, round(0.03 * elapsed / drift.NOMINAL_S)))
            kernels.append([drift.time_kernel() for _ in range(n_kernels)])
            digest, size = _digest(out)
            record = {"case": name, "code": code, "error": error, "stderr": err.getvalue(),
                      "seconds": elapsed, "digest": digest, "bytes": size}
            if tracer is not None:
                record["trace"] = tracer.snapshot()
            records.append(record)
        if time.perf_counter() - start >= seconds:
            break

    rss_kb = _peak_rss_kb()
    Path(result_path).write_text(json.dumps({"records": records, "kernels": kernels, "rss_kb": rss_kb}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
