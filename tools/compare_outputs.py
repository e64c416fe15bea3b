"""Compare the solver's outputs of two source trees, case by case.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC [--seeds 101 102 103]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.  The
cases are the solvebench workloads' specs for the given seeds, built once by
``solvebench/specs.py`` of this checkout (which needs mpmath) and read only.
Each tree solves every case of every workload in one subprocess whose
PYTHONPATH is that tree's ``src``, through ``cli.main(["solve", spec, "-o",
out, "--oracle"])``.  Both run in their own directory with the same relative
output paths, so a path that the solver prints is the same in both.

Reported per case: a differing exit code (or exception), stderr, set of
written files, or file contents.  For a text file that differs, the first
line that differs is printed under it, the parent's after ``-`` and the
change's after ``+``.  Exits 1 if anything differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# run in each tree's process: argv[1] is the manifest, argv[2] the result file
CHILD = r"""
import contextlib, io, json, sys, traceback
from pathlib import Path
from quasibessel import cli
cases = json.loads(Path(sys.argv[1]).read_text())
results = {"module": cli.__file__, "cases": {}}
for name, spec in cases:
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(["solve", spec, "-o", "out/" + name, "--oracle"])
    except SystemExit as exc:
        code = f"SystemExit({exc.code!r})"
    except Exception:
        code = traceback.format_exc(limit=1).strip().splitlines()[-1]
    results["cases"][name] = {"code": code, "stderr": err.getvalue()}
Path(sys.argv[2]).write_text(json.dumps(results))
"""


def write_cases(seeds, spec_dir: Path) -> list:
    """Write every case's spec and return [(name, absolute spec path)]."""
    sys.path.insert(0, str(ROOT / "solvebench"))
    sys.dont_write_bytecode = True  # leave the benchmark's directory as it is
    import specs

    cases = []
    for workload in specs.WORKLOADS:
        for seed in seeds:
            for case in specs.cases_for(workload, seed):
                name = f"{workload}-{seed}-{case.name}"
                path = spec_dir / f"{name}.json"
                path.write_text(json.dumps(case.spec, indent=1), encoding="utf-8")
                cases.append((name, str(path)))
    return cases


def solve_all(src: Path, cases: list, work: Path) -> dict:
    work.mkdir()
    manifest = work / "cases.json"
    manifest.write_text(json.dumps(cases), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    subprocess.run(
        [sys.executable, "-c", CHILD, str(manifest), str(work / "result.json")],
        cwd=work, env=env, check=True,
    )
    result = json.loads((work / "result.json").read_text())
    module = Path(result["module"]).resolve()
    if src.resolve() not in module.parents:
        raise SystemExit(f"error: {src} imported quasibessel from {module}")
    return result["cases"]


def outputs(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}


def first_difference(a: bytes, b: bytes) -> str:
    """The first differing line of two texts, with its number, as two
    indented lines; empty when either side is not UTF-8 text."""
    try:
        lines_a, lines_b = a.decode("utf-8").splitlines(), b.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return ""
    pairs = zip_longest(lines_a, lines_b, fillvalue="<end of file>")
    for number, (line_a, line_b) in enumerate(pairs, 1):
        if line_a != line_b:
            return f" at line {number}\n  - {line_a}\n  + {line_b}"
    return " in its line endings"


def compare(cases: list, parent: dict, change: dict, work: Path) -> list:
    diffs = []
    for name, _ in cases:
        a, b = parent[name], change[name]
        if a["code"] != b["code"]:
            diffs.append(f"{name}: exit {a['code']!r} -> {b['code']!r}")
        if a["stderr"] != b["stderr"]:
            diffs.append(f"{name}: stderr {a['stderr']!r} -> {b['stderr']!r}")
        files_a = outputs(work / "parent" / "out" / name)
        files_b = outputs(work / "change" / "out" / name)
        if files_a.keys() != files_b.keys():
            diffs.append(f"{name}: files {sorted(files_a)} -> {sorted(files_b)}")
        for file in sorted(files_a.keys() & files_b.keys()):
            if files_a[file] != files_b[file]:
                where = first_difference(files_a[file], files_b[file])
                diffs.append(f"{name}: {file} differs{where}")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, help="src directory of the parent tree")
    parser.add_argument("change_src", type=Path, help="src directory of the changed tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[101, 102, 103])
    args = parser.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not (src / "quasibessel" / "cli.py").is_file():
            parser.error(f"{src} is not a src directory holding quasibessel/cli.py")

    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        work = Path(tmp)
        (work / "specs").mkdir()
        cases = write_cases(args.seeds, work / "specs")
        parent = solve_all(args.parent_src, cases, work / "parent")
        change = solve_all(args.change_src, cases, work / "change")
        diffs = compare(cases, parent, change, work)
    for line in diffs:
        print(line)
    print(f"{len(cases)} cases, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
