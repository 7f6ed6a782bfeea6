"""Fast self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

A one-second run of every workload, untraced and traced, must report
exactly the metrics BENCHMARK.json names, each a finite number with its
declared unit, and no failed reconstruction.  The benchmark must refuse to
run, without printing a result, in a directory holding only BENCHMARK.json
and the benchmark's files.  src/driftrec and tests/ must be left as they
were.  Exits 0 when every check passes.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
GUARDED = ("src/driftrec", "tests")


def tree_digest() -> str:
    h = hashlib.sha256()
    for top in GUARDED:
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_report(workload: str, trace: int, proc: subprocess.CompletedProcess) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    report = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(report)}")
    if not report.get("correct") or report.get("failed") != 0 or report.get("attempted", 0) < 1:
        problems.append(f"correct={report.get('correct')} failed={report.get('failed')} "
                        f"attempted={report.get('attempted')}")
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    measured = report.get("metrics", {})
    if measured.keys() != declared.keys():
        problems.append(f"metric names differ: {sorted(measured.keys() ^ declared.keys())}")
    for name, m in measured.items():
        if not (isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{name} is not a finite number: {m.get('value')!r}")
        if m.get("unit") != declared.get(name):
            problems.append(f"{name} has unit {m.get('unit')!r}, declared {declared.get(name)!r}")
    return problems


def check_bare() -> list[str]:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode == 0 or (lines and lines[-1].lstrip().startswith("{")):
        return [f"ran without the program: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    before = tree_digest()
    results = []
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            results.append((f"{w['name']} --trace {trace}", check_report(w["name"], trace,
                                                                          bench(ROOT, w["name"], trace))))
    results.append(("refuses to run without src/", check_bare()))
    after = tree_digest()
    results.append(("src/driftrec and tests/ untouched",
                    [] if before == after else ["their contents changed during the run"]))
    for label, problems in results:
        print(f"{'PASS' if not problems else 'FAIL'}  {label}")
        for p in problems:
            print(f"      {p}")
    return 0 if all(not p for _, p in results) else 1


if __name__ == "__main__":
    sys.exit(main())
