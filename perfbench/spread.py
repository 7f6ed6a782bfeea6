"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads noisy --seeds 1 2 3 4 5

Runs the benchmark untraced once per seed and workload, then prints for
each metric the median of its values and the distance between their first
and third quartiles (statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound in BENCHMARK.json.  The raw values go to
.perfbench_out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    status = 0
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            proc = subprocess.run(
                [*SPEC["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            report = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
            if report is None or not report["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}, {proc.stderr[-300:]}")
                status = 1
                continue
            for name in bounds:
                values[name].append(report["metrics"][name]["value"])
        (ROOT / ".perfbench_out").mkdir(exist_ok=True)
        (ROOT / ".perfbench_out" / f"spread-{workload}.json").write_text(
            json.dumps({"seeds": args.seeds, "values": values}, indent=1) + "\n", encoding="utf-8")
        print(f"{workload}: {len(args.seeds)} seeds")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else 0.0
            print(f"  {name:<16} median {med:<12.6g} spread {share:7.4f}  bound {bounds[name]}"
                  f"{'  (over a third of the bound)' if share > bounds[name] / 3 else ''}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
