"""Benchmark of the driftrec reconstruction pipeline.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all    # every workload, one table each

Runs `driftrec.experiments.run_experiment` from the checkout's `src/` as a
closed loop with one client in one process, BLAS threads pinned to 1.  One
sample is a round: one pass, in a fixed order, over the workload's presets,
each emitting its output files to a scratch directory.  A reconstruction
fails if it raises, returns a status other than "ok", or emits drift.csv or
trace.json bytes that differ from its first run with the same inputs.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
runs half its time untraced and half traced (see spans.py), adds the layer
scaling sweeps (see sweep.py) and reports the per-layer metrics.  The last
line of stdout is one JSON object: {correct, attempted, failed, metrics}.
Spans and a full result record go to `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy is imported anywhere

import argparse
import contextlib
import json
import math
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHECKED_FILES = ("drift.csv", "trace.json")


@dataclass(frozen=True)
class Workload:
    presets: tuple[str, ...]
    overrides: dict = field(default_factory=dict)
    # noise seeds drawn from --seed; rounds cycle through them.  The
    # accuracy metrics take the median over the draws: on about one noisy
    # draw in fourteen the reconstruction error jumps several-fold, and a
    # single draw, or the worst of several, would make them swing from
    # run to run
    noise_draws: int = 1
    # fixed per workload so that a faster program, which fits more rounds
    # into a run, is not compared at a higher percentile; chosen so the
    # seed code leaves at least ten rounds beyond it
    tail_pct: int = 50


WORKLOADS = {
    "exact": Workload(("ex1a", "ex1b", "ex2c", "ex2d"), tail_pct=75),
    "noisy": Workload(("ex3e", "ex3f"), noise_draws=3, tail_pct=60),
    "fine": Workload(("ex1a",), {"grid_m": 400, "grid_n": 400}, tail_pct=50),
}

SETUP_PROBE = (
    "import time, driftrec, driftrec.cli\n"
    "from driftrec.experiments import make_preset\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC), driftrec.__file__)\n"
)
SETUP_RUNS = 5


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> float:
    """Median time from spawning a fresh interpreter until driftrec, its CLI
    and make_preset are imported; one discarded run first warms the file
    and bytecode caches.  Parent and child read the system-wide monotonic
    clock, which a wall-clock step cannot move."""
    samples = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=child_env(),
                             capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            fail(f"setup probe failed:\n{out.stderr}")
        ready, where = out.stdout.split(maxsplit=1)
        if not Path(where.strip()).resolve().is_relative_to(SRC):
            fail(f"setup probe imported driftrec from {where}, not from {SRC}")
        if i:
            samples.append(float(ready) - t0)
    return statistics.median(samples)


def import_driftrec():
    sys.path.insert(0, str(SRC))
    try:
        import driftrec
        import driftrec.experiments
    except ImportError as exc:
        fail(f"cannot import driftrec from {SRC}: {exc}")
    if not Path(driftrec.__file__).resolve().is_relative_to(SRC):
        fail(f"imported driftrec from {driftrec.__file__}, not from {SRC}")
    return driftrec


@dataclass(frozen=True)
class Case:
    key: str      # preset name and noise seed: one set of inputs
    draw: int     # index of the noise seed within the cycle
    out_dir: Path
    preset: object


class Checker:
    """Counts reconstructions and decides which of them failed."""

    def __init__(self):
        self.reference: dict[str, tuple[bytes, ...]] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, case: Case, outcome) -> bool:
        self.attempted += 1
        reason = self._fault(case, outcome)
        if reason is None:
            return True
        self.failed += 1
        print(f"perfbench: {case.key} failed: {reason}", file=sys.stderr)
        return False

    def _fault(self, case: Case, outcome) -> str | None:
        if isinstance(outcome, BaseException):
            return f"raised {type(outcome).__name__}: {outcome}"
        if outcome.status != "ok":
            return f"status {outcome.status!r}: {outcome.error}"
        try:
            blobs = tuple((case.out_dir / f).read_bytes() for f in CHECKED_FILES)
        except FileNotFoundError as exc:
            return f"missing output {exc.filename}"
        if self.reference.setdefault(case.key, blobs) != blobs:
            return "emitted bytes differ from its first run"
        return None


def build_cycle(dr, workload: Workload, seed: int, scratch: Path) -> list[list[Case]]:
    """The rounds of one cycle: one round per noise draw."""
    draws = random.Random(seed)
    cycle = []
    for draw in range(workload.noise_draws):
        noise_seed = draws.randrange(2**31)
        cycle.append([
            Case(f"{name}/seed{noise_seed}", draw, scratch / name,
                 dr.experiments.make_preset(name, seed=noise_seed, **workload.overrides))
            for name in workload.presets
        ])
    return cycle


@dataclass
class LoopResult:
    round_s: list = field(default_factory=list)
    cpu_s: float = 0.0
    ok: int = 0
    attempted: int = 0
    summaries: list = field(default_factory=list)


def summarize(case: Case, bundle) -> dict:
    """What the metrics need from a bundle; the bundle itself is dropped so
    that its arrays do not pile up in the benchmark's memory."""
    moll = bundle.mollification
    searched = moll is not None and moll.get("mode") == "discrepancy"
    preset = bundle.preset
    return {
        "draw": case.draw,
        "rel_l2": bundle.metrics["rel_l2"],
        "rel_linf": bundle.metrics["rel_linf"],
        "floor_hits": bundle.trace.floor_hits,
        "lambda_over_max": (moll["lambda"] / preset.tikhonov.resolved_lambda_max(preset.data_points)
                            if searched else None),
    }


def _no_span(name: str):
    return contextlib.nullcontext()


def run_round(dr, cases: list[Case], checker: Checker, result: LoopResult, tracer=None) -> None:
    for case in cases:
        for name in CHECKED_FILES:
            (case.out_dir / name).unlink(missing_ok=True)
    span = tracer.span if tracer is not None else _no_span
    outcomes = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with span("round"):
        for case in cases:
            try:
                with span("experiments.run_experiment"):
                    outcomes.append(dr.experiments.run_experiment(case.preset, case.out_dir))
            except Exception as exc:  # a failed reconstruction; the loop goes on
                traceback.print_exc()
                outcomes.append(exc)
    result.round_s.append(time.perf_counter() - t0)
    result.cpu_s += time.process_time() - cpu0
    for case, outcome in zip(cases, outcomes):
        result.attempted += 1
        if checker.check(case, outcome):
            result.ok += 1
            result.summaries.append(summarize(case, outcome))


def run_cycle(dr, cycle, checker: Checker, result: LoopResult, tracer=None) -> None:
    for cases in cycle:
        if tracer is not None:
            tracer.round_id += 1
        run_round(dr, cases, checker, result, tracer)


def repeat_for(seconds: float, step) -> None:
    """Call `step` until `seconds` have passed, at least once."""
    t0 = time.perf_counter()
    step()
    while time.perf_counter() - t0 < seconds:
        step()


def tail(values: list, pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def worst(summaries: list, key: str) -> float:
    """Median over the noise draws of the largest value over the presets."""
    by_draw: dict[int, float] = {}
    for s in summaries:
        by_draw[s["draw"]] = max(by_draw.get(s["draw"], s[key]), s[key])
    return statistics.median(by_draw.values()) if by_draw else 0.0


def end_to_end(loop: LoopResult, summaries: list, workload: Workload, setup_s: float) -> dict:
    return {
        "round_s_p50": statistics.median(loop.round_s),
        "round_s_tail": tail(loop.round_s, workload.tail_pct),
        "recon_per_s": loop.ok / sum(loop.round_s),
        "cpu_s_per_recon": loop.cpu_s / loop.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rel_l2_worst": worst(summaries, "rel_l2"),
        "rel_linf_worst": worst(summaries, "rel_linf"),
    }


def environment(dr, args, workload: Workload) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "driftrec": dr.__version__,
        "blas_threads": BLAS_THREADS,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tail_percentile": workload.tail_pct,
    }


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    if not (SRC / "driftrec" / "__init__.py").is_file():
        fail(f"no driftrec package under {SRC}")
    setup_s = measure_setup() if args.trace == 0 else 0.0
    dr = import_driftrec()

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"{args.workload}-{os.getpid()}"
    try:
        cycle = build_cycle(dr, workload, args.seed, scratch)
        checker = Checker()
        warm = LoopResult()
        run_round(dr, cycle[0], checker, warm)  # fills caches and the first reference bytes
        if args.trace == 0:
            loop = LoopResult()
            repeat_for(args.seconds, lambda: run_cycle(dr, cycle, checker, loop))
            summaries = warm.summaries + loop.summaries
            metrics = end_to_end(loop, summaries, workload, setup_s)
            info = {"rounds": len(loop.round_s),
                    "beyond_tail": sum(t > metrics["round_s_tail"] for t in loop.round_s),
                    "rel_l2_max": max((s["rel_l2"] for s in summaries), default=0.0)}
        else:
            import spans
            from sweep import run_sweeps

            # untraced and traced cycles alternate, so the overhead estimate
            # does not pick up a drift in machine speed over the run
            plain, traced, tracer = LoopResult(), LoopResult(), spans.Tracer()

            def both():
                run_cycle(dr, cycle, checker, plain)
                with tracer.installed(dr):
                    run_cycle(dr, cycle, checker, traced, tracer)

            repeat_for(args.seconds, both)
            metrics = spans.layer_metrics(tracer.spans, len(traced.round_s), traced.summaries)
            metrics["trace.overhead"] = (statistics.median(traced.round_s)
                                         / statistics.median(plain.round_s) - 1.0)
            metrics.update(run_sweeps(dr, args.seed))
            span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(span_file)
            info = {"rounds": len(traced.round_s), "untraced_rounds": len(plain.round_s),
                    "largest_self_span": spans.largest_self_span(tracer.spans),
                    "spans": len(tracer.spans), "span_file": str(span_file.relative_to(ROOT))}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = declared_units(args.trace)
    if metrics.keys() != units.keys():
        fail(f"measured metrics {sorted(metrics.keys() ^ units.keys())} disagree with BENCHMARK.json")
    finite = all(math.isfinite(v) for v in metrics.values())
    env = environment(dr, args, workload)
    report = {
        "correct": checker.failed == 0 and finite,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"workload": args.workload, "env": env, "info": info, **report},
                                 indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          + "  ".join(f"{k} {v}" for k, v in info.items()))
    for name, m in report["metrics"].items():
        print(f"  {name:<40} {m['value']:<14.6g} {m['unit']}")
    print(f"  {'ops_failed/ops_total':<40} {checker.failed}/{checker.attempted}")
    print("env " + json.dumps(env))
    print(json.dumps(report))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(out.stderr)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            fail(f"workload {name} exited with {out.returncode}")
        report = json.loads(lines[-1])
        totals["correct"] &= report["correct"]
        totals["attempted"] += report["attempted"]
        totals["failed"] += report["failed"]
        totals["metrics"].update({f"{name}.{k}": v for k, v in report["metrics"].items()})
    print(json.dumps(totals))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
