"""Spans around the calls the driftrec pipeline makes into each layer.

The tracer replaces the module attributes the pipeline calls through with
wrappers that record one span per call: a name, a start, an end, the span
that caused it and the round it belongs to.  Nothing inside the program
changes; the wrappers are installed for the traced loop only and the
original functions are put back afterwards.  Spans are kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# (module, attributes) pairs wrapped in the traced run.  A span is named
# "<module>.<attribute>", i.e. after the call site, so the same function
# reached through two modules gives two span names.
WRAPPED = (
    ("experiments", ("solve_forward", "select_lambda", "solve_tikhonov", "run_iteration",
                     "restrict", "validate_assumptions", "emit_outputs")),
    ("inversion", ("solve_forward", "drift_update")),
    ("mollify", ("solve_tikhonov",)),
)
ROUND = "round"
RUN = "experiments.run_experiment"
SPAN_NAMES = (RUN,) + tuple(f"{mod}.{attr}" for mod, attrs in WRAPPED for attr in attrs)

SYNTH = "experiments.solve_forward"
INVERT = "inversion.solve_forward"
SOLVES = ("experiments.solve_tikhonov", "mollify.solve_tikhonov")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root
    round_id: int
    end: float = 0.0
    error: str | None = None
    cells: int = 0   # forward solves: n_steps * (m + 1)
    nbytes: int = 0  # forward solves: returned field; emission: bytes written


def _measure_forward(span: Span, args, kwargs, result) -> None:
    grids = kwargs.get("grids", args[2] if len(args) > 2 else None)
    if grids is not None:
        span.cells = grids.time.n_steps * (grids.space.m + 1)
    values = getattr(result, "values", None)
    span.nbytes = int(getattr(values, "nbytes", 0))


def _measure_emit(span: Span, args, kwargs, result) -> None:
    span.nbytes = sum(Path(p).stat().st_size for p in result)


MEASURES = {"solve_forward": _measure_forward, "emit_outputs": _measure_emit}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.round_id = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        s = Span(name, perf_counter(), parent, self.round_id)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        except BaseException as exc:
            s.error = type(exc).__name__
            raise
        finally:
            s.end = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        measure = MEASURES.get(name.split(".", 1)[1])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if measure is not None:
                measure(s, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, package):
        """Wrap every WRAPPED attribute of `package`'s modules while active."""
        saved = []
        try:
            for mod_name, attrs in WRAPPED:
                module = getattr(package, mod_name)
                for attr in attrs:
                    fn = getattr(module, attr)
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(f"{mod_name}.{attr}", fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write(self, path: Path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start - t0, "end": s.end - t0,
                    "parent": s.parent, "round": s.round_id, "error": s.error,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def largest_self_span(spans: list[Span]) -> str:
    totals: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        if s.name != ROUND:
            totals[s.name] += t
    return max(totals, key=totals.get) if totals else ""


def layer_metrics(spans: list[Span], n_rounds: int, summaries: list[dict]) -> dict[str, float]:
    """Per-layer figures per traced round, from the spans and the summaries
    of the reconstructions they traced."""
    selfs = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    cells = 0
    field_bytes = 0
    emit_bytes = 0
    restrict_s = 0.0
    solve_times = []
    solve_failures = 0
    for s, t_self in zip(spans, selfs):
        dur = s.end - s.start
        total[s.name] += dur
        own[s.name] += t_self
        calls[s.name] += 1
        if s.name in (SYNTH, INVERT):
            cells += s.cells
            field_bytes = max(field_bytes, s.nbytes)
        elif s.name == "experiments.emit_outputs":
            emit_bytes += s.nbytes
        elif s.name == "experiments.restrict" and s.parent >= 0 and spans[s.parent].name == RUN:
            # restrictions made inside emit_outputs count as emission
            restrict_s += dur
        elif s.name in SOLVES:
            solve_times.append(dur)
            if s.error == "IllPosedError":
                solve_failures += 1

    per = 1.0 / n_rounds
    forward_s = total[SYNTH] + total[INVERT]
    n_solves = calls[SOLVES[0]] + calls[SOLVES[1]]
    lam_ratios = [x["lambda_over_max"] for x in summaries if x["lambda_over_max"] is not None]
    round_s = total[ROUND]
    metrics = {
        "forward.synth_s": total[SYNTH] * per,
        "forward.invert_s": total[INVERT] * per,
        "forward.calls": (calls[SYNTH] + calls[INVERT]) * per,
        "forward.cells": cells * per,
        "forward.ns_per_cell": forward_s / cells * 1e9 if cells else 0.0,
        "forward.field_mb": field_bytes / 1e6,
        "inversion.updates": calls["inversion.drift_update"] * per,
        "inversion.self_s": (own["experiments.run_iteration"] + own["inversion.drift_update"]) * per,
        "inversion.floor_hits": sum(x["floor_hits"] for x in summaries) * per,
        "mollify.select_s": total["experiments.select_lambda"] * per,
        "mollify.solves": n_solves * per,
        "mollify.solve_s_p50": statistics.median(solve_times) if solve_times else 0.0,
        "mollify.solve_failures": solve_failures * per,
        # the search keeps only the final solve's result; 0 when nothing was solved
        "mollify.useful_ratio": calls[SOLVES[0]] / n_solves if n_solves else 0.0,
        "mollify.lambda_over_max": max(lam_ratios, default=0.0),
        "mollify.restrict_s": restrict_s * per,
        "model.validate_s": total["experiments.validate_assumptions"] * per,
        "experiments.emit_s": total["experiments.emit_outputs"] * per,
        "experiments.emit_bytes": emit_bytes * per,
        "experiments.self_s": own[RUN] * per,
        "trace.unattributed_share": own[ROUND] / round_s if round_s else 0.0,
    }
    for name in SPAN_NAMES:
        metrics[f"span.{name}.calls"] = calls[name] * per
    return metrics
