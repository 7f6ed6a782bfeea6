"""Command-line interface.

Subcommands: `forward` (forward solve only), `invert` (the full pipeline
for one preset: metrics to stdout, and with `--out` its four output files),
`suite` (every preset, each into its own directory).

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, NumericalError
from .experiments import (
    PRESET_NAMES,
    csv_lines,
    make_preset,
    run_experiment,
    run_suite,
    true_final_state,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


# Flags that override a preset field; each dest is its make_preset keyword.
_PRESET_FLAGS = {
    "--grid-m": dict(dest="grid_m", type=int, help="spatial interval count"),
    "--grid-n": dict(dest="grid_n", type=int, help="time step count"),
    "--refine": dict(dest="refinement", type=int, help="data-generation refinement factor"),
    "--data-points": dict(dest="data_points", type=int, help="data grid size"),
    "--noise": dict(dest="noise_level", type=float, help="relative noise level, e.g. 0.01"),
    "--no-mollify": dict(dest="mollify", action="store_false", help="skip data mollification"),
    "--seed": dict(dest="seed", type=int, help="noise RNG seed"),
    "--max-iter": dict(dest="max_iter", type=int, help="fixed-point iteration budget"),
    "--tol": dict(dest="tol_step", type=float, help="stopping step tolerance"),
}


def _overrides(args) -> dict:
    """The make_preset keywords of the preset flags given on the command line."""
    dests = {spec["dest"] for spec in _PRESET_FLAGS.values()}
    return {key: value for key, value in vars(args).items() if key in dests}


def cmd_forward(args) -> int:
    preset = make_preset(args.preset)
    # a forward solve has no data grid: only the problem and the two grid flags are read
    m = getattr(args, "grid_m", preset.solver_grid[0])
    n = getattr(args, "grid_n", preset.solver_grid[1])
    nodes, g = true_final_state(preset, m, n)
    print(f"forward {preset.name}: grid {m}x{n}, "
          f"u(.,T) in [{np.min(g):.6g}, {np.max(g):.6g}]")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / "solution.csv"
        lines = ["x,u_final"] + csv_lines([nodes, g])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return EXIT_OK


def _report_bundle(bundle) -> int:
    if bundle.status == "ok":
        m = bundle.metrics
        print(f"{bundle.preset.name}: ok, iterations={len(bundle.trace.step_norms)}, "
              f"rel_l2={m['rel_l2']:.6g}, rel_linf={m['rel_linf']:.6g}")
        return EXIT_OK
    print(f"{bundle.preset.name}: FAILED ({bundle.error})", file=sys.stderr)
    return EXIT_NUMERICAL


def cmd_invert(args) -> int:
    """A --seed for a run without noise is rejected rather than dropped
    (`suite` applies it to its noisy presets only)."""
    overrides = _overrides(args)
    preset = make_preset(args.preset, **overrides)
    if "seed" in overrides and preset.noise is None:
        raise ConfigurationError(f"--seed {overrides['seed']} has no effect: this run of "
                                 f"{preset.name!r} has no noise (give --noise > 0)")
    return _report_bundle(run_experiment(preset, args.out))


def cmd_suite(args) -> int:
    out_root = args.out if args.out is not None else Path("runs")
    results = run_suite(out_root, **_overrides(args))
    codes = [_report_bundle(bundle) for bundle in results.values()]
    print(f"outputs in {out_root}")
    return max(codes)


def _add_subcommand(sub, name, func, help_text, flags, *, preset=True) -> None:
    p = sub.add_parser(name, help=help_text)
    if preset:
        p.add_argument("preset", help=f"preset name, one of: {', '.join(PRESET_NAMES)}")
    for flag in flags:
        # a flag left off the command line stays out of the namespace: the preset default holds
        p.add_argument(flag, default=argparse.SUPPRESS, **_PRESET_FLAGS[flag])
    p.add_argument("--out", type=Path, default=None, help="output directory")
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftrec",
        description="Recover the drift coefficient of a 1D parabolic equation from final-time data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_subcommand(sub, "forward", cmd_forward,
                    "solve the forward problem with the preset's true drift",
                    ("--grid-m", "--grid-n"))
    _add_subcommand(sub, "invert", cmd_invert,
                    "run the full reconstruction, print metrics (--out writes the output files)",
                    _PRESET_FLAGS)
    _add_subcommand(sub, "suite", cmd_suite, "run all presets",
                    ("--refine", "--data-points", "--seed"), preset=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
