"""Command-line interface.

Subcommands: `forward` (forward solve only), `mollify` (data synthesis +
denoising), `invert` (full pipeline, metrics to stdout), `experiment`
(full pipeline + output bundle), `suite` (all presets).

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, NumericalError
from .experiments import (
    FORMATS,
    PRESET_NAMES,
    csv_lines,
    make_preset,
    mollify_data,
    run_experiment,
    run_suite,
    synthesize,
)
from .forward import solve_forward
from .model import GridFunction, build_grids

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _parse_lambda(text: str) -> float | None:
    if text == "auto":
        return None
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigurationError(f"--lambda expects a number or 'auto', got {text!r}") from exc
    return value


# Flags that override a preset field; each dest is its make_preset keyword.
_PRESET_FLAGS = {
    "--grid-m": dict(dest="grid_m", type=int, help="spatial interval count"),
    "--grid-n": dict(dest="grid_n", type=int, help="time step count"),
    "--refine": dict(dest="refinement", type=int, help="data-generation refinement factor"),
    "--data-points": dict(dest="data_points", type=int, help="data grid size"),
    "--noise": dict(dest="noise_level", type=float, help="relative noise level, e.g. 0.01"),
    "--lambda": dict(dest="lam", type=_parse_lambda, help="penalty weight, a number or 'auto'"),
    "--no-mollify": dict(dest="mollify", action="store_false", help="skip data mollification"),
    "--seed": dict(dest="seed", type=int, help="noise RNG seed"),
    "--max-iter": dict(dest="max_iter", type=int, help="fixed-point iteration budget"),
    "--tol": dict(dest="tol_step", type=float, help="stopping step tolerance"),
}


def _overrides(args) -> dict:
    """The make_preset keywords of the preset flags given on the command line."""
    dests = {spec["dest"] for spec in _PRESET_FLAGS.values()}
    return {key: value for key, value in vars(args).items() if key in dests}


def _preset_from_args(args, **fixed):
    """The named preset with the command line's overrides.  A --seed for a run
    without noise is rejected rather than dropped (`suite` applies it to its
    noisy presets only)."""
    overrides = _overrides(args)
    preset = make_preset(args.preset, **fixed, **overrides)
    if "seed" in overrides and preset.noise is None:
        raise ConfigurationError(f"--seed {overrides['seed']} has no effect: this run of "
                                 f"{preset.name!r} has no noise (give --noise > 0)")
    return preset


def _formats_from_args(args) -> tuple[str, ...]:
    fmts = tuple(f.strip() for f in args.formats.split(",") if f.strip())
    for f in fmts:
        if f not in FORMATS:
            raise ConfigurationError(f"unknown format {f!r}; expected subset of {FORMATS}")
    return fmts


def cmd_forward(args) -> int:
    preset = _preset_from_args(args)
    m, n = preset.solver_grid
    grids = build_grids(m, n, preset.spec.horizon)
    q_true = GridFunction.sample(grids.space, preset.q_true)
    field = solve_forward(preset.spec, q_true, grids)
    g = field.values[-1]
    print(f"forward {preset.name}: grid {m}x{n}, "
          f"u(.,T) in [{np.min(g):.6g}, {np.max(g):.6g}]")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / "solution.csv"
        lines = ["x,u_final"] + csv_lines([grids.space.nodes, g])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return EXIT_OK


def cmd_mollify(args) -> int:
    preset = _preset_from_args(args, mollify=True)
    g_exact, g_measured = synthesize(preset)
    g_star, record = mollify_data(preset, g_exact, g_measured)
    err_before = float(np.linalg.norm(g_measured - g_exact))
    err_after = float(np.linalg.norm(g_star - g_exact))
    print(f"mollify {preset.name}: K={record['data_points']}, lambda={record['lambda']:g}, "
          f"residual={record['residual']:g}, data error {err_before:g} -> {err_after:g}")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / "mollify.json"
        doc = {
            "preset": preset.name,
            "lambda": record["lambda"],
            "residual": record["residual"],
            "sigma_abs": record["sigma_abs"],
            "data_points": record["data_points"],
            "noise_level": float(preset.noise.level),
            "seed": int(preset.noise.seed),
            "error_before": err_before,
            "error_after": err_after,
        }
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
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
    bundle = run_experiment(_preset_from_args(args), args.out, _formats_from_args(args))
    return _report_bundle(bundle)


def cmd_experiment(args) -> int:
    out = args.out if args.out is not None else Path("runs") / args.preset
    bundle = run_experiment(_preset_from_args(args), out, _formats_from_args(args))
    code = _report_bundle(bundle)
    print(f"outputs in {out}")
    return code


def cmd_suite(args) -> int:
    out_root = args.out if args.out is not None else Path("runs")
    results = run_suite(out_root, _formats_from_args(args), **_overrides(args))
    codes = [_report_bundle(bundle) for bundle in results.values()]
    print(f"outputs in {out_root}")
    return max(codes)


def _add_subcommand(sub, name, func, help_text, flags, *, preset=True, formats=True) -> None:
    p = sub.add_parser(name, help=help_text)
    if preset:
        p.add_argument("preset", help=f"preset name, one of: {', '.join(PRESET_NAMES)}")
    for flag in flags:
        # a flag left off the command line stays out of the namespace: the preset default holds
        p.add_argument(flag, default=argparse.SUPPRESS, **_PRESET_FLAGS[flag])
    p.add_argument("--out", type=Path, default=None, help="output directory")
    if formats:
        p.add_argument("--formats", default=",".join(FORMATS),
                       help="comma-separated subset of csv,json,svg")
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftrec",
        description="Recover the drift coefficient of a 1D parabolic equation from final-time data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_subcommand(sub, "forward", cmd_forward,
                    "solve the forward problem with the preset's true drift",
                    ("--grid-m", "--grid-n"), formats=False)
    _add_subcommand(sub, "mollify", cmd_mollify, "synthesize noisy data and mollify it",
                    ("--grid-m", "--grid-n", "--refine", "--data-points", "--noise", "--lambda",
                     "--seed"), formats=False)
    _add_subcommand(sub, "invert", cmd_invert, "run the full reconstruction, print metrics",
                    _PRESET_FLAGS)
    _add_subcommand(sub, "experiment", cmd_experiment,
                    "run one preset and write the output bundle", _PRESET_FLAGS)
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
