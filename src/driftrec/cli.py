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
    ExperimentPreset,
    make_preset,
    mollify_data,
    run_experiment,
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


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("preset", help=f"preset name, one of: {', '.join(PRESET_NAMES)}")
    p.add_argument("--grid-m", type=int, default=None, help="spatial interval count")
    p.add_argument("--grid-n", type=int, default=None, help="time step count")
    p.add_argument("--refine", type=int, default=None, help="data-generation refinement factor")
    p.add_argument("--data-points", type=int, default=None, help="data grid size")
    p.add_argument("--noise", type=float, default=None, help="relative noise level, e.g. 0.01")
    p.add_argument("--lambda", dest="lam", type=_parse_lambda, default=None,
                   help="penalty weight, a number or 'auto'")
    p.add_argument("--no-mollify", action="store_true", help="skip data mollification")
    p.add_argument("--seed", type=int, default=None, help="noise RNG seed")
    p.add_argument("--max-iter", type=int, default=None, help="fixed-point iteration budget")
    p.add_argument("--tol", type=float, default=None, help="stopping step tolerance")
    p.add_argument("--out", type=Path, default=None, help="output directory")
    p.add_argument("--formats", default=",".join(FORMATS),
                   help="comma-separated subset of csv,json,svg")


def _preset_from_args(args) -> ExperimentPreset:
    return make_preset(
        args.preset,
        grid_m=args.grid_m,
        grid_n=args.grid_n,
        refinement=args.refine,
        data_points=args.data_points,
        noise_level=args.noise,
        seed=args.seed,
        mollify=False if args.no_mollify else None,
        max_iter=args.max_iter,
        tol_step=args.tol,
        lam=args.lam,
    )


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
        lines = ["x,u_final"]
        for xi, gi in zip(grids.space.nodes, g):
            lines.append(f"{float(xi)!r},{float(gi)!r}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return EXIT_OK


def cmd_mollify(args) -> int:
    preset = _preset_from_args(args)
    if preset.noise is None or preset.noise.level <= 0.0:
        raise ConfigurationError("mollify needs a positive --noise level")
    _, g_exact, g_measured = synthesize(preset)
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
    fmts = _formats_from_args(args)
    worst = EXIT_OK
    for name in PRESET_NAMES:
        bundle = run_experiment(
            make_preset(
                name,
                refinement=args.refine,
                data_points=args.data_points,
                seed=args.seed,
            ),
            Path(out_root) / name,
            fmts,
        )
        worst = max(worst, _report_bundle(bundle))
    print(f"outputs in {out_root}")
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftrec",
        description="Recover the drift coefficient of a 1D parabolic equation from final-time data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", help="solve the forward problem with the preset's true drift")
    _add_common_flags(p)
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("mollify", help="synthesize noisy data and mollify it")
    _add_common_flags(p)
    p.set_defaults(func=cmd_mollify)

    p = sub.add_parser("invert", help="run the full reconstruction, print metrics")
    _add_common_flags(p)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("experiment", help="run one preset and write the output bundle")
    _add_common_flags(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("suite", help="run all presets")
    p.add_argument("--refine", type=int, default=None)
    p.add_argument("--data-points", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--formats", default=",".join(FORMATS))
    p.set_defaults(func=cmd_suite)

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
