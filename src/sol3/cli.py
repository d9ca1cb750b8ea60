"""Command-line interface: integrate | classify | shoot | mesh | verify | sweep.

Exit codes are part of the contract: 0 success, 1 integration failure,
2 shooting-bracket failure, 3 closure-certificate failure, 64 usage error.
Identical arguments produce byte-identical output files.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from . import analysis, io, verify
from .ode import InitialCondition, IntegrationError, OdeSettings, integrate

EXIT_OK = 0
EXIT_INTEGRATION = 1
EXIT_BRACKET = 2
EXIT_CLOSURE = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_grid(text: str) -> io.MeshGrid:
    parts = text.split(":")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError("grid must be sMIN:sMAX:tMIN:tMAX:NS:NT")
    try:
        return io.MeshGrid(float(parts[0]), float(parts[1]), float(parts[2]),
                           float(parts[3]), int(parts[4]), int(parts[5]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_bracket(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("bracket must be LO:HI")
    lo, hi = float(parts[0]), float(parts[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise argparse.ArgumentTypeError("bracket LO:HI must be finite with LO < HI")
    return lo, hi


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("range must be START:STOP:COUNT")
    return float(parts[0]), float(parts[1]), int(parts[2])


# The OdeSettings fields the CLI sets; an option not given (None) keeps the
# OdeSettings default.
_SETTINGS_OPTIONS = ("max_s", "abs_tol", "rel_tol", "max_step")

# The mesh options that only some curves read, with their defaults, and the
# ones each --kind reads (None: an integrated curve; lines read x0 and y0).
_MESH_DEFAULTS = {"x0": 0.0, "y0": 0.0, "r": 1.0, "H": None, "theta0": 0.0,
                  **dict.fromkeys(_SETTINGS_OPTIONS)}
_MESH_READS = {"circle": ("r",), None: ("x0", "y0", "H", "theta0", *_SETTINGS_OPTIONS)}


def _add_common(sub: argparse.ArgumentParser, ic: tuple[str, ...] = ("x0", "y0", "theta0")):
    for name in ic:
        sub.add_argument(f"--{name}", type=float, default=0.0)
    for name in _SETTINGS_OPTIONS:
        sub.add_argument(f"--{name.replace('_', '-')}", type=float, default=None)
    sub.add_argument("--out", type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sol3", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_int = subs.add_parser("integrate", help="integrate a generating curve to CSV")
    _add_common(p_int)
    p_int.add_argument("--H", type=float, default=None,
                       help="constant mean curvature target (omit for minimal)")

    p_cls = subs.add_parser("classify", help="classify a minimal generating curve")
    _add_common(p_cls)
    p_cls.add_argument("--tail-fraction", type=float,
                       default=analysis.DEFAULT_TAIL_FRACTION)
    p_cls.add_argument("--settle-threshold", type=float,
                       default=analysis.DEFAULT_SETTLE_THRESHOLD)

    p_shoot = subs.add_parser("shoot", help="search the closed CMC generating curve")
    _add_common(p_shoot, ic=())
    p_shoot.add_argument("--H", type=float, required=True)
    p_shoot.add_argument("--bracket", type=_parse_bracket, default=None,
                         help="y0 bracket LO:HI (scanned automatically if omitted)")

    p_mesh = subs.add_parser("mesh", help="export a swept surface as OBJ")
    _add_common(p_mesh)
    p_mesh.add_argument("--H", type=float)
    p_mesh.add_argument("--kind", type=str, default=None,
                        choices=["I", "II", "III", "IV", "circle"],
                        help="use a closed-form curve instead of integrating")
    p_mesh.add_argument("--r", type=float, help="circle radius (default 1)")
    # None marks "not given", so that cmd_mesh can refuse the options its
    # curve does not read; it fills in the defaults afterwards.
    p_mesh.set_defaults(**dict.fromkeys(_MESH_DEFAULTS))
    p_mesh.add_argument("--grid", type=_parse_grid, required=True,
                        metavar="sMIN:sMAX:tMIN:tMAX:NS:NT")

    p_ver = subs.add_parser("verify", help="frame-vs-oracle curvature verification")
    p_ver.add_argument("--samples", type=int, default=100)
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.add_argument("--out", type=str, default=None)

    # No abbreviations: "--theta0" must not silently mean "--theta0-range".
    p_sweep = subs.add_parser("sweep", help="classify over a theta0 range in parallel",
                              allow_abbrev=False)
    _add_common(p_sweep, ic=("x0", "y0"))
    p_sweep.add_argument("--theta0-range", type=_parse_range, required=True,
                         metavar="START:STOP:COUNT")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--out-dir", type=str, default=None,
                         help="directory for per-curve CSV files")
    p_sweep.add_argument("--tail-fraction", type=float,
                         default=analysis.DEFAULT_TAIL_FRACTION)
    p_sweep.add_argument("--settle-threshold", type=float,
                         default=analysis.DEFAULT_SETTLE_THRESHOLD)

    return parser


def _settings(args: argparse.Namespace) -> OdeSettings:
    given = {name: getattr(args, name) for name in _SETTINGS_OPTIONS}
    return OdeSettings(**{name: v for name, v in given.items() if v is not None})


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        io.atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


def cmd_integrate(args: argparse.Namespace) -> int:
    settings = _settings(args)
    ic = InitialCondition(args.x0, args.y0, args.theta0)
    if args.out is None:
        print("integrate: --out PATH is required", file=sys.stderr)
        return EXIT_USAGE
    io.write_curve_csv(args.out, integrate(ic, settings, H=args.H))
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    settings = _settings(args)
    analysis.check_tail_settings(args.tail_fraction, args.settle_threshold)
    traj = integrate(InitialCondition(args.x0, args.y0, args.theta0), settings, H=None)
    result = analysis.classify_minimal(traj, args.tail_fraction, args.settle_threshold)
    _emit(_classification_dict(result), args.out)
    return EXIT_OK


def _classification_dict(result: analysis.Classification) -> dict:
    return {
        "kind": result.kind.value,
        "inflection_s": list(result.inflection_s),
        "asymptotes": [
            {"axis": line.axis.value, "offset": line.offset,
             "uncertainty": line.uncertainty}
            for line in result.asymptotes
        ],
    }


def cmd_shoot(args: argparse.Namespace) -> int:
    try:
        result = analysis.closed_curve_search(args.H, args.bracket, _settings(args))
    except analysis.BracketError as exc:
        _emit({"error": "bracket", "message": str(exc),
               "residual_lo": exc.residual_lo, "residual_hi": exc.residual_hi},
              args.out)
        return EXIT_BRACKET
    except analysis.ClosureError as exc:
        _emit({"error": "closure", "message": str(exc), "y0_star": exc.y0_star,
               "s1": exc.s1, "residual_y": exc.residual_y}, args.out)
        return EXIT_CLOSURE
    _emit({
        "H": args.H,
        "y0_star": result.y0_star,
        "s1": result.s1,
        "residual_x": result.residual_x,
        "residual_y": result.residual_y,
        "iterations": result.iterations,
    }, args.out)
    return EXIT_OK


def cmd_mesh(args: argparse.Namespace) -> int:
    if args.out is None:
        print("mesh: --out PATH is required", file=sys.stderr)
        return EXIT_USAGE
    grid = args.grid
    reads = _MESH_READS.get(args.kind, ("x0", "y0"))
    given = [name for name in _MESH_DEFAULTS
             if name not in reads and getattr(args, name) is not None]
    if given:
        flags = ", ".join("--" + name.replace("_", "-") for name in given)
        what = f"--kind {args.kind}" if args.kind else "an integrated curve"
        print(f"mesh: {flags} not used with {what}", file=sys.stderr)
        return EXIT_USAGE
    for name, default in _MESH_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    if args.kind is not None:
        ic = InitialCondition(args.x0, args.y0, 0.0)  # checks that x0, y0 are finite
        curve = io.curve_from_kind(args.kind, ic.x0, ic.y0, args.r)
    else:
        settings = _settings(args)
        ic = InitialCondition(args.x0, args.y0, args.theta0)
        span = max(abs(grid.s_min), abs(grid.s_max))
        settings = dataclasses.replace(settings, max_s=max(span, 1e-6))
        curve = integrate(ic, settings, H=args.H).state_at
    vertices, faces = io.surface_mesh(curve, grid)
    io.write_mesh_obj(args.out, vertices, faces)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify.run_verification(args.samples, args.seed)
    _emit(report, args.out)
    return EXIT_OK if report["passed"] else 1


def _sweep_task(task: tuple) -> dict:
    """One curve's classification entry, or {"theta0", "error"} if it failed."""
    ic, settings, tail, settle, csv_path = task
    try:
        traj = integrate(ic, settings, H=None)
        if csv_path is not None:
            io.write_curve_csv(csv_path, traj)
    except IntegrationError as exc:
        return {"theta0": ic.theta0, "error": str(exc)}
    entry = _classification_dict(analysis.classify_minimal(traj, tail, settle))
    entry["theta0"] = ic.theta0
    return entry


def cmd_sweep(args: argparse.Namespace) -> int:
    settings = _settings(args)
    analysis.check_tail_settings(args.tail_fraction, args.settle_threshold)
    start, stop, count = args.theta0_range
    if count < 1:
        print("sweep: COUNT must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    thetas = [start + (stop - start) * i / max(count - 1, 1) for i in range(count)]
    tasks = []
    for i, theta0 in enumerate(thetas):
        csv_path = (os.path.join(args.out_dir, f"curve_{i:03d}.csv")
                    if args.out_dir is not None else None)
        tasks.append((InitialCondition(args.x0, args.y0, theta0), settings,
                      args.tail_fraction, args.settle_threshold, csv_path))
    if args.out_dir is not None:
        os.makedirs(args.out_dir, exist_ok=True)
    # The pool starts all its workers at once: never more than curves or CPUs.
    workers = min(args.workers, count, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(_sweep_task, tasks))
    else:
        entries = [_sweep_task(t) for t in tasks]
    _emit({"x0": args.x0, "y0": args.y0, "curves": entries}, args.out)
    return EXIT_INTEGRATION if any("error" in e for e in entries) else EXIT_OK


_HANDLERS = {
    "integrate": cmd_integrate,
    "classify": cmd_classify,
    "shoot": cmd_shoot,
    "mesh": cmd_mesh,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except ValueError as exc:
        print(f"sol3 {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"sol3 {args.command}: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION


if __name__ == "__main__":
    sys.exit(main())
