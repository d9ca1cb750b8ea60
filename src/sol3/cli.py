"""Command-line interface: integrate | classify | shoot | mesh | verify | sweep.

Exit codes are part of the contract: 0 success, 1 integration failure,
2 shooting-bracket failure, 3 closure-certificate failure, 64 usage error;
`main` alone maps errors to them.  A handler refuses an input by raising
ValueError, which `main` prints as one `sol3 <command>: <message>` line;
argparse refuses a malformed value with its usage line and the reason.
Identical arguments produce byte-identical output files.  `main` may be
called repeatedly in one process and gives the same bytes each time; the
parser it reads is built on the first call and then shared.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from typing import Callable, Optional

from . import analysis, io, verify
from .ode import (InitialCondition, IntegrationError, OdeSettings, check_step_budget,
                  integrate)

EXIT_OK = 0
EXIT_INTEGRATION = 1
EXIT_BRACKET = 2
EXIT_CLOSURE = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fields(form: str, build: Callable, *kinds: type) -> Callable[[str], object]:
    """The argparse type of a colon-separated value FORM: each field is read
    with its kind and the fields are passed to `build`."""
    def parse(text: str):
        parts = text.split(":")
        if len(parts) != len(kinds):
            raise argparse.ArgumentTypeError(f"must be {form}")
        try:
            return build(*(kind(part) for kind, part in zip(kinds, parts)))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


# The OdeSettings fields the CLI sets; an option not given (None) keeps the
# OdeSettings default.
_SETTINGS_OPTIONS = ("max_s", "tol", "max_step")

# The mesh options that only some curves read, with their defaults, and the
# ones each --kind reads (None: an integrated curve, whose horizon is the
# grid's s span; lines read x0 and y0).
_MESH_DEFAULTS = {"x0": 0.0, "y0": 0.0, "r": 1.0, "H": None, "theta0": 0.0,
                  **dict.fromkeys(_SETTINGS_OPTIONS)}
_MESH_READS = {"circle": ("r",),
               None: ("x0", "y0", "H", "theta0", "tol", "max_step")}


def _add_common(sub: argparse.ArgumentParser, ic: tuple[str, ...] = ("x0", "y0", "theta0")):
    for name in ic:
        sub.add_argument(f"--{name}", type=float, default=0.0)
    for name in _SETTINGS_OPTIONS:
        sub.add_argument(f"--{name.replace('_', '-')}", type=float, default=None)
    sub.add_argument("--out", type=_path, default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `sol3` parser, built on the first call and then shared by every
    `main` call in the process: callers must not mutate it."""
    parser = _Parser(prog="sol3", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_int = subs.add_parser("integrate", help="integrate a generating curve to CSV")
    _add_common(p_int)
    p_int.add_argument("--H", type=float, default=None,
                       help="constant mean curvature target (omit for minimal)")

    p_cls = subs.add_parser("classify", help="classify a minimal generating curve")
    _add_common(p_cls)

    p_shoot = subs.add_parser("shoot", help="search the closed CMC generating curve")
    _add_common(p_shoot, ic=())
    p_shoot.add_argument("--H", type=float, required=True)
    p_shoot.add_argument("--bracket", type=_fields("LO:HI", lambda *f: f, float, float),
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
    p_mesh.add_argument("--grid", required=True, metavar="sMIN:sMAX:tMIN:tMAX:NS:NT",
                        type=_fields("sMIN:sMAX:tMIN:tMAX:NS:NT", io.MeshGrid,
                                     float, float, float, float, int, int))

    p_ver = subs.add_parser("verify", help="frame-vs-oracle curvature verification")
    p_ver.add_argument("--samples", type=int, default=100)
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.add_argument("--out", type=_path, default=None)

    # No abbreviations: "--theta0" must not silently mean "--theta0-range".
    p_sweep = subs.add_parser("sweep", help="classify over a theta0 range in parallel",
                              allow_abbrev=False)
    _add_common(p_sweep, ic=("x0", "y0"))
    p_sweep.add_argument("--theta0-range", required=True, metavar="START:STOP:COUNT",
                         type=_fields("START:STOP:COUNT", lambda *f: f, float, float, int))
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--out-dir", type=_path, default=None,
                         help="directory for per-curve CSV files")

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
        raise ValueError("--out PATH is required")
    io.write_curve_csv(args.out, integrate(ic, settings, H=args.H))
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    settings = _settings(args)
    traj = integrate(InitialCondition(args.x0, args.y0, args.theta0), settings, H=None)
    result = analysis.classify_minimal(traj)
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
        raise ValueError("--out PATH is required")
    grid = args.grid
    reads = _MESH_READS.get(args.kind, ("x0", "y0"))
    given = [name for name in _MESH_DEFAULTS
             if name not in reads and getattr(args, name) is not None]
    if given:
        flags = ", ".join("--" + name.replace("_", "-") for name in given)
        what = f"--kind {args.kind}" if args.kind else "an integrated curve"
        raise ValueError(f"{flags} not used with {what}")
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
    ic, settings, csv_path = task
    try:
        traj = integrate(ic, settings, H=None)
        if csv_path is not None:
            io.write_curve_csv(csv_path, traj)
    except IntegrationError as exc:
        return {"theta0": ic.theta0, "error": str(exc)}
    entry = _classification_dict(analysis.classify_minimal(traj))
    entry["theta0"] = ic.theta0
    return entry


def cmd_sweep(args: argparse.Namespace) -> int:
    settings = _settings(args)
    start, stop, count = args.theta0_range
    if count < 1:
        raise ValueError("COUNT must be >= 1")
    if args.workers < 1:
        raise ValueError("--workers must be >= 1")
    check_step_budget(settings)  # before any curve or directory is written
    thetas = [start + (stop - start) * i / max(count - 1, 1) for i in range(count)]
    tasks = []
    for i, theta0 in enumerate(thetas):
        csv_path = (os.path.join(args.out_dir, f"curve_{i:03d}.csv")
                    if args.out_dir is not None else None)
        tasks.append((InitialCondition(args.x0, args.y0, theta0), settings, csv_path))
    if args.out_dir is not None:
        os.makedirs(args.out_dir, exist_ok=True)
    # The pool starts all its workers at once: never more than curves or CPUs.
    workers = min(args.workers, count, os.cpu_count() or 1)
    if workers > 1:
        # Imported here: multiprocessing is most of a serial command's start-up.
        from concurrent.futures import ProcessPoolExecutor

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
    except MemoryError as exc:
        print(f"sol3 {args.command}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INTEGRATION


if __name__ == "__main__":
    sys.exit(main())
