"""Seeded workloads for the sol3 benchmark: argv lists and output checks.

A workload turns a seed into one round of ops.  An op is one
`sol3.cli.main(argv)` call.  Its argv names output files inside a per-op
directory, written as the `{dir}` placeholder.  After the op returns, its
check reads those files and returns a list of problems, empty when the
outputs are correct.  The checks parse the files themselves instead of
calling sol3's readers, so a defect in sol3's I/O cannot hide itself.

Inputs are drawn from stratified ranges: every seed draws one value from
each stratum, so a round does about the same amount of work on every seed.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

CSV_HEADER = "s,x,y,theta,theta_prime,H,K"

#: Closed H = 1 orbit from the paper, reached from the anchor bracket.
ANCHOR_Y0_STAR = 0.6421767
ANCHOR_S1 = 3.9326203
ANCHOR_TOL = 1e-6

MINIMAL_H_TOL = 1e-8
SYMMETRY_TOL = 1e-6
RESIDUAL_X_TOL = 1e-9
RESIDUAL_Y_TOL = 1e-6
VERIFY_TOL = 1e-6

Check = Callable[[Path, int], list[str]]


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: str
    build: Callable[[int], list[Op]]


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _num(value: float) -> str:
    return repr(float(value))


def _strata(lo: float, hi: float, count: int) -> list[tuple[float, float]]:
    width = (hi - lo) / count
    return [(lo + i * width, lo + (i + 1) * width) for i in range(count)]


# --------------------------------------------------------------------- checks

def _exit_zero(rc: int) -> list[str]:
    return [] if rc == 0 else [f"exit code {rc}"]


def _json_report(path: Path, rc: int) -> tuple[dict | None, list[str]]:
    """The op's JSON report, or the problems that keep it from being read."""
    if rc != 0:
        return None, _exit_zero(rc)
    try:
        return json.loads(path.read_text()), []
    except (OSError, ValueError) as exc:
        return None, [f"{path.name}: {exc}"]


def _curve_csv_problems(path: Path) -> list[str]:
    """Problems of a minimal curve's CSV: header, finite rows, increasing s, H = 0."""
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        return [f"{path.name}: {exc}"]
    if not lines or lines[0] != CSV_HEADER:
        return [f"{path.name}: header is not {CSV_HEADER!r}"]
    if len(lines) < 3:
        return [f"{path.name}: fewer than two rows"]
    prev_s = -math.inf
    worst_h = 0.0
    for number, line in enumerate(lines[1:], start=2):
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError:
            return [f"{path.name}:{number}: unparsable row"]
        if len(row) != 7 or not all(math.isfinite(v) for v in row):
            return [f"{path.name}:{number}: not 7 finite values"]
        if not row[0] > prev_s:
            return [f"{path.name}:{number}: s does not increase"]
        prev_s = row[0]
        worst_h = max(worst_h, abs(row[5]))
    if not worst_h < MINIMAL_H_TOL:
        return [f"{path.name}: minimal curve has |H| = {worst_h:.3e}"]
    return []


def _classification_problems(entry: dict, origin: bool) -> list[str]:
    kind = entry.get("kind")
    if not origin:
        # Off-origin starts may legitimately stay undetermined on the horizon.
        ok = kind in ("type-A", "type-B", "undetermined")
        return [] if ok else [f"unexpected kind {kind!r}"]
    if kind != "type-B":
        return [f"origin start classified {kind!r}, expected 'type-B'"]
    lines = entry.get("asymptotes", [])
    if len(lines) != 2 or lines[0]["axis"] != lines[1]["axis"]:
        return ["origin start lacks two parallel asymptotes"]
    gap = abs(lines[0]["offset"] + lines[1]["offset"])
    if not gap < SYMMETRY_TOL:
        return [f"asymptotes not symmetric about 0 (sum {gap:.3e})"]
    return []


def check_integrate(op_dir: Path, rc: int) -> list[str]:
    return _exit_zero(rc) or _curve_csv_problems(op_dir / "curve.csv")


def check_classify(op_dir: Path, rc: int, origin: bool) -> list[str]:
    report, problems = _json_report(op_dir / "class.json", rc)
    return problems or _classification_problems(report, origin)


def check_sweep(op_dir: Path, rc: int, count: int) -> list[str]:
    report, problems = _json_report(op_dir / "sweep.json", rc)
    if problems:
        return problems
    curves = report.get("curves", [])
    if len(curves) != count:
        return [f"sweep reported {len(curves)} curves, expected {count}"]
    for i, entry in enumerate(curves):
        problems += _classification_problems(entry, origin=True)
        problems += _curve_csv_problems(op_dir / "sweep" / f"curve_{i:03d}.csv")
    return problems


def check_shoot(op_dir: Path, rc: int, anchor: bool) -> list[str]:
    report, problems = _json_report(op_dir / "shoot.json", rc)
    if problems:
        return problems
    if not abs(report["residual_x"]) < RESIDUAL_X_TOL:
        problems.append(f"|residual_x| = {abs(report['residual_x']):.3e}")
    if not abs(report["residual_y"]) < RESIDUAL_Y_TOL:
        problems.append(f"|residual_y| = {abs(report['residual_y']):.3e}")
    if anchor:
        if not abs(report["y0_star"] - ANCHOR_Y0_STAR) < ANCHOR_TOL:
            problems.append(f"anchor y0* = {report['y0_star']!r}")
        if not abs(report["s1"] - ANCHOR_S1) < ANCHOR_TOL:
            problems.append(f"anchor s1 = {report['s1']!r}")
    return problems


def check_mesh(op_dir: Path, rc: int, n_s: int, n_t: int) -> list[str]:
    """NS*NT finite vertices, then 2(NS-1)(NT-1) faces with indices in range.

    The file is read line by line, so the check adds little to peak RSS.
    """
    if rc != 0:
        return _exit_zero(rc)
    path = op_dir / "surface.obj"
    n_vertices = n_s * n_t
    n_faces = 2 * (n_s - 1) * (n_t - 1)
    count = 0
    try:
        with path.open("rb") as handle:
            for count, line in enumerate(handle, start=1):
                tag, *values = line.split()
                if count <= n_vertices:
                    ok = tag == b"v" and len(values) == 3 and all(
                        math.isfinite(float(v)) for v in values)
                else:
                    ok = tag == b"f" and len(values) == 3 and all(
                        1 <= int(v) <= n_vertices for v in values)
                if not ok:
                    return [f"{path.name}:{count}: bad line {line!r}"]
    except OSError as exc:
        return [f"{path.name}: {exc}"]
    except ValueError:
        return [f"{path.name}:{count}: unparsable line"]
    if count != n_vertices + n_faces:
        return [f"{path.name}: {count} lines, expected {n_vertices + n_faces}"]
    return []


def check_verify(op_dir: Path, rc: int, samples: int) -> list[str]:
    report, problems = _json_report(op_dir / "verify.json", rc)
    if problems:
        return problems
    if report.get("passed") is not True or report.get("samples") != samples:
        problems.append("verification did not pass")
    for key in ("max_dev_H", "max_dev_K"):
        if not report[key] < VERIFY_TOL:
            problems.append(f"{key} = {report[key]:.3e}")
    return problems


# ------------------------------------------------------------------ workloads

CURVE_STARTS = ((0.0, 0.0), (1.0, 2.0), (0.0, 1.0), (-1.0, 0.5))
CURVE_THETA = (0.05, 0.75)
CURVE_DRAWS = 2
CURVE_SETTINGS = ("--max-s", "600", "--max-step", "0.5")
SWEEP_COUNT = 4


def build_curves(seed: int) -> list[Op]:
    rng = _rng("curves", seed)
    ops = []
    for x0, y0 in CURVE_STARTS:
        origin = x0 == 0.0 and y0 == 0.0
        for lo, hi in _strata(*CURVE_THETA, CURVE_DRAWS):
            ic = ("--x0", _num(x0), "--y0", _num(y0), "--theta0", _num(rng.uniform(lo, hi)))
            ops.append(Op(("integrate", *ic, *CURVE_SETTINGS, "--out", "{dir}/curve.csv"),
                          check_integrate))
            ops.append(Op(("classify", *ic, *CURVE_SETTINGS, "--out", "{dir}/class.json"),
                          partial(check_classify, origin=origin)))
    (lo, mid), (_, hi) = _strata(*CURVE_THETA, 2)
    theta_range = f"{_num(rng.uniform(lo, mid))}:{_num(rng.uniform(mid, hi))}:{SWEEP_COUNT}"
    ops.append(Op(("sweep", "--theta0-range", theta_range, "--workers", "1", *CURVE_SETTINGS,
                   "--out-dir", "{dir}/sweep", "--out", "{dir}/sweep.json"),
                  partial(check_sweep, count=SWEEP_COUNT)))
    return ops


SHOOT_H = (0.75, 3.0)
SHOOT_DRAWS = 24


def build_shoot(seed: int) -> list[Op]:
    rng = _rng("shoot", seed)
    ops = [Op(("shoot", "--H", "1", "--bracket", "0.125:0.75", "--out", "{dir}/shoot.json"),
              partial(check_shoot, anchor=True))]
    for lo, hi in _strata(*SHOOT_H, SHOOT_DRAWS):
        ops.append(Op(("shoot", "--H", _num(rng.uniform(lo, hi)), "--out", "{dir}/shoot.json"),
                      partial(check_shoot, anchor=False)))
    return ops


MESH_NS, MESH_NT = 401, 201


def build_mesh(seed: int) -> list[Op]:
    rng = _rng("mesh", seed)
    check = partial(check_mesh, n_s=MESH_NS, n_t=MESH_NT)

    def grid(s_span: float) -> str:
        t_span = rng.uniform(0.75, 1.25)
        # One argv item: a grid that starts with "-" would read as an option.
        return (f"--grid={_num(-s_span)}:{_num(s_span)}:{_num(-t_span)}:{_num(t_span)}"
                f":{MESH_NS}:{MESH_NT}")

    out = ("--out", "{dir}/surface.obj")
    r = rng.uniform(0.5, 2.0)
    a = rng.uniform(-1.0, 1.0)
    return [
        Op(("mesh", "--kind", "circle", "--r", _num(r), grid(math.pi * r), *out), check),
        Op(("mesh", "--kind", "III", "--x0", _num(a), "--y0", _num(a),
            grid(rng.uniform(1.5, 2.5)), *out), check),
        Op(("mesh", "--theta0", _num(math.pi / 8), grid(rng.uniform(3.0, 5.0)), *out), check),
        Op(("mesh", "--x0", "1", "--y0", "2", "--theta0", "0.5",
            grid(rng.uniform(1.5, 2.5)), *out), check),
    ]


VERIFY_OPS = 8
VERIFY_SAMPLES = 500


def build_verify(seed: int) -> list[Op]:
    rng = _rng("verify", seed)
    check = partial(check_verify, samples=VERIFY_SAMPLES)
    return [Op(("verify", "--samples", str(VERIFY_SAMPLES), "--seed", str(rng.randrange(2**31)),
                "--out", "{dir}/verify.json"), check)
            for _ in range(VERIFY_OPS)]


WORKLOADS = {w.name: w for w in (
    Workload(
        "curves",
        "Minimal curves via integrate, classify and sweep: the DP5 stepper does about 85% of "
        "the work and CSV output about 10%, so stepper and curvature-kernel changes show here.",
        f"{len(CURVE_STARTS) * CURVE_DRAWS} starts x (integrate, classify) at max_s 600, "
        f"max_step 0.5, plus one {SWEEP_COUNT}-curve sweep: "
        f"{2 * len(CURVE_STARTS) * CURVE_DRAWS + 1} ops a round",
        build_curves),
    Workload(
        "shoot",
        "CMC shooting: the same stepper plus events, dense output and bisection; the only "
        "workload where the shooting logic matters, so Newton shooting shows here.",
        f"the H = 1 anchor plus {SHOOT_DRAWS} scanned H in {list(SHOOT_H)}: "
        f"{SHOOT_DRAWS + 1} ops a round",
        build_shoot),
    Workload(
        "mesh",
        "401x201 OBJ export: mesh build and OBJ text are about 95% of the work and the solver "
        "at most 3%, so solver changes stay flat and a vectorised writer shows here.",
        f"4 surfaces of {MESH_NS}x{MESH_NT} vertices (circle, line III, two integrated): "
        "4 ops a round",
        build_mesh),
    Workload(
        "verify",
        "Frame-vs-oracle verification: the only workload that runs oracle and verify; it is "
        "the reference route, so every optimisation should leave it flat.",
        f"{VERIFY_OPS} verify ops of {VERIFY_SAMPLES} samples a round",
        build_verify),
)}
