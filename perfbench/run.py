"""sol3 benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 22 --trace 0

It imports sol3 from the `src/` directory next to `perfbench/`.

An op is one `sol3.cli.main(argv)` call made in this process.  The loop is
closed with one caller: the next op starts when the previous one returns.
Ops run in rounds (the workload's seeded op list).  The first op of each
command runs once untimed to warm up; then whole rounds run until
`--seconds` of op time is measured, and the metrics are medians over them.
Interpreter start-up stays out of the op times: `setup_s` is the time for
a fresh interpreter to import `sol3.cli`, measured against a fresh
interpreter that imports only numpy (see `measure_setup`).

Op times are reported at reference speed: the fixed kernel in
`reference.py` is timed, in a helper process on the same CPU, before and
after every op, and each op's wall time is scaled by REFERENCE_SECONDS over
the kernel's mean time around it.  This cancels most of the machine's own
speed swings.  The run report keeps the times as measured too.

With `--trace 1` the run instead makes TRACE_PAIRS pairs of one untraced and
one traced round (after the warm-up) and reports the per-layer metrics of
`layertrace`, each the median over the pairs.

Every op writes into its own directory under `.perfbench_runs/` in the
checkout; its outputs are hashed outside the timed span and then deleted.
The first round's outputs are checked; every later round, traced or not,
must write the same bytes.  A report with the sha256 of every output file,
per op, goes to `.perfbench_runs/<workload>-seed<seed>-trace<trace>.json`.
The last line on stdout is the result object; a summary goes to stderr.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_TRIES = 7
#: Start-up time of a fresh interpreter that imports numpy, at reference speed.
NUMPY_START_SECONDS = 0.15
TRACE_PAIRS = 3
END_TO_END = {"ops_per_s": "ops/s", "op_s.p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}

sys.path.insert(0, str(BENCH_DIR))

from layertrace import PER_LAYER, Tracer  # noqa: E402
from reference import REFERENCE_SECONDS, ReferenceClock  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402


class BenchmarkError(RuntimeError):
    """The benchmark cannot run in this directory."""


@dataclass
class OpResult:
    argv: tuple[str, ...]
    seconds: float
    rc: int | None
    problems: list[str]
    digests: dict[str, str]
    reference_s: float = REFERENCE_SECONDS  # reference kernel time around the op

    @property
    def scaled(self) -> float:
        """Op wall time at reference speed."""
        return self.seconds * REFERENCE_SECONDS / self.reference_s


def pin_to_one_cpu() -> None:
    """Keep this process, the reference helper and the set-up interpreters
    on one CPU, so that the reference kernel runs where the ops run and
    sees the same contention.  The ops use one thread."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def import_cli():
    """sol3.cli from this checkout's `src/`, never from anywhere else."""
    if not (SRC / "sol3" / "cli.py").is_file():
        raise BenchmarkError(f"no sol3 sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sol3.cli

    if Path(sol3.cli.__file__).resolve().parent != (SRC / "sol3").resolve():
        raise BenchmarkError(f"sol3 imported from {sol3.cli.__file__}, not {SRC}")
    return sol3.cli


def start_seconds(code: str) -> float:
    """Wall time of a fresh interpreter that runs `code` with sol3 importable."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - start


def measure_setup() -> list[tuple[float, float]]:
    """(sol3.cli seconds, numpy seconds) of SETUP_TRIES pairs of fresh
    interpreters: one imports numpy, the next sol3.cli.

    Start-up is mostly loading and running module code, and it swings with
    the machine as much as 1.5x in a minute, but a numpy-only start-up just
    before it swings alike.  `setup_s` is the median ratio of the pair times
    at NUMPY_START_SECONDS: any start-up work sol3 adds, numpy included,
    shows in it.
    """
    tries = []
    for _ in range(SETUP_TRIES):
        numpy_s = start_seconds("import numpy")
        tries.append((start_seconds("import sol3.cli"), numpy_s))
    return tries


def digest_tree(directory: Path) -> dict[str, str]:
    return {path.relative_to(directory).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def run_op(main, op: Op, op_dir: Path, reference: OpResult | None = None) -> OpResult:
    """One timed op.  Its outputs are checked, or, given the `reference` result
    of the same op, compared with it: identical bytes pass the same check."""
    op_dir.mkdir()
    argv = [arg.replace("{dir}", str(op_dir)) for arg in op.argv]
    start = perf_counter()
    try:
        rc = main(argv)
    except (Exception, SystemExit) as exc:  # a failed op is data, not a crash
        seconds = perf_counter() - start
        rc, problems = None, [f"raised {type(exc).__name__}: {exc}"]
    else:
        seconds = perf_counter() - start
        problems = []
    digests = digest_tree(op_dir)
    if not problems and reference is None:
        try:
            problems = op.check(op_dir, rc)
        except (KeyError, TypeError, ValueError) as exc:  # a report missing a field
            problems = [f"malformed output: {exc!r}"]
    elif not problems and (rc, digests) != (reference.rc, reference.digests):
        problems = ["exit code or output bytes differ from the checked round"]
    shutil.rmtree(op_dir)
    return OpResult(op.argv, seconds, rc, problems, digests)


def run_round(main, ops: list[Op], work_dir: Path, clock: ReferenceClock,
              reference: list[OpResult] | None = None) -> list[OpResult]:
    """Every op once, with the reference kernel timed before and after each."""
    refs = reference or [None] * len(ops)
    results = []
    before = clock.time()
    for i, (op, ref) in enumerate(zip(ops, refs)):
        result = run_op(main, op, work_dir / f"op{i:03d}", ref)
        after = clock.time()
        result.reference_s = (before + after) / 2
        results.append(result)
        before = after
    return results


@contextmanager
def work_directory():
    """A fresh directory under RUNS for one run's ops, deleted afterwards."""
    RUNS.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=RUNS, prefix="work-"))
    try:
        yield path
    finally:
        shutil.rmtree(path)


def warm_up(main, ops: list[Op], work_dir: Path, clock: ReferenceClock) -> None:
    """First op of each command (and the reference kernel), untimed: lazy
    imports and first-call costs."""
    firsts: dict[str, Op] = {}
    for op in ops:
        firsts.setdefault(op.argv[0], op)
    run_round(main, list(firsts.values()), work_dir, clock)


def untraced_run(main, ops, work_dir, clock, seconds) -> tuple[dict, list[list[OpResult]]]:
    """Whole rounds until `seconds` of op time is measured; medians over them.

    The first round's outputs are checked; later rounds must repeat its bytes.
    """
    rounds, measured = [], 0.0
    while measured < seconds:
        rounds.append(run_round(main, ops, work_dir, clock, rounds[0] if rounds else None))
        measured += sum(r.seconds for r in rounds[-1])
    metrics = {
        "ops_per_s": statistics.median(len(rnd) / sum(r.scaled for r in rnd)
                                       for rnd in rounds),
        "op_s.p50": statistics.median(r.scaled for rnd in rounds for r in rnd),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, rounds


def trace_round(main, ops, work_dir, clock, reference) -> tuple[Tracer, list[OpResult]]:
    """One traced round, which must write the bytes of the untraced `reference`."""
    tracer = Tracer()
    with tracer.patched():
        return tracer, run_round(tracer.wrap("cli.main", main), ops, work_dir, clock, reference)


def traced_run(main, ops, work_dir, clock) -> tuple[dict, list[list[OpResult]], Tracer]:
    """TRACE_PAIRS pairs of an untraced and a traced round, alternating.

    Each per-layer metric is its median over the traced rounds, and
    `trace.overhead_ratio` the median of traced over untraced round time.
    The first untraced round is checked; every later round must repeat its
    bytes.  The first traced round's tracer is returned for its spans.
    """
    rounds, samples, tracers = [], [], []
    for _ in range(TRACE_PAIRS):
        plain = run_round(main, ops, work_dir, clock, rounds[0] if rounds else None)
        tracer, traced = trace_round(main, ops, work_dir, clock, rounds[0] if rounds else plain)
        rounds += [plain, traced]
        tracers.append(tracer)
        samples.append(tracer.metrics(sum(r.scaled for r in traced),
                                      sum(r.scaled for r in plain)))
    metrics = {name: statistics.median(sample[name] for sample in samples)
               for name in samples[0]}
    return metrics, rounds, tracers[0]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        cli = import_cli()
    except (BenchmarkError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    ops = workload.build(args.seed)
    setup = []
    pin_to_one_cpu()
    with ReferenceClock() as clock, work_directory() as work_dir:
        if not args.trace:
            setup = measure_setup()
        warm_up(cli.main, ops, work_dir, clock)
        if args.trace:
            values, rounds, tracer = traced_run(cli.main, ops, work_dir, clock)
            units = dict(PER_LAYER)
        else:
            values, rounds = untraced_run(cli.main, ops, work_dir, clock, args.seconds)
            values["setup_s"] = statistics.median(
                sol3_s / numpy_s * NUMPY_START_SECONDS for sol3_s, numpy_s in setup)
            units = END_TO_END

    results = [r for rnd in rounds for r in rnd]
    failed = sum(1 for r in results if r.problems)
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "why": workload.why,
        "size": workload.size,
        "loop": "closed, one caller",
        "op_samples": len(results),
        "op_seconds": [[r.seconds for r in rnd] for rnd in rounds],
        "reference_seconds": [[r.reference_s for r in rnd] for rnd in rounds],
        "setup_tries": [{"sol3_cli_s": s, "numpy_s": n} for s, n in setup],
        "failed_ratio": failed / len(results),
        "ops": [{"argv": list(r.argv), "sha256": r.digests} for r in rounds[0]],
        "problems": [{"argv": list(r.argv), "problems": r.problems}
                     for r in results if r.problems],
        "metrics": values,
    }
    if not args.trace:
        report["raw"] = {
            "ops_per_s": statistics.median(len(rnd) / sum(r.seconds for r in rnd)
                                           for rnd in rounds),
            "op_s.p50": statistics.median(r.seconds for r in results),
            "setup_s": statistics.median(s for s, _ in setup),
        }
    if args.trace:
        report["spans"] = tracer.spans
        report["calls"] = dict(tracer.calls)
    report_path = RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    for entry in report["problems"]:
        print(f"FAILED {' '.join(entry['argv'])}: {'; '.join(entry['problems'])}",
              file=sys.stderr)
    print(f"{workload.name}: {report['op_samples']} timed ops in {len(rounds)} rounds, "
          f"failed_ratio {report['failed_ratio']!r}", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name} = {value!r} {units[name]}", file=sys.stderr)
    for name, value in report.get("raw", {}).items():
        print(f"  {name} as measured = {value!r} {units[name]}", file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
