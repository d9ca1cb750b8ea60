"""Print every end-to-end metric of every workload, with units.

    python3 perfbench/summary.py [--seed 1] [--seconds 22]

Each workload runs in its own process (`run.py --trace 0`), so its
`peak_rss_mb` covers that workload alone.  `failed_ratio` is failed ops over
attempted ops; it is printed here and not reported as a benchmark metric,
because at a correct commit it is 0 and a ratio to 0 bounds nothing.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22)
    args = parser.parse_args(argv)
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=BENCH_DIR.parent, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{name}: benchmark exited with {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']}")
        print(f"  failed_ratio = {result['failed'] / result['attempted']!r} fraction")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']!r} {entry['unit']}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
