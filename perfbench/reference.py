"""A fixed reference kernel that measures how fast the machine runs right now.

The machine the benchmark was written on is shared, and its speed swings by
up to 2x over tens of seconds, so the median op time of a 25-second run
moves by 10-25% from run to run.  The benchmark therefore times this kernel
before and after every op, and scales each op's wall time to the speed at
which the kernel takes REFERENCE_SECONDS.  The kernel mixes the kinds of
work sol3 does: scalar float math on 3-vectors, small numpy operations, and
building and joining about 0.3 MB of text.

The kernel runs in a separate, long-lived helper process (`ReferenceClock`),
never in the benchmark process.  It still sees the machine's speed, but not
the benchmark interpreter's GIL, heap, garbage or trace hooks, so a slowdown
that sol3 leaves behind in the process is not divided out of its own op
times.

Never change `reference_kernel` or REFERENCE_SECONDS: every recorded
baseline is in their units.

    python3 perfbench/reference.py    # the helper: one kernel time per input line
"""
from __future__ import annotations

import math
import subprocess
import sys
from time import perf_counter

import numpy as np

#: Kernel time that defines reference speed.
REFERENCE_SECONDS = 0.015


def reference_kernel() -> int:
    y = np.array([0.1, 0.2, 0.3])
    rows = []
    for _ in range(300):
        s, c = math.sin(float(y[2])), math.cos(float(y[2]))
        y = y + 1e-4 * np.array([c, s, s * c])
        rows.append((float(y[0]), float(y[1]), s))
    text = "\n".join(f"v {a!r} {b!r} {c!r}" for a, b, c in rows * 15)
    return len(text)


def time_reference() -> float:
    """Wall seconds of one reference_kernel call in this process."""
    start = perf_counter()
    reference_kernel()
    return perf_counter() - start


class ReferenceClock:
    """The reference kernel, timed on request in a helper process.

    Use it as a context manager; leaving the block ends the helper and waits
    for it.  `time()` blocks until the helper has run the kernel once and
    returns the kernel's wall seconds as the helper measured them.
    """

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def time(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference helper exited with {self._proc.wait()}")
        return float(line)

    def close(self) -> None:
        try:
            self._proc.stdin.close()  # the helper's loop ends at end of input
        except BrokenPipeError:
            pass
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> ReferenceClock:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> None:
    """Helper loop: time the kernel once per line read, print each time."""
    for _ in sys.stdin:
        print(repr(time_reference()), flush=True)


if __name__ == "__main__":
    serve()
