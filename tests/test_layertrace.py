"""The benchmark's layer tracer (`perfbench/layertrace.py`) on the current
stepper: a traced command writes the same bytes as an untraced one, and the
tracer counts exactly the accepted steps of the runs that were integrated."""
import importlib.util
from pathlib import Path

import pytest

from sol3 import ode
from sol3.cli import main

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv, runs", [
    # An origin start: only the forward half is integrated, the other mirrored.
    (["integrate", "--theta0", "0.3", "--max-s", "2"], 1),
    (["shoot", "--H", "1", "--bracket", "0.125:0.75"], None),
    (["shoot", "--H", "2"], None),  # the bracket scanned first
])
def test_tracer_writes_the_same_bytes_and_counts_the_steps_taken(tmp_path, monkeypatch,
                                                                argv, runs):
    taken = []
    solve = ode.solve_fixed_horizon

    def counted(*args, **kwargs):
        result = solve(*args, **kwargs)
        taken.append(len(result[0]) - 1)  # samples after the start
        return result

    monkeypatch.setattr(ode, "solve_fixed_horizon", counted)
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert main(argv + ["--out", str(plain)]) == 0
    taken.clear()
    tracer = _layertrace().Tracer()
    with tracer.patched():
        assert main(argv + ["--out", str(traced)]) == 0
    assert traced.read_bytes() == plain.read_bytes()
    assert tracer.counts["steps_accepted"] == sum(taken) > 0
    assert runs is None or len(taken) == runs
