"""The benchmark's layer tracer (`perfbench/layertrace.py`) on the current
stepper: a traced command writes the same bytes as an untraced one, and the
tracer counts exactly the accepted steps of the runs that were integrated,
and the CSV rows, OBJ vertices and bytes of the files written."""
import contextlib
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


@pytest.mark.parametrize("argv", [
    # Meshes of 5151 vertices: two OBJ vertex chunks and three face chunks.
    ["mesh", "--theta0", "0.3", "--grid=-2:2:-1:1:101:51"],
    ["mesh", "--kind", "circle", "--grid=-2:2:-1:1:101:51"],
    ["sweep", "--theta0-range", "0.3:1.0:3", "--max-s", "5", "--workers", "1",
     "--out-dir", "curves"],
])
def test_tracer_counts_the_rows_vertices_and_bytes_written(tmp_path, argv):
    # The tracer binds io.format_curve_csv, io.format_obj and
    # io.atomic_write_text; its counts must still be those of the files.
    def run(root, tracer=None):
        root.mkdir()
        args = [str(root / a) if a == "curves" else a for a in argv]
        with tracer.patched() if tracer else contextlib.nullcontext():
            assert main(args + ["--out", str(root / "out")]) == 0
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    plain = run(tmp_path / "plain")
    tracer = _layertrace().Tracer()
    traced = run(tmp_path / "traced", tracer)
    assert traced == plain
    csvs = [data for path, data in traced.items() if path.parent.name == "curves"]
    assert len(csvs) == (3 if argv[0] == "sweep" else 0)
    obj = traced[Path("out")] if argv[0] == "mesh" else b""
    assert tracer.counts["csv_rows"] == sum(data.count(b"\n") - 1 for data in csvs)
    assert tracer.counts["obj_vertices"] == obj.count(b"\nv ") + obj.startswith(b"v ")
    assert tracer.counts["obj_vertices"] == (5151 if argv[0] == "mesh" else 0)
    assert tracer.counts["bytes_written"] == sum(map(len, traced.values()))
