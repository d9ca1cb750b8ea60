"""Checks on the benchmark itself.

    python3 -m pytest perfbench

Runs each workload's seed-1 round once untraced and twice traced in this
process, so it takes a minute or two.  The output invariants are compared
with the seed-1 figures in `baseline.json`.
"""
from __future__ import annotations

import json
import math

import pytest

import run
from layertrace import EXACT_COUNTS, INVARIANTS, PER_LAYER
from reference import REFERENCE_SECONDS, ReferenceClock
from workloads import WORKLOADS, check_integrate, check_mesh, check_shoot


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.fixture(scope="module")
def clock():
    with ReferenceClock() as clock:
        yield clock


def baseline_entry(name: str) -> dict:
    baseline = json.loads((run.BENCH_DIR / "baseline.json").read_text())
    return baseline["workloads"][name]


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_rounds_repeat_counts_and_bytes(cli, clock, name):
    ops = WORKLOADS[name].build(1)
    with run.work_directory() as work:
        plain = run.run_round(cli.main, ops, work, clock)
        traces = [run.trace_round(cli.main, ops, work, clock, plain) for _ in range(2)]
    assert [r.problems for r in plain] == [[] for _ in ops]
    counts = []
    for tracer, traced in traces:
        # Each traced op must repeat the untraced op's exit code and bytes.
        assert [r.problems for r in traced] == [[] for _ in ops]
        assert [r.digests for r in traced] == [r.digests for r in plain]
        metrics = tracer.metrics(1.0, 1.0)
        assert list(metrics) == [metric for metric, _ in PER_LAYER]
        counts.append({key: metrics[key] for key in EXACT_COUNTS})
    assert counts[0] == counts[1]
    # The outputs' size is fixed by the workload's input: it must stay equal.
    recorded = baseline_entry(name)
    assert {key: metrics[key] for key in INVARIANTS} == {
        key: recorded["seed_1"]["per_layer"][key] for key in INVARIANTS}
    assert [r.digests for r in plain] == [op["sha256"] for op in recorded["output_sha256"]]


def test_reference_clock_runs_in_a_helper_process():
    with ReferenceClock() as clock:
        times = [clock.time() for _ in range(3)]
        helper = clock._proc
    assert all(0 < t < 100 * REFERENCE_SECONDS for t in times)
    assert helper.returncode == 0


def test_wrappers_are_removed_after_tracing(cli):
    from sol3 import _rk, ode

    handlers = dict(cli._HANDLERS)
    state_at = ode.Trajectory.state_at
    tracer = run.Tracer()
    with tracer.patched():
        assert ode.solve_fixed_horizon is not _rk.solve_fixed_horizon
    assert ode.solve_fixed_horizon is _rk.solve_fixed_horizon
    assert ode.Trajectory.state_at is state_at
    assert cli._HANDLERS == handlers


def test_checks_reject_broken_outputs(tmp_path):
    header = "s,x,y,theta,theta_prime,H,K"
    (tmp_path / "curve.csv").write_text(f"{header}\n0.0,0,0,0.1,0,0,-1\n0.5,0,0,0.1,0,0,-1\n")
    assert check_integrate(tmp_path, 0) == []
    assert check_integrate(tmp_path, 1) == ["exit code 1"]
    (tmp_path / "curve.csv").write_text(f"{header}\n0.5,0,0,0.1,0,0,-1\n0.5,0,0,0.1,0,0,-1\n")
    assert check_integrate(tmp_path, 0)  # s does not increase
    (tmp_path / "curve.csv").write_text(f"{header}\n0.0,0,0,0.1,0,nan,-1\n0.5,0,0,0.1,0,0,-1\n")
    assert check_integrate(tmp_path, 0)  # not finite
    (tmp_path / "curve.csv").write_text(f"{header}\n0.0,0,0,0.1,0,1e-6,-1\n0.5,0,0,0.1,0,0,-1\n")
    assert check_integrate(tmp_path, 0)  # minimal curve with H != 0

    obj = ["v 0.0 0.0 0.0", "v 1.0 0.0 0.0", "v 0.0 1.0 0.0", "v 1.0 1.0 0.0",
           "f 1 2 4", "f 1 4 3"]
    (tmp_path / "surface.obj").write_text("\n".join(obj) + "\n")
    assert check_mesh(tmp_path, 0, n_s=2, n_t=2) == []
    (tmp_path / "surface.obj").write_text("\n".join(obj[:-1]) + "\n")
    assert check_mesh(tmp_path, 0, n_s=2, n_t=2)  # a face is missing
    (tmp_path / "surface.obj").write_text("\n".join(obj[:-1] + ["f 1 4 5"]) + "\n")
    assert check_mesh(tmp_path, 0, n_s=2, n_t=2)  # index out of range

    report = {"y0_star": 0.6421767, "s1": 3.9326203, "residual_x": 0.0, "residual_y": 0.0}
    (tmp_path / "shoot.json").write_text(json.dumps(report))
    assert check_shoot(tmp_path, 0, anchor=True) == []
    report["y0_star"] += 1e-5
    (tmp_path / "shoot.json").write_text(json.dumps(report))
    assert check_shoot(tmp_path, 0, anchor=True)
    report["residual_x"] = math.nan
    (tmp_path / "shoot.json").write_text(json.dumps(report))
    assert len(check_shoot(tmp_path, 0, anchor=False)) == 1
