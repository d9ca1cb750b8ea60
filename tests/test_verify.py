"""verify's batched route against its per-sample form: one seeded (n, 4) draw
and one array call of the frame kernel must give every bit, and every oracle
call, of a loop over the samples."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sol3 import oracle, verify
from sol3.ode import circle_flat
from sol3.surface import CurveState, curvature_report
from sol3.verify import random_states, run_verification
from support import state_pairs


# verify as it was before it drew and evaluated all samples at once.
def reference_random_states(samples, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(samples):
        x, y = rng.uniform(-2.0, 2.0, size=2)
        theta = rng.uniform(-math.pi, math.pi)
        theta_prime = rng.uniform(-2.0, 2.0)
        out.append((CurveState(0.0, float(x), float(y), float(theta)),
                    float(theta_prime)))
    return out


def reference_run_verification(samples, seed):
    tol = verify.DEFAULT_TOLERANCE
    dev_h, dev_k = [], []
    for state, theta_prime in reference_random_states(samples, seed):
        frame = curvature_report(state, theta_prime)
        coord = oracle.curvatures_fd(state, theta_prime)
        dev_h.append(abs(frame.H - coord.H))
        dev_k.append(abs(frame.K - coord.K))
    max_dev_h, max_dev_k = float(np.max(dev_h)), float(np.max(dev_k))

    plane = curvature_report(CurveState(0.0, 0.0, 0.0, 0.0), 0.0)
    circle_state, circle_tp = circle_flat(1.0, 0.3)
    circle = curvature_report(circle_state, circle_tp)
    return {
        "samples": samples,
        "seed": seed,
        "tolerance": tol,
        "max_dev_H": max_dev_h,
        "max_dev_K": max_dev_k,
        "plane_H": plane.H,
        "plane_K": plane.K,
        "circle_K": circle.K,
        "passed": bool(
            max_dev_h < tol and max_dev_k < tol
            and plane.H == 0.0 and plane.K == -1.0
            and abs(circle.K) < 1e-10
        ),
    }


def _traced(run, samples, seed):
    """run's report as reprs (NaN and -0.0 count), and the oracle calls it made."""
    calls = []
    real = oracle.curvatures_fd

    def recording(state, theta_prime):
        calls.append(repr((state.s, state.x, state.y, state.theta, theta_prime)))
        return real(state, theta_prime)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "curvatures_fd", recording)
        report = run(samples, seed)
    return {key: repr(value) for key, value in report.items()}, calls


@settings(derandomize=True, max_examples=25, deadline=None)
@given(samples=st.integers(1, 600), seed=st.integers(0, 2**40))
@example(samples=1, seed=0)
@example(samples=500, seed=1)
def test_run_verification_matches_the_per_sample_loop(samples, seed):
    report, calls = _traced(run_verification, samples, seed)
    expected, expected_calls = _traced(reference_run_verification, samples, seed)
    assert report == expected
    # One oracle call per sample, on the same Python floats in draw order: the
    # layer tracer counts 4,000 of them in a seed-1 perfbench verify round.
    assert len(calls) == samples
    assert calls == expected_calls


@pytest.mark.parametrize("seed", [1, 7, 2026])
def test_full_length_array_call_matches_per_sample_calls(seed):
    # run_verification hands the frame kernel 500-row strided column views
    # of its draw; each value must carry the bits, sign included, of a
    # per-sample evaluation.
    states, theta_prime = random_states(500, seed)
    assert not states.x.flags.c_contiguous and not theta_prime.flags.c_contiguous
    table = curvature_report(states, theta_prime)
    pairs = state_pairs(500, seed)
    assert len(pairs) == 500
    for i, (state, tp) in enumerate(pairs):
        one = curvature_report(state, tp)
        for name in ("H", "K", "K_ext", "K_sec"):
            assert repr(float(getattr(table, name)[i])) == repr(getattr(one, name))


@pytest.mark.parametrize("field", ["H", "K"])
def test_one_nan_deviation_fails_the_report(monkeypatch, field):
    # A NaN after the first sample: the builtin max() would pass over it,
    # since every comparison with NaN is false.
    real = oracle.curvatures_fd
    calls = []

    def nan_at_third(state, theta_prime):
        calls.append(state)
        rep = real(state, theta_prime)
        return dataclasses.replace(rep, **{field: math.nan}) if len(calls) == 3 else rep

    monkeypatch.setattr(oracle, "curvatures_fd", nan_at_third)
    report = run_verification(5, 1)
    assert math.isnan(report[f"max_dev_{field}"])
    assert report["passed"] is False
