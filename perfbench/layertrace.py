"""Outside-in layer tracing for the sol3 benchmark.

`Tracer.patched()` replaces, for the duration of a `with` block, the names
through which sol3's modules call each other with timing wrappers.  The
modules import functions by name, so each wrapper replaces the name where
the caller looks it up.  Nothing inside `src/` changes; the wrappers return
exactly what the wrapped function returns, so a traced run writes the same
bytes as an untraced one.

Coarse calls are kept as spans (name, start, end, parent span).  Calls made
once per sample (curvature, immersion, dense output, oracle) are only
counted and timed, because keeping a span each would cost more memory than
the workload itself.  Every call's duration is charged to its caller, so a
span name's exclusive time is its duration minus the time of the wrapped
calls inside it.  A layer is the part of a span name before the first dot.
"""
from __future__ import annotations

import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("rk.solve_s", "s"),
    ("rk.us_per_step", "us"),
    ("rk.rhs_evals", "count"),
    ("rk.steps_accepted", "count"),
    ("rk.rhs_per_step", "ratio"),
    ("ode.integrations", "count"),
    ("ode.self_s", "s"),
    ("ode.state_at_calls", "count"),
    ("ode.state_at_us", "us"),
    ("ode.find_event_s", "s"),
    ("ode.event_evals", "count"),
    ("analysis.integrations_per_orbit", "count"),
    ("analysis.shoot_iterations", "count"),
    ("analysis.scan_s", "s"),
    ("analysis.shoot_s", "s"),
    ("analysis.classify_s", "s"),
    ("analysis.self_s", "s"),
    ("surface.curvature_calls", "count"),
    ("surface.curvature_us", "us"),
    ("surface.immersion_calls", "count"),
    ("surface.immersion_us", "us"),
    ("io.records_s", "s"),
    ("io.format_csv_s", "s"),
    ("io.csv_rows", "count"),
    ("io.mesh_build_s", "s"),
    ("io.format_obj_s", "s"),
    ("io.obj_vertices", "count"),
    ("io.us_per_vertex", "us"),
    ("io.write_s", "s"),
    ("io.bytes_written", "bytes"),
    ("oracle.calls", "count"),
    ("oracle.us_per_sample", "us"),
    ("verify.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

#: Counts that repeat exactly between two traced runs of one seed.
EXACT_COUNTS = (
    "rk.rhs_evals", "rk.steps_accepted", "ode.state_at_calls", "ode.event_evals",
    "analysis.integrations_per_orbit", "io.csv_rows", "io.obj_vertices", "oracle.calls",
)

#: Sizes of the outputs, fixed by the workload's input.  They are not figures
#: of merit: a change must leave them equal, and `test_perfbench.py` checks
#: them against `baseline.json`.  Their `better` in BENCHMARK.json is
#: "higher", so that lost output never reads as a gain.
INVARIANTS = ("io.csv_rows", "io.obj_vertices", "io.bytes_written", "oracle.calls")


class Tracer:
    """Spans, call counts and busy/exclusive time per wrapped name."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index or None]
        self.calls: Counter = Counter()   # wrapped name -> calls
        self.busy: Counter = Counter()    # wrapped name -> inclusive seconds
        self.own: Counter = Counter()     # wrapped name -> exclusive seconds
        self.counts: Counter = Counter()  # work counts taken inside wrappers
        self._stack: list[list] = []      # [child seconds, span index or None, name]

    def wrap(self, name, fn, keep=True, before=None, after=None):
        """`fn` with its calls timed under `name`; a span is kept when `keep`.

        `before(args, kwargs)` may return replacement arguments; `after(result,
        args)` sees each result.  Both feed `counts`.
        """
        stack, spans = self._stack, self.spans
        calls, busy, own = self.calls, self.busy, self.own

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = None
            if keep:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            frame = [0.0, index, name]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                calls[name] += 1
                busy[name] += elapsed
                own[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if keep:
                    spans[index][1:3] = start, end
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def inside(self, name: str) -> bool:
        return any(frame[2] == name for frame in self._stack)

    # -- the bindings sol3's modules look up -----------------------------------

    def _count_rhs(self, args, kwargs):
        f, *rest = args

        def counted(*y):
            self.counts["rhs_evals"] += 1
            return f(*y)

        return (counted, *rest), kwargs

    def _count_event_evals(self, args, kwargs):
        traj, predicate = args

        def counted(*a):
            self.counts["event_evals"] += 1
            return predicate(*a)

        return (traj, counted), kwargs

    def _count_orbit_integration(self, args, kwargs):
        if self.inside("analysis.shoot"):
            self.counts["orbit_integrations"] += 1
        return args, kwargs

    def _add(self, key, measure):
        def after(result, args):
            self.counts[key] += measure(result, args)
        return after

    @contextmanager
    def patched(self):
        """Install every wrapper; restore the original bindings on exit."""
        from sol3 import analysis, cli, io, ode, oracle, verify

        wrap = self.wrap
        bindings = [
            (ode, "solve_fixed_horizon", wrap(
                "rk.solve", ode.solve_fixed_horizon, before=self._count_rhs,
                after=self._add("steps_accepted", lambda r, a: len(r[2])))),
            (cli, "integrate", wrap("ode.integrate", cli.integrate)),
            (analysis, "integrate_forward", wrap(
                "ode.integrate_forward", analysis.integrate_forward,
                before=self._count_orbit_integration)),
            (analysis, "find_event", wrap(
                "ode.find_event", analysis.find_event, before=self._count_event_evals)),
            (ode.Trajectory, "state_at", wrap(
                "ode.state_at", ode.Trajectory.state_at, keep=False)),
            (analysis, "classify_minimal", wrap("analysis.classify", analysis.classify_minimal)),
            (analysis, "scan_bracket", wrap("analysis.scan", analysis.scan_bracket)),
            (analysis, "closed_curve_search", wrap(
                "analysis.shoot", analysis.closed_curve_search,
                after=self._add("shoot_iterations", lambda r, a: r.iterations))),
            (io, "curvature_report", wrap(
                "surface.curvature", io.curvature_report, keep=False)),
            (io, "immersion", wrap("surface.immersion", io.immersion, keep=False)),
            (io, "trajectory_records", wrap("io.records", io.trajectory_records)),
            (io, "format_curve_csv", wrap(
                "io.format_csv", io.format_curve_csv,
                after=self._add("csv_rows", lambda r, a: len(a[0])))),
            (io, "surface_mesh", wrap("io.mesh_build", io.surface_mesh)),
            (io, "format_obj", wrap(
                "io.format_obj", io.format_obj,
                after=self._add("obj_vertices", lambda r, a: len(a[0])))),
            (io, "atomic_write_text", wrap(
                "io.write", io.atomic_write_text,
                after=self._add("bytes_written", lambda r, a: os.path.getsize(a[0])))),
            (verify, "run_verification", wrap("verify.run", verify.run_verification)),
            (verify, "curvature_report", wrap(
                "surface.curvature", verify.curvature_report, keep=False)),
            (oracle, "curvatures_fd", wrap(
                "oracle.curvatures_fd", oracle.curvatures_fd, keep=False)),
        ]
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in bindings]
        handlers = dict(cli._HANDLERS)
        try:
            for owner, attr, wrapper in bindings:
                setattr(owner, attr, wrapper)
            for command, handler in handlers.items():
                cli._HANDLERS[command] = wrap(f"cli.{command}", handler)
            yield
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)
            cli._HANDLERS.update(handlers)

    # -- metrics ---------------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.own.items() if name.split(".")[0] == layer)

    def metrics(self, traced_s: float, untraced_s: float) -> dict[str, float]:
        """Every PER_LAYER metric, from this tracer's records of one round."""
        calls, busy, counts = self.calls, self.busy, self.counts

        def per(seconds: float, n: float) -> float:
            return seconds / n * 1e6 if n else 0.0

        steps = counts["steps_accepted"]
        shoots = calls["analysis.shoot"]
        vertices = counts["obj_vertices"]
        values = {
            "rk.solve_s": busy["rk.solve"],
            "rk.us_per_step": per(busy["rk.solve"], steps),
            "rk.rhs_evals": counts["rhs_evals"],
            "rk.steps_accepted": steps,
            "rk.rhs_per_step": counts["rhs_evals"] / steps if steps else 0.0,
            "ode.integrations": calls["ode.integrate"] + calls["ode.integrate_forward"],
            "ode.self_s": self.layer_self("ode"),
            "ode.state_at_calls": calls["ode.state_at"],
            "ode.state_at_us": per(busy["ode.state_at"], calls["ode.state_at"]),
            "ode.find_event_s": busy["ode.find_event"],
            "ode.event_evals": counts["event_evals"],
            "analysis.integrations_per_orbit":
                counts["orbit_integrations"] / shoots if shoots else 0.0,
            "analysis.shoot_iterations": counts["shoot_iterations"],
            "analysis.scan_s": busy["analysis.scan"],
            "analysis.shoot_s": busy["analysis.shoot"],
            "analysis.classify_s": busy["analysis.classify"],
            "analysis.self_s": self.layer_self("analysis"),
            "surface.curvature_calls": calls["surface.curvature"],
            "surface.curvature_us": per(busy["surface.curvature"], calls["surface.curvature"]),
            "surface.immersion_calls": calls["surface.immersion"],
            "surface.immersion_us": per(busy["surface.immersion"], calls["surface.immersion"]),
            "io.records_s": busy["io.records"],
            "io.format_csv_s": busy["io.format_csv"],
            "io.csv_rows": counts["csv_rows"],
            "io.mesh_build_s": busy["io.mesh_build"],
            "io.format_obj_s": busy["io.format_obj"],
            "io.obj_vertices": vertices,
            "io.us_per_vertex": per(busy["io.mesh_build"] + busy["io.format_obj"], vertices),
            "io.write_s": busy["io.write"],
            "io.bytes_written": counts["bytes_written"],
            "oracle.calls": calls["oracle.curvatures_fd"],
            "oracle.us_per_sample": per(busy["oracle.curvatures_fd"],
                                        calls["oracle.curvatures_fd"]),
            "verify.self_s": self.layer_self("verify"),
            "cli.self_s": self.layer_self("cli"),
            "trace.overhead_ratio": traced_s / untraced_s,
        }
        return {name: values[name] if unit in ("count", "bytes") else float(values[name])
                for name, unit in PER_LAYER}
