"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps hopsim callables at their module or class attribute from
the outside; no hopsim source is changed.  Each span records its name, its
parent span, and its start and end times in flat arrays, so a run of
hundreds of thousands of spans stays a few megabytes.  Self time is
computed after the run: a span's duration minus the durations of its
direct children.

Hot callables that run dozens of times per tick (``sim._leg_terms``, the
RK4 substeps, ``control.make_command``) are wrapped count-only, so their
time stays in the self time of the span that calls them.
"""

from __future__ import annotations

import time
from array import array
from functools import update_wrapper


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, list[int]] = {}
        self.passes: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def counter(self, name: str) -> list[int]:
        return self.counts.setdefault(name, [0])

    def span(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` so every call records one span named ``name``.

        ``before(args)`` and ``after(result)`` run outside the span and
        let a caller derive counts from arguments or results.
        """
        nid = self._id(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return update_wrapper(wrapper, fn)

    def count(self, name: str, fn):
        """Wrap ``fn`` so every call only increments counter ``name``."""
        cell = self.counter(name)

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return update_wrapper(wrapper, fn)

    def current_layer(self) -> str:
        top = self.stack[-1]
        if top < 0:
            return "none"
        return self.names[self.name_id[top]].split(".", 1)[0]

    def counting_list(self, items: list) -> list:
        """A copy of ``items`` that counts each full iteration as a pass
        made by the layer of the innermost open span."""
        tracer = self

        class CountingList(list):
            __slots__ = ()

            def __iter__(self):
                layer = tracer.current_layer()
                tracer.passes[layer] = tracer.passes.get(layer, 0) + 1
                return list.__iter__(self)

        return CountingList(items)

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds; plus the
        summed duration of root spans."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        root = 0.0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
            else:
                root += dur[i]
        out: dict[str, list[float]] = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return {
            "spans": out,
            "root_s": root,
            "counts": {k: v[0] for k, v in self.counts.items()},
            "passes": dict(self.passes),
        }


def instrument(tracer: Tracer, hopsim) -> None:
    """Wrap the layer boundaries of an imported hopsim package.

    Every call site in hopsim reaches these callables through a module or
    class attribute at call time, so replacing the attribute is enough.
    """
    analytic, kinematics, control = hopsim.analytic, hopsim.kinematics, hopsim.control
    sim, metrics, cli, svg = hopsim.sim, hopsim.metrics, hopsim.cli, hopsim.svg

    def wrap(owner, attr, name, **hooks):
        setattr(owner, attr, tracer.span(name, getattr(owner, attr), **hooks))

    def count(owner, attr, name):
        setattr(owner, attr, tracer.count(name, getattr(owner, attr)))

    cycle = analytic.TrajectoryCycle
    wrap(cycle, "__init__", "analytic.cycle_build")
    wrap(cycle, "y_des", "analytic.y_des")
    wrap(cycle, "y_des_rate", "analytic.y_des_rate")

    wrap(kinematics, "inverse_kinematics", "kinematics.ik")
    wrap(kinematics, "joint_rates", "kinematics.joint_rates")
    wrap(kinematics, "hip_alignment_angle", "kinematics.hip_alignment")

    clamped = tracer.counter("control.ik_clamped")

    def after_command(cmd):
        if cmd.ik_clamped:
            clamped[0] += 1

    for cls in (control.ForceController, control.PositionController):
        wrap(cls, "command", "control.command", after=after_command)
    wrap(control._TrajectoryController, "advance", "control.clock")
    count(control, "make_command", "control.make_command")

    def after_run(result):
        result.log.records = tracer.counting_list(result.log.records)

    wrap(sim, "run", "sim.run", after=after_run)
    wrap(sim, "_advance_tick", "sim.plant")
    wrap(sim, "_record_from", "sim.record")
    wrap(sim.TwoMassReference, "run", "sim.reference")
    count(sim, "_leg_terms", "sim.leg_terms")
    count(sim, "_rk4_stance", "sim.substeps")
    count(sim, "_rk4_flight", "sim.substeps")
    count(sim.TelemetryLog, "landing_events", "sim.landing_scans")

    wrap(cli, "summarize", "metrics.summarize")
    wrap(metrics, "speed_torque_trace", "metrics.speed_torque_trace")
    wrap(metrics, "aor_curve", "metrics.aor_curve")

    wrap(cli, "build_parser", "cli.parse")
    wrap(cli, "_gather_configs", "cli.parse")
    wrap(cli, "write_atomic", "cli.write")
    wrap(sim.TelemetryLog, "to_csv", "cli.to_csv")

    points = tracer.counter("svg.points")

    def before_plot(args):
        points[0] += sum(len(s.points) for s in args[0])

    wrap(svg, "line_plot", "svg.plot", before=before_plot)
