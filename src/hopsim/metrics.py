"""Evaluation quantities computed over telemetry logs.

All functions are pure post-processing over immutable logs: saturation
ratios and their stance averages, foot clearance, the energy-conversion
audit, and the torque-speed trace against the admissible operating region
(AOR) of the geared motor.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from .model import HopperParams, MotorParams


@dataclass(frozen=True)
class StanceWindow:
    """Time window from stance start to lift-off, from detected events."""

    t_init: float
    t_lo: float

    def __post_init__(self):
        if not self.t_init < self.t_lo:
            raise ValueError(
                f"stance window must have t_init < t_lo, got [{self.t_init}, {self.t_lo}]"
            )


@dataclass(frozen=True)
class AorCurve:
    """Polyline of (joint speed, joint torque) pairs bounding the admissible
    operating region; torque is non-increasing in |speed| and zero beyond the
    geared no-load speed."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        speeds = self.speeds
        if len(speeds) < 2:
            raise ValueError("an AOR curve needs at least 2 points")
        # torque_at bisects the speeds, so they must be ordered; NaN is not
        if not all(s0 <= s1 for s0, s1 in zip(speeds, speeds[1:])):
            raise ValueError("AOR curve speeds must be non-decreasing and not NaN")

    @cached_property
    def speeds(self) -> tuple[float, ...]:
        """The curve's speeds in order; the bisection key of :meth:`torque_at`."""
        return tuple(s for s, _ in self.points)

    @property
    def stall_torque(self) -> float:
        return self.points[0][1]

    def torque_at(self, speed: float) -> float:
        """Envelope torque at |speed|, linearly interpolated; 0 beyond the curve.

        The segment is found by bisection: its end is the first point at
        index >= 1 whose speed is >= |speed|.  NaN fails ``s < last`` and
        returns 0 like any speed at or past the no-load speed.
        """
        s = abs(speed)
        speeds = self.speeds
        if not s < speeds[-1]:
            return 0.0
        i = bisect_left(speeds, s, 1)
        s0, t0 = self.points[i - 1]
        s1, t1 = self.points[i]
        if s1 == s0:
            return t1
        u = (s - s0) / (s1 - s0)
        return t0 + u * (t1 - t0)

    def mirrored(self) -> tuple[tuple[float, float], ...]:
        """Full polyline over negative and positive speeds, for plotting."""
        neg = [(-s, tq) for s, tq in reversed(self.points) if s > 0.0]
        return tuple(neg) + self.points


def saturation_ratio(tau_act: float, tau_sat: float) -> float:
    """Actual saturation ratio |tau_act| / |tau_sat|.

    A zero envelope bound is degenerate: a zero command there counts as fully
    saturated (ratio 1), anything else is beyond the envelope and reported as
    the +inf sentinel.
    """
    if tau_sat == 0.0:
        return 1.0 if tau_act == 0.0 else math.inf
    return abs(tau_act) / abs(tau_sat)


def average_saturation_ratio(log, w: StanceWindow) -> float:
    """Trapezoidal time-average of the knee saturation ratio over a stance
    window.

    Only finite samples enter the average; an empty window is an error.
    The result is invariant under uniform time reparameterization.
    """
    pts = [
        (r.t, r.c_act_knee)
        for r in log.records
        if w.t_init <= r.t <= w.t_lo and math.isfinite(r.c_act_knee)
    ]
    if len(pts) < 2:
        raise ValueError(
            f"stance window [{w.t_init}, {w.t_lo}] contains {len(pts)} samples; need >= 2"
        )
    area = 0.0
    for (t0, c0), (t1, c1) in zip(pts, pts[1:]):
        area += 0.5 * (c0 + c1) * (t1 - t0)
    return area / (pts[-1][0] - pts[0][0])


def foot_clearance(log) -> tuple[float, float]:
    """Initial and maximum foot-end height over the log.

    A stance record's foot is pinned at exactly 0.0, so a log that never
    leaves stance gives h_r_max = h_r_init.
    """
    if not log.records:
        raise ValueError("empty log")
    return log.records[0].y_foot, max(r.y_foot for r in log.records)


@dataclass(frozen=True)
class EnergyBalance:
    work: float            # J, trapezoidal sum of tau_des * dtheta over both joints
    potential_gain: float  # J, per-mass potential change over the window
    residual: float        # |work - potential_gain - kinetic_gain| / |work|
    kinetic_gain: float    # J, kinetic energy change over the window


def energy_balance(log, w: StanceWindow, p: HopperParams) -> EnergyBalance:
    """Energy-conversion audit over a window of the log.

    Joint work is the trapezoidal integral of the applied torques over the
    joint angles (knee plus hip).  The potential side uses the masses the
    controller actually lifts, each at its own height, and the kinetic term
    makes the audit testable: on a frictionless run work equals the change
    of kinetic plus potential energy up to integration error.
    """
    rows = [r for r in log.records if w.t_init <= r.t <= w.t_lo]
    if len(rows) < 2:
        raise ValueError("window contains fewer than two records")
    work = 0.0
    for r0, r1 in zip(rows, rows[1:]):
        work += 0.5 * (r0.tau_des_knee + r1.tau_des_knee) * (r1.theta_knee - r0.theta_knee)
        work += 0.5 * (r0.tau_des_hip + r1.tau_des_hip) * (r1.theta_hip - r0.theta_hip)
    first, last = rows[0], rows[-1]
    potential = p.m * p.g * (last.y_body - first.y_body) + p.m_e * p.g * (
        last.y_foot - first.y_foot
    )
    kinetic = 0.5 * p.m * (last.v_body**2 - first.v_body**2) + 0.5 * p.m_e * (
        last.v_foot**2 - first.v_foot**2
    )
    if work != 0.0:
        residual = abs(work - potential - kinetic) / abs(work)
    else:
        residual = 0.0 if potential + kinetic == 0.0 else math.inf
    return EnergyBalance(work, potential, residual, kinetic)


def first_stance_window(log) -> StanceWindow:
    """Window from the first record to the first detected lift-off."""
    lifts = log.lift_events()
    if not lifts or not log.records:
        raise ValueError("log has no lift event")
    return StanceWindow(log.records[0].t, lifts[0].t)


def speed_torque_trace(log) -> list[tuple[float, float]]:
    """Logged (knee speed, |applied knee torque|) sequence over stance records."""
    return [(r.thetad_knee, abs(r.tau_des_knee)) for r in log.records if r.phase == "stance"]


def aor_curve(m: MotorParams, n: int = 256) -> AorCurve:
    """Admissible operating region boundary sampled at n joint-side speeds.

    Runs from the geared stall torque at zero speed down to zero torque at
    the geared no-load speed; negative speeds mirror by symmetry.
    """
    if n < 2:
        raise ValueError("need at least 2 samples")
    s_max = m.omega_max / m.R
    stall = m.R * m.tau_max
    pts = []
    for i in range(n):
        s = s_max * i / (n - 1)
        pts.append((s, stall * (1.0 - s / s_max)))
    return AorCurve(tuple(pts))


def trace_mean_gap(trace, curve: AorCurve) -> float:
    """Mean normalized vertical gap between a stance trace (from
    :func:`speed_torque_trace`) and the AOR boundary.

    Zero means the trace rides the envelope; larger values mean unused torque
    headroom.  Normalized by the stall torque so presets are comparable.
    """
    if not trace:
        raise ValueError("log has no stance records")
    stall = curve.stall_torque
    gap = 0.0
    for speed, tau in trace:
        gap += max(0.0, curve.torque_at(speed) - tau) / stall
    return gap / len(trace)
