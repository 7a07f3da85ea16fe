"""Hybrid fixed-step simulation of the torque-driven hopping leg.

The plant is the two-mass system embodied as a two-link leg: during stance
the foot is pinned to ideal ground and only the body integrates; in flight
body and foot integrate as a pair coupled by the joint-torque-induced
task-space force, both under gravity.  Phase transitions are detected by
sign crossings (stance pin force for lift-off, foot height for touchdown),
located by linear interpolation within a step.

A :class:`RunSetup` is a checked run.  Building one checks the run knobs and
then builds the closed-form hop cycle, so a setup that exists can run; every
controller, and the CLI's ``compare`` and ``traj``, read that one cycle.

Each tick of :func:`run` goes command -> record -> plant -> landings ->
clock, and :func:`run` makes every controller call.  The plant,
:func:`_advance_tick`, calls none: it takes the controller's continuous
force law or builds one from the tick's held command (:func:`_held_force_law`),
steps the plant and locates events.  The force at the state after a substep
is that step's post-step pin force and the next substep's stage-1 force and
pre-step pin force, so each leg configuration is evaluated once.  The leg
terms are computed once per tick, at its end state: they give the joint
state recorded for it and ride on the returned state into the next tick,
whose first force differs only in the held torques.  The leg stops are
called only when a substep leaves their interval, and each phase tests its
one event where the substep is taken.  The plant's constants (``1/m``,
``1/m_e``, ``g``) are bound once per tick and passed to the RK4 steps, and
the held law's geometry once per run.  None of this changes a floating-point
operation, so telemetry is byte-identical to evaluating every configuration
each time it is needed.

Nothing in a tick reads the time ``t``, so a run whose whole state repeats
repeats its ticks.  At the first tick after each landing :func:`run` keys
the state (:func:`_cycle_key`: phase, the bits of the four positions and
rates, every controller attribute, the IK-clamp count).  When a key comes
back, each later tick of the same loop copies the next record of the cycle
since its first sighting at the new time.  It reruns the plant only if its
cycle tick had events, and otherwise adds ``dt_sub`` ``n_sub`` times, so
event times and the clock come out as computed.  The position controller
reaches such an orbit: its leg rests on the plastic fold stop once per
hop, which erases the state.

:meth:`TelemetryLog.to_csv` streams the log as CSV text in one process.  A
replayed run's log knows its cycle (:attr:`TelemetryLog.cycle`), so each
copied row is written as the ``repr`` of its time plus the text its cycle
row has after ``t``, which is formatted once.

The module also provides :class:`TwoMassReference`, an RK4-plus-events
integration of the ideal two-mass model itself (the dynamics the closed-form
trajectory solves), used as the numeric oracle for switch times and the hop
period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterator, NamedTuple

from . import analytic, control, kinematics
from .errors import SimulationAbort
from .model import (
    HopperParams,
    HopPhase,
    LegGeometry,
    ValidatedBundle,
    validate,
)

CONTACT_EPSILON = 1e-9  # touchdown height threshold, m
_MAX_EVENTS_PER_STEP = 4
MAX_SUBSTEPS_PER_TICK = 10_000  # largest control period / dt a run accepts
MAX_TICKS = 10_000_000  # most control ticks a run may ask for
# Abort once more than this many ticks in total, consecutive or not, had
# their desired length clamped into the leg's reach.
MAX_IK_FAILURES = 100
MAX_DURATION = 30.0  # s, guard for hop-count runs
# The names RunSetup.controller takes, each with the code that builds it.
CONTROLLERS: dict[str, Callable[[RunSetup], object]] = {
    "force": lambda s: control.ForceController(
        s.cycle, s.bundle.geometry, s.bundle.motor, s.bundle.gains
    ),
    "position": lambda s: control.PositionController(s.cycle, s.bundle.geometry, s.bundle.motor),
    "spring": lambda s: control.VirtualSpringController(
        s.bundle.params, s.bundle.geometry, s.bundle.motor
    ),
}


class Record(NamedTuple):
    """One telemetry row; field order is the CSV column contract."""

    t: float
    phase: str
    y_body: float
    v_body: float
    y_foot: float
    v_foot: float
    theta_hip: float
    theta_knee: float
    thetad_hip: float
    thetad_knee: float
    tau_dyn_hip: float
    tau_dyn_knee: float
    tau_des_hip: float
    tau_des_knee: float
    tau_sat_hip: float
    tau_sat_knee: float
    c_act_hip: float
    c_act_knee: float


_new_record = tuple.__new__  # (Record, fields): Record(*fields) without its __new__ call

# The CSV text of a row after ``t``: repr of every number (``%r`` is
# ``repr``), the phase as is.
_CSV_TAIL = "".join(",%s" if name == "phase" else ",%r" for name in Record._fields[1:]) + "\n"
_CSV_LINE = "%r" + _CSV_TAIL  # one whole CSV line
# Rows per text chunk of ``TelemetryLog.to_csv`` (about 70 kB of text),
# so writing a log never holds more than one chunk of it as a string.
_CSV_CHUNK_ROWS = 256


class Event(NamedTuple):
    kind: str  # "lift" or "landing"
    t: float
    y_body: float
    v_body: float


@dataclass
class TelemetryLog:
    """Ordered per-tick records plus detected phase events.

    ``cycle`` is None, or the bounds ``(start, stop)`` of the cycle that
    :func:`run` replayed: every row ``k`` from ``stop`` on repeats row
    ``start + (k - stop) % (stop - start)`` in every field but ``t``.
    """

    records: list[Record] = field(default_factory=list)
    events: list[Event] = field(default_factory=list)
    failure: str | None = None
    cycle: tuple[int, int] | None = field(default=None, init=False)

    def lift_events(self) -> list[Event]:
        return [e for e in self.events if e.kind == "lift"]

    def landing_events(self) -> list[Event]:
        return [e for e in self.events if e.kind == "landing"]

    def csv_header(self) -> str:
        return ",".join(Record._fields)

    def to_csv(self) -> Iterator[str]:
        """The CSV text in chunks; ``"".join`` of them is the whole file.

        Yields the header line, then the rows in blocks of
        ``_CSV_CHUNK_ROWS``.  A row before the cycle (all rows if there is
        none) is formatted with ``_CSV_LINE``.  The text after ``t`` of each
        cycle row is formatted once and kept, and every row from the cycle's
        start on is the ``repr`` of its time plus its cycle row's text, the
        same bytes as formatting it whole.  Writing a log thus holds one
        block and one cycle's text, whatever the log's length.
        """
        records = self.records
        n = len(records)
        start, stop = self.cycle or (n, n)
        tails = [_CSV_TAIL % r[1:] for r in records[start:stop]]
        period = len(tails)

        def block(i: int, j: int) -> str:  # rows i:j; its lines are freed on return
            lines = [_CSV_LINE % r for r in records[i : min(j, start)]]
            for k in range(max(i, start), j):
                lines.append(repr(records[k].t) + tails[(k - start) % period])
            return "".join(lines)

        yield self.csv_header() + "\n"
        for i in range(0, n, _CSV_CHUNK_ROWS):
            yield block(i, min(i + _CSV_CHUNK_ROWS, n))


@dataclass(slots=True)
class SimState:
    t: float
    phase: HopPhase
    y_body: float
    v_body: float
    y_foot: float
    v_foot: float
    joints: kinematics.JointState
    terms: tuple | None = None  # leg terms at this state, if the plant evaluated them


def _end_time(setup: RunSetup) -> float:
    return setup.duration if setup.duration is not None else MAX_DURATION


@dataclass(frozen=True)
class RunSetup:
    """A checked run: building one checks the run knobs, then builds the
    closed-form hop cycle (:attr:`cycle`) that every controller and command
    reads, and raises ValueError with a one-line reason if either fails.
    It is frozen, so it stays checked."""

    bundle: ValidatedBundle
    controller: str = "force"  # one of CONTROLLERS
    duration: float | None = None
    hops: int | None = None
    dt: float = 2.5e-4
    control_rate: float = 4000.0

    def __post_init__(self) -> None:
        if self.controller not in CONTROLLERS:
            known = ", ".join(CONTROLLERS)
            raise ValueError(f"unknown controller {self.controller!r} (known: {known})")
        if (self.duration is None) == (self.hops is None):
            raise ValueError("exactly one of duration or hops must be set")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be positive and finite")
        if not (math.isfinite(self.control_rate) and self.control_rate > 0.0):
            raise ValueError("control_rate must be positive and finite")
        # compared before rounding: a dt so small that period / dt is inf fails too
        if not (1.0 / self.control_rate) / self.dt <= MAX_SUBSTEPS_PER_TICK:
            raise ValueError(
                f"dt={self.dt!r} gives more than {MAX_SUBSTEPS_PER_TICK} substeps "
                f"per control tick at control_rate={self.control_rate!r}"
            )
        if self.hops is None and not (math.isfinite(self.duration) and self.duration >= 0.0):
            raise ValueError("duration must be non-negative and finite")
        if self.hops is not None and self.hops < 1:
            raise ValueError("hops must be at least 1")
        # The tick bound also keeps the clock moving: a substep is then at least
        # t_end / (MAX_TICKS * MAX_SUBSTEPS_PER_TICK), so adding it changes t_end.
        t_end = _end_time(self)
        if not t_end * self.control_rate <= MAX_TICKS:
            raise ValueError(
                f"control_rate={self.control_rate!r} asks for more than {MAX_TICKS} "
                f"control ticks in {t_end!r} s"
            )
        self.cycle  # the closed forms' ParameterError is a ValueError too

    @cached_property
    def cycle(self) -> analytic.TrajectoryCycle:
        """The closed-form hop cycle of the setup's hopper, built once."""
        return analytic.TrajectoryCycle(self.bundle.params)

    @cached_property
    def n_sub(self) -> int:  # plant substeps per control tick: period / dt, rounded
        return max(1, round((1.0 / self.control_rate) / self.dt))

    @cached_property
    def dt_sub(self) -> float:  # the plant's substep: dt only if dt divides the period
        return (1.0 / self.control_rate) / self.n_sub


@dataclass
class RunResult:
    log: TelemetryLog
    setup: RunSetup

    @property
    def ok(self) -> bool:
        return self.log.failure is None

    @property
    def status(self) -> str:
        """The run's outcome: ``ok`` or ``aborted: <reason>``."""
        return "ok" if self.ok else f"aborted: {self.log.failure}"


# --- leg configuration helpers (raw floats, hot path) ---------------------


def _leg_terms(y_rel: float, geo: LegGeometry):
    """(theta_knee, dy_dknee, dhip_dknee) at a reach-capped leg length."""
    y_lo, y_hi, _, _, sum_sq, two_l1l2, neg_l1l2, neg_l2, l1, l2, knee_sign = geo.constants
    y = y_lo if y_rel < y_lo else y_rel
    if y > y_hi:
        y = y_hi
    cos_gamma = (sum_sq - y * y) / two_l1l2
    if not -1.0 < cos_gamma < 1.0:
        cos_gamma = 1.0 if cos_gamma >= 1.0 else -1.0
    theta_k = knee_sign * (math.pi - math.acos(cos_gamma))
    # cos(theta_k) is -cos_gamma, so L2 + L1*cos(theta_k) is L2 - L1*cos_gamma.
    return (
        theta_k,
        neg_l1l2 * math.sin(theta_k) / y,
        neg_l2 * (l2 - l1 * cos_gamma) / (y * y),
    )


def _held_force_law(geo: LegGeometry) -> Callable[[float, float], Callable[[float], float]]:
    """Bound once per run: (tau_h, tau_k) -> their task force at a leg length,
    bit for bit the force from :func:`_leg_terms`, its operations inline in order."""
    y_lo, y_hi, _, _, sum_sq, two_l1l2, neg_l1l2, neg_l2, l1, l2, knee_sign = geo.constants
    acos, sin, pi = math.acos, math.sin, math.pi
    knee_sign = float(knee_sign)  # int * float would convert the int on every call

    def held(tau_h: float, tau_k: float) -> Callable[[float], float]:
        def law(y_rel: float) -> float:
            y = y_lo if y_rel < y_lo else y_rel
            if y > y_hi:
                y = y_hi
            cos_gamma = (sum_sq - y * y) / two_l1l2
            if not -1.0 < cos_gamma < 1.0:
                cos_gamma = 1.0 if cos_gamma >= 1.0 else -1.0
            dy_dknee = neg_l1l2 * sin(knee_sign * (pi - acos(cos_gamma))) / y
            dhip_dknee = neg_l2 * (l2 - l1 * cos_gamma) / (y * y)
            return 0.0 if dy_dknee == 0.0 else (tau_k + tau_h * dhip_dknee) / dy_dknee

        return law
    return held


def _joints_from(terms, v_rel: float, geo: LegGeometry) -> kinematics.JointState:
    """Joint angles and rates of the aligned leg from its leg terms."""
    theta_k, dy_dknee, dhip_dknee = terms
    thetad_k = v_rel / dy_dknee if dy_dknee != 0.0 else 0.0
    return kinematics.JointState(
        kinematics.hip_alignment_angle(theta_k, geo), theta_k, dhip_dknee * thetad_k, thetad_k
    )


def joint_state_for(y_rel: float, v_rel: float, geo: LegGeometry) -> kinematics.JointState:
    """Joint angles and rates of the aligned leg at the given length/rate."""
    return _joints_from(_leg_terms(y_rel, geo), v_rel, geo)


def _apply_leg_stops(phase, yb, vb, yf, vf, p: HopperParams, geo: LegGeometry):
    """Enforce the mechanical fold/extension stops of the linkage.

    The torque-speed envelope provides no braking above the geared no-load
    speed, so a fast landing can drive the leg into its joint limits; the
    real linkage stops there.  The stops are plastic: relative motion into a
    stop is absorbed (stance: the body stops on the folded or straight leg;
    flight: both masses continue at the common center-of-mass velocity).
    Called only when the leg length ``yb - yf`` is not between the stops.
    """
    lo, hi = geo.constants.y_lo, geo.constants.y_hi
    if phase is HopPhase.STANCE:
        if yb < lo:
            yb, vb = lo, max(vb, 0.0)
        elif yb > hi:
            yb, vb = hi, min(vb, 0.0)
        return yb, vb, yf, vf
    y_rel = yb - yf
    cap = lo if y_rel < lo else hi
    total = p.m + p.m_e
    y_com = (p.m * yb + p.m_e * yf) / total
    yb = y_com + p.m_e / total * cap
    yf = y_com - p.m / total * cap
    v_rel = vb - vf
    if (y_rel < lo and v_rel < 0.0) or (y_rel > hi and v_rel > 0.0):
        v_com = (p.m * vb + p.m_e * vf) / total
        vb = vf = v_com
    return yb, vb, yf, vf


# --- RK4 sub-steps ---------------------------------------------------------


def _rk4_stance(y, v, f, dt, inv_m, g, law):
    """One stance step: body only, foot pinned at the origin.

    ``f`` is the task force at (y, v), already evaluated by the caller;
    ``inv_m`` is ``1.0 / m``.
    """
    h = 0.5 * dt
    a1 = -g + f * inv_m
    y2, v2 = y + h * v, v + h * a1
    a2 = -g + law(y2) * inv_m
    y3, v3 = y + h * v2, v + h * a2
    a3 = -g + law(y3) * inv_m
    y4, v4 = y + dt * v3, v + dt * a3
    a4 = -g + law(y4) * inv_m
    dt6 = dt / 6.0
    y_n = y + dt6 * (v + 2.0 * v2 + 2.0 * v3 + v4)
    v_n = v + dt6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    return y_n, v_n


def _rk4_flight(yb, vb, yf, vf, f, dt, inv_m, inv_me, g, law):
    """One flight step: body and foot coupled by the leg force, both falling.

    ``f`` is the task force at the start state, already evaluated by the
    caller; ``inv_m`` and ``inv_me`` are ``1.0 / m`` and ``1.0 / m_e``.
    """
    h = 0.5 * dt
    ab1, af1 = -g + f * inv_m, -g - f * inv_me
    yb2, vb2 = yb + h * vb, vb + h * ab1
    yf2, vf2 = yf + h * vf, vf + h * af1
    f = law(yb2 - yf2)
    ab2, af2 = -g + f * inv_m, -g - f * inv_me
    yb3, vb3 = yb + h * vb2, vb + h * ab2
    yf3, vf3 = yf + h * vf2, vf + h * af2
    f = law(yb3 - yf3)
    ab3, af3 = -g + f * inv_m, -g - f * inv_me
    yb4, vb4 = yb + dt * vb3, vb + dt * ab3
    yf4, vf4 = yf + dt * vf3, vf + dt * af3
    f = law(yb4 - yf4)
    ab4, af4 = -g + f * inv_m, -g - f * inv_me
    dt6 = dt / 6.0
    yb_n = yb + dt6 * (vb + 2.0 * vb2 + 2.0 * vb3 + vb4)
    vb_n = vb + dt6 * (ab1 + 2.0 * ab2 + 2.0 * ab3 + ab4)
    yf_n = yf + dt6 * (vf + 2.0 * vf2 + 2.0 * vf3 + vf4)
    vf_n = vf + dt6 * (af1 + 2.0 * af2 + 2.0 * af3 + af4)
    return yb_n, vb_n, yf_n, vf_n


# --- run loop ---------------------------------------------------------------


def initial_state(setup: RunSetup) -> SimState:
    """Pinned stance state at the trajectory start posture, at rest."""
    geo = setup.bundle.geometry
    y0 = min(max(setup.cycle.y_des(0.0), geo.constants.y_lo), geo.constants.y_hi)
    return SimState(
        t=0.0,
        phase=HopPhase.STANCE,
        y_body=y0,
        v_body=0.0,
        y_foot=0.0,
        v_foot=0.0,
        joints=joint_state_for(y0, 0.0, geo),
    )


def _record_from(state: SimState, cmd: control.JointCommands) -> Record:
    js = state.joints
    hip_dyn, hip_sat, hip_des = cmd.hip
    knee_dyn, knee_sat, knee_des = cmd.knee
    # Record's fields in order; the last two are metrics.saturation_ratio, inline
    return _new_record(Record, (
        state.t, state.phase._value_,  # the member's value, without Enum's property
        state.y_body, state.v_body, state.y_foot, state.v_foot,
        js.theta_hip, js.theta_knee, js.thetad_hip, js.thetad_knee,
        hip_dyn, knee_dyn, hip_des, knee_des, hip_sat, knee_sat,
        abs(hip_des) / abs(hip_sat) if hip_sat != 0.0 else 1.0 if hip_des == 0.0 else math.inf,
        abs(knee_des) / abs(knee_sat) if knee_sat != 0.0 else 1.0 if knee_des == 0.0 else math.inf,
    ))


def run(setup: RunSetup) -> RunResult:
    """Run the control loop at a fixed rate and return the telemetry log.

    Each computed tick: controller command, telemetry record, plant
    substeps with transition checks, landing count, trajectory clock
    advance.  Once the state after a landing repeats, every later tick
    copies the next row of the cycle since (see the module docstring) and
    moves the clock as the plant would.  The run is seed-free and
    deterministic: the same setup produces a bitwise-identical log.  Aborts
    (non-finite state, too many unreachable-trajectory ticks, a missed hop
    target) return a partial log whose ``failure`` field carries the reason.
    """
    p, geo = setup.bundle.params, setup.bundle.geometry
    period, n_sub, dt_sub = 1.0 / setup.control_rate, setup.n_sub, setup.dt_sub
    controller = CONTROLLERS[setup.controller](setup)
    force_law, t_stop, hops = controller.force_law, _end_time(setup) - 1e-12, setup.hops
    held_law = _held_force_law(geo) if force_law is None else None

    log = TelemetryLog()
    records, events = log.records, log.events
    state = initial_state(setup)
    t = state.t
    ik_failures = 0
    landings = 0
    touchdown = None  # the last tick's last landing
    cycle_starts: dict[str, int] = {}  # key after a landing -> first tick with it
    event_ticks = {}  # tick that had events -> its start state and command
    i = None  # the cycle row the next tick copies, once the state has repeated

    def abort(reason: str) -> RunResult:
        log.failure = reason
        return RunResult(log, setup)

    while t < t_stop and (hops is None or landings < hops):
        if i is not None:  # a copied tick: cycle row i at time t
            records.append(_new_record(Record, (t, *records[i][1:])))
            if i in event_ticks:  # rerun the plant, so event times come out as computed
                begin, cmd = event_ticks[i]
                seen = len(events)
                begin = replace(begin, t=t)
                t = _advance_tick(begin, cmd, force_law, held_law, dt_sub, n_sub, p, geo, log).t
                landings += sum(event.kind == "landing" for event in events[seen:])
            else:  # the clock as the plant moves it
                for _ in range(n_sub):
                    t += dt_sub
            i = i + 1 if i + 1 < stop else start
            continue
        if touchdown is not None:
            tick = len(records)
            start = cycle_starts.setdefault(_cycle_key(state, controller, ik_failures), tick)
            if start < tick:  # ticks start:tick repeat from here on
                i, stop = start, tick
                log.cycle = (start, stop)
                continue
        cmd = controller.command(state)
        records.append(_record_from(state, cmd))
        if cmd.ik_clamped:
            ik_failures += 1
            if ik_failures > MAX_IK_FAILURES:
                return abort(
                    f"desired trajectory unreachable on {ik_failures} ticks in total "
                    f"(limit {MAX_IK_FAILURES})"
                )

        seen = len(events)
        try:
            end = _advance_tick(state, cmd, force_law, held_law, dt_sub, n_sub, p, geo, log)
        except SimulationAbort as exc:
            return abort(str(exc))
        touchdown = None  # the tick's last landing
        if len(events) > seen:
            event_ticks[len(records) - 1] = state, cmd
            for event in events[seen:]:
                if event.kind == "landing":
                    landings += 1
                    touchdown = event
        state, t = end, end.t
        if not (math.isfinite(state.y_body) and abs(state.y_body) < 1e6):
            return abort(f"state diverged at t={state.t:.6f}")
        controller.advance(period, state, touchdown)

    # the closing record: the last state's command, or the cycle's next row
    records.append(
        _record_from(state, controller.command(state)) if i is None
        else _new_record(Record, (t, *records[i][1:]))
    )
    if hops is not None and landings < hops:
        return abort(f"hop target not reached ({landings} of {hops} landings by t={t:.6f})")
    return RunResult(log, setup)


def _cycle_key(state: SimState, controller, ik_failures: int) -> str:
    """All that the rest of a run reads, at the start of a tick, but the time.

    That is the phase, the bits of the four positions and rates (``repr``
    tells -0.0 from 0.0; the joint state and leg terms are functions of
    them), every attribute of the controller (its trajectory clock, landing
    fit and the targets held at the touchdown clock and the fit's bottom)
    and the count of IK-clamped ticks.  Nothing in the dynamics reads ``t``,
    so two ticks with one key begin the same future.
    """
    return repr((
        state.phase, state.y_body, state.v_body, state.y_foot, state.v_foot,
        vars(controller), ik_failures,
    ))


def _advance_tick(state, cmd, force_law, held_law, dt_sub, n_sub, p, geo, log) -> SimState:
    """Integrate one control tick of ``n_sub`` substeps under ``cmd``, held.

    Held torques map to the task force through ``held_law``, the run's
    :func:`_held_force_law`; a continuous ``force_law`` (not None) replaces
    it.  Each substep is one RK4 step of the active phase from the force at
    its start state, then the leg stops.  Each phase then tests its event, located by linear
    interpolation within the substep.  In stance, lift-off fires when the
    pin force (foot weight + task force) ends the substep nonpositive: at its
    zero crossing from a positive start, at once from a nonpositive one.  In
    flight, landing fires when the foot crosses ``CONTACT_EPSILON`` from
    above with a downward interpolated velocity, or at once when a foot at or
    below it is driven down (a lift that was immediately reversed).  The two
    cannot fire in the same phase: if a re-pinned foot is pulled at once, the
    landing wins and the lift follows one substep later.  An event is
    appended to ``log.events`` and the rest of the substep is integrated in
    the new phase.  ``1/m``, ``1/m_e`` and ``g`` are bound once per tick.
    Returns the end state with its leg terms (the tick's one
    :func:`_leg_terms` call), which give the next tick's first held force.
    """
    tau_h, tau_k = cmd.hip.tau_des, cmd.knee.tau_des
    law = held_law(tau_h, tau_k) if force_law is None else force_law
    terms = state.terms if force_law is None else None

    t, phase = state.t, state.phase
    yb, vb, yf, vf = state.y_body, state.v_body, state.y_foot, state.v_foot
    lo, hi = geo.constants.y_lo, geo.constants.y_hi
    inv_m, inv_me, g = 1.0 / p.m, 1.0 / p.m_e, p.g
    isfinite, STANCE = math.isfinite, HopPhase.STANCE
    weight_e = p.m_e * p.g  # stance pin force = foot weight + task force
    f = (law(yb - yf) if terms is None
         else 0.0 if terms[1] == 0.0 else (tau_k + tau_h * terms[2]) / terms[1])

    for _ in range(n_sub):
        dt_left = dt_sub
        events_seen = 0
        while dt_left > 0.0:
            if phase is STANCE:
                nyb, nvb = _rk4_stance(yb, vb, f, dt_left, inv_m, g, law)
                nyf, nvf = yf, vf
            else:
                nyb, nvb, nyf, nvf = _rk4_flight(yb, vb, yf, vf, f, dt_left, inv_m, inv_me, g, law)
            if not lo <= nyb - nyf <= hi:  # a stance foot is exactly 0.0
                nyb, nvb, nyf, nvf = _apply_leg_stops(phase, nyb, nvb, nyf, nvf, p, geo)
            if not (isfinite(nyb) and isfinite(nvb) and isfinite(nyf) and isfinite(nvf)):
                raise SimulationAbort(f"non-finite state at t={t + dt_left:.6f}")
            nf = law(nyb - nyf)
            kind = None  # the substep's event, at ``frac`` of ``dt_left``
            if events_seen < _MAX_EVENTS_PER_STEP:
                if phase is STANCE:
                    pin = weight_e + nf  # the pin force at the substep's end
                    if pin <= 0.0:
                        prev = weight_e + f
                        if prev > 0.0:
                            kind, frac = "lift", prev / (prev - pin)
                        elif prev <= 0.0:  # nonpositive at both ends: unpin at once
                            kind, frac = "lift", 0.0
                        if kind is not None:
                            phase = HopPhase.FLIGHT
                            yf, vf = yf + frac * (nyf - yf), vf + frac * (nvf - vf)
                elif yf > CONTACT_EPSILON:
                    if nyf <= CONTACT_EPSILON:
                        frac = yf / (yf - nyf) if yf != nyf else 0.0
                        if vf + frac * (nvf - vf) < 0.0:
                            kind, phase, yf, vf = "landing", STANCE, 0.0, 0.0
                elif yf <= CONTACT_EPSILON and nvf < 0.0:  # at contact and driven down
                    kind, frac, phase, yf, vf = "landing", 0.0, STANCE, 0.0, 0.0
            if kind is None:
                yb, vb, yf, vf, f = nyb, nvb, nyf, nvf, nf
                t += dt_left
                break
            # Interpolate the body to the event, whose branch has switched the
            # phase and set the foot (a landing's to rest: plastic contact),
            # and integrate the rest of the substep in the new phase.  A
            # chattering contact is capped per substep; the rest is then
            # integrated without further event checks.
            events_seen += 1
            t_ev = t + frac * dt_left
            yb, vb = yb + frac * (nyb - yb), vb + frac * (nvb - vb)
            log.events.append(Event(kind, t_ev, yb, vb))
            dt_left -= frac * dt_left
            t = t_ev
            f = law(yb - yf)

    terms = _leg_terms(yb - yf, geo)
    return SimState(t, phase, yb, vb, yf, vf, _joints_from(terms, vb - vf, geo), terms)


# --- two-mass model reference integration ----------------------------------


@dataclass
class ReferenceResult:
    events: list[Event]

    def lift_times(self) -> list[float]:
        return [e.t for e in self.events if e.kind == "lift"]

    def _first(self, kind: str) -> float:
        for e in self.events:
            if e.kind == kind:
                return e.t
        raise ValueError(f"need a {kind} event")

    def first_lift(self) -> float:
        return self._first("lift")

    def hop_period(self) -> float:
        lifts = self.lift_times()
        if len(lifts) < 2:
            raise ValueError("need at least two lift events for a period")
        return lifts[1] - lifts[0]

    def flight_duration(self) -> float:
        return self._first("landing") - self._first("lift")


class TwoMassReference:
    """Numeric integration of the ideal two-mass hopping model.

    Stance integrates the pure spring-mass oscillation of the leg length
    (the dynamics the closed-form stance response solves) and lifts off when
    the model's ground force m_e*g - k_s*(y - y_s_neu) crosses zero.  Flight
    integrates the relative leg-length oscillation of the two masses and
    lands when the leg re-extends through the lift-off length; landing flips
    the sign of the extension rate, which is the model's mirrored stance
    descent.  Event times are located by linear interpolation, so detected
    switch times and hop periods check the closed forms independently.  Each
    step is one inline RK4 of ``-w*(y - y_s_neu)``, ``w`` the phase's, and
    shares no code with the plant; an event's step ends in the new phase.
    """

    def __init__(self, p: HopperParams, dt: float = 2.5e-4):
        if not 0.0 < dt < math.inf:
            raise ValueError(f"reference dt={dt!r} is not positive and finite")
        validate(p)  # ParameterError naming each bad field
        self.p = p
        self.dt = dt
        self.y_lift = p.m_e * p.g / p.k_s + p.y_s_neu

    def run(self, hops: int = 2) -> ReferenceResult:
        """Integrate until ``hops`` lift events have been seen (plus margin)."""
        p, dt, y_lift = self.p, self.dt, self.y_lift
        if not hops >= 1:
            raise ValueError(f"reference hops={hops!r} is below 1")
        t_max = (hops + 1) * 4.0 * analytic.hop_period(p)
        if not t_max / dt <= MAX_TICKS * MAX_SUBSTEPS_PER_TICK:
            raise ValueError(
                f"reference dt={dt!r} needs more than {MAX_TICKS * MAX_SUBSTEPS_PER_TICK} steps"
            )
        weight_e, k_s, y_neu = p.m_e * p.g, p.k_s, p.y_s_neu
        c_stance, c_flight = -(k_s / p.m), -(k_s / (p.m * p.m_e / (p.m + p.m_e)))
        t, y, v, stance = 0.0, y_neu - analytic.stance_amplitude(p), 0.0, True
        f = weight_e - k_s * (y - y_neu)  # ground force at the step's start
        events: list[Event] = []
        lifts, step, h, split = 0, dt, 0.0, False  # split: the step is an event's rest
        while t < t_max and lifts <= hops:
            if step != h:
                h, hh, h6 = step, 0.5 * step, step / 6.0
            c = c_stance if stance else c_flight
            a1 = c * (y - y_neu)
            y2, v2 = y + hh * v, v + hh * a1
            a2 = c * (y2 - y_neu)
            y3, v3 = y + hh * v2, v + hh * a2
            a3 = c * (y3 - y_neu)
            y4, v4 = y + h * v3, v + h * a3
            a4 = c * (y4 - y_neu)
            ny = y + h6 * (v + 2.0 * v2 + 2.0 * v3 + v4)
            nv = v + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            if stance:
                nf = weight_e - k_s * (ny - y_neu)
                if not split and f > 0.0 >= nf:
                    frac = f / (f - nf)
                    y, v = y + frac * (ny - y), v + frac * (nv - v)
                    events.append(Event("lift", t + frac * dt, y, v))
                    lifts += 1
                    step, stance, split = dt - frac * dt, False, True
                    continue
                f = nf
            # Landing: the leg re-extends through the lift-off length.
            elif not split and y < y_lift <= ny and nv > 0.0:
                frac = (y_lift - y) / (ny - y)
                v = v + frac * (nv - v)
                events.append(Event("landing", t + frac * dt, y_lift, v))
                # Mirrored descent: the body re-enters stance moving down.
                y, v = y_lift, -abs(v)
                step, stance, split = dt - frac * dt, True, True
                continue
            y, v, step, split = ny, nv, dt, False
            t += dt
        return ReferenceResult(events)
