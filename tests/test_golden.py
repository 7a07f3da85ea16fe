"""Byte-identity gate for the controller, the plant and the output layer.

Pinned digests: ``run.csv`` of single runs, every file of a plotted
force-vs-position comparison and of the other CLI cases,
``RunConfig.to_text`` and the two-mass reference's events.  Bitwise
oracles: the leg-terms kernel, the AOR lookup, the CSV row format, the SVG
polyline, the trajectory cycle, the controller's held targets, the leg
kinematics and the envelope command, the two-mass reference's loop and the
plant tick's event location,
each against a verbatim copy of the code it replaced, and the plant's held
force law against the force taken from the leg terms.
Writing ``run.csv`` streams it in chunks, with a bound on the memory that
takes whatever the log's length.

The run.csv digests were taken before the plant's inner loop was rebuilt to
evaluate each leg configuration once; the comparison digests before the
output layer lost its per-element overhead; the other CLI and ``to_text``
digests before the CLI was derived from the dataclasses.  A change that is meant to alter
any output file must regenerate them on purpose and say so.
"""

import errno
import hashlib
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hopsim import analytic, cli, control, kinematics, model, sim, svg
from hopsim.cli import main, parse_config
from hopsim.errors import SimulationAbort, UnreachableLengthError
from hopsim.kinematics import LegJacobian
from hopsim.metrics import AorCurve, aor_curve
from hopsim.model import HopperParams, LegGeometry, MotorParams

from conftest import make_state, reference_to_csv, task_force

SPRING_CONFIG = "[run]\npreset = physical-force\ncontroller = spring\n"

# (controller, --dt or None) -> sha256 of run.csv for a 1-hop run.
GOLDEN = {
    ("force", None): "e77a3777cdff9431a95a58c0143edcfcdbf82710542e62d6b9e7176864059e87",
    ("force", "2.5e-5"): "60682e2e5f5b47da5899cf6e9b5e59a9e6e234465af7accb383bf454190fe051",
    ("position", None): "087cef4c19cb9c2623980fec8163bf37f0bf2a73c10aa6e097b51c672b3b97c1",
    ("position", "2.5e-5"): "92579cfcc972b8d5476ee7b4ea3e5e3c7b91596e9277836b15c056c550087bbf",
    ("spring", None): "e8f601ea8b9e69a8e054ca40c97b82f973dd738f5e3cdf383b7c235303bd09a5",
    ("spring", "2.5e-5"): "c93274e78dcfb16a99114fc93777fbb91a8f5438c170673efd71cf7f8282fc82",
}


@pytest.mark.parametrize(("controller", "dt"), sorted(GOLDEN, key=str))
def test_run_csv_digest(tmp_path, controller, dt):
    if controller == "spring":
        cfg = tmp_path / "spring.cfg"
        cfg.write_text(SPRING_CONFIG)
        source = ["--config", str(cfg)]
    else:
        source = ["--preset", f"physical-{controller}"]
    out = tmp_path / "out"
    argv = ["run", *source, "--hops", "1", "--out", str(out)]
    if dt is not None:
        argv += ["--dt", dt]
    assert main(argv) == 0
    digest = hashlib.sha256((out / "run.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN[(controller, dt)]


def reference_leg_terms(y_rel, geo):
    """The leg-terms formula as first written, kept verbatim as the oracle."""
    lo = abs(geo.L1 - geo.L2) + 1e-3
    hi = geo.L1 + geo.L2 - 1e-3
    y = min(max(y_rel, lo), hi)
    cos_gamma = (geo.L1**2 + geo.L2**2 - y * y) / (2.0 * geo.L1 * geo.L2)
    cos_gamma = min(1.0, max(-1.0, cos_gamma))
    gamma = math.acos(cos_gamma)
    theta_k = geo.knee_sign * (math.pi - gamma)
    sin_k = math.sin(theta_k)
    cos_k = -cos_gamma
    dy_dknee = -geo.L1 * geo.L2 * sin_k / y
    dhip_dknee = -geo.L2 * (geo.L2 + geo.L1 * cos_k) / (y * y)
    return theta_k, dy_dknee, dhip_dknee


def bits(values):
    return tuple(struct.pack("<d", v) for v in values)


links = st.floats(min_value=0.01, max_value=2.0)


@given(
    L1=links,
    L2=links,
    knee_sign=st.sampled_from([1, -1]),
    # well past both stops, so clamped lengths are drawn as often as free ones
    scale=st.floats(min_value=-0.5, max_value=1.5),
)
def test_leg_terms_bitwise_equal_to_reference(L1, L2, knee_sign, scale):
    geo = LegGeometry(L1=L1, L2=L2, knee_sign=knee_sign)
    lo, hi = abs(L1 - L2), L1 + L2
    y_rel = lo + scale * (hi - lo)
    assert bits(sim._leg_terms(y_rel, geo)) == bits(reference_leg_terms(y_rel, geo))


@pytest.mark.parametrize(
    "y_rel", [0.0, -1.0, 0.019, 0.020, 0.74, 10.0, math.inf, -math.inf, math.nan]
)
@pytest.mark.parametrize(
    "geo",
    [
        LegGeometry(),
        LegGeometry(L1=0.3, L2=0.45, knee_sign=-1),
        # a link shorter than the margin: the stops cross and the order of
        # the two caps decides the length
        LegGeometry(L1=0.0004, L2=0.3),
    ],
)
def test_leg_terms_bitwise_at_stops_and_limits(geo, y_rel):
    assert bits(sim._leg_terms(y_rel, geo)) == bits(reference_leg_terms(y_rel, geo))


def force_from_leg_terms(tau_h, tau_k, y_rel, geo):
    """The held task force as the plant first took it from the leg terms."""
    t = sim._leg_terms(y_rel, geo)
    return 0.0 if t[1] == 0.0 else (tau_k + tau_h * t[2]) / t[1]


# Links so long that the reach margin rounds away: the length caps at the
# straight leg, where dy_dknee is 0.
STRAIGHT_LEG = LegGeometry(L1=1e13, L2=1e13)


@pytest.mark.parametrize(
    ("tau_h", "tau_k"),
    [(0.0, 0.0), (-0.0, -0.0), (1.5, 2.5), (1.5, -2.5), (-3.0, 4.0), (-3.0, -4.0)],
)
@pytest.mark.parametrize(
    "geo",
    [
        LegGeometry(),
        LegGeometry(L1=0.3, L2=0.45, knee_sign=-1),
        LegGeometry(L1=0.0004, L2=0.3),
        STRAIGHT_LEG,
    ],
)
def test_held_force_law_bitwise_equal_to_leg_terms(geo, tau_h, tau_k):
    c = geo.constants
    lengths = [c.y_lo + k / 16 * (c.y_hi - c.y_lo) for k in range(17)] + [
        c.y_lo - 1.0, 0.5 * c.y_lo, 0.0, -0.0, 2.0 * c.y_hi, c.y_hi + 1.0,
        math.inf, -math.inf, math.nan,
    ]
    law = sim._held_force_law(geo)(tau_h, tau_k)
    for y_rel in lengths:
        assert bits([law(y_rel)]) == bits([force_from_leg_terms(tau_h, tau_k, y_rel, geo)]), y_rel


def test_held_force_law_covers_the_straight_leg():
    # the sweep above reaches dy_dknee == 0, where the force is 0.0
    assert sim._leg_terms(math.inf, STRAIGHT_LEG)[1] == 0.0
    assert bits([sim._held_force_law(STRAIGHT_LEG)(1.5, -2.5)(math.inf)]) == bits([0.0])


@given(
    L1=links,
    L2=links,
    knee_sign=st.sampled_from([1, -1]),
    scale=st.floats(min_value=-0.5, max_value=1.5),
    tau_h=st.floats(min_value=-50.0, max_value=50.0),
    tau_k=st.floats(min_value=-50.0, max_value=50.0),
)
def test_held_force_law_bitwise_equal_on_random_legs(L1, L2, knee_sign, scale, tau_h, tau_k):
    geo = LegGeometry(L1=L1, L2=L2, knee_sign=knee_sign)
    lo, hi = abs(L1 - L2), L1 + L2
    y_rel = lo + scale * (hi - lo)
    law = sim._held_force_law(geo)(tau_h, tau_k)
    assert bits([law(y_rel)]) == bits([force_from_leg_terms(tau_h, tau_k, y_rel, geo)])


# dt -> sha256 of repr(TwoMassReference(physical, dt).run(hops=3).events); the
# 1e-3 and 1e-4 digests were taken from the closure-and-_rk4 loop below
REFERENCE_EVENTS = {
    1e-3: "af28d1c1a890ba40cc3e191d5844db10a9ef99de761d71282cf7d72125fe6205",
    2.5e-4: "535db875de05bd3586e04ac153df21a36aa1fa452c144ad6a81f980a5878731a",
    1e-4: "4edd9c177123775cbde534b4ca3fcb6d8555080d7583412b57f7997afc5b28db",
    2.5e-5: "c58a9a63a2d429ef9d3dfe375088b3afb91d5b2e8dab2fabb7f5d991930b12af",
}


@pytest.mark.parametrize("dt", sorted(REFERENCE_EVENTS))
def test_reference_events_digest(physical, dt):
    events = sim.TwoMassReference(physical, dt).run(hops=3).events
    assert hashlib.sha256(repr(events).encode()).hexdigest() == REFERENCE_EVENTS[dt]


class LegacyTwoMassReference:
    """The two-mass reference's loop as first written, kept verbatim as the
    oracle: a closure per force and acceleration and an RK4 method, called
    five times a step, with the pin force evaluated at both ends of a stance
    step and the rest of an event's step integrated inside its branch."""

    def __init__(self, p, dt=2.5e-4):
        self.p = p
        self.dt = dt
        self.y_lift = p.m_e * p.g / p.k_s + p.y_s_neu
        weight_e, k_s, y_neu = p.m_e * p.g, p.k_s, p.y_s_neu
        w_stance, w_flight = k_s / p.m, k_s / (p.m * p.m_e / (p.m + p.m_e))
        self._pin = lambda y: weight_e - k_s * (y - y_neu)
        self._acc_stance = lambda y: -w_stance * (y - y_neu)
        self._acc_flight = lambda y: -w_flight * (y - y_neu)

    def _rk4(self, y, v, dt, acc):
        a1 = acc(y)
        y2, v2 = y + 0.5 * dt * v, v + 0.5 * dt * a1
        a2 = acc(y2)
        y3, v3 = y + 0.5 * dt * v2, v + 0.5 * dt * a2
        a3 = acc(y3)
        y4, v4 = y + dt * v3, v + dt * a3
        a4 = acc(y4)
        return (
            y + dt / 6.0 * (v + 2.0 * v2 + 2.0 * v3 + v4),
            v + dt / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
        )

    def run(self, hops=2):
        p = self.p
        t_max = (hops + 1) * 4.0 * (analytic.hop_period(p))
        t = 0.0
        y = p.y_s_neu - analytic.stance_amplitude(p)
        v = 0.0
        phase = model.HopPhase.STANCE
        events = []
        lifts = 0
        while t < t_max and lifts < hops + 1:
            if phase is model.HopPhase.STANCE:
                ny, nv = self._rk4(y, v, self.dt, self._acc_stance)
                f0, f1 = self._pin(y), self._pin(ny)
                if f0 > 0.0 >= f1:
                    frac = f0 / (f0 - f1)
                    t_ev = t + frac * self.dt
                    y_ev = y + frac * (ny - y)
                    v_ev = v + frac * (nv - v)
                    events.append(sim.Event("lift", t_ev, y_ev, v_ev))
                    lifts += 1
                    # finish the substep in flight
                    y, v = self._rk4(y_ev, v_ev, self.dt - frac * self.dt, self._acc_flight)
                    phase = model.HopPhase.FLIGHT
                    t += self.dt
                    continue
            else:
                ny, nv = self._rk4(y, v, self.dt, self._acc_flight)
                # Landing: the leg re-extends through the lift-off length.
                if y < self.y_lift <= ny and nv > 0.0:
                    frac = (self.y_lift - y) / (ny - y)
                    t_ev = t + frac * self.dt
                    v_ev = v + frac * (nv - v)
                    events.append(sim.Event("landing", t_ev, self.y_lift, v_ev))
                    # Mirrored descent: the body re-enters stance moving down.
                    y_ev, v_ev = self.y_lift, -abs(v_ev)
                    y, v = self._rk4(y_ev, v_ev, self.dt - frac * self.dt, self._acc_stance)
                    phase = model.HopPhase.STANCE
                    t += self.dt
                    continue
            y, v = ny, nv
            t += self.dt
        return sim.ReferenceResult(events)


def event_bits(events):
    return [(e.kind, bits([e.t, e.y_body, e.v_body])) for e in events]


@settings(max_examples=40, deadline=None)
@given(
    m=st.floats(min_value=2.0, max_value=10.0),
    m_e=st.floats(min_value=0.2, max_value=1.5),
    k_s=st.floats(min_value=800.0, max_value=4000.0),
    y_s_neu=st.floats(min_value=0.3, max_value=0.6),
    C_amp=st.floats(min_value=0.03, max_value=0.2),
    dt=st.floats(min_value=1e-5, max_value=1e-3),
    hops=st.integers(min_value=1, max_value=4),
)
@example(m=5.6, m_e=0.8, k_s=1700.0, y_s_neu=0.45, C_amp=0.12, dt=1e-5, hops=4)
def test_reference_events_bitwise_equal_to_legacy_loop(m, m_e, k_s, y_s_neu, C_amp, dt, hops):
    p = HopperParams(m=m, m_e=m_e, k_s=k_s, y_s_neu=y_s_neu, C_amp=C_amp)
    events = sim.TwoMassReference(p, dt).run(hops).events
    # Every run ends on its last lift: the legacy loop integrates the rest of
    # that lift's step, the one loop stops before it.
    assert [e.kind for e in events] == ["lift", "landing"] * hops + ["lift"]
    assert event_bits(events) == event_bits(LegacyTwoMassReference(p, dt).run(hops).events)


def legacy_crossing(phase, prev_pin, next_pin, prev_yf, next_yf, prev_vf, next_vf):
    """The plant's event location as first written, a function of its own
    that returned ("lift" or "landing", fraction) or None; kept verbatim as
    the oracle, with the module's names qualified."""
    if phase is model.HopPhase.STANCE:
        if prev_pin > 0.0 and next_pin <= 0.0:
            return "lift", prev_pin / (prev_pin - next_pin)
        if prev_pin <= 0.0 and next_pin <= 0.0:
            return "lift", 0.0
        return None
    if prev_yf > sim.CONTACT_EPSILON and next_yf <= sim.CONTACT_EPSILON:
        frac = prev_yf / (prev_yf - next_yf) if prev_yf != next_yf else 0.0
        v_at = prev_vf + frac * (next_vf - prev_vf)
        if v_at < 0.0:
            return "landing", frac
    elif prev_yf <= sim.CONTACT_EPSILON and next_vf < 0.0:
        # Foot at or below contact level being driven down (a lift that was
        # immediately reversed): re-pin right away.
        return "landing", 0.0
    return None


def legacy_advance_tick(state, t, cmd, force_law, held_law, dt_sub, n_sub, p, geo, log):
    """The plant tick as it called :func:`legacy_crossing`, behind a guard
    that repeated its conditions; kept verbatim as the oracle, with the
    module's names qualified, the held law bound per run, as the plant's
    is (``held_law`` is ``sim._held_force_law(geo)``), and the clock taken
    and returned beside the state, as the plant does."""
    tau_h, tau_k = cmd.hip.tau_des, cmd.knee.tau_des
    law = held_law(tau_h, tau_k) if force_law is None else force_law
    terms = state.terms if force_law is None else None

    phase = state.phase
    yb, vb, yf, vf = state.y_body, state.v_body, state.y_foot, state.v_foot
    lo, hi = geo.constants.y_lo, geo.constants.y_hi
    inv_m, inv_me, g = 1.0 / p.m, 1.0 / p.m_e, p.g
    isfinite, STANCE = math.isfinite, model.HopPhase.STANCE
    weight_e = p.m_e * p.g  # stance pin force = foot weight + task force
    f = (law(yb - yf) if terms is None
         else 0.0 if terms[1] == 0.0 else (tau_k + tau_h * terms[2]) / terms[1])

    for _ in range(n_sub):
        dt_left = dt_sub
        events_seen = 0
        while dt_left > 0.0:
            if phase is STANCE:
                nyb, nvb = sim._rk4_stance(yb, vb, f, dt_left, inv_m, g, law)
                nyf, nvf = yf, vf
            else:
                nyb, nvb, nyf, nvf = sim._rk4_flight(yb, vb, yf, vf, f, dt_left, inv_m, inv_me, g, law)
            if not lo <= nyb - nyf <= hi:  # a stance foot is exactly 0.0
                nyb, nvb, nyf, nvf = sim._apply_leg_stops(phase, nyb, nvb, nyf, nvf, p, geo)
            if not (isfinite(nyb) and isfinite(nvb) and isfinite(nyf) and isfinite(nvf)):
                raise SimulationAbort(f"non-finite state at t={t + dt_left:.6f}")
            nf = law(nyb - nyf)
            tr = None
            if events_seen < sim._MAX_EVENTS_PER_STEP and (
                weight_e + nf <= 0.0 if phase is STANCE
                else nyf <= sim.CONTACT_EPSILON or yf <= sim.CONTACT_EPSILON
            ):
                # _crossing reads the pin forces only in stance.
                tr = legacy_crossing(phase, weight_e + f, weight_e + nf, yf, nyf, vf, nvf)
            if tr is None:
                yb, vb, yf, vf, f = nyb, nvb, nyf, nvf, nf
                t += dt_left
                break
            # Interpolate the state to the event time, switch phase, and
            # integrate the remainder of the substep in the new phase.  A
            # chattering contact is capped per substep; the remainder is then
            # integrated without further event checks.
            events_seen += 1
            kind, frac = tr
            t_ev = t + frac * dt_left
            yb, vb = yb + frac * (nyb - yb), vb + frac * (nvb - vb)
            if kind == "landing":
                yf, vf = 0.0, 0.0  # plastic contact: foot kinetic energy lost
                phase = model.HopPhase.STANCE
            else:
                yf, vf = yf + frac * (nyf - yf), vf + frac * (nvf - vf)
                phase = model.HopPhase.FLIGHT
            log.events.append(sim.Event(kind, t_ev, yb, vb))
            dt_left -= frac * dt_left
            t = t_ev
            f = law(yb - yf)

    terms = sim._leg_terms(yb - yf, geo)
    return sim.SimState(phase, yb, vb, yf, vf, *sim._joints_from(terms, vb - vf, geo), terms), t


PHYSICAL = model.validate(model.physics_preset("physical"))
HELD_LAW = sim._held_force_law(PHYSICAL.geometry)
_EPS = sim.CONTACT_EPSILON
_WEIGHT_E = PHYSICAL.params.m_e * PHYSICAL.params.g  # a stance pin force of 0.0 needs -_WEIGHT_E
# foot heights and rates at the event conditions' edges, NaN among them
FEET = st.sampled_from(
    [0.0, -0.0, _EPS, -_EPS, math.nextafter(_EPS, 0.0), math.nextafter(_EPS, 1.0), math.nan]
) | st.floats(min_value=-0.01, max_value=0.01)
RATES = st.sampled_from([0.0, -0.0, math.nan]) | st.floats(min_value=-5.0, max_value=5.0)
# None (the held torques' law) or the continuous law a + b*y_rel
LAWS = st.none() | st.tuples(
    st.sampled_from([-_WEIGHT_E, 0.0, math.nan]) | st.floats(min_value=-200.0, max_value=200.0),
    st.sampled_from([0.0, -2000.0]) | st.floats(min_value=-5000.0, max_value=5000.0),
)


def tick_outcome(advance, state, cmd, law, dt, n_sub):
    """The events, end state and end time of one plant tick from time 0,
    every float as its bytes, or the abort it raised."""
    log = sim.TelemetryLog()
    try:
        end, t = advance(
            state, 0.0, cmd, law, HELD_LAW, dt, n_sub, PHYSICAL.params, PHYSICAL.geometry, log
        )
    except SimulationAbort as exc:
        return "abort", str(exc)
    return event_bits(log.events), end.phase, bits((t, *state_floats(end)))


def state_floats(state):
    """Every float of a plant state, in field order."""
    return (
        state.y_body, state.v_body, state.y_foot, state.v_foot, state.theta_hip,
        state.theta_knee, state.thetad_hip, state.thetad_knee, *state.terms,
    )


def drawn_tick(phase, y_rel, y_foot, v_body, v_foot, torques, law):
    """The start state, held command and continuous law (or None) of a drawn tick."""
    state = make_state(phase, y_foot + y_rel, v_body, y_foot, v_foot, PHYSICAL.geometry)
    tau_h, tau_k = torques
    cmd = control.JointCommands(
        control.TorqueCommand(tau_h, 35.0, tau_h), control.TorqueCommand(tau_k, 35.0, tau_k)
    )
    return state, cmd, None if law is None else (lambda y, a=law[0], b=law[1]: a + b * y)


# one plant tick's inputs: a state, held torques or a continuous law, dt, n_sub
TICKS = dict(
    phase=st.sampled_from(model.HopPhase),
    y_rel=st.floats(min_value=0.0, max_value=0.8),  # both leg stops and past them
    y_foot=FEET,
    v_body=RATES,
    v_foot=RATES,
    torques=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
    law=LAWS,
    dt=st.sampled_from([2.5e-4, 2.5e-5]) | st.floats(min_value=1e-26, max_value=1e-3),
    n_sub=st.integers(min_value=1, max_value=4),
)


@settings(max_examples=400, deadline=None)
@given(**TICKS)
# a foot one ulp above contact height ends its substep exactly on it
@example(
    phase=model.HopPhase.FLIGHT, y_rel=0.45, y_foot=math.nextafter(_EPS, 1.0), v_body=-1.0,
    v_foot=-1.0, torques=(0.0, 0.0), law=None, dt=1.1e-25, n_sub=1,
)
# a stance pin force of exactly 0.0 at both ends of the substep
@example(
    phase=model.HopPhase.STANCE, y_rel=0.45, y_foot=0.0, v_body=0.0, v_foot=0.0,
    torques=(0.0, 0.0), law=(-_WEIGHT_E, 0.0), dt=2.5e-4, n_sub=2,
)
def test_plant_tick_bitwise_equal_to_legacy_crossing(
    phase, y_rel, y_foot, v_body, v_foot, torques, law, dt, n_sub
):
    state, cmd, force_law = drawn_tick(phase, y_rel, y_foot, v_body, v_foot, torques, law)
    assert tick_outcome(sim._advance_tick, state, cmd, force_law, dt, n_sub) == tick_outcome(
        legacy_advance_tick, state, cmd, force_law, dt, n_sub
    )


@settings(max_examples=300, deadline=None)
@given(**TICKS, t0=st.floats(min_value=0.0, max_value=30.0))
def test_plant_tick_does_not_read_the_time(
    phase, y_rel, y_foot, v_body, v_foot, torques, law, dt, n_sub, t0
):
    # sim.run replays a cycle because of this: one state and command give one
    # end state and one sequence of events, whenever the tick starts
    state, cmd, force_law = drawn_tick(phase, y_rel, y_foot, v_body, v_foot, torques, law)
    outcomes = []
    for t in (0.0, t0):
        log = sim.TelemetryLog()
        try:
            end, _ = sim._advance_tick(
                state, t, cmd, force_law, HELD_LAW, dt, n_sub, PHYSICAL.params,
                PHYSICAL.geometry, log,
            )
            outcome = end.phase, bits(state_floats(end))
        except SimulationAbort:
            outcome = "abort"  # its message gives the time
        outcomes.append((outcome, [(e.kind, bits((e.y_body, e.v_body))) for e in log.events]))
    assert outcomes[0] == outcomes[1]


# path under --out -> sha256 of each file that
# `hopsim compare --preset physical-force --preset physical-position --hops 1 --plots` writes
COMPARE_GOLDEN = {
    "a-force/aor.svg": "625dbf2f524af0ecf320be56b7a9ec42da90ba90d7b60891d1c379ed30e853a0",
    "a-force/foot.svg": "2c40468369b20953576553e144900febc78a6d17365ac57fa82115fb0679e157",
    "a-force/run.csv": "e77a3777cdff9431a95a58c0143edcfcdbf82710542e62d6b9e7176864059e87",
    "a-force/status.txt": "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22",
    "a-force/summary.csv": "f5ef972bd820cbd48ecd0b7e25916754d893776d25884ba359f8b7e41a4a320a",
    "b-position/aor.svg": "ca1a5ae7a543a135f2452ec50ac96a106bd4fffa8388edbc99bcef88ef6b5648",
    "b-position/foot.svg": "918cbc1fcbbd93fba8959b5cad073f2e2672dc3726097e02adeccd1958d7e0e5",
    "b-position/run.csv": "087cef4c19cb9c2623980fec8163bf37f0bf2a73c10aa6e097b51c672b3b97c1",
    "b-position/status.txt": "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22",
    "b-position/summary.csv": "0dd9b462e04972f12eb16a06a81df711e534e1eb6b546f57d53d5cbd8561074f",
    "c_act.svg": "d5c76a8dc17865bdc1a76f4df6e629f86bceb743d97d3cdc328a41f8fee657f5",
    "compare.csv": "bb10f6b4544b6d97f8467a103cdad300ead237aaf86e5e3cbb3d458b359ba4a9",
    "compare.txt": "8e4fa068ccfff9c91bba7ed659d0ce3b63c3f11eb97b370c37cd24b7f23ae8b7",
    "foot_height.svg": "b54961299778169b5dcc02f55cec1e5c294f2aeeda30f890a447a15b97c9a2ea",
    "trace_aor.svg": "bee8eaaf9fce87f10814cd89721595df3d0f75472d497918a3951032c974201c",
}


def test_compare_output_digests(tmp_path):
    out = tmp_path / "cmp"
    argv = [
        "compare", "--preset", "physical-force", "--preset", "physical-position",
        "--hops", "1", "--plots", "--out", str(out),
    ]
    assert main(argv) == 0
    assert tree_digests(out) == COMPARE_GOLDEN


def tree_digests(out):
    """Path under ``out`` -> sha256 of every file written there."""
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.rglob("*")
        if path.is_file()
    }


# The config file that "{cfg}" names below: only side b of that compare plots.
PLOTTING_B_CONFIG = "[run]\npreset = physical-position\nplots = true\n"

# argv before --out -> path under --out -> sha256 of each file written, for
# the other subcommands, a compare whose side a aborts (paper-literal-force
# never reaches its trajectory) and a compare where only one side plots
CLI_GOLDEN = {
    "traj --preset physical-force --plots": {
        "traj.csv": "dd7341aa811ded2046d2114c3a1dc4461370ba0bb72c20fc639712b4f9794016",
        "traj.svg": "ad1f1a235938eb6849a4aa5a6ca100c8f005a3af0fa6e694a25a7ab261de515a",
    },
    "aor --preset physical-force --plots": {
        "aor.csv": "6a1e95af12493d5d2623c8330dc27645be9f07588d76b8e8a7e7f6a9ecf56257",
        "aor.svg": "1c637b031eb759a55fa8455d300f4a34b66626a9239be9358fa340c528759790",
    },
    "run --preset physical-position --hops 2 --plots": {
        "aor.svg": "9e6b4b3d383ef3dddc21e144a925c7ffe902335916e0ecfe6a21e7b90dcbb042",
        "foot.svg": "9aa84a001798e1c684dee88a62f1e0c245513d774e92d2afddf7e367721a7e88",
        "run.csv": "643bb41e4415272592243c7491919be3b813537d22d59d16ac16f7b053e66231",
        "status.txt": "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22",
        "summary.csv": "d724e8706a37f84a6c41cf434a52aa329db6aedae4c39fc503b99fceea07e1f7",
    },
    "compare --preset paper-literal-force --preset physical-force --hops 1 --plots": {
        "a-force/aor.svg": "8d9a60a4d5747d75797b00c49910addd04e616d5de531c2f0e7e9b6236a1b109",
        "a-force/foot.svg": "63b715fc7857b36d673565fce24cdb325dce8a9c4fa1e045969933af40950f15",
        "a-force/run.csv": "b03a7b356c259aff3f479f999a058c1fcb074cde488b06bc04cd9dd50d2e113b",
        "a-force/status.txt": "95d57124742dd3ddd5123f2b4c0c8cb23b3f61e6f7d1f706bc18ed036ac8944b",
        "a-force/summary.csv": "c89006ecb4f2e9de9e835b2564c46f7049945238ed9cdb943a1d1b0730432ab8",
        "b-force/aor.svg": "625dbf2f524af0ecf320be56b7a9ec42da90ba90d7b60891d1c379ed30e853a0",
        "b-force/foot.svg": "2c40468369b20953576553e144900febc78a6d17365ac57fa82115fb0679e157",
        "b-force/run.csv": "e77a3777cdff9431a95a58c0143edcfcdbf82710542e62d6b9e7176864059e87",
        "b-force/status.txt": "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22",
        "b-force/summary.csv": "f5ef972bd820cbd48ecd0b7e25916754d893776d25884ba359f8b7e41a4a320a",
        "c_act.svg": "310fbcc29f576fd13ee1d64a1e3296f8ec3c7e66e77126b9ffb68a7f4088371d",
        "compare.csv": "96cc36b70ae93da0a208b97e62a87f4161a87bf2da4402dee8b54688b8a935d8",
        "compare.txt": "f83810c8fb7a10ca40de1e8fa32aef0d595eab52a3056d43684fcd32bccebf0b",
        "foot_height.svg": "274573c3db9af0b2dc55f30c8066f4ff0c143aaf6c3df998d5ec2134fda763da",
        "trace_aor.svg": "02c32c866c0ac6bf516b277ebe0a850753baa4678b45238bec2d36e1a4d3e065",
    },
    "compare --preset physical-force --config {cfg} --hops 1": {
        "a-force/run.csv": "e77a3777cdff9431a95a58c0143edcfcdbf82710542e62d6b9e7176864059e87",
        "a-force/status.txt": "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22",
        "a-force/summary.csv": "f5ef972bd820cbd48ecd0b7e25916754d893776d25884ba359f8b7e41a4a320a",
        "b-position/aor.svg": "ca1a5ae7a543a135f2452ec50ac96a106bd4fffa8388edbc99bcef88ef6b5648",
        "b-position/foot.svg": "918cbc1fcbbd93fba8959b5cad073f2e2672dc3726097e02adeccd1958d7e0e5",
        "b-position/run.csv": "087cef4c19cb9c2623980fec8163bf37f0bf2a73c10aa6e097b51c672b3b97c1",
        "b-position/status.txt": "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22",
        "b-position/summary.csv": "0dd9b462e04972f12eb16a06a81df711e534e1eb6b546f57d53d5cbd8561074f",
        "c_act.svg": "d5c76a8dc17865bdc1a76f4df6e629f86bceb743d97d3cdc328a41f8fee657f5",
        "compare.csv": "bb10f6b4544b6d97f8467a103cdad300ead237aaf86e5e3cbb3d458b359ba4a9",
        "compare.txt": "8e4fa068ccfff9c91bba7ed659d0ce3b63c3f11eb97b370c37cd24b7f23ae8b7",
        "foot_height.svg": "b54961299778169b5dcc02f55cec1e5c294f2aeeda30f890a447a15b97c9a2ea",
        "trace_aor.svg": "bee8eaaf9fce87f10814cd89721595df3d0f75472d497918a3951032c974201c",
    },
}


@pytest.mark.parametrize("command", sorted(CLI_GOLDEN))
def test_cli_output_digests(tmp_path, capsys, command):
    cfg = tmp_path / "b.cfg"
    cfg.write_text(PLOTTING_B_CONFIG)
    out = tmp_path / "out"
    argv = [str(cfg) if arg == "{cfg}" else arg for arg in command.split()]
    assert main([*argv, "--out", str(out)]) == 0
    assert tree_digests(out) == CLI_GOLDEN[command]
    # compare prints its report; the other subcommands print nothing
    report = out / "compare.txt"
    assert capsys.readouterr().out == (report.read_text() if report.exists() else "")


# config file text -> sha256 of RunConfig.to_text() of the parsed config
TO_TEXT_GOLDEN = {
    "[run]\npreset = paper-literal-force\n": "17cac3d6d5bc5a94ea7d9514e3cf3fffe6608bed960925d64b3204f55a1b23fa",
    "[run]\npreset = paper-literal-position\n": "8a8df147e9920c7c5d687143ff7d26f99307cb8153f94ed6c028f0937ad453a7",
    "[run]\npreset = physical-force\n": "0edf48e9aaa3979fa041a1f494d016ff15a81fa827b626e3474866d7b35755d3",
    "[run]\npreset = physical-position\n": "b5792c097b4eda1d7565ebd72763e7e56cc1e0d61d286489d5c5732c8f21cc64",
    "[run]\nduration = 0.5\nout = o\n[hopper]\nm = 3.0\n[gains]\nk_d = 2\n": (
        "9ab1affc9e842fe8da66f040528202eddd52fa5cd7b232d5429a5c0fbedeb277"
    ),
}


@pytest.mark.parametrize("text", sorted(TO_TEXT_GOLDEN))
def test_to_text_digest(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    digest = hashlib.sha256(parse_config(path).to_text().encode()).hexdigest()
    assert digest == TO_TEXT_GOLDEN[text]


# --- AOR lookup ---------------------------------------------------------------


def reference_torque_at(curve, speed):
    """AorCurve.torque_at as first written (a linear scan), kept as the oracle."""
    s = abs(speed)
    pts = curve.points
    if s >= pts[-1][0]:
        return 0.0
    for (s0, t0), (s1, t1) in zip(pts, pts[1:]):
        if s <= s1:
            if s1 == s0:
                return t1
            u = (s - s0) / (s1 - s0)
            return t0 + u * (t1 - t0)
    return 0.0


LIMIT_SPEEDS = [0.0, -0.0, -1.0, math.inf, -math.inf, math.nan]

# a few round speeds drawn into both the curves and the queries, so repeated
# breakpoints (the s1 == s0 branch) and exact hits come up often
ROUND_SPEEDS = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5])


@st.composite
def curve_and_speed(draw):
    speeds = sorted(
        draw(st.lists(st.floats(-1.0, 10.0) | ROUND_SPEEDS, min_size=2, max_size=10))
    )
    torques = draw(
        st.lists(st.floats(-100.0, 100.0), min_size=len(speeds), max_size=len(speeds))
    )
    curve = AorCurve(tuple(zip(speeds, torques)))
    speed = draw(
        st.sampled_from(speeds)
        | st.sampled_from(speeds).map(lambda v: -v)
        | st.sampled_from(LIMIT_SPEEDS)
        | ROUND_SPEEDS
        | st.floats(allow_nan=True, allow_infinity=True)
        | st.floats(-12.0, 12.0)
    )
    return curve, speed


@given(curve_and_speed())
def test_torque_at_bitwise_equal_to_linear_scan(case):
    curve, speed = case
    assert bits([curve.torque_at(speed)]) == bits([reference_torque_at(curve, speed)])


AOR_256 = aor_curve(MotorParams(), 256)


@pytest.mark.parametrize(
    "curve",
    [
        AOR_256,
        aor_curve(MotorParams(), 2),
        # repeated speeds at the start and inside the curve
        AorCurve(((0.0, 3.0), (0.0, 2.0), (1.0, 1.0), (1.0, 0.5), (2.0, 0.0))),
    ],
    ids=["n256", "n2", "repeated"],
)
def test_torque_at_bitwise_at_breakpoints_and_limits(curve):
    speeds = [s for s, _ in curve.points]
    mids = [0.5 * (a + b) for a, b in zip(speeds, speeds[1:])]
    queries = speeds + [-s for s in speeds] + mids + LIMIT_SPEEDS + [2.0 * speeds[-1]]
    for speed in queries:
        assert bits([curve.torque_at(speed)]) == bits([reference_torque_at(curve, speed)]), speed


# --- CSV rows -----------------------------------------------------------------


CSV_NUMBERS = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 1e-320, 5e-324])
    | st.integers(-(10**20), 10**20)
)


@st.composite
def records(draw):
    values = [draw(CSV_NUMBERS) for _ in sim.Record._fields]
    values[1] = draw(st.sampled_from(["stance", "flight"]))
    return sim.Record(*values)


@given(st.lists(records(), max_size=5))
def test_to_csv_equal_to_per_field_join(rows):
    log = sim.TelemetryLog(records=rows)
    assert "".join(log.to_csv()) == reference_to_csv(log)


def test_to_csv_equal_to_per_field_join_on_a_run(force_run_1hop):
    log = force_run_1hop.log
    assert "".join(log.to_csv()) == reference_to_csv(log)


CHUNK = sim._CSV_CHUNK_ROWS
CSV_SPECIALS = (math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e-310, 0.1, -1e300, 7)


def special_records(n):
    """``n`` records whose numbers cycle through inf, NaN, -0.0 and subnormals."""
    width = len(sim.Record._fields)
    rows = []
    for i in range(n):
        values = [CSV_SPECIALS[(i * width + j) % len(CSV_SPECIALS)] for j in range(width)]
        values[1] = "stance" if i % 2 else "flight"
        rows.append(sim.Record(*values))
    return rows


@pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_streamed_csv_equal_to_per_field_join_at_chunk_edges(n):
    log = sim.TelemetryLog(records=special_records(n))
    chunks = list(log.to_csv())
    assert "".join(chunks) == reference_to_csv(log)
    assert chunks[0] == log.csv_header() + "\n"
    assert len(chunks) == 1 + math.ceil(n / CHUNK)


@pytest.mark.parametrize("duration", [3.0, 6.0])
def test_writing_run_csv_holds_one_chunk_not_the_log(tmp_path, bundle_physical, duration):
    # 12k and 24k rows; a whole-log string took 7.56 and 14.99 MB here
    log = sim.run(sim.RunSetup(bundle=bundle_physical, controller="position", duration=duration)).log
    target = tmp_path / "run.csv"
    tracemalloc.start()
    try:
        cli.write_atomic(target, log.to_csv())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6, peak
    with open(target) as f:
        assert sum(1 for _ in f) == len(log.records) + 1


def test_stream_that_raises_leaves_no_file(tmp_path):
    def chunks():
        yield "x" * 100_000  # more than the file buffer: the temp file has data
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError, match="formatting failed"):
        cli.write_atomic(tmp_path / "run.csv", chunks())
    assert os.listdir(tmp_path) == []


def counted_forks(monkeypatch, cpus=2):
    """Count the ``os.fork`` calls made on a host that shows ``cpus`` usable
    CPUs; each call fails, so none starts a process."""
    forks = []

    def fork():
        forks.append(1)
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "fork", fork)
    return forks


def assert_no_child_and_no_new_fd(fds_before):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == fds_before


def replayed_log(n, start, stop):
    """An ``n``-row log whose rows from ``stop`` on copy the cycle
    ``start:stop`` at new times, as ``sim.run`` copies them."""
    rows = special_records(stop)
    for k in range(stop, n):
        rows.append(sim.Record(1.5 * k + 0.1, *rows[start + (k - stop) % (stop - start)][1:]))
    log = sim.TelemetryLog(records=rows)
    log.cycle = (start, stop)
    return log


# cycles that start and stop on either side of a block edge, and one-row cycles
@pytest.mark.parametrize(
    ("start", "stop"),
    [(0, CHUNK - 1), (0, CHUNK), (0, CHUNK + 1), (CHUNK - 1, CHUNK), (CHUNK - 1, CHUNK + 1),
     (CHUNK, CHUNK + 1), (0, 1), (CHUNK + 1, CHUNK + 2)],
)
@pytest.mark.parametrize("copies", [1, 2 * CHUNK + 3])
def test_replayed_csv_equal_to_per_field_join(start, stop, copies):
    log = replayed_log(stop + copies, start, stop)
    chunks = list(log.to_csv())
    lines = "".join(chunks).splitlines(keepends=True)
    assert lines == reference_to_csv(log).splitlines(keepends=True)
    assert len(chunks) == 1 + math.ceil(len(log.records) / CHUNK)


def test_compare_starts_no_process(tmp_path, monkeypatch):
    # both sides' logs are long enough that run.csv was once formatted by
    # forked helpers on a host with a second usable CPU
    forks = counted_forks(monkeypatch)
    argv = ["compare", "--preset", "physical-force", "--preset", "physical-position",
            "--hops", "10", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert forks == []


class ReprFails(float):
    def __repr__(self):
        raise ValueError("no repr")


@pytest.mark.parametrize("row", [0, 2 * CHUNK], ids=["first", "last"])
def test_failing_helper_leaves_no_file_and_no_helper(monkeypatch, tmp_path, row):
    # A row whose repr raises stops the write: no file, no process, no open fd.
    fds = len(os.listdir("/proc/self/fd"))
    forks = counted_forks(monkeypatch)
    rows = special_records(2 * CHUNK + 1)
    rows[row] = rows[row]._replace(y_body=ReprFails(1.0))
    with pytest.raises(ValueError, match="no repr"):
        cli.write_atomic(tmp_path / "run.csv", sim.TelemetryLog(records=rows).to_csv())
    assert forks == []
    assert os.listdir(tmp_path) == []
    assert_no_child_and_no_new_fd(fds)


@pytest.mark.parametrize("cpus", [2, 3])
def test_writing_forked_csv_holds_one_read_not_the_log(tmp_path, monkeypatch, cpus):
    # Named for the forked writer it first bounded: a 12 001-row log with
    # no cycle is now formatted in this process, whatever the CPU count.
    forks = counted_forks(monkeypatch, cpus)
    log = sim.TelemetryLog(records=special_records(12_001))
    target = tmp_path / "run.csv"
    tracemalloc.start()
    try:
        cli.write_atomic(target, log.to_csv())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forks == []
    assert peak < 0.5e6, peak
    lines = target.read_text().splitlines(keepends=True)
    assert lines == reference_to_csv(log).splitlines(keepends=True)


# --- SVG polyline -------------------------------------------------------------


def reference_line_plot(series, title="", xlabel="", ylabel="", width=640, height=420):
    """svg.line_plot as it was before each polyline point was formatted once,
    kept verbatim (it formatted ``_fmt(tx(x))`` and ``_fmt(ty(y))`` apart)."""
    _fmt, _ticks, _tick_label = svg._fmt, svg._ticks, svg._tick_label
    PALETTE = svg.PALETTE
    ml, mr, mt, mb = 62, 16, 30, 46
    pw, ph = width - ml - mr, height - mt - mb

    xs = [x for s in series for x, _ in s.points]
    ys = [y for s in series for _, y in s.points]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    padx = 0.02 * (x1 - x0)
    pady = 0.05 * (y1 - y0)
    x0, x1 = x0 - padx, x1 + padx
    y0, y1 = y0 - pady, y1 + pady

    def tx(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def ty(y):
        return mt + ph - (y - y0) / (y1 - y0) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    if title:
        out.append(
            f'<text x="{width / 2:.0f}" y="18" text-anchor="middle" font-size="13">{title}</text>'
        )
    for t in _ticks(x0 + padx, x1 - padx):
        px = tx(t)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{mt + ph}" x2="{_fmt(px)}" y2="{mt + ph + 4}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{mt + ph + 16}" text-anchor="middle">{_tick_label(t)}</text>'
        )
    for t in _ticks(y0 + pady, y1 - pady):
        py = ty(t)
        out.append(
            f'<line x1="{ml - 4}" y1="{_fmt(py)}" x2="{ml}" y2="{_fmt(py)}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{ml - 6}" y="{_fmt(py + 3.5)}" text-anchor="end">{_tick_label(t)}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{ml + pw / 2:.0f}" y="{height - 8}" text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="14" y="{mt + ph / 2:.0f}" text-anchor="middle" '
            f'transform="rotate(-90 14 {mt + ph / 2:.0f})">{ylabel}</text>'
        )

    for i, s in enumerate(series):
        color = s.color or PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{_fmt(tx(x))},{_fmt(ty(y))}" for x, y in s.points)
        dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.4"{dash}/>'
        )
        ly = mt + 14 + 14 * i
        out.append(
            f'<line x1="{ml + pw - 110}" y1="{ly - 4}" x2="{ml + pw - 90}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.4"{dash}/>'
        )
        out.append(f'<text x="{ml + pw - 85}" y="{ly}">{s.label}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


PLOT_COORDS = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1e-300]) | st.integers(-50, 50)
PLOT_SERIES = st.lists(
    st.builds(
        svg.Series,
        points=st.lists(st.tuples(PLOT_COORDS, PLOT_COORDS), max_size=12).map(tuple),
        label=st.just("s"),
        dash=st.sampled_from([None, "6,3"]),
    ),
    max_size=3,
)


@given(PLOT_SERIES)
def test_line_plot_equal_to_per_coordinate_format(series):
    assert svg.line_plot(series) == reference_line_plot(series)


def test_line_plot_of_a_one_ulp_range_returns():
    # the y tick step is under half an ulp of 1e6, so adding it to a tick
    # leaves the tick unchanged; a child process turns a hang into a timeout
    code = (
        "import math; from hopsim import svg; svg.line_plot("
        "[svg.Series(((0.0, 1e6), (1.0, math.nextafter(1e6, 2e6))), 's')])"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(svg.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_line_plot_equal_to_per_coordinate_format_on_a_run(force_run_1hop):
    log = force_run_1hop.log
    series = [
        svg.Series(AOR_256.mirrored(), "AOR", color="#333333", dash="6,3"),
        svg.Series(tuple((r.thetad_knee, abs(r.tau_des_knee)) for r in log.records), "force"),
        svg.Series(tuple((r.t, r.y_foot) for r in log.records), "foot"),
    ]
    kwargs = dict(title="t", xlabel="x", ylabel="y")
    assert svg.line_plot(series, **kwargs) == reference_line_plot(series, **kwargs)


def outcome(fn, *args):
    """A call's float results as bits, or the error it raised."""
    try:
        result = fn(*args)
    except UnreachableLengthError as exc:
        return "raise", UnreachableLengthError, bits([exc.y, exc.lo, exc.hi])
    except ArithmeticError as exc:
        return "raise", type(exc)
    if isinstance(result, LegJacobian):
        return bits([result.dy_dhip, result.dy_dknee, result.dhip_dknee]), result.singular
    if isinstance(result, tuple):
        return bits(result)
    return bits([result])


# --- trajectory cycle ---------------------------------------------------------


def reference_leg_length(cycle, t):
    """TrajectoryCycle.leg_length as first written, kept as the oracle."""
    t = t % cycle.period
    if t < cycle.t_lo:
        return analytic.stance_position(t, cycle.params)
    if t <= cycle.touchdown_time:
        return analytic.flight_leg_length(t - cycle.t_lo, cycle.params, cycle.lift)
    return analytic.stance_position(cycle.period - t, cycle.params)


def reference_leg_velocity(cycle, t):
    """TrajectoryCycle.leg_velocity as first written, kept as the oracle."""
    t = t % cycle.period
    if t < cycle.t_lo:
        return analytic.stance_velocity(t, cycle.params)
    if t <= cycle.touchdown_time:
        return analytic.flight_leg_velocity(t - cycle.t_lo, cycle.params, cycle.lift)
    return -analytic.stance_velocity(cycle.period - t, cycle.params)


def reference_y_des(cycle, t):
    """TrajectoryCycle.y_des over the oracle leg length."""
    return analytic.compensation(
        t % cycle.period, cycle.period, cycle.params.C_max
    ) * reference_leg_length(cycle, t)


def reference_y_des_rate(cycle, t):
    """TrajectoryCycle.y_des_rate over the oracle leg length and rate."""
    t = t % cycle.period
    c = analytic.compensation(t, cycle.period, cycle.params.C_max)
    cdot = analytic.compensation_rate(t, cycle.period, cycle.params.C_max)
    return c * reference_leg_velocity(cycle, t) + cdot * reference_leg_length(cycle, t)


CYCLE_PAIRS = [
    (analytic.TrajectoryCycle.leg_length, reference_leg_length),
    (analytic.TrajectoryCycle.leg_velocity, reference_leg_velocity),
    (analytic.TrajectoryCycle.y_des, reference_y_des),
    (analytic.TrajectoryCycle.y_des_rate, reference_y_des_rate),
]


def cycle_edge_times(cycle):
    """The segment boundaries, one ulp either side, and times outside a cycle.

    A tiny negative time reduces to exactly one period, which is where the
    repeated modulo of the original forms matters.
    """
    times = [0.0, -0.0, 5e-324, -5e-324, -1e-20, 1e6, -1e6]
    for b in (cycle.t_lo, cycle.touchdown_time, cycle.period, cycle.period / 2.0):
        times += [b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf), -b]
    times += [2.5 * cycle.period, 7.0 * cycle.period + cycle.t_lo, -3.0 * cycle.period]
    return times


CYCLE_PARAMS = [
    model.PHYSICAL,
    model.PAPER_LITERAL,
    HopperParams(k_s=1700.0 * 0.97, C_amp=0.12 * 1.03),
    HopperParams(C_max=0.0),
    HopperParams(m=2.0, m_e=1.5, k_s=900.0, C_amp=0.05, C_max=0.4),
]


@pytest.mark.parametrize("params", CYCLE_PARAMS, ids=range(len(CYCLE_PARAMS)))
def test_cycle_bitwise_at_edges(params):
    cycle = analytic.TrajectoryCycle(params)
    for t in cycle_edge_times(cycle):
        for fast, reference in CYCLE_PAIRS:
            assert outcome(fast, cycle, t) == outcome(reference, cycle, t), (fast.__name__, t)


@given(
    m=st.floats(2.0, 10.0),
    m_e=st.floats(0.2, 2.0),
    k_s=st.floats(800.0, 4000.0),
    C_amp=st.floats(0.03, 0.2),
    C_max=st.floats(0.0, 0.5),
    cycles=st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0, 1.0, -1.0]),
)
def test_cycle_bitwise_equal_to_free_forms(m, m_e, k_s, C_amp, C_max, cycles):
    cycle = analytic.TrajectoryCycle(HopperParams(m=m, m_e=m_e, k_s=k_s, C_amp=C_amp, C_max=C_max))
    t = cycles * cycle.period
    for fast, reference in CYCLE_PAIRS:
        assert outcome(fast, cycle, t) == outcome(reference, cycle, t), fast.__name__


# --- controller targets -------------------------------------------------------


def legacy_joint_targets(self):
    """_TrajectoryController.joint_targets as it was before it held its
    touchdown-clock and fitted-bottom targets, computing both on every tick;
    kept verbatim as the oracle."""
    if self._landing is not None:
        b, phi = self._landing
        w = self._omega
        # Hold the fitted bottom if the actual leg is still compressing.
        arg = min(w * self._landing_tau + phi, math.pi)
        y_des, v_des = self.cycle.params.y_s_neu + b * math.cos(arg), -b * w * math.sin(arg)
    else:
        t = self.t_traj
        y_des, v_des = self.cycle.y_des(t), self.cycle.y_des_rate(t)
    clamped = False
    if not (self._y_lo < y_des < self._y_hi):
        y_des = min(max(y_des, self._y_lo), self._y_hi)
        clamped = True
    th_h, th_k = kinematics.inverse_kinematics(y_des, self.geometry)
    if clamped:
        thd_h = thd_k = 0.0
    else:
        thd_h, thd_k = kinematics.joint_rates(th_k, v_des, self.geometry)
    return th_h, th_k, thd_h, thd_k, clamped


def targets_bits(targets):
    *angles, clamped = targets
    return bits(angles), clamped


def check_held_targets(params, y_body, v_body):
    """The force and position controllers' targets against the oracle's, at
    the held touchdown clock and one ulp either side, and at a landing fit's
    bottom (``arg = pi``) and one ulp either side; returns, per controller,
    which sides of ``arg = pi`` the fit's own clock reached."""
    cycle, geo, motor = analytic.TrajectoryCycle(params), LegGeometry(), MotorParams()
    sides = []
    for ctrl in (
        control.ForceController(cycle, geo, motor, model.Gains()),
        control.PositionController(cycle, geo, motor),
    ):
        def same(what, ctrl=ctrl):
            fast, legacy = ctrl.joint_targets(), legacy_joint_targets(ctrl)
            assert targets_bits(fast) == targets_bits(legacy), (type(ctrl).__name__, what)

        td = cycle.touchdown_time
        for t in (td, math.nextafter(td, -math.inf), math.nextafter(td, math.inf)):
            ctrl.t_traj = t
            same(("t_traj", t))
        # enter a fit as a run does: a landing, then a stance leg still compressing
        state = make_state(model.HopPhase.STANCE, y_body, -1.0, 0.0, 0.0, geo)
        ctrl.advance(2.5e-4, state, sim.Event("landing", 0.0, y_body, v_body))
        (b, phi), w = ctrl._landing, ctrl._omega
        # the fit's own clock one ulp either side of where its arg reaches pi
        tau_pi = (math.pi - phi) / w
        reached = set()
        for tau in (0.0, tau_pi, math.nextafter(tau_pi, 0.0), math.nextafter(tau_pi, math.inf)):
            ctrl._landing_tau = tau
            reached.add(w * tau + phi >= math.pi)
            same(("tau", tau))
        sides.append(reached)
        # arg exactly pi and one ulp either side; the bottom depends on b alone
        ctrl._landing_tau = 0.0
        for arg in (math.pi, math.nextafter(math.pi, 0.0), math.nextafter(math.pi, 4.0)):
            ctrl._landing = (b, arg)
            same(("arg", arg))
    return sides


@pytest.mark.parametrize("params", CYCLE_PARAMS, ids=range(len(CYCLE_PARAMS)))
def test_held_targets_bitwise_at_edges(params):
    # CYCLE_PARAMS' paper-literal hopper clamps the desired length to the stops
    for v_body in (-2.0, -0.5, 0.0, 0.3):
        for sides in check_held_targets(params, 0.4, v_body):
            assert sides == {True, False}


@given(
    m=st.floats(2.0, 10.0),
    m_e=st.floats(0.2, 2.0),
    k_s=st.floats(800.0, 4000.0),
    C_amp=st.floats(0.03, 0.2),
    C_max=st.floats(0.0, 0.5),
    y_body=st.floats(0.05, 0.8),  # past both leg stops
    v_body=st.floats(-4.0, 1.0),
)
def test_held_targets_bitwise_equal_to_legacy(m, m_e, k_s, C_amp, C_max, y_body, v_body):
    params = HopperParams(m=m, m_e=m_e, k_s=k_s, C_amp=C_amp, C_max=C_max)
    check_held_targets(params, y_body, v_body)


# --- leg kinematics -----------------------------------------------------------


def reference_inverse_kinematics(y, geo):
    """kinematics.inverse_kinematics as first written, kept as the oracle,
    with reach_interval and hip_alignment_angle as they were written inline."""
    lo, hi = abs(geo.L1 - geo.L2), geo.L1 + geo.L2
    if not (lo < y < hi):
        raise UnreachableLengthError(y, lo, hi)
    cos_gamma = (geo.L1**2 + geo.L2**2 - y * y) / (2.0 * geo.L1 * geo.L2)
    cos_gamma = min(1.0, max(-1.0, cos_gamma))
    gamma = math.acos(cos_gamma)           # interior knee angle
    theta_knee = geo.knee_sign * (math.pi - gamma)
    theta_hip = -math.atan2(
        geo.L2 * math.sin(theta_knee), geo.L1 + geo.L2 * math.cos(theta_knee)
    )
    return theta_hip, theta_knee


def reference_leg_jacobian(js, geo):
    """kinematics.leg_jacobian as first written, plus the zero-length guard
    on dhip_dknee, kept as the oracle."""
    y = math.sqrt(
        geo.L1**2 + geo.L2**2 + 2.0 * geo.L1 * geo.L2 * math.cos(js.theta_knee)
    )
    s = math.sin(js.theta_knee)
    singular = abs(s) < 1e-12 or y < 1e-12
    dy_dknee = -geo.L1 * geo.L2 * s / y if y > 0 else 0.0
    dhip_dknee = (
        -geo.L2 * (geo.L2 + geo.L1 * math.cos(js.theta_knee)) / (y * y) if y * y != 0.0 else 0.0
    )
    return LegJacobian(0.0, dy_dknee, dhip_dknee, singular)


def reference_joint_rates(theta_knee, v_leg, geo):
    """kinematics.joint_rates as first written, kept as the oracle."""
    jac = reference_leg_jacobian(kinematics.JointState(theta_knee=theta_knee), geo)
    if jac.singular:
        return 0.0, 0.0
    thetad_knee = v_leg / jac.dy_dknee
    return jac.dhip_dknee * thetad_knee, thetad_knee


def reference_task_force(tau_hip, tau_knee, theta_knee, geo):
    """task_force as first written in kinematics, kept as the oracle."""
    jac = reference_leg_jacobian(kinematics.JointState(theta_knee=theta_knee), geo)
    if jac.singular:
        return 0.0
    return (tau_knee + tau_hip * jac.dhip_dknee) / jac.dy_dknee


def reference_knee_torque_for_force(force, theta_knee, geo):
    """kinematics.knee_torque_for_force as first written, kept as the oracle."""
    jac = reference_leg_jacobian(kinematics.JointState(theta_knee=theta_knee), geo)
    return force * jac.dy_dknee


def check_kinematics(geo, y, theta_knee, rate):
    """Every kinematics entry point against its oracle at one point."""
    js = kinematics.JointState(theta_knee=theta_knee)
    pairs = [
        (kinematics.inverse_kinematics, reference_inverse_kinematics, (y, geo)),
        (kinematics.leg_jacobian, reference_leg_jacobian, (js, geo)),
        (kinematics.joint_rates, reference_joint_rates, (theta_knee, rate, geo)),
        (task_force, reference_task_force, (rate, -rate, theta_knee, geo)),
        (kinematics.knee_torque_for_force, reference_knee_torque_for_force,
         (rate, theta_knee, geo)),
    ]
    for fast, reference, args in pairs:
        assert outcome(fast, *args) == outcome(reference, *args), (fast.__name__, args)


KINEMATICS_GEOMETRIES = [
    LegGeometry(),
    LegGeometry(knee_sign=-1),
    LegGeometry(L1=0.3, L2=0.45, knee_sign=-1),
    LegGeometry(L1=0.4, L2=0.4),  # equal links: the folded leg has zero length
    # links so short that a nearly folded leg is shorter than the 1e-12
    # singularity threshold while its knee sine is not
    LegGeometry(L1=1e-7, L2=1e-7),
]
LIMIT_RATES = [0.0, -0.0, 1.0, -3.5, math.inf, math.nan]


@pytest.mark.parametrize("geo", KINEMATICS_GEOMETRIES, ids=range(len(KINEMATICS_GEOMETRIES)))
def test_kinematics_bitwise_at_straight_folded_and_reach_limits(geo):
    lo, hi = abs(geo.L1 - geo.L2), geo.L1 + geo.L2
    lengths = [
        lo, hi, math.nextafter(lo, math.inf), math.nextafter(hi, -math.inf),
        0.5 * (lo + hi), 0.0, -0.0, -hi, 2.0 * hi, math.nan, math.inf,
    ]
    # straight (0), folded (pi) and one ulp inside, both branches
    angles = [
        0.0, -0.0, math.pi, -math.pi, math.nextafter(math.pi, 0.0), math.pi - 1e-7,
        1e-13, 1.0, -2.0,
    ]
    for y in lengths:
        for theta_knee in angles:
            for rate in LIMIT_RATES:
                check_kinematics(geo, y, theta_knee, rate)


@given(
    L1=links,
    L2=links,
    knee_sign=st.sampled_from([1, -1]),
    scale=st.floats(min_value=-0.2, max_value=1.2),
    theta_knee=st.floats(-4.0, 4.0) | st.sampled_from([0.0, -0.0, math.pi, -math.pi]),
    rate=st.floats(-50.0, 50.0) | st.sampled_from(LIMIT_RATES),
)
def test_kinematics_bitwise_equal_to_reference(L1, L2, knee_sign, scale, theta_knee, rate):
    geo = LegGeometry(L1=L1, L2=L2, knee_sign=knee_sign)
    lo, hi = abs(L1 - L2), L1 + L2
    check_kinematics(geo, lo + scale * (hi - lo), theta_knee, rate)


# --- envelope command ---------------------------------------------------------


def reference_make_command(tau_dyn, thetad_act, motor):
    """control.make_command as first written, kept as the oracle."""
    tau_sat = control.actuator_saturation(thetad_act, motor)
    return control.TorqueCommand(tau_dyn=tau_dyn, tau_sat=tau_sat, tau_des=control.clamp(tau_dyn, tau_sat))


COMMAND_MOTORS = [MotorParams(), MotorParams(tau_max=2000.0, omega_max=1000.0, R=1.0)]


def command_speeds(motor):
    """Joint speeds around the no-load speed omega_max / R, both signs."""
    no_load = motor.omega_max / motor.R
    speeds = [0.0, -0.0, 1.0, no_load, math.nextafter(no_load, 0.0),
              math.nextafter(no_load, math.inf), 2.0 * no_load, math.inf, math.nan]
    return speeds + [-s for s in speeds]


COMMAND_TORQUES = [0.0, -0.0, 1.0, -1.0, 35.0, -35.0, 1e9, -1e9, math.inf, -math.inf, math.nan]


def command_bits(make, tau, thetad, motor):
    cmd = make(tau, thetad, motor)
    return bits([cmd.tau_dyn, cmd.tau_sat, cmd.tau_des])


@pytest.mark.parametrize("motor", COMMAND_MOTORS, ids=["default", "oracle"])
def test_make_command_bitwise_at_no_load_and_limits(motor):
    for thetad in command_speeds(motor):
        for tau in COMMAND_TORQUES:
            args = (tau, thetad, motor)
            assert command_bits(control.make_command, *args) == command_bits(
                reference_make_command, *args
            ), args


@given(
    tau=st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(COMMAND_TORQUES),
    thetad=st.floats(-20.0, 20.0) | st.floats(allow_nan=True, allow_infinity=True),
    motor=st.sampled_from(COMMAND_MOTORS),
)
def test_make_command_bitwise_equal_to_reference(tau, thetad, motor):
    args = (tau, thetad, motor)
    assert command_bits(control.make_command, *args) == command_bits(reference_make_command, *args)
