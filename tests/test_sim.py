import dataclasses
import math
import struct
import types

import pytest
from hypothesis import given, strategies as st

from hopsim import analytic, control, kinematics, metrics, sim
from hopsim.errors import ParameterError, SimulationAbort
from hopsim.model import Gains, HopPhase, HopperParams, MotorParams
from hopsim.sim import RunSetup, SimState

from conftest import ORACLE_MOTOR, reference_to_csv


def make_state(phase, y_body, v_body, y_foot, v_foot):
    from hopsim.model import LegGeometry

    geo = LegGeometry()
    return SimState(
        t=0.0,
        phase=phase,
        y_body=y_body,
        v_body=v_body,
        y_foot=y_foot,
        v_foot=v_foot,
        joints=sim.joint_state_for(y_body - y_foot, v_body - v_foot, geo),
    )


ZERO_TORQUE = control.JointCommands(
    hip=control.TorqueCommand(0.0, 35.0, 0.0),
    knee=control.TorqueCommand(0.0, 35.0, 0.0),
)


def advance(state, n_sub, dt, bundle, force_law=None):
    """``n_sub`` plant substeps under zero held torques (or a continuous
    ``force_law``) through the run loop's tick; returns the state and log."""
    log = sim.TelemetryLog()
    held_law = sim._held_force_law(bundle.geometry)
    state = sim._advance_tick(
        state, ZERO_TORQUE, force_law, held_law, dt, n_sub, bundle.params, bundle.geometry, log
    )
    return state, log


class TestStep:
    def test_free_fall_velocity_exact(self, bundle_physical):
        b = bundle_physical
        state = make_state(HopPhase.FLIGHT, 0.9, 0.0, 0.45, 0.0)
        dt = 2.5e-4
        n = 40
        state, log = advance(state, n, dt, b)
        assert not log.events
        assert state.t == pytest.approx(n * dt, rel=1e-12)
        assert state.v_body == pytest.approx(-b.params.g * n * dt, abs=1e-12)
        assert state.v_foot == pytest.approx(-b.params.g * n * dt, abs=1e-12)

    def test_spring_stance_matches_closed_form(self, bundle_oracle):
        # ideal-spring law integrated at dt=1e-4 over one analytic stance
        b = bundle_oracle
        p = b.params
        t_lo, _ = analytic.switch_times(p)
        res = sim.run(
            RunSetup(
                bundle=b,
                controller="spring",
                duration=t_lo,
                dt=1e-4,
                control_rate=1e4,
            )
        )
        assert res.ok
        worst = max(
            abs(r.y_body - analytic.stance_position(r.t, p)) for r in res.log.records
        )
        assert worst <= 1e-6

    def test_rk4_order(self, bundle_oracle):
        # measured where truncation dominates roundoff; see the ledger note
        b = bundle_oracle
        p = b.params
        t_lo, _ = analytic.switch_times(p)

        def max_err(dt):
            res = sim.run(
                RunSetup(
                    bundle=b,
                    controller="spring",
                    duration=t_lo,
                    dt=dt,
                    control_rate=1.0 / dt,
                )
            )
            return max(
                abs(r.y_body - analytic.stance_position(r.t, p))
                for r in res.log.records
            )

        ratio = max_err(1e-3) / max_err(5e-4)
        assert 12.0 <= ratio <= 20.0


class TestDetectTransition:
    # Each phase's event, through one plant tick: a lift when the stance pin
    # force (foot weight + task force) reaches zero, a landing when the
    # flight foot reaches contact height moving down.

    def test_landing_interpolated_at_half(self, bundle_physical):
        # free fall, foot and body together: the foot ends the substep as far
        # below the ground as it started above it
        g, dt, v = bundle_physical.params.g, 5e-4, -4.0
        y_foot = -(v * dt - 0.5 * g * dt * dt) / 2.0
        state = make_state(HopPhase.FLIGHT, 0.45 + y_foot, v, y_foot, v)
        end, log = advance(state, 1, dt, bundle_physical)
        assert [e.kind for e in log.events] == ["landing"]
        assert log.events[0].t == pytest.approx(2.5e-4, rel=1e-9)
        assert end.phase is HopPhase.STANCE and end.y_foot == 0.0

    def test_no_event_without_crossing(self, bundle_physical):
        # a flight foot well above the ground, and a stance foot whose pin
        # force stays at the foot's weight
        for state in (
            make_state(HopPhase.FLIGHT, 0.46, 1.0, 0.01, 1.0),
            make_state(HopPhase.STANCE, 0.45, 0.0, 0.0, 0.0),
        ):
            end, log = advance(state, 1, 5e-4, bundle_physical)
            assert not log.events and end.phase is state.phase

    def test_no_landing_when_foot_moving_up(self, bundle_physical):
        # The fold stop snaps a rising foot from above contact height to
        # below it: the height crosses, but the velocity interpolates
        # positive, so there is no landing.
        lo = bundle_physical.geometry.constants.y_lo
        state = make_state(HopPhase.FLIGHT, 0.002 + lo - 0.01, 0.1, 0.002, 0.1)
        end, log = advance(state, 1, 5e-4, bundle_physical)
        assert not log.events
        assert end.phase is HopPhase.FLIGHT
        assert end.y_foot < 0.0 < end.v_foot

    def test_lift_on_ground_force_zero_crossing(self, bundle_physical):
        # a task force that leaves a pin force of 4 N at the start state and
        # -4 N past it: the lift is at half the substep
        weight_e = bundle_physical.params.m_e * bundle_physical.params.g
        y0 = 0.45
        state = make_state(HopPhase.STANCE, y0, 1.0, 0.0, 0.0)
        law = lambda y: 4.0 - weight_e if y <= y0 else -4.0 - weight_e
        end, log = advance(state, 1, 5e-4, bundle_physical, force_law=law)
        assert [e.kind for e in log.events] == ["lift"]
        assert log.events[0].t == pytest.approx(2.5e-4, rel=1e-12)
        assert end.phase is HopPhase.FLIGHT

    def test_flight_foot_at_contact_driven_down_repins(self, bundle_physical):
        # A flight foot at ground level, rising but pushed down so hard that
        # the substep ends above contact height and moving down: the start
        # height, not the end one, makes it a landing at once.
        push = 40.0 * bundle_physical.params.m_e
        state = make_state(HopPhase.FLIGHT, 0.7, 0.0, 0.0, 0.01)
        end, log = advance(state, 1, 2.5e-4, bundle_physical, force_law=lambda y: push)
        assert [(e.kind, e.t) for e in log.events] == [("landing", 0.0)]
        assert end.phase is HopPhase.STANCE and end.y_foot == 0.0

    def test_reference_lift_emitted_once_per_stance(self, physical):
        ref = sim.TwoMassReference(physical).run(hops=2)
        lifts = ref.lift_times()
        assert len(lifts) == 3
        assert all(t1 > t0 for t0, t1 in zip(lifts, lifts[1:]))
        t_lo, _ = analytic.switch_times(physical)
        assert lifts[0] == pytest.approx(t_lo, abs=1e-3)


class TestPinForceLiftEquivalence:
    def test_pure_spring_lift_at_analytic_condition(self, bundle_oracle):
        # With the bare spring law (no bodyweight feedforward) the pin-force
        # zero crossing happens exactly at the analytic lift length
        # m_e*g/k_s + y_s_neu: the ground force is m_e*g minus the spring pull.
        b = bundle_oracle
        p = b.params
        law = lambda y_rel: p.k_s * (p.y_s_neu - y_rel)
        state = make_state(HopPhase.STANCE, analytic.stance_position(0.0, p), 0.0, 0.0, 0.0)
        # one substep per call, so the loop stops on the first event
        for _ in range(40000):
            state, log = advance(state, 1, 1e-5, b, force_law=law)
            if log.events:
                break
        assert [e.kind for e in log.events] == ["lift"]
        y_lift = p.m_e * p.g / p.k_s + p.y_s_neu
        assert log.events[0].y_body == pytest.approx(y_lift, abs=1e-6)


class TestTwoMassReference:
    def test_switch_times_both_presets(self, physical, paper_literal):
        for p in (physical, paper_literal):
            ref = sim.TwoMassReference(p).run(hops=2)
            t_lo, t_ld = analytic.switch_times(p)
            assert ref.first_lift() == pytest.approx(t_lo, abs=1e-3)
            assert ref.flight_duration() == pytest.approx(t_ld - t_lo, abs=1e-3)
            assert ref.hop_period() == pytest.approx(analytic.hop_period(p), abs=1e-3)

    @pytest.mark.parametrize("dt", [0.0, -1e-4, math.nan, math.inf, -math.inf])
    def test_bad_dt_rejected_at_construction(self, physical, dt):
        with pytest.raises(ValueError, match="not positive and finite"):
            sim.TwoMassReference(physical, dt)

    @pytest.mark.parametrize(
        ("dt", "hops", "reason"),
        [
            (1e-300, 3, "needs more than"),
            # a run may last 4 hop periods (~1.25 s) a hop: 1.25e11 steps of 1e-5 s
            (1e-5, 10**6, "needs more than"),
            (2.5e-4, 0, "below 1"),
            (2.5e-4, -1, "below 1"),
        ],
    )
    def test_bad_run_rejected_before_any_step(self, physical, monkeypatch, dt, hops, reason):
        # The start state is the first thing a run builds after its checks, so
        # a run that gets that far fails here at once instead of stepping on.
        def no_start_state(p):
            raise AssertionError("the run built its start state")

        stub = types.SimpleNamespace(
            hop_period=analytic.hop_period, stance_amplitude=no_start_state
        )
        monkeypatch.setattr(sim, "analytic", stub)
        with pytest.raises(ValueError, match=reason):
            sim.TwoMassReference(physical, dt).run(hops)

    @pytest.mark.parametrize(("name", "value"), [("k_s", 0.0), ("k_s", -1.0), ("C_amp", math.nan)])
    def test_bad_params_rejected_naming_the_field(self, physical, name, value):
        with pytest.raises(ParameterError, match=name) as info:
            sim.TwoMassReference(dataclasses.replace(physical, **{name: value}))
        assert set(info.value.fields) == {name}

    def test_empty_result_raises_value_error(self):
        empty = sim.ReferenceResult([])
        for method in (empty.first_lift, empty.flight_duration, empty.hop_period):
            with pytest.raises(ValueError, match="need"):
                method()
        lift_only = sim.ReferenceResult([sim.Event("lift", 0.1, 0.5, 1.0)])
        assert lift_only.first_lift() == 0.1
        with pytest.raises(ValueError, match="landing"):
            lift_only.flight_duration()


class TestRun:
    def test_three_hops_have_events(self, force_run_3hops):
        log = force_run_3hops.log
        assert len(log.lift_events()) >= 3
        assert len(log.landing_events()) >= 3

    def test_pin_constraint_in_stance(self, force_run_3hops):
        for r in force_run_3hops.log.records:
            if r.phase == "stance":
                assert r.y_foot == 0.0
                assert r.v_foot == 0.0

    def test_flight_foot_above_contact(self, force_run_3hops):
        for r in force_run_3hops.log.records:
            if r.phase == "flight":
                assert r.y_foot >= -sim.CONTACT_EPSILON

    def test_records_strictly_increasing(self, force_run_3hops):
        ts = [r.t for r in force_run_3hops.log.records]
        assert all(t1 > t0 for t0, t1 in zip(ts, ts[1:]))

    def test_no_position_jumps_across_records(self, force_run_3hops):
        # body motion is continuous across events: per-tick displacement is
        # bounded by the velocities seen at the tick edges
        recs = force_run_3hops.log.records
        for r0, r1 in zip(recs, recs[1:]):
            dt = r1.t - r0.t
            vmax = max(abs(r0.v_body), abs(r1.v_body)) + 1.0
            assert abs(r1.y_body - r0.y_body) <= vmax * dt + 1e-9

    @given(
        m=st.floats(2.0, 10.0),
        m_e=st.floats(0.2, 2.0),
        k_s=st.floats(800.0, 4000.0),
        C_amp=st.floats(0.03, 0.2),
        C_max=st.floats(0.0, 0.5),
    )
    def test_start_length_is_the_trajectory_start(self, m, m_e, k_s, C_amp, C_max):
        # initial_state starts every controller from the setup cycle's
        # y_des(0.0), which is the stance response at t=0 bit for bit
        p = HopperParams(m=m, m_e=m_e, k_s=k_s, C_amp=C_amp, C_max=C_max)
        y_des = analytic.TrajectoryCycle(p).y_des(0.0)
        assert y_des.hex() == analytic.stance_position(0.0, p).hex()

    def test_duration_zero_logs_initial_record_only(self, bundle_physical):
        res = sim.run(RunSetup(bundle=bundle_physical, controller="force", duration=0.0))
        assert res.ok
        assert len(res.log.records) == 1
        assert res.log.records[0].t == 0.0

    def test_determinism_bitwise(self, bundle_physical):
        a = sim.run(RunSetup(bundle=bundle_physical, controller="force", hops=2))
        b = sim.run(RunSetup(bundle=bundle_physical, controller="force", hops=2))
        assert "".join(a.log.to_csv()) == "".join(b.log.to_csv())
        assert a.log.events == b.log.events

    def test_duration_xor_hops_required(self, bundle_physical):
        with pytest.raises(ValueError):
            sim.run(RunSetup(bundle=bundle_physical, duration=1.0, hops=2))
        with pytest.raises(ValueError):
            sim.run(RunSetup(bundle=bundle_physical))

    @pytest.mark.parametrize(
        "knobs",
        [
            {"dt": math.nan},
            {"dt": math.inf},
            {"control_rate": math.nan},
            {"control_rate": math.inf},
            # more than MAX_SUBSTEPS_PER_TICK substeps per tick, inf for 1e-320
            {"dt": 1e-300},
            {"dt": 1e-320},
            {"control_rate": 1e-3},
            {"hops": 0},
            {"hops": None, "duration": math.nan},
            {"hops": None, "duration": math.inf},
            {"hops": None, "duration": -1.0},
            # a substep too short to move the clock at the end time
            {"control_rate": 1e20},
            {"hops": None, "duration": 1e20},
            {"controller": "nope"},
            {"dt": 0.0},
            {"dt": -1.0},
            # more than MAX_TICKS control ticks: 3e13 at 1e12 Hz over the 30 s guard
            {"control_rate": 1e12},
            {"hops": None, "duration": 1e7},
        ],
    )
    def test_rejects_bad_run_knobs(self, bundle_physical, knobs):
        with pytest.raises(ValueError):
            RunSetup(**{"bundle": bundle_physical, "controller": "force", "hops": 1, **knobs})
        # a setup stays checked: its knobs cannot be set after it is built
        setup = RunSetup(bundle=bundle_physical, controller="force", hops=1)
        for name, value in knobs.items():
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(setup, name, value)

    def test_huge_control_rate_runs_while_the_clock_advances(self, bundle_physical):
        setup = RunSetup(bundle=bundle_physical, duration=0.0, control_rate=1e20)
        assert sim.run(setup).ok

    def test_hop_target_counted_without_rescanning_events(self, bundle_physical, monkeypatch):
        scans = []
        inner = sim.TelemetryLog.landing_events

        def counting(log):
            scans.append(1)
            return inner(log)

        monkeypatch.setattr(sim.TelemetryLog, "landing_events", counting)
        res = sim.run(RunSetup(bundle=bundle_physical, controller="force", hops=2))
        assert res.ok and not scans
        landings = [e for e in res.log.events if e.kind == "landing"]
        assert len(landings) == 2
        # the run stops on the tick that brought the second landing
        assert res.log.records[-2].t < landings[-1].t <= res.log.records[-1].t

    @pytest.mark.parametrize("controller", ["force", "position"])
    def test_hop_target_not_reached_aborts(self, physical, controller, monkeypatch):
        from hopsim import model

        # a motor too weak to push off never lands again
        bundle = model.validate(physical, MotorParams(tau_max=0.001))
        monkeypatch.setattr(sim, "MAX_DURATION", 0.2)
        res = sim.run(RunSetup(bundle=bundle, controller=controller, hops=3))
        assert not res.ok
        assert res.status == "aborted: hop target not reached (0 of 3 landings by t=0.200000)"
        assert res.log.failure == res.status.removeprefix("aborted: ")
        assert len(res.log.records) == 801  # every tick up to MAX_DURATION, and the last state

    @pytest.mark.parametrize("controller", ["force", "position"])
    @pytest.mark.parametrize("dt", [2.5e-4, 2.5e-5])
    def test_leg_terms_evaluated_once_per_configuration(
        self, bundle_physical, monkeypatch, controller, dt
    ):
        # Forces: four per RK4 substep (stages 2-4 and the end state), five
        # per event (the event state and the remainder's substep) and the
        # run's first; every later tick takes its first force from the leg
        # terms the previous tick ended on.  Leg terms: one for the initial
        # joint state and one for each tick's end state, nowhere else.
        forces, terms = [], []
        law_factory, leg_terms = sim._held_force_law, sim._leg_terms

        def counting_factory(geo):
            held = law_factory(geo)

            def counting_held(tau_h, tau_k):
                law = held(tau_h, tau_k)

                def counting_law(y_rel):
                    forces.append(1)
                    return law(y_rel)

                return counting_law

            return counting_held

        def counting_terms(y_rel, geo):
            terms.append(1)
            return leg_terms(y_rel, geo)

        monkeypatch.setattr(sim, "_held_force_law", counting_factory)
        monkeypatch.setattr(sim, "_leg_terms", counting_terms)
        setup = RunSetup(bundle=bundle_physical, controller=controller, hops=1, dt=dt)
        res = sim.run(setup)
        assert res.ok
        ticks = len(res.log.records) - 1
        assert setup.n_sub == round(2.5e-4 / dt)
        assert len(forces) == 1 + 4 * setup.n_sub * ticks + 5 * len(res.log.events)
        assert len(terms) == 1 + ticks

    def test_held_ticks_call_no_trajectory_or_inverse_kinematics(
        self, bundle_physical, monkeypatch
    ):
        # The controller computes its targets at the held touchdown clock once,
        # and at each landing fit's bottom once per fit: a tick that holds
        # either calls neither the trajectory nor the inverse kinematics.
        calls = {"y_des": 0, "ik": 0}
        held = {"clock": 0, "bottom": 0}
        y_des, ik = analytic.TrajectoryCycle.y_des, kinematics.inverse_kinematics
        command = control.ForceController.command

        def counting_y_des(cycle, t):
            calls["y_des"] += 1
            return y_des(cycle, t)

        def counting_ik(y, geo):
            calls["ik"] += 1
            return ik(y, geo)

        def counting_command(ctrl, state):
            if ctrl._landing is None:
                hold = "clock" if ctrl.t_traj == ctrl.cycle.touchdown_time else None
            else:
                arg = ctrl._omega * ctrl._landing_tau + ctrl._landing[1]
                hold = "bottom" if arg >= math.pi else None
            before = dict(calls)
            cmd = command(ctrl, state)
            if hold is not None:
                held[hold] += 1
                assert calls == before, hold
            return cmd

        monkeypatch.setattr(analytic.TrajectoryCycle, "y_des", counting_y_des)
        monkeypatch.setattr(kinematics, "inverse_kinematics", counting_ik)
        monkeypatch.setattr(control.ForceController, "command", counting_command)
        res = sim.run(RunSetup(bundle=bundle_physical, controller="force", hops=10))
        assert res.ok and len(res.log.records) == 8339
        assert held == {"clock": 2440, "bottom": 233}
        # 8339 commands: the held ticks call neither; one IK for the held
        # clock's targets and one per landing fit's bottom (10) come on top
        assert calls == {"y_des": 3828, "ik": 8339 - 2440 - 233 + 1 + 10}

    def test_unreachable_trajectory_aborts_with_partial_log(self, paper_literal):
        from hopsim import model

        bundle = model.validate(paper_literal)
        res = sim.run(RunSetup(bundle=bundle, controller="force", hops=1))
        assert not res.ok
        assert "unreachable" in res.status
        # the limit counts clamped ticks in total, not in a row
        assert res.status.endswith("unreachable on 101 ticks in total (limit 100)")
        assert res.log.failure is not None
        assert len(res.log.records) > 0

    def test_csv_header_contract(self, force_run_3hops):
        header = "".join(force_run_3hops.log.to_csv()).splitlines()[0]
        assert header == (
            "t,phase,y_body,v_body,y_foot,v_foot,"
            "theta_hip,theta_knee,thetad_hip,thetad_knee,"
            "tau_dyn_hip,tau_dyn_knee,tau_des_hip,tau_des_knee,"
            "tau_sat_hip,tau_sat_knee,c_act_hip,c_act_knee"
        )

    def test_phase_column_values(self, force_run_3hops):
        phases = {r.phase for r in force_run_3hops.log.records}
        assert phases == {"stance", "flight"}


class TestLegStops:
    def test_flight_fold_stop_absorbs_relative_motion(self, bundle_physical):
        b = bundle_physical
        lo = b.geometry.constants.y_lo
        # masses closing at high speed right above the fold limit
        state = make_state(HopPhase.FLIGHT, 0.5 + lo, -5.0, 0.5, 0.0)
        state, log = advance(state, 20, 2.5e-4, b)
        assert not log.events
        y_rel = state.y_body - state.y_foot
        assert y_rel >= lo - 1e-12
        # plastic stop: masses move together afterwards
        assert state.v_body == pytest.approx(state.v_foot, abs=1e-9)

    def test_stance_fold_stop_holds_body(self, bundle_physical):
        b = bundle_physical
        lo = b.geometry.constants.y_lo
        state = make_state(HopPhase.STANCE, lo + 1e-4, -4.0, 0.0, 0.0)
        state, log = advance(state, 10, 2.5e-4, b)
        assert not log.events
        assert state.y_body >= lo - 1e-12


class TestNonFiniteState:
    def test_spring_run_with_a_nan_force_law_aborts(self, bundle_oracle, monkeypatch):
        monkeypatch.setattr(control.VirtualSpringController, "force_law", lambda self, y: math.nan)
        res = sim.run(RunSetup(bundle=bundle_oracle, controller="spring", hops=1))
        assert res.status == "aborted: non-finite state at t=0.000250"
        assert len(res.log.records) == 1

    def test_diverged_state_aborts(self, bundle_physical, monkeypatch):
        # a finite body height of 1e6 m or more ends the run after its tick
        inner = sim._advance_tick

        def diverging(*args):
            return dataclasses.replace(inner(*args), y_body=1e6)

        monkeypatch.setattr(sim, "_advance_tick", diverging)
        res = sim.run(RunSetup(bundle=bundle_physical, controller="force", hops=1))
        assert res.status == "aborted: state diverged at t=0.000250"
        assert len(res.log.records) == 1

    def test_flight_tick_with_a_nan_force_law_aborts(self, bundle_physical):
        state = make_state(HopPhase.FLIGHT, 0.9, 0.0, 0.45, 0.0)
        with pytest.raises(SimulationAbort, match=r"^non-finite state at t=0\.000250$"):
            advance(state, 4, 2.5e-4, bundle_physical, force_law=lambda y: math.nan)


SATURATION_PAIRS = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (1.0, 0.0), (-1.0, -0.0),
                    (math.nan, 0.0), (3.0, 4.0), (-3.0, 4.0), (1.0, math.nan)]


@given(
    hip=st.sampled_from(SATURATION_PAIRS) | st.tuples(st.floats(), st.floats()),
    knee=st.sampled_from(SATURATION_PAIRS) | st.tuples(st.floats(), st.floats()),
)
def test_record_saturation_ratios_are_metrics_saturation_ratio(hip, knee):
    # (tau_des, tau_sat) per joint; a zero bound gives 1.0 for a zero
    # command and inf for any other
    cmd = control.JointCommands(
        control.TorqueCommand(7.0, hip[1], hip[0]), control.TorqueCommand(-7.0, knee[1], knee[0])
    )
    rec = sim._record_from(make_state(HopPhase.STANCE, 0.5, 0.0, 0.0, 0.0), cmd)
    assert type(rec) is sim.Record and len(rec) == len(sim.Record._fields)
    expected = [metrics.saturation_ratio(*hip), metrics.saturation_ratio(*knee)]
    assert struct.pack("<2d", rec.c_act_hip, rec.c_act_knee) == struct.pack("<2d", *expected)
    if hip[1] == 0.0:
        assert rec.c_act_hip == (1.0 if hip[0] == 0.0 else math.inf)


def log_bits(res):
    """Records, events and failure of a run, every float as its bytes."""
    records = [(r.phase, struct.pack("<17d", r.t, *r[2:])) for r in res.log.records]
    events = [(e.kind, struct.pack("<3d", *e[1:])) for e in res.log.events]
    return records, events, res.log.failure


def counted_run(setup, monkeypatch):
    """The run of ``setup`` and the number of its ``sim._advance_tick`` calls."""
    calls = []
    inner = sim._advance_tick

    def counting(*args):
        calls.append(1)
        return inner(*args)

    with monkeypatch.context() as m:
        m.setattr(sim, "_advance_tick", counting)
        res = sim.run(setup)
    return res, len(calls)


def unreplayed_run(setup, monkeypatch):
    """The run of ``setup`` with every tick computed: no two keys are equal."""
    with monkeypatch.context() as m:
        m.setattr(sim, "_cycle_key", lambda *args: object())
        return counted_run(setup, monkeypatch)


class TestCycleReplay:
    # Once a run's state repeats at a landing, sim.run copies the cycle's
    # records instead of integrating them again; none of that may show.

    @pytest.mark.parametrize(
        ("knobs", "scale"),
        [
            ({"duration": 3.0}, 1.0),
            ({"duration": 10.0}, 1.0),
            ({"duration": 2.5}, 1.0),  # ends inside a cycle
            ({"hops": 10}, 1.0),  # the hop target is reached inside the replay
            ({"hops": 30}, 1.0),
            ({"duration": 2.0, "dt": 2.5e-5}, 1.0),
            ({"duration": 3.0}, 1.03),  # k_s and C_amp scaled
            ({"duration": 3.0}, 0.97),
        ],
        ids=["3s", "10s", "2.5s", "10hops", "30hops", "fine-dt", "scaled-up", "scaled-down"],
    )
    def test_replay_cannot_be_seen_in_the_log(self, physical, monkeypatch, knobs, scale):
        from hopsim import model

        p = dataclasses.replace(physical, k_s=physical.k_s * scale, C_amp=physical.C_amp * scale)
        setup = RunSetup(bundle=model.validate(p), controller="position", **knobs)
        res, plant_calls = counted_run(setup, monkeypatch)
        ref, ref_calls = unreplayed_run(setup, monkeypatch)
        assert res.ok and log_bits(res) == log_bits(ref)
        ticks = len(ref.log.records) - 1
        assert ref_calls == ticks and plant_calls < ticks  # the replay ran
        # run.csv reuses the cycle rows' text, to the same bytes; compared
        # line by line, so a failure names its first line, not a text diff
        assert ref.log.cycle is None and res.log.cycle is not None
        lines = "".join(res.log.to_csv()).splitlines(keepends=True)
        assert lines == "".join(ref.log.to_csv()).splitlines(keepends=True)
        assert lines == reference_to_csv(res.log).splitlines(keepends=True)

    @pytest.mark.parametrize("controller", ["force", "position", "spring"])
    def test_every_controller_attribute_that_changes_is_keyed(
        self, bundle_physical, monkeypatch, controller
    ):
        built = []
        build = sim.CONTROLLERS[controller]

        def building(setup):
            c = build(setup)
            built.append((c, dict(vars(c))))
            return c

        monkeypatch.setitem(sim.CONTROLLERS, controller, building)
        setup = RunSetup(bundle=bundle_physical, controller=controller, hops=2)
        assert sim.run(setup).ok
        [(c, before)] = built
        after = dict(vars(c))
        changed = [name for name, value in after.items() if before.get(name) != value]
        if controller != "spring":
            assert {"t_traj", "_landing_tau"} <= set(changed)
        state = sim.initial_state(setup)
        key = sim._cycle_key(state, c, 0)
        for name in changed:
            setattr(c, name, before.get(name))
            assert sim._cycle_key(state, c, 0) != key, name
            setattr(c, name, after[name])
        # the state is keyed bit for bit, and so is the IK-clamp count
        assert sim._cycle_key(dataclasses.replace(state, v_body=-0.0), c, 0) != key
        assert sim._cycle_key(state, c, 1) != key

    @pytest.mark.parametrize(("controller", "replayed"), [("position", True), ("force", False)])
    def test_position_orbit_replays_and_force_runs_do_not(
        self, bundle_physical, monkeypatch, controller, replayed
    ):
        setup = RunSetup(bundle=bundle_physical, controller=controller, duration=3.0)
        res, plant_calls = counted_run(setup, monkeypatch)
        ticks = len(res.log.records) - 1
        assert res.ok and ticks == 12000
        if replayed:
            assert plant_calls < ticks / 2
        else:
            assert plant_calls == ticks

    def test_hop_target_missed_inside_the_replay(self, bundle_physical, monkeypatch):
        # The duration guard stops a replayed run short of its hop target:
        # the abort is the one an unreplayed run gives, at the same tick.
        monkeypatch.setattr(sim, "MAX_DURATION", 2.0)
        setup = RunSetup(bundle=bundle_physical, controller="position", hops=50)
        res, plant_calls = counted_run(setup, monkeypatch)
        ref, _ = unreplayed_run(setup, monkeypatch)
        assert res.status == "aborted: hop target not reached (8 of 50 landings by t=2.000000)"
        assert res.log.cycle == (3893, 4716) and len(res.log.records) == 8001
        assert log_bits(res) == log_bits(ref)
        assert plant_calls < len(res.log.records) - 1  # the replay ran

    def test_cycle_with_an_ik_clamp_is_never_replayed(self, bundle_physical, monkeypatch):
        # Clamp the tick on the fold stop, which the position orbit reaches
        # once per hop: a cycle whose clamp were copied uncounted would run on
        # past the limit, which the unreplayed run reaches after 6 hops.
        y_lo = bundle_physical.geometry.constants.y_lo
        inner = control.PositionController.command

        def clamping(self, state):
            cmd = inner(self, state)
            return cmd._replace(ik_clamped=state.y_body - state.y_foot == y_lo)

        monkeypatch.setattr(control.PositionController, "command", clamping)
        monkeypatch.setattr(sim, "MAX_IK_FAILURES", 5)
        setup = RunSetup(bundle=bundle_physical, controller="position", duration=3.0)
        res, plant_calls = counted_run(setup, monkeypatch)
        ref, _ = unreplayed_run(setup, monkeypatch)
        assert res.log.failure == "desired trajectory unreachable on 6 ticks in total (limit 5)"
        assert log_bits(res) == log_bits(ref)
        assert plant_calls == len(res.log.records) - 1  # every tick before the abort
