import math

import pytest

from hopsim import analytic, control, kinematics, metrics, sim
from hopsim.model import Gains, HopPhase, HopperParams, MotorParams
from hopsim.sim import RunSetup, SimState

from conftest import ORACLE_MOTOR


def make_state(phase, y_body, v_body, y_foot, v_foot, t=0.0, pin=0.0):
    from hopsim.model import LegGeometry

    geo = LegGeometry()
    return SimState(
        t=t,
        phase=phase,
        y_body=y_body,
        v_body=v_body,
        y_foot=y_foot,
        v_foot=v_foot,
        joints=sim.joint_state_for(y_body - y_foot, v_body - v_foot, geo),
        pin_force=pin,
    )


class TestStep:
    def test_free_fall_velocity_exact(self, bundle_physical):
        b = bundle_physical
        zero = control.JointCommands(
            hip=control.TorqueCommand(0.0, 35.0, 0.0),
            knee=control.TorqueCommand(0.0, 35.0, 0.0),
        )
        state = make_state(HopPhase.FLIGHT, 0.9, 0.0, 0.45, 0.0)
        dt = 2.5e-4
        n = 40
        for _ in range(n):
            state = sim.step(state, zero, dt, b.params, b.geometry)
        assert state.v_body == pytest.approx(-b.params.g * n * dt, abs=1e-12)
        assert state.v_foot == pytest.approx(-b.params.g * n * dt, abs=1e-12)

    def test_rejects_nonpositive_dt(self, bundle_physical):
        b = bundle_physical
        state = make_state(HopPhase.FLIGHT, 0.9, 0.0, 0.45, 0.0)
        with pytest.raises(ValueError):
            sim.step(state, None, 0.0, b.params, b.geometry)

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
    def test_landing_interpolated_at_half(self, bundle_physical):
        p = bundle_physical.params
        prev = make_state(HopPhase.FLIGHT, 0.7, -1.0, 0.001, -1.0, t=0.0)
        nxt = make_state(HopPhase.FLIGHT, 0.6995, -1.0, -0.001, -1.0, t=5e-4)
        ev = sim.detect_transition(prev, nxt, p)
        assert ev is not None and ev.kind == "landing"
        assert ev.t == pytest.approx(2.5e-4, rel=1e-12)

    def test_no_event_without_crossing(self, bundle_physical):
        p = bundle_physical.params
        prev = make_state(HopPhase.FLIGHT, 0.7, 1.0, 0.01, 1.0, t=0.0)
        nxt = make_state(HopPhase.FLIGHT, 0.70025, 1.0, 0.01025, 1.0, t=2.5e-4)
        assert sim.detect_transition(prev, nxt, p) is None

    def test_no_landing_when_foot_moving_up(self, bundle_physical):
        p = bundle_physical.params
        prev = make_state(HopPhase.FLIGHT, 0.7, 1.0, 0.001, 1.0, t=0.0)
        nxt = make_state(HopPhase.FLIGHT, 0.7, 1.0, -0.001, 1.0, t=2.5e-4)
        # height crossed but velocity interpolates positive: no event
        assert sim.detect_transition(prev, nxt, p) is None

    def test_lift_on_pin_force_zero_crossing(self, bundle_physical):
        p = bundle_physical.params
        prev = make_state(HopPhase.STANCE, 0.45, 1.0, 0.0, 0.0, t=0.0, pin=4.0)
        nxt = make_state(HopPhase.STANCE, 0.4505, 1.0, 0.0, 0.0, t=5e-4, pin=-4.0)
        ev = sim.detect_transition(prev, nxt, p)
        assert ev is not None and ev.kind == "lift"
        assert ev.t == pytest.approx(2.5e-4, rel=1e-12)

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
        law = lambda y_rel, v_rel: p.k_s * (p.y_s_neu - y_rel)
        state = make_state(HopPhase.STANCE, analytic.stance_position(0.0, p), 0.0, 0.0, 0.0)
        state.pin_force = p.m_e * p.g + law(state.y_body, 0.0)
        dt = 1e-5
        event = None
        for _ in range(40000):
            nxt = sim.step(state, None, dt, p, b.geometry, force_law=law)
            event = sim.detect_transition(state, nxt, p)
            if event is not None:
                break
            state = nxt
        assert event is not None and event.kind == "lift"
        y_lift = p.m_e * p.g / p.k_s + p.y_s_neu
        assert event.y_body == pytest.approx(y_lift, abs=1e-6)


class TestTwoMassReference:
    def test_switch_times_both_presets(self, physical, paper_literal):
        for p in (physical, paper_literal):
            ref = sim.TwoMassReference(p).run(hops=2)
            t_lo, t_ld = analytic.switch_times(p)
            assert ref.first_lift() == pytest.approx(t_lo, abs=1e-3)
            assert ref.flight_duration() == pytest.approx(t_ld - t_lo, abs=1e-3)
            assert ref.hop_period() == pytest.approx(analytic.hop_period(p), abs=1e-3)


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

    def test_duration_zero_logs_initial_record_only(self, bundle_physical):
        res = sim.run(RunSetup(bundle=bundle_physical, controller="force", duration=0.0))
        assert res.ok
        assert len(res.log.records) == 1
        assert res.log.records[0].t == 0.0

    def test_determinism_bitwise(self, bundle_physical):
        a = sim.run(RunSetup(bundle=bundle_physical, controller="force", hops=2))
        b = sim.run(RunSetup(bundle=bundle_physical, controller="force", hops=2))
        assert a.log.to_csv() == b.log.to_csv()
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
        ],
    )
    def test_rejects_bad_run_knobs(self, bundle_physical, knobs):
        setup = RunSetup(bundle=bundle_physical, controller="force", hops=1)
        for name, value in knobs.items():
            setattr(setup, name, value)
        with pytest.raises(ValueError):
            sim.run(setup)

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
    def test_hop_target_not_reached_aborts(self, physical, controller):
        from hopsim import model

        # a motor too weak to push off never lands again
        bundle = model.validate(physical, MotorParams(tau_max=0.001))
        res = sim.run(
            RunSetup(bundle=bundle, controller=controller, hops=3, max_duration=0.2)
        )
        assert not res.ok
        assert res.status == "aborted: hop target not reached (0 of 3 landings by t=0.200000)"
        assert res.log.failure == res.status.removeprefix("aborted: ")
        assert len(res.log.records) == 801  # every tick up to max_duration, and the last state

    @pytest.mark.parametrize("controller", ["force", "position"])
    @pytest.mark.parametrize("dt", [2.5e-4, 2.5e-5])
    def test_leg_terms_evaluated_once_per_configuration(
        self, bundle_physical, monkeypatch, controller, dt
    ):
        # four per RK4 substep (stages 2-4 and the end state), five per event
        # (the event state and the remainder's substep), one for the initial
        # joint state and one for the first tick: a tick starts from the leg
        # terms the previous tick ended on
        calls = []
        inner = sim._leg_terms

        def counting(y_rel, geo):
            calls.append(1)
            return inner(y_rel, geo)

        monkeypatch.setattr(sim, "_leg_terms", counting)
        res = sim.run(RunSetup(bundle=bundle_physical, controller=controller, hops=1, dt=dt))
        assert res.ok
        ticks = len(res.log.records) - 1
        n_sub = round(2.5e-4 / dt)
        assert len(calls) == 2 + 4 * n_sub * ticks + 5 * len(res.log.events)

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
        header = force_run_3hops.log.to_csv().splitlines()[0]
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
        zero = control.JointCommands(
            hip=control.TorqueCommand(0.0, 35.0, 0.0),
            knee=control.TorqueCommand(0.0, 35.0, 0.0),
        )
        for _ in range(20):
            state = sim.step(state, zero, 2.5e-4, b.params, b.geometry)
        y_rel = state.y_body - state.y_foot
        assert y_rel >= lo - 1e-12
        # plastic stop: masses move together afterwards
        assert state.v_body == pytest.approx(state.v_foot, abs=1e-9)

    def test_stance_fold_stop_holds_body(self, bundle_physical):
        b = bundle_physical
        lo = b.geometry.constants.y_lo
        state = make_state(HopPhase.STANCE, lo + 1e-4, -4.0, 0.0, 0.0)
        zero = control.JointCommands(
            hip=control.TorqueCommand(0.0, 35.0, 0.0),
            knee=control.TorqueCommand(0.0, 35.0, 0.0),
        )
        for _ in range(10):
            state = sim.step(state, zero, 2.5e-4, b.params, b.geometry)
        assert state.y_body >= lo - 1e-12
