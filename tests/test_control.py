import math

import pytest
from hypothesis import given, strategies as st

from hopsim import analytic, control, sim
from hopsim.control import (
    ForceController,
    PositionController,
    actuator_saturation,
    back_emf,
    clamp,
    make_command,
    motor_saturation,
    pd_torque,
)
from hopsim.model import Gains, HopPhase, MotorParams

MOTOR = MotorParams()  # tau_max=0.35, omega_max=520, R=100


class TestPdTorque:
    def test_equilibrium(self):
        g = Gains(k_p=5424.0, k_d=9.0)
        assert pd_torque(0.3, 0.0, 0.3, g) == 0.0

    def test_table_gain_example(self):
        g = Gains(k_p=5424.0, k_d=9.0)
        # theta_act - theta_des = -0.01 at rest
        assert pd_torque(0.29, 0.0, 0.30, g) == pytest.approx(54.24, abs=1e-12)

    def test_pure_damping(self):
        g = Gains(k_p=0.0, k_d=9.0)
        assert pd_torque(0.1, 2.0, 0.7, g) == pytest.approx(-18.0, abs=1e-12)

    @given(
        theta=st.floats(-2.0, 2.0),
        delta=st.floats(-1.0, 1.0),
        rate=st.floats(-20.0, 20.0),
    )
    def test_affine_in_angle(self, theta, delta, rate):
        g = Gains(k_p=5424.0, k_d=9.0)
        base = pd_torque(theta, rate, 0.0, g)
        shifted = pd_torque(theta + delta, rate, 0.0, g)
        assert shifted - base == pytest.approx(-g.k_p * delta, rel=1e-9, abs=1e-9)


class TestSaturationEnvelope:
    def test_stall_torque(self):
        assert motor_saturation(0.0, MOTOR) == MOTOR.tau_max

    def test_no_load_speed(self):
        assert motor_saturation(MOTOR.omega_max, MOTOR) == 0.0
        assert motor_saturation(-MOTOR.omega_max, MOTOR) == 0.0

    def test_linear_midpoint(self):
        assert motor_saturation(MOTOR.omega_max / 2.0, MOTOR) == pytest.approx(
            MOTOR.tau_max / 2.0, abs=1e-15
        )

    def test_zero_beyond_no_load(self):
        assert motor_saturation(MOTOR.omega_max * 1.5, MOTOR) == 0.0

    @given(st.floats(0.0, 520.0))
    def test_back_emf_identity(self, speed):
        # envelope torque plus back-EMF loss equals the stall torque
        total = motor_saturation(speed, MOTOR) + back_emf(speed, MOTOR)
        assert total == pytest.approx(MOTOR.tau_max, rel=1e-12, abs=1e-15)

    def test_back_emf_endpoints(self):
        assert back_emf(0.0, MOTOR) == 0.0
        assert back_emf(MOTOR.omega_max, MOTOR) == pytest.approx(
            MOTOR.tau_max, abs=1e-15
        )

    def test_geared_stall(self):
        assert actuator_saturation(0.0, MOTOR) == pytest.approx(35.0, abs=1e-12)

    def test_geared_no_load(self):
        assert actuator_saturation(MOTOR.omega_max / MOTOR.R, MOTOR) == 0.0

    @given(st.floats(-8.0, 8.0))
    def test_actuator_is_scaled_motor_envelope(self, thetad):
        expected = MOTOR.R * motor_saturation(MOTOR.R * thetad, MOTOR)
        assert actuator_saturation(thetad, MOTOR) == pytest.approx(
            expected, rel=1e-12, abs=1e-15
        )

    def test_never_negative(self):
        for s in (0.0, 1.0, 5.19, 5.2, 6.0, 100.0):
            assert actuator_saturation(s, MOTOR) >= 0.0


class TestClamp:
    def test_positive_clip(self):
        assert clamp(100.0, 60.0) == 60.0

    def test_negative_clip(self):
        assert clamp(-100.0, 60.0) == -60.0

    def test_pass_through(self):
        assert clamp(30.0, 60.0) == 30.0

    @given(st.floats(-1e4, 1e4), st.floats(0.0, 1e3))
    def test_idempotent(self, tau, bound):
        once = clamp(tau, bound)
        assert clamp(once, bound) == once

    @given(st.floats(-1e4, 1e4), st.floats(0.0, 1e3))
    def test_odd(self, tau, bound):
        assert clamp(-tau, bound) == -clamp(tau, bound)

    @given(st.floats(-1e4, 1e4), st.floats(0.0, 1e3))
    def test_within_bound(self, tau, bound):
        assert abs(clamp(tau, bound)) <= bound

    @given(st.floats(-500.0, 500.0), st.floats(-8.0, 8.0))
    def test_command_invariant(self, tau, thetad):
        cmd = make_command(tau, thetad, MOTOR)
        assert abs(cmd.tau_des) <= cmd.tau_sat
        if abs(tau) <= cmd.tau_sat:
            assert cmd.tau_des == tau


class TestCommandTypes:
    def test_fields_order_and_default(self):
        assert control.TorqueCommand._fields == ("tau_dyn", "tau_sat", "tau_des")
        assert control.JointCommands._fields == ("hip", "knee", "ik_clamped")
        hip = control.TorqueCommand(tau_dyn=1.0, tau_sat=2.0, tau_des=1.0)
        knee = control.TorqueCommand(-3.0, 2.0, -2.0)
        cmd = control.JointCommands(hip, knee)
        assert cmd.ik_clamped is False
        assert cmd.hip.tau_dyn == 1.0 and cmd.knee.tau_des == -2.0
        assert control.JointCommands(hip=hip, knee=knee, ik_clamped=True).ik_clamped is True

    def test_immutable(self):
        cmd = control.JointCommands(make_command(1.0, 0.0, MOTOR), make_command(2.0, 0.0, MOTOR))
        with pytest.raises(AttributeError):
            cmd.ik_clamped = True
        with pytest.raises(AttributeError):
            cmd.hip.tau_des = 0.0


class TestControllerSteps:
    def test_flight_apex_zero_command(self, bundle_physical):
        b = bundle_physical
        ctrl = ForceController(analytic.TrajectoryCycle(b.params), b.geometry, b.motor, b.gains)
        th_h, th_k, _, _, _ = ctrl.joint_targets()
        state = sim.SimState(
            t=0.0,
            phase=HopPhase.FLIGHT,
            y_body=0.5,
            v_body=0.0,
            y_foot=0.1,
            v_foot=0.0,
            joints=sim.joint_state_for(0.4, 0.0, b.geometry),
        )
        # put the actual joints exactly on target at rest
        state.joints.theta_hip = th_h
        state.joints.theta_knee = th_k
        state.joints.thetad_hip = 0.0
        state.joints.thetad_knee = 0.0
        cmd = ctrl.command(state)
        assert cmd.knee.tau_des == pytest.approx(0.0, abs=1e-12)
        assert cmd.hip.tau_des == pytest.approx(0.0, abs=1e-12)

    def test_every_step_within_envelope(self, force_run_3hops):
        for r in force_run_3hops.log.records:
            assert abs(r.tau_des_knee) <= r.tau_sat_knee + 1e-12
            assert abs(r.tau_des_hip) <= r.tau_sat_hip + 1e-12

    def test_force_mode_rides_envelope_at_stance_bottom(self, force_run_3hops):
        # local minima of body height during stance after the first hop:
        # the raw command exceeds the bound there, so the knee is clamped
        recs = force_run_3hops.log.records
        lifts = force_run_3hops.log.lift_events()
        first_lift_t = lifts[0].t
        bottoms = [
            r1
            for r0, r1, r2 in zip(recs, recs[1:], recs[2:])
            if r1.phase == "stance"
            and r1.t > first_lift_t
            and r0.y_body >= r1.y_body <= r2.y_body
        ]
        assert bottoms
        clamped = [abs(b.tau_dyn_knee) > b.tau_sat_knee for b in bottoms]
        assert any(clamped)
        for b in bottoms:
            if abs(b.tau_dyn_knee) > b.tau_sat_knee:
                assert abs(b.tau_des_knee) == pytest.approx(b.tau_sat_knee, abs=1e-12)

    def test_position_mode_below_envelope_at_stance_start(self, position_run_1hop):
        first = position_run_1hop.log.records[0]
        assert first.c_act_knee < 1.0

    def test_position_tracking_gains_scale(self):
        g = control.position_tracking_gains(MOTOR)
        assert g.k_p == pytest.approx(MOTOR.R * MOTOR.tau_max / 0.35, rel=1e-12)
        assert g.k_d == pytest.approx(0.02 * g.k_p, rel=1e-12)

    def test_controller_commands_within_envelope(self, bundle_physical):
        b = bundle_physical
        setup = sim.RunSetup(bundle=b, controller="force", hops=1)
        state = sim.initial_state(setup)
        cmd_f = control.ForceController(setup.cycle, b.geometry, b.motor, b.gains).command(state)
        cmd_p = control.PositionController(setup.cycle, b.geometry, b.motor).command(state)
        for cmd in (cmd_f, cmd_p):
            assert abs(cmd.knee.tau_des) <= cmd.knee.tau_sat
            assert abs(cmd.hip.tau_des) <= cmd.hip.tau_sat


class TestVirtualSpring:
    def test_force_law_matches_spring_plus_weight(self, bundle_oracle):
        b = bundle_oracle
        ctrl = control.VirtualSpringController(b.params, b.geometry, b.motor)
        p = b.params
        for y in (0.30, 0.40, 0.45, 0.50):
            expected = p.k_s * (p.y_s_neu - y) + p.m * p.g
            assert ctrl.force_law(y) == pytest.approx(expected, rel=1e-12)

    def test_command_maps_force_to_knee(self, bundle_oracle):
        b = bundle_oracle
        ctrl = control.VirtualSpringController(b.params, b.geometry, b.motor)
        state = sim.initial_state(sim.RunSetup(bundle=b, controller="spring", hops=1))
        cmd = ctrl.command(state)
        assert cmd.hip.tau_des == 0.0
        force = ctrl.force_law(state.y_body)
        from hopsim import kinematics

        expected = kinematics.knee_torque_for_force(
            force, state.joints.theta_knee, b.geometry
        )
        assert cmd.knee.tau_des == pytest.approx(expected, rel=1e-12)
