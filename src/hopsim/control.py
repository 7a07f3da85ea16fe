"""Torque laws, the actuator saturation envelope, and controller pipelines.

All commanded torques pass through one clamp step, :func:`clamp_joints`:
each joint's raw torque is clipped to the geared torque-speed envelope of
its motor at the joint's current speed.  Three command sources feed it:

* ForceController  — stance PD law with a large proportional gain, intended
  to ride the saturation envelope through stance.
* PositionController — trajectory-tracking PD on position and velocity error.
* VirtualSpringController — the ideal spring law with bodyweight
  feedforward; used as the analytic oracle for the plant integration.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import analytic, kinematics
from .model import Gains, HopperParams, HopPhase, LegGeometry, MotorParams

_new_command = tuple.__new__  # (cls, fields): cls(*fields) without its __new__ call


class TorqueCommand(NamedTuple):
    """One joint's command: raw PD torque, envelope bound, clamped result."""

    tau_dyn: float  # desired raw torque, N*m joint side
    tau_sat: float  # saturation bound at the current speed, N*m
    tau_des: float  # clamped command actually applied, N*m


class JointCommands(NamedTuple):
    """Per-joint commands for one control tick."""

    hip: TorqueCommand
    knee: TorqueCommand
    ik_clamped: bool = False  # desired length was outside reach this tick


def pd_torque(theta_act: float, thetad_act: float, theta_des: float, g: Gains) -> float:
    """Stance PD law: -k_p*(theta_act - theta_des) - k_d*thetad_act.

    Note the damping acts on the absolute joint velocity, not the velocity
    error.
    """
    return -g.k_p * (theta_act - theta_des) - g.k_d * thetad_act


def motor_saturation(thetad_motor: float, m: MotorParams) -> float:
    """Motor-side torque ceiling at the given motor speed; never negative."""
    speed = abs(thetad_motor)
    if speed > m.omega_max:
        return 0.0
    return m.tau_max * (1.0 - speed / m.omega_max)


def back_emf(thetad_act: float, m: MotorParams) -> float:
    """Equivalent damping torque lost to back-EMF, (tau_max/omega_max)*speed."""
    return m.tau_max / m.omega_max * thetad_act


def actuator_saturation(thetad_act: float, m: MotorParams) -> float:
    """Joint-side torque ceiling at the given joint speed.

    The gear multiplies motor torque by R and the motor sees R times the
    joint speed, so this is exactly R*motor_saturation(R*thetad_act).
    """
    return m.R * motor_saturation(m.R * thetad_act, m)


def clamp(tau_dyn: float, tau_sat: float) -> float:
    """Clip a raw torque to the envelope bound, preserving sign."""
    if abs(tau_dyn) <= tau_sat:
        return tau_dyn
    return math.copysign(tau_sat, tau_dyn)


def make_command(tau_dyn: float, thetad_act: float, motor: MotorParams) -> TorqueCommand:
    """Run one raw torque through the envelope clamp: :func:`actuator_saturation`
    and :func:`clamp`, inline."""
    speed = abs(motor.R * thetad_act)
    omega_max = motor.omega_max
    tau_sat = motor.R * (0.0 if speed > omega_max else motor.tau_max * (1.0 - speed / omega_max))
    tau_des = tau_dyn if abs(tau_dyn) <= tau_sat else math.copysign(tau_sat, tau_dyn)
    return _new_command(TorqueCommand, (tau_dyn, tau_sat, tau_des))


def clamp_joints(
    tau_hip: float, tau_knee: float, state, motor: MotorParams, ik_clamped: bool = False
) -> JointCommands:
    """Both joints' raw torques through the envelope clamp, at the joint
    speeds ``thetad_hip`` and ``thetad_knee`` of ``state``; every
    controller's command ends here."""
    return _new_command(JointCommands, (
        make_command(tau_hip, state.thetad_hip, motor),
        make_command(tau_knee, state.thetad_knee, motor),
        ik_clamped,
    ))


def position_tracking_gains(motor: MotorParams) -> Gains:
    """Tracking-servo gains scaled from the actuator envelope.

    The proportional gain commands the full joint stall torque at 0.35 rad
    of error, which keeps the command below the low-speed envelope for
    ordinary tracking errors (the servo trades torque headroom for
    accuracy); the derivative gain weights velocity error with a 0.02 s
    time constant.
    """
    k_p = motor.R * motor.tau_max / 0.35
    return Gains(k_p=k_p, k_d=0.02 * k_p)


class _TrajectoryController:
    """Shared machinery: desired joint targets from the trajectory cycle.

    The trajectory clock runs freely through stance (wrapping at the period)
    but pauses at the touchdown-ready point while airborne, so a flight that
    outlasts the planned window holds the landing posture, whose targets
    (``_held``) are computed once, in ``__init__``.

    A detected touchdown enters a landing segment instead of replaying the
    canonical descent: the desired leg length follows the spring response
    fitted to the actual touchdown state (same stance frequency, amplitude and
    phase from the measured length and rate) and holds its bottom (``_bottom``,
    computed with the fit).  A mismatched canonical descent would command a
    faster drop than the actual fall and yank the foot off the ground.  Once
    the measured leg stops compressing, the clock rejoins the canonical ascent
    at the phase matching the actual leg length, so the push always starts from
    the depth actually reached; the rejoin clears the segment, which the next
    landing sets anew before any target reads it.
    """

    force_law = None  # the plant holds this controller's torques over a tick

    def __init__(self, cycle: analytic.TrajectoryCycle, geo: LegGeometry, motor: MotorParams):
        self.geometry = geo
        self.motor = motor
        self.cycle = cycle
        self.t_traj = 0.0
        self._landing = self._bottom = None  # fitted descent (amplitude, phase), its bottom
        self._landing_tau = 0.0
        self._compressed = False  # leg has been seen compressing since touchdown
        self._omega = analytic.stance_omega(cycle.params)
        # Desired lengths are capped at the leg stops.
        self._y_lo, self._y_hi = geo.constants.y_lo, geo.constants.y_hi
        t = cycle.touchdown_time  # the clock a long flight holds
        self._held = self._targets(cycle.y_des(t), cycle.y_des_rate(t))

    def _ascent_phase_for_length(self, y_rel: float) -> float:
        """Canonical ascent time whose leg length matches y_rel (clamped)."""
        p = self.cycle.params
        amp = analytic.stance_amplitude(p)
        ratio = min(1.0, max(-1.0, (p.y_s_neu - y_rel) / amp))
        return math.acos(ratio) / self._omega

    def advance(self, dt: float, state, touchdown) -> bool:
        """Move the clock over a tick that ended in ``state``, first fitting the
        descent to ``touchdown``, the tick's last landing (foot at rest at 0);
        True if the clock rejoined the ascent (and cleared the segment)."""
        if touchdown is not None:
            w, y_s_neu = self._omega, self.cycle.params.y_s_neu
            dy, v_td = touchdown.y_body - y_s_neu, touchdown.v_body
            b, pi = math.hypot(dy, v_td / w), math.pi  # _bottom: the targets at arg = pi
            self._landing = (b, math.atan2(-v_td / w, dy))
            self._bottom = self._targets(y_s_neu + b * math.cos(pi), -b * w * math.sin(pi))
            self._landing_tau = 0.0
            self._compressed = v_td < 0.0
        phase, y_rel, v_rel = state.phase, state.y_body - state.y_foot, state.v_body - state.v_foot
        if self._landing is not None:
            if v_rel < 0.0:
                self._compressed = True
            if phase is HopPhase.STANCE and self._compressed and v_rel >= 0.0:
                self.t_traj = min(self._ascent_phase_for_length(y_rel), self.cycle.t_lo)
                self._landing = self._bottom = None
                self._landing_tau, self._compressed = 0.0, False
                return True
            self._landing_tau += dt
        elif phase is HopPhase.FLIGHT:
            self.t_traj = min(self.t_traj + dt, self.cycle.touchdown_time)
        else:
            self.t_traj = (self.t_traj + dt) % self.cycle.period
        return False

    def joint_targets(self) -> tuple[float, float, float, float, bool]:
        """Desired (theta_hip, theta_knee, thetad_hip, thetad_knee, clamped)."""
        if self._landing is not None:
            (b, phi), w = self._landing, self._omega
            arg = w * self._landing_tau + phi
            if arg >= math.pi:  # hold the fitted bottom while the leg still compresses
                return self._bottom
            y_des, v_des = self.cycle.params.y_s_neu + b * math.cos(arg), -b * w * math.sin(arg)
        elif self.t_traj == self.cycle.touchdown_time:
            return self._held
        else:
            t = self.t_traj
            y_des, v_des = self.cycle.y_des(t), self.cycle.y_des_rate(t)
        return self._targets(y_des, v_des)

    def _targets(self, y_des: float, v_des: float) -> tuple[float, float, float, float, bool]:
        """Targets of a desired leg length (capped at the stops) and rate."""
        if self._y_lo < y_des < self._y_hi:
            th_h, th_k = kinematics.inverse_kinematics(y_des, self.geometry)
            return th_h, th_k, *kinematics.joint_rates(th_k, v_des, self.geometry), False
        y_des = min(max(y_des, self._y_lo), self._y_hi)  # clamped: no rate
        return *kinematics.inverse_kinematics(y_des, self.geometry), 0.0, 0.0, True


class ForceController(_TrajectoryController):
    """Stance torque law with the envelope clamp; rides the envelope when the
    proportional gain is large."""

    def __init__(self, cycle, geo, motor, gains: Gains):
        super().__init__(cycle, geo, motor)
        self.gains = gains

    def command(self, state) -> JointCommands:
        th_h, th_k, _, _, clamped = self.joint_targets()
        k_p, k_d = self.gains.k_p, self.gains.k_d
        tau_h = -k_p * (state.theta_hip - th_h) - k_d * state.thetad_hip  # pd_torque, inline
        tau_k = -k_p * (state.theta_knee - th_k) - k_d * state.thetad_knee
        return clamp_joints(tau_h, tau_k, state, self.motor, clamped)


class PositionController(_TrajectoryController):
    """Trajectory-tracking PD on position and velocity error, then clamped."""

    def __init__(self, cycle, geo, motor):
        super().__init__(cycle, geo, motor)
        self.gains = position_tracking_gains(motor)

    def command(self, state) -> JointCommands:
        th_h, th_k, thd_h, thd_k, clamped = self.joint_targets()
        k_p, k_d = self.gains.k_p, self.gains.k_d
        tau_h = k_p * (th_h - state.theta_hip) + k_d * (thd_h - state.thetad_hip)
        tau_k = k_p * (th_k - state.theta_knee) + k_d * (thd_k - state.thetad_knee)
        return clamp_joints(tau_h, tau_k, state, self.motor, clamped)


class VirtualSpringController:
    """Ideal two-mass spring law with bodyweight feedforward.

    The task force k_s*(y_s_neu - y) + m*g makes the closed-loop stance
    dynamics exactly the analytic stance oscillator, which is what the
    integration-accuracy and energy-audit oracles check against.  The force
    is carried by the knee alone.  ``force_law`` reads the leg length alone,
    and the plant evaluates it inside the integrator stages (no zero-order
    hold), so the closed loop has no discretization of the command itself.

    Its lift-off is not the model's.  The feedforward's reaction pushes the
    foot down with m*g as well, so the stance pin force m_e*g + force
    reaches zero at the leg length y_s_neu + (m + m_e)*g/k_s (0.48693 m on
    the physical preset), not at the model's y_s_neu + m_e*g/k_s
    (0.45462 m).  On the same stance cosine the leg gets there 12.3167 ms
    after the analytic t_lo, at every dt (2.5e-4, 1e-4 and 2.5e-5 s alike):
    the offset is the lift condition, not integration error.

    The plant integrates the unclamped ``force_law``, while :meth:`command`,
    which the run records, clamps the knee torque to the motor envelope.
    Under a motor the spring saturates, such as the default one, the log and
    its work and energy audit thus describe torques the plant never applied,
    which ``run`` and ``compare`` warn of; the oracle tests use a motor the
    spring stays inside.
    """

    def __init__(self, p: HopperParams, geo: LegGeometry, motor: MotorParams):
        self.params = p
        self.geometry = geo
        self.motor = motor

    def force_law(self, y_rel: float) -> float:
        p = self.params
        return p.k_s * (p.y_s_neu - y_rel) + p.m * p.g

    def advance(self, dt: float, state, touchdown) -> bool:
        return False

    def command(self, state) -> JointCommands:
        force = self.force_law(state.y_body - state.y_foot)
        tau_k = kinematics.knee_torque_for_force(force, state.theta_knee, self.geometry)
        return clamp_joints(0.0, tau_k, state, self.motor)

