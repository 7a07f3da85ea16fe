"""Planar two-link leg kinematics on a vertical guide.

The task coordinate is the hip-to-foot distance y.  Knee convention:
theta_knee = 0 is a straight leg, positive flexion shortens it, and the
interior knee angle is pi - theta_knee.  The hip angle is slaved to keep the
foot directly below the hip (the hopping motion is vertical), which makes the
leg a one-degree-of-freedom mechanism parameterized by y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UnreachableLengthError
from .model import LegGeometry


@dataclass(slots=True)
class JointState:
    theta_hip: float = 0.0     # rad
    theta_knee: float = 0.0    # rad
    thetad_hip: float = 0.0    # rad/s
    thetad_knee: float = 0.0   # rad/s


@dataclass(frozen=True)
class LegJacobian:
    """Partial derivatives of the leg length map at one configuration.

    dy_dhip is identically zero: rotating the whole leg about the hip does not
    change its length.  dhip_dknee is the slope of the foot-below-hip posture
    constraint, used to map both joint torques into one task-space force.
    """

    dy_dhip: float
    dy_dknee: float      # m/rad, negative on the knee_sign=+1 branch
    dhip_dknee: float    # posture coupling along the aligned-leg manifold
    singular: bool       # True at the straight or fully folded leg


def reach_interval(geo: LegGeometry) -> tuple[float, float]:
    """Open interval of leg lengths this geometry can realize."""
    c = geo.constants
    return c.reach_lo, c.reach_hi


def hip_alignment_angle(theta_knee: float, geo: LegGeometry) -> float:
    """Hip angle that puts the foot directly below the hip.

    For L1 == L2 this is exactly -theta_knee/2; unequal link lengths add the
    atan2 correction.
    """
    return -math.atan2(
        geo.L2 * math.sin(theta_knee), geo.L1 + geo.L2 * math.cos(theta_knee)
    )


def inverse_kinematics(y: float, geo: LegGeometry) -> tuple[float, float]:
    """Joint angles (theta_hip, theta_knee) realizing leg length y.

    The knee interior angle comes from the law of cosines; the branch is
    selected by geo.knee_sign.  y must lie strictly inside the reach interval.
    """
    c = geo.constants
    if not (c.reach_lo < y < c.reach_hi):
        raise UnreachableLengthError(y, c.reach_lo, c.reach_hi)
    cos_gamma = (c.sum_sq - y * y) / c.two_l1l2
    cos_gamma = min(1.0, max(-1.0, cos_gamma))
    gamma = math.acos(cos_gamma)           # interior knee angle
    theta_knee = c.knee_sign * (math.pi - gamma)
    theta_hip = hip_alignment_angle(theta_knee, geo)
    return theta_hip, theta_knee


def forward_kinematics(js: JointState, geo: LegGeometry) -> tuple[float, bool]:
    """Hip-to-foot distance for a joint state, and whether the foot is aligned.

    The second element reports whether the foot lies vertically below the hip
    within 1e-9 m of horizontal offset.
    """
    y = leg_length(js.theta_knee, geo)
    # Horizontal foot offset for the actual hip angle.
    x = geo.L1 * math.sin(js.theta_hip) + geo.L2 * math.sin(
        js.theta_hip + js.theta_knee
    )
    return y, abs(x) <= 1e-9


def leg_length(theta_knee: float, geo: LegGeometry) -> float:
    """Leg length as a function of the knee angle alone."""
    c = geo.constants
    return math.sqrt(c.sum_sq + c.two_l1l2 * math.cos(theta_knee))


def _jacobian_terms(theta_knee: float, geo: LegGeometry) -> tuple[float, float, bool]:
    """(dy_dknee, dhip_dknee, singular) at the given knee angle.

    The formula behind :func:`leg_jacobian`; the hot callers read it directly
    instead of building a LegJacobian per call, and :func:`joint_rates` inline.
    """
    c = geo.constants
    cos_k = math.cos(theta_knee)
    y = math.sqrt(c.sum_sq + c.two_l1l2 * cos_k)
    s = math.sin(theta_knee)
    singular = abs(s) < 1e-12 or y < 1e-12
    dy_dknee = c.neg_l1l2 * s / y if y > 0 else 0.0
    # d(theta_hip)/d(theta_knee) along the foot-below-hip constraint.
    y2 = y * y
    dhip_dknee = c.neg_l2 * (c.l2 + c.l1 * cos_k) / y2 if y2 != 0.0 else 0.0
    return dy_dknee, dhip_dknee, singular


def leg_jacobian(js: JointState, geo: LegGeometry) -> LegJacobian:
    """Length/posture differentials at the given configuration.

    Entries are returned even at singular configurations (straight or folded
    leg), where dy_dknee vanishes; ``singular`` flags them.
    """
    return LegJacobian(0.0, *_jacobian_terms(js.theta_knee, geo))


def joint_rates(theta_knee: float, v_leg: float, geo: LegGeometry) -> tuple[float, float]:
    """Joint velocities (hip, knee) for a leg-length rate along the posture manifold."""
    # _jacobian_terms inline; off the singular leg y is NaN or >= 1e-12, so y * y != 0
    c = geo.constants
    cos_k = math.cos(theta_knee)
    y = math.sqrt(c.sum_sq + c.two_l1l2 * cos_k)
    s = math.sin(theta_knee)
    if abs(s) < 1e-12 or y < 1e-12:
        return 0.0, 0.0
    thetad_knee = v_leg / (c.neg_l1l2 * s / y if y > 0 else 0.0)
    return c.neg_l2 * (c.l2 + c.l1 * cos_k) / (y * y) * thetad_knee, thetad_knee


def knee_torque_for_force(force: float, theta_knee: float, geo: LegGeometry) -> float:
    """Knee torque that alone produces the given task-space force."""
    return force * _jacobian_terms(theta_knee, geo)[0]
