import math

import pytest
from hypothesis import given, strategies as st

from hopsim import kinematics
from hopsim.errors import UnreachableLengthError
from hopsim.kinematics import JointState
from hopsim.model import LegGeometry

from conftest import task_force

GEO = LegGeometry()


def grid(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def test_ik_law_of_cosines_example():
    # equal links at half reach: interior angle pi/3, knee angle 2*pi/3
    geo = LegGeometry(L1=0.5, L2=0.5)
    _, theta_knee = kinematics.inverse_kinematics(0.5, geo)
    assert theta_knee == pytest.approx(2.0 * math.pi / 3.0, abs=1e-12)


def test_ik_full_extension_limit():
    y = GEO.L1 + GEO.L2 - 1e-12
    _, theta_knee = kinematics.inverse_kinematics(y, GEO)
    assert abs(theta_knee) < 1e-4


def test_forward_straight_leg_reach():
    y, aligned = kinematics.forward_kinematics(JointState(theta_knee=0.0), GEO)
    assert y == pytest.approx(0.741, abs=1e-12)
    assert aligned


def test_forward_fully_folded():
    y, _ = kinematics.forward_kinematics(JointState(theta_knee=math.pi), GEO)
    assert y == pytest.approx(abs(GEO.L1 - GEO.L2), abs=1e-12)


def test_round_trip_on_grid():
    lo, hi = kinematics.reach_interval(GEO)
    worst = 0.0
    for y in grid(lo + 1e-3, hi - 1e-3, 1000):
        th_h, th_k = kinematics.inverse_kinematics(y, GEO)
        y_back, aligned = kinematics.forward_kinematics(
            JointState(theta_hip=th_h, theta_knee=th_k), GEO
        )
        assert aligned
        worst = max(worst, abs(y_back - y))
    assert worst <= 1e-10


def test_round_trip_spec_length():
    y = 0.46165
    th_h, th_k = kinematics.inverse_kinematics(y, GEO)
    y_back, _ = kinematics.forward_kinematics(
        JointState(theta_hip=th_h, theta_knee=th_k), GEO
    )
    assert abs(y_back - y) <= 1e-12


@given(st.floats(0.05, 0.73))
def test_round_trip_property(y):
    lo, hi = kinematics.reach_interval(GEO)
    if not (lo + 1e-6 < y < hi - 1e-6):
        return
    th_h, th_k = kinematics.inverse_kinematics(y, GEO)
    y_back, _ = kinematics.forward_kinematics(
        JointState(theta_hip=th_h, theta_knee=th_k), GEO
    )
    assert abs(y_back - y) <= 1e-10


def test_unreachable_raises_with_bound():
    lo, hi = kinematics.reach_interval(GEO)
    with pytest.raises(UnreachableLengthError, match="unreachable length"):
        kinematics.inverse_kinematics(hi + 0.01, GEO)
    with pytest.raises(UnreachableLengthError):
        kinematics.inverse_kinematics(lo, GEO)


def fd_dy_dknee(theta_knee, geo, h=1e-6):
    y1, _ = kinematics.forward_kinematics(JointState(theta_knee=theta_knee + h), geo)
    y0, _ = kinematics.forward_kinematics(JointState(theta_knee=theta_knee - h), geo)
    return (y1 - y0) / (2.0 * h)


def test_jacobian_matches_finite_difference_example():
    geo = LegGeometry(L1=0.5, L2=0.5)
    jac = kinematics.leg_jacobian(JointState(theta_knee=math.pi / 2.0), geo)
    assert jac.dy_dknee == pytest.approx(fd_dy_dknee(math.pi / 2.0, geo), abs=1e-6)


def test_jacobian_finite_difference_grid():
    lo, hi = kinematics.reach_interval(GEO)
    for y in grid(lo + 1e-3, hi - 1e-3, 1000):
        _, th_k = kinematics.inverse_kinematics(y, GEO)
        jac = kinematics.leg_jacobian(JointState(theta_knee=th_k), GEO)
        assert jac.dy_dknee == pytest.approx(fd_dy_dknee(th_k, GEO), abs=1e-6)


def test_jacobian_singular_at_straight_leg():
    jac = kinematics.leg_jacobian(JointState(theta_knee=0.0), GEO)
    assert jac.singular
    assert jac.dy_dknee == 0.0


def test_jacobian_sign_negative_on_flexion_branch():
    for th_k in grid(0.05, math.pi - 0.05, 50):
        jac = kinematics.leg_jacobian(JointState(theta_knee=th_k), GEO)
        assert jac.dy_dknee < 0.0


def test_length_strictly_decreasing_in_knee():
    prev = None
    for th_k in grid(0.01, math.pi - 0.01, 500):
        y = kinematics.leg_length(th_k, GEO)
        if prev is not None:
            assert y < prev
        prev = y


def test_hip_alignment_halves_knee_for_equal_links():
    geo = LegGeometry(L1=0.4, L2=0.4)
    for th_k in grid(0.1, 2.5, 20):
        assert kinematics.hip_alignment_angle(th_k, geo) == pytest.approx(
            -th_k / 2.0, abs=1e-12
        )


def test_task_force_round_trip():
    # torque computed for a force maps back to the same force
    _, th_k = kinematics.inverse_kinematics(0.35, GEO)
    for force in (-120.0, -5.0, 0.0, 80.0, 250.0):
        tau = kinematics.knee_torque_for_force(force, th_k, GEO)
        assert task_force(0.0, tau, th_k, GEO) == pytest.approx(
            force, rel=1e-12, abs=1e-12
        )


def test_joint_rates_match_leg_rate():
    _, th_k = kinematics.inverse_kinematics(0.4, GEO)
    v_leg = 1.7
    thd_h, thd_k = kinematics.joint_rates(th_k, v_leg, GEO)
    jac = kinematics.leg_jacobian(JointState(theta_knee=th_k), GEO)
    assert jac.dy_dknee * thd_k == pytest.approx(v_leg, rel=1e-12)
    assert thd_h == pytest.approx(jac.dhip_dknee * thd_k, rel=1e-12)


def test_zero_length_leg_is_singular_with_zero_terms():
    # equal links folded flat: the leg length is exactly 0
    geo = LegGeometry(L1=0.4, L2=0.4)
    assert kinematics.leg_length(math.pi, geo) == 0.0
    jac = kinematics.leg_jacobian(JointState(theta_knee=math.pi), geo)
    assert jac == kinematics.LegJacobian(0.0, 0.0, 0.0, True)
    assert kinematics.joint_rates(math.pi, 1.0, geo) == (0.0, 0.0)
    assert task_force(1.0, -1.0, math.pi, geo) == 0.0
    assert kinematics.knee_torque_for_force(5.0, math.pi, geo) == 0.0
