import math

import pytest
from hypothesis import given, strategies as st

from hopsim import model
from hopsim.errors import ParameterError
from hopsim.model import Gains, HopperParams, LegGeometry, MotorParams


def test_flight_stiffnesses_table_values():
    # k_s*(m+m_e)/m_e and k_s*(m+m_e)/m with the tabulated parameter set
    p = HopperParams(m=5.6, m_e=0.8, k_s=17.0)
    k_f_m, k_f_e = model.flight_stiffnesses(p)
    assert k_f_m == pytest.approx(136.0, abs=1e-12)
    assert k_f_e == pytest.approx(19.428571428571427, abs=1e-12)
    assert k_f_m > p.k_s and k_f_e > p.k_s


def test_flight_stiffnesses_symmetric_masses():
    p = HopperParams(m=1.0, m_e=1.0, k_s=1.0)
    assert model.flight_stiffnesses(p) == (2.0, 2.0)


def test_flight_stiffnesses_heavy_body_limit():
    p = HopperParams(m=1e9, m_e=1.0, k_s=1.0)
    k_f_m, k_f_e = model.flight_stiffnesses(p)
    assert k_f_m == pytest.approx(1e9, rel=1e-6)
    assert k_f_e == pytest.approx(1.0, rel=1e-6)


@given(
    m=st.floats(0.1, 1e4),
    m_e=st.floats(0.01, 1e3),
    k_s=st.floats(0.1, 1e6),
)
def test_flight_stiffness_identity(m, m_e, k_s):
    p = HopperParams(m=m, m_e=m_e, k_s=k_s)
    k_f_m, k_f_e = model.flight_stiffnesses(p)
    total = k_s * (m + m_e)
    assert k_f_m * m_e == pytest.approx(total, rel=1e-12)
    assert k_f_e * m == pytest.approx(total, rel=1e-12)


def test_validate_paper_literal_reach_warning(paper_literal):
    bundle = model.validate(paper_literal)
    assert len(bundle.warnings) == 1
    assert bundle.warnings[0] == "lift-off height 0.9116 m exceeds reach 0.741 m"


def test_validate_physical_no_warning(physical):
    bundle = model.validate(physical)
    assert bundle.warnings == ()
    # lift-off height 0.4546 m is inside the 0.741 m reach
    assert model.lift_off_height(physical) == pytest.approx(0.4546, abs=1e-4)


def test_validate_rejects_zero_stiffness():
    with pytest.raises(ParameterError) as exc:
        model.validate(HopperParams(k_s=0.0))
    assert "k_s" in exc.value.fields


def test_validate_reports_every_violation():
    with pytest.raises(ParameterError) as exc:
        model.validate(
            HopperParams(m=-1.0, k_s=0.0, C_max=1.5),
            MotorParams(R=0.5),
        )
    assert {"m", "k_s", "C_max", "R"} <= set(exc.value.fields)


def test_validate_is_idempotent(physical):
    b1 = model.validate(physical)
    b2 = model.validate(b1.params, b1.motor, b1.gains, b1.geometry)
    assert b1 == b2


def test_physics_presets():
    assert model.physics_preset("paper-literal").k_s == 17.0
    assert model.physics_preset("physical").k_s == 1700.0
    with pytest.raises(KeyError):
        model.physics_preset("nope")


def test_default_geometry_matches_leg():
    geo = LegGeometry()
    assert geo.L1 == 0.38 and geo.L2 == 0.361


def test_default_geometry_has_a_usable_leg_map(physical):
    # validate checks the leg map only of a geometry its caller passes, so
    # the one it defaults to must pass that check
    assert model.validate(physical, geometry=LegGeometry()).geometry == LegGeometry()


def test_leg_map_checked_only_for_a_passed_geometry(physical, monkeypatch):
    from hopsim import kinematics, sim

    calls = []
    inner = kinematics.inverse_kinematics

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(kinematics, "inverse_kinematics", counting)
    sim.TwoMassReference(physical, 2.5e-5)
    assert model.validate(physical).geometry == LegGeometry()
    assert not calls
    model.validate(physical, geometry=LegGeometry())
    assert len(calls) == 1


def test_default_gains_are_table_values():
    g = Gains()
    assert g.k_p == 5424.0 and g.k_d == 9.0


# (dataclass, field) for every motor, gain and geometry float
NON_HOPPER_FLOATS = [
    (MotorParams, "tau_max"),
    (MotorParams, "omega_max"),
    (MotorParams, "R"),
    (Gains, "k_p"),
    (Gains, "k_d"),
    (LegGeometry, "L1"),
    (LegGeometry, "L2"),
]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(("cls", "name"), NON_HOPPER_FLOATS)
def test_validate_rejects_non_finite_motor_gain_geometry(physical, cls, name, value):
    part = cls(**{name: value})
    with pytest.raises(ParameterError) as exc:
        model.validate(
            physical,
            part if cls is MotorParams else None,
            part if cls is Gains else None,
            part if cls is LegGeometry else None,
        )
    assert name in exc.value.fields
    assert (name, "must be finite") in exc.value.violations
