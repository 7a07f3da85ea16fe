import pytest

from hopsim import analytic, kinematics, model, sim
from hopsim.model import Gains, LegGeometry, MotorParams

# Envelope large enough that the ideal-spring oracle command never clips;
# the clamp pipeline stays active so its invariants still hold.
ORACLE_MOTOR = MotorParams(tau_max=2000.0, omega_max=1000.0, R=1.0)


def reference_to_csv(log):
    """TelemetryLog.to_csv as first written (a per-field join), kept as the oracle."""
    lines = [log.csv_header()]
    for r in log.records:
        lines.append(
            ",".join(r.phase if i == 1 else repr(v) for i, v in enumerate(r))
        )
    return "\n".join(lines) + "\n"


def task_force(tau_hip, tau_knee, theta_knee, geo):
    """Vertical task-space force produced by the joint torques (no command
    reads it, so it lives with the tests).

    Virtual work along the one-DOF aligned-leg manifold:
    F*dy = tau_knee*dtheta_knee + tau_hip*dtheta_hip.
    """
    dy_dknee, dhip_dknee, singular = kinematics._jacobian_terms(theta_knee, geo)
    if singular:
        return 0.0
    return (tau_knee + tau_hip * dhip_dknee) / dy_dknee


@pytest.fixture(scope="session")
def physical():
    return model.physics_preset("physical")


@pytest.fixture(scope="session")
def paper_literal():
    return model.physics_preset("paper-literal")


@pytest.fixture(scope="session")
def geometry():
    return LegGeometry()


@pytest.fixture(scope="session")
def bundle_physical(physical):
    return model.validate(physical)


@pytest.fixture(scope="session")
def bundle_oracle(physical, geometry):
    return model.validate(physical, ORACLE_MOTOR, Gains(), geometry)


@pytest.fixture(scope="session")
def force_run_1hop(bundle_physical):
    res = sim.run(sim.RunSetup(bundle=bundle_physical, controller="force", hops=1))
    assert res.ok, res.status
    return res


@pytest.fixture(scope="session")
def force_run_3hops(bundle_physical):
    res = sim.run(sim.RunSetup(bundle=bundle_physical, controller="force", hops=3))
    assert res.ok, res.status
    return res


@pytest.fixture(scope="session")
def position_run_1hop(bundle_physical):
    res = sim.run(sim.RunSetup(bundle=bundle_physical, controller="position", hops=1))
    assert res.ok, res.status
    return res


@pytest.fixture(scope="session")
def spring_stance_run(bundle_oracle, physical):
    """Ideal-spring command integrated over one analytic stance window."""
    t_lo, _ = analytic.switch_times(physical)
    res = sim.run(
        sim.RunSetup(
            bundle=bundle_oracle,
            controller="spring",
            duration=t_lo,
            dt=2.5e-4,
            control_rate=4000.0,
        )
    )
    assert res.ok, res.status
    return res
