"""Two-mass hopping-leg simulator and controller library.

Closed-form trajectory generation for a body-spring-foot hopper, a planar
two-link leg with a geared-motor torque-speed saturation envelope, force and
position controllers sharing the same envelope clamp, a hybrid fixed-step
simulator with event-detected stance/flight switching, and the metrics that
compare the two control strategies (saturation ratio, foot clearance,
energy audit, torque-speed trace against the admissible operating region).
"""

from .analytic import (
    LiftState,
    TrajectoryCycle,
    compensation,
    flight_leg_length,
    hop_period,
    lift_state,
    stance_position,
    stance_velocity,
    switch_times,
)
from .control import (
    ForceController,
    JointCommands,
    PositionController,
    TorqueCommand,
    VirtualSpringController,
    actuator_saturation,
    back_emf,
    clamp,
    motor_saturation,
    pd_torque,
    position_tracking_gains,
)
from .errors import (
    ConfigError,
    HopsimError,
    NoLiftOffError,
    ParameterError,
    SimulationAbort,
    UnreachableLengthError,
)
from .kinematics import (
    JointState,
    LegJacobian,
    forward_kinematics,
    inverse_kinematics,
    leg_jacobian,
)
from .metrics import (
    AorCurve,
    StanceWindow,
    aor_curve,
    average_saturation_ratio,
    energy_balance,
    foot_clearance,
    saturation_ratio,
    speed_torque_trace,
)
from .model import (
    Gains,
    HopPhase,
    HopperParams,
    LegGeometry,
    MotorParams,
    ValidatedBundle,
    flight_stiffnesses,
    physics_preset,
    validate,
)
from .sim import (
    Event,
    Record,
    RunResult,
    RunSetup,
    SimState,
    TelemetryLog,
    TwoMassReference,
    run,
)

__version__ = "0.1.0"
