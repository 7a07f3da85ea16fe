"""Physical parameters of the two-mass hopping leg and their validation.

The hopper is a body mass and a foot mass joined by a linear spring of
stiffness ``k_s`` and rest length ``y_s_neu``.  During stance the foot is
pinned to the ground and only the body moves; in flight both masses move and
the spring couples them through the relative (leg-length) coordinate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields
from functools import cache, cached_property
from typing import NamedTuple, get_type_hints

from .errors import ParameterError

STANDARD_GRAVITY = 9.81  # m/s^2
REACH_MARGIN = 1e-3  # m; the leg stops sit this far inside the reach interval


class HopPhase(enum.Enum):
    """Ground-contact segments of a hop cycle; exactly one active per instant."""

    STANCE = "stance"
    FLIGHT = "flight"


@dataclass(frozen=True)
class HopperParams:
    """Masses, spring and trajectory constants of the two-mass model.

    m_t is the thigh mass as listed in the reference parameter tables; it is
    recorded for fidelity but enters no dynamic equation.
    """

    m: float = 5.6          # body mass, kg
    m_e: float = 0.8        # foot mass, kg
    m_t: float = 1.87       # thigh mass, kg (recorded, unused by the dynamics)
    k_s: float = 1700.0     # spring stiffness, N/m
    y_s_neu: float = 0.45   # neutral spring length, m
    C_amp: float = 0.12     # stance amplitude, m
    C_max: float = 0.11     # max position compensation coefficient
    g: float = STANDARD_GRAVITY  # gravitational acceleration, m/s^2


@dataclass(frozen=True)
class MotorParams:
    """Torque-speed envelope of one joint actuator.

    tau_max and omega_max are motor-side; R is the gear reduction, so the
    joint-side stall torque is R*tau_max and the joint-side no-load speed is
    omega_max/R.
    """

    tau_max: float = 0.35    # max motor torque, N*m
    omega_max: float = 520.0  # max motor angular velocity, rad/s
    R: float = 100.0          # reduction ratio


@dataclass(frozen=True)
class Gains:
    """PD gains of the stance torque law (joint side)."""

    k_p: float = 5424.0  # N*m/rad
    k_d: float = 9.0     # N*m*s/rad


class LegConstants(NamedTuple):
    """Constants of the leg-length map, derived once per geometry."""

    y_lo: float      # folded stop, |L1 - L2| + REACH_MARGIN
    y_hi: float      # straight stop, L1 + L2 - REACH_MARGIN
    reach_lo: float  # |L1 - L2|, the open reach interval's ends
    reach_hi: float  # L1 + L2
    sum_sq: float    # L1**2 + L2**2
    two_l1l2: float  # 2*L1*L2
    neg_l1l2: float  # -L1*L2
    neg_l2: float    # -L2
    l1: float
    l2: float
    knee_sign: int


@dataclass(frozen=True)
class LegGeometry:
    """Planar two-link leg on a vertical guide."""

    L1: float = 0.38       # thigh length, m
    L2: float = 0.361      # shank length, m
    knee_sign: int = 1     # IK branch selector; +1 = backward knee

    @cached_property
    def constants(self) -> LegConstants:
        """Stop interval and leg-map constants, computed on first use."""
        L1, L2 = self.L1, self.L2
        return LegConstants(
            y_lo=abs(L1 - L2) + REACH_MARGIN,
            y_hi=L1 + L2 - REACH_MARGIN,
            reach_lo=abs(L1 - L2),
            reach_hi=L1 + L2,
            sum_sq=L1**2 + L2**2,
            two_l1l2=2.0 * L1 * L2,
            neg_l1l2=-L1 * L2,
            neg_l2=-L2,
            l1=L1,
            l2=L2,
            knee_sign=self.knee_sign,
        )


@dataclass(frozen=True)
class ValidatedBundle:
    """Parameter bundle that passed :func:`validate`, plus any warnings."""

    params: HopperParams
    motor: MotorParams
    gains: Gains
    geometry: LegGeometry
    warnings: tuple[str, ...] = field(default=())


@cache
def _float_fields(cls) -> tuple[str, ...]:
    """The float fields of a parameter class, in field order."""
    hints = get_type_hints(cls)
    return tuple(f.name for f in fields(cls) if hints[f.name] is float)


def flight_stiffnesses(p: HopperParams) -> tuple[float, float]:
    """Relative stiffnesses (k_f_m, k_f_e) of the flight-phase oscillators.

    k_f_m = k_s*(m+m_e)/m_e acts on the body, k_f_e = k_s*(m+m_e)/m on the
    foot; both exceed k_s and satisfy k_f_m*m_e == k_f_e*m == k_s*(m+m_e).
    """
    total = p.m + p.m_e
    return p.k_s * total / p.m_e, p.k_s * total / p.m


def lift_off_height(p: HopperParams) -> float:
    """Leg length at which the spring tension equals the foot weight."""
    return p.m_e * p.g / p.k_s + p.y_s_neu


def validate(
    p: HopperParams,
    motor: MotorParams | None = None,
    gains: Gains | None = None,
    geometry: LegGeometry | None = None,
) -> ValidatedBundle:
    """Check every invariant and return the bundle unchanged if all hold.

    Violations raise :class:`ParameterError` naming each offending field.
    A lift-off height beyond the leg reach is analytically usable but
    kinematically unreachable, so it produces a warning rather than an error.
    The leg map is checked only for a geometry the caller passes; the
    default :class:`LegGeometry` passes that check.  Validation is
    idempotent and has no side effects.
    """
    motor = motor if motor is not None else MotorParams()
    gains = gains if gains is not None else Gains()
    check_leg_map = geometry is not None
    geometry = geometry if check_leg_map else LegGeometry()

    violations = []

    def check(ok, fieldname, reason):
        if not ok:
            violations.append((fieldname, reason))

    check(p.m > 0, "m", "body mass must be positive")
    check(p.m_e > 0, "m_e", "foot mass must be positive")
    check(p.k_s > 0, "k_s", "spring stiffness must be positive")
    check(p.g > 0, "g", "gravity must be positive")
    check(p.C_amp > 0, "C_amp", "stance amplitude must be positive")
    check(0 <= p.C_max < 1, "C_max", "compensation maximum must lie in [0, 1)")
    check(p.y_s_neu > 0, "y_s_neu", "neutral length must be positive")
    check(motor.tau_max > 0, "tau_max", "max motor torque must be positive")
    check(motor.omega_max > 0, "omega_max", "max motor speed must be positive")
    check(motor.R >= 1, "R", "reduction ratio must be >= 1")
    check(gains.k_p >= 0, "k_p", "proportional gain must be nonnegative")
    check(gains.k_d >= 0, "k_d", "derivative gain must be nonnegative")
    check(geometry.L1 > 0, "L1", "thigh length must be positive")
    check(geometry.L2 > 0, "L2", "shank length must be positive")
    check(geometry.knee_sign in (1, -1), "knee_sign", "branch selector must be +1 or -1")
    # knee_sign, the one int field, is covered by its (1, -1) check
    for obj in (p, motor, gains, geometry):
        for name in _float_fields(type(obj)):
            if not math.isfinite(getattr(obj, name)):
                violations.append((name, "must be finite"))

    if violations:
        raise ParameterError(violations)
    # Derived values that valid fields can still break: the AOR curve divides
    # by omega_max/R; L1**2 overflows above about 1.3e154; links shorter than
    # REACH_MARGIN cross the stops; long, nearly equal links round the folded
    # stop to a zero knee-angle length, which the leg Jacobian divides by.
    check(motor.omega_max / motor.R > 0.0, "motor", "omega_max/R underflows to zero")
    if check_leg_map:
        from .kinematics import inverse_kinematics, leg_length  # kinematics imports this module
        try:
            leg = geometry.constants
            folded = leg_length(inverse_kinematics(leg.y_lo, geometry)[1], geometry)
            usable = math.isfinite(leg.sum_sq) and leg.y_lo < leg.y_hi and folded > 0.0
        except (ArithmeticError, ValueError):  # L1**2 overflow, a stop outside the reach
            usable = False
        check(usable, "geometry", f"links L1={geometry.L1!r}, L2={geometry.L2!r} give no usable "
              f"leg map: each must exceed {REACH_MARGIN} m, and the knee angle resolve the stops")
    if violations:
        raise ParameterError(violations)

    warnings = []
    reach = geometry.L1 + geometry.L2
    lift = lift_off_height(p)
    if lift > reach:
        warnings.append(
            f"lift-off height {lift:.4f} m exceeds reach {reach:.4g} m"
        )

    return ValidatedBundle(p, motor, gains, geometry, tuple(warnings))


# Built-in physics presets.  The tabulated spring stiffness of 17 N/m puts
# the stance start 2.9 m below ground and the lift-off beyond the leg reach,
# which strongly suggests a N/mm unit slip; "physical" scales it to 1700 N/m.
# Formula-level math is unit-agnostic, so both presets must construct.
PAPER_LITERAL = HopperParams(k_s=17.0)
PHYSICAL = HopperParams(k_s=1700.0)

PHYSICS_PRESETS: dict[str, HopperParams] = {
    "paper-literal": PAPER_LITERAL,
    "physical": PHYSICAL,
}


def physics_preset(name: str) -> HopperParams:
    """Return a built-in physics preset (frozen, so shared, not copied)."""
    try:
        return PHYSICS_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PHYSICS_PRESETS))
        raise KeyError(f"unknown physics preset {name!r} (known: {known})") from None
