"""Closed-form trajectory generator for one hop cycle.

Stance is the cosine response of the spring-mass system starting at maximum
compression; flight is the relative (leg-length) oscillation of the two
masses over exactly one period; the two are stitched into a periodic desired
trajectory with a position compensation coefficient applied over the second
half of the cycle.

The flight segment is :func:`flight_leg_length`, which matches a direct
integration of the two-mass flight dynamics to machine precision.  The
paper's printed amplitude-sum form disagrees with that integration; the
tests keep it (``tests/test_analytic.py``) as the record of where.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import HopsimError, NoLiftOffError, ParameterError
from .model import HopperParams, HopPhase


@dataclass(frozen=True)
class LiftState:
    """Leg length, extension rate and time at lift-off."""

    y_lo: float  # body-to-foot distance at lift-off, m
    v_lo: float  # its rate at lift-off, m/s (positive at a genuine lift-off)
    t_lo: float  # lift-off time, s


def stance_omega(p: HopperParams) -> float:
    """Angular frequency of the stance oscillation, sqrt(k_s/m)."""
    return math.sqrt(p.k_s / p.m)


def stance_amplitude(p: HopperParams) -> float:
    """Amplitude of the stance cosine, C_amp + m*g/k_s."""
    return p.C_amp + p.m * p.g / p.k_s


def stance_position(t: float, p: HopperParams) -> float:
    """Leg length during stance, starting at maximum compression at t=0."""
    return stance_amplitude(p) * math.cos(stance_omega(p) * t + math.pi) + p.y_s_neu


def stance_velocity(t: float, p: HopperParams) -> float:
    """Analytic time derivative of :func:`stance_position`."""
    w = stance_omega(p)
    return -stance_amplitude(p) * w * math.sin(w * t + math.pi)


def relative_period(p: HopperParams) -> float:
    """Period of the leg-length oscillation in flight, 2*pi*sqrt(mu/k_s)."""
    mu = p.m * p.m_e / (p.m + p.m_e)
    return 2.0 * math.pi * math.sqrt(mu / p.k_s)


def flight_omega(p: HopperParams) -> float:
    """Angular frequency of the flight leg-length oscillation."""
    return math.sqrt(p.k_s * (p.m + p.m_e) / (p.m * p.m_e))


def switch_times(p: HopperParams) -> tuple[float, float]:
    """Lift-off and landing times (t_lo, t_ld) of the hop cycle.

    Lift-off is the first nonnegative time at which the ascending stance
    response reaches the lift condition length m_e*g/k_s + y_s_neu; the
    nonnegative branch pi - arccos(...) is returned (the arccos(...) - pi
    form is its negative).  Landing follows one leg-length period later.
    """
    arg = p.m_e * p.g / (p.k_s * stance_amplitude(p))
    if arg > 1.0:
        raise NoLiftOffError(
            "no lift-off: spring cannot support foot weight at amplitude "
            f"(condition argument {arg:.4g} > 1)"
        )
    t_lo = math.sqrt(p.m / p.k_s) * (math.pi - math.acos(arg))
    return t_lo, t_lo + relative_period(p)


def lift_state(p: HopperParams) -> LiftState:
    """Stance state at the lift-off condition."""
    t_lo, _ = switch_times(p)
    return LiftState(
        y_lo=stance_position(t_lo, p),
        v_lo=stance_velocity(t_lo, p),
        t_lo=t_lo,
    )


def hop_period(p: HopperParams) -> float:
    """Period of continuous hopping: 2*t_lo plus one leg-length period."""
    t_lo, _ = switch_times(p)
    return 2.0 * t_lo + relative_period(p)


def flight_amplitude(p: HopperParams, ls: LiftState) -> float:
    """Leg-length oscillation amplitude consistent with the flight dynamics.

    From the lift-off state: stretch s0 = y_lo - y_s_neu and rate v_lo give
    B = sqrt(s0**2 + v_lo**2 * mu / k_s).
    """
    mu = p.m * p.m_e / (p.m + p.m_e)
    s0 = ls.y_lo - p.y_s_neu
    return math.sqrt(s0 * s0 + ls.v_lo**2 * mu / p.k_s)


def flight_phase_offset(p: HopperParams, ls: LiftState) -> float:
    """Phase of the flight cosine at lift-off (ascending branch)."""
    b = flight_amplitude(p, ls)
    s0 = ls.y_lo - p.y_s_neu
    if b == 0.0:
        return 0.0
    return math.acos(min(1.0, max(-1.0, s0 / b)))


def flight_leg_length(tau: float, p: HopperParams, ls: LiftState) -> float:
    """Leg length tau seconds after lift-off, from the two-mass flight dynamics.

    Equals the relative-coordinate integration of the flight equations to
    machine precision: starts at y_lo extending with rate v_lo, swings once
    through the full oscillation, and returns to the same state after one
    leg-length period.
    """
    b = flight_amplitude(p, ls)
    alpha = flight_phase_offset(p, ls)
    return p.y_s_neu + b * math.cos(flight_omega(p) * tau - alpha)


def flight_leg_velocity(tau: float, p: HopperParams, ls: LiftState) -> float:
    """Time derivative of :func:`flight_leg_length`."""
    b = flight_amplitude(p, ls)
    alpha = flight_phase_offset(p, ls)
    w = flight_omega(p)
    return -b * w * math.sin(w * tau - alpha)


def compensation(t: float, T: float, C_max: float) -> float:
    """Position compensation coefficient over one cycle.

    Unity over the first half of the cycle, then a cosine dip of depth C_max
    that returns to unity at t = T; continuous at T/2 and T.  Times outside
    [0, T] are reduced modulo T.
    """
    t = t % T
    if t < T / 2.0:
        return 1.0
    return 0.5 * C_max * math.cos(4.0 * math.pi * t / T) - 0.5 * C_max + 1.0


def compensation_rate(t: float, T: float, C_max: float) -> float:
    """Time derivative of :func:`compensation`."""
    t = t % T
    if t < T / 2.0:
        return 0.0
    return -0.5 * C_max * (4.0 * math.pi / T) * math.sin(4.0 * math.pi * t / T)


# the cached constants that leg_length and leg_velocity read
_LEG_CONSTANTS = (
    "_stance_amp", "_stance_w", "_stance_neg_amp_w",
    "_flight_b", "_flight_w", "_flight_alpha", "_flight_neg_b_w",
)


class TrajectoryCycle:
    """Precomputed desired trajectory of one hop cycle.

    The cycle is: stance ascent on [0, t_lo), flight on [t_lo, T - t_lo]
    (one full leg-length oscillation), and the mirrored stance descent on
    (T - t_lo, T], all scaled by the compensation coefficient.  The mirrored
    descent makes the cycle continuous at the flight boundaries and exactly
    periodic.  Evaluation is a pure function of time; instances are immutable
    and safe to share.

    Hopper values that pass :func:`model.validate` can still be too extreme
    for the closed forms' floating-point arithmetic.  Building the cycle
    raises a one-line :class:`ParameterError`, instead of a bare arithmetic
    error later, when a closed form fails (``C_amp = 1e300`` overflows),
    when the period is not positive and finite (``m = 5e-324`` gives 0,
    ``k_s = 5e-324`` gives inf), or when a constant that
    :meth:`leg_length` and :meth:`leg_velocity` read is not finite
    (``k_s = 1.7e308`` gives an infinite flight frequency, ``m = 1e200`` an
    infinite flight amplitude).
    """

    def __init__(self, p: HopperParams):
        try:
            self._build(p)
            cause = None if 0.0 < self.period < math.inf else f"hop period {self.period!r}"
            for name in _LEG_CONSTANTS:
                value = getattr(self, name)
                if cause is None and not math.isfinite(value):
                    cause = f"{name[1:]} {value!r}"
        except HopsimError:
            raise
        except (ArithmeticError, ValueError) as exc:  # overflow, 1/0, math domain
            cause = f"{type(exc).__name__}: {exc}"
        if cause is not None:
            raise ParameterError(
                [("hopper", f"the closed-form hop cycle fails at these values ({cause})")]
            )

    def _build(self, p: HopperParams) -> None:
        self.params = p
        self.t_lo, _ = switch_times(p)
        self.lift = lift_state(p)
        self.period = hop_period(p)
        self.flight_duration = relative_period(p)
        self.touchdown_time = self.period - self.t_lo  # == switch_times(p)[1]
        # Constants of the closed forms, computed once by the same functions
        # the free forms call, so every evaluation gives the same bits.
        self._c_max = p.C_max
        self._y_s_neu = p.y_s_neu
        self._stance_amp = stance_amplitude(p)
        self._stance_w = stance_omega(p)
        self._stance_neg_amp_w = -self._stance_amp * self._stance_w
        self._flight_b = flight_amplitude(p, self.lift)
        self._flight_alpha = flight_phase_offset(p, self.lift)
        self._flight_w = flight_omega(p)
        self._flight_neg_b_w = -self._flight_b * self._flight_w

    def phase(self, t: float) -> HopPhase:
        t = t % self.period
        if t < self.t_lo or t > self.touchdown_time:
            return HopPhase.STANCE
        return HopPhase.FLIGHT

    def leg_length(self, t: float) -> float:
        """Uncompensated leg length at cycle time t.

        :func:`stance_position` and :func:`flight_leg_length` from the
        cached constants.
        """
        t = t % self.period
        if t < self.t_lo:
            return self._stance_amp * math.cos(self._stance_w * t + math.pi) + self._y_s_neu
        if t <= self.touchdown_time:
            return self._y_s_neu + self._flight_b * math.cos(
                self._flight_w * (t - self.t_lo) - self._flight_alpha
            )
        return self._stance_amp * math.cos(self._stance_w * (self.period - t) + math.pi) + self._y_s_neu

    def leg_velocity(self, t: float) -> float:
        """:func:`stance_velocity` and :func:`flight_leg_velocity` from the
        cached constants; the descent mirrors the stance rate."""
        t = t % self.period
        if t < self.t_lo:
            return self._stance_neg_amp_w * math.sin(self._stance_w * t + math.pi)
        if t <= self.touchdown_time:
            return self._flight_neg_b_w * math.sin(
                self._flight_w * (t - self.t_lo) - self._flight_alpha
            )
        return -(self._stance_neg_amp_w * math.sin(self._stance_w * (self.period - t) + math.pi))

    def y_des(self, t: float) -> float:
        """Compensated desired leg length at cycle time t."""
        return compensation(t % self.period, self.period, self._c_max) * self.leg_length(t)

    def y_des_rate(self, t: float) -> float:
        """Time derivative of :meth:`y_des` (product rule with the compensation)."""
        t = t % self.period
        c = compensation(t, self.period, self._c_max)
        cdot = compensation_rate(t, self.period, self._c_max)
        return c * self.leg_velocity(t) + cdot * self.leg_length(t)
