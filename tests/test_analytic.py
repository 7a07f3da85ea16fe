import math

import pytest

from hopsim import analytic, sim
from hopsim.analytic import LiftState, TrajectoryCycle
from hopsim.errors import NoLiftOffError
from hopsim.model import HopPhase, HopperParams


# --- the paper's legacy amplitude-sum flight form ---------------------------
# The paper prints this form of the flight leg length.  It disagrees with the
# two-mass flight dynamics, so the package uses analytic.flight_leg_length;
# the form is kept here, with the tests that read it, as the record of where
# the printed formula and the integration part.


class DegenerateFlightWindowError(ValueError):
    """The flight-window phase argument falls outside [-1, 1]."""


def amplitude_radicals(p, ls):
    """Both radicals of the legacy amplitude-sum flight form.

    The second radical carries mass exponents (m**3 paired with a leading m)
    that are one reason this form disagrees with the two-mass integration;
    see analytic.flight_amplitude for the consistent amplitude.
    """
    total = p.m + p.m_e
    r1 = math.sqrt(
        p.m * ls.v_lo**2 * p.m_e**3 / (p.k_s * total**3)
        + ls.y_lo**2 * p.m_e**2 / total**2
    )
    r2 = math.sqrt(
        p.m * ls.v_lo**2 * p.m**3 / (p.k_s * total**3)
        + ls.y_lo**2 * p.m**2 / total**2
    )
    return r1, r2


def flight_position(t, p, ls):
    """Legacy amplitude-sum form of the flight leg length at time t."""
    r1, r2 = amplitude_radicals(p, ls)
    return (r1 + r2) * math.cos(analytic.flight_omega(p) * t) + p.y_s_neu


def flight_window(p, ls):
    """Effective time range (t_f_s, t_f_e) of the legacy flight response.

    Uses that form's product phase argument (a length times a radical);
    arguments outside [-1, 1] raise DegenerateFlightWindowError.  The window
    length t_f_e - t_f_s is one leg-length period regardless.
    """
    r1, _ = amplitude_radicals(p, ls)
    arg = ls.y_lo * p.m_e / (p.m + p.m_e) * r1
    if not -1.0 <= arg <= 1.0:
        raise DegenerateFlightWindowError(
            f"degenerate flight window: phase argument {arg:.4g} outside [-1, 1]"
        )
    mu = p.m * p.m_e / (p.m + p.m_e)
    t_f_s = -math.sqrt(mu / p.k_s) * math.acos(arg)
    return t_f_s, t_f_s + analytic.relative_period(p)


def bisect_lift_time(p, tol=1e-9):
    """Independent root-find of the lift condition on the stance response."""
    target = p.m_e * p.g / p.k_s + p.y_s_neu

    def f(t):
        return analytic.stance_position(t, p) - target

    half = math.pi * math.sqrt(p.m / p.k_s)  # ascent lasts at most a half period
    lo, hi = 0.0, half
    assert f(lo) < 0.0 < f(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def integrate_flight_ode(p, ls, t_end, dt=1e-5):
    """RK4 on the relative flight dynamics mu*y'' = -k_s*(y - y_s_neu)."""
    mu = p.m * p.m_e / (p.m + p.m_e)

    def acc(y):
        return -(p.k_s / mu) * (y - p.y_s_neu)

    y, v = ls.y_lo, ls.v_lo
    t = 0.0
    n = int(round(t_end / dt))
    dt = t_end / n
    for _ in range(n):
        a1 = acc(y)
        y2, v2 = y + 0.5 * dt * v, v + 0.5 * dt * a1
        a2 = acc(y2)
        y3, v3 = y + 0.5 * dt * v2, v + 0.5 * dt * a2
        a3 = acc(y3)
        y4, v4 = y + dt * v3, v + dt * a3
        a4 = acc(y4)
        y += dt / 6.0 * (v + 2 * v2 + 2 * v3 + v4)
        v += dt / 6.0 * (a1 + 2 * a2 + 2 * a3 + a4)
        t += dt
    return y, v


class TestStancePosition:
    def test_start_physical(self, physical):
        # 0.45 - (0.12 + 5.6*9.81/1700) evaluated independently
        expected = 0.45 - (0.12 + 5.6 * 9.81 / 1700.0)
        assert analytic.stance_position(0.0, physical) == pytest.approx(
            expected, abs=1e-15
        )
        assert expected == pytest.approx(0.2977, abs=1e-4)

    def test_start_paper_literal(self, paper_literal):
        expected = 0.45 - (0.12 + 5.6 * 9.81 / 17.0)
        assert analytic.stance_position(0.0, paper_literal) == pytest.approx(
            expected, abs=1e-12
        )
        assert expected == pytest.approx(-2.9015, abs=1e-4)

    def test_cosine_top(self, physical):
        p = physical
        t_top = math.pi * math.sqrt(p.m / p.k_s)
        expected = p.y_s_neu + p.C_amp + p.m * p.g / p.k_s
        assert analytic.stance_position(t_top, p) == pytest.approx(expected, abs=1e-12)


class TestStanceVelocity:
    def test_zero_at_bottom(self, physical):
        # cos extremum; only float noise from sin(pi) remains
        assert abs(analytic.stance_velocity(0.0, physical)) <= 1e-12

    def test_finite_difference_at_lift(self, physical):
        p = physical
        t_lo, _ = analytic.switch_times(p)
        h = 1e-6
        fd = (
            analytic.stance_position(t_lo + h, p)
            - analytic.stance_position(t_lo - h, p)
        ) / (2.0 * h)
        v = analytic.stance_velocity(t_lo, p)
        assert abs(v - fd) <= 1e-5
        assert v == pytest.approx(2.6525, abs=1e-3)

    def test_cosine_symmetry(self, physical):
        p = physical
        period = 2.0 * math.pi / analytic.stance_omega(p)
        for t in (0.01, 0.04, 0.11):
            assert analytic.stance_velocity(t, p) == pytest.approx(
                -analytic.stance_velocity(period - t, p), abs=1e-12
            )


class TestSwitchTimes:
    def test_bisection_oracle_both_presets(self, physical, paper_literal):
        for p in (physical, paper_literal):
            t_lo, _ = analytic.switch_times(p)
            assert t_lo == pytest.approx(bisect_lift_time(p), abs=2e-9)

    def test_frozen_values(self, physical, paper_literal):
        t_lo_pl, t_ld_pl = analytic.switch_times(paper_literal)
        assert t_lo_pl == pytest.approx(0.9809, abs=1e-4)
        assert t_ld_pl - t_lo_pl == pytest.approx(1.2750, abs=1e-4)
        t_lo_ph, t_ld_ph = analytic.switch_times(physical)
        assert t_lo_ph == pytest.approx(0.09189, abs=1e-5)
        assert t_ld_ph - t_lo_ph == pytest.approx(0.12750, abs=1e-5)

    def test_massless_foot(self):
        p = HopperParams(m=2.0, m_e=0.0, k_s=50.0)
        t_lo, _ = analytic.switch_times(p)
        assert t_lo == pytest.approx(
            math.sqrt(p.m / p.k_s) * (math.pi - math.pi / 2.0), abs=1e-12
        )

    def test_no_lift_error(self):
        # foot too heavy for the spring at this amplitude
        p = HopperParams(m=1.0, m_e=50.0, k_s=10.0, C_amp=0.01)
        with pytest.raises(NoLiftOffError, match="spring cannot support"):
            analytic.switch_times(p)

    def test_positive_branch(self, physical, paper_literal):
        for p in (physical, paper_literal):
            t_lo, t_ld = analytic.switch_times(p)
            assert 0.0 < t_lo < t_ld


class TestHopPeriod:
    def test_frozen_values(self, physical, paper_literal):
        assert analytic.hop_period(paper_literal) == pytest.approx(3.2367, abs=1e-4)
        assert analytic.hop_period(physical) == pytest.approx(0.3113, abs=1e-4)

    def test_reference_integration_oracle(self, physical, paper_literal):
        for p in (physical, paper_literal):
            ref = sim.TwoMassReference(p).run(hops=2)
            assert ref.hop_period() == pytest.approx(analytic.hop_period(p), abs=1e-3)

    def test_consistency_with_flight_window(self, physical):
        p = physical
        t_lo, t_ld = analytic.switch_times(p)
        T = analytic.hop_period(p)
        assert T - 2.0 * t_lo == pytest.approx(t_ld - t_lo, abs=1e-15)
        assert T - 2.0 * t_lo == pytest.approx(analytic.relative_period(p), abs=1e-15)


class TestFlightWindow:
    def test_window_length(self, physical, paper_literal):
        for p, expected in ((paper_literal, 1.2750), (physical, 0.12750)):
            ls = analytic.lift_state(p)
            t_f_s, t_f_e = flight_window(p, ls)
            assert t_f_e - t_f_s == pytest.approx(
                analytic.relative_period(p), abs=1e-15
            )
            assert t_f_e - t_f_s == pytest.approx(expected, abs=1e-4)

    def test_degenerate_window(self, physical):
        # a lift length large enough drives the product phase argument past 1
        ls = LiftState(y_lo=50.0, v_lo=1.0, t_lo=0.1)
        with pytest.raises(DegenerateFlightWindowError):
            flight_window(physical, ls)


class TestFlightSegment:
    def test_amplitude_radicals_equal_for_symmetric_masses(self):
        p = HopperParams(m=1.3, m_e=1.3, k_s=40.0)
        ls = LiftState(y_lo=0.5, v_lo=0.7, t_lo=0.1)
        r1, r2 = amplitude_radicals(p, ls)
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_consistent_segment_matches_direct_integration(self, physical):
        p = physical
        ls = analytic.lift_state(p)
        period = analytic.relative_period(p)
        for frac in (0.25, 0.5, 0.75, 1.0):
            tau = frac * period
            y_num, v_num = integrate_flight_ode(p, ls, tau)
            assert analytic.flight_leg_length(tau, p, ls) == pytest.approx(
                y_num, abs=1e-4
            )
            assert analytic.flight_leg_velocity(tau, p, ls) == pytest.approx(
                v_num, abs=1e-3
            )

    def test_legacy_form_disagreement_is_flagged(self, physical):
        # The legacy amplitude-sum form does not match the two-mass
        # integration, which is why the trajectory uses the
        # dynamics-consistent segment.
        ls = analytic.lift_state(physical)
        t_f_s, t_f_e = flight_window(physical, ls)
        legacy_mid = flight_position(0.5 * (t_f_s + t_f_e), physical, ls)
        y_num, _ = integrate_flight_ode(physical, ls, 0.5 * analytic.relative_period(physical))
        assert abs(legacy_mid - y_num) > 1e-4

    def test_zero_rate_lift_amplitude(self, physical):
        p = physical
        ls = LiftState(y_lo=p.y_s_neu + 0.02, v_lo=0.0, t_lo=0.1)
        assert analytic.flight_amplitude(p, ls) == pytest.approx(0.02, abs=1e-15)

    def test_amplitude_radicals_lose_rate_term_at_zero_rate(self, physical):
        p = physical
        ls = LiftState(y_lo=0.47, v_lo=0.0, t_lo=0.1)
        r1, r2 = amplitude_radicals(p, ls)
        total = p.m + p.m_e
        assert r1 == pytest.approx(ls.y_lo * p.m_e / total, rel=1e-12)
        assert r2 == pytest.approx(ls.y_lo * p.m / total, rel=1e-12)

    def test_segment_starts_at_lift_state(self, physical):
        p = physical
        ls = analytic.lift_state(p)
        assert analytic.flight_leg_length(0.0, p, ls) == pytest.approx(
            ls.y_lo, abs=1e-12
        )
        assert analytic.flight_leg_velocity(0.0, p, ls) == pytest.approx(
            ls.v_lo, rel=1e-12
        )


class TestCompensation:
    def test_first_branch_is_unity(self):
        assert analytic.compensation(0.0, 2.0, 0.11) == 1.0
        assert analytic.compensation(0.4, 2.0, 0.11) == 1.0

    def test_branch_boundary_continuity(self):
        T, cmax = 2.0, 0.11
        assert analytic.compensation(T / 2.0, T, cmax) == pytest.approx(1.0, abs=1e-12)
        eps = 1e-9
        left = analytic.compensation(T / 2.0 - eps, T, cmax)
        right = analytic.compensation(T / 2.0 + eps, T, cmax)
        assert abs(left - right) <= 1e-6

    def test_three_quarter_dip(self):
        assert analytic.compensation(1.5, 2.0, 0.11) == pytest.approx(0.89, abs=1e-12)

    def test_periodic_extension(self):
        T, cmax = 2.0, 0.11
        assert analytic.compensation(2.0 + 1.5, T, cmax) == pytest.approx(
            analytic.compensation(1.5, T, cmax), abs=1e-12
        )

    def test_bounded_deviation(self):
        T, cmax = 0.77, 0.23
        for i in range(200):
            c = analytic.compensation(T * i / 199.0, T, cmax)
            assert 1.0 - cmax - 1e-12 <= c <= 1.0 + 1e-12


class TestDesiredTrajectory:
    def test_start_equals_stance_bottom(self, physical):
        cycle = TrajectoryCycle(physical)
        assert cycle.y_des(0.0) == pytest.approx(
            analytic.stance_position(0.0, physical), abs=1e-15
        )
        assert cycle.phase(0.0) is HopPhase.STANCE

    def test_continuity_at_lift(self, physical):
        cycle = TrajectoryCycle(physical)
        eps = 1e-9
        left = cycle.y_des(cycle.t_lo - eps)
        right = cycle.y_des(cycle.t_lo + eps)
        assert abs(left - right) <= 1e-6

    def test_continuity_at_touchdown(self, physical):
        cycle = TrajectoryCycle(physical)
        eps = 1e-9
        left = cycle.y_des(cycle.touchdown_time - eps)
        right = cycle.y_des(cycle.touchdown_time + eps)
        assert abs(left - right) <= 1e-6

    def test_periodicity(self, physical):
        cycle = TrajectoryCycle(physical)
        assert cycle.y_des(cycle.period) == pytest.approx(cycle.y_des(0.0), abs=1e-9)

    def test_phase_tagging(self, physical):
        cycle = TrajectoryCycle(physical)
        for frac, phase in (
            (0.5 * cycle.t_lo, HopPhase.STANCE),
            (cycle.t_lo + 0.5 * cycle.flight_duration, HopPhase.FLIGHT),
            (cycle.period - 0.5 * cycle.t_lo, HopPhase.STANCE),
        ):
            assert cycle.phase(frac) is phase

    def test_finite_everywhere(self, physical):
        cycle = TrajectoryCycle(physical)
        for i in range(1000):
            t = cycle.period * i / 999.0
            assert math.isfinite(cycle.y_des(t))
            assert math.isfinite(cycle.y_des_rate(t))

    def test_lift_condition_invariant(self, physical, paper_literal):
        for p in (physical, paper_literal):
            t_lo, _ = analytic.switch_times(p)
            target = p.m_e * p.g / p.k_s + p.y_s_neu
            assert abs(analytic.stance_position(t_lo, p) - target) <= 1e-9

    def test_lift_velocity_positive(self, physical, paper_literal):
        for p in (physical, paper_literal):
            ls = analytic.lift_state(p)
            assert ls.v_lo > 0.0

    def test_rate_matches_finite_difference(self, physical):
        cycle = TrajectoryCycle(physical)
        h = 1e-7
        for t in (0.01, cycle.t_lo + 0.02, 0.6 * cycle.period, 0.95 * cycle.period):
            fd = (cycle.y_des(t + h) - cycle.y_des(t - h)) / (2.0 * h)
            assert cycle.y_des_rate(t) == pytest.approx(fd, rel=1e-4, abs=1e-5)
