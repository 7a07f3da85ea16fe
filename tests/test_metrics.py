import math
import warnings

import pytest

from hopsim import metrics, sim
from hopsim.metrics import AorCurve, StanceWindow, aor_curve, saturation_ratio
from hopsim.model import HopperParams, MotorParams
from hopsim.sim import Event, Record, TelemetryLog

MOTOR = MotorParams()


def no_load_speed(curve):
    """The speed of the curve's last point, where its torque reaches zero."""
    return curve.points[-1][0]


def make_record(t, phase="stance", y_foot=0.0, c_act=0.5, tau_des=10.0, theta=1.0,
                thetad=0.0, y_body=0.4, v_body=0.0, v_foot=0.0, tau_hip=0.0,
                theta_hip=0.0):
    return Record(
        t=t,
        phase=phase,
        y_body=y_body,
        v_body=v_body,
        y_foot=y_foot,
        v_foot=v_foot,
        theta_hip=theta_hip,
        theta_knee=theta,
        thetad_hip=0.0,
        thetad_knee=thetad,
        tau_dyn_hip=tau_hip,
        tau_dyn_knee=tau_des,
        tau_des_hip=tau_hip,
        tau_des_knee=tau_des,
        tau_sat_hip=35.0,
        tau_sat_knee=35.0,
        c_act_hip=c_act,
        c_act_knee=c_act,
    )


class TestSaturationRatio:
    def test_half(self):
        assert saturation_ratio(30.0, 60.0) == 0.5

    def test_riding_envelope(self):
        assert saturation_ratio(60.0, 60.0) == 1.0

    def test_zero_command(self):
        assert saturation_ratio(0.0, 60.0) == 0.0

    def test_degenerate_bound(self):
        assert saturation_ratio(0.0, 0.0) == 1.0
        assert saturation_ratio(1.0, 0.0) == math.inf

    def test_sign_insensitive(self):
        assert saturation_ratio(-30.0, 60.0) == 0.5
        assert saturation_ratio(30.0, -60.0) == 0.5


class TestAverageSaturationRatio:
    def test_constant(self):
        log = TelemetryLog(records=[make_record(t=0.01 * i, c_act=0.7) for i in range(50)])
        w = StanceWindow(0.0, 0.49)
        assert metrics.average_saturation_ratio(log, w) == pytest.approx(0.7, abs=1e-12)

    def test_linear_ramp(self):
        n = 100
        log = TelemetryLog(
            records=[make_record(t=i / (n - 1), c_act=i / (n - 1)) for i in range(n)]
        )
        w = StanceWindow(0.0, 1.0)
        avg = metrics.average_saturation_ratio(log, w)
        assert abs(avg - 0.5) <= 1.0 / (2.0 * n)

    def test_time_reparameterization_invariance(self):
        n = 60
        vals = [0.2 + 0.6 * (i / (n - 1)) ** 2 for i in range(n)]
        log1 = TelemetryLog(records=[make_record(t=i * 0.001, c_act=v) for i, v in enumerate(vals)])
        log7 = TelemetryLog(records=[make_record(t=i * 0.007, c_act=v) for i, v in enumerate(vals)])
        a1 = metrics.average_saturation_ratio(log1, StanceWindow(0.0, (n - 1) * 0.001))
        a7 = metrics.average_saturation_ratio(log7, StanceWindow(0.0, (n - 1) * 0.007))
        assert a1 == pytest.approx(a7, rel=1e-12)

    def test_skips_nonfinite(self):
        recs = [make_record(t=0.0, c_act=1.0), make_record(t=0.1, c_act=math.inf),
                make_record(t=0.2, c_act=1.0)]
        log = TelemetryLog(records=recs)
        assert metrics.average_saturation_ratio(log, StanceWindow(0.0, 0.2)) == pytest.approx(1.0)

    def test_empty_window_error(self):
        log = TelemetryLog(records=[make_record(t=0.0)])
        with pytest.raises(ValueError):
            metrics.average_saturation_ratio(log, StanceWindow(5.0, 6.0))

    def test_window_requires_order(self):
        with pytest.raises(ValueError):
            StanceWindow(1.0, 0.5)


class TestFootClearance:
    def test_stance_only_gives_initial_height(self):
        log = TelemetryLog(records=[make_record(t=0.01 * i) for i in range(10)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert metrics.foot_clearance(log) == (0.0, 0.0)

    def test_synthetic_peak(self):
        # extraction fixture: a flight arc peaking at 0.38
        heights = [0.0, 0.1, 0.25, 0.38, 0.2, 0.0]
        recs = [
            make_record(t=0.1 * i, phase="flight" if h > 0 else "stance", y_foot=h)
            for i, h in enumerate(heights)
        ]
        log = TelemetryLog(records=recs)
        h0, hmax = metrics.foot_clearance(log)
        assert h0 == 0.0
        assert hmax == 0.38

    def test_appending_below_max_invariant(self):
        heights = [0.0, 0.2, 0.3]
        recs = [make_record(t=0.1 * i, phase="flight", y_foot=h) for i, h in enumerate(heights)]
        log = TelemetryLog(records=list(recs))
        base = metrics.foot_clearance(log)
        log.records.append(make_record(t=0.4, phase="flight", y_foot=0.1))
        assert metrics.foot_clearance(log) == base


class TestEnergyBalance:
    def test_zero_torque_zero_work(self, physical):
        recs = [
            make_record(t=0.01 * i, tau_des=0.0, theta=1.0 - 0.01 * i)
            for i in range(20)
        ]
        log = TelemetryLog(records=recs)
        bal = metrics.energy_balance(log, StanceWindow(0.0, 0.19), physical)
        assert bal.work == 0.0

    def test_doubling_torques_doubles_work(self, physical):
        def build(scale):
            return TelemetryLog(
                records=[
                    make_record(
                        t=0.01 * i,
                        tau_des=scale * (5.0 + i),
                        theta=1.0 - 0.02 * i,
                        tau_hip=scale * 2.0,
                        theta_hip=0.5 - 0.01 * i,
                    )
                    for i in range(20)
                ]
            )

        w = StanceWindow(0.0, 0.19)
        w1 = metrics.energy_balance(build(1.0), w, physical).work
        w2 = metrics.energy_balance(build(2.0), w, physical).work
        assert w2 == pytest.approx(2.0 * w1, rel=1e-12)

    def test_ideal_spring_stance_residual(self, spring_stance_run, physical):
        log = spring_stance_run.log
        w = StanceWindow(log.records[0].t, log.records[-1].t)
        bal = metrics.energy_balance(log, w, physical)
        assert bal.residual <= 0.02

    def test_ideal_spring_residual_at_halved_step(self, bundle_oracle, physical):
        # the audit bound holds at the halved plant step as well
        from hopsim import analytic, sim

        t_lo, _ = analytic.switch_times(physical)
        res = sim.run(
            sim.RunSetup(
                bundle=bundle_oracle,
                controller="spring",
                duration=t_lo,
                dt=1.25e-4,
                control_rate=8000.0,
            )
        )
        assert res.ok
        log = res.log
        w = StanceWindow(log.records[0].t, log.records[-1].t)
        assert metrics.energy_balance(log, w, physical).residual <= 0.02


class TestAorCurve:
    def test_endpoints(self):
        curve = aor_curve(MOTOR, 256)
        assert curve.points[0] == (0.0, 35.0)
        assert curve.points[-1][1] == pytest.approx(0.0, abs=1e-12)
        assert no_load_speed(curve) == pytest.approx(MOTOR.omega_max / MOTOR.R)

    def test_torque_non_increasing(self):
        curve = aor_curve(MOTOR, 64)
        torques = [tq for _, tq in curve.points]
        assert all(t1 <= t0 for t0, t1 in zip(torques, torques[1:]))

    def test_zero_beyond_no_load(self):
        curve = aor_curve(MOTOR, 16)
        assert curve.torque_at(no_load_speed(curve) * 2.0) == 0.0

    def test_interpolation_matches_formula(self):
        curve = aor_curve(MOTOR, 256)
        from hopsim.control import actuator_saturation

        for s in (0.0, 0.37, 1.234, 2.6, 5.0, 5.19):
            assert curve.torque_at(s) == pytest.approx(
                actuator_saturation(s, MOTOR), abs=1e-9
            )

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            aor_curve(MOTOR, 1)

    @pytest.mark.parametrize(
        "points",
        [
            ((0.0, 2.0), (2.0, 1.0), (1.0, 0.0)),
            ((1.0, 2.0), (0.0, 0.0)),
            ((0.0, 2.0), (math.nan, 1.0), (2.0, 0.0)),
        ],
    )
    def test_rejects_unordered_speeds(self, points):
        with pytest.raises(ValueError, match="non-decreasing"):
            AorCurve(points)

    def test_rejects_fewer_than_two_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            AorCurve(((0.0, 1.0),))

    def test_accepts_repeated_speed(self):
        curve = AorCurve(((0.0, 2.0), (0.0, 1.5), (1.0, 0.0)))
        assert curve.torque_at(0.0) == 1.5
        assert curve.torque_at(0.5) == 0.75

    def test_mirrored_polyline(self):
        curve = aor_curve(MOTOR, 8)
        full = curve.mirrored()
        assert full[0][0] == -no_load_speed(curve)
        assert full[-1][0] == no_load_speed(curve)


class TestTrace:
    def test_trace_inside_aor(self, force_run_3hops, bundle_physical):
        curve = aor_curve(bundle_physical.motor, 256)
        trace = metrics.speed_torque_trace(force_run_3hops.log)
        assert trace
        for speed, tau in trace:
            assert tau <= curve.torque_at(speed) + 1e-9

    def test_stance_records_only(self, force_run_3hops):
        n_stance = sum(1 for r in force_run_3hops.log.records if r.phase == "stance")
        assert len(metrics.speed_torque_trace(force_run_3hops.log)) == n_stance

    def test_force_trace_closer_to_aor_than_position(
        self, force_run_1hop, position_run_1hop, bundle_physical
    ):
        curve = aor_curve(bundle_physical.motor, 256)
        trace_force = metrics.speed_torque_trace(force_run_1hop.log)
        trace_position = metrics.speed_torque_trace(position_run_1hop.log)
        gap_force = metrics.trace_mean_gap(trace_force, curve)
        gap_position = metrics.trace_mean_gap(trace_position, curve)
        assert gap_force < gap_position


class TestSaturationBounds:
    def test_clamp_pipeline_keeps_ratio_at_most_one(self, force_run_3hops):
        for r in force_run_3hops.log.records:
            for c in (r.c_act_hip, r.c_act_knee):
                assert c >= 0.0
                if math.isfinite(c):
                    assert c <= 1.0 + 1e-12


class TestFirstStanceWindow:
    def test_from_run(self, force_run_1hop):
        w = metrics.first_stance_window(force_run_1hop.log)
        assert w.t_init == 0.0
        assert w.t_lo == force_run_1hop.log.lift_events()[0].t

    def test_requires_lift(self):
        log = TelemetryLog(records=[make_record(t=0.0)])
        with pytest.raises(ValueError):
            metrics.first_stance_window(log)


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: metrics.foot_clearance(TelemetryLog()), "empty log"),
        (
            lambda: metrics.energy_balance(
                TelemetryLog(records=[make_record(t=0.0), make_record(t=2.0)]),
                StanceWindow(0.0, 1.0),
                HopperParams(),
            ),
            "window contains fewer than two records",
        ),
        (lambda: metrics.trace_mean_gap([], aor_curve(MOTOR)), "log has no stance records"),
    ],
    ids=["foot_clearance", "energy_balance", "trace_mean_gap"],
)
def test_metric_without_data_raises(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
