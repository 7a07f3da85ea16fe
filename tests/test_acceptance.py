"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Heavy runs are cached at module scope;
their wall time is charged to the first criterion that needs them, inside
that criterion's runtime budget.
"""

import functools
import math
import time
from contextlib import contextmanager

from hopsim import analytic, cli, control, kinematics, metrics, model, sim
from hopsim.kinematics import JointState
from hopsim.model import Gains, LegGeometry, MotorParams

ORACLE_MOTOR = MotorParams(tau_max=2000.0, omega_max=1000.0, R=1.0)


@contextmanager
def criterion(n, description, budget_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - t0
    if budget_s is not None:
        assert elapsed < budget_s, (
            f"criterion {n} took {elapsed:.2f}s, budget {budget_s}s"
        )
    print(f"ACCEPTANCE {n} PASS: {description} ({elapsed:.2f}s)")


@functools.lru_cache(maxsize=None)
def preset(name):
    return model.physics_preset(name)


@functools.lru_cache(maxsize=None)
def bundle(name):
    return model.validate(preset(name))


@functools.lru_cache(maxsize=None)
def oracle_bundle():
    return model.validate(preset("physical"), ORACLE_MOTOR, Gains(), LegGeometry())


@functools.lru_cache(maxsize=None)
def spring_run(dt):
    p = preset("physical")
    t_lo, _ = analytic.switch_times(p)
    res = sim.run(
        sim.RunSetup(
            bundle=oracle_bundle(),
            controller="spring",
            duration=t_lo,
            dt=dt,
            control_rate=1.0 / dt,
        )
    )
    assert res.ok, res.status
    return res


@functools.lru_cache(maxsize=None)
def controller_run(controller):
    res = sim.run(
        sim.RunSetup(bundle=bundle("physical"), controller=controller, hops=1)
    )
    assert res.ok, res.status
    return res


def spring_stance_error(dt):
    p = preset("physical")
    res = spring_run(dt)
    return max(
        abs(r.y_body - analytic.stance_position(r.t, p)) for r in res.log.records
    )


def test_criterion_1_analytic_numeric_equivalence():
    """Stance integration under the ideal-spring command reproduces the
    closed form; halving the step shows fourth-order convergence.  At
    dt=1e-4 the truncation error sits at the 1e-14 roundoff floor, so the
    16x ratio is measured one octave pair up where truncation dominates."""
    with criterion(1, "analytic-numeric stance equivalence and RK4 order", 1.0):
        assert spring_stance_error(1e-4) <= 1e-6
        ratio = spring_stance_error(1e-3) / spring_stance_error(5e-4)
        assert 12.0 <= ratio <= 20.0, f"convergence ratio {ratio:.2f}"


def test_criterion_2_switch_time_consistency():
    with criterion(2, "event-detected switch times and hop period", 5.0):
        for name, t_frozen in (("paper-literal", 3.2367), ("physical", 0.3113)):
            p = preset(name)
            t_lo, _ = analytic.switch_times(p)
            ref = sim.TwoMassReference(p).run(hops=2)
            assert abs(ref.first_lift() - t_lo) <= 1e-3
            period = ref.hop_period()
            assert abs(period - analytic.hop_period(p)) <= 1e-3
            assert abs(period - t_frozen) <= 1e-3


def test_criterion_3_saturation_ratio_reproduction():
    with criterion(3, "force-mode C_act_avg in [0.9, 1.0], position below", 10.0):
        force = controller_run("force")
        position = controller_run("position")
        c_force = metrics.average_saturation_ratio(
            force.log, metrics.first_stance_window(force.log)
        )
        c_position = metrics.average_saturation_ratio(
            position.log, metrics.first_stance_window(position.log)
        )
        assert 0.9 <= c_force <= 1.0, f"force C_act_avg {c_force:.4f}"
        assert c_position <= 0.8, f"position C_act_avg {c_position:.4f}"
        assert c_position < c_force


def test_criterion_4_foot_clearance_ordering():
    with criterion(4, "force-mode clearance at least 1.3x position-mode"):
        force = controller_run("force")
        position = controller_run("position")
        # identical initial state: same pinned posture at rest
        f0, p0 = force.log.records[0], position.log.records[0]
        assert f0.y_body == p0.y_body and f0.y_foot == p0.y_foot == 0.0
        _, h_force = metrics.foot_clearance(force.log)
        _, h_position = metrics.foot_clearance(position.log)
        assert h_position > 0.0
        assert h_force >= 1.3 * h_position, (
            f"h_force={h_force:.4f} h_position={h_position:.4f}"
        )


def test_criterion_5_envelope_safety_invariant():
    with criterion(5, "every logged command inside the envelope and AOR"):
        runs = [
            controller_run("force"),
            controller_run("position"),
            spring_run(2.5e-4),
            spring_run(1e-4),
        ]
        for res in runs:
            curve = metrics.aor_curve(res.setup.bundle.motor, 256)
            for r in res.log.records:
                assert abs(r.tau_des_knee) <= r.tau_sat_knee + 1e-12
                assert abs(r.tau_des_hip) <= r.tau_sat_hip + 1e-12
                assert abs(r.tau_des_knee) <= curve.torque_at(r.thetad_knee) + 1e-9
                assert abs(r.tau_des_hip) <= curve.torque_at(r.thetad_hip) + 1e-9


def test_criterion_6_energy_audit():
    with criterion(6, "ideal-spring stance work matches energy gain to 2%"):
        res = spring_run(2.5e-4)
        log = res.log
        window = metrics.StanceWindow(log.records[0].t, log.records[-1].t)
        balance = metrics.energy_balance(log, window, preset("physical"))
        assert balance.residual <= 0.02, f"residual {balance.residual:.4f}"


def test_criterion_7_algebraic_property_suite():
    with criterion(7, "envelope, clamp, kinematics and stiffness identities", 5.0):
        motor = MotorParams()
        # envelope identity and gear scaling
        for i in range(1001):
            s = motor.omega_max * i / 1000.0
            total = control.motor_saturation(s, motor) + control.back_emf(s, motor)
            assert abs(total - motor.tau_max) <= 1e-12 * motor.tau_max + 1e-15
            thetad = s / motor.R
            assert control.actuator_saturation(thetad, motor) == (
                motor.R * control.motor_saturation(motor.R * thetad, motor)
            )
        # clamp idempotence and oddness
        taus = [-120.0, -35.0, -1.5, 0.0, 0.3, 34.9, 35.0, 80.0]
        bounds = [0.0, 0.5, 35.0, 100.0]
        for tau in taus:
            for b in bounds:
                once = control.clamp(tau, b)
                assert control.clamp(once, b) == once
                assert control.clamp(-tau, b) == -once
        # kinematics round-trip and Jacobian against finite differences
        geo = LegGeometry()
        lo, hi = kinematics.reach_interval(geo)
        h = 1e-6
        for i in range(1000):
            y = (lo + 1e-3) + (hi - lo - 2e-3) * i / 999.0
            th_h, th_k = kinematics.inverse_kinematics(y, geo)
            y_back, _ = kinematics.forward_kinematics(
                JointState(theta_hip=th_h, theta_knee=th_k), geo
            )
            assert abs(y_back - y) <= 1e-10
            jac = kinematics.leg_jacobian(JointState(theta_knee=th_k), geo)
            y1, _ = kinematics.forward_kinematics(JointState(theta_knee=th_k + h), geo)
            y0, _ = kinematics.forward_kinematics(JointState(theta_knee=th_k - h), geo)
            assert abs(jac.dy_dknee - (y1 - y0) / (2 * h)) <= 1e-6
        # compensation continuity at T/2 and T
        T, cmax = analytic.hop_period(preset("physical")), 0.11
        eps = 1e-9
        assert abs(
            analytic.compensation(T / 2 - eps, T, cmax)
            - analytic.compensation(T / 2 + eps, T, cmax)
        ) <= 1e-6
        assert abs(
            analytic.compensation(T - eps, T, cmax)
            - analytic.compensation(T + eps, T, cmax)
        ) <= 1e-6
        assert analytic.compensation(0.0, T, cmax) == 1.0
        # flight stiffness identity for both presets (floating-point slack
        # only: the division/multiplication round trip costs a few ulps)
        for name in ("paper-literal", "physical"):
            p = preset(name)
            k_f_m, k_f_e = model.flight_stiffnesses(p)
            total = p.k_s * (p.m + p.m_e)
            assert math.isclose(k_f_m * p.m_e, total, rel_tol=1e-12)
            assert math.isclose(k_f_e * p.m, total, rel_tol=1e-12)
            assert math.isclose(k_f_m * p.m_e, k_f_e * p.m, rel_tol=1e-12)


def test_criterion_8_determinism_and_io_contract(tmp_path):
    with criterion(8, "bitwise determinism, preset values, CSV contract"):
        setup = lambda: sim.RunSetup(bundle=bundle("physical"), controller="force", hops=2)
        a = sim.run(setup())
        b = sim.run(setup())
        assert "".join(a.log.to_csv()) == "".join(b.log.to_csv())

        cfg_path = tmp_path / "t1.cfg"
        cfg_path.write_text("[run]\npreset = paper-literal-force\n")
        cfg = cli.parse_config(cfg_path)
        p = cfg.params
        assert (p.m, p.m_t, p.m_e, p.k_s) == (5.6, 1.87, 0.8, 17.0)
        assert (p.y_s_neu, p.C_amp, p.C_max) == (0.45, 0.12, 0.11)
        assert (cfg.gains.k_p, cfg.gains.k_d) == (5424.0, 9.0)
        cfg_path.write_text("[run]\npreset = paper-literal-position\n")
        cfg_pos = cli.parse_config(cfg_path)
        assert cfg_pos.gains is None
        assert cfg_pos.params == p

        header = "".join(a.log.to_csv()).splitlines()[0]
        assert header == (
            "t,phase,y_body,v_body,y_foot,v_foot,"
            "theta_hip,theta_knee,thetad_hip,thetad_knee,"
            "tau_dyn_hip,tau_dyn_knee,tau_des_hip,tau_des_knee,"
            "tau_sat_hip,tau_sat_knee,c_act_hip,c_act_knee"
        )
