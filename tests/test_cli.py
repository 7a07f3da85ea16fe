import csv
import errno
import math
import os
import subprocess
import sys
import threading
import weakref
from dataclasses import asdict, fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from hopsim import analytic, cli, metrics, model, sim
from hopsim.cli import RunConfig, main, parse_config
from hopsim.errors import ConfigError, HopsimError

from conftest import ORACLE_MOTOR


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def run_cli_in_child(argv):
    """Run the CLI in a child process, so a run that never ends fails the
    test on the timeout instead of hanging the suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [
            sys.executable, "-c",
            "import sys; from hopsim.cli import main; sys.exit(main(sys.argv[1:]))",
            *argv,
        ],
        capture_output=True, text=True, env=env, timeout=60,
    )


def config_values(parse):
    """Value text of the key's type: float and int literals, names, booleans."""
    if parse is float:
        return st.floats().map(repr)
    if parse is int:
        return st.integers(-3, 10**6).map(str)
    if parse is str:
        return st.sampled_from([*cli.RUN_PRESET_NAMES, *sim.CONTROLLERS])
    return st.sampled_from(["true", "off"])


# config files as {section: {key: value text}}, built from the parser's schema
CONFIG_SECTIONS = st.fixed_dictionaries(
    {},
    optional={
        section: st.fixed_dictionaries(
            {}, optional={key: config_values(parse) for key, parse in keys.items()}
        )
        for section, (_, _, keys) in cli._SCHEMA.items()
    },
)
# one key of the schema set to arbitrary one-line text
ARBITRARY_VALUE = st.tuples(
    st.sampled_from([(sec, key) for sec, (_, _, keys) in cli._SCHEMA.items() for key in keys]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n")),
)


class TestParseConfig:
    def test_table_force_preset_values(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[run]\npreset = paper-literal-force\n"))
        p = cfg.params
        assert (p.m, p.m_t, p.m_e) == (5.6, 1.87, 0.8)
        assert p.k_s == 17.0
        assert p.y_s_neu == 0.45
        assert p.C_amp == 0.12
        assert p.C_max == 0.11
        assert cfg.gains is not None
        assert (cfg.gains.k_p, cfg.gains.k_d) == (5424.0, 9.0)
        assert cfg.controller == "force"

    def test_table_position_preset_has_no_gains(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[run]\npreset = paper-literal-position\n"))
        assert cfg.params.k_s == 17.0
        assert cfg.gains is None
        assert cfg.controller == "position"

    def test_physical_presets(self, tmp_path):
        for name in ("physical-force", "physical-position"):
            cfg = parse_config(write(tmp_path, f"[run]\npreset = {name}\n"))
            assert cfg.params.k_s == 1700.0

    def test_empty_file_error(self, tmp_path):
        with pytest.raises(ConfigError, match="missing required key: preset or m"):
            parse_config(write(tmp_path, ""))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "absent.cfg")

    def test_unknown_key_rejected(self, tmp_path):
        text = "[run]\npreset = physical-force\nwarp = 9\n"
        with pytest.raises(ConfigError, match="unknown key 'warp'"):
            parse_config(write(tmp_path, text))

    def test_unknown_section_rejected(self, tmp_path):
        text = "[run]\npreset = physical-force\n[thrusters]\nx = 1\n"
        with pytest.raises(ConfigError, match=r"unknown section \[thrusters\]"):
            parse_config(write(tmp_path, text))

    def test_syntax_error_reports_line(self, tmp_path):
        text = "[run]\npreset = physical-force\nthis line has no equals\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(write(tmp_path, text))
        assert exc.value.line == 3

    def test_explicit_values_override_preset(self, tmp_path):
        text = "[run]\npreset = physical-force\n[hopper]\nk_s = 850.0\n"
        cfg = parse_config(write(tmp_path, text))
        assert cfg.params.k_s == 850.0
        assert cfg.params.m == 5.6

    def test_explicit_params_without_preset(self, tmp_path):
        text = "[hopper]\nm = 3.0\nm_e = 0.5\nk_s = 900\n"
        cfg = parse_config(write(tmp_path, text))
        assert cfg.params.m == 3.0
        assert cfg.preset is None

    def test_duration_and_hops_conflict(self, tmp_path):
        text = "[run]\npreset = physical-force\nduration = 1.0\nhops = 2\n"
        with pytest.raises(ConfigError, match="not both"):
            parse_config(write(tmp_path, text))
        # a config built in code meets the same rule in resolve
        with pytest.raises(ConfigError, match="exactly one of duration or hops"):
            RunConfig(duration=1.0, hops=2).resolve()

    @pytest.mark.parametrize(
        ("word", "value"),
        [(w, True) for w in ("1", "true", "yes", "on")]
        + [(w, False) for w in ("0", "false", "no", "off")],
    )
    def test_boolean_words_in_any_case(self, tmp_path, word, value):
        for raw in (word, word.upper(), word.capitalize()):
            assert cli._parse_bool(f" {raw}\t") is value
            cfg = parse_config(write(tmp_path, f"[run]\npreset = physical-force\nplots = {raw}\n"))
            assert cfg.plots is value

    def test_bad_boolean_is_one_error_line(self, tmp_path, capsys):
        cfg = write(tmp_path, "[run]\npreset = physical-force\nplots = maybe\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["error: bad value for run.plots: 'maybe'"]
        assert sorted(tmp_path.iterdir()) == [cfg]  # no file written

    def test_invariant_violation_from_validate(self, tmp_path):
        text = "[run]\npreset = physical-force\n[hopper]\nk_s = 0\n"
        cfg = parse_config(write(tmp_path, text))
        with pytest.raises(ConfigError, match="k_s"):
            cfg.resolve()

    def test_round_trip(self, tmp_path):
        text = (
            "[run]\npreset = physical-force\nhops = 2\nplots = true\n"
            "[hopper]\nk_s = 1234.5\n[motor]\ntau_max = 0.5\n"
        )
        cfg = parse_config(write(tmp_path, text))
        cfg2 = parse_config(write(tmp_path, cfg.to_text(), name="round.cfg"))
        assert cfg == cfg2

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sections=CONFIG_SECTIONS, arbitrary=st.none() | ARBITRARY_VALUE)
    def test_any_config_parses_or_raises_config_error(self, tmp_path, sections, arbitrary):
        if arbitrary is not None:
            (section, key), value = arbitrary
            sections.setdefault(section, {})[key] = value
        text = "".join(
            f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
            for section, keys in sections.items()
        )
        try:
            cfg = parse_config(write(tmp_path, text))
        except ConfigError:
            return
        again = parse_config(write(tmp_path, cfg.to_text(), name="round.cfg"))
        # repr, not ==: NaN != NaN, yet a NaN field must round-trip as well
        assert repr(again) == repr(cfg)
        try:
            cfg.resolve()
        except ConfigError:
            pass


# Each hopper float in the range validate accepts, subnormals and 1.7e308
# included; then perhaps one field set to any finite float.
HOPPER_VALUES = st.fixed_dictionaries({
    f.name: st.floats(0.0, 1.0, exclude_max=True) if f.name == "C_max"
    else st.floats(min_value=5e-324, max_value=1.7e308)
    for f in fields(model.HopperParams)
})
ANY_HOPPER_FIELD = st.tuples(
    st.sampled_from([f.name for f in fields(model.HopperParams)]),
    st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-5e-324, -1.7e308]),
)


def _physical_hopper_with(name, value):
    return example(values=asdict(model.HopperParams()), arbitrary=(name, value))


@settings(max_examples=300, deadline=None)
@given(values=HOPPER_VALUES, arbitrary=st.none() | ANY_HOPPER_FIELD)
# an infinite flight frequency (k_s) or amplitude (m, k_s): without the
# finite-constant check, leg_length raises on the first and returns inf or
# NaN on the others
@_physical_hopper_with("k_s", 1.7e308)
@_physical_hopper_with("m", 1e200)
@_physical_hopper_with("k_s", 1e-300)
# a finite cycle whose lift-off is out of the leg's reach
@_physical_hopper_with("y_s_neu", 1e300)
def test_any_finite_hopper_builds_a_cycle_or_raises_hopsim_error(values, arbitrary):
    """A cycle that builds evaluates at its switch times and inside its
    phases without raising."""
    if arbitrary is not None:
        values[arbitrary[0]] = arbitrary[1]
    try:
        bundle = model.validate(
            model.HopperParams(**values), model.MotorParams(), model.Gains(), model.LegGeometry()
        )
        cycle = analytic.TrajectoryCycle(bundle.params)
    except HopsimError:
        return
    mid_flight = 0.5 * (cycle.t_lo + cycle.touchdown_time)
    for t in (0.0, cycle.t_lo, mid_flight, cycle.touchdown_time,
              math.nextafter(cycle.period, 0.0)):
        cycle.y_des(t)
        cycle.y_des_rate(t)


def accepted_values(cls):
    """Each float field of ``cls`` at its default or anywhere in the range
    ``validate`` accepts, subnormals and 1.7e308 included."""
    low = {"R": 1.0, "k_p": 0.0, "k_d": 0.0}
    return st.fixed_dictionaries({
        name: st.just(getattr(cls(), name)) | (
            st.floats(0.0, 1.0, exclude_max=True) if name == "C_max"
            else st.floats(low.get(name, 5e-324), 1.7e308)
        )
        for name in model._float_fields(cls)
    })


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    controller=st.sampled_from(list(sim.CONTROLLERS)),
    sections=st.fixed_dictionaries({
        "hopper": accepted_values(model.HopperParams),
        "motor": accepted_values(model.MotorParams),
        "gains": accepted_values(model.Gains),
        "geometry": accepted_values(model.LegGeometry),
    }),
)
def test_any_accepted_config_runs_or_exits_with_a_code(tmp_path, controller, sections):
    text = f"[run]\ncontroller = {controller}\nduration = 0.05\n" + "".join(
        f"[{section}]\n" + "".join(f"{key} = {value!r}\n" for key, value in values.items())
        for section, values in sections.items()
    )
    cfg = write(tmp_path, text)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) in (0, 1, 2)


class TestCmdRun:
    def test_smoke_creates_files(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "run", "--preset", "physical-force", "--hops", "1",
            "--out", str(out), "--plots",
        ])
        assert code == 0
        for name in ("run.csv", "summary.csv", "status.txt", "aor.svg", "foot.svg"):
            assert (out / name).is_file(), name
        assert (out / "status.txt").read_text() == "ok\n"
        header = (out / "run.csv").read_text().splitlines()[0]
        assert header.startswith("t,phase,y_body")

    def test_determinism_same_bytes(self, tmp_path):
        args = ["run", "--preset", "physical-force", "--hops", "1"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a/run.csv").read_bytes() == (tmp_path / "b/run.csv").read_bytes()

    def test_bad_dt_names_field(self, tmp_path, capsys):
        code = main([
            "run", "--preset", "physical-force", "--hops", "1",
            "--dt", "-1", "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "dt" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("flags", "field"),
        [
            (["--dt", "nan"], "dt"),
            (["--dt", "inf"], "dt"),
            (["--hops", "0"], "hops"),
            (["--hops", "-2"], "hops"),
            (["--duration", "nan"], "duration"),
            (["--duration", "inf"], "duration"),
            (["--duration", "-1"], "duration"),
        ],
    )
    def test_bad_run_knobs_rejected(self, tmp_path, capsys, flags, field):
        out = tmp_path / "o"
        code = main(["run", "--preset", "physical-force", *flags, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        ("command", "value"),
        # the run cases keep their ids: nan, inf, 0
        [
            pytest.param(command, value, id=value if command == "run" else f"{command}-{value}")
            for command in ("run", "traj", "aor")
            for value in ("nan", "inf", "0")
        ],
    )
    def test_bad_control_rate_rejected(self, tmp_path, capsys, command, value):
        # traj with 0 died of a ZeroDivisionError and with nan of a ValueError
        cfg = write(tmp_path, f"[run]\npreset = physical-force\ncontrol_rate = {value}\n")
        out = tmp_path / "o"
        code = main([command, "--config", str(cfg), "--hops", "1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "control_rate" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("dt", ["1e-300", "1e-320"])
    def test_tiny_dt_rejected_quickly(self, tmp_path, dt):
        # before the substep bound, 1e-300 never finished and 1e-320 (period /
        # dt is inf) died in round() with an OverflowError traceback; run in a
        # child so a regression fails on the timeout instead of hanging here
        out = tmp_path / "o"
        proc = run_cli_in_child([
            "run", "--preset", "physical-force", "--hops", "1",
            "--dt", dt, "--out", str(out),
        ])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: dt=")
        assert len(proc.stderr.strip().splitlines()) == 1
        assert not (out / "run.csv").exists()

    def test_huge_control_rate_rejected_quickly(self, tmp_path):
        # a 1e-20 s tick stops advancing the clock near t = 1.2e-4 s, so the
        # run never reached its 30 s guard
        cfg = write(tmp_path, "[run]\npreset = physical-force\ncontrol_rate = 1e20\nhops = 1\n")
        out = tmp_path / "o"
        proc = run_cli_in_child(["run", "--config", str(cfg), "--out", str(out)])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: control_rate=1e+20 ")
        assert len(proc.stderr.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        ("command", "knob", "what"),
        [("run", "hops = 1", "control ticks"), ("traj", "duration = 0", "trajectory rows")],
    )
    def test_too_many_ticks_rejected_quickly(self, tmp_path, command, knob, what):
        # a 1e-12 s tick still moves the clock at the 30 s guard, but the run
        # asked for up to 3e13 ticks and was killed on a timeout; duration = 0
        # lets the rate through the run checks, and traj would still write
        # one row per tick of its period
        cfg = write(tmp_path, f"[run]\npreset = physical-force\ncontrol_rate = 1e12\n{knob}\n")
        out = tmp_path / "o"
        proc = run_cli_in_child([command, "--config", str(cfg), "--out", str(out)])
        assert proc.returncode == 1
        assert proc.stderr.startswith(
            f"error: control_rate={1e12!r} asks for more than {sim.MAX_TICKS} {what} "
        )
        assert len(proc.stderr.strip().splitlines()) == 1
        assert not out.exists()

    def test_substep_bound_is_inclusive(self):
        period = 1.0 / 4000.0
        ok = RunConfig(dt=period / sim.MAX_SUBSTEPS_PER_TICK, hops=1)
        assert ok.resolve().dt == ok.dt
        with pytest.raises(ConfigError, match="substeps per control tick"):
            RunConfig(dt=period / (2 * sim.MAX_SUBSTEPS_PER_TICK), hops=1).resolve()

    @pytest.mark.parametrize(
        ("section", "key"),
        [
            ("motor", "tau_max"),
            ("motor", "omega_max"),
            ("motor", "R"),
            ("gains", "k_p"),
            ("gains", "k_d"),
            ("geometry", "L1"),
            ("geometry", "L2"),
        ],
    )
    def test_non_finite_field_rejected(self, tmp_path, capsys, section, key):
        cfg = write(tmp_path, f"[run]\npreset = physical-force\n[{section}]\n{key} = inf\n")
        out = tmp_path / "o"
        code = main(["run", "--config", str(cfg), "--hops", "1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key}: must be finite" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        ("text", "reason"),
        [
            ("[run]\npreset = physical-force\n[run]\nhops = 2\n", "section 'run' already exists"),
            ("[run]\nhops = 2\nhops = 3\n", "option 'hops' in section 'run' already exists"),
        ],
        ids=["section", "key"],
    )
    def test_duplicate_is_one_error_line(self, tmp_path, capsys, text, reason):
        # configparser rejects a repeated section or key with an error that
        # is not a ParsingError, so it carries no line of its own
        cfg = write(tmp_path, text)
        out = tmp_path / "o"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: invalid config {cfg}: While reading from '{cfg}' [line  3]: {reason}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "traj"])
    def test_no_lift_off_is_one_error_line(self, tmp_path, capsys, command):
        # the spring cannot hold the 5 kg foot up at this amplitude
        cfg = write(tmp_path, "[hopper]\nm = 1\nm_e = 5\nk_s = 100\nC_amp = 0.01\n")
        out = tmp_path / "o"
        code = main([command, "--config", str(cfg), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: no lift-off"), err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "traj", "compare", "spring", "aor"])
    @pytest.mark.parametrize(
        "line",
        [
            "C_amp = 1e300", "g = 1e300", "k_s = 1e-300", "m = 1e200",
            "k_s = 5e-324", "k_s = 1.7e308", "m = 5e-324",
        ],
    )
    def test_extreme_hopper_value_is_one_error_line(self, tmp_path, capsys, command, line):
        # finite values that validate accepts but the closed forms cannot
        # compute: overflow, an infinite constant, a period that is zero or
        # infinite.  The spring law reads no cycle, but its setup builds one:
        # a spring run with C_amp = 1e300 ended ok, with k_s = 1.7e308 it ran
        # the whole 30 s guard to exit 2; aor, which reads only the motor,
        # wrote its files and exited 0.
        cfg = write(tmp_path, f"[run]\npreset = physical-force\n[hopper]\n{line}\n")
        out = tmp_path / "o"
        other = ["--preset", "physical-position"] if command == "compare" else []
        if command == "spring":
            command, other = "run", ["--controller", "spring"]
        code = main([command, "--config", str(cfg), *other, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: invalid parameters: hopper: the closed-form hop cycle")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "traj", "compare"])
    def test_lift_off_out_of_reach_is_an_unreachable_trajectory(
        self, tmp_path, capsys, command
    ):
        # a finite cycle whose lift-off length is far beyond the leg's reach,
        # the same outcome as the paper-literal preset's
        cfg = write(tmp_path, "[run]\npreset = physical-force\n[hopper]\ny_s_neu = 1e300\n")
        out = tmp_path / "o"
        other = ["--preset", "physical-position"] if command == "compare" else []
        code = main([command, "--config", str(cfg), *other, "--out", str(out)])
        assert "error:" not in capsys.readouterr().err
        unreachable = "aborted: desired trajectory unreachable on 101 ticks"
        if command == "run":
            assert code == 2
            assert (out / "status.txt").read_text().startswith(unreachable)
        elif command == "traj":
            assert code == 0
            assert (out / "traj.csv").exists()
        else:
            assert code == 0
            status_row = next(
                line for line in (out / "compare.csv").read_text().splitlines()
                if line.startswith("status,")
            )
            _, a, b, _ = status_row.split(",", 3)
            assert a.startswith(unreachable) and b == "ok"

    @pytest.mark.parametrize("command", ["run", "compare", "traj", "aor"])
    @pytest.mark.parametrize(
        ("section", "lines"),
        [
            # L2**2 overflows
            ("geometry", "L2 = 1.2006444916438845e+252"),
            # 2*L1*L2 underflows to 0; the stops cross
            ("geometry", "L1 = 3.564422582146801e-275\nL2 = 1.0979067747436457e-79"),
            # the knee angle rounds the folded stop to a zero length
            ("geometry", "L1 = 23726567.0\nL2 = 23726567.0"),
            # the joint-side no-load speed omega_max/R underflows to 0
            ("motor", "omega_max = 5e-324"),
        ],
        ids=["L2_overflow", "L1L2_underflow", "long_equal_links", "no_load_underflow"],
    )
    def test_unusable_derived_value_is_one_error_line(
        self, tmp_path, capsys, command, section, lines
    ):
        cfg = write(tmp_path, f"[run]\npreset = physical-force\n[{section}]\n{lines}\n")
        out = tmp_path / "o"
        other = ["--preset", "physical-position"] if command == "compare" else []
        code = main([command, "--config", str(cfg), *other, "--hops", "1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"error: invalid parameters: {section}: ")
        assert not out.exists()

    def test_lift_at_the_first_record_leaves_window_metrics_empty(self, tmp_path):
        # next to no foot weight: the pin force is 0 at t = 0, so the foot lifts there
        cfg = write(tmp_path, "[run]\npreset = physical-force\n[hopper]\ng = 5e-324\nm_e = 0.001\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--hops", "1", "--out", str(out)]) == 0
        assert (out / "status.txt").read_text() == "ok\n"
        header, row = (out / "summary.csv").read_text().splitlines()
        summary = dict(zip(header.split(","), row.split(",")))
        assert summary["t_first_lift"] == "0.0"
        assert summary["c_act_avg"] == summary["work"] == summary["energy_residual"] == ""
        assert summary["aor_mean_gap"] != ""

    def test_lift_inside_the_first_tick_leaves_window_metrics_empty(self):
        setup = RunConfig(preset="physical-force", hops=1).resolve()
        result = sim.run(setup)
        lift = result.log.lift_events()[0]
        i = result.log.events.index(lift)
        result.log.events[i] = lift._replace(t=0.5 * result.log.records[1].t)
        curve = metrics.aor_curve(setup.bundle.motor)
        summary = cli.summarize(result, curve, tuple(metrics.speed_torque_trace(result.log)))
        assert summary.t_first_lift == 0.5 * result.log.records[1].t
        assert summary.c_act_avg is summary.work is summary.energy_residual is None

    def test_zero_duration_still_runs(self, tmp_path):
        out = tmp_path / "z"
        code = main(["run", "--preset", "physical-force", "--duration", "0", "--out", str(out)])
        assert code == 0
        assert len((out / "run.csv").read_text().splitlines()) == 2

    def test_unreachable_run_aborts_with_status(self, tmp_path):
        out = tmp_path / "pl"
        code = main([
            "run", "--preset", "paper-literal-force", "--hops", "1",
            "--out", str(out),
        ])
        assert code == 2
        status = (out / "status.txt").read_text()
        assert status.startswith("aborted:")
        assert "ticks in total (limit 100)" in status
        # the partial log is still complete rows with the full header
        lines = (out / "run.csv").read_text().splitlines()
        assert len(lines) >= 2
        assert all(line.count(",") == lines[0].count(",") for line in lines)

    def test_hop_target_not_reached_exits_2(self, tmp_path, capsys, monkeypatch):
        # a 0.2 s guard in place of the 30 s default keeps the run short
        monkeypatch.setattr(sim, "MAX_DURATION", 0.2)
        cfg = write(tmp_path, "[run]\npreset = physical-force\n[motor]\ntau_max = 0.001\n")
        out = tmp_path / "o"
        code = main(["run", "--config", str(cfg), "--hops", "3", "--out", str(out)])
        assert code == 2
        status = (out / "status.txt").read_text()
        assert status == "aborted: hop target not reached (0 of 3 landings by t=0.200000)\n"
        assert "hop target not reached" in capsys.readouterr().err

    def test_controller_flag_accepts_spring(self, tmp_path):
        flag = tmp_path / "flag"
        assert main([
            "run", "--preset", "physical-force", "--controller", "spring",
            "--hops", "1", "--out", str(flag),
        ]) == 0
        assert (flag / "status.txt").read_text() == "ok\n"
        # the same run as `controller = spring` in a config file
        cfg = write(tmp_path, "[run]\npreset = physical-force\ncontroller = spring\n")
        file = tmp_path / "file"
        assert main(["run", "--config", str(cfg), "--hops", "1", "--out", str(file)]) == 0
        assert (flag / "run.csv").read_bytes() == (file / "run.csv").read_bytes()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_clamped_spring_run_warns_once(self, tmp_path, capsys, command):
        # the default motor clamps the spring's knee torque on most rows,
        # while the plant integrates the unclamped law; the run stays ok
        cfg = write(tmp_path, "[run]\npreset = physical-force\ncontroller = spring\n")
        other = ["--preset", "physical-force"] if command == "compare" else []
        out = tmp_path / "o"
        argv = [command, *other, "--config", str(cfg), "--hops", "2", "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: 4254 of 4692 rows record a knee command clamped below the torque the "
            "plant applied: the plant integrated the unclamped spring law"
        ]
        run_csv = (out / "b-spring" if command == "compare" else out) / "run.csv"
        with run_csv.open() as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4692
        assert sum(abs(float(r["tau_dyn_knee"])) > float(r["tau_sat_knee"]) for r in rows) == 4254

    def test_spring_run_inside_the_envelope_prints_no_warning(self, tmp_path, capsys):
        m = ORACLE_MOTOR
        cfg = write(tmp_path, (
            "[run]\npreset = physical-force\ncontroller = spring\n"
            f"[motor]\ntau_max = {m.tau_max}\nomega_max = {m.omega_max}\nR = {m.R}\n"
        ))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--hops", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert (out / "status.txt").read_text() == "ok\n"

    def test_python_m_hopsim(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "hopsim", "presets"],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "physical-force" in proc.stdout

    def test_unknown_preset(self, tmp_path, capsys):
        code = main(["run", "--preset", "nope", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "unknown preset" in capsys.readouterr().err


class TestCmdCompare:
    def test_force_vs_position_ordering(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main([
            "compare", "--preset", "physical-force", "--preset", "physical-position",
            "--hops", "1", "--out", str(out),
        ])
        assert code == 0
        rows = {}
        for line in (out / "compare.csv").read_text().splitlines()[1:]:
            name, a, b, _ = line.split(",")
            rows[name] = (a, b)
        assert float(rows["h_r_max"][0]) > 1.3 * float(rows["h_r_max"][1])
        assert float(rows["c_act_avg"][0]) > float(rows["c_act_avg"][1])
        # 4-decimal format contract
        assert len(rows["c_act_avg"][0].split(".")[1]) == 4
        out_text = capsys.readouterr().out
        assert "c_act_avg" in out_text

    def test_identical_configs_zero_deltas(self, tmp_path):
        out = tmp_path / "same"
        code = main([
            "compare", "--preset", "physical-force", "--preset", "physical-force",
            "--hops", "1", "--out", str(out),
        ])
        assert code == 0
        for line in (out / "compare.csv").read_text().splitlines()[1:]:
            name, _a, _b, delta = line.split(",")
            if delta not in ("", "0.0", "0.0000"):
                assert float(delta) == 0.0

    def test_failed_side_still_reports_other(self, tmp_path):
        out = tmp_path / "half"
        code = main([
            "compare", "--preset", "paper-literal-force", "--preset", "physical-force",
            "--hops", "1", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "compare.csv").read_text().splitlines()
        status_row = [l for l in lines if l.startswith("status,")][0]
        _, a, b, _ = status_row.split(",", 3)
        assert a.startswith("aborted") and b == "ok"

    def test_both_sides_aborted_exits_2(self, tmp_path, capsys):
        out = tmp_path / "both"
        code = main([
            "compare", "--preset", "paper-literal-force", "--preset", "paper-literal-position",
            "--hops", "1", "--out", str(out),
        ])
        assert code == 2
        unreachable = "aborted: desired trajectory unreachable"
        for side in ("a-force", "b-position"):
            assert (out / side / "status.txt").read_text().startswith(unreachable), side
        lines = (out / "compare.csv").read_text().splitlines()
        status_row = [l for l in lines if l.startswith("status,")][0]
        _, a, b, _ = status_row.split(",", 3)
        assert a.startswith(unreachable) and b.startswith(unreachable)
        assert capsys.readouterr().err.splitlines() == [LIFT_WARNING, LIFT_WARNING]

    def test_side_a_log_is_freed_before_side_b_runs(self, tmp_path, monkeypatch):
        # compare held both sides' results until the end, so the first log
        # stayed alive through the second run
        inner = sim.run
        logs, alive = [], []

        def tracking(setup):
            alive.append([ref() is not None for ref in logs])
            result = inner(setup)
            logs.append(weakref.ref(result.log))
            return result

        monkeypatch.setattr(sim, "run", tracking)
        code = main([
            "compare", "--preset", "physical-force", "--preset", "physical-position",
            "--hops", "1", "--out", str(tmp_path / "cmp"), "--plots",
        ])
        assert code == 0
        assert alive == [[], [False]]
        assert (tmp_path / "cmp" / "c_act.svg").is_file()

    def test_summarizes_each_side_once(self, tmp_path, monkeypatch):
        calls = []
        inner = cli.summarize

        def counting(result, *args):
            calls.append(result.setup.controller)
            return inner(result, *args)

        monkeypatch.setattr(cli, "summarize", counting)
        code = main([
            "compare", "--preset", "physical-force", "--preset", "physical-position",
            "--hops", "1", "--out", str(tmp_path / "cmp"),
        ])
        assert code == 0
        assert calls == ["force", "position"]

    @pytest.mark.parametrize("bad_side", ["a", "b"])
    @pytest.mark.parametrize(
        ("lines", "reason"),
        [
            # the closed-form cycle fails
            ("[hopper]\nC_amp = 1e300", "invalid parameters: hopper: the closed-form hop cycle"),
            # a run knob fails
            ("control_rate = 0", "control_rate must be positive and finite"),
        ],
        ids=["cycle", "resolve"],
    )
    def test_invalid_side_writes_no_file(self, tmp_path, capsys, bad_side, lines, reason):
        cfg = write(tmp_path, f"[run]\npreset = physical-force\n{lines}\n")
        sources = [["--config", str(cfg)], ["--preset", "physical-force"]]
        if bad_side == "b":
            sources.reverse()
        out = tmp_path / "o"
        code = main(["compare", *sources[0], *sources[1], "--hops", "1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {reason}"), err
        assert not out.exists()

    def test_requires_two_sources(self, tmp_path, capsys):
        code = main(["compare", "--preset", "physical-force", "--out", str(tmp_path)])
        assert code == 1
        assert "expected 2" in capsys.readouterr().err


class TestCmdTrajAor:
    def test_traj_spans_one_period(self, tmp_path, physical):
        out = tmp_path / "traj"
        code = main(["traj", "--preset", "physical-force", "--out", str(out)])
        assert code == 0
        lines = (out / "traj.csv").read_text().splitlines()
        assert lines[0] == "t,y_des,phase"
        T = analytic.hop_period(physical)
        last_t = float(lines[-1].split(",")[0])
        assert abs(last_t - T) <= 1.0 / 4000.0
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert first[2] == "stance"

    def test_traj_paper_literal_period(self, tmp_path, paper_literal):
        out = tmp_path / "trajpl"
        code = main(["traj", "--preset", "paper-literal-force", "--out", str(out)])
        assert code == 0
        lines = (out / "traj.csv").read_text().splitlines()
        last_t = float(lines[-1].split(",")[0])
        assert abs(last_t - 3.2367) <= 1.0 / 4000.0 + 1e-4

    def test_aor_first_row_is_stall_point(self, tmp_path):
        out = tmp_path / "aor"
        code = main(["aor", "--preset", "physical-force", "--out", str(out), "--plots"])
        assert code == 0
        lines = (out / "aor.csv").read_text().splitlines()
        assert lines[0] == "speed,torque"
        assert lines[1] == "0.0,35.0"
        assert len(lines) == 1 + 256
        assert (out / "aor.svg").is_file()

    @pytest.mark.parametrize("omega_max", ["-520.0", "inf", "nan"])
    def test_aor_rejects_invalid_motor(self, tmp_path, capsys, omega_max):
        cfg = write(tmp_path, f"[run]\npreset = physical-force\n[motor]\nomega_max = {omega_max}\n")
        out = tmp_path / "aor"
        code = main(["aor", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "omega_max" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        ("flags", "reason"),
        [
            (["--dt", "nan"], "dt must be positive and finite"),
            (["--hops", "0"], "hops must be at least 1"),
            (["--duration", "-1"], "duration must be non-negative and finite"),
        ],
        ids=["dt-nan", "hops-0", "duration-negative"],
    )
    def test_aor_rejects_bad_run_knobs(self, tmp_path, capsys, flags, reason):
        # aor read only the motor, so each of these wrote aor.csv and exited 0
        out = tmp_path / "aor"
        code = main(["aor", "--preset", "physical-force", *flags, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {reason}"), err
        assert not out.exists()

    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in cli.RUN_PRESET_NAMES:
            assert name in out


@pytest.mark.parametrize(
    ("command", "case"),
    [(c, case) for c in ("run", "compare", "traj", "aor") for case in ("file", "under-file")]
    + [("compare", "side-file")],
)
def test_out_on_a_file_is_one_error_line_before_any_run(
    tmp_path, capsys, monkeypatch, command, case
):
    # these crashed after the simulation had run: FileExistsError for a
    # file, NotADirectoryError for a path under one
    taken = tmp_path / "taken"
    if case == "side-file":  # compare's side-a directory is a file
        taken.mkdir()
        (taken / "a-force").write_text("keep\n")
    else:
        taken.write_text("keep\n")
    out = taken / "x" if case == "under-file" else taken

    def no_run(setup):
        raise AssertionError("sim.run called before the output directory was checked")

    monkeypatch.setattr(sim, "run", no_run)
    sources = ["--preset", "physical-force"] * (2 if command == "compare" else 1)
    code = main([command, *sources, "--hops", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write to "), err
    assert err[0].endswith("is not a directory"), err
    files = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
    assert files == (["taken", "taken/a-force"] if case == "side-file" else ["taken"])


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["run", "compare", "traj", "aor"])
def test_empty_out_is_one_error_line_before_any_run(
    tmp_path, capsys, monkeypatch, command, source
):
    # --out '' was dropped (files went to out/), and a config file's empty
    # out wrote run.csv, summary.csv and status.txt into the current directory
    def no_run(setup):
        raise AssertionError("sim.run called with an empty out")

    monkeypatch.setattr(sim, "run", no_run)
    monkeypatch.chdir(tmp_path)
    if source == "flag":
        sources, out = ["--preset", "physical-force"], ["--out", ""]
    else:
        cfg = write(tmp_path, "[run]\npreset = physical-force\nout =\n")
        sources, out = ["--config", str(cfg)], []
    code = main([command, *sources * (2 if command == "compare" else 1), "--hops", "1", *out])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: out must name a directory (use '.' for the current one)"]
    assert [p.name for p in tmp_path.iterdir()] == ([] if source == "flag" else ["run.cfg"])


@pytest.mark.parametrize("command", ["run", "compare"])
def test_directory_in_place_of_an_output_file_is_one_error_line(tmp_path, capsys, command):
    # os.replace raised an IsADirectoryError traceback after the run
    out = tmp_path / "o"
    side = out / "a-force" if command == "compare" else out
    blocker = side / "summary.csv"
    (blocker / "kept").mkdir(parents=True)
    sources = ["--preset", "physical-force"] * (2 if command == "compare" else 1)
    code = main([command, *sources, "--hops", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: cannot write {str(blocker)!r}: {os.strerror(errno.EISDIR)}"]
    # the directory stays, and so does the file written before the failing one
    assert (blocker / "kept").is_dir()
    assert sorted(p.name for p in side.iterdir()) == ["run.csv", "summary.csv"]
    if command == "compare":  # side b never ran
        assert [p.name for p in out.iterdir()] == ["a-force"]


def test_out_that_cannot_be_made_is_one_error_line(tmp_path, capsys, monkeypatch):
    # an unwritable parent makes mkdir raise PermissionError
    def denied(self, *args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))

    monkeypatch.setattr(Path, "mkdir", denied)
    out = tmp_path / "o"
    code = main(["run", "--preset", "physical-force", "--hops", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: cannot write {str(out / 'run.csv')!r}: {os.strerror(errno.EACCES)}"]
    assert not out.exists()


LIFT_WARNING = "warning: lift-off height 0.9116 m exceeds reach 0.741 m"


@pytest.mark.parametrize(
    ("argv", "code", "after"),
    [
        (["run", "--preset", "paper-literal-force"], 2, ["run aborted: desired trajectory "]),
        (["compare", "--preset", "paper-literal-force", "--preset", "physical-force"], 0, []),
        (["traj", "--preset", "paper-literal-position"], 0, []),
        (["aor", "--preset", "paper-literal-force"], 0, []),
    ],
    ids=["run", "compare", "traj", "aor"],
)
def test_validation_warning_is_printed_once_before_the_run(tmp_path, capsys, argv, code, after):
    assert main([*argv, "--hops", "1", "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 + len(after), err
    assert err[0] == LIFT_WARNING
    for line, start in zip(err[1:], after):
        assert line.startswith(start), err


@pytest.mark.parametrize("command", ["run", "compare", "traj", "aor"])
def test_physical_presets_print_no_warning(tmp_path, capsys, command):
    sources = ["--preset", "physical-force", "--preset", "physical-position"]
    argv = [command, *(sources if command == "compare" else sources[:2])]
    assert main([*argv, "--hops", "1", "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    ("dt", "warnings"),
    [
        ("1e-3", ["warning: dt=0.001 runs as 0.00025 (1 substeps per 1/4000 s tick)"]),
        ("1.5e-4", ["warning: dt=0.00015 runs as 0.000125 (2 substeps per 1/4000 s tick)"]),
        ("2.5e-5", []),
        (None, []),
    ],
    ids=["longer-than-tick", "non-divisor", "divisor", "default"],
)
def test_dt_that_does_not_divide_the_tick_warns(tmp_path, capsys, dt, warnings):
    # the plant rounds the control period over dt to whole substeps; a dt it
    # cannot keep still runs, at the substep the warning names
    flags = [] if dt is None else ["--dt", dt]
    argv = ["run", "--preset", "physical-force", "--hops", "1", *flags]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err.splitlines() == warnings


@pytest.mark.parametrize("case", ["bad-knob", "blocked-file"])
def test_input_errors_still_print_one_error_line(tmp_path, capsys, case):
    # a knob fails before the warnings; a blocked output file fails after
    # them, and the warning line then comes first
    out = tmp_path / "o"
    flags = ["--dt", "nan"] if case == "bad-knob" else []
    if case == "blocked-file":
        (out / "summary.csv").mkdir(parents=True)
    argv = ["run", "--preset", "paper-literal-force", "--hops", "1", *flags, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error: ")] == err[-1:], err
    assert err[:-1] == ([] if case == "bad-knob" else [LIFT_WARNING]), err


class TestWriteAtomic:
    def test_writes_text_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "sub" / "run.csv"
        cli.write_atomic(target, "a,b\n1,2\n")
        cli.write_atomic(target, "a,b\n3,4\n")
        assert target.read_text() == "a,b\n3,4\n"
        assert os.listdir(target.parent) == ["run.csv"]

    def test_runs_leave_no_temp_files(self, tmp_path):
        out = tmp_path / "cmp"
        code = main([
            "compare", "--preset", "physical-force", "--preset", "physical-position",
            "--hops", "1", "--out", str(out), "--plots",
        ])
        assert code == 0
        assert not list(out.rglob("*.tmp"))

    def test_temp_names_are_unique_and_beside_the_target(self, tmp_path, monkeypatch):
        temps = []
        inner = os.replace

        def recording(src, dst):
            temps.append(Path(src))
            inner(src, dst)

        monkeypatch.setattr(os, "replace", recording)
        target = tmp_path / "run.csv"
        cli.write_atomic(target, "x\n")
        cli.write_atomic(target, "y\n")
        assert len(set(temps)) == 2
        assert all(t.parent == tmp_path and t.name.startswith("run.csv.") for t in temps)

    def test_concurrent_writers_into_one_directory(self, tmp_path):
        # with one shared "run.csv.tmp" a writer could rename away another's
        # temp file, whose os.replace then failed
        target = tmp_path / "run.csv"
        texts = [f"writer {i}\n" * 2000 for i in range(4)]
        errors = []

        def writer(text):
            try:
                for _ in range(40):
                    cli.write_atomic(target, text)
            except Exception as exc:  # collected and asserted below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in texts]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert target.read_text() in texts
        assert os.listdir(tmp_path) == ["run.csv"]

    def test_failed_write_removes_its_temp_file(self, tmp_path):
        target = tmp_path / "run.csv"
        with pytest.raises(UnicodeEncodeError):
            cli.write_atomic(target, "\udc80")  # a lone surrogate cannot be encoded
        assert os.listdir(tmp_path) == []

    def test_mode_matches_a_plain_write(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x")
        target = tmp_path / "atomic.txt"
        cli.write_atomic(target, "x")
        assert target.stat().st_mode == plain.stat().st_mode
