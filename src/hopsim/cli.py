"""Command-line interface: config ingestion, runs, comparisons, file output.

Subcommands: ``run``, ``compare``, ``traj``, ``aor``, ``presets``.  Exit
codes: 0 success, 1 configuration error, 2 runtime abort.  All file output
is atomic (temp file + rename) and a per-run ``status.txt`` records success
or the abort reason, so a failed run never masquerades as a complete one.
"""

from __future__ import annotations

import argparse
import configparser
import os
import statistics
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

from . import analytic, metrics, model, sim, svg
from .errors import ConfigError, HopsimError, ParameterError, SimulationAbort
from .model import Gains, HopperParams, LegGeometry, MotorParams

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration (physics, controller, run knobs, output)."""

    controller: str = "force"
    params: HopperParams = HopperParams(k_s=1700.0)
    motor: MotorParams = MotorParams()
    gains: Gains | None = Gains()
    geometry: LegGeometry = LegGeometry()
    preset: str | None = None
    duration: float | None = None
    hops: int | None = None
    dt: float = 2.5e-4
    control_rate: float = 4000.0
    out_dir: str = "out"
    emit_plots: bool = False

    def to_text(self) -> str:
        """Serialize back to the plain-text config format (round-trips)."""
        lines = ["[run]"]
        if self.preset:
            lines.append(f"preset = {self.preset}")
        lines.append(f"controller = {self.controller}")
        if self.duration is not None:
            lines.append(f"duration = {self.duration!r}")
        if self.hops is not None:
            lines.append(f"hops = {self.hops}")
        lines += [
            f"dt = {self.dt!r}",
            f"control_rate = {self.control_rate!r}",
            f"out = {self.out_dir}",
            f"plots = {'true' if self.emit_plots else 'false'}",
            "",
            "[hopper]",
        ]
        p = self.params
        lines += [
            f"m = {p.m!r}",
            f"m_e = {p.m_e!r}",
            f"m_t = {p.m_t!r}",
            f"k_s = {p.k_s!r}",
            f"y_s_neu = {p.y_s_neu!r}",
            f"C_amp = {p.C_amp!r}",
            f"C_max = {p.C_max!r}",
            f"g = {p.g!r}",
            "",
            "[motor]",
            f"tau_max = {self.motor.tau_max!r}",
            f"omega_max = {self.motor.omega_max!r}",
            f"R = {self.motor.R!r}",
        ]
        if self.gains is not None:
            lines += [
                "",
                "[gains]",
                f"k_p = {self.gains.k_p!r}",
                f"k_d = {self.gains.k_d!r}",
            ]
        lines += [
            "",
            "[geometry]",
            f"L1 = {self.geometry.L1!r}",
            f"L2 = {self.geometry.L2!r}",
            f"knee_sign = {self.geometry.knee_sign}",
            "",
        ]
        return "\n".join(lines)

    def validated(self) -> model.ValidatedBundle:
        """Validate the physics; a violated invariant becomes a ConfigError."""
        try:
            return model.validate(
                self.params, self.motor, self.gains or Gains(), self.geometry
            )
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc

    def resolve(self) -> sim.RunSetup:
        """Validate and build the simulation setup; applies the default hop
        count when neither duration nor hop count was specified."""
        bundle = self.validated()
        duration, hops = self.duration, self.hops
        if duration is None and hops is None:
            hops = 3
        if duration is not None and hops is not None:
            raise ConfigError("specify duration or hops, not both")
        if self.controller not in ("force", "position", "spring"):
            raise ConfigError(f"unknown controller {self.controller!r}")
        setup = sim.RunSetup(
            bundle=bundle,
            controller=self.controller,
            duration=duration,
            hops=hops,
            dt=self.dt,
            control_rate=self.control_rate,
        )
        try:
            sim.check_setup(setup)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return setup


def _run_preset(name: str) -> RunConfig:
    table1_gains = Gains(k_p=5424.0, k_d=9.0)
    presets = {
        "paper-literal-force": RunConfig(
            controller="force",
            params=model.physics_preset("paper-literal"),
            gains=table1_gains,
            preset="paper-literal-force",
        ),
        "paper-literal-position": RunConfig(
            controller="position",
            params=model.physics_preset("paper-literal"),
            gains=None,
            preset="paper-literal-position",
        ),
        "physical-force": RunConfig(
            controller="force",
            params=model.physics_preset("physical"),
            gains=table1_gains,
            preset="physical-force",
        ),
        "physical-position": RunConfig(
            controller="position",
            params=model.physics_preset("physical"),
            gains=None,
            preset="physical-position",
        ),
    }
    try:
        return presets[name]
    except KeyError:
        known = ", ".join(sorted(presets))
        raise ConfigError(f"unknown preset {name!r} (known: {known})") from None


RUN_PRESET_NAMES = (
    "paper-literal-force",
    "paper-literal-position",
    "physical-force",
    "physical-position",
)

_SCHEMA = {
    "run": {
        "preset": str,
        "controller": str,
        "duration": float,
        "hops": int,
        "dt": float,
        "control_rate": float,
        "out": str,
        "plots": bool,
    },
    "hopper": {
        "m": float,
        "m_e": float,
        "m_t": float,
        "k_s": float,
        "y_s_neu": float,
        "C_amp": float,
        "C_max": float,
        "g": float,
    },
    "motor": {"tau_max": float, "omega_max": float, "R": float},
    "gains": {"k_p": float, "k_d": float},
    "geometry": {"L1": float, "L2": float, "knee_sign": int},
}

_HOPPER_FIELD = {
    "m": "m",
    "m_e": "m_e",
    "m_t": "m_t",
    "k_s": "k_s",
    "y_s_neu": "y_s_neu",
    "C_amp": "C_amp",
    "C_max": "C_max",
    "g": "g",
}


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def parse_config(path: str | os.PathLike) -> RunConfig:
    """Parse a plain-text ``key = value`` config with ``[section]`` headers.

    Unknown sections or keys are rejected; syntax errors report the line
    number.  A ``preset`` key seeds the configuration and explicit values
    override it.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    cp.optionxform = str
    try:
        cp.read_string(path.read_text(), source=str(path))
    except configparser.ParsingError as exc:
        line = exc.errors[0][0] if exc.errors else None
        raise ConfigError(f"syntax error in {path}: {exc}", line=line) from exc
    except configparser.Error as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc

    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    has_preset = cp.has_option("run", "preset")
    has_mass = cp.has_option("hopper", "m")
    if not has_preset and not has_mass:
        raise ConfigError("missing required key: preset or m")

    cfg = _run_preset(cp.get("run", "preset")) if has_preset else RunConfig(preset=None)

    def get(section, key, conv):
        raw = cp.get(section, key)
        try:
            if conv is bool:
                return _parse_bool(raw)
            return conv(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc

    if cp.has_section("hopper"):
        updates = {
            _HOPPER_FIELD[k]: get("hopper", k, float) for k in cp["hopper"]
        }
        cfg = replace(cfg, params=replace(cfg.params, **updates))
    if cp.has_section("motor"):
        updates = {k: get("motor", k, float) for k in cp["motor"]}
        cfg = replace(cfg, motor=replace(cfg.motor, **updates))
    if cp.has_section("gains"):
        base = cfg.gains if cfg.gains is not None else Gains()
        updates = {k: get("gains", k, float) for k in cp["gains"]}
        cfg = replace(cfg, gains=replace(base, **updates))
    if cp.has_section("geometry"):
        conv = {"L1": float, "L2": float, "knee_sign": int}
        updates = {k: get("geometry", k, conv[k]) for k in cp["geometry"]}
        cfg = replace(cfg, geometry=replace(cfg.geometry, **updates))
    if cp.has_section("run"):
        run = cp["run"]
        if "controller" in run:
            cfg = replace(cfg, controller=get("run", "controller", str))
        if "duration" in run:
            cfg = replace(cfg, duration=get("run", "duration", float))
        if "hops" in run:
            cfg = replace(cfg, hops=get("run", "hops", int))
        if "dt" in run:
            cfg = replace(cfg, dt=get("run", "dt", float))
        if "control_rate" in run:
            cfg = replace(cfg, control_rate=get("run", "control_rate", float))
        if "out" in run:
            cfg = replace(cfg, out_dir=get("run", "out", str))
        if "plots" in run:
            cfg = replace(cfg, emit_plots=get("run", "plots", bool))
    if cfg.duration is not None and cfg.hops is not None:
        raise ConfigError("specify duration or hops, not both")
    return cfg


# --- file emission -----------------------------------------------------------


def write_atomic(path: Path, text: str) -> None:
    """Write via a temp file and rename, so readers never see a partial file.

    The temp file is named per call (pid plus random bits) and opened with
    ``"x"``, so concurrent writers into one directory never share or clobber
    it; the file gets the same umask-derived mode as a plain write.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    f = open(tmp, "x")  # outside the try: a name that exists is not ours to remove
    try:
        with f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _median_interval(times: list[float]) -> float | None:
    if len(times) < 2:
        return None
    return statistics.median(t1 - t0 for t0, t1 in zip(times, times[1:]))


@dataclass
class RunSummary:
    controller: str
    status: str
    records: int
    lifts: int
    landings: int
    t_first_lift: float | None = None
    period: float | None = None
    c_act_avg: float | None = None
    h_r_init: float | None = None
    h_r_max: float | None = None
    work: float | None = None
    energy_residual: float | None = None
    aor_mean_gap: float | None = None


def summarize(result: sim.RunResult) -> RunSummary:
    log = result.log
    lifts = log.lift_events()
    summary = RunSummary(
        controller=result.setup.controller,
        status=result.status,
        records=len(log.records),
        lifts=len(lifts),
        landings=len(log.landing_events()),
    )
    if not lifts or len(log.records) < 2:
        return summary
    summary.t_first_lift = lifts[0].t
    summary.period = _median_interval([e.t for e in lifts])
    window = metrics.first_stance_window(log)
    summary.c_act_avg = metrics.average_saturation_ratio(log, window)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        summary.h_r_init, summary.h_r_max = metrics.foot_clearance(log)
    balance = metrics.energy_balance(log, window, result.setup.bundle.params)
    summary.work = balance.work
    summary.energy_residual = balance.residual
    curve = metrics.aor_curve(result.setup.bundle.motor)
    summary.aor_mean_gap = metrics.trace_mean_gap(log, curve)
    return summary


_SUMMARY_COLUMNS = (
    "controller",
    "status",
    "records",
    "lifts",
    "landings",
    "t_first_lift",
    "period",
    "c_act_avg",
    "h_r_init",
    "h_r_max",
    "work",
    "energy_residual",
    "aor_mean_gap",
)


def _summary_csv(rows: list[RunSummary]) -> str:
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return repr(v)
        return str(v)

    lines = [",".join(_SUMMARY_COLUMNS)]
    for s in rows:
        lines.append(",".join(cell(getattr(s, c)) for c in _SUMMARY_COLUMNS))
    return "\n".join(lines) + "\n"


def _emit_run_files(out: Path, result: sim.RunResult, plots: bool) -> RunSummary:
    """Write one run's files; returns the summary written to summary.csv."""
    write_atomic(out / "run.csv", result.log.to_csv())
    summary = summarize(result)
    write_atomic(out / "summary.csv", _summary_csv([summary]))
    write_atomic(out / "status.txt", result.status + "\n")
    if plots:
        motor = result.setup.bundle.motor
        curve = metrics.aor_curve(motor)
        trace = metrics.speed_torque_trace(result.log)
        series = [
            svg.Series(curve.mirrored(), "AOR", color="#333333", dash="6,3"),
            svg.Series(tuple(trace), result.setup.controller),
        ]
        write_atomic(
            out / "aor.svg",
            svg.line_plot(
                series,
                title="knee torque-speed trace vs AOR",
                xlabel="joint speed (rad/s)",
                ylabel="|torque| (N m)",
            ),
        )
        foot = [(r.t, r.y_foot) for r in result.log.records]
        write_atomic(
            out / "foot.svg",
            svg.line_plot(
                [svg.Series(tuple(foot), "foot height")],
                title="foot height",
                xlabel="t (s)",
                ylabel="y_foot (m)",
            ),
        )
    return summary


def cmd_run(config: RunConfig) -> int:
    """Execute one run and write run.csv, summary.csv, status.txt (and plots)."""
    setup = config.resolve()
    out = Path(config.out_dir)
    result = sim.run(setup)
    _emit_run_files(out, result, config.emit_plots)
    if not result.ok:
        print(f"run aborted: {result.log.failure}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _fmt4(v: float | None) -> str:
    return "" if v is None else f"{v:.4f}"


def cmd_compare(config_a: RunConfig, config_b: RunConfig) -> int:
    """Run two configurations and emit a side-by-side comparison report.

    Each run's files land in a per-run subdirectory; the comparison table is
    written both as CSV (machine-readable) and plain text.  A side that
    aborts is marked failed while the other side is still reported.
    """
    out = Path(config_a.out_dir)
    results, summaries = [], []
    for label, cfg in (("a", config_a), ("b", config_b)):
        sub = out / f"{label}-{cfg.controller}"
        try:
            result = sim.run(cfg.resolve())
        except HopsimError as exc:
            raise ConfigError(str(exc)) from exc
        summaries.append(_emit_run_files(sub, result, cfg.emit_plots))
        results.append(result)
    ra, rb = results
    sa, sb = summaries

    def delta(x, y):
        if x is None or y is None:
            return None
        return y - x

    rows = [
        ("controller", sa.controller, sb.controller, ""),
        ("status", sa.status, sb.status, ""),
        ("h_r_max", sa.h_r_max, sb.h_r_max, delta(sa.h_r_max, sb.h_r_max)),
        (
            "c_act_avg",
            _fmt4(sa.c_act_avg),
            _fmt4(sb.c_act_avg),
            _fmt4(delta(sa.c_act_avg, sb.c_act_avg)),
        ),
        ("period", sa.period, sb.period, delta(sa.period, sb.period)),
        (
            "energy_residual",
            sa.energy_residual,
            sb.energy_residual,
            delta(sa.energy_residual, sb.energy_residual),
        ),
        (
            "aor_mean_gap",
            sa.aor_mean_gap,
            sb.aor_mean_gap,
            delta(sa.aor_mean_gap, sb.aor_mean_gap),
        ),
    ]

    def cell(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return repr(v)
        return str(v)

    csv_lines = ["metric,a,b,delta"]
    txt_lines = [f"comparison: a={sa.controller} vs b={sb.controller}"]
    for name, va, vb, dv in rows:
        csv_lines.append(f"{name},{cell(va)},{cell(vb)},{cell(dv)}")
        txt_lines.append(f"  {name:16s} a={cell(va):24s} b={cell(vb):24s} delta={cell(dv)}")
    write_atomic(out / "compare.csv", "\n".join(csv_lines) + "\n")
    report = "\n".join(txt_lines) + "\n"
    write_atomic(out / "compare.txt", report)
    print(report, end="")

    if config_a.emit_plots or config_b.emit_plots:
        foot = [
            svg.Series(tuple((r.t, r.y_foot) for r in ra.log.records), f"a:{sa.controller}"),
            svg.Series(tuple((r.t, r.y_foot) for r in rb.log.records), f"b:{sb.controller}"),
        ]
        write_atomic(
            out / "foot_height.svg",
            svg.line_plot(foot, title="foot height", xlabel="t (s)", ylabel="y_foot (m)"),
        )
        cact = [
            svg.Series(
                tuple((r.t, min(r.c_act_knee, 1.5)) for r in ra.log.records),
                f"a:{sa.controller}",
            ),
            svg.Series(
                tuple((r.t, min(r.c_act_knee, 1.5)) for r in rb.log.records),
                f"b:{sb.controller}",
            ),
        ]
        write_atomic(
            out / "c_act.svg",
            svg.line_plot(cact, title="knee saturation ratio", xlabel="t (s)", ylabel="C_act"),
        )
        curve = metrics.aor_curve(config_a.motor)
        trace_series = [
            svg.Series(curve.mirrored(), "AOR", color="#333333", dash="6,3"),
            svg.Series(tuple(metrics.speed_torque_trace(ra.log)), f"a:{sa.controller}"),
            svg.Series(tuple(metrics.speed_torque_trace(rb.log)), f"b:{sb.controller}"),
        ]
        write_atomic(
            out / "trace_aor.svg",
            svg.line_plot(
                trace_series,
                title="knee torque-speed trace vs AOR",
                xlabel="joint speed (rad/s)",
                ylabel="|torque| (N m)",
            ),
        )
    if not ra.ok and not rb.ok:
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_traj(config: RunConfig) -> int:
    """Sample the desired trajectory over one hop period to CSV."""
    cycle = analytic.TrajectoryCycle(config.validated().params)
    step = 1.0 / config.control_rate
    n = int(cycle.period / step)
    lines = ["t,y_des,phase"]
    for i in range(n + 1):
        t = i * step
        s = cycle.sample(t)
        lines.append(f"{t!r},{s.y_des!r},{s.phase.value}")
    out = Path(config.out_dir)
    write_atomic(out / "traj.csv", "\n".join(lines) + "\n")
    if config.emit_plots:
        pts = tuple(
            (i * step, cycle.y_des(i * step)) for i in range(n + 1)
        )
        write_atomic(
            out / "traj.svg",
            svg.line_plot(
                [svg.Series(pts, "y_des")],
                title="desired leg length over one cycle",
                xlabel="t (s)",
                ylabel="y_des (m)",
            ),
        )
    return EXIT_OK


def cmd_aor(config: RunConfig, n: int = 256) -> int:
    """Emit the admissible operating region boundary as CSV (and SVG)."""
    curve = metrics.aor_curve(config.validated().motor, n)
    lines = ["speed,torque"]
    for s, tq in curve.points:
        lines.append(f"{s!r},{tq!r}")
    out = Path(config.out_dir)
    write_atomic(out / "aor.csv", "\n".join(lines) + "\n")
    if config.emit_plots:
        write_atomic(
            out / "aor.svg",
            svg.line_plot(
                [svg.Series(curve.mirrored(), "AOR", color="#333333")],
                title="admissible operating region (joint side)",
                xlabel="joint speed (rad/s)",
                ylabel="torque (N m)",
            ),
        )
    return EXIT_OK


def cmd_presets() -> int:
    for name in RUN_PRESET_NAMES:
        cfg = _run_preset(name)
        gains = (
            f"k_p={cfg.gains.k_p:g} k_d={cfg.gains.k_d:g}"
            if cfg.gains is not None
            else "tracking gains auto-scaled"
        )
        print(
            f"{name}: controller={cfg.controller} k_s={cfg.params.k_s:g} N/m "
            f"m={cfg.params.m:g} kg m_e={cfg.params.m_e:g} kg {gains}"
        )
    return EXIT_OK


# --- argument parsing --------------------------------------------------------


class _SourceAction(argparse.Action):
    """Collect --config/--preset occurrences in command-line order."""

    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, "sources", None) or []
        items.append((self.const, values))
        namespace.sources = items


def _add_common_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", action=_SourceAction, const="config", metavar="PATH",
                    help="plain-text config file")
    sp.add_argument("--preset", action=_SourceAction, const="preset", metavar="NAME",
                    help="built-in preset (see 'presets')")
    sp.add_argument("--controller", choices=["force", "position", "spring"])
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--hops", type=int)
    group.add_argument("--duration", type=float)
    sp.add_argument("--dt", type=float)
    sp.add_argument("--out", metavar="DIR")
    sp.add_argument("--plots", action="store_true")


def _config_from_source(kind: str, value: str) -> RunConfig:
    if kind == "config":
        return parse_config(value)
    return _run_preset(value)


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if getattr(args, "controller", None):
        cfg = replace(cfg, controller=args.controller)
    if getattr(args, "hops", None) is not None:
        cfg = replace(cfg, hops=args.hops, duration=None)
    if getattr(args, "duration", None) is not None:
        cfg = replace(cfg, duration=args.duration, hops=None)
    if getattr(args, "dt", None) is not None:
        cfg = replace(cfg, dt=args.dt)
    if getattr(args, "out", None):
        cfg = replace(cfg, out_dir=args.out)
    if getattr(args, "plots", False):
        cfg = replace(cfg, emit_plots=True)
    return cfg


def _gather_configs(args, expected: int) -> list[RunConfig]:
    sources = getattr(args, "sources", None) or []
    if len(sources) != expected:
        what = "--config/--preset source" + ("s" if expected > 1 else "")
        raise ConfigError(f"expected {expected} {what}, got {len(sources)}")
    return [_apply_overrides(_config_from_source(k, v), args) for k, v in sources]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopsim",
        description="Two-mass hopping-leg simulator and controller comparison tool",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "simulate one configuration and write telemetry"),
        ("traj", "emit the desired trajectory over one cycle"),
        ("aor", "emit the admissible operating region boundary"),
    ):
        sp = sub.add_parser(name, help=help_text)
        _add_common_flags(sp)
    sp = sub.add_parser("compare", help="run two configurations side by side")
    _add_common_flags(sp)
    sub.add_parser("presets", help="list built-in presets")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            return cmd_presets()
        if args.command == "compare":
            cfg_a, cfg_b = _gather_configs(args, 2)
            return cmd_compare(cfg_a, cfg_b)
        (cfg,) = _gather_configs(args, 1)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "traj":
            return cmd_traj(cfg)
        if args.command == "aor":
            return cmd_aor(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationAbort as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
