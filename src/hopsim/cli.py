"""Command-line interface: config ingestion, runs, comparisons, file output.

Subcommands: ``run``, ``compare``, ``traj``, ``aor``, ``presets``.  Exit
codes: 0 success, 1 invalid input (any HopsimError: one ``error:`` line),
2 runtime abort.  All file output is atomic (temp file + rename) and a
per-run ``status.txt`` records success or the abort reason, so a failed run
never masquerades as a complete one.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import astuple, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, get_args, get_type_hints

from . import metrics, model, sim, svg
from .errors import ConfigError, HopsimError
from .model import Gains, HopperParams, LegGeometry, MotorParams

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration (physics, controller, run knobs, output).

    The config file's ``[run]`` keys are the scalar fields, by name and in
    order.  Each other section fills the dataclass field of its name, or
    the one whose ``section`` metadata names it (``[hopper]`` fills
    ``params``); its keys are that dataclass's fields.
    """

    preset: str | None = None
    controller: str = sim.RunSetup.controller
    params: HopperParams = field(default=model.PHYSICAL, metadata={"section": "hopper"})
    motor: MotorParams = MotorParams()
    gains: Gains | None = Gains()
    geometry: LegGeometry = LegGeometry()
    duration: float | None = None
    hops: int | None = None
    dt: float = sim.RunSetup.dt
    control_rate: float = sim.RunSetup.control_rate
    out: str = "out"
    plots: bool = False

    def __post_init__(self) -> None:
        # Path("") is the current directory, which no one asked to write into
        if not self.out:
            raise ConfigError("out must name a directory (use '.' for the current one)")

    def to_text(self) -> str:
        """Serialize back to the plain-text config format (round-trips)."""
        blocks = []
        for section, (name, _, keys) in _SCHEMA.items():
            obj = self if name is None else getattr(self, name)
            if obj is None:
                continue
            lines = [f"[{section}]"]
            for key in keys:
                value = getattr(obj, key)
                if value is not None:
                    lines.append(f"{key} = {_cell(value)}")
            blocks.append("\n".join(lines) + "\n")
        return "\n".join(blocks)

    def resolve(self) -> sim.RunSetup:
        """Validate the physics and build the simulation setup; applies the
        default hop count when neither duration nor hop count was specified.
        A violated invariant, a bad run knob or a cycle that does not build
        becomes a ConfigError."""
        hops = 3 if self.duration is None and self.hops is None else self.hops
        try:
            return sim.RunSetup(
                bundle=model.validate(self.params, self.motor, self.gains or Gains(), self.geometry),
                controller=self.controller,
                duration=self.duration,
                hops=hops,
                dt=self.dt,
                control_rate=self.control_rate,
            )
        except ValueError as exc:  # ParameterError, a run knob or the closed-form cycle
            raise ConfigError(str(exc)) from exc


_PRESETS = {
    f"{physics}-{controller}": RunConfig(
        preset=f"{physics}-{controller}",
        controller=controller,
        params=model.physics_preset(physics),
        # the paper's Table 1 gains; position control scales its own
        gains=Gains() if controller == "force" else None,
    )
    for physics in model.PHYSICS_PRESETS
    for controller in ("force", "position")
}

RUN_PRESET_NAMES = tuple(_PRESETS)


def _run_preset(name: str) -> RunConfig:
    try:
        return _PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(_PRESETS))
        raise ConfigError(f"unknown preset {name!r} (known: {known})") from None


def _cell(v) -> str:
    """One value as config or table text: "" for None, true/false for a
    bool, else ``str`` (which is ``repr`` for a float)."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _csv(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    """CSV text: the header, then each row, every cell through :func:`_cell`."""
    return "".join(",".join(map(_cell, row)) + "\n" for row in (header, *rows))


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


class _Section(NamedTuple):
    attr: str | None  # the RunConfig field it fills; None for [run]
    cls: type  # that field's dataclass
    keys: dict[str, Callable[[str], object]]  # key -> value parser


def _keys(cls) -> dict[str, Callable[[str], object]]:
    """Config key -> value parser for each scalar field of ``cls``, in order."""
    hints = get_type_hints(cls)
    keys = {}
    for f in fields(cls):
        tp = _scalar_type(hints[f.name])
        if not is_dataclass(tp):
            keys[f.name] = _parse_bool if tp is bool else tp
    return keys


def _scalar_type(tp):
    """``X`` for an optional ``X | None``, else ``tp`` itself."""
    return next((a for a in get_args(tp) if a is not type(None)), tp)


def _build_schema() -> dict[str, _Section]:
    schema = {"run": _Section(None, RunConfig, _keys(RunConfig))}
    hints = get_type_hints(RunConfig)
    for f in fields(RunConfig):
        cls = _scalar_type(hints[f.name])
        if is_dataclass(cls):
            schema[f.metadata.get("section", f.name)] = _Section(f.name, cls, _keys(cls))
    return schema


_SCHEMA = _build_schema()


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
            if key not in _SCHEMA[section].keys:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    has_preset = cp.has_option("run", "preset")
    if not has_preset and not cp.has_option("hopper", "m"):
        raise ConfigError("missing required key: preset or m")

    cfg = _run_preset(cp.get("run", "preset")) if has_preset else RunConfig()
    for section in cp.sections():
        name, cls, keys = _SCHEMA[section]
        updates = {}
        for key, raw in cp[section].items():
            try:
                updates[key] = keys[key](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
        if name is None:
            cfg = replace(cfg, **updates)
        else:
            base = getattr(cfg, name)
            if base is None:  # a position preset's gains
                base = cls()
            cfg = replace(cfg, **{name: replace(base, **updates)})
    if cfg.duration is not None and cfg.hops is not None:
        raise ConfigError("specify duration or hops, not both")
    return cfg


# --- file emission -----------------------------------------------------------


def write_atomic(path: Path, text: str | Iterable[str]) -> None:
    """Write via a temp file and rename, so readers never see a partial file.

    ``text`` is the whole text or an iterable of its chunks, which are
    written as they come, so a streamed file never exists as one string; if
    the iterable raises, the temp file is removed and nothing is renamed.
    The temp file is named per call (pid plus random bits) and opened with
    ``"x"``, so concurrent writers into one directory never share or clobber
    it; the file gets the same umask-derived mode as a plain write.  An
    ``OSError`` (a directory in the target's place, a directory that cannot
    be made or written) becomes a ConfigError that names the target; files
    written before it stay.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
        f = open(tmp, "x")  # outside the inner try: a name that exists is not ours to remove
        try:
            with f:
                if isinstance(text, str):
                    f.write(text)
                else:
                    f.writelines(text)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {str(path)!r}: {exc.strerror or exc}") from exc


def _admit(setups: Iterable[sim.RunSetup], *dirs: Path) -> None:
    """Every command's last input check, before it runs or writes anything.

    Rejects an output directory that cannot be made because it names a file
    or a path under one; then prints one ``warning:`` line on stderr per
    validation warning of each setup and per ``dt`` the plant cannot keep.
    """
    for d in dirs:
        existing = next((p for p in (d, *d.parents) if p.exists()), None)
        if existing is not None and not existing.is_dir():
            raise ConfigError(f"cannot write to {str(d)!r}: {str(existing)!r} is not a directory")
    for setup in setups:
        for warning in setup.bundle.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        if abs(setup.dt_sub - setup.dt) > 1e-9 * setup.dt:
            print(f"warning: dt={setup.dt!r} runs as {setup.dt_sub!r} ({setup.n_sub} substeps "
                  f"per 1/{setup.control_rate:g} s tick)", file=sys.stderr)


def _median_interval(times: list[float]) -> float | None:
    """Median gap between successive times: the middle gap of an odd count,
    the mean of the two middle gaps of an even one."""
    if len(times) < 2:
        return None
    gaps = sorted(t1 - t0 for t0, t1 in zip(times, times[1:]))
    mid = len(gaps) // 2
    return gaps[mid] if len(gaps) % 2 else (gaps[mid - 1] + gaps[mid]) / 2


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


def summarize(
    result: sim.RunResult, curve: metrics.AorCurve, trace: tuple
) -> RunSummary:
    """The run's summary row; ``curve`` is its motor's AOR curve and
    ``trace`` its knee speed-torque trace."""
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
    summary.h_r_init, summary.h_r_max = metrics.foot_clearance(log)
    summary.aor_mean_gap = metrics.trace_mean_gap(trace, curve)
    # A lift before the second record (at t = 0 or inside the first tick)
    # leaves the first stance window fewer than the two records it needs.
    if log.records[1].t <= lifts[0].t:
        window = metrics.first_stance_window(log)
        summary.c_act_avg = metrics.average_saturation_ratio(log, window)
        balance = metrics.energy_balance(log, window, result.setup.bundle.params)
        summary.work = balance.work
        summary.energy_residual = balance.residual
    return summary


# title, x label and y label of the plots written more than once
_TRACE_AXES = ("knee torque-speed trace vs AOR", "joint speed (rad/s)", "|torque| (N m)")
_FOOT_AXES = ("foot height", "t (s)", "y_foot (m)")


def _plot(path: Path, series: list[svg.Series], title: str, xlabel: str, ylabel: str) -> None:
    write_atomic(path, svg.line_plot(series, title=title, xlabel=xlabel, ylabel=ylabel))


def _aor_series(curve: metrics.AorCurve) -> svg.Series:
    return svg.Series(curve.mirrored(), "AOR", color="#333333", dash="6,3")


class _RunOutput(NamedTuple):
    """What outlives a run's log: its summary and plot data, each built once."""

    summary: RunSummary
    curve: metrics.AorCurve
    trace: tuple  # knee (speed, |torque|) over stance
    foot: tuple | None  # (t, y_foot), built only for plots
    c_act: tuple | None  # (t, knee C_act capped at 1.5), built only for overlays


def _run_side(out: Path, setup: sim.RunSetup, plots: bool, overlay: bool = False) -> _RunOutput:
    """Run ``setup`` and write its files into ``out``; the log is dropped on
    return.  ``overlay`` keeps the series of a comparison's plots even when
    this run writes no plots of its own."""
    result = sim.run(setup)
    log = result.log
    if setup.controller == "spring":  # see control.VirtualSpringController
        clamped = sum(r.tau_des_knee != r.tau_dyn_knee for r in log.records)
        if clamped:
            print(f"warning: {clamped} of {len(log.records)} rows record a knee command clamped "
                  "below the torque the plant applied: the plant integrated the unclamped spring "
                  "law", file=sys.stderr)
    write_atomic(out / "run.csv", log.to_csv())
    curve = metrics.aor_curve(setup.bundle.motor)
    trace = tuple(metrics.speed_torque_trace(log))
    summary = summarize(result, curve, trace)
    write_atomic(out / "summary.csv", _csv([f.name for f in fields(summary)], [astuple(summary)]))
    write_atomic(out / "status.txt", result.status + "\n")
    foot = c_act = None
    if plots or overlay:
        foot = tuple((r.t, r.y_foot) for r in log.records)
    if overlay:
        c_act = tuple((r.t, min(r.c_act_knee, 1.5)) for r in log.records)
    if plots:
        series = [_aor_series(curve), svg.Series(trace, setup.controller)]
        _plot(out / "aor.svg", series, *_TRACE_AXES)
        _plot(out / "foot.svg", [svg.Series(foot, "foot height")], *_FOOT_AXES)
    return _RunOutput(summary, curve, trace, foot, c_act)


def cmd_run(config: RunConfig) -> int:
    """Execute one run and write run.csv, summary.csv, status.txt (and plots)."""
    setup = config.resolve()
    out = Path(config.out)
    _admit([setup], out)
    status = _run_side(out, setup, config.plots).summary.status
    if status != "ok":
        print(f"run {status}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _fmt4(v: float | None) -> str:
    return "" if v is None else f"{v:.4f}"


# the RunSummary fields compared side by side, in report order
_COMPARED = (
    "controller", "status", "h_r_max", "c_act_avg", "period", "energy_residual", "aor_mean_gap"
)


def cmd_compare(config_a: RunConfig, config_b: RunConfig) -> int:
    """Run two configurations and emit a side-by-side comparison report.

    Each run's files land in a per-run subdirectory; the comparison table is
    written both as CSV (machine-readable) and plain text.  A side that
    aborts is marked failed while the other side is still reported.  Both
    sides are checked before either runs, so invalid input writes no file.
    """
    configs = (config_a, config_b)
    out = Path(config_a.out)
    overlay = config_a.plots or config_b.plots
    setups = [cfg.resolve() for cfg in configs]
    subs = [out / f"{label}-{cfg.controller}" for label, cfg in zip("ab", configs)]
    _admit(setups, *subs)
    outputs = [
        _run_side(sub, setup, cfg.plots, overlay)
        for cfg, setup, sub in zip(configs, setups, subs)
    ]
    sa, sb = (o.summary for o in outputs)

    rows = []
    txt_lines = [f"comparison: a={sa.controller} vs b={sb.controller}"]
    for name in _COMPARED:
        va, vb = getattr(sa, name), getattr(sb, name)
        dv = vb - va if isinstance(va, float) and isinstance(vb, float) else None
        if name == "c_act_avg":
            va, vb, dv = _fmt4(va), _fmt4(vb), _fmt4(dv)
        va, vb, dv = _cell(va), _cell(vb), _cell(dv)
        rows.append((name, va, vb, dv))
        txt_lines.append(f"  {name:16s} a={va:24s} b={vb:24s} delta={dv}")
    write_atomic(out / "compare.csv", _csv(("metric", "a", "b", "delta"), rows))
    report = "\n".join(txt_lines) + "\n"
    write_atomic(out / "compare.txt", report)
    print(report, end="")

    if overlay:
        labels = [f"a:{sa.controller}", f"b:{sb.controller}"]
        foot = [svg.Series(o.foot, label) for o, label in zip(outputs, labels)]
        _plot(out / "foot_height.svg", foot, *_FOOT_AXES)
        cact = [svg.Series(o.c_act, label) for o, label in zip(outputs, labels)]
        _plot(out / "c_act.svg", cact, "knee saturation ratio", "t (s)", "C_act")
        traces = [svg.Series(o.trace, label) for o, label in zip(outputs, labels)]
        _plot(out / "trace_aor.svg", [_aor_series(outputs[0].curve), *traces], *_TRACE_AXES)
    if sa.status != "ok" and sb.status != "ok":
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_traj(config: RunConfig) -> int:
    """Sample the desired trajectory over one hop period to CSV."""
    setup = config.resolve()
    cycle = setup.cycle
    if not cycle.period * setup.control_rate <= sim.MAX_TICKS:
        raise ConfigError(
            f"control_rate={setup.control_rate!r} asks for more than {sim.MAX_TICKS} "
            f"trajectory rows in one {cycle.period!r} s period"
        )
    out = Path(config.out)
    _admit([setup], out)
    step = 1.0 / setup.control_rate
    times = [i * step for i in range(int(cycle.period / step) + 1)]
    pts = tuple((t, cycle.y_des(t)) for t in times)  # y_des once per row, for CSV and plot
    rows = ((t, y, cycle.phase(t).value) for t, y in pts)
    write_atomic(out / "traj.csv", _csv(("t", "y_des", "phase"), rows))
    if config.plots:
        _plot(
            out / "traj.svg", [svg.Series(pts, "y_des")],
            "desired leg length over one cycle", "t (s)", "y_des (m)",
        )
    return EXIT_OK


def cmd_aor(config: RunConfig) -> int:
    """Emit the admissible operating region boundary as CSV (and SVG)."""
    setup = config.resolve()
    out = Path(config.out)
    _admit([setup], out)
    curve = metrics.aor_curve(setup.bundle.motor)
    write_atomic(out / "aor.csv", _csv(("speed", "torque"), curve.points))
    if config.plots:
        _plot(
            out / "aor.svg", [svg.Series(curve.mirrored(), "AOR", color="#333333")],
            "admissible operating region (joint side)", "joint speed (rad/s)", "torque (N m)",
        )
    return EXIT_OK


def cmd_presets() -> int:
    for name, cfg in _PRESETS.items():
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


def _add_common_flags(sp: argparse.ArgumentParser) -> None:
    # both append to one list, in command-line order; a config file is a Path
    sp.add_argument("--config", action="append", dest="sources", type=Path, metavar="PATH",
                    help="plain-text config file")
    sp.add_argument("--preset", action="append", dest="sources", metavar="NAME",
                    help="built-in preset (see 'presets')")
    sp.add_argument("--controller", choices=sim.CONTROLLERS)
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--hops", type=int)
    group.add_argument("--duration", type=float)
    sp.add_argument("--dt", type=float)
    sp.add_argument("--out", metavar="DIR")
    sp.add_argument("--plots", action="store_true")


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if args.controller:
        cfg = replace(cfg, controller=args.controller)
    if args.hops is not None:
        cfg = replace(cfg, hops=args.hops, duration=None)
    if args.duration is not None:
        cfg = replace(cfg, duration=args.duration, hops=None)
    if args.dt is not None:
        cfg = replace(cfg, dt=args.dt)
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    if args.plots:
        cfg = replace(cfg, plots=True)
    return cfg


def _gather_configs(args, expected: int) -> list[RunConfig]:
    sources = args.sources or []
    if len(sources) != expected:
        what = "--config/--preset source" + ("s" if expected > 1 else "")
        raise ConfigError(f"expected {expected} {what}, got {len(sources)}")
    configs = (parse_config(s) if isinstance(s, Path) else _run_preset(s) for s in sources)
    return [_apply_overrides(cfg, args) for cfg in configs]


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
        ("compare", "run two configurations side by side"),
    ):
        _add_common_flags(sub.add_parser(name, help=help_text))
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
        return {"run": cmd_run, "traj": cmd_traj, "aor": cmd_aor}[args.command](cfg)
    except HopsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
