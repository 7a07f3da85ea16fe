"""hopsim benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a hopsim checkout:

    python3 perfbench/run.py --workload compare_physical --seed 0 --seconds 30 --trace 0

One client runs one ``hopsim`` child process at a time (``child.py``) until
``--seconds`` have passed, and checks every output of every operation.
The first operation is a warm-up and is not timed.  ``--trace 0`` reports
the end-to-end metrics over the untraced operations: timings as their 90th
percentile, memory as its median.  ``--trace 1`` alternates untraced and
traced operations and reports the per-layer metrics from the traced ones
(see ``spans.py``).
The last line of standard output is one JSON object; the lines before it
are a readable report, and ``.perfbench/report-*.json`` keeps the
per-operation record, output digests included.

Seed 0 runs the built-in presets verbatim.  Any other seed scales ``k_s`` and
``C_amp`` by factors drawn from [0.97, 1.03], handed to hopsim through a
generated ``--config`` file, the same physics on both sides of a comparison.

The benchmark needs only ``src/hopsim`` next to it; it exits with code 2
and prints no result when that is missing.  See README.md for the workloads
and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
CHILD_LIMIT_S = 150.0
MIN_OPS = 3

CSV_HEADER = (
    "t,phase,y_body,v_body,y_foot,v_foot,theta_hip,theta_knee,thetad_hip,"
    "thetad_knee,tau_dyn_hip,tau_dyn_knee,tau_des_hip,tau_des_knee,tau_sat_hip,"
    "tau_sat_knee,c_act_hip,c_act_knee"
)
LIFT_TOL_S = 1e-6


@dataclass(frozen=True)
class Workload:
    command: str              # hopsim subcommand
    presets: tuple[str, ...]  # one source per run, in CLI order
    args: tuple[str, ...]
    hops: int | None = None
    duration: float | None = None
    reference_dt: float | None = None  # also integrate the two-mass model


WORKLOADS = {
    # The paper's headline comparison as users run it: controller-heavy ticks
    # at one substep, and the only workload that reads logs back (summarize,
    # seven SVG plots).
    "compare_physical": Workload(
        "compare", ("physical-force", "physical-position"),
        ("--hops", "10", "--plots"), hops=10,
    ),
    # A dt convergence study: ten plant substeps per control tick, so the
    # plant dominates and output barely runs.  3 hops, not 5, for the same
    # reason as the 3 s log below: shorter operations, steadier percentiles.
    "fine_dt_force": Workload(
        "run", ("physical-force",), ("--hops", "3", "--dt", "2.5e-5"),
        hops=3, reference_dt=2.5e-5,
    ),
    # The longest single log: 12k rows of CSV and no per-tick landing scan,
    # because it stops on time, not on a hop count.  3 s of simulated time,
    # not 10: on a host whose speed changes every few seconds, a 3 s
    # operation blends fast and slow phases and gives too few operations
    # per run for a steady 90th percentile (README.md).
    "long_log_position": Workload(
        "run", ("physical-position",), ("--duration", "3"), duration=3.0,
    ),
}

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_us_per_tick": "us",
    "output_s": "s",
    "peak_rss_mb": "MB",
}


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop: the host's speed right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - start) * 1e3


def scaled_config(preset: str, seed: int) -> str:
    rng = random.Random(seed)
    nominal = {"k_s": 1700.0, "C_amp": 0.12}  # as in the physical-* presets
    lines = ["[run]", f"preset = {preset}", "", "[hopper]"]
    for key, base in nominal.items():
        lines.append(f"{key} = {base * rng.uniform(0.97, 1.03)!r}")
    return "\n".join(lines) + "\n"


def sources(workload: Workload, seed: int, cfg_dir: Path) -> list[str]:
    argv = []
    for preset in workload.presets:
        if seed == 0:
            argv += ["--preset", preset]
        else:
            path = cfg_dir / f"{preset}.ini"
            path.write_text(scaled_config(preset, seed))
            argv += ["--config", str(path)]
    return argv


# --- one operation -----------------------------------------------------------


def spawn(argv: list[str], env: dict, stdout_path: Path, limit_s: float):
    """Run a child to completion; return (exit code, wall s, peak RSS MB)."""
    with open(stdout_path, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=sink, stderr=subprocess.STDOUT,
                                cwd=ROOT)

        def kill(signum, frame):
            proc.kill()

        old = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def read_summary(path: Path) -> dict:
    header, row = path.read_text().splitlines()[:2]
    return dict(zip(header.split(","), row.split(",")))


def check_run_dir(d: Path, w: Workload, errors: list, facts: dict) -> dict:
    """Check one run directory; returns its summary row."""
    status = (d / "status.txt").read_text().strip()
    if status != "ok":
        errors.append(f"{d.name}: status {status!r}")
    summary = read_summary(d / "summary.csv")
    if w.hops is not None and int(summary["landings"]) < w.hops:
        errors.append(f"{d.name}: {summary['landings']} landings < {w.hops} hops")
    lines = (d / "run.csv").read_text().splitlines()
    if lines[0] != CSV_HEADER:
        errors.append(f"{d.name}: run.csv header is not the 18-column contract")
        return summary
    rows = lines[1:]
    if len(rows) != int(summary["records"]):
        errors.append(f"{d.name}: {len(rows)} rows but records={summary['records']}")
    saturated = 0
    for n, line in enumerate(rows):
        c = line.split(",")
        if len(c) != 18:
            errors.append(f"{d.name}: row {n} has {len(c)} columns")
            break
        if abs(float(c[12])) > float(c[14]) or abs(float(c[13])) > float(c[15]):
            errors.append(f"{d.name}: row {n} has |tau_des| > tau_sat")
            break
        if abs(float(c[11])) > float(c[15]):
            saturated += 1
    if w.duration is not None and rows:
        t_last = float(rows[-1].split(",", 1)[0])
        if t_last < w.duration - 1e-3:
            errors.append(f"{d.name}: log ends at t={t_last} < {w.duration}")
    facts["rows"] = facts.get("rows", 0) + len(rows)
    facts["saturated_knee_rows"] = facts.get("saturated_knee_rows", 0) + saturated
    facts["events"] = facts.get("events", 0) + int(summary["lifts"]) + int(summary["landings"])
    return summary


def check_operation(w: Workload, out: Path, child: dict, rc: int) -> tuple[list, dict]:
    errors: list[str] = []
    facts: dict = {}
    if rc != 0 or child.get("rc") != 0:
        return [f"exit code {rc} (cli {child.get('rc')})"], facts
    if child.get("runs") != len(w.presets):
        return [f"expected {len(w.presets)} runs, got {child.get('runs')}"], facts
    try:
        run_dirs = sorted(p for p in out.iterdir() if p.is_dir()) if w.command == "compare" else [out]
        summaries = [check_run_dir(d, w, errors, facts) for d in run_dirs]
        if len(summaries) != len(w.presets):
            return errors + [f"expected {len(w.presets)} run directories"], facts
        if w.command == "compare":
            force, position = summaries
            for key in ("c_act_avg", "h_r_max"):
                if not float(force[key]) > float(position[key]):
                    errors.append(f"force {key} {force[key]} <= position {position[key]}")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return errors + [f"unreadable output: {exc!r}"], facts
    if w.reference_dt is not None:
        ref = child.get("reference")
        if ref is None or abs(ref["first_lift"] - ref["t_lo"]) > LIFT_TOL_S:
            errors.append(f"reference first lift off analytic t_lo: {ref}")
    digests, size = {}, 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digests[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
        size += len(data)
    facts["digests"] = digests
    facts["bytes_written"] = size
    return errors, facts


def run_operation(w: Workload, argv_sources: list[str], trace: bool, n: int,
                  env: dict, limit_s: float) -> dict:
    op_dir = WORK / "op"
    shutil.rmtree(op_dir, ignore_errors=True)
    op_dir.mkdir(parents=True)
    out = op_dir / "out"
    spec = {
        "argv": [w.command, *argv_sources, *w.args, "--out", str(out)],
        "trace": trace,
        "reference": {"dt": w.reference_dt, "hops": w.hops} if w.reference_dt else None,
        "result": str(op_dir / "child.json"),
    }
    spec_path = op_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    calib_ms = calibrate()
    rc, wall, rss = spawn([sys.executable, str(HERE / "child.py"), str(spec_path)], env,
                          op_dir / "stdout.txt", limit_s)
    try:
        child = json.loads((op_dir / "child.json").read_text())
    except (OSError, ValueError):
        child = {}
    errors, facts = check_operation(w, out, child, rc)
    tail = (op_dir / "stdout.txt").read_text(errors="replace")[-2000:].strip()
    if errors and tail:
        errors.append(f"child output tail: {tail}")
    return {"n": n, "trace": trace, "rc": rc, "wall_s": wall, "peak_rss_mb": rss,
            "calib_ms": calib_ms, "child": child, "errors": errors, "facts": facts}


# --- metrics -----------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(ops: list[dict]) -> dict:
    """Timings are the 90th percentile over the run's operations and memory
    the median; README.md says why."""
    good = [op for op in ops if not op["errors"]]
    timings = {
        "wall_s": [op["wall_s"] for op in good],
        "setup_s": [op["child"]["setup_s"] for op in good],
        "sim_us_per_tick": [op["child"]["sim_s"] / op["child"]["ticks"] * 1e6 for op in good],
        "output_s": [op["child"]["output_s"] for op in good],
    }
    out = {k: {"value": p90(v), "unit": E2E_UNITS[k]} for k, v in timings.items()}
    out["peak_rss_mb"] = {"value": median([op["peak_rss_mb"] for op in good]),
                          "unit": E2E_UNITS["peak_rss_mb"]}
    return out


LAYERS = ("analytic", "kinematics", "control", "sim", "metrics", "cli", "svg")


def layer_values(op: dict) -> dict:
    """Per-layer figures of one traced operation."""
    tr = op["child"]["trace"]
    spans, counts = tr["spans"], tr["counts"]
    ticks = op["child"]["ticks"]

    def incl(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, s) in spans.items():
        layer_self[name.split(".", 1)[0]] += s
    us_tick = 1e6 / ticks
    leg_terms = counts.get("sim.leg_terms", 0)
    v = {
        "analytic.self_us_per_tick": layer_self["analytic"] * us_tick,
        "analytic.y_des_calls_per_tick": calls("analytic.y_des") / ticks,
        "analytic.cycle_build_ms": incl("analytic.cycle_build") * 1e3,
        "kinematics.self_us_per_tick": layer_self["kinematics"] * us_tick,
        "kinematics.ik_calls": calls("kinematics.ik"),
        "control.command_self_us_per_tick": self_s("control.command") * us_tick,
        "control.clock_self_us_per_tick": self_s("control.clock") * us_tick,
        "control.make_command_calls": counts.get("control.make_command", 0),
        "control.ik_clamped_ticks": counts.get("control.ik_clamped", 0),
        "control.saturated_tick_frac": op["facts"]["saturated_knee_rows"] / op["facts"]["rows"],
        "sim.plant_self_us_per_tick": self_s("sim.plant") * us_tick,
        "sim.leg_terms_calls_per_tick": leg_terms / ticks,
        "sim.leg_terms_self_us_per_tick": leg_terms * tr["leg_terms_call_s"] * us_tick,
        "sim.record_us_per_tick": incl("sim.record") * us_tick,
        "sim.loop_self_us_per_tick": self_s("sim.run") * us_tick,
        "sim.landing_scans": counts.get("sim.landing_scans", 0),
        "sim.ticks": ticks,
        "sim.substeps": counts.get("sim.substeps", 0),
        "sim.events": op["facts"]["events"],
        "sim.reference_ms": incl("sim.reference") * 1e3,
        "metrics.summarize_ms": incl("metrics.summarize") * 1e3,
        "metrics.summarize_calls": calls("metrics.summarize"),
        "metrics.record_passes": tr["passes"].get("metrics", 0),
        "cli.parse_ms": incl("cli.parse") * 1e3,
        "cli.to_csv_ms": incl("cli.to_csv") * 1e3,
        "cli.write_ms": incl("cli.write") * 1e3,
        "cli.bytes_written": op["facts"]["bytes_written"],
        "svg.plot_ms": incl("svg.plot") * 1e3,
        "svg.points": counts.get("svg.points", 0),
    }
    for layer in LAYERS:
        v[f"{layer}.self_frac"] = layer_self[layer] / tr["root_s"]
    return v


PER_LAYER_UNITS = {
    "analytic.self_us_per_tick": "us",
    "analytic.y_des_calls_per_tick": "calls/tick",
    "analytic.cycle_build_ms": "ms",
    "kinematics.self_us_per_tick": "us",
    "kinematics.ik_calls": "count",
    "control.command_self_us_per_tick": "us",
    "control.clock_self_us_per_tick": "us",
    "control.make_command_calls": "count",
    "control.ik_clamped_ticks": "count",
    "control.saturated_tick_frac": "ratio",
    "sim.plant_self_us_per_tick": "us",
    "sim.leg_terms_calls_per_tick": "calls/tick",
    "sim.leg_terms_self_us_per_tick": "us",
    "sim.record_us_per_tick": "us",
    "sim.loop_self_us_per_tick": "us",
    "sim.landing_scans": "count",
    "sim.ticks": "count",
    "sim.substeps": "count",
    "sim.events": "count",
    "sim.reference_ms": "ms",
    "metrics.summarize_ms": "ms",
    "metrics.summarize_calls": "count",
    "metrics.record_passes": "count",
    "cli.parse_ms": "ms",
    "cli.to_csv_ms": "ms",
    "cli.write_ms": "ms",
    "cli.bytes_written": "B",
    "svg.plot_ms": "ms",
    "svg.points": "count",
    **{f"{layer}.self_frac": "ratio" for layer in LAYERS},
    "bench.calib_ms": "ms",
    "bench.trace_overhead_frac": "ratio",
}


EXACT_UNITS = ("count", "B")


def check_counters(ops: list[dict]) -> None:
    """Counters are deterministic: every traced operation must repeat the
    first one's exactly."""
    traced = [op for op in ops if op["trace"] and not op["errors"]]
    for op in traced:
        op["layer"] = layer_values(op)
    for op in traced[1:]:
        drift = [name for name, unit in PER_LAYER_UNITS.items()
                 if unit in EXACT_UNITS and op["layer"][name] != traced[0]["layer"][name]]
        if drift:
            op["errors"].append(f"counters differ from the first traced operation: {drift}")


def per_layer(ops: list[dict]) -> dict:
    good = [op for op in ops if not op["errors"]]
    traced = [op["layer"] for op in good if op["trace"]]
    untraced_wall = median([op["wall_s"] for op in good if not op["trace"]])
    traced_wall = median([op["wall_s"] for op in good if op["trace"]])
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name == "bench.calib_ms":
            value = median([op["calib_ms"] for op in ops])
        elif name == "bench.trace_overhead_frac":
            value = traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0
        elif unit in EXACT_UNITS:
            value = traced[0][name] if traced else 0
        else:
            value = median([t[name] for t in traced])
        out[name] = {"value": value, "unit": unit}
    return out


# --- main loop ---------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hopsim" / "__init__.py").is_file():
        print(f"error: no hopsim source at {ROOT / 'src' / 'hopsim'}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    w = WORKLOADS[args.workload]
    for stale in ("op", "cfg"):
        shutil.rmtree(WORK / stale, ignore_errors=True)
    (WORK / "cfg").mkdir(parents=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    argv_sources = sources(w, args.seed, WORK / "cfg")
    # Compile hopsim's bytecode once so no timed set-up pays for it.
    subprocess.run([sys.executable, "-c", "import hopsim.cli"], env=env, cwd=ROOT,
                   check=True, timeout=60)

    ops: list[dict] = []
    deadline = started + args.seconds
    op_s: list[float] = []
    while True:
        traced_op = bool(args.trace) and len(ops) % 2 == 1
        limit = min(CHILD_LIMIT_S, max(10.0, 170.0 - (time.perf_counter() - started)))
        op_start = time.perf_counter()
        op = run_operation(w, argv_sources, traced_op, len(ops), env, limit)
        ops.append(op)
        op_s.append(time.perf_counter() - op_start)
        enough = len(ops) - 1 >= (MIN_OPS + 1 if args.trace else MIN_OPS)
        # Start no operation that would likely end after the deadline.
        if enough and time.perf_counter() + 0.5 * max(op_s[-2:]) >= deadline:
            break
    shutil.rmtree(WORK / "op", ignore_errors=True)

    # Same seed, same bytes: every operation, traced or not, must match the
    # first one's output digests.
    reference = next((op["facts"]["digests"] for op in ops if not op["errors"]), None)
    for op in ops:
        if not op["errors"] and op["facts"]["digests"] != reference:
            op["errors"].append("output digests differ from the first operation")
    if args.trace:
        check_counters(ops)

    failed = sum(1 for op in ops if op["errors"])
    # The first operation is a warm-up: checked and counted, not timed.
    metrics = per_layer(ops[1:]) if args.trace else end_to_end(ops[1:])
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "operations": ops, "metrics": metrics,
    }
    (WORK / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1)
    )

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} operations, {failed} failed (failed_frac {failed / len(ops):.3f})")
    for op in ops:
        for err in op["errors"]:
            print(f"  op {op['n']} FAILED: {err}")
    if reference:
        for name, digest in sorted(reference.items()):
            if name.endswith("run.csv"):
                print(f"  sha256 {name} {digest}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0 and reference is not None,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
