"""The benchmark's traced child still finds the callables it wraps.

``perfbench/spans.py`` wraps hopsim callables by module and class attribute
and counts calls to some of them.  A rename or a call that bypasses one of
those attributes would leave the traced benchmark with zero counts; this
runs the traced child on 1-hop runs so such a change fails here first.  The
second run is shaped like the ``fine_dt_force`` workload: ten substeps per
tick, then the two-mass reference, whose first lift the benchmark checks.
The third drives the position controller, whose ``command`` is wrapped on
its own class.  A plotted ``compare`` of the two, the benchmark's main
command, is traced as well.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def traced_child(tmp_path, argv, reference=None):
    """Run the benchmark's traced child on a hopsim CLI argv; its result."""
    spec = {
        "argv": argv,
        "trace": True,
        "reference": reference,
        "result": str(tmp_path / "child.json"),
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(spec_path)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads((tmp_path / "child.json").read_text())


@pytest.mark.parametrize(
    ("preset", "flags", "reference"),
    [
        ("physical-force", [], None),
        ("physical-force", ["--dt", "2.5e-5"], {"dt": 2.5e-5, "hops": 1}),
        ("physical-position", [], None),
    ],
    ids=["run", "fine_dt_reference", "position"],
)
def test_traced_child_counts_plant_calls(tmp_path, preset, flags, reference):
    argv = ["run", "--preset", preset, "--hops", "1", *flags, "--out", str(tmp_path / "out")]
    result = traced_child(tmp_path, argv, reference)
    assert result["rc"] == 0 and result["runs"] == 1
    counts = result["trace"]["counts"]
    for name in ("sim.leg_terms", "sim.substeps", "sim.landing_scans", "control.make_command"):
        assert counts.get(name, 0) > 0, name
    spans = result["trace"]["spans"]
    for name in (
        "sim.run", "sim.plant", "sim.record", "cli.to_csv", "cli.write",
        "analytic.y_des", "kinematics.ik", "kinematics.joint_rates",
        "control.command", "control.clock",
    ):
        assert spans.get(name, [0])[0] > 0, name
    # one trajectory cycle per run: the controller's
    assert spans["analytic.cycle_build"][0] == spans["sim.run"][0] == 1
    if preset == "physical-force":
        # the ticks that hold the touchdown clock or a fit's bottom read no trajectory
        assert spans["analytic.y_des"][0] < spans["control.command"][0]
    # run.csv is streamed from one to_csv call into the wrapped writer
    assert spans["cli.to_csv"][0] == spans["sim.run"][0]
    if reference is not None:
        assert spans.get("sim.reference", [0])[0] == 1
        ref = result["reference"]
        assert abs(ref["first_lift"] - ref["t_lo"]) <= 1e-6


def test_traced_child_counts_plotted_compare(tmp_path):
    # the benchmark's main command: both sides, their files and the overlays
    argv = ["compare", "--preset", "physical-force", "--preset", "physical-position",
            "--hops", "1", "--plots", "--out", str(tmp_path / "out")]
    result = traced_child(tmp_path, argv)
    assert result["rc"] == 0 and result["runs"] == 2
    spans = result["trace"]["spans"]
    for name in ("sim.run", "metrics.summarize", "cli.to_csv"):
        assert spans[name][0] == 2, name
    # five files per side, then compare.csv, compare.txt and three overlays
    assert spans["svg.plot"][0] == 7
    assert spans["cli.write"][0] == 15
    assert spans["sim.plant"][0] > 0
    # one trajectory cycle per side, built when its setup is checked
    assert spans["analytic.cycle_build"][0] == 2
