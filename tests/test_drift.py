"""The drift report between two output trees (``tests/drift.py``)."""

import math

import pytest

from hopsim.cli import main

from drift import drift

# Largest absolute drift of each run.csv column between 2-hop physical-force
# runs at dt = 2.5e-4 and 1.25e-4 s (4 kHz control, so one and two substeps
# per tick): about ten times what halving dt moves them.  Measured: t 9e-14 s,
# positions 1.1e-6 (body) and 1.6e-6 m (foot), joint angles 3.4e-6 rad,
# velocities 2.3e-5 (body) and 1.3e-4 m/s (foot), joint rates 5e-4 rad/s,
# torques 0.03 and envelope bounds 3.4e-3 N*m, saturation ratios 2.6e-3.
DT_HALVED_BOUNDS = {
    "t": 1e-12,
    "y_body": 1e-5, "v_body": 3e-4, "y_foot": 2e-5, "v_foot": 2e-3,
    "theta_hip": 2e-5, "theta_knee": 4e-5, "thetad_hip": 3e-3, "thetad_knee": 6e-3,
    "tau_dyn_hip": 0.15, "tau_dyn_knee": 0.3, "tau_des_hip": 0.15, "tau_des_knee": 0.3,
    "tau_sat_hip": 0.02, "tau_sat_knee": 0.04, "c_act_hip": 6e-3, "c_act_knee": 0.03,
}
# summary.csv fields that may move when dt halves, and how far: the apex
# (measured 1.0e-6 m), the hop period (6.4e-8 s), the first lift (4.7e-15 s),
# the AOR gap (3.1e-8) and the averages and audits (2.2e-13 or less)
SUMMARY_BOUNDS = {
    "h_r_max": 1e-5, "period": 1e-6, "t_first_lift": 1e-12, "aor_mean_gap": 1e-6,
    "c_act_avg": 1e-12, "work": 1e-11, "energy_residual": 1e-12,
}


def run_tree(tmp_path, name, dt):
    out = tmp_path / name
    argv = ["run", "--preset", "physical-force", "--hops", "2", "--dt", dt, "--out", str(out)]
    assert main(argv) == 0
    return out


def test_halving_dt_drifts_within_bounds(tmp_path):
    d = drift(run_tree(tmp_path, "coarse", "2.5e-4"), run_tree(tmp_path, "fine", "1.25e-4"))
    assert not d.unpaired and not d.is_zero()
    [(path, run)] = d.runs.items()
    assert path == "run.csv" and run.records == (2932, 2932) and run.phase_rows == 0
    assert set(run.columns) == set(DT_HALVED_BOUNDS)
    for name, (d_abs, d_rel) in run.columns.items():
        assert 0.0 < d_abs <= DT_HALVED_BOUNDS[name], name
        assert d_rel <= 0.05, name  # near a zero crossing, rel is the larger
    # the same ticks hold the phase changes; their times differ in the clock's bits
    assert {kind: (a, b) for kind, (a, b, _) in run.events.items()} == {
        "lift": (2, 2), "landing": (1, 1)
    }
    assert all(dt <= 1e-12 for _, _, dt in run.events.values())
    fields = {name.removeprefix("summary.csv:"): (a, b) for name, a, b in d.fields}
    for name, (a, b) in fields.items():
        if name in SUMMARY_BOUNDS:
            assert abs(float(a) - float(b)) <= SUMMARY_BOUNDS[name], name
        else:  # controller, status, counts and the initial apex
            assert a == b, name


def test_identical_trees_have_zero_drift(tmp_path):
    d = drift(run_tree(tmp_path, "a", "2.5e-4"), run_tree(tmp_path, "b", "2.5e-4"))
    assert d.is_zero()
    [run] = d.runs.values()
    assert all(v == (0.0, 0.0) for v in run.columns.values())
    assert "max |dt| 0 s" in d.table()


def write_tree(root, files):
    for path, text in files.items():
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_text(text)
    return root


HEADER = "t,phase,y_body\n"


def test_report_of_hand_written_trees(tmp_path):
    a = write_tree(tmp_path / "a", {
        "a-force/run.csv": HEADER + "0.0,stance,1.0\n0.5,flight,2.0\n1.0,stance,-4.0\n",
        "a-force/summary.csv": "controller,h_r_max\nforce,0.25\n",
        "compare.csv": "metric,a,b,delta\nh_r_max,0.25,0.5,0.25\n",
        "gone.csv": "not,compared\n",
        "only_a/run.csv": HEADER,
    })
    b = write_tree(tmp_path / "b", {
        "a-force/run.csv": HEADER + "0.0,stance,1.0\n0.75,stance,1.5\n1.0,flight,inf\n"
                                    "1.25,stance,0.0\n",
        "a-force/summary.csv": "controller,h_r_max\nforce,0.125\n",
        "compare.csv": "metric,a,b,delta\nh_r_max,0.125,0.5,0.375\n",
    })
    d = drift(a, b)
    assert d.unpaired == ["only_a/run.csv"]
    run = d.runs["a-force/run.csv"]
    assert run.records == (3, 4) and run.phase_rows == 2
    assert run.columns["t"] == (0.25, 0.25 / 0.75)
    assert run.columns["y_body"] == (math.inf, math.inf)
    # a: lift at 0.5, landing at 1.0; b: lift at 1.0, landing at 1.25
    assert run.events == {"lift": (1, 1, 0.5), "landing": (1, 1, 0.25)}
    assert d.fields == [
        ("a-force/summary.csv:controller", "force", "force"),
        ("a-force/summary.csv:h_r_max", "0.25", "0.125"),
        ("compare.csv:h_r_max.a", "0.25", "0.125"),
        ("compare.csv:h_r_max.b", "0.5", "0.5"),
        ("compare.csv:h_r_max.delta", "0.25", "0.375"),
    ]
    assert not d.is_zero()
    table = d.table()
    assert "a-force/run.csv: records 3 / 4, phase differs on 2 rows" in table
    assert "compare.csv:h_r_max.delta" in table and "+0.125" in table


def test_differing_run_csv_headers_are_refused(tmp_path):
    a = write_tree(tmp_path / "a", {"run.csv": HEADER})
    b = write_tree(tmp_path / "b", {"run.csv": "t,phase,y_foot\n"})
    with pytest.raises(ValueError, match="headers differ"):
        drift(a, b)
