"""One benchmark operation: a hopsim CLI invocation, timed from inside.

Run as ``python3 child.py SPEC.json`` with hopsim importable.  The spec
gives the CLI argv, whether to trace, an optional two-mass reference run
and the path of the JSON result.  The clock starts before ``import hopsim``.
Timing hooks wrap ``sim.run`` and ``cli.write_atomic`` at their module
attributes; with tracing on, ``spans.instrument`` also wraps every layer
boundary.
"""

import json
import sys
import time
from pathlib import Path

spec = json.loads(Path(sys.argv[1]).read_text())
clock = time.perf_counter
t0 = clock()

import hopsim.cli  # noqa: E402  (the import is part of the timed set-up)
from hopsim import analytic, cli, sim  # noqa: E402

tracer = None
if spec["trace"]:
    import spans

    tracer = spans.Tracer()
    spans.instrument(tracer, hopsim)

runs = []
last_write = [0.0]
inner_run, inner_write = sim.run, cli.write_atomic


def timed_run(setup):
    start = clock()
    result = inner_run(setup)
    runs.append((start, clock(), len(result.log.records) - 1, result))
    return result


def timed_write(path, text):
    inner_write(path, text)
    last_write[0] = clock()


sim.run, cli.write_atomic = timed_run, timed_write

if tracer is not None:
    rc = tracer.span("cli.main", cli.main)(spec["argv"])
else:
    rc = cli.main(spec["argv"])

out = {"rc": rc, "runs": len(runs)}
if runs:
    out["setup_s"] = runs[0][0] - t0
    out["sim_s"] = sum(end - start for start, end, _, _ in runs)
    out["ticks"] = sum(ticks for _, _, ticks, _ in runs)
    out["output_s"] = last_write[0] - runs[-1][1]

ref = spec.get("reference")
if ref and runs:
    params = runs[-1][3].setup.bundle.params
    start = clock()
    reference = sim.TwoMassReference(params, dt=ref["dt"]).run(hops=ref["hops"])
    out["reference"] = {
        "s": clock() - start,
        "first_lift": reference.first_lift(),
        "t_lo": analytic.switch_times(params)[0],
    }

if tracer is not None:
    out["trace"] = tracer.aggregate()
    if runs:
        # sim._leg_terms is count-only in the trace; its cost per call is
        # timed here, untraced, on leg lengths the run actually visited.
        leg_terms = sim._leg_terms.__wrapped__
        geo = runs[-1][3].setup.bundle.geometry
        records = runs[-1][3].log.records
        lengths = [r.y_body - r.y_foot for r in records[:: max(1, len(records) // 500)]]
        per_call = []
        for _ in range(5):
            start = clock()
            for _ in range(20):
                for y in lengths:
                    leg_terms(y, geo)
            per_call.append((clock() - start) / (20 * len(lengths)))
        out["trace"]["leg_terms_call_s"] = sorted(per_call)[2]

Path(spec["result"]).write_text(json.dumps(out))
