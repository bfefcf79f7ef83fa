"""One measured process: the life of a ``unirep`` CLI user.

Run as ``python3 child.py PLAN.json``.  It imports ``unirep`` from the
checkout's ``src``, loads the workload's spec files, and writes
``ready`` to stdout: the parent times set-up up to that line.  It then
runs each command through ``unirep.cli.main``, bracketing each by the
host-speed calibration, and writes one JSON line with the timings.
With ``"trace": true`` in the plan, the span wrappers of
``tracing.py`` are installed before the specs are loaded, and the spans
are written to the plan's trace file when the process ends.
"""

import json
import sys
import time

with open(sys.argv[1], encoding="utf-8") as fh:
    plan = json.load(fh)
sys.path.insert(0, plan["src"])

import unirep.cli  # noqa: E402
import unirep.specfile  # noqa: E402

tracer = None
if plan["trace"]:
    sys.path.insert(0, plan["bench"])
    import tracing

    tracer = tracing.Tracer()
    tracer.install()

for spec in plan["specs"]:
    unirep.specfile.load_spec(spec)  # looked up after the tracer wrapped it
sys.stdout.write("ready\n")
sys.stdout.flush()

import contextlib  # noqa: E402
import io  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, plan["bench"])
from hostspeed import ENDS, calibrations  # noqa: E402

cals = calibrations(ENDS)
results = []
for i, op in enumerate(plan["ops"]):
    buf = io.StringIO()
    error = None
    if tracer is not None:
        tracer.begin_op(op["label"])
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = unirep.cli.main(op["argv"])
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # an uncaught error is a result to report, not a crash
        rc = None
        error = traceback.format_exc(limit=-3)
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    cals += calibrations(ENDS if i == len(plan["ops"]) - 1 else 1)
    if op.get("stdout"):
        with open(op["stdout"], "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    results.append({"label": op["label"], "rc": rc, "seconds": elapsed, "error": error})

if tracer is not None:
    tracer.dump(plan["trace_file"])
sys.stdout.write(json.dumps({"ops": results, "cals": cals}) + "\n")
sys.stdout.flush()
