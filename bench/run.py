#!/usr/bin/env python3
"""Benchmark of the ``unirep`` CLI: one workload, checked, timed.

Usage, from the root of a checkout::

    python3 bench/run.py --workload sample-dense --seed 1 --seconds 20 --trace 0

The workload's spec files are generated from ``--seed`` and each cycle
runs its commands in a fresh interpreter (``child.py``), the way a CLI
user pays for them.  Cycles repeat until ``--seconds`` have passed.
The outputs of the first cycle are checked against the benchmark's own
computations (``checks.py``); every later cycle must reproduce them
byte for byte.  The last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are ``setup_s``, ``work_s`` and
``peak_rss_mb``, medians over the cycles; with ``--trace 1`` they are
the per-layer metrics of ``tracing.py``, from spans recorded in each
cycle.  Details of the run go to stderr and to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 150.0
# One process, one thread: the load is a single CLI user.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


class Child:
    """One fresh interpreter running ``child.py`` on a plan."""

    def __init__(self, root: Path, work: Path, name: str, plan: dict, trace: bool):
        self.plan_path = work / f"{name}.plan.json"
        self.err_path = work / f"{name}.stderr"
        self.plan_path.write_text(json.dumps(plan), encoding="utf-8")
        self.root, self.trace = root, trace

    def run(self):
        """Returns (setup seconds, calibrations before start, child
        result, peak RSS in KiB)."""
        cal0 = hostspeed.calibrations(hostspeed.ENDS)
        cmd = [sys.executable] + (["-X", "importtime"] if self.trace else [])
        cmd += [str(BENCH / "child.py"), str(self.plan_path)]
        env = dict(os.environ, **CHILD_ENV)
        with open(self.err_path, "w", encoding="utf-8") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=self.root,
                                    env=env, text=True)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                ready = proc.stdout.readline()
                setup = time.perf_counter() - t0
                last = proc.stdout.readline()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                watchdog.cancel()
        if ready != "ready\n" or proc.returncode != 0:
            tail = self.err_path.read_text(encoding="utf-8")[-2000:]
            raise RuntimeError(f"benchmark child exited with {proc.returncode}:\n{tail}")
        return setup, cal0, json.loads(last), usage.ru_maxrss


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_checks(wl, first: dict) -> dict:
    """Problems of each operation of the first cycle, by label."""
    import checks

    problems = {}
    for op, res in zip(wl.ops, first["ops"]):
        found = []
        if res["rc"] != op.expect_rc:
            found.append(f"exit code {res['rc']}, expected {op.expect_rc}")
            if res["error"]:
                found.append(res["error"].strip().splitlines()[-1])
        else:
            found = getattr(checks, op.check)(op.ctx)
        problems[op.label] = found
    return problems


def compare_threads(root: Path, work: Path, wl) -> list:
    """Re-run each sample command with --threads 2 (untimed); its files
    must equal the single-thread output byte for byte."""
    if not wl.thread_variants:
        return []
    ops = [{"label": "threads-2", "argv": argv} for argv, _ in wl.thread_variants]
    plan = {"src": str(root / "src"), "bench": str(BENCH), "specs": [], "ops": ops, "trace": False}
    _, _, result, _ = Child(root, work, "threads", plan, False).run()
    problems = []
    for res, (_, pairs) in zip(result["ops"], wl.thread_variants):
        if res["rc"] != 0:
            problems.append(f"--threads 2 run exited with {res['rc']}")
        for one, two in pairs:
            if sha256(one) != sha256(two):
                problems.append(f"{Path(two).name} differs from the single-thread output")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Parent, children and their calibration loops all run on one CPU,
    # so that the calibration sees the speed the commands see.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    root = Path.cwd()
    src = root / "src"
    if not (src / "unirep" / "__init__.py").is_file():
        log(f"error: no unirep sources under {src}; run from the root of a checkout")
        return 2
    sys.path.insert(1, str(src))
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except FileNotFoundError:
        log(f"error: no BENCHMARK.json in {root}")
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    work = BENCH / ".work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    wl = workloads.build(args.workload, args.seed, work)
    trace = bool(args.trace)
    trace_dir = BENCH / "results" / f"trace-{args.workload}-s{args.seed}"
    if trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)

    ops = [{"label": op.label, "argv": op.argv, "stdout": op.stdout} for op in wl.ops]
    base = {"src": str(src), "bench": str(BENCH), "specs": wl.specs, "trace": False}
    # Warm-up: compiles the bytecode cache and reads the libraries into
    # the page cache; not timed.
    Child(root, work, "warmup", dict(base, ops=[]), False).run()

    cycles, problems, hashes = [], {}, None
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < args.seconds:
        k = len(cycles)
        plan = dict(base, ops=ops, trace=trace, trace_file=str(trace_dir / f"cycle{k}.jsonl"))
        setup, cal0, result, maxrss_kb = Child(root, work, f"cycle{k}", plan, trace).run()
        cals = cal0 + result["cals"]
        factor = hostspeed.scale(cals)
        cycle = {
            "setup_s": setup * factor,
            "work_s": sum(r["seconds"] for r in result["ops"]) * factor,
            "peak_rss_mb": maxrss_kb / 1024.0,
            "raw_setup_s": setup,
            "raw_work_s": sum(r["seconds"] for r in result["ops"]),
            "ops": {r["label"]: r["seconds"] * factor for r in result["ops"]},
            "rc": {r["label"]: r["rc"] for r in result["ops"]},
            "cal_s": statistics.median(cals),
        }
        outputs = {op.label: [sha256(p) for p in op.outputs] for op in wl.ops}
        if hashes is None:
            hashes = outputs
            problems = run_checks(wl, result)
        cycle["same_output"] = {op.label: outputs[op.label] == hashes[op.label]
                                and cycle["rc"][op.label] == op.expect_rc for op in wl.ops}
        if trace:
            import tracing

            layers = tracing.layer_metrics(tracing.read_spans(plan["trace_file"]), factor)
            imp, imp_scipy = tracing.import_times(
                (work / f"cycle{k}.stderr").read_text(encoding="utf-8"))
            layers["setup.import_s"] = imp * factor
            layers["setup.import_scipy_s"] = imp_scipy * factor
            cycle["layers"] = layers
        cycles.append(cycle)

    thread_problems = compare_threads(root, work, wl)
    if thread_problems:
        problems[wl.ops[0].label] = problems.get(wl.ops[0].label, []) + thread_problems

    attempted = failed = 0
    unexpected = []
    for op in wl.ops:
        for cycle in cycles:
            attempted += 1
            if problems[op.label] or not cycle["same_output"][op.label]:
                failed += 1
                if not op.known_fault:
                    unexpected.append(op.label)
    for label, found in problems.items():
        for problem in found:
            log(f"FAIL {args.workload} {label}: {problem}")

    def median(key):
        return statistics.median(c[key] for c in cycles)

    # work_s sums the per-command medians, so that one slow command in
    # one cycle does not move it.
    ops_s = {op.label: statistics.median(c["ops"][op.label] for c in cycles) for op in wl.ops}
    if trace:
        metrics = {name: {"value": statistics.median(c["layers"][name] for c in cycles),
                          "unit": unit} for name, unit in units.items()}
    else:
        metrics = {
            "setup_s": {"value": median("setup_s"), "unit": "s"},
            "work_s": {"value": sum(ops_s.values()), "unit": "s"},
            "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MB"},
        }
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "cycles": len(cycles), "raw_setup_s": median("raw_setup_s"),
        "raw_work_s": median("raw_work_s"), "ops_s": ops_s, "cal_s": statistics.median(c["cal_s"] for c in cycles),
    }
    log("summary " + json.dumps(summary))
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(dict(summary, cycle_detail=cycles, problems=problems), indent=1), encoding="utf-8")
    if not unexpected:
        shutil.rmtree(work, ignore_errors=True)  # outputs are large; keep them only to debug
    out = {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
