#!/usr/bin/env python3
"""Show that each check of ``checks.py`` can fail.

Run from the root of a checkout::

    python3 bench/selftest.py

It produces small outputs with the program, confirms that every check
passes on them, then corrupts each output in one place and confirms
that the check reports it: one flipped edge, a density off in its 10th
significant digit, a dropped support point, a changed code bit, a
changed artifact value and a flipped test verdict.  Exits 1 if a clean
output fails or a corruption goes unnoticed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(Path.cwd() / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def run_cli(argv, stdout=None):
    from unirep.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    if stdout:
        Path(stdout).write_text(buf.getvalue(), encoding="utf-8")
    return rc


def edit(path, change):
    p = Path(path)
    p.write_text(change(p.read_text(encoding="utf-8")), encoding="utf-8")


def main() -> int:
    if not (Path.cwd() / "src" / "unirep" / "__init__.py").is_file():
        print("error: run from the root of a checkout", file=sys.stderr)
        return 2
    d = BENCH / ".work" / "selftest"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    rng = random.Random("selftest")
    results = []

    def expect(name, check, ctx, clean, **kw):
        problems = getattr(checks, check)(ctx, **kw)
        ok = (not problems) if clean else bool(problems)
        verdict = ("passes" if clean else "caught") if ok else ("FAILS" if clean else "MISSED")
        detail = problems[0] if problems else ""
        print(f"{verdict:7} {name}{': ' + detail if detail else ''}")
        results.append(ok)

    # Sampled graph: at n = 60 every pair and every edge has its coin recomputed.
    spec = workloads._write(d / "graph.json", workloads.graph_spec(rng, 4, 0.3, 0.7))
    op, _ = workloads._sample_ops("sample", spec, 60, 5, d)
    run_cli(op.argv)
    expect("sample output", op.check, op.ctx, True)
    lines = Path(op.ctx["edges"]).read_text(encoding="utf-8").splitlines(keepends=True)
    Path(op.ctx["edges"]).write_text("".join(lines[:7] + lines[8:]), encoding="utf-8")
    expect("sample with one edge removed", op.check, op.ctx, False)
    others = [f"{a} {b}\n" for a in range(1, 61) for b in range(a + 1, 61)]
    missing = sorted(set(others) - set(lines), key=lambda s: tuple(map(int, s.split())))
    with_extra = sorted(lines + missing[:1], key=lambda s: tuple(map(int, s.split())))
    Path(op.ctx["edges"]).write_text("".join(with_extra), encoding="utf-8")
    expect("sample with one non-edge added", op.check, op.ctx, False)

    # Densities.
    dens = workloads._write(d / "dens.json", workloads.graph_spec(rng, 6, 0.0, 1.0))
    report = str(d / "dens.out")
    ctx = dict(spec=dens, report=report, patterns=list(workloads.DENS_PATTERNS))
    run_cli(["densities", dens, "--patterns", ",".join(workloads.DENS_PATTERNS)], stdout=report)
    expect("densities", "check_densities", ctx, True)

    def tenth_digit(text):
        name, value = text.splitlines()[2].split(" ")
        digits = f"{float(value):.11e}"
        mantissa, exp = digits.split("e")
        bumped = mantissa[:-2] + str((int(mantissa[-2]) + 1) % 10) + mantissa[-1]
        return text.replace(f"{name} {value}", f"{name} {float(bumped + 'e' + exp)!r}")

    edit(report, tenth_digit)
    expect("density off in its 10th digit", "check_densities", ctx, False)

    # Monte-Carlo verdict.
    mc = workloads._write(d / "mc.json", workloads.graph_spec(rng, 3, 0.2, 0.8))
    report = str(d / "mc.out")
    run_cli(["represent", mc, "--out", str(d / "mc_rep.json")])
    run_cli(["equiv", mc, str(d / "mc_rep.json"), "--mode", "mc", "--n", "3", "--runs", "500",
             "--alpha", workloads.MC_ALPHA], stdout=report)
    ctx = dict(report=report, expect_pass=True, runs=500, mode="chi2")
    expect("mc test against the artifact", "check_mc", ctx, True)
    edit(report, lambda t: t.replace('"pass": true', '"pass": false'))
    expect("mc verdict flipped", "check_mc", ctx, False)

    # Exact pipeline on a mixed spec.
    spec = workloads._write(d / "mixed.json", workloads.mixed_spec(rng))
    rep, can, codes = (str(d / f"mixed_{s}.json") for s in ("rep", "cantor", "codes"))
    report = str(d / "mixed_equiv.out")
    run_cli(["represent", spec, "--out", rep])
    run_cli(["represent", spec, "--via-cantor", "--out", can])
    run_cli(["encode", spec, "--out", codes])
    run_cli(["equiv", spec, rep, "--n", "2"], stdout=report)
    expect("represent artifact", "check_represent", dict(spec=spec, artifact=rep), True)
    expect("cantor artifact", "check_cantor", dict(spec=spec, artifact=can, direct=rep, n=2), True)
    expect("encode codes", "check_encode", dict(spec=spec, codes=codes), True)
    eq_ctx = dict(spec=spec, artifact=rep, report=report, n=2)
    expect("exact equiv", "check_exact_equiv", eq_ctx, True)

    law = checks.program_law(rep, 2)
    dropped = dict(law.support)
    dropped.pop(next(iter(dropped)))
    expect("program law with one support point dropped", "check_exact_equiv", eq_ctx, False,
           program=SimpleNamespace(keys=law.keys, support=dropped))

    def flip_code_bit(text):
        doc = json.loads(text)
        atom = next(iter(doc["codes"]))
        code = doc["codes"][atom]
        doc["codes"][atom] = ("1" if code[0] == "0" else "0") + code[1:]
        return json.dumps(doc)

    edit(codes, flip_code_bit)
    expect("code with one bit changed", "check_encode", dict(spec=spec, codes=codes), False)

    def bump_value(text):
        doc = json.loads(text)
        values = doc["kernels"][0]["values"]
        key = next(iter(values))
        values[key] = values[key] / 2.0 + 0.25
        return json.dumps(doc)

    edit(rep, bump_value)
    expect("artifact with one value changed", "check_represent", dict(spec=spec, artifact=rep), False)
    edit(can, bump_value)
    expect("cantor artifact with one value changed", "check_cantor",
           dict(spec=spec, artifact=can, direct=str(d / "mixed_rep.json"), n=2), False)

    missed = results.count(False)
    print(f"{len(results)} checks, {missed} wrong")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
