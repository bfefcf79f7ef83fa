"""Workload inputs and command lists, made from the workload seed.

Each workload is a fixed list of operations.  An operation is one
``unirep`` command line, run in-process through ``unirep.cli.main``,
together with the check the benchmark applies to its output.  Spec
files are generated here from ``random.Random(seed)``; the program only
ever sees the generated files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("sample-dense", "sample-sparse", "stats-mc", "exact-pipeline")

# Sizes.  The README explains each choice.
DENSE_N = 2500
DENSE_CELLS = 8
SPARSE_N = 4000
SPARSE_CELLS = 64
SPARSE_DEGREE = 10.0
MC_CELLS = 6
MC_CHI2_N = 3
MC_CHI2_RUNS = 10_000
MC_Z_N = 31
MC_Z_RUNS = 150
MC_PERTURB = 0.1
# The null tests must pass on every seed, so their level is far below
# the default 0.01.  The perturbed test is a z-test: W + 0.1 moves the
# mean edge count at n = 31 by 46.5, many standard errors at 150 runs,
# where the chi-squared test at n = 3 with 1000 runs fell short of
# 1e-6 on some seeds.
MC_ALPHA = "1e-6"
DENS_CELLS = 24
DENS_PATTERNS = ("edge", "p3", "triangle", "c4", "k4")
EXACT_N = 3
MIXED_ATOMS, MIXED_CLASSES = 30, 20
ARITY3_ATOMS, ARITY3_CLASSES = 24, 16
# The zero-probability case does not depend on the seed: it is the
# known partition fault, and it must fail identically on every run.
ZERO_PROBS = [0.1] * 10 + [0.0]


@dataclass
class Op:
    """One CLI command and how its output is checked.

    ``stdout`` names the file the command's standard output is saved
    to; ``outputs`` lists every file the command produces, hashed to
    compare cycles.  ``expect_rc`` is the exit code a correct program
    returns.  ``check`` names a function in ``checks.py`` and ``ctx``
    its arguments.  ``known_fault`` marks the one operation that fails
    on every run because of a documented program fault.
    """

    label: str
    argv: list
    outputs: list
    check: str
    ctx: dict = field(default_factory=dict)
    stdout: str | None = None
    expect_rc: int = 0
    known_fault: bool = False


@dataclass
class Workload:
    specs: list  # spec files loaded during set-up
    ops: list
    # sample commands re-run untimed with --threads 2 and compared bytewise
    thread_variants: list = field(default_factory=list)


def _probs(rng: random.Random, k: int) -> list:
    raw = [rng.uniform(0.2, 1.0) for _ in range(k)]
    total = math.fsum(raw)
    return [x / total for x in raw]


def _atoms(prefix: str, k: int) -> list:
    return [f"{prefix}{i}" for i in range(k)]


def _sym_values(atoms: list, value) -> dict:
    """Arity-2 symmetric table listed once per orbit."""
    out = {}
    for a in range(len(atoms)):
        for b in range(a, len(atoms)):
            out[f"{atoms[a]},{atoms[b]}"] = value(a, b)
    return out


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return str(path)


def graph_spec(rng: random.Random, cells: int, lo: float, hi: float, density=None) -> dict:
    """A symmetric unit kernel with values drawn from [lo, hi]; with
    ``density`` they are then rescaled so that the edge density
    sum_ab p_a p_b W_ab is exactly that, whatever the seed."""
    atoms = _atoms("c", cells)
    probs = _probs(rng, cells)
    w = {}
    for a in range(cells):
        for b in range(a, cells):
            w[(a, b)] = rng.uniform(lo, hi)
    if density is not None:
        mean = math.fsum(probs[a] * probs[b] * w[min(a, b), max(a, b)]
                         for a in range(cells) for b in range(cells))
        w = {key: v * density / mean for key, v in w.items()}
    return {
        "space": {"atoms": atoms, "probs": probs},
        "kernels": [
            {
                "name": "w",
                "arity": 2,
                "value_space": "unit",
                "symmetric": True,
                "values": _sym_values(atoms, lambda a, b: w[(a, b)]),
            }
        ],
    }


def perturbed(spec: dict, delta: float) -> dict:
    out = json.loads(json.dumps(spec))
    for k in out["kernels"]:
        k["values"] = {key: min(v + delta, 1.0) for key, v in k["values"].items()}
    return out


def _classes(rng: random.Random, atoms: int, classes: int) -> list:
    """Class of each atom: every class used once, the rest at random."""
    cls = list(range(classes)) + [rng.randrange(classes) for _ in range(atoms - classes)]
    rng.shuffle(cls)
    return cls


def _generators(atoms: list, cls: list, classes: int) -> list:
    """One generator per bit of the class index, so that atoms of one
    class share a code and distinct classes get distinct codes."""
    bits = max(1, (classes - 1).bit_length())
    return [[a for a, c in zip(atoms, cls) if (c >> b) & 1] for b in range(bits)]


def mixed_spec(rng: random.Random) -> dict:
    """Unit, real and label kernels of arity 1 and 2, with atoms merged
    into classes so that the Cantor route has merging to do."""
    atoms = _atoms("a", MIXED_ATOMS)
    cls = _classes(rng, MIXED_ATOMS, MIXED_CLASSES)
    unit = {(a, b): rng.random() for a in range(MIXED_CLASSES) for b in range(a, MIXED_CLASSES)}
    real = [rng.uniform(-3.0, 3.0) for _ in range(MIXED_CLASSES)]
    lab = [[rng.randrange(3) for _ in range(MIXED_CLASSES)] for _ in range(MIXED_CLASSES)]
    f = _sym_values(atoms, lambda a, b: unit[tuple(sorted((cls[a], cls[b])))])
    g = {atoms[a]: real[cls[a]] for a in range(MIXED_ATOMS)}
    h = {
        f"{atoms[a]},{atoms[b]}": lab[cls[a]][cls[b]]
        for a in range(MIXED_ATOMS)
        for b in range(MIXED_ATOMS)
    }
    return {
        "space": {"atoms": atoms, "probs": _probs(rng, MIXED_ATOMS)},
        "generators": _generators(atoms, cls, MIXED_CLASSES),
        "kernels": [
            {"name": "f", "arity": 2, "value_space": "unit", "symmetric": True, "values": f},
            {"name": "g", "arity": 1, "value_space": "real", "symmetric": False, "values": g},
            {"name": "h", "arity": 2, "value_space": {"labels": 3}, "symmetric": False, "values": h},
        ],
    }


def arity3_spec(rng: random.Random) -> dict:
    """A symmetric arity-3 unit kernel and an arity-1 label kernel."""
    atoms = _atoms("t", ARITY3_ATOMS)
    cls = _classes(rng, ARITY3_ATOMS, ARITY3_CLASSES)
    cube = {}
    for a in range(ARITY3_CLASSES):
        for b in range(a, ARITY3_CLASSES):
            for c in range(b, ARITY3_CLASSES):
                cube[(a, b, c)] = rng.random()
    t = {}
    for a in range(ARITY3_ATOMS):
        for b in range(a, ARITY3_ATOMS):
            for c in range(b, ARITY3_ATOMS):
                t[f"{atoms[a]},{atoms[b]},{atoms[c]}"] = cube[tuple(sorted((cls[a], cls[b], cls[c])))]
    lab = [rng.randrange(4) for _ in range(ARITY3_CLASSES)]
    return {
        "space": {"atoms": atoms, "probs": _probs(rng, ARITY3_ATOMS)},
        "generators": _generators(atoms, cls, ARITY3_CLASSES),
        "kernels": [
            {"name": "t", "arity": 3, "value_space": "unit", "symmetric": True, "values": t},
            {"name": "l", "arity": 1, "value_space": {"labels": 4}, "symmetric": False,
             "values": {atoms[a]: lab[cls[a]] for a in range(ARITY3_ATOMS)}},
        ],
    }


def zero_spec() -> dict:
    atoms = _atoms("z", len(ZERO_PROBS))
    return {
        "space": {"atoms": atoms, "probs": ZERO_PROBS},
        "kernels": [
            {"name": "r", "arity": 1, "value_space": "real", "symmetric": False,
             "values": {a: float(i) for i, a in enumerate(atoms)}},
        ],
    }


def _sample_ops(name: str, spec: str, n: int, seed: int, d: Path):
    edges, lat = str(d / "edges.txt"), str(d / "latents.txt")
    argv = ["sample", spec, "--n", str(n), "--seed", str(seed), "--out", edges, "--latents", lat]
    op = Op(name, argv, [edges, lat], "check_sample",
            dict(spec=spec, n=n, seed=seed, edges=edges, latents=lat))
    e2, l2 = str(d / "edges_t2.txt"), str(d / "latents_t2.txt")
    variant = ["sample", spec, "--n", str(n), "--seed", str(seed), "--threads", "2",
               "--out", e2, "--latents", l2]
    return op, (variant, [(edges, e2), (lat, l2)])


def build(name: str, seed: int, d: Path) -> Workload:
    """Write the workload's spec files into ``d`` and return its plan."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    d.mkdir(parents=True, exist_ok=True)

    if name in ("sample-dense", "sample-sparse"):
        if name == "sample-dense":
            doc, n = graph_spec(rng, DENSE_CELLS, 0.35, 0.65, density=0.5), DENSE_N
        else:
            p = SPARSE_DEGREE / SPARSE_N
            doc, n = graph_spec(rng, SPARSE_CELLS, 0.5 * p, 1.5 * p, density=p), SPARSE_N
        spec = _write(d / "graph.json", doc)
        op, variant = _sample_ops(name, spec, n, seed, d)
        return Workload([spec], [op], [variant])

    if name == "stats-mc":
        mc_doc = graph_spec(rng, MC_CELLS, 0.2, 0.8)
        mc = _write(d / "mc.json", mc_doc)
        far = _write(d / "mc_perturbed.json", perturbed(mc_doc, MC_PERTURB))
        dens = _write(d / "dens.json", graph_spec(rng, DENS_CELLS, 0.0, 1.0))
        rep = str(d / "mc_rep.json")
        out = lambda stem: str(d / f"{stem}.out")  # noqa: E731

        def equiv(label, other, n, runs, expect_pass):
            argv = ["equiv", mc, other, "--mode", "mc", "--n", str(n), "--runs", str(runs),
                    "--seed", str(seed), "--alpha", MC_ALPHA]
            return Op(label, argv, [out(label)], "check_mc",
                      dict(report=out(label), expect_pass=expect_pass, runs=runs,
                           mode="chi2" if n <= 5 else "ztest"),
                      stdout=out(label), expect_rc=0 if expect_pass else 1)

        ops = [
            Op("represent", ["represent", mc, "--out", rep], [rep], "check_represent",
               dict(spec=mc, artifact=rep)),
            equiv("equiv-chi2", rep, MC_CHI2_N, MC_CHI2_RUNS, True),
            equiv("equiv-ztest", rep, MC_Z_N, MC_Z_RUNS, True),
            equiv("equiv-power", far, MC_Z_N, MC_Z_RUNS, False),
            Op("densities", ["densities", dens, "--patterns", ",".join(DENS_PATTERNS)],
               [out("densities")], "check_densities",
               dict(spec=dens, report=out("densities"), patterns=list(DENS_PATTERNS)),
               stdout=out("densities")),
        ]
        return Workload([mc, far, dens], ops)

    # exact-pipeline
    ops, specs = [], []
    for stem, doc in (("mixed", mixed_spec(rng)), ("arity3", arity3_spec(rng))):
        spec = _write(d / f"{stem}.json", doc)
        specs.append(spec)
        rep, can, codes = (str(d / f"{stem}_{s}.json") for s in ("rep", "cantor", "codes"))
        report = str(d / f"{stem}_equiv.out")
        ops += [
            Op(f"{stem}-represent", ["represent", spec, "--out", rep], [rep],
               "check_represent", dict(spec=spec, artifact=rep)),
            Op(f"{stem}-cantor", ["represent", spec, "--via-cantor", "--out", can], [can],
               "check_cantor", dict(spec=spec, artifact=can, direct=rep, n=EXACT_N)),
            Op(f"{stem}-encode", ["encode", spec, "--out", codes], [codes],
               "check_encode", dict(spec=spec, codes=codes)),
            Op(f"{stem}-equiv", ["equiv", spec, rep, "--n", str(EXACT_N)], [report],
               "check_exact_equiv", dict(spec=spec, artifact=rep, report=report, n=EXACT_N),
               stdout=report),
        ]
    zero = _write(d / "zero.json", zero_spec())
    specs.append(zero)
    zrep = str(d / "zero_rep.json")
    ops.append(Op("zero-represent", ["represent", zero, "--out", zrep], [zrep],
                  "check_represent", dict(spec=zero, artifact=zrep), known_fault=True))
    return Workload(specs, ops)
