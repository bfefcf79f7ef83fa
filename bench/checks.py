"""Correctness checks computed apart from the program.

Each ``check_*`` function takes the operation's context (paths and
sizes from ``workloads.py``) and returns a list of problems; an empty
list means the output is correct.  The checks read the spec files and
the program's outputs as plain JSON or text and recompute what they
must contain with their own code: the counter RNG in pure Python, the
partition from ``math.fsum`` prefix sums, laws and densities with
numpy.  Only ``check_exact_equiv`` calls the program, to obtain the
joint law whose marginal it compares against its own.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from itertools import permutations, product
from pathlib import Path

import numpy as np

PROB_TOL = 1e-12  # cell lengths and law probabilities
EXACT_TV_TOL = 1e-9
SIGMAS = 6.0  # edge-count window around its conditional mean
COIN_PAIRS = 4000  # random vertex pairs whose coins are recomputed
COIN_EDGES = 1000  # random listed edges whose coins are recomputed

# ---------------------------------------------------------------------------
# The counter RNG, as documented: the state seed + GOLDEN is xor-folded
# with stream, i, j in turn, each fold followed by the avalanche; the
# draw is the high 53 bits over 2^53.

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def unit_uniform(seed: int, stream: int, i: int, j: int) -> float:
    x = (seed + _GOLDEN) & _MASK
    for v in (stream, i, j):
        x ^= v & _MASK
        x ^= x >> 30
        x = (x * _M1) & _MASK
        x ^= x >> 27
        x = (x * _M2) & _MASK
        x ^= x >> 31
    return (x >> 11) / float(1 << 53)


# ---------------------------------------------------------------------------
# Spec files, read as plain JSON.


class Spec:
    """Atoms, renormalized probabilities and dense kernel tables."""

    def __init__(self, path):
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        self.atoms = list(doc["space"]["atoms"])
        raw = [float(p) for p in doc["space"]["probs"]]
        total = math.fsum(raw)
        self.probs = [p / total for p in raw]
        pos = {a: i for i, a in enumerate(self.atoms)}
        self.kernels = []  # (name, arity, value_space, symmetric, full table by index)
        for k in doc["kernels"]:
            table = {}
            for key, v in k["values"].items():
                idx = tuple(pos[a] for a in key.split(","))
                for perm in permutations(idx) if k.get("symmetric") else (idx,):
                    table[perm] = v
            self.kernels.append((k["name"], k["arity"], k["value_space"], bool(k.get("symmetric")), table))
        self.generators = doc.get("generators")

    def array(self, table: dict, arity: int) -> np.ndarray:
        out = np.empty((len(self.atoms),) * arity)
        for key, v in table.items():
            out[key] = v
        return out


def breakpoints(probs) -> list:
    """Exact-rounded prefix sums: a zero probability gives an empty cell."""
    bp = [0.0]
    for k in range(1, len(probs)):
        bp.append(min(math.fsum(probs[:k]), 1.0))
    return bp + [1.0]


def cell_of(bp: list, u: float) -> int:
    return bisect_right(bp, u) - 1


# ---------------------------------------------------------------------------
# Sampled graphs.


def parse_edges(data: bytes, n: int):
    """Edge array from an edge list, and the format problems found."""
    problems = []
    if not data:
        return np.empty((0, 2), dtype=np.int64), problems
    if data.translate(None, b"0123456789 \n"):
        return None, ["edge list holds bytes other than digits, spaces and newlines"]
    if not data.endswith(b"\n"):
        problems.append("edge list does not end with a newline")
    if data.count(b" ") != data.count(b"\n"):
        problems.append("some edge line does not hold exactly two fields")
    for bad in (b"\n\n", b" \n", b"\n ", b"  ", b" 0", b"\n0"):
        if bad in data:
            problems.append(f"edge list contains {bad!r}")
    if data[:1] in (b" ", b"0", b"\n"):
        problems.append("edge list starts with a malformed line")
    if problems:
        return None, problems
    edges = np.array(data.split(), dtype=np.int64).reshape(-1, 2)
    i, j = edges[:, 0], edges[:, 1]
    if i.min() < 1 or j.max() > n or np.any(i >= j):
        problems.append("edges must be 1-based pairs i < j <= n")
    key = i * (n + 1) + j
    if np.any(np.diff(key) <= 0):
        problems.append("edges are not in strictly ascending order")
    return edges, problems


def check_sample(ctx: dict) -> list:
    spec = Spec(ctx["spec"])
    n, seed = ctx["n"], ctx["seed"]
    _, _, _, _, table = spec.kernels[0]
    w = spec.array(table, 2)
    bp = breakpoints(spec.probs)
    problems = []

    lines = Path(ctx["latents"]).read_text(encoding="utf-8").splitlines()
    if len(lines) != n:
        return [f"{len(lines)} latent lines, expected {n}"]
    cells = []
    for i, line in enumerate(lines, start=1):
        idx, text = line.split(" ")
        x = unit_uniform(seed, 0, 0, i)
        if int(idx) != i or float(text) != x:
            return [f"latent {i} reads {line!r}, recomputed {x!r}"]
        cells.append(cell_of(bp, x))

    edges, problems = parse_edges(Path(ctx["edges"]).read_bytes(), n)
    if edges is None or problems:
        return problems
    keys = edges[:, 0] * (n + 1) + edges[:, 1]

    rng = random.Random(f"pairs:{seed}")
    pairs = set()
    while len(pairs) < min(COIN_PAIRS, n * (n - 1) // 2):
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        pairs.add((i, j))
    for r in rng.sample(range(len(edges)), min(COIN_EDGES, len(edges))):
        pairs.add((int(edges[r, 0]), int(edges[r, 1])))
    for i, j in sorted(pairs):
        want = unit_uniform(seed, 1, i, j) < w[cells[i - 1], cells[j - 1]]
        k = i * (n + 1) + j
        pos = np.searchsorted(keys, k)
        have = bool(pos < len(keys) and keys[pos] == k)
        if have != want:
            problems.append(f"pair ({i},{j}) is {'' if have else 'not '}an edge, its coin says otherwise")
            break

    counts = np.bincount(np.asarray(cells), minlength=len(spec.atoms)).astype(float)
    # sum over i < j of f(c_i, c_j) from the cell counts alone
    pair_sum = lambda f: 0.5 * (counts @ f @ counts - counts @ np.diag(f))  # noqa: E731
    mean, var = pair_sum(w), pair_sum(w * (1.0 - w))
    if abs(len(edges) - mean) > SIGMAS * math.sqrt(var) + 1.0:
        problems.append(f"{len(edges)} edges, expected {mean:.1f} +- {math.sqrt(var):.1f}")
    return problems


# ---------------------------------------------------------------------------
# Monte-Carlo tests and densities.


def check_mc(ctx: dict) -> list:
    report = json.loads(Path(ctx["report"]).read_text(encoding="utf-8"))
    problems = []
    if report.get("mode") != ctx["mode"] or report.get("runs") != ctx["runs"]:
        problems.append(f"report has mode {report.get('mode')} and {report.get('runs')} runs")
    alpha = report.get("alpha", 0.0)
    rejected = any(p < alpha for p in report.get("pvalues", {}).values())
    if report.get("pass") is rejected:
        problems.append("pass flag disagrees with the p-values")
    if report.get("pass") is not ctx["expect_pass"]:
        problems.append(f"test reports pass={report.get('pass')}, expected {ctx['expect_pass']}")
    return problems


PATTERN_EDGES = {
    "edge": (2, [(0, 1)]),
    "p3": (3, [(0, 1), (1, 2)]),
    "triangle": (3, [(0, 1), (1, 2), (0, 2)]),
    "c4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "k4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
}


def density(p: np.ndarray, w: np.ndarray, pattern: str) -> float:
    """Homomorphism density by one einsum over the pattern's edges."""
    v, edges = PATTERN_EDGES[pattern]
    letters = "abcd"[:v]
    terms = list(letters) + [letters[a] + letters[b] for a, b in edges]
    return float(np.einsum(",".join(terms) + "->", *([p] * v + [w] * len(edges)), optimize=True))


def agrees_to_12_digits(printed: float, own: float) -> bool:
    """Whether ``printed`` is ``own`` rounded to 12 significant digits,
    allowing for the last-bit difference of two summation orders."""
    if own == 0.0:
        return printed == 0.0
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(own))) - 11)
    return abs(printed - own) <= half_unit * (1.0 + 1e-6) + 1e-15 * abs(own)


def check_densities(ctx: dict) -> list:
    spec = Spec(ctx["spec"])
    w = spec.array(spec.kernels[0][4], 2)
    p = np.asarray(spec.probs)
    printed = {}
    for line in Path(ctx["report"]).read_text(encoding="utf-8").splitlines():
        name, value = line.split(" ")
        printed[name] = float(value)
    if list(printed) != ctx["patterns"]:
        return [f"densities printed for {list(printed)}, expected {ctx['patterns']}"]
    problems = []
    for name, value in printed.items():
        own = density(p, w, name)
        if not agrees_to_12_digits(value, own):
            problems.append(f"{name} density {value!r}, own contraction {own!r}")
    k = len(p)
    edge = math.fsum(p[a] * p[b] * w[a, b] for a in range(k) for b in range(k))
    if not agrees_to_12_digits(printed["edge"], edge):
        problems.append(f"edge density {printed['edge']!r}, sum p_a p_b W_ab = {edge!r}")
    return problems


# ---------------------------------------------------------------------------
# Representation artifacts, codes and exact laws.


def _artifact(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _lengths(doc: dict) -> list:
    bp = doc["partition"]["breakpoints"]
    return [b - a for a, b in zip(bp, bp[1:])]


def _artifact_table(kernel: dict) -> dict:
    return {tuple(int(c) for c in key.split(",")): v for key, v in kernel["values"].items()}


def _check_partition(doc: dict, cells: list, probs: list) -> list:
    bp = doc["partition"]["breakpoints"]
    problems = []
    if doc["partition"]["cells"] != cells:
        problems.append("partition cells are not the expected labels in order")
    if bp[0] != 0.0 or bp[-1] != 1.0 or any(a > b for a, b in zip(bp, bp[1:])):
        problems.append("breakpoints do not run nondecreasing from 0 to 1")
    lengths = _lengths(doc)
    if len(lengths) != len(probs):
        return problems + [f"{len(lengths)} cells, expected {len(probs)}"]
    for label, length, p in zip(cells, lengths, probs):
        if p == 0.0 and length != 0.0:
            problems.append(f"zero-probability atom {label!r} has a cell of length {length!r}, not 0")
        elif abs(length - p) > PROB_TOL:
            problems.append(f"cell {label!r} has length {length!r}, probability {p!r}")
    return problems


def _check_kernels(doc: dict, spec: Spec, rep_of) -> list:
    """Artifact kernels carry the spec's values bit-exactly; ``rep_of``
    maps a cell index to the atom index whose values it carries."""
    problems = []
    if [k["name"] for k in doc["kernels"]] != [k[0] for k in spec.kernels]:
        return ["artifact kernels differ from the spec's"]
    for art, (name, arity, vs, sym, table) in zip(doc["kernels"], spec.kernels):
        if (art["arity"], art["value_space"], art["symmetric"]) != (arity, vs, sym):
            problems.append(f"kernel {name!r} changed its arity, value space or symmetry")
        got = _artifact_table(art)
        cells = len(doc["partition"]["cells"])
        if len(got) != cells**arity:
            problems.append(f"kernel {name!r} lists {len(got)} values, expected {cells ** arity}")
            continue
        for key, v in got.items():
            want = table[tuple(rep_of[c] for c in key)]
            if v != want or type(v) is not type(want):
                problems.append(f"kernel {name!r} at {key} holds {v!r}, spec has {want!r}")
                break
    return problems


def check_represent(ctx: dict) -> list:
    spec, doc = Spec(ctx["spec"]), _artifact(ctx["artifact"])
    problems = _check_partition(doc, spec.atoms, spec.probs)
    return problems + _check_kernels(doc, spec, list(range(len(spec.atoms))))


def codes(spec: Spec) -> dict:
    gens = [set(g) for g in spec.generators]
    return {a: "".join("1" if a in g else "0" for g in gens) for a in spec.atoms}


def classes(spec: Spec, code: dict) -> list:
    """Atoms grouped by code, in order of first occurrence."""
    groups: dict = {}
    for a in spec.atoms:
        groups.setdefault(code[a], []).append(a)
    return list(groups.values())


def check_encode(ctx: dict) -> list:
    spec = Spec(ctx["spec"])
    doc = json.loads(Path(ctx["codes"]).read_text(encoding="utf-8"))
    own = codes(spec)
    problems = []
    if doc.get("codes") != own:
        wrong = [a for a in spec.atoms if doc.get("codes", {}).get(a) != own[a]]
        problems.append(f"codes differ from the membership bits at {wrong[:3]}")
    if doc.get("sigma_atoms") != classes(spec, own):
        problems.append("sigma-atoms differ from the atoms grouped by code")
    return problems


def law(weights, tables, n: int) -> dict:
    """Exact joint law of all kernel values at n iid points.

    ``tables`` lists ``(arity, dense value array)`` per kernel.  Value
    vectors follow the program's coordinate order (kernels in family
    order, index tuples in lexicographic order) as floats.
    """
    weights = np.asarray(weights, dtype=float)
    k = len(weights)
    assign = np.indices((k,) * n).reshape(n, -1).T
    prob = np.prod(weights[assign], axis=1)
    cols = [
        values[tuple(assign[:, t] for t in idx)].astype(float)
        for arity, values in tables
        for idx in permutations(range(n), arity)
    ]
    keep = prob > 0.0
    rows = np.column_stack(cols)[keep]
    support, inverse = np.unique(rows, axis=0, return_inverse=True)
    mass = np.bincount(inverse.ravel(), weights=prob[keep])
    return dict(zip(map(tuple, support.tolist()), mass.tolist()))


def compare_laws(a: dict, b: dict, what: str) -> list:
    if set(a) != set(b):
        return [f"{what}: supports differ ({len(a)} vs {len(b)} points)"]
    worst = max(abs(a[v] - b[v]) for v in a)
    if worst > PROB_TOL:
        return [f"{what}: probabilities differ by up to {worst!r}"]
    return []


def _artifact_law(doc: dict, n: int) -> dict:
    cells = len(doc["partition"]["cells"])
    tables = []
    for art in doc["kernels"]:
        arr = np.empty((cells,) * art["arity"])
        for key, v in _artifact_table(art).items():
            arr[key] = v
        tables.append((art["arity"], arr))
    return law(_lengths(doc), tables, n)


def check_cantor(ctx: dict) -> list:
    spec, doc = Spec(ctx["spec"]), _artifact(ctx["artifact"])
    own = codes(spec)
    groups = sorted(classes(spec, own), key=lambda members: own[members[0]])
    pos = {a: i for i, a in enumerate(spec.atoms)}
    merged = [math.fsum(spec.probs[pos[a]] for a in members) for members in groups]
    problems = _check_partition(doc, [own[m[0]] for m in groups], merged)
    problems += _check_kernels(doc, spec, [pos[m[0]] for m in groups])
    if not problems:
        n = ctx["n"]
        problems += compare_laws(_artifact_law(_artifact(ctx["direct"]), n), _artifact_law(doc, n),
                                 "direct and Cantor artifact laws")
    return problems


def program_law(artifact: str, n: int):
    """The program's exact joint law of a represented artifact."""
    from unirep.equivalence import exact_joint_law, step_family_as_space
    from unirep.specfile import load_spec

    space, family = step_family_as_space(load_spec(artifact).family)
    return exact_joint_law(space, family, n)


def marginal(keys, support: dict, wanted: list) -> dict:
    pos = [keys.index(k) for k in wanted]
    out: dict = {}
    for vec, p in support.items():
        sub = tuple(float(vec[q]) for q in pos)
        out[sub] = out.get(sub, 0.0) + p
    return out


def pair_law(spec: Spec, table: dict) -> dict:
    """Law of (W(X1,X2), W(X2,X1)) straight from the table and probabilities."""
    out: dict = {}
    k = len(spec.atoms)
    for a, b in product(range(k), repeat=2):
        p = spec.probs[a] * spec.probs[b]
        if p > 0.0:
            v = (float(table[(a, b)]), float(table[(b, a)]))
            out[v] = out.get(v, 0.0) + p
    return out


def check_exact_equiv(ctx: dict, program=None) -> list:
    spec, n = Spec(ctx["spec"]), ctx["n"]
    report = json.loads(Path(ctx["report"]).read_text(encoding="utf-8"))
    problems = []
    if report.get("mode") != "exact" or report.get("n") != n:
        problems.append(f"report has mode {report.get('mode')} at n={report.get('n')}")
    if report.get("pass") is not True or not report.get("tv", 1.0) <= EXACT_TV_TOL:
        problems.append(f"exact comparison reports pass={report.get('pass')}, tv={report.get('tv')}")
    tables = [(arity, spec.array(table, arity)) for _, arity, _, _, table in spec.kernels]
    support = len(law(spec.probs, tables, n))
    if report.get("support_size") != support:
        problems.append(f"support size {report.get('support_size')}, the source law has {support}")
    if program is None:
        program = program_law(ctx["artifact"], n)
    for name, arity, _, _, table in spec.kernels:
        if arity == 2:
            got = marginal(list(program.keys), program.support, [(name, (1, 2)), (name, (2, 1))])
            problems += compare_laws(pair_law(spec, table), got, f"n=2 law of {name!r}")
    return problems
