"""Shared builders for the test suite."""

from __future__ import annotations

import math
from itertools import permutations, product

import numpy as np

from unirep import (
    Cdf,
    IntervalPartition,
    Kernel,
    KernelFamily,
    ValueSpace,
    eval_kernel,
    sample_latents,
    validate_space,
)
from unirep.sampling import pair_list

REAL = ValueSpace("real")
UNIT = ValueSpace("unit")
LABELS3 = ValueSpace("labels", 3)


_MASK64 = (1 << 64) - 1


def _avalanche(x):
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def mix(seed, stream, i, j):
    """Pure-Python oracle for the counter hash of ``unirep.sampling``: the
    arguments are taken mod 2^64 and folded one Python int at a time."""
    x = (int(seed) + 0x9E3779B97F4A7C15) & _MASK64
    for v in (stream, i, j):
        x = _avalanche(x ^ (int(v) & _MASK64))
    return x


def unit_uniform_scalar(seed, stream, i, j):
    """Oracle for ``unit_uniform``: the high 53 bits of ``mix`` over 2^53."""
    return (mix(seed, stream, i, j) >> 11) / float(1 << 53)


def derive_seed_scalar(seed, tag, index):
    """Oracle for ``derive_seed`` at one index."""
    return mix(seed, 0xD5 + tag, index, 0)


def space(atoms, probs):
    return validate_space(list(atoms), list(probs))


def table_kernel(name, sp, values, value_space=UNIT, symmetric=False):
    arity = len(next(iter(values)))
    return Kernel(
        name=name,
        arity=arity,
        value_space=value_space,
        domain=sp,
        table=dict(values),
        symmetric=symmetric,
    )


def const_graph_kernel(p, name="f"):
    """Constant edge-probability kernel on the trivial one-cell partition."""
    part = IntervalPartition((0.0, 1.0), ("o",))
    return Kernel(
        name=name,
        arity=2,
        value_space=UNIT,
        domain=part,
        table={(0, 0): p},
        symmetric=True,
    )


def two_block_kernel(within=0.1, across=0.9, name="f"):
    """Step kernel with equal halves: ``within`` on the diagonal blocks."""
    part = IntervalPartition((0.0, 0.5, 1.0), ("lo", "hi"))
    table = {
        (0, 0): within,
        (0, 1): across,
        (1, 0): across,
        (1, 1): within,
    }
    return Kernel(
        name=name, arity=2, value_space=UNIT, domain=part, table=table, symmetric=True
    )


def sample_graph_pairwise(kernel, n, seed):
    """Per-pair oracle for ``sample_graph``: the edge list, one pure-Python
    coin ``unit_uniform_scalar(seed, 1, i, j)`` and one scalar kernel
    lookup per pair, in pair order."""
    latents = sample_latents(kernel.domain, n, seed)
    points = latents.uniforms.tolist() if kernel.is_step else latents.atoms
    keep = [
        (i, j)
        for i, j in pair_list(n).tolist()
        if unit_uniform_scalar(seed, 1, i, j) < eval_kernel(kernel, (points[i - 1], points[j - 1]))
    ]
    return np.array(keep, dtype=np.int64).reshape(-1, 2)


def edge_lines_oracle(edges):
    """Oracle for the edge list of ``unirep sample``: one f-string
    ``"i j\\n"`` per row of ``edges``."""
    return "".join(f"{i} {j}\n" for i, j in np.asarray(edges).tolist())


def sample_array_loop(family, n, seed):
    """Per-tuple oracle for ``sample_array``: one ``eval_kernel`` call per
    ordered tuple of distinct indices, in ``permutations`` order."""
    latents = sample_latents(family.domain, n, seed)
    values = {}
    for k in family:
        points = latents.uniforms.tolist() if k.is_step else latents.atoms
        for idx in permutations(range(1, n + 1), k.arity):
            values[(k.name, idx)] = eval_kernel(k, tuple(points[t - 1] for t in idx))
    return values


def _weights(kernel):
    domain = kernel.domain
    return np.asarray(domain.lengths if kernel.is_step else domain.probs)


def hom_density_loop(kernel, pattern):
    """Scalar oracle for ``hom_density``: one Python loop over the K^v
    assignments, skipping zero-weight ones, summed with ``fsum``."""
    weights, values = _weights(kernel), kernel.values
    terms = []
    for assign in product(range(len(weights)), repeat=pattern.num_vertices):
        w = 1.0
        for c in assign:
            w *= weights[c]
        if w == 0.0:
            continue
        for u, v in pattern.edges:
            w *= values[assign[u], assign[v]]
        terms.append(w)
    return math.fsum(terms)


def graph_law_loop(kernel, n):
    """Scalar oracle for ``graph_law_exact``: one assignment of the K^n
    at a time, skipping zero-weight ones."""
    weights, values = _weights(kernel), kernel.values
    pairs = pair_list(n)
    masks = np.arange(1 << len(pairs))
    law = np.zeros(len(masks))
    for assign in product(range(len(weights)), repeat=n):
        w = 1.0
        for c in assign:
            w *= weights[c]
        if w == 0.0:
            continue
        acc = np.full(len(masks), w)
        for p, (i, j) in enumerate(pairs.tolist()):
            pe = values[assign[i - 1], assign[j - 1]]
            acc *= np.where((masks >> p) & 1, pe, 1.0 - pe)
        law += acc
    return law


def exact_joint_law_loop(sp, family, n):
    """Scalar oracle for ``exact_joint_law``: its keys, and its support from
    one ``product`` loop over the K^n assignments, each weight the left-to-
    right product of the atom probabilities, zero weights skipped, every
    value read alone with ``item()``, equal vectors added in loop order."""
    keys = tuple((k.name, idx) for k in family for idx in permutations(range(1, n + 1), k.arity))
    values = {k.name: k.values for k in family}
    support = {}
    for assign in product(range(len(sp)), repeat=n):
        w = 1.0
        for c in assign:
            w *= sp.probs[c]
        if w == 0.0:
            continue
        vec = tuple(values[name][tuple(assign[t - 1] for t in idx)].item() for name, idx in keys)
        support[vec] = support.get(vec, 0.0) + w
    return keys, support


def random_space(rng, size, ids=None):
    probs = rng.dirichlet(np.ones(size))
    atoms = ids or [f"a{k}" for k in range(size)]
    return space(atoms, probs)


def _draw_value(rng, value_space):
    if value_space.kind == "labels":
        return int(rng.integers(0, value_space.num_labels))
    if value_space.kind == "unit":
        return float(rng.random())
    return float(np.round(rng.normal(), 6))


def random_kernel(rng, sp, arity, value_space, name, symmetric=False):
    table = {}
    if symmetric:
        for key in product(sp.atom_ids, repeat=arity):
            canon = tuple(sorted(key))
            if canon not in table:
                table[canon] = _draw_value(rng, value_space)
        full = {}
        for key in product(sp.atom_ids, repeat=arity):
            full[key] = table[tuple(sorted(key))]
        table = full
    else:
        for key in product(sp.atom_ids, repeat=arity):
            table[key] = _draw_value(rng, value_space)
    return Kernel(
        name=name,
        arity=arity,
        value_space=value_space,
        domain=sp,
        table=table,
        symmetric=symmetric,
    )


def random_family(rng, sp, specs):
    """``specs``: iterable of (name, arity, value_space, symmetric)."""
    return KernelFamily(
        tuple(
            random_kernel(rng, sp, arity, vs, name, symmetric)
            for name, arity, vs, symmetric in specs
        )
    )


def random_step_cdf(rng, max_jumps=8):
    k = int(rng.integers(1, max_jumps + 1))
    ys = np.sort(rng.choice(np.round(rng.normal(0, 5, 4 * k), 3), k, replace=False))
    if k == 1:
        cums = [1.0]
    else:
        cuts = np.sort(rng.random(k - 1))
        while k > 1 and (np.diff(np.concatenate(([0.0], cuts, [1.0]))) < 1e-6).any():
            cuts = np.sort(rng.random(k - 1))
        cums = list(cuts) + [1.0]
    return Cdf("step", tuple(zip(ys.tolist(), cums)))


def random_pwl_cdf(rng, max_knots=8):
    k = int(rng.integers(2, max_knots + 1))
    xs = np.sort(rng.choice(np.round(rng.normal(0, 3, 4 * k), 3), k, replace=False))
    if k == 2:
        fs = [0.0, 1.0]
    else:
        cuts = np.sort(rng.random(k - 2))
        while (np.diff(np.concatenate(([0.0], cuts, [1.0]))) < 1e-6).any():
            cuts = np.sort(rng.random(k - 2))
        fs = [0.0] + list(cuts) + [1.0]
    return Cdf("pwl", tuple(zip(xs.tolist(), fs)))
