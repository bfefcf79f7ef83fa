"""Deciding whether two function families induce the same joint distribution.

At small scale the decision is exact: :func:`exact_joint_law`,
:func:`hom_density` and :func:`graph_law_exact` are sums over one
enumerator of Omega^n, :func:`_assignments`.  One grouping, :func:`_groups`,
packs each assignment's value ranks into an int64 key: :func:`exact_joint_law`
groups one side's assignments into a joint law, and ``unirep equiv``'s
:func:`_exact_comparison` groups both sides' at once, building no law.
:func:`tv_distance` matches two laws' support points on their values, as
dict keys match (exact because both laws draw their values from
identical tables; upstream modules copy values, never recompute them
through different arithmetic).  ``unirep densities`` prints the 12 digits of
:func:`hom_density` that :func:`_contraction`, vertex elimination with a
counted rounding-error bound, certifies, and otherwise ``hom_density``'s own.

Beyond enumeration scale, :func:`mc_two_sample_test` compares sampled
graph laws statistically: labeled-graph frequency chi-squared for small
n, summary-statistic z-tests for larger n.  Its default observations
come from edge-indicator rows, which a kernel side draws in bulk.

``exact_joint_law`` and ``graph_law_exact`` refuse to enumerate more
than a configured number of assignments (default 10^7, overridable via
the ``REP_MAX_ENUM`` environment variable or a ``cap`` argument), and
``exact_joint_law`` more coordinates (kernel evaluations per assignment)
than that.  The cap is checked before any enumeration, whatever n is.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import groupby, permutations, product
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

import numpy as np

from . import sampling
from .errors import ArityError, PowerError, RangeError, ScaleError, SpecError
from .kernels import Kernel, KernelFamily
from .sampling import (
    _block_words,
    _check_n,
    _index_tuples,
    _seed_blocks,
    derive_seed,
    pair_list,
    sample_graph,
)
from .spaces import DiscreteSpace, IntervalPartition

__all__ = [
    "JointLaw",
    "PatternGraph",
    "PATTERNS",
    "exact_joint_law",
    "step_family_as_space",
    "tv_distance",
    "law_is_exchangeable",
    "exchangeability_check",
    "hom_density",
    "graph_law_exact",
    "mc_two_sample_test",
]

_DEFAULT_CAP = 10_000_000


def _check_cap(cap: int | None, message: str, *powers: tuple[int, int]) -> None:
    """Raise ``ScaleError(message.format(cap=cap))`` if the product of ``b**e``
    over ``powers`` exceeds ``cap`` (default: ``REP_MAX_ENUM``, else 10^7), with
    no power formed once the exponents of the bases b >= 2 pass the cap's bits."""
    if cap is None:
        env = os.environ.get("REP_MAX_ENUM")
        try:
            cap = int(env or _DEFAULT_CAP)
        except ValueError:
            raise SpecError(f"REP_MAX_ENUM must be an integer, got {env!r}") from None
    bits = sum(e for b, e in powers if b >= 2)  # the product is at least 2^bits
    if bits > cap.bit_length() or math.prod(b**e for b, e in powers) > cap:
        raise ScaleError(message.format(cap=cap))


def _check_probs(probs: np.ndarray) -> None:
    """Raise unless ``probs`` form a probability law: nonnegative, summing to 1 (not NaN)."""
    if (probs < 0.0).any():
        raise SpecError("joint-law probabilities must be nonnegative")
    if not abs((total := _fsum([probs])) - 1.0) <= 1e-12:
        raise SpecError(f"joint-law probabilities sum to {total!r}, not 1")


class JointLaw:
    """Exact finite distribution of all kernel values at iid points.

    It holds one probability per support point (distinct points, in order of
    first occurrence) and per kernel a run ``(name, tuples, table, index)``:
    its ``(C, m)`` 1-based index tuples in ``permutations`` order, and as
    ``table[index]`` its ``(C, S)`` values at the S points (a value array at
    flat cells; from a mapping, per run of keys of one name, their values at
    an ``arange``).  ``keys``, the (name, tuple) coordinates, and the read-only
    ``support`` mapping of value vectors are built when first read."""

    def __init__(self, n: int, keys: tuple, support: Mapping[tuple, float]):
        if any(len(vec) != len(keys) for vec in support):
            raise SpecError(f"joint-law vectors must have {len(keys)} coordinates")
        names = [(name, np.array([idx for _, idx in run], np.int64))
                 for (name, _), run in groupby(keys, key=lambda key: (key[0], len(key[1])))]
        values = np.array(list(support), dtype=object).reshape(len(support), len(keys)).T
        columns = np.split(values, np.cumsum([len(t) for _, t in names])[:-1])
        runs = tuple((name, t, v.ravel(), np.arange(v.size).reshape(v.shape))
                     for (name, t), v in zip(names, columns))
        self._set(n, runs, np.array(list(support.values()), dtype=float))

    def _set(self, n, runs, probs) -> JointLaw:
        _check_probs(probs)
        vars(self).update(n=n, _runs=runs, _probs=probs)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"a JointLaw is immutable; cannot set {name!r}")

    @cached_property
    def keys(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        return tuple((name, idx) for name, t, _, _ in self._runs for idx in map(tuple, t.tolist()))

    @cached_property
    def support(self) -> Mapping[tuple, float]:
        columns = (column for _, _, table, index in self._runs for column in table[index].tolist())
        return MappingProxyType(dict(zip(list(zip(*columns)) or [()], self._probs.tolist())))

    @property
    def support_size(self) -> int:
        return len(self._probs)


def _assignments(weights: np.ndarray, n: int, per: int = 1) -> Iterator[tuple]:
    """Blocks ``(grid, prob)`` covering every assignment of n points to cells,
    in lexicographic order.  ``grid[j]`` is the cell of point j: an int for
    the leading n - m points, fixed per block, and an open ``arange`` grid
    over all cells for each of the last m points, with m the largest that
    keeps ``K^m * per`` within ``sampling._BLOCK`` and m <= 32, below numpy's
    64 dimensions.  ``prob`` has shape ``(K,)*m`` and holds the left-to-right
    products ``((1*w_a)*w_b)*...``; its C order is lexicographic order."""
    size = len(weights)
    m = next((m for m in range(min(n, 32), 0, -1) if size**m * per <= sampling._BLOCK), 0)
    tail = np.ix_(*[np.arange(size)] * m)
    for head in product(range(size), repeat=n - m):
        prob = np.full((size,) * m, math.prod((weights[c] for c in head), start=1.0))
        for g in tail:
            prob *= weights[g]
        yield head + tail, prob


_PACK = 1 << 62  # bound of a packed int64 key


def _rank(a: np.ndarray) -> tuple[np.ndarray, int]:
    """The rank of each entry of ``a`` among its distinct values, in the
    narrowest signed type that holds them, and their count."""
    distinct, inverse = np.unique(a, return_inverse=True)
    return inverse.reshape(a.shape).astype(np.min_scalar_type(-len(distinct))), len(distinct)


def _pack(blocks, length: int) -> np.ndarray:
    """One int64 key per column of the 2-D ``blocks`` of nonnegative integers, equal
    for equal columns: a mixed-radix packing of the rows not all zero (the others
    keep every key), re-ranked by ``np.unique`` only where a radix would pass ``_PACK``."""
    key, size = np.zeros(length, np.int64), 1
    for block in blocks:
        for row in block[block.any(axis=1)]:
            width = int(row.max()) + 1
            if size * width > _PACK:
                key, size = _rank(key)
                if size * width > _PACK:
                    row, width = _rank(row)
            key = key * np.int64(width) + row  # int64, whatever the types of key and row
            size *= width
    return key


def _positions(cells: np.ndarray, tuples: np.ndarray, shape: tuple) -> np.ndarray:
    """The flat positions, in a C-order table of ``shape``, of the cells of
    each tuple's points (rows of ``cells``), in the narrowest signed type."""
    cells = cells.astype(np.min_scalar_type(-math.prod(shape)))
    return sum(cells[column - 1] * math.prod(shape[i + 1 :]) for i, column in enumerate(tuples.T))


def _sides(sides, n: int, cap: int | None) -> list[tuple]:
    """Check each ``(space, family)`` side as :func:`exact_joint_law` does, before any is
    enumerated, and give its ``(weights, ranked)`` on its atoms of nonzero probability
    (any other makes an assignment +0.0): per kernel of arity m <= n, its ranks among the
    kernel's values there on all sides (equal as dict keys are: ``-0.0 == 0.0``) and its
    index tuples, only the ascending ones if all sides declare it symmetric."""
    _check_n(n, 0)
    hint = "; use the statistical mode (--mode mc) or raise REP_MAX_ENUM"
    for space, family in sides:
        if family.domain != space:
            raise SpecError("family is defined over a different space")
        size = len(space)
        _check_cap(cap, f"{size}^{n} assignments exceed the enumeration cap {{cap}}" + hint,
                   (size, n))
        # each coordinate is a row of every rank block, however few assignments there are
        coordinates = sum(math.perm(n, k.arity) for k in family)
        _check_cap(cap, f"{coordinates} coordinates exceed the enumeration cap {{cap}}" + hint,
                   (coordinates, 1))
    ranked, kept = [[] for _ in sides], [np.flatnonzero(space.probs) for space, _ in sides]
    for kernels in zip(*(family for _, family in sides)):
        if (m := kernels[0].arity) <= n:
            t = _index_tuples(n, m)
            if all(k.symmetric for k in kernels):  # signed, so diff cannot wrap
                t = t[(np.diff(t) > 0).all(axis=1)]
            tables = [k.values[np.ix_(*[cells] * m)] for k, cells in zip(kernels, kept)]
            ranks = _rank(np.concatenate([a.ravel() for a in tables]))[0]
            ranks = np.split(ranks, np.cumsum([a.size for a in tables[:-1]]))
            for side, r, a in zip(ranked, ranks, tables):
                side.append((r.reshape(a.shape), t))
    return [(np.asarray(space.probs)[i], r) for (space, _), r, i in zip(sides, ranked, kept)]


def _groups(sides, n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The probabilities and groups of all assignments of each ``(weights, ranked)`` side in
    turn, in enumeration order, and the group count.  Per block, each ``(ranks, tuples)`` of
    ``ranked`` gives a rank row per tuple; :func:`_pack` makes all rows of all sides one key
    per assignment, and equal keys form a group."""
    probs, blocks = [], []
    for weights, ranked in sides:
        for grid, prob in _assignments(weights, n):
            probs.append(prob.ravel())
            cell = np.array([np.broadcast_to(g, prob.shape).ravel() for g in grid],
                            np.min_scalar_type(-len(weights))).reshape(n, prob.size)
            blocks.append([r.take(_positions(cell, t, r.shape)) for r, t in ranked])
    prob = np.concatenate(probs)
    key = _pack([np.concatenate(b, axis=1) for b in zip(*blocks)], len(prob))
    del probs, blocks  # freed before the sort, whose peak memory would add to theirs
    return prob, *_rank(key)


def exact_joint_law(
    space: DiscreteSpace,
    family: KernelFamily,
    n: int,
    cap: int | None = None,
) -> JointLaw:
    """Enumerate the exact joint law of all kernel evaluations.

    Walks every atom assignment in Omega^n with its product probability; the
    support holds only realizable vectors, those of an assignment of nonzero
    probability, and with no coordinates at this n every vector is ``()``.
    :func:`_groups` makes assignments to the K' atoms of nonzero probability with
    equal values one group.  The groups with a nonzero assignment are ordered by
    the first one, whose index, read as n base-K' digits, gives the cells and so
    the values; ``np.bincount`` adds each group's probabilities in enumeration
    order (a zero, as any assignment left out would add, adds nothing), so the
    law is bit for bit the one a dict keyed by value tuples would build.

    Raises
    ------
    ScaleError
        If ``|Omega|^n``, or the number of coordinates, exceeds the
        enumeration cap.
    """
    prob, group, groups = _groups(_sides([(space, family)], n, cap), n)
    nz = np.flatnonzero(prob)
    first = np.full(groups, len(prob))  # not np.unique's return_index: it sorts stably, slower
    np.minimum.at(first, group[nz], nz)  # each group's first assignment of nonzero probability
    # the groups in order of that assignment, without those that have none
    order = np.argsort(first)[: np.count_nonzero(first < len(prob))]
    # their cells: each index as n base-K' digits, one per atom of nonzero probability
    # (np.unravel_index takes at most 64 dimensions)
    kept = np.flatnonzero(space.probs)
    cells = kept[first[order] // len(kept) ** np.arange(n - 1, -1, -1)[:, None] % len(kept)]
    kernels = [(k, _index_tuples(n, k.arity)) for k in family if k.arity <= n]
    # a kernel's values: its flat value array at the flat cells of each group's first assignment
    runs = tuple((k.name, t, k.values.ravel(), _positions(cells, t, k.values.shape))
                 for k, t in kernels)
    return JointLaw.__new__(JointLaw)._set(n, runs, np.bincount(group, prob)[order])


def step_family_as_space(family: KernelFamily) -> tuple[DiscreteSpace, KernelFamily]:
    """View a step family as a table family on its cell space.

    Cells become atoms with the cell lengths as probabilities (cell
    labels are kept as atom ids), and the value arrays are passed on
    unchanged.  Because step kernels are constant on cells, the exact
    joint law of the output under atom sampling equals the law the step
    family induces under Lebesgue sampling of [0,1); this is what makes
    exact comparison of step families possible.
    """
    if not isinstance(family.domain, IntervalPartition):
        raise SpecError("step_family_as_space expects a family of step kernels")
    partition = family.domain
    space = DiscreteSpace(partition.cell_labels, partition.lengths)
    return space, family.on_domain(space)


def _tv(mass: np.ndarray) -> float:
    """Half the L1 distance of the rows of ``mass``, rounded once, whatever the term order."""
    return 0.5 * _fsum([np.abs(mass[0] - mass[1])])


def _exact_comparison(side_a, side_b, n: int, cap: int | None = None) -> tuple[float, int, ...]:
    """:func:`tv_distance` of the laws :func:`exact_joint_law` gives two ``(space, family)``
    sides with equal kernel names and arities, the size of their support union, and both
    support sizes, bit for bit, from one :func:`_groups` of both sides (+0.0 leaves a mass
    as it is).  With equal cell counts and ranks, B's keys are A's: only B's probabilities
    are formed."""
    (weights_a, ranked_a), (weights_b, ranked_b) = sides = _sides([side_a, side_b], n, cap)
    shared = len(weights_a) == len(weights_b) and all(
        np.array_equal(a, b) for (a, _), (b, _) in zip(ranked_a, ranked_b))
    prob, group, groups = _groups(sides[: 2 - shared], n)
    if shared:  # B's keys are A's
        prob = np.concatenate([prob, *(p.ravel() for _, p in _assignments(weights_b, n))])
        group = np.concatenate((group, group))
    split = len(weights_a) ** n  # side A's assignments
    mass = np.stack([np.bincount(group[:split], prob[:split], groups),
                     np.bincount(group[split:], prob[split:], groups)])
    for m in mass:
        _check_probs(m)
    return _tv(mass), int(mass.any(axis=0).sum()), *np.count_nonzero(mass, axis=1).tolist()


def tv_distance(law1: JointLaw, law2: JointLaw) -> float:
    """Total variation distance between two laws with the same keys.

    Half the sum of absolute probability differences over the union of
    supports.  Support points match when their values do, as dict keys
    match: the two tables of each key are ranked jointly by ``np.unique``
    and the rank columns packed as in :func:`exact_joint_law`.  The sum is
    correctly rounded: it equals ``math.fsum`` of the terms bit for bit.

    Raises
    ------
    SpecError
        If the two laws have different key structures.
    """
    runs = list(zip(law1._runs, law2._runs))
    same = law1.n == law2.n and len(runs) == len(law1._runs) == len(law2._runs)
    if not (same and all(a[0] == b[0] and np.array_equal(a[1], b[1]) for a, b in runs)):
        raise SpecError("joint laws have mismatched key structures")
    ranks = []
    for (_, _, t1, i1), (_, _, t2, i2) in runs:
        r = _rank(np.concatenate((t1, t2)))[0]  # ranks match as dict keys do: -0.0 == 0.0, 1 == 1.0
        ranks.append(np.concatenate((r[: len(t1)][i1], r[len(t1) :][i2]), axis=1))
    size = law1.support_size
    group, union = _rank(_pack(ranks, size + law2.support_size))
    mass = np.zeros((2, union))
    mass[0, group[:size]], mass[1, group[size:]] = law1._probs, law2._probs
    return _tv(mass)


def law_is_exchangeable(law: JointLaw, tol: float = 1e-9) -> bool:
    """Whether a joint law is invariant under every permutation of [n].

    For each permutation pi, relabels each kernel's index tuples by pi,
    which moves their rows of values, and compares the induced law with the
    original, both with the tuples sorted; passes when all n! comparisons
    have TV distance at most ``tol``.  Vacuously true for n = 1.
    """

    def relabeled(relabel):  # each kernel's rows in the order of its relabeled tuples
        runs = []
        for name, tuples, table, index in law._runs:
            rows = np.lexsort(relabel[tuples].T[::-1])
            runs.append((name, relabel[tuples][rows], table, index[rows]))
        return JointLaw.__new__(JointLaw)._set(law.n, tuple(runs), law._probs)

    base, perms = relabeled(np.arange(law.n + 1)), permutations(range(1, law.n + 1))
    return all(tv_distance(base, relabeled(np.array((0, *perm)))) <= tol for perm in perms)


def exchangeability_check(
    space: DiscreteSpace,
    family: KernelFamily,
    n: int,
    tol: float = 1e-9,
    cap: int | None = None,
) -> bool:
    """Exchangeability of the exact joint law of a family at size n."""
    return law_is_exchangeable(exact_joint_law(space, family, n, cap=cap), tol=tol)


@dataclass(frozen=True)
class PatternGraph:
    """A small simple graph used as a density pattern."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        norm = []
        for u, v in self.edges:
            if u == v:
                raise SpecError("pattern graphs have no loops")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise SpecError(f"pattern edge ({u},{v}) outside vertex range")
            norm.append((min(u, v), max(u, v)))
        if len(set(norm)) != len(norm):
            raise SpecError("pattern graphs are simple (no repeated edges)")
        object.__setattr__(self, "edges", tuple(norm))


PATTERNS: dict[str, PatternGraph] = {
    "edge": PatternGraph(2, ((0, 1),)),
    "p3": PatternGraph(3, ((0, 1), (1, 2))),
    "triangle": PatternGraph(3, ((0, 1), (1, 2), (0, 2))),
    "c4": PatternGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0))),
    "k4": PatternGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
}


def _weights_and_values(kernel: Kernel, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Cell weights and values of an arity-2 kernel with values in [0,1]."""
    if kernel.arity != 2:
        raise ArityError(f"{what} needs an arity-2 kernel, got {kernel.arity}")
    if kernel.values.min() < 0.0 or kernel.values.max() > 1.0:
        raise RangeError(f"{what} needs kernel values in [0,1]")
    domain = kernel.domain
    weights = domain.probs if isinstance(domain, DiscreteSpace) else domain.lengths
    return np.asarray(weights), kernel.values


_SUM_CHUNK = 1 << 26  # terms per flush: sums of up to 2^26 27-bit parts stay exact
_LOW26 = np.uint64((1 << 26) - 1)


def _fsum(blocks) -> float:
    """``math.fsum`` of every entry of the float64 arrays ``blocks`` (finite,
    below 2^997 in magnitude), bit for bit: the correctly rounded exact sum.

    Each significand is split into its high 27 and low 26 bits, summed per
    sign and exponent by ``np.bincount``.  Parts of one exponent are integer
    multiples of one quantum, so the float bin sums of up to ``_SUM_CHUNK``
    terms are exact; ``fsum`` adds the flushed bin sums and rounds once."""
    parts, held, bins = [], 0, np.zeros((2, 4096))
    for block in blocks:
        block = np.ravel(block)
        for lo in range(0, block.size, _SUM_CHUNK):
            x = block[lo : lo + _SUM_CHUNK]
            if held + x.size > _SUM_CHUNK:
                parts += bins[bins != 0].tolist()
                held, bins[:] = 0, 0.0
            held += x.size
            u = x.view(np.uint64)
            key = (u >> np.uint64(52)).view(np.int64)  # sign and exponent
            high = (u & ~_LOW26).view(np.float64)
            bins[0] += np.bincount(key, high, minlength=4096)
            bins[1] += np.bincount(key, x - high, minlength=4096)
    return math.fsum(parts + bins[bins != 0].tolist())


def hom_density(kernel: Kernel, pattern: PatternGraph) -> float:
    """Probability-weighted density of a pattern graph in an arity-2 kernel.

    Sums, over all assignments of pattern vertices to cells (or atoms),
    the left-to-right product of cell weights and then of the kernel values
    along the pattern's edges in edge order.  The result is the correctly
    rounded sum of these terms, equal to ``math.fsum`` of them bit for bit.

    Raises
    ------
    ArityError
        If the kernel is not arity 2.
    RangeError
        If kernel values leave [0,1].
    """
    weights, values = _weights_and_values(kernel, "hom_density")

    def terms():  # streamed, so that only one block is held at a time
        for grid, prob in _assignments(weights, pattern.num_vertices):
            for u, v in pattern.edges:
                prob *= values[grid[u], grid[v]]
            yield prob

    return _fsum(terms())


def _contraction(kernel: Kernel, pattern: PatternGraph) -> tuple[float, float]:
    """:func:`hom_density` by elimination, and a bound b on its distance from it.

    Each vertex carries its weight vector and each edge the value table.  The
    vertex of fewest neighbours (ties: lowest index) is summed out by one
    ``np.einsum`` over the factors holding it, which leaves one factor on its
    neighbours.  Weights and values lie in [0,1], so every partial product of a
    nonzero term, here or in ``hom_density``, is at least the smallest positive
    weight to the |V| times the smallest positive value to the |E|; below 2^-1000
    a product could underflow, and b is inf.  Otherwise each result carries a
    relative error of at most gamma_r = r*u / (1 - r*u), u = 2^-53, over r
    roundings: per step K - 1 additions and one fewer multiplications than
    factors for x; for T = ``hom_density`` the |V| + |E| - 1 multiplications of
    a term and the final rounding.  So |x - T| <= b*x for
    b = (gamma_x + gamma_T) / (1 - gamma_x) <= r*u / (1 - 2*r*u), r their sum.
    A factor of more than 10^7 entries is not built: b is inf then too."""
    weights, values = _weights_and_values(kernel, "hom_density")
    size, v, e = len(weights), pattern.num_vertices, len(pattern.edges)
    smallest = [a.min(initial=1.0, where=a > 0.0) for a in (weights, values)]
    if v * math.log2(smallest[0]) + e * math.log2(smallest[1]) < -1000:
        return 0.0, math.inf
    factors = [((u,), weights) for u in range(v)] + [(edge, values) for edge in pattern.edges]
    roundings = v + e  # T's
    for _ in range(v):
        # each vertex left, with its neighbours
        joined = {u: set().union(*(s for s, _ in factors if u in s)) for s, _ in factors for u in s}
        u = min(joined, key=lambda u: (len(joined[u]), u))
        out = sorted(joined[u] - {u})
        if len(out) > 31 or size ** len(out) > _DEFAULT_CAP:  # at most 32 of numpy's 64 axes
            return 0.0, math.inf
        label = {w: i for i, w in enumerate((u, *out))}  # einsum takes 52 labels
        held = [(a, [label[w] for w in s]) for s, a in factors if u in s]
        factors = [(s, a) for s, a in factors if u not in s]
        operands = [x for pair in held for x in pair]
        # three or more factors go pairwise, the last pair through BLAS
        factors.append((out, np.einsum(*operands, list(range(1, len(out) + 1)),
                                       optimize=len(held) > 2)))
        roundings += size - 1 + len(held) - 1
    scalars = [float(a) for _, a in factors]  # one per connected component
    roundings += max(len(scalars) - 1, 0)
    return math.prod(scalars), roundings * 2.0**-53 / (1.0 - roundings * 2.0**-52)


def graph_law_exact(kernel: Kernel, n: int, cap: int | None = None) -> np.ndarray:
    """Exact distribution over labeled graphs on [n].

    Entry ``mask`` is the probability of the graph whose pair p (in
    :func:`~unirep.sampling.pair_list` order) is an edge iff bit p of
    ``mask`` is set: the weighted sum over cell assignments of the
    product over pairs of the edge (or non-edge) probability.

    Raises
    ------
    ScaleError
        If ``2^(n choose 2) * K^n`` exceeds the enumeration cap; checked
        before any pair or term is built, whatever n is.
    """
    _check_n(n, 0)
    weights, values = _weights_and_values(kernel, "graph law")
    size, npairs = len(weights), n * (n - 1) // 2
    _check_cap(cap, f"2^{npairs} * {size}^{n} terms exceed the enumeration cap", (2, npairs), (size, n))
    pairs = pair_list(n).tolist()
    num_graphs = 1 << len(pairs)
    masks = np.arange(num_graphs)
    law = np.zeros(num_graphs)
    # blocks of at most sampling._BLOCK (assignment, graph) terms bound the memory
    for grid, prob in _assignments(weights, n, per=num_graphs):
        acc = np.repeat(prob.reshape(-1, 1), num_graphs, axis=1)
        for p, (i, j) in enumerate(pairs):
            pe = np.broadcast_to(values[grid[i - 1], grid[j - 1]], prob.shape).reshape(-1, 1)
            acc *= np.where((masks >> p) & 1, pe, 1.0 - pe)
        for row in acc:  # row by row, so the sums match a per-assignment loop bit for bit
            law += row
    return law


def _graph_words(side, n: int, seeds) -> np.ndarray:
    """The graphs of ``side`` at ``seeds`` as ``(len(seeds), n, ceil(n / 64))``
    little-endian uint64 words, each vertex's forward neighbours as
    :func:`~unirep.sampling._block_words` packs them: a kernel side's drawn
    one row block at a time, a callable side's OR-ed in from its edges, each
    seed passed as a Python int."""
    words = np.zeros((len(seeds), n, -(-n // 64)), "<u8")
    if isinstance(side, Kernel):
        for r0, block in _seed_blocks(side, n, seeds, _block_words):
            words[:, r0 : r0 + block.shape[1]] = block
        return words
    for graph, s in zip(words, map(int, seeds)):
        i, j = side(s).edges.T.astype(np.uint64) - np.uint64(1)
        np.bitwise_or.at(graph, (i, j >> 6), np.left_shift(1, j & 63, dtype="<u8"))
    return words


def _masks(words: np.ndarray) -> np.ndarray:
    """Each graph's labeled-graph bitmask, bit p for pair p of :func:`pair_list`
    (n <= 11): row i's forward neighbours shifted to where the pairs ``(i, j)`` start."""
    n = words.shape[1]
    masks = np.zeros(len(words), np.uint64)
    for i in range(n):
        masks |= words[:, i, 0] >> np.uint64(i + 1) << np.uint64(i * (2 * n - 1 - i) // 2)
    return masks.view(np.int64)


def _dense_triangles(words: np.ndarray) -> np.ndarray:
    """Each graph's triangle count ``sum((U @ U) * U)`` over its strict upper adjacency
    U, unpacked for as many graphs at a time as keep n^2 entries each within
    ``sampling._BLOCK``.  U is float32 while C(n, 3) <= 2^24, as every sum is then an
    integer that float32 holds exactly."""
    graphs, n = words.shape[:2]
    exact = np.float32 if math.comb(n, 3) <= 1 << 24 else np.float64
    step = max(1, sampling._BLOCK // (n * n))
    counts = []
    for lo in range(0, graphs, step):
        packed = words[lo : lo + step].view(np.uint8)
        up = np.unpackbits(packed, axis=-1, count=n, bitorder="little").astype(exact)
        counts.append(np.einsum("rij,rij->r", up @ up, up))
    return np.concatenate(counts)


def _sparse_triangles(words: np.ndarray) -> np.ndarray:
    """Each graph's triangle count as the sum over its edges (i, j), i < j, of
    popcount(N+(i) & N+(j)), their common forward neighbours, in float64 (exact
    below 2^53).  Only nonzero words are unpacked, and as many words and edges at a
    time as keep ``sampling._BLOCK`` words gathered."""
    graphs, n, width = words.shape
    rows, flat = words.reshape(-1, width), words.reshape(-1)
    nonzero = np.flatnonzero(flat)
    step = max(1, sampling._BLOCK // width)
    counts = np.zeros(graphs)
    for lo in range(0, len(nonzero), step):
        at = nonzero[lo : lo + step]
        bit = np.flatnonzero(np.unpackbits(flat[at].view(np.uint8), bitorder="little").view(bool))
        i, col = np.divmod(at[bit >> 6], width)  # the row of (graph, i) and j's word in it
        j = i - i % n + (col << 6) + (bit & 63)
        for e in range(0, len(i), step):
            a, b = i[e : e + step], j[e : e + step]
            common = np.bitwise_count(rows.take(a, 0) & rows.take(b, 0)).sum(axis=1)
            counts += np.bincount(a // n, common, graphs)
    return counts


def _counts(words: np.ndarray) -> np.ndarray:
    """The float64 rows of edge counts (popcounts) and triangle counts of the graphs
    in ``words``.  Triangles come from :func:`_sparse_triangles` where three times
    the edges times (n + 700) fall below graphs times n^3, as an edge costs it about
    3(n + 700) of the multiply-adds of :func:`_dense_triangles` (measured on one
    core, n = 8 to 1000), else from that.  Both are exact, so the choice changes no bit."""
    graphs, n = words.shape[:2]
    edges = np.bitwise_count(words).sum(axis=(1, 2))
    sparse = 3 * int(edges.sum()) * (n + 700) < graphs * n**3
    triangles = (_sparse_triangles if sparse else _dense_triangles)(words)
    return np.stack((edges, triangles)).astype(float)


def _observations(side, n: int, seeds, chi2: bool):
    """One side's observations for ``seeds``: labeled-graph bitmasks (chi2), else the
    :func:`_counts` rows.  Seeds are drawn in passes of as many as keep their
    n * ceil(n / 64) words of :func:`_graph_words` within ``sampling._BLOCK``, or one."""
    step = max(1, sampling._BLOCK // (n * -(-n // 64)))
    passes = (_graph_words(side, n, seeds[lo : lo + step]) for lo in range(0, len(seeds), step))
    return np.concatenate([(_masks if chi2 else _counts)(words) for words in passes], axis=-1)


_CHI2_FLOOR = 5.0


def _chi2_sf(x: float, df: int) -> float:
    """Upper tail P(X >= x) of the chi-squared law with integer ``df``.

    This is the regularized gamma Q(df/2, x/2), which for integer df has
    a closed form in h = x/2: ``e^-h sum_{k<m} h^k / k!`` for df = 2m,
    and ``erfc(sqrt h) + e^-h sum_{k<m} h^(k+1/2) / Gamma(k+3/2)`` for
    df = 2m+1.  Each term is taken as ``exp(log term - h)`` so that
    large x or df cannot overflow or underflow in between.
    """
    if x <= 0.0:
        return 1.0
    h = 0.5 * x
    m, odd = divmod(df, 2)
    shift = 0.5 * odd
    terms = [
        math.exp((k + shift) * math.log(h) - h - math.lgamma(k + shift + 1.0))
        for k in range(m)
    ]
    if odd:
        terms.append(math.erfc(math.sqrt(h)))
    return min(math.fsum(terms), 1.0)


def _mask_counts(obs_a, obs_b, pairs: int) -> np.ndarray:
    """Each side's count of every labeled-graph mask that either side shows, masks ascending."""
    counts = np.stack([np.bincount(obs, minlength=1 << pairs) for obs in (obs_a, obs_b)])
    return counts[:, counts.any(axis=0)]


def mc_two_sample_test(
    sampler_a: Kernel | Callable,
    sampler_b: Kernel | Callable,
    n: int,
    runs: int,
    seed: int,
    alpha: float = 0.01,
    statistics=None,
) -> dict:
    """Statistical comparison of two graph samplers.

    Each sampler is called ``runs`` times with seeds (Python ints)
    derived from the master seed in one array (disjoint derivation tags
    for the two sides, so "same kernel, two seeds" is a genuine null
    case).  A sampler may also be a
    ``Kernel``, meaning exactly ``lambda s: sample_graph(kernel, n, s)``;
    without ``statistics`` its graphs are drawn in bulk.  For n <= 5 the
    test is a two-sample chi-squared on labeled-graph frequencies, merging
    graphs whose pooled expected count falls below 5 into a tail
    bucket; for larger n (or when ``statistics`` is given) it is a
    two-sample z-test per summary statistic (default: edge count and
    triangle count).  Both tails are closed forms from the standard
    library: the chi-squared survival function for integer df through
    :func:`_chi2_sf`, and the two-sided normal p-value as
    ``erfc(|z| / sqrt 2)``.

    Returns
    -------
    dict
        ``{"pass": bool, "pvalues": {...}, "mode": ..., "runs": ...,
        "alpha": ...}`` plus mode-specific entries; JSON-serializable.

    Raises
    ------
    PowerError
        If the z-test gets fewer than two runs (a sample variance needs
        two), or if too few runs leave fewer than two valid frequency
        buckets while the samples differ; carries an estimated
        sufficient run count.
    """
    _check_n(n)
    chi2 = statistics is None and n <= 5
    min_runs = 1 if chi2 else 2  # a z-test needs two runs for a sample variance
    if runs < min_runs:
        test = "chi-squared" if chi2 else "z"
        raise PowerError(f"{runs} runs are too few for the {test} test", required_runs=min_runs)
    sides = (sampler_a, sampler_b)
    seeds = [derive_seed(seed, tag, np.arange(runs, dtype=np.uint64)) for tag in (0, 1)]
    if statistics is None:
        names = ("edge_count", "triangle_count")
        obs_a, obs_b = (_observations(side, n, ss, chi2) for side, ss in zip(sides, seeds))
    else:
        names = stats = dict(statistics)  # a repeated name keeps its last function
        samplers = [partial(sample_graph, s, n) if isinstance(s, Kernel) else s for s in sides]
        graphs = ([sampler(s) for s in ss.tolist()] for sampler, ss in zip(samplers, seeds))
        obs_a, obs_b = ([np.array([fn(g) for g in gs]) for fn in stats.values()] for gs in graphs)

    if chi2:
        counts = _mask_counts(obs_a, obs_b, n * (n - 1) // 2)
        totals = counts.sum(axis=0)
        big = totals / 2.0 >= _CHI2_FLOOR
        # one bucket per frequent graph in ascending order, then one tail bucket
        cells = counts[:, big]
        if not big.all():
            cells = np.column_stack((cells, counts[:, ~big].sum(axis=1)))
        buckets = cells.shape[1]
        if buckets < 2:
            if (counts[0] == counts[1]).all():
                return {
                    "pass": True,
                    "pvalues": {"labeled_graphs": 1.0},
                    "mode": "chi2",
                    "runs": runs,
                    "alpha": alpha,
                    "buckets": buckets,
                }
            ranked = sorted(totals.tolist(), reverse=True)
            second = ranked[1] if len(ranked) > 1 else 0
            # need runs * (second / (2 runs)) >= floor for the second cell
            required = math.ceil(2.0 * _CHI2_FLOOR * runs / second) if second else None
            raise PowerError(
                f"{runs} runs leave fewer than two frequency buckets with "
                f"expected count >= {_CHI2_FLOOR}",
                required_runs=required,
            )
        stat = 0.0  # bucket by bucket in Python floats, so the statistic keeps its bits
        for oa, ob in cells.T.tolist():
            expect = (oa + ob) / 2.0
            stat += (oa - expect) ** 2 / expect + (ob - expect) ** 2 / expect
        df = buckets - 1
        pvalue = _chi2_sf(stat, df)
        return {
            "pass": pvalue >= alpha,
            "pvalues": {"labeled_graphs": pvalue},
            "mode": "chi2",
            "statistic": stat,
            "df": df,
            "buckets": buckets,
            "runs": runs,
            "alpha": alpha,
        }

    pvalues = {}
    details = {}
    for name, xa, xb in zip(names, obs_a, obs_b):
        denom = math.sqrt(xa.var(ddof=1) / runs + xb.var(ddof=1) / runs)
        diff = float(xa.mean() - xb.mean())
        if denom == 0.0:
            p = 1.0 if diff == 0.0 else 0.0
        else:
            p = math.erfc(abs(diff) / denom / math.sqrt(2.0))
        pvalues[name] = p
        details[name] = {"mean_a": float(xa.mean()), "mean_b": float(xb.mean())}
    return {
        "pass": all(p >= alpha for p in pvalues.values()),
        "pvalues": pvalues,
        "mode": "ztest",
        "means": details,
        "runs": runs,
        "alpha": alpha,
    }
