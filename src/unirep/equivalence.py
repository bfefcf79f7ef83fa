"""Deciding whether two function families induce the same joint distribution.

At small scale the decision is exact: :func:`exact_joint_law`,
:func:`hom_density` and :func:`graph_law_exact` are sums over one
enumerator of Omega^n, :func:`_assignments`, and :func:`tv_distance`
compares two joint laws by bit-exact support matching (valid because
both laws draw their values from identical tables; upstream modules
copy values, never recompute them through different arithmetic).

Beyond enumeration scale, :func:`mc_two_sample_test` compares sampled
graph laws statistically: labeled-graph frequency chi-squared for small
n, summary-statistic z-tests for larger n.  Its default observations
come from edge-indicator rows, which a kernel side draws in bulk.

``exact_joint_law`` and ``graph_law_exact`` refuse to enumerate more
than a configured number of assignments (default 10^7, overridable via
the ``REP_MAX_ENUM`` environment variable or a ``cap`` argument).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from itertools import permutations
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

import numpy as np

from .errors import ArityError, PowerError, RangeError, ScaleError, SpecError
from .kernels import Kernel, KernelFamily
from .sampling import derive_seed, pair_list, sample_graph, sample_graph_edges
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


def _enum_cap(cap: int | None) -> int:
    if cap is not None:
        return cap
    env = os.environ.get("REP_MAX_ENUM")
    if not env:
        return _DEFAULT_CAP
    try:
        return int(env)
    except ValueError:
        raise SpecError(f"REP_MAX_ENUM must be an integer, got {env!r}") from None


@dataclass(frozen=True)
class JointLaw:
    """Exact finite distribution of all kernel values at iid points.

    ``keys`` lists, in canonical order (family order, then
    lexicographic 1-based index tuples), the coordinates of the value
    vectors; ``support`` maps each realizable value vector to its
    probability.
    """

    n: int
    keys: tuple[tuple[str, tuple[int, ...]], ...]
    support: Mapping[tuple, float]

    def __post_init__(self):
        total = math.fsum(self.support.values())
        if any(p < 0.0 for p in self.support.values()):
            raise SpecError("joint-law probabilities must be nonnegative")
        if abs(total - 1.0) > 1e-12:
            raise SpecError(f"joint-law probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "support", MappingProxyType(dict(self.support)))

    @property
    def support_size(self) -> int:
        return len(self.support)


def canonical_keys(family: KernelFamily, n: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """All (kernel name, distinct-index tuple) coordinates for sample size n.

    Kernels whose arity exceeds n contribute no coordinates: the
    n-point marginal of the infinite collection contains no tuple long
    enough for them.
    """
    keys = []
    for k in family:
        keys.extend((k.name, idx) for idx in permutations(range(1, n + 1), k.arity))
    return tuple(keys)


def _assignments(weights: np.ndarray, n: int, block: int = 1024) -> Iterator[tuple]:
    """Blocks ``(assign, prob)`` of at most ``block`` assignments of n points
    to cells, in lexicographic order: ``assign[r, j]`` is the cell of point j
    and ``prob[r]`` the left-to-right product of its cells' weights."""
    size = len(weights)
    digits = size ** np.arange(n - 1, -1, -1)
    for lo in range(0, size**n, block):
        assign = np.arange(lo, min(lo + block, size**n))[:, None] // digits % size
        prob = np.ones(len(assign))
        for j in range(n):
            prob *= weights[assign[:, j]]
        yield assign, prob


def exact_joint_law(
    space: DiscreteSpace,
    family: KernelFamily,
    n: int,
    cap: int | None = None,
) -> JointLaw:
    """Enumerate the exact joint law of all kernel evaluations.

    Walks every atom assignment in Omega^n with its product
    probability; each coordinate of the value vector is gathered per
    block from ``Kernel.values`` as an object array, so that vectors
    share its Python scalars.  Equal vectors add up in enumeration
    order.  Zero-probability assignments contribute nothing and are
    skipped, so the support contains only realizable vectors; with no
    coordinates at this n, every vector is ``()``.

    Raises
    ------
    ScaleError
        If ``|Omega|^n`` exceeds the enumeration cap.
    """
    if family.domain != space:
        raise SpecError("family is defined over a different space")
    size, cap = len(space), _enum_cap(cap)
    if size**n > cap:
        raise ScaleError(
            f"{size}^{n} assignments exceed the enumeration cap "
            f"{cap}; use the statistical mode or raise REP_MAX_ENUM"
        )
    coords = []
    for k in family:
        values = k.values.astype(object)
        coords += [(values, list(idx)) for idx in permutations(range(n), k.arity)]
    support: dict[tuple, float] = {}
    for assign, prob in _assignments(np.asarray(space.probs), n):
        columns = [values[tuple(assign[:, idx].T)].tolist() for values, idx in coords]
        for row in zip(prob.tolist(), *columns):
            p = row[0]
            if p == 0.0:
                continue
            vec = row[1:]
            support[vec] = support.get(vec, 0.0) + p
    return JointLaw(n, canonical_keys(family, n), support)


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


def tv_distance(law1: JointLaw, law2: JointLaw) -> float:
    """Total variation distance between two laws with the same keys.

    Half the sum of absolute probability differences over the union of
    supports, matching support points by bit-exact value vectors.

    Raises
    ------
    SpecError
        If the two laws have different key structures.
    """
    if law1.n != law2.n or law1.keys != law2.keys:
        raise SpecError("joint laws have mismatched key structures")
    points = set(law1.support) | set(law2.support)
    return 0.5 * math.fsum(
        abs(law1.support.get(v, 0.0) - law2.support.get(v, 0.0)) for v in points
    )


def law_is_exchangeable(law: JointLaw, tol: float = 1e-9) -> bool:
    """Whether a joint law is invariant under every permutation of [n].

    For each permutation pi, relabels the index tuples in the keys by
    pi and compares the induced law with the original; passes when all
    n! comparisons have TV distance at most ``tol``.  Vacuously true
    for n = 1.
    """
    key_pos = {key: q for q, key in enumerate(law.keys)}
    for perm in permutations(range(1, law.n + 1)):
        src = [
            key_pos[(name, tuple(perm[t - 1] for t in idx))]
            for name, idx in law.keys
        ]
        permuted: dict[tuple, float] = {}
        for vec, p in law.support.items():
            newvec = tuple(vec[q] for q in src)
            permuted[newvec] = permuted.get(newvec, 0.0) + p
        if tv_distance(law, JointLaw(law.n, law.keys, permuted)) > tol:
            return False
    return True


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


def hom_density(kernel: Kernel, pattern: PatternGraph) -> float:
    """Probability-weighted density of a pattern graph in an arity-2 kernel.

    Sums, over all assignments of pattern vertices to cells (or atoms),
    the product of cell weights times the product of kernel values
    along the pattern's edges.  Exact summation over all assignments.

    Raises
    ------
    ArityError
        If the kernel is not arity 2.
    RangeError
        If kernel values leave [0,1].
    """
    weights, values = _weights_and_values(kernel, "hom_density")

    def terms():  # streamed, so that only one block is held at a time
        for assign, prob in _assignments(weights, pattern.num_vertices):
            for u, v in pattern.edges:
                prob *= values[assign[:, u], assign[:, v]]
            yield from prob.tolist()

    return math.fsum(terms())


def graph_law_exact(kernel: Kernel, n: int, cap: int | None = None) -> np.ndarray:
    """Exact distribution over labeled graphs on [n].

    Entry ``mask`` is the probability of the graph whose pair p (in
    :func:`~unirep.sampling.pair_list` order) is an edge iff bit p of
    ``mask`` is set: the weighted sum over cell assignments of the
    product over pairs of the edge (or non-edge) probability.

    Raises
    ------
    ScaleError
        If ``2^(n choose 2) * K^n`` exceeds the enumeration cap.
    """
    weights, values = _weights_and_values(kernel, "graph law")
    pairs = pair_list(n)
    num_graphs = 1 << len(pairs)
    size = len(weights)
    if num_graphs * size**n > _enum_cap(cap):
        raise ScaleError(
            f"2^{len(pairs)} * {size}^{n} terms exceed the enumeration cap"
        )
    masks = np.arange(num_graphs)
    law = np.zeros(num_graphs)
    # blocks of at most 2^16 (assignment, graph) terms bound the memory
    for assign, prob in _assignments(weights, n, block=max(1, (1 << 16) // num_graphs)):
        acc = np.repeat(prob[:, None], num_graphs, axis=1)
        for p, (i, j) in enumerate(pairs.tolist()):
            pe = values[assign[:, i - 1], assign[:, j - 1]][:, None]
            acc *= np.where((masks >> p) & 1, pe, 1.0 - pe)
        for row in acc:  # row by row, so the sums match a per-assignment loop bit for bit
            law += row
    return law


_OBS_BLOCK = 1 << 16


def _observations(side, n: int, seeds, chi2: bool):
    """One side's observations for ``seeds``: labeled-graph
    bitmasks (chi2), else a row of edge counts and a row of triangle counts
    ``trace(A^3) / 6``, from edge-indicator rows (column p for pair p of
    :func:`pair_list`) drawn in blocks of about ``_OBS_BLOCK`` pairs, so that
    memory stays bounded.  A callable side gets each seed as a Python int."""
    pairs = n * (n - 1) // 2
    iu, ju = np.triu_indices(n, k=1)
    step = max(1, _OBS_BLOCK // max(pairs, 1))
    observed = []
    for block in (seeds[lo : lo + step] for lo in range(0, len(seeds), step)):
        if isinstance(side, Kernel):
            rows = sample_graph_edges(side, n, block)
        else:
            rows = np.zeros((len(block), pairs), dtype=bool)
            for row, s in zip(rows, map(int, block)):
                i, j = side(s).edges.T
                row[(i - 1) * (2 * n - i) // 2 + j - i - 1] = True
        if chi2:
            observed.append(rows @ (1 << np.arange(pairs)))
            continue
        adj = np.zeros((len(rows), n, n))
        adj[:, iu, ju] = adj[:, ju, iu] = rows
        observed.append(np.stack((rows.sum(axis=1), np.einsum("rij,rji->r", adj @ adj, adj) / 6)))
    return np.concatenate(observed, axis=-1)


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
        distinct, inverse = np.unique(np.concatenate((obs_a, obs_b)), return_inverse=True)
        counts = np.stack([np.bincount(side, minlength=len(distinct)) for side in np.split(inverse, 2)])
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
