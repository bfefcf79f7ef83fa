"""Deterministic, order-independent sampling of latents, arrays, and graphs.

Every random draw here is a pure function of ``(seed, stream, i, j)``
through one fixed 64-bit counter hash, :func:`_mix` (the splitmix64
finalizer applied after each of three xor-folds), so results are
bit-identical across platforms, across processes, and under any
parallel schedule or edge-evaluation order.  The hash has one uint64
implementation: :func:`unit_uniform` is one draw of
:func:`unit_uniform_array`, and :func:`derive_seed` takes an integer or
an integer array.  Streams keep draw families disjoint:

- stream 0: latent variables, one draw per vertex index;
- stream 1: edge coins, one draw per vertex pair (i, j) with i < j;
- streams 2 to 0xD4: reserved per kernel for auxiliary randomness
  (unused at present; kernel values are deterministic given latents);
- streams 0xD5 and up: :func:`derive_seed`, at stream ``0xD5 + tag``.

Vertex indices are 1-based throughout, matching the edge-list output
format.

One private core, :func:`_draw_edges`, draws every graph edge, for one
seed (:func:`_graph_blocks`, whose per-row hits ``unirep sample`` writes as
they are drawn and :func:`sample_graph` joins) or a column of seeds at once
(:func:`sample_graph_edges`, bit-identical row by row), one block of
about ``_BLOCK`` coins (or one row) at a time, each drawn as it is asked for.
It compares each coin's 53 bits with an integer threshold per kernel
value, which decides exactly as the float compare ``u < w`` would.  The
hash's first fold is made once per vertex, and on sparse kernels a test of
the state's top bits rejects most pairs before the last fold and the
threshold lookup; both are exact, so decisions and bytes are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import ArityError, RangeError, SymmetryError, UnsupportedError
from .kernels import Kernel, KernelFamily
from .spaces import (
    IntervalPartition,
    interval_partition,
    lookup_cells,
)

__all__ = [
    "unit_uniform",
    "unit_uniform_array",
    "Latents",
    "sample_latents",
    "RandomGraph",
    "sample_graph",
    "SampleArray",
    "sample_array",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_MULT2 = np.uint64(0x94D049BB133111EB)
_TWO53 = float(1 << 53)
_BLOCK = 1 << 16  # the work of one block: coins here, terms or pairs in equivalence
_REJECT_TOP = 58  # _draw_edges tests candidates up to a 2^(top-64) = 1/64 share (measured)


def _u64(v):
    """``v`` mod 2^64 as uint64, exactly: a scalar for an integer, else an array."""
    if isinstance(v, (int, np.integer)):
        return np.uint64(int(v) & _MASK64)
    a = np.asarray(v, None if hasattr(v, "dtype") else object)
    if a.dtype.kind not in "iu":  # one Python int at a time, as numpy may not infer ints
        a = np.array([int(x) & _MASK64 for x in a.flat], np.uint64).reshape(a.shape)
    return a.astype(np.uint64, copy=False)


def _fold(x, shift: int):
    """``x ^= x >> shift``, in place on an array ``x``."""
    x ^= x >> np.uint64(shift)
    return x


def _middle(x):
    """The avalanche of :func:`_mix` between its first and last fold, in place."""
    # uint64 wraparound is the point here; silence overflow accounting
    with np.errstate(over="ignore"):
        x *= _MULT1
        x ^= x >> np.uint64(27)
        x *= _MULT2
    return x


def _mix(seed, *words):
    """The 64-bit counter state of ``(seed, stream, i, j)`` (or a prefix of it),
    broadcast over arrays: ``seed + 0x9E3779B97F4A7C15`` xor-folded with each
    word in turn, each fold followed by the avalanche sequence ``x ^= x>>30;
    x *= 0xBF58476D1CE4E5B9; x ^= x>>27; x *= 0x94D049BB133111EB; x ^= x>>31``,
    all mod 2^64."""
    with np.errstate(over="ignore"):
        x = _u64(seed) + _GOLDEN
    for v in words:
        x = _fold(_middle(_fold(x ^ _u64(v), 30)), 31)
    return x


def unit_uniform_array(seed, stream, i, j) -> np.ndarray:
    """Uniform draws in [0,1), a pure function of their four arguments,
    each an integer or an integer array (broadcast together).

    The result is the high 53 bits of the counter state divided by 2^53,
    so every value is bit-exact across platforms with no double-rounding.
    Integers are taken mod 2^64, so negative ones never raise.
    """
    return (_mix(seed, stream, i, j) >> np.uint64(11)) / _TWO53


def unit_uniform(seed: int, stream: int, i: int, j: int) -> float:
    """One draw of :func:`unit_uniform_array`, as a Python float."""
    return float(unit_uniform_array(seed, stream, i, j))


def derive_seed(seed: int, tag: int, index):
    """A 64-bit seed derived from ``(seed, tag, index)``: a Python int for an
    integer ``index``, a uint64 array for an array of them.

    Used by statistical harnesses to give repeated runs (and the two
    sides of a two-sample test) disjoint randomness from one master
    seed.  Tags live at 0xD5 and above so derived draws never collide
    with the sampling streams 0, 1, 2+.
    """
    x = _mix(seed, 0xD5 + tag, index, 0)
    return x if isinstance(x, np.ndarray) else int(x)


@dataclass(frozen=True)
class Latents:
    """Latent variables of one sample: uniforms in [0,1), their cells,
    and the corresponding atom labels."""

    uniforms: np.ndarray
    cells: np.ndarray
    atoms: tuple

    def __post_init__(self):
        self.uniforms.flags.writeable = False
        self.cells.flags.writeable = False

    def __len__(self) -> int:
        return len(self.atoms)


def _vertices(n: int, seed) -> np.ndarray:
    """Vertex indices 1..n as uint64, shaped ``(n,)`` for an int seed and
    ``(n, 1)`` against a ``(R,)`` row of seeds."""
    return np.arange(1, n + 1, dtype=np.uint64).reshape((n,) + (1,) * np.ndim(seed))


def _check_n(n, least: int = 1) -> None:
    """Raise unless the sample size ``n`` is an integer, not a bool, of at least ``least``."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < least:
        why = f"must be a {('nonnegative', 'positive')[least]} integer, got {n!r}"
        raise UnsupportedError("n = infinity is out of scope" if n == float("inf") else f"n {why}")


def _latent_draws(target, n: int, seed):
    """Partition, uniforms and cells of :func:`sample_latents`; a ``(R,)``
    row of seeds gives ``(n, R)`` uniforms and cells, one column per seed."""
    _check_n(n)
    partition = target if isinstance(target, IntervalPartition) else interval_partition(target)
    u = unit_uniform_array(seed, 0, 0, _vertices(n, seed))
    return partition, u, lookup_cells(partition, u)


def sample_latents(target, n: int, seed: int) -> Latents:
    """Draw n iid latent points, X_i = unit_uniform(seed, 0, 0, i).

    ``target`` is a discrete space or an interval partition; each
    uniform is mapped to its cell (equivalently, its atom), and both
    the uniforms and the discrete values are retained.

    Raises
    ------
    UnsupportedError
        If ``n`` is infinite or not a positive integer (a bool is not one).
    """
    partition, u, cells = _latent_draws(target, n, seed)
    return Latents(u, cells, tuple(partition.cell_labels[c] for c in cells))


@dataclass(frozen=True)
class RandomGraph:
    """A simple undirected graph on vertices 1..n with its latents.

    ``edges`` is an (E, 2) integer array of pairs i < j in ascending
    lexicographic order.
    """

    n: int
    edges: np.ndarray
    latents: Latents

    def __post_init__(self):
        self.edges.flags.writeable = False

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def _check_graph_kernel(kernel: Kernel):
    if kernel.arity != 2:
        raise ArityError(f"graph sampling needs an arity-2 kernel, got {kernel.arity}")
    if kernel.value_space.kind != "unit":
        raise RangeError(
            "edge probabilities must come from a [0,1]-valued kernel, "
            f"got value space {kernel.value_space.kind!r}"
        )
    if not kernel.symmetric:
        raise SymmetryError(f"kernel {kernel.name!r} is not declared symmetric")


def pair_list(n: int) -> np.ndarray:
    """All pairs (i, j) with 1 <= i < j <= n in lexicographic order,
    as an (n choose 2, 2) array.  This order also defines the bit
    positions used by :func:`graph_bitmask`."""
    iu, ju = np.triu_indices(n, k=1)
    return np.column_stack((iu + 1, ju + 1)).astype(np.int64)


def graph_bitmask(edges: Iterable[tuple[int, int]], n: int) -> int:
    """Encode an edge set on [n] as an integer with one bit per pair."""
    pos = {(i, j): p for p, (i, j) in enumerate(pair_list(n).tolist())}
    mask = 0
    for i, j in edges:
        mask |= 1 << pos[(int(i), int(j))]
    return mask


def _row_blocks(n: int, seeds: int):
    """Row ranges ``[r0, r1)`` of the pairs on ``n`` vertices, each one row or as
    many as keep ``seeds * (r1 - r0) * (n - 1 - r0)`` coins within ``_BLOCK``."""
    r0 = 0
    while r0 < n - 1:
        r1 = min(n - 1, r0 + max(1, _BLOCK // (max(seeds, 1) * (n - 1 - r0))))
        yield r0, r1
        r0 = r1


def _draw_edges(values: np.ndarray, cells: np.ndarray, seed, take):
    """``take(r0, shape, hit)`` of each row block ``[r0, r1)`` of the vertices on the
    first axis of ``cells``, in row order: ``hit`` lists the ascending flat indices in
    ``shape`` of the ``[t, c, ...]`` with ``unit_uniform(seed, 1, i, j) < values[cells[i-1],
    cells[j-1]]`` at ``i = r0 + t + 1``, ``j = r0 + c + 2``.  For one seed none has ``c < t``
    (``j <= i``), as no pair below the diagonal is drawn; for a seed row ``take`` drops those.
    The compare is made in integers, with the same decisions: the coin's high
    53 bits m against ``ceil(w * 2^53)``, as m / 2^53 < w iff m < ceil(w 2^53).
    ``seed`` is an int or a ``(R,)`` uint64 row, one per column of ``cells``
    (seeds last, so each broadcast runs along them).  The result is a lazy ``map``:
    each block is drawn as it is iterated, so a consumer that hands each on holds
    one at a time.  The ``(seed, 1, i)`` state is hashed per vertex.

    Two exact steps keep every decision and byte: the first fold, linear under
    xor, is made once per row state and column ``j``; and as the last fold
    keeps the highest set bit of the state y before it, ``m < T <= max T``
    implies ``y < 2^top``, ``top = bit_length(max T) + 11``, so when ``top <=
    _REJECT_TOP`` only those candidates get the last fold and a threshold."""
    n = len(cells)
    j = _vertices(n, seed)
    row, col = _fold(_mix(seed, 1, j), 30), _fold(j, 30)
    thr = np.ceil(values * _TWO53).astype(np.uint64)
    top = int(thr.max()).bit_length() + 11
    bound = np.uint64(1 << top) if top <= _REJECT_TOP else None

    def block(rows):
        r0, r1 = rows
        y = _middle(row[r0:r1, None] ^ col[r0 + 1:])
        if bound is not None:  # exact: pairs at or above the bound are never edges
            hit = np.flatnonzero(y < bound)
            t, c, *s = np.unravel_index(hit, y.shape)
            m = _fold(y.reshape(-1)[hit], 31) >> np.uint64(11)
            edge = m < thr[cells[(t + r0, *s)], cells[(c + r0 + 1, *s)]]
            return take(r0, y.shape, hit[edge & (c >= t)])
        x = _fold(y, 31)
        x >>= np.uint64(11)
        if cells.ndim == 1:  # one seed: a row gather, then the columns, none below the diagonal
            at = np.take(thr[cells[r0:r1]], cells[r0 + 1:], axis=1)
            at[:, : r1 - r0][np.tri(r1 - r0, r1 - r0, -1, bool)] = 0
        else:  # a seed row: one flat take
            at = np.take(thr, cells[r0:r1, None] * len(thr) + cells[r0 + 1:])
        return take(r0, y.shape, np.flatnonzero(x < at))

    return map(block, _row_blocks(n, np.size(seed)))


def _block_rows(r0, shape, hit):
    """``(r0, counts, j)`` of one row block of :func:`_draw_edges` for one seed: row
    ``i = r0 + t + 1`` holds the ``counts[t]`` edges ``(i, j)`` next in ``j``, in pair order."""
    starts = np.arange(0, (shape[0] + 1) * shape[1], shape[1])  # flat index of each row's start
    counts = np.diff(np.searchsorted(hit, starts))
    return r0, counts, hit - np.repeat(starts[:-1] - (r0 + 2), counts)


def _block_edges(r0, shape, hit):
    """The ``(e, 2)`` edges of one row block of :func:`_draw_edges` for one seed, in pair order."""
    r0, counts, j = _block_rows(r0, shape, hit)
    return np.column_stack((np.repeat(np.arange(r0 + 1, r0 + 1 + len(counts)), counts), j))


def _block_pairs(r0, shape, hit):
    """The pairs of one row block of :func:`_draw_edges` per seed, in pair order, as
    bools: ``True`` scattered at ``hit`` into a zeroed block, then its upper triangle."""
    edge = np.zeros(shape, bool)
    edge.reshape(-1)[hit] = True
    return edge[np.triu(np.ones(shape[:2], bool))]


def _graph_blocks(kernel: Kernel, n: int, seed: int, take=_block_edges):
    """The :func:`_latent_draws` of :func:`sample_graph`, after all its checks, and ``take`` of
    its row blocks (by default their ``(e, 2)`` edges) in row order, each drawn as iterated."""
    _check_graph_kernel(kernel)
    draws = _latent_draws(kernel.domain, n, seed)
    return draws, _draw_edges(kernel.values, draws[2], seed, take)


def sample_graph(kernel: Kernel, n: int, seed: int, threads: int = 1) -> RandomGraph:
    """Sample the random graph whose edge ij appears with probability
    ``kernel(X_i, X_j)``, conditionally independently given the latents.

    The edge coin for pair (i, j) is ``unit_uniform(seed, 1, i, j)``,
    so the output is bit-identical for a fixed seed under any degree of
    parallelism or edge-evaluation order.  Row blocks of pairs are drawn
    one at a time on the calling thread; ``threads`` is accepted for
    compatibility and changes nothing.

    Raises
    ------
    ArityError, RangeError, SymmetryError
        If the kernel is not a symmetric arity-2 kernel with values in
        [0,1].
    """
    (partition, u, cells), blocks = _graph_blocks(kernel, n, seed)
    edges = np.concatenate([np.empty((0, 2), np.int64), *blocks])
    return RandomGraph(n, edges, Latents(u, cells, tuple(partition.cell_labels[c] for c in cells)))


def sample_graph_edges(kernel: Kernel, n: int, seeds) -> np.ndarray:
    """A ``(len(seeds), n choose 2)`` bool array: entry ``[r, p]`` says whether
    pair p of :func:`pair_list` is an edge of ``sample_graph(kernel, n, seeds[r])``.
    Seeds are taken mod 2^64, as there; an integer array is cast as a whole.  Its
    memory grows with its size, so draw long seed arrays in blocks."""
    _check_graph_kernel(kernel)
    row = _u64(seeds)
    cells = _latent_draws(kernel.domain, n, row)[2]
    blocks = _draw_edges(kernel.values, cells, row, _block_pairs)
    return np.ascontiguousarray(np.concatenate([np.empty((0, len(row)), bool), *blocks]).T)


def _index_tuples(n: int, m: int) -> np.ndarray:
    """The rows of ``permutations(range(1, n + 1), m)``, read-only, in the narrowest signed
    type holding n: each column extends every row, in order, by each index it lacks."""
    index = np.arange(1, n + 1, dtype=np.min_scalar_type(~n))
    t = index[:0].reshape(int(m <= n), 0)  # the empty tuple, unless there are none at all
    for _ in range(m):
        free = np.ones((len(t), n), bool)
        free[np.arange(len(t))[:, None], t - 1] = False
        t = np.column_stack((t.repeat(free.sum(1), 0), np.broadcast_to(index, free.shape)[free]))
    t.flags.writeable = False
    return t


@dataclass(frozen=True)
class SampleArray:
    """Kernel values at every ordered tuple of distinct indices in [n]."""

    n: int
    latents: Latents
    values: Mapping[tuple, object]


def sample_array(family: KernelFamily, n: int, seed: int) -> SampleArray:
    """Evaluate every kernel of the family at all ordered tuples of
    distinct 1-based indices, on latents drawn with the given seed.

    Raises
    ------
    ArityError
        If some kernel has arity exceeding n.
    """
    for k in family:
        if k.arity > n:
            raise ArityError(
                f"kernel {k.name!r} has arity {k.arity} > n = {n}"
            )
    latents = sample_latents(family.domain, n, seed)
    values: dict[tuple, object] = {}
    for k in family:
        tuples = _index_tuples(n, k.arity)
        gathered = k.values[tuple(latents.cells[tuples.T - 1])].tolist()
        values.update(zip(((k.name, idx) for idx in map(tuple, tuples.tolist())), gathered))
    return SampleArray(n, latents, MappingProxyType(values))
