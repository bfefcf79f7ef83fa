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

Graph edges are drawn one row block of about ``_BLOCK`` coins (or one row) at
a time, each as it is asked for, for one seed or a column of seeds at once
(bit-identical seed by seed).  :func:`_hashed` hashes every block into one
scratch set per call, two uint64 arrays and a bool array of ``max(_BLOCK,
seeds * (n - 1))`` entries, so no block allocates or frees the size of its
coins.  For one seed, :func:`_graph_rows` hands the edges on as ``(r0,
counts, j)`` batches of rows: :func:`sample_graph` joins them and ``unirep
sample`` writes each as it is drawn (through :func:`_graph_blocks`).  The full
compare hands on each block as a batch; the rejection test holds the
candidates of the blocks (a flat index and a state, 16 B each) and decides
them together once ``_BLOCK`` are held, and after the last block.  For a seed
column, :func:`_draw_edges` (through :func:`_seed_blocks`) gives its ``take``
each block's bool decisions with the pairs below the diagonal cleared:
:func:`sample_graph_edges` keeps their upper triangles (:func:`_block_pairs`),
and the Monte-Carlo comparison packs them into per-graph words of forward
neighbours (:func:`_block_words`).
Both compare each coin's 53 bits with an integer threshold per kernel
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
_BYTE_BITS = np.uint64(0x0102040810204080)  # see _block_words
_REJECT_TOP = 58  # _draw_edges tests candidates up to a 2^(top-64) = 1/64 share (measured)
# numpy's ufunc buffer, in elements, for the broadcast xor of _hashed: numpy 2.4 copies every
# operand through its buffer when the rows are shorter than a third of it, which made that
# xor 3x slower on rows under 2731 pairs at the default 8192 (measured; results are unchanged)
_XOR_BUFFER = 256


def _u64(v):
    """``v`` mod 2^64 as uint64, exactly: a scalar for an integer, else an array."""
    if isinstance(v, (int, np.integer)):
        return np.uint64(int(v) & _MASK64)
    a = np.asarray(v, None if hasattr(v, "dtype") else object)
    if a.dtype.kind not in "iu":  # one Python int at a time, as numpy may not infer ints
        a = np.array([int(x) & _MASK64 for x in a.flat], np.uint64).reshape(a.shape)
    return a.astype(np.uint64, copy=False)


def _fold(x, shift: int, tmp=None):
    """``x ^= x >> shift``, in place on an array ``x``; the shift goes to ``tmp`` if given."""
    x ^= np.right_shift(x, np.uint64(shift), out=tmp)
    return x


def _middle(x, tmp=None):
    """The avalanche of :func:`_mix` between its first and last fold, in place; its one
    shifted copy goes to ``tmp`` if given."""
    # uint64 wraparound is the point here; silence overflow accounting
    with np.errstate(over="ignore"):
        x *= _MULT1
        x ^= np.right_shift(x, np.uint64(27), out=tmp)
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


def _coins(values: np.ndarray, n: int, seed):
    """What every row block of :func:`_graph_rows` and :func:`_draw_edges` shares: the
    ``(seed, 1, i)`` state of each vertex and each column ``j``, both after the first fold
    (linear under xor, so made once per vertex); the threshold ``ceil(w * 2^53)`` of each kernel
    value; and the rejection bound ``2^top``, ``top = bit_length(max T) + 11``, or ``None``
    when ``top > _REJECT_TOP``.  As the last fold keeps the highest set bit of the state y before
    it, ``m < T <= max T`` implies ``y < 2^top``: no state at or above the bound is an edge."""
    j = _vertices(n, seed)
    thr = np.ceil(values * _TWO53).astype(np.uint64)
    top = int(thr.max()).bit_length() + 11
    bound = np.uint64(1 << top) if top <= _REJECT_TOP else None
    return _fold(_mix(seed, 1, j), 30), _fold(j, 30), thr, bound


def _hashed(row: np.ndarray, col: np.ndarray, seeds: int):
    """Each row block ``[r0, r1)`` of :func:`_row_blocks` of the pairs on ``n = len(row)``
    vertices as ``(r0, r1, y, tmp, lt)``: the states ``y`` of its pairs before the last
    fold (from the per-vertex states of :func:`_coins`), shaped ``(r1 - r0, n - 1 - r0)``
    and then a seed axis if ``row`` has one, and a free uint64 and bool array of that shape.
    All three are views of one scratch set of ``max(_BLOCK, seeds * (n - 1))`` entries
    each, made once per call and overwritten by the next block, so that no block allocates
    or frees memory the size of its coins."""
    n = len(row)
    size = max(_BLOCK, seeds * (n - 1))
    scratch = tuple(np.empty(size, t) for t in (np.uint64, np.uint64, bool))
    for r0, r1 in _row_blocks(n, seeds):
        shape = (r1 - r0, n - 1 - r0) + row.shape[1:]
        y, tmp, lt = (a[: (r1 - r0) * (n - 1 - r0) * seeds].reshape(shape) for a in scratch)
        with np.errstate():  # which restores numpy's ufunc buffer size on exit
            np.setbufsize(_XOR_BUFFER)
            np.bitwise_xor(row[r0:r1, None], col[r0 + 1:], out=y)
        yield r0, r1, _middle(y, tmp), tmp, lt


def _graph_rows(values: np.ndarray, cells: np.ndarray, seed: int):
    """The edges of one seed's graph on the vertices of ``cells`` as ``(r0, counts, j)``
    batches in row order, each drawn as iterated: row ``i = r0 + t + 1`` has the ``counts[t]``
    edges ``(i, j)`` next in ``j``, ascending, and the batches' rows run on from row 1 to
    n - 1.  Pair ``(i, j)``, i < j, is an edge where ``unit_uniform(seed, 1, i, j) <
    values[cells[i-1], cells[j-1]]``, decided as by :func:`_draw_edges`.

    The row blocks are hashed by :func:`_hashed` into one scratch set.  The full compare
    hands on each block as one batch.  Below the rejection bound, each block's candidates
    (flat indices and states) are held, and the last fold, the threshold and the diagonal
    are applied to them (:func:`_held_rows`) once ``_BLOCK`` are held, and after the last
    block, as one batch of the rows held."""
    n = len(cells)
    row, col, thr, bound = _coins(values, n, seed)
    held, first, count = [], 0, 0
    for r0, r1, y, tmp, lt in _hashed(row, col, 1):
        rows, width = y.shape
        if bound is None:  # every pair: the last fold and its threshold, none below the diagonal
            _fold(y, 31, tmp)
            y >>= np.uint64(11)
            at = np.take(thr[cells[r0:r1]], cells[r0 + 1:], axis=1, out=tmp, mode="clip")
            at[:, :rows][np.tri(rows, rows, -1, bool)] = 0
            hit = np.flatnonzero(np.less(y, at, out=lt))
            starts = np.arange(0, (rows + 1) * width, width)  # flat index of each row's start
            counts = np.diff(np.searchsorted(hit, starts))
            yield r0, counts, np.subtract(hit, np.repeat(starts[:-1] - (r0 + 2), counts), out=hit)
            continue
        hit = np.flatnonzero(np.less(y, bound, out=lt))
        held.append((r0, width, hit, y.reshape(-1)[hit]))
        count += len(hit)
        if count >= _BLOCK or r1 == n - 1:
            yield _held_rows(held, first, r1, cells, thr)
            held, first, count = [], r1, 0


def _held_rows(held, r0, r1, cells, thr):
    """The ``(r0, counts, j)`` batch of :func:`_graph_rows` for rows ``[r0, r1)`` from the
    candidates held for them: per row block its first row, its width, the flat indices of its
    candidates and their states.  Each candidate gets the last fold and its threshold, and
    those below the diagonal (``c < t``, so ``j <= i``) are dropped."""
    starts, widths, hits, states = zip(*held)
    sizes = [len(hit) for hit in hits]
    i, j = np.divmod(np.concatenate(hits), np.repeat(widths, sizes))  # row t, column c
    start = np.repeat(starts, sizes)
    i += start  # now i = start + t and j = start + c + 1: vertices i + 1 and j + 1 in cells
    j += start
    j += 1
    m = _fold(np.concatenate(states), 31)
    m >>= np.uint64(11)
    edge = m < thr[cells[i], cells[j]]
    edge &= j > i
    j = j[edge]
    j += 1
    return r0, np.bincount(i[edge] - r0, minlength=r1 - r0), j


def _draw_edges(values: np.ndarray, cells: np.ndarray, seed, take):
    """``take(r0, edge)`` of each row block ``[r0, r1)`` of the graphs of a ``(R,)`` uint64 row
    of seeds, one per column of ``cells`` (seeds last, so each broadcast runs along them), in
    row order.  ``edge[t, c, s]`` decides pair ``(i, j)``, ``i = r0 + t + 1``, ``j = r0 + c +
    2``, for seed ``s``: an edge where ``unit_uniform(seed, 1, i, j) < values[cells[i-1, s],
    cells[j-1, s]]``, and ``False`` where ``c < t`` (``j <= i``).  The compare is made in
    integers, with the same decisions: the coin's high 53 bits m against ``ceil(w * 2^53)``,
    as m / 2^53 < w iff m < ceil(w 2^53); below the rejection bound of :func:`_coins` only
    the candidates get the last fold and a threshold.  Each block is hashed by :func:`_hashed`
    and drawn as it is iterated, so a consumer that hands each on holds one at a time."""
    n = len(cells)
    row, col, thr, bound = _coins(values, n, seed)
    for r0, r1, y, tmp, lt in _hashed(row, col, np.size(seed)):
        if bound is not None:  # exact: pairs at or above the bound are never edges
            hit = np.flatnonzero(np.less(y, bound, out=lt))
            t, c, s = np.unravel_index(hit, y.shape)
            m = _fold(y.reshape(-1)[hit], 31) >> np.uint64(11)
            edge = m < thr[cells[t + r0, s], cells[c + r0 + 1, s]]
            edge, hit = np.zeros(y.shape, bool), hit[edge & (c >= t)]
            edge.reshape(-1)[hit] = True
            yield take(r0, edge)
            continue
        _fold(y, 31, tmp)
        y >>= np.uint64(11)
        at = np.add(cells[r0:r1, None] * len(thr), cells[r0 + 1:], out=tmp.view(np.int64))
        edge = y < np.take(thr, at)  # one flat take
        edge[:, : r1 - r0][np.tri(r1 - r0, r1 - r0, -1, bool)] = False
        yield take(r0, edge)


def _block_pairs(r0, edge):
    """The pairs of one row block of :func:`_draw_edges` per seed, in pair order, as
    bools: the upper triangle of its decisions."""
    return edge[np.triu(np.ones(edge.shape[:2], bool))]


def _block_words(r0, edge):
    """``(r0, words)`` of one row block ``[r0, r0 + t)`` of :func:`_draw_edges` per seed on
    n vertices: ``words[r, s]`` is row ``r0 + s + 1``'s forward neighbours in seed r's graph
    as ``ceil(n / 64)`` little-endian uint64 words, bit ``j % 64`` of word ``j // 64`` for
    vertex ``j + 1``.  Each 8 bools, read as one uint64 of bytes b_k in {0, 1}, times
    ``0x0102040810204080`` hold ``sum(b_k << k)`` in their top byte, with no carry; for
    n <= 8 a row is that one byte, and so already its word."""
    t, c, seeds = edge.shape
    n = r0 + 1 + c
    bits = np.zeros((seeds, t, 8 if n <= 8 else -(-n // 64) * 64), bool)
    bits[:, :, r0 + 1 : n] = edge.transpose(2, 0, 1)
    eights = bits.view(np.uint64)
    with np.errstate(over="ignore"):
        eights *= _BYTE_BITS
    eights >>= np.uint64(56)
    return r0, eights if n <= 8 else eights.astype(np.uint8).view("<u8")


def _seed_blocks(kernel: Kernel, n: int, seeds, take):
    """``take`` of the row blocks of :func:`_draw_edges` for ``kernel``'s graphs on n vertices
    at a row of ``seeds``, taken mod 2^64 as by :func:`sample_graph`, each drawn as iterated."""
    _check_graph_kernel(kernel)
    row = _u64(seeds)
    return _draw_edges(kernel.values, _latent_draws(kernel.domain, n, row)[2], row, take)


def _graph_blocks(kernel: Kernel, n: int, seed: int):
    """The :func:`_latent_draws` of :func:`sample_graph`, after all its checks, and the
    ``(r0, counts, j)`` batches of :func:`_graph_rows` of its edges, each drawn as iterated."""
    _check_graph_kernel(kernel)
    draws = _latent_draws(kernel.domain, n, seed)
    return draws, _graph_rows(kernel.values, draws[2], seed)


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
    (partition, u, cells), batches = _graph_blocks(kernel, n, seed)
    rows = [(np.zeros(0, np.int64),) * 2] + [(counts, j) for _, counts, j in batches]
    counts, j = (np.concatenate(parts) for parts in zip(*rows))
    edges = np.column_stack((np.repeat(np.arange(1, len(counts) + 1), counts), j))
    return RandomGraph(n, edges, Latents(u, cells, tuple(partition.cell_labels[c] for c in cells)))


def sample_graph_edges(kernel: Kernel, n: int, seeds) -> np.ndarray:
    """A ``(len(seeds), n choose 2)`` bool array: entry ``[r, p]`` says whether
    pair p of :func:`pair_list` is an edge of ``sample_graph(kernel, n, seeds[r])``.
    Seeds are taken mod 2^64, as there; an integer array is cast as a whole.  Its
    memory grows with its size, so draw long seed arrays in blocks."""
    blocks = _seed_blocks(kernel, n, seeds, _block_pairs)
    return np.ascontiguousarray(np.concatenate([np.empty((0, np.size(seeds)), bool), *blocks]).T)


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
