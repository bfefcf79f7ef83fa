"""Deterministic, order-independent sampling of latents, arrays, and graphs.

Every random draw here is a pure function of ``(seed, stream, i, j)``
through one fixed 64-bit mixing function, so results are bit-identical
across platforms, across processes, and under any parallel schedule or
edge-evaluation order.  Streams keep draw families disjoint:

- stream 0: latent variables, one draw per vertex index;
- stream 1: edge coins, one draw per vertex pair (i, j) with i < j;
- streams 2 and up: reserved per kernel for auxiliary randomness
  (unused at present; kernel values are deterministic given latents).

Vertex indices are 1-based throughout, matching the edge-list output
format.
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
    validate_space,
)

__all__ = [
    "unit_uniform",
    "unit_uniform_array",
    "derive_seed",
    "Latents",
    "sample_latents",
    "RandomGraph",
    "sample_graph",
    "SampleArray",
    "sample_array",
    "pair_list",
    "graph_bitmask",
    "sample_graph_bitmasks",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB
_TWO53 = float(1 << 53)


def _avalanche(x: int) -> int:
    x ^= x >> 30
    x = (x * _MULT1) & _MASK64
    x ^= x >> 27
    x = (x * _MULT2) & _MASK64
    x ^= x >> 31
    return x


def _mix(seed: int, stream: int, i: int, j: int) -> int:
    x = (seed + _GOLDEN) & _MASK64
    for v in (stream, i, j):
        x = _avalanche(x ^ (v & _MASK64))
    return x


def unit_uniform(seed: int, stream: int, i: int, j: int) -> float:
    """Uniform draw in [0,1), a pure function of its four arguments.

    The 64-bit counter state is ``seed + 0x9E3779B97F4A7C15`` xor-folded
    with ``stream``, ``i``, ``j`` in turn, each fold followed by the
    avalanche sequence ``x ^= x>>30; x *= 0xBF58476D1CE4E5B9;
    x ^= x>>27; x *= 0x94D049BB133111EB; x ^= x>>31`` (all mod 2^64).
    The result is the high 53 bits divided by 2^53, so the value is
    bit-exact across platforms with no double-rounding.
    """
    return (_mix(seed, stream, i, j) >> 11) / _TWO53


def _avalanche_arr(x: np.ndarray) -> np.ndarray:
    # uint64 wraparound is the point here; silence overflow accounting
    with np.errstate(over="ignore"):
        x = x ^ (x >> np.uint64(30))
        x = x * np.uint64(_MULT1)
        x = x ^ (x >> np.uint64(27))
        x = x * np.uint64(_MULT2)
        x = x ^ (x >> np.uint64(31))
    return x


def unit_uniform_array(seed, stream, i, j) -> np.ndarray:
    """Vectorized :func:`unit_uniform` over ``i`` and/or ``j`` arrays.

    ``seed`` may also be an array (broadcast against ``i`` and ``j``).
    Bit-identical to the scalar version at every position.
    """
    if isinstance(seed, np.ndarray):
        with np.errstate(over="ignore"):
            x = (seed.astype(np.uint64) + np.uint64(_GOLDEN)) ^ np.uint64(
                int(stream) & _MASK64
            )
        x = _avalanche_arr(x)
    else:
        x = np.uint64(_avalanche(((int(seed) + _GOLDEN) & _MASK64) ^ (int(stream) & _MASK64)))
    x = _avalanche_arr(x ^ np.asarray(i, dtype=np.uint64))
    x = _avalanche_arr(x ^ np.asarray(j, dtype=np.uint64))
    return (x >> np.uint64(11)).astype(np.float64) / _TWO53


def derive_seed(seed: int, tag: int, index: int) -> int:
    """A 64-bit seed derived from ``(seed, tag, index)``.

    Used by statistical harnesses to give repeated runs (and the two
    sides of a two-sample test) disjoint randomness from one master
    seed.  Tags live at 0xD5 and above so derived draws never collide
    with the sampling streams 0, 1, 2+.
    """
    return _mix(seed, 0xD5 + tag, index, 0)


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


def _as_partition(target) -> IntervalPartition:
    if isinstance(target, IntervalPartition):
        return target
    return interval_partition(validate_space(target))


def sample_latents(target, n: int, seed: int) -> Latents:
    """Draw n iid latent points, X_i = unit_uniform(seed, 0, 0, i).

    ``target`` is a discrete space or an interval partition; each
    uniform is mapped to its cell (equivalently, its atom), and both
    the uniforms and the discrete values are retained.

    Raises
    ------
    UnsupportedError
        If ``n`` is infinite (only finite samples are in scope).
    """
    if n == float("inf"):
        raise UnsupportedError("n = infinity is out of scope")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise UnsupportedError(f"n must be a positive integer, got {n!r}")
    partition = _as_partition(target)
    u = unit_uniform_array(seed, 0, 0, np.arange(1, n + 1, dtype=np.uint64))
    cells = lookup_cells(partition, u)
    atoms = tuple(partition.cell_labels[c] for c in cells)
    return Latents(u, cells, atoms)


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


def sample_graph(kernel: Kernel, n: int, seed: int, threads: int = 1) -> RandomGraph:
    """Sample the random graph whose edge ij appears with probability
    ``kernel(X_i, X_j)``, conditionally independently given the latents.

    The edge coin for pair (i, j) is ``unit_uniform(seed, 1, i, j)``,
    so the output is bit-identical for a fixed seed under any degree of
    parallelism or edge-evaluation order.  ``threads`` only chunks the
    work; it never changes the result.

    Raises
    ------
    ArityError, RangeError, SymmetryError
        If the kernel is not a symmetric arity-2 kernel with values in
        [0,1].
    """
    _check_graph_kernel(kernel)
    latents = sample_latents(kernel.domain, n, seed)
    cells = latents.cells
    pairs = pair_list(n)
    iv = pairs[:, 0].astype(np.uint64)
    jv = pairs[:, 1].astype(np.uint64)
    probs = kernel.values[cells[iv - 1], cells[jv - 1]]
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        chunks = zip(np.array_split(iv, threads), np.array_split(jv, threads))
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = pool.map(lambda ij: unit_uniform_array(seed, 1, *ij), chunks)
            coins = np.concatenate(list(parts))
    else:
        coins = unit_uniform_array(seed, 1, iv, jv)
    edges = pairs[coins < probs]
    return RandomGraph(n, edges, latents)


def sample_graph_bitmasks(kernel: Kernel, n: int, seeds: np.ndarray) -> np.ndarray:
    """Bulk sampler for labeled-graph frequency tests.

    Returns one bitmask per seed (pair p of :func:`pair_list` maps to
    bit p), each bit-identical to the graph :func:`sample_graph` would
    produce for that seed.  Requires n(n-1)/2 <= 64.
    """
    _check_graph_kernel(kernel)
    pairs = pair_list(n)
    if len(pairs) > 64:
        raise ArityError(f"bitmask sampling needs n(n-1)/2 <= 64, got n={n}")
    seeds = np.asarray(seeds, dtype=np.uint64)
    vidx = np.arange(1, n + 1, dtype=np.uint64)
    u = unit_uniform_array(seeds[:, None], 0, 0, vidx[None, :])
    cells = lookup_cells(_as_partition(kernel.domain), u)
    iv = pairs[:, 0].astype(np.uint64)
    jv = pairs[:, 1].astype(np.uint64)
    coins = unit_uniform_array(seeds[:, None], 1, iv[None, :], jv[None, :])
    probs = kernel.values[cells[:, iv - 1], cells[:, jv - 1]]
    bits = coins < probs
    weights = np.uint64(1) << np.arange(len(pairs), dtype=np.uint64)
    return (bits.astype(np.uint64) * weights[None, :]).sum(axis=1, dtype=np.uint64)


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
    from itertools import permutations

    for k in family:
        if k.arity > n:
            raise ArityError(
                f"kernel {k.name!r} has arity {k.arity} > n = {n}"
            )
    latents = sample_latents(family.domain, n, seed)
    cells = latents.cells.tolist()
    values: dict[tuple, object] = {}
    for k in family:
        for idx in permutations(range(1, n + 1), k.arity):
            values[(k.name, idx)] = k.values[tuple(cells[t - 1] for t in idx)].item()
    return SampleArray(n, latents, MappingProxyType(values))
