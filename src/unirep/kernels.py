"""Multivariate function families over a discrete space or an interval partition.

A :class:`Kernel` is an arity-m function given by a full table: either
over atom-id tuples of a :class:`~unirep.spaces.DiscreteSpace` (a table
kernel) or over cell-index tuples of an
:class:`~unirep.spaces.IntervalPartition` (a step kernel, i.e. a
function on [0,1]^m constant on cell boxes).  The values are stored
once, in the read-only ndarray :attr:`Kernel.values` of shape
``(K,) * arity`` indexed by atom or cell position (int64 for labels,
float64 otherwise); :attr:`Kernel.table` is a read-only mapping view of
it that returns Python ``int`` or ``float``.  Values are compared
bit-exactly: every downstream equivalence test draws both of its sides
from the same arrays, so exact equality is the correct comparison for
joint-law support points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Mapping

import numpy as np

from .errors import ArityError, RangeError, SpecError, SymmetryError, UnsupportedError
from .spaces import DiscreteSpace, IntervalPartition, lookup_cell

__all__ = [
    "ValueSpace",
    "Kernel",
    "KernelFamily",
    "eval_kernel",
    "check_symmetry",
]


@dataclass(frozen=True)
class ValueSpace:
    """Value space of a kernel: the reals, a finite label set, or [0,1]."""

    kind: str  # "real" | "unit" | "labels"
    num_labels: int | None = None

    def __post_init__(self):
        if self.kind not in ("real", "unit", "labels"):
            raise SpecError(f"unknown value space {self.kind!r}", field="value_space")
        if self.kind == "labels":
            if not isinstance(self.num_labels, int) or self.num_labels < 1:
                raise SpecError(
                    f"label count must be a positive integer, got {self.num_labels!r}",
                    field="value_space",
                )
        elif self.num_labels is not None:
            raise SpecError("num_labels only applies to kind 'labels'", field="value_space")

    @property
    def dtype(self):
        return np.int64 if self.kind == "labels" else np.float64

    def check_type(self, v, where: str, key: tuple):
        if self.kind == "labels":
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise SpecError(f"{where} at {key!r}: label value must be an integer, got {v!r}")
        elif isinstance(v, bool) or not isinstance(v, (int, float, np.floating, np.integer)):
            raise SpecError(f"{where} at {key!r}: value must be a number, got {v!r}")

    def outside(self, values: np.ndarray) -> tuple[np.ndarray, str]:
        """Mask of the entries of ``values`` outside this space, and why."""
        if self.kind == "labels":
            return (values < 0) | (values >= self.num_labels), f"outside 0..{self.num_labels - 1}"
        if self.kind == "unit":
            return ~((values >= 0.0) & (values <= 1.0)), "outside [0,1]"
        return ~np.isfinite(values), "is not finite"


class _TableView(Mapping):
    """Read-only mapping from domain tuples to the Python scalars of a
    value array, given the position of each domain coordinate."""

    def __init__(self, values: np.ndarray, index: dict):
        self._values = values
        self._index = index

    def __getitem__(self, key):
        if not isinstance(key, tuple) or len(key) != self._values.ndim:
            raise KeyError(key)
        try:
            return self._values[tuple(self._index[c] for c in key)].item()
        except (KeyError, TypeError):
            raise KeyError(key) from None

    def __iter__(self):
        return product(self._index, repeat=self._values.ndim)

    def __len__(self) -> int:
        return self._values.size


@dataclass(frozen=True)
class Kernel:
    """An arity-m function given by its full table of values.

    Parameters
    ----------
    name : str
    arity : int
        Positive and finite; infinite arities are out of scope.
    value_space : ValueSpace
    domain : DiscreteSpace or IntervalPartition
        Table kernels live on a discrete space (keys are atom-id
        tuples); step kernels live on an interval partition (keys are
        0-based cell-index tuples).
    table : mapping or ndarray
        A mapping must cover every tuple of the domain,
        ``len(domain)**arity`` entries in total.  An ndarray has shape
        ``(len(domain),) * arity`` and is indexed by atom position or
        cell index.  After construction this attribute is a read-only
        mapping view of :attr:`values`.
    symmetric : bool
        Declared flag; verified eagerly, never trusted.
    """

    name: str
    arity: int
    value_space: ValueSpace
    domain: DiscreteSpace | IntervalPartition
    table: Mapping[tuple, object] | np.ndarray = field(repr=False)
    symmetric: bool = False
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.arity == float("inf"):
            raise UnsupportedError("infinite arity is out of scope")
        if not isinstance(self.arity, int) or isinstance(self.arity, bool) or self.arity < 1:
            raise ArityError(f"arity must be a positive integer, got {self.arity!r}")
        if not isinstance(self.domain, (DiscreteSpace, IntervalPartition)):
            raise SpecError(f"unsupported kernel domain {type(self.domain).__name__}")
        where = f"kernel {self.name!r}"
        index = {c: i for i, c in enumerate(self._coords)}
        values = self.table
        if not isinstance(values, np.ndarray):
            values = values_from_table(dict(values), index, self.arity, self.value_space, where)
        elif values.flags.writeable:  # never share an array the caller can change
            values = values.copy()
        shape = (len(index),) * self.arity
        if values.shape != shape:
            raise SpecError(f"{where}: value array has shape {values.shape}, needs {shape}")
        if values.dtype.kind not in ("iu" if self.value_space.kind == "labels" else "iuf"):
            raise SpecError(f"{where}: {values.dtype} values do not fit {self.value_space.kind!r}")
        values = values.astype(self.value_space.dtype, copy=False)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "table", _TableView(values, index))
        outside, why = self.value_space.outside(values)
        if outside.any():
            idx = tuple(np.argwhere(outside)[0])
            raise RangeError(
                f"{where} at {self.key_at(idx)!r}: value {values[idx].item()!r} {why}"
            )
        if self.symmetric:
            ok, witness = check_symmetry(self)
            if not ok:
                raise SymmetryError(
                    f"{where} declared symmetric but "
                    f"{witness[0]} -> {self.table[witness[0]]!r} while "
                    f"{witness[1]} -> {self.table[witness[1]]!r}"
                )

    @property
    def _coords(self):
        if isinstance(self.domain, DiscreteSpace):
            return self.domain.atom_ids
        return range(len(self.domain))

    def key_at(self, index) -> tuple:
        """The domain tuple at an index of :attr:`values`."""
        return tuple(self._coords[i] for i in index)

    @property
    def is_step(self) -> bool:
        return isinstance(self.domain, IntervalPartition)


@dataclass(frozen=True)
class KernelFamily:
    """An ordered collection of named kernels over one common domain."""

    kernels: tuple[Kernel, ...]

    def __post_init__(self):
        if not self.kernels:
            raise SpecError("a kernel family needs at least one kernel", field="kernels")
        names = [k.name for k in self.kernels]
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate kernel names in {names}", field="kernels")
        d0 = self.kernels[0].domain
        for k in self.kernels[1:]:
            if k.domain != d0:
                raise SpecError(
                    f"kernel {k.name!r} lives on a different domain than "
                    f"{self.kernels[0].name!r}"
                )

    def __iter__(self):
        return iter(self.kernels)

    def __len__(self) -> int:
        return len(self.kernels)

    def __getitem__(self, name: str) -> Kernel:
        for k in self.kernels:
            if k.name == name:
                return k
        raise SpecError(f"no kernel named {name!r}", field="kernels")

    @property
    def domain(self):
        return self.kernels[0].domain

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(k.name for k in self.kernels)

    def on_domain(self, domain, values=None) -> KernelFamily:
        """The same kernels on another domain: atom or cell k of
        ``domain`` takes the place of position k.  ``values``, one array
        per kernel, replaces the kernels' value arrays; by default they
        are passed on unchanged."""
        if values is None:
            values = [k.values for k in self.kernels]
        return KernelFamily(
            tuple(
                Kernel(k.name, k.arity, k.value_space, domain, v, k.symmetric)
                for k, v in zip(self.kernels, values)
            )
        )


def values_from_table(
    table: Mapping, index: dict, arity: int, value_space: ValueSpace, where: str, orbits=False
) -> np.ndarray:
    """The value array of a table from domain tuples (coordinates placed by
    ``index``) to values.  With ``orbits``, the table lists one tuple per
    orbit of the coordinate permutations, and each tuple takes the value
    listed under its position-sorted self, at a cost linear in the table."""
    positions = []
    for key, v in table.items():
        position = [index.get(c, -1) for c in key] if isinstance(key, tuple) else []
        if len(position) != arity or -1 in position:
            raise SpecError(f"{where}: table key {key!r} is not an arity-{arity} domain tuple")
        value_space.check_type(v, where, key)
        positions.append(sorted(position) if orbits else position)
    listed = np.full((len(index),) * arity, -1)  # the entry listed at each position tuple
    listed[tuple(np.array(positions, dtype=np.int64).reshape(-1, arity).T)] = range(len(table))
    which = listed[tuple(np.sort(np.indices(listed.shape), axis=0))] if orbits else listed
    if (which < 0).any():
        count = (which >= 0).sum()
        raise SpecError(f"{where}: table has {count} entries, needs all {which.size} tuples")
    dtype = np.dtype(value_space.dtype)
    try:
        values = np.array(list(table.values()), dtype=dtype)
    except OverflowError:
        raise RangeError(f"{where}: a value is too large for {dtype} storage") from None
    return values[which]


def eval_kernel(kernel: Kernel, point: tuple):
    """Evaluate a kernel at a point of its domain.

    Table kernels take a tuple of atom ids; step kernels take a tuple
    of numbers in [0,1), each mapped to its cell before the lookup.

    Raises
    ------
    ArityError
        If ``point`` has the wrong length.
    SpecError
        If a coordinate names an unknown atom.
    """
    point = tuple(point)
    if len(point) != kernel.arity:
        raise ArityError(
            f"kernel {kernel.name!r} has arity {kernel.arity}, got {len(point)} coordinates"
        )
    if kernel.is_step:
        index = tuple(lookup_cell(kernel.domain, u) for u in point)
    else:
        index = tuple(kernel.domain.index(a) for a in point)
    return kernel.values[index].item()


def check_symmetry(kernel: Kernel):
    """Exhaustively check invariance under coordinate permutations.

    Compares the value array with its m - 1 adjacent axis swaps, which
    generate all m! permutations; taken from the last swap down, the first
    that fails is the first failing permutation in lexicographic order.

    Returns
    -------
    (bool, tuple or None)
        ``(True, None)`` if the table is symmetric, otherwise
        ``(False, (key, permuted_key))`` with a witness pair of tuples
        carrying different values.
    """
    values = kernel.values
    for i in reversed(range(kernel.arity - 1)):
        axes = (*range(i), i + 1, i, *range(i + 2, kernel.arity))
        differ = np.argwhere(values != values.transpose(axes))
        if len(differ):
            index = tuple(differ[0])
            moved = [index[axes.index(axis)] for axis in range(kernel.arity)]
            return False, (kernel.key_at(index), kernel.key_at(moved))
    return True, None


def value_array(kernel: Kernel) -> np.ndarray:
    """The kernel's read-only value array, :attr:`Kernel.values`."""
    return kernel.values
