"""Constructive representation of functions and families on ([0,1], Lebesgue).

The pieces, bottom to top:

- :func:`quantile` -- the right-continuous inverse ``inf{y : F(y) > u}``
  of a distribution function; pushes Lebesgue measure on [0,1) forward
  to the law described by the CDF.
- :func:`borel_embed` -- injective codings of supported value spaces
  (reals, finite label sets, [0,1]) into the unit interval, with
  closed-form inverses and a fixed default element for points outside
  the image.
- :func:`cantor_encode` / :func:`sigma_atoms` -- membership-indicator
  codes of atoms with respect to a family of generator sets, and the
  induced partition into classes of indistinguishable atoms.
- :func:`represent_family` -- the production route: relabel a table
  family over a discrete space into step kernels over the interval
  partition of the space.
- :func:`cantor_represent_family` -- the oracle route: encode atoms,
  merge by code, order merged atoms by their codes, and represent on
  the merged partition.  Exists because it mirrors the construction
  that justifies the direct route, and serves as an independent
  cross-check of it.

Representations are not unique; both routes fix a deterministic cell
order (input atom order for the direct route, lexicographic code order
for the encoding route) so outputs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

import numpy as np

from .errors import DomainError, KindError, MeasurabilityError, SpecError
from .kernels import KernelFamily, ValueSpace
from .spaces import Cdf, DiscreteSpace, interval_partition, unit_points

__all__ = [
    "quantile",
    "quantile_array",
    "BorelEmbedding",
    "borel_embed",
    "CantorCode",
    "cantor_encode",
    "sigma_atoms",
    "represent_family",
    "cantor_represent_family",
]


def quantile(cdf: Cdf, u: float) -> float:
    """Generalized inverse of a distribution function at ``u`` in [0,1).

    For a step CDF with jumps ``y_1 < ... < y_k`` at cumulative values
    ``0 = c_0 <= c_1 <= ... <= c_k = 1`` this is the right-continuous
    inverse ``inf{y : F(y) > u}``: it returns ``y_j`` exactly for
    ``u in [c_{j-1}, c_j)``, so the Lebesgue measure of the preimage of
    ``y_j`` is its jump mass ``c_j - c_{j-1}``.

    For a piecewise-linear CDF it is the left-continuous functional
    inverse by linear interpolation (the two inverses differ only on
    the Lebesgue-null set of flat levels).

    Raises
    ------
    DomainError
        If ``u`` is outside [0, 1).
    """
    return float(quantile_array(cdf, u))


def quantile_array(cdf: Cdf, u: np.ndarray) -> np.ndarray:
    """:func:`quantile` at every entry of ``u``."""
    u = unit_points(u)
    xs = np.asarray(cdf.xs)
    cs = np.asarray(cdf.cums)
    if cdf.kind == "step":
        return xs[np.searchsorted(cs, u, side="right")]
    j = np.searchsorted(cs, u, side="left")
    jc = np.clip(j, 1, len(xs) - 1)
    x0, x1 = xs[jc - 1], xs[jc]
    c0, c1 = cs[jc - 1], cs[jc]
    with np.errstate(invalid="ignore"):  # 0/0 only at u = 0 on a flat start, replaced below
        interp = x0 + (u - c0) * (x1 - x0) / (c1 - c0)
    return np.where(j == 0, xs[0], interp)


@dataclass(frozen=True)
class BorelEmbedding:
    """An injective coding of a value space into [0,1].

    ``forward`` is injective on the value space and ``inverse``
    satisfies ``inverse(forward(s)) == s``; points outside the image
    map to the fixed ``default`` element.
    """

    value_space: ValueSpace
    forward: Callable
    inverse: Callable
    default: object


def borel_embed(value_space: ValueSpace) -> BorelEmbedding:
    """Embedding of a supported value space into the unit interval.

    - reals: ``s -> 1/2 + atan(s)/pi`` into (0,1), inverted by
      ``x -> tan(pi*(x - 1/2))``; chosen over steeper sigmoids because
      its slope decays only quadratically, which keeps the double-
      precision round-trip error below 1e-12 across |s| <= 30.
      Default element 0.
    - ``labels(K)``: label j -> (j+1)/(K+1), inverted by the nearest
      grid point.  Default element: label 0.
    - unit interval: the identity.  Default element 0.

    Raises
    ------
    KindError
        For unsupported value-space kinds.
    """
    kind = value_space.kind
    if kind == "real":

        def fwd(s: float) -> float:
            return 0.5 + math.atan(s) / math.pi

        def inv(x: float) -> float:
            if 0.0 < x < 1.0:
                return math.tan(math.pi * (x - 0.5))
            return 0.0

        return BorelEmbedding(value_space, fwd, inv, 0.0)
    if kind == "labels":
        count = value_space.num_labels

        def fwd(j: int) -> float:
            if not 0 <= j < count:
                raise DomainError(f"label {j} outside 0..{count - 1}")
            return (j + 1) / (count + 1)

        def inv(x: float) -> int:
            return int(min(max(round(x * (count + 1)) - 1, 0), count - 1))

        return BorelEmbedding(value_space, fwd, inv, 0)
    if kind == "unit":

        def fwd(s: float) -> float:
            if not 0.0 <= s <= 1.0:
                raise DomainError(f"value {s} outside [0,1]")
            return s

        def inv(x: float) -> float:
            return x if 0.0 <= x <= 1.0 else 0.0

        return BorelEmbedding(value_space, fwd, inv, 0.0)
    raise KindError(f"no embedding for value space kind {kind!r}")


@dataclass(frozen=True)
class CantorCode:
    """Membership-indicator bits of one atom with respect to the
    generator sets: bit i is 1 iff the atom belongs to generator i."""

    bits: tuple[int, ...]

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def _sigma_table(space: DiscreteSpace, generators: Iterable[Iterable[Hashable]]):
    """The distinct rows of the atoms × generators 0/1 membership matrix (the
    codes, in lexicographic order), the first atom of each, and each atom's row."""
    rows = []
    for g, gen in enumerate(generators):
        members = set(gen)
        for a in members:
            if a not in space._index:
                raise SpecError(
                    f"generator {g} references unknown atom {a!r}", field="generators"
                )
        rows.append([a in members for a in space.atom_ids])
    bits = np.array(rows, dtype=np.uint8).reshape(-1, len(space)).T  # (atoms, 0) for none
    return np.unique(bits, axis=0, return_index=True, return_inverse=True)


def cantor_encode(
    space: DiscreteSpace,
    generators: Iterable[Iterable[Hashable]],
) -> dict[Hashable, CantorCode]:
    """Code every atom by its memberships in the generator sets.

    Atoms with identical codes are indistinguishable by the sigma-field
    the generators generate.

    Raises
    ------
    SpecError
        If a generator references an unknown atom id.
    """
    codes, _, of = _sigma_table(space, generators)
    return {a: CantorCode(tuple(bits)) for a, bits in zip(space.atom_ids, codes[of].tolist())}


def sigma_atoms(
    space: DiscreteSpace,
    generators: Iterable[Iterable[Hashable]],
) -> tuple[tuple[Hashable, ...], ...]:
    """Partition the atoms into classes of equal code, in first-occurrence order."""
    _, first, of = _sigma_table(space, generators)
    return tuple(tuple(space.atom_ids[i] for i in np.flatnonzero(of == c)) for c in np.argsort(first))


def represent_family(space: DiscreteSpace, family: KernelFamily) -> KernelFamily:
    """Represent a table family as step kernels on the interval partition.

    Each output kernel is the step function on [0,1]^m taking, on the
    cell box of ``(u_1, ..., u_m)``, the table value at the atoms whose
    cells contain the coordinates.  Values are copied bit-exactly, so
    the output is symmetric whenever the input is, and the joint law of
    evaluations at iid uniform points equals the source joint law at
    iid atoms.
    """
    if not isinstance(family.domain, DiscreteSpace):
        raise SpecError("represent_family expects a family of table kernels")
    if family.domain != space:
        raise SpecError("family is defined over a different space")
    return family.on_domain(interval_partition(space))


def cantor_represent_family(
    space: DiscreteSpace,
    generators: Iterable[Iterable[Hashable]],
    family: KernelFamily,
) -> KernelFamily:
    """Represent a table family through the generator-code route.

    Builds the membership codes, merges atoms with equal codes, orders
    the merged atoms lexicographically by code, and emits step kernels
    on the interval partition of the merged space.  Requires every
    kernel to be constant on tuples of merged atoms; the induced joint
    law then equals that of :func:`represent_family` on the merged
    space.

    Raises
    ------
    MeasurabilityError
        If some kernel separates atoms that share a code.  The error
        carries a witness pair of atom tuples.
    """
    if not isinstance(family.domain, DiscreteSpace):
        raise SpecError("cantor_represent_family expects a family of table kernels")
    if family.domain != space:
        raise SpecError("family is defined over a different space")
    codes, first, of = _sigma_table(space, generators)
    rep_of = first[of]  # each atom's class representative, the first atom with its code
    for k in family:
        rep_values = k.values[np.ix_(*[rep_of] * k.arity)]
        differ = np.argwhere(k.values != rep_values)
        if len(differ):
            # the first mismatch in product order; its representative
            # tuple is the first tuple of its code class in that order
            index = tuple(differ[0])
            witness = (k.key_at(rep_of[list(index)]), k.key_at(index))
            values = (rep_values[index].item(), k.values[index].item())
            raise MeasurabilityError(k.name, witness, values)

    merged_ids = tuple(str(CantorCode(tuple(bits))) for bits in codes.tolist())
    # bincount adds each class's probabilities in atom order, as a Python sum would
    merged = DiscreteSpace(merged_ids, tuple(np.bincount(of, space.probs).tolist()))
    return family.on_domain(
        interval_partition(merged), [k.values[np.ix_(*[first] * k.arity)] for k in family]
    )
