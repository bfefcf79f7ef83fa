"""Models of probability spaces.

Three concrete carriers are supported:

- :class:`DiscreteSpace` -- finitely many atoms with probabilities,
  the source space for table kernels.  Countable spaces enter only via
  truncation (list finitely many atoms; a tail atom may aggregate the
  remainder).
- :class:`Cdf` -- a distribution function on the reals, either a step
  function (atomic law) or a continuous piecewise-linear function.
- :class:`IntervalPartition` -- an ordered partition of [0,1) into
  half-open cells whose lengths are the atom probabilities; this is the
  concrete realization of the unit interval with Lebesgue measure as a
  target space.

Each type checks its invariants when it is built, so a constructed
object is valid; all are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Hashable, Mapping

import numpy as np

from .errors import DomainError, KindError, SpecError, UnsupportedError

__all__ = [
    "DiscreteSpace",
    "Cdf",
    "IntervalPartition",
    "validate_space",
    "interval_partition",
    "lookup_cell",
    "lookup_cells",
    "transport_map",
    "cdf_of_pushforward",
]

#: Probability vectors must sum to 1 within this tolerance before
#: renormalization; large enough to absorb decimal-literal rounding in
#: spec files, small enough to catch genuine errors.
PROB_SUM_TOL = 1e-9

#: Final cumulative value of a CDF must equal 1 within this tolerance.
CDF_END_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteSpace:
    """A finite probability space: ordered atoms with probabilities.

    Construction checks the invariants, raising :class:`SpecError`: at
    least one atom, one probability per atom, pairwise distinct ids, and
    finite nonnegative probabilities that sum to 1 within ``1e-9``.  Then
    it renormalizes them by dividing by their sum.  Zero-probability
    atoms are kept and reported via :attr:`zero_prob_atoms`.
    """

    atom_ids: tuple[Hashable, ...]
    probs: tuple[float, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        atoms, ps = tuple(self.atom_ids), tuple(self.probs)
        if len(atoms) == 0:
            raise SpecError("a space needs at least one atom", field="atoms")
        if len(atoms) != len(ps):
            raise SpecError(f"{len(atoms)} atoms but {len(ps)} probs", field="probs")
        index: dict = {}
        for k, a in enumerate(atoms):
            if index.setdefault(a, k) != k:
                raise SpecError(f"duplicate atom id {a!r}", field="atoms")
        ps = tuple(float(p) for p in ps)
        for a, p in zip(atoms, ps):
            if not np.isfinite(p) or p < 0.0:
                raise SpecError(f"atom {a!r} has invalid probability {p}", field="probs")
        total = math.fsum(ps)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise SpecError(
                f"probs sum to {total!r}, off by more than {PROB_SUM_TOL}",
                field="probs",
            )
        object.__setattr__(self, "atom_ids", atoms)
        object.__setattr__(self, "probs", tuple(p / total for p in ps))
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.atom_ids)

    def index(self, atom: Hashable) -> int:
        """Position of ``atom`` in the atom order."""
        try:
            return self._index[atom]
        except KeyError:
            raise SpecError(f"unknown atom id {atom!r}") from None

    @property
    def zero_prob_atoms(self) -> tuple[Hashable, ...]:
        """Atoms carrying zero probability (kept, but flagged)."""
        return tuple(a for a, p in zip(self.atom_ids, self.probs) if p == 0.0)


def validate_space(atom_ids, probs=None) -> DiscreteSpace:
    """A checked discrete space: ``atom_ids`` itself when it is a
    :class:`DiscreteSpace` (which checked itself when it was built), else
    ``DiscreteSpace(atom_ids, probs)``, which checks and renormalizes."""
    if isinstance(atom_ids, DiscreteSpace):
        return atom_ids
    return DiscreteSpace(atom_ids, probs)


@dataclass(frozen=True)
class IntervalPartition:
    """Ordered half-open subintervals of [0,1].

    Cell ``k`` (0-based) is ``[breakpoints[k], breakpoints[k+1])``; the
    final cell is closed at 1, though sampling from [0,1) never reaches
    the closure.  Empty cells (equal consecutive breakpoints) stand for
    zero-probability atoms and keep cell indices aligned with atom
    indices.
    """

    breakpoints: tuple[float, ...]
    cell_labels: tuple[Hashable, ...]

    def __post_init__(self):
        bp, labels = self.breakpoints, self.cell_labels
        if len(bp) != len(labels) + 1:
            raise SpecError("need exactly one more breakpoint than cells")
        if bp[0] != 0.0 or bp[-1] != 1.0:
            raise SpecError("breakpoints must start at 0 and end at 1")
        if not all(b1 <= b2 for b1, b2 in zip(bp, bp[1:])):  # NaN fails too
            raise SpecError("breakpoints must be nondecreasing")
        if len(set(labels)) != len(labels):
            raise SpecError("cell labels must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.cell_labels)

    @property
    def lengths(self) -> tuple[float, ...]:
        bp = self.breakpoints
        return tuple(bp[k + 1] - bp[k] for k in range(len(self.cell_labels)))


def interval_partition(space: DiscreteSpace) -> IntervalPartition:
    """Partition [0,1) into cells with lengths equal to the atom probabilities.

    Cells follow the space's atom order (no sorting), so cell index k
    corresponds to atom k.  Breakpoint k is the exact prefix sum of the
    first k renormalized probabilities, rounded once to the nearest
    float and clipped to 1; every breakpoint after the last positive
    atom is exactly 1.  Equal exact sums round to equal floats, so
    zero-probability atoms get exactly empty cells, and the rounding
    slack of the whole sum lands on the last positive cell.

    Raises
    ------
    UnsupportedError
        If a positive atom would get an empty cell: one smaller than
        half an ulp of its prefix sum has no float cell of its own.
    """
    last = max(k for k, p in enumerate(space.probs) if p > 0.0)
    # float(Fraction) rounds correctly, like fsum of each prefix, in O(K)
    prefix = accumulate(map(Fraction, space.probs[:last]))
    bp = [0.0, *(min(float(s), 1.0) for s in prefix)]
    bp.extend([1.0] * (len(space) + 1 - len(bp)))
    for a, p, lo, hi in zip(space.atom_ids, space.probs, bp, bp[1:]):
        if p > 0.0 and lo == hi:
            raise UnsupportedError(f"atom {a!r} has probability {p!r} but an empty cell at {lo!r}")
    return IntervalPartition(tuple(bp), space.atom_ids)


def lookup_cell(partition: IntervalPartition, u: float) -> int:
    """Index of the cell containing ``u``.

    Returns the 0-based ``k`` with ``breakpoints[k] <= u <
    breakpoints[k+1]``, skipping empty cells (a point equal to a
    collapsed breakpoint belongs to the first nonempty cell starting
    there).  Binary search, O(log K).

    Raises
    ------
    DomainError
        If ``u`` is outside [0, 1).
    """
    return int(lookup_cells(partition, u))


def lookup_cells(partition: IntervalPartition, u: np.ndarray) -> np.ndarray:
    """:func:`lookup_cell` of every entry of ``u``."""
    bp = np.asarray(partition.breakpoints, dtype=float)
    return np.searchsorted(bp, unit_points(u), side="right") - 1


def unit_points(u) -> np.ndarray:
    """``u`` as a float array; DomainError names its first entry outside [0, 1)."""
    u = np.asarray(u, dtype=float)
    outside = ~((u >= 0.0) & (u < 1.0))
    if outside.any():
        raise DomainError(f"u={u[outside][0].item()!r} outside [0,1)")
    return u


@dataclass(frozen=True)
class Cdf:
    """A distribution function, either a step function or piecewise linear.

    ``points`` is a tuple of ``(x, F(x))`` pairs with strictly
    increasing x.  For ``kind="step"`` the pairs are the jump locations
    with the cumulative value *at* the jump (right-continuous
    convention, implicit F = 0 left of the first jump).  For
    ``kind="pwl"`` the pairs are knots of a continuous nondecreasing
    function with F(first) = 0 and F(last) = 1; such a CDF carries a
    continuous measure (no jumps by construction).

    The final cumulative value must equal 1 within 1e-12 and is snapped
    to exactly 1.
    """

    kind: str
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.kind not in ("step", "pwl"):
            raise SpecError(f"unknown CDF kind {self.kind!r}", field="kind")
        pts = tuple((float(x), float(c)) for x, c in self.points)
        if not pts:
            raise SpecError("a CDF needs at least one point", field="points")
        xs = [x for x, _ in pts]
        cs = [c for _, c in pts]
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise SpecError("x coordinates must be strictly increasing", field="points")
        if any(a > b for a, b in zip(cs, cs[1:])):
            raise SpecError("cumulative values must be nondecreasing", field="points")
        if cs[0] < 0.0 or (self.kind == "pwl" and abs(cs[0]) > CDF_END_TOL):
            raise SpecError("cumulative values must start at >= 0 (pwl: exactly 0)", field="points")
        if abs(cs[-1] - 1.0) > CDF_END_TOL:
            raise SpecError(f"final cumulative value {cs[-1]!r} != 1", field="points")
        cs = [min(c, 1.0) for c in cs]
        cs[-1] = 1.0
        if self.kind == "pwl":
            cs[0] = 0.0
        object.__setattr__(self, "points", tuple(zip(xs, cs)))

    @property
    def xs(self) -> tuple[float, ...]:
        return tuple(x for x, _ in self.points)

    @property
    def cums(self) -> tuple[float, ...]:
        return tuple(c for _, c in self.points)

    def evaluate(self, x: float) -> float:
        """F(x)."""
        return float(self.evaluate_array(x))

    def evaluate_array(self, x: np.ndarray) -> np.ndarray:
        """F at every entry of ``x``."""
        x = np.asarray(x, dtype=float)
        xs = np.asarray(self.xs)
        cs = np.asarray(self.cums)
        j = np.searchsorted(xs, x, side="right")
        if self.kind == "step":
            padded = np.concatenate(([0.0], cs))
            return padded[j]
        j = np.clip(j, 1, len(xs) - 1)
        x0, x1 = xs[j - 1], xs[j]
        c0, c1 = cs[j - 1], cs[j]
        inside = np.clip(x, xs[0], xs[-1])  # the clipped lanes are replaced below
        out = c0 + (inside - x0) * (c1 - c0) / (x1 - x0)
        return np.where(x <= xs[0], 0.0, np.where(x >= xs[-1], 1.0, out))


def transport_map(cdf: Cdf) -> Callable:
    """The map x -> F(x) that pushes the measure encoded by a continuous
    CDF forward to Lebesgue measure on [0,1].

    Only piecewise-linear CDFs qualify: an atomic measure cannot be
    transported to Lebesgue measure, so a step CDF here signals a
    modeling mistake.

    Returns
    -------
    callable
        Accepts a float or an ndarray.

    Raises
    ------
    KindError
        If ``cdf`` is of step kind.
    """
    if cdf.kind != "pwl":
        raise KindError(
            "transport to Lebesgue measure requires a continuous "
            f"(piecewise-linear) CDF, got kind {cdf.kind!r}"
        )

    def mapped(x):
        return cdf.evaluate_array(x) if isinstance(x, np.ndarray) else cdf.evaluate(x)

    return mapped


def cdf_of_pushforward(space: DiscreteSpace, g) -> Cdf:
    """Step CDF of the pushforward of the space's measure through ``g``.

    ``g`` maps atom ids to reals, given either as a mapping or a
    callable.  Jumps sit at the sorted distinct values of ``g`` that
    carry positive mass (values hit only by zero-probability atoms are
    not jumps of the distribution function and are dropped), with
    cumulative values the summed probabilities of atoms mapping at or
    below each jump.
    """
    value_of = g.__getitem__ if isinstance(g, Mapping) else g
    mass: dict[float, float] = {}
    for a, p in zip(space.atom_ids, space.probs):
        y = float(value_of(a))
        if not np.isfinite(y):
            raise SpecError(f"g({a!r}) = {y} is not finite")
        mass[y] = mass.get(y, 0.0) + p
    pts = []
    acc = 0.0
    for y in sorted(mass):
        if mass[y] == 0.0:
            continue
        acc = min(acc + mass[y], 1.0)
        pts.append((y, acc))
    pts[-1] = (pts[-1][0], 1.0)
    return Cdf("step", tuple(pts))
