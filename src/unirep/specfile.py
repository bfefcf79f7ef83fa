"""JSON spec-file ingestion and artifact serialization.

A spec document is a JSON object with any of the blocks

- ``"space"``: ``{"atoms": [...], "probs": [...]}``
- ``"generators"``: lists of atom-id strings, ``[["a"], ["a", "b"], ...]``
- ``"kernels"``: list of
  ``{"name": ..., "arity": m, "values": {"a,b": 0.7, ...},
  "symmetric": true, "value_space": "unit" | "real" | {"labels": K}}``
- ``"partition"``: ``{"breakpoints": [...], "cells": [...]}`` with the
  kernels keyed by cell indices (``"values": {"0,1": 0.7}``) -- the
  form :func:`dump_represented` writes and ``represent`` emits.

Other top-level keys are ignored.  Table keys join atom ids (or cell
indices) with commas, so atom ids in spec files must be comma-free
strings.  When a kernel is flagged symmetric, its ``values`` may list one
representative per orbit; the loader completes the orbit and rejects
inconsistent duplicates.

The JSON that ``represent``, ``encode`` and ``equiv`` print is byte for
byte ``json.dumps(doc, indent=2)`` plus one newline.  Artifacts list every
cell tuple in C order, cells as ``str(c)`` joined by commas (:func:`_keys`).
A table of plain numbers is read in bulk by one ``np.array``
(:func:`_canonical_table`) when its keys, atom ids or cells, list every
tuple in C order or, for a symmetric kernel, one sorted tuple per orbit in
C order.  Other orders, cell spellings that ``int()`` reads, ids holding a
newline or a NUL, orbit listings of more than 64 tuples per key, and full
symmetric listings whose mirrored tuples differ in a bit are split, placed
and checked in time linear in the table size by
:func:`~unirep.kernels.values_from_table`, with the same results and errors.

Errors raise :class:`~unirep.errors.SpecError` with a field path
locating the offending entry.
"""

from __future__ import annotations

import json
import math
from contextlib import suppress
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import SpecError, UnirepError
from .kernels import Kernel, KernelFamily, ValueSpace, _sorted, check_arity, values_from_table
from .spaces import DiscreteSpace, IntervalPartition

__all__ = ["SpecDocument", "load_spec", "loads_spec", "dump_represented"]


@dataclass(frozen=True)
class SpecDocument:
    """Validated domain objects parsed from one spec file."""

    space: DiscreteSpace | None
    partition: IntervalPartition | None
    generators: tuple[tuple[str, ...], ...] | None
    family: KernelFamily | None

    @property
    def domain(self):
        return self.space if self.space is not None else self.partition

    def require(self, attr: str):
        value = getattr(self, attr)
        if value is None:
            raise SpecError(f"spec file is missing the {attr!r} block", field=attr)
        return value


def load_spec(path) -> SpecDocument:
    """Parse and validate a spec file from disk."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SpecError(f"{path} is not UTF-8 text: {exc.reason}") from None
    return loads_spec(text, source=str(path))


def loads_spec(text: str, source: str = "<spec>") -> SpecDocument:
    """Parse and validate a spec document from a JSON string."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too deep, or an integer of too many digits
        raise SpecError(f"{source} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError(f"{source} must be a JSON object")
    return parse_spec(doc)


def parse_spec(doc: dict) -> SpecDocument:
    space = _parse_space(doc["space"]) if "space" in doc else None
    partition = _parse_partition(doc["partition"]) if "partition" in doc else None
    if space is not None and partition is not None:
        raise SpecError("a spec file carries either a space or a partition, not both")

    generators = None
    if "generators" in doc:
        gens = doc["generators"]
        if not isinstance(gens, list) or not all(
            isinstance(g, list) and all(isinstance(a, str) for a in g) for g in gens
        ):
            raise SpecError("must be a list of lists of atom-id strings", field="generators")
        generators = tuple(tuple(g) for g in gens)

    family = None
    if "kernels" in doc:
        if space is None and partition is None:
            raise SpecError("kernels need a space or partition block", field="kernels")
        domain = space if space is not None else partition
        kernels = doc["kernels"]
        if not isinstance(kernels, list) or not kernels:
            raise SpecError("must be a nonempty list", field="kernels")
        parsed = tuple(
            _parse_kernel(k, domain, f"kernels[{i}]") for i, k in enumerate(kernels)
        )
        family = KernelFamily(parsed)

    return SpecDocument(space, partition, generators, family)


def _numbers(items, path: str) -> list[float]:
    """The floats of a JSON list of numbers; anything else is a SpecError."""
    if isinstance(items, list) and all(type(x) in (int, float) for x in items):
        try:
            return [float(x) for x in items]
        except OverflowError:
            pass
    raise SpecError("must be a list of numbers in the 64-bit float range", field=path)


def _parse_space(block, path: str = "space") -> DiscreteSpace:
    if not isinstance(block, dict):
        raise SpecError("must be an object with atoms and probs", field=path)
    try:
        atoms = block["atoms"]
        probs = block["probs"]
    except KeyError as exc:
        raise SpecError(f"missing field {exc.args[0]!r}", field=path) from None
    if not isinstance(atoms, list):
        raise SpecError("must be a list", field=f"{path}.atoms")
    for a in atoms:
        if not isinstance(a, str) or "," in a:
            raise SpecError(
                f"atom ids in spec files are comma-free strings, got {a!r}",
                field=f"{path}.atoms",
            )
    probs = _numbers(probs, f"{path}.probs")
    try:
        return DiscreteSpace(atoms, probs)
    except SpecError as exc:
        raise SpecError(exc.message, field=f"{path}.{exc.field or 'probs'}") from None


def _parse_partition(block, path: str = "partition") -> IntervalPartition:
    if not isinstance(block, dict):
        raise SpecError("must be an object with breakpoints and cells", field=path)
    try:
        bp = block["breakpoints"]
        cells = block["cells"]
    except KeyError as exc:
        raise SpecError(f"missing field {exc.args[0]!r}", field=path) from None
    bp = _numbers(bp, f"{path}.breakpoints")
    if not isinstance(cells, list) or not all(isinstance(c, (str, int)) for c in cells):
        raise SpecError("must be a list of string or integer labels", field=f"{path}.cells")
    try:
        return IntervalPartition(tuple(bp), tuple(cells))
    except SpecError as exc:
        raise SpecError(exc.message, field=path) from None


def _parse_value_space(obj, path: str) -> ValueSpace:
    try:
        if obj in ("real", "unit"):
            return ValueSpace(obj)
        if isinstance(obj, dict) and set(obj) == {"labels"}:
            return ValueSpace("labels", obj["labels"])
    except SpecError as exc:
        raise SpecError(exc.message, field=path) from None
    raise SpecError(
        f"value_space must be \"unit\", \"real\" or {{\"labels\": K}}, got {obj!r}",
        field=path,
    )


def _parse_kernel(block, domain, path: str) -> Kernel:
    if not isinstance(block, dict):
        raise SpecError("must be an object", field=path)
    for required in ("name", "arity", "values", "value_space"):
        if required not in block:
            raise SpecError(f"missing field {required!r}", field=path)
    name = block["name"]
    if not isinstance(name, str) or not name:
        raise SpecError("kernel name must be a nonempty string", field=f"{path}.name")
    arity = block["arity"]
    check_arity(arity)
    value_space = _parse_value_space(block["value_space"], f"{path}.value_space")
    symmetric = block.get("symmetric", False)
    if not isinstance(symmetric, bool):
        raise SpecError(f"must be true or false, got {symmetric!r}", field=f"{path}.symmetric")
    raw = block["values"]
    if not isinstance(raw, dict):
        raise SpecError("values must be an object", field=f"{path}.values")

    keys, values = list(raw), list(raw.values())
    if value_space.kind == "labels" and float in map(type, values):
        values = [int(v) if type(v) is float and v.is_integer() else v for v in values]
    by_cells = isinstance(domain, IntervalPartition)
    ids = list(map(str, range(len(domain)))) if by_cells else domain.atom_ids
    if set(map(type, values)) <= ({int} if value_space.kind == "labels" else {int, float}):
        with suppress(OverflowError, UnicodeError, UnirepError):  # else the general path decides
            table = _canonical_table(keys, values, ids, arity, value_space.dtype, symmetric)
            if table is not None:
                return Kernel(name, arity, value_space, domain, table, symmetric)
    position = {c: i for i, c in enumerate(ids)}
    widths = np.fromiter(map(str.count, keys, repeat(",")), np.int64, len(keys)) + 1
    parts = ",".join(keys).split(",") if keys else []  # every key's coordinates, in order
    coords = np.fromiter(map(position.get, parts, repeat(-1)), np.int64, len(parts))
    if by_cells:  # cells spelled another way that int() reads, such as "01" or " 1"
        for i in np.flatnonzero(coords < 0).tolist():
            try:
                cell = int(parts[i])
            except ValueError:
                bad = keys[np.searchsorted(np.cumsum(widths), i, side="right")]
                why = f"cell-table key {bad!r} is not a comma-joined index tuple"
                raise SpecError(why, field=f"{path}.values") from None
            coords[i] = cell if 0 <= cell < len(domain) else -1
    # row e of positions: the positions of key e's coordinates, or -1s if it has another width
    rows = np.minimum((np.cumsum(widths) - widths)[:, None] + np.arange(arity), len(parts) - 1)
    positions = np.where((widths == arity)[:, None], coords[rows], -1)
    try:
        table = values_from_table(
            keys, positions, values, len(position), value_space, f"kernel {name!r}", symmetric
        )
        return Kernel(name, arity, value_space, domain, table, symmetric)
    except SpecError as exc:
        raise SpecError(exc.message, field=f"{path}.values") from None


def _decimals(n: int) -> np.ndarray:
    """Row v holds ``str(v)``, v = 0..n, right-aligned in ``len(str(n))``
    bytes with NULs in front, as one ``V{width}`` item."""
    width = len(str(n))
    v = np.arange(n + 1, dtype=np.min_scalar_type(n))  # the narrowest type divides fastest
    table = np.zeros((n + 1, width), dtype=np.uint8)
    for d in range(width):  # decimal place d is present from v = 10**d on
        table[10**d :, -1 - d] = v[10**d :] // 10**d % 10 + ord("0")
    table[0, -1] = ord("0")
    return table.view(f"V{width}")[:, 0]


def _cell_records(ids, arity: int, head: str = "", tail: str = "\n") -> bytearray:
    """The records ``head + "c0,...,c(m-1)" + tail`` of all ``(len(ids),) * arity`` tuples in
    C order, coordinate c spelled ``str(ids[c])`` in UTF-8, NUL-padded (``tail`` may hold NULs)."""
    names = np.array([str(c).encode() for c in ids])
    size, width = len(names), names.itemsize
    record = (head + ",".join(["\0" * width] * arity) + tail).encode()
    buf = bytearray(record * size**arity)
    rows = np.frombuffer(buf, np.uint8).reshape(*(size,) * arity, len(record))
    for a in range(arity):  # coordinate a of every record, broadcast along the other axes
        at = len(head) + a * (width + 1)
        rows[..., at : at + width] = names.view(np.uint8).reshape(size, *[1] * (arity - 1 - a), -1)
    return buf


def _keys(ids, arity: int, rows=slice(None)) -> str:
    """The keys of the tuples of :func:`_cell_records` in C order, or of the flat tuple indices
    ``rows`` alone, one per line: as the writers list them."""
    records = np.frombuffer(_cell_records(ids, arity), np.uint8).reshape(len(ids) ** arity, -1)
    return records[rows].tobytes().translate(None, b"\0")[:-1].decode()


def _canonical_table(keys: list, values: list, ids, arity: int, dtype, symmetric: bool):
    """The value array of a table whose ``keys`` name every tuple of ``ids`` in C order, or,
    if ``symmetric``, one sorted tuple (a <= b <= ... by position) per orbit in C order of the
    sorted tuples; None for any other listing.  Ids holding a newline, which could make other
    keys join to the same text, or a NUL, the padding, are never read this way, nor is a table
    of more than 64 tuples per key, whose work arrays could outgrow the memory of its input."""
    size, shape = len(ids), (len(ids),) * arity
    full = len(keys) == size**arity
    listed = full or symmetric and len(keys) == math.comb(size + arity - 1, arity)
    if not listed or size**arity > 64 * len(keys) or any("\n" in a or "\0" in a for a in ids):
        return None
    if not full:  # the flat index of each tuple's sorted tuple, and the sorted tuples
        at = np.ravel_multi_index(_sorted(np.ix_(*[np.arange(size)] * arity)), shape).ravel()
        orbits = at == np.arange(at.size)
    if "\n".join(keys) != _keys(ids, arity, slice(None) if full else orbits):
        return None
    table = np.array(values, dtype)
    if not full:  # each tuple takes the entry listed for its sorted tuple
        return table[(np.cumsum(orbits) - 1)[at]].reshape(shape)
    table = table.reshape(shape)
    bits = table.view(np.int64)  # bit for bit: a -0.0, 0.0 orbit goes the general way
    if symmetric and not all((bits == bits.swapaxes(a - 1, a)).all() for a in range(1, arity)):
        return None
    return table


def _dump_value_space(vs: ValueSpace):
    if vs.kind == "labels":
        return {"labels": vs.num_labels}
    return vs.kind


def _represented(family: KernelFamily) -> dict:
    """The artifact document of a step family, each table as its value array."""
    if not isinstance(family.domain, IntervalPartition):
        raise SpecError("dump_represented expects a family of step kernels")
    partition = family.domain
    return {
        "partition": {"breakpoints": list(partition.breakpoints), "cells": list(partition.cell_labels)},
        "kernels": [
            {"name": k.name, "arity": k.arity, "value_space": _dump_value_space(k.value_space),
             "symmetric": k.symmetric, "values": k.values}
            for k in family
        ],
    }


def dump_represented(family: KernelFamily) -> dict:
    """Serialize a step family (with its partition) to the artifact form
    accepted back by :func:`load_spec`."""
    doc = _represented(family)
    for k in doc["kernels"]:
        keys = _keys(range(len(family.domain)), k["arity"]).split("\n")
        k["values"] = dict(zip(keys, k["values"].ravel().tolist()))
    return doc
