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
inconsistent duplicates.  Tables are split, placed and checked in bulk
by :func:`~unirep.kernels.values_from_table`, in time linear in the
table size.

Errors raise :class:`~unirep.errors.SpecError` with a field path
locating the offending entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product, repeat
from pathlib import Path

import numpy as np

from .errors import SpecError
from .kernels import Kernel, KernelFamily, ValueSpace, check_arity, values_from_table
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
    except json.JSONDecodeError as exc:
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

    by_cells = isinstance(domain, IntervalPartition)
    position = {c: i for i, c in enumerate(range(len(domain)) if by_cells else domain.atom_ids)}
    keys = list(raw)
    widths = np.fromiter(map(str.count, keys, repeat(",")), np.int64, len(keys)) + 1
    parts = ",".join(keys).split(",") if keys else []  # every key's coordinates, in order
    if by_cells:
        cells = []
        try:
            cells.extend(map(int, parts))  # keeps the cells parsed before a failure
        except ValueError:
            bad = keys[np.searchsorted(np.cumsum(widths), len(cells), side="right")]
            why = f"cell-table key {bad!r} is not a comma-joined index tuple"
            raise SpecError(why, field=f"{path}.values") from None
        parts = cells
    # row e of positions: the positions of key e's coordinates, or -1s if it has another width
    coords = np.fromiter(map(position.get, parts, repeat(-1)), np.int64, len(parts))
    rows = np.minimum((np.cumsum(widths) - widths)[:, None] + np.arange(arity), len(parts) - 1)
    positions = np.where((widths == arity)[:, None], coords[rows], -1)
    values = list(raw.values())
    if value_space.kind == "labels" and float in map(type, values):
        values = [int(v) if type(v) is float and v.is_integer() else v for v in values]
    try:
        table = values_from_table(
            keys, positions, values, len(position), value_space, f"kernel {name!r}", symmetric
        )
        return Kernel(name, arity, value_space, domain, table, symmetric)
    except SpecError as exc:
        raise SpecError(exc.message, field=f"{path}.values") from None


def _dump_value_space(vs: ValueSpace):
    if vs.kind == "labels":
        return {"labels": vs.num_labels}
    return vs.kind


def dump_represented(family: KernelFamily) -> dict:
    """Serialize a step family (with its partition) to the artifact form
    accepted back by :func:`load_spec`."""
    if not isinstance(family.domain, IntervalPartition):
        raise SpecError("dump_represented expects a family of step kernels")
    partition = family.domain
    cells = range(len(partition))
    kernels = []
    for k in family:
        keys = (",".join(map(str, key)) for key in product(cells, repeat=k.arity))
        values = dict(zip(keys, k.values.ravel().tolist()))
        kernels.append(
            {
                "name": k.name,
                "arity": k.arity,
                "value_space": _dump_value_space(k.value_space),
                "symmetric": k.symmetric,
                "values": values,
            }
        )
    return {
        "partition": {
            "breakpoints": list(partition.breakpoints),
            "cells": list(partition.cell_labels),
        },
        "kernels": kernels,
    }
