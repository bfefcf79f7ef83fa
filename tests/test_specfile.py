import json
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unirep import (
    ArityError,
    RangeError,
    SpecError,
    cantor_represent_family,
    dump_represented,
    exact_joint_law,
    loads_spec,
    represent_family,
    step_family_as_space,
)
from unirep import specfile
from unirep.cli import _indented, main
from unirep.specfile import _represented

from util import (
    LABELS3, REAL, UNIT, dump_represented_oracle, random_family, random_kernel, random_space, space,
)

import numpy as np


DEMO = {
    "space": {"atoms": ["a", "b", "c"], "probs": [0.5, 0.3, 0.2]},
    "generators": [["a"], ["a", "b"]],
    "kernels": [
        {
            "name": "f",
            "arity": 2,
            "value_space": "unit",
            "symmetric": True,
            "values": {
                "a,a": 0.1, "a,b": 0.4, "a,c": 0.6,
                "b,b": 0.2, "b,c": 0.5, "c,c": 0.3,
            },
        }
    ],
    "cdfs": {"wait": {"kind": "pwl", "points": [[0.0, 0.0], [2.0, 1.0]]}},
}


class TestLoadSpec:
    def test_full_document(self):
        doc = loads_spec(json.dumps(DEMO))
        assert doc.space.atom_ids == ("a", "b", "c")
        assert doc.generators == (("a",), ("a", "b"))
        assert doc.family.names == ("f",)

    def test_symmetric_orbit_completed(self):
        doc = loads_spec(json.dumps(DEMO))
        k = doc.family.kernels[0]
        assert k.table[("b", "a")] == 0.4
        assert k.table[("c", "a")] == 0.6
        assert len(k.table) == 9

    def test_symmetric_arity_12_orbits(self):
        # one entry per orbit, 13 of the 4096 tuples, each listed b's first
        values = {
            ",".join(["b"] * j + ["a"] * (12 - j)): j / 12 for j in range(13)
        }
        doc = {
            "space": {"atoms": ["a", "b"], "probs": [0.5, 0.5]},
            "kernels": [{
                "name": "f", "arity": 12, "value_space": "unit", "symmetric": True,
                "values": values,
            }],
        }
        k = loads_spec(json.dumps(doc)).family.kernels[0]
        assert len(k.table) == 4096
        rng = np.random.default_rng(54)
        for key in rng.choice(["a", "b"], size=(200, 12)).tolist():
            assert k.table[tuple(key)] == key.count("b") / 12

    def test_orbit_listing_equals_full_table(self):
        # one randomly permuted key per orbit loads the kernel of the full table
        rng = np.random.default_rng(55)
        for trial in range(30):
            sp = random_space(rng, int(rng.integers(1, 5)))
            arity = int(rng.integers(1, 5))
            vs = (REAL, UNIT, LABELS3)[trial % 3]
            kernel = random_kernel(rng, sp, arity, vs, "f", symmetric=True)
            listed = {}
            for key, v in kernel.table.items():
                if tuple(sorted(key, key=sp.index)) == key:
                    listed[",".join(rng.permutation(key))] = v
            doc = {
                "space": {"atoms": list(sp.atom_ids), "probs": list(sp.probs)},
                "kernels": [{
                    "name": "f", "arity": arity, "symmetric": True,
                    "value_space": {"labels": 3} if vs == LABELS3 else vs.kind,
                    "values": {k: listed[k] for k in rng.permutation(list(listed))},
                }],
            }
            loaded = loads_spec(json.dumps(doc)).family.kernels[0]
            assert loaded.values.dtype == kernel.values.dtype
            assert loaded.values.tolist() == kernel.values.tolist()

    def test_conflicting_orbit_rejected(self):
        bad = json.loads(json.dumps(DEMO))
        bad["kernels"][0]["values"]["b,a"] = 0.9
        with pytest.raises(SpecError):
            loads_spec(json.dumps(bad))

    def test_malformed_probs_names_field(self):
        bad = {"space": {"atoms": ["a", "b"], "probs": [0.7, 0.7]}}
        with pytest.raises(SpecError) as excinfo:
            loads_spec(json.dumps(bad))
        assert "probs" in str(excinfo.value)

    def test_missing_table_entry(self):
        bad = json.loads(json.dumps(DEMO))
        del bad["kernels"][0]["values"]["c,c"]
        with pytest.raises(SpecError) as excinfo:
            loads_spec(json.dumps(bad))
        assert "kernels[0]" in str(excinfo.value)

    def test_comma_in_atom_id_rejected(self):
        bad = {"space": {"atoms": ["a,b"], "probs": [1.0]}}
        with pytest.raises(SpecError):
            loads_spec(json.dumps(bad))

    def test_label_values_coerced_to_int(self):
        doc = loads_spec(json.dumps({
            "space": {"atoms": ["a", "b"], "probs": [0.5, 0.5]},
            "kernels": [{
                "name": "lab", "arity": 1, "value_space": {"labels": 3},
                "values": {"a": 1.0, "b": 2},
            }],
        }))
        assert doc.family.kernels[0].table[("a",)] == 1
        assert isinstance(doc.family.kernels[0].table[("a",)], int)

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
    def test_symmetric_must_be_boolean(self, flag):
        bad = json.loads(json.dumps(DEMO))
        bad["kernels"][0]["symmetric"] = flag
        with pytest.raises(SpecError) as excinfo:
            loads_spec(json.dumps(bad))
        assert excinfo.value.field == "kernels[0].symmetric"

    def test_bad_value_space(self):
        bad = json.loads(json.dumps(DEMO))
        bad["kernels"][0]["value_space"] = "octonion"
        with pytest.raises(SpecError):
            loads_spec(json.dumps(bad))

    def test_not_json(self):
        with pytest.raises(SpecError):
            loads_spec("{nope")

    def test_space_and_partition_exclusive(self):
        bad = {
            "space": {"atoms": ["a"], "probs": [1.0]},
            "partition": {"breakpoints": [0.0, 1.0], "cells": ["a"]},
        }
        with pytest.raises(SpecError):
            loads_spec(json.dumps(bad))


def _kernel_spec(values, arity=2, value_space="real", symmetric=False, cells=False, literal=None):
    """A one-kernel spec as JSON text; ``literal`` replaces the value 7."""
    domain = (
        {"partition": {"breakpoints": [0.0, 0.5, 1.0], "cells": ["a", "b"]}}
        if cells
        else {"space": {"atoms": ["a", "b", "c"], "probs": [0.5, 0.3, 0.2]}}
    )
    kernel = {"name": "f", "arity": arity, "value_space": value_space,
              "symmetric": symmetric, "values": values}
    text = json.dumps({**domain, "kernels": [kernel]})
    return text.replace(": 7", ": " + literal) if literal else text


_FULL = {f"{x},{y}": 0.5 for x in "abc" for y in "abc"}
_CELL_FULL = {f"{i},{j}": 0.5 for i in range(2) for j in range(2)}
_CELL_DISTINCT = {f"{i},{j}": 2 * i + j + 0.5 for i in range(2) for j in range(2)}
_ORBITS = {"a,a": 0.1, "a,b": 0.4, "a,c": 0.6, "b,b": 0.2, "b,c": 0.5, "c,c": 0.3}
_LABELS = {"labels": 3}
VALUES = "kernels[0].values"


def _respelled(table, key, spelling):
    """``table`` with ``key`` listed as ``spelling``, in the same place."""
    return {spelling if k == key else k: v for k, v in table.items()}


# (spec text, exception class or None if accepted, its field, and the key
# fragment its message names -- or, when accepted, a (key, value) it loads
# or a spec text whose first kernel has the same value array)
LOADER_CASES = {
    "unknown_atom": (_kernel_spec({**_FULL, "a,q": 0.5}), SpecError, VALUES, "('a', 'q')"),
    "one_comma_too_many": (
        _kernel_spec({**_FULL, "a,b,c": 0.5}), SpecError, VALUES, "('a', 'b', 'c')"),
    "one_comma_too_few": (_kernel_spec({**_FULL, "a": 0.5}), SpecError, VALUES, "('a',)"),
    "cell_out_of_range": (
        _kernel_spec({**_CELL_FULL, "0,7": 0.5}, cells=True), SpecError, VALUES, "7"),
    "cell_negative": (
        _kernel_spec({**_CELL_FULL, "0,-1": 0.5}, cells=True), SpecError, VALUES, "-1"),
    "cell_not_integer": (
        _kernel_spec({**_CELL_FULL, "0,x": 0.5}, cells=True), SpecError, VALUES, "'0,x'"),
    "cell_tuple_listed_twice": (
        _kernel_spec({**_CELL_FULL, "00,1": 0.5}, cells=True), SpecError, VALUES, "'00,1'"),
    "cell_out_of_range_then_not_integer": (
        _kernel_spec({**_CELL_FULL, "0,7": 0.5, "0,x": 0.5}, cells=True),
        SpecError, VALUES, "'0,x'"),
    **{
        f"cell_spelled_{name}": (
            _kernel_spec(_respelled(_CELL_DISTINCT, key, spelling), cells=True),
            None, None, _kernel_spec(_CELL_DISTINCT, cells=True))
        for name, key, spelling in (
            ("with_space", "0,1", "0, 1"), ("zero_padded", "1,0", "01,0"),
            ("with_plus", "1,1", "+1,1"))
    },
    "orbit_conflict": (
        _kernel_spec({**_ORBITS, "b,a": 0.9}, symmetric=True), SpecError, VALUES, "'b,a'"),
    "orbit_conflict_reversed": (
        _kernel_spec({"b,a": 0.9, **_ORBITS}, symmetric=True), SpecError, VALUES, "'a,b'"),
    "orbit_repeat_equal": (
        _kernel_spec({**_ORBITS, "b,a": 0.4}, symmetric=True), None, None, (("b", "a"), 0.4)),
    "missing_tuple": (
        _kernel_spec({k: v for k, v in _FULL.items() if k != "c,c"}), SpecError, VALUES, None),
    "value_true": (_kernel_spec({**_FULL, "a,b": True}), SpecError, VALUES, "('a', 'b')"),
    "value_string": (_kernel_spec({**_FULL, "a,b": "0.5"}), SpecError, VALUES, "('a', 'b')"),
    "label_fraction": (
        _kernel_spec({"a": 1.5, "b": 0, "c": 1}, 1, _LABELS), SpecError, VALUES, "('a',)"),
    "label_integral_float": (
        _kernel_spec({"a": 2.0, "b": 0, "c": 1}, 1, _LABELS), None, None, (("a",), 2)),
    "real_1e400": (
        _kernel_spec({"a": 7, "b": 0, "c": 1}, 1, literal="1e400"), RangeError, None, "('a',)"),
    "real_10_pow_400": (
        _kernel_spec({"a": 7, "b": 0, "c": 1}, 1, literal="1" + "0" * 400),
        RangeError, None, None),
    "arity_string": (_kernel_spec(_FULL, arity="2"), ArityError, None, None),
    "arity_zero": (_kernel_spec(_FULL, arity=0), ArityError, None, None),
    "arity_true": (_kernel_spec(_FULL, arity=True), ArityError, None, None),
}


@pytest.mark.parametrize("case", LOADER_CASES)
def test_loader_rejection_contract(tmp_path, capsys, case):
    text, raises, field, expect = LOADER_CASES[case]
    path = tmp_path / "spec.json"
    path.write_text(text, encoding="utf-8")
    code = main(["equiv", str(path), str(path), "--n", "1"])
    capsys.readouterr()
    if raises is None:
        if isinstance(expect, str):
            loaded, same = (loads_spec(t).family.kernels[0].values for t in (text, expect))
            assert (loaded.dtype, loaded.tobytes()) == (same.dtype, same.tobytes())
        else:
            key, value = expect
            loaded = loads_spec(text).family.kernels[0].table[key]
            assert (loaded, type(loaded)) == (value, type(value))
        assert code == 0
        return
    with pytest.raises(Exception) as excinfo:
        loads_spec(text)
    assert type(excinfo.value) is raises
    assert getattr(excinfo.value, "field", None) == field
    if expect is not None:
        assert expect in str(excinfo.value)
    assert code == 2


class TestRepresentedArtifactRoundTrip:
    def test_roundtrip(self):
        # dump and the CLI's artifact writer give the oracle's document;
        # load(dump(represent(family))) gives back the represented arrays,
        # and their joint law has the source's support, by either route
        rng = np.random.default_rng(51)
        for trial in range(30):
            size = int(rng.integers(1, 5))
            probs = rng.dirichlet(np.ones(size))
            if trial % 6 == 0:  # a float prefix sum of ten tenths falls short of 1
                probs = np.array([0.1] * 10 + [0.0])
            elif trial % 3 == 0:  # a zero-probability atom at a random place
                probs = np.insert(probs, rng.integers(size + 1), 0.0)
            sp = space([f"a{k}" for k in range(len(probs))], probs.tolist())
            fam = random_family(rng, sp, [
                (name, int(rng.integers(1, 4)), (REAL, UNIT, LABELS3)[(trial + j) % 3],
                 bool(rng.integers(2)))
                for j, name in enumerate("fg")
            ])
            if trial % 2:
                rep = cantor_represent_family(sp, [[a] for a in sp.atom_ids], fam)
            else:
                rep = represent_family(sp, fam)
            text = json.dumps(dump_represented(rep))
            assert text == json.dumps(dump_represented_oracle(rep))
            assert _indented(_represented(rep)) == json.dumps(dump_represented_oracle(rep), indent=2)
            doc = loads_spec(text)
            assert doc.partition == rep.domain
            for orig, back in zip(rep, doc.family):
                assert (back.name, back.arity, back.value_space, back.symmetric) == (
                    orig.name, orig.arity, orig.value_space, orig.symmetric)
                assert back.values.dtype == orig.values.dtype
                assert back.values.tolist() == orig.values.tolist()
                assert back.table == orig.table
            n = int(rng.integers(1, 4))
            law = exact_joint_law(*step_family_as_space(doc.family), n)
            assert law.support.keys() == exact_joint_law(sp, fam, n).support.keys()

    def test_artifact_is_json_serializable(self):
        sp = space("ab", (0.25, 0.75))
        fam = random_family(np.random.default_rng(52), sp, [("f", 2, REAL, False)])
        rep = represent_family(sp, fam)
        text = json.dumps(dump_represented(rep), indent=2)
        assert json.loads(text)["partition"]["breakpoints"] == [0.0, 0.25, 1.0]

    def test_rejects_table_family(self):
        sp = space("ab", (0.25, 0.75))
        fam = random_family(np.random.default_rng(53), sp, [("f", 1, REAL, False)])
        with pytest.raises(SpecError):
            dump_represented(fam)


# One entry of a canonical artifact table changed in one way: its key (dropped,
# listed twice, swapped with another, respelled), or its value text.
_MUTATIONS = {
    "none": None, "drop": None, "duplicate": None, "relist": None, "swap": None,
    "respell_zero": None, "respell_space": None, "conflict": None, "signed_zero": None,
    "true": "true", "null": "null", "string": '"0.5"', "label_fraction": "1.5",
    "label_integral": "2.0", "out_of_range": "7", "negative": "-1", "nan": "NaN",
    "inf": "1e400", "overflow": "1" + "0" * 400,
}


def _spec_text(domain, ids, arity, kind, symmetric, mutation, seed, orbits=False):
    """A one-kernel spec as JSON text: the ``domain`` block and a table over the
    coordinates ``ids`` listing every tuple in C order, or with ``orbits`` one sorted
    tuple per orbit, as the writers list them, with ``mutation`` applied; every
    label 2 is written ``2.0``."""
    rng = np.random.default_rng(seed)
    shape = (len(ids),) * arity
    value_space = {"labels": 4} if kind == "labels" else kind
    values = {"labels": lambda: rng.integers(0, 4, shape), "unit": lambda: rng.random(shape),
              "real": lambda: rng.normal(size=shape) * 10.0 ** rng.integers(-5, 5)}[kind]()
    if symmetric:  # each tuple takes the value of its sorted tuple
        values = values[tuple(np.sort(np.indices(shape), axis=0))]
    tuples = [t for t in product(range(len(ids)), repeat=arity) if not orbits or list(t) == sorted(t)]
    keys = [",".join(ids[i] for i in t) for t in tuples]
    texts = [json.dumps(values[t].item()) for t in tuples]
    texts = ["2.0" if kind == "labels" and v == "2" else v for v in texts]
    e, f = (int(i) for i in rng.integers(len(keys), size=2))
    g = tuples.index(tuples[e][::-1]) if tuples[e][::-1] in tuples else f  # entry e reversed
    if mutation == "drop":
        del keys[e], texts[e]
    elif mutation == "duplicate":  # entry f's tuple is lost
        keys[f] = keys[e]
    elif mutation == "relist":  # listed again at the end, with entry f's value
        keys.append(keys[e])
        texts.append(texts[f])
    elif mutation == "swap":
        keys[e], keys[f] = keys[f], keys[e]
    elif mutation.startswith("respell"):
        keys[e] = ("0" if mutation == "respell_zero" else " ") + keys[e]
    elif mutation == "conflict":
        texts[e] = json.dumps(1 - values[tuples[e]].item())
    elif mutation == "signed_zero":  # a tuple and its reverse, in either order
        texts[e], texts[g] = ("0.0", "-0.0") if f % 2 else ("-0.0", "0.0")
    elif _MUTATIONS[mutation] is not None:
        texts[e] = _MUTATIONS[mutation]
    table = "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in zip(keys, texts)) + "}"
    kernel = {"name": "f", "arity": arity, "value_space": value_space, "symmetric": symmetric,
              "values": "TABLE"}
    return json.dumps({**domain, "kernels": [kernel]}).replace('"TABLE"', table)


def _artifact_text(size, arity, kind, symmetric, mutation, seed):
    """A one-kernel step artifact as JSON text (:func:`_spec_text`)."""
    partition = {"breakpoints": [k / size for k in range(size)] + [1.0],
                 "cells": [f"c{k}" for k in range(size)]}
    cells = [str(k) for k in range(size)]
    return _spec_text({"partition": partition}, cells, arity, kind, symmetric, mutation, seed)


def _outcome(text):
    """What ``loads_spec`` makes of ``text``: the value array's dtype and bytes,
    or the exception's type, message and field."""
    try:
        values = loads_spec(text).family.kernels[0].values
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "field", None)
    return values.dtype, values.tobytes()


def _fail(*args, **kwargs):
    raise AssertionError("the general path was taken")


class TestCanonicalLayoutBulkPath:
    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(size=st.integers(1, 12), arity=st.integers(1, 3),
           kind=st.sampled_from(["unit", "real", "labels"]), symmetric=st.booleans(),
           mutation=st.sampled_from(list(_MUTATIONS)), seed=st.integers(0, 2**32 - 1))
    @example(size=2, arity=2, kind="unit", symmetric=True, mutation="signed_zero", seed=0)
    @example(size=3, arity=3, kind="real", symmetric=True, mutation="signed_zero", seed=1)
    @example(size=3, arity=2, kind="unit", symmetric=True, mutation="conflict", seed=2)
    @example(size=4, arity=2, kind="labels", symmetric=False, mutation="overflow", seed=3)
    @example(size=12, arity=1, kind="real", symmetric=False, mutation="respell_space", seed=4)
    def test_bulk_path_equals_general_path(self, size, arity, kind, symmetric, mutation, seed):
        """A table in the canonical layout loads in bulk to the bytes that the
        general path gives; any other table, and any table the bulk path
        doubts, gives the general path's result: the same array, or the same
        exception type, message and field."""
        text = _artifact_text(size, arity, kind, symmetric, mutation, seed)
        got = _outcome(text)
        listed = list(json.loads(text)["kernels"][0]["values"])
        canonical = listed == [",".join(map(str, t)) for t in product(range(size), repeat=arity)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(specfile, "_keys", lambda *args: None)  # no layout matches
            assert got == _outcome(text)
            mp.undo()
            mp.setattr(specfile, "values_from_table", _fail)
            if mutation == "none":  # the bulk path reads it: the general one cannot
                assert got == _outcome(text)
            elif not canonical:  # only the canonical layout is read in bulk
                with pytest.raises(AssertionError, match="general path"):
                    loads_spec(text)

    def test_signed_zero_orbit_takes_first_listed_value(self):
        # the orbit of (0, 1) lists 0.0 first: both tuples load as 0.0, bit for bit
        text = json.dumps({
            "partition": {"breakpoints": [0.0, 0.5, 1.0], "cells": ["a", "b"]},
            "kernels": [{"name": "f", "arity": 2, "value_space": "real", "symmetric": True,
                         "values": {"0,0": 1.0, "0,1": 0.0, "1,0": -0.0, "1,1": 2.0}}],
        })
        values = loads_spec(text).family.kernels[0].values
        assert values.tobytes() == np.array([[1.0, 0.0], [0.0, 2.0]]).tobytes()


# Atom ids that may spell a key of another table, or hold the newline or NUL that
# keys the bulk path must never read: unicode, spaces, digits, the empty id.
_ID_CHARS = st.sampled_from(["a", "b", "0", "1", " ", "é", "☃", "\n", "\0", "\ud800"])
_IDS = st.lists(st.text(_ID_CHARS, max_size=3), min_size=1, max_size=6, unique=True)


class TestAtomTableBulkPath:
    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(ids=_IDS, arity=st.integers(1, 3), kind=st.sampled_from(["unit", "real", "labels"]),
           layout=st.sampled_from(["full", "symmetric", "orbits"]),
           mutation=st.sampled_from(list(_MUTATIONS)), seed=st.integers(0, 2**32 - 1))
    @example(ids=["x", "y"], arity=2, kind="real", layout="symmetric", mutation="signed_zero",
             seed=1)
    @example(ids=["x", "y", "z"], arity=3, kind="unit", layout="orbits", mutation="none", seed=1)
    @example(ids=["", " ", "1"], arity=2, kind="labels", layout="orbits", mutation="none", seed=2)
    @example(ids=["a", "a\na"], arity=1, kind="real", layout="full", mutation="swap", seed=3)
    @example(ids=["a\0", "b"], arity=2, kind="unit", layout="full", mutation="none", seed=4)
    def test_bulk_path_equals_general_path(self, ids, arity, kind, layout, mutation, seed):
        """A space table in a canonical layout (every tuple in C order, or one sorted
        tuple per orbit of a symmetric kernel) loads in bulk to the bytes that the
        general path gives, unless an id holds a newline or a NUL; any other table,
        and any table the bulk path doubts, gives the general path's result."""
        symmetric, orbits = layout != "full", layout == "orbits"
        space = {"atoms": ids, "probs": [1 / len(ids)] * len(ids)}
        text = _spec_text({"space": space}, ids, arity, kind, symmetric, mutation, seed, orbits)
        got = _outcome(text)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(specfile, "_keys", lambda *args: None)  # no layout matches
            assert got == _outcome(text)
            mp.undo()
            mp.setattr(specfile, "values_from_table", _fail)
            plain = not any(c in "".join(ids) for c in "\n\0\ud800")
            if mutation == "none" and plain:  # read in bulk
                assert got == _outcome(text)
            elif not plain:  # these ids never take the bulk path
                with pytest.raises(AssertionError, match="general path"):
                    loads_spec(text)

    def test_newline_ids_never_join_to_the_canonical_text(self):
        # the keys "a\na", "a" join to the text of the canonical listing "a", "a\na"
        text = json.dumps({
            "space": {"atoms": ["a", "a\na"], "probs": [0.5, 0.5]},
            "kernels": [{"name": "f", "arity": 1, "value_space": "real",
                         "values": {"a\na": 1.0, "a": 2.0}}],
        })
        assert loads_spec(text).family.kernels[0].values.tolist() == [2.0, 1.0]
