import json

import pytest

from unirep import (
    SpecError,
    dump_represented,
    loads_spec,
    represent_family,
)

from util import LABELS3, REAL, UNIT, random_family, random_kernel, random_space, space

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
        assert doc.cdfs["wait"].kind == "pwl"

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


class TestRepresentedArtifactRoundTrip:
    def test_roundtrip(self):
        rng = np.random.default_rng(51)
        sp = random_space(rng, 3)
        fam = random_family(rng, sp, [("f", 2, REAL, False), ("g", 1, REAL, False)])
        rep = represent_family(sp, fam)
        artifact = dump_represented(rep)
        doc = loads_spec(json.dumps(artifact))
        assert doc.partition == rep.domain
        for orig, back in zip(rep, doc.family):
            assert back.name == orig.name
            assert back.arity == orig.arity
            assert back.value_space == orig.value_space
            assert back.table == orig.table

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
