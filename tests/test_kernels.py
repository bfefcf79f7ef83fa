from itertools import permutations

import numpy as np
import pytest

from unirep import (
    ArityError,
    Kernel,
    KernelFamily,
    RangeError,
    SpecError,
    SymmetryError,
    UnsupportedError,
    ValueSpace,
    check_symmetry,
    eval_kernel,
    interval_partition,
    represent_family,
)
from unirep.kernels import value_array

from util import LABELS3, REAL, UNIT, const_graph_kernel, random_kernel, space, table_kernel, two_block_kernel


class TestKernelValidation:
    def test_table_must_cover_all_tuples(self):
        sp = space("ab", (0.5, 0.5))
        with pytest.raises(SpecError):
            Kernel(
                name="f",
                arity=2,
                value_space=UNIT,
                domain=sp,
                table={("a", "a"): 0.1},
            )

    def test_unknown_atom_in_key(self):
        sp = space("ab", (0.5, 0.5))
        table = {(a, b): 0.1 for a in "ab" for b in "ab"}
        table[("a", "z")] = 0.2
        with pytest.raises(SpecError):
            Kernel(name="f", arity=2, value_space=UNIT, domain=sp, table=table)

    def test_unit_values_out_of_range(self):
        sp = space("ab", (0.5, 0.5))
        with pytest.raises(RangeError):
            table_kernel("f", sp, {("a",): 0.5, ("b",): 1.5})

    def test_label_values_checked(self):
        sp = space("ab", (0.5, 0.5))
        with pytest.raises(RangeError):
            table_kernel("f", sp, {("a",): 0, ("b",): 7}, value_space=LABELS3)
        with pytest.raises(SpecError):
            table_kernel("f", sp, {("a",): 0, ("b",): 0.5}, value_space=LABELS3)

    def test_symmetric_flag_verified_eagerly(self):
        sp = space("ab", (0.5, 0.5))
        asym = {("a", "a"): 0.0, ("a", "b"): 1.0, ("b", "a"): 0.0, ("b", "b"): 0.0}
        with pytest.raises(SymmetryError):
            table_kernel("f", sp, asym, symmetric=True)

    def test_infinite_arity_unsupported(self):
        sp = space("a", (1.0,))
        with pytest.raises(UnsupportedError):
            Kernel(
                name="f",
                arity=float("inf"),
                value_space=UNIT,
                domain=sp,
                table={},
            )

    def test_family_needs_common_domain(self):
        sp1 = space("ab", (0.5, 0.5))
        sp2 = space("ab", (0.3, 0.7))
        k1 = table_kernel("f", sp1, {("a",): 0.1, ("b",): 0.2})
        k2 = table_kernel("g", sp2, {("a",): 0.1, ("b",): 0.2})
        with pytest.raises(SpecError):
            KernelFamily((k1, k2))

    def test_family_needs_distinct_names(self):
        sp = space("ab", (0.5, 0.5))
        k1 = table_kernel("f", sp, {("a",): 0.1, ("b",): 0.2})
        with pytest.raises(SpecError):
            KernelFamily((k1, k1))


class TestEvalKernel:
    def test_constant_kernel(self):
        k = const_graph_kernel(0.3)
        assert eval_kernel(k, (0.9, 0.1)) == 0.3

    def test_two_block_step_kernel(self):
        k = two_block_kernel(within=0.1, across=0.9)
        assert eval_kernel(k, (0.25, 0.75)) == 0.9
        assert eval_kernel(k, (0.25, 0.25)) == 0.1

    def test_arity_three_table_lookup(self):
        sp = space("ab", (0.5, 0.5))
        table = {key: float(i) for i, key in enumerate(
            (a, b, c) for a in "ab" for b in "ab" for c in "ab"
        )}
        k = Kernel(name="f", arity=3, value_space=ValueSpace("real"), domain=sp, table=table)
        assert eval_kernel(k, ("a", "b", "a")) == table[("a", "b", "a")]

    def test_wrong_arity(self):
        k = const_graph_kernel(0.3)
        with pytest.raises(ArityError):
            eval_kernel(k, (0.5,))

    def test_unknown_atom(self):
        sp = space("ab", (0.5, 0.5))
        k = table_kernel("f", sp, {("a",): 0.1, ("b",): 0.2})
        with pytest.raises(SpecError):
            eval_kernel(k, ("z",))

    def test_step_kernel_constant_on_cell_boxes(self):
        k = two_block_kernel()
        rng = np.random.default_rng(3)
        part = k.domain
        for ci in range(2):
            for cj in range(2):
                expected = k.table[(ci, cj)]
                lo_i, hi_i = part.breakpoints[ci], part.breakpoints[ci + 1]
                lo_j, hi_j = part.breakpoints[cj], part.breakpoints[cj + 1]
                us = lo_i + rng.random(100) * (hi_i - lo_i)
                vs = lo_j + rng.random(100) * (hi_j - lo_j)
                assert all(
                    eval_kernel(k, (u, v)) == expected for u, v in zip(us, vs)
                )

    def test_represented_kernel_matches_table_bit_exactly(self):
        rng = np.random.default_rng(17)
        sp = space("abc", (0.5, 0.3, 0.2))
        k = random_kernel(rng, sp, 2, ValueSpace("real"), "f")
        fam = represent_family(sp, KernelFamily((k,)))
        part = interval_partition(sp)
        from unirep import lookup_cell

        for u, v in rng.random((200, 2)).tolist():
            atom_u = sp.atom_ids[lookup_cell(part, u)]
            atom_v = sp.atom_ids[lookup_cell(part, v)]
            assert eval_kernel(fam.kernels[0], (u, v)) == k.table[(atom_u, atom_v)]


class TestCheckSymmetry:
    def test_symmetric_table(self):
        sp = space("ab", (0.5, 0.5))
        sym = {("a", "a"): 0.0, ("a", "b"): 1.0, ("b", "a"): 1.0, ("b", "b"): 0.0}
        k = table_kernel("f", sp, sym)
        ok, witness = check_symmetry(k)
        assert ok and witness is None

    def test_asymmetric_with_counterexample(self):
        sp = space("ab", (0.5, 0.5))
        asym = {("a", "a"): 0.0, ("a", "b"): 1.0, ("b", "a"): 0.0, ("b", "b"): 0.0}
        k = table_kernel("f", sp, asym)
        ok, witness = check_symmetry(k)
        assert not ok
        t1, t2 = witness
        assert sorted(t1) == sorted(t2)
        assert k.table[t1] != k.table[t2]
        assert {t1, t2} == {("a", "b"), ("b", "a")}

    def test_witness_of_first_failing_permutation(self):
        # oracle: the first permutation in lexicographic order that changes
        # the array, and its first differing index in C order
        rng = np.random.default_rng(47)
        for trial in range(40):
            sp = space("abc"[: 2 + trial % 2], [0.5, 0.5] if trial % 2 == 0 else [0.2, 0.3, 0.5])
            arity = 2 + trial % 3
            k = random_kernel(rng, sp, arity, LABELS3, "f")
            for axes in permutations(range(arity)):
                differ = np.argwhere(k.values != k.values.transpose(axes))
                if len(differ):
                    index = tuple(differ[0])
                    moved = [index[axes.index(axis)] for axis in range(arity)]
                    expected = (False, (k.key_at(index), k.key_at(moved)))
                    break
            else:
                expected = (True, None)
            assert check_symmetry(k) == expected

    def test_arity_one_always_symmetric(self):
        sp = space("ab", (0.5, 0.5))
        k = table_kernel("f", sp, {("a",): 0.1, ("b",): 0.9})
        assert check_symmetry(k) == (True, None)


class TestValueArray:
    def test_matches_table(self):
        k = two_block_kernel()
        arr = value_array(k)
        assert arr.shape == (2, 2)
        for key, v in k.table.items():
            assert arr[key] == v

    def test_table_kernel_uses_atom_positions(self):
        sp = space("ab", (0.5, 0.5))
        k = table_kernel("f", sp, {("a",): 0.25, ("b",): 0.75})
        assert value_array(k).tolist() == [0.25, 0.75]


class TestValueStorage:
    def test_table_view_returns_python_scalars(self):
        sp = space("ab", (0.5, 0.5))
        cases = [
            (LABELS3, {("a",): 2, ("b",): 0}, int),
            (REAL, {("a",): 1, ("b",): -2.5}, float),
            (UNIT, {("a",): 0.25, ("b",): 1}, float),
        ]
        for vs, table, kind in cases:
            k = table_kernel("f", sp, table, value_space=vs)
            assert k.table == table
            assert dict(k.table) == table
            assert all(type(v) is kind for v in k.table.values())
            assert list(k.table) == [("a",), ("b",)]

    def test_step_kernel_table_keys_are_cell_indices(self):
        k = two_block_kernel(within=0.1, across=0.9)
        assert dict(k.table) == {(0, 0): 0.1, (0, 1): 0.9, (1, 0): 0.9, (1, 1): 0.1}
        with pytest.raises(KeyError):
            k.table[(0, 2)]
        with pytest.raises(KeyError):
            k.table[(0,)]

    def test_values_and_view_are_read_only(self):
        k = two_block_kernel()
        assert not k.values.flags.writeable
        with pytest.raises(ValueError):
            k.values[0, 0] = 0.5
        with pytest.raises(TypeError):
            k.table[(0, 0)] = 0.5

    def test_array_input_equals_mapping_input(self):
        sp = space("ab", (0.5, 0.5))
        table = {("a", "a"): 0.2, ("a", "b"): 0.7, ("b", "a"): 0.7, ("b", "b"): 0.5}
        from_map = table_kernel("f", sp, table, symmetric=True)
        from_array = Kernel("f", 2, UNIT, sp, np.array([[0.2, 0.7], [0.7, 0.5]]), True)
        assert from_array == from_map
        other = Kernel("f", 2, UNIT, sp, np.array([[0.2, 0.7], [0.7, 0.6]]), True)
        assert other != from_map

    def test_array_input_checked(self):
        sp = space("ab", (0.5, 0.5))
        with pytest.raises(SpecError):
            Kernel("f", 2, UNIT, sp, np.zeros((2, 3)))
        with pytest.raises(SpecError):
            Kernel("f", 1, LABELS3, sp, np.array([0.0, 1.0]))
        with pytest.raises(RangeError):
            Kernel("f", 1, UNIT, sp, np.array([0.5, np.nan]))
        with pytest.raises(SymmetryError):
            Kernel("f", 2, UNIT, sp, np.array([[0.1, 0.2], [0.3, 0.4]]), True)

    def test_values_too_large_for_storage(self):
        sp = space("ab", (0.5, 0.5))
        with pytest.raises(RangeError):
            table_kernel("f", sp, {("a",): 10**400, ("b",): 0.5}, value_space=REAL)
        with pytest.raises(RangeError):
            table_kernel("f", sp, {("a",): 10**30, ("b",): 0}, value_space=LABELS3)

    def test_symmetry_witness_on_arity_three(self):
        sp = space("abc", (0.2, 0.3, 0.5))
        table = {(x, y, z): 0.5 for x in "abc" for y in "abc" for z in "abc"}
        table[("c", "a", "b")] = 0.25
        ok, (t1, t2) = check_symmetry(table_kernel("f", sp, table))
        assert not ok
        assert sorted(t1) == sorted(t2) == ["a", "b", "c"]
        assert table[t1] != table[t2]
