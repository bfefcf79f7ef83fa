import json
import math
import os
import random
import subprocess
import sys
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unirep import (
    ArityError,
    JointLaw,
    Kernel,
    KernelFamily,
    PATTERNS,
    PatternGraph,
    PowerError,
    ScaleError,
    SpecError,
    UnirepError,
    cantor_represent_family,
    exact_joint_law,
    exchangeability_check,
    graph_law_exact,
    hom_density,
    law_is_exchangeable,
    mc_two_sample_test,
    represent_family,
    sample_array,
    sample_graph,
    sample_latents,
    step_family_as_space,
    tv_distance,
)
from unirep import equivalence, sampling
from unirep.equivalence import _chi2_sf, _fsum, _mask_counts, _observations, _pack
from unirep.sampling import derive_seed, graph_bitmask, sample_graph_edges
from unirep.specfile import parse_spec

from test_bench_hooks import load
from util import (
    LABELS3,
    REAL,
    STATUS_KB,
    UNIT,
    const_graph_kernel,
    exact_joint_law_loop,
    graph_law_loop,
    hom_density_loop,
    law_is_exchangeable_loop,
    random_family,
    random_kernel,
    random_space,
    run_probe,
    space,
    table_kernel,
    tv_distance_loop,
    two_block_kernel,
)


def oracle_kernels():
    """Random arity-2 kernels with zero-probability atoms and zero values,
    symmetric or not, and step kernels, one with an empty cell."""
    rng = np.random.default_rng(38)
    kernels = [two_block_kernel()]
    for trial in range(16):
        size = int(rng.integers(2, 6))
        probs = rng.dirichlet(np.ones(size))
        probs[trial % size] = 0.0
        sp = space([f"a{k}" for k in range(size)], probs / probs.sum())
        values = rng.random((size, size))
        values[rng.random((size, size)) < 0.3] = 0.0
        symmetric = trial % 2 == 0
        if symmetric:
            values = np.triu(values) + np.triu(values, 1).T
        kernels.append(Kernel("f", 2, UNIT, sp, values, symmetric=symmetric))
    kernels.append(represent_family(sp, KernelFamily(kernels[-1:])).kernels[0])
    # 7^4 = 2401 assignments: several blocks of the enumeration at n = 4
    sp = space([f"b{k}" for k in range(7)], [0.25, 0.0, 0.125, 0.125, 0.25, 0.125, 0.125])
    values = rng.random((7, 7))
    kernels.append(Kernel("g", 2, UNIT, sp, np.triu(values) + np.triu(values, 1).T, True))
    return kernels


def cross_kernel(sp, name="f"):
    table = {
        (a, b): (0.0 if a == b else 1.0)
        for a in sp.atom_ids
        for b in sp.atom_ids
    }
    return table_kernel(name, sp, table, symmetric=True)


class TestExactJointLaw:
    def test_single_atom_point_mass(self):
        sp = space("a", (1.0,))
        fam = KernelFamily((table_kernel("f", sp, {("a", "a"): 0.5}),))
        law = exact_joint_law(sp, fam, 2)
        assert law.support == {(0.5, 0.5): 1.0}

    def test_identity_label_kernel(self):
        sp = space("ab", (0.5, 0.5))
        fam = KernelFamily(
            (table_kernel("id", sp, {("a",): 0, ("b",): 1}, value_space=LABELS3),)
        )
        law = exact_joint_law(sp, fam, 1)
        assert law.support == {(0,): 0.5, (1,): 0.5}

    def test_cross_kernel_n2_against_brute_force(self):
        # independent oracle: enumerate the 4 assignments by hand
        sp = space("ab", (0.3, 0.7))
        fam = KernelFamily((cross_kernel(sp),))
        law = exact_joint_law(sp, fam, 2)
        assert law.keys == (("f", (1, 2)), ("f", (2, 1)))
        table = fam.kernels[0].table
        oracle: dict[tuple, float] = {}
        for x1, x2 in product("ab", repeat=2):
            p = {"a": 0.3, "b": 0.7}[x1] * {"a": 0.3, "b": 0.7}[x2]
            vec = (table[(x1, x2)], table[(x2, x1)])
            oracle[vec] = oracle.get(vec, 0.0) + p
        assert oracle[(0.0, 0.0)] == pytest.approx(0.58, abs=1e-12)
        assert oracle[(1.0, 1.0)] == pytest.approx(0.42, abs=1e-12)
        assert set(law.support) == set(oracle)
        for vec, p in oracle.items():
            assert law.support[vec] == pytest.approx(p, abs=1e-12)

    def test_zero_prob_atoms_leave_no_support(self):
        sp = space("abc", (0.5, 0.0, 0.5))
        fam = KernelFamily(
            (table_kernel("id", sp, {("a",): 0, ("b",): 1, ("c",): 2}, value_space=LABELS3),)
        )
        law = exact_joint_law(sp, fam, 1)
        assert set(law.support) == {(0,), (2,)}

    def test_arity_above_n_contributes_no_keys(self):
        sp = space("ab", (0.5, 0.5))
        k1 = table_kernel("f", sp, {("a",): 0.5, ("b",): 0.25})
        k2 = cross_kernel(sp, "g")
        law = exact_joint_law(sp, KernelFamily((k1, k2)), 1)
        assert law.keys == (("f", (1,)),)

    def test_scale_error(self):
        sp = space("ab", (0.5, 0.5))
        fam = KernelFamily((table_kernel("f", sp, {("a",): 0.5, ("b",): 0.25}),))
        with pytest.raises(ScaleError):
            exact_joint_law(sp, fam, 8, cap=100)

    def test_env_cap_override(self, monkeypatch):
        sp = space("ab", (0.5, 0.5))
        fam = KernelFamily((table_kernel("f", sp, {("a",): 0.5, ("b",): 0.25}),))
        monkeypatch.setenv("REP_MAX_ENUM", "4")
        with pytest.raises(ScaleError):
            exact_joint_law(sp, fam, 3)
        monkeypatch.setenv("REP_MAX_ENUM", "1000000")
        exact_joint_law(sp, fam, 3)


class TestSampleSizeChecks:
    """Every entry point that takes a sample size refuses a negative, fractional,
    bool or infinite one with a package error, before any work."""

    SP = space("ab", (0.5, 0.5))
    K = table_kernel("f", SP, {(a, b): 0.5 for a in "ab" for b in "ab"}, symmetric=True)
    FAM = KernelFamily((K,))
    CALLS = {
        "exact_joint_law": lambda c, n: exact_joint_law(c.SP, c.FAM, n),
        "exchangeability_check": lambda c, n: exchangeability_check(c.SP, c.FAM, n),
        "graph_law_exact": lambda c, n: graph_law_exact(c.K, n),
        "sample_latents": lambda c, n: sample_latents(c.SP, n, 0),
        "sample_graph": lambda c, n: sample_graph(c.K, n, 0),
        "sample_graph_edges": lambda c, n: sample_graph_edges(c.K, n, [0, 1]),
        "sample_array": lambda c, n: sample_array(c.FAM, n, 0),
        "mc_two_sample_test": lambda c, n: mc_two_sample_test(c.K, c.K, n, 10, 0),
        "mc_two_sample_test_callables": lambda c, n: mc_two_sample_test(
            lambda s: sample_graph(c.K, 3, s), lambda s: sample_graph(c.K, 3, s), n, 10, 0),
    }

    @pytest.mark.parametrize("n", [-1, 1.5, True, float("inf")], ids=repr)
    @pytest.mark.parametrize("entry", sorted(CALLS))
    def test_bad_n_raises_package_error(self, entry, n):
        with pytest.raises(UnirepError):
            self.CALLS[entry](self, n)

    def test_zero_points_give_the_empty_vector(self):
        law = exact_joint_law(self.SP, self.FAM, 0)
        assert law.support_size == 1 and law.support == {(): 1.0}
        assert exchangeability_check(self.SP, self.FAM, 0)
        assert graph_law_exact(self.K, 0).tolist() == [1.0]
        assert exact_joint_law(self.SP, self.FAM, np.int64(2)).support_size == 1


class TestEnumerationCap:
    """One guard refuses an enumeration above the cap before any work starts.
    A huge n is refused from its exponent alone: 2^(10^18) cannot be
    formed, so these tests fail or stall if a power comes back first."""

    MESSAGE = (
        "{} assignments exceed the enumeration cap {}; "
        "use the statistical mode (--mode mc) or raise REP_MAX_ENUM"
    )
    COORDINATES = MESSAGE.replace("assignments", "coordinates")

    @staticmethod
    def family(size=2):
        sp = space("abc"[:size], (1 / size,) * size)
        return sp, KernelFamily((table_kernel("f", sp, {(a,): 0.5 for a in "abc"[:size]}),))

    def test_exact_joint_law_huge_n(self, monkeypatch):
        monkeypatch.delenv("REP_MAX_ENUM", raising=False)
        with pytest.raises(ScaleError) as exc:
            exact_joint_law(*self.family(), 10**18)
        assert str(exc.value) == self.MESSAGE.format("2^1000000000000000000", 10**7)

    def test_graph_law_exact_huge_n(self, monkeypatch):
        # the pairs of n = 10^6 (5 * 10^11 of them) must not be built first
        monkeypatch.delenv("REP_MAX_ENUM", raising=False)
        with pytest.raises(ScaleError) as exc:
            graph_law_exact(two_block_kernel(), 10**6)
        assert str(exc.value) == "2^499999500000 * 2^1000000 terms exceed the enumeration cap"

    def test_cap_boundary(self):
        sp, fam = self.family(3)
        exact_joint_law(sp, fam, 3, cap=27)
        with pytest.raises(ScaleError, match=r"3\^3 assignments .* cap 26;"):
            exact_joint_law(sp, fam, 3, cap=26)
        # 2^3 graphs times 2^3 assignments
        graph_law_exact(two_block_kernel(), 3, cap=64)
        with pytest.raises(ScaleError):
            graph_law_exact(two_block_kernel(), 3, cap=63)

    @staticmethod
    def one_atom_family():
        sp = space("o", (1.0,))
        return sp, KernelFamily((table_kernel("f", sp, {("o", "o"): 0.5}),
                                 table_kernel("g", sp, {("o",): 0.25})))

    def test_coordinate_boundary(self):
        # one atom: 1^n assignments never exceed the cap, but the n(n-1) + n
        # coordinates of the arity-2 and arity-1 kernels do
        sp, fam = self.one_atom_family()
        assert len(exact_joint_law(sp, fam, 4, cap=16).keys) == 16
        with pytest.raises(ScaleError) as exc:
            exact_joint_law(sp, fam, 4, cap=15)
        assert str(exc.value) == self.COORDINATES.format(16, 15)

    def test_one_atom_huge_n(self, monkeypatch):
        monkeypatch.delenv("REP_MAX_ENUM", raising=False)
        with pytest.raises(ScaleError) as exc:
            exact_joint_law(*self.one_atom_family(), 10**18)
        coordinates = 10**18 * (10**18 - 1) + 10**18
        assert str(exc.value) == self.COORDINATES.format(coordinates, 10**7)

    def test_n_zero(self, monkeypatch):
        monkeypatch.delenv("REP_MAX_ENUM", raising=False)
        law = exact_joint_law(*self.family(), 0)
        assert law.keys == ()
        assert law.support == {(): 1.0}

    @pytest.mark.parametrize("env, cap", [("-1", -1), ("0", 0), ("", 10**7), ("1", 1)])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_env_values(self, monkeypatch, env, cap, n):
        monkeypatch.setenv("REP_MAX_ENUM", env)
        sp, fam = self.family(3)
        if 3**n <= cap:
            assert exact_joint_law(sp, fam, n).n == n
        else:
            with pytest.raises(ScaleError) as exc:
                exact_joint_law(sp, fam, n)
            assert str(exc.value) == self.MESSAGE.format(f"3^{n}", cap)

    def test_env_not_an_integer(self, monkeypatch):
        monkeypatch.setenv("REP_MAX_ENUM", "abc")
        with pytest.raises(SpecError, match="REP_MAX_ENUM must be an integer, got 'abc'"):
            exact_joint_law(*self.family(), 1)
        with pytest.raises(SpecError, match="REP_MAX_ENUM"):
            graph_law_exact(two_block_kernel(), 2)

    @settings(max_examples=300, deadline=None)
    @given(
        powers=st.lists(st.tuples(st.integers(1, 7), st.integers(0, 40)), min_size=1, max_size=3),
        delta=st.integers(-3, 3),
        cap=st.none() | st.integers(-3, 2**90),
    )
    def test_refuses_exactly_above_the_cap(self, powers, delta, cap):
        """The exponent shortcut agrees with comparing the product itself,
        at the product's own boundary (``cap`` None) and anywhere else."""
        total = math.prod(b**e for b, e in powers)
        cap = total + delta if cap is None else cap
        try:
            equivalence._check_cap(cap, "over {cap}", *powers)
        except ScaleError as exc:
            assert total > cap and str(exc) == f"over {cap}"
        else:
            assert total <= cap


class TestExactJointLawBitForBit:
    """``exact_joint_law`` against the ``exact_joint_law_loop`` oracle: the
    same keys, and the same support items in the same order, bit for bit
    (``repr`` tells 1 from 1.0 and -0.0 from 0.0)."""

    @staticmethod
    def _check(sp, fam, n):
        law = exact_joint_law(sp, fam, n)
        keys, support = exact_joint_law_loop(sp, fam, n)
        assert law.keys == keys
        assert repr(list(law.support.items())) == repr(list(support.items()))
        return law

    @staticmethod
    def case(trial):
        """A random family, with zero-probability atoms when it has two or more."""
        rng = np.random.default_rng(4100 + trial)
        # trial 9 has 11 atoms, 1331 assignments at n = 3: the most cells of any
        # trial, so the most blocks when TestEnumeratorBlocks shrinks the block
        size = 11 if trial == 9 else int(rng.integers(1, 6))
        probs = rng.dirichlet(np.ones(size))
        if size > 1:
            probs[rng.choice(size, int(rng.integers(1, size)), replace=False)] = 0.0
        sp = space([f"a{k}" for k in range(size)], probs / probs.sum())
        # trial 0 has no arity-1 kernel, so at n = 1 every vector is ()
        low = 2 if trial == 0 else 1
        specs = [
            (f"k{j}", int(rng.integers(low, 4)), (REAL, UNIT, LABELS3)[j % 3], bool(rng.integers(2)))
            for j in range(int(rng.integers(1, 4)))
        ]
        return sp, random_family(rng, sp, specs)

    @pytest.mark.parametrize("trial", range(10))
    def test_random_families_and_their_step_families(self, trial):
        sp, fam = self.case(trial)
        sp_step, fam_step = step_family_as_space(represent_family(sp, fam))
        for n in (1, 2, 3):
            law = self._check(sp, fam, n)
            # the cell lengths round the probabilities, so only the supports agree
            assert list(law.support) == list(self._check(sp_step, fam_step, n).support)
        if trial == 0:
            assert self._check(sp, fam, 1).support == {(): 1.0}

    def test_zero_probability_atoms_leave_before_enumeration(self, monkeypatch):
        """The seed-1 bench ``mixed`` spec with every other atom at probability 0: its law, and
        its comparison with its representation, equal their oracles bit for bit, and only the
        15^3 assignments to the atoms left are enumerated; the cap still counts all 30."""
        workloads = load("workloads", monkeypatch)
        doc = workloads.mixed_spec(random.Random("exact-pipeline:1"))
        probs = doc["space"]["probs"]
        probs[1::2] = [0.0] * len(probs[1::2])
        doc["space"]["probs"] = [p / math.fsum(probs) for p in probs]
        spec = parse_spec(doc)
        rep = step_family_as_space(represent_family(spec.space, spec.family))
        sides = [(spec.space, spec.family), rep]
        laws = [JointLaw(3, *exact_joint_law_loop(*side, 3)) for side in sides]
        union = len(laws[0].support.keys() | laws[1].support.keys())
        expected = (tv_distance(*laws), union, *(law.support_size for law in laws))
        enumerated, real = [], equivalence._assignments

        def counted(weights, n, per=1):
            enumerated.append(len(weights))
            return real(weights, n, per)

        monkeypatch.setattr(equivalence, "_assignments", counted)
        self._check(*sides[0], 3)
        assert repr(equivalence._exact_comparison(*sides, 3)) == repr(expected)
        assert set(enumerated) == {15}
        with pytest.raises(ScaleError, match=r"^30\^3 assignments exceed the enumeration cap 3375;"):
            exact_joint_law(*sides[0], 3, cap=15**3)

    def test_more_points_than_numpy_dimensions(self):
        # one assignment of 100 points, 10^4 coordinates: its cells are 100 digits,
        # more than the 64 dimensions np.unravel_index takes
        law = self._check(*TestEnumerationCap.one_atom_family(), 100)
        assert len(law.keys) == 10**4 and law.support_size == 1


class TestEnumeratorBlocks:
    """Every exact output is independent of the enumerator's block: with
    ``sampling._BLOCK`` at 1 (one assignment per block), 7 and 100 (strictly
    between K^m and K^(m+1) for every K > 1 here), each still equals its
    scalar oracle bit for bit, for one cell, zero-probability atoms and
    step kernels."""

    BLOCKS = (1, 7, 100)

    @staticmethod
    def one_cell_kernel():
        return Kernel("f", 2, UNIT, space("a", (1.0,)), np.array([[0.3]]), symmetric=True)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_hom_density_and_graph_law(self, monkeypatch, block):
        monkeypatch.setattr(sampling, "_BLOCK", block)
        for k in (self.one_cell_kernel(), *oracle_kernels()):
            for pattern in PATTERNS.values():
                assert hom_density(k, pattern) == hom_density_loop(k, pattern)
            for n in (2, 3):
                assert graph_law_exact(k, n).tolist() == graph_law_loop(k, n).tolist()

    @pytest.mark.parametrize("block", BLOCKS)
    def test_exact_joint_law(self, monkeypatch, block):
        monkeypatch.setattr(sampling, "_BLOCK", block)
        k = self.one_cell_kernel()
        cases = [(k.domain, KernelFamily((k,)))]
        for trial in range(10):
            sp, fam = TestExactJointLawBitForBit.case(trial)
            cases += [(sp, fam), step_family_as_space(represent_family(sp, fam))]
        for sp, fam in cases:
            for n in (1, 2, 3):
                TestExactJointLawBitForBit._check(sp, fam, n)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_blocks_honour_the_budget(self, monkeypatch, block):
        # each block spans the last m points with K^m * per <= budget (or m = 0),
        # m as large as that allows: the enumerator reads sampling._BLOCK as it runs
        monkeypatch.setattr(sampling, "_BLOCK", block)
        real, spans = equivalence._assignments, []

        def checked(weights, n, per=1):
            size = len(weights)
            for grid, prob in real(weights, n, per):
                m = prob.ndim
                assert m == 0 or size**m * per <= block, (size, m, per)
                assert m == min(n, 32) or size ** (m + 1) * per > block, (size, m, per)
                spans.append(m)
                yield grid, prob

        monkeypatch.setattr(equivalence, "_assignments", checked)
        for k in (self.one_cell_kernel(), *oracle_kernels()):
            hom_density(k, PATTERNS["c4"])
            graph_law_exact(k, 3)
        for trial in range(3):
            sp, fam = TestExactJointLawBitForBit.case(trial)
            exact_joint_law(sp, fam, 3)
        assert spans


class TestExactSum:
    """``_fsum`` is correctly rounded: it equals ``math.fsum`` bit for bit."""

    @staticmethod
    def arrays():
        rng = np.random.default_rng(1075)
        yield from (np.zeros(0), np.array([0.1]), np.zeros(5), np.full(9, 5e-324))
        yield np.array([5e-324, -5e-324, 1.0, -1.0, 2.0**-1074 * 3])
        yield from (np.array([1.0, 2.0**-53]), np.array([1.0 + 2.0**-52, 2.0**-53]))  # ties
        for t in range(40):
            size = int(rng.integers(1, 3000))
            x = rng.random(size) * 10.0 ** rng.uniform(-300, 4, size)
            if t % 2:
                x *= rng.choice([-1.0, 1.0], size)
            x[rng.random(size) < 0.1] = 0.0
            x[rng.random(size) < 0.05] = 5e-324
            yield x

    def test_equals_fsum(self):
        for x in self.arrays():
            assert _fsum([x]).hex() == math.fsum(x.tolist()).hex()

    def test_across_chunk_boundary(self, monkeypatch):
        # flushing every 1, 3 or 64 terms, over blocks of several sizes
        for chunk in (1, 3, 64):
            monkeypatch.setattr(equivalence, "_SUM_CHUNK", chunk)
            for x in self.arrays():
                x = x[:300]
                blocks = np.array_split(x, 4) + [x[:0], x.reshape(1, -1)[:, :7]]
                expected = math.fsum(x.tolist() + x[:7].tolist())
                assert _fsum(blocks).hex() == expected.hex()


class TestStepFamilyAsSpace:
    def test_two_cell_constant(self):
        k = two_block_kernel()
        sp, fam = step_family_as_space(KernelFamily((k,)))
        assert sp.atom_ids == ("lo", "hi")
        assert sp.probs == (0.5, 0.5)
        assert fam.kernels[0].table[("lo", "hi")] == 0.9

    def test_probs_sum_to_one(self):
        k = const_graph_kernel(0.4)
        sp, _ = step_family_as_space(KernelFamily((k,)))
        assert math.fsum(sp.probs) == 1.0

    def test_roundtrip_after_represent(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            src = random_space(rng, int(rng.integers(2, 5)))
            fam = random_family(rng, src, [("f", 2, REAL, False), ("g", 1, UNIT, False)])
            back_sp, back_fam = step_family_as_space(represent_family(src, fam))
            assert back_sp.atom_ids == src.atom_ids
            assert back_sp.probs == pytest.approx(src.probs, abs=1e-15)
            for orig, back in zip(fam, back_fam):
                assert back.table == orig.table

    def test_rejects_table_family(self):
        sp = space("ab", (0.5, 0.5))
        fam = KernelFamily((table_kernel("f", sp, {("a",): 0.5, ("b",): 0.25}),))
        with pytest.raises(SpecError):
            step_family_as_space(fam)


class TestTvDistance:
    def _law(self, support):
        return JointLaw(1, (("f", (1,)),), support)

    def test_identical_laws(self):
        sp = space("ab", (0.3, 0.7))
        fam = KernelFamily((cross_kernel(sp),))
        law = exact_joint_law(sp, fam, 2)
        assert tv_distance(law, law) == 0.0

    def test_disjoint_point_masses(self):
        l1 = self._law({(0.0,): 1.0})
        l2 = self._law({(1.0,): 1.0})
        assert tv_distance(l1, l2) == 1.0

    def test_support_order_irrelevant(self):
        l1 = JointLaw(1, (("f", (1,)),), {(0.0,): 0.4, (1.0,): 0.6})
        l2 = JointLaw(1, (("f", (1,)),), {(1.0,): 0.6, (0.0,): 0.4})
        assert tv_distance(l1, l2) == 0.0

    @pytest.mark.parametrize("support", [{(0.0,): math.nan}, {(0.0,): 0.5, (1.0,): math.nan}])
    def test_nan_probabilities_refused(self, support):
        with pytest.raises(SpecError, match="sum to nan, not 1"):
            self._law(support)

    def test_mismatched_keys(self):
        l1 = self._law({(0.0,): 1.0})
        l2 = JointLaw(1, (("g", (1,)),), {(0.0,): 1.0})
        with pytest.raises(SpecError):
            tv_distance(l1, l2)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3),
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3),
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3),
    )
    @settings(max_examples=100)
    def test_metric_properties(self, raw1, raw2, raw3):
        def law(raw):
            total = math.fsum(raw)
            return JointLaw(
                1,
                (("f", (1,)),),
                {(float(v),): p / total for v, p in enumerate(raw)},
            )

        l1, l2, l3 = law(raw1), law(raw2), law(raw3)
        d12 = tv_distance(l1, l2)
        d21 = tv_distance(l2, l1)
        assert d12 == d21
        assert 0.0 <= d12 <= 1.0
        assert tv_distance(l1, l3) <= d12 + tv_distance(l2, l3) + 1e-12


class TestExchangeability:
    def test_iid_family_exchangeable(self):
        rng = np.random.default_rng(33)
        sp = random_space(rng, 3)
        fam = random_family(rng, sp, [("f", 2, REAL, False), ("g", 1, UNIT, False)])
        assert exchangeability_check(sp, fam, 3)

    def test_n1_vacuous(self):
        sp = space("ab", (0.5, 0.5))
        fam = KernelFamily((cross_kernel(sp),))
        assert exchangeability_check(sp, fam, 1)

    def test_corrupted_law_fails(self):
        sp = space("ab", (0.3, 0.7))
        fam = KernelFamily((cross_kernel(sp),))
        law = exact_joint_law(sp, fam, 2)
        assert law_is_exchangeable(law)
        keys = (("f", (1, 2)), ("f", (2, 1)))
        corrupted = JointLaw(
            2, keys, {(0.0, 1.0): 0.58, (1.0, 0.0): 0.42}
        )
        assert not law_is_exchangeable(corrupted)


def classed_case(seed):
    """A random space (some atoms of probability zero), its generators, and
    a family constant on the generators' classes of atoms: a symmetric unit
    arity-2 kernel, a real arity-1 kernel and a label arity-2 kernel, with
    zeros of both signs among the unit and real values."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 6))
    classes = int(rng.integers(1, size + 1))
    cls = rng.permutation(np.arange(size) % classes)
    probs = rng.dirichlet(np.ones(size))
    if size > 1:
        probs[rng.choice(size, int(rng.integers(0, size)), replace=False)] = 0.0
    sp = space([f"a{k}" for k in range(size)], probs / probs.sum())
    bits = max(1, (classes - 1).bit_length())
    generators = [[a for a, c in zip(sp.atom_ids, cls) if (c >> b) & 1] for b in range(bits)]
    unit = rng.random((classes, classes))
    unit[rng.random((classes, classes)) < 0.3] = 0.0
    unit[rng.random((classes, classes)) < 0.3] = -0.0
    unit = np.where(np.tri(classes, dtype=bool), unit.T, unit)  # symmetric, signs kept
    real = np.round(rng.normal(size=classes), 1)
    real[rng.random(classes) < 0.4] = -0.0
    real[rng.random(classes) < 0.3] = 0.0
    labels = rng.integers(0, 3, (classes, classes))
    fam = KernelFamily((
        Kernel("f", 2, UNIT, sp, unit[np.ix_(cls, cls)], symmetric=True),
        Kernel("g", 1, REAL, sp, real[cls]),
        Kernel("h", 2, LABELS3, sp, labels[np.ix_(cls, cls)]),
    ))
    return rng, sp, generators, fam


class TestExactComparisonOracle:
    """``tv_distance`` against ``tv_distance_loop``, with ``support_equal``
    and ``support_size`` from the dict-key union of the two ``support``
    mappings, equal bit for bit (``repr``) on seeded random pairs of laws at
    n = 0-3.  Every enumerated law also equals ``exact_joint_law_loop``,
    items and order."""

    @staticmethod
    def law(sp, fam, n):
        law = exact_joint_law(sp, fam, n)
        keys, support = exact_joint_law_loop(sp, fam, n)
        assert law.keys == keys
        assert repr(list(law.support.items())) == repr(list(support.items()))
        return law

    @classmethod
    def pairs(cls, seed, n):
        rng, sp, generators, fam = classed_case(seed)
        src = cls.law(sp, fam, n)
        rep = cls.law(*step_family_as_space(represent_family(sp, fam)), n)
        cantor = cls.law(*step_family_as_space(cantor_represent_family(sp, generators, fam)), n)
        # other probabilities, and zero atoms elsewhere: the same support or a smaller one
        probs = rng.dirichlet(np.ones(len(sp)))
        probs[rng.random(len(sp)) < 0.3] = 0.0
        probs = probs / probs.sum() if probs.sum() else np.full(len(sp), 1.0 / len(sp))
        other = space(sp.atom_ids, probs)
        reweighted = cls.law(other, fam.on_domain(other), n)
        # a real value of the likeliest atom changed (a zero only in its sign),
        # or a label: each law differs from the source in one kernel only
        f, g, h = (k.values for k in fam)
        top = int(np.argmax(sp.probs))
        g2, h2 = g.copy(), h.copy()
        g2[top] = -g[top] if g[top] == 0.0 else g[top] + 0.5
        h2[top, top] = (h[top, top] + 1) % 3
        changed = cls.law(sp, fam.on_domain(sp, [f, g2, h]), n)
        relabeled = cls.law(sp, fam.on_domain(sp, [f, g, h2]), n)
        # every sign of zero flipped: equal values, so equal laws
        flipped = cls.law(sp, fam.on_domain(sp, [np.where(f == 0.0, -f, f), np.where(g == 0.0, -g, g), h]), n)
        # real values shifted out of the range: disjoint supports for n >= 1
        shifted = cls.law(sp, fam.on_domain(sp, [f, g + 100.0, h]), n)
        # laws from dicts: labels as floats, and the support in reverse order
        as_floats = JointLaw(n, src.keys, {tuple(map(float, v)): p for v, p in src.support.items()})
        reversed_ = JointLaw(n, src.keys, dict(reversed(list(rep.support.items()))))
        laws = [src, rep, cantor, reweighted, changed, relabeled, flipped, shifted, as_floats, reversed_]
        # the label kernel alone: its value at (1, 2) does not tell its value at (2, 1)
        alone = KernelFamily(fam.kernels[2:])
        labels = [cls.law(sp, alone, n), cls.law(*step_family_as_space(represent_family(sp, alone)), n),
                  cls.law(sp, alone.on_domain(sp, [h2]), n), cls.law(other, alone.on_domain(other), n)]
        return [(a, b) for group in (laws, labels) for a in group for b in group]

    @pytest.mark.parametrize("seed", range(12))
    def test_random_pairs(self, seed):
        for n in range(4):
            for a, b in self.pairs(5100 + seed, n):
                union = len(a.support.keys() | b.support.keys())
                got = (tv_distance(a, b), union == a.support_size == b.support_size, union)
                assert repr(got) == repr(tv_distance_loop(a, b))

    def test_pairs_cover_the_cases(self):
        """The pairs include disjoint supports, unequal supports with a
        positive tv, zero-probability atoms, and -0.0 among the unit and
        real values."""
        seen = set()
        for seed in range(12):
            _, sp, _, fam = classed_case(5100 + seed)
            seen.add(("zero atom", 0.0 in sp.probs))
            for k in fam.kernels[:2]:
                seen.add((k.name, "-0.0", bool((np.signbit(k.values) & (k.values == 0.0)).any())))
            for a, b in self.pairs(5100 + seed, 2):
                tv, equal, size = tv_distance_loop(a, b)
                seen.add(("disjoint", size == a.support_size + b.support_size))
                seen.add(("unequal", not equal and tv > 0.0))
        assert {("zero atom", True), ("disjoint", True), ("unequal", True)} <= seen
        assert {("f", "-0.0", True), ("g", "-0.0", True)} <= seen


def as_spec(sp, fam, label=int):
    """``(space, family)`` read back from a spec document of ``sp`` and ``fam``, every
    label written as ``label(value)``, as ``unirep equiv`` reads a spec file."""
    kernels = [{
        "name": k.name, "arity": k.arity, "symmetric": k.symmetric,
        "value_space": {"labels": k.value_space.num_labels} if k.value_space.kind == "labels"
        else k.value_space.kind,
        "values": {",".join(key): label(v) if k.value_space.kind == "labels" else v
                   for key, v in k.table.items()},
    } for k in fam]
    doc = parse_spec({"space": {"atoms": list(sp.atom_ids), "probs": list(sp.probs)},
                      "kernels": kernels})
    return doc.space, doc.family


def comparison_pairs(seed):
    """Named pairs of ``(space, family)`` sides with equal kernel names, arities and value
    spaces, around ``classed_case(seed)``: the source against its direct and Cantor
    artifacts and an unrelated spec; zero atoms on one side only; zeros of the other sign
    (equal ranks, so B may take A's keys); one value changed (equal cell counts only); labels
    written ``1.0`` in a spec; a kernel symmetric on one side only, with symmetric values or
    not; and an arity-3 kernel, above n for n < 3."""
    rng, sp, generators, fam = classed_case(seed)
    f, g, h = (k.values for k in fam)
    src = (sp, fam)
    direct = step_family_as_space(represent_family(sp, fam))
    cantor = step_family_as_space(cantor_represent_family(sp, generators, fam))
    _, usp, _, ufam = classed_case(seed + 10**6)
    probs = np.asarray(sp.probs) + (np.asarray(sp.probs) == 0.0)  # zeros where the source has none
    probs[rng.choice(len(sp), int(rng.integers(0, len(sp))), replace=False)] = 0.0
    other = space(sp.atom_ids, probs / probs.sum())
    top = int(np.argmax(sp.probs))
    g2 = g.copy()
    g2[top] += 0.5
    asym = f.copy()
    asym[0, -1] = 0.75 if f[0, -1] != 0.75 else 0.25  # asymmetric unless there is one atom
    cube = (len(sp),) * 3  # a value per sorted index triple, so symmetric bit for bit
    sym3 = rng.random(cube)[tuple(np.sort(np.indices(cube), axis=0))]
    fam3 = KernelFamily((*fam.kernels, Kernel("t", 3, UNIT, sp, sym3, symmetric=True)))
    flipped = [np.where(f == 0.0, -f, f), np.where(g == 0.0, -g, g), h]
    rest = fam.kernels[1:]  # f, declared symmetric in the source, is not on the other side
    return {
        "direct": (src, direct),
        "cantor": (src, cantor),
        "artifacts": (cantor, direct),
        "unrelated": (src, (usp, ufam)),
        "zero atoms": (src, (other, fam.on_domain(other))),
        "signs": (src, (sp, fam.on_domain(sp, flipped))),
        "changed": (src, (sp, fam.on_domain(sp, [f, g2, h]))),
        "labels as floats": (as_spec(sp, fam), as_spec(sp, fam, float)),
        "float labels vs artifact": (as_spec(sp, fam, float), direct),
        "one side symmetric": (src, (sp, KernelFamily((Kernel("f", 2, UNIT, sp, f), *rest)))),
        "one side symmetric, values not":
            (src, (sp, KernelFamily((Kernel("f", 2, UNIT, sp, asym), *rest)))),
        "arity 3": ((sp, fam3), step_family_as_space(represent_family(sp, fam3))),
    }


class TestExactComparison:
    """``_exact_comparison``, the comparison ``unirep equiv`` makes in exact mode, equals
    ``tv_distance`` of the two ``exact_joint_law``\\ s, the size of the dict-key union of their
    ``support`` mappings (values matched as ``_rank`` matches them), and both support sizes,
    bit for bit."""

    @staticmethod
    def expected(a, b, n):
        law_a, law_b = exact_joint_law(*a, n), exact_joint_law(*b, n)
        union = len(law_a.support.keys() | law_b.support.keys())
        return tv_distance(law_a, law_b), union, law_a.support_size, law_b.support_size

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           name=st.sampled_from(sorted(comparison_pairs(0))), swap=st.booleans())
    @example(seed=5100, n=1, name="arity 3", swap=False)
    @example(seed=5101, n=3, name="one side symmetric, values not", swap=True)
    def test_equals_two_laws(self, seed, n, name, swap):
        a, b = comparison_pairs(seed)[name][:: -1 if swap else 1]
        assert repr(equivalence._exact_comparison(a, b, n)) == repr(self.expected(a, b, n))

    def test_pairs_cover_the_cases(self):
        """Over a few seeds the pairs show unequal laws, equal laws whose values differ only
        in the sign of a zero, zero atoms on one side only, and -0.0 values."""
        seen = set()
        for seed in range(20):
            for name, (a, b) in comparison_pairs(seed).items():
                tv, union, size, _ = self.expected(a, b, 2)
                seen.add((name, "unequal", tv > 0.0 or union > size))
                zeros = [0.0 in np.asarray(s.probs) for s, _ in (a, b)]
                seen.add(("zero atoms on one side", zeros[0] != zeros[1]))
                seen.add(("-0.0", any(bool((np.signbit(k.values) & (k.values == 0.0)).any())
                                      for k in a[1] if k.value_space.kind != "labels")))
        unequal = ("cantor", "unrelated", "zero atoms", "changed", "one side symmetric, values not")
        for name in unequal:
            assert (name, "unequal", True) in seen, name
        assert ("signs", "unequal", False) in seen
        assert ("zero atoms on one side", True) in seen and ("-0.0", True) in seen

    def test_caps_of_both_sides_before_any_enumeration(self, monkeypatch):
        small, big = space("ab", (0.5, 0.5)), space("abc", (0.2, 0.3, 0.5))
        sides = [(sp, KernelFamily((cross_kernel(sp),))) for sp in (small, big)]

        def never(*args):
            raise AssertionError("enumerated")

        monkeypatch.setattr(equivalence, "_assignments", never)
        for a, b in (sides, sides[::-1]):
            with pytest.raises(ScaleError, match=r"^3\^3 assignments exceed the enumeration cap 8"):
                equivalence._exact_comparison(a, b, 3, cap=8)


class TestPack:
    """Keys of ``_pack`` are equal exactly where the packed points are (a
    block's columns), also where the radix passes 2^62 and the key or a row
    must be re-ranked, and where all-zero rows are dropped."""

    @staticmethod
    def check(columns):
        columns = [np.asarray(c, dtype=np.int64) for c in columns]
        length = len(columns[0]) if columns else 3
        key = _pack([np.reshape(columns, (len(columns), length))], length)
        rows = list(zip(*(c.tolist() for c in columns))) or [()] * length
        pairs = set(zip(key.tolist(), rows))
        assert len(pairs) == len(set(key.tolist())) == len(set(rows))

    def test_wrapping_products_do_not_collide(self):
        # without re-ranking, 2^31 * 2^33 wraps to 0 and (0, 5), (2^31, 5) collide
        self.check([[0, 2**31, 2**32 - 1, 0], [5, 5, 2**33 - 1, 6]])
        self.check([[0, 1, 0, 1], [2**62 - 1, 2**62 - 1, 3, 3], [2**62 - 1, 0, 0, 0]])
        # five key ranks times a width of 2^62: rank 4 wraps onto rank 0 unless
        # the column is re-ranked too
        self.check([[0, 1, 2, 3, 4, 0], [7, 2**62 - 1, 0, 0, 7, 1]])
        self.check([])
        self.check([[0, 0, 0], [1, 0, 1], [0, 0, 0], [2**62 - 1, 2**62 - 1, 0]])

    def test_random_columns(self):
        rng = np.random.default_rng(62)
        for _ in range(200):
            widths = rng.choice([1, 2, 3, 2**20, 2**33, 2**61, 2**62], int(rng.integers(1, 8)))
            pool = np.stack([rng.integers(0, w, 6, dtype=np.int64) for w in widths], axis=1)
            rows = pool[rng.integers(0, len(pool), int(rng.integers(1, 40)))]
            self.check(list(rows.T))


class TestJointLawArrays:
    def test_support_read_only_and_stable(self):
        rng, sp, _, fam = classed_case(5200)
        law = exact_joint_law(sp, fam, 2)
        items = repr(list(law.support.items()))
        vec = next(iter(law.support))
        with pytest.raises(TypeError):
            law.support[vec] = 0.5
        with pytest.raises(TypeError):
            del law.support[vec]
        with pytest.raises(AttributeError):
            law.support = {}
        assert repr(list(law.support.items())) == items
        assert law.support_size == len(law.support)

    def test_dict_law_keeps_its_items(self):
        support = {(1, -0.0): 0.25, (1.0, 0.5): 0.5, (2, 0.0): 0.25}
        law = JointLaw(1, (("h", (1,)), ("g", (1,))), support)
        support.clear()
        assert repr(list(law.support.items())) == "[((1, -0.0), 0.25), ((1.0, 0.5), 0.5), ((2, 0.0), 0.25)]"

    def test_dict_law_checks(self):
        keys = (("f", (1,)),)
        with pytest.raises(SpecError, match="sum to"):
            JointLaw(1, keys, {(0.0,): 0.5})
        with pytest.raises(SpecError, match="nonnegative"):
            JointLaw(1, keys, {(0.0,): 1.5, (1.0,): -0.5})
        with pytest.raises(SpecError, match="coordinates"):
            JointLaw(1, keys, {(0.0, 1.0): 1.0})


# One-atom ``unirep equiv --n 1000`` in a fresh process: peak RSS growth over
# the RSS after a small comparison, per coordinate of one law, n(n - 1).
EXACT_MEMORY_PROBE = STATUS_KB + """
import io
import sys
from contextlib import redirect_stdout
from unirep.cli import main

spec = sys.argv[1]
n = 1000
with redirect_stdout(io.StringIO()):
    main(["equiv", spec, spec, "--n", "3"])
    before_kb = status_kb("VmRSS:")
    main(["equiv", spec, spec, "--n", str(n)])
print((status_kb("VmHWM:") - before_kb) * 1024 / (n * (n - 1)))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_exact_equiv_peak_bytes_per_coordinate(tmp_path):
    # a one-atom law has one support point, so the coordinates are its whole
    # cost: per kernel, narrow arrays of index tuples and value positions for
    # both laws, and a few same-sized temporaries; Python objects per
    # coordinate took about 900 B
    spec = tmp_path / "const.json"
    spec.write_text(json.dumps({
        "space": {"atoms": ["o"], "probs": [1.0]},
        "kernels": [{"name": "f", "arity": 2, "value_space": "unit",
                     "symmetric": True, "values": {"o,o": 0.5}}],
    }))
    assert run_probe(EXACT_MEMORY_PROBE, str(spec)) <= 100.0


# ``unirep equiv`` of a spec with K = 100 atoms against one of its artifacts at n = 3 in a
# fresh process: peak RSS growth over the RSS after the same comparison at n = 1, per
# assignment of one side, K^3.
EXACT_ASSIGNMENT_PROBE = STATUS_KB + """
import io
import sys
from contextlib import redirect_stdout
from unirep.cli import main

spec, artifact = sys.argv[1:]
with redirect_stdout(io.StringIO()):
    main(["equiv", spec, artifact, "--n", "1"])
    before_kb = status_kb("VmRSS:")
    main(["equiv", spec, artifact, "--n", "3"])
print((status_kb("VmHWM:") - before_kb) * 1024 / 100**3)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.parametrize("via, bound", [([], 150.0), (["--via-cantor"], 175.0)])
def test_exact_equiv_peak_bytes_per_assignment(tmp_path, via, bound):
    # a symmetric arity-2 kernel of distinct values: all 10^6 assignments of a side are
    # support points.  Two laws and their joint grouping took 230 B per assignment against
    # either artifact; one grouping of both sides takes 81 against the direct artifact,
    # whose keys are the spec's, and 125 against the Cantor artifact, with keys of its own
    from unirep.cli import main

    rng = np.random.default_rng(100)
    atoms = [f"a{i}" for i in range(100)]
    values = rng.random((100, 100))
    spec = tmp_path / "k100.json"
    spec.write_text(json.dumps({
        "space": {"atoms": atoms, "probs": (rng.dirichlet(np.ones(100))).tolist()},
        "generators": [[a for i, a in enumerate(atoms) if i >> bit & 1] for bit in range(7)],
        "kernels": [{"name": "f", "arity": 2, "value_space": "unit", "symmetric": True,
                     "values": {f"{a},{b}": values[min(i, j), max(i, j)]
                                for i, a in enumerate(atoms) for j, b in enumerate(atoms)}}],
    }))
    artifact = str(tmp_path / "rep.json")
    assert main(["represent", str(spec), *via, "--out", artifact]) == 0
    assert run_probe(EXACT_ASSIGNMENT_PROBE, str(spec), artifact) <= bound


# ``unirep equiv --mode mc --runs 2`` of a spec with itself at n = 2000 in a fresh process:
# peak RSS growth in MB over the RSS after the same comparison at n = 50.
MC_MEMORY_PROBE = STATUS_KB + """
import io
import sys
from contextlib import redirect_stdout
from unirep.cli import main

argv = ["equiv", sys.argv[1], sys.argv[1], "--mode", "mc", "--runs", "2", "--seed", "1", "--n"]
with redirect_stdout(io.StringIO()):
    main(argv + ["50"])
    before_kb = status_kb("VmRSS:")
    main(argv + ["2000"])
print((status_kb("VmHWM:") - before_kb) / 1024)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_mc_equiv_peak_at_n_2000(tmp_path):
    # a sparse 64-cell kernel of edge density 10 / n: each graph is kept as 2000 * 32 bit
    # words (0.5 MB) and its triangles counted per edge; this took 2.1 MB, where a float64
    # adjacency and its U @ U took 105 MB.  The bound is that reading plus 10 MB
    rng = np.random.default_rng(2000)
    probs = rng.dirichlet(np.ones(64))
    values = rng.uniform(0.5, 1.5, (64, 64))
    values = np.triu(values) + np.triu(values, 1).T
    values *= 10 / 2000 / (probs @ values @ probs)
    atoms = [f"c{i}" for i in range(64)]
    spec = tmp_path / "sparse.json"
    spec.write_text(json.dumps({
        "space": {"atoms": atoms, "probs": probs.tolist()},
        "kernels": [{"name": "w", "arity": 2, "value_space": "unit", "symmetric": True,
                     "values": {f"{a},{b}": values[i, j]
                                for i, a in enumerate(atoms) for j, b in enumerate(atoms)}}],
    }))
    assert run_probe(MC_MEMORY_PROBE, str(spec)) <= 12.0


class TestExchangeabilityOracle:
    """``law_is_exchangeable`` permutes value columns; ``law_is_exchangeable_loop``
    rebuilds a dict per permutation.  They agree."""

    def test_agrees_with_dict_rebuild(self):
        rng = np.random.default_rng(33)
        sp = random_space(rng, 3)
        fam = random_family(rng, sp, [("f", 2, REAL, False), ("g", 1, UNIT, False)])
        laws = [exact_joint_law(sp, fam, n) for n in (1, 2, 3)]
        cross_sp = space("ab", (0.3, 0.7))
        laws.append(exact_joint_law(cross_sp, KernelFamily((cross_kernel(cross_sp),)), 2))
        keys = (("f", (1, 2)), ("f", (2, 1)))
        laws.append(JointLaw(2, keys, {(0.0, 1.0): 0.58, (1.0, 0.0): 0.42}))
        for seed in range(6):
            _, sp, _, fam = classed_case(5300 + seed)
            laws += [exact_joint_law(sp, fam, n) for n in (0, 1, 2, 3)]
        # an arity-2 kernel that is not symmetric at n = 2 and 3, and its law with one point moved
        sp = random_space(np.random.default_rng(7), 3)
        fam = random_family(np.random.default_rng(8), sp, [("f", 2, UNIT, False)])
        for n in (2, 3):
            law = exact_joint_law(sp, fam, n)
            moved = dict(law.support)
            (v0, p0), (v1, p1) = list(moved.items())[:2]
            moved[v0], moved[v1] = p0 + p1, 0.0
            laws += [law, JointLaw(n, law.keys, moved)]
        verdicts = [law_is_exchangeable(law) for law in laws]
        assert verdicts == [law_is_exchangeable_loop(law) for law in laws]
        assert True in verdicts and False in verdicts


class TestHomDensity:
    def test_constant_kernel_triangle(self):
        k = const_graph_kernel(0.3)
        assert hom_density(k, PATTERNS["triangle"]) == pytest.approx(0.027, rel=1e-12)

    def test_edge_is_expected_density(self):
        k = two_block_kernel()
        # brute force over the 4 cell assignments
        expected = 0.25 * 0.1 + 0.25 * 0.9 + 0.25 * 0.9 + 0.25 * 0.1
        assert expected == 0.5
        assert hom_density(k, PATTERNS["edge"]) == pytest.approx(0.5, rel=1e-12)

    def test_edge_density_general(self):
        rng = np.random.default_rng(35)
        sp = random_space(rng, 3)
        k = random_kernel(rng, sp, 2, UNIT, "f", symmetric=True)
        brute = math.fsum(
            sp.probs[i] * sp.probs[j] * k.table[(sp.atom_ids[i], sp.atom_ids[j])]
            for i in range(3)
            for j in range(3)
        )
        assert hom_density(k, PATTERNS["edge"]) == pytest.approx(brute, rel=1e-12)

    def test_invariant_under_represent(self):
        rng = np.random.default_rng(36)
        for _ in range(10):
            sp = random_space(rng, int(rng.integers(2, 5)))
            k = random_kernel(rng, sp, 2, UNIT, "f", symmetric=True)
            fam = represent_family(sp, KernelFamily((k,)))
            for name in ("edge", "p3", "triangle", "c4"):
                d_src = hom_density(k, PATTERNS[name])
                d_rep = hom_density(fam.kernels[0], PATTERNS[name])
                assert d_rep == pytest.approx(d_src, rel=1e-12)

    def test_equals_scalar_loop(self):
        for k in oracle_kernels():
            for pattern in PATTERNS.values():
                assert hom_density(k, pattern) == hom_density_loop(k, pattern)

    def test_wrong_arity(self):
        sp = space("ab", (0.5, 0.5))
        k = table_kernel("f", sp, {("a",): 0.5, ("b",): 0.25})
        with pytest.raises(ArityError):
            hom_density(k, PATTERNS["edge"])

    def test_pattern_validation(self):
        with pytest.raises(SpecError):
            PatternGraph(2, ((0, 0),))
        with pytest.raises(SpecError):
            PatternGraph(2, ((0, 1), (1, 0)))


class TestContraction:
    """``_contraction``'s x is within b*x of ``hom_density``, and b is inf where a term
    could underflow or a factor would pass 10^7 entries."""

    # no vertex, an isolated vertex, two components, and a 4-cycle with a chord
    EXTRA = (PatternGraph(0, ()), PatternGraph(1, ()), PatternGraph(4, ((0, 1), (2, 3))),
             PatternGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2))))

    @staticmethod
    def kernels():
        """Random kernels on up to 30 atoms or cells, with zero weights and values 0 and 1."""
        rng = np.random.default_rng(39)
        kernels = oracle_kernels()
        for trial in range(20):
            size = int(rng.integers(1, 31))
            probs = rng.dirichlet(np.ones(size))
            probs[rng.random(size) < 0.2] = 0.0
            probs = probs / probs.sum() if probs.sum() else np.full(size, 1.0 / size)
            values = rng.random((size, size))
            exact = rng.random((size, size)) < 0.1
            values[exact] = rng.integers(0, 2, int(exact.sum()))
            sp = space([f"a{k}" for k in range(size)], probs)
            kernel = Kernel("f", 2, UNIT, sp, np.triu(values) + np.triu(values, 1).T, True)
            kernels.append(kernel if trial % 2 else represent_family(sp, KernelFamily((kernel,))).kernels[0])
        return kernels

    def test_within_the_bound(self):
        for k in self.kernels():
            for pattern in (*PATTERNS.values(), *self.EXTRA):
                x, b = equivalence._contraction(k, pattern)
                assert abs(x - hom_density(k, pattern)) <= b * x and b < 1e-13, (k, pattern)

    def test_no_bound_where_a_term_could_underflow(self):
        # one cell: the p3 term 10^-320 is subnormal, the triangle term 10^-480 is 0
        k = const_graph_kernel(1e-160)
        x, b = equivalence._contraction(k, PATTERNS["edge"])
        assert x == 1e-160 and b < 1e-15
        for name in ("p3", "triangle", "c4", "k4"):
            assert equivalence._contraction(k, PATTERNS[name])[1] == math.inf

    def test_no_bound_past_ten_million_entries(self):
        # k4 leaves a factor on three vertices: 216^3 entries, past 10^7; c4 one on two
        sp = space([f"a{k}" for k in range(216)], np.full(216, 1 / 216))
        k = Kernel("f", 2, UNIT, sp, np.full((216, 216), 0.5), symmetric=True)
        assert equivalence._contraction(k, PATTERNS["k4"])[1] == math.inf
        x, b = equivalence._contraction(k, PATTERNS["c4"])
        assert x == pytest.approx(0.0625, rel=1e-13) and b < 1e-13


class TestGraphLawExact:
    def test_constant_n2(self):
        p = 0.35
        law = graph_law_exact(const_graph_kernel(p), 2)
        assert law.tolist() == pytest.approx([1 - p, p], abs=1e-15)

    def test_constant_n3_binomial(self):
        p = 0.35
        law = graph_law_exact(const_graph_kernel(p), 3)
        for mask in range(8):
            e = bin(mask).count("1")
            assert law[mask] == pytest.approx(p**e * (1 - p) ** (3 - e), rel=1e-12)

    def test_two_block_edge_probability_matches_hom_density(self):
        k = two_block_kernel()
        law = graph_law_exact(k, 2)
        assert law[1] == pytest.approx(hom_density(k, PATTERNS["edge"]), rel=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            sp = random_space(rng, int(rng.integers(2, 4)))
            k = random_kernel(rng, sp, 2, UNIT, "f", symmetric=True)
            law = graph_law_exact(k, 3)
            assert math.fsum(law.tolist()) == pytest.approx(1.0, abs=1e-9)

    def test_equals_scalar_loop(self):
        for k in oracle_kernels():
            for n in (2, 3, 4):
                assert graph_law_exact(k, n).tolist() == graph_law_loop(k, n).tolist()

    def test_scale_error(self):
        with pytest.raises(ScaleError):
            graph_law_exact(const_graph_kernel(0.5), 4, cap=10)


class TestMcTwoSampleTest:
    """Kernel sides; ``TestMcKernelSides`` shows that they mean exactly
    ``lambda s: sample_graph(kernel, n, s)``."""

    def test_null_case_passes(self):
        k = two_block_kernel()
        pvals = []
        for master in (1, 2, 3):
            report = mc_two_sample_test(k, k, 3, 2000, master)
            pvals.append(report["pvalues"]["labeled_graphs"])
            assert report["mode"] == "chi2"
        # identical laws: p-values not systematically below alpha
        assert sum(p >= 0.01 for p in pvals) >= 2
        assert max(pvals) > 0.05

    def test_gross_alternative_fails(self):
        report = mc_two_sample_test(const_graph_kernel(0.2), const_graph_kernel(0.8), 3, 10_000, 0)
        assert not report["pass"]
        assert report["pvalues"]["labeled_graphs"] < 0.01

    def test_represented_kernel_passes(self):
        sp = space("ab", (0.4, 0.6))
        table = {("a", "a"): 0.2, ("a", "b"): 0.7, ("b", "a"): 0.7, ("b", "b"): 0.5}
        k = table_kernel("f", sp, table, symmetric=True)
        fam = KernelFamily((k,))
        rep = represent_family(sp, fam)
        # exact check first: the laws coincide
        law_src = exact_joint_law(sp, fam, 3)
        law_rep = exact_joint_law(*step_family_as_space(rep), 3)
        assert tv_distance(law_src, law_rep) <= 1e-9
        report = mc_two_sample_test(k, rep.kernels[0], 3, 4000, 5)
        assert report["pass"], report

    def test_power_error_with_tiny_runs(self):
        with pytest.raises(PowerError) as excinfo:
            mc_two_sample_test(const_graph_kernel(0.2), const_graph_kernel(0.8), 3, 3, 1)
        assert excinfo.value.required_runs is None or excinfo.value.required_runs > 3

    def test_degenerate_identical_distributions_pass(self):
        k = const_graph_kernel(1.0)
        report = mc_two_sample_test(k, k, 3, 4, 0)
        assert report["pass"]

    def test_ztest_mode_for_larger_n(self):
        k = two_block_kernel()
        report = mc_two_sample_test(k, k, 8, 400, 9)
        assert report["mode"] == "ztest"
        assert set(report["pvalues"]) == {"edge_count", "triangle_count"}
        assert report["pass"]


class TestMcKernelSides:
    """A Kernel side means exactly ``lambda s: sample_graph(kernel, n, s)``."""

    @staticmethod
    def _kernels():
        sp = space("abc", (0.5, 0.3, 0.2))
        values = {("a", "a"): 0.1, ("a", "b"): 0.4, ("a", "c"): 0.6,
                  ("b", "b"): 0.2, ("b", "c"): 0.5, ("c", "c"): 0.3}
        values.update({(j, i): v for (i, j), v in list(values.items())})
        kernel = table_kernel("f", sp, values, symmetric=True)
        return kernel, represent_family(sp, KernelFamily((kernel,))).kernels[0]

    @staticmethod
    def _outcome(a, b, n, runs, seed, **kwargs):
        try:
            return mc_two_sample_test(a, b, n, runs, seed, **kwargs)
        except PowerError as exc:
            return ("PowerError", str(exc), exc.required_runs)

    def test_reports_equal_lambda_sides(self):
        table, step = self._kernels()
        cases = ((1, 50), (3, 400), (3, 3), (5, 300), (8, 60), (8, 1), (31, 40))
        for n, runs in cases:
            for seed in (0, 7, -3):
                def lam(kernel, n=n):
                    return lambda s: sample_graph(kernel, n, s)

                expected = self._outcome(lam(table), lam(step), n, runs, seed)
                assert self._outcome(table, step, n, runs, seed) == expected
                assert self._outcome(table, lam(step), n, runs, seed) == expected
                assert self._outcome(step, step, n, runs, seed) == self._outcome(
                    lam(step), lam(step), n, runs, seed
                )

    def test_blocks_do_not_change_observations(self, monkeypatch):
        table, _ = self._kernels()
        seeds = derive_seed(3, 0, np.arange(50, dtype=np.uint64))
        for n in (1, 3, 8):
            graphs = [sample_graph(table, n, s) for s in seeds.tolist()]
            masks = [graph_bitmask(g.edges.tolist(), n) for g in graphs]
            assert _observations(table, n, seeds, chi2=True).tolist() == masks
            for chi2 in (True, False):
                whole = _observations(table, n, seeds, chi2).tolist()
                side = lambda s, n=n: sample_graph(table, n, s)  # noqa: E731
                for block in (1, 7, 100):
                    with monkeypatch.context() as m:
                        m.setattr(sampling, "_BLOCK", block)
                        assert _observations(table, n, seeds, chi2).tolist() == whole
                        assert _observations(side, n, seeds, chi2).tolist() == whole

    @pytest.mark.parametrize("block", (1, 7, 100))
    def test_observation_blocks_honour_the_budget(self, monkeypatch, block):
        # each side is drawn in passes of at most max(1, budget // (n * ceil(n / 64)))
        # seeds, its bit words, covering the seeds once and in order; within a pass each
        # _draw_edges block holds at most the budget in coins, or one row
        table, _ = self._kernels()
        seeds = derive_seed(3, 0, np.arange(50, dtype=np.uint64))
        real_words, real_draw = equivalence._graph_words, sampling._draw_edges
        passes, blocks = [], []

        def graph_words(side, n, ss):
            passes.append(ss.tolist())
            return real_words(side, n, ss)

        def draw_edges(values, cells, seed, take):
            def counted(r0, edge):
                blocks.append(edge.shape)
                return take(r0, edge)
            return real_draw(values, cells, seed, counted if np.ndim(seed) else take)

        monkeypatch.setattr(equivalence, "_graph_words", graph_words)
        monkeypatch.setattr(sampling, "_draw_edges", draw_edges)
        monkeypatch.setattr(sampling, "_BLOCK", block)
        for n in (1, 3, 8, 70):
            step = max(1, block // (n * -(-n // 64)))
            side = lambda s, n=n: sample_graph(table, n, s)  # noqa: E731
            for sampler, chi2 in product((table, side), (True, False) if n <= 8 else (False,)):
                passes.clear()
                blocks.clear()
                _observations(sampler, n, seeds, chi2)
                assert sum(passes, []) == seeds.tolist()
                assert max(map(len, passes)) <= step and len(passes) == -(-50 // step)
                assert all(t * c * r <= block or t == 1 for t, c, r in blocks)
                assert sum(t for t, _, _ in blocks) == len(passes) * (n - 1) * (sampler is table)

    def test_statistics_with_kernel_side(self):
        table, step = self._kernels()
        stats = [
            ("edges", lambda g: float(g.edge_count)),
            ("first_cell", lambda g: float(g.latents.cells[0])),
        ]
        for n in (3, 8):
            expected = mc_two_sample_test(
                lambda s: sample_graph(table, n, s), lambda s: sample_graph(step, n, s),
                n, 100, 5, statistics=stats,
            )
            assert expected["mode"] == "ztest" and set(expected["pvalues"]) == {"edges", "first_cell"}
            assert mc_two_sample_test(table, step, n, 100, 5, statistics=stats) == expected
            assert mc_two_sample_test(table, step, n, 100, 5, statistics=iter(stats)) == expected

    def test_callable_sides_get_python_ints(self):
        table, _ = self._kernels()
        got = []

        def side(s):
            got.append(s)
            return sample_graph(table, 3, s)

        stats = [("edges", lambda g: float(g.edge_count))]
        for kwargs in ({}, {"statistics": stats}):
            got.clear()
            self._outcome(side, side, 3, 20, -3, **kwargs)
            runs = np.arange(20, dtype=np.uint64)
            assert got == derive_seed(-3, 0, runs).tolist() + derive_seed(-3, 1, runs).tolist()
            assert {type(s) for s in got} == {int}

    @pytest.mark.parametrize(
        "n, runs, seed, expected",
        [
            # a tail bucket of rare graphs
            (5, 300, 0, {"pvalues": {"labeled_graphs": 0.21912793371541162},
                         "statistic": 3.0361990950226243, "df": 2, "buckets": 3}),
            (4, 500, 7, {"pvalues": {"labeled_graphs": 0.434168794464881},
                         "statistic": 42.85880539798892, "df": 42, "buckets": 43}),
            (2, 30, 2, {"pvalues": {"labeled_graphs": 0.7952497535349383},
                        "statistic": 0.06734006734006734, "df": 1, "buckets": 2}),
            (1, 50, 0, {"pvalues": {"labeled_graphs": 1.0}, "buckets": 1}),
            (3, 3, 0, ("PowerError", "3 runs leave fewer than two frequency buckets with "
                       "expected count >= 5.0 (try runs >= 15)", 15)),
        ],
    )
    def test_chi2_reports_pinned(self, n, runs, seed, expected):
        # captured from the Counter-based bucket reduction the arrays replaced
        table, step = self._kernels()
        report = self._outcome(table, step, n, runs, seed)
        if isinstance(expected, tuple):
            assert report == expected
            return
        assert report == {"pass": True, "mode": "chi2", "runs": runs, "alpha": 0.01, **expected}
        assert [type(report[k]) for k in ("pass", "buckets")] == [bool, int]
        if "df" in report:
            assert [type(report[k]) for k in ("statistic", "df")] == [float, int]
            assert type(report["pvalues"]["labeled_graphs"]) is float


def test_triangle_count_matches_triple_count():
    # the batched z-test observations of a kernel side and of a callable
    # side, graph by graph, against brute-force edge and triple counts
    cases = ((1, 0.5, 1), (3, 0.0, 2), (3, 1.0, 3), (12, 0.5, 4), (25, 0.3, 5), (25, 0.9, 6))
    for n, p, seed in cases:
        kernel = const_graph_kernel(p)
        seeds = [seed, seed + 100, seed + 200]
        for side in (kernel, lambda s: sample_graph(kernel, n, s)):
            edge_counts, triangles = _observations(side, n, seeds, chi2=False)
            for s, e, t in zip(seeds, edge_counts.tolist(), triangles.tolist()):
                edges = set(map(tuple, sample_graph(kernel, n, s).edges.tolist()))
                triples = sum(
                    {(i, j), (j, k), (i, k)} <= edges
                    for i, j, k in combinations(range(1, n + 1), 3)
                )
                assert (e, t) == (len(edges), triples)


@pytest.mark.parametrize("n", (466, 467))
def test_complete_graph_counts_at_the_float32_edge(n):
    # C(466, 3) <= 2^24 < C(467, 3): the last n counted in float32 and the
    # first in float64, where float32 would drop the odd triangle count by one
    kernel = const_graph_kernel(1.0)
    for side in (kernel, lambda s: sample_graph(kernel, n, s)):
        got = _observations(side, n, [3, 4], chi2=False)
        assert got.dtype == np.float64
        assert got.tolist() == [[math.comb(n, 2)] * 2, [math.comb(n, 3)] * 2]


def _upper_words(upper: np.ndarray) -> np.ndarray:
    """The ``(graphs, n, ceil(n / 64))`` forward-neighbour words of strict upper
    adjacency bools, as ``equivalence._graph_words`` packs them."""
    graphs, n, _ = upper.shape
    bits = np.zeros((graphs, n, -(-n // 64) * 64), bool)
    bits[:, :, :n] = upper
    return np.packbits(bits, axis=-1, bitorder="little").view("<u8")


def _triples(upper: np.ndarray) -> int:
    """Brute force: the triples i < j < k of one graph with all three edges, row i's
    pairs of forward neighbours (j, k) that are themselves an edge."""
    return sum(int((np.outer(row, row) & upper).sum()) for row in upper)


@st.composite
def upper_graphs(draw):
    """Strict upper adjacencies of a few random graphs on 3 to 80 vertices, or on
    466 or 467 (the float32 edge of the dense counter), dense or sparse."""
    n = draw(st.one_of(st.integers(3, 80), st.sampled_from((466, 467))))
    p = draw(st.sampled_from((0.0, 1.0 / n, 3.0 / n, 0.2, 0.5, 0.9, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.triu(rng.random((draw(st.integers(1, 3)), n, n)) < p, 1)


@settings(max_examples=60, deadline=None)
@given(upper=upper_graphs())
@example(upper=np.triu(np.ones((2, 467, 467), bool), 1))
@example(upper=np.triu(np.ones((1, 466, 466), bool), 1))
def test_triangle_counters_match_triple_count(upper):
    # both counters, and the observations, against a brute-force count, graph by graph
    words = _upper_words(upper)
    expected = [_triples(graph) for graph in upper]
    assert equivalence._dense_triangles(words).tolist() == expected
    assert equivalence._sparse_triangles(words).tolist() == expected
    edges, triangles = equivalence._counts(words)
    assert edges.tolist() == upper.sum(axis=(1, 2)).tolist() and triangles.tolist() == expected


def test_counter_rule_sends_cases_to_both_counters(monkeypatch):
    # random graphs on 3 to 80 vertices at densities from 1/n to 1 meet both counters
    picked = set()
    for name in ("_dense_triangles", "_sparse_triangles"):
        real = getattr(equivalence, name)
        spy = lambda w, name=name, real=real: picked.add(name) or real(w)  # noqa: E731
        monkeypatch.setattr(equivalence, name, spy)
    rng = np.random.default_rng(32)
    for n in (3, 10, 31, 80):
        for p in (1.0 / n, 0.5, 1.0):
            equivalence._counts(_upper_words(np.triu(rng.random((2, n, n)) < p, 1)))
    assert picked == {"_dense_triangles", "_sparse_triangles"}


def _unique_buckets(obs_a, obs_b):
    """The chi-squared bucket counts in their ``np.unique`` form."""
    distinct, inverse = np.unique(np.concatenate((obs_a, obs_b)), return_inverse=True)
    return np.stack([np.bincount(side, minlength=len(distinct)) for side in np.split(inverse, 2)])


@st.composite
def mask_pairs(draw):
    """Two equal-length sides of labeled-graph masks on n <= 5 vertices; sides may
    share no mask, and masks may be seen on one side only."""
    pairs = draw(st.integers(0, 10))
    runs = draw(st.integers(1, 40))
    masks = st.integers(0, (1 << pairs) - 1)
    obs_a = draw(st.lists(masks, min_size=runs, max_size=runs))
    unseen = sorted(set(range(1 << pairs)) - set(obs_a))
    if unseen and draw(st.booleans()):  # no common mask
        masks = st.sampled_from(unseen)
    obs_b = draw(st.lists(masks, min_size=runs, max_size=runs))
    return pairs, np.array(obs_a, np.int64), np.array(obs_b, np.int64)


@settings(max_examples=300, deadline=None)
@given(mask_pairs())
@example((3, np.array([0, 3, 3]), np.array([3, 5, 0])))  # mask 5 on one side only
@example((3, np.array([6, 1]), np.array([2, 2])))  # no common mask
def test_mask_counts_equal_the_unique_buckets(case):
    pairs, obs_a, obs_b = case
    got = _mask_counts(obs_a, obs_b, pairs)
    expected = _unique_buckets(obs_a, obs_b)
    assert got.dtype == expected.dtype and got.tolist() == expected.tolist()

class TestCanonicalKeys:
    def test_order(self):
        sp = space("ab", (0.5, 0.5))
        k1 = table_kernel("f", sp, {("a",): 0.5, ("b",): 0.25})
        k2 = cross_kernel(sp, "g")
        fam = KernelFamily((k1, k2))
        assert exact_joint_law(sp, fam, 2).keys == (
            ("f", (1,)),
            ("f", (2,)),
            ("g", (1, 2)),
            ("g", (2, 1)),
        )


class TestClosedFormTails:
    """The standard-library tails used by mc_two_sample_test, checked
    against scipy.stats on a grid."""

    DFS = [*range(1, 40), 63, 100, 255, 511, 1023]

    def test_chi2_sf_matches_scipy(self):
        from scipy.stats import chi2

        for df in self.DFS:
            for x in np.geomspace(1e-6, 1500.0, 60):
                ref = chi2.sf(x, df)
                if ref > 1e-300:
                    assert _chi2_sf(float(x), df) == pytest.approx(ref, rel=1e-10), (df, x)

    def test_chi2_sf_edges(self):
        assert _chi2_sf(0.0, 1) == 1.0
        assert _chi2_sf(0.0, 4) == 1.0
        assert _chi2_sf(2.0, 2) == math.exp(-1.0)
        assert _chi2_sf(1e5, 1023) == 0.0

    def test_two_sided_normal_matches_scipy(self):
        from scipy.stats import norm

        for z in np.linspace(0.0, 37.0, 371):
            ref = 2.0 * norm.sf(z)
            if ref > 1e-300:
                assert math.erfc(z / math.sqrt(2.0)) == pytest.approx(ref, rel=1e-10), z

    def test_chi2_report_pvalue_matches_scipy(self):
        from scipy.stats import chi2

        ka, kb = const_graph_kernel(0.4), const_graph_kernel(0.45)
        report = mc_two_sample_test(
            lambda s: sample_graph(ka, 3, s), lambda s: sample_graph(kb, 3, s), 3, 2000, 4
        )
        ref = chi2.sf(report["statistic"], report["df"])
        assert report["pvalues"]["labeled_graphs"] == pytest.approx(ref, rel=1e-10)

    def test_ztest_report_pvalue_matches_scipy(self):
        from scipy.stats import norm

        # the "graphs" are the derived seeds themselves, so the statistic
        # samples can be rebuilt here
        def stat(s):
            return float(s % 101)

        report = mc_two_sample_test(
            lambda s: s, lambda s: s + 3, 40, 300, 2, statistics=[("mod", stat)]
        )
        runs = np.arange(300, dtype=np.uint64)
        xa = np.array([stat(s) for s in derive_seed(2, 0, runs).tolist()])
        xb = np.array([stat(s + 3) for s in derive_seed(2, 1, runs).tolist()])
        z = abs(xa.mean() - xb.mean()) / math.sqrt((xa.var(ddof=1) + xb.var(ddof=1)) / 300)
        ref = 2.0 * norm.sf(z)
        assert report["pvalues"]["mod"] == pytest.approx(ref, rel=1e-10)


def test_package_import_leaves_scipy_unloaded():
    script = (
        "import sys, unirep, unirep.cli;"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
