import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unirep import (
    Cdf,
    DomainError,
    KernelFamily,
    KindError,
    MeasurabilityError,
    SpecError,
    ValueSpace,
    borel_embed,
    cantor_encode,
    cantor_represent_family,
    check_symmetry,
    exact_joint_law,
    interval_partition,
    lookup_cell,
    quantile,
    quantile_array,
    represent_family,
    sigma_atoms,
    step_family_as_space,
    tv_distance,
)

from util import (
    LABELS3,
    REAL,
    UNIT,
    random_family,
    random_kernel,
    random_space,
    random_step_cdf,
    space,
    table_kernel,
)


def scan_quantile(cdf, u):
    """Independent oracle: first jump whose cumulative exceeds u."""
    for y, c in cdf.points:
        if c > u:
            return y
    raise AssertionError("u beyond final cumulative")


def scan_quantile_pwl(cdf, u):
    """Independent oracle: interpolate below the first knot whose
    cumulative reaches u."""
    for j, (x1, c1) in enumerate(cdf.points):
        if c1 >= u:
            if j == 0:
                return x1
            x0, c0 = cdf.points[j - 1]
            return x0 + (u - c0) * (x1 - x0) / (c1 - c0)
    raise AssertionError("u beyond final cumulative")


class TestQuantileStep:
    def test_two_jump_example(self):
        cdf = Cdf("step", ((0.0, 0.3), (1.0, 1.0)))
        assert quantile(cdf, 0.1) == 0.0
        assert quantile(cdf, 0.3) == 1.0

    def test_three_jump_example_against_scan(self):
        cdf = Cdf("step", ((-1.0, 0.5), (2.0, 0.75), (7.0, 1.0)))
        assert scan_quantile(cdf, 0.6) == 2.0
        assert quantile(cdf, 0.6) == 2.0

    def test_matches_scan_on_random_cdfs(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            cdf = random_step_cdf(rng)
            for u in rng.random(50).tolist():
                assert quantile(cdf, u) == scan_quantile(cdf, u)
            for _, c in cdf.points[:-1]:
                assert quantile(cdf, c) == scan_quantile(cdf, c)

    def test_right_continuity_at_jump_cumulatives(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            cdf = random_step_cdf(rng)
            for _, c in cdf.points:
                if c + 1e-12 < 1.0:
                    assert quantile(cdf, c) == quantile(cdf, c + 1e-12)

    def test_preimage_measure_equals_jump_mass(self):
        # the preimage of y_j is exactly [c_{j-1}, c_j), so its Lebesgue
        # measure is the jump mass; check the interval boundaries
        rng = np.random.default_rng(44)
        for _ in range(25):
            cdf = random_step_cdf(rng)
            prev = 0.0
            for y, c in cdf.points:
                assert quantile(cdf, prev) == y
                assert quantile(cdf, (prev + c) / 2) == y
                before = np.nextafter(c, 0.0)
                if before >= prev:
                    assert quantile(cdf, before) == y
                prev = c

    def test_domain_error(self):
        cdf = Cdf("step", ((0.0, 1.0),))
        with pytest.raises(DomainError):
            quantile(cdf, 1.0)
        with pytest.raises(DomainError):
            quantile(cdf, -0.2)

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    @settings(max_examples=300)
    def test_scan_agreement_property(self, u):
        cdf = Cdf("step", ((-2.0, 0.25), (0.5, 0.5), (3.0, 0.875), (9.0, 1.0)))
        assert quantile(cdf, u) == scan_quantile(cdf, u)


class TestQuantilePiecewiseLinear:
    def test_identity(self):
        ident = Cdf("pwl", ((0.0, 0.0), (1.0, 1.0)))
        assert quantile(ident, 0.42) == 0.42

    def test_functional_inverse(self):
        cdf = Cdf("pwl", ((0.0, 0.0), (0.5, 0.8), (1.0, 1.0)))
        assert quantile(cdf, 0.4) == pytest.approx(0.25, abs=1e-15)
        assert quantile(cdf, 0.9) == pytest.approx(0.75, abs=1e-15)

    def test_left_continuous_inverse_on_flat(self):
        cdf = Cdf("pwl", ((0.0, 0.0), (0.25, 0.5), (0.75, 0.5), (1.0, 1.0)))
        assert quantile(cdf, 0.5) == 0.25

    def test_zero_maps_to_first_knot(self):
        cdf = Cdf("pwl", ((2.0, 0.0), (3.0, 1.0)))
        assert quantile(cdf, 0.0) == 2.0

    def test_zero_on_flat_start(self):
        cdf = Cdf("pwl", ((0.0, 0.0), (1.0, 0.0), (2.0, 1.0)))
        assert quantile(cdf, 0.0) == 0.0
        assert quantile_array(cdf, [0.0, 0.5]).tolist() == [0.0, 1.5]

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(45)
        cdf = Cdf("pwl", ((-1.0, 0.0), (0.0, 0.25), (2.0, 0.75), (2.5, 1.0)))
        u = np.concatenate((rng.random(500), cdf.cums[:-1]))
        oracle = [scan_quantile_pwl(cdf, x) for x in u.tolist()]
        assert quantile_array(cdf, u).tolist() == oracle
        assert [quantile(cdf, x) for x in u.tolist()] == oracle

    def test_vectorized_matches_scalar_step(self):
        rng = np.random.default_rng(46)
        cdf = random_step_cdf(rng)
        u = np.concatenate((rng.random(500), cdf.cums[:-1]))
        assert quantile_array(cdf, u).tolist() == [scan_quantile(cdf, x) for x in u.tolist()]

    @pytest.mark.parametrize("bad", [1.0, -0.25, float("nan")])
    def test_domain_error_names_plain_float(self, bad):
        cdf = Cdf("pwl", ((0.0, 0.0), (1.0, 1.0)))
        for inverse in (lambda: quantile(cdf, bad), lambda: quantile_array(cdf, [0.5, bad])):
            with pytest.raises(DomainError) as excinfo:
                inverse()
            assert str(excinfo.value) == f"u={bad!r} outside [0,1)"


class TestBorelEmbedding:
    def test_labels_grid(self):
        emb = borel_embed(LABELS3)
        assert emb.forward(1) == 0.5
        assert [emb.forward(j) for j in range(3)] == [0.25, 0.5, 0.75]

    def test_real_at_zero(self):
        emb = borel_embed(REAL)
        assert emb.forward(0.0) == 0.5

    def test_unit_identity(self):
        emb = borel_embed(UNIT)
        assert emb.forward(0.3) == 0.3
        assert emb.inverse(0.3) == 0.3

    def test_label_roundtrip_exact(self):
        for count in (1, 2, 3, 7, 40):
            emb = borel_embed(ValueSpace("labels", count))
            for j in range(count):
                x = emb.forward(j)
                assert 0.0 < x < 1.0
                assert emb.inverse(x) == j

    def test_real_roundtrip_within_tolerance(self):
        emb = borel_embed(REAL)
        for s in np.linspace(-30.0, 30.0, 20001).tolist():
            assert abs(emb.inverse(emb.forward(s)) - s) < 1e-12

    def test_real_image_inside_unit_interval(self):
        emb = borel_embed(REAL)
        for s in (-1e6, -30.0, 0.0, 30.0, 1e6):
            assert 0.0 < emb.forward(s) < 1.0

    def test_default_outside_image(self):
        emb = borel_embed(REAL)
        assert emb.inverse(0.0) == emb.default == 0.0
        assert emb.inverse(1.0) == 0.0
        assert emb.inverse(-3.0) == 0.0
        lab = borel_embed(LABELS3)
        assert lab.inverse(-5.0) == lab.default == 0
        unit = borel_embed(UNIT)
        assert unit.inverse(1.5) == unit.default == 0.0

    def test_unsupported_kind(self):
        with pytest.raises((KindError, SpecError)):
            borel_embed(ValueSpace("complex"))

    @given(st.floats(min_value=-30.0, max_value=30.0, allow_nan=False))
    @settings(max_examples=300)
    def test_real_roundtrip_property(self, s):
        emb = borel_embed(REAL)
        assert abs(emb.inverse(emb.forward(s)) - s) < 1e-12


class TestCantorEncode:
    def test_membership_indicators(self):
        sp = space("abc", (0.5, 0.3, 0.2))
        codes = cantor_encode(sp, [["a"], ["a", "b"]])
        assert codes["a"].bits == (1, 1)
        assert codes["b"].bits == (0, 1)
        assert codes["c"].bits == (0, 0)

    def test_empty_generators(self):
        sp = space("abc", (0.5, 0.3, 0.2))
        codes = cantor_encode(sp, [])
        assert all(codes[a].bits == () for a in "abc")

    def test_non_separating_collision(self):
        sp = space("ab", (0.5, 0.5))
        codes = cantor_encode(sp, [["a", "b"]])
        assert codes["a"].bits == codes["b"].bits == (1,)

    def test_unknown_atom_in_generator(self):
        sp = space("ab", (0.5, 0.5))
        with pytest.raises(SpecError):
            cantor_encode(sp, [["z"]])


class TestSigmaAtoms:
    def test_collision_merges(self):
        sp = space("ab", (0.5, 0.5))
        assert sigma_atoms(sp, [["a", "b"]]) == (("a", "b"),)

    def test_separating_singletons(self):
        sp = space("abc", (0.5, 0.3, 0.2))
        classes = sigma_atoms(sp, [["a"], ["b"], ["c"]])
        assert classes == (("a",), ("b",), ("c",))

    def test_partial_merge(self):
        sp = space("abcd", (0.25, 0.25, 0.25, 0.25))
        assert sigma_atoms(sp, [["a", "b"]]) == (("a", "b"), ("c", "d"))


class TestRepresentFamily:
    def test_two_atom_cross_kernel(self):
        sp = space("ab", (0.5, 0.5))
        cross = {("a", "a"): 0.0, ("a", "b"): 1.0, ("b", "a"): 1.0, ("b", "b"): 0.0}
        fam = represent_family(sp, KernelFamily((table_kernel("f", sp, cross, symmetric=True),)))
        k = fam.kernels[0]
        from unirep import eval_kernel

        assert eval_kernel(k, (0.25, 0.75)) == 1.0
        assert eval_kernel(k, (0.75, 0.25)) == 1.0
        assert eval_kernel(k, (0.2, 0.3)) == 0.0
        assert eval_kernel(k, (0.9, 0.6)) == 0.0

    def test_constant_kernel_stays_constant(self):
        sp = space("abc", (0.5, 0.3, 0.2))
        const = {key: 0.3 for key in ((a, b) for a in "abc" for b in "abc")}
        fam = represent_family(sp, KernelFamily((table_kernel("f", sp, const, symmetric=True),)))
        assert set(fam.kernels[0].table.values()) == {0.3}

    def test_three_atom_joint_law_preserved(self):
        # exhaustive enumeration over all 27 atom triples on both sides
        sp = space("abc", (0.5, 0.3, 0.2))
        rng = np.random.default_rng(7)
        k = random_kernel(rng, sp, 2, REAL, "f")
        fam = KernelFamily((k,))
        law_src = exact_joint_law(sp, fam, 3)
        sp2, fam2 = step_family_as_space(represent_family(sp, fam))
        law_rep = exact_joint_law(sp2, fam2, 3)
        assert tv_distance(law_src, law_rep) <= 1e-9

    def test_zero_prob_atom_stays_unreachable(self):
        # a naive running sum of ten 0.1 ends at 0.9999999999999999, not 1
        sp = space("abcdefghijz", [0.1] * 10 + [0.0])
        part = interval_partition(sp)
        assert part.lengths[-1] == 0.0
        assert lookup_cell(part, 1.0 - 2.0**-53) != 10
        k = table_kernel("f", sp, {(a,): float(i) for i, a in enumerate(sp.atom_ids)}, REAL)
        fam = KernelFamily((k,))
        law_src = exact_joint_law(sp, fam, 2)
        law_rep = exact_joint_law(*step_family_as_space(represent_family(sp, fam)), 2)
        assert law_rep.support_size == law_src.support_size == 100
        assert set(law_rep.support) == set(law_src.support)

    def test_partition_matches_space(self):
        sp = space("abc", (0.5, 0.3, 0.2))
        k = table_kernel("f", sp, {(a,): 0.5 for a in "abc"})
        fam = represent_family(sp, KernelFamily((k,)))
        assert fam.domain == interval_partition(sp)

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            sp = random_space(rng, int(rng.integers(2, 5)))
            k = random_kernel(rng, sp, 2, UNIT, "f", symmetric=True)
            fam = represent_family(sp, KernelFamily((k,)))
            ok, witness = check_symmetry(fam.kernels[0])
            assert ok, witness

    def test_wrong_space_rejected(self):
        sp1 = space("ab", (0.5, 0.5))
        sp2 = space("ab", (0.3, 0.7))
        k = table_kernel("f", sp1, {("a",): 0.1, ("b",): 0.2})
        with pytest.raises(SpecError):
            represent_family(sp2, KernelFamily((k,)))


class TestCantorRepresentFamily:
    def test_separating_generators_same_law(self):
        rng = np.random.default_rng(9)
        sp = space("abc", (0.2, 0.5, 0.3))
        fam = random_family(rng, sp, [("f", 2, REAL, False), ("g", 1, LABELS3, False)])
        generators = [[a] for a in sp.atom_ids]
        direct = represent_family(sp, fam)
        cantor = cantor_represent_family(sp, generators, fam)
        for n in (1, 2, 3):
            law_d = exact_joint_law(*step_family_as_space(direct), n)
            law_c = exact_joint_law(*step_family_as_space(cantor), n)
            assert tv_distance(law_d, law_c) <= 1e-9

    def test_cell_order_is_lexicographic_by_code(self):
        sp = space("abc", (0.2, 0.5, 0.3))
        fam = KernelFamily((table_kernel("f", sp, {(a,): 0.5 for a in "abc"}),))
        cantor = cantor_represent_family(sp, [[a] for a in "abc"], fam)
        # codes: a -> 100, b -> 010, c -> 001; ascending lex: c, b, a
        assert cantor.domain.cell_labels == ("001", "010", "100")

    def test_non_separating_with_constant_kernel(self):
        sp = space("abc", (0.3, 0.3, 0.4))
        values = {("a",): 1.5, ("b",): 1.5, ("c",): -2.0}
        fam = KernelFamily((table_kernel("f", sp, values, value_space=REAL),))
        cantor = cantor_represent_family(sp, [["c"]], fam)
        assert len(cantor.domain) == 2
        law_src = exact_joint_law(sp, fam, 2)
        law_rep = exact_joint_law(*step_family_as_space(cantor), 2)
        assert tv_distance(law_src, law_rep) <= 1e-9

    def test_code_separating_kernel_raises_with_witness(self):
        sp = space("ab", (0.5, 0.5))
        values = {("a",): 0.0, ("b",): 1.0}
        fam = KernelFamily((table_kernel("f", sp, values, value_space=REAL),))
        with pytest.raises(MeasurabilityError) as excinfo:
            cantor_represent_family(sp, [], fam)
        err = excinfo.value
        codes = cantor_encode(sp, [])
        t1, t2 = err.witness
        assert tuple(codes[a].bits for a in t1) == tuple(codes[a].bits for a in t2)
        assert err.values[0] != err.values[1]
        assert err.kernel_name == "f"

    def test_witness_with_merged_class(self):
        # a and c share a code, as do b and d; the first mismatch in
        # product order is (c, b), whose class representative is (a, b)
        sp = space("abcd", (0.1, 0.2, 0.3, 0.4))
        cls = {"a": 0, "b": 1, "c": 0, "d": 1}
        base = {(0, 0): 0.1, (0, 1): 0.4, (1, 0): 0.4, (1, 1): 0.7}
        table = {(x, y): base[cls[x], cls[y]] for x in "abcd" for y in "abcd"}
        table[("d", "a")] = 0.9
        table[("c", "b")] = 0.8
        fam = KernelFamily((table_kernel("f", sp, table),))
        with pytest.raises(MeasurabilityError) as excinfo:
            cantor_represent_family(sp, [["a", "c"]], fam)
        assert excinfo.value.witness == (("a", "b"), ("c", "b"))
        assert excinfo.value.values == (0.4, 0.8)

    def test_empty_generators_with_constant_family(self):
        sp = space("ab", (0.4, 0.6))
        fam = KernelFamily((table_kernel("f", sp, {("a",): 0.7, ("b",): 0.7}),))
        cantor = cantor_represent_family(sp, [], fam)
        assert cantor.domain.cell_labels == ("",)
        assert cantor.domain.breakpoints == (0.0, 1.0)

    def test_generators_may_be_one_shot_iterable(self):
        sp = space("abc", (0.2, 0.5, 0.3))
        fam = KernelFamily((table_kernel("f", sp, {(a,): 0.5 for a in "abc"}),))
        lazy = ([a] for a in sp.atom_ids)
        cantor = cantor_represent_family(sp, lazy, fam)
        assert len(cantor.domain) == 3
