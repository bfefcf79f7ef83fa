import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unirep import (
    Cdf,
    DiscreteSpace,
    DomainError,
    IntervalPartition,
    KindError,
    SpecError,
    UnsupportedError,
    cdf_of_pushforward,
    interval_partition,
    lookup_cell,
    quantile,
    transport_map,
    validate_space,
)
from unirep.spaces import lookup_cells

from util import breakpoints_oracle, random_pwl_cdf, space


class TestValidateSpace:
    make = staticmethod(validate_space)

    def test_already_normalized_unchanged(self):
        sp = self.make(["a", "b"], [0.5, 0.5])
        assert sp.probs == (0.5, 0.5)
        assert sp.atom_ids == ("a", "b")
        assert validate_space(sp) is sp

    def test_tiny_excess_renormalized(self):
        sp = self.make(["a", "b"], [0.5, 0.5 + 1e-10])
        total = 1.0 + 1e-10
        assert sp.probs == (0.5 / total, (0.5 + 1e-10) / total)
        assert math.fsum(sp.probs) == pytest.approx(1.0, abs=1e-15)
        assert validate_space(sp) is sp

    def test_sum_out_of_tolerance(self):
        with pytest.raises(SpecError) as excinfo:
            self.make(["a", "b"], [0.7, 0.7])
        assert excinfo.value.field == "probs"

    def test_negative_prob(self):
        with pytest.raises(SpecError) as excinfo:
            self.make(["a", "b"], [1.2, -0.2])
        assert str(excinfo.value) == "probs: atom 'b' has invalid probability -0.2"

    def test_duplicate_atom_id(self):
        with pytest.raises(SpecError) as excinfo:
            self.make(["a", "a"], [0.5, 0.5])
        assert str(excinfo.value) == "atoms: duplicate atom id 'a'"

    def test_zero_prob_atoms_flagged(self):
        sp = self.make(["a", "b", "c"], [0.25, 0.0, 0.75])
        assert sp.zero_prob_atoms == ("b",)

    def test_empty_space_rejected(self):
        with pytest.raises(SpecError) as excinfo:
            self.make([], [])
        assert excinfo.value.field == "atoms"


class TestDiscreteSpaceChecksItself(TestValidateSpace):
    """The same cases for a space built directly, without validate_space."""

    make = staticmethod(DiscreteSpace)


class TestIntervalPartition:
    def test_prefix_sums(self):
        part = interval_partition(space("abc", (0.5, 0.3, 0.2)))
        assert part.breakpoints == (0.0, 0.5, 0.8, 1.0)
        assert part.cell_labels == ("a", "b", "c")

    def test_single_atom(self):
        part = interval_partition(space("a", (1.0,)))
        assert part.breakpoints == (0.0, 1.0)

    def test_zero_prob_atom_empty_cell(self):
        part = interval_partition(space("abc", (0.25, 0.0, 0.75)))
        assert part.breakpoints == (0.0, 0.25, 0.25, 1.0)
        assert part.lengths[1] == 0.0

    def test_invalid_breakpoints_rejected(self):
        with pytest.raises(SpecError):
            IntervalPartition((0.0, 0.6, 0.5, 1.0), ("a", "b", "c"))
        with pytest.raises(SpecError):
            IntervalPartition((0.0, 0.5), ("a", "b"))

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10)
    )
    @example(raw=[1.0, 7.7e-219])
    @example(raw=[0.5, 1e-20, 0.5])
    @settings(max_examples=200)
    def test_lengths_match_probs(self, raw):
        total = math.fsum(raw)
        if total <= 0.0:
            return
        probs = [p / total for p in raw]
        sp = validate_space([f"a{k}" for k in range(len(probs))], probs)
        bp = breakpoints_oracle(sp.probs)
        if any(p > 0.0 and lo == hi for p, lo, hi in zip(sp.probs, bp, bp[1:])):
            with pytest.raises(UnsupportedError, match="but an empty cell"):
                interval_partition(sp)
            return
        part = interval_partition(sp)
        assert part.breakpoints[0] == 0.0
        assert part.breakpoints[-1] == 1.0
        assert math.fsum(part.lengths) == pytest.approx(1.0, abs=1e-15)
        for length, p in zip(part.lengths, sp.probs):
            assert length == pytest.approx(p, abs=4 * np.finfo(float).eps)

    @given(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324, 1e-310, 1 / 3])),
                    min_size=1, max_size=64))
    @example(raw=[0.5, 1e-20, 0.5])
    @example(raw=[1 / 3] * 3)
    @example(raw=[5e-324, 5e-324])
    @settings(max_examples=300, deadline=None)
    def test_breakpoints_equal_exact_prefix_sums(self, raw):
        """Each breakpoint is its exact prefix sum rounded once, bit for bit, across
        subnormal, zero and inexact probabilities; a positive atom that rounds to an
        empty cell is refused."""
        total = math.fsum(raw)
        if total <= 0.0:
            return
        sp = validate_space([f"a{k}" for k in range(len(raw))], [p / total for p in raw])
        bp = breakpoints_oracle(sp.probs)
        if any(p > 0.0 and lo == hi for p, lo, hi in zip(sp.probs, bp, bp[1:])):
            with pytest.raises(UnsupportedError, match="but an empty cell"):
                interval_partition(sp)
        else:
            assert interval_partition(sp).breakpoints == tuple(bp)


class TestLookupCell:
    def test_half_open_convention(self):
        part = IntervalPartition((0.0, 0.5, 1.0), ("a", "b"))
        assert lookup_cell(part, 0.5) == 1
        assert lookup_cell(part, 0.4999) == 0
        assert lookup_cell(part, 0.0) == 0

    def test_empty_cell_skipped(self):
        part = IntervalPartition((0.0, 0.25, 0.25, 1.0), ("a", "b", "c"))
        assert lookup_cell(part, 0.25) == 2

    def test_domain_errors(self):
        part = IntervalPartition((0.0, 1.0), ("a",))
        with pytest.raises(DomainError):
            lookup_cell(part, 1.0)
        with pytest.raises(DomainError):
            lookup_cell(part, -0.1)

    def test_vectorized_matches_scalar(self):
        part = interval_partition(space("abcd", (0.1, 0.0, 0.55, 0.35)))
        rng = np.random.default_rng(5)
        u = np.concatenate((rng.random(1000), part.breakpoints[:-1]))
        oracle = [bisect_right(part.breakpoints, x) - 1 for x in u.tolist()]
        assert lookup_cells(part, u).tolist() == oracle
        assert [lookup_cell(part, x) for x in u.tolist()] == oracle

    @pytest.mark.parametrize("bad", [1.0, -0.25, float("nan")])
    def test_domain_error_names_plain_float(self, bad):
        part = IntervalPartition((0.0, 1.0), ("a",))
        for lookup in (lambda: lookup_cell(part, bad), lambda: lookup_cells(part, [0.5, bad])):
            with pytest.raises(DomainError) as excinfo:
                lookup()
            assert str(excinfo.value) == f"u={bad!r} outside [0,1)"

    def test_never_returns_empty_cell_and_frequencies(self):
        # 1e5 uniforms: empirical cell frequencies within 4 sigma of lengths
        sp = space("abc", (0.25, 0.0, 0.75))
        part = interval_partition(sp)
        rng = np.random.default_rng(12345)
        u = rng.random(100_000)
        cells = lookup_cells(part, u)
        assert not (cells == 1).any()
        for k, p in enumerate(sp.probs):
            if p == 0.0:
                continue
            count = int((cells == k).sum())
            sigma = math.sqrt(len(u) * p * (1 - p))
            assert abs(count - len(u) * p) <= 4 * sigma

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    @settings(max_examples=300)
    def test_returned_cell_contains_u(self, u):
        part = IntervalPartition((0.0, 0.2, 0.2, 0.7, 1.0), ("a", "b", "c", "d"))
        k = lookup_cell(part, u)
        assert part.breakpoints[k] <= u < part.breakpoints[k + 1] or (
            part.breakpoints[k] <= u and part.breakpoints[k + 1] == 1.0
        )
        assert part.breakpoints[k] < part.breakpoints[k + 1]


class TestCdfValidation:
    def test_needs_monotone_x(self):
        with pytest.raises(SpecError):
            Cdf("step", ((1.0, 0.5), (1.0, 1.0)))

    def test_needs_monotone_cumulative(self):
        with pytest.raises(SpecError):
            Cdf("step", ((0.0, 0.7), (1.0, 0.5)))

    def test_final_cumulative_snapped(self):
        cdf = Cdf("step", ((0.0, 0.5), (1.0, 1.0 - 1e-13)))
        assert cdf.cums[-1] == 1.0

    def test_final_cumulative_out_of_tolerance(self):
        with pytest.raises(SpecError):
            Cdf("step", ((0.0, 0.5), (1.0, 0.9)))

    def test_unknown_kind(self):
        with pytest.raises(SpecError):
            Cdf("gaussian", ((0.0, 1.0),))


class TestStepCdfEvaluate:
    # jumps of 1/4, 3/8 and 3/8 at -1, 0.5 and 2; F is right-continuous
    CDF = Cdf("step", ((-1.0, 0.25), (0.5, 0.625), (2.0, 1.0)))
    POINTS = [
        (-math.inf, 0.0), (-5.0, 0.0), (math.nextafter(-1.0, -math.inf), 0.0),  # below the first jump
        (-1.0, 0.25), (0.5, 0.625), (2.0, 1.0),  # at each jump
        (0.0, 0.25), (math.nextafter(0.5, -math.inf), 0.25), (1.0, 0.625),  # between jumps
        (math.nextafter(2.0, math.inf), 1.0), (1e300, 1.0), (math.inf, 1.0),  # past the last one
    ]

    @pytest.mark.parametrize("x, f", POINTS)
    def test_scalar(self, x, f):
        value = self.CDF.evaluate(x)
        assert type(value) is float and value == f

    def test_array(self):
        xs, fs = map(np.array, zip(*self.POINTS))
        assert np.array_equal(self.CDF.evaluate_array(xs), fs)
        grid = xs.reshape(3, 4)
        assert np.array_equal(self.CDF.evaluate_array(grid), fs.reshape(3, 4))


class TestTransportMap:
    def test_identity_cdf(self):
        ident = Cdf("pwl", ((0.0, 0.0), (1.0, 1.0)))
        f = transport_map(ident)
        assert f(0.42) == 0.42

    def test_linear_interpolation(self):
        cdf = Cdf("pwl", ((0.0, 0.0), (0.5, 0.8), (1.0, 1.0)))
        f = transport_map(cdf)
        assert f(0.25) == pytest.approx(0.4, abs=1e-15)

    def test_step_kind_rejected(self):
        step = Cdf("step", ((0.0, 1.0),))
        with pytest.raises(KindError):
            transport_map(step)

    def test_pushforward_is_uniform(self):
        # samples of nu (via the quantile) transported through F are uniform
        from scipy.stats import kstest

        rng = np.random.default_rng(777)
        cdf = random_pwl_cdf(rng)
        from unirep import quantile_array

        u = rng.random(100_000)
        x = quantile_array(cdf, u)
        transported = transport_map(cdf)(x)
        assert kstest(transported, "uniform").pvalue >= 0.01


class TestCdfOfPushforward:
    def test_two_values(self):
        sp = space("ab", (0.3, 0.7))
        cdf = cdf_of_pushforward(sp, {"a": 1.0, "b": 0.0})
        assert cdf.points == ((0.0, 0.7), (1.0, 1.0))

    def test_constant_function(self):
        sp = space("ab", (0.3, 0.7))
        cdf = cdf_of_pushforward(sp, lambda a: 5.0)
        assert cdf.points == ((5.0, 1.0),)

    def test_merged_equal_values(self):
        sp = space("abc", (0.25, 0.25, 0.5))
        cdf = cdf_of_pushforward(sp, {"a": 2.0, "b": 2.0, "c": 1.0})
        assert cdf.points == ((1.0, 0.5), (2.0, 1.0))

    def test_zero_mass_values_dropped(self):
        sp = space("abc", (0.25, 0.0, 0.75))
        cdf = cdf_of_pushforward(sp, {"a": 0.0, "b": 1.0, "c": 2.0})
        assert [x for x, _ in cdf.points] == [0.0, 2.0]

    def test_quantile_roundtrip_recovers_step_cdf(self):
        # pushforward of Lebesgue through the quantile has the same CDF,
        # recovered exactly via the interval convention
        rng = np.random.default_rng(99)
        for _ in range(20):
            sp = space([f"a{k}" for k in range(4)], rng.dirichlet(np.ones(4)))
            g = {a: float(rng.integers(0, 3)) for a in sp.atom_ids}
            cdf = cdf_of_pushforward(sp, g)
            masses = {}
            prev = 0.0
            for y, c in cdf.points:
                masses[y] = (prev, c)
                prev = c
            for y, (lo, hi) in masses.items():
                assert quantile(cdf, lo) == y
                assert quantile(cdf, (lo + hi) / 2) == y
                before_hi = np.nextafter(hi, 0.0)
                if before_hi >= lo:
                    assert quantile(cdf, before_hi) == y
