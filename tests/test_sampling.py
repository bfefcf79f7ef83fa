import json
import math
import os
import subprocess
import sys
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from unirep import sampling
from unirep import (
    ArityError,
    Kernel,
    KernelFamily,
    RangeError,
    SymmetryError,
    UnsupportedError,
    interval_partition,
    represent_family,
    sample_array,
    sample_graph,
    sample_latents,
    unit_uniform,
    unit_uniform_array,
)
from unirep.sampling import (
    _index_tuples,
    derive_seed,
    pair_list,
    sample_graph_edges,
)

from util import (
    LABELS3,
    REAL,
    STATUS_KB,
    UNIT,
    batch_edges,
    const_graph_kernel,
    derive_seed_scalar,
    random_family,
    random_kernel,
    random_space,
    run_probe,
    sample_array_loop,
    sample_graph_pairwise,
    space,
    table_kernel,
    two_block_kernel,
    unit_uniform_scalar,
)


def _any_integer(rng):
    """A Python or numpy integer, possibly negative or at least 2^64."""
    kind = rng.integers(7)
    if kind == 0:
        return -int(rng.integers(1, 2**63))
    if kind == 1:
        return 2**64 + int(rng.integers(0, 2**63))
    if kind == 2:
        return -(2**64) * int(rng.integers(1, 4)) - int(rng.integers(0, 100))
    if kind == 3:
        return np.int64(rng.integers(-(2**63), 2**63 - 1))
    if kind == 4:
        return np.uint64(rng.integers(0, 2**64 - 1, dtype=np.uint64))
    if kind == 5:
        return np.int32(rng.integers(-(2**31), 2**31 - 1))
    return int(rng.integers(0, 2**63)) * 2 + int(rng.integers(2))


class TestUnitUniform:
    def test_pure_function_of_inputs(self):
        a = unit_uniform(123, 1, 4, 9)
        b = unit_uniform(123, 1, 4, 9)
        assert a == b
        assert 0.0 <= a < 1.0

    def test_identical_across_processes(self):
        script = (
            "from unirep import unit_uniform;"
            "print(repr([unit_uniform(987654321, s, i, j)"
            " for s in (0,1) for i in (0,5) for j in (1,2**40)]))"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        local = repr(
            [unit_uniform(987654321, s, i, j) for s in (0, 1) for i in (0, 5) for j in (1, 2**40)]
        )
        assert out.stdout.strip() == local

    def test_distinct_arguments_change_output(self):
        base = unit_uniform(7, 0, 0, 1)
        assert unit_uniform(8, 0, 0, 1) != base
        assert unit_uniform(7, 1, 0, 1) != base
        assert unit_uniform(7, 0, 1, 1) != base
        assert unit_uniform(7, 0, 0, 2) != base

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(11)
        i = rng.integers(0, 2**62, 300)
        j = rng.integers(0, 2**62, 300)
        vec = unit_uniform_array(31337, 1, i.astype(np.uint64), j.astype(np.uint64))
        ref = [unit_uniform_scalar(31337, 1, int(a), int(b)) for a, b in zip(i, j)]
        assert vec.tolist() == ref

    def test_any_integer_arguments_match_oracle(self):
        # every position takes negative, >= 2^64 and numpy integers mod 2^64
        rng = np.random.default_rng(12)
        for _ in range(400):
            args = [_any_integer(rng) for _ in range(4)]
            want = unit_uniform_scalar(*args)
            assert unit_uniform(*args) == want
            assert unit_uniform_array(*args) == want
            seed, tag, index = args[:3]
            got = derive_seed(seed, tag, index)
            assert type(got) is int and got == derive_seed_scalar(seed, tag, index)

    def test_integer_arrays_match_oracle(self):
        rng = np.random.default_rng(13)
        i = rng.integers(-(2**63), 2**63 - 1, 200)
        j = rng.integers(0, 2**64 - 1, 200, dtype=np.uint64)
        for seed in (-5, 2**64 + 3, np.int64(-7), np.uint64(2**63 + 1)):
            ref = [unit_uniform_scalar(seed, 1, a, b) for a, b in zip(i.tolist(), j.tolist())]
            assert unit_uniform_array(seed, 1, i, j).tolist() == ref
            seeds = derive_seed(seed, -300, i)
            assert seeds.dtype == np.uint64
            assert seeds.tolist() == [derive_seed_scalar(seed, -300, a) for a in i.tolist()]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-(2**70), 2**70), max_size=12), st.booleans())
    @example([-1, 2**63 + 1], False)
    @example([-2, 2**64 - 1], False)
    @example([2**64, 5], False)
    @example([2**64, 5], True)
    def test_integer_sequences_are_taken_exactly(self, ints, as_objects):
        # a list (numpy may infer float64 for one, or refuse it) or an object
        # array of any integers draws what each of them draws alone
        index = np.array(ints, dtype=object) if as_objects else ints
        got = unit_uniform_array(0, 0, 0, index)
        assert got.tolist() == [unit_uniform(0, 0, 0, v) for v in ints]
        assert got.tolist() == [unit_uniform_scalar(0, 0, 0, v) for v in ints]
        seeds = derive_seed(7, 0, index)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [derive_seed(7, 0, v) for v in ints]
        assert seeds.tolist() == [derive_seed_scalar(7, 0, v) for v in ints]

    def test_integer_sequences_pinned(self):
        # numpy infers float64 for the first two lists and refuses the third
        assert unit_uniform_array(0, 0, 0, [-1, 2**63 + 1])[1] == unit_uniform(0, 0, 0, 2**63 + 1)
        assert unit_uniform(0, 0, 0, 2**63 + 1) == 0.9286724979240314
        assert derive_seed(7, 0, [-2, 2**64 - 1])[1] == 12663294609929742467
        assert unit_uniform_array(0, 0, 0, [2**64, 5]).tolist() == [
            unit_uniform(0, 0, 0, 0), unit_uniform(0, 0, 0, 5)]

    def test_pinned_values(self):
        # computed by the pure-Python hash this package shipped before its
        # one uint64 implementation, so that oracle and package cannot drift together
        cases = [
            ((0, 0, 0, 1), 0.1676358450582638),
            ((123, 1, 4, 9), 0.8244693049085143),
            ((-1, 2**64 + 5, -7, 2**70 + 3), 0.5541751675777992),
            ((2**64 + 42, -1, 2**63, -(2**65)), 0.7131802060537512),
        ]
        for args, value in cases:
            assert unit_uniform(*args) == unit_uniform_scalar(*args) == value
        seeds = [
            ((1, 0, 0), 18143288592989291941),
            ((1, 1, 9999), 9862493456854071219),
            ((-3, 1, 2**64 + 9), 16952789167555124653),
            ((2**65 - 1, -300, -5), 12955062308966605090),
        ]
        for args, value in seeds:
            assert derive_seed(*args) == derive_seed_scalar(*args) == value

    def test_streams_uncorrelated(self):
        # edge-coin stream vs latent stream over 1e5 paired draws
        n = 100_000
        idx = np.arange(1, n + 1, dtype=np.uint64)
        coins = unit_uniform_array(2025, 1, idx, idx + np.uint64(1))
        lats = unit_uniform_array(2025, 0, 0, idx)
        corr = np.corrcoef(coins, lats)[0, 1]
        assert abs(corr) < 0.01

    def test_uniformity_ks(self):
        idx = np.arange(1, 1_000_001, dtype=np.uint64)
        u = unit_uniform_array(99, 0, 0, idx)
        assert kstest(u, "uniform").pvalue >= 0.01

    def test_derive_seed_distinct(self):
        runs = np.arange(100, dtype=np.uint64)
        seeds = {s for tag in (0, 1) for s in derive_seed(5, tag, runs).tolist()}
        assert len(seeds) == 200


class TestSampleLatents:
    def test_reproducible(self):
        sp = space("ab", (0.5, 0.5))
        l1 = sample_latents(sp, 3, 42)
        l2 = sample_latents(sp, 3, 42)
        assert l1.uniforms.tolist() == l2.uniforms.tolist()
        assert l1.atoms == l2.atoms

    def test_rng_contract(self):
        sp = space("ab", (0.5, 0.5))
        lat = sample_latents(sp, 5, 42)
        assert lat.uniforms.tolist() == [unit_uniform(42, 0, 0, i) for i in range(1, 6)]

    def test_cell_frequency(self):
        part = interval_partition(space("ab", (0.5, 0.5)))
        lat = sample_latents(part, 100_000, 7)
        count = int((lat.cells == 0).sum())
        sigma = math.sqrt(100_000 * 0.25)
        assert abs(count - 50_000) <= 4 * sigma

    def test_single_atom_space(self):
        lat = sample_latents(space("a", (1.0,)), 10, 3)
        assert lat.atoms == ("a",) * 10

    def test_infinite_n_unsupported(self):
        sp = space("a", (1.0,))
        with pytest.raises(UnsupportedError):
            sample_latents(sp, float("inf"), 1)
        with pytest.raises(UnsupportedError):
            sample_latents(sp, 0, 1)


class TestSampleGraph:
    def test_complete_graph(self):
        g = sample_graph(const_graph_kernel(1.0), 4, 0)
        assert g.edges.tolist() == [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]

    def test_empty_graph(self):
        g = sample_graph(const_graph_kernel(0.0), 6, 0)
        assert g.edge_count == 0

    def test_edge_count_binomial(self):
        n, p = 1000, 0.3
        pairs = n * (n - 1) // 2
        g = sample_graph(const_graph_kernel(p), n, 4242)
        sigma = math.sqrt(pairs * p * (1 - p))
        assert abs(g.edge_count - pairs * p) <= 4 * sigma

    def test_rng_contract_per_edge(self):
        k = two_block_kernel()
        g = sample_graph(k, 6, 99)
        from unirep.kernels import value_array

        vals = value_array(k)
        expected = [
            [i, j]
            for i, j in pair_list(6).tolist()
            if unit_uniform(99, 1, i, j) < vals[g.latents.cells[i - 1], g.latents.cells[j - 1]]
        ]
        assert g.edges.tolist() == expected

    def test_scalar_and_vector_paths_agree(self):
        # the per-pair scalar oracle, on both domain kinds; n=3 and n=31
        # are sizes an earlier scalar fast path used to serve
        sp = space("ab", (0.3, 0.7))
        cross = {("a", "a"): 0.2, ("a", "b"): 0.9, ("b", "a"): 0.9, ("b", "b"): 0.4}
        for k in (two_block_kernel(), table_kernel("f", sp, cross, symmetric=True)):
            for n in (3, 31, 40):
                for seed in (5, 6):
                    expected = sample_graph_pairwise(k, n, seed).tolist()
                    assert sample_graph(k, n, seed).edges.tolist() == expected

    def test_threads_do_not_change_output(self):
        k = two_block_kernel()
        g1 = sample_graph(k, 60, 123, threads=1)
        g8 = sample_graph(k, 60, 123, threads=8)
        assert g1.edges.tolist() == g8.edges.tolist()

    def test_table_kernel_domain(self):
        sp = space("ab", (0.5, 0.5))
        table = {("a", "a"): 0.0, ("a", "b"): 1.0, ("b", "a"): 1.0, ("b", "b"): 0.0}
        k = table_kernel("f", sp, table, symmetric=True)
        g = sample_graph(k, 30, 11)
        atoms = g.latents.atoms
        for i, j in g.edges.tolist():
            assert atoms[i - 1] != atoms[j - 1]

    def test_rejects_asymmetric(self):
        sp = space("ab", (0.5, 0.5))
        asym = {("a", "a"): 0.0, ("a", "b"): 1.0, ("b", "a"): 0.0, ("b", "b"): 0.0}
        k = table_kernel("f", sp, asym)
        with pytest.raises(SymmetryError):
            sample_graph(k, 3, 0)

    def test_rejects_non_unit_values(self):
        sp = space("ab", (0.5, 0.5))
        table = {(a, b): 0.5 for a in "ab" for b in "ab"}
        k = table_kernel("f", sp, table, value_space=REAL, symmetric=True)
        with pytest.raises(RangeError):
            sample_graph(k, 3, 0)

    def test_rejects_wrong_arity(self):
        sp = space("ab", (0.5, 0.5))
        k = table_kernel("f", sp, {("a",): 0.5, ("b",): 0.5})
        with pytest.raises(ArityError):
            sample_graph(k, 3, 0)


class TestBitmaskSampler:
    def test_matches_sample_graph(self):
        k = two_block_kernel()
        seeds = derive_seed(2, 0, np.arange(50, dtype=np.uint64))
        rows = sample_graph_edges(k, 4, seeds)
        assert rows.shape == (50, 6) and rows.dtype == bool
        for seed, row in zip(seeds.tolist(), rows):
            g = sample_graph(k, 4, seed)
            assert g.edges.tolist() == pair_list(4)[row].tolist()

    def test_pair_order(self):
        assert pair_list(4).tolist() == [
            [1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4],
        ]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-(2**70), 2**70), max_size=6))
    @example([])
    @example([-1, 2**64 - 1, 2**64, 0, -(2**70), 2**70])
    def test_takes_every_seed_sample_graph_takes(self, seeds):
        # Python integers are taken mod 2^64, as sample_graph takes one seed
        k = two_block_kernel()
        rows = sample_graph_edges(k, 5, seeds)
        assert rows.shape == (len(seeds), 10) and rows.dtype == bool
        for seed, row in zip(seeds, rows):
            assert sample_graph(k, 5, seed).edges.tolist() == pair_list(5)[row].tolist()

    def test_empty_and_signed_seed_arrays(self):
        k = two_block_kernel()
        for empty in ([], (), np.array([], np.uint64), np.array([], np.int64)):
            rows = sample_graph_edges(k, 5, empty)
            assert rows.shape == (0, 10) and rows.dtype == bool
        wrapped = sample_graph_edges(k, 5, np.array([2**64 - 1], np.uint64))
        assert (sample_graph_edges(k, 5, np.array([-1], np.int64)) == wrapped).all()
        assert (sample_graph_edges(k, 5, [np.int64(-1)]) == wrapped).all()
        held = np.array([-1, 2**64 + 3], dtype=object)  # Python ints in an array
        assert (sample_graph_edges(k, 5, held) == sample_graph_edges(k, 5, [2**64 - 1, 3])).all()


class TestRowBlocks:
    # block sizes of 1 and 7 pairs, one below the 59 pairs of the first row
    # at n = 60, and 64; the default block holds every graph here whole
    BLOCKS = (1, 7, 40, 64)

    @staticmethod
    def kernel():
        sp = space("abc", (0.2, 0.3, 0.5))
        table = {(a, b): 0.1 + 0.2 * ("abc".index(a) + "abc".index(b))
                 for a in "abc" for b in "abc"}
        return table_kernel("f", sp, table, symmetric=True)

    def test_blocks_cover_rows_within_budget(self, monkeypatch):
        # consecutive row ranges ending at row n - 1; a block over its
        # budget of coins (seeds times pairs) is a single row
        for block in (*self.BLOCKS, 1 << 16):
            monkeypatch.setattr(sampling, "_BLOCK", block)
            for n in (1, 2, 3, 31, 60, 4000):
                for seeds in (1, 2, 30):
                    blocks = list(sampling._row_blocks(n, seeds))
                    bounds = [0, *(r1 for _, r1 in blocks)]
                    assert blocks == list(zip(bounds, bounds[1:])) and bounds[-1] == n - 1
                    for r0, r1 in blocks:
                        assert r1 == r0 + 1 or seeds * (r1 - r0) * (n - 1 - r0) <= block

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**6), st.lists(st.integers(1, 30), min_size=1, max_size=4),
           st.integers(0, 30), st.data())
    @example(0, [1], 0, None)
    @example(10**6, [30, 1], 0, None)
    def test_held_rows_equal_the_divmod_form(self, r0, rows, extra, data):
        # per-row counts and columns of the candidates held from consecutive row
        # blocks, each of ``count`` rows and n - 1 - its first row columns, given
        # as ascending flat indices with states y, against t, c = divmod(hit, cols):
        # an edge where c >= t and the last fold's m < T
        n = r0 + sum(rows) + extra + 1
        threshold = 2**52 if data is None else data.draw(st.integers(0, 2**53))
        held, expected, start = [], [], r0
        for count in rows:
            cols = n - 1 - start
            flat = set(range(count * cols)) if data is None else data.draw(
                st.sets(st.integers(0, count * cols - 1), max_size=60))
            hit = np.array(sorted(flat), dtype=np.intp)
            states = [0 if data is None else data.draw(st.integers(0, 2**64 - 1)) for _ in hit]
            held.append((start, cols, hit, np.array(states, np.uint64)))
            for h, y in zip(hit.tolist(), states):
                t, c = divmod(h, cols)
                if c >= t and last_fold_bits(y) < threshold:
                    expected.append((start + t + 1, start + c + 2))
            start += count
        cells, thr = np.zeros(n, np.intp), np.array([[threshold]], np.uint64)
        got_r0, counts, j = sampling._held_rows(held, r0, start, cells, thr)
        i = [edge[0] for edge in expected]
        assert got_r0 == r0
        per_row = np.bincount(np.array(i, int) - r0 - 1, minlength=start - r0)
        assert counts.tolist() == per_row.tolist()
        assert j.dtype == np.int64 and j.tolist() == [edge[1] for edge in expected]

    def test_draws_leave_numpy_buffer_size(self):
        # the hash sets a small ufunc buffer for its broadcast xor inside an
        # errstate: a consumer of the blocks, and the caller after them, see
        # numpy's own size
        k = self.kernel()
        size = np.getbufsize()
        for _ in sampling._graph_blocks(k, 60, 3)[1]:
            assert np.getbufsize() == size
        sample_graph_edges(k, 60, derive_seed(4, 0, np.arange(2, dtype=np.uint64)))
        assert np.getbufsize() == size

    def test_sample_graph_matches_oracle(self, monkeypatch):
        k = self.kernel()
        for n in (1, 2, 3, 31, 60):
            expected = sample_graph_pairwise(k, n, 17).tolist()
            for block in self.BLOCKS:
                monkeypatch.setattr(sampling, "_BLOCK", block)
                for threads in (1, 8):
                    got = sample_graph(k, n, 17, threads=threads).edges
                    assert got.tolist() == expected, (n, block, threads)
                    assert got.dtype == np.int64 and got.shape == (len(expected), 2)

    def test_sample_graph_edges_rows_do_not_depend_on_block(self, monkeypatch):
        # 2 seeds let a block of 64 pairs span several rows; 30 do not
        k = self.kernel()
        for count in (2, 30):
            seeds = derive_seed(4, 0, np.arange(count, dtype=np.uint64))
            for n in (1, 2, 3, 31, 60):
                expected = sample_graph_edges(k, n, seeds)
                assert expected.shape == (count, n * (n - 1) // 2)
                for block in self.BLOCKS:
                    monkeypatch.setattr(sampling, "_BLOCK", block)
                    got = sample_graph_edges(k, n, seeds)
                    assert got.dtype == bool and np.array_equal(got, expected), (n, block)
                monkeypatch.undo()
                for seed, row in zip(seeds.tolist()[:2], expected):
                    edges = sample_graph(k, n, seed).edges.tolist()
                    assert edges == pair_list(n)[row].tolist()


class TestCoinThresholds:
    """The sampler compares the coin's high 53 bits m with ceil(w 2^53) in
    integers instead of m / 2^53 with w in floats; the two decide alike."""

    W = (0.0, 5e-324, 2.0**-54, 2.0**-53, 1.0 - 2.0**-53, 1.0)

    @staticmethod
    def agree(m, w):
        m, w = np.asarray(m, dtype=np.uint64), np.asarray(w, dtype=np.float64)
        threshold = np.ceil(w * 2.0**53).astype(np.uint64)
        return np.array_equal(m < threshold, m / 2.0**53 < w)

    def test_identity_at_edge_values(self):
        for w in self.W:
            t = math.ceil(w * 2**53)
            for m in (t - 1, t, t + 1):
                if 0 <= m < 2**53:
                    assert self.agree(m, w), (m, w)

    def test_identity_on_random_pairs(self):
        rng = np.random.default_rng(53)
        m = rng.integers(0, 2**53, 10**6, dtype=np.uint64)
        w = rng.random(10**6)
        # a third of the values sit on or next to m / 2^53
        near = m[: 10**6 // 3] / 2.0**53
        w[: len(near)] = np.nextafter(near, rng.choice([-1.0, 2.0], len(near)))
        w[: len(near) // 2] = near[: len(near) // 2]
        assert self.agree(m, w)

    def test_sampler_on_edge_values_matches_oracle(self):
        sp = space([f"c{a}" for a in range(6)], [1 / 6] * 6)
        values = np.array([[self.W[(a + b) % 6] for b in range(6)] for a in range(6)])
        k = Kernel("f", 2, UNIT, sp, values, symmetric=True)
        seeds = derive_seed(9, 0, np.arange(3, dtype=np.uint64))
        rows = sample_graph_edges(k, 60, seeds)
        for seed, row in zip(seeds.tolist(), rows):
            expected = sample_graph_pairwise(k, 60, seed).tolist()
            assert pair_list(60)[row].tolist() == expected
            for threads in (1, 2):
                assert sample_graph(k, 60, seed, threads=threads).edges.tolist() == expected


    def test_kernel_values_at_the_coins(self):
        # each pair of vertices sits in its own pair of cells, whose value is
        # the pair's coin u or a neighbour of it: an edge iff u < w
        sp = space([f"c{a}" for a in range(32)], [1 / 32] * 32)
        seeds = [s for s in range(40) if len(set(sample_latents(sp, 6, s).cells.tolist())) == 6]
        assert len(seeds) >= 5
        for seed in seeds[:5]:
            cells = sample_latents(sp, 6, seed).cells
            values, expected = np.zeros((32, 32)), []
            for p, (i, j) in enumerate(pair_list(6).tolist()):
                u = unit_uniform_scalar(seed, 1, i, j)
                w = (u, np.nextafter(u, 0.0), np.nextafter(u, 2.0))[p % 3]
                values[cells[i - 1], cells[j - 1]] = values[cells[j - 1], cells[i - 1]] = w
                if u < w:
                    expected.append([i, j])
            k = Kernel("f", 2, UNIT, sp, values, symmetric=True)
            assert sample_graph(k, 6, seed).edges.tolist() == expected
            assert pair_list(6)[sample_graph_edges(k, 6, [seed])[0]].tolist() == expected


def rejection_top(t):
    """The bound's bit of the sampler's candidate test for a largest threshold t."""
    return int(t).bit_length() + 11


def last_fold_bits(y):
    """The coin's high 53 bits m from the state y before the hash's last fold."""
    return (y ^ (y >> 31)) >> 11


class TestCoinRejection:
    """When the largest threshold T is small, the sampler keeps only the pairs
    whose state y before the last fold is below 2^top, top = bit_length(T) + 11,
    and finishes the hash and looks up the threshold for those alone.  Every
    edge must still be the per-pair oracle's."""

    @staticmethod
    def check(k, n, seeds):
        top = rejection_top(math.ceil(k.values.max() * 2**53))
        assert top <= sampling._REJECT_TOP, "the kernel must take the rejection path"
        rows = sample_graph_edges(k, n, seeds)
        for seed, row in zip(seeds, rows):
            expected = sample_graph_pairwise(k, n, seed).tolist()
            assert pair_list(n)[row].tolist() == expected, seed
            for threads in (1, 2):
                assert sample_graph(k, n, seed, threads=threads).edges.tolist() == expected

    def test_values_at_small_coins(self):
        # each pair whose coin u is below 2^-8 gets a kernel whose largest
        # value, at that pair's cells, is u or a neighbour of u
        sp = space([f"c{a}" for a in range(32)], [1 / 32] * 32)
        checked = 0
        for seed in range(4):
            cells = sample_latents(sp, 40, seed).cells
            for i, j in pair_list(40).tolist():
                u = unit_uniform_scalar(seed, 1, i, j)
                if u >= 2.0**-8:
                    continue
                for w in (u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)):
                    values = np.zeros((32, 32))
                    values[cells[i - 1], cells[j - 1]] = values[cells[j - 1], cells[i - 1]] = w
                    self.check(Kernel("f", 2, UNIT, sp, values, symmetric=True), 40, [seed])
                    checked += 1
        assert checked >= 15

    @pytest.mark.parametrize("k", (7, 9))
    def test_edge_values(self, k):
        # largest values at a power of two, one ulp below it, and one 2^-53
        # below it, where the threshold's bit length and so top drop by one
        p = 2.0**-k
        sp = space([f"c{a}" for a in range(6)], [1 / 6] * 6)
        for largest in (p, np.nextafter(p, 0.0), p - 2.0**-53):
            w = (0.0, 5e-324, largest, np.nextafter(largest, 0.0), largest / 2, largest / 3)
            values = np.array([[w[(a + b) % 6] for b in range(6)] for a in range(6)])
            self.check(Kernel("f", 2, UNIT, sp, values, symmetric=True), 120, [3, 4])

    def test_switch_point(self):
        # 2^-6 - 2^-53 is the largest value at the switch; 2^-6 is past it
        t = math.ceil((2.0**-6 - 2.0**-53) * 2**53)
        assert rejection_top(t) == sampling._REJECT_TOP
        assert rejection_top(math.ceil(2.0**-6 * 2**53)) == sampling._REJECT_TOP + 1

    def test_both_paths_agree(self, monkeypatch):
        # forcing the rejection path (top <= 63) or the full compare on the
        # same kernels changes no edge, for one seed and for a column of them
        rng = np.random.default_rng(19)
        sp = space([f"c{a}" for a in range(5)], [0.2] * 5)
        seeds = derive_seed(6, 0, np.arange(20, dtype=np.uint64))
        for scale in (2.0**-12, 2.0**-5, 0.49):
            values = rng.random((5, 5)) * scale
            k = Kernel("f", 2, UNIT, sp, (values + values.T) / 2, symmetric=True)
            got = []
            for reject_top in (63, 0):
                monkeypatch.setattr(sampling, "_REJECT_TOP", reject_top)
                got.append((sample_graph_edges(k, 50, seeds),
                            [sample_graph(k, 700, s, threads=2).edges for s in (1, 2)]))
            assert np.array_equal(got[0][0], got[1][0])
            assert all(np.array_equal(a, b) for a, b in zip(got[0][1], got[1][1]))

    def test_both_paths_hand_on_the_rows_and_take_contracts(self, monkeypatch):
        # the rejection path (top = 63 below 1/2) and the full compare both hand on
        # one seed's edges as (r0, counts, j) batches of consecutive rows, each row's
        # j ascending and above its i, the same edges from both paths; and a column
        # of seeds' blocks to ``take`` as bool decisions, the same from both paths,
        # with those below the diagonal cleared
        sp = space([f"c{a}" for a in range(3)], [0.2, 0.3, 0.5])
        values = np.array([[0.01, 0.3, 0.2], [0.3, 0.001, 0.45], [0.2, 0.45, 0.02]])
        assert rejection_top(math.ceil(0.45 * 2**53)) == 63
        seeds = derive_seed(6, 0, np.arange(3, dtype=np.uint64))
        monkeypatch.setattr(sampling, "_BLOCK", 200)
        edges, decisions = [], []
        for reject_top in (63, 0):
            monkeypatch.setattr(sampling, "_REJECT_TOP", reject_top)
            cells = sampling._latent_draws(sp, 60, 5)[2]
            batches = list(sampling._graph_rows(values, cells, 5))
            assert len(batches) > 1 and any(len(j) for _, _, j in batches)
            lengths = [len(counts) for _, counts, _ in batches]
            assert [r0 for r0, _, _ in batches] == np.cumsum([0, *lengths[:-1]]).tolist()
            assert sum(lengths) == 59
            for r0, counts, j in batches:
                assert counts.dtype.kind == "i" and j.dtype == np.int64 and counts.sum() == len(j)
                i = np.repeat(np.arange(r0 + 1, r0 + 1 + len(counts)), counts)
                assert (j > i).all() and (j <= 60).all()
                assert (np.diff(j)[np.diff(i) == 0] > 0).all()
            edges.append(batch_edges(batches).tolist())
            cells = sampling._latent_draws(sp, 60, seeds)[2]
            blocks = list(sampling._draw_edges(values, cells, seeds, lambda r0, edge: (r0, edge)))
            assert len(blocks) > 1 and any(edge.any() for _, edge in blocks)
            for (r0, edge), (r1, _) in zip(blocks, blocks[1:] + [(59, None)]):
                assert edge.dtype == bool and edge.shape == (r1 - r0, 59 - r0, 3)
                assert not np.tril(np.moveaxis(edge[:, : r1 - r0], 2, 0), -1).any()
            decisions.append(blocks)
        k = Kernel("f", 2, UNIT, sp, values, symmetric=True)
        assert edges[0] == edges[1] == sample_graph_pairwise(k, 60, 5).tolist()
        assert all(r0 == r1 and np.array_equal(a, b)
                   for (r0, a), (r1, b) in zip(*decisions))

    @settings(max_examples=1000, deadline=None)
    @given(
        st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 64)).map(lambda a: a[0] >> a[1]),
        st.integers(0, 2**53),
    )
    @example(2**63, 2**52)
    @example(2**64 - 1, 2**53)
    def test_rule(self, y, t):
        # m < T implies y < 2^top(T)
        if last_fold_bits(y) < t:
            assert y < 2 ** rejection_top(t)

    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 2**53), st.integers(-3, 3))
    def test_rule_at_the_bound(self, t, d):
        y = min(max(2 ** rejection_top(t) + d, 0), 2**64 - 1)
        if last_fold_bits(y) < t:
            assert y < 2 ** rejection_top(t)

    def test_rule_on_many_states(self):
        # states of every bit length against thresholds of nearby bit lengths,
        # in uint64 as the sampler computes them
        rng = np.random.default_rng(31)
        y = rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
        y >>= rng.integers(0, 64, 10**6).astype(np.uint64)
        bits = np.array([int(v).bit_length() for v in y.tolist()]) - 11 + rng.integers(-1, 3, 10**6)
        t = rng.integers(0, 2**53, 10**6, dtype=np.uint64, endpoint=True)
        t >>= np.clip(53 - bits, 0, 53).astype(np.uint64)
        hit = sampling._fold(y.copy(), 31) >> np.uint64(11) < t
        tops = np.array([rejection_top(v) for v in t[hit].tolist()])
        assert hit.sum() > 10**5
        assert all(int(v) < 2**int(s) for v, s in zip(y[hit].tolist(), tops))


def test_index_tuples_are_permutations():
    # every coordinate order comes from this one helper; its type is signed,
    # so that np.diff of a tuple cannot wrap and a symmetric kernel's sorted
    # tuples are found
    for n in range(7):
        for m in range(1, 5):
            tuples = _index_tuples(n, m)
            assert tuples.shape == (math.perm(n, m), m)
            assert tuples.tolist() == [list(idx) for idx in permutations(range(1, n + 1), m)]
            assert np.issubdtype(tuples.dtype, np.signedinteger)
            assert not tuples.flags.writeable  # one array may be shared by several laws
    assert _index_tuples(127, 1).dtype == np.int8 and _index_tuples(128, 1).dtype == np.int16
    # no indices, or more places than indices: empty, with m columns
    for n, m in ((0, 1), (0, 3), (1, 2), (2, 3), (3, 7)):
        assert _index_tuples(n, m).shape == (0, m)
    tuples = _index_tuples(40, 3)
    assert tuples.tolist() == [list(idx) for idx in permutations(range(1, 41), 3)]
    assert _index_tuples(300, 2).tolist() == [list(idx) for idx in permutations(range(1, 301), 2)]


class TestSampleArray:
    def test_arity_one_counts(self):
        sp = space("ab", (0.5, 0.5))
        fam = KernelFamily((table_kernel("f", sp, {("a",): 0.1, ("b",): 0.9}),))
        arr = sample_array(fam, 2, 1)
        assert set(arr.values) == {("f", (1,)), ("f", (2,))}

    def test_symmetric_kernel_symmetric_values(self):
        rng = np.random.default_rng(21)
        sp = space("abc", (0.2, 0.3, 0.5))
        k = random_kernel(rng, sp, 2, UNIT, "f", symmetric=True)
        arr = sample_array(KernelFamily((k,)), 4, 17)
        for (name, idx), v in arr.values.items():
            assert arr.values[(name, idx[::-1])] == v

    def test_value_counts_for_mixed_arities(self):
        rng = np.random.default_rng(22)
        sp = space("ab", (0.5, 0.5))
        k1 = random_kernel(rng, sp, 1, UNIT, "f")
        k2 = random_kernel(rng, sp, 2, UNIT, "g")
        arr = sample_array(KernelFamily((k1, k2)), 3, 5)
        assert len(arr.values) == 3 + 6

    def test_values_recomputable_from_latents(self):
        rng = np.random.default_rng(23)
        sp = space("abc", (0.2, 0.3, 0.5))
        k = random_kernel(rng, sp, 2, REAL, "f")
        fam = KernelFamily((k,))
        arr = sample_array(fam, 3, 9)
        for (name, idx), v in arr.values.items():
            key = tuple(arr.latents.atoms[t - 1] for t in idx)
            assert k.table[key] == v

    def test_arity_exceeding_n(self):
        rng = np.random.default_rng(24)
        sp = space("ab", (0.5, 0.5))
        k = random_kernel(rng, sp, 2, UNIT, "f")
        with pytest.raises(ArityError):
            sample_array(KernelFamily((k,)), 1, 0)

    def test_equals_per_tuple_lookup(self):
        # table and step families of arity 1-3: the same keys in the same
        # order, the same values and the same Python scalar types
        rng = np.random.default_rng(25)
        kinds = [("f", 1, UNIT, False), ("g", 2, REAL, True), ("h", 3, LABELS3, False)]
        for trial in range(12):
            sp = random_space(rng, int(rng.integers(1, 5)))
            table = random_family(rng, sp, kinds[: 1 + trial % 3])
            for family in (table, represent_family(sp, table)):
                for n in range(family.kernels[-1].arity, 5):
                    for seed in (trial, -trial - 1):
                        got = list(sample_array(family, n, seed).values.items())
                        expected = list(sample_array_loop(family, n, seed).items())
                        assert got == expected
                        assert [type(v) for _, v in got] == [type(v) for _, v in expected]
            with pytest.raises(ArityError, match=r"kernel 'h' has arity 3 > n = 2"):
                sample_array(random_family(rng, sp, kinds), 2, trial)


# sample_graph at n = 2000 in a fresh process: peak RSS growth over the
# RSS just before the call, per vertex pair, on a sparse kernel.
MEMORY_PROBE = STATUS_KB + """
from unirep import IntervalPartition, Kernel, ValueSpace, sample_graph

n = 2000
part = IntervalPartition((0.0, 1.0), ("o",))
kernel = Kernel(name="f", arity=2, value_space=ValueSpace("unit"), domain=part,
                table={(0, 0): 10.0 / n}, symmetric=True)
sample_graph(kernel, 3, 0)
before_kb = status_kb("VmRSS:")
sample_graph(kernel, n, 1)
print((status_kb("VmHWM:") - before_kb) * 1024 / (n * (n - 1) // 2))
"""

# The same growth for ``unirep sample --n 2000 --threads T --out FILE`` on a
# constant p = 1/2 kernel (about 10^6 edges): sampling and writing the edge list.
CLI_MEMORY_PROBE = STATUS_KB + """
import sys
from unirep.cli import main

spec, out, threads = sys.argv[1:]
n = 2000
main(["sample", spec, "--n", "3", "--out", out])
before_kb = status_kb("VmRSS:")
main(["sample", spec, "--n", str(n), "--seed", "1", "--threads", threads, "--out", out])
print((status_kb("VmHWM:") - before_kb) * 1024 / (n * (n - 1) // 2))
"""


# ``unirep sample --n 4000 --out FILE --latents FILE`` in a fresh process, cold:
# nothing was allocated and freed before it.  The minor page faults taken in ``main``.
COLD_FAULTS_PROBE = """
import resource, sys
from unirep.cli import main

spec, out, latents = sys.argv[1:]
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
main(["sample", spec, "--n", "4000", "--seed", "1", "--out", out, "--latents", latents])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_sample_graph_peak_bytes_per_pair():
    # under 1 B: a row block's coins, probabilities and temporaries are a
    # few MB whatever n is, so only the latents and edges grow with n; the
    # whole-triangle sampler took 40 B
    assert run_probe(MEMORY_PROBE) <= 4.0


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.parametrize("threads", ["1", "2"])
def test_cli_sample_peak_bytes_per_pair(tmp_path, threads):
    # under 2 B: each row block's edges are written as they are drawn, so
    # one block's coins, edges, line records and bytes are held at a time
    # and only the latents grow with n; holding the whole edge array and
    # its concatenation took 17-18 B, the whole-triangle sampler 40 B, a
    # Python string per line 116 B.  More threads hold no more than one: a
    # pool that kept every block until the last was drawn took 6.4-7.0 B
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "space": {"atoms": ["o"], "probs": [1.0]},
        "kernels": [{"name": "f", "arity": 2, "value_space": "unit",
                     "symmetric": True, "values": {"o,o": 0.5}}],
    }))
    got, one = (run_probe(CLI_MEMORY_PROBE, str(spec), str(tmp_path / "g.txt"), t)
                for t in (threads, "1"))
    assert got <= 4.0
    assert abs(got - one) <= 0.1 * one


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
def test_cli_sample_cold_minor_faults(tmp_path):
    # under 2000 on a 64-cell kernel of edge density 10/n: one scratch set per
    # graph, and the candidates of every row block decided in one batch; when
    # each row block allocated its own coins and freed them, the allocator gave
    # them back to the system and took them again, 27.7 K faults for 127 blocks
    rng = np.random.default_rng(64)
    atoms = [f"c{a}" for a in range(64)]
    p = 10 / 4000
    values = {f"{atoms[a]},{atoms[b]}": float(rng.uniform(0.5 * p, 1.5 * p))
              for a in range(64) for b in range(a, 64)}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "space": {"atoms": atoms, "probs": (rng.dirichlet(np.full(64, 8.0))).tolist()},
        "kernels": [{"name": "w", "arity": 2, "value_space": "unit",
                     "symmetric": True, "values": values}],
    }))
    faults = run_probe(COLD_FAULTS_PROBE, str(spec), str(tmp_path / "g.txt"), str(tmp_path / "x.txt"))
    assert faults < 2000
