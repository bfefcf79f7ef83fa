"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance and
prints a single pass line (visible with ``pytest -s`` or ``-v``).
The instance grids are seeded, so every run checks identical cases.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest
from scipy.stats import chisquare, kstest

from unirep import (
    KernelFamily,
    MeasurabilityError,
    cantor_encode,
    cantor_represent_family,
    check_symmetry,
    exact_joint_law,
    exchangeability_check,
    graph_law_exact,
    mc_two_sample_test,
    quantile,
    quantile_array,
    represent_family,
    sample_graph,
    step_family_as_space,
    transport_map,
    tv_distance,
)
from unirep.cli import main
from unirep.sampling import derive_seed, sample_graph_edges

from util import (
    LABELS3,
    REAL,
    UNIT,
    const_graph_kernel,
    random_family,
    random_kernel,
    random_space,
    random_pwl_cdf,
    random_step_cdf,
    space,
    table_kernel,
    two_block_kernel,
)

TV_TOL = 1e-9
GRID_SEED = 20260811
VALUE_SPACES = (REAL, LABELS3, UNIT)


def grid_instances():
    """The criterion-1 grid: |Omega| in {2,3,4}, 20 randomized instances
    each, families of <= 2 kernels with arities <= 2 cycling through the
    three value spaces."""
    rng = np.random.default_rng(GRID_SEED)
    instances = []
    for size in (2, 3, 4):
        for i in range(20):
            sp = random_space(rng, size)
            specs = [("f", 1 + (i % 2), VALUE_SPACES[i % 3], False)]
            if i % 5 != 0:
                specs.append(("g", 1 + ((i // 2) % 2), VALUE_SPACES[(i + 1) % 3], False))
            instances.append((sp, random_family(rng, sp, specs)))
    return instances


def represented_law(family, n):
    return exact_joint_law(*step_family_as_space(family), n)


def test_c01_representation_theorem():
    start = time.time()
    worst = 0.0
    comparisons = 0
    for sp, fam in grid_instances():
        rep = represent_family(sp, fam)
        for n in (1, 2, 3):
            tv = tv_distance(exact_joint_law(sp, fam, n), represented_law(rep, n))
            worst = max(worst, tv)
            comparisons += 1
            assert tv <= TV_TOL
    print(
        f"PASS criterion 1 (representation theorem): max TV {worst:.2e} "
        f"over {comparisons} comparisons [{time.time() - start:.1f}s]"
    )


def test_c02_cantor_route_oracle():
    start = time.time()
    worst = 0.0
    for sp, fam in grid_instances():
        generators = [[a] for a in sp.atom_ids]
        direct = represent_family(sp, fam)
        cantor = cantor_represent_family(sp, generators, fam)
        for n in (1, 2, 3):
            tv = tv_distance(represented_law(direct, n), represented_law(cantor, n))
            worst = max(worst, tv)
            assert tv <= TV_TOL

    # non-separating generators + code-separating kernel: the error
    # must carry a witness pair with equal codes and unequal values
    witnesses = 0
    for size in (2, 3, 4):
        sp = random_space(np.random.default_rng(GRID_SEED + size), size)
        generators = [[a] for a in sp.atom_ids[2:]]
        separator = table_kernel(
            "sep",
            sp,
            {(a,): float(k) for k, a in enumerate(sp.atom_ids)},
            value_space=REAL,
        )
        with pytest.raises(MeasurabilityError) as excinfo:
            cantor_represent_family(sp, generators, KernelFamily((separator,)))
        err = excinfo.value
        codes = cantor_encode(sp, generators)
        t1, t2 = err.witness
        assert tuple(codes[a].bits for a in t1) == tuple(codes[a].bits for a in t2)
        assert err.values[0] != err.values[1]
        assert err.kernel_name == "sep"
        witnesses += 1
    print(
        f"PASS criterion 2 (Cantor-route oracle): max TV {worst:.2e}, "
        f"{witnesses} witnessed MeasurabilityErrors [{time.time() - start:.1f}s]"
    )


def test_c03_quantile_correctness():
    start = time.time()
    rng = np.random.default_rng(GRID_SEED + 3)
    checked = 0
    for _ in range(50):
        cdf = random_step_cdf(rng)
        prev = 0.0
        for y, c in cdf.points:
            # preimage of y is exactly [prev, c): its Lebesgue measure is
            # the jump mass, so the pushforward CDF equals the input CDF
            assert quantile(cdf, prev) == y
            assert quantile(cdf, (prev + c) / 2) == y
            before = np.nextafter(c, 0.0)
            if before >= prev:
                assert quantile(cdf, before) == y
            prev = c
        for _, c in cdf.points:
            if c + 1e-12 < 1.0:
                assert quantile(cdf, c) == quantile(cdf, c + 1e-12)
        checked += 1
    print(
        f"PASS criterion 3 (quantile pushforward + right-continuity): "
        f"{checked} CDFs [{time.time() - start:.1f}s]"
    )


def test_c04_measure_transport():
    start = time.time()
    rng = np.random.default_rng(GRID_SEED + 4)
    passes = 0
    for _ in range(10):
        cdf = random_pwl_cdf(rng)
        u = rng.random(100_000)
        x = quantile_array(cdf, u)
        transported = transport_map(cdf)(x)
        if kstest(transported, "uniform").pvalue >= 0.01:
            passes += 1
    assert passes >= 9
    print(
        f"PASS criterion 4 (measure transport): KS uniform at 0.01 in "
        f"{passes}/10 cases [{time.time() - start:.1f}s]"
    )


def test_c05_sampler_erdos_renyi_reduction():
    start = time.time()
    n, p, runs = 1000, 0.3, 200
    pairs = n * (n - 1) // 2
    kernel = const_graph_kernel(p)
    seeds = derive_seed(GRID_SEED, 5, np.arange(runs, dtype=np.uint64))
    counts = [sample_graph(kernel, n, s).edge_count for s in seeds.tolist()]
    mean = float(np.mean(counts))
    sigma = math.sqrt(pairs * p * (1 - p))
    bound = 4 * sigma / math.sqrt(runs)
    assert abs(mean - pairs * p) <= bound
    print(
        f"PASS criterion 5 (Erdos-Renyi reduction): mean {mean:.1f} vs "
        f"{pairs * p:.1f} +- {bound:.1f} [{time.time() - start:.1f}s]"
    )


def test_c06_graph_law_exactness():
    start = time.time()
    kernel = two_block_kernel()
    n, runs = 3, 100_000
    law = graph_law_exact(kernel, n)
    assert math.fsum(law.tolist()) == pytest.approx(1.0, abs=1e-9)
    seeds = derive_seed(GRID_SEED, 6, np.arange(runs, dtype=np.uint64))
    rows = sample_graph_edges(kernel, n, seeds)
    masks = rows @ (1 << np.arange(rows.shape[1]))
    counts = np.bincount(masks, minlength=8)
    expected = runs * law
    assert expected.min() >= 5
    result = chisquare(counts, f_exp=expected)
    assert result.pvalue >= 0.01
    print(
        f"PASS criterion 6 (graph-law exactness): chi2 p={result.pvalue:.3f} "
        f"over 8 labeled graphs, {runs} samples [{time.time() - start:.1f}s]"
    )


def test_c07_end_to_end_representation_invariance():
    start = time.time()
    sp = space(["x", "y"], (0.4, 0.6))
    table = {("x", "x"): 0.2, ("x", "y"): 0.7, ("y", "x"): 0.7, ("y", "y"): 0.5}
    kernel = table_kernel("f", sp, table, symmetric=True)
    family = KernelFamily((kernel,))
    represented = represent_family(sp, family)
    # exact agreement first, then the statistical end-to-end check
    assert tv_distance(
        exact_joint_law(sp, family, 3), represented_law(represented, 3)
    ) <= TV_TOL
    report = mc_two_sample_test(
        lambda s: sample_graph(kernel, 3, s),
        lambda s: sample_graph(represented.kernels[0], 3, s),
        3,
        10_000,
        GRID_SEED,
        alpha=0.01,
    )
    assert report["pass"], report
    print(
        f"PASS criterion 7 (representation invariance end-to-end): "
        f"chi2 p={report['pvalues']['labeled_graphs']:.3f}, 10^4 runs "
        f"[{time.time() - start:.1f}s]"
    )


def test_c08_sample_determinism(tmp_path):
    start = time.time()
    spec = {
        "space": {"atoms": ["a", "b", "c"], "probs": [0.5, 0.3, 0.2]},
        "kernels": [{
            "name": "f", "arity": 2, "value_space": "unit", "symmetric": True,
            "values": {
                "a,a": 0.1, "a,b": 0.4, "a,c": 0.6,
                "b,b": 0.2, "b,c": 0.5, "c,c": 0.3,
            },
        }],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    digests = []
    for run in (1, 2):
        for threads in ("1", "8"):
            out = tmp_path / f"edges_r{run}_t{threads}.txt"
            code = main([
                "sample", str(spec_path), "--n", "300", "--seed", "11",
                "--threads", threads, "--out", str(out),
            ])
            assert code == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert len(set(digests)) == 1
    print(
        f"PASS criterion 8 (determinism): identical sha256 across "
        f"threads {{1,8}} and reruns [{time.time() - start:.1f}s]"
    )


def test_c09_symmetry_preservation():
    start = time.time()
    rng = np.random.default_rng(GRID_SEED + 9)
    for trial in range(100):
        sp = random_space(rng, int(rng.integers(2, 5)))
        vs = VALUE_SPACES[trial % 3]
        kernel = random_kernel(rng, sp, 2, vs, "f", symmetric=True)
        rep = represent_family(sp, KernelFamily((kernel,)))
        ok, witness = check_symmetry(rep.kernels[0])
        assert ok, witness
    print(
        f"PASS criterion 9 (symmetry preservation): 100 random symmetric "
        f"tables, exhaustive permutation check [{time.time() - start:.1f}s]"
    )


def test_c10_exchangeability():
    start = time.time()
    for sp, fam in grid_instances():
        assert exchangeability_check(sp, fam, 3)
    print(
        f"PASS criterion 10 (exchangeability): all 6 permutations on every "
        f"criterion-1 grid law at n=3 [{time.time() - start:.1f}s]"
    )
