import contextlib
import hashlib
import io
import json
import math
import os
import random
from itertools import combinations_with_replacement, product
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import unirep.cli
import unirep.kernels
import unirep.specfile
from unirep import (
    PATTERNS,
    cantor_encode,
    cantor_represent_family,
    represent_family,
    sample_graph,
    sigma_atoms,
)
from unirep.cli import _indented, main
from unirep.sampling import pair_list
from unirep.specfile import load_spec

from util import (
    dump_represented_oracle,
    edge_lines_oracle,
    edge_row_blocks,
    sample_graph_pairwise,
)

DEMO_SPEC = {
    "space": {"atoms": ["a", "b", "c"], "probs": [0.5, 0.3, 0.2]},
    "generators": [["a"], ["b"], ["c"]],
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
}

SPARSE_SPEC = {
    "space": {"atoms": ["a", "b", "c", "d"], "probs": [0.4, 0.3, 0.2, 0.1]},
    "kernels": [
        {
            "name": "f",
            "arity": 2,
            "value_space": "unit",
            "symmetric": True,
            "values": {
                "a,a": 0.002, "a,b": 0.004, "a,c": 0.006, "a,d": 0.0085,
                "b,b": 0.005, "b,c": 0.0075, "b,d": 0.01,
                "c,c": 0.009, "c,d": 0.0125, "d,d": 0.015,
            },
        }
    ],
}

CONST_SPEC = {
    "space": {"atoms": ["o"], "probs": [1.0]},
    "kernels": [
        {
            "name": "f",
            "arity": 2,
            "value_space": "unit",
            "symmetric": True,
            "values": {"o,o": 1.0},
        }
    ],
}


# ``equiv --mode mc`` stdout on DEMO_SPEC against itself (seed 0), captured
# from the per-graph sampler that the bulk edge rows replaced
MC_CHI2_STDOUT = (
    '{\n'
    '  "pass": true,\n'
    '  "pvalues": {\n'
    '    "labeled_graphs": 0.28538988293829165\n'
    '  },\n'
    '  "mode": "chi2",\n'
    '  "statistic": 8.565295131208211,\n'
    '  "df": 7,\n'
    '  "buckets": 8,\n'
    '  "runs": 2000,\n'
    '  "alpha": 0.01,\n'
    '  "n": 3\n'
    '}\n'
)

MC_ZTEST_STDOUT = (
    '{\n'
    '  "pass": true,\n'
    '  "pvalues": {\n'
    '    "edge_count": 0.1493172220771233,\n'
    '    "triangle_count": 0.18303997811142328\n'
    '  },\n'
    '  "mode": "ztest",\n'
    '  "means": {\n'
    '    "edge_count": {\n'
    '      "mean_a": 22.89,\n'
    '      "mean_b": 23.62\n'
    '    },\n'
    '    "triangle_count": {\n'
    '      "mean_a": 9.7,\n'
    '      "mean_b": 10.575\n'
    '    }\n'
    '  },\n'
    '  "runs": 200,\n'
    '  "alpha": 0.01,\n'
    '  "n": 12\n'
    '}\n'
)


# ``equiv --mode mc --runs 2`` stdout on DEMO_SPEC against itself (seed 0) at the
# last n whose triangle counts are float32-exact (C(466, 3) <= 2^24) and the first
# past it, captured from the float64 trace(A^3) / 6 counts the upper-triangle
# product replaced
MC_ZTEST_EDGE_STDOUT = {
    466: (
        '{\n'
        '  "pass": true,\n'
        '  "pvalues": {\n'
        '    "edge_count": 0.7499487549864499,\n'
        '    "triangle_count": 0.8000749619945151\n'
        '  },\n'
        '  "mode": "ztest",\n'
        '  "means": {\n'
        '    "edge_count": {\n'
        '      "mean_a": 38248.5,\n'
        '      "mean_b": 38133.5\n'
        '    },\n'
        '    "triangle_count": {\n'
        '      "mean_a": 782595.5,\n'
        '      "mean_b": 777964.0\n'
        '    }\n'
        '  },\n'
        '  "runs": 2,\n'
        '  "alpha": 0.01,\n'
        '  "n": 466\n'
        '}\n'
    ),
    467: (
        '{\n'
        '  "pass": true,\n'
        '  "pvalues": {\n'
        '    "edge_count": 0.7112264508283539,\n'
        '    "triangle_count": 0.7647544836995048\n'
        '  },\n'
        '  "mode": "ztest",\n'
        '  "means": {\n'
        '    "edge_count": {\n'
        '      "mean_a": 38429.0,\n'
        '      "mean_b": 38292.0\n'
        '    },\n'
        '    "triangle_count": {\n'
        '      "mean_a": 788418.5,\n'
        '      "mean_b": 782778.0\n'
        '    }\n'
        '  },\n'
        '  "runs": 2,\n'
        '  "alpha": 0.01,\n'
        '  "n": 467\n'
        '}\n'
    ),
}


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def const_spec(p):
    doc = json.loads(json.dumps(CONST_SPEC))
    doc["kernels"][0]["values"]["o,o"] = p
    return doc


def run_subprocess(argv, timeout=60):
    """``python -m unirep argv`` in a fresh interpreter with a real stdout."""
    src = str(Path(unirep.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("REP_MAX_ENUM", None)
    return subprocess.run([sys.executable, "-m", "unirep", *argv], capture_output=True,
                          env=env, timeout=timeout)


class TestRepresent:
    def test_partition_in_output(self, tmp_path, capsys):
        spec = write_spec(tmp_path, DEMO_SPEC)
        assert main(["represent", spec]) == 0
        artifact = json.loads(capsys.readouterr().out)
        assert artifact["partition"]["breakpoints"] == [0.0, 0.5, 0.8, 1.0]
        assert artifact["partition"]["cells"] == ["a", "b", "c"]

    def test_output_roundtrips_through_loader(self, tmp_path):
        spec = write_spec(tmp_path, DEMO_SPEC)
        out = tmp_path / "rep.json"
        assert main(["represent", spec, "--out", str(out)]) == 0
        from unirep import load_spec

        doc = load_spec(out)
        assert doc.family.names == ("f",)
        assert doc.partition is not None

    def test_integer_literal_in_real_kernel_written_as_float(self, tmp_path, capsys):
        doc = {
            "space": {"atoms": ["a", "b"], "probs": [0.5, 0.5]},
            "kernels": [
                {"name": "r", "arity": 1, "value_space": "real", "values": {"a": 1, "b": 2.5}},
                {"name": "l", "arity": 1, "value_space": {"labels": 3}, "values": {"a": 2, "b": 0}},
            ],
        }
        assert main(["represent", write_spec(tmp_path, doc)]) == 0
        artifact = json.loads(capsys.readouterr().out)
        real, lab = artifact["kernels"]
        assert real["values"] == {"0": 1.0, "1": 2.5}
        assert type(real["values"]["0"]) is float
        assert lab["values"] == {"0": 2, "1": 0}
        assert type(lab["values"]["0"]) is int

    def test_via_cantor_equivalent_to_direct(self, tmp_path):
        spec = write_spec(tmp_path, DEMO_SPEC)
        direct = tmp_path / "direct.json"
        cantor = tmp_path / "cantor.json"
        assert main(["represent", spec, "--out", str(direct)]) == 0
        assert main(["represent", spec, "--via-cantor", "--out", str(cantor)]) == 0
        assert main(["equiv", str(direct), str(cantor), "--n", "3"]) == 0

    def test_malformed_probs_exit_2(self, tmp_path, capsys):
        bad = json.loads(json.dumps(DEMO_SPEC))
        bad["space"]["probs"] = [0.7, 0.7, 0.7]
        spec = write_spec(tmp_path, bad)
        assert main(["represent", spec]) == 2
        assert "probs" in capsys.readouterr().err

    def test_via_cantor_bad_generators_exit_2(self, tmp_path, capsys):
        bad = json.loads(json.dumps(DEMO_SPEC))
        bad["generators"] = []
        spec = write_spec(tmp_path, bad)
        assert main(["represent", spec, "--via-cantor"]) == 2
        assert "sigma-atoms" in capsys.readouterr().err


class TestSample:
    def test_complete_graph_edge_count(self, tmp_path, capsys):
        spec = write_spec(tmp_path, const_spec(1.0))
        assert main(["sample", spec, "--n", "4", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        assert lines[0] == "1 2"

    def test_same_seed_byte_identical(self, tmp_path):
        spec = write_spec(tmp_path, DEMO_SPEC)
        out1 = tmp_path / "g1.txt"
        out2 = tmp_path / "g2.txt"
        for out in (out1, out2):
            assert main([
                "sample", spec, "--n", "100", "--seed", "9", "--out", str(out),
            ]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_threads_byte_identical(self, tmp_path):
        spec = write_spec(tmp_path, DEMO_SPEC)
        digests = []
        for threads in ("1", "8"):
            out = tmp_path / f"g{threads}.txt"
            assert main([
                "sample", spec, "--n", "150", "--seed", "3",
                "--threads", threads, "--out", str(out),
            ]) == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("doc, n, seed, digests", [
        # every value below 2^-6: the sampler takes its candidate test
        (SPARSE_SPEC, 2000, 7, (
            "bdaf9097c31504716c385fab3e6a7de336c5bdc8bbbbc042aae170c7e1753e55",
            "a1c67d8f62517e7174097df9b8950153c1fa2246a174ffb1040e932aea4c36d2",
        )),
        # values up to 0.6: the full compare
        (DEMO_SPEC, 400, 5, (
            "42565afbc4e3be94eef721ea62778f47628bddd6a8a77d909966a56646aa811a",
            "5f5931ef611b874c7ddc2537205442dcab9457785690ca7d57adba921ee828e3",
        )),
    ])
    def test_pinned_digests(self, tmp_path, doc, n, seed, digests):
        # sha256 of the edge list and the latents, pinned from an earlier
        # release, so that a change to the sampler that moves any edge fails
        spec = write_spec(tmp_path, doc)
        out, lat = tmp_path / "g.txt", tmp_path / "lat.txt"
        for threads in ("1", "2"):
            assert main([
                "sample", spec, "--n", str(n), "--seed", str(seed), "--threads", threads,
                "--out", str(out), "--latents", str(lat),
            ]) == 0
            got = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, lat))
            assert got == digests, threads

    def test_latent_dump(self, tmp_path):
        spec = write_spec(tmp_path, const_spec(0.5))
        out = tmp_path / "g.txt"
        lat = tmp_path / "lat.txt"
        assert main([
            "sample", spec, "--n", "5", "--seed", "2",
            "--out", str(out), "--latents", str(lat),
        ]) == 0
        lines = lat.read_text().strip().splitlines()
        assert len(lines) == 5
        from unirep import unit_uniform

        i, x = lines[0].split()
        assert i == "1"
        assert float(x) == unit_uniform(2, 0, 0, 1)

    def test_sample_builds_no_latents_object(self, tmp_path, monkeypatch):
        # the command writes the uniforms and draws the edges from the cells: no Latents,
        # with its tuple of per-vertex atom labels, is built
        spec = write_spec(tmp_path, DEMO_SPEC)
        graph = sample_graph(load_spec(spec).family.kernels[0], 300, 4)

        def never(*args):
            raise AssertionError("a Latents was built")

        monkeypatch.setattr(unirep.sampling, "Latents", never)
        out, lat = tmp_path / "g.txt", tmp_path / "lat.txt"
        argv = ["sample", spec, "--n", "300", "--seed", "4"]
        assert main(argv + ["--out", str(out), "--latents", str(lat)]) == 0
        assert out.read_bytes() == edge_lines_oracle(graph.edges).encode()
        uniforms = graph.latents.uniforms.tolist()
        assert lat.read_text() == "".join(f"{i} {x!r}\n" for i, x in enumerate(uniforms, start=1))


# vertex counts around each change in the number of decimal digits; the
# complete graph on 1001 vertices has 500 500 edges, in row blocks of at
# most 2^16 pairs
EDGE_LIST_NS = (1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001)

# vertex counts at each change of decimal width up to 7 digits, for the
# writer alone: 6 and 7 digits are beyond any graph sampled here
EDGE_WRITER_NS = (1, 9, 10, 99, 100, 10**5 - 1, 10**5, 10**6, 10**6 + 1)


@st.composite
def edge_writer_cases(draw):
    """``(n, edges, blocks)``: strictly ascending int64 rows (i, j), i < j, in
    1..n, always holding (1, n) when n > 1, and the writer's row blocks of them,
    cut at random rows and at rows around each change of width, empty ones
    included."""
    n = draw(st.sampled_from(EDGE_WRITER_NS))
    boundaries = [v for v in (1, 2, 9, 10, 11, 99, 100, 101, 10**5 - 1, 10**5, 10**6, n - 1, n) if 1 <= v <= n]
    vertex = st.one_of(st.sampled_from(boundaries), st.integers(1, n))
    pairs = {(min(p), max(p)) for p in draw(st.lists(st.tuples(vertex, vertex), max_size=40)) if p[0] != p[1]}
    pairs |= {(1, n)} if n > 1 else set()
    edges = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    row = st.one_of(st.sampled_from([v - 1 for v in boundaries]), st.integers(0, n))
    starts = [r0 for r0 in draw(st.lists(row, max_size=8)) if r0 < n - 1]
    return n, edges, edge_row_blocks(edges, n, starts)


def random_demo_spec(rng):
    doc = json.loads(json.dumps(DEMO_SPEC))
    values = doc["kernels"][0]["values"]
    for key in values:
        values[key] = float(rng.random())
    return doc


class TestEdgeList:
    """The edge-list bytes of ``sample`` against the f-string oracle."""

    @pytest.mark.parametrize("n", EDGE_LIST_NS)
    def test_complete_graph_matches_oracle(self, tmp_path, n):
        spec = write_spec(tmp_path, const_spec(1.0))
        out = tmp_path / "g.txt"
        assert main(["sample", spec, "--n", str(n), "--out", str(out)]) == 0
        assert out.read_bytes() == edge_lines_oracle(pair_list(n)).encode()

    @pytest.mark.parametrize("n", EDGE_LIST_NS)
    def test_random_kernel_matches_oracle(self, tmp_path, n):
        spec = write_spec(tmp_path, random_demo_spec(np.random.default_rng(n)))
        out = tmp_path / "g.txt"
        assert main(["sample", spec, "--n", str(n), "--seed", str(n), "--out", str(out)]) == 0
        graph = sample_graph(load_spec(spec).family.kernels[0], n, n)
        assert out.read_bytes() == edge_lines_oracle(graph.edges).encode()

    @pytest.mark.parametrize("n", (10_001, 12_345))
    def test_five_digit_vertices_match_oracle(self, tmp_path, monkeypatch, n):
        # sampling every pair at this n takes gigabytes, so random pairs,
        # the extreme ones included, stand in for the sampled edges
        rng = np.random.default_rng(n)
        pairs = np.sort(rng.integers(1, n + 1, size=(20_000, 2)), axis=1)
        pairs = np.vstack((pairs, [(1, 2), (1, n), (n - 1, n), (9, 10), (99, 100)]))
        edges = np.unique(pairs[pairs[:, 0] < pairs[:, 1]], axis=0)
        blocks = edge_row_blocks(edges, n, np.linspace(0, n - 1, 8).astype(int)[:-1])
        assert len(blocks) == 7
        monkeypatch.setattr(unirep.cli, "_graph_blocks", lambda kernel, n, seed: (None, blocks))
        spec = write_spec(tmp_path, DEMO_SPEC)
        out = tmp_path / "g.txt"
        assert main(["sample", spec, "--n", str(n), "--out", str(out)]) == 0
        assert out.read_bytes() == edge_lines_oracle(edges).encode()

    @pytest.mark.parametrize("block", (1, 7, 45, 64))
    def test_block_size_does_not_change_bytes(self, tmp_path, monkeypatch, block):
        # 45 pairs in rows of 9, 8, ..., 1: blocks of at most 1 pair are
        # single rows, of 7 pairs single rows and then pairs of rows, and
        # of 45 or 64 pairs two blocks of several rows each
        monkeypatch.setattr(unirep.sampling, "_BLOCK", block)
        spec = write_spec(tmp_path, const_spec(1.0))
        out = tmp_path / "g.txt"
        assert main(["sample", spec, "--n", "10", "--out", str(out)]) == 0
        assert out.read_bytes() == edge_lines_oracle(pair_list(10)).encode()

    @pytest.mark.parametrize("doc", [SPARSE_SPEC, DEMO_SPEC], ids=["sparse", "dense"])
    def test_batch_boundaries_do_not_change_edges(self, tmp_path, monkeypatch, doc):
        # the sparse kernel takes the rejection path, whose candidates are held across
        # row blocks: blocks of 1, 7 and 100 coins decide them in many batches, of one
        # row or of several, and 4096 in one batch, its last, spanning every block; the
        # dense kernel's full compare hands on one batch per block
        spec = write_spec(tmp_path, doc)
        kernel = load_spec(spec).family.kernels[0]
        n, seed, out = 300, 11, tmp_path / "g.txt"
        expected = sample_graph_pairwise(kernel, n, seed)
        assert len(expected)
        for block in (1, 7, 100, 4096):
            monkeypatch.setattr(unirep.sampling, "_BLOCK", block)
            blocks = len(list(unirep.sampling._row_blocks(n, 1)))
            batches = len(list(unirep.sampling._graph_blocks(kernel, n, seed)[1]))
            assert batches == blocks if doc is DEMO_SPEC else batches < blocks
            assert batches > 1 or block == 4096 and doc is SPARSE_SPEC
            assert sample_graph(kernel, n, seed).edges.tolist() == expected.tolist(), block
            assert main(["sample", spec, "--n", str(n), "--seed", str(seed), "--out", str(out)]) == 0
            assert out.read_bytes() == edge_lines_oracle(expected).encode(), block

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(case=edge_writer_cases())
    @example(case=(1, np.empty((0, 2), dtype=np.int64), []))
    @example(case=(10**6 + 1, np.empty((0, 2), dtype=np.int64),
                   edge_row_blocks([], 10**6 + 1, (10**6 - 2, 10**6 - 1))))
    def test_writer_chunks_match_oracle(self, case):
        n, edges, blocks = case
        chunks = list(unirep.cli._edge_lines(iter(blocks), n))
        assert len(chunks) == len(blocks)
        assert not any(b"\0" in chunk for chunk in chunks)
        assert b"".join(chunks) == edge_lines_oracle(edges).encode()

    @pytest.mark.parametrize("n", (9, 10, 11, 999, 1000, 1001, 10_001))
    def test_writer_at_each_change_of_width(self, n):
        # blocks start where r0 + 1, their first row, is 10^k - 1 and 10^k, so
        # a block whose rows all have full width is written without the
        # NUL-deleting pass and one just below that width is not
        powers = [10**k for k in range(1, len(str(n)))]
        rows = {1, 2, n - 1} | {p + d for p in powers for d in (-2, -1, 0, 1)}
        edges = sorted({(i, j) for i in rows for j in (i + 1, *powers, n) if 1 <= i < j <= n})
        blocks = edge_row_blocks(edges, n, [p - d for p in powers for d in (1, 2)])
        assert {r0 + 1 for r0, _, _ in blocks} >= {p - d for p in powers for d in (0, 1) if p - d < n}
        chunks = list(unirep.cli._edge_lines(iter(blocks), n))
        assert len(chunks) == len(blocks)
        assert not any(b"\0" in chunk for chunk in chunks)
        assert b"".join(chunks) == edge_lines_oracle(edges).encode()

    @pytest.mark.parametrize("p, n", [(1.0, 1), (0.0, 50)])
    def test_no_edges_empty_file(self, tmp_path, capsysbinary, p, n):
        spec = write_spec(tmp_path, const_spec(p))
        out = tmp_path / "g.txt"
        out.write_text("stale")
        assert main(["sample", spec, "--n", str(n), "--out", str(out)]) == 0
        assert out.read_bytes() == b""
        assert main(["sample", spec, "--n", str(n)]) == 0
        assert capsysbinary.readouterr().out == b""

    def test_stdout_bytes_equal_file_bytes(self, tmp_path, capsysbinary):
        spec = write_spec(tmp_path, DEMO_SPEC)
        out, lat = tmp_path / "g.txt", tmp_path / "lat.txt"
        argv = ["sample", spec, "--n", "300", "--seed", "4"]
        assert main(argv + ["--out", str(out), "--latents", str(lat)]) == 0
        assert main(argv) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()
        # both to stdout: the edges, then the latents
        assert main(argv + ["--out", "-", "--latents", "-"]) == 0
        assert capsysbinary.readouterr().out == out.read_bytes() + lat.read_bytes()

    def test_text_only_stdout_gets_same_lines(self, tmp_path):
        spec = write_spec(tmp_path, DEMO_SPEC)
        out = tmp_path / "g.txt"
        argv = ["sample", spec, "--n", "300", "--seed", "4"]
        assert main(argv + ["--out", str(out)]) == 0
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        assert buf.getvalue().encode() == out.read_bytes()


class TestEquiv:
    def test_spec_vs_own_representation(self, tmp_path, capsys):
        spec = write_spec(tmp_path, DEMO_SPEC)
        rep = tmp_path / "rep.json"
        assert main(["represent", spec, "--out", str(rep)]) == 0
        assert main(["equiv", spec, str(rep), "--n", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["support_equal"] is True
        assert report["tv"] <= 1e-9
        assert report["mode"] == "exact"

    def test_support_differing_at_tiny_atom_fails(self, tmp_path, capsys):
        # TV is about 1e-12, under the 1e-9 gate; only the supports tell
        docs = [
            {
                "space": {"atoms": ["a", "b"], "probs": [1 - 1e-12, 1e-12]},
                "kernels": [{"name": "r", "arity": 1, "value_space": "real",
                             "values": {"a": 0.5, "b": b_value}}],
            }
            for b_value in (0.7, 0.5)
        ]
        a, b = (write_spec(tmp_path, doc, f"{k}.json") for k, doc in enumerate(docs))
        assert main(["equiv", a, b, "--n", "1"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["tv"] <= 1e-9
        assert report["support_equal"] is False
        assert report["pass"] is False

    def test_different_constants_fail(self, tmp_path, capsys):
        a = write_spec(tmp_path, const_spec(0.3), "a.json")
        b = write_spec(tmp_path, const_spec(0.7), "b.json")
        assert main(["equiv", a, b, "--n", "2"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False

    def test_incompatible_arities_exit_2(self, tmp_path):
        a = write_spec(tmp_path, const_spec(0.3), "a.json")
        other = {
            "space": {"atoms": ["o"], "probs": [1.0]},
            "kernels": [{
                "name": "f", "arity": 1, "value_space": "unit",
                "values": {"o": 0.3},
            }],
        }
        b = write_spec(tmp_path, other, "b.json")
        assert main(["equiv", a, b, "--n", "2"]) == 2

    def test_scale_error_directs_to_mc(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REP_MAX_ENUM", "2")
        a = write_spec(tmp_path, DEMO_SPEC, "a.json")
        b = write_spec(tmp_path, DEMO_SPEC, "b.json")
        code, err = run_cli(["equiv", a, b, "--n", "3"], capsys)
        assert code == 3
        assert_one_error_line(err)
        assert "--mode mc" in err

    def test_second_side_over_the_cap_exits_before_any_enumeration(self, tmp_path, capsys,
                                                                  monkeypatch):
        # the one-atom side fits the cap and the three-atom side does not: its error
        # comes before the first side is enumerated
        def never(*args):
            raise AssertionError("enumerated before the caps of both sides were checked")

        monkeypatch.setattr(unirep.equivalence, "_assignments", never)
        monkeypatch.setenv("REP_MAX_ENUM", "8")
        const = write_spec(tmp_path, CONST_SPEC, "const.json")
        demo = write_spec(tmp_path, DEMO_SPEC, "demo.json")
        code, err = run_cli(["equiv", const, demo, "--n", "3"], capsys)
        assert (code, capsys.readouterr().out) == (3, "")
        assert err == (
            "error: 3^3 assignments exceed the enumeration cap 8; "
            "use the statistical mode (--mode mc) or raise REP_MAX_ENUM\n"
        )

    def test_mc_mode_same_spec_passes(self, tmp_path, capsys):
        a = write_spec(tmp_path, DEMO_SPEC, "a.json")
        b = write_spec(tmp_path, DEMO_SPEC, "b.json")
        assert main([
            "equiv", a, b, "--n", "3", "--mode", "mc",
            "--runs", "2000", "--seed", "4",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "chi2"
        assert report["pass"] is True

    def test_mc_stdout_pinned(self, tmp_path, capsys):
        a = write_spec(tmp_path, DEMO_SPEC, "a.json")
        b = write_spec(tmp_path, DEMO_SPEC, "b.json")
        assert main(["equiv", a, b, "--mode", "mc", "--n", "3", "--runs", "2000"]) == 0
        assert capsys.readouterr().out == MC_CHI2_STDOUT
        assert main(["equiv", a, b, "--mode", "mc", "--n", "12", "--runs", "200"]) == 0
        assert capsys.readouterr().out == MC_ZTEST_STDOUT

    @pytest.mark.parametrize("n", sorted(MC_ZTEST_EDGE_STDOUT))
    def test_mc_stdout_pinned_at_the_float32_edge(self, tmp_path, capsys, n):
        a = write_spec(tmp_path, DEMO_SPEC, "a.json")
        b = write_spec(tmp_path, DEMO_SPEC, "b.json")
        assert main(["equiv", a, b, "--mode", "mc", "--n", str(n), "--runs", "2"]) == 0
        assert capsys.readouterr().out == MC_ZTEST_EDGE_STDOUT[n]

    @pytest.mark.parametrize("n", [65, 100])
    def test_one_atom_past_numpy_dimensions(self, tmp_path, capsys, n):
        # every point is broadcast on a one-atom space; the enumerator takes
        # at most 32 of them per block, below numpy's 64 dimensions
        const = write_spec(tmp_path, CONST_SPEC)
        assert main(["equiv", const, const, "--n", str(n)]) == 0
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert (report["support_size"], report["support_equal"], report["tv"]) == (1, True, 0.0)
        assert err == ""

    def test_huge_n_refused_at_once(self, tmp_path):
        # the cap is checked from the exponent: building 3^(10^18) would run
        # past the timeout instead
        demo = write_spec(tmp_path, DEMO_SPEC)
        proc = run_subprocess(["equiv", demo, demo, "--n", "1000000000000000000"])
        assert proc.returncode == 3
        assert proc.stdout == b""
        err = proc.stderr.decode()
        assert_one_error_line(err)
        assert err == (
            "error: 3^1000000000000000000 assignments exceed the enumeration cap 10000000; "
            "use the statistical mode (--mode mc) or raise REP_MAX_ENUM\n"
        )

    def test_one_atom_huge_n_refused_at_once(self, tmp_path):
        # 1^n assignments never exceed the cap; the n(n-1) coordinates of the
        # arity-2 kernel do, and must be counted before they are built
        const = write_spec(tmp_path, CONST_SPEC)
        proc = run_subprocess(["equiv", const, const, "--n", "1000000"], timeout=20)
        assert (proc.returncode, proc.stdout) == (3, b"")
        assert proc.stderr.decode() == (
            "error: 999999000000 coordinates exceed the enumeration cap 10000000; "
            "use the statistical mode (--mode mc) or raise REP_MAX_ENUM\n"
        )


# A spec of the shape the exact-pipeline bench represents: a symmetric
# arity-3 unit kernel, a label kernel and a real kernel holding -0.0.
_ATOMS = ["a", "b", "c", "d"]
BENCH_SHAPE_SPEC = {
    "space": {"atoms": _ATOMS, "probs": [0.4, 0.3, 0.2, 0.1]},
    "generators": [["a"], ["b", "c"], ["c"]],
    "kernels": [
        {"name": "t", "arity": 3, "value_space": "unit", "symmetric": True,
         "values": {",".join(key): round((i * 0.37) % 1, 6)
                    for i, key in enumerate(combinations_with_replacement(_ATOMS, 3))}},
        {"name": "lab", "arity": 2, "value_space": {"labels": 3}, "symmetric": False,
         "values": {",".join(key): i % 3 for i, key in enumerate(product(_ATOMS, repeat=2))}},
        {"name": "r", "arity": 1, "value_space": "real", "symmetric": False,
         "values": {"a": -0.0, "b": 1e300, "c": 5e-324, "d": -2.5}},
    ],
}


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(2**63, 10**40), st.floats(), st.text(),
)
JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=40,
)


# Values that cross the float text widths: a signed zero beside 0.0, the
# smallest subnormal and a 301-digit magnitude.
_EDGE_FLOATS = {"unit": [-0.0, 0.0, 5e-324, 0.1, 1 / 3, 1.0],
                "real": [-0.0, 0.0, 5e-324, 1e300, -2.5, 0.1]}


@st.composite
def table_writer_cases(draw):
    """A cell count that crosses a digit width, an arity, a value space, how
    many distinct values the table holds, a route and a seed for the values."""
    cells = draw(st.sampled_from([1, 9, 10, 11, 100]))
    arity = draw(st.sampled_from([m for m in range(1, 5) if cells**m <= 15_000]))
    kind = draw(st.sampled_from(["real", "unit", "labels"]))
    distinct = draw(st.sampled_from(["one", "few", "all"]))
    return cells, arity, kind, distinct, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


def table_writer_spec(cells, arity, kind, distinct, seed):
    """A one-kernel spec on ``cells`` atoms whose table holds one value, a few
    (the edge floats, or labels 0..6), or all different values."""
    rng = np.random.default_rng(seed)
    size = cells**arity
    atoms = [f"a{k}" for k in range(cells)]
    if kind == "labels":
        count = size if distinct == "all" else 7
        values = rng.permutation(size) if distinct == "all" else rng.integers(0, 7, size)
        value_space = {"labels": count}
    else:
        value_space = kind
        if distinct == "all":  # distinct magnitudes at one random scale
            scale = 1 / size if kind == "unit" else 10.0 ** rng.integers(-300, 300)
            sign = rng.choice([-1.0, 1.0], size) if kind == "real" else 1.0
            values = sign * (rng.permutation(size) + 0.5 * (kind == "real")) * scale
        else:
            values = rng.choice(_EDGE_FLOATS[kind], size)
    if distinct == "one":
        values = np.full(size, values[0])
    keys = map(",".join, product(atoms, repeat=arity))
    return {
        "space": {"atoms": atoms, "probs": rng.dirichlet(np.ones(cells)).tolist()},
        "generators": [[a] for a in atoms],
        "kernels": [{"name": "f", "arity": arity, "value_space": value_space,
                     "values": dict(zip(keys, values.tolist()))}],
    }


class TestJsonOutput:
    def test_real_stdout_matches_redirected(self, tmp_path):
        """Every JSON document the CLI prints has the same bytes on a real
        stdout as under ``redirect_stdout(io.StringIO())``: ``indent=2`` and
        one newline."""
        demo = write_spec(tmp_path, DEMO_SPEC, "demo.json")
        rep = str(tmp_path / "rep.json")
        assert main(["represent", demo, "--out", rep]) == 0
        for argv in (
            ["represent", demo],
            ["encode", demo],
            ["equiv", demo, rep, "--n", "3"],
            ["equiv", demo, rep, "--mode", "mc", "--n", "12", "--runs", "50"],
        ):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            proc = run_subprocess(argv)
            assert (proc.returncode, proc.stderr) == (code, b""), argv
            assert proc.stdout == out.getvalue().encode(), argv
            assert out.getvalue() == json.dumps(json.loads(out.getvalue()), indent=2) + "\n"

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(doc=JSON_DOCS)
    @example(doc={})
    @example(doc=[])
    @example(doc={"a": {}, "b": [[], {"c": [{}, [[]]]}], "d": [{}]})
    @example(doc=[{"x": -0.0, "y": 5e-324}, {"z": [1e300, -(10**40), True, False, None]}])
    @example(doc={"\u00e9t\u00e9\n": ["\u65e5\u672c", "\"\\\t\x00\u2028", "\ud800"], "": [0]})
    @example(doc=[[[1.5, "x"]], {"k": [{"m": 2**70}]}])
    def test_indented_equals_json_indent(self, doc):
        assert _indented(doc) == json.dumps(doc, indent=2)

    def test_artifacts_at_bench_shape(self, tmp_path):
        """``represent`` (both routes) and ``encode`` write
        ``json.dumps(doc, indent=2)`` and a newline, where doc is built with
        per-tuple keys, and the artifact loads back to the same values."""
        spec = write_spec(tmp_path, BENCH_SHAPE_SPEC)
        doc = load_spec(spec)
        space, family, generators = doc.space, doc.family, doc.generators
        codes = cantor_encode(space, generators)
        expected = {
            "represent": dump_represented_oracle(represent_family(space, family)),
            "represent --via-cantor": dump_represented_oracle(
                cantor_represent_family(space, generators, family)),
            "encode": {
                "codes": {str(a): str(codes[a]) for a in space.atom_ids},
                "sigma_atoms": [list(map(str, m)) for m in sigma_atoms(space, generators)],
            },
        }
        for i, (command, document) in enumerate(expected.items()):
            out = tmp_path / f"{i}.json"
            assert main([*command.split(), spec, "--out", str(out)]) == 0
            assert out.read_bytes() == (json.dumps(document, indent=2) + "\n").encode(), command
        artifact = tmp_path / "0.json"
        assert '": -0.0,' in artifact.read_text()
        for loaded, kernel in zip(load_spec(artifact).family, represent_family(space, family)):
            assert loaded.values.dtype == kernel.values.dtype
            assert loaded.values.tobytes() == kernel.values.tobytes()

    def test_own_artifacts_take_the_bulk_path(self, tmp_path, monkeypatch):
        """Both ``represent`` routes list every table (unit, real and label
        kernels of arity 1 to 3) in the layout that the loader reads in bulk:
        with the general path's ``values_from_table`` made to fail, both
        artifacts still load, to the same arrays."""
        spec = write_spec(tmp_path, BENCH_SHAPE_SPEC)
        artifacts = {}
        for route in ([], ["--via-cantor"]):
            out = tmp_path / f"rep{len(route)}.json"
            assert main(["represent", spec, "--out", str(out), *route]) == 0
            artifacts[out] = [(k.values.dtype, k.values.tobytes()) for k in load_spec(out).family]

        def fail(*args, **kwargs):
            raise AssertionError("the general path was taken")

        monkeypatch.setattr(unirep.kernels, "values_from_table", fail)
        monkeypatch.setattr(unirep.specfile, "values_from_table", fail)
        for out, values in artifacts.items():
            family = load_spec(out).family
            assert [k.arity for k in family] == [3, 2, 1]
            assert [(k.values.dtype, k.values.tobytes()) for k in family] == values

    def test_bench_shaped_spec_takes_the_bulk_path(self, tmp_path, monkeypatch):
        """A space spec laid out as the benchmark writes its specs (an arity-3 unit table
        listed once per orbit, a fully listed arity-2 label table, an arity-1 table)
        loads with the general path's ``values_from_table`` made to fail, to the same
        arrays."""
        spec = write_spec(tmp_path, BENCH_SHAPE_SPEC)
        expected = [(k.values.dtype, k.values.tobytes()) for k in load_spec(spec).family]

        def fail(*args, **kwargs):
            raise AssertionError("the general path was taken")

        monkeypatch.setattr(unirep.kernels, "values_from_table", fail)
        monkeypatch.setattr(unirep.specfile, "values_from_table", fail)
        family = load_spec(spec).family
        assert [k.arity for k in family] == [3, 2, 1]
        assert [(k.values.dtype, k.values.tobytes()) for k in family] == expected

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(case=table_writer_cases())
    @example(case=(1, 1, "real", "one", False, 0))
    @example(case=(11, 2, "real", "few", False, 1))
    @example(case=(10, 4, "unit", "few", True, 2))
    @example(case=(100, 2, "labels", "all", False, 3))
    @example(case=(9, 3, "real", "all", True, 4))
    def test_table_writer_equals_oracle(self, tmp_path_factory, case):
        """``represent`` writes each table as ``json.dumps(oracle, indent=2)``
        does, across the digit widths of the cells (K = 9, 10, 11, 100), in
        every value space, with one, few or all distinct values, including
        ``-0.0`` beside ``0.0``, ``5e-324`` and ``1e300``, by either route."""
        *shape, cantor, seed = case
        tmp = tmp_path_factory.mktemp("writer")
        spec = write_spec(tmp, table_writer_spec(*shape, seed))
        doc = load_spec(spec)
        if cantor:
            rep = cantor_represent_family(doc.space, doc.generators, doc.family)
        else:
            rep = represent_family(doc.space, doc.family)
        out = tmp / "rep.json"
        argv = ["represent", spec, "--out", str(out)] + ["--via-cantor"] * cantor
        assert main(argv) == 0
        oracle = json.dumps(dump_represented_oracle(rep), indent=2) + "\n"
        assert out.read_text() == oracle
        back = load_spec(out).family.kernels[0].values
        assert back.tobytes() == rep.kernels[0].values.tobytes()


class TestDensities:
    def test_constant_kernel(self, tmp_path, capsys):
        spec = write_spec(tmp_path, const_spec(0.3))
        assert main(["densities", spec, "--patterns", "edge,triangle"]) == 0
        out = dict(
            line.split() for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(out["edge"]) == pytest.approx(0.3, rel=1e-12)
        assert float(out["triangle"]) == pytest.approx(0.027, rel=1e-12)

    def test_two_block_edge(self, tmp_path, capsys):
        doc = {
            "partition": {"breakpoints": [0.0, 0.5, 1.0], "cells": ["lo", "hi"]},
            "kernels": [{
                "name": "f", "arity": 2, "value_space": "unit", "symmetric": True,
                "values": {"0,0": 0.1, "0,1": 0.9, "1,1": 0.1},
            }],
        }
        spec = write_spec(tmp_path, doc)
        assert main(["densities", spec, "--patterns", "edge"]) == 0
        name, value = capsys.readouterr().out.split()
        assert name == "edge"
        assert float(value) == pytest.approx(0.5, rel=1e-12)

    def test_unknown_pattern_exit_2(self, tmp_path, capsys):
        # an empty list is refused like an unknown name, not answered with no lines
        spec = write_spec(tmp_path, const_spec(0.3))
        for patterns in ("pentagon", "", ",", " , "):
            code, err = run_cli(["densities", spec, "--patterns", patterns], capsys)
            assert code == 2
            assert_one_error_line(err)
            assert "; available: c4, edge, k4, p3, triangle" in err

    def test_lines_pinned(self, tmp_path, capsys):
        # a zero-probability atom, zero and unit values; the expected lines
        # are the output of the per-assignment loop this command once ran
        values = {
            "a,a": 0.1, "a,b": 0.7, "a,c": 0.0, "a,d": 0.35, "a,e": 1.0, "a,z": 0.9,
            "b,b": 0.45, "b,c": 0.2, "b,d": 0.0, "b,e": 0.6, "b,z": 0.3,
            "c,c": 0.8, "c,d": 0.55, "c,e": 0.15, "c,z": 1.0,
            "d,d": 0.05, "d,e": 0.4, "d,z": 0.0,
            "e,e": 0.95, "e,z": 0.5, "z,z": 0.25,
        }
        doc = {
            "space": {"atoms": list("abcdez"), "probs": [0.3, 0.1, 0.25, 0.2, 0.15, 0.0]},
            "kernels": [{
                "name": "f", "arity": 2, "value_space": "unit", "symmetric": True,
                "values": values,
            }],
        }
        spec = write_spec(tmp_path, doc)
        assert main(["densities", spec, "--patterns", "edge,p3,triangle,c4,k4"]) == 0
        assert capsys.readouterr().out == (
            "edge 0.379125\n"
            "p3 0.1545778125\n"
            "triangle 0.07564396875\n"
            "c4 0.0317054624609\n"
            "k4 0.0117972926864\n"
        )


@st.composite
def density_specs(draw):
    """A symmetric unit kernel on up to 30 atoms (a space) or cells (a partition), its
    weights and values with exact zeros and ones and, among the floats, subnormals."""
    size = draw(st.integers(1, 30))
    unit = st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)
    weights = draw(st.lists(unit, min_size=size, max_size=size).filter(any))
    pairs = list(combinations_with_replacement(range(size), 2))
    values = draw(st.lists(unit, min_size=len(pairs), max_size=len(pairs)))
    total = math.fsum(weights)
    kernel = {"name": "f", "arity": 2, "value_space": "unit", "symmetric": True}
    if draw(st.booleans()):
        atoms = [f"a{i}" for i in range(size)]
        kernel["values"] = {f"{atoms[i]},{atoms[j]}": v for (i, j), v in zip(pairs, values)}
        return {"space": {"atoms": atoms, "probs": [w / total for w in weights]}, "kernels": [kernel]}
    cuts = [math.fsum(weights[:i]) / total for i in range(1, size)]
    kernel["values"] = {f"{i},{j}": v for (i, j), v in zip(pairs, values)}
    partition = {"breakpoints": [0.0, *cuts, 1.0], "cells": [f"c{i}" for i in range(size)]}
    return {"partition": partition, "kernels": [kernel]}


class TestDensityLines:
    """Each ``densities`` line is ``hom_density``'s value to 12 significant digits,
    whether its digits are certified from the contraction or come from the fallback,
    which is ``hom_density`` itself."""

    ALL = "edge,p3,triangle,c4,k4"

    @staticmethod
    def lines(doc, patterns):
        """The command's stdout on ``doc``, the lines ``hom_density`` gives, and the
        patterns the command passed to ``hom_density``."""
        calls, real = [], unirep.cli.hom_density
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            spec = write_spec(Path(tmp), doc)
            kernel = load_spec(spec).family.kernels[0]
            mp.setattr(unirep.cli, "hom_density", lambda k, p: calls.append(p) or real(k, p))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["densities", spec, "--patterns", patterns]) == 0
        expected = "".join(f"{name} {real(kernel, PATTERNS[name]):.12g}\n"
                           for name in patterns.split(","))
        return out.getvalue(), expected, [name for name in patterns.split(",")
                                          if PATTERNS[name] in calls]

    @given(density_specs())
    @settings(max_examples=150, deadline=None)
    def test_lines_are_hom_density(self, doc):
        out, expected, _ = self.lines(doc, self.ALL)
        assert out == expected

    def test_boundary_falls_back(self):
        # one cell, so the edge density is W: three floats above the one nearest the
        # 12-digit boundary 0.1234567890125, within the bound (about five) of it but past
        # the float each end is rounded outward by, so the digits come from hom_density
        w = math.nextafter(math.nextafter(math.nextafter(0.1234567890125, 1.0), 1.0), 1.0)
        out, expected, fell_back = self.lines(const_spec(w), "edge,triangle")
        assert out == expected and fell_back == ["edge"]
        assert self.lines(const_spec(0.3), "edge,triangle")[2] == []

    def test_underflow_falls_back(self):
        # the p3 term 10^-320 is subnormal; the triangle, c4 and k4 terms underflow to 0
        out, expected, fell_back = self.lines(const_spec(1e-160), self.ALL)
        assert out == expected and fell_back == ["p3", "triangle", "c4", "k4"]
        assert out.splitlines()[1] == "p3 9.99988867183e-321"  # a subnormal

    def test_zero_density_falls_back(self):
        # a bipartite kernel has no triangle and no 4-clique
        doc = {"space": {"atoms": ["a", "b"], "probs": [0.5, 0.5]},
               "kernels": [{"name": "f", "arity": 2, "value_space": "unit", "symmetric": True,
                            "values": {"a,a": 0.0, "a,b": 1.0, "b,b": 0.0}}]}
        out, expected, fell_back = self.lines(doc, self.ALL)
        assert out == expected and fell_back == ["triangle", "k4"]
        assert out == "edge 0.5\np3 0.25\ntriangle 0\nc4 0.125\nk4 0\n"


class TestEncode:
    def test_codes_and_sigma_atoms(self, tmp_path, capsys):
        doc = {
            "space": {"atoms": ["a", "b", "c"], "probs": [0.5, 0.3, 0.2]},
            "generators": [["a", "b"]],
        }
        spec = write_spec(tmp_path, doc)
        assert main(["encode", spec]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["codes"] == {"a": "1", "b": "1", "c": "0"}
        assert payload["sigma_atoms"] == [["a", "b"], ["c"]]

    def test_missing_generators_exit_2(self, tmp_path):
        spec = write_spec(tmp_path, const_spec(0.5))
        assert main(["encode", spec]) == 2


class TestDeterminism:
    def test_represent_rerun_byte_identical(self, tmp_path):
        spec = write_spec(tmp_path, DEMO_SPEC)
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main(["represent", spec, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def run_cli(argv, capsys):
    """Exit code and stderr of one CLI call, argparse rejections included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def assert_one_error_line(err):
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == 1


def _spec_bytes(doc, huge_literal=None):
    """A spec document as file bytes; ``huge_literal`` replaces the value 7."""
    text = json.dumps(doc)
    return (text.replace(": 7", ": " + huge_literal) if huge_literal else text).encode()


def _demo_with(path, value):
    doc = json.loads(json.dumps(DEMO_SPEC))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


_CELL_KERNEL = {"name": "f", "arity": 2, "value_space": "unit", "symmetric": True,
                "values": {"0,0": 0.5, "0,1": 0.2, "1,1": 0.9}}
_ARITY1 = {"a": 7, "b": 0, "c": 1}

MALFORMED_SPECS = {
    "partition_cells_lists": _spec_bytes(
        {"partition": {"breakpoints": [0, 0.5, 1], "cells": [["a"], ["b"]]},
         "kernels": [_CELL_KERNEL]}),
    "breakpoints_string": _spec_bytes(
        {"partition": {"breakpoints": [0, "q", 1], "cells": ["a", "b"]},
         "kernels": [_CELL_KERNEL]}),
    "breakpoint_nan": _spec_bytes(
        {"partition": {"breakpoints": [0, float("nan"), 1], "cells": ["a", "b"]},
         "kernels": [_CELL_KERNEL]}),
    "not_utf8": b"\xff\xfe",
    "probs_string": _spec_bytes(_demo_with(["space", "probs"], ["x", 0.5, 0.5])),
    "probs_null": _spec_bytes(_demo_with(["space", "probs"], [None, 0.5, 0.5])),
    "symmetric_string": _spec_bytes(_demo_with(["kernels", 0, "symmetric"], "false")),
    "real_value_400_digits": _spec_bytes(_demo_with(["kernels"], [
        {"name": "r", "arity": 1, "value_space": "real", "values": _ARITY1}]), "9" * 400),
    "label_value_400_digits": _spec_bytes(_demo_with(["kernels"], [
        {"name": "r", "arity": 1, "value_space": {"labels": 3}, "values": _ARITY1}]), "9" * 400),
    # past the decoder's recursion limit and its limit on the digits of an integer
    "nested_100000_deep": b"[" * 100_000 + b"]" * 100_000,
    "real_value_5000_digits": _spec_bytes(_demo_with(["kernels"], [
        {"name": "r", "arity": 1, "value_space": "real", "values": _ARITY1}]), "9" * 5000),
}


class TestBadInput:
    def test_missing_spec_file_exit_2(self, tmp_path, capsys):
        code, err = run_cli(["encode", str(tmp_path / "missing.json")], capsys)
        assert code == 2
        assert_one_error_line(err)

    def test_non_integer_enum_cap_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REP_MAX_ENUM", "abc")
        spec = write_spec(tmp_path, DEMO_SPEC)
        code, err = run_cli(["equiv", spec, spec, "--n", "2"], capsys)
        assert code == 2
        assert_one_error_line(err)
        assert "REP_MAX_ENUM" in err

    @pytest.mark.parametrize(
        "command, argv",
        [
            ("cmd_sample", ["sample", "SPEC", "--n", "0"]),
            ("cmd_sample", ["sample", "SPEC", "--n", "5", "--threads", "-3"]),
            ("cmd_sample", ["sample", "SPEC", "--n", "5", "--threads", "0"]),
            ("cmd_equiv", ["equiv", "SPEC", "SPEC", "--n", "-1"]),
            ("cmd_equiv", ["equiv", "SPEC", "SPEC", "--n", "2.5"]),
            ("cmd_equiv", ["equiv", "SPEC", "SPEC", "--n", "3", "--mode", "mc", "--runs", "0"]),
            ("cmd_equiv", ["equiv", "SPEC", "SPEC", "--n", "3", "--mode", "mc", "--alpha", "2"]),
            ("cmd_equiv", ["equiv", "SPEC", "SPEC", "--n", "3", "--mode", "mc", "--alpha", "0"]),
            ("cmd_equiv", ["equiv", "SPEC", "SPEC", "--n", "3", "--mode", "mc", "--alpha", "1"]),
            ("cmd_equiv", ["equiv", "SPEC", "SPEC", "--n", "3", "--mode", "mc", "--alpha", "nan"]),
        ],
    )
    def test_numeric_arguments_rejected_before_command(
        self, tmp_path, capsys, monkeypatch, command, argv
    ):
        import unirep.cli

        calls = []
        monkeypatch.setattr(unirep.cli, command, lambda args: calls.append(args) or 0)
        spec = write_spec(tmp_path, DEMO_SPEC)
        code, err = run_cli([spec if a == "SPEC" else a for a in argv], capsys)
        assert code == 2
        assert_one_error_line(err)
        assert calls == []

    @pytest.mark.parametrize("flag", ["--out", "--latents"])
    def test_unwritable_output_exit_2(self, tmp_path, capsys, flag):
        # the latents are written before the edge list, so an unwritable
        # --latents leaves no --out file behind
        spec = write_spec(tmp_path, DEMO_SPEC)
        argv = ["sample", spec, "--n", "20", "--out", str(tmp_path / "g.txt"), flag, str(tmp_path)]
        code, err = run_cli(argv, capsys)
        assert code == 2
        assert_one_error_line(err)
        assert not (tmp_path / "g.txt").exists()

    def test_same_out_and_latents_exit_2(self, tmp_path, capsys, monkeypatch):
        # two spellings of one path; the latents would replace the edges
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        spec = write_spec(tmp_path, DEMO_SPEC)
        argv = ["sample", spec, "--n", "20", "--out", "g.txt", "--latents", "d/../g.txt"]
        code, err = run_cli(argv, capsys)
        assert code == 2
        assert_one_error_line(err)
        assert "--out and --latents name the same file" in err
        assert not (tmp_path / "g.txt").exists()

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_unknown_kernel_exit_2(self, tmp_path, capsys, mode):
        # exact mode compares every kernel, but looks the named one up too
        spec = write_spec(tmp_path, DEMO_SPEC)
        argv = ["equiv", spec, spec, "--n", "2", "--mode", mode, "--kernel", "zz"]
        code, err = run_cli(argv, capsys)
        assert code == 2
        assert_one_error_line(err)
        assert "no kernel named 'zz'" in err
        assert run_cli(argv[:-1] + ["f"], capsys)[0] == 0

    def test_run_count_too_large_exit_3(self, tmp_path, capsys):
        # the seed array would take 7 PiB, which numpy refuses before allocating
        spec = write_spec(tmp_path, DEMO_SPEC)
        argv = ["equiv", spec, spec, "--mode", "mc", "--n", "3", "--runs", str(10**15)]
        code, err = run_cli(argv, capsys)
        assert code == 3
        assert_one_error_line(err)

    def test_table_too_large_for_numpy_exit_3(self, tmp_path, capsys):
        # 3^50 tuples: numpy cannot even size the value array
        doc = {
            "space": {"atoms": ["a", "b", "c"], "probs": [0.2, 0.3, 0.5]},
            "kernels": [{"name": "f", "arity": 50, "value_space": "unit", "symmetric": True,
                         "values": {",".join(["a"] * 50): 0.5}}],
        }
        code, err = run_cli(["sample", write_spec(tmp_path, doc), "--n", "2"], capsys)
        assert code == 3
        assert_one_error_line(err)
        assert "3^50" in err

    def test_orbit_listed_table_too_large_for_numpy_exit_3(self, tmp_path, capsys):
        # every orbit of the 3^50 tuples listed once, in order: the loader refuses it
        # before it builds any array of the table's size
        doc = {
            "space": {"atoms": ["a", "b", "c"], "probs": [0.2, 0.3, 0.5]},
            "kernels": [{"name": "f", "arity": 50, "value_space": "unit", "symmetric": True,
                         "values": {",".join(key): 0.5
                                    for key in combinations_with_replacement("abc", 50)}}],
        }
        code, err = run_cli(["sample", write_spec(tmp_path, doc), "--n", "2"], capsys)
        assert code == 3
        assert_one_error_line(err)
        assert "3^50" in err

    # b's probability is below half an ulp of its prefix sum 0.5: no float cell holds it
    TINY_ATOM_SPEC = {
        "space": {"atoms": ["a", "b", "c"], "probs": [0.5, 1e-20, 0.5]},
        "generators": [["a"], ["b"], ["c"]],
        "kernels": [
            {"name": "r", "arity": 1, "value_space": "real", "values": {"a": 0, "b": 1, "c": 2}},
            {"name": "w", "arity": 2, "value_space": "unit", "symmetric": True,
             "values": {"a,a": 0.1, "a,b": 0.4, "a,c": 0.6, "b,b": 0.2, "b,c": 0.5, "c,c": 0.3}},
        ],
    }

    def test_atom_without_a_cell_refused_exit_2(self, tmp_path, capsys):
        spec, rep = write_spec(tmp_path, self.TINY_ATOM_SPEC), tmp_path / "rep.json"
        # the Cantor route names b by its generator code
        for route, atom in (([], "b"), (["--via-cantor"], "010")):
            code, err = run_cli(["represent", spec, *route, "--out", str(rep)], capsys)
            assert code == 2
            assert_one_error_line(err)
            assert f"atom '{atom}' has probability 1e-20 but an empty cell at 0.5" in err
        assert not rep.exists()
        # so the comparison with the source ends in an error, not in exit 1
        code, err = run_cli(["equiv", spec, str(rep), "--n", "1"], capsys)
        assert code == 2
        assert_one_error_line(err)
        # exact laws of the table spec itself need no partition
        assert run_cli(["equiv", spec, spec, "--n", "2"], capsys)[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "SPEC", "--kernel", "w", "--n", "5"],
            ["equiv", "SPEC", "SPEC", "--mode", "mc", "--kernel", "w", "--n", "3", "--runs", "50"],
        ],
    )
    def test_sampler_refuses_atom_without_a_cell_exit_2(self, tmp_path, capsys, argv):
        spec = write_spec(tmp_path, self.TINY_ATOM_SPEC)
        code, err = run_cli([spec if a == "SPEC" else a for a in argv], capsys)
        assert code == 2
        assert_one_error_line(err)
        assert "atom 'b' has probability 1e-20" in err

    @pytest.mark.parametrize(
        "doc, kernel",
        [
            ({"space": {"atoms": ["a", "b"], "probs": [0.5, 0.5]},
              "kernels": [{"name": "f", "arity": 2, "value_space": "unit", "symmetric": False,
                           "values": {"a,a": 0.1, "a,b": 0.2, "b,a": 0.3, "b,b": 0.4}}]}, "f"),
            (TINY_ATOM_SPEC, "r"),
            (TINY_ATOM_SPEC, "w"),
        ],
        ids=["not-symmetric", "arity-1", "tiny-atom"],
    )
    def test_sample_checks_run_before_output_opened(self, tmp_path, capsys, doc, kernel):
        # a sampler that opened --out before its checks would truncate it
        out = tmp_path / "g.txt"
        out.write_bytes(b"1 2\n")
        argv = ["sample", write_spec(tmp_path, doc), "--kernel", kernel, "--n", "5", "--out", str(out)]
        code, err = run_cli(argv, capsys)
        assert code == 2
        assert_one_error_line(err)
        assert out.read_bytes() == b"1 2\n"

    def test_ztest_with_one_run_exit_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, DEMO_SPEC)
        argv = ["equiv", spec, spec, "--mode", "mc", "--n", "12", "--runs", "1"]
        code, err = run_cli(argv, capsys)
        assert code == 2
        assert_one_error_line(err)
        assert "runs >= 2" in err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("c,a", 0.9, "symmetric orbit of 'c,a' lists conflicting values"),
            ("a,q", 0.9, "table key ('a', 'q') is not an arity-2 domain tuple"),
            ("b,c", None, "table has 7 entries, needs all 9 tuples"),
        ],
    )
    def test_symmetric_orbit_errors_exit_2(self, tmp_path, capsys, key, value, message):
        doc = json.loads(json.dumps(DEMO_SPEC))
        values = doc["kernels"][0]["values"]
        if value is None:
            del values[key]
        else:
            values[key] = value
        code, err = run_cli(["sample", write_spec(tmp_path, doc), "--n", "3"], capsys)
        assert code == 2
        assert_one_error_line(err)
        assert "kernels[0].values" in err and message in err

    @pytest.mark.parametrize("generators", [[[["a"]]], [[{"x": 1}]]])
    @pytest.mark.parametrize("argv", [["encode"], ["represent", "--via-cantor"]])
    def test_unhashable_generator_member_exit_2(self, tmp_path, capsys, generators, argv):
        spec = write_spec(tmp_path, _demo_with(["generators"], generators))
        code, err = run_cli([argv[0], spec, *argv[1:]], capsys)
        assert code == 2
        assert_one_error_line(err)
        assert "generators" in err

    @pytest.mark.parametrize("case", sorted(MALFORMED_SPECS))
    def test_malformed_spec_exit_2(self, tmp_path, capsys, case):
        path = tmp_path / "bad.json"
        path.write_bytes(MALFORMED_SPECS[case])
        code, err = run_cli(["sample", str(path), "--n", "3"], capsys)
        assert code == 2, err
        assert_one_error_line(err)


# Fields of DEMO_SPEC that the fuzz test replaces: "KEY" renames the key
# "a,b" to the JSON text of the shape, and ("kernels", 0, "values", "a,b")
# replaces its value.
FUZZ_FIELDS = [
    ("space",), ("space", "atoms"), ("space", "probs"), ("generators",), ("kernels",),
    ("kernels", 0, "name"), ("kernels", 0, "arity"), ("kernels", 0, "value_space"),
    ("kernels", 0, "symmetric"), ("kernels", 0, "values"), "KEY",
    ("kernels", 0, "values", "a,b"),
]
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(2**63, 10**400), st.text(max_size=4)
)
FUZZ_SHAPES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.lists(st.lists(_SCALARS | st.lists(_SCALARS, max_size=2), max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2),
)
FUZZ_COMMANDS = [
    ["represent", "SPEC"],
    ["represent", "SPEC", "--via-cantor"],
    ["encode", "SPEC"],
    ["sample", "SPEC", "--n", "5", "--out", "EDGES"],
    ["equiv", "SPEC", "SPEC", "--n", "2"],
    ["densities", "SPEC"],
]


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(field=st.sampled_from(FUZZ_FIELDS), shape=FUZZ_SHAPES)
@example(field=("generators",), shape=[[["a"]]])
@example(field=("generators",), shape=[[{"x": 1}]])
@example(field=("kernels", 0, "arity"), shape=10**400)
def test_fuzzed_spec_exit_contract(field, shape):
    if field == "KEY":
        doc = json.loads(json.dumps(DEMO_SPEC))
        values = doc["kernels"][0]["values"]
        values[json.dumps(shape)] = values.pop("a,b")
    else:
        doc = _demo_with(field, shape)
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp, "spec.json")
        spec.write_text(json.dumps(doc), encoding="utf-8")
        names = {"SPEC": str(spec), "EDGES": str(Path(tmp, "edges.txt"))}
        for argv in FUZZ_COMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([names.get(a, a) for a in argv])
            assert code in (0, 2, 3), (argv, err.getvalue())
            if code:
                assert_one_error_line(err.getvalue())


# The argv fuzz: per command, each slot's base value and the values that may
# replace it.  A slot is a positional spec, an option, or REP_MAX_ENUM; None
# omits an option (or leaves REP_MAX_ENUM unset) and True gives a bare flag.
# Upper-case words name paths made for the test.  Vertex counts stay at most
# 40, and at most 4 for exact enumeration, except for a --n of 10^18 that the
# cap must refuse at once.
_SPEC = ("DEMO", ["REP", "CONST", "MISSING", "DIR"])
_SPEC_B = ("REP", ["DEMO", "CONST", "MISSING", "DIR"])
_OUT = ("FILE", ["-", "", "DIR", "NODIR", None])
_SIZE = ("3", ["1", "40", "0", "-7", "2.5", "1e3", "", "x", None])
_SEED = (None, ["0", "-1", str(-(2**64)), str(2**64), str(2**70 + 3), "1.5", "x"])
_KERNEL = (None, ["f", "g", ""])
ARGV_POOLS = {
    "represent": {"SPEC": _SPEC, "--via-cantor": (None, [True]), "--out": _OUT},
    "encode": {"SPEC": _SPEC, "--out": _OUT},
    "densities": {
        "SPEC": _SPEC,
        "--patterns": (None, ["edge", "edge,triangle,c4", "k4", "p3,zzz", "", ",", "edge,,p3"]),
        "--kernel": _KERNEL,
    },
    "sample": {
        "SPEC": _SPEC, "--n": _SIZE, "--seed": _SEED,
        "--threads": (None, ["2", "1000000", "0", "-3", "x"]),
        "--kernel": _KERNEL, "--out": _OUT, "--latents": _OUT,
    },
    "equiv": {
        "SPEC": _SPEC, "SPEC_B": _SPEC_B,
        "--n": ("2", ["1", "4", "0", "-1", "2.5", "x", None, "1000000000000000000"]),
        "--mode": (None, ["exact", "bogus"]),
        "REP_MAX_ENUM": (None, ["abc", "-1", "0", "1e3", ""]),
    },
    # one atom: 1^n assignments never reach the cap, the n(n-1) coordinates do
    "equiv --mode exact": {
        "SPEC": ("CONST", ["DEMO"]), "SPEC_B": ("CONST", ["DEMO"]),
        "--n": ("2", ["65", "1000000", "1000000000000000000"]),
    },
    "equiv --mode mc": {
        "SPEC": _SPEC, "SPEC_B": _SPEC_B, "--n": _SIZE,
        "--runs": ("50", ["1", "2", "300", "0", "-1", "x"]), "--seed": _SEED,
        "--alpha": (None, ["0.5", "nan", "0", "1", "1e-400", "inf", "-0.5"]),
        "--kernel": _KERNEL,
    },
}


def fuzzed_argv(count, seed=0):
    """``count`` pairs (command, slot values): first each replacement on its
    own, then seeded draws that replace two slots at once."""
    singles = [(c, {slot: value}) for c, pool in ARGV_POOLS.items()
               for slot, (_, values) in pool.items() for value in values]
    rng = random.Random(seed)
    for i in range(count):
        if i < len(singles):
            command, changes = singles[i]
        else:
            command = rng.choice(sorted(ARGV_POOLS))
            pool = ARGV_POOLS[command]
            changes = {slot: rng.choice(pool[slot][1]) for slot in rng.sample(sorted(pool), 2)}
        yield command, {slot: base for slot, (base, _) in ARGV_POOLS[command].items()} | changes


def test_fuzzed_argv_exit_contract(tmp_path, monkeypatch):
    demo = write_spec(tmp_path, DEMO_SPEC, "demo.json")
    rep = str(tmp_path / "rep.json")
    assert main(["represent", demo, "--out", rep]) == 0
    paths = {"DEMO": demo, "REP": rep, "CONST": write_spec(tmp_path, CONST_SPEC, "const.json"),
             "MISSING": str(tmp_path / "missing.json"), "DIR": str(tmp_path),
             "NODIR": str(tmp_path / "none" / "out.txt")}
    for i, (command, values) in enumerate(fuzzed_argv(205)):
        written = {slot: str(tmp_path / f"{i}{slot}") for slot, v in values.items() if v == "FILE"}
        argv = command.split()
        for slot, value in values.items():
            if slot.startswith("SPEC"):
                argv.append(paths[value])
            elif slot.startswith("--") and value is not None:
                argv += [slot] if value is True else [slot, written.get(slot, paths.get(value, value))]
        if values.get("REP_MAX_ENUM") is None:
            monkeypatch.delenv("REP_MAX_ENUM", raising=False)
        else:
            monkeypatch.setenv("REP_MAX_ENUM", values["REP_MAX_ENUM"])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's rejections
                code = exc.code
        context = (argv, values.get("REP_MAX_ENUM"), err.getvalue())
        assert code in (0, 1, 2, 3), context
        assert "Traceback" not in err.getvalue(), context
        if code >= 2:  # argparse prints its usage line before the error
            assert "error:" in err.getvalue().splitlines()[-1], context
        if code == 0:  # every output file that was asked for was written
            outputs = [values.get(slot) for slot in ("--out", "--latents")]
            assert all(v in (None, "-", "FILE") for v in outputs), context
            assert all(Path(path).is_file() for path in written.values()), context


def test_parser_of_one_command_matches_full_parser(tmp_path, monkeypatch):
    """``main`` reads plain command lines without argparse; help, usage, every error and
    every result stay those of ``build_parser()`` reading every command line."""
    spec = write_spec(tmp_path, DEMO_SPEC)
    argvs = [[], ["-h"], ["-h", "encode"], ["bogus"], ["rep", spec], ["encode"],
             ["--bogus", "encode", spec], ["sample", spec], ["equiv", spec],
             ["equiv", spec, spec, "--n", "2", "--mode", "bad"],
             ["equiv", spec, spec, "--n", "2", "--mode", "mc", "--alpha", "2"],
             ["encode", spec, "extra"], ["represent", spec, "sample"], ["encode", spec, "--n", "3"],
             ["sample", spec, "--n", "3", "--lat", "-"], ["sample", "--n", "3", "--", spec],
             ["sample", spec, "--n", "3", "--threads", "0"], ["densities", spec, "--patterns", "edge"],
             ["represent", spec, "--via-cantor", "-o", "-"], ["equiv", "--n", "2", spec, spec],
             *([command, "-h"] for command in ("represent", "sample", "equiv", "densities", "encode"))]

    def outcome(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    ours = [outcome(argv) for argv in argvs]
    monkeypatch.setattr(unirep.cli, "_plain_args", lambda argv: None)
    for argv, got in zip(argvs, ours):
        assert got == outcome(argv), argv
    assert {code for code, _, _ in ours} == {0, 2}


OPTION_WORDS = sorted({string for _, _, options in unirep.cli._COMMANDS.values()
                       for strings, _ in options for string in strings})
ARGV_WORDS = {
    "command": [*unirep.cli._COMMANDS, "bogus", "rep"],
    "spec": ["a.json", "b.json", "-", "", "-5"],
    "option": [*OPTION_WORDS, "-h", "--help", "--lat", "--n=3", "--"],
    "value": ["0", "3", "x", "exact", "mc", "bad", "0.5", "2"],
}


@st.composite
def argv_lines(draw):
    """An argv of ``ARGV_WORDS``: the command word, a spec word per positional, up to three
    of the command's options, in about half the lines every required one too, each with a
    value (a flag with none; half the values from ``3``, ``2``, ``0.5``, which most types
    take), and, in about half the lines, noise: one to three chunks of any words, so
    options repeat, come from other commands or lack values, and specs are extra.  Then
    the chunks are shuffled."""
    command = draw(st.sampled_from(ARGV_WORDS["command"]))
    _, positionals, options = unirep.cli._COMMANDS.get(command, ("", (), ()))
    chunks = [[draw(st.sampled_from(ARGV_WORDS["spec"]))] for _ in positionals]
    chosen = draw(st.sets(st.sampled_from(range(len(options))), max_size=3)) if options else set()
    if draw(st.booleans()):
        chosen |= {i for i, (_, kwargs) in enumerate(options) if kwargs.get("required")}
    for i in chosen:
        strings, kwargs = options[i]
        string = draw(st.sampled_from(strings))
        value = draw(st.sampled_from(("3", "2", "0.5")) | st.sampled_from(ARGV_WORDS["value"]))
        chunks.append([string] if kwargs.get("action") == "store_true" else [string, value])
    noise = st.sampled_from(ARGV_WORDS["option"] + ARGV_WORDS["value"] + ARGV_WORDS["spec"])
    if draw(st.booleans()):
        chunks += draw(st.lists(st.lists(noise, min_size=1, max_size=2), min_size=1, max_size=3))
    return [command] + [word for chunk in draw(st.permutations(chunks)) for word in chunk]


@given(argv_lines())
@settings(max_examples=1000, deadline=None)
@example(["equiv", "a.json", "b.json", "--n", "3", "--mode", "bad"])
@example(["sample", "a.json", "--seed", "2"])
@example(["sample", "a.json", "--n", "3"])
@example(["encode", "a.json", "b.json"])
@example(["represent", "-", "--via-cantor", "-o", ""])
def test_direct_parser_never_disagrees_with_argparse(argv):
    """Wherever ``_plain_args`` reads an argv, argparse reads the same namespace from it
    without an error."""
    plain = unirep.cli._plain_args(argv)
    if plain is not None:
        assert vars(plain) == vars(unirep.cli.build_parser().parse_args(argv)), argv


def test_commands_dispatch_by_name(tmp_path, monkeypatch):
    """Both parsers run the ``cmd_*`` the module holds when ``main`` is called, as a
    tracer's wrapper is."""
    spec = write_spec(tmp_path, DEMO_SPEC)
    calls = []
    monkeypatch.setattr(unirep.cli, "cmd_encode", lambda args: calls.append(args) or 0)
    assert main(["encode", spec]) == 0
    assert main(["encode", spec, "--out=-"]) == 0  # argparse's syntax
    assert [(args.command, args.spec, args.out) for args in calls] == [("encode", spec, "-")] * 2
    assert all(args.func is unirep.cli.cmd_encode for args in calls)


def test_plain_command_line_never_imports_argparse(tmp_path):
    """Plain command lines run without loading argparse (or gettext, which it loads), and
    ``densities`` without fractions or decimal; a rejected value still raises argparse's
    ``ArgumentTypeError`` with its message."""
    spec = write_spec(tmp_path, DEMO_SPEC)
    argvs = [["encode", spec, "--out", str(tmp_path / "c.json")],
             ["densities", spec, "--patterns", "edge,p3,triangle,c4,k4"]]
    code = textwrap.dedent(f"""
        import sys, unirep.cli
        for argv in {argvs!r}:
            assert unirep.cli.main(argv) == 0
        unloaded = {{"argparse", "gettext", "fractions", "decimal"}}
        assert not unloaded & set(sys.modules), sorted(sys.modules)
        import argparse
        for convert, text in ((unirep.cli._positive_int, "0"), (unirep.cli._open_unit_float, "1")):
            try:
                convert(text)
            except argparse.ArgumentTypeError as exc:
                print(exc)
    """)
    src = str(Path(unirep.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().splitlines()[5:] == [  # after the five density lines
        "expected an integer >= 1, got '0'", "expected a number in (0, 1), got '1'"]
