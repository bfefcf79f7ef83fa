import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import unirep.cli
from unirep import sample_graph
from unirep.cli import main
from unirep.sampling import pair_list
from unirep.specfile import load_spec

from util import edge_lines_oracle

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


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def const_spec(p):
    doc = json.loads(json.dumps(CONST_SPEC))
    doc["kernels"][0]["values"]["o,o"] = p
    return doc


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


# vertex counts around each change in the number of decimal digits; the
# complete graph on 1001 vertices has 500 500 edges, one full block of
# 2^18 and a partial one
EDGE_LIST_NS = (1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001)


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
        monkeypatch.setattr(
            unirep.cli, "sample_graph", lambda kernel, n, seed, threads: SimpleNamespace(edges=edges)
        )
        spec = write_spec(tmp_path, DEMO_SPEC)
        out = tmp_path / "g.txt"
        assert main(["sample", spec, "--n", str(n), "--out", str(out)]) == 0
        assert out.read_bytes() == edge_lines_oracle(edges).encode()

    @pytest.mark.parametrize("block", (1, 7, 45, 64))
    def test_block_size_does_not_change_bytes(self, tmp_path, monkeypatch, block):
        # 45 edges: blocks of 7 leave a partial last block, 45 fills exactly one
        monkeypatch.setattr(unirep.cli, "_EDGE_BLOCK", block)
        spec = write_spec(tmp_path, const_spec(1.0))
        out = tmp_path / "g.txt"
        assert main(["sample", spec, "--n", "10", "--out", str(out)]) == 0
        assert out.read_bytes() == edge_lines_oracle(pair_list(10)).encode()

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
        assert main(["equiv", a, b, "--n", "3"]) == 3
        assert "--mode mc" in capsys.readouterr().err

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

    def test_unknown_pattern_exit_2(self, tmp_path):
        spec = write_spec(tmp_path, const_spec(0.3))
        assert main(["densities", spec, "--patterns", "pentagon"]) == 2

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
        spec = write_spec(tmp_path, DEMO_SPEC)
        argv = ["sample", spec, "--n", "20", "--out", str(tmp_path / "g.txt"), flag, str(tmp_path)]
        code, err = run_cli(argv, capsys)
        assert code == 2
        assert_one_error_line(err)

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
