"""Spans around the public functions of each ``unirep`` layer.

Loaded only by traced runs (``--trace 1``).  :meth:`Tracer.install`
replaces each function in ``TARGETS`` by a timing wrapper in every
``unirep`` module that holds a reference to it, so calls nest as
``cli`` -> ``equivalence`` -> ``sampling`` -> ``spaces`` whichever
module they are made from.  Spans stay in memory and are written, one
JSON array per line, when the process ends.  :func:`layer_metrics`
turns one process's spans into the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import defaultdict

TARGETS = (
    ("unirep.specfile", "load_spec"),
    ("unirep.cli", "cmd_represent"),
    ("unirep.cli", "cmd_sample"),
    ("unirep.cli", "cmd_equiv"),
    ("unirep.cli", "cmd_densities"),
    ("unirep.cli", "cmd_encode"),
    ("unirep.kernels", "value_array"),
    ("unirep.spaces", "interval_partition"),
    ("unirep.spaces", "lookup_cells"),
    ("unirep.representation", "represent_family"),
    ("unirep.representation", "cantor_represent_family"),
    ("unirep.sampling", "sample_graph"),
    ("unirep.sampling", "pair_list"),
    ("unirep.sampling", "unit_uniform_array"),
    ("unirep.sampling", "graph_bitmask"),
    ("unirep.equivalence", "exact_joint_law"),
    ("unirep.equivalence", "step_family_as_space"),
    ("unirep.equivalence", "tv_distance"),
    ("unirep.equivalence", "mc_two_sample_test"),
    ("unirep.equivalence", "hom_density"),
)

# Pairs above which a sample_graph call records its memory growth.
_RSS_MIN_PAIRS = 100_000


def _rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    return 0


def _attrs(name, args, result):
    """Work counts, taken from the call's inputs and returned object."""
    if name == "sampling.sample_graph":
        return {"n": int(args[1]), "edges": int(result.edge_count)}
    if name == "equivalence.exact_joint_law":
        return {"assignments": len(args[0]) ** int(args[2])}
    if name == "equivalence.hom_density":
        return {"terms": len(args[0].domain) ** args[1].num_vertices,
                "pattern_edges": len(args[1].edges)}
    if name == "equivalence.mc_two_sample_test":
        return {"graphs": 2 * int(args[3])}
    return None


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, op, name, start, end, attrs]
        self.stack = [0]
        self.op = "setup"

    def begin_op(self, label: str):
        self.op = label

    def end_op(self):
        self.op = "-"

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans) + 1, stack[-1], self.op, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            big = name == "sampling.sample_graph" and args[1] * (args[1] - 1) // 2 > _RSS_MIN_PAIRS
            rss = _rss_kb() if big else 0
            span[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            span[6] = _attrs(name, args, result)
            if big:
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                span[6].update(rss_before_kb=rss, maxrss_after_kb=peak)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "unirep" or k.startswith("unirep.")]
        for modname, attr in TARGETS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(f"{modname.split('.')[1]}.{attr}", orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
        from unirep.kernels import Kernel

        init = self.wrap("kernels.Kernel", Kernel.__init__)
        Kernel.__init__ = init

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans: list, factor: float) -> dict:
    """Per-layer totals of one process; times are multiplied by the
    process's host-speed ``factor`` (see ``hostspeed.py``)."""
    total = defaultdict(float)
    calls = defaultdict(int)
    child_time = defaultdict(float)
    for sid, parent, op, name, start, end, attrs in spans:
        dt = (end - start) * factor
        total[name] += dt
        calls[name] += 1
        child_time[parent] += dt
    self_time = defaultdict(float)
    pairs = draws = edges = assignments = graphs = terms = 0
    bytes_per_pair, biggest = 0.0, 0
    for sid, parent, op, name, start, end, attrs in spans:
        self_time[name] += (end - start) * factor - child_time[sid]
        if name == "sampling.sample_graph":
            n = attrs["n"]
            pairs += n * (n - 1) // 2
            draws += n + n * (n - 1) // 2
            edges += attrs["edges"]
            if "rss_before_kb" in attrs and n > biggest:
                biggest = n
                grown = attrs["maxrss_after_kb"] - attrs["rss_before_kb"]
                bytes_per_pair = max(grown, 0) * 1024.0 / (n * (n - 1) // 2)
        elif name == "equivalence.exact_joint_law":
            assignments += attrs["assignments"]
        elif name == "equivalence.mc_two_sample_test":
            graphs += attrs["graphs"]
        elif name == "equivalence.hom_density":
            terms += attrs["terms"]

    def rate(count, seconds):
        return count / seconds if seconds > 0.0 else 0.0

    sample_s = total["sampling.sample_graph"]
    return {
        "specfile.load_spec_s": total["specfile.load_spec"],
        "cli.write_s": self_time["cli.cmd_sample"],
        "kernels.Kernel_s": total["kernels.Kernel"],
        "kernels.value_array_s": total["kernels.value_array"],
        "kernels.value_array_calls": calls["kernels.value_array"],
        "spaces.interval_partition_s": total["spaces.interval_partition"],
        "spaces.lookup_cells_s": total["spaces.lookup_cells"],
        "representation.represent_family_s": total["representation.represent_family"],
        "representation.cantor_represent_family_s": total["representation.cantor_represent_family"],
        "sampling.sample_graph_s": sample_s,
        "sampling.sample_graph_calls": calls["sampling.sample_graph"],
        "sampling.pair_list_s": total["sampling.pair_list"],
        "sampling.unit_uniform_array_s": total["sampling.unit_uniform_array"],
        "sampling.graph_bitmask_s": total["sampling.graph_bitmask"],
        "sampling.graph_bitmask_calls": calls["sampling.graph_bitmask"],
        "sampling.draws_per_s": rate(draws, sample_s),
        "sampling.pairs_per_s": rate(pairs, sample_s),
        "sampling.pairs_evaluated": pairs,
        "sampling.edge_yield": edges / pairs if pairs else 0.0,
        "sampling.peak_bytes_per_pair": bytes_per_pair,
        "equivalence.exact_joint_law_s": total["equivalence.exact_joint_law"],
        "equivalence.assignments": assignments,
        "equivalence.assignments_per_s": rate(assignments, total["equivalence.exact_joint_law"]),
        "equivalence.step_family_as_space_s": total["equivalence.step_family_as_space"],
        "equivalence.tv_distance_s": total["equivalence.tv_distance"],
        "equivalence.mc_two_sample_test_s": self_time["equivalence.mc_two_sample_test"],
        "equivalence.mc_graphs_per_s": rate(graphs, total["equivalence.mc_two_sample_test"]),
        "equivalence.hom_density_s": total["equivalence.hom_density"],
        "equivalence.hom_terms_per_s": rate(terms, total["equivalence.hom_density"]),
    }


def import_times(importtime_log: str) -> tuple:
    """Seconds to import ``unirep``, and the part of it spent importing
    ``scipy`` modules, from a ``python -X importtime`` log."""
    rows = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(cumulative) * 1e-6))
    unirep_s = sum(c for d, name, c in rows if d == 0 and name.split(".")[0] == "unirep")
    # The log is post-order: walk it backwards to see parents first.
    scipy_s, ancestors = 0.0, []
    for depth, name, cumulative in reversed(rows):
        del ancestors[depth:]
        if name.split(".")[0] == "scipy" and not any(a.split(".")[0] == "scipy" for a in ancestors):
            scipy_s += cumulative
        ancestors.append(name)
    return unirep_s, scipy_s
