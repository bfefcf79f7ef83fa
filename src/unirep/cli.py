"""Command-line frontend.

Subcommands: ``represent``, ``sample``, ``equiv``, ``densities``,
``encode``.  Reports go to stdout; artifacts go to ``--out`` (``-``
writes them to stdout for piping).  Every command is deterministic in
its arguments and input bytes.

Exit codes: 0 success/pass, 1 test failed, 2 spec, argument, I/O or
unsupported-input error, 3 scale error or memory that cannot be allocated.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .equivalence import (
    PATTERNS,
    exact_joint_law,
    hom_density,
    mc_two_sample_test,
    step_family_as_space,
    tv_distance,
)
from .errors import ScaleError, SpecError, UnirepError
from .kernels import Kernel, KernelFamily
from .representation import (
    cantor_encode,
    cantor_represent_family,
    represent_family,
    sigma_atoms,
)
from .sampling import sample_graph
from .specfile import SpecDocument, dump_represented, load_spec

__all__ = ["main"]

EXACT_TV_TOL = 1e-9


def _write(chunks, out: str):
    """Write byte chunks to the file ``out``, or to stdout for ``-``."""
    if out != "-":
        with open(out, "wb") as fh:
            fh.writelines(chunks)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.writelines(chunks)
    else:  # a text-only stand-in, such as io.StringIO under redirect_stdout
        sys.stdout.writelines(bytes(chunk).decode() for chunk in chunks)


_EDGE_BLOCK = 1 << 18


def _edge_lines(edges: np.ndarray, n: int):
    """The ``"i j\n"`` lines of ``edges`` (an (E, 2) array of integers in 1..n)
    as bytes, one chunk per ``_EDGE_BLOCK`` edges: line ends come from a
    cumulative sum, digits are scattered one decimal place at a time."""
    width = len(str(n))
    v = np.arange(n + 1)
    powers = 10 ** np.arange(width)[:, None]
    lengths = 1 + (v >= powers[1:]).sum(axis=0)
    digits = (v // powers % 10 + ord("0")).astype(np.uint8)
    for start in range(0, len(edges), _EDGE_BLOCK):
        i, j = edges[start : start + _EDGE_BLOCK].T
        li, lj = lengths[i], lengths[j]
        ends = np.cumsum(li + lj + 2)
        # every byte not written below is a space; the spare last byte takes
        # the digits that a shorter number does not have
        buf = np.full(ends[-1] + 1, ord(" "), dtype=np.uint8)
        buf[ends - 1] = ord("\n")
        for number, last, length in ((j, ends - 2, lj), (i, ends - 3 - lj, li)):
            buf[last] = digits[0, number]
            for d in range(1, width):
                buf[np.where(length > d, last - d, len(buf) - 1)] = digits[d, number]
        yield buf[:-1].data


def _print_report(report: dict):
    sys.stdout.write(json.dumps(report, indent=2) + "\n")


def _select_kernel(family: KernelFamily, name: str | None) -> Kernel:
    if name is not None:
        return family[name]
    if len(family) == 1:
        return family.kernels[0]
    raise SpecError(
        f"spec defines {len(family)} kernels ({', '.join(family.names)}); "
        "pick one with --kernel"
    )


def _warn_zero_atoms(doc: SpecDocument):
    if doc.space is not None and doc.space.zero_prob_atoms:
        flagged = ", ".join(repr(a) for a in doc.space.zero_prob_atoms)
        print(f"note: zero-probability atoms kept as empty cells: {flagged}", file=sys.stderr)


def cmd_represent(args) -> int:
    doc = load_spec(args.spec)
    space = doc.require("space")
    family = doc.require("family")
    _warn_zero_atoms(doc)
    if args.via_cantor:
        generators = doc.require("generators")
        represented = cantor_represent_family(space, generators, family)
    else:
        represented = represent_family(space, family)
    _write([json.dumps(dump_represented(represented), indent=2).encode() + b"\n"], args.out)
    return 0


def cmd_sample(args) -> int:
    doc = load_spec(args.spec)
    kernel = _select_kernel(doc.require("family"), args.kernel)
    graph = sample_graph(kernel, args.n, args.seed, threads=args.threads)
    _write(_edge_lines(graph.edges, args.n), args.out)
    if args.latents:
        lines = "".join(
            f"{i} {x!r}\n"
            for i, x in enumerate(graph.latents.uniforms.tolist(), start=1)
        )
        _write([lines.encode()], args.latents)
    return 0


def _law_of(doc: SpecDocument, n: int):
    family = doc.require("family")
    if doc.space is not None:
        return exact_joint_law(doc.space, family, n)
    space, tables = step_family_as_space(family)
    return exact_joint_law(space, tables, n)


def _check_compatible(fam_a: KernelFamily, fam_b: KernelFamily):
    sig_a = [(k.name, k.arity, k.value_space) for k in fam_a]
    sig_b = [(k.name, k.arity, k.value_space) for k in fam_b]
    if sig_a != sig_b:
        raise SpecError(
            "families are not comparable: kernel names, arities and value "
            f"spaces must match ({sig_a} vs {sig_b})"
        )


def cmd_equiv(args) -> int:
    doc_a = load_spec(args.spec_a)
    doc_b = load_spec(args.spec_b)
    fam_a = doc_a.require("family")
    fam_b = doc_b.require("family")
    _check_compatible(fam_a, fam_b)
    if args.mode == "exact":
        try:
            law_a = _law_of(doc_a, args.n)
            law_b = _law_of(doc_b, args.n)
        except ScaleError as exc:
            print(f"error: {exc}; retry with --mode mc", file=sys.stderr)
            return 3
        tv = tv_distance(law_a, law_b)
        support_equal = law_a.support.keys() == law_b.support.keys()
        passed = support_equal and tv <= EXACT_TV_TOL
        report = {
            "mode": "exact",
            "n": args.n,
            "tv": tv,
            "support_equal": support_equal,
            "pass": passed,
            "support_size": len(set(law_a.support) | set(law_b.support)),
        }
        _print_report(report)
        return 0 if passed else 1
    kernel_a = _select_kernel(fam_a, args.kernel)
    kernel_b = _select_kernel(fam_b, args.kernel)
    report = mc_two_sample_test(
        kernel_a, kernel_b, args.n, args.runs, args.seed, alpha=args.alpha
    )
    report["n"] = args.n
    _print_report(report)
    return 0 if report["pass"] else 1


def cmd_densities(args) -> int:
    doc = load_spec(args.spec)
    kernel = _select_kernel(doc.require("family"), args.kernel)
    names = [p.strip() for p in args.patterns.split(",") if p.strip()]
    for name in names:
        if name not in PATTERNS:
            raise SpecError(
                f"unknown pattern {name!r}; available: {', '.join(sorted(PATTERNS))}"
            )
    for name in names:
        print(f"{name} {hom_density(kernel, PATTERNS[name]):.12g}")
    return 0


def cmd_encode(args) -> int:
    doc = load_spec(args.spec)
    space = doc.require("space")
    generators = doc.require("generators")
    codes = cantor_encode(space, generators)
    classes = sigma_atoms(space, generators)
    payload = {
        "codes": {str(a): str(codes[a]) for a in space.atom_ids},
        "sigma_atoms": [list(map(str, members)) for members in classes],
    }
    _write([json.dumps(payload, indent=2).encode() + b"\n"], args.out)
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _open_unit_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"expected a number in (0, 1), got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unirep",
        description=(
            "Represent table-kernel families on the unit interval, sample "
            "the induced random graphs and arrays, and compare joint laws."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("represent", help="emit the step-kernel representation of a spec")
    p.add_argument("spec")
    p.add_argument("--out", "-o", default="-")
    p.add_argument(
        "--via-cantor",
        action="store_true",
        help="use the generator-code route (requires a generators block)",
    )
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser("sample", help="sample a random graph and write its edge list")
    p.add_argument("spec")
    p.add_argument("--kernel", default=None)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--threads", type=_positive_int, default=1, help="affects speed only, never output"
    )
    p.add_argument("--out", "-o", default="-")
    p.add_argument("--latents", default=None, help="also write 'i x_i' latent lines here")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("equiv", help="decide whether two specs induce the same joint law")
    p.add_argument("spec_a")
    p.add_argument("spec_b")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    p.add_argument("--runs", type=_positive_int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=_open_unit_float, default=0.01)
    p.add_argument("--kernel", default=None, help="graph kernel to compare in mc mode")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("densities", help="print exact pattern densities of a kernel")
    p.add_argument("spec")
    p.add_argument("--patterns", default="edge,triangle,c4")
    p.add_argument("--kernel", default=None)
    p.set_defaults(func=cmd_densities)

    p = sub.add_parser("encode", help="dump generator codes and sigma-atoms")
    p.add_argument("spec")
    p.add_argument("--out", "-o", default="-")
    p.set_defaults(func=cmd_encode)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScaleError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UnirepError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
