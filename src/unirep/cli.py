"""Command-line frontend.

Subcommands: ``represent``, ``sample``, ``equiv``, ``densities``,
``encode``.  Reports go to stdout; artifacts go to ``--out`` (``-``
writes them to stdout for piping).  Every command is deterministic in
its arguments and input bytes.

One table, ``_COMMANDS``, is the grammar.  A plain command line (the
command word, its positionals and its options, each option once with its
value) is read from it directly; every other one, with help, usage and
every error, goes to the argparse parser built from the same table, so
their text and exit codes are argparse's.

Exit codes: 0 success/pass, 1 test failed, 2 spec, argument, I/O or
unsupported-input error, 3 scale error or memory that cannot be allocated.
"""

from __future__ import annotations

import json
import math
import os
import sys
from types import SimpleNamespace

import numpy as np

from .equivalence import (
    PATTERNS,
    _contraction,
    _exact_comparison,
    hom_density,
    mc_two_sample_test,
    step_family_as_space,
)
from .errors import ScaleError, SpecError, UnirepError
from .kernels import Kernel, KernelFamily
from .representation import (
    cantor_encode,
    cantor_represent_family,
    represent_family,
    sigma_atoms,
)
from .sampling import _block_rows, _graph_blocks
from .specfile import SpecDocument, _cell_records, _decimals, _represented, load_spec

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
        sys.stdout.writelines(chunk.decode() for chunk in chunks)


def _indented(obj, depth: int = 0) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, where every dict that
    holds a container has string keys; an ndarray of shape ``(K,) * m`` is
    the dict ``{"c0,...,c(m-1)": value}`` of its entries (:func:`_table`).
    ``indent`` selects CPython's pure-Python encoder, so each other container
    of scalars goes to the C encoder in one call, with the line break and
    indent in its item separator; only levels holding containers are joined."""
    if isinstance(obj, np.ndarray):
        return _table(obj, depth)
    if not isinstance(obj, (dict, list, tuple)) or not obj:  # a scalar or an empty container
        return json.dumps(obj)
    pad = "\n" + "  " * (depth + 1)
    sep = "," + pad
    values = obj.values() if isinstance(obj, dict) else obj
    if not any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in values):
        body = json.dumps(obj, separators=(sep, ": "))[1:-1]
    elif isinstance(obj, dict):
        body = sep.join(f"{json.dumps(k)}: {_indented(v, depth + 1)}" for k, v in obj.items())
    else:
        body = sep.join(_indented(v, depth + 1) for v in obj)
    ends = "{}" if isinstance(obj, dict) else "[]"
    return ends[0] + pad + body + "\n" + "  " * depth + ends[1]


def _table(values: np.ndarray, depth: int) -> str:
    """The indented JSON object of a value array at ``depth``: :func:`_cell_records` filled with
    the JSON texts of its distinct bit patterns (``-0.0`` apart from ``0.0``), NULs deleted."""
    pad = "\n" + "  " * (depth + 1)
    distinct, inverse = np.unique(values.reshape(-1).view(np.int64), return_inverse=True)
    texts = np.array(json.dumps(distinct.view(values.dtype).tolist())[1:-1].encode().split(b", "))
    width, end = texts.dtype.itemsize, len(pad) + 1
    buf = _cell_records(range(len(values)), values.ndim, '"', '": ' + "\0" * width + "," + pad)
    rows = np.frombuffer(buf, np.uint8).reshape(*values.shape, -1)
    rows[..., -end - width : -end] = texts[inverse].view(np.uint8).reshape(*values.shape, width)
    body = buf.translate(None, b"\0")[:-end].decode()
    return "{" + pad + body + "\n" + "  " * depth + "}"


def _write_json(obj, out: str):
    """Write ``obj`` as indented JSON and a newline to ``out`` (``-``: stdout)."""
    _write([(_indented(obj) + "\n").encode()], out)


def _edge_lines(blocks, n: int):
    """The ``"i j\n"`` lines of ``blocks`` (the ``(r0, counts, j)`` of :func:`_block_rows`,
    vertices in 1..n, drawn as iterated) as bytes, one chunk per block.  Each block fills
    fixed-width records with whole numbers from :func:`_decimals`, each row's i repeated
    and the j gathered; one ``bytes.translate`` deletes the NULs, which a block holds
    unless its first row ``r0 + 1``, and so every vertex in it (j > i), has full width."""
    table = _decimals(n)
    full = 10 ** (table.dtype.itemsize - 1)
    line = np.dtype([("i", table.dtype), ("sp", "u1"), ("j", table.dtype), ("nl", "u1")])
    for r0, counts, j in blocks:
        buf = np.empty(len(j), dtype=line)
        buf["i"], buf["j"] = np.repeat(table[r0 + 1 : r0 + 1 + len(counts)], counts), table[j]
        buf["sp"], buf["nl"] = ord(" "), ord("\n")
        yield buf.tobytes() if r0 + 1 >= full else buf.tobytes().translate(None, b"\0")


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
    _write_json(_represented(represented), args.out)
    return 0


def cmd_sample(args) -> int:
    if args.latents not in (None, "-") and args.out != "-":
        if os.path.realpath(args.out) == os.path.realpath(args.latents):
            raise SpecError(f"--out and --latents name the same file {args.latents!r}")
    doc = load_spec(args.spec)
    kernel = _select_kernel(doc.require("family"), args.kernel)
    draws, blocks = _graph_blocks(kernel, args.n, args.seed, _block_rows)
    if args.latents is not None:  # draws[1]: the uniforms
        lines = "".join(f"{i} {x!r}\n" for i, x in enumerate(draws[1].tolist(), start=1))
        if args.latents != "-":  # before the edges, so an unwritable path opens no --out
            _write([lines.encode()], args.latents)
    _write(_edge_lines(blocks, args.n), args.out)
    if args.latents == "-":
        _write([lines.encode()], "-")
    return 0


def _check_compatible(fam_a: KernelFamily, fam_b: KernelFamily):
    sig_a = [(k.name, k.arity, k.value_space) for k in fam_a]
    sig_b = [(k.name, k.arity, k.value_space) for k in fam_b]
    if sig_a != sig_b:
        raise SpecError(
            "families are not comparable: kernel names, arities and value "
            f"spaces must match ({sig_a} vs {sig_b})"
        )


def cmd_equiv(args) -> int:
    """Compare two specs' joint laws at n: exactly, with ``_exact_comparison`` grouping both
    sides' assignments at once (no law is built), or by ``mc_two_sample_test``."""
    doc_a = load_spec(args.spec_a)
    doc_b = load_spec(args.spec_b)
    fam_a = doc_a.require("family")
    fam_b = doc_b.require("family")
    _check_compatible(fam_a, fam_b)
    if args.kernel is not None or args.mode == "mc":  # exact mode compares every kernel
        kernel_a, kernel_b = (_select_kernel(fam, args.kernel) for fam in (fam_a, fam_b))
    if args.mode == "exact":
        sides = [(doc.space, fam) if doc.space is not None else step_family_as_space(fam)
                 for doc, fam in ((doc_a, fam_a), (doc_b, fam_b))]
        tv, union, size_a, size_b = _exact_comparison(*sides, args.n)
        support_equal = union == size_a == size_b
        passed = support_equal and tv <= EXACT_TV_TOL
        report = {
            "mode": "exact",
            "n": args.n,
            "tv": tv,
            "support_equal": support_equal,
            "pass": passed,
            "support_size": union,
        }
        _write_json(report, "-")
        return 0 if passed else 1
    report = mc_two_sample_test(
        kernel_a, kernel_b, args.n, args.runs, args.seed, alpha=args.alpha
    )
    report["n"] = args.n
    _write_json(report, "-")
    return 0 if report["pass"] else 1


def cmd_densities(args) -> int:
    """Print each pattern's ``hom_density`` to 12 significant digits.  The digits come
    from ``_contraction``'s x when every real within its bound b*x of x, the ends
    rounded outward, prints the same (the rounding is monotone, so the two ends
    decide); else, and for x = 0, from ``hom_density`` itself."""
    doc = load_spec(args.spec)
    kernel = _select_kernel(doc.require("family"), args.kernel)
    names = [p.strip() for p in args.patterns.split(",") if p.strip()]
    unknown = [name for name in names if name not in PATTERNS]
    if unknown or not names:
        what = f"unknown pattern {unknown[0]!r}" if unknown else "no pattern given"
        raise SpecError(f"{what}; available: {', '.join(sorted(PATTERNS))}")
    for name in names:
        x, b = _contraction(kernel, PATTERNS[name])
        lo, hi = x - x * b, x + x * b  # NaN, and so refused, for x = 0 and b = inf
        text = format(math.nextafter(hi, math.inf), ".12g")
        if not (lo > 0.0 and format(math.nextafter(lo, 0.0), ".12g") == text):
            text = format(hom_density(kernel, PATTERNS[name]), ".12g")
        print(f"{name} {text}")
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
    _write_json(payload, args.out)
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        import argparse

        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _open_unit_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not 0.0 < value < 1.0:
        import argparse

        raise argparse.ArgumentTypeError(f"expected a number in (0, 1), got {text!r}")
    return value


def _opt(*strings, **kwargs):
    """One option of the grammar: its option strings and its ``add_argument`` keywords,
    ``dest`` named as argparse names it (the first string without ``--``, ``-`` read as ``_``)."""
    return strings, {"dest": strings[0][2:].replace("-", "_"), **kwargs}


# The CLI grammar: for each command its help line, its positionals and its options.  Plain
# command lines are read from it by `_plain_args`, all others by the parser `build_parser`
# makes of it.  A command runs the function `cmd_<command>` of this module.
_COMMANDS = {
    "represent": ("emit the step-kernel representation of a spec", ("spec",), (
        _opt("--out", "-o", default="-"),
        _opt("--via-cantor", action="store_true", default=False,
             help="use the generator-code route (requires a generators block)"),
    )),
    "sample": ("sample a random graph and write its edge list", ("spec",), (
        _opt("--kernel", default=None),
        _opt("--n", type=_positive_int, required=True),
        _opt("--seed", type=int, default=0),
        _opt("--threads", type=_positive_int, default=1, help="accepted, but changes nothing"),
        _opt("--out", "-o", default="-"),
        _opt("--latents", default=None, help="also write 'i x_i' latent lines here"),
    )),
    "equiv": ("decide whether two specs induce the same joint law", ("spec_a", "spec_b"), (
        _opt("--n", type=_positive_int, required=True),
        _opt("--mode", choices=("exact", "mc"), default="exact"),
        _opt("--runs", type=_positive_int, default=10000),
        _opt("--seed", type=int, default=0),
        _opt("--alpha", type=_open_unit_float, default=0.01),
        _opt("--kernel", default=None, help="mc mode's graph kernel; exact mode compares all"),
    )),
    "densities": ("print exact pattern densities of a kernel", ("spec",), (
        _opt("--patterns", default="edge,triangle,c4"),
        _opt("--kernel", default=None),
    )),
    "encode": ("dump generator codes and sigma-atoms", ("spec",), (
        _opt("--out", "-o", default="-"),
    )),
}


def _dashed(word: str) -> bool:
    """Whether argparse may take ``word`` for an option: it starts with ``-`` and is not ``-``."""
    return word.startswith("-") and word != "-"


def _plain_args(argv: list):
    """The namespace ``build_parser().parse_args(argv)`` returns, read from ``_COMMANDS``
    without argparse, if ``argv`` is plain: the command word, then its positionals and its
    option strings, each option once and followed by its value (a flag by none), every
    value converted by its type and in its choices, no required word missing and no
    positional or value but ``-`` starting with ``-``.  ``None`` for any other argv."""
    if not argv or not all(isinstance(word, str) for word in argv) or argv[0] not in _COMMANDS:
        return None
    _, positionals, options = _COMMANDS[argv[0]]
    by_string = {string: kwargs for strings, kwargs in options for string in strings}
    values = {kwargs["dest"]: kwargs.get("default") for _, kwargs in options}
    given, seen, words = [], set(), iter(argv[1:])
    for word in words:
        kwargs = by_string.get(word)
        if kwargs is None:
            if _dashed(word):
                return None
            given.append(word)
            continue
        dest = kwargs["dest"]
        if dest in seen:
            return None
        seen.add(dest)
        if kwargs.get("action") == "store_true":
            values[dest] = True
            continue
        value = next(words, "--")  # a missing value declines like a dashed one
        if _dashed(value):
            return None
        try:
            value = kwargs.get("type", str)(value)
        except Exception:  # argparse catches three kinds; it calls the type again on decline
            return None
        if value not in kwargs.get("choices", (value,)):
            return None
        values[dest] = value
    missing = any(kwargs.get("required") and kwargs["dest"] not in seen for _, kwargs in options)
    if missing or len(given) != len(positionals):
        return None
    # by name at call time, so that a cmd_* replaced on the module (a tracer's wrapper) runs
    func = globals()["cmd_" + argv[0]]
    return SimpleNamespace(command=argv[0], **dict(zip(positionals, given)), **values, func=func)


def build_parser():
    """The ``unirep`` argparse parser of ``_COMMANDS``.  ``main`` runs it only on the command
    lines ``_plain_args`` declines: help, usage, errors and the rest of argparse's syntax."""
    import argparse  # not imported by a plain command line

    parser = argparse.ArgumentParser(
        prog="unirep",
        description=(
            "Represent table-kernel families on the unit interval, sample "
            "the induced random graphs and arrays, and compare joint laws."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help)
        p.set_defaults(func=globals()["cmd_" + command])
        for dest in positionals:
            p.add_argument(dest)
        for strings, kwargs in options:
            p.add_argument(*strings, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv) or build_parser().parse_args(argv)
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
