"""Command-line front door.

Subcommands: generate | build | extract | match | purify | factorable | demo | check.
Exit codes are a stable contract: 0 success, 2 input error, 3 not
extractable, 4 hypothesis violation, 5 operator mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from . import decomp, fileio
from .errors import (
    FileError,
    HypothesisViolation,
    NotExtractable,
    OperatorMismatch,
    ProddecompError,
)
from .fileio import _ket_json, dumps_canonical
from .purification import purify
from .subspace import ToleranceConfig
from .tensor import FactoredDims, Ket, StateOperator, build_rho

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_EXTRACTABLE = 3
EXIT_HYPOTHESIS = 4
EXIT_OPERATOR_MISMATCH = 5

#: Exit codes of the errors that are not input errors; every other error exits EXIT_INPUT.
_EXIT_CODES = (
    (NotExtractable, EXIT_NOT_EXTRACTABLE),
    (HypothesisViolation, EXIT_HYPOTHESIS),
    (OperatorMismatch, EXIT_OPERATOR_MISMATCH),
)


def _tol(args: argparse.Namespace) -> ToleranceConfig:
    t = float(args.tol)
    return ToleranceConfig(eps_col=t, eps_rank=t, eps_eq=t)


def _fmt(v: float) -> str:
    return "0" if abs(v) < 1e-12 else format(v, ".8g")


def _emit(args: argparse.Namespace, payload: dict, human_lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(dumps_canonical(payload))
    else:
        for line in human_lines:
            print(line)


def _match_lines(result: decomp.MatchResult) -> list[str]:
    lines = [
        f"match: n={result.n} residual={result.residual:.3e}",
        f"permutation: {list(result.permutation)}",
        "term  pair        |ov_a|        |ov_b|        |ov_c|        w_first       w_second",
    ]
    for k, c in enumerate(result.per_term):
        ovc = "-" if c.overlap_c is None else f"{abs(c.overlap_c):.10f}"
        lines.append(
            f"{k:>4}  ({result.permutation[k]},{k})  {abs(c.overlap_a):.10f}  "
            f"{abs(c.overlap_b):.10f}  {ovc:>12}  {c.weight_first:.10g}  {c.weight_second:.10g}"
        )
    return lines


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args: argparse.Namespace) -> int:
    if args.twin_of is not None:
        loaded = fileio.load_decomposition(args.twin_of)
        source = loaded.product() if len(loaded.dims) == 2 else loaded.tri()
        twin, perm = decomp.phase_permuted_twin(source, seed=args.seed)
        fileio.save_decomposition(args.out, twin)
        _emit(
            args,
            {"out": args.out, "permutation": list(perm)},
            [f"wrote twin to {args.out}", f"applied permutation: {list(perm)}"],
        )
        return EXIT_OK

    dims = args.dims
    bipartite = len(dims) == 2
    profile = args.profile
    if profile is None:
        profile = "both-independent" if bipartite else "all-independent"
    generate = decomp.generate_instance if bipartite else decomp.generate_tri_instance
    dec = generate(args.n, *dims, seed=args.seed, profile=profile)
    fileio.save_decomposition(args.out, dec)
    _emit(
        args,
        {"out": args.out, "n": dec.n, "dims": list(dims), "profile": profile},
        [f"wrote {dec.n}-term decomposition on dims {list(dims)} to {args.out}"],
    )
    return EXIT_OK


def cmd_build(args: argparse.Namespace) -> int:
    loaded = fileio.load_decomposition(args.infile)
    if loaded.form == "weight":
        dec = loaded.product()
        if args.normalize:
            dec = dec.normalized()
        op = build_rho(dec)
    else:
        vec, norm = loaded.vector()
        op = StateOperator.from_columns(loaded.dims, (vec / norm)[:, None], np.ones(1))
    fileio.save_operator(args.out, op)
    # the trace of the matrix written, not of the stored factor: the two can
    # differ in the last ulp, and the file is what the report describes
    trace = float(np.trace(op.matrix).real)
    _emit(
        args,
        {"out": args.out, "dims": list(op.dims.dims), "trace": trace},
        [f"wrote operator (trace {trace:.10g}) to {args.out}"],
    )
    return EXIT_OK


def cmd_extract(args: argparse.Namespace) -> int:
    op = fileio.load_operator(args.infile)
    report = decomp.extract_decomposition(op, _tol(args), seed=args.seed)
    fileio.save_decomposition(args.out, report.decomposition)
    _emit(
        args,
        {
            "out": args.out,
            "n": report.decomposition.n,
            "reconstruction_error": report.reconstruction_error,
            "probes_used": report.probes_used,
            "side": report.side,
        },
        [
            f"extracted {report.decomposition.n} terms to {args.out}",
            f"reconstruction_error: {report.reconstruction_error:.3e}",
            f"probes_used: {report.probes_used}",
            f"independent side: factor {report.side}",
        ],
    )
    return EXIT_OK


def _load_tri_operand(own: fileio.LoadedDecomposition, other: fileio.LoadedDecomposition, tol):
    if len(own.dims) == 3:
        return own.tri()
    # two-factor coefficient expansion: recast by factoring the first slot
    # across the other file's leading factor pair
    if own.form != "coeff":
        raise FileError("tri mode needs coefficient-form terms in a 2-factor file")
    if len(other.dims) != 3:
        raise FileError("tri mode needs at least one 3-factor file")
    split = FactoredDims((other.dims[0], other.dims[1]))
    if split.total != own.dims[0] or other.dims[2] != own.dims[1]:
        raise FileError(
            f"cannot recast dims {own.dims.dims} against {other.dims.dims}: factor sizes disagree"
        )
    pair_kets = [ks[0] for ks in own.kets]
    third_kets = [ks[1] for ks in own.kets]
    return decomp.split_pair_terms(own.values, pair_kets, third_kets, split, tol)


def cmd_match(args: argparse.Namespace) -> int:
    tol = _tol(args)
    first = fileio.load_decomposition(args.infile1)
    second = fileio.load_decomposition(args.infile2)
    if args.mode == "bi":
        result = decomp.match_bidecomposition(first.product(), second.product(), tol)
    else:
        t1 = _load_tri_operand(first, second, tol)
        t2 = _load_tri_operand(second, first, tol)
        result = decomp.match_tridecomposition(t1, t2, tol)
    _emit(args, dataclasses.asdict(result), _match_lines(result))
    return EXIT_OK


def cmd_purify(args: argparse.Namespace) -> int:
    dec = fileio.load_decomposition(args.infile).product()
    dim3 = args.dim3 if args.dim3 is not None else dec.n
    tri = purify(dec, dim3)
    fileio.save_decomposition(args.out, tri)
    _emit(
        args,
        {"out": args.out, "dims": list(tri.dims.dims), "n": tri.n},
        [f"wrote purified {tri.n}-term tridecomposition on dims {list(tri.dims.dims)} to {args.out}"],
    )
    return EXIT_OK


def cmd_factorable(args: argparse.Namespace) -> int:
    loaded = fileio.load_decomposition(args.infile)
    if len(loaded.dims) != 2:
        raise FileError("factorable needs a 2-factor coefficient file")
    vec, norm = loaded.vector()
    ket = Ket(vec / norm)
    tol = _tol(args)
    verdict, factors = decomp.is_factorable(ket, loaded.dims, tol)
    schmidt = decomp.schmidt_values(ket, loaded.dims)
    payload: dict = {
        "factorable": verdict,
        "schmidt_values": [float(v) for v in schmidt],
    }
    lines = [
        f"factorable: {'yes' if verdict else 'no'}",
        "schmidt values: " + " ".join(_fmt(float(v)) for v in schmidt),
    ]
    if factors is not None:
        payload["factors"] = [_ket_json(f.amplitudes) for f in factors]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_demo(args: argparse.Namespace) -> int:
    report = decomp.demo_degeneracy()
    lines = [
        "degenerate-eigenbasis demonstration",
        "eigenvalues: " + " ".join(_fmt(v) for v in report.eigenvalues),
        "q-form operator residual: " + _fmt(report.qform_residual),
        "q1 schmidt values: " + " ".join(_fmt(v) for v in report.q1_schmidt),
        "q2 schmidt values: " + " ".join(_fmt(v) for v in report.q2_schmidt),
        f"q1 factorable: {'yes' if report.q1_factorable else 'no'}",
        f"q2 factorable: {'yes' if report.q2_factorable else 'no'}",
        "tripartite q-form residual: " + _fmt(report.tri_qform_residual),
    ]
    lines += [f"note: {n}" for n in report.notes]
    _emit(args, dataclasses.asdict(report), lines)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    kind = fileio.detect_kind(args.infile)
    tol = _tol(args)
    if kind == "operator":
        op = fileio.load_operator(args.infile)
        _emit(
            args,
            {"kind": "operator", "dims": list(op.dims.dims), "trace": op.trace, "ok": True},
            [f"operator file ok: dims {list(op.dims.dims)}, trace {op.trace:.10g}"],
        )
        return EXIT_OK
    loaded = fileio.load_decomposition(args.infile)
    detail: dict = {"kind": "decomposition", "dims": list(loaded.dims.dims), "n": loaded.n, "form": loaded.form}
    if loaded.form == "weight" and len(loaded.dims) == 2:
        a_ind, b_ind = decomp.check_product_hypotheses(loaded.product(), tol, label=args.infile)
        detail.update({"a_independent": a_ind, "b_independent": b_ind, "ok": True})
        lines = [
            f"decomposition file ok: {loaded.n} terms on dims {list(loaded.dims.dims)}",
            f"a-set independent: {'yes' if a_ind else 'no'}",
            f"b-set independent: {'yes' if b_ind else 'no'}",
        ]
    elif loaded.form == "coeff" and len(loaded.dims) == 3:
        flags = decomp.check_tri_hypotheses(loaded.tri(), tol, label=args.infile)
        detail.update({"independent_slots": [s for s, f in zip("abc", flags) if f], "ok": True})
        lines = [
            f"tridecomposition file ok: {loaded.n} terms on dims {list(loaded.dims.dims)}",
            "independent slots: " + " ".join(s for s, f in zip("abc", flags) if f),
        ]
    else:
        detail["ok"] = True
        lines = [
            f"decomposition file ok (structural checks only): {loaded.n} terms, "
            f"{loaded.form} form on dims {list(loaded.dims.dims)}"
        ]
    _emit(args, detail, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"dims must be comma-separated integers, got {text!r}") from exc
    if len(dims) not in (2, 3):
        raise argparse.ArgumentTypeError(f"expected 2 or 3 dims, got {len(dims)}")
    return dims


def _add_common(p: argparse.ArgumentParser, *, seed: bool = False) -> None:
    p.add_argument("--tol", type=float, default=1e-8, help="numerical tolerance (default 1e-8)")
    p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    if seed:
        p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")


@functools.cache  # built once per process; parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proddecomp",
        description="Construct, extract, and certify unique product decompositions of state operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a random hypothesis-satisfying decomposition file")
    p.add_argument("--n", type=int, default=2, help="term count")
    p.add_argument("--dims", type=_dims, default=(2, 2), help="factor dims, e.g. 2,2 or 2,2,3")
    p.add_argument(
        "--profile",
        default=None,
        choices=sorted(set(decomp.BI_PROFILES) | set(decomp.TRI_PROFILES)),
        help="independence profile (bi: both-independent/a-independent-only/b-independent-only; "
        "tri: all-independent/<slot>-dependent; default matches the dims count)",
    )
    p.add_argument(
        "--twin-of",
        default=None,
        metavar="PATH",
        help="instead of a fresh instance, write a permuted/phased twin of an existing file "
        "(equivalent decomposition; prints the applied permutation)",
    )
    p.add_argument("--out", required=True, help="output path")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("build", help="decomposition file -> operator file")
    p.add_argument("infile")
    p.add_argument("--normalize", action="store_true", help="rescale weights to sum 1 first")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("extract", help="operator file -> decomposition file (blind extraction)")
    p.add_argument("infile")
    p.add_argument("--out", required=True)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("match", help="certify equivalence of two decomposition files")
    p.add_argument("infile1")
    p.add_argument("infile2")
    p.add_argument("--mode", required=True, choices=("bi", "tri"))
    _add_common(p)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("purify", help="lift a weighted decomposition to a tripartite vector file")
    p.add_argument("infile")
    p.add_argument("--dim3", type=int, default=None, help="auxiliary dimension (default: term count)")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_purify)

    p = sub.add_parser("factorable", help="test a 2-factor coefficient file for product form")
    p.add_argument("infile")
    _add_common(p)
    p.set_defaults(func=cmd_factorable)

    p = sub.add_parser("demo", help="run the degenerate-eigenbasis demonstration")
    _add_common(p)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("check", help="audit a file against its invariants")
    p.add_argument("infile")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors via exit code 2
        return int(exc.code or 0)
    try:
        return args.func(args)
    # ValueError too: a negative --seed reaches np.random.default_rng as one
    except (ProddecompError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for cls, code in _EXIT_CODES if isinstance(exc, cls)), EXIT_INPUT)


def entry() -> None:
    sys.exit(main())
