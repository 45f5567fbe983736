"""Command-line front end.

Presentations are read from a file argument (``-`` or omitted means standard
input) in the ``.arp`` format: one circle per line of ``label+``/``label-``
tokens, ``()`` for an isolated vertex, ``#`` for comment lines.  All graph
output is valid ``.arp`` on standard output; diagnostics go to standard
error.  Exit statuses are the machine contract: 0 success / contained /
verified, 1 not contained / counterexamples found, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from .arrow_core import (
    ArpError,
    canonicalize,
    euler_genus,
    format_arp,
    parse_arp,
    trace_boundaries,
    underlying_graph,
)
from .duality import geometric_dual, partial_dual
from .minor_ops import MinorMove
from .minor_search import MinorFamily, minor_witness
from .predicates import (
    is_bipartite,
    is_checkerboard_colourable,
    is_eulerian,
    is_even_face,
    is_plane,
)
from .verify import CHECKS, LEMMAS, EnumerationSpec, enumerate_presentations, verify_lemma, verify_theorem

__all__ = ["main"]


def _read_presentation(path: str):
    if path == "-":
        return parse_arp(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_arp(fh.read())


def _yn(b: bool) -> str:
    return "yes" if b else "no"


def _cmd_info(args) -> int:
    g = _read_presentation(args.file)
    ug = underlying_graph(g)
    f = len(trace_boundaries(g))
    print(
        f"V={g.n_vertices} E={g.n_edges} F={f} c={len(ug.components())} genus={euler_genus(g)} "
        f"eulerian={_yn(is_eulerian(g))} even-face={_yn(is_even_face(g))} "
        f"cc={_yn(is_checkerboard_colourable(g))} bipartite={_yn(is_bipartite(g))} "
        f"plane={_yn(is_plane(g))}"
    )
    degrees = " ".join(str(g.degree(ci)) for ci in range(g.n_vertices))
    print(f"degrees: {degrees}" if degrees else "degrees:")
    print(f"canonical: {canonicalize(g)}")
    return 0


def _emit(g) -> int:
    sys.stdout.write(format_arp(g))
    return 0


def _cmd_dual(args) -> int:
    return _emit(geometric_dual(_read_presentation(args.file)))


def _cmd_pdual(args) -> int:
    labels = [t for t in args.edges.split(",") if t]
    return _emit(partial_dual(_read_presentation(args.file), labels))


def _cmd_move(args) -> int:
    g = _read_presentation(args.file)
    names = MinorMove.KINDS[args.kind][1]
    return _emit(MinorMove(args.kind, tuple(getattr(args, n) for n in names)).apply(g))


def _cmd_minor(args) -> int:
    g = _read_presentation(args.file)
    h = _read_presentation(args.target)
    family = MinorFamily.parse(args.family)
    witness = minor_witness(g, h, family)
    if witness is None:
        print("not contained", file=sys.stderr)
        return 1
    print(f"contained ({len(witness)} moves)", file=sys.stderr)
    for mv in witness:
        print(mv)
    return 0


def _spec(args) -> EnumerationSpec:
    return EnumerationSpec(args.max_edges, args.max_circles, not args.include_disconnected)


def _cmd_verify(args) -> int:
    spec = _spec(args)
    # theorem ids, then lemma ids, each mapped to the function that checks
    # it; read from the module's names when called, so that a wrapper set
    # on either function is the one run
    verifiers = {**dict.fromkeys(CHECKS, verify_theorem), **dict.fromkeys(LEMMAS, verify_lemma)}
    verify = verifiers.get(args.check_id)
    if verify is None:
        raise ArpError(f"unknown id {args.check_id!r} (known: {', '.join(verifiers)})")
    report = verify(args.check_id, spec)
    text = report.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"report written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


def _cmd_enumerate(args) -> int:
    for g in enumerate_presentations(_spec(args)):
        print(g.to_text())
    return 0


def _add_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", nargs="?", default="-", help="input .arp file, or - for stdin")


def _add_bounds(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-edges", type=int, default=EnumerationSpec.max_edges,
                   help="classes of at most this many edges (default: %(default)s)")
    p.add_argument("--max-circles", type=int, help="classes of at most this many circles (default: max-edges + 1)")
    p.add_argument("--include-disconnected", action="store_true", help="also classes with more than one component")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: every ``_cmd_*``
    looks up library names when it is called, and parsing changes no
    parser state, so one parser serves every call of :func:`main`."""
    parser = argparse.ArgumentParser(
        prog="ribbonminor",
        description="Manipulate ribbon graphs given as arrow presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="summary: V, E, F, c, genus, degrees, class predicates")
    _add_input(p)
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("dual", help="geometric dual")
    _add_input(p)
    p.set_defaults(fn=_cmd_dual)

    p = sub.add_parser("pdual", help="partial dual with respect to an edge set")
    _add_input(p)
    p.add_argument("--edges", required=True, help="comma-separated edge labels")
    p.set_defaults(fn=_cmd_pdual)

    for kind, (_, names, help_) in MinorMove.KINDS.items():
        p = sub.add_parser(kind, help=help_)
        for name in names:
            p.add_argument(name, type=str if name == "edge" else int)
        _add_input(p)
        p.set_defaults(fn=_cmd_move, kind=kind)

    p = sub.add_parser("minor", help="decide minor containment; prints a witness")
    _add_input(p)
    p.add_argument("--family", required=True, help=" | ".join(f.value for f in MinorFamily))
    p.add_argument("--target", required=True, help=".arp file with the target")
    p.set_defaults(fn=_cmd_minor)

    p = sub.add_parser("verify", help="run a built-in check over enumerated classes")
    p.add_argument("check_id", help=f"one of: {', '.join([*CHECKS, *LEMMAS])}")
    _add_bounds(p)
    p.add_argument("--out", help="write the report to a file instead of stdout")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("enumerate", help="list canonical forms of all small presentations")
    _add_bounds(p)
    p.set_defaults(fn=_cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
