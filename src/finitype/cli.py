"""Command-line front end.

Subcommands mirror the library: ``invariant`` evaluates one invariant on
one diagram, ``vtype``/``gtype`` run crossing-switch and detour type
tests, ``resolve``/``encode``/``theorem1`` work with detour families,
``dim-a``/``chords`` expose the chord-diagram side, ``bracelet`` converts
matchings, and ``selftest`` runs the built-in acceptance suite.

Exit codes: 0 success/PASS, 1 test FAIL (witnesses printed), 2 input
error.  Error classes are distinguishable by prefix: ``usage error:``
(bad command line), ``parse error:`` (text that would not parse),
``input error:`` (everything else, e.g. missing rows or guard limits).
All numeric output is exact; ``--json`` switches to structured output
with the same exact values as strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from .bracelets import HopfPairBracelet
from .chord_algebra import MAX_DEGREE, dim_a, enumerate_diagrams
from .diagram import PDError, SingularDiagram, serialize_pd
from .goussarov import (
    FamilyError,
    encode_singular_as_bracelet,
    goussarov_type_check,
    parse_family,
    serialize_family,
    theorem1_identity_check,
)
from .invariants import InvariantError, get_invariant, invariant_names, linking_matrix
from .tables import TableError, load_suite, resolve_diagram_ref
from .vassiliev import vassiliev_type_check

__all__ = ["main", "build_parser"]

DEFAULT_MAX_CROSSINGS = 16


class UsageError(Exception):
    """Command-line combinations the argument grammar cannot express."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        self.exit(2, f"usage error: {message}\n")


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.replace(" ", "").split(",") if t)
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}") from None


def _check_crossings(what: str, n: int, max_crossings: int) -> None:
    if n > max_crossings:
        raise ValueError(
            f"{what} has {n} crossings, over the --max-crossings limit of {max_crossings}"
        )


def _load_pd(ref: str, max_crossings: int):
    d = resolve_diagram_ref(ref)
    _check_crossings("diagram", d.n_crossings, max_crossings)
    return d


def _load_family(path: str, max_crossings: int):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise TableError(f"cannot read {path}: {e.strerror or e}") from e
    fam = parse_family(text)
    _check_crossings("family", len(fam.quads), max_crossings)
    return fam


def _check_degree(n: int, max_degree: int) -> None:
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n > max_degree:
        raise ValueError(f"degree {n} is over the --max-degree limit of {max_degree}")


def _emit(args, lines: list[str], payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _report_payload(report) -> dict:
    return {
        "invariant": report.invariant,
        "n": report.degree,
        "cases": [
            {
                "label": c.label,
                "crossings": list(c.crossings) if c.crossings is not None else None,
                "value": str(c.value),
                "ok": c.ok,
            }
            for c in report.cases
        ],
        "passed": report.passed,
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_invariant(args) -> int:
    d = _load_pd(args.pd, args.max_crossings)
    if args.name == "lk":
        m = linking_matrix(d)
        _emit(args, [str(m)], {"command": "invariant", "name": "lk", "value": m})
        return 0
    inv = get_invariant(args.name)
    val = str(inv(d))
    _emit(args, [val], {"command": "invariant", "name": args.name, "value": val})
    return 0


def _cmd_vtype(args) -> int:
    _check_degree(args.n, args.max_degree)
    inv = get_invariant(args.invariant)
    if args.suite is not None:
        if args.pd is not None or args.crossings is not None:
            raise UsageError("--suite excludes --pd/--crossings")
        cases = load_suite(args.suite)
        for c in cases:
            _check_crossings(f"suite case {c.label}", c.diagram.n_crossings, args.max_crossings)
        corpus = [(c.diagram, c.crossings) for c in cases]
        labels = [c.label for c in cases]
    elif args.pd is not None and args.crossings is not None:
        d = _load_pd(args.pd, args.max_crossings)
        corpus = [(d, _parse_ints(args.crossings, "--crossings"))]
        labels = [args.pd]
    else:
        raise UsageError("need either --suite or both --pd and --crossings")
    report = vassiliev_type_check(inv, args.n, corpus, labels)
    _emit(args, report.lines(), {"command": "vtype", **_report_payload(report)})
    return 0 if report.passed else 1


def _cmd_gtype(args) -> int:
    _check_degree(args.n, args.max_degree)
    inv = get_invariant(args.invariant)
    fam = _load_family(args.family, args.max_crossings)
    report = goussarov_type_check(inv, args.n, [fam], [args.family])
    _emit(args, report.lines(), {"command": "gtype", **_report_payload(report)})
    return 0 if report.passed else 1


def _cmd_resolve(args) -> int:
    fam = _load_family(args.family, args.max_crossings)
    picks = _parse_ints(args.subset, "--subset") if args.subset else ()
    for r in picks:
        if not 1 <= r <= fam.m:
            raise ValueError(f"region {r} out of range 1..{fam.m}")
    pd = serialize_pd(fam.resolve(r - 1 for r in picks))
    _emit(args, [pd], {"command": "resolve", "subset": sorted(picks), "pd": pd})
    return 0


def _cmd_encode(args) -> int:
    d = _load_pd(args.pd, args.max_crossings)
    marked = SingularDiagram(d, _parse_ints(args.singular, "--singular"))
    text = serialize_family(encode_singular_as_bracelet(marked))
    if args.json:
        print(json.dumps({"command": "encode", "family": text}, sort_keys=True))
    else:
        sys.stdout.write(text)
    return 0


def _cmd_theorem1(args) -> int:
    d = _load_pd(args.pd, args.max_crossings)
    marked = SingularDiagram(d, _parse_ints(args.singular, "--singular"))
    res = theorem1_identity_check(marked, get_invariant(args.invariant))
    verdict = "PASS" if res.equal else "FAIL"
    _emit(
        args,
        [f"lhs={res.lhs}", f"rhs={res.rhs}", verdict],
        {
            "command": "theorem1",
            "invariant": args.invariant,
            "lhs": str(res.lhs),
            "rhs": str(res.rhs),
            "equal": res.equal,
        },
    )
    return 0 if res.equal else 1


def _cmd_dim_a(args) -> int:
    _check_degree(args.n, args.max_degree)
    rep = dim_a(args.n, framed=args.framed)
    _emit(
        args,
        [f"dim={rep.dim}"],
        {
            "command": "dim-a",
            "n": rep.n,
            "framed": rep.framed,
            "n_diagrams": rep.n_diagrams,
            "n_relations": rep.n_relations,
            "rank": rep.rank,
            "dim": rep.dim,
        },
    )
    return 0


def _cmd_chords(args) -> int:
    _check_degree(args.n, args.max_degree)
    diagrams = enumerate_diagrams(args.n)
    words = [str(d) for d in diagrams]
    payload = {"command": "chords", "n": args.n, "count": len(diagrams)}
    if args.list:
        payload["words"] = words
        _emit(args, words, payload)
    else:
        _emit(args, [f"count={len(diagrams)}"], payload)
    return 0


def _parse_matching(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.replace(" ", "").split(","):
        if not chunk:
            continue
        left, sep, right = chunk.partition(":")
        if not sep:
            raise ValueError(f"matching entries look like a:b, got {chunk!r}")
        try:
            pairs.append((int(left), int(right)))
        except ValueError:
            raise ValueError(f"matching entries look like a:b, got {chunk!r}") from None
    if not pairs:
        raise ValueError("empty matching")
    return pairs


def _cmd_bracelet(args) -> int:
    if args.emit_link == args.chord:
        raise UsageError("choose exactly one of --emit-link / --chord")
    b = HopfPairBracelet.from_matching(_parse_matching(args.matching))
    payload: dict = {
        "command": "bracelet",
        "matching": [list(p) for p in b.matching],
    }
    if args.emit_link:
        pd = serialize_pd(b.to_link())
        payload["pd"] = pd
        _emit(args, [pd], payload)
    else:
        word = str(b.to_chord_diagram())
        payload["chord"] = word
        _emit(args, [word], payload)
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import CRITERIA, run_selftest

    if not args.json:
        return run_selftest()
    results = [fn() for fn in CRITERIA]
    payload = {
        "command": "selftest",
        "criteria": [
            {
                "number": r.number,
                "title": r.title,
                "passed": r.passed,
                "details": list(r.details),
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    print(json.dumps(payload, sort_keys=True))
    return 0 if payload["passed"] else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(
        prog="finitype",
        description="Exact finite-type invariant computations on knot diagrams.",
    )
    parser.add_argument("--json", action="store_true", help="structured output")
    parser.add_argument(
        "--max-degree",
        type=int,
        default=MAX_DEGREE,
        help=f"largest accepted degree parameter (default {MAX_DEGREE})",
    )
    parser.add_argument(
        "--max-crossings",
        type=int,
        default=DEFAULT_MAX_CROSSINGS,
        help=f"largest accepted diagram size (default {DEFAULT_MAX_CROSSINGS})",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def add(name: str, fn: Callable, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        # accept the global flags after the subcommand too; SUPPRESS keeps
        # them from clobbering values parsed before it
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
        p.add_argument("--max-degree", type=int, default=argparse.SUPPRESS)
        p.add_argument("--max-crossings", type=int, default=argparse.SUPPRESS)
        return p

    p = add("invariant", _cmd_invariant, "evaluate one invariant on one diagram")
    p.add_argument("--name", required=True, choices=[*invariant_names(), "lk"])
    p.add_argument("--pd", required=True, help="PD text, file, or table#row")

    p = add("vtype", _cmd_vtype, "(n+1)-fold crossing-switch difference test")
    p.add_argument("--invariant", required=True)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--pd")
    p.add_argument("--crossings", help="comma-separated 0-based crossing indices")
    p.add_argument("--suite", help="manifest file of ref<TAB>crossings lines")

    p = add("gtype", _cmd_gtype, "(n+1)-region detour difference test")
    p.add_argument("--invariant", required=True)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--family", required=True, help="detour-family file")

    p = add("resolve", _cmd_resolve, "resolve a detour family at one route choice")
    p.add_argument("--family", required=True, help="detour-family file")
    p.add_argument("--subset", default="", help="comma-separated 1-based regions taking the detour")

    p = add("encode", _cmd_encode, "encode marked crossings as a detour family")
    p.add_argument("--pd", required=True)
    p.add_argument("--singular", required=True, help="comma-separated 0-based crossing indices")

    p = add("theorem1", _cmd_theorem1, "resolution sum vs encoded detour sum")
    p.add_argument("--pd", required=True)
    p.add_argument("--singular", required=True)
    p.add_argument("--invariant", required=True)

    p = add("dim-a", _cmd_dim_a, "dimension of degree-n chord diagrams mod 4T (+FI)")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--framed", action="store_true", help="drop the FI relations")

    p = add("chords", _cmd_chords, "enumerate degree-n chord diagrams")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--list", action="store_true", help="print canonical words")

    p = add("bracelet", _cmd_bracelet, "realize or project a Hopf-pair matching")
    p.add_argument("--matching", required=True, help="pairs a:b,c:d,... over 1..n")
    p.add_argument("--emit-link", action="store_true", help="print the PD realization")
    p.add_argument("--chord", action="store_true", help="print the chord-diagram word")

    add("selftest", _cmd_selftest, "run the full built-in acceptance suite")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (PDError, FamilyError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except TableError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except (InvariantError, ValueError, IndexError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
