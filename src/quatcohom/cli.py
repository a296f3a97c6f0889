"""Command line surface.

Exit codes: 0 success, 1 validation failure, 2 input or parse error,
3 violated theorem or internal cross-check.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .errors import (
    CoefficientParseError,
    EngineError,
    EigenspaceDimensionError,
    IntegrabilityFailure,
    NotBidegree20,
    NotHolomorphic,
    NotReal,
    NotSL2,
    PoleAtBinding,
    QuaternionicRelationFailure,
    SchemaError,
    SearchBoundError,
    UnboundParameter,
    ValidationFailure,
)
from .fileio import load_spec_file, parse_binding_args
from .metrics import hkt_existence
from .model import validate_hypercomplex
from .report import (
    ReportSession,
    build_report_from_session,
    certificate_document,
    certificate_lines,
    decomposition_document,
    decomposition_lines,
    pairing_document,
    suite_document,
    suite_lines,
    to_json,
    to_table,
)
from .suite import run_property_suite, suite_failed

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_THEOREM = 3

_PARSE_ERRORS = (
    SchemaError,
    CoefficientParseError,
    UnboundParameter,
    PoleAtBinding,
    SearchBoundError,
)

_VALIDATION_ERRORS = (
    ValidationFailure,
    QuaternionicRelationFailure,
    IntegrabilityFailure,
    EigenspaceDimensionError,
    NotSL2,
    NotHolomorphic,
    NotReal,
    NotBidegree20,
)


# every character str.splitlines breaks at, written as its escape, so that
# input echoed in a message cannot break the one-line error
_LINE_BREAKS = str.maketrans(
    {c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def _error(message: str) -> None:
    print("error: " + message.translate(_LINE_BREAKS), file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatcohom",
        description="Cohomological invariants of hypercomplex nilpotent "
                    "Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("spec", help="structure file path or bundled name")
        p.add_argument("--param", action="append", default=[],
                       metavar="NAME=P/Q",
                       help="bind a declared parameter to an exact rational")

    p = sub.add_parser("validate", help="run the structural checks")
    common(p)

    p = sub.add_parser("report", help="full cohomology report")
    common(p)
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("hkt", help="decide existence of an hkt metric")
    common(p)
    p.add_argument("--search-denominator-bound", type=int, default=4,
                   metavar="N", help="largest denominator tried (default 4)")
    p.add_argument("--search-coeff-bound", type=int, default=2,
                   metavar="N", help="largest coefficient tried (default 2)")

    p = sub.add_parser("decompose", help="middle cohomology decompositions")
    common(p)

    p = sub.add_parser("pairing", help="duality pairing matrix in degree p")
    common(p)
    p.add_argument("--p", type=int, required=True, metavar="P",
                   help="Bott-Chern degree of the pairing")

    p = sub.add_parser("suite", help="run every invariant check")
    common(p)

    return parser


def _load(args: argparse.Namespace):
    spec = load_spec_file(args.spec)
    bindings = parse_binding_args(args.param, spec)
    return spec, bindings


def _cmd_validate(args: argparse.Namespace) -> int:
    spec, bindings = _load(args)
    report = validate_hypercomplex(spec, bindings)

    def show(label: str, flag: Optional[bool]) -> None:
        state = "ok" if flag else ("FAIL" if flag is False else "skipped")
        print(f"{label}: {state}")

    show("jacobi", report.jacobi_ok)
    step = f" (step {report.nilpotency_step})" if report.nilpotent_ok else ""
    print(f"nilpotent: {'ok' + step if report.nilpotent_ok else 'FAIL'}")
    show("quaternionic relations", report.quaternionic_relations_ok)
    for label in sorted(report.integrability):
        show(f"integrability {label}", report.integrability[label])
    for message in report.messages:
        print("  " + message)
    return EXIT_OK if report.ok else EXIT_INVALID


def _cmd_report(args: argparse.Namespace) -> int:
    spec, bindings = _load(args)
    session = ReportSession(spec, bindings)
    doc = build_report_from_session(session)
    if args.format == "json":
        sys.stdout.write(to_json(doc))
    else:
        sys.stdout.write(to_table(doc))
    return EXIT_OK


def _cmd_hkt(args: argparse.Namespace) -> int:
    spec, bindings = _load(args)
    session = ReportSession(spec, bindings)
    verdict = hkt_existence(
        session.cx, session.mc,
        den_bound=args.search_denominator_bound,
        coeff_bound=args.search_coeff_bound,
    )
    print("HKT: " + ("yes" if verdict.answer else "no"))
    print("method: " + verdict.method)
    if verdict.certificate is not None:
        cert = certificate_document(session, verdict.certificate)
        for line in certificate_lines(cert, indent="  "):
            print(line)
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    spec, bindings = _load(args)
    session = ReportSession(spec, bindings)
    doc = decomposition_document(session, session.sl.decomposition_report())
    for line in decomposition_lines(doc):
        print(line)
    return EXIT_OK


def _cmd_pairing(args: argparse.Namespace) -> int:
    spec, bindings = _load(args)
    session = ReportSession(spec, bindings)
    n2 = 2 * session.cx.n
    if not 0 <= args.p <= n2:
        _error(f"--p {args.p}: expected a degree in 0..{n2}")
        return EXIT_PARSE
    doc = pairing_document(session, session.sl.pairing_matrix(args.p))
    print(f"pairing of H_BC({doc['p']}) with H_AE({n2 - doc['p']}): "
          + ("invertible" if doc["invertible"] else "SINGULAR"))
    for i, row in enumerate(doc["matrix"]):
        print("  [" + ", ".join(row) + "]")
    if doc["bott_chern_classes"]:
        print("Bott-Chern classes: " + "; ".join(doc["bott_chern_classes"]))
    if doc["aeppli_classes"]:
        print("Aeppli classes: " + "; ".join(doc["aeppli_classes"]))
    return EXIT_OK


def _cmd_suite(args: argparse.Namespace) -> int:
    spec, bindings = _load(args)
    session = ReportSession(spec, bindings)
    results = run_property_suite(session.cx, session.mc, session.sl)
    for line in suite_lines(suite_document(results)):
        print(line)
    failures = sum(1 for r in results if r.status == "fail")
    print(f"{len(results)} checks, {failures} failures")
    return EXIT_INVALID if suite_failed(results) else EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "report": _cmd_report,
    "hkt": _cmd_hkt,
    "decompose": _cmd_decompose,
    "pairing": _cmd_pairing,
    "suite": _cmd_suite,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _PARSE_ERRORS as exc:
        _error(str(exc))
        return EXIT_PARSE
    except OSError as exc:
        _error(str(exc))
        return EXIT_PARSE
    except _VALIDATION_ERRORS as exc:
        _error(str(exc))
        return EXIT_INVALID
    except EngineError as exc:
        _error(f"{type(exc).__name__}: {exc}")
        return EXIT_THEOREM


if __name__ == "__main__":
    sys.exit(main())
