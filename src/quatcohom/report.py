"""Full structured report and its plain-text table rendering.

`ReportSession` owns everything computed for one structure: the operator
complex, its matrix reduction, the volume-form layer and each existence
verdict, each built once.  The structured document is the single source
of truth: the table mode is a pure rendering of the same dict, so the two
output modes cannot drift apart.  Every leaf is a JSON-native value; exact
scalars are rendered as strings through their canonical str() form.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .cohomology import (
    CohomologyTable,
    MatrixComplex,
    ddj_lemma_holds,
    frolicher_degenerate,
    non_hkt_degrees,
)
from .fileio import document_from_spec
from .linalg import Mat
from .memo import memo
from .metrics import ExistenceVerdict, MetricCandidate, hkt_existence, sg_existence
from .model import AlgebraSpec, ValidationReport
from .quaternionic import QuaternionicComplex
from .scalars import RationalLike
from .slstructure import DecompositionReport, PairingResult, SLStructure
from .suite import CheckResult, run_property_suite


class ReportSession:
    """Everything computed once for one instantiated structure.

    The one owner of the operator complex, its matrix reduction, the
    volume form layer and the existence verdicts: the report, the property
    suite and the CLI subcommands share these objects instead of
    rebuilding them per question.  The volume form layer is built on first
    use, so `quatcohom hkt` builds none.
    """

    def __init__(self, spec: AlgebraSpec,
                 bindings: Optional[Mapping[str, RationalLike]] = None):
        self.spec = spec
        self.bindings: Dict[str, Fraction] = {
            name: Fraction(value) for name, value in (bindings or {}).items()
        }
        self.cx = QuaternionicComplex.build(spec, bindings)
        self.mc = MatrixComplex.from_quaternionic(self.cx)

    @cached_property
    def sl(self) -> SLStructure:
        return SLStructure(self.cx, self.mc)

    @memo
    def verdict(self, question: str) -> ExistenceVerdict:
        """The verdict on "hkt" or "strongly-gauduchon", decided once; an
        engine error of the decision is kept and raised again too."""
        decide = {"hkt": hkt_existence, "strongly-gauduchon": sg_existence}
        return decide[question](self.cx, self.mc)


# ---------------------------------------------------------------------------
# Document assembly.  Keys are stable; json.dumps sorts them on output.
# ---------------------------------------------------------------------------


def _validation_document(report: Optional[ValidationReport]) -> dict:
    if report is None:
        return {"checked": False}
    return {
        "checked": True,
        "jacobi": report.jacobi_ok,
        "nilpotent": report.nilpotent_ok,
        "nilpotency_step": report.nilpotency_step,
        "quaternionic_relations": report.quaternionic_relations_ok,
        "integrability": dict(report.integrability),
        "messages": list(report.messages),
    }


# The cohomology columns, in table order: the JSON key of each row, the
# `CohomologyTable` field it is read from and its header in the text grid.
_COLUMNS = (
    ("h_del", "h_del", "h_del"),
    ("h_del_j", "h_delj", "h_del_J"),
    ("h_bc", "h_bc", "h_BC"),
    ("h_ae", "h_ae", "h_AE"),
    *((name, name, name) for name in "abcdef"),
    ("dim_e1", "dim_e1", "E1"),
    ("dim_e2", "dim_e2", "E2"),
    ("delta", "delta", "Delta"),
)

# The certificate flags, in the order the text mode prints them.
_FLAGS = ("hermitian", "hkt", "gauduchon", "strongly_gauduchon", "hyperkahler")


def _cohomology_document(table: CohomologyTable) -> dict:
    rows = [{"p": p, **{key: getattr(table, field)[p] for key, field, _ in _COLUMNS}}
            for p in table.degrees]
    return {
        "top_degree": table.top_degree,
        "rows": rows,
        "degenerate_at_first_page": frolicher_degenerate(table),
        "ddj_lemma": ddj_lemma_holds(table),
        "defect_degrees": list(non_hkt_degrees(table)),
    }


def _matrix_document(matrix: Mat) -> List[List[str]]:
    return [[str(entry) for entry in row] for row in matrix.data]


def _forms_document(cx: QuaternionicComplex, forms: Mat, p: int) -> List[str]:
    """Each row of `forms`, a (p,0)-form, printed."""
    return [cx.render_coords(forms.block([i], range(forms.ncols)), p)
            for i in range(forms.nrows)]


def certificate_document(session: ReportSession,
                         cand: MetricCandidate) -> dict:
    return {
        "omega": session.cx.render_coords(cand.omega, 2),
        "gram": _matrix_document(cand.gram),
        "leading_minors": [str(m) for m in cand.minors],
        "is_real": cand.is_real,
        "positive": cand.positive,
        **{name: getattr(cand, name) for name in _FLAGS},
    }


def verdict_document(session: ReportSession, verdict: ExistenceVerdict) -> dict:
    doc = {
        "question": verdict.question,
        "answer": "yes" if verdict.answer else "no",
        "method": verdict.method,
        "certificate": None,
    }
    if verdict.certificate is not None:
        doc["certificate"] = certificate_document(session, verdict.certificate)
    return doc


def decomposition_document(session: ReportSession,
                           rep: DecompositionReport) -> dict:
    return {
        "self_dual": None if rep.phi_plus_dim is None else {
            "plus_dim": rep.phi_plus_dim,
            "minus_dim": rep.phi_minus_dim,
            "direct_sum": rep.phi_direct,
        },
        "jbar_plus_real_dim": rep.jbar_plus_real_dim,
        "jbar_minus_real_dim": rep.jbar_minus_real_dim,
        "jbar_plus_dim": str(rep.jbar_plus_dim),
        "jbar_minus_dim": str(rep.jbar_minus_dim),
        "intersection_dim": rep.intersection_dim,
        "sum_dim": rep.sum_dim,
        "complement_dim": rep.complement_dim,
        "pure": rep.pure,
        "full": rep.full,
        "representatives_plus": _forms_document(session.cx, rep.representatives_plus, 2),
        "representatives_minus": _forms_document(session.cx, rep.representatives_minus, 2),
    }


def pairing_document(session: ReportSession, result: PairingResult) -> dict:
    return {
        "p": result.p,
        "invertible": result.invertible,
        "matrix": _matrix_document(result.matrix),
        "bott_chern_classes": _forms_document(session.cx, result.bc_basis, result.p),
        "aeppli_classes": _forms_document(session.cx, result.ae_basis,
                                          2 * session.cx.n - result.p),
    }


def suite_document(results: Sequence[CheckResult]) -> List[dict]:
    return [asdict(r) for r in results]


def build_report(spec: AlgebraSpec,
                 bindings: Optional[Mapping[str, RationalLike]] = None) -> dict:
    """Compute the complete report document for one structure instance."""
    return build_report_from_session(ReportSession(spec, bindings))


def build_report_from_session(session: ReportSession) -> dict:
    cx = session.cx
    table = session.mc.table()

    if cx.n == 2:
        verdicts = {
            "applicable": True,
            "hkt": verdict_document(session, session.verdict("hkt")),
            "strongly_gauduchon": verdict_document(
                session, session.verdict("strongly-gauduchon")),
        }
    else:
        verdicts = {
            "applicable": False,
            "reason": f"existence questions are decided only for "
                      f"quaternionic dimension 2, not {cx.n}",
        }

    suite = run_property_suite(session)

    return {
        "algebra": document_from_spec(session.spec),
        "bindings": {k: str(v) for k, v in sorted(session.bindings.items())},
        "dimension": cx.dimension,
        "quaternionic_dimension": cx.n,
        "validation": _validation_document(cx.report),
        "cohomology": _cohomology_document(table),
        "decomposition": decomposition_document(
            session, session.sl.decomposition_report()),
        "verdicts": verdicts,
        "suite": suite_document(suite),
    }


def to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Table rendering.
# ---------------------------------------------------------------------------


def _grid(rows: Sequence[dict], columns: Sequence[Tuple[str, str, str]]) -> List[str]:
    """The given `_COLUMNS` over the given cohomology rows: a left column of
    degree labels, right-aligned value columns, pipe separators."""
    table = [["(p,0)"] + [header for _, _, header in columns]]
    table += [[f"({r['p']},0)"] + [str(r[key]) for key, _, _ in columns]
              for r in rows]
    widths = [max(len(row[j]) for row in table) for j in range(len(table[0]))]
    lines = []
    for idx, row in enumerate(table):
        cells = [row[0].ljust(widths[0])]
        cells += [row[j].rjust(widths[j]) for j in range(1, len(row))]
        lines.append(" | ".join(cells).rstrip())
        if idx == 0:
            lines.append("-+-".join("-" * w for w in widths))
    return lines


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def certificate_lines(cert: dict, indent: str = "  ") -> List[str]:
    lines = [
        indent + "Omega = " + cert["omega"],
        indent + "leading principal minors: "
        + ", ".join(cert["leading_minors"]),
    ]
    lines.append(indent + "flags: " + ", ".join(
        f"{name}={_yesno(cert[name])}" for name in _FLAGS))
    return lines


def verdict_lines(doc: dict) -> List[str]:
    verdicts = doc["verdicts"]
    if not verdicts["applicable"]:
        return ["existence questions: not applicable ("
                + verdicts["reason"] + ")"]
    lines = []
    for key, label in (("hkt", "HKT"),
                       ("strongly_gauduchon", "strongly Gauduchon")):
        v = verdicts[key]
        lines.append(f"{label}: {v['answer']} (method: {v['method']})")
        if v["certificate"] is not None:
            lines.extend(certificate_lines(v["certificate"]))
    return lines


def decomposition_lines(dec: dict) -> List[str]:
    lines = [
        f"pure: {_yesno(dec['pure'])} "
        f"(intersection dim {dec['intersection_dim']})",
        f"full: {_yesno(dec['full'])} "
        f"(complement dim {dec['complement_dim']})",
        f"dim H^(Jbar,+) = {dec['jbar_plus_dim']}, "
        f"dim H^(Jbar,-) = {dec['jbar_minus_dim']} "
        f"(real dims {dec['jbar_plus_real_dim']}, "
        f"{dec['jbar_minus_real_dim']})",
    ]
    if dec["self_dual"] is not None:
        sd = dec["self_dual"]
        lines.append(
            f"self-dual split: {sd['plus_dim']} + {sd['minus_dim']}, "
            f"direct sum: {_yesno(sd['direct_sum'])}"
        )
    if dec["representatives_plus"]:
        lines.append("plus classes: "
                     + "; ".join(dec["representatives_plus"]))
    if dec["representatives_minus"]:
        lines.append("minus classes: "
                     + "; ".join(dec["representatives_minus"]))
    return lines


def suite_lines(entries: Sequence[dict]) -> List[str]:
    tags = {"pass": "PASS", "fail": "FAIL", "n/a": "N/A "}
    lines = []
    for entry in entries:
        line = f"{tags[entry['status']]} {entry['name']}: {entry['statement']}"
        if entry["detail"]:
            line += f" [{entry['detail']}]"
        lines.append(line)
    return lines


def to_table(doc: dict) -> str:
    """Render the document the way the source tables are laid out.

    The two headline tables list the interior degrees only; the full grid
    below them carries every degree and every computed column, so the text
    mode exposes exactly the numbers of the structured mode.
    """
    name = doc["algebra"].get("name") or "<unnamed>"
    out: List[str] = []
    out.append(f"structure: {name}  (dimension {doc['dimension']}, "
               f"quaternionic dimension {doc['quaternionic_dimension']})")
    if doc["bindings"]:
        out.append("bindings: " + ", ".join(
            f"{k} = {v}" for k, v in sorted(doc["bindings"].items())))
    coh = doc["cohomology"]
    interior = coh["rows"][1:coh["top_degree"]]
    out.append("")
    out.extend(_grid(interior, _COLUMNS[:4]))
    out.append("")
    out.extend(_grid(interior, _COLUMNS[4:10]))
    out.append("")
    out.append("all degrees:")
    out.extend(_grid(coh["rows"], _COLUMNS))
    out.append("")
    out.append("degenerates at first page: "
               + _yesno(coh["degenerate_at_first_page"]))
    out.append("del del_J lemma: " + _yesno(coh["ddj_lemma"]))
    out.append("")
    out.extend(verdict_lines(doc))
    out.append("")
    out.append("middle cohomology decomposition:")
    out.extend("  " + line for line in decomposition_lines(doc["decomposition"]))
    out.append("")
    out.append("property suite:")
    out.extend("  " + line for line in suite_lines(doc["suite"]))
    return "\n".join(out) + "\n"
