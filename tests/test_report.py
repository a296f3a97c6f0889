import hashlib
import json
from fractions import Fraction

import pytest

from quatcohom import load_corpus
from quatcohom.fileio import document_from_spec, spec_from_document
from quatcohom.report import build_report, to_json, to_table

from support import direct_sum_spec


def test_document_is_json_native_and_deterministic():
    doc1 = build_report(load_corpus("example1"))
    doc2 = build_report(load_corpus("example1"))
    assert to_json(doc1) == to_json(doc2)
    assert json.loads(to_json(doc1)) == doc1


def test_algebra_echo_round_trips():
    spec = load_corpus("example2")
    doc = build_report(spec, {"t": Fraction(1, 3)})
    assert doc["bindings"] == {"t": "1/3"}
    again = spec_from_document(doc["algebra"])
    assert document_from_spec(again) == doc["algebra"]


def test_rows_ordered_by_degree():
    doc = build_report(load_corpus("example3"))
    degrees = [row["p"] for row in doc["cohomology"]["rows"]]
    assert degrees == list(range(7))


def test_verdict_presence_by_dimension():
    doc8 = build_report(load_corpus("torus8"))
    assert doc8["verdicts"]["applicable"] is True
    assert doc8["verdicts"]["hkt"]["answer"] == "yes"
    assert doc8["verdicts"]["hkt"]["certificate"] is not None

    doc12 = build_report(load_corpus("example3"))
    assert doc12["verdicts"]["applicable"] is False
    assert "hkt" not in doc12["verdicts"]


def test_suite_entries_in_document():
    doc = build_report(load_corpus("example1"))
    statuses = {entry["status"] for entry in doc["suite"]}
    assert statuses == {"pass"}
    names = [entry["name"] for entry in doc["suite"]]
    assert len(names) == len(set(names))


def test_table_mode_renders_without_loss():
    doc = build_report(load_corpus("example1"))
    text = to_table(doc)
    assert "structure: example1" in text
    assert "property suite:" in text
    for entry in doc["suite"]:
        assert entry["name"] in text


def _suite_with_counted_hkt(monkeypatch, session, verdict):
    import quatcohom.suite as suite

    calls = []

    def counted(*args):
        calls.append(args)
        return verdict(*args)

    monkeypatch.setattr(suite, "hkt_existence", counted)
    results = suite.run_property_suite(session.cx, session.mc, session.sl)
    return {r.name: r for r in results}, len(calls)


def test_suite_decides_hkt_once(monkeypatch, ex1):
    from quatcohom.suite import hkt_existence

    results, calls = _suite_with_counted_hkt(monkeypatch, ex1, hkt_existence)
    assert calls == 1
    assert results["hkt-three-way"].detail == "answer no (delta2-criterion)"
    assert results["sg-equivalence"].detail == "both no"


def test_suite_shares_an_hkt_failure(monkeypatch, ex1):
    from quatcohom.errors import TheoremViolation

    def broken(*args):
        raise TheoremViolation("middle defect disagrees")

    results, calls = _suite_with_counted_hkt(monkeypatch, ex1, broken)
    assert calls == 1
    for name in ("hkt-three-way", "sg-equivalence"):
        assert results[name].status == "fail"
        assert results[name].detail == "TheoremViolation: middle defect disagrees"


def test_report_decomposes_the_middle_cohomology_once(monkeypatch):
    from quatcohom.report import ReportSession, build_report_from_session
    from quatcohom.slstructure import SLStructure

    calls = {"_decompose_jbar": 0, "_decompose_sd_asd": 0}
    for name in calls:
        def counted(self, _name=name, _body=getattr(SLStructure, name)):
            calls[_name] += 1
            return _body(self)

        monkeypatch.setattr(SLStructure, name, counted)
    session = ReportSession(load_corpus("example1"))
    doc = build_report_from_session(session)
    # the suite and the decomposition section read the same results
    assert calls == {"_decompose_jbar": 1, "_decompose_sd_asd": 1}
    assert doc["decomposition"]["self_dual"]["plus_dim"] == 2


@pytest.mark.parametrize("summands, digest", [
    (("example1", "torus8"), "84d695c22d75411e"),
    (("example1", "example1"), "6f9207d33a50107b"),
    (("example3", "torus8"), "29f2faa4999f09b9"),
    (("example3", "example1"), "7a96eb6dff6472f6"),
], ids=["example1+torus8", "example1+example1", "example3+torus8",
        "example3+example1"])
def test_direct_sum_reports_byte_identical(summands, digest):
    # SHA-256 prefixes of the JSON reports in real dimensions 16 and 20,
    # recorded before the decompositions read operator kernels, the first
    # three with dense matrices: any change here is a change of output
    spec = direct_sum_spec(*(load_corpus(name) for name in summands))
    doc = to_json(build_report(spec))
    assert hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16] == digest
