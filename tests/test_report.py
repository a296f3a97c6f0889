import hashlib
import json
from fractions import Fraction

import pytest

from quatcohom import ReportSession, load_corpus
from quatcohom.fileio import document_from_spec, spec_from_document
from quatcohom.linalg import Mat, SignedPermutation
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


def test_signed_permutations_enter_no_matrix_product(monkeypatch):
    # J, conj, Jbar, the wedge matrix and the star act by relabelling: no
    # product formed while a report is built has as an operand the matrix
    # form of one of them, which only `SignedPermutation.mat` builds.  The
    # operands are told by identity, not by value: conj is the identity
    # matrix on these bases, and where a degree's classes span all of it
    # the representatives are an identity too, so bc W equals W.
    # Example3's own I and J tables are signed permutations of another
    # kind, and the relation checks multiply them.
    operands, forms = [], []
    product, mat_form = Mat.__matmul__, SignedPermutation.mat

    def recording(left, right):
        operands.extend((left, right))
        return product(left, right)

    def built(perm):
        forms.append(mat_form(perm))
        return forms[-1]

    monkeypatch.setattr(Mat, "__matmul__", recording)
    monkeypatch.setattr(SignedPermutation, "mat", built)
    build_report(load_corpus("example3"))
    assert len(operands) > 100 and forms
    formed = {id(m) for m in forms}
    assert [(m.nrows, m.ncols) for m in operands if id(m) in formed] == []


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


def _suite_with_counted_hkt(monkeypatch, spec, verdict):
    # a fresh session, so that its verdicts are decided inside the suite
    import quatcohom.report as report
    from quatcohom.suite import run_property_suite

    calls = []

    def counted(*args):
        calls.append(args)
        return verdict(*args)

    monkeypatch.setattr(report, "hkt_existence", counted)
    results = run_property_suite(ReportSession(spec))
    return {r.name: r for r in results}, len(calls)


def test_suite_decides_hkt_once(monkeypatch, ex1):
    from quatcohom.metrics import hkt_existence

    results, calls = _suite_with_counted_hkt(monkeypatch, ex1.spec, hkt_existence)
    assert calls == 1
    assert results["hkt-three-way"].detail == "answer no (delta2-criterion)"
    assert results["sg-equivalence"].detail == "both no"


def test_suite_shares_an_hkt_failure(monkeypatch, ex1):
    from quatcohom.errors import TheoremViolation

    def broken(*args):
        raise TheoremViolation("middle defect disagrees")

    results, calls = _suite_with_counted_hkt(monkeypatch, ex1.spec, broken)
    assert calls == 1
    for name in ("hkt-three-way", "sg-equivalence"):
        assert results[name].status == "fail"
        assert results[name].detail == "TheoremViolation: middle defect disagrees"


@pytest.mark.parametrize("name, bindings", [
    ("example1", None), ("example2", {"t": Fraction(1, 2)})])
def test_report_builds_each_structure_and_decides_each_question_once(
        monkeypatch, name, bindings):
    import quatcohom.metrics as metrics
    from quatcohom.cohomology import MatrixComplex
    from quatcohom.slstructure import SLStructure

    calls = {"from_quaternionic": 0, "SLStructure": 0, "decide": 0}

    def counting(key, body):
        def counted(*args, **kwargs):
            calls[key] += 1
            return body(*args, **kwargs)
        return counted

    monkeypatch.setattr(MatrixComplex, "from_quaternionic", classmethod(
        counting("from_quaternionic", MatrixComplex.from_quaternionic.__func__)))
    monkeypatch.setattr(SLStructure, "__init__",
                        counting("SLStructure", SLStructure.__init__))
    monkeypatch.setattr(metrics, "_decide", counting("decide", metrics._decide))
    doc = build_report(load_corpus(name), bindings)
    assert calls == {"from_quaternionic": 1, "SLStructure": 1, "decide": 2}
    assert [doc["verdicts"][key]["question"]
            for key in ("hkt", "strongly_gauduchon")] == ["hkt", "strongly-gauduchon"]

    from quatcohom import cli

    params = [f"--param={k}={v}" for k, v in (bindings or {}).items()]
    calls["decide"] = 0
    assert cli.main(["suite", name] + params) == 0
    assert calls["decide"] == 2
    # the volume form layer is built on first use: hkt reads none of it
    for command, built in (("hkt", 0), ("report", 1)):
        calls["SLStructure"] = 0
        assert cli.main([command, name] + params) == 0
        assert calls["SLStructure"] == built


@pytest.mark.parametrize("limit", [23, 24])
def test_suite_names_the_method_of_the_session_verdict(monkeypatch, limit):
    # without the projected standard form, the HKT search of example2 at
    # t = 1/2 finds its certificate at probe 24; the suite's line must name
    # the method the session's verdict, and so the report, names
    import quatcohom.metrics as metrics
    import quatcohom.suite as suite

    spec, bindings = load_corpus("example2"), {"t": Fraction(1, 2)}
    monkeypatch.setattr(metrics, "_project_standard", lambda cx, basis: None)
    monkeypatch.setattr(metrics, "PROBE_LIMIT", limit)
    session = ReportSession(spec, bindings)
    results = {r.name: r for r in suite.run_property_suite(session)}
    verdict = session.verdict("hkt")
    assert verdict.method == ("explicit-certificate" if limit == 24
                              else "delta2-criterion")
    assert (verdict.certificate is not None) == (limit == 24)
    assert results["hkt-three-way"].detail == f"answer yes ({verdict.method})"


def test_suite_draws_the_scalar_triples_once_per_process(monkeypatch, ex1, torus):
    import quatcohom.suite as suite

    parsed = []

    def counting(text, original=suite.parse_rational):
        parsed.append(text)
        return original(text)

    monkeypatch.setattr(suite, "parse_rational", counting)
    suite._scalar_arithmetic.cache_clear()
    lines = [next(r for r in suite.run_property_suite(session)
                  if r.name == "scalar-arithmetic") for session in (ex1, torus)]
    assert len(parsed) == 200
    assert lines[0] == lines[1] == suite.CheckResult(
        "scalar-arithmetic",
        "exact scalars: ring laws and print/parse round trip",
        "pass", "200 deterministic triples")


def test_report_decomposes_the_middle_cohomology_once(monkeypatch):
    from functools import wraps

    from quatcohom.memo import memo
    from quatcohom.report import ReportSession, build_report_from_session
    from quatcohom.slstructure import SLStructure

    # each body is counted under the method's own memo
    calls = {"jbar_decomposition": 0, "sd_asd_decomposition": 0}
    for name in calls:
        body = getattr(SLStructure, name).__wrapped__

        @wraps(body)
        def counted(self, _name=name, _body=body):
            calls[_name] += 1
            return _body(self)

        monkeypatch.setattr(SLStructure, name, memo(counted))
    session = ReportSession(load_corpus("example1"))
    doc = build_report_from_session(session)
    # the suite and the decomposition section read the same results
    assert calls == {"jbar_decomposition": 1, "sd_asd_decomposition": 1}
    assert doc["decomposition"]["self_dual"]["plus_dim"] == 2


def test_report_eliminates_each_del_once(monkeypatch):
    # once, for the split of del_p, which the ranks, `closed` and the
    # page-one route to E2 read; the suite's echelon-stability check
    # takes a kernel of del_1 of its own on purpose, as a check of the
    # elimination, and is not counted.  That the cached kernel is the one
    # a fresh elimination gives is checked in test_cohomology.py
    import quatcohom.cohomology as cohomology
    import quatcohom.linalg as linalg
    import quatcohom.quaternionic as quaternionic
    from quatcohom.report import ReportSession, build_report_from_session

    calls = []

    def counting(matrix, original=linalg.kernel_basis):
        calls.append(matrix)
        return original(matrix)

    # slstructure's kernels, of [del; del_J] and of ddj, are not counted;
    # model takes none, its eigenspaces come from `kernel_and_row_basis`
    for module in (linalg, cohomology, quaternionic):
        monkeypatch.setattr(module, "kernel_basis", counting)
    session = ReportSession(load_corpus("example1"))
    build_report_from_session(session)
    mc = session.mc
    counts = [sum(m == mc.delta(p) for m in calls) for p in range(mc.top)]
    assert counts == [1] * mc.top


@pytest.mark.parametrize("summands, digest", [
    (("example1", "torus8"), "84d695c22d75411e"),
    (("example1", "example1"), "6f9207d33a50107b"),
    (("example3", "torus8"), "29f2faa4999f09b9"),
    (("example3", "example1"), "7a96eb6dff6472f6"),
    (("example3", "example3"), "7ff0183fb4ed49b0"),
    (("example3", "example1", "torus8"), "bd0589f5c9dfb95a"),
], ids=["example1+torus8", "example1+example1", "example3+torus8",
        "example3+example1", "example3+example3", "example3+example1+torus8"])
def test_direct_sum_reports_byte_identical(summands, digest):
    # SHA-256 prefixes of the JSON reports in real dimensions 16, 20, 24
    # and 28, recorded before the decompositions read operator kernels, the
    # first three with dense matrices, dimension 24 before subspaces were
    # held as plain matrices, and dimension 28 before the operators were
    # built from generator data: any change here is a change of output
    spec = direct_sum_spec(*(load_corpus(name) for name in summands))
    report = build_report(spec)
    doc = to_json(report)
    assert hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16] == digest
    if summands == ("example3", "example3"):
        # Kunneth: the rows of del, del_J, E1 and E2 of the square are
        # example3's convolved with themselves
        rows = build_report(load_corpus("example3"))["cohomology"]["rows"]
        for key in ("h_del", "h_del_j", "dim_e1", "dim_e2"):
            small = [row[key] for row in rows]
            square = [sum(small[i] * small[p - i] for i in range(len(small))
                          if 0 <= p - i < len(small))
                      for p in range(2 * len(small) - 1)]
            assert [row[key] for row in report["cohomology"]["rows"]] == square
    if summands == ("example3", "example1", "torus8"):
        # the torus has zero differentials, so every column of the sum is
        # example3 + example1's convolved with binomial(4, p)
        small = ReportSession(direct_sum_spec(
            load_corpus("example3"), load_corpus("example1"))).mc.table()
        torus = (1, 4, 6, 4, 1)
        rows = report["cohomology"]["rows"]
        for column in ("h_del", "h_delj", "h_bc", "h_ae", "a", "b", "c", "d",
                       "e", "f", "dim_e1", "dim_e2", "delta"):
            values = getattr(small, column)
            expect = [sum(values[i] * torus[p - i] for i in range(len(values))
                          if 0 <= p - i < len(torus))
                      for p in range(len(values) + len(torus) - 1)]
            key = "h_del_j" if column == "h_delj" else column
            assert [row[key] for row in rows] == expect, column
