from fractions import Fraction
from random import Random

import pytest

from quatcohom import GaussianRational, QuaternionicComplex, ReportSession, load_corpus
from quatcohom.errors import IntegrabilityViolation, ValidationFailure
from quatcohom.exterior import Form
from quatcohom.linalg import Mat
from quatcohom.suite import run_property_suite

from support import (
    FormRoute,
    coframe_variant,
    direct_sum_spec,
    i_nonintegrable_spec,
    nonintegrable_spec,
    random_gl,
)

KINDS = ("del", "del_bar", "del_J", "Jbar", "ddJ", "J")


def _cases():
    cases = [(name, load_corpus(name), None)
             for name in ("example1", "example3", "torus8")]
    for t in ("1/3", "2", "-1", "3/4"):
        cases.append((f"example2@{t}", load_corpus("example2"), {"t": Fraction(t)}))
    for seed in range(6):
        spec = coframe_variant(load_corpus("example1"), random_gl(Random(seed), 8))
        cases.append((f"example1-coframe{seed}", spec, None))
    cases.append(("example3+example3", direct_sum_spec(
        load_corpus("example3"), load_corpus("example3")), None))
    return cases


CASES = _cases()


@pytest.mark.parametrize("spec, bindings", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_operator_matrices_match_the_form_route(spec, bindings):
    cx = QuaternionicComplex.build(spec, bindings)
    ref = FormRoute(cx)
    for which in KINDS:
        for p in range(cx.half + 1):
            assert cx.operator_matrix(which, p) == ref.operator_matrix(which, p), (which, p)


@pytest.mark.parametrize("seed", [None, 0, 3])
def test_form_operators_match_the_form_route_in_every_bidegree(seed):
    # every operator on every monomial and on one mixed-coefficient form
    # of each bidegree, (p,q) as well as (p,0)
    spec = load_corpus("example1")
    if seed is not None:
        spec = coframe_variant(spec, random_gl(Random(seed), 8))
    cx = QuaternionicComplex.build(spec)
    ref = FormRoute(cx)
    for p in range(cx.half + 1):
        for q in range(cx.half + 1):
            basis = cx.bidegree_basis(p, q)
            forms = [Form.monomial(mono) for mono in basis]
            forms.append(cx.from_coords(
                [GaussianRational(Fraction(k + 1, 2), k % 3 - 1)
                 for k in range(len(basis))],
                p, q))
            for f in forms:
                assert cx.partial(f) == ref.partial(f)
                assert cx.partial_bar(f) == ref.partial_bar(f)
                assert cx.j(f) == ref.j(f)
                assert cx.conj(f) == ref.conj(f)
                assert cx.jbar(f) == ref.jbar(f)
                if q == 0:
                    assert cx.partial_j(f) == ref.partial_j(f)


def test_form_operators_send_zero_to_zero(ex1):
    cx = ex1.cx
    for op in (cx.partial, cx.partial_bar, cx.partial_j, cx.j, cx.conj, cx.jbar):
        assert op(Form.zero()).is_zero()


def test_integrability_is_checked_on_the_generators():
    # validation is skipped, so only the constructor's check on the
    # generators stands between the structure and the operators
    with pytest.raises(IntegrabilityViolation, match=r"\(0,2\) component"):
        QuaternionicComplex.build(i_nonintegrable_spec(), validate=False)
    with pytest.raises(ValidationFailure):
        QuaternionicComplex.build(i_nonintegrable_spec())


def test_a_nonintegrable_j_is_caught_by_validation_only():
    # the complex is built on I; J's failure shows in validation
    with pytest.raises(ValidationFailure, match="structure J"):
        QuaternionicComplex.build(nonintegrable_spec())
    QuaternionicComplex.build(nonintegrable_spec(), validate=False)


def _without_column(mat, j):
    keep = Mat.from_entries(mat.ncols, mat.ncols,
                            {(k, k): 1 for k in range(mat.ncols) if k != j})
    return mat @ keep


def test_jbar_checks_name_the_first_failing_basis_form(monkeypatch):
    session = ReportSession(load_corpus("example3"))
    cx, basis = session.cx, session.cx.hol_basis(2)
    good_jbar, good_del = cx.jbar_matrix(2), cx.partial_matrix(2)
    # with column j of Jbar on (2,0) gone, Jbar^2 loses the columns j and
    # the one Jbar sends onto j; with a nonzero column of del gone, Jbar
    # del loses that column
    j = len(basis) // 2
    onto = next(k for k in range(len(basis)) if good_jbar[j, k])
    j_del = [k for k in range(len(basis)) if any(good_del.col(k))][1]
    assert onto not in (j, 0) and j_del > 0
    monkeypatch.setattr(cx, "jbar_matrix", lambda p: _without_column(
        cx.operator_matrix("Jbar", p), j) if p == 2 else cx.operator_matrix("Jbar", p))
    detail = {r.name: r.detail for r in run_property_suite(session)}
    assert detail["jbar-involution"] == f"failed on {cx.render_mono(basis[min(j, onto)])}"
    monkeypatch.undo()
    monkeypatch.setattr(cx, "partial_matrix", lambda p: _without_column(
        cx.operator_matrix("del", p), j_del) if p == 2 else cx.operator_matrix("del", p))
    detail = {r.name: r.detail for r in run_property_suite(session)}
    assert detail["jbar-intertwine"] == f"failed on {cx.render_mono(basis[j_del])}"
