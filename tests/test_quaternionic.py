from fractions import Fraction
from random import Random

import pytest

from quatcohom import GaussianRational, QuaternionicComplex, ReportSession, load_corpus
from quatcohom.errors import IntegrabilityViolation, ValidationFailure
from quatcohom.linalg import Mat, SignedPermutation, inverse
from quatcohom.model import _build_coframe, instantiate
from quatcohom.suite import run_property_suite

from support import (
    FormRoute,
    coframe_variant,
    direct_sum_spec,
    form_wedge_matrix,
    from_coords,
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


SIGNED_CASES = CASES + [("example3+example1+torus8", direct_sum_spec(
    load_corpus("example3"), load_corpus("example1"), load_corpus("torus8")), None)]


@pytest.mark.parametrize("spec, bindings", [case[1:] for case in SIGNED_CASES],
                         ids=[case[0] for case in SIGNED_CASES])
def test_signed_permutations_match_the_general_matrix_route(spec, bindings):
    # J and conj against the form route's matrices, Jbar and del_J against
    # the products J conj and (-1)^{p+1} J del_bar J of those, the wedge
    # matrix against the wedge of forms and the star against its inverse
    # by elimination
    session = ReportSession(spec, bindings)
    cx, sl = session.cx, session.sl
    ref = FormRoute(cx)
    j_back = [ref.operator_matrix("J", 0, p) for p in range(cx.half + 2)]
    for p in range(cx.half + 1):
        j_in, conj = ref.operator_matrix("J", p), ref.operator_matrix("conj", p)
        assert cx.index_map("J", p, 0).mat() == j_in, p
        assert cx.index_map("J", 0, p).mat() == j_back[p], p
        assert cx.index_map("conj", p, 0).mat() == conj, p
        assert cx.index_map("Jbar", p, 0).mat() == j_back[p] @ conj, p
        del_j = j_back[p + 1] @ cx.operator_matrix("del_bar", 0, p) @ j_in
        assert cx.partial_j_matrix(p) == (del_j if p % 2 else -del_j), p
        wedge = form_wedge_matrix(cx, p)
        assert sl.wedge_matrix(p).mat() == wedge, p
        assert sl.star_matrix(p).mat() == inverse(wedge), p


@pytest.mark.parametrize("seed", [None, 0, 3])
def test_form_operators_match_the_form_route_in_every_bidegree(seed):
    # the matrix of every operator out of every (p,q) basis, against the
    # operator applied to each basis monomial and to one mixed-coefficient
    # form, which the antilinear ones read conjugated
    spec = load_corpus("example1")
    if seed is not None:
        spec = coframe_variant(spec, random_gl(Random(seed), 8))
    cx = QuaternionicComplex.build(spec)
    ref = FormRoute(cx)
    for p in range(cx.half + 1):
        for q in range(cx.half + 1):
            coords = [GaussianRational(Fraction(k + 1, 2), k % 3 - 1)
                      for k in range(len(cx.bidegree_basis(p, q)))]
            kinds = ("del", "del_bar", "J", "conj", "Jbar")
            for which in kinds + (("del_J", "ddJ") if q == 0 else ()):
                mat = cx.operator_matrix(which, p, q)
                assert mat == ref.operator_matrix(which, p, q), (which, p, q)
                op, target = ref.route(which, p, q)
                image = (mat.apply_conjugated(coords) if which in ("conj", "Jbar")
                         else mat.apply(coords))
                assert from_coords(cx, image, *target) == op(from_coords(cx, coords, p, q))


def test_operator_matrix_refuses_what_it_does_not_define(ex1):
    with pytest.raises(ValueError, match=r"del_J acts on \(p,0\)-forms"):
        ex1.cx.operator_matrix("del_J", 1, 1)
    with pytest.raises(ValueError, match="unknown operator"):
        ex1.cx.operator_matrix("star", 1)
    with pytest.raises(ValueError, match="'del' is not a signed permutation"):
        ex1.cx.index_map("del", 1, 0)


def test_integrability_is_checked_on_the_generators():
    # validation is skipped, so only the constructor's check on the
    # generators stands between the structure and the operators
    inst = instantiate(i_nonintegrable_spec())
    with pytest.raises(IntegrabilityViolation, match=r"\(0,2\) component"):
        QuaternionicComplex(inst, _build_coframe(inst))
    with pytest.raises(ValidationFailure):
        QuaternionicComplex.build(i_nonintegrable_spec())


def test_a_nonintegrable_j_is_caught_by_validation_only():
    # the complex is built on I; J's failure shows in validation
    with pytest.raises(ValidationFailure, match="structure J"):
        QuaternionicComplex.build(nonintegrable_spec())
    inst = instantiate(nonintegrable_spec())
    QuaternionicComplex(inst, _build_coframe(inst))


def _without_column(mat, j):
    keep = Mat.from_entries(mat.ncols, mat.ncols,
                            {(k, k): 1 for k in range(mat.ncols) if k != j})
    return mat @ keep


def test_jbar_checks_name_the_first_failing_basis_form(monkeypatch):
    session = ReportSession(load_corpus("example3"))
    cx, basis = session.cx, session.cx.hol_basis(2)
    good_jbar, good_del = cx.jbar_matrix(2), cx.partial_matrix(2)
    # with the sign of column j of Jbar on (2,0) flipped, Jbar^2 changes
    # sign in the columns j and the one Jbar sends onto j; with a nonzero
    # column of del gone, Jbar del loses that column
    j = len(basis) // 2
    onto = next(k for k in range(len(basis)) if good_jbar[j, k])
    j_del = [k for k in range(len(basis)) if any(good_del.col(k))][1]
    assert onto not in (j, 0) and j_del > 0
    good_map = cx.index_map

    def flipped(which, p, q):
        perm = good_map(which, p, q)
        if (which, p, q) != ("Jbar", 2, 0):
            return perm
        signs = list(perm.signs)
        signs[j] = -signs[j]
        return SignedPermutation(perm.targets, tuple(signs))

    monkeypatch.setattr(cx, "index_map", flipped)
    detail = {r.name: r.detail for r in run_property_suite(session)}
    assert detail["jbar-involution"] == f"failed on {cx.render_mono(basis[min(j, onto)])}"
    monkeypatch.undo()
    monkeypatch.setattr(cx, "partial_matrix", lambda p: _without_column(
        cx.operator_matrix("del", p), j_del) if p == 2 else cx.operator_matrix("del", p))
    detail = {r.name: r.detail for r in run_property_suite(session)}
    assert detail["jbar-intertwine"] == f"failed on {cx.render_mono(basis[j_del])}"
