from fractions import Fraction
from random import Random

import pytest

from quatcohom import (GaussianRational, MatrixComplex, QuaternionicComplex, ReportSession,
                       load_corpus, quaternionic)
from quatcohom.errors import (IntegrabilityViolation, InternalInconsistency,
                               ValidationFailure)
from quatcohom.linalg import Mat, SignedPermutation, inverse
from quatcohom.model import _build_coframe, instantiate, validate_hypercomplex
from quatcohom.scalars import ONE
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
    mc = MatrixComplex.from_quaternionic(cx)
    ref = FormRoute(cx)
    for p in range(cx.half + 1):
        for which, mat in _operators_out_of(cx, mc, p).items():
            assert mat == ref.operator_matrix(which, p), (which, p)


SIGNED_CASES = CASES + [("example3+example1+torus8", direct_sum_spec(
    load_corpus("example3"), load_corpus("example1"), load_corpus("torus8")), None)]


@pytest.mark.parametrize("spec, bindings", [case[1:] for case in SIGNED_CASES],
                         ids=[case[0] for case in SIGNED_CASES])
def test_signed_permutations_match_the_general_matrix_route(spec, bindings):
    # J out of (p,0), and J out of (0,p) derived as (-1)^p J(p,0)^{-1},
    # against the form route's matrices; del_bar out of (0,p) from the
    # form route against del out of (p,0) conjugated; Jbar, del_J and ddj
    # against the products J conj, (-1)^{p+1} J del_bar J and del del_J of
    # those; the wedge matrix against the wedge of forms and the star
    # against its inverse by elimination
    session = ReportSession(spec, bindings)
    cx, mc, sl = session.cx, session.mc, session.sl
    ref = FormRoute(cx)
    j_back = [ref.operator_matrix("J", 0, p) for p in range(cx.half + 2)]
    for p in range(cx.half + 1):
        j_in, conj = ref.operator_matrix("J", p), ref.operator_matrix("conj", p)
        assert cx.index_map("J", p).mat() == j_in, p
        back = cx.index_map("J", p).inverse()
        assert (-back if p % 2 else back).mat() == j_back[p], p
        assert cx.index_map("Jbar", p).mat() == j_back[p] @ conj, p
        del_bar = ref.operator_matrix("del_bar", 0, p)
        assert del_bar == cx.operator_matrix("del", p).conj(), p
        del_j = j_back[p + 1] @ del_bar @ j_in
        del_j = del_j if p % 2 else -del_j
        assert cx.operator_matrix("del_J", p) == del_j, p
        assert mc.ddj(p) == cx.operator_matrix("del", p + 1) @ del_j, p
        wedge = form_wedge_matrix(cx, p)
        assert sl.wedge_matrix(p).mat() == wedge, p
        assert sl.star_matrix(p).mat() == inverse(wedge), p


@pytest.mark.parametrize("seed", [None, 0, 3])
def test_form_operators_match_the_form_route_in_every_bidegree(seed):
    # the form route's matrix of every operator out of every (p,q) basis,
    # against the operator applied to each basis monomial and to one
    # mixed-coefficient form, which Jbar, antilinear, reads conjugated;
    # the complex's matrices, all out of (p,0), against those
    spec = load_corpus("example1")
    if seed is not None:
        spec = coframe_variant(spec, random_gl(Random(seed), 8))
    cx = QuaternionicComplex.build(spec)
    mc = MatrixComplex.from_quaternionic(cx)
    ref = FormRoute(cx)
    for p in range(cx.half + 1):
        for q in range(cx.half + 1):
            coords = [GaussianRational(Fraction(k + 1, 2), k % 3 - 1)
                      for k in range(len(cx.bidegree_basis(p, q)))]
            column = Mat.from_rows([[x] for x in coords], ncols=1)
            ours = _operators_out_of(cx, mc, p) if q == 0 else {}
            for which in ours or ("del", "del_bar"):
                mat = ref.operator_matrix(which, p, q)
                if ours:
                    assert ours[which] == mat, (which, p)
                op, target = ref.route(which, p, q)
                image = (mat @ (column.conj() if which == "Jbar" else column)
                         ).transpose().data[0]
                assert from_coords(cx, image, *target) == op(from_coords(cx, coords, p, q))


def test_operator_matrix_refuses_what_it_does_not_define(ex1):
    for name in ("star", "J", "Jbar", "ddJ"):
        with pytest.raises(ValueError, match="unknown operator"):
            ex1.cx.operator_matrix(name, 1)
    for name in ("del", "conj"):
        with pytest.raises(ValueError, match=f"'{name}' is not a signed permutation"):
            ex1.cx.index_map(name, 1)


def _operators_out_of(cx, mc, p):
    """Every operator out of the (p,0) basis by the name `FormRoute.route`
    gives it: del, del_bar, del_J, the complex's del del_J, J and Jbar."""
    return {"del": cx.operator_matrix("del", p),
            "del_bar": cx.operator_matrix("del_bar", p),
            "del_J": cx.operator_matrix("del_J", p), "ddj": mc.ddj(p),
            "J": cx.index_map("J", p).mat(),
            "Jbar": cx.index_map("Jbar", p).mat()}


def test_integrability_is_checked_on_the_generators():
    # the constructor does not read the failed report it is given, so only
    # its check on the generators stands between the structure and the
    # operators
    spec = i_nonintegrable_spec()
    inst = instantiate(spec)
    with pytest.raises(IntegrabilityViolation, match=r"\(0,2\) component"):
        QuaternionicComplex(inst, _build_coframe(inst), validate_hypercomplex(spec))
    with pytest.raises(ValidationFailure):
        QuaternionicComplex.build(i_nonintegrable_spec())


def test_a_nonintegrable_j_is_caught_by_validation_only():
    # the complex is built on I; J's failure shows in validation
    with pytest.raises(ValidationFailure, match="structure J"):
        QuaternionicComplex.build(nonintegrable_spec())
    spec = nonintegrable_spec()
    inst = instantiate(spec)
    QuaternionicComplex(inst, _build_coframe(inst), validate_hypercomplex(spec))


def test_jbar_checks_name_the_first_failing_basis_form(monkeypatch):
    session = ReportSession(load_corpus("example3"))
    cx, basis = session.cx, session.cx.hol_basis(2)
    good_jbar = cx.index_map("Jbar", 2).mat()
    # with the sign of column j of Jbar on (2,0) flipped, Jbar^2 changes
    # sign in the columns j and the one Jbar sends onto j
    j = len(basis) // 2
    onto = next(k for k in range(len(basis)) if good_jbar[j, k])
    assert onto not in (j, 0)
    good_map = cx.index_map

    def flipped(which, p):
        perm = good_map(which, p)
        if (which, p) != ("Jbar", 2):
            return perm
        signs = list(perm.signs)
        signs[j] = -signs[j]
        return SignedPermutation(perm.targets, tuple(signs))

    monkeypatch.setattr(cx, "index_map", flipped)
    detail = {r.name: r.detail for r in run_property_suite(session)}
    assert detail["jbar-involution"] == f"failed on {cx.render_mono(basis[min(j, onto)])}"


@pytest.mark.parametrize("name", ["example1", "example3"])
def test_conjugate_generators_are_checked_at_construction(monkeypatch, name):
    # one coefficient of d of the first conjugate generator with a nonzero
    # differential is moved by one; only the constructor's check on the
    # generators reads d of the conjugates, and it names that generator
    good = quaternionic._coframe_differentials
    hit = []

    def perturbed(inst, b, c, count, pairs):
        d_gens = good(inst, b, c, count, pairs)
        g = next(g for g in range(count // 2, count) if d_gens[g])
        (pair, coeff), *rest = d_gens[g]
        d_gens[g] = [(pair, coeff + ONE)] + rest
        hit.append(g)
        return d_gens

    monkeypatch.setattr(quaternionic, "_coframe_differentials", perturbed)
    with pytest.raises(InternalInconsistency) as caught:
        QuaternionicComplex.build(load_corpus(name))
    monkeypatch.undo()
    cx = QuaternionicComplex.build(load_corpus(name))
    conj, gen = cx.render_mono((hit[0],)), cx.render_mono((hit[0] - cx.half,))
    assert str(caught.value) == f"d of {conj} is not the conjugate of d of {gen}"
