import functools
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import quatcohom.metrics as metrics
import quatcohom.quaternionic as quaternionic
from quatcohom import (
    AlgebraSpec,
    GaussianRational,
    QuaternionicComplex,
    ReportSession,
    classify_metric,
    gram_matrix,
    hkt_existence,
    load_corpus,
    sg_existence,
    standard_omega,
)
from quatcohom.errors import NotBidegree20, NotSL2
from quatcohom.scalars import ONE, ZERO
from quatcohom.linalg import (Mat, complexify, kernel_basis, rank,
                              realify_antilinear, realify_linear, row_basis)
from quatcohom.metrics import omega_power
from quatcohom.report import build_report_from_session

from support import I4, J4, direct_sum_spec, form_omega_power


def test_standard_form_gram_is_half_identity(corpus_sessions):
    for session in corpus_sessions:
        cx = session.cx
        gram = gram_matrix(cx, standard_omega(cx))
        assert gram == Mat.identity(cx.half).scale(Fraction(1, 2))


def test_classification_example1(ex1):
    cand = classify_metric(ex1.cx, standard_omega(ex1.cx), ex1.mc)
    assert cand.is_real and cand.positive and cand.hermitian
    assert cand.gauduchon
    assert not cand.hkt
    assert not cand.strongly_gauduchon
    assert not cand.hyperkahler


def test_classification_torus(torus):
    cand = classify_metric(torus.cx, standard_omega(torus.cx), torus.mc)
    assert cand.hyperkahler and cand.hkt
    assert cand.strongly_gauduchon and cand.gauduchon


def test_classification_special_family_member(ex2_half):
    cand = classify_metric(ex2_half.cx, standard_omega(ex2_half.cx),
                           ex2_half.mc)
    assert cand.hkt and cand.strongly_gauduchon
    assert not cand.hyperkahler


def test_flag_chain_is_monotone(corpus_sessions):
    for session in corpus_sessions:
        cx = session.cx
        omega = standard_omega(cx)
        # phi^{12} and phi^{13} are the first two (2,0) basis forms
        first, second = (Mat.from_entries(1, omega.ncols, {(0, k): ONE}) for k in (0, 1))
        for form in (omega, omega.scale(2), first, omega + second):
            cand = classify_metric(cx, form, session.mc)
            assert not cand.hyperkahler or cand.hkt
            assert not cand.hkt or cand.strongly_gauduchon
            assert not cand.strongly_gauduchon or cand.gauduchon
            assert not cand.gauduchon or cand.hermitian


def _assert_every_hermitian_form_is_gauduchon(session):
    # del into the top degree vanishes on a nilpotent structure, so del
    # del_J out of degree 2n-2 does too: the Gauduchon flag and the
    # degree map's NotGauduchon check guard a ddj that should vanish
    cx, mc = session.cx, session.mc
    assert mc.delta(2 * cx.n - 1).is_zero() and mc.ddj(2 * cx.n - 2).is_zero()
    cand = classify_metric(cx, standard_omega(cx), mc)
    assert cand.hermitian and cand.gauduchon


def test_every_hermitian_form_is_gauduchon_on_the_corpus(corpus_sessions):
    for session in corpus_sessions:
        _assert_every_hermitian_form_is_gauduchon(session)


@pytest.mark.parametrize("summands", [
    ("example1", "torus8"), ("example1", "example1"), ("example3", "torus8"),
    ("example3", "example1"), ("example3", "example3"),
    ("example3", "example1", "torus8"),
], ids="+".join)
def test_every_hermitian_form_is_gauduchon_on_direct_sums(summands):
    spec = direct_sum_spec(*(load_corpus(name) for name in summands))
    _assert_every_hermitian_form_is_gauduchon(ReportSession(spec))


def _rows(forms):
    """Each row of `forms` as a one-row matrix."""
    return [forms.block([i], range(forms.ncols)) for i in range(forms.nrows)]


def _gram_obstruction(cx, space):
    """The diagonal obstruction read off a whole Gram matrix per row."""
    grams = [gram_matrix(cx, form) for form in _rows(complexify(space))]
    return any(all(g[a, a].is_zero() for g in grams) for a in range(cx.half))


def test_diagonal_obstruction_and_reality_match_the_gram_and_matrix_routes(corpus_sessions):
    # the obstruction reads one coordinate per diagonal entry and reality
    # applies Jbar's signed permutation; both must agree with the Gram
    # matrices and with Jbar's matrix form on every candidate space
    rng = Random(13)
    for session in corpus_sessions:
        cx = session.cx
        jbar = cx.index_map("Jbar", 2).mat()
        for space in (cx.hkt_space, cx.sg_space, Mat.identity(2 * len(cx.hol_basis(2)))):
            rows = list(space.data)
            subspaces = [space] + [Mat.from_rows(rng.sample(rows, k), ncols=space.ncols)
                                   for k in range(1, min(3, len(rows)) + 1)]
            for sub in subspaces:
                assert metrics._diagonal_obstruction(cx, sub) == _gram_obstruction(cx, sub)
            for form in _rows(complexify(space)):
                cand = classify_metric(cx, form, session.mc)
                assert cand.is_real == (jbar @ form.conj().transpose() == form.transpose())
        assert metrics._diagonal_obstruction(cx, Mat.zeros(0, 2 * len(cx.hol_basis(2))))


def test_classify_rejects_wrong_bidegree(ex1):
    # the coordinates of a (1,0)-form, a wider row, and two (2,0)-forms
    # stacked: a form is one row of the (2,0) width
    omega = standard_omega(ex1.cx)
    for form in (Mat.from_rows([[ONE, ZERO, ZERO, ZERO]]),
                 omega.hstack(Mat.zeros(1, 1)), omega.vstack(omega)):
        with pytest.raises(NotBidegree20, match="one row of 6 coordinates"):
            gram_matrix(ex1.cx, form)
        with pytest.raises(NotBidegree20, match="one row of 6 coordinates"):
            classify_metric(ex1.cx, form, ex1.mc)


def test_existence_answers(ex1, torus, ex2_third, ex2_half):
    for session, expected in ((ex1, False), (torus, True),
                              (ex2_third, False), (ex2_half, True)):
        hkt = hkt_existence(session.cx, session.mc)
        sg = sg_existence(session.cx, session.mc)
        assert hkt.answer is expected
        assert sg.answer is expected
        if expected:
            assert hkt.method == "explicit-certificate"
            cert = hkt.certificate
            assert cert is not None and cert.hkt
            assert cert.omega == standard_omega(session.cx)
            assert sg.certificate is not None
            assert sg.certificate.strongly_gauduchon
        else:
            assert hkt.method == "delta2-criterion"
            assert hkt.certificate is None
            assert sg.certificate is None


def test_existence_agrees_with_parity(corpus_sessions):
    for session in corpus_sessions:
        if session.cx.n != 2:
            continue
        verdict = hkt_existence(session.cx, session.mc)
        assert verdict.answer is (session.mc.h_del(1) % 2 == 0)


def test_existence_deterministic(ex1):
    a = hkt_existence(ex1.cx, ex1.mc)
    b = hkt_existence(ex1.cx, ex1.mc)
    assert (a.answer, a.method) == (b.answer, b.method)


def test_not_sl2_guard(ex3):
    with pytest.raises(NotSL2):
        hkt_existence(ex3.cx, ex3.mc)
    with pytest.raises(NotSL2):
        sg_existence(ex3.cx, ex3.mc)


def test_candidate_space_contains_standard_form_when_hkt(torus):
    cx = torus.cx
    space = cx.hkt_space
    omega = standard_omega(cx)
    # the top block row of the antilinear realification is (Re | Im)
    realified = realify_antilinear(omega).block([0], range(2 * omega.ncols))
    assert rank(space.vstack(realified)) == space.nrows


def test_jbar_locus_is_reduced_once_for_the_candidates_and_the_decomposition(
        monkeypatch, ex1, ex2_half):
    for fixture in (ex1, ex2_half):
        session = ReportSession(fixture.spec, fixture.bindings)
        cx = session.cx
        calls = []

        def counting(matrix, original=quaternionic.kernel_basis):
            calls.append(matrix)
            return original(matrix)

        monkeypatch.setattr(quaternionic, "kernel_basis", counting)
        space = cx.hkt_space
        session.sl.jbar_decomposition()
        hkt_existence(cx, session.mc)
        assert cx.hkt_space == space
        monkeypatch.undo()
        # one kernel, the plus locus, whatever asked first
        assert len(calls) == 1
        d_real = realify_linear(cx.operator_matrix("del", 2))
        jbar_real = realify_antilinear(cx.index_map("Jbar", 2).mat())
        assert space == row_basis(kernel_basis(
            d_real.vstack(jbar_real - Mat.identity(d_real.ncols))))
        assert session.sl.jbar_decomposition() == fixture.sl.jbar_decomposition()


def _sg_space_reduced_twice(cx):
    # the canonical basis of the kernel of the realified
    # [del | -del_J; Jbar - 1 | 0], then of its omega block
    d_real = realify_linear(cx.operator_matrix("del", 2))
    dj_real = realify_linear(cx.operator_matrix("del_J", 2))
    jbar_real = realify_antilinear(cx.index_map("Jbar", 2).mat())
    wide = d_real.ncols
    pairs = d_real.hstack(-dj_real).vstack(
        (jbar_real - Mat.identity(wide)).hstack(Mat.zeros(wide, wide)))
    paired = row_basis(kernel_basis(pairs))
    return row_basis(paired.block(range(paired.nrows), range(wide)))


def test_sg_candidate_space_is_the_span_of_the_projected_kernel(corpus_sessions):
    # the projection of a span is the span of the projections, so one
    # reduction of the projected kernel basis gives the same basis
    sessions = corpus_sessions + [
        ReportSession(load_corpus("example2"), {"t": Fraction(t)})
        for t in ("2/7", "3/4", "2", "-1")]
    for session in sessions:
        assert session.cx.sg_space == _sg_space_reduced_twice(session.cx)


def test_sg_candidate_space_is_built_once_per_report(monkeypatch):
    built = []

    def counting(matrix, original=quaternionic.kernel_basis):
        built.append(matrix)
        return original(matrix)

    monkeypatch.setattr(quaternionic, "kernel_basis", counting)
    session = ReportSession(load_corpus("example1"))
    build_report_from_session(session)
    wide = 2 * len(session.cx.hol_basis(2))
    # the session's verdict reads it, which the report and the suite
    # share; the pairs (omega, w) are twice as wide as the Jbar loci, and
    # their kernel is taken once
    assert [m.ncols for m in built].count(2 * wide) == 1


def test_hkt_candidate_space_is_reduced_once_per_report(monkeypatch):
    import quatcohom.linalg as linalg
    import quatcohom.slstructure as slstructure
    import quatcohom.suite as suite

    reduced = []

    def counting(matrix, original=linalg.row_basis):
        reduced.append(matrix)
        return original(matrix)

    kernels = []

    def kernel_counting(matrix, original=quaternionic.kernel_basis):
        kernels.append(original(matrix))
        return kernels[-1]

    for module in (quaternionic, metrics, slstructure, suite):
        if hasattr(module, "row_basis"):
            monkeypatch.setattr(module, "row_basis", counting)
    monkeypatch.setattr(quaternionic, "kernel_basis", kernel_counting)
    session = ReportSession(load_corpus("example1"))
    build_report_from_session(session)
    # the session's HKT verdict, the suite's hkt-flag-decoupling check and
    # the Jbar decomposition read it; the Jbar-real closed locus, the one
    # kernel as wide as the realified (2,0)-forms, is reduced for them once
    wide = 2 * len(session.cx.hol_basis(2))
    [locus] = [k for k in kernels if k.ncols == wide]
    assert sum(m == locus for m in reduced) == 1
    assert row_basis(locus) == session.cx.hkt_space


# -- Omega^{n-1} on coordinates against the form wedge --


@functools.cache
def _power_complexes():
    """One complex in each quaternionic dimension 1 to 4."""
    specs = [AlgebraSpec.create(4, {}, I4, J4, name="torus4"),
             load_corpus("example1"), load_corpus("example3"),
             direct_sum_spec(load_corpus("example1"), load_corpus("torus8"))]
    return [QuaternionicComplex.build(spec) for spec in specs]


def _assert_power_matches_the_form_wedge(cx, omega):
    power = form_omega_power(cx, omega.data[0])
    assert omega_power(cx, omega) == Mat.from_rows(
        [[power.coefficient(mono) for mono in cx.hol_basis(2 * cx.n - 2)]])


@pytest.mark.parametrize("n", range(1, 5))
def test_omega_power_matches_the_form_wedge_on_the_standard_form(n):
    cx = _power_complexes()[n - 1]
    assert cx.n == n
    omega = standard_omega(cx)
    _assert_power_matches_the_form_wedge(cx, omega)
    _assert_power_matches_the_form_wedge(cx, Mat.zeros(1, omega.ncols))


_parts = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# half of the coordinates zero, so sparse forms are drawn as often as dense
_coords = st.one_of(st.just(ZERO), st.builds(GaussianRational, _parts, _parts))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(_coords, min_size=len(_power_complexes()[k].hol_basis(2)),
                         max_size=len(_power_complexes()[k].hol_basis(2))))))
def test_omega_power_matches_the_form_wedge_on_drawn_coordinates(drawn):
    k, omega = drawn
    _assert_power_matches_the_form_wedge(_power_complexes()[k], Mat.from_rows([omega]))
