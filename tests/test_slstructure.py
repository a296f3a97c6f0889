from itertools import combinations

import pytest

from quatcohom import standard_omega
from quatcohom.errors import NotAeppliClosed, NotGauduchon, NotHolomorphic, NotSL2
from quatcohom.exterior import Form, merge_monomials
from quatcohom.linalg import Mat
from quatcohom.slstructure import SLStructure
from quatcohom.quaternionic import QuaternionicComplex

from support import affine_complex_spec, reference_decomposition


def test_star_of_scalars_and_volume(ex1):
    sl = ex1.sl
    assert sl.star(Form.unit()) == sl.volume_form()
    assert sl.star(sl.volume_form()) == Form.unit()
    omega = standard_omega(ex1.cx)
    assert sl.star(omega) == omega


def test_star_monomial_rule(ex1):
    # flat coframe: star of a monomial is the signed complementary monomial
    sl = ex1.sl
    half = ex1.cx.half
    for p in range(half + 1):
        for mono in combinations(range(half), p):
            rest = tuple(g for g in range(half) if g not in mono)
            sign, full = merge_monomials(mono, rest)
            assert full == tuple(range(half))
            assert sl.star(Form.monomial(mono)) == Form.monomial(rest, sign)


def test_star_squares_to_sign(corpus_sessions):
    for session in corpus_sessions:
        sl = session.sl
        half = session.cx.half
        for p in range(half + 1):
            m = sl.star_matrix(half - p) @ sl.star_matrix(p)
            expected = Mat.identity(m.nrows).scale((-1) ** p)
            assert m == expected


def test_integration_and_hermitian_product(ex1):
    sl = ex1.sl
    omega = standard_omega(ex1.cx)
    assert sl.integrate(sl.volume_form().wedge(sl.phi_bar)).re == 1
    product = sl.hermitian_product(omega, omega)
    assert product.is_real() and product.re == 2


def test_pairing_matrices_invertible(corpus_sessions):
    for session in corpus_sessions:
        half = session.cx.half
        for p in range(half + 1):
            result = session.sl.pairing_matrix(p)
            assert result.invertible
            assert result.matrix.nrows == len(result.bc_representatives)


def test_pairing_golden_degree_one(ex1):
    result = ex1.sl.pairing_matrix(1)
    values = [[str(x) for x in row] for row in result.matrix.data]
    assert values == [["0", "1"], ["-1", "0"]]


def test_self_dual_decomposition(ex1, ex3):
    assert ex1.sl.sd_asd_decomposition() == (2, 2, True)
    with pytest.raises(NotSL2):
        ex3.sl.sd_asd_decomposition()


def test_jbar_decomposition_example1(ex1):
    rep = ex1.sl.decomposition_report()
    assert (rep.jbar_plus_dim, rep.jbar_minus_dim) == (2, 2)
    assert rep.pure and rep.full
    assert rep.intersection_dim == 0
    assert rep.phi_plus_dim == 2 and rep.phi_minus_dim == 2
    assert len(rep.representatives_plus) == rep.jbar_plus_real_dim


def test_jbar_decomposition_example3(ex3):
    rep = ex3.sl.decomposition_report()
    assert not rep.pure and not rep.full
    assert rep.intersection_dim == 2
    assert rep.complement_dim == 2
    assert rep.phi_plus_dim is None
    assert str(rep.jbar_plus_dim) == "9/2"


def test_decomposition_matches_subspace_reference(corpus_sessions):
    # the engine counts the loci by ranks of stacked operators; the
    # reference intersects and sums the subspaces themselves
    for session in corpus_sessions:
        assert session.sl.decomposition_report() == \
            reference_decomposition(session.sl)


def test_degree_profile_example1(ex1):
    omega = standard_omega(ex1.cx)
    profile = ex1.sl.degree_profile(omega)
    degrees = [value for _, value in profile]
    assert [str(v) for v in degrees] == ["0", "0", "0", "1"]


def test_degree_bound_not_enforced_beyond_dimension_two(ex3):
    # h_AE(1) = 6 exceeds h_del(1) + 1 = 5 here, which is fine: the bound
    # is a dimension-two theorem and must not be applied in dimension three
    omega = standard_omega(ex3.cx)
    try:
        profile = ex3.sl.degree_profile(omega)
    except NotGauduchon:
        pytest.skip("standard form is not Gauduchon here")
    assert len(profile) == ex3.mc.h_ae(1) == 6


def test_degree_map_rejects_wrong_arguments(ex1):
    sl = ex1.sl
    omega = standard_omega(ex1.cx)
    with pytest.raises(NotAeppliClosed):
        sl.degree_map(omega, Form.monomial((0, 1)))


def test_volume_form_guard():
    # valid hypercomplex structure, but not nilpotent: the top form
    # picks up a (2n,1) differential and the layer must refuse it
    cx = QuaternionicComplex.build(affine_complex_spec(), validate=False)
    with pytest.raises(NotHolomorphic):
        SLStructure(cx)


def test_adjoint_identity_spot_check(ex1):
    # conj-transpose of del at degree p equals -S del(2n-p-1) S
    cx, sl = ex1.cx, ex1.sl
    half = cx.half
    p = 1
    lhs = cx.partial_matrix(p).transpose()
    lhs = Mat.from_rows(
        [[x.conjugate() for x in row] for row in lhs.data],
        ncols=lhs.ncols)
    rhs = (sl.star_matrix(half - p) @ cx.partial_matrix(half - p - 1)
           @ sl.star_matrix(p + 1)).scale(-1)
    assert lhs == rhs
