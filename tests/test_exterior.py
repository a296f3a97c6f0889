from hypothesis import given, settings, strategies as st

from quatcohom import GaussianRational
from quatcohom.exterior import Form, merge_monomials

from support import ExteriorAlgebra

small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
coeffs = st.builds(GaussianRational, small, small)
monos = st.sets(st.integers(0, 5), max_size=4).map(lambda s: tuple(sorted(s)))
forms = st.dictionaries(monos, coeffs, max_size=4).map(Form.from_terms)


def test_merge_monomials_signs():
    assert merge_monomials((0,), (1,)) == (1, (0, 1))
    assert merge_monomials((1,), (0,)) == (-1, (0, 1))
    assert merge_monomials((0, 2), (1,)) == (-1, (0, 1, 2))
    assert merge_monomials((0,), (0,)) == (0, ())


@settings(max_examples=60)
@given(forms, forms, forms)
def test_wedge_bilinear_associative(x, y, z):
    assert x.wedge(y.wedge(z)) == x.wedge(y).wedge(z)
    assert (x + y).wedge(z) == x.wedge(z) + y.wedge(z)
    assert x.wedge(y + z) == x.wedge(y) + x.wedge(z)


@settings(max_examples=60)
@given(forms, forms)
def test_wedge_graded_commutative_on_homogeneous(x, y):
    if not (x.is_homogeneous() and y.is_homogeneous()):
        return
    if x.is_zero() or y.is_zero():
        return
    sign = (-1) ** (x.degree() * y.degree())
    assert x.wedge(y) == y.wedge(x).scale(sign)


@settings(max_examples=30)
@given(forms)
def test_one_forms_square_to_zero(x):
    one_part = Form.from_terms(
        {m: c for m, c in x.terms.items() if len(m) == 1})
    assert one_part.wedge(one_part).is_zero()


def test_algebra_d_leibniz_and_square():
    # d e^3 = e^12 on three generators
    alg = ExteriorAlgebra(3, [Form.zero(), Form.zero(),
                              Form.monomial((0, 1))])
    x = Form.generator(2)
    y = Form.generator(0) + Form.generator(2).scale(2)
    lhs = alg.d(x.wedge(y))
    rhs = alg.d(x).wedge(y) - x.wedge(alg.d(y))
    assert lhs == rhs
    for g in range(3):
        assert alg.d(alg.d(Form.generator(g))).is_zero()

