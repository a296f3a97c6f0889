import functools
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from quatcohom import GaussianRational, QuaternionicComplex, load_corpus
from quatcohom.exterior import merge_monomials, render_terms
from quatcohom.linalg import Mat
from quatcohom.model import _e_label
from quatcohom.scalars import ONE, ZERO

from support import ExteriorAlgebra, Form, from_coords

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



# -- the one renderer against Form.__str__ and the phi-label renderer it replaced --


def _phi_render(form: Form, render_mono) -> str:
    """The phi-label rendering the reports used before `render_terms`."""
    if form.is_zero():
        return "0"
    parts = []
    for mono in sorted(form.terms):
        coeff = form.terms[mono]
        label = render_mono(mono)
        if label == "1":
            parts.append(f"({coeff})")
        else:
            parts.append(f"({coeff})*{label}")
    return " + ".join(parts)


@functools.cache
def _example1():
    return QuaternionicComplex.build(load_corpus("example1"))


term_dicts = st.dictionaries(st.sets(st.integers(0, 7), max_size=4).map(
    lambda s: tuple(sorted(s))), coeffs, max_size=5)


@settings(max_examples=80)
@given(term_dicts)
@example({})
@example({(): GaussianRational(3, -1)})
@example({(): ZERO, (0, 5): GaussianRational(0, Fraction(-1, 2)), (1,): ONE})
def test_render_terms_matches_both_label_styles(terms):
    form = Form.from_terms(terms)
    pairs = list(terms.items())
    assert render_terms(pairs, _e_label) == str(form)
    assert render_terms(pairs, _example1().render_mono) == _phi_render(
        form, _example1().render_mono)


@settings(max_examples=40)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(lambda pq: st.tuples(
    st.just(pq), st.lists(coeffs, min_size=len(_example1().bidegree_basis(*pq)),
                          max_size=len(_example1().bidegree_basis(*pq))))))
def test_render_coords_matches_the_phi_label_renderer(drawn):
    (p, q), coords = drawn
    cx = _example1()
    assert cx.render_coords(Mat.from_rows([coords]), p, q) == _phi_render(
        from_coords(cx, coords, p, q), cx.render_mono)
