"""quatcohom's sparse Mat against the dense reference matrix.

Every operation and every view is compared with `support.ReferenceMat`,
which keeps dense tuples of Gaussian rationals and works entry by entry,
on sparse, dense, empty, complex and large-denominator matrices; every
result is also checked for the canonical row form.
"""

import copy
import pickle
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from quatcohom import GaussianRational
from quatcohom.linalg import Mat, row_basis

from support import ReferenceMat, assert_canonical_rows, random_double_complex

ZERO_ENTRY = GaussianRational()
small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
entries = st.builds(GaussianRational, small, small)
huge = st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**15)
huge_entries = st.builds(GaussianRational, huge, huge)
real_entries = st.builds(GaussianRational, small)
values = st.one_of(
    st.just(ZERO_ENTRY),  # sparse: mostly zeros
    entries,
    st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]),
)
value_kinds = st.sampled_from([values, entries, huge_entries, real_entries,
                               st.one_of(st.just(ZERO_ENTRY), huge_entries)])


@st.composite
def dense_rows(draw, nrows=None, ncols=None, max_side=5):
    kind = draw(value_kinds)
    nrows = draw(st.integers(0, max_side)) if nrows is None else nrows
    ncols = draw(st.integers(0, max_side)) if ncols is None else ncols
    rows = [[draw(kind) for _ in range(ncols)] for _ in range(nrows)]
    return rows, ncols


def both(rows, ncols):
    return Mat.from_rows(rows, ncols=ncols), ReferenceMat.from_rows(rows, ncols)


def check(mat, ref):
    """The matrix agrees with the reference and holds canonical rows."""
    assert (mat.nrows, mat.ncols) == (ref.nrows, ref.ncols)
    assert mat.data == ref.data
    assert_canonical_rows(mat)


@st.composite
def shaped_pairs(draw):
    """Two matrices: one of any shape, one sharing its shape, rows or columns."""
    rows, ncols = draw(dense_rows())
    nrows = len(rows)
    how = draw(st.sampled_from(["same", "rows", "cols", "product"]))
    if how == "same":
        other = draw(dense_rows(nrows, ncols))
    elif how == "rows":
        other = draw(dense_rows(nrows=nrows))
    elif how == "cols":
        other = draw(dense_rows(ncols=ncols))
    else:
        other = draw(dense_rows(nrows=ncols))
    return (rows, ncols), other


@settings(max_examples=100, deadline=None)
@given(dense_rows())
def test_views_match_the_reference(case):
    mat, ref = both(*case)
    check(mat, ref)
    for i in range(mat.nrows):
        assert mat.row_terms(i) == [(j, x) for j, x in enumerate(ref.data[i]) if x]
        for j in range(mat.ncols):
            assert mat[i, j] == ref.data[i][j]
            assert mat[i, j - mat.ncols] == ref.data[i][j]
    if mat.nrows:
        with pytest.raises(IndexError):
            mat[0, mat.ncols]
    assert str(mat) == str(Mat.from_rows(ref.data, ncols=ref.ncols))
    assert Mat.from_entries(mat.nrows, mat.ncols, {
        (i, j): x for i, row in enumerate(ref.data) for j, x in enumerate(row) if x
    }) == mat


@settings(max_examples=100, deadline=None)
@given(dense_rows(), st.one_of(values, huge_entries), st.data())
def test_unary_operations_match_the_reference(case, factor, data):
    mat, ref = both(*case)
    check(mat.transpose(), ref.transpose())
    check(mat.conj(), ref.conj())
    check(-mat, -ref)
    check(mat.scale(factor), ref.scale(GaussianRational._coerce(factor)))
    assert mat.is_zero() == ref.is_zero()
    rows = data.draw(st.lists(st.integers(0, max(mat.nrows - 1, 0)), max_size=4)
                     if mat.nrows else st.just([]))
    start = data.draw(st.integers(0, mat.ncols))
    cols = range(start, data.draw(st.integers(start, mat.ncols)))
    check(mat.block(rows, cols), ref.block(rows, cols))


@settings(max_examples=100, deadline=None)
@given(shaped_pairs())
def test_binary_operations_match_the_reference(pair):
    (a_rows, a_cols), (b_rows, b_cols) = pair
    a, a_ref = both(a_rows, a_cols)
    b, b_ref = both(b_rows, b_cols)
    if (a.nrows, a.ncols) == (b.nrows, b.ncols):
        check(a + b, a_ref + b_ref)
        check(a - b, a_ref - b_ref)
        check(a - a, a_ref - a_ref)
        assert (a - a).is_zero()
    else:
        with pytest.raises(ValueError):
            a + b
    if a.nrows == b.nrows:
        check(a.hstack(b), a_ref.hstack(b_ref))
    if a.ncols == b.ncols:
        check(a.vstack(b), a_ref.vstack(b_ref))
    if a.ncols == b.nrows:
        check(a @ b, a_ref @ b_ref)
    else:
        with pytest.raises(ValueError):
            a @ b


@settings(max_examples=60, deadline=None)
@given(shaped_pairs())
def test_equality_and_hash_follow_the_entries(pair):
    (a_rows, a_cols), (b_rows, b_cols) = pair
    a = Mat.from_rows(a_rows, ncols=a_cols)
    b = Mat.from_rows(b_rows, ncols=b_cols)
    same = (a.nrows, a.ncols, a.data) == (b.nrows, b.ncols, b.data)
    assert (a == b) == same
    # the same matrix reached another way holds the same rows
    for again in (a.transpose().transpose(), a + Mat.zeros(a.nrows, a.ncols),
                  a.scale(3).scale(Fraction(1, 3)), -(-a), a.conj().conj(),
                  Mat(a.nrows, a.ncols, a.data), Mat.identity(a.nrows) @ a):
        assert again == a
        assert hash(again) == hash(a)
    assert a != a.data


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 5))
def test_operations_on_conjugated_wedge_blocks_match_the_reference(seed, k):
    # del and del_J of a basis-conjugated complex: dense, complex entries
    # over mixed denominators, whose products cancel to zero
    mc = random_double_complex(Random(seed), k=k, conjugate=True)

    def ref(mat):
        return ReferenceMat.from_rows(mat.data, mat.ncols)

    for p in range(k):
        a, b = mc.delta(p), mc.delta_j(p)
        check(a.transpose(), ref(a).transpose())
        check(a - b.scale(GaussianRational(1, 2)), ref(a) - ref(b).scale(GaussianRational(1, 2)))
        check(a.transpose().conj() @ a, ref(a).transpose().conj() @ ref(a))
        check(a.hstack(b).vstack(b.hstack(a)), ref(a).hstack(ref(b)).vstack(ref(b).hstack(ref(a))))
        if p + 1 < k:
            square = mc.delta(p + 1) @ a
            assert square.is_zero() and square == Mat.zeros(square.nrows, square.ncols)
            check(mc.delta(p + 1) @ b + mc.delta_j(p + 1) @ a,
                  ref(mc.delta(p + 1)) @ ref(b) + ref(mc.delta_j(p + 1)) @ ref(a))


def test_entries_of_any_scalar_type_give_the_same_matrix():
    as_scalars = Mat.from_rows([[GaussianRational(Fraction(1, 2)), GaussianRational(0, 3)],
                                [GaussianRational(0), GaussianRational(-4)]])
    assert Mat.from_rows([[Fraction(2, 4), GaussianRational(0, 3)], [0, -4]]) == as_scalars
    assert {as_scalars, Mat.from_rows([[Fraction(1, 2), 3 * GaussianRational(0, 1)],
                                       [0, -4]])} == {as_scalars}


def test_empty_shapes_and_zero_rows():
    for nrows, ncols in ((0, 0), (0, 3), (3, 0), (2, 2)):
        zero = Mat.zeros(nrows, ncols)
        assert zero.data == ((GaussianRational(),) * ncols,) * nrows
        assert zero.is_zero()
        assert zero.transpose() == Mat.zeros(ncols, nrows)
        assert_canonical_rows(zero)
    assert str(Mat.zeros(0, 3)) == "<empty 0x3>"
    assert Mat.identity(0) == Mat.zeros(0, 0)
    with pytest.raises(ValueError):
        Mat.from_rows([])
    with pytest.raises(ValueError):
        Mat.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        Mat(2, 1, [[1]])
    with pytest.raises(TypeError):
        Mat.from_rows([[1.5]])


def test_large_denominators_cancel_to_canonical_rows():
    big = 10**40 + 7
    m = Mat.from_rows([[Fraction(1, big), Fraction(2, big)], [Fraction(1, 3), 0]])
    product = m.scale(big)
    assert product == Mat.from_rows([[1, 2], [Fraction(big, 3), 0]])
    assert_canonical_rows(product)
    summed = m + m.scale(-1)
    assert summed.is_zero() and summed == Mat.zeros(2, 2)
    assert_canonical_rows(summed)


def test_matrices_are_immutable():
    m = Mat.from_rows([[1, 2], [3, GaussianRational(0, 1)]])
    for name in ("nrows", "data", "_rows"):
        with pytest.raises(AttributeError):
            setattr(m, name, None)
        with pytest.raises(AttributeError):
            delattr(m, name)
    assert isinstance(m.data, tuple) and all(isinstance(row, tuple) for row in m.data)
    terms = m.row_terms(1)
    terms.clear()
    assert m.row_terms(1) == [(0, 3), (1, GaussianRational(0, 1))]
    for clone in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert clone == m and hash(clone) == hash(m)


def test_products_share_no_rows_that_later_change():
    # rows are shared between matrices, so no operation may change one
    a = Mat.from_rows([[1, 2, 0], [0, 0, 0], [0, 1, 1]])
    before = a.data
    b = a.vstack(a).hstack(Mat.identity(6))
    for result in (a.transpose(), a @ a, a + a, a.block([0, 2], range(3)), -a,
                   b.block(range(6), range(3)), row_basis(b)):
        result.data
    from quatcohom.linalg import inverse, kernel_basis, rank, rref

    rref(b), rank(b), kernel_basis(b), inverse(Mat.from_rows([[1, 2], [3, 4]]))
    assert a.data == before
    assert b.block(range(3), range(3)) == a
    # a selection of whole rows shares them, as the rows of a matrix allow
    picked = b.block([5, 0, 2], range(b.ncols))
    assert all(x is b._rows[i] for x, i in zip(picked._rows, [5, 0, 2]))
