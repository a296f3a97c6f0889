from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from quatcohom import GaussianRational
from quatcohom.errors import InternalInconsistency, NotASubspace
from quatcohom.linalg import (
    Mat,
    Subspace,
    _eliminate,
    complement_representatives,
    complexify_vector,
    det,
    inverse,
    leading_principal_minors,
    rank,
    realify_antilinear,
    realify_linear,
    realify_vector,
    rref,
    right_nullspace,
    solve,
)

from support import (
    bareiss_det,
    bareiss_minors,
    bareiss_rref,
    contains_space,
    exact_quotient,
    intersect,
    quotient_dim,
    random_double_complex,
    reference_complement_representatives,
    reference_det,
    reference_eliminate,
    reference_matmul,
    reference_minors,
    reference_nullspace,
    reference_rref,
)

small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
entries = st.builds(GaussianRational, small, small)


def mat_strategy(max_side=4):
    return st.integers(1, max_side).flatmap(
        lambda r: st.integers(1, max_side).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c),
                min_size=r, max_size=r,
            ).map(lambda rows: Mat.from_rows(rows, ncols=c))
        )
    )


@settings(max_examples=60)
@given(mat_strategy())
def test_rref_idempotent_and_rank_nullity(m):
    reduced, pivots = rref(m)
    again, again_pivots = rref(reduced)
    assert again == reduced
    assert again_pivots == pivots
    assert rank(m) == len(pivots)
    null = right_nullspace(m)
    assert rank(m) + len(null) == m.ncols
    for vec in null:
        assert all(x.is_zero() for x in m.apply(vec))


@settings(max_examples=40)
@given(mat_strategy(3), mat_strategy(3))
def test_matmul_against_direct_sum(a, b):
    if a.ncols != b.nrows:
        return
    prod = a @ b
    for i in range(a.nrows):
        for j in range(b.ncols):
            acc = GaussianRational()
            for k in range(a.ncols):
                acc = acc + a.data[i][k] * b.data[k][j]
            assert prod.data[i][j] == acc


def _square_strategy(n):
    return st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: Mat.from_rows(rows))


@settings(max_examples=40)
@given(st.integers(1, 3).flatmap(_square_strategy))
def test_inverse_and_det(m):
    d = det(m)
    if d.is_zero():
        with pytest.raises(ValueError):
            inverse(m)
    else:
        ident = Mat.identity(m.nrows)
        assert m @ inverse(m) == ident
        assert inverse(m) @ m == ident


def test_leading_principal_minors():
    m = Mat.from_rows([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    minors = leading_principal_minors(m)
    assert [x.re for x in minors] == [2, 3, 4]


def test_solve_consistent_and_inconsistent():
    m = Mat.from_rows([[1, 2], [2, 4]])
    assert solve(m, [1, 2]) is not None
    assert solve(m, [1, 3]) is None
    x = solve(Mat.from_rows([[1, 1], [0, 1]]), [3, 1])
    assert x == (GaussianRational(2), GaussianRational(1))


@settings(max_examples=40)
@given(mat_strategy(3), mat_strategy(3))
def test_subspace_dimension_formula(a, b):
    if a.ncols != b.ncols:
        return
    u = Subspace.from_vectors(a.data, a.ncols)
    v = Subspace.from_vectors(b.data, b.ncols)
    s = u.sum(v)
    i = intersect(u, v)
    assert s.dim + i.dim == u.dim + v.dim
    assert contains_space(s, u) and contains_space(s, v)
    assert contains_space(u, i) and contains_space(v, i)


def test_quotient_and_complement():
    amb = 4
    big = Subspace.from_vectors(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], amb)
    small_space = Subspace.from_vectors([[1, 1, 0, 0]], amb)
    assert quotient_dim(big, small_space) == 2
    reps = complement_representatives(big, small_space)
    assert len(reps) == 2
    joined = small_space
    for r in reps:
        joined = joined.sum(Subspace.from_vectors([r], amb))
    assert joined == big
    with pytest.raises(NotASubspace):
        quotient_dim(Subspace.from_vectors([[1, 0, 0, 0]], amb), big)


def test_realify_round_trip_and_antilinear_sign():
    rng = Random(7)
    vec = [GaussianRational(Fraction(rng.randint(-3, 3)),
                            Fraction(rng.randint(-3, 3))) for _ in range(3)]
    assert list(complexify_vector(realify_vector(vec))) == vec

    m = Mat.from_rows([[GaussianRational(0, 1)]])
    lin = realify_linear(m)
    # multiplication by i: (re, im) -> (-im, re)
    assert lin.apply([1, 0]) == (GaussianRational(0), GaussianRational(1))
    anti = realify_antilinear(m)
    # antilinear i*conj: (re, im) -> (im, re)
    assert anti.apply([1, 0]) == (GaussianRational(0), GaussianRational(1))
    assert anti.apply([0, 1]) == (GaussianRational(1), GaussianRational(0))


# ---------------------------------------------------------------------------
# The fraction-free kernel against the reference Gauss-Jordan elimination.
# ---------------------------------------------------------------------------

ZERO_ENTRY = GaussianRational()
sparse_entries = st.one_of(st.just(ZERO_ENTRY), entries)
huge = st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**15)
huge_entries = st.builds(GaussianRational, huge, huge)


@st.composite
def matrices(draw, values=sparse_entries, max_side=5, square=False):
    """Any shape from 0 x 0 up, optionally of low rank, with zeroed lines."""
    nrows = draw(st.integers(0, max_side))
    ncols = nrows if square else draw(st.integers(0, max_side))
    if draw(st.booleans()):
        inner = draw(st.integers(0, 2))  # rank at most inner
        left = [[draw(values) for _ in range(inner)] for _ in range(nrows)]
        right = [[draw(values) for _ in range(ncols)] for _ in range(inner)]
        rows = [[sum((a * b[c] for a, b in zip(row, right)), ZERO_ENTRY)
                 for c in range(ncols)] for row in left]
    else:
        rows = [[draw(values) for _ in range(ncols)] for _ in range(nrows)]
    for r in draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=2)):
        if r < nrows:
            rows[r] = [ZERO_ENTRY] * ncols
    for c in draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=2)):
        for row in rows:
            if c < ncols:
                row[c] = ZERO_ENTRY
    return Mat.from_rows(rows, ncols=ncols)


def _reference_solve(m, rhs):
    reduced, pivots = reference_rref(m.hstack(Mat.column(rhs)))
    if m.ncols in pivots:
        return None
    solution = [ZERO_ENTRY] * m.ncols
    for r, pcol in enumerate(pivots):
        solution[pcol] = reduced.data[r][m.ncols]
    return tuple(solution)


def _check_against_reference(m):
    """Every kernel routine against Gauss-Jordan and against dense Bareiss."""
    reduced, pivots = rref(m)
    expected, expected_pivots = reference_rref(m)
    assert reduced == expected
    assert pivots == expected_pivots
    assert bareiss_rref(m) == (expected, expected_pivots)
    assert reference_eliminate(m, reduce_above=False).pivots == expected_pivots
    assert _eliminate(m, reduce_above=False).pivots == expected_pivots
    assert rank(m) == len(expected_pivots)
    assert right_nullspace(m) == reference_nullspace(expected, expected_pivots)
    rhs = [sum(row, ZERO_ENTRY) + 1 for row in m.data]
    assert solve(m, rhs) == _reference_solve(m, rhs)
    if m.nrows == m.ncols:
        d = reference_det(m)
        assert det(m) == d
        assert bareiss_det(m) == d
        minors = reference_minors(m)
        assert leading_principal_minors(m) == minors
        assert bareiss_minors(m) == minors
        if d.is_zero():
            with pytest.raises(ValueError):
                inverse(m)
        else:
            both = reference_rref(m.hstack(Mat.identity(m.nrows)))[0]
            assert inverse(m) == Mat(m.nrows, m.nrows,
                                     tuple(row[m.nrows:] for row in both.data))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_matches_reference(m):
    _check_against_reference(m)


@settings(max_examples=100, deadline=None)
@given(matrices(square=True))
def test_kernel_matches_reference_square(m):
    _check_against_reference(m)


@settings(max_examples=40, deadline=None)
@given(matrices(values=huge_entries, max_side=4))
def test_kernel_matches_reference_large_denominators(m):
    _check_against_reference(m)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 5))
def test_kernel_matches_reference_on_conjugated_wedge_blocks(seed, k):
    mc = random_double_complex(Random(seed), k=k, conjugate=True)
    for p in range(k):
        _check_against_reference(mc.delta(p))
        _check_against_reference(mc.delta(p).vstack(mc.delta_j(p)))


@settings(max_examples=60, deadline=None)
@given(matrices(square=True).filter(lambda m: m.nrows >= 2))
def test_minors_after_a_zero_leading_minor(m):
    rows = [list(row) for row in m.data]
    rows[0][0] = ZERO_ENTRY
    m = Mat.from_rows(rows)
    minors = leading_principal_minors(m)
    assert minors[0].is_zero()
    assert minors == reference_minors(m)
    assert minors == bareiss_minors(m)
    assert det(m) == reference_det(m)


def test_minors_past_zero_leading_minors():
    # minors 1 and 2 vanish; 3 and 4 do not, and need a swap to compute
    m = Mat.from_rows([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert leading_principal_minors(m) == [0, -1, 0, 1]
    assert reference_minors(m) == [0, -1, 0, 1]
    m = Mat.from_rows([[0, 1, 2], [0, 3, 4], [5, 6, GaussianRational(0, 1)]])
    assert leading_principal_minors(m) == reference_minors(m)
    assert [x.is_zero() for x in leading_principal_minors(m)] == [True, True, False]


def test_empty_shapes():
    for shape in ((0, 3), (3, 0), (0, 0)):
        m = Mat.zeros(*shape)
        assert rref(m) == (m, [])
        assert right_nullspace(m) == [
            tuple(GaussianRational(int(i == j)) for i in range(shape[1]))
            for j in range(shape[1])
        ]
    empty = Mat.zeros(0, 0)
    assert det(empty) == 1
    assert leading_principal_minors(empty) == []
    assert inverse(empty) == empty


def test_inexact_division_is_an_internal_inconsistency():
    # the exact division of the dense Bareiss reference kernel
    assert exact_quotient([6, -4], [2, 0], 2, 0) == ([3, -2], [1, 0])
    assert exact_quotient([1], [1], 1, 1) == ([1], [0])
    with pytest.raises(InternalInconsistency):
        exact_quotient([3, 1], [0, -1], 2, 0)
    with pytest.raises(InternalInconsistency):
        exact_quotient([1], [0], 1, 1)


@st.composite
def products(draw, values=sparse_entries, max_side=5):
    """Two matrices that can be multiplied, any shapes from zero up."""
    n, k, m = (draw(st.integers(0, max_side)) for _ in range(3))
    a = [[draw(values) for _ in range(k)] for _ in range(n)]
    b = [[draw(values) for _ in range(m)] for _ in range(k)]
    return Mat.from_rows(a, ncols=k), Mat.from_rows(b, ncols=m)


@settings(max_examples=100, deadline=None)
@given(st.one_of(products(), products(values=huge_entries, max_side=4)))
def test_product_matches_reference(pair):
    a, b = pair
    assert a @ b == reference_matmul(a, b)
    for column in b.columns():
        assert a.apply(column) == reference_matmul(a, Mat.column(column)).col(0)


def vectors(amb, max_size):
    return st.lists(st.lists(sparse_entries, min_size=amb, max_size=amb),
                    max_size=max_size)


@st.composite
def nested_subspaces(draw):
    """A subspace, a subspace of it, and an arbitrary one, in one ambient."""
    amb = draw(st.integers(0, 5))
    big = Subspace.from_vectors(draw(vectors(amb, 5)), amb)
    basis = Mat.from_rows(big.rows, ncols=amb).transpose()
    inner = [basis.apply(w) for w in draw(vectors(big.dim, 3))]
    return (big, Subspace.from_vectors(inner, amb),
            Subspace.from_vectors(draw(vectors(amb, 3)), amb))


@settings(max_examples=80, deadline=None)
@given(nested_subspaces())
def test_complement_matches_greedy_reference(spaces):
    big, small_space, other = spaces
    assert complement_representatives(big, small_space) == \
        reference_complement_representatives(big, small_space)
    if contains_space(big, other):
        assert complement_representatives(big, other) == \
            reference_complement_representatives(big, other)
    else:
        with pytest.raises(NotASubspace):
            complement_representatives(big, other)
        with pytest.raises(NotASubspace):
            reference_complement_representatives(big, other)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4), st.booleans())
def test_complement_matches_greedy_reference_on_complexes(seed, k, conjugate):
    mc = random_double_complex(Random(seed), k=k, conjugate=conjugate)
    for p in range(k + 1):
        for big, small_space in ((mc.kernel("del", p), mc.image("del", p - 1)),
                                 (mc.kernel("ddj", p), mc.image("side", p - 1))):
            assert complement_representatives(big, small_space) == \
                reference_complement_representatives(big, small_space)


# ---------------------------------------------------------------------------
# The sparse kernel: the shapes of the large operators, and the pivot row
# choice, which must not show in any output.
# ---------------------------------------------------------------------------


@st.composite
def sparse_matrices(draw):
    """At most 3% nonzero: one or two entries per row, as at dimension 16-20."""
    ncols = draw(st.integers(67, 90))
    nrows = draw(st.integers(0, 40))
    rows = []
    for _ in range(nrows):
        row = [ZERO_ENTRY] * ncols
        for c in draw(st.lists(st.integers(0, ncols - 1), min_size=1,
                               max_size=2, unique=True)):
            row[c] = draw(entries.filter(bool))
        rows.append(row)
    if nrows and draw(st.booleans()):
        # a row repeated up to a multiple, so that the rank drops
        rows.append([2 * x for x in rows[draw(st.integers(0, nrows - 1))]])
    return Mat.from_rows(rows, ncols=ncols)


@settings(max_examples=20, deadline=None)
@given(sparse_matrices())
def test_kernel_matches_reference_on_sparse_matrices(m):
    _check_against_reference(m)
    _check_against_reference(m.transpose())


def _sign(perm):
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -1 if inversions % 2 else 1


@st.composite
def row_permuted(draw, strategy):
    m = draw(strategy)
    perm = draw(st.permutations(range(m.nrows)))
    return m, perm, Mat(m.nrows, m.ncols, tuple(m.data[i] for i in perm))


@settings(max_examples=60, deadline=None)
@given(st.one_of(row_permuted(matrices()), row_permuted(matrices(square=True)),
                 row_permuted(sparse_matrices())))
def test_row_order_does_not_show_in_the_output(case):
    m, perm, permuted = case
    assert rref(permuted) == rref(m)
    assert rank(permuted) == rank(m)
    if m.nrows == m.ncols:
        assert det(permuted) == _sign(perm) * det(m)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6).flatmap(
    lambda amb: st.tuples(st.just(amb), st.permutations(range(amb)))),
    st.data())
def test_coordinate_order_does_not_show_in_the_complement(shape, data):
    # Permuting coordinates permutes the rows of the matrix whose pivots
    # pick the complement, so the same rows of big must be picked.
    amb, perm = shape
    big = Subspace.from_vectors(data.draw(vectors(amb, 5)), amb)
    basis = Mat.from_rows(big.rows, ncols=amb).transpose()
    inner = [basis.apply(w) for w in data.draw(vectors(big.dim, 3))]
    small_space = Subspace.from_vectors(inner, amb)

    def permuted(space):
        return Subspace(amb, tuple(tuple(row[i] for i in perm) for row in space.rows))

    picked = complement_representatives(permuted(big), permuted(small_space))
    expected = complement_representatives(big, small_space)
    assert picked == [tuple(row[i] for i in perm) for row in expected]


def test_sparsest_candidate_row_supplies_the_pivot():
    # rows 0 and 1 both hold column 0; row 1 is sparser and is taken, and
    # the outputs are those of the first-row rule all the same
    m = Mat.from_rows([[1, 1, 1, 2], [3, 0, 0, 0], [0, 1, 0, 1], [1, 0, 2, 0]])
    reduction = _eliminate(m, reduce_above=False)
    assert reduction.sources[0] == 1
    assert reference_eliminate(m, reduce_above=False).steps[0] == ((1, 0), False)
    _check_against_reference(m)
    assert det(m) == -6


gaussian_integers = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.lists(
    st.lists(gaussian_integers, min_size=n, max_size=n), min_size=n, max_size=n)),
    st.booleans())
def test_coefficients_stay_within_the_hadamard_bound(rows, reduce_above):
    # Each row the kernel keeps is primitive in Z[i] on a line through a
    # vector of minors, so no entry outgrows Hadamard's bound on minors:
    # the product of the squared lengths of the nonzero input rows.
    m = Mat.from_rows(rows)
    bound = 1
    for row in rows:
        bound *= max(1, sum(x.numerator[0] ** 2 + x.numerator[1] ** 2 for x in row))
    for row in _eliminate(m, reduce_above).rows:
        for x, y in row.values():
            assert x * x + y * y <= bound
