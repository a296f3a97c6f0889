from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from quatcohom import GaussianRational, linalg
from quatcohom.errors import InternalInconsistency, NotASubspace
from quatcohom.linalg import (
    Mat,
    SignedPermutation,
    _eliminate,
    complement_basis,
    complexify,
    det,
    inverse,
    kernel_basis,
    last_nonzero_columns,
    leading_principal_minors,
    pivot_columns,
    rank,
    realify_antilinear,
    realify_linear,
    row_basis,
    rref,
    solve,
)
from quatcohom.metrics import gram_matrix, standard_omega

from support import (
    HERMITIAN_KINDS,
    bareiss_det,
    bareiss_minors,
    bareiss_rref,
    column_space,
    contains_space,
    exact_quotient,
    intersect,
    quotient_dim,
    random_double_complex,
    random_gl,
    random_hermitian,
    reference_complement_representatives,
    reference_det,
    reference_eliminate,
    reference_matmul,
    reference_minors,
    reference_nullspace,
    reference_rref,
    space_sum,
    span,
)

small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
entries = st.builds(GaussianRational, small, small)
fractions_wide = st.fractions(min_value=-50, max_value=50, max_denominator=60)


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
    null = kernel_basis(m)
    assert rank(m) + null.nrows == m.ncols
    assert (m @ null.transpose()).is_zero()


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


def _column(values):
    return Mat.from_rows([[x] for x in values], ncols=1)


def test_solve_consistent_and_inconsistent():
    m = Mat.from_rows([[1, 2], [2, 4]])
    assert solve(m, _column([1, 2])) is not None
    assert solve(m, _column([1, 3])) is None
    x = solve(Mat.from_rows([[1, 1], [0, 1]]), _column([3, 1]))
    assert x == _column([2, 1])
    for rhs in (_column([1, 2, 3]), Mat.from_rows([[1, 0], [0, 1]])):
        with pytest.raises(ValueError, match="right hand side"):
            solve(m, rhs)


@settings(max_examples=40)
@given(mat_strategy(3), mat_strategy(3))
def test_subspace_dimension_formula(a, b):
    if a.ncols != b.ncols:
        return
    u = row_basis(a)
    v = row_basis(b)
    s = space_sum(u, v)
    i = intersect(u, v)
    assert s.nrows + i.nrows == u.nrows + v.nrows
    assert contains_space(s, u) and contains_space(s, v)
    assert contains_space(u, i) and contains_space(v, i)


def test_quotient_and_complement():
    amb = 4
    big = span([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], amb)
    small_space = span([[1, 1, 0, 0]], amb)
    assert quotient_dim(big, small_space) == 2
    reps = complement_basis(big, small_space.transpose())
    assert reps.nrows == 2
    assert space_sum(small_space, reps) == big
    with pytest.raises(NotASubspace):
        quotient_dim(span([[1, 0, 0, 0]], amb), big)


def signed_permutations(n):
    return st.tuples(st.permutations(range(n)),
                     st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)
                     ).map(lambda t: SignedPermutation(tuple(t[0]), tuple(t[1])))


permutation_cases = st.integers(0, 5).flatmap(lambda n: st.tuples(
    signed_permutations(n), signed_permutations(n),
    st.integers(1, 3).flatmap(lambda c: st.lists(
        st.lists(entries, min_size=c, max_size=c), min_size=n, max_size=n,
    ).map(lambda rows: Mat.from_rows(rows, ncols=c)))))


@settings(max_examples=80)
@given(permutation_cases)
def test_signed_permutation_acts_as_its_matrix(case):
    p, q, m = case
    n, pm = p.size, p.mat()
    assert p.compose(q).mat() == pm @ q.mat()
    assert p.inverse().mat() == pm.transpose()
    assert p.compose(p.inverse()) == p.inverse().compose(p) == SignedPermutation.identity(n)
    assert (-p).mat() == -pm
    assert p.relabel_rows(m) == pm @ m
    assert p.relabel_columns(m.transpose()) == m.transpose() @ pm
    differing = [j for j in range(n)
                 if pm.transpose().data[j] != q.mat().transpose().data[j]]
    assert p.first_difference(q) == (differing[0] if differing else None)


def test_signed_permutation_refuses_what_is_not_one():
    for targets, signs in (((0, 0), (1, 1)), ((1,), (1,)), ((0, 1), (1, 2)), ((0, 1), (1,))):
        with pytest.raises(ValueError):
            SignedPermutation(targets, signs)
    p = SignedPermutation((1, 0), (1, -1))
    for act in (lambda: p.compose(SignedPermutation.identity(3)),
                lambda: p.relabel_rows(Mat.identity(3)),
                lambda: p.relabel_columns(Mat.zeros(2, 3))):
        with pytest.raises(ValueError, match="shape mismatch"):
            act()


complex_rows = st.integers(0, 4).flatmap(lambda c: st.lists(
    st.lists(st.builds(GaussianRational, fractions_wide, fractions_wide),
             min_size=c, max_size=c), max_size=4,
).map(lambda rows: Mat.from_rows(rows, ncols=c)))


@settings(max_examples=60)
@given(complex_rows)
def test_complexify_inverts_the_top_block_row_of_the_antilinear_realification(x):
    # the top block row of [[Re, Im], [Im, -Re]] holds each row as (Re | Im)
    real = realify_antilinear(x)
    top = real.block(range(x.nrows), range(real.ncols))
    assert top == Mat.from_rows([[GaussianRational(v.re) for v in row]
                                 + [GaussianRational(v.im) for v in row]
                                 for row in x.data], ncols=2 * x.ncols)
    assert complexify(top) == x
    with pytest.raises(ValueError, match="realified rows have even width"):
        complexify(top.hstack(Mat.zeros(x.nrows, 1)))
    if x.nrows and x.ncols:
        with pytest.raises(ValueError, match="realified rows must have real entries"):
            complexify(top + Mat.from_entries(x.nrows, top.ncols, {(0, 0): GaussianRational(0, 1)}))


def test_realify_round_trip_and_antilinear_sign():
    rng = Random(7)
    x = Mat.from_rows([[GaussianRational(Fraction(rng.randint(-3, 3)),
                                         Fraction(rng.randint(-3, 3))) for _ in range(3)]])
    assert complexify(realify_antilinear(x).block([0], range(6))) == x

    m = Mat.from_rows([[GaussianRational(0, 1)]])
    lin = realify_linear(m)
    # multiplication by i: (re, im) -> (-im, re)
    assert lin @ _column([1, 0]) == _column([0, 1])
    anti = realify_antilinear(m)
    # antilinear i*conj: (re, im) -> (im, re)
    assert anti @ _column([1, 0]) == _column([0, 1])
    assert anti @ _column([0, 1]) == _column([1, 0])


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
    reduced, pivots = reference_rref(m.hstack(rhs))
    if m.ncols in pivots:
        return None
    solution = [ZERO_ENTRY] * m.ncols
    for r, pcol in enumerate(pivots):
        solution[pcol] = reduced.data[r][m.ncols]
    return _column(solution)


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
    assert list(kernel_basis(m).data) == reference_nullspace(expected, expected_pivots)
    rhs = _column([sum(row, ZERO_ENTRY) + 1 for row in m.data])
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


@st.composite
def hermitian_matrices(draw):
    """Seeded Hermitian matrices of each kind in `support.random_hermitian`."""
    kind = draw(st.sampled_from(HERMITIAN_KINDS))
    return random_hermitian(Random(draw(st.integers(0, 10**6))),
                            draw(st.integers(2, 5)), kind)


HERMITIAN_EXAMPLES = [random_hermitian(Random(seed), 4, kind)
                      for seed, kind in enumerate(HERMITIAN_KINDS)]


def test_seeded_hermitian_matrices_are_of_their_kind():
    definite, indefinite, singular, zero_corner = (
        reference_minors(m) for m in HERMITIAN_EXAMPLES)
    assert all(x.im == 0 and x.re > 0 for x in definite)
    assert indefinite[-1] and any(x.re < 0 for x in indefinite)
    assert singular[-1].is_zero()
    assert zero_corner[0].is_zero() and all(zero_corner[1:])


@settings(max_examples=100, deadline=None)
@given(st.one_of(matrices(square=True), hermitian_matrices()))
@example(HERMITIAN_EXAMPLES[0])
@example(HERMITIAN_EXAMPLES[1])
@example(HERMITIAN_EXAMPLES[2])
@example(HERMITIAN_EXAMPLES[3])
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
@given(st.one_of(matrices(square=True).filter(lambda m: m.nrows >= 2),
                 hermitian_matrices()))
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
    # singular: the diagonal pass stops short, so the last minor is 0
    m = Mat.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert leading_principal_minors(m) == reference_minors(m) == [0, -1, 0]


def test_minors_of_a_positive_definite_gram_take_no_det(ex1, torus, monkeypatch):
    # every minor is a pivot of the one diagonal pass; only a zero
    # diagonal entry sends the minors between it and the last to `det`
    calls = []
    plain_det = linalg.det
    monkeypatch.setattr(linalg, "det", lambda m: calls.append(m) or plain_det(m))
    grams = [gram_matrix(s.cx, standard_omega(s.cx)) for s in (ex1, torus)]
    grams.append(random_hermitian(Random(11), 5, "definite"))
    for gram in grams:
        minors = leading_principal_minors(gram)
        assert minors == reference_minors(gram)
        assert all(x.im == 0 and x.re > 0 for x in minors)
    assert calls == []
    leading_principal_minors(HERMITIAN_EXAMPLES[3])
    assert len(calls) == 2  # minors 2 and 3 of the zero-corner matrix


def test_empty_shapes():
    for shape in ((0, 3), (3, 0), (0, 0)):
        m = Mat.zeros(*shape)
        assert rref(m) == (m, [])
        assert kernel_basis(m) == Mat.identity(shape[1])
        assert row_basis(m) == Mat.zeros(0, shape[1])
    empty = Mat.zeros(0, 0)
    assert det(empty) == 1
    assert leading_principal_minors(empty) == []
    assert inverse(empty) == empty


def _seeded_gaussian_matrix(rng, nrows, ncols, density):
    values = (1, -1, 2, Fraction(1, 2), Fraction(-3, 2))
    return Mat.from_rows(
        [[GaussianRational(rng.choice(values), rng.choice((0,) + values))
          if rng.random() < density else ZERO_ENTRY for _ in range(ncols)]
         for _ in range(nrows)], ncols=ncols)


def _kernel_shape_cases():
    rng = Random(23)
    cases = [Mat.zeros(3, 4), Mat.zeros(4, 0), Mat.zeros(0, 4), Mat.identity(4),
             random_gl(rng, 5)]
    for nrows, ncols in ((3, 6), (6, 3), (5, 5), (12, 30)):
        cases.append(_seeded_gaussian_matrix(rng, nrows, ncols, 0.15))  # sparse
        cases.append(_seeded_gaussian_matrix(rng, nrows, ncols, 1.0))  # dense
    return cases


def test_kernel_basis_rows_end_at_their_free_columns():
    # row i is 1 in free column i, 0 in the other free columns and nonzero
    # elsewhere only at pivot columns before its free column, so its last
    # nonzero column is its free column and the rows are the identity there
    for m in _kernel_shape_cases():
        kernel = kernel_basis(m)
        pivots = pivot_columns(m)
        free = [j for j in range(m.ncols) if j not in pivots]
        assert last_nonzero_columns(kernel) == free
        for i, row in enumerate(kernel.data):
            assert [row[j] for j in free] == [int(i == k) for k in range(len(free))]
            assert {j for j, x in enumerate(row) if x} <= {j for j in pivots
                                                            if j < free[i]} | {free[i]}
    # full column rank: no free column and no row
    assert last_nonzero_columns(kernel_basis(random_gl(Random(3), 5))) == []


def test_last_nonzero_columns_refuses_a_zero_row():
    assert last_nonzero_columns(Mat.from_rows([[0, 2, 0], [1, 0, 0]])) == [1, 0]
    with pytest.raises(ValueError, match="zero row"):
        last_nonzero_columns(Mat.from_rows([[1, 0], [0, 0]]))


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


def vectors(amb, max_size):
    return st.lists(st.lists(sparse_entries, min_size=amb, max_size=amb),
                    max_size=max_size)


def _combination(weights, space):
    """The combination of the rows of `space` with the given weights."""
    return (Mat.from_rows([weights], ncols=space.nrows) @ space).data[0]


@st.composite
def nested_subspaces(draw):
    """A subspace, a subspace of it, and an arbitrary one, in one ambient."""
    amb = draw(st.integers(0, 5))
    big = span(draw(vectors(amb, 5)), amb)
    inner = [_combination(w, big) for w in draw(vectors(big.nrows, 3))]
    return big, span(inner, amb), span(draw(vectors(amb, 3)), amb)


@settings(max_examples=80, deadline=None)
@given(nested_subspaces())
def test_complement_matches_greedy_reference(spaces):
    # complement_basis takes the smaller space as spanning columns, the
    # reference as the rows of its canonical basis
    big, small_space, other = spaces
    assert list(complement_basis(big, small_space.transpose()).data) == \
        reference_complement_representatives(big, small_space)
    if contains_space(big, other):
        assert list(complement_basis(big, other.transpose()).data) == \
            reference_complement_representatives(big, other)
    else:
        with pytest.raises(NotASubspace):
            complement_basis(big, other.transpose())
        with pytest.raises(NotASubspace):
            reference_complement_representatives(big, other)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4), st.booleans())
def test_complement_matches_greedy_reference_on_complexes(seed, k, conjugate):
    mc = random_double_complex(Random(seed), k=k, conjugate=conjugate)
    for p in range(k + 1):
        # the engine's pairs: a kernel, and the operator whose columns span
        # the image inside it
        side = mc.delta(p - 1).hstack(mc.delta_j(p - 1))
        for big, spanning in ((row_basis(kernel_basis(mc.delta(p))), mc.delta(p - 1)),
                              (row_basis(kernel_basis(mc.ddj(p))), side)):
            assert list(complement_basis(big, spanning).data) == \
                reference_complement_representatives(big, column_space(spanning))


@settings(max_examples=60, deadline=None)
@given(nested_subspaces(), st.data())
def test_complement_depends_only_on_the_span_of_the_columns(spaces, data):
    # repeated, dependent and zero columns pick the same rows as the
    # canonical basis of their span, and one column outside big is refused
    big, small_space, _ = spaces
    amb, dim = big.ncols, small_space.nrows
    columns = list(small_space.data)
    for _ in range(data.draw(st.integers(0, 3))):
        weights = data.draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))
        columns.append(_combination(weights, small_space))
    if dim:
        columns += [columns[i] for i in data.draw(st.lists(st.integers(0, dim - 1),
                                                           max_size=2))]
    columns += [(0,) * amb] * data.draw(st.integers(0, 2))
    order = data.draw(st.permutations(range(len(columns))))
    spanning = Mat.from_rows([columns[i] for i in order], ncols=amb).transpose()
    expected = complement_basis(big, small_space.transpose())
    assert complement_basis(big, spanning) == expected
    assert list(expected.data) == reference_complement_representatives(big, small_space)
    outside = [v for v in Mat.identity(amb).data
               if not contains_space(big, Mat.from_rows([v], ncols=amb))]
    if outside:
        with pytest.raises(NotASubspace):
            complement_basis(big, spanning.hstack(_column(outside[0])))


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
    big = span(data.draw(vectors(amb, 5)), amb)
    inner = [_combination(w, big) for w in data.draw(vectors(big.nrows, 3))]
    small_space = span(inner, amb)

    def permuted(space):
        return Mat.from_rows([[row[i] for i in perm] for row in space.data], ncols=amb)

    picked = complement_basis(permuted(big), permuted(small_space).transpose())
    expected = complement_basis(big, small_space.transpose())
    assert picked == permuted(expected)


@settings(max_examples=80, deadline=None)
@given(st.one_of(matrices(), matrices(values=huge_entries, max_side=4)),
       st.integers(0, 10**6), st.data())
def test_row_basis_depends_only_on_the_row_space(m, seed, data):
    # Mixing the rows by an invertible matrix, or adding zero rows and
    # multiples of rows, keeps the span and so must keep the basis.
    basis = row_basis(m)
    assert basis.nrows == rank(m)
    assert row_basis(basis) == basis
    if m.nrows:
        scales = Mat.from_entries(m.nrows, m.nrows, {
            (i, i): data.draw(entries.filter(bool)) for i in range(m.nrows)})
        mixed = random_gl(Random(seed), m.nrows) @ scales @ m
        assert rank(mixed) == rank(m)
        assert row_basis(mixed) == basis
    extra = [[ZERO_ENTRY] * m.ncols]
    if m.nrows:
        row = m.data[data.draw(st.integers(0, m.nrows - 1))]
        factor = data.draw(entries.filter(bool))
        extra += [row, [factor * x for x in row]]
    padded = m.vstack(Mat.from_rows(extra, ncols=m.ncols))
    assert row_basis(padded) == basis


def test_sparsest_candidate_row_supplies_the_pivot():
    # rows 0 and 1 both hold column 0; row 1 is sparser and is taken,
    # divided by its content 3, and the outputs are those of the first-row
    # rule all the same
    m = Mat.from_rows([[1, 1, 1, 2], [3, 0, 0, 0], [0, 1, 0, 1], [1, 0, 2, 0]])
    reduction = _eliminate(m, reduce_above=False)
    assert reduction.rows[0] == {0: (1, 0)}
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


def _gaussian_content_norm(row):
    """The norm of the gcd in Z[i] of a row's integer entries: Euclid, with
    each quotient rounded to the nearest Gaussian integer."""
    ar = ai = 0
    for br, bi in row.values():
        while br or bi:
            q = GaussianRational(ar, ai) / GaussianRational(br, bi)
            qr, qi = round(q.re), round(q.im)
            ar, ai, br, bi = br, bi, ar - qr * br + qi * bi, ai - qr * bi - qi * br
    return ar * ar + ai * ai


non_units = st.sampled_from([GaussianRational(1, 1), GaussianRational(2, 1), GaussianRational(3)])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.tuples(st.lists(gaussian_integers, min_size=n, max_size=n), non_units),
    min_size=1, max_size=6)))
def test_every_kept_row_is_primitive_after_rows_scaled_by_non_units(scaled_rows):
    # each input row times 1+i, 2+i or 3 has that non-unit in its content;
    # the rows the kernel keeps must have none, in either mode, and the
    # pivots and the reduced form are those of plain Gauss-Jordan
    m = Mat.from_rows([[x * factor for x in row] for row, factor in scaled_rows])
    expected, expected_pivots = reference_rref(m)
    for reduce_above in (False, True):
        reduction = _eliminate(m, reduce_above)
        assert reduction.pivots == expected_pivots
        for row in reduction.rows:
            assert _gaussian_content_norm(row) == 1
    assert rref(m) == (expected, expected_pivots)
