from collections import Counter
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from quatcohom import (
    MatrixComplex,
    ReportSession,
    ddj_lemma_holds,
    frolicher_degenerate,
    load_corpus,
    non_hkt_degrees,
)
import quatcohom.cohomology as cohomology
from quatcohom.errors import EngineError, InternalInconsistency
from quatcohom.linalg import (Mat, complement_basis, kernel_basis, last_nonzero_columns,
                              rank, row_basis)
from quatcohom.model import AlgebraSpec, instantiate
from quatcohom.scalars import ZERO
from quatcohom.slstructure import SLStructure
from quatcohom.suite import run_property_suite

from support import (
    BLOCK_NAMES,
    coframe_variant,
    column_space,
    direct_sum_complex,
    direct_sum_spec,
    intersect,
    kernel_space,
    koszul_pair,
    random_double_complex,
    random_gl,
    reference_block,
    reference_class_coords,
    reference_table,
    scaled_variant,
    space_sum,
)

# Dimension tables.  The interior rows of the first two structures are
# published values; the twelve-dimensional rows are pinned engine output
# that passes every independent cross-check (exactness sums, pair
# symmetry, degree shift, duality, both defect formulas).
EX1_H = {
    1: (3, 3, 2, 4),
    2: (4, 4, 5, 5),
    3: (3, 3, 4, 2),
}
EX1_VAROUCHAS = {
    1: (0, 0, 1, 0, 1, 0),
    2: (1, 1, 1, 1, 1, 1),
    3: (0, 1, 0, 1, 0, 0),
}
EX3_H = {
    0: (1, 1, 1, 1),
    1: (4, 4, 4, 6),
    2: (9, 9, 9, 10),
    3: (12, 12, 14, 14),
    4: (9, 9, 10, 9),
    5: (4, 4, 6, 4),
    6: (1, 1, 1, 1),
}
EX3_VAROUCHAS = {
    1: (0, 0, 2, 0, 2, 2),
    2: (0, 2, 3, 2, 3, 1),
    3: (2, 3, 3, 3, 3, 2),
    4: (1, 3, 2, 3, 2, 0),
    5: (2, 2, 0, 2, 0, 0),
}


def _h_row(table, p):
    return (table.h_del[p], table.h_delj[p], table.h_bc[p], table.h_ae[p])


def _varouchas_row(table, p):
    return (table.a[p], table.b[p], table.c[p], table.d[p], table.e[p], table.f[p])


def test_example1_golden_tables(ex1):
    table = ex1.mc.table()
    for p, row in EX1_H.items():
        assert _h_row(table, p) == row
    for p, row in EX1_VAROUCHAS.items():
        assert _varouchas_row(table, p) == row
    assert _h_row(table, 0) == (1, 1, 1, 1)
    assert _h_row(table, 4) == (1, 1, 1, 1)
    assert table.dim_e1 == (1, 3, 4, 3, 1)
    assert table.dim_e2 == (1, 3, 4, 3, 1)
    assert non_hkt_degrees(table) == (0, 0, 2, 0, 0)
    assert frolicher_degenerate(table)
    assert not ddj_lemma_holds(table)


def test_example1_displayed_differentials(ex1):
    # column g is the image of phi^{g+1}; row 0 is phi^{12}
    mc = ex1.mc
    phi12 = (1, 0, 0, 0, 0, 0)
    zero = (0,) * 6
    assert mc.delta(1).transpose().data == (zero, zero, zero, phi12)
    assert mc.delta_j(1).transpose().data[2:] == (phi12, zero)


def test_torus_everything_trivial(torus):
    table = torus.mc.table()
    binom = (1, 4, 6, 4, 1)
    for p in range(5):
        assert _h_row(table, p) == (binom[p],) * 4
        assert _varouchas_row(table, p) == (0,) * 6
    assert table.dim_e2 == binom
    assert non_hkt_degrees(table) == (0,) * 5
    assert ddj_lemma_holds(table)


@settings(max_examples=6, deadline=None)
@given(t=st.fractions(min_value=0, max_value=1, max_denominator=8)
       .filter(lambda t: t not in (0, Fraction(1, 2), 1)))
@example(t=Fraction(1, 3))
@example(t=Fraction(1, 4))
@example(t=Fraction(3, 4))
def test_example2_generic_matches_example1(ex1, t):
    # t = 1/2 is the special value (torus-like, below); every other t in
    # (0, 1) gives example1's structure up to a change of coframe
    session = ReportSession(load_corpus("example2"), {"t": t})
    assert _basis_free_report(session) == _basis_free_report(ex1)


def test_example2_special_value_is_torus_like(ex2_half, torus):
    assert ex2_half.mc.table() == torus.mc.table()


def test_example3_golden_table(ex3):
    table = ex3.mc.table()
    for p, row in EX3_H.items():
        assert _h_row(table, p) == row
    for p, row in EX3_VAROUCHAS.items():
        assert _varouchas_row(table, p) == row
    assert table.dim_e1 == (1, 4, 9, 12, 9, 4, 1)
    assert table.dim_e2 == table.dim_e1
    assert non_hkt_degrees(table) == (0, 2, 1, 4, 1, 2, 0)
    assert frolicher_degenerate(table)
    assert not ddj_lemma_holds(table)


def test_duality_of_dimensions(corpus_sessions):
    for session in corpus_sessions:
        table = session.mc.table()
        top = table.top_degree
        for p in range(top + 1):
            assert table.h_bc[p] == table.h_ae[top - p]


def _basis_free_report(session):
    """The parts of a report that belong to the hypercomplex structure and
    not to the coframe it is written in: the table, the HKT and SG answers
    (or the error that refuses the question), the middle-degree
    decomposition dimensions and flags, and every suite status.

    The self-dual dimensions are left out with the representatives: the
    star is the inverse of the wedge matrix on the coframe's monomial
    basis, so it belongs to the metric that makes the coframe unitary, and
    example1 in a random real coframe splits its middle classes 1 + 3
    instead of 2 + 2.  The rank and invertibility of the pairing in every
    degree are basis-free; its matrix is not.
    """
    answers = []
    for question in ("hkt", "strongly-gauduchon"):
        try:
            answers.append(session.verdict(question).answer)
        except EngineError as exc:
            answers.append(type(exc).__name__)
    decomposition = replace(session.sl.decomposition_report(),
                            phi_plus_dim=None, phi_minus_dim=None,
                            representatives_plus=(), representatives_minus=())
    statuses = [(check.name, check.status) for check in run_property_suite(session)]
    pairings = [(rank(pairing.matrix), pairing.invertible)
                for pairing in map(session.sl.pairing_matrix,
                                   range(session.cx.half + 1))]
    return session.mc.table(), answers, decomposition, statuses, pairings


def _quaternionic_gl(spec, rng):
    """P with P^T a seeded rational combination of a kernel basis of the
    conditions X I = I X and X J = J X, checked to be invertible.  The
    coframe change by P leaves the I and J tables as they are and moves
    the structure constants."""
    inst = instantiate(spec)
    m = spec.dimension
    entries = {}
    # row (k, a, c) is entry (a, c) of X M - M X for M = I, J, and column
    # a*m + b is the unknown X[a][b]
    for k, mat in enumerate((inst.mat_i, inst.mat_j)):
        for a in range(m):
            for c in range(m):
                row = (k * m + a) * m + c
                for b in range(m):
                    for key, value in (((row, a * m + b), mat.data[b][c]),
                                       ((row, b * m + c), -mat.data[a][b])):
                        entries[key] = entries.get(key, 0) + value
    basis = kernel_basis(Mat.from_entries(2 * m * m, m * m, entries))
    assert basis.nrows == {8: 16, 12: 36}[m]
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(basis.nrows)]
    x = [sum((c * row[j] for c, row in zip(coeffs, basis.data)), ZERO)
         for j in range(m * m)]
    p_transpose = Mat.from_rows([x[a * m:(a + 1) * m] for a in range(m)])
    assert rank(p_transpose) == m
    return p_transpose.transpose()


@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 10**6))
@example(seed=2024)
def test_tables_invariant_under_coframe_change(ex1, ex3, seed):
    rng = Random(seed)
    for session, count in ((ex1, 3), (ex3, 1)):
        spec = session.spec
        expected = _basis_free_report(session)
        for _ in range(count):
            variant = coframe_variant(spec, random_gl(rng, spec.dimension))
            assert _basis_free_report(ReportSession(variant)) == expected
        # a change whose transpose commutes with I and J keeps their tables
        variant = coframe_variant(spec, _quaternionic_gl(spec, rng))
        old, new = instantiate(spec), instantiate(variant)
        assert (new.mat_i, new.mat_j) == (old.mat_i, old.mat_j)
        assert variant.structure != spec.structure
        assert _basis_free_report(ReportSession(variant)) == expected


@settings(max_examples=3, deadline=None)
@given(factor=st.fractions(min_value=-3, max_value=3, max_denominator=4)
       .filter(lambda factor: factor != 0))
@example(factor=Fraction(2))
@example(factor=Fraction(-1, 3))
@example(factor=Fraction(5, 2))
def test_tables_invariant_under_scaling(ex1, factor):
    variant = scaled_variant(ex1.spec, factor)
    assert _basis_free_report(ReportSession(variant)) == _basis_free_report(ex1)


@settings(max_examples=3, deadline=None)
@given(orders=st.lists(st.sampled_from(["example1", "torus8"]), min_size=2, max_size=3)
       .flatmap(lambda names: st.tuples(st.just(names), st.permutations(names))))
@example(orders=(["example1", "torus8"], ["torus8", "example1"]))
def test_tables_invariant_under_direct_sum_order(orders):
    # a direct sum written in two orders is one structure with its
    # generators in two orders
    first, second = ([load_corpus(name) for name in names] for names in orders)
    assert _basis_free_report(ReportSession(direct_sum_spec(*first))) == \
        _basis_free_report(ReportSession(direct_sum_spec(*second)))


def _sphere_variant(spec, mat_i, mat_j):
    """`spec` with I and J replaced by two other anticommuting points of
    its sphere of complex structures, K left to be I J."""
    structure = {k: [(i, j, c.constant_value().re) for i, j, c in terms]
                 for k, terms in spec.structure}
    rows = [[[Fraction(x.re) for x in row] for row in mat.data] for mat in (mat_i, mat_j)]
    return AlgebraSpec.create(spec.dimension, structure, *rows, name=f"{spec.name}-sphere")


@settings(max_examples=8, deadline=None)
@given(t=st.fractions(min_value=-3, max_value=3, max_denominator=4), negate_i=st.booleans())
@example(t=Fraction(1, 2), negate_i=False)
@example(t=Fraction(0), negate_i=True)
def test_tables_invariant_on_the_sphere_of_complex_structures(ex1, ex3, t, negate_i):
    # I' = +-I and J' = cJ + sIJ, with (c, s) = (1 - t^2, 2t) / (1 + t^2)
    # the rational point of the unit circle at t.  I' = -I (so K' = -K) gives
    # the conjugate complex; J' keeps I and is a unit multiple of J in each
    # degree of (p,0)-forms, so del_J' is a unit multiple of del_J.  Both
    # write the complex in a coframe no corpus structure has
    c, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    for session in (ex1, ex3):
        inst = instantiate(session.spec)
        mat_i = -inst.mat_i if negate_i else inst.mat_i
        mat_j = inst.mat_j.scale(c) + inst.mat_k.scale(s)
        variant = _sphere_variant(session.spec, mat_i, mat_j)
        assert _basis_free_report(ReportSession(variant)) == _basis_free_report(session)


def _one_dimensional_complex(del_entries, delj_entries):
    """Three one-dimensional degrees, each operator given by its two entries."""
    return MatrixComplex([1, 1, 1], [Mat.from_rows([[x]]) for x in del_entries],
                         [Mat.from_rows([[x]]) for x in delj_entries])


@pytest.mark.parametrize("del_entries, delj_entries, message", [
    ((1, 1), (0, 0), r"^del\^2 != 0 out of degree 0$"),
    ((0, 0), (1, 1), r"^del_J\^2 != 0 out of degree 0$"),
    ((1, 0), (0, 1), r"^del and del_J do not anticommute out of degree 0$"),
])
def test_constructor_refuses_a_complex_that_is_not_a_double_complex(
        del_entries, delj_entries, message):
    # each pair is a square-zero failure of one product only: del^2, del_J^2,
    # or del_J del = 1 while del del_J = 0
    with pytest.raises(ValueError, match=message):
        _one_dimensional_complex(del_entries, delj_entries)


def _hand_built_complex(swapped=False):
    """Left wedge by e^0 on two generators as del, or as del_J when
    swapped, and zero for the other differential."""
    wedge = [Mat.from_rows([[1], [0]]), Mat.from_rows([[0, 1]])]
    zero = [Mat.zeros(2, 1), Mat.zeros(1, 2)]
    return MatrixComplex([1, 2, 1], *((zero, wedge) if swapped else (wedge, zero)))


def test_hand_built_complex_zero_cohomology():
    # the wedge by e^0 is contractible in every degree
    table = _hand_built_complex().table()
    assert table.h_del == (0, 0, 0)
    assert table.h_delj == (1, 2, 1)
    assert table.dim_e2 == (0, 0, 0)
    # swapped, del = 0 keeps every class on page one and del_J kills them
    # all on page two
    table = _hand_built_complex(swapped=True).table()
    assert table.dim_e1 == (1, 2, 1)
    assert table.dim_e2 == (0, 0, 0)


def _all_e2(mc):
    return [mc.e2(p) for p in range(mc.top + 1)]


def test_e2_cross_check_catches_a_fault_in_the_page_iteration(monkeypatch):
    # with every class coordinate zero, d1 vanishes and page two is page one
    def no_coords(self, vectors, p, reps):
        return Mat.zeros(reps.ncols, vectors.ncols)

    monkeypatch.setattr(MatrixComplex, "_class_coords", no_coords)
    with pytest.raises(InternalInconsistency, match="page iteration gives"):
        _all_e2(_hand_built_complex(swapped=True))


def test_page_one_refuses_a_kernel_basis_that_misses_im_del():
    # with ker del at degree 1 given no basis, the image of del out of
    # degree 0, the wedge by e^0, is not inside it
    mc = _hand_built_complex()
    MatrixComplex._split.results(mc)[1,] = (Mat.zeros(0, mc.dim(1)), [])
    with pytest.raises(InternalInconsistency, match="Im del is not inside ker del at degree 1"):
        mc.e2_pages_all()


def test_page_one_refuses_a_del_j_image_outside_ker_del(monkeypatch, ex1):
    # del_J out of degree 1 replaced by a map that sends the first
    # representative to a vector del does not annihilate
    mc = MatrixComplex.from_quaternionic(ex1.cx)
    p = 1
    rep = mc._page_one(p).transpose().data[0]
    j = next(j for j, column in enumerate(mc.delta(p + 1).transpose().data) if any(column))
    k = next(k for k, x in enumerate(rep) if x)
    fault = Mat.from_entries(mc.dim(p + 1), mc.dim(p), {(j, k): 1})
    original = mc.delta_j
    monkeypatch.setattr(mc, "delta_j", lambda q: fault if q == p else original(q))
    with pytest.raises(InternalInconsistency, match="failed to land in ker del"):
        mc.e2_pages_all()


def test_e2_cross_check_catches_a_fault_in_the_rank_formula(monkeypatch):
    def skewed(self, name, p, original=MatrixComplex.rank):
        return original(self, name, p) + (name == "e2_num")

    monkeypatch.setattr(MatrixComplex, "rank", skewed)
    with pytest.raises(InternalInconsistency, match="page iteration gives"):
        _all_e2(_hand_built_complex(swapped=True))


def test_jbar_identities_are_checked_exactly_on_quaternionic_complexes(ex1):
    # del of example1 with a zero del_J: h_del and h_delJ differ, which
    # only a complex given its quaternionic dimension refuses
    mc = ex1.mc
    dels = [mc.delta(p) for p in range(mc.top)]
    zeros = [Mat.zeros(m.nrows, m.ncols) for m in dels]
    plain = MatrixComplex(mc.dims, dels, zeros).table()
    assert plain.h_del != plain.h_delj
    with pytest.raises(InternalInconsistency, match="on a Jbar-symmetric complex"):
        MatrixComplex(mc.dims, dels, zeros, quaternionic_dim=2).table()


def _assert_caches_match_fresh_work(mc):
    # the split's kernel of del serves the ranks, the kernels of del and
    # page one, and the constructor's del del_J serves ddj; each is formed
    # once at run time, so here they are formed again and compared
    mc.table()
    for p in range(mc.top + 1):
        assert (p,) in MatrixComplex._split.results(mc)
        kernel = kernel_basis(mc.delta(p))
        assert mc._split(p) == (kernel, last_nonzero_columns(kernel))
        assert mc.ddj(p) == mc.delta(p + 1) @ mc.delta_j(p)


def test_cached_kernels_and_ddj_match_fresh_work_on_corpus(corpus_sessions):
    for session in corpus_sessions:
        _assert_caches_match_fresh_work(session.mc)


@pytest.mark.parametrize("conjugate", [False, True], ids=["plain", "conjugated"])
def test_cached_kernels_and_ddj_match_fresh_work_on_random_complexes(conjugate):
    rng = Random(31)
    for k in (2, 3, 4):
        _assert_caches_match_fresh_work(random_double_complex(rng, k, conjugate))


def test_cached_kernels_and_ddj_match_fresh_work_on_dense_wedge_complexes():
    # every coefficient of both one-forms nonzero, as in the dense-complex
    # benchmark, in the monomial basis and in a random one
    for mc in koszul_pair(Random(7), k=5):
        _assert_caches_match_fresh_work(mc)


def test_e2_cross_check_on_corpus(corpus_sessions):
    for session in corpus_sessions:
        mc = session.mc
        table = mc.table()
        for p in range(mc.top + 1):
            # e2 runs the quotient formula and the page iteration and
            # raises on any mismatch
            assert mc.e2(p) == table.dim_e2[p]


def test_e2_cross_check_on_random_complexes():
    rng = Random(99)
    for trial in range(12):
        mc = random_double_complex(rng, k=4, conjugate=trial % 3 == 0)
        for p in range(mc.top + 1):
            mc.e2(p)


def test_direct_sum_adds_dimensions():
    rng = Random(5)
    a = random_double_complex(rng, k=3)
    b = random_double_complex(rng, k=3)
    s = direct_sum_complex(a, b)
    ta, tb, ts = a.table(), b.table(), s.table()
    for p in range(a.top + 1):
        assert ts.h_del[p] == ta.h_del[p] + tb.h_del[p]
        assert ts.h_bc[p] == ta.h_bc[p] + tb.h_bc[p]
        assert ts.h_ae[p] == ta.h_ae[p] + tb.h_ae[p]
        assert ts.dim_e2[p] == ta.dim_e2[p] + tb.dim_e2[p]


def test_lemma_equivalence_is_cross_checked(corpus_sessions):
    # the function itself raises if its two characterizations disagree
    expected = {"example1": False, "torus8": True, "example2": None,
                "example3": False}
    for session in corpus_sessions:
        value = ddj_lemma_holds(session.mc.table())
        want = expected[session.spec.name]
        if want is not None:
            assert value is want


# -- the rank formulas against subspace arithmetic ---------------------------


def _assert_block_ranks_match_reference(mc):
    # the ranks read off the split of del, against eliminating each block;
    # the E2 denominator's block has the rank of e2_num
    for p in range(-1, mc.top + 1):
        assert mc.rank("del", p) == rank(mc.delta(p))
        for name in BLOCK_NAMES:
            read = "e2_num" if name == "e2_den" else name
            assert mc.rank(read, p) == rank(reference_block(mc, name, p)), (name, p)


def _assert_matches_reference(mc):
    _assert_block_ranks_match_reference(mc)
    ref = reference_table(mc)
    for p in range(mc.top + 1):
        # by subspaces the exactness sums are theorems, not identities
        assert ref.a[p] - ref.b[p] + ref.h_del[p] - ref.h_ae[p] + ref.c[p] == 0
        assert ref.d[p] - ref.h_bc[p] + ref.h_del[p] - ref.e[p] + ref.f[p] == 0
    assert mc.table() == ref


complexes = st.builds(
    lambda seed, k, conjugate: random_double_complex(Random(seed), k, conjugate),
    st.integers(0, 10**6), st.integers(2, 4), st.booleans(),
)


@settings(max_examples=25, deadline=None)
@given(complexes)
def test_table_matches_subspace_reference(mc):
    _assert_matches_reference(mc)


@settings(max_examples=10, deadline=None)
@given(complexes)
def test_table_matches_subspace_reference_with_one_zero_differential(mc):
    _assert_matches_reference(_with_zero(mc, "del_J"))
    _assert_matches_reference(_with_zero(mc, "del"))


def _with_zero(mc, which):
    """mc's del in place of one differential, and zero for the other."""
    zeros = [Mat.zeros(mc.dim(p + 1), mc.dim(p)) for p in range(mc.top)]
    dels = [mc.delta(p) for p in range(mc.top)]
    return MatrixComplex(mc.dims, *((dels, zeros) if which == "del_J" else (zeros, dels)))


@settings(max_examples=10, deadline=None)
@given(complexes, st.integers(0, 10**6), st.booleans())
def test_table_matches_subspace_reference_on_direct_sums(mc, seed, conjugate):
    other = random_double_complex(Random(seed), mc.top, conjugate)
    _assert_matches_reference(direct_sum_complex(mc, other))


def test_table_matches_subspace_reference_on_corpus(corpus_sessions):
    for session in corpus_sessions:
        _assert_matches_reference(session.mc)


# -- block ranks at edge degrees; no block operator is eliminated -----------


def _edge_complexes():
    koszul, twin = koszul_pair(Random(11), k=3)
    square = Mat.from_rows([[1, 2], [0, 1]])
    return {
        # del is injective out of degree 0 and onto degree top
        "koszul": koszul,
        "koszul-conjugated": twin,
        # del is invertible: its kernel is empty and it has full rank
        "isomorphism": MatrixComplex([2, 2], [square], [Mat.from_rows([[0, 1], [1, 0]])]),
        # del is zero in every degree
        "zero-del": _with_zero(koszul, "del"),
        # a zero-dimensional degree in the middle
        "empty-degree": MatrixComplex(
            [1, 0, 1], [Mat.zeros(0, 1), Mat.zeros(1, 0)],
            [Mat.zeros(0, 1), Mat.zeros(1, 0)]),
    }


@pytest.mark.parametrize("label", sorted(_edge_complexes()))
def test_block_ranks_match_reference_blocks_at_edge_degrees(label):
    mc = _edge_complexes()[label]
    full_column = [p for p in range(mc.top) if rank(mc.delta(p)) == mc.dim(p)]
    onto = [p for p in range(mc.top) if rank(mc.delta(p)) == mc.dim(p + 1)]
    zero = [p for p in range(mc.top) if mc.delta(p).is_zero()]
    # each complex reaches the edge it is listed for
    if label.startswith("koszul"):
        assert 0 in full_column and mc.top - 1 in onto
    elif label == "isomorphism":
        assert full_column == onto == [0]
    else:
        assert zero == list(range(mc.top))
    _assert_matches_reference(mc)


def _free_rows(mc, matrix, p):
    """The rows of a degree-p matrix at the free columns of kernel_basis(del_p)."""
    free = last_nonzero_columns(kernel_basis(mc.delta(p)))
    return matrix.block(free, range(matrix.ncols))


def test_table_eliminates_no_block_operator(monkeypatch, ex1, ex3):
    # the ranks come from one kernel of each del_p and, per degree, one
    # pivot pass over [del_J_p | del_p] on every row, one over [del_p | JK_p]
    # and one rank each of JK_p and ddj_p, all three on the free rows of
    # the kernel basis one or two degrees up; page one picks its
    # representatives by one pass over [del_{p-1} | I] on the free rows F_p.
    # No block operator and no transpose of a del_p (a left kernel) is
    # eliminated
    rng = Random(17)
    complexes = [random_double_complex(rng, 4), random_double_complex(rng, 4, True),
                 *koszul_pair(rng, k=4),
                 MatrixComplex.from_quaternionic(ex1.cx),
                 MatrixComplex.from_quaternionic(ex3.cx)]
    received = {"rank": [], "kernel_basis": [], "pivot_columns": []}

    def recording(name):
        function = getattr(cohomology, name)

        def wrapped(matrix):
            received[name].append(matrix)
            return function(matrix)
        return wrapped

    for name in received:
        monkeypatch.setattr(cohomology, name, recording(name))
    for mc in complexes:
        mc.table()
    monkeypatch.undo()
    blocks = {reference_block(mc, name, p)
              for mc in complexes for name in BLOCK_NAMES for p in range(mc.top)}
    transposes = {mc.delta(p).transpose()
                  for mc in complexes for p in range(mc.top) if not mc.delta(p).is_zero()}
    assert received["rank"] and received["kernel_basis"]
    # where del_p = 0 and del_{p+1} = 0, [del_p | JK_p] is [del | del_J]
    # itself; the pivot passes are pinned below instead
    assert not [m for m in received["rank"] + received["kernel_basis"] if m in blocks]
    assert not [m for calls in received.values() for m in calls if m in transposes]
    passes, ranked = Counter(), Counter()
    for mc in complexes:
        assert [sum(m is mc.delta(p) for m in received["kernel_basis"])
                for p in range(mc.top)] == [1] * mc.top
        # one kernel basis row per free column
        nfree = [kernel_basis(mc.delta(p)).nrows for p in range(mc.top + 3)]
        for p in range(mc.top):
            side = mc.delta_j(p).hstack(mc.delta(p))
            jk = _free_rows(mc, mc.delta_j(p), p + 1) @ kernel_basis(mc.delta(p)).transpose()
            e2_num = _free_rows(mc, mc.delta(p), p + 1).hstack(jk)
            ddj = _free_rows(mc, mc.delta(p + 1) @ mc.delta_j(p), p + 2)
            # only [del_J | del] sees every row
            assert (side.nrows, jk.nrows, e2_num.nrows, ddj.nrows) == (
                mc.dim(p + 1), nfree[p + 1], nfree[p + 1], nfree[p + 2])
            passes.update([side, e2_num])
            ranked.update([jk, ddj])
        for p in range(mc.top + 1):
            passes[_free_rows(mc, mc.delta(p - 1), p).hstack(Mat.identity(nfree[p]))] += 1
    assert Counter(received["pivot_columns"]) == passes
    # the other ranks are those of d1, one per degree
    assert not ranked - Counter(received["rank"])
    assert sum(ranked.values()) + sum(mc.top + 1 for mc in complexes) == len(received["rank"])


def test_rank_refuses_an_unknown_name_at_every_degree(ex1):
    # outside 0..top-1 every rank is zero, but only for the six names
    mc = ex1.mc
    for p in (-1, 0, mc.top):
        with pytest.raises(KeyError):
            mc.rank("e2_den", p)
    assert mc.rank("ddj", -2) == 0


def _drop_a_kernel_row(mc, p):
    """Replace the split of del_p by K_p without its first row and F_p
    without that row's free column."""
    kernel, free = mc._split(p)
    MatrixComplex._split.results(mc)[p,] = (
        kernel.block(range(1, kernel.nrows), range(kernel.ncols)), free[1:])


def test_pivot_pass_refuses_a_kernel_that_lost_a_row():
    # the pivots among del_p's columns of [del_p | JK_p] must number
    # dim_p - rows of K; every block rank at p comes from the one record
    # that check guards, and only the rank of del reads the short kernel
    mc = random_double_complex(Random(5), 4)
    p = next(p for p in range(mc.top) if mc.closed(p).nrows)
    _drop_a_kernel_row(mc, p)
    assert mc.rank("del", p) == rank(mc.delta(p)) + 1
    for name in ("del_J", "side", "ddj", "stacked", "e2_num"):
        with pytest.raises(InternalInconsistency, match=f"del at degree {p} disagree"):
            mc.rank(name, p)


def test_page_one_pick_refuses_a_kernel_one_degree_down_that_lost_a_row():
    # the pick's pivots among del_{p-1}'s columns must number its rank,
    # dim_{p-1} - rows of K_{p-1}
    mc = random_double_complex(Random(5), 4)
    p = next(p for p in range(1, mc.top + 1) if mc.closed(p - 1).nrows)
    _drop_a_kernel_row(mc, p - 1)
    with pytest.raises(InternalInconsistency,
                       match=f"at degree {p}: the pick finds .* whose rank is"):
        mc._page_one(p)


def test_class_coordinates_refuse_representatives_that_miss_a_class(ex1):
    # without its last representative, page one does not complete Im del to
    # ker del, and that representative has no coordinates on the others
    mc = ex1.mc
    p = next(p for p in range(mc.top + 1) if mc._page_one(p).ncols)
    reps = mc._page_one(p)
    fewer = reps.block(range(reps.nrows), range(reps.ncols - 1))
    with pytest.raises(InternalInconsistency, match=f"do not span ker del at degree {p}"):
        mc._class_coords(reps, p, fewer)


# -- every rank the table reads against the full-row operator -----------------


def _assert_ranks_match_full_row_operators(mc):
    # the table ranks ddj, stacked and e2_num on free-coordinate rows and
    # picks page one there; the operators here are built on every row
    mc.table()
    for p in range(mc.top):
        d, dj = mc.delta(p), mc.delta_j(p)
        zero = Mat.zeros(mc.dim(p + 1), mc.dim(p))
        full = {"del": d, "del_J": dj, "ddj": mc.delta(p + 1) @ dj,
                "stacked": d.vstack(dj), "side": d.hstack(dj),
                "e2_num": d.hstack(zero).vstack(dj.hstack(-d))}
        for name, operator in full.items():
            assert mc.rank(name, p) == rank(operator), (name, p)
    for p in range(mc.top + 1):
        picked = complement_basis(kernel_basis(mc.delta(p)), mc.delta(p - 1))
        assert mc._page_one(p) == picked.transpose()


def test_ranks_match_full_row_operators_on_corpus(corpus_sessions):
    for session in corpus_sessions:
        _assert_ranks_match_full_row_operators(session.mc)


@pytest.mark.parametrize("conjugate", [False, True], ids=["plain", "conjugated"])
def test_ranks_match_full_row_operators_on_random_complexes(conjugate):
    rng = Random(41)
    for k in (2, 3, 4, 5):
        _assert_ranks_match_full_row_operators(random_double_complex(rng, k, conjugate))


def test_ranks_match_full_row_operators_on_dense_wedge_complexes():
    for mc in koszul_pair(Random(43), k=5):
        _assert_ranks_match_full_row_operators(mc)


def test_ranks_match_full_row_operators_in_dimension_20():
    spec = direct_sum_spec(load_corpus("example3"), load_corpus("torus8"))
    assert spec.dimension == 20
    _assert_ranks_match_full_row_operators(ReportSession(spec).mc)


# -- Koszul complexes: the dense-complex benchmark's own oracle ---------------


@pytest.mark.parametrize("seed", range(3))
def test_koszul_complexes_are_exact_in_every_basis(seed):
    plain, twin = koszul_pair(Random(seed))
    table = plain.table()
    assert table.h_del == (0,) * 7
    assert twin.table() == table


# -- kernels and images of the named operators against the lattice ---------
#
# The Bott-Chern and Aeppli class bases are rows of the canonical basis of
# one operator's kernel that complete another's image; the lattice builds
# each kernel and image on its own route and sums them here.


def _assert_operator_spaces_match_lattice(mc):
    # the class bases read only the complex, so no structure stands behind it
    sl = SLStructure(None, mc)
    for p in range(mc.top + 1):
        ker_del = kernel_space(mc.delta(p))
        assert row_basis(mc.closed(p)) == ker_del
        ker_both = intersect(ker_del, kernel_space(mc.delta_j(p)))
        ker_ddj = kernel_space(mc.delta(p + 1) @ mc.delta_j(p))
        im_ddj = column_space(mc.delta(p - 1) @ mc.delta_j(p - 2))
        im_side = space_sum(column_space(mc.delta(p - 1)), column_space(mc.delta_j(p - 1)))
        for basis, kernel, image, h in (
                (sl._bc_representatives(p), ker_both, im_ddj, mc.h_bc(p)),
                (sl._ae_representatives(p), ker_ddj, im_side, mc.h_ae(p))):
            # rows of the kernel's canonical basis that span it together
            # with the image, with no redundant row
            assert set(basis.data) <= set(kernel.data)
            assert space_sum(basis, image) == kernel
            assert basis.nrows + image.nrows == kernel.nrows
            assert basis.nrows == h
        assert sl._bc_representatives(p) is sl._bc_representatives(p)
        assert sl._ae_representatives(p) is sl._ae_representatives(p)


@settings(max_examples=25, deadline=None)
@given(complexes)
def test_operator_kernels_and_images_match_lattice(mc):
    _assert_operator_spaces_match_lattice(mc)


@settings(max_examples=10, deadline=None)
@given(complexes, st.integers(0, 10**6), st.booleans())
def test_operator_kernels_and_images_match_lattice_on_direct_sums(mc, seed, conjugate):
    other = random_double_complex(Random(seed), mc.top, conjugate)
    _assert_operator_spaces_match_lattice(direct_sum_complex(mc, other))


def test_operator_kernels_and_images_match_lattice_on_corpus(corpus_sessions):
    for session in corpus_sessions:
        _assert_operator_spaces_match_lattice(session.mc)


@settings(max_examples=20, deadline=None)
@given(complexes, st.integers(0, 10**6))
def test_page_one_coordinates_match_per_vector_solves(mc, seed):
    rng = Random(seed)
    pages = [mc._page_one(p) for p in range(mc.top + 1)]
    reps = {p: list(page.transpose().data) for p, page in enumerate(pages)}
    for p, page_reps in enumerate(pages):
        # the representatives, one per column, complete a basis of Im del
        # to one of ker del
        exact = column_space(mc.delta(p - 1))
        closed = row_basis(mc.closed(p))
        assert row_basis(page_reps.transpose().vstack(exact)) == closed
        assert page_reps.ncols + exact.nrows == closed.nrows
        vectors = list((mc.delta_j(p - 1) @ pages[p - 1]).transpose().data) if p else []
        vectors += list(closed.data)
        for _ in range(2 if closed.nrows else 0):
            weights = [rng.randint(-2, 2) for _ in range(closed.nrows)]
            vectors.append((Mat.from_rows([weights], ncols=closed.nrows) @ closed).data[0])
        columns = Mat.from_rows(vectors, ncols=mc.dim(p)).transpose()
        coords = mc._class_coords(columns, p, pages[p])
        assert coords.transpose().data == tuple(
            reference_class_coords(mc, v, p, reps) for v in vectors
        )


# -- real dimension 16: a product with a torus --------------------------------


def _binomial_row(n):
    row = [1]
    for _ in range(n):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    return row


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def test_product_with_torus_convolves_every_row(ex1):
    # example1 + R^8 is example1's complex tensored with one whose
    # differentials vanish, so every rank, and so every row, convolves
    # with the torus's (p,0) dimensions binomial(4, p)
    spec = direct_sum_spec(load_corpus("example1"), load_corpus("torus8"))
    table = ReportSession(spec).mc.table()
    small = ex1.mc.table()
    torus = _binomial_row(4)
    assert table.h_bc == (1, 6, 19, 40, 56, 50, 27, 8, 1)
    for column in ("h_del", "h_delj", "h_bc", "h_ae", "a", "b", "c", "d",
                   "e", "f", "dim_e1", "dim_e2", "delta"):
        assert getattr(table, column) == _convolve(getattr(small, column), torus)


def test_example3_times_torus_convolves_every_row_in_dimension_20(ex3):
    # the same oracle one step up the ladder: example3 + R^8 has real
    # dimension 20, and every row is example3's convolved with binomial(4, p)
    spec = direct_sum_spec(load_corpus("example3"), load_corpus("torus8"))
    table = ReportSession(spec).mc.table()
    small = ex3.mc.table()
    torus = _binomial_row(4)
    assert table.top_degree == 10
    for column in ("h_del", "h_delj", "h_bc", "h_ae", "a", "b", "c", "d",
                   "e", "f", "dim_e1", "dim_e2", "delta"):
        assert getattr(table, column) == _convolve(getattr(small, column), torus)


def test_square_of_example1_convolves_the_single_differential_rows(ex1):
    # Over a field, the cohomology of a tensor product of complexes is the
    # tensor product of their cohomologies (Kunneth), for del and del_J
    # alone and for E1 with its tensor differential d1, so those rows of
    # example1 + example1 are example1's convolved with themselves.  The
    # Bott-Chern row mixes both differentials and is no such product.
    spec = direct_sum_spec(load_corpus("example1"), load_corpus("example1"))
    table = ReportSession(spec).mc.table()
    small = ex1.mc.table()
    for column in ("h_del", "h_delj", "dim_e1", "dim_e2"):
        assert getattr(table, column) == _convolve(getattr(small, column),
                                                   getattr(small, column))
    assert table.h_bc == (1, 4, 14, 30, 44, 40, 25, 8, 1)
    assert _convolve(small.h_bc, small.h_bc) != table.h_bc


def test_example3_plus_example1_convolves_the_single_differential_rows(ex1, ex3):
    # Kunneth in real dimension 20 with both summands non-abelian: h_del,
    # h_delJ, E1 and E2 of example3 + example1 are the convolutions of the
    # summands' rows; h_BC is no such product, and Aeppli duality reverses it
    spec = direct_sum_spec(load_corpus("example3"), load_corpus("example1"))
    table = ReportSession(spec).mc.table()
    big, small = ex3.mc.table(), ex1.mc.table()
    for column in ("h_del", "h_delj", "dim_e1", "dim_e2"):
        assert getattr(table, column) == _convolve(getattr(big, column),
                                                   getattr(small, column))
    assert table.h_del == (1, 7, 25, 58, 94, 110, 94, 58, 25, 7, 1)
    assert table.h_bc == (1, 6, 22, 58, 101, 136, 123, 82, 35, 10, 1)
    assert table.h_ae == table.h_bc[::-1]
