import dataclasses
import re
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from quatcohom import (AlgebraSpec, GaussianRational, ReportSession, load_corpus,
                       validate_hypercomplex)
from quatcohom.errors import (
    CoefficientParseError,
    DimensionMismatch,
    EigenspaceDimensionError,
    PoleAtBinding,
    SchemaError,
    UnboundParameter,
    ValidationFailure,
)
from quatcohom.model import (_antihol_defect, _basis_change, _build_coframe,
                             _coframe_differentials, _integrable, _jacobi_messages,
                             _nilpotency_step, _square_of_d, instantiate)
from quatcohom.quaternionic import QuaternionicComplex
from quatcohom.linalg import Mat, kernel_basis, row_basis
from quatcohom.scalars import MAX_DIGITS, ONE, ZERO, ParamExpr

from support import (HH_I, I4, J4, Form, affine_complex_spec, coframe_variant,
                     direct_sum_spec, hh_abelian_defect, hh_algebra, hh_constants,
                     hh_integrability_matrix, hh_integrable_kernel, hh_structures,
                     i_nonintegrable_spec, jacobi_broken_spec, nonintegrable_spec,
                     random_gl, reference_algebra, reference_bracket,
                     reference_differentials_in_basis, reference_nilpotency_step,
                     relation_broken_spec,
                     scaled_variant, solvable_spec)


def test_corpus_validates():
    for name, bindings in (("example1", None), ("torus8", None),
                           ("example2", {"t": Fraction(2, 5)}),
                           ("example3", None)):
        report = validate_hypercomplex(load_corpus(name), bindings)
        assert report.ok, report.summary()
        assert report.integrability == {"I": True, "J": True, "K": True}


def test_nilpotency_steps():
    assert validate_hypercomplex(load_corpus("torus8")).nilpotency_step == 1
    assert validate_hypercomplex(load_corpus("example1")).nilpotency_step == 2
    assert validate_hypercomplex(load_corpus("example3")).nilpotency_step == 2


def test_jacobi_failure_detected():
    report = validate_hypercomplex(jacobi_broken_spec())
    assert report.jacobi_ok is False
    assert report.messages


def test_quaternion_relation_failure_detected():
    report = validate_hypercomplex(relation_broken_spec())
    assert report.quaternionic_relations_ok is False
    assert not report.ok


def test_integrability_failure_names_the_structure():
    report = validate_hypercomplex(nonintegrable_spec())
    assert report.integrability["I"] is True
    assert report.integrability["J"] is False
    assert not report.ok
    with pytest.raises(ValidationFailure):
        QuaternionicComplex.build(nonintegrable_spec())


@pytest.mark.parametrize("make", [jacobi_broken_spec, relation_broken_spec, nonintegrable_spec,
                                  i_nonintegrable_spec, solvable_spec],
                         ids=lambda make: make.__name__)
def test_validation_report_is_one_frozen_record(make):
    report = validate_hypercomplex(make())
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.jacobi_ok = True
    assert (report.ok is False) == bool(report.messages)
    assert report.nilpotent_ok == (report.nilpotency_step is not None)


def test_unbound_parameter_and_pole():
    spec = load_corpus("example2")
    with pytest.raises(UnboundParameter):
        instantiate(spec)
    for bad in (Fraction(0), Fraction(1)):
        with pytest.raises(PoleAtBinding):
            instantiate(spec, {"t": bad})


def test_coefficient_errors_name_the_entry():
    imaginary = GaussianRational(0, 1)
    bad_i = [list(row) for row in I4]
    bad_i[0][1] = imaginary
    tall_k = [[GaussianRational(10 ** MAX_DIGITS), 0, 0, 0]] + [[0] * 4] * 3
    for spec, error, message in (
            (AlgebraSpec.create(4, {4: [(1, 2, imaginary)]}, I4, J4), SchemaError,
             "coefficient of e^1^e^2 in de^4 must be real, got i"),
            (AlgebraSpec.create(4, {}, bad_i, J4), SchemaError, "I[1][2] must be real, got i"),
            (AlgebraSpec.create(4, {}, I4, J4, op_k=tall_k), CoefficientParseError,
             f"K[1][1]: value has more than {MAX_DIGITS} digits")):
        with pytest.raises(error) as caught:
            instantiate(spec)
        assert str(caught.value) == message


@pytest.mark.parametrize("bad", [1.5, None, [1]], ids=repr)
def test_create_refuses_a_coefficient_of_another_type(bad):
    # in a table and in a structure term alike, named by its value
    for args in (({}, [[bad] * 4] * 4, J4), ({4: [(1, 2, bad)]}, I4, J4)):
        with pytest.raises(TypeError, match=f"got {re.escape(repr(bad))}$"):
            AlgebraSpec.create(4, *args)


def test_coframe_shape():
    spec = load_corpus("example1")
    coframe = _build_coframe(instantiate(spec))
    # half of the real dimension many rows, each over the 8 real covectors
    assert (coframe.nrows, coframe.ncols) == (4, 8)


def test_k_table_checked_when_given():
    spec = load_corpus("example1")
    inst = instantiate(spec)
    assert inst.mat_k == inst.mat_i @ inst.mat_j


# -- the bracket kernel against the coordinate routes it replaced --


def _kernel_cases():
    cases = [(name, load_corpus(name), None)
             for name in ("example1", "example3", "torus8")]
    for t in ("1/3", "2", "-1", "3/4"):
        cases.append((f"example2@{t}", load_corpus("example2"), {"t": Fraction(t)}))
    for seed in range(6):
        spec = coframe_variant(load_corpus("example1"), random_gl(Random(seed), 8))
        cases.append((f"example1-coframe{seed}", spec, None))
    cases.append(("example3+example3", direct_sum_spec(
        load_corpus("example3"), load_corpus("example3")), None))
    # structures that fail a check, so that the defects and the stalled
    # series are compared too
    for make in (jacobi_broken_spec, nonintegrable_spec, i_nonintegrable_spec,
                 solvable_spec, affine_complex_spec):
        cases.append((make().name, make(), None))
    return cases


KERNEL_CASES = _kernel_cases()
KERNEL_IDS = [case[0] for case in KERNEL_CASES]


@pytest.mark.parametrize("spec, bindings", [case[1:] for case in KERNEL_CASES],
                         ids=KERNEL_IDS)
def test_nilpotency_step_matches_the_coordinate_bracket(spec, bindings):
    inst = instantiate(spec, bindings)
    assert _nilpotency_step(inst) == reference_nilpotency_step(inst)


def _as_forms(terms_by_row):
    return [Form.from_terms(dict(terms)) for terms in terms_by_row]


def _bases(inst):
    """The bases whose differentials validation and the complex read, as
    the rows of a matrix: the +i eigenbases of I, J and K, and the
    J-paired coframe of I."""
    builders = [("coframe", lambda: _build_coframe(inst))]
    builders += [(label, lambda label=label: row_basis(inst.eigenspace(label)[0]))
                 for label in ("I", "J", "K")]
    for label, build in builders:
        try:
            yield label, build()
        except (EigenspaceDimensionError, DimensionMismatch):
            continue


@pytest.mark.parametrize("spec, bindings", [case[1:] for case in KERNEL_CASES],
                         ids=KERNEL_IDS)
def test_coframe_differentials_match_the_form_wedge_route(spec, bindings):
    inst = instantiate(spec, bindings)
    m, half = inst.dimension, inst.dimension // 2
    pairs = list(combinations(range(m), 2))
    upper = list(combinations(range(half, m), 2))
    for label, forms in _bases(inst):
        b, c = _basis_change(forms)
        reference = reference_differentials_in_basis(inst, b, c, m)
        # every d psi^r, and its (0,2) part, which for r < half is the
        # integrability defect of the r-th (1,0)-form
        assert _as_forms(_coframe_differentials(inst, b, c, m, pairs)) == reference, label
        defects = [Form.from_terms({mono: x for mono, x in form.terms.items()
                                    if min(mono) >= half}) for form in reference]
        assert _as_forms(_coframe_differentials(inst, b, c, m, upper)) == defects, label
        first = next(((a, form) for a, form in enumerate(defects[:half])
                      if not form.is_zero()), None)
        defect = _antihol_defect(inst, forms)
        if defect is not None:
            defect = defect[0], Form.from_terms(dict(defect[1]))
        assert defect == first, label
        # the kernel's test needs no basis change and holds for any basis,
        # and the row space of M - i is what the kernel basis of M - i annihilates
        assert _integrable(inst, forms, kernel_basis(forms)) is (first is None), label
        if label != "coframe":
            space, vectors = inst.eigenspace(label)
            assert row_basis(kernel_basis(space)) == vectors, label
            assert _integrable(inst, space, vectors) is (first is None), label


# -- the Jacobi check on term lists against d extended to forms --


def _assert_square_of_d_matches(inst):
    alg = reference_algebra(inst)
    squares = [Form.from_terms(terms) for terms in _square_of_d(inst)]
    assert squares == [alg.d(alg.d_images[k]) for k in range(inst.dimension)]
    messages = _jacobi_messages(inst)
    assert (not messages) is all(square.is_zero() for square in squares)
    assert messages == [
        f"d^2 e^{k + 1} = {square}, so the Jacobi identity fails"
        for k, square in enumerate(squares) if not square.is_zero()]
    return squares


@pytest.mark.parametrize("spec, bindings", [case[1:] for case in KERNEL_CASES],
                         ids=KERNEL_IDS)
def test_square_of_d_matches_the_exterior_algebra(spec, bindings):
    _assert_square_of_d_matches(instantiate(spec, bindings))


def test_square_of_d_matches_the_exterior_algebra_at_dim_28():
    spec = direct_sum_spec(load_corpus("example3"), load_corpus("example1"),
                           load_corpus("torus8"))
    assert spec.dimension == 28
    _assert_square_of_d_matches(instantiate(spec))


@st.composite
def sparse_structures(draw):
    """A structure on 3 to 6 generators with a few terms, zero I and J.

    Two-step ones (de^k only for k past a cut, over pairs below it)
    satisfy the Jacobi identity; the others mostly do not.  Repeated pairs
    and coefficients that cancel are drawn too.
    """
    m = draw(st.integers(3, 6))
    two_step = draw(st.booleans())
    cut = draw(st.integers(2, m - 1)) if two_step else m
    rows = range(cut + 1, m + 1) if two_step else range(1, m + 1)
    pairs = list(combinations(range(1, cut + 1), 2))
    coeffs = st.sampled_from([1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 4),
                              Fraction(2, 3), Fraction(-5, 6)])
    terms = draw(st.lists(st.tuples(st.sampled_from(list(rows)), st.sampled_from(pairs),
                                    coeffs), max_size=8))
    structure = {}
    for k, (i, j), c in terms:
        structure.setdefault(k, []).append((i, j, c))
    zero = [[0] * m for _ in range(m)]
    return two_step, AlgebraSpec.create(m, structure, zero, zero)


@settings(max_examples=150, deadline=None)
@given(sparse_structures())
def test_square_of_d_matches_the_exterior_algebra_on_random_structures(drawn):
    two_step, spec = drawn
    inst = instantiate(spec)
    squares = _assert_square_of_d_matches(inst)
    if two_step:
        assert all(square.is_zero() for square in squares)
    # the coefficient of e^xyz in d^2 e^k is the Jacobiator of e_x, e_y, e_z,
    # minus twice over, so the coordinate bracket's
    m = inst.dimension
    unit = Mat.identity(m).data
    for x, y, z in combinations(range(m), 3):
        jacobiator = [ZERO] * m
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            nested = reference_bracket(inst, reference_bracket(inst, unit[a], unit[b]), unit[c])
            jacobiator = [s + t for s, t in zip(jacobiator, nested)]
        for k in range(m):
            assert squares[k].coefficient((x, y, z)) == jacobiator[k]


gaussian_rationals = st.builds(
    GaussianRational,
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool))
# one to four vectors of the largest drawn length, 6, cut to the structure's
# length in the test: entries zero or non-real, whole vectors zero too
vector_rows = st.lists(st.lists(st.one_of(st.just(ZERO), gaussian_rationals),
                                min_size=6, max_size=6), min_size=1, max_size=4)
NO_TERMS = AlgebraSpec.create(5, {}, [[0] * 5] * 5, [[0] * 5] * 5)


@settings(max_examples=150, deadline=None)
@given(sparse_structures(), vector_rows, vector_rows)
@example((False, NO_TERMS), [[GaussianRational(1, 2)] * 6], [[ZERO] * 6, [ONE] * 6])
def test_bracket_kernel_matches_the_coordinate_bracket(drawn, left, right):
    inst = instantiate(drawn[1])
    m = inst.dimension
    left, right = [row[:m] for row in left], [row[:m] for row in right]
    pairs = [(s, t) for s in range(len(left)) for t in range(len(right))]
    brackets = inst.brackets(Mat.from_rows(left), Mat.from_rows(right), pairs)
    # beta is minus the Lie bracket
    assert brackets.data == tuple(
        tuple(-x for x in reference_bracket(inst, left[s], right[t])) for s, t in pairs)


@settings(max_examples=150, deadline=None)
@given(sparse_structures())
@example((False, NO_TERMS))
def test_nilpotency_step_matches_the_coordinate_bracket_on_random_structures(drawn):
    # step one brackets each unordered pair of generators, so repeated and
    # cancelling pairs and structures that are not Lie algebras or not
    # nilpotent are drawn too
    inst = instantiate(drawn[1])
    assert _nilpotency_step(inst) == reference_nilpotency_step(inst)


def test_structure_terms_are_summed_per_pair():
    # a repeated pair adds up, a cancelled one is dropped, rows are 0-based
    spec = AlgebraSpec.create(4, {3: [(1, 2, 1), (1, 2, 2)], 4: [(1, 3, 1), (1, 3, -1)]},
                              I4, J4)
    inst = instantiate(spec)
    assert inst.structure == ((), (), ((0, 1, GaussianRational(3)),), ())
    assert inst.denominator == 1
    assert inst.ad[0] == ((2, 1, 3),)
    assert inst.ad[1] == ((2, 0, -3),)
    # the kernel's integer terms are held over the lcm of the denominators
    spec = AlgebraSpec.create(4, {3: [(1, 2, Fraction(1, 2))], 4: [(1, 3, Fraction(-2, 3))]},
                              I4, J4)
    inst = instantiate(spec)
    assert inst.denominator == 6
    assert inst.ad == (((2, 1, 3), (3, 2, -4)), ((2, 0, -3),), ((3, 0, 4),), ())


def test_each_distinct_table_entry_is_evaluated_once_and_fails_first_in_place():
    # the same non-real entry twice in I, and once in J: the error names
    # the first, as an entry-by-entry evaluation would
    calls = []
    original = ParamExpr.evaluate

    def counting(expr, bindings):
        calls.append(expr)
        return original(expr, bindings)

    rows = [list(row) for row in I4]
    rows[0][2] = rows[3][1] = "i"
    spec = AlgebraSpec.create(4, {}, rows, [["i"] * 4] * 4)
    with pytest.raises(SchemaError, match=r"^I\[1\]\[3\] must be real, got i$"):
        instantiate(spec)
    spec = AlgebraSpec.create(4, {4: [(1, 2, 1), (1, 3, 1)]}, I4, J4)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ParamExpr, "evaluate", counting)
        inst = instantiate(spec)
    assert len(calls) == len(set(calls)) == 3  # 0, 1 and -1
    assert (inst.mat_i, inst.mat_j) == (Mat.from_rows(I4), Mat.from_rows(J4))


# -- validation flags do not depend on how a structure is presented --


def _flags(spec):
    report = validate_hypercomplex(spec)
    return (report.jacobi_ok, report.nilpotent_ok, report.nilpotency_step,
            report.quaternionic_relations_ok, report.integrability)


INVARIANCE_SPECS = {
    "example1": load_corpus("example1"),
    "example3": load_corpus("example3"),
    "torus8": load_corpus("torus8"),
    "example2@1/3": scaled_variant(load_corpus("example2"), Fraction(1),
                                   {"t": Fraction(1, 3)}),
}
INVARIANCE_SPECS.update((make().name, make()) for make in (
    jacobi_broken_spec, relation_broken_spec, nonintegrable_spec,
    i_nonintegrable_spec, solvable_spec, affine_complex_spec))
nonzero_factors = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(INVARIANCE_SPECS)), st.integers(0, 2 ** 16),
       nonzero_factors)
def test_validation_flags_invariant_under_coframe_change_and_scaling(name, seed, factor):
    spec = INVARIANCE_SPECS[name]
    flags = _flags(spec)
    variant = coframe_variant(spec, random_gl(Random(seed), spec.dimension))
    assert _flags(variant) == flags
    assert _flags(scaled_variant(spec, factor)) == flags


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(INVARIANCE_SPECS)), st.sampled_from(sorted(INVARIANCE_SPECS)))
def test_validation_flags_of_a_direct_sum_in_either_order(first, second):
    a, b = INVARIANCE_SPECS[first], INVARIANCE_SPECS[second]
    flags = _flags(direct_sum_spec(a, b))
    assert _flags(direct_sum_spec(b, a)) == flags
    # each check holds on a sum exactly when it holds on both summands,
    # and the series of a sum ends when both of its summands' series do
    fa, fb = _flags(a), _flags(b)
    steps = (fa[2], fb[2])
    assert flags == (
        fa[0] and fb[0], fa[1] and fb[1],
        None if None in steps else max(steps),
        fa[3] and fb[3],
        {label: fa[4][label] and fb[4][label] for label in ("I", "J", "K")},
    )


# -- drawn 2-step structures on H + H --


def test_example1_lies_in_the_hh_integrable_kernel():
    matrix = hh_integrability_matrix()
    constants = hh_constants(load_corpus("example1"))
    assert any(constants)
    assert all(sum((x * c for x, c in zip(row, constants)), ZERO).is_zero()
               for row in matrix.data)
    assert len(hh_integrable_kernel()) == 16


@settings(max_examples=20, deadline=None)
@given(hh_structures())
def test_drawn_hh_structures_validate_and_are_hkt_exactly_when_i_is_abelian(spec):
    assert validate_hypercomplex(spec).ok
    # I is abelian, [IX, IY] = [X, Y], exactly when del out of degree 1
    # vanishes.  The expectation that a hypercomplex nilmanifold is HKT
    # exactly when its structure is abelian is taken from Barberis, Dotti
    # and Verbitsky, "Canonical bundles of complex nilmanifolds, with
    # applications to hypercomplex geometry".
    abelian = not any(any(row) for row in hh_abelian_defect(
        hh_algebra(hh_constants(spec)), HH_I))
    assert ReportSession(spec).verdict("hkt").answer is abelian
