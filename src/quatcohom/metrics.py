"""Metric candidates, positivity, and existence verdicts.

A candidate metric is a (2,0)-form, held as a one-row `Mat` of its
coordinates on the (2,0) monomial basis of the complex, and every operator
acts on it by a product.  Its Gram matrix with respect to the
unitary coframe is linear in the form, so positivity questions reduce to
exact Sylvester checks, and the vanishing of a diagonal Gram entry on an
entire candidate space is a linear condition that can rule out positive
candidates without any search.  Every other property is read through the
operator matrices.

Existence of the special metrics in quaternionic dimension 2 is decided
by the middle defect (equivalently the parity of the first cohomology),
never by the search; the search only tries to attach an explicit
certificate to a positive answer, and its failure merely downgrades the
reported method.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Tuple

from .cohomology import MatrixComplex, non_hkt_degrees
from .errors import NotBidegree20, NotSL2, SearchBoundError, TheoremViolation
from .exterior import merge_monomials
from .linalg import Mat, complexify, leading_principal_minors, rank, solve
from .quaternionic import QuaternionicComplex
from .scalars import ONE, ZERO, GaussianRational


def standard_omega(cx: QuaternionicComplex) -> Mat:
    """Sum of the coframe pair monomials; its Gram is half the identity."""
    basis = cx.hol_basis(2)
    pairs = {(2 * i, 2 * i + 1) for i in range(cx.n)}
    return Mat.from_entries(1, len(basis), {
        (0, k): 1 for k, mono in enumerate(basis) if mono in pairs})


def omega_power(cx: QuaternionicComplex, omega: Mat) -> Mat:
    """Omega^{n-1}, as a one-row matrix on the (2n-2,0) basis.

    The power starts as the unit and takes n-1 wedges with the nonzero
    (2,0) terms of Omega, accumulated per monomial.
    """
    basis = cx.hol_basis(2)
    if (omega.nrows, omega.ncols) != (1, len(basis)):
        raise ValueError(f"expected a 1x{len(basis)} (2,0)-form, "
                         f"got a {omega.nrows}x{omega.ncols} matrix")
    terms = [(basis[k], c) for k, c in omega.row_terms(0)]
    power = {(): ONE}
    for _ in range(cx.n - 1):
        wedged = {}
        for mono, a in power.items():
            for pair, c in terms:
                sign, merged = merge_monomials(mono, pair)
                if sign:
                    wedged[merged] = wedged.get(merged, ZERO) + a * c * sign
        power = wedged
    index = {mono: k for k, mono in enumerate(cx.hol_basis(2 * cx.n - 2))}
    return Mat.from_entries(1, len(index), {(0, index[mono]): c for mono, c in power.items()})


def gram_matrix(cx: QuaternionicComplex, omega: Mat) -> Mat:
    """Gram matrix of a (2,0)-form on the holomorphic frame.

    With A the antisymmetric coefficient matrix of the form and N the
    matrix of J from (1,0)- to (0,1)-covectors, the metric values on the
    frame come out as -A N^T / 2.
    """
    half, basis = cx.half, cx.hol_basis(2)
    if (omega.nrows, omega.ncols) != (1, len(basis)):
        raise NotBidegree20(
            f"expected a (2,0)-form as one row of {len(basis)} coordinates, "
            f"got a {omega.nrows}x{omega.ncols} matrix"
        )
    entries = {}
    for k, c in omega.row_terms(0):
        u, v = basis[k]
        entries[u, v] = c
        entries[v, u] = -c
    a_mat = Mat.from_entries(half, half, entries)
    # N is a signed permutation, so A N^T relabels the columns of A
    n_transpose = cx.index_map("J", 1).inverse()
    return n_transpose.relabel_columns(a_mat).scale(Fraction(-1, 2))


@dataclass(frozen=True)
class MetricCandidate:
    """A (2,0)-form, as a one-row matrix, with everything decided about it."""

    omega: Mat
    gram: Mat
    minors: Tuple[GaussianRational, ...]
    is_real: bool
    positive: bool
    hermitian: bool
    hkt: bool
    gauduchon: bool
    strongly_gauduchon: bool
    hyperkahler: bool


def classify_metric(cx: QuaternionicComplex, omega: Mat,
                    mc: MatrixComplex) -> MetricCandidate:
    """Evaluate every metric property of one candidate form.

    All the structural flags presuppose hermitian, which is reality under
    Jbar together with a positive definite Gram matrix.  `gram_matrix`
    refuses a matrix that is not one row of (2,0) coordinates.  Each
    operator acts on the form's column, omega transposed.
    """
    gram = gram_matrix(cx, omega)
    minors = tuple(leading_principal_minors(gram))
    # Jbar is antilinear: on a row it is conj(omega) Jbar^T, a relabelling
    is_real = cx.index_map("Jbar", 2).inverse().relabel_columns(omega.conj()) == omega
    positive = all(m.is_real() and m.re > 0 for m in minors)
    hermitian = is_real and positive
    column = omega.transpose()
    hkt = hermitian and (mc.delta(2) @ column).is_zero()
    hyperkahler = hkt and (cx.operator_matrix("del_bar", 2) @ column).is_zero()
    top = 2 * cx.n - 1
    power = omega_power(cx, omega).transpose()
    del_pow = mc.delta(top - 1) @ power
    gauduchon = hermitian and (mc.ddj(top - 1) @ power).is_zero()
    strongly = hermitian
    if hermitian and not del_pow.is_zero():
        # del_J-exact: adding it as a column to del_J leaves the rank
        spanned = mc.delta_j(top - 1).hstack(del_pow)
        strongly = rank(spanned) == mc.rank("del_J", top - 1)
    return MetricCandidate(
        omega=omega,
        gram=gram,
        minors=minors,
        is_real=is_real,
        positive=positive,
        hermitian=hermitian,
        hkt=hkt,
        gauduchon=gauduchon,
        strongly_gauduchon=strongly,
        hyperkahler=hyperkahler,
    )


@dataclass(frozen=True)
class ExistenceVerdict:
    """Answer to an existence question, with the strongest evidence found."""

    question: str
    answer: bool
    method: str
    certificate: Optional[MetricCandidate]


# Value bounds of the certificate search when the caller sets none.
DEN_BOUND = 4
COEFF_BOUND = 2

# Probes of the certificate search behind a positive verdict.
PROBE_LIMIT = 2000

# A negative answer only runs a consistency probe of at most this many.
CONSISTENCY_PROBE_LIMIT = 200

# The certificate search builds about 0.6 * c * D^2 candidate values for
# coefficient bound c and denominator bound D before it probes any; c * D^2
# may be at most this, which keeps that list under a second to build.
MAX_SEARCH_SIZE = 100_000


def _check_search_bounds(den_bound: int, coeff_bound: int) -> None:
    if den_bound < 0 or coeff_bound < 0:
        raise SearchBoundError(
            f"search bounds must be nonnegative, got denominator bound "
            f"{den_bound} and coefficient bound {coeff_bound}"
        )
    size = coeff_bound * den_bound ** 2
    if size > MAX_SEARCH_SIZE:
        raise SearchBoundError(
            f"search bounds too large: coefficient bound times denominator "
            f"bound squared is {size}, at most {MAX_SEARCH_SIZE}"
        )


def _value_sequence(den_bound: int, coeff_bound: int) -> List[Fraction]:
    values = [Fraction(0)]
    for q in range(1, den_bound + 1 if coeff_bound else 1):
        for p in range(1, coeff_bound * q + 1):
            f = Fraction(p, q)
            if f.denominator != q:
                continue
            values.append(f)
            values.append(-f)
    return values


def _index_tuples(length: int, num_values: int) -> Iterator[Tuple[int, ...]]:
    # by increasing total, lexicographic inside a level: deterministic and
    # biased toward simple candidates
    def level(total: int, length: int) -> Iterator[Tuple[int, ...]]:
        if length == 0:
            if total == 0:
                yield ()
            return
        for first in range(min(total, num_values - 1) + 1):
            for rest in level(total - first, length - 1):
                yield (first,) + rest

    for total in range((num_values - 1) * length + 1):
        yield from level(total, length)


def _diagonal_obstruction(cx: QuaternionicComplex, space: Mat) -> bool:
    """True when some diagonal Gram entry vanishes on the whole space.

    Positivity needs every diagonal entry strictly positive, and the entry
    is linear in the form, so vanishing on a spanning set rules out every
    candidate in the space at once.  In `gram_matrix`, N^T is a signed
    permutation, so diagonal entry a is ±1/2 times the coordinate of the
    pair {a, t}, t the target of column a; the coframe pairs its forms
    under J, so t is never a.
    """
    if space.nrows == 0:
        return True
    forms = complexify(space)
    support = {k for i in range(forms.nrows) for k, _ in forms.row_terms(i)}
    position = {pair: k for k, pair in enumerate(cx.hol_basis(2))}
    return any(position[min(a, t), max(a, t)] not in support
               for a, t in enumerate(cx.index_map("J", 1).inverse().targets))


def _project_standard(cx: QuaternionicComplex, basis: Mat) -> Optional[Mat]:
    """Euclidean projection of the standard form onto the candidate space.

    The standard form is real, so its realification is (omega | 0); the
    real coefficients of the projection combine the complexified rows.
    """
    if basis.nrows == 0:
        return None
    omega = standard_omega(cx)
    target = omega.hstack(Mat.zeros(1, omega.ncols)).transpose()
    coeffs = solve(basis @ basis.transpose(), basis @ target)
    if coeffs is None:
        return None
    projected = coeffs.transpose() @ complexify(basis)
    return None if projected.is_zero() else projected


def _search_certificate(
    cx: QuaternionicComplex,
    mc: MatrixComplex,
    space: Mat,
    wanted: Callable[[MetricCandidate], bool],
    den_bound: int,
    coeff_bound: int,
    probe_limit: int,
) -> Optional[MetricCandidate]:
    """Look for a positive candidate in at most `probe_limit` probes.

    The projected standard form is tried first and costs no probe.  Each
    probe weighs the realified rows of the space with one tuple of values,
    one product, and complexifies the sum.
    """
    if _diagonal_obstruction(cx, space):
        return None
    projected = _project_standard(cx, space)
    if projected is not None:
        candidate = classify_metric(cx, projected, mc)
        if wanted(candidate):
            return candidate
    values = _value_sequence(den_bound, coeff_bound)
    probes = 0
    for indices in _index_tuples(space.nrows, len(values)):
        if probes >= probe_limit:
            break
        if not any(indices):
            continue
        probes += 1
        weights = Mat(1, space.nrows, [[values[idx] for idx in indices]])
        candidate = classify_metric(cx, complexify(weights @ space), mc)
        if wanted(candidate):
            return candidate
    return None


def _middle_defect_answer(cx: QuaternionicComplex, mc: MatrixComplex) -> bool:
    table = mc.table()
    non_hkt_degrees(table)
    by_defect = table.delta[2] == 0
    by_parity = mc.h_del(1) % 2 == 0
    if by_defect != by_parity:
        raise TheoremViolation(
            f"middle defect {table.delta[2]} disagrees with the parity of "
            f"h_del(1) = {mc.h_del(1)}"
        )
    return by_defect


def _decide(
    cx: QuaternionicComplex,
    mc: MatrixComplex,
    question: str,
    space: Mat,
    wanted: Callable[[MetricCandidate], bool],
    den_bound: int,
    coeff_bound: int,
) -> ExistenceVerdict:
    _check_search_bounds(den_bound, coeff_bound)
    if cx.n != 2:
        raise NotSL2(
            f"existence is only decided in quaternionic dimension 2, "
            f"got {cx.n}"
        )
    answer = _middle_defect_answer(cx, mc)
    if answer:
        certificate = _search_certificate(
            cx, mc, space, wanted, den_bound, coeff_bound, PROBE_LIMIT
        )
        method = "explicit-certificate" if certificate else "delta2-criterion"
        return ExistenceVerdict(question, True, method, certificate)
    # merely a consistency probe; the negative answer never depends on it
    certificate = _search_certificate(
        cx, mc, space, wanted, den_bound, coeff_bound, CONSISTENCY_PROBE_LIMIT
    )
    if certificate is not None:
        raise TheoremViolation(
            f"found a certificate for {question} although the middle defect "
            "rules it out"
        )
    return ExistenceVerdict(question, False, "delta2-criterion", None)


def hkt_existence(cx: QuaternionicComplex, mc: MatrixComplex,
                  den_bound: int = DEN_BOUND,
                  coeff_bound: int = COEFF_BOUND) -> ExistenceVerdict:
    """Does the structure carry a metric with del-closed form?"""
    return _decide(
        cx, mc, "hkt", cx.hkt_space,
        lambda c: c.hkt, den_bound, coeff_bound,
    )


def sg_existence(cx: QuaternionicComplex, mc: MatrixComplex) -> ExistenceVerdict:
    """Does the structure carry a strongly Gauduchon metric?

    In quaternionic dimension 2 this is equivalent to the previous
    question, so the verdict reuses the same criterion; only the search
    space differs.
    """
    return _decide(
        cx, mc, "strongly-gauduchon", cx.sg_space,
        lambda c: c.strongly_gauduchon, DEN_BOUND, COEFF_BOUND,
    )
