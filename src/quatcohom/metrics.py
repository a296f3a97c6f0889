"""Metric candidates, positivity, and existence verdicts.

A candidate metric is a (2,0)-form.  Its Gram matrix with respect to the
unitary coframe is linear in the form, so positivity questions reduce to
exact Sylvester checks, and the vanishing of a diagonal Gram entry on an
entire candidate space is a linear condition that can rule out positive
candidates without any search.

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
from .exterior import Form
from .linalg import (
    Mat,
    Subspace,
    complexify_vector,
    leading_principal_minors,
    realify_antilinear,
    realify_linear,
    realify_vector,
    solve,
)
from .quaternionic import QuaternionicComplex
from .scalars import ZERO, GaussianRational


def standard_omega(cx: QuaternionicComplex) -> Form:
    """Sum of the coframe pair monomials; its Gram is half the identity."""
    total = Form.zero()
    for i in range(cx.n):
        total = total + Form.monomial((2 * i, 2 * i + 1))
    return total


def gram_matrix(cx: QuaternionicComplex, omega: Form) -> Mat:
    """Gram matrix of a (2,0)-form on the holomorphic frame.

    With A the antisymmetric coefficient matrix of the form and N the
    matrix of J from (1,0)- to (0,1)-covectors, the metric values on the
    frame come out as -A N^T / 2.
    """
    half = cx.half
    if not omega.is_zero() and cx.bidegree(omega) != (2, 0):
        raise NotBidegree20(
            f"expected a (2,0)-form, got bidegree {cx.bidegree(omega)}"
        )
    a_rows = [[ZERO] * half for _ in range(half)]
    for u in range(half):
        for v in range(u + 1, half):
            c = omega.coefficient((u, v))
            a_rows[u][v] = c
            a_rows[v][u] = -c
    n_rows = [[ZERO] * half for _ in range(half)]
    for a in range(half):
        image = cx.j(Form.generator(a))
        for d in range(half):
            n_rows[d][a] = image.coefficient((half + d,))
    a_mat = Mat.from_rows(a_rows, ncols=half)
    n_mat = Mat.from_rows(n_rows, ncols=half)
    return (a_mat @ n_mat.transpose()).scale(Fraction(-1, 2))


@dataclass(frozen=True)
class MetricCandidate:
    """A (2,0)-form together with everything decided about it."""

    omega: Form
    gram: Mat
    minors: Tuple[GaussianRational, ...]
    is_real: bool
    positive: bool
    hermitian: bool
    hkt: bool
    gauduchon: bool
    strongly_gauduchon: bool
    hyperkahler: bool


def classify_metric(cx: QuaternionicComplex, omega: Form,
                    mc: Optional[MatrixComplex] = None) -> MetricCandidate:
    """Evaluate every metric property of one candidate form.

    All the structural flags presuppose hermitian, which is reality under
    Jbar together with a positive definite Gram matrix.
    """
    if mc is None:
        mc = MatrixComplex.from_quaternionic(cx)
    if not omega.is_zero() and cx.bidegree(omega) != (2, 0):
        raise NotBidegree20(
            f"expected a (2,0)-form, got bidegree {cx.bidegree(omega)}"
        )
    gram = gram_matrix(cx, omega)
    minors = tuple(leading_principal_minors(gram))
    is_real = cx.jbar(omega) == omega
    positive = all(m.is_real() and m.re > 0 for m in minors)
    hermitian = is_real and positive
    d_omega = cx.d(omega)
    hkt = hermitian and cx.project(d_omega, 3, 0).is_zero()
    hyperkahler = hermitian and d_omega.is_zero()
    om_pow = Form.unit()
    for _ in range(cx.n - 1):
        om_pow = om_pow.wedge(omega)
    del_pow = cx.partial(om_pow)
    gauduchon = hermitian and cx.partial(cx.partial_j(om_pow)).is_zero()
    top = 2 * cx.n - 1
    strongly = hermitian and (
        del_pow.is_zero()
        or mc.image("del_J", top - 1).contains(cx.coords(del_pow, top))
    )
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


def hkt_candidate_space(cx: QuaternionicComplex) -> Subspace:
    """Realified space of Jbar-real del-closed (2,0)-forms."""
    ambient = len(cx.hol_basis(2))
    d_real = realify_linear(cx.partial_matrix(2))
    jbar = realify_antilinear(cx.jbar_matrix(2))
    return Subspace.kernel(d_real.vstack(jbar - Mat.identity(2 * ambient)))


def sg_candidate_space(cx: QuaternionicComplex) -> Subspace:
    """Realified space of Jbar-real forms with del_J-exact differential.

    Eliminates the auxiliary potential: pairs (omega, w) with
    del(omega) = del_J(w) form a kernel, and the omega block is kept.
    """
    ambient = len(cx.hol_basis(2))
    d_real = realify_linear(cx.partial_matrix(2))
    dj_real = realify_linear(cx.partial_j_matrix(2))
    jbar = realify_antilinear(cx.jbar_matrix(2))
    wide = 2 * ambient
    top = d_real.hstack(-dj_real)
    bottom = (jbar - Mat.identity(wide)).hstack(Mat.zeros(wide, wide))
    paired = Subspace.kernel(top.vstack(bottom)).basis
    return Subspace.row_space(paired.block(range(paired.nrows), range(wide)))


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


def _diagonal_obstruction(cx: QuaternionicComplex, space: Subspace) -> bool:
    """True when some diagonal Gram entry vanishes on the whole space.

    Positivity needs every diagonal entry strictly positive, and the entry
    is linear in the form, so vanishing on a spanning set rules out every
    candidate in the space at once.
    """
    if space.dim == 0:
        return True
    grams = [
        gram_matrix(cx, cx.from_coords(complexify_vector(row), 2))
        for row in space.rows
    ]
    return any(
        all(g[a, a].is_zero() for g in grams) for a in range(cx.half)
    )


def _project_standard(cx: QuaternionicComplex, space: Subspace) -> Optional[Form]:
    """Euclidean projection of the standard form onto the candidate space."""
    if space.dim == 0:
        return None
    target = realify_vector(cx.coords(standard_omega(cx), 2))
    basis = space.basis
    coeffs = solve(basis @ basis.transpose(), basis.apply(target))
    if coeffs is None:
        return None
    projected = basis.transpose().apply(coeffs)
    form = cx.from_coords(complexify_vector(projected), 2)
    return None if form.is_zero() else form


def _search_certificate(
    cx: QuaternionicComplex,
    mc: MatrixComplex,
    space: Subspace,
    wanted: Callable[[MetricCandidate], bool],
    den_bound: int,
    coeff_bound: int,
    probe_limit: int,
) -> Tuple[Optional[MetricCandidate], bool]:
    """Look for a positive candidate; second value reports proven absence."""
    if _diagonal_obstruction(cx, space):
        return None, True
    projected = _project_standard(cx, space)
    if projected is not None:
        candidate = classify_metric(cx, projected, mc)
        if wanted(candidate):
            return candidate, False
    values = _value_sequence(den_bound, coeff_bound)
    probes = 0
    for indices in _index_tuples(space.dim, len(values)):
        if probes >= probe_limit:
            break
        if not any(indices):
            continue
        coords = [ZERO] * space.ambient_dim
        for row, idx in zip(space.rows, indices):
            if idx == 0:
                continue
            value = values[idx]
            coords = [c + x * value for c, x in zip(coords, row)]
        probes += 1
        candidate = classify_metric(
            cx, cx.from_coords(complexify_vector(coords), 2), mc
        )
        if wanted(candidate):
            return candidate, False
    return None, False


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
    mc: Optional[MatrixComplex],
    question: str,
    space_of: Callable[[QuaternionicComplex], Subspace],
    wanted: Callable[[MetricCandidate], bool],
    den_bound: int,
    coeff_bound: int,
    probe_limit: int,
) -> ExistenceVerdict:
    _check_search_bounds(den_bound, coeff_bound)
    if cx.n != 2:
        raise NotSL2(
            f"existence is only decided in quaternionic dimension 2, "
            f"got {cx.n}"
        )
    if mc is None:
        mc = MatrixComplex.from_quaternionic(cx)
    answer = _middle_defect_answer(cx, mc)
    space = space_of(cx)
    if answer:
        certificate, _ = _search_certificate(
            cx, mc, space, wanted, den_bound, coeff_bound, probe_limit
        )
        method = "explicit-certificate" if certificate else "delta2-criterion"
        return ExistenceVerdict(question, True, method, certificate)
    # merely a consistency probe; the negative answer never depends on it
    certificate, _ = _search_certificate(
        cx, mc, space, wanted, den_bound, coeff_bound, min(probe_limit, 200)
    )
    if certificate is not None:
        raise TheoremViolation(
            f"found a certificate for {question} although the middle defect "
            "rules it out"
        )
    return ExistenceVerdict(question, False, "delta2-criterion", None)


def hkt_existence(cx: QuaternionicComplex, mc: Optional[MatrixComplex] = None,
                  den_bound: int = 4, coeff_bound: int = 2,
                  probe_limit: int = 2000) -> ExistenceVerdict:
    """Does the structure carry a metric with del-closed form?"""
    return _decide(
        cx, mc, "hkt", hkt_candidate_space,
        lambda c: c.hkt, den_bound, coeff_bound, probe_limit,
    )


def sg_existence(cx: QuaternionicComplex, mc: Optional[MatrixComplex] = None,
                 den_bound: int = 4, coeff_bound: int = 2,
                 probe_limit: int = 2000) -> ExistenceVerdict:
    """Does the structure carry a strongly Gauduchon metric?

    In quaternionic dimension 2 this is equivalent to the previous
    question, so the verdict reuses the same criterion; only the search
    space differs.
    """
    return _decide(
        cx, mc, "strongly-gauduchon", sg_candidate_space,
        lambda c: c.strongly_gauduchon, den_bound, coeff_bound, probe_limit,
    )
