"""Nilpotent Lie algebras with hypercomplex structure.

An algebra is described by structure equations de^k = sum c^k_ij e^i ^ e^j
(indices 1-based, i < j, coefficients given verbatim with no hidden factor
of one half) together with two endomorphism tables I and J acting on the
coframe directly, in column convention: I e^j = sum_k M[k][j] e^k.  Acting
on the coframe rather than on vectors matches the way such structures are
usually tabulated and avoids the sign ambiguity of the dual action.

K is always derived as I∘J; a K table in the input is checked against the
derived one, never trusted.

The structural checks read the structure constants through one bracket
kernel, beta(x, y)_k = sum c^k_ij (x_i y_j - x_j y_i), on linalg's integer
sparse rows.  The constants are held once over one integer denominator D,
as per-generator lists of the terms each generator occurs in: (k, j, n)
in the list of a when beta(e_a, e_j)_k = n / D.  Vectors go in as the rows
of a `Mat`, and the brackets of the requested pairs of rows come back as
the rows of one `Mat` (`linalg.bilinear_rows`), summed in Gaussian
integers with no scalar built.  On vectors beta is minus the Lie bracket.
Step one of the lower central series is read straight off the terms,
since the brackets of generator pairs are the structure constants; each
later step brackets the generators with the current term.  Integrability
applies the (1,0)-forms of I, J and K, each the kernel basis of M - i, to
the brackets of pairs of vectors they all annihilate.  On two columns of
the inverse of a basis change beta is the coefficient of a wedge of two
new covectors in each de^k, so d of every new covector is one matrix
product away: `quaternionic` splits d of each coframe generator by
bidegree this way.  A failed integrability check builds the canonical
eigenbasis of its structure only then, to name the (0,2) part of its
first failing (1,0)-form.  The Jacobi identity is d^2 = 0 on the
generators, read off the same integer lists by the Leibniz rule: d^2 e^k
= sum of c de^a ^ e^z over the terms (k, z, c) of generator a, whose
coefficient on e^xyz is the Jacobiator of e_x, e_y, e_z.  Both checks
hold a form as its (monomial, coefficient) terms, and print one in e
labels, e124 for e^1 ^ e^2 ^ e^4, only to name a failure in a message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import lcm
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import (
    CoefficientParseError,
    DimensionMismatch,
    EigenspaceDimensionError,
    SchemaError,
)
from .exterior import Mono, merge_monomials, render_terms
from .linalg import Mat, bilinear_rows, inverse, kernel_and_row_basis, rank, row_basis
from .memo import memo
from .scalars import I_UNIT, ZERO, GaussianRational, ParamExpr, RationalLike

Term = Tuple[int, int, GaussianRational]
IntTerm = Tuple[int, int, int]
CoeffLike = Union[int, Fraction, GaussianRational, ParamExpr, str]
StructureTerm = Tuple[int, int, ParamExpr]


def _as_expr(value: CoeffLike, parameters: Sequence[str]) -> ParamExpr:
    if isinstance(value, ParamExpr):
        if tuple(value.params) != tuple(parameters):
            raise ValueError("coefficient declared over a different parameter list")
        return value
    if isinstance(value, str):
        from .scalars import parse_coefficient

        return parse_coefficient(value, parameters)
    return ParamExpr.constant(value, parameters)


@dataclass(frozen=True)
class AlgebraSpec:
    """Immutable description of an algebra plus its I and J tables.

    `create` merges the terms of a pair listed twice in one de^k into one
    term, their sum, where the pair first occurs, so a spec serializes to
    a file that loads: the file format lists each pair once.  It reads
    each distinct plain coefficient, keyed on its type and value as the
    file reader keys table entries, into one shared expression, which
    `instantiate` then evaluates once.
    """

    dimension: int
    structure: Tuple[Tuple[int, Tuple[StructureTerm, ...]], ...]
    op_i: Tuple[Tuple[ParamExpr, ...], ...]
    op_j: Tuple[Tuple[ParamExpr, ...], ...]
    op_k: Optional[Tuple[Tuple[ParamExpr, ...], ...]] = None
    parameters: Tuple[str, ...] = ()
    name: str = ""
    description: str = ""

    @classmethod
    def create(
        cls,
        dimension: int,
        structure: Mapping[int, Sequence[Tuple[int, int, CoeffLike]]],
        op_i: Sequence[Sequence[CoeffLike]],
        op_j: Sequence[Sequence[CoeffLike]],
        op_k: Optional[Sequence[Sequence[CoeffLike]]] = None,
        parameters: Sequence[str] = (),
        name: str = "",
        description: str = "",
    ) -> "AlgebraSpec":
        params = tuple(parameters)
        read: Dict[Tuple[type, object], ParamExpr] = {}

        def as_expr(value: CoeffLike) -> ParamExpr:
            if isinstance(value, ParamExpr):
                return _as_expr(value, params)
            if not isinstance(value, (int, Fraction, GaussianRational, str)):
                raise TypeError(f"a coefficient must be an int, Fraction, "
                                f"GaussianRational, ParamExpr or string, got {value!r}")
            key = (type(value), value)
            expr = read.get(key)
            if expr is None:
                expr = read[key] = _as_expr(value, params)
            return expr

        def table(rows: Sequence[Sequence[CoeffLike]]) -> Tuple[Tuple[ParamExpr, ...], ...]:
            if len(rows) != dimension or any(len(r) != dimension for r in rows):
                raise DimensionMismatch(
                    f"endomorphism table must be {dimension}x{dimension}"
                )
            return tuple(tuple(map(as_expr, r)) for r in rows)

        packed = []
        for k in sorted(structure):
            # a repeated pair is one term, the sum, where it first occurs
            merged: Dict[Tuple[int, int], ParamExpr] = {}
            for i, j, c in structure[k]:
                expr = as_expr(c)
                merged[i, j] = merged[i, j] + expr if (i, j) in merged else expr
            packed.append((k, tuple((i, j, c) for (i, j), c in merged.items())))
        return cls(
            dimension=dimension,
            structure=tuple(packed),
            op_i=table(op_i),
            op_j=table(op_j),
            op_k=None if op_k is None else table(op_k),
            parameters=params,
            name=name,
            description=description,
        )


@dataclass(frozen=True)
class InstantiatedAlgebra:
    """An AlgebraSpec with every coefficient evaluated to a rational.

    `structure[k]` holds the terms (i, j, c), i < j, of de^k = sum c e^i ^ e^j,
    with generators indexed from zero and no zero coefficient.
    """

    dimension: int
    structure: Tuple[Tuple[Term, ...], ...]
    mat_i: Mat
    mat_j: Mat
    mat_k_given: Optional[Mat]

    @cached_property
    def mat_k(self) -> Mat:
        return self.mat_i @ self.mat_j

    @cached_property
    def denominator(self) -> int:
        """The one denominator D of the integer terms `ad` is held over:
        the lcm of the denominators of the structure constants."""
        return lcm(*(c.denominator for terms in self.structure for _, _, c in terms))

    @cached_property
    def integer_structure(self) -> Tuple[Tuple[IntTerm, ...], ...]:
        """`structure` over D: the terms (i, j, n) of de^k = sum n/D e^i ^ e^j."""
        den = self.denominator
        return tuple(tuple((i, j, c.numerator[0] * (den // c.denominator)) for i, j, c in terms)
                     for terms in self.structure)

    @cached_property
    def ad(self) -> Tuple[Tuple[IntTerm, ...], ...]:
        """Per generator a, the (k, j, n) with beta(e_a, y)_k = sum n y_j / D.

        A term n/D e^i ^ e^j of de^k gives (k, j, n) to i and (k, i, -n) to
        j, so each list holds only the terms its generator occurs in.
        """
        ad: List[List[IntTerm]] = [[] for _ in range(self.dimension)]
        for k, terms in enumerate(self.integer_structure):
            for i, j, n in terms:
                ad[i].append((k, j, n))
                ad[j].append((k, i, -n))
        return tuple(tuple(terms) for terms in ad)

    def brackets(self, left: Mat, right: Mat, pairs: Iterable[Tuple[int, int]]) -> Mat:
        """One row beta(left_s, right_t) for each pair (s, t), beta(x, y)_k =
        sum c (x_i y_j - x_j y_i) over the terms c e^i ^ e^j of de^k.

        On vectors it is minus the Lie bracket, since de^k(X, Y) =
        -e^k([X, Y]).  On the columns s and t of the inverse C of a basis
        change (row j of C is e^j over the new covectors psi) it is the
        coefficient of psi^s ^ psi^t in each de^k.
        """
        return bilinear_rows(self.ad, self.denominator, left, right, pairs)

    @memo
    def eigenspace(self, label: str) -> Tuple[Mat, Mat]:
        """The +i eigenspace of I, J or K on the coframe, as the rows of the
        kernel basis of M - i, and a basis of the vectors all its forms
        annihilate, the row space of M - i: both read off one elimination,
        once per structure."""
        mat = {"I": self.mat_i, "J": self.mat_j, "K": self.mat_k}[label]
        m = self.dimension
        forms, vectors = kernel_and_row_basis(mat - Mat.identity(m).scale(I_UNIT))
        if 2 * forms.nrows != m:
            raise EigenspaceDimensionError(
                f"+i eigenspace has dimension {forms.nrows}, expected {m // 2}"
            )
        return forms, vectors

    @memo
    def eigen_rows(self, label: str) -> Mat:
        """Canonical basis of the +i eigenspace of I, J or K on the coframe,
        as rows: the reduced echelon form of `eigenspace`, computed once.

        The coframe is built from the one of I; those of J and K are built
        only to name an integrability defect.
        """
        return row_basis(self.eigenspace(label)[0])


def _eval_real(expr: ParamExpr, bindings: Mapping[str, RationalLike],
               where: str) -> GaussianRational:
    """The value of a coefficient that must be real; `where` names it in
    an error message."""
    try:
        value = expr.evaluate(bindings)
    except CoefficientParseError as exc:
        raise CoefficientParseError(f"{where}: {exc}") from None
    if not value.is_real():
        raise SchemaError(f"{where} must be real, got {value}")
    return value


def instantiate(spec: AlgebraSpec,
                bindings: Optional[Mapping[str, RationalLike]] = None,
                ) -> InstantiatedAlgebra:
    """Evaluate all coefficients at the given parameter values.

    Structure constants and endomorphism entries describe real objects, so
    any imaginary part surviving evaluation is rejected.  Each coefficient
    object is evaluated once, looked up by identity: `AlgebraSpec.create`
    and the file reader share one object among equal entries.  Only values
    are kept, so the first failing coefficient raises, with its own
    position, which is written out only then.
    """
    bindings = dict(bindings or {})
    m = spec.dimension
    values: Dict[int, GaussianRational] = {}  # by id of the expression

    structure: List[Tuple[Term, ...]] = [() for _ in range(m)]
    for k, terms in spec.structure:
        if not 1 <= k <= m:
            raise IndexError(f"structure row index {k} out of range 1..{m}")
        total: Dict[Mono, GaussianRational] = {}  # repeated pairs add up
        for i, j, coeff in terms:
            if not (1 <= i < j <= m):
                raise IndexError(
                    f"structure term ({i},{j}) in de^{k} must satisfy 1 <= i < j <= {m}"
                )
            value = values.get(id(coeff))
            if value is None:
                value = values[id(coeff)] = _eval_real(
                    coeff, bindings, f"coefficient of e^{i}^e^{j} in de^{k}")
            value = total.get((i - 1, j - 1), ZERO) + value
            if value.is_zero():
                total.pop((i - 1, j - 1), None)
            else:
                total[i - 1, j - 1] = value
        structure[k - 1] = tuple((i, j, c) for (i, j), c in total.items())

    def table(rows: Tuple[Tuple[ParamExpr, ...], ...], label: str) -> Mat:
        entries = {}
        for r, row in enumerate(rows):
            for c, entry in enumerate(row):
                value = values.get(id(entry))
                if value is None:
                    value = values[id(entry)] = _eval_real(
                        entry, bindings, f"{label}[{r + 1}][{c + 1}]")
                if value:
                    entries[r, c] = value
        return Mat.from_entries(m, m, entries)

    return InstantiatedAlgebra(
        dimension=m,
        structure=tuple(structure),
        mat_i=table(spec.op_i, "I"),
        mat_j=table(spec.op_j, "J"),
        mat_k_given=None if spec.op_k is None else table(spec.op_k, "K"),
    )


# ---------------------------------------------------------------------------
# Validation.
# ---------------------------------------------------------------------------


@dataclass
class ValidationReport:
    """Outcome of the structural checks on an instantiated spec.

    Flags default to None meaning "not checked"; messages collect one human
    readable line per failure, so messages is nonempty exactly when some
    flag is False.
    """

    jacobi_ok: Optional[bool] = None
    nilpotent_ok: Optional[bool] = None
    nilpotency_step: Optional[int] = None
    quaternionic_relations_ok: Optional[bool] = None
    integrability: Dict[str, bool] = field(default_factory=dict)
    messages: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        flags = [self.jacobi_ok, self.nilpotent_ok, self.quaternionic_relations_ok]
        flags.extend(self.integrability.values())
        return all(f is not False for f in flags)

    def summary(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(self.messages)


def _validate_lie_algebra(inst: InstantiatedAlgebra) -> ValidationReport:
    """Check the Jacobi identity and nilpotency of the structure equations."""
    report = ValidationReport()
    m = inst.dimension

    report.jacobi_ok = True
    for k, terms in enumerate(_square_of_d(inst)):
        if any(terms.values()):
            report.jacobi_ok = False
            report.messages.append(
                f"d^2 e^{k + 1} = {render_terms(terms.items(), _e_label)}, "
                "so the Jacobi identity fails"
            )

    # Lower central series, spanned by the brackets of generators with the
    # current term; terminates iff nilpotent.
    generators = Mat.identity(m)
    current = generators  # canonical basis of the current term
    step = 0
    while current.nrows:
        step += 1
        if step > m:
            break
        if current is generators:
            produced = _structure_rows(inst)
        else:
            produced = inst.brackets(generators, current,
                                     product(range(m), range(current.nrows)))
        nxt = row_basis(produced)
        if nxt.nrows == current.nrows:
            # series stabilized at a nonzero term
            step = None
            break
        current = nxt
    if current.nrows == 0 and step is not None:
        report.nilpotent_ok = True
        report.nilpotency_step = step
    else:
        report.nilpotent_ok = False
        report.nilpotency_step = None
        report.messages.append("lower central series does not reach zero")
    return report


def _structure_rows(inst: InstantiatedAlgebra) -> Mat:
    """One row per pair (i, j) with a term in some de^k, holding each such
    c^k_ij in column k: minus the bracket of e_i and e_j, so the rows span
    the second term of the lower central series."""
    rows: Dict[Mono, Dict[int, GaussianRational]] = {}
    for k, terms in enumerate(inst.structure):
        for i, j, c in terms:
            rows.setdefault((i, j), {})[k] = c
    return Mat.from_entries(len(rows), inst.dimension, {
        (r, k): c for r, row in enumerate(rows.values()) for k, c in row.items()})


def _e_label(mono: Mono) -> str:
    return "e" + "".join(str(k + 1) for k in mono)


def _square_of_d(inst: InstantiatedAlgebra) -> List[Dict[Mono, GaussianRational]]:
    """The terms of d^2 e^k for every generator k; some may sum to zero.

    d e^k = sum c e^x ^ e^y gives d^2 e^k = sum c (de^x ^ e^y - de^y ^ e^x),
    which is sum c de^a ^ e^z over the terms (k, z, c) of `ad[a]`; a term
    c' e^x ^ e^y of de^a with z in {x, y} wedges to zero.  The coefficient
    of e^xyz is the Jacobiator sum_cyc beta(beta(e_x, e_y), e_z)_k.  Both
    factors are integers over D, so each sum is an integer over D^2.
    """
    squares: List[Dict[Mono, int]] = [{} for _ in range(inst.dimension)]
    for a, terms in enumerate(inst.ad):
        for k, z, n in terms:
            acc = squares[k]
            for x, y, n_a in inst.integer_structure[a]:
                sign, mono = merge_monomials((x, y), (z,))
                if sign:
                    acc[mono] = acc.get(mono, 0) + n * n_a * sign
    square = inst.denominator ** 2
    return [{mono: GaussianRational.from_integers(x, 0, square) for mono, x in acc.items()}
            for acc in squares]


def _basis_change(forms: Mat) -> Tuple[Mat, Mat]:
    """(B, B^-1) for the basis (forms, conj forms) of the complexified dual."""
    b = forms.vstack(forms.conj())
    try:
        return b, inverse(b)
    except ValueError:
        raise EigenspaceDimensionError(
            "eigenbasis and its conjugate do not span the complexified dual"
        ) from None


def _coframe_differentials(inst: InstantiatedAlgebra, b: Mat, c: Mat, count: int,
                           pairs: Sequence[Mono],
                           ) -> List[List[Tuple[Mono, GaussianRational]]]:
    """The terms psi^s ^ psi^t, (s, t) in `pairs`, of d psi^r for r < count.

    Row r of `b` is psi^r over the real coframe and `c` is its inverse, so
    d psi^r = sum_k b[r][k] de^k and the coefficient of psi^s ^ psi^t in
    de^k is beta(C_s, C_t)_k, for C_s column s of c: the brackets of the
    rows of c^T, and one matrix product, whose row for (s, t) holds the
    coefficient of psi^s ^ psi^t in each d psi^r.  Each list keeps the
    order of `pairs` and only nonzero coefficients.
    """
    columns = c.transpose()
    by_pair = (inst.brackets(columns, columns, pairs)
               @ b.block(range(count), range(inst.dimension)).transpose())
    d_psi: List[List[Tuple[Mono, GaussianRational]]] = [[] for _ in range(count)]
    for n, pair in enumerate(pairs):
        for r, value in by_pair.row_terms(n):
            d_psi[r].append((pair, value))
    return d_psi


def _integrable(inst: InstantiatedAlgebra, forms: Mat, vectors: Mat) -> bool:
    """Whether d of no form in the span of the rows of `forms` has a (0,2)
    component; the rows of `vectors` are a basis of the vectors all the
    forms annihilate.

    The (0,2) part of d psi vanishes exactly when d psi vanishes on every
    pair of those vectors, and d psi(X, Y) is psi(beta(X, Y)): one product
    of the brackets of the vectors with the forms, for any bases of both.
    """
    brackets = inst.brackets(vectors, vectors, combinations(range(vectors.nrows), 2))
    return (brackets @ forms.transpose()).is_zero()


def _antihol_defect(inst: InstantiatedAlgebra, forms: Mat,
                    ) -> Optional[Tuple[int, List[Tuple[Mono, GaussianRational]]]]:
    """First (1,0)-form among the rows of `forms` whose differential has a
    (0,2) component, if any, with that component's nonzero terms.

    The defect is written in the basis (forms, conj forms), where the (0,2)
    terms are the monomials with both indices in the upper half.
    """
    m = inst.dimension
    half = m // 2
    b, c = _basis_change(forms)
    upper = list(combinations(range(half, m), 2))
    return next(((a, terms) for a, terms in enumerate(
        _coframe_differentials(inst, b, c, half, upper)) if terms), None)


def validate_hypercomplex(spec: AlgebraSpec,
                          bindings: Optional[Mapping[str, RationalLike]] = None,
                          instance: Optional[InstantiatedAlgebra] = None,
                          ) -> ValidationReport:
    """Full check: Lie algebra, quaternionic relations, integrability.

    K := I∘J is derived on the coframe; a K table in the spec is compared
    against it.  Integrability of each structure A requires d of every
    (1,0)-form of A to have no (0,2) component; the bracket kernel tests
    it on the kernel basis of A - i and the row space of A - i, the
    vectors those forms annihilate, without writing the forms out, and
    only a failure builds A's canonical eigenbasis, to name the first
    failing form.  `instance` is `instantiate(spec, bindings)`, when the
    caller has it already.
    """
    inst = instantiate(spec, bindings) if instance is None else instance
    report = _validate_lie_algebra(inst)
    m = inst.dimension

    minus_id = -Mat.identity(m)
    relations = [
        ("I^2 = -Id", inst.mat_i @ inst.mat_i == minus_id),
        ("J^2 = -Id", inst.mat_j @ inst.mat_j == minus_id),
        ("IJ = -JI", inst.mat_i @ inst.mat_j == -(inst.mat_j @ inst.mat_i)),
        ("K^2 = -Id", inst.mat_k @ inst.mat_k == minus_id),
    ]
    if inst.mat_k_given is not None:
        relations.append(("K table equals I∘J", inst.mat_k_given == inst.mat_k))
    report.quaternionic_relations_ok = True
    for label, holds in relations:
        if not holds:
            report.quaternionic_relations_ok = False
            report.messages.append(f"quaternionic relation {label} fails")

    for label in ("I", "J", "K"):
        try:
            if _integrable(inst, *inst.eigenspace(label)):
                report.integrability[label] = True
                continue
            index, bad = _antihol_defect(inst, inst.eigen_rows(label))
        except EigenspaceDimensionError as exc:
            report.integrability[label] = False
            report.messages.append(f"structure {label}: {exc}")
            continue
        report.integrability[label] = False
        report.messages.append(
            f"structure {label}: d of (1,0)-form number {index + 1} "
            f"has (0,2) component {render_terms(bad, _e_label)}"
        )
    return report


# ---------------------------------------------------------------------------
# The quaternionic coframe.
# ---------------------------------------------------------------------------


def _build_coframe(inst: InstantiatedAlgebra) -> Mat:
    """Deterministic J-paired eigenbasis of the (1,0)-forms of I: 2n forms,
    paired so that J(conj(phi^{2k-1})) = phi^{2k}, one row each of their
    coefficients over the real coframe.

    The +i eigenspace of I is put in canonical echelon form; its rows are
    consumed in order, each unseen row contributing the pair
    (row, J(conj(row))).  Echelon rows already reached by an earlier pair
    are skipped, so the output is a basis whenever the input is a genuine
    hypercomplex structure.  The partners of all the rows are one product:
    J(conj(row)) is the row conj(row) J^T.
    """
    m = inst.dimension
    if m % 4:
        raise DimensionMismatch(
            f"hypercomplex structures need dimension divisible by 4, got {m}"
        )
    eigen = inst.eigen_rows("I")
    partners = eigen.conj() @ inst.mat_j.transpose()
    span = Mat.zeros(0, m)  # the chosen rows, each followed by its partner
    for r in range(eigen.nrows):
        row = eigen.block([r], range(m))
        # while the chosen rows are independent, this is containment; once
        # they are not, they never become a basis and the check below fails
        if rank(span.vstack(row)) == span.nrows:
            continue
        span = span.vstack(row).vstack(partners.block([r], range(m)))
    if span.nrows != eigen.nrows or rank(span) != eigen.nrows:
        raise EigenspaceDimensionError(
            "J-pairing did not produce a basis of the (1,0)-forms"
        )
    return span
