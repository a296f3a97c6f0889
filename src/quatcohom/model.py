"""Nilpotent Lie algebras with hypercomplex structure.

An algebra is described by structure equations de^k = sum c^k_ij e^i ^ e^j
(indices 1-based, i < j, coefficients given verbatim with no hidden factor
of one half) together with two endomorphism tables I and J acting on the
coframe directly, in column convention: I e^j = sum_k M[k][j] e^k.  Acting
on the coframe rather than on vectors matches the way such structures are
usually tabulated and avoids the sign ambiguity of the dual action.

K is always derived as I∘J; a K table in the input is checked against the
derived one, never trusted.

The structural checks read the structure constants through one kernel,
beta(x, y)_k = sum c^k_ij (x_i y_j - x_j y_i), evaluated term by term from
per-generator lists of the terms each generator occurs in.  On vectors it
is minus the Lie bracket: the lower central series brackets each
generator with the current term, and integrability applies the
(1,0)-forms to the brackets of pairs of vectors they all annihilate.  On
two columns of the inverse of a basis change it is the coefficient of a
wedge of two new covectors in each de^k, so d of every new covector is
one matrix product away: `quaternionic` splits d of each coframe
generator by bidegree, and a failed integrability check names the (0,2)
part of the first failing (1,0)-form this way.  The Jacobi identity is
d^2 = 0 on the generators, read off the same lists by the Leibniz rule:
d^2 e^k = sum of c de^a ^ e^z over the terms (k, z, c) of generator a,
whose coefficient on e^xyz is the Jacobiator of e_x, e_y, e_z.  Both
checks hold a form as its (monomial, coefficient) terms, and print one in
e labels, e124 for e^1 ^ e^2 ^ e^4, only to name a failure in a message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import (
    CoefficientParseError,
    DimensionMismatch,
    EigenspaceDimensionError,
    SchemaError,
)
from .exterior import Mono, merge_monomials, render_terms
from .linalg import Mat, inverse, kernel_basis, rank, row_basis
from .scalars import (
    I_UNIT,
    ONE,
    ZERO,
    GaussianRational,
    ParamExpr,
    RationalLike,
)

Row = Tuple[GaussianRational, ...]
Term = Tuple[int, int, GaussianRational]
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
    a file that loads: the file format lists each pair once.
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

        def table(rows: Sequence[Sequence[CoeffLike]]) -> Tuple[Tuple[ParamExpr, ...], ...]:
            if len(rows) != dimension or any(len(r) != dimension for r in rows):
                raise DimensionMismatch(
                    f"endomorphism table must be {dimension}x{dimension}"
                )
            return tuple(tuple(_as_expr(x, params) for x in r) for r in rows)

        packed = []
        for k in sorted(structure):
            # a repeated pair is one term, the sum, where it first occurs
            merged: Dict[Tuple[int, int], ParamExpr] = {}
            for i, j, c in structure[k]:
                expr = _as_expr(c, params)
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
    name: str
    bindings: Tuple[Tuple[str, Fraction], ...]
    _eigenspaces: Dict[str, Tuple[Row, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def mat_k(self) -> Mat:
        return self.mat_i @ self.mat_j

    @cached_property
    def ad(self) -> Tuple[Tuple[Term, ...], ...]:
        """Per generator a, the (k, j, c) with beta(e_a, y)_k = sum c y_j.

        A term c e^i ^ e^j of de^k gives (k, j, c) to i and (k, i, -c) to j,
        so each list holds only the terms its generator occurs in.
        """
        ad: List[List[Term]] = [[] for _ in range(self.dimension)]
        for k, terms in enumerate(self.structure):
            for i, j, c in terms:
                ad[i].append((k, j, c))
                ad[j].append((k, i, -c))
        return tuple(tuple(terms) for terms in ad)

    def bracket(self, x: Mapping[int, GaussianRational],
                y: Mapping[int, GaussianRational]) -> Dict[int, GaussianRational]:
        """beta(x, y)_k = sum c (x_i y_j - x_j y_i) over the terms c e^i ^ e^j
        of de^k.  Vectors, in and out, are maps of their nonzero entries.

        On vectors it is minus the Lie bracket, since de^k(X, Y) =
        -e^k([X, Y]).  On the columns s and t of the inverse C of a basis
        change (row j of C is e^j over the new covectors psi) it is the
        coefficient of psi^s ^ psi^t in each de^k.
        """
        out: Dict[int, GaussianRational] = {}
        for a, xa in x.items():
            for k, j, c in self.ad[a]:
                yj = y.get(j)
                if yj is not None:
                    out[k] = out.get(k, ZERO) + xa * c * yj
        return {k: value for k, value in out.items() if value}

    def eigen_rows(self, label: str) -> Tuple[Row, ...]:
        """Canonical basis of the +i eigenspace of I, J or K on the coframe.

        Computed once per structure: validation and the coframe both need
        the one of I.
        """
        if label not in self._eigenspaces:
            mat = {"I": self.mat_i, "J": self.mat_j, "K": self.mat_k}[label]
            self._eigenspaces[label] = _eigen_rows(mat)
        return self._eigenspaces[label]


def _nonzero(vector: Sequence[GaussianRational]) -> Dict[int, GaussianRational]:
    return {j: x for j, x in enumerate(vector) if x}


def _eval_real(expr: ParamExpr, bindings: Mapping[str, RationalLike],
               where: Callable[[], str]) -> GaussianRational:
    """The value of a coefficient that must be real; `where` names it in
    an error message, and is called only to raise one."""
    try:
        value = expr.evaluate(bindings)
    except CoefficientParseError as exc:
        raise CoefficientParseError(f"{where()}: {exc}") from None
    if not value.is_real():
        raise SchemaError(f"{where()} must be real, got {value}")
    return value


def instantiate(spec: AlgebraSpec,
                bindings: Optional[Mapping[str, RationalLike]] = None,
                ) -> InstantiatedAlgebra:
    """Evaluate all coefficients at the given parameter values.

    Structure constants and endomorphism entries describe real objects, so
    any imaginary part surviving evaluation is rejected.  Each distinct
    coefficient is evaluated once; only values are kept, so the first
    failing coefficient raises, with its own position.
    """
    bindings = dict(bindings or {})
    m = spec.dimension
    values: Dict[ParamExpr, GaussianRational] = {}

    def evaluate(expr: ParamExpr, where: Callable[[], str]) -> GaussianRational:
        value = values.get(expr)
        if value is None:
            value = values[expr] = _eval_real(expr, bindings, where)
        return value

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
            value = evaluate(coeff, lambda: f"coefficient of e^{i}^e^{j} in de^{k}")
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
                value = evaluate(entry, lambda: f"{label}[{r + 1}][{c + 1}]")
                if value:
                    entries[r, c] = value
        return Mat.from_entries(m, m, entries)

    return InstantiatedAlgebra(
        dimension=m,
        structure=tuple(structure),
        mat_i=table(spec.op_i, "I"),
        mat_j=table(spec.op_j, "J"),
        mat_k_given=None if spec.op_k is None else table(spec.op_k, "K"),
        name=spec.name,
        bindings=tuple(sorted((k, Fraction(v)) for k, v in bindings.items())),
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
    generators = [{a: ONE} for a in range(m)]
    current = Mat.identity(m)  # canonical basis of the current term
    step = 0
    while current.nrows:
        step += 1
        if step > m:
            break
        rows = [_nonzero(v) for v in current.data]
        produced = [inst.bracket(u, v) for v in rows for u in generators]
        nxt = row_basis(Mat.from_entries(len(produced), m, {
            (r, k): value for r, row in enumerate(produced) for k, value in row.items()}))
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


def _e_label(mono: Mono) -> str:
    return "e" + "".join(str(k + 1) for k in mono)


def _square_of_d(inst: InstantiatedAlgebra) -> List[Dict[Mono, GaussianRational]]:
    """The terms of d^2 e^k for every generator k; some may sum to zero.

    d e^k = sum c e^x ^ e^y gives d^2 e^k = sum c (de^x ^ e^y - de^y ^ e^x),
    which is sum c de^a ^ e^z over the terms (k, z, c) of `ad[a]`; a term
    c' e^x ^ e^y of de^a with z in {x, y} wedges to zero.  The coefficient
    of e^xyz is the Jacobiator sum_cyc beta(beta(e_x, e_y), e_z)_k.
    """
    squares: List[Dict[Mono, GaussianRational]] = [{} for _ in range(inst.dimension)]
    for a, terms in enumerate(inst.ad):
        for k, z, c in terms:
            acc = squares[k]
            for x, y, c_a in inst.structure[a]:
                sign, mono = merge_monomials((x, y), (z,))
                if sign:
                    acc[mono] = acc.get(mono, ZERO) + c * c_a * sign
    return squares


def _eigen_rows(mat: Mat) -> Tuple[Row, ...]:
    """Canonical basis of the +i eigenspace of a coframe action."""
    m = mat.nrows
    space = row_basis(kernel_basis(mat - Mat.identity(m).scale(I_UNIT)))
    if 2 * space.nrows != m:
        raise EigenspaceDimensionError(
            f"+i eigenspace has dimension {space.nrows}, expected {m // 2}"
        )
    return space.data


def _basis_change(rows: Sequence[Row], m: int) -> Tuple[Mat, Mat]:
    """(B, B^-1) for the basis (rows, conj rows) of the complexified dual."""
    conj_rows = [tuple(x.conjugate() for x in r) for r in rows]
    b = Mat.from_rows(list(rows) + conj_rows, ncols=m)
    try:
        return b, inverse(b)
    except ValueError:
        raise EigenspaceDimensionError(
            "eigenbasis and its conjugate do not span the complexified dual"
        ) from None


def _pair_brackets(inst: InstantiatedAlgebra, vectors: Sequence[Mapping[int, GaussianRational]],
                   pairs: Sequence[Mono]) -> Mat:
    """The m x len(pairs) matrix whose column for (s, t) is beta(vectors[s], vectors[t])."""
    return Mat.from_entries(inst.dimension, len(pairs), {
        (k, col): value
        for col, (s, t) in enumerate(pairs)
        for k, value in inst.bracket(vectors[s], vectors[t]).items()})


def _coframe_differentials(inst: InstantiatedAlgebra, b: Mat, c: Mat, count: int,
                           pairs: Sequence[Mono],
                           ) -> List[List[Tuple[Mono, GaussianRational]]]:
    """The terms psi^s ^ psi^t, (s, t) in `pairs`, of d psi^r for r < count.

    Row r of `b` is psi^r over the real coframe and `c` is its inverse, so
    d psi^r = sum_k b[r][k] de^k and the coefficient of psi^s ^ psi^t in
    de^k is beta(C_s, C_t)_k, for C_s column s of c: one matrix product.
    Each list keeps the order of `pairs` and only nonzero coefficients.
    """
    columns = [_nonzero(col) for col in c.columns()]
    d_psi = b.block(range(count), range(inst.dimension)) @ _pair_brackets(inst, columns, pairs)
    return [[(pairs[col], value) for col, value in enumerate(d_psi.row(r)) if value]
            for r in range(count)]


def _antihol_defect(inst: InstantiatedAlgebra, rows: Sequence[Row],
                    ) -> Optional[Tuple[int, List[Tuple[Mono, GaussianRational]]]]:
    """First (1,0)-form whose differential has a (0,2) component, if any.

    The (0,2) part of d psi^r vanishes exactly when d psi^r vanishes on
    every pair of vectors that all the (1,0)-forms `rows` annihilate, and
    d psi^r(X, Y) is psi^r(beta(X, Y)): one product with the brackets of a
    kernel basis of the rows.  The defect of a failing form is written in
    the basis (rows, conj rows), where the (0,2) terms are the monomials
    with both indices in the upper half, and returned as its nonzero terms.
    """
    m = inst.dimension
    half = m // 2
    forms = Mat.from_rows(list(rows), ncols=m)
    vectors = [_nonzero(v) for v in kernel_basis(forms).data]
    values = forms @ _pair_brackets(inst, vectors, list(combinations(range(len(vectors)), 2)))
    if values.is_zero():
        return None
    a = next(r for r in range(half) if any(values.row(r)))
    b, c = _basis_change(rows, m)
    upper = list(combinations(range(half, m), 2))
    return a, _coframe_differentials(inst, b, c, a + 1, upper)[a]


def validate_hypercomplex(spec: AlgebraSpec,
                          bindings: Optional[Mapping[str, RationalLike]] = None,
                          instance: Optional[InstantiatedAlgebra] = None,
                          ) -> ValidationReport:
    """Full check: Lie algebra, quaternionic relations, integrability.

    K := I∘J is derived on the coframe; a K table in the spec is compared
    against it.  Integrability of each structure A requires d of every
    (1,0)-form of A, over an eigenbasis, to have no (0,2) component; the
    bracket kernel tests it without writing the forms out.  `instance` is
    `instantiate(spec, bindings)`, when the caller has it already.
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
            rows = inst.eigen_rows(label)
            defect = _antihol_defect(inst, rows)
        except EigenspaceDimensionError as exc:
            report.integrability[label] = False
            report.messages.append(f"structure {label}: {exc}")
            continue
        if defect is None:
            report.integrability[label] = True
        else:
            index, bad = defect
            report.integrability[label] = False
            report.messages.append(
                f"structure {label}: d of (1,0)-form number {index + 1} "
                f"has (0,2) component {render_terms(bad, _e_label)}"
            )
    return report


# ---------------------------------------------------------------------------
# The quaternionic coframe.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuaternionicCoframe:
    """2n (1,0)-forms for I, paired so that J(conj(phi^{2k-1})) = phi^{2k}.

    Each row holds the coefficients of one phi over the real coframe.
    """

    dimension: int
    rows: Tuple[Row, ...]


def _build_coframe(inst: InstantiatedAlgebra) -> QuaternionicCoframe:
    """Deterministic J-paired eigenbasis of the (1,0)-forms of I.

    The +i eigenspace of I is put in canonical echelon form; its rows are
    consumed in order, each unseen row contributing the pair
    (row, J(conj(row))).  Echelon rows already reached by an earlier pair
    are skipped, so the output is a basis whenever the input is a genuine
    hypercomplex structure.
    """
    m = inst.dimension
    if m % 4:
        raise DimensionMismatch(
            f"hypercomplex structures need dimension divisible by 4, got {m}"
        )
    eigen = inst.eigen_rows("I")
    chosen: List[Row] = []
    span = Mat.zeros(0, m)  # the chosen rows
    for row in eigen:
        # while the chosen rows are independent, this is containment; once
        # they are not, they never become a basis and the check below fails
        if rank(span.vstack(Mat(1, m, [row]))) == span.nrows:
            continue
        partner = inst.mat_j.apply_conjugated(row)
        chosen.append(row)
        chosen.append(partner)
        span = span.vstack(Mat(2, m, [row, partner]))
    if len(chosen) != len(eigen) or rank(span) != len(eigen):
        raise EigenspaceDimensionError(
            "J-pairing did not produce a basis of the (1,0)-forms"
        )
    return QuaternionicCoframe(dimension=m, rows=tuple(chosen))
