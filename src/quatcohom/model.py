"""Nilpotent Lie algebras with hypercomplex structure.

An algebra is described by structure equations de^k = sum c^k_ij e^i ^ e^j
(indices 1-based, i < j, coefficients given verbatim with no hidden factor
of one half) together with two endomorphism tables I and J acting on the
coframe directly, in column convention: I e^j = sum_k M[k][j] e^k.  Acting
on the coframe rather than on vectors matches the way such structures are
usually tabulated and avoids the sign ambiguity of the dual action.

K is always derived as I∘J; a K table in the input is checked against the
derived one, never trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import (
    CoefficientParseError,
    DimensionMismatch,
    EigenspaceDimensionError,
    IntegrabilityFailure,
    QuaternionicRelationFailure,
    SchemaError,
)
from .exterior import ExteriorAlgebra, Form
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
    """Immutable description of an algebra plus its I and J tables."""

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
            terms = tuple(
                (i, j, _as_expr(c, params)) for i, j, c in structure[k]
            )
            packed.append((k, terms))
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
    """An AlgebraSpec with every coefficient evaluated to a rational."""

    dimension: int
    algebra: ExteriorAlgebra
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

    def eigen_rows(self, label: str) -> Tuple[Row, ...]:
        """Canonical basis of the +i eigenspace of I, J or K on the coframe.

        Computed once per structure: validation and the coframe both need
        the one of I.
        """
        if label not in self._eigenspaces:
            mat = {"I": self.mat_i, "J": self.mat_j, "K": self.mat_k}[label]
            self._eigenspaces[label] = _eigen_rows(mat)
        return self._eigenspaces[label]


def _eval_real(expr: ParamExpr, bindings: Mapping[str, RationalLike],
               where: str) -> GaussianRational:
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
    any imaginary part surviving evaluation is rejected.
    """
    bindings = dict(bindings or {})
    m = spec.dimension
    d_images = [Form.zero() for _ in range(m)]
    for k, terms in spec.structure:
        if not 1 <= k <= m:
            raise IndexError(f"structure row index {k} out of range 1..{m}")
        total = Form.zero()
        for i, j, coeff in terms:
            if not (1 <= i < j <= m):
                raise IndexError(
                    f"structure term ({i},{j}) in de^{k} must satisfy 1 <= i < j <= {m}"
                )
            value = _eval_real(coeff, bindings, f"coefficient of e^{i}^e^{j} in de^{k}")
            total = total + Form.monomial((i - 1, j - 1), value)
        d_images[k - 1] = total

    def table(rows: Tuple[Tuple[ParamExpr, ...], ...], label: str) -> Mat:
        return Mat.from_rows(
            [
                [_eval_real(entry, bindings, f"{label}[{r + 1}][{c + 1}]")
                 for c, entry in enumerate(row)]
                for r, row in enumerate(rows)
            ],
            ncols=m,
        )

    return InstantiatedAlgebra(
        dimension=m,
        algebra=ExteriorAlgebra(m, d_images),
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


def _bracket(inst: InstantiatedAlgebra, u: Sequence[GaussianRational],
             v: Sequence[GaussianRational]) -> Row:
    """[u, v] in coordinates, read off the structure equations.

    de^k(X, Y) = -e^k([X, Y]) identifies the coefficient of e^i^e^j in
    de^k with minus the e_k-component of [e_i, e_j].
    """
    m = inst.dimension
    out = [ZERO] * m
    for k in range(m):
        for (i, j), coeff in inst.algebra.d_images[k].terms.items():
            factor = u[i] * v[j] - u[j] * v[i]
            out[k] = out[k] - coeff * factor
    return tuple(out)


def validate_lie_algebra(spec: AlgebraSpec,
                         bindings: Optional[Mapping[str, RationalLike]] = None,
                         ) -> ValidationReport:
    """Check the Jacobi identity and nilpotency of the structure equations."""
    inst = instantiate(spec, bindings)
    return _validate_lie_algebra(inst)


def _validate_lie_algebra(inst: InstantiatedAlgebra) -> ValidationReport:
    report = ValidationReport()
    alg = inst.algebra
    m = inst.dimension

    report.jacobi_ok = True
    for k in range(m):
        dd = alg.d(alg.d_images[k])
        if not dd.is_zero():
            report.jacobi_ok = False
            report.messages.append(
                f"d^2 e^{k + 1} = {dd}, so the Jacobi identity fails"
            )

    # Lower central series from the dual brackets; terminates iff nilpotent.
    basis = [tuple(ONE if i == j else ZERO for j in range(m)) for i in range(m)]
    current = Mat.identity(m)  # canonical basis of the current term
    step = 0
    while current.nrows:
        step += 1
        if step > m:
            break
        produced = []
        for u in basis:
            for v in current.data:
                produced.append(_bracket(inst, u, v))
        nxt = row_basis(Mat(len(produced), m, produced))
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


def _differentials_in_basis(inst: InstantiatedAlgebra, b: Mat, c: Mat,
                            count: int) -> List[Form]:
    """d of the first `count` covectors of a basis, written in that basis.

    Row r of `b` is psi^r over the real coframe and row j of its inverse
    `c` is e^j over the psi, so d psi^r is sum_j b[r][j] de^j with each e^j
    replaced by its row of `c`.
    """
    e_in_psi = [Form.from_terms({(s,): x for s, x in enumerate(row)}) for row in c.data]
    out = []
    for r in range(count):
        d_psi = Form.zero()
        for j, coeff in enumerate(b.row(r)):
            if coeff:
                for (k, l), value in inst.algebra.d_images[j].terms.items():
                    d_psi = d_psi + e_in_psi[k].wedge(e_in_psi[l]).scale(coeff * value)
        out.append(d_psi)
    return out


def _antihol_defect(inst: InstantiatedAlgebra, rows: Sequence[Row]) -> Optional[Tuple[int, Form]]:
    """First (1,0)-form whose differential has a (0,2) component, if any.

    Works in the basis (rows, conj rows): generators 0..half-1 are the
    (1,0)-forms, the rest their conjugates, and a monomial with both
    indices in the upper half is a (0,2) term.
    """
    m = inst.dimension
    half = m // 2
    b, c = _basis_change(rows, m)
    for a, d_psi in enumerate(_differentials_in_basis(inst, b, c, half)):
        defect = Form.from_terms({
            mono: coeff
            for mono, coeff in d_psi.terms.items()
            if all(idx >= half for idx in mono)
        })
        if not defect.is_zero():
            return a, defect
    return None


def validate_hypercomplex(spec: AlgebraSpec,
                          bindings: Optional[Mapping[str, RationalLike]] = None,
                          instance: Optional[InstantiatedAlgebra] = None,
                          ) -> ValidationReport:
    """Full check: Lie algebra, quaternionic relations, integrability.

    K := I∘J is derived on the coframe; a K table in the spec is compared
    against it.  Integrability of each structure A is tested by expanding
    d of every (1,0)-form of A over an eigenbasis and requiring the (0,2)
    component to vanish.  `instance` is `instantiate(spec, bindings)`,
    when the caller has it already.
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
                f"has (0,2) component {bad}"
            )
    return report


def require_valid(spec: AlgebraSpec,
                  bindings: Optional[Mapping[str, RationalLike]] = None,
                  ) -> ValidationReport:
    """Like validate_hypercomplex, but raise on the first failure class."""
    report = validate_hypercomplex(spec, bindings)
    if report.quaternionic_relations_ok is False:
        raise QuaternionicRelationFailure(report.summary())
    if any(flag is False for flag in report.integrability.values()):
        raise IntegrabilityFailure(report.summary())
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


def build_coframe(spec: AlgebraSpec,
                  bindings: Optional[Mapping[str, RationalLike]] = None,
                  ) -> QuaternionicCoframe:
    """Deterministic J-paired eigenbasis of the (1,0)-forms of I.

    The +i eigenspace of I is put in canonical echelon form; its rows are
    consumed in order, each unseen row contributing the pair
    (row, J(conj(row))).  Echelon rows already reached by an earlier pair
    are skipped, so the output is a basis whenever the input is a genuine
    hypercomplex structure.
    """
    inst = instantiate(spec, bindings)
    return _build_coframe(inst)


def _build_coframe(inst: InstantiatedAlgebra) -> QuaternionicCoframe:
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
