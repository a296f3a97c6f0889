"""Shared builders for the test suite.

Houses the deliberately broken structures, the generators of validated
random variants (coefficient scalings, rational coframe changes and
direct sums), the brute-force harness producing random double-differential
complexes directly as matrices, a reference Gaussian rational held as a
pair of Fractions that the engine's scalar is checked against, two
reference eliminations that the sparse kernel is checked against (plain
Gauss-Jordan on Gaussian rationals, and dense fraction-free Bareiss
elimination over Z[i]), a reference matrix product, the subspace lattice
(intersection, containment and quotient dimension), and a reference
cohomology table and middle-degree decomposition computed by subspace
arithmetic that the rank formulas and the operator kernels and images
are checked against.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod
from random import Random
from typing import Dict, List, NamedTuple, Sequence, Tuple, Union

from quatcohom import AlgebraSpec, CohomologyTable, GaussianRational, MatrixComplex
from quatcohom.errors import DivisionByZero, InternalInconsistency, NotASubspace
from quatcohom.exterior import Form
from quatcohom.linalg import (Mat, Row, Subspace, complexify_vector, inverse,
                              kernel_basis, rank, realify_antilinear, solve)
from quatcohom.model import instantiate
from quatcohom.scalars import ONE, ZERO
from quatcohom.slstructure import DecompositionReport, SLStructure


def skew_pairs(dim: int, pairs: Sequence[Tuple[int, int, int]]) -> List[List[int]]:
    """Endomorphism table sending e^a to s*e^b for each (a, b, s)."""
    rows = [[0] * dim for _ in range(dim)]
    for a, b, s in pairs:
        rows[b - 1][a - 1] = s
        rows[a - 1][b - 1] = -s
    return rows


I4 = skew_pairs(4, [(1, 2, 1), (3, 4, 1)])
J4 = skew_pairs(4, [(1, 3, 1), (4, 2, 1)])


def jacobi_broken_spec() -> AlgebraSpec:
    # d(e^34) = e^124 != 0, so d fails to square to zero
    return AlgebraSpec.create(
        4,
        {3: [(1, 2, 1)], 4: [(3, 4, 1)]},
        I4, J4,
        name="jacobi-broken",
    )


def relation_broken_spec() -> AlgebraSpec:
    # J sends both e^1 to e^3 and e^2 to +e^4: J^2 != -Id on e^2
    bad_j = skew_pairs(4, [(1, 3, 1), (2, 4, 1)])
    bad_j[3][1] = 1
    bad_j[1][3] = -1
    return AlgebraSpec.create(4, {}, I4, bad_j, name="relation-broken")


def nonintegrable_spec() -> AlgebraSpec:
    # quaternion relations hold, I is integrable, J is not:
    # d e^4 = e^12 acquires a (0,2)-component in the J eigenbasis
    return AlgebraSpec.create(
        4,
        {4: [(1, 2, 1)]},
        I4, J4,
        name="nonintegrable",
    )


def affine_complex_spec() -> AlgebraSpec:
    # the complex affine group: hypercomplex and integrable but not
    # nilpotent, and its invariant volume form is not holomorphic
    return AlgebraSpec.create(
        4,
        {3: [(1, 3, 1), (2, 4, 1)], 4: [(1, 4, 1), (2, 3, -1)]},
        I4, J4,
        name="affine-complex",
    )


# ---------------------------------------------------------------------------
# Validated variants of a constant-coefficient spec.
# ---------------------------------------------------------------------------


def _constant_matrix(spec: AlgebraSpec, which: str, bindings=None) -> List[List[Fraction]]:
    inst = instantiate(spec, bindings)
    mat = inst.mat_i if which == "i" else inst.mat_j
    return [[Fraction(x.re) for x in row] for row in mat.data]


def scaled_variant(spec: AlgebraSpec, factor: Fraction,
                   bindings=None) -> AlgebraSpec:
    """Multiply every structure constant by a nonzero rational.

    Any declared parameters must be bound here; the result is a
    parameter-free structure with the bindings baked in.
    """
    assert factor != 0
    structure = {
        k: [(i, j, Fraction(c.evaluate(bindings or {}).re) * factor)
            for i, j, c in terms]
        for k, terms in spec.structure
    }
    return AlgebraSpec.create(
        spec.dimension, structure,
        _constant_matrix(spec, "i", bindings),
        _constant_matrix(spec, "j", bindings),
        name=f"{spec.name}-scaled",
    )


def direct_sum_spec(*specs: AlgebraSpec) -> AlgebraSpec:
    """The direct sum of parameter-free structures.

    Each summand's coframe is shifted past the earlier ones and I, J act
    block-diagonally, so the sum is again hypercomplex and nilpotent.  A
    sum with a torus R^{4k} is a product with a complex whose differentials
    vanish, so every dimension row of the sum is the other summand's row
    convolved with binomial(2k, .).
    """
    m = sum(spec.dimension for spec in specs)
    structure: Dict[int, List[Tuple[int, int, Fraction]]] = {}
    tables = {"i": [[Fraction(0)] * m for _ in range(m)],
              "j": [[Fraction(0)] * m for _ in range(m)]}
    offset = 0
    for spec in specs:
        for k, terms in spec.structure:
            structure[k + offset] = [
                (i + offset, j + offset, Fraction(c.constant_value().re))
                for i, j, c in terms
            ]
        for which, table in tables.items():
            for r, row in enumerate(_constant_matrix(spec, which)):
                table[r + offset][offset:offset + spec.dimension] = row
        offset += spec.dimension
    return AlgebraSpec.create(
        m, structure, tables["i"], tables["j"],
        name="+".join(spec.name for spec in specs),
    )


def random_gl(rng: Random, m: int, ops: int = 6) -> Mat:
    """Product of elementary row operations; invertible by construction."""
    rows = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    lambdas = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2)]
    for _ in range(ops):
        i = rng.randrange(m)
        j = rng.randrange(m)
        if i == j:
            continue
        lam = rng.choice(lambdas)
        for c in range(m):
            rows[i][c] += lam * rows[j][c]
    if rng.random() < 0.5:
        i, j = rng.randrange(m), rng.randrange(m)
        rows[i], rows[j] = rows[j], rows[i]
    return Mat.from_rows(rows)


def coframe_variant(spec: AlgebraSpec, p_mat: Mat,
                    name: str = "") -> AlgebraSpec:
    """The same structure written in the coframe f^a = sum_b P[a][b] e^b.

    Endomorphism tables conjugate as M' = (P^-1)^T M P^T for the column
    convention (A f^a) = sum_c M'[c][a] f^c; the structure constants are
    pushed through the substitution e = P^-1 f of the exterior algebra.
    """
    m = spec.dimension
    p_inv = inverse(p_mat)
    e_in_f = [
        Form.from_terms({(a,): p_inv.data[b][a] for a in range(m)})
        for b in range(m)
    ]

    structure: Dict[int, List[Tuple[int, int, Fraction]]] = {}
    old = {k: terms for k, terms in spec.structure}
    for a in range(m):
        df = Form.zero()
        for b in range(m):
            coeff = p_mat.data[a][b]
            if coeff.is_zero() or (b + 1) not in old:
                continue
            for i, j, c in old[b + 1]:
                val = GaussianRational(c.constant_value().re) * coeff
                df = df + e_in_f[i - 1].wedge(e_in_f[j - 1]).scale(val)
        terms = []
        for (u, v), val in sorted(df.terms.items()):
            terms.append((u + 1, v + 1, Fraction(val.re)))
        if terms:
            structure[a + 1] = terms

    def transform(which: str) -> List[List[Fraction]]:
        mat = Mat.from_rows(_constant_matrix(spec, which))
        out = p_inv.transpose() @ mat @ p_mat.transpose()
        return [[Fraction(x.re) for x in row] for row in out.data]

    return AlgebraSpec.create(
        m, structure, transform("i"), transform("j"),
        name=name or f"{spec.name}-coframe",
    )


# ---------------------------------------------------------------------------
# Random double complexes, generated directly as matrices.
# ---------------------------------------------------------------------------


def _random_scalar(rng: Random) -> GaussianRational:
    pool = [0, 0, 1, -1, 2, Fraction(1, 2), -Fraction(1, 2)]
    re = rng.choice(pool)
    im = rng.choice(pool) if rng.random() < 0.4 else 0
    return GaussianRational(re, im)


def _wedge_matrices(k: int, one_form: Form) -> List[Mat]:
    """Left wedge by a one-form on each graded piece of a k-generator algebra."""
    bases = [list(combinations(range(k), p)) for p in range(k + 1)]
    mats = []
    for p in range(k):
        rows = []
        for target in bases[p + 1]:
            row = []
            for source in bases[p]:
                wedged = one_form.wedge(Form.monomial(source))
                row.append(wedged.coefficient(target))
            rows.append(row)
        mats.append(Mat.from_rows(rows, ncols=len(bases[p])))
    return mats


def random_double_complex(rng: Random, k: int = 4,
                          conjugate: bool = False) -> MatrixComplex:
    """Two anticommuting square-zero differentials on a k-generator algebra.

    Left multiplication by one-forms u and v squares to zero and
    anticommutes identically, for any choice of u and v; an optional
    basis conjugation per degree hides the monomial structure without
    changing any dimension.
    """
    u = Form.from_terms({(g,): _random_scalar(rng) for g in range(k)})
    v = Form.from_terms({(g,): _random_scalar(rng) for g in range(k)})
    dims = [len(list(combinations(range(k), p))) for p in range(k + 1)]
    del_mats = _wedge_matrices(k, u)
    delj_mats = _wedge_matrices(k, v)
    if conjugate:
        basis = [random_gl(rng, d, ops=4) for d in dims]
        basis_inv = [inverse(b) for b in basis]
        del_mats = [basis[p + 1] @ del_mats[p] @ basis_inv[p]
                    for p in range(k)]
        delj_mats = [basis[p + 1] @ delj_mats[p] @ basis_inv[p]
                     for p in range(k)]
    return MatrixComplex(dims, del_mats, delj_mats)


def direct_sum_complex(a: MatrixComplex, b: MatrixComplex) -> MatrixComplex:
    assert a.top == b.top
    dims = [a.dims[p] + b.dims[p] for p in range(a.top + 1)]

    def block(x: Mat, y: Mat) -> Mat:
        rows = []
        for r in x.data:
            rows.append(list(r) + [0] * y.ncols)
        for r in y.data:
            rows.append([0] * x.ncols + list(r))
        return Mat.from_rows(rows, ncols=x.ncols + y.ncols)

    del_mats = [block(a.delta(p), b.delta(p)) for p in range(a.top)]
    delj_mats = [block(a.delta_j(p), b.delta_j(p)) for p in range(a.top)]
    return MatrixComplex(dims, del_mats, delj_mats)


# ---------------------------------------------------------------------------
# Reference scalar: Q(i) as a pair of normalised Fractions, the engine's
# former representation.  Every operation of quatcohom's GaussianRational
# is checked against it.
# ---------------------------------------------------------------------------

_ReferenceScalar = Union[int, Fraction, "ReferenceGaussianRational"]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational value, got {value!r}")


@dataclass(frozen=True, eq=False)
class ReferenceGaussianRational:
    """An element of Q(i) as a pair of Fractions: the engine's former scalar."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- involutions -------------------------------------------------------

    def conjugate(self) -> "ReferenceGaussianRational":
        return ReferenceGaussianRational(self.re, -self.im)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value: _ReferenceScalar) -> "ReferenceGaussianRational":
        if isinstance(value, ReferenceGaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return ReferenceGaussianRational(_as_fraction(value))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: _ReferenceScalar) -> "ReferenceGaussianRational":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ReferenceGaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: _ReferenceScalar) -> "ReferenceGaussianRational":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ReferenceGaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: _ReferenceScalar) -> "ReferenceGaussianRational":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "ReferenceGaussianRational":
        return ReferenceGaussianRational(-self.re, -self.im)

    def __mul__(self, other: _ReferenceScalar) -> "ReferenceGaussianRational":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:
            return ReferenceGaussianRational(self.re * other.re)
        return ReferenceGaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "ReferenceGaussianRational":
        norm = self.re * self.re + self.im * self.im
        if not norm:
            raise DivisionByZero("inverse of zero in Q(i)")
        return ReferenceGaussianRational(self.re / norm, -self.im / norm)

    def __truediv__(self, other: _ReferenceScalar) -> "ReferenceGaussianRational":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: _ReferenceScalar) -> "ReferenceGaussianRational":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    # -- equality and display ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ReferenceGaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if self.im == 1:
            imag = "i"
        elif self.im == -1:
            imag = "-i"
        else:
            imag = f"{self.im}*i"
        if not self.re:
            return imag
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{mag}*i"
        return f"{self.re}{sign}{imag}"

    def __repr__(self) -> str:
        return f"ReferenceGaussianRational({self.re!r}, {self.im!r})"


# ---------------------------------------------------------------------------
# Reference elimination: plain Gauss-Jordan in GaussianRational arithmetic,
# pivot scaled to one at every step.  Slow, but shares no code with the
# fraction-free kernel of quatcohom.linalg.
# ---------------------------------------------------------------------------


def reference_rref(matrix: Mat) -> Tuple[Mat, List[int]]:
    rows = [list(row) for row in matrix.data]
    pivots: List[int] = []
    pivot_row = 0
    for col in range(matrix.ncols):
        found = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col]:
                found = r
                break
        if found is None:
            continue
        rows[pivot_row], rows[found] = rows[found], rows[pivot_row]
        inv = rows[pivot_row][col].inverse()
        rows[pivot_row] = [inv * x for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    reduced = Mat(matrix.nrows, matrix.ncols, tuple(tuple(r) for r in rows))
    return reduced, pivots


def reference_det(matrix: Mat) -> GaussianRational:
    assert matrix.nrows == matrix.ncols
    rows = [list(row) for row in matrix.data]
    n = matrix.nrows
    result = ONE
    for col in range(n):
        found = None
        for r in range(col, n):
            if rows[r][col]:
                found = r
                break
        if found is None:
            return ZERO
        if found != col:
            rows[col], rows[found] = rows[found], rows[col]
            result = -result
        result = result * rows[col][col]
        inv = rows[col][col].inverse()
        for r in range(col + 1, n):
            if rows[r][col]:
                factor = rows[r][col] * inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return result


def reference_minors(matrix: Mat) -> List[GaussianRational]:
    return [
        reference_det(Mat.from_rows([row[:k] for row in matrix.data[:k]], ncols=k))
        for k in range(1, matrix.nrows + 1)
    ]


def reference_matmul(a: Mat, b: Mat) -> Mat:
    """The textbook product, summed entry by entry in Gaussian rationals."""
    return Mat(a.nrows, b.ncols, tuple(
        tuple(sum((row[k] * b.data[k][j] for k in range(a.ncols)), ZERO)
              for j in range(b.ncols))
        for row in a.data
    ))


# ---------------------------------------------------------------------------
# Reference matrix: dense tuples of Gaussian rationals, every operation
# entry by entry, as the engine's Mat was before it stored sparse rows.
# Every operation and view of quatcohom's Mat is checked against it.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceMat:
    nrows: int
    ncols: int
    data: Tuple[Row, ...]

    @classmethod
    def from_rows(cls, rows, ncols: int) -> "ReferenceMat":
        data = tuple(tuple(GaussianRational._coerce(x) for x in row) for row in rows)
        assert all(len(row) == ncols for row in data)
        return cls(len(data), ncols, data)

    def transpose(self) -> "ReferenceMat":
        return ReferenceMat(self.ncols, self.nrows, tuple(
            tuple(row[j] for row in self.data) for j in range(self.ncols)))

    def conj(self) -> "ReferenceMat":
        return self._map(lambda x: x.conjugate())

    def __neg__(self) -> "ReferenceMat":
        return self._map(lambda x: -x)

    def scale(self, factor) -> "ReferenceMat":
        return self._map(lambda x: factor * x)

    def _map(self, fn) -> "ReferenceMat":
        return ReferenceMat(self.nrows, self.ncols,
                            tuple(tuple(fn(x) for x in row) for row in self.data))

    def __add__(self, other: "ReferenceMat") -> "ReferenceMat":
        return ReferenceMat(self.nrows, self.ncols, tuple(
            tuple(x + y for x, y in zip(r, s)) for r, s in zip(self.data, other.data)))

    def __sub__(self, other: "ReferenceMat") -> "ReferenceMat":
        return self + -other

    def __matmul__(self, other: "ReferenceMat") -> "ReferenceMat":
        return ReferenceMat(self.nrows, other.ncols, tuple(
            tuple(sum((row[k] * other.data[k][j] for k in range(self.ncols)), ZERO)
                  for j in range(other.ncols))
            for row in self.data))

    def apply(self, vector) -> Row:
        return tuple(sum((x * y for x, y in zip(row, vector)), ZERO) for row in self.data)

    def hstack(self, other: "ReferenceMat") -> "ReferenceMat":
        return ReferenceMat(self.nrows, self.ncols + other.ncols,
                            tuple(r + s for r, s in zip(self.data, other.data)))

    def vstack(self, other: "ReferenceMat") -> "ReferenceMat":
        return ReferenceMat(self.nrows + other.nrows, self.ncols, self.data + other.data)

    def block(self, rows: Sequence[int], cols: range) -> "ReferenceMat":
        return ReferenceMat(len(rows), len(cols),
                            tuple(tuple(self.data[i][j] for j in cols) for i in rows))

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.data for x in row)


def assert_canonical_rows(matrix: Mat) -> None:
    """Each stored row is (d, entries) with d > 0, no zero entry, every
    column in range, and gcd(d, every part) = 1."""
    assert len(matrix._rows) == matrix.nrows
    for d, entries in matrix._rows:
        assert isinstance(d, int) and d > 0
        assert all(0 <= j < matrix.ncols for j in entries)
        assert all(x or y for x, y in entries.values())
        assert gcd(d, *(part for value in entries.values() for part in value)) == 1


# ---------------------------------------------------------------------------
# Reference fraction-free elimination: dense Bareiss elimination over Z[i].
# Every row is updated at every step and each update divides exactly by
# the previous pivot; the pivot of a column is the first row with a nonzero
# entry there.  It shares no code with the sparse kernel, and unlike it
# each step's pivot is a minor of the row-scaled input.
# ---------------------------------------------------------------------------

GaussInt = Tuple[int, int]
DenseIntRow = Tuple[List[int], List[int]]


class BareissReduction(NamedTuple):
    # den times the reduced echelon form, pivot rows first; without
    # reduce_above the entries above the pivots are left unreduced
    rows: List[DenseIntRow]
    pivots: List[int]  # pivot column of each elimination step
    den: GaussInt  # the value every pivot entry ends with; 1 without pivots
    steps: List[Tuple[GaussInt, bool]]  # pivot of each step, and whether a swap preceded it
    scales: List[int]  # the positive integer each input row was multiplied by


def _dense_integer_row(row: Row) -> Tuple[int, DenseIntRow]:
    """The row times the lcm of its denominators, split into re and im."""
    scale = lcm(*(x.denominator for x in row))
    re_part = [x.numerator[0] * (scale // x.denominator) for x in row]
    im_part = [x.numerator[1] * (scale // x.denominator) for x in row]
    return scale, (re_part, im_part)


def exact_quotient(re: List[int], im: List[int], dr: int, di: int) -> DenseIntRow:
    """Divide a row by dr + di*i, which must divide every entry in Z[i]."""
    if di:
        # multiply by the conjugate, then divide by the norm
        norm = dr * dr + di * di
        re, im = ([x * dr + y * di for x, y in zip(re, im)],
                  [y * dr - x * di for x, y in zip(re, im)])
    else:
        norm = dr
    q_re = [x // norm for x in re]
    q_im = [y // norm for y in im]
    # Floor remainders all carry the divisor's sign, so they vanish one by
    # one exactly when they vanish in total.
    if sum(q_re) * norm != sum(re) or sum(q_im) * norm != sum(im):
        raise InternalInconsistency(
            f"fraction-free elimination: inexact division by {dr}{di:+d}*i"
        )
    return q_re, q_im


def reference_eliminate(matrix: Mat, reduce_above: bool = True) -> BareissReduction:
    """Fraction-free Gauss-Jordan elimination over Z[i] (Bareiss, 1968).

    Step k takes the pivot p in the first row at or below the k-th that is
    nonzero in the current column, and replaces every other row by
    (p * row - f * pivot_row) / d, where f is the row's entry in the pivot
    column and d the previous step's pivot.  The division is exact: each
    entry is then a minor of the integer matrix.  After the last step
    every pivot entry equals the last pivot and the rows are that pivot
    times the reduced echelon form.  With `reduce_above` false only the
    rows below each pivot are updated: plain Bareiss elimination.
    """
    scales: List[int] = []
    rows: List[DenseIntRow] = []
    for row in matrix.data:
        scale, int_row = _dense_integer_row(row)
        scales.append(scale)
        rows.append(int_row)
    nrows = matrix.nrows
    pivots: List[int] = []
    steps: List[Tuple[GaussInt, bool]] = []
    dr, di = 1, 0
    i = 0
    for col in range(matrix.ncols):
        if i == nrows:
            break
        for found in range(i, nrows):
            if rows[found][0][col] or rows[found][1][col]:
                break
        else:
            continue
        swapped = found != i
        if swapped:
            rows[i], rows[found] = rows[found], rows[i]
        b_re, b_im = rows[i]
        pr, pi = b_re[col], b_im[col]
        divide = (dr, di) != (1, 0)
        for r in range(0 if reduce_above else i + 1, nrows):
            a_re, a_im = rows[r]
            if r == i or not (any(a_re) or any(a_im)):
                continue
            fr, fi = a_re[col], a_im[col]
            if pi or fi:
                re = [pr * x - pi * y - fr * u + fi * v
                      for x, y, u, v in zip(a_re, a_im, b_re, b_im)]
                im = [pr * y + pi * x - fr * v - fi * u
                      for x, y, u, v in zip(a_re, a_im, b_re, b_im)]
            else:
                re = [pr * x - fr * u for x, u in zip(a_re, b_re)]
                im = [pr * y - fr * v for y, v in zip(a_im, b_im)]
            rows[r] = exact_quotient(re, im, dr, di) if divide else (re, im)
        pivots.append(col)
        steps.append(((pr, pi), swapped))
        dr, di = pr, pi
        i += 1
    return BareissReduction(rows, pivots, (dr, di), steps, scales)


def _gauss_quotient(value: GaussInt, by: GaussInt) -> GaussianRational:
    """(a + b*i) / (c + d*i) as a Gaussian rational."""
    return GaussianRational(*value) / GaussianRational(*by)


def bareiss_rref(matrix: Mat) -> Tuple[Mat, List[int]]:
    reduction = reference_eliminate(matrix)
    rank_ = len(reduction.pivots)
    data = [
        tuple(_gauss_quotient((x, y), reduction.den) for x, y in zip(re, im))
        for re, im in reduction.rows[:rank_]
    ]
    data.extend([(ZERO,) * matrix.ncols] * (matrix.nrows - rank_))
    return Mat(matrix.nrows, matrix.ncols, tuple(data)), reduction.pivots


def bareiss_det(matrix: Mat) -> GaussianRational:
    assert matrix.nrows == matrix.ncols
    reduction = reference_eliminate(matrix, reduce_above=False)
    if len(reduction.pivots) < matrix.nrows:
        return ZERO
    # the last pivot is the determinant of the row-scaled, row-swapped matrix
    swaps = sum(swapped for _, swapped in reduction.steps)
    return _gauss_quotient(reduction.den, ((-1) ** swaps * prod(reduction.scales), 0))


def bareiss_minors(matrix: Mat) -> List[GaussianRational]:
    """Leading principal minors from one Bareiss pass where it suffices.

    While elimination pivots down the diagonal without a swap, the pivot
    of step k is the (k+1)-th leading minor of the row-scaled matrix.  The
    first minor that breaks that run is zero; each later one takes a
    determinant of its own.
    """
    assert matrix.nrows == matrix.ncols
    reduction = reference_eliminate(matrix, reduce_above=False)
    out: List[GaussianRational] = []
    scale = 1
    for k, (col, (value, swapped)) in enumerate(zip(reduction.pivots, reduction.steps)):
        if col != k or swapped:
            break
        scale *= reduction.scales[k]
        out.append(_gauss_quotient(value, (scale, 0)))
    if len(out) < matrix.nrows:
        out.append(ZERO)
    for k in range(len(out) + 1, matrix.nrows + 1):
        out.append(bareiss_det(Mat.from_rows([row[:k] for row in matrix.data[:k]], ncols=k)))
    return out


def reference_nullspace(reduced: Mat, pivots: List[int]) -> List[Tuple[GaussianRational, ...]]:
    """Kernel basis read densely off a reduced echelon form."""
    free = [j for j in range(reduced.ncols) if j not in pivots]
    basis = []
    for j in free:
        vec = [ZERO] * reduced.ncols
        vec[j] = ONE
        for r, pcol in enumerate(pivots):
            vec[pcol] = -reduced.data[r][j]
        basis.append(tuple(vec))
    return basis


# ---------------------------------------------------------------------------
# Reference subspace lattice.  The engine takes every space as the kernel or
# image of a named operator and counts intersections and sums by ranks;
# these build the intersections themselves, for the oracles below.
# ---------------------------------------------------------------------------


def _check_ambient(u: Subspace, v: Subspace) -> None:
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")


def contains_space(big: Subspace, small: Subspace) -> bool:
    """Whether small lies in big: the basis rows are independent, so
    exactly when adding small's rows leaves the rank at dim big."""
    _check_ambient(big, small)
    return rank(big.basis.vstack(small.basis)) == big.dim


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """Intersection via the kernel of the stacked basis matrix.

    A vector in both spaces is U^T a = V^T b; solving the homogeneous
    system [U^T | -V^T] (a, b) = 0 and reading off a U gives a spanning
    set of the intersection.
    """
    _check_ambient(u, v)
    if not u.dim or not v.dim:
        return Subspace.zero(u.ambient_dim)
    stacked = u.basis.transpose().hstack(-v.basis.transpose())
    null = kernel_basis(stacked)
    return Subspace.row_space(null.block(range(null.nrows), range(u.dim)) @ u.basis)


def quotient_dim(big: Subspace, small: Subspace) -> int:
    if not contains_space(big, small):
        raise NotASubspace(
            "quotient requested by a space that is not contained in the numerator"
        )
    return big.dim - small.dim


# ---------------------------------------------------------------------------
# Reference cohomology: every column of the table by subspace arithmetic,
# building, intersecting and summing the actual subspaces.  The engine reads
# the same numbers off ranks, where the two exactness sums hold by algebra;
# here they do not, so this is where the lattice operations stay checked.
# ---------------------------------------------------------------------------


def reference_complement_representatives(big: Subspace, small: Subspace) -> List[Row]:
    """Greedy over the canonical rows of big, one containment test per row."""
    if not contains_space(big, small):
        raise NotASubspace("complement requested inside a non-subspace")
    current = small
    out = []
    for row in big.rows:
        if not current.contains(row):
            out.append(row)
            current = current.sum(Subspace.from_vectors([row], big.ambient_dim))
    return out


def ker_del(mc: MatrixComplex, p: int) -> Subspace:
    return Subspace.kernel(mc.delta(p))


def im_del(mc: MatrixComplex, p: int) -> Subspace:
    """Im del inside degree p."""
    return Subspace.column_space(mc.delta(p - 1))


def reference_class_coords(mc: MatrixComplex, vector, p: int,
                           reps: Dict[int, List]) -> Tuple:
    """Page-one coordinates of one del-closed vector, by its own solve."""
    rep_list = reps.get(p, [])
    columns = list(rep_list) + list(im_del(mc, p).rows)
    if not columns:
        assert not any(x for x in vector)
        return ()
    solution = solve(Mat.from_rows(columns, ncols=mc.dim(p)).transpose(), vector)
    if solution is None:
        raise InternalInconsistency("vector outside ker del")
    return solution[: len(rep_list)]


def reference_e2(mc: MatrixComplex, p: int) -> int:
    """dim E2 as the quotient of two subspaces.

    Numerator: del-closed v with del_J v del-exact.  Denominator:
    del-exact forms plus del_J of del-closed forms one degree down.
    """
    dp = mc.dim(p)
    top_block = mc.delta(p).hstack(Mat.zeros(mc.dim(p + 1), dp))
    bottom_block = mc.delta_j(p).hstack(-mc.delta(p))
    stacked = top_block.vstack(bottom_block)
    numerator = Subspace.from_vectors(
        [vec[:dp] for vec in Subspace.kernel(stacked).rows], dp
    )
    pushed = [mc.delta_j(p - 1).apply(v) for v in ker_del(mc, p - 1).rows]
    denominator = im_del(mc, p).sum(Subspace.from_vectors(pushed, dp))
    return quotient_dim(numerator, denominator)


def reference_table(mc: MatrixComplex) -> CohomologyTable:
    """The cohomology table of mc by subspace arithmetic alone."""
    degrees = range(mc.top + 1)
    ker_d = [ker_del(mc, p) for p in degrees]
    im_d = [im_del(mc, p) for p in degrees]
    ker_dj = [Subspace.kernel(mc.delta_j(p)) for p in degrees]
    im_dj = [Subspace.column_space(mc.delta_j(p - 1)) for p in degrees]
    ker_ddj = [Subspace.kernel(mc.ddj(p)) for p in degrees]
    im_ddj = [Subspace.column_space(mc.ddj(p - 2)) for p in degrees]
    h_del = [quotient_dim(ker_d[p], im_d[p]) for p in degrees]
    h_delj = [quotient_dim(ker_dj[p], im_dj[p]) for p in degrees]
    h_bc = [quotient_dim(intersect(ker_d[p], ker_dj[p]), im_ddj[p]) for p in degrees]
    h_ae = [quotient_dim(ker_ddj[p], im_d[p].sum(im_dj[p])) for p in degrees]
    var = []
    for p in degrees:
        var.append((
            quotient_dim(intersect(im_d[p], im_dj[p]), im_ddj[p]),
            quotient_dim(intersect(ker_d[p], im_dj[p]), im_ddj[p]),
            quotient_dim(ker_ddj[p], ker_d[p].sum(im_dj[p])),
            quotient_dim(intersect(im_d[p], ker_dj[p]), im_ddj[p]),
            quotient_dim(ker_ddj[p], im_d[p].sum(ker_dj[p])),
            quotient_dim(ker_ddj[p], ker_d[p].sum(ker_dj[p])),
        ))
    e2 = [reference_e2(mc, p) for p in degrees]
    return CohomologyTable(
        top_degree=mc.top,
        quaternionic_dim=mc.quaternionic_dim,
        h_del=tuple(h_del),
        h_delj=tuple(h_delj),
        h_bc=tuple(h_bc),
        h_ae=tuple(h_ae),
        a=tuple(v[0] for v in var),
        b=tuple(v[1] for v in var),
        c=tuple(v[2] for v in var),
        d=tuple(v[3] for v in var),
        e=tuple(v[4] for v in var),
        f=tuple(v[5] for v in var),
        dim_e1=tuple(h_del),
        dim_e2=tuple(e2),
        delta=tuple(h_bc[p] + h_ae[p] - 2 * e2[p] for p in degrees),
    )


# ---------------------------------------------------------------------------
# Reference decompositions of the middle cohomology: the same report by
# intersecting and summing the subspaces themselves.
# ---------------------------------------------------------------------------


def _realified_complex_subspace(space: Subspace) -> Subspace:
    # the realified rows of v and i v, for each basis vector v, are
    # (Re v, Im v) and (-Im v, Re v); realify_antilinear stacks the first
    # kind above minus the second
    return Subspace.row_space(realify_antilinear(space.basis))


def reference_sd_asd(sl: SLStructure) -> Tuple[int, int, bool]:
    star = sl.star_matrix(2)
    identity = Mat.identity(star.ncols)
    ker, im = ker_del(sl.mc, 2), im_del(sl.mc, 2)
    big_plus = intersect(Subspace.kernel(star - identity), ker).sum(im)
    big_minus = intersect(Subspace.kernel(star + identity), ker).sum(im)
    direct = intersect(big_plus, big_minus) == im
    exhausts = big_plus.sum(big_minus) == ker
    return quotient_dim(big_plus, im), quotient_dim(big_minus, im), direct and exhausts


def reference_decomposition(sl: SLStructure) -> DecompositionReport:
    """`SLStructure.decomposition_report` by the subspace lattice."""
    mc = sl.mc
    ker_real = _realified_complex_subspace(ker_del(mc, 2))
    im_real = _realified_complex_subspace(im_del(mc, 2))
    jbar_real = realify_antilinear(sl.cx.jbar_matrix(2))
    identity = Mat.identity(jbar_real.ncols)
    big_plus = intersect(Subspace.kernel(jbar_real - identity), ker_real).sum(im_real)
    big_minus = intersect(Subspace.kernel(jbar_real + identity), ker_real).sum(im_real)
    plus_real = quotient_dim(big_plus, im_real)
    minus_real = quotient_dim(big_minus, im_real)
    inter = quotient_dim(intersect(big_plus, big_minus), im_real) // 2
    total = quotient_dim(big_plus.sum(big_minus), im_real) // 2
    h2 = quotient_dim(ker_del(mc, 2), im_del(mc, 2))
    phi = reference_sd_asd(sl) if sl.cx.n == 2 else (None, None, None)
    return DecompositionReport(
        phi_plus_dim=phi[0],
        phi_minus_dim=phi[1],
        phi_direct=phi[2],
        jbar_plus_real_dim=plus_real,
        jbar_minus_real_dim=minus_real,
        jbar_plus_dim=Fraction(plus_real, 2),
        jbar_minus_dim=Fraction(minus_real, 2),
        intersection_dim=inter,
        sum_dim=total,
        complement_dim=h2 - total,
        pure=inter == 0,
        full=total == h2,
        representatives_plus=tuple(
            complexify_vector(v)
            for v in reference_complement_representatives(big_plus, im_real)
        ),
        representatives_minus=tuple(
            complexify_vector(v)
            for v in reference_complement_representatives(big_minus, im_real)
        ),
    )
