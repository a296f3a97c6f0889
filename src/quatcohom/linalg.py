"""Small exact linear algebra over Q(i).

Matrices are immutable, stored densely as tuples of row tuples of
Gaussian rationals.  The sizes appearing in this engine are tiny (the
largest spaces have dimension binomial(2n, p) for 4n at most 12).

All elimination goes through one routine, `_eliminate`: fraction-free
Gauss-Jordan elimination (Bareiss) on Gaussian integers.  Each row is
multiplied once by the lcm of its denominators and held as two lists of
plain ints, real and imaginary parts; every step divides exactly in Z[i],
and Gaussian rationals are built again only for the result.  Entries
are read as integers through `GaussianRational.numerator` (the Gaussian
integer a + b*i) and `denominator` (the positive d of (a + b*i)/d), and
results are built through `GaussianRational.from_integers`, which
brings them to lowest terms.  `rref`,
`rank`, `right_nullspace`, `solve`, `inverse`, `det` and
`leading_principal_minors` are all read off that routine; `rank`, `det`
and the minors need only the pivots and their values, so they skip the
reduction above the pivots and build no reduced matrix.  The pivot of
each column is the first row at or below the current one with a nonzero
entry there.  That pivot rule, together with full reduction above pivots
and scaling pivots to one, makes the reduced echelon form of a matrix
canonical; subspaces are compared and hashed through it.

Products work the same way: `Mat.__matmul__` clears each operand of
denominators once, accumulates in Gaussian integers over the nonzero
entries, and builds one Gaussian rational per nonzero entry of the
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm, prod
from typing import Iterable, List, NamedTuple, Sequence, Tuple

from .errors import InternalInconsistency, NotASubspace
from .scalars import ONE, ZERO, GaussianRational, ScalarLike

Row = Tuple[GaussianRational, ...]


def _coerce_entry(value: ScalarLike) -> GaussianRational:
    out = GaussianRational._coerce(value)
    if out is NotImplemented:
        raise TypeError(f"matrix entries must be scalars, got {value!r}")
    return out


@dataclass(frozen=True)
class Mat:
    """An immutable nrows x ncols matrix over Q(i).

    Zero-by-n and n-by-zero shapes are legal and show up constantly as
    boundary maps in top and bottom degrees.
    """

    nrows: int
    ncols: int
    data: Tuple[Row, ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[ScalarLike]], ncols: int = -1) -> "Mat":
        data = tuple(tuple(_coerce_entry(x) for x in row) for row in rows)
        if data:
            ncols = len(data[0])
            if any(len(row) != ncols for row in data):
                raise ValueError("ragged rows")
        elif ncols < 0:
            raise ValueError("empty matrix needs an explicit column count")
        return cls(len(data), ncols, data)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Mat":
        return cls(nrows, ncols, tuple((ZERO,) * ncols for _ in range(nrows)))

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls(n, n, tuple(
            tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
        ))

    @classmethod
    def column(cls, entries: Sequence[ScalarLike]) -> "Mat":
        return cls.from_rows([[x] for x in entries], ncols=1)

    def __getitem__(self, key: Tuple[int, int]) -> GaussianRational:
        i, j = key
        return self.data[i][j]

    def row(self, i: int) -> Row:
        return self.data[i]

    def col(self, j: int) -> Row:
        return tuple(row[j] for row in self.data)

    def columns(self) -> List[Row]:
        return [self.col(j) for j in range(self.ncols)]

    def transpose(self) -> "Mat":
        return Mat(self.ncols, self.nrows,
                   tuple(self.col(j) for j in range(self.ncols)))

    def conj(self) -> "Mat":
        return Mat(self.nrows, self.ncols,
                   tuple(tuple(x.conjugate() for x in row) for row in self.data))

    def conj_transpose(self) -> "Mat":
        return self.transpose().conj()

    def __add__(self, other: "Mat") -> "Mat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix addition")
        return Mat(self.nrows, self.ncols, tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.data, other.data)
        ))

    def __sub__(self, other: "Mat") -> "Mat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix subtraction")
        return Mat(self.nrows, self.ncols, tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.data, other.data)
        ))

    def __neg__(self) -> "Mat":
        return Mat(self.nrows, self.ncols,
                   tuple(tuple(-x for x in row) for row in self.data))

    def scale(self, factor: ScalarLike) -> "Mat":
        factor = _coerce_entry(factor)
        return Mat(self.nrows, self.ncols, tuple(
            tuple(factor * x for x in row) for row in self.data
        ))

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: ({self.nrows}x{self.ncols}) @ "
                f"({other.nrows}x{other.ncols})"
            )
        # Accumulate in Z[i] over nonzero entries only; the matrices here
        # are overwhelmingly sparse.  Each row of self is cleared of
        # denominators by its own lcm and all of other by one lcm, so each
        # output entry is one Gaussian integer over the product of the two.
        b_rows = [_nonzero_entries(row) for row in other.data]
        b_scale = lcm(*(d for row in b_rows for _, _, d in row))
        b_rows = [[(j, a * (b_scale // d), b * (b_scale // d))
                   for j, (a, b), d in row] for row in b_rows]
        n = other.ncols
        rows = []
        for row in self.data:
            a_row = _nonzero_entries(row)
            a_scale = lcm(*(d for _, _, d in a_row))
            acc_re = [0] * n
            acc_im = [0] * n
            for k, (a, b), d in a_row:
                ar = a * (a_scale // d)
                ai = b * (a_scale // d)
                for j, br, bi in b_rows[k]:
                    acc_re[j] += ar * br - ai * bi
                    acc_im[j] += ar * bi + ai * br
            den = (a_scale * b_scale, 0)
            rows.append(tuple(_quotient(x, den) for x in zip(acc_re, acc_im)))
        return Mat(self.nrows, other.ncols, tuple(rows))

    def apply(self, vector: Sequence[ScalarLike]) -> Tuple[GaussianRational, ...]:
        if len(vector) != self.ncols:
            raise ValueError("vector length does not match column count")
        vec = [_coerce_entry(x) for x in vector]
        out = []
        for row in self.data:
            acc = ZERO
            for a, b in zip(row, vec):
                if not (a.is_zero() or b.is_zero()):
                    acc = acc + a * b
            out.append(acc)
        return tuple(out)

    def apply_conjugated(self, vector: Sequence[ScalarLike]) -> Tuple[GaussianRational, ...]:
        """Apply to the entrywise conjugate of the vector.

        Antilinear operators are stored as a plain matrix plus the
        convention that the input is conjugated first; this is that action.
        """
        return self.apply([_coerce_entry(x).conjugate() for x in vector])

    def hstack(self, other: "Mat") -> "Mat":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in hstack")
        return Mat(self.nrows, self.ncols + other.ncols, tuple(
            ra + rb for ra, rb in zip(self.data, other.data)
        ))

    def vstack(self, other: "Mat") -> "Mat":
        if self.ncols != other.ncols:
            raise ValueError("column count mismatch in vstack")
        return Mat(self.nrows + other.nrows, self.ncols, self.data + other.data)

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.data for x in row)

    def __str__(self) -> str:
        if not self.data:
            return f"<empty {self.nrows}x{self.ncols}>"
        cells = [[str(x) for x in row] for row in self.data]
        width = max(len(c) for row in cells for c in row)
        return "\n".join(
            "[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells
        )


# ---------------------------------------------------------------------------
# Elimination.  Every routine below that reduces a matrix goes through
# `_eliminate`, which works on Gaussian integers: each row is cleared of
# denominators once and held as a list of real parts and a list of
# imaginary parts, all plain ints.
# ---------------------------------------------------------------------------

_GaussInt = Tuple[int, int]
_IntRow = Tuple[List[int], List[int]]


class _Reduction(NamedTuple):
    # den times the reduced echelon form, pivot rows first; without
    # reduce_above the entries above the pivots are left unreduced
    rows: List[_IntRow]
    pivots: List[int]  # pivot column of each elimination step
    den: _GaussInt  # the value every pivot entry ends with; 1 without pivots
    steps: List[Tuple[_GaussInt, bool]]  # pivot of each step, and whether a swap preceded it
    scales: List[int]  # the positive integer each input row was multiplied by


def _nonzero_entries(row: Row) -> List[Tuple[int, _GaussInt, int]]:
    """(column, numerator, denominator) of each nonzero entry."""
    return [(j, x.numerator, x.denominator) for j, x in enumerate(row) if x]


def _integer_row(row: Row) -> Tuple[int, _IntRow]:
    """The row times the lcm of its denominators, split into re and im."""
    entries = _nonzero_entries(row)
    scale = lcm(*(d for _, _, d in entries))
    re_part = [0] * len(row)
    im_part = [0] * len(row)
    for j, (a, b), d in entries:
        re_part[j] = a * (scale // d)
        im_part[j] = b * (scale // d)
    return scale, (re_part, im_part)


def _exact_quotient(re: List[int], im: List[int], dr: int, di: int) -> _IntRow:
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


def _eliminate(matrix: Mat, reduce_above: bool = True) -> _Reduction:
    """Fraction-free Gauss-Jordan elimination over Z[i] (Bareiss, 1968).

    Step k takes the pivot p in the first row at or below the k-th that is
    nonzero in the current column, and replaces every other row by
    (p * row - f * pivot_row) / d, where f is the row's entry in the pivot
    column and d the previous step's pivot.  The division is exact: each
    entry is then a minor of the integer matrix.  After the last step
    every pivot entry equals the last pivot and the rows are that pivot
    times the reduced echelon form.  Before any step is taken, each row is
    scaled by the lcm of its denominators, which leaves the row space, and
    so the reduced form, unchanged.

    With `reduce_above` false only the rows below each pivot are updated:
    plain Bareiss elimination, which finds the same pivots and the same
    pivot values at about half the work, but leaves the rows above
    unreduced.  Rank, determinant and minors need no more.
    """
    scales: List[int] = []
    rows: List[_IntRow] = []
    for row in matrix.data:
        scale, int_row = _integer_row(row)
        scales.append(scale)
        rows.append(int_row)
    nrows = matrix.nrows
    pivots: List[int] = []
    steps: List[Tuple[_GaussInt, bool]] = []
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
            rows[r] = _exact_quotient(re, im, dr, di) if divide else (re, im)
        pivots.append(col)
        steps.append(((pr, pi), swapped))
        dr, di = pr, pi
        i += 1
    return _Reduction(rows, pivots, (dr, di), steps, scales)


def _quotient(value: _GaussInt, by: _GaussInt) -> GaussianRational:
    """(a + b*i) / (c + d*i) as a Gaussian rational."""
    (a, b), (c, d) = value, by
    if d:
        a, b, c = a * c + b * d, b * c - a * d, c * c + d * d
    if not (a or b):
        return ZERO
    return GaussianRational.from_integers(a, b, c)


def rref(matrix: Mat) -> Tuple[Mat, List[int]]:
    """Reduced row echelon form and the list of pivot columns.

    The pivot for each column is the first row with a nonzero entry there;
    no magnitude-based pivot choice is ever useful in exact arithmetic and
    keeping the rule positional makes the output reproducible entry for
    entry across runs and platforms.
    """
    reduction = _eliminate(matrix)
    den = reduction.den
    rank_ = len(reduction.pivots)
    data = [
        tuple(_quotient((x, y), den) for x, y in zip(re, im))
        for re, im in reduction.rows[:rank_]
    ]
    data.extend([(ZERO,) * matrix.ncols] * (matrix.nrows - rank_))
    return Mat(matrix.nrows, matrix.ncols, tuple(data)), reduction.pivots


def rank(matrix: Mat) -> int:
    """The number of pivots; no reduced matrix is built."""
    return len(_eliminate(matrix, reduce_above=False).pivots)


def right_nullspace(matrix: Mat) -> List[Tuple[GaussianRational, ...]]:
    """A basis of {v : M v = 0}, one vector per free column.

    Each basis vector has a 1 in its free column and zeros in the other
    free columns, so the output is canonical given the pivot rule.
    """
    reduced, pivots = rref(matrix)
    pivot_set = set(pivots)
    free = [j for j in range(matrix.ncols) if j not in pivot_set]
    basis = []
    for j in free:
        vec = [ZERO] * matrix.ncols
        vec[j] = ONE
        for r, pcol in enumerate(pivots):
            vec[pcol] = -reduced.data[r][j]
        basis.append(tuple(vec))
    return basis


def solve(matrix: Mat, rhs: Sequence[ScalarLike]):
    """One solution of M x = rhs, or None if the system is inconsistent."""
    rhs_col = Mat.column(list(rhs))
    if rhs_col.nrows != matrix.nrows:
        raise ValueError("right hand side length does not match row count")
    augmented = matrix.hstack(rhs_col)
    reduced, pivots = rref(augmented)
    if matrix.ncols in pivots:
        return None
    solution = [ZERO] * matrix.ncols
    for r, pcol in enumerate(pivots):
        solution[pcol] = reduced.data[r][matrix.ncols]
    return tuple(solution)


def inverse(matrix: Mat) -> Mat:
    if matrix.nrows != matrix.ncols:
        raise ValueError("only square matrices have inverses")
    n = matrix.nrows
    reduced, pivots = rref(matrix.hstack(Mat.identity(n)))
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return Mat(n, n, tuple(row[n:] for row in reduced.data))


def det(matrix: Mat) -> GaussianRational:
    if matrix.nrows != matrix.ncols:
        raise ValueError("determinant of a non-square matrix")
    reduction = _eliminate(matrix, reduce_above=False)
    if len(reduction.pivots) < matrix.nrows:
        return ZERO
    # the last pivot is the determinant of the row-scaled, row-swapped matrix
    swaps = sum(swapped for _, swapped in reduction.steps)
    return _quotient(reduction.den, ((-1) ** swaps * prod(reduction.scales), 0))


def leading_principal_minors(matrix: Mat) -> List[GaussianRational]:
    """Determinants of the top-left k x k blocks, k = 1..n.

    While elimination pivots down the diagonal without a swap, the pivot
    of step k is the (k+1)-th leading minor of the row-scaled matrix, so
    one pass yields every minor up to the first that vanishes.  That one
    is zero (its diagonal entry was zero when its step came); each later
    minor takes an elimination of its own.
    """
    if matrix.nrows != matrix.ncols:
        raise ValueError("principal minors of a non-square matrix")
    reduction = _eliminate(matrix, reduce_above=False)
    out: List[GaussianRational] = []
    scale = 1
    for k, (col, (value, swapped)) in enumerate(zip(reduction.pivots, reduction.steps)):
        if col != k or swapped:
            break
        scale *= reduction.scales[k]
        out.append(_quotient(value, (scale, 0)))
    if len(out) < matrix.nrows:
        out.append(ZERO)
    for k in range(len(out) + 1, matrix.nrows + 1):
        out.append(det(Mat.from_rows([row[:k] for row in matrix.data[:k]], ncols=k)))
    return out


# ---------------------------------------------------------------------------
# Subspaces.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q(i)^n, normalized to canonical echelon row form.

    Two Subspace objects are equal exactly when they describe the same
    subspace, so they can sit in sets and serve as dictionary keys; all
    the lattice operations below preserve the normalization.
    """

    ambient_dim: int
    rows: Tuple[Row, ...]

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence[ScalarLike]],
                     ambient_dim: int) -> "Subspace":
        material = [list(v) for v in vectors]
        for v in material:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        if not material:
            return cls(ambient_dim, ())
        reduced, pivots = rref(Mat.from_rows(material, ncols=ambient_dim))
        return cls(ambient_dim, reduced.data[: len(pivots)])

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.from_vectors(Mat.identity(ambient_dim).data, ambient_dim)

    @classmethod
    def column_space(cls, matrix: Mat) -> "Subspace":
        return cls.from_vectors(matrix.columns(), matrix.nrows)

    @classmethod
    def kernel(cls, matrix: Mat) -> "Subspace":
        return cls.from_vectors(right_nullspace(matrix), matrix.ncols)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, vector: Sequence[ScalarLike]) -> bool:
        vec = [_coerce_entry(x) for x in vector]
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        for row in self.rows:
            pivot = next(j for j, x in enumerate(row) if x)
            if vec[pivot]:
                factor = vec[pivot]
                vec = [a - factor * b for a, b in zip(vec, row)]
        return all(x.is_zero() for x in vec)

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_vectors(self.rows + other.rows, self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of the stacked basis matrix.

        A vector in both spaces is U^T a = V^T b; solving the homogeneous
        system [U^T | -V^T] (a, b) = 0 and reading off U^T a gives a
        spanning set of the intersection.
        """
        self._check_ambient(other)
        if not self.rows or not other.rows:
            return Subspace.zero(self.ambient_dim)
        ut = Mat.from_rows(self.rows, ncols=self.ambient_dim).transpose()
        vt = Mat.from_rows(other.rows, ncols=self.ambient_dim).transpose()
        stacked = ut.hstack(-vt)
        vectors = []
        for null_vec in right_nullspace(stacked):
            a = null_vec[: self.dim]
            vectors.append(ut.apply(a))
        return Subspace.from_vectors(vectors, self.ambient_dim)

    def quotient_dim(self, smaller: "Subspace") -> int:
        self._check_ambient(smaller)
        if not self.contains_space(smaller):
            raise NotASubspace(
                "quotient requested by a space that is not contained in the numerator"
            )
        return self.dim - smaller.dim

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces live in different ambient spaces")

    def __str__(self) -> str:
        return f"<{self.dim}-dim subspace of C^{self.ambient_dim}>"


def complement_representatives(big: Subspace, small: Subspace) -> List[Row]:
    """Vectors of `big` completing a basis of `small` to one of `big`.

    Greedy over the canonical rows of `big`: a row is kept when it is not
    in the span of `small` and the rows before it.  Those are exactly the
    pivot columns among the `big` columns of [small^T | big^T], so one
    elimination picks them all.  The same elimination checks containment:
    the rows of `big` are independent, so `small` lies in `big` exactly
    when the rank of both together is dim `big`.
    """
    big._check_ambient(small)
    columns = Mat.from_rows(small.rows + big.rows, ncols=big.ambient_dim).transpose()
    pivots = _eliminate(columns, reduce_above=False).pivots
    if len(pivots) != big.dim:
        raise NotASubspace("complement requested inside a non-subspace")
    return [big.rows[c - small.dim] for c in pivots if c >= small.dim]


# ---------------------------------------------------------------------------
# Realification.  A vector in C^n becomes (re parts, im parts) in Q^{2n};
# complex-linear and antilinear maps become real 2n x 2n block matrices.
# ---------------------------------------------------------------------------


def realify_vector(vector: Sequence[ScalarLike]) -> Tuple[GaussianRational, ...]:
    vec = [_coerce_entry(x) for x in vector]
    res = [GaussianRational(x.re) for x in vec]
    ims = [GaussianRational(x.im) for x in vec]
    return tuple(res + ims)


def complexify_vector(vector: Sequence[ScalarLike]) -> Tuple[GaussianRational, ...]:
    vec = [_coerce_entry(x) for x in vector]
    if len(vec) % 2:
        raise ValueError("realified vectors have even length")
    half = len(vec) // 2
    out = []
    for re_part, im_part in zip(vec[:half], vec[half:]):
        if re_part.im or im_part.im:
            raise ValueError("realified vectors must have real entries")
        out.append(GaussianRational(re_part.re, im_part.re))
    return tuple(out)


def _re_im_blocks(matrix: Mat) -> Tuple[List[List[GaussianRational]], List[List[GaussianRational]]]:
    re_block = [[GaussianRational(x.re) for x in row] for row in matrix.data]
    im_block = [[GaussianRational(x.im) for x in row] for row in matrix.data]
    return re_block, im_block


def realify_linear(matrix: Mat) -> Mat:
    """Real form [[Re, -Im], [Im, Re]] of a complex-linear map."""
    re_block, im_block = _re_im_blocks(matrix)
    top = [r + [-x for x in i] for r, i in zip(re_block, im_block)]
    bottom = [i + r for r, i in zip(re_block, im_block)]
    return Mat.from_rows(top + bottom, ncols=2 * matrix.ncols)


def realify_antilinear(matrix: Mat) -> Mat:
    """Real form [[Re, Im], [Im, -Re]] of v -> M conj(v)."""
    re_block, im_block = _re_im_blocks(matrix)
    top = [r + i for r, i in zip(re_block, im_block)]
    bottom = [i + [-x for x in r] for r, i in zip(re_block, im_block)]
    return Mat.from_rows(top + bottom, ncols=2 * matrix.ncols)
