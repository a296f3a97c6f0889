"""Small exact linear algebra over Q(i).

Matrices are immutable, stored as tuples of row tuples of Gaussian
rationals.  Most of them are nearly all zeros: at real dimension 20 the
operators hold one or two nonzero entries per row.

All elimination goes through one routine, `_eliminate`: sparse
fraction-free Gauss-Jordan elimination on Gaussian integers.  Each row is
multiplied once by the lcm of its denominators and held as a dict from
column to Gaussian integer (re, im), zeros left out.  The pivot of each
column comes from the sparsest row that can supply it, and an update
touches only the rows nonzero in the pivot column, and only their
nonzero entries; each updated row is divided by its content in Z[i],
which keeps the integers as small as Bareiss elimination's.  Entries are
read as integers through `GaussianRational.numerator` (the Gaussian
integer a + b*i) and `denominator` (the positive d of (a + b*i)/d), and
results are built through `GaussianRational.from_integers`, which brings
them to lowest terms.  `rref`, `rank`, `right_nullspace`, `solve`,
`inverse`, `det`, `leading_principal_minors` and
`complement_representatives` are all read off that routine; `rank`,
`det` and the complement pick need only the pivots, so they skip the
reduction above the pivots and build no reduced matrix.  Which row
supplies a pivot does not change the pivot columns or the reduced
echelon form, which is unique, so the reduced form is canonical;
subspaces are compared and hashed through it.

Products work the same way: `Mat.__matmul__` clears each operand of
denominators once, accumulates in Gaussian integers over the nonzero
entries, and builds one Gaussian rational per nonzero entry of the
result.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd, lcm, prod
from typing import Dict, Iterable, List, NamedTuple, Sequence, Set, Tuple

from .errors import NotASubspace
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
# `_eliminate`, which works on sparse rows of Gaussian integers: each row is
# cleared of denominators once and held as a dict from column to (re, im),
# with zero entries left out.
# ---------------------------------------------------------------------------

_GaussInt = Tuple[int, int]
_SparseRow = Dict[int, _GaussInt]


class _Reduction(NamedTuple):
    # the pivot rows in step order; with reduce_above they are multiples
    # of the rows of the reduced echelon form, without it the entries
    # above the pivots are left unreduced
    rows: List[_SparseRow]
    pivots: List[int]  # pivot column of each step
    sources: List[int]  # the input row that supplied each step's pivot
    scales: List[int]  # the positive integer each input row was multiplied by
    # the multiplier p and the content g of every update that left a
    # nonzero row: row <- (p * row - f * pivot_row) / g
    updates: List[Tuple[_GaussInt, _GaussInt]]


def _nonzero_entries(row: Row) -> List[Tuple[int, _GaussInt, int]]:
    """(column, numerator, denominator) of each nonzero entry."""
    # most zero entries are the shared ZERO, which the identity test
    # passes over without a method call
    return [(j, x.numerator, x.denominator) for j, x in enumerate(row)
            if x is not ZERO and x]


def _integer_row(row: Row) -> Tuple[int, _SparseRow]:
    """The row times the lcm of its denominators, as a sparse row."""
    entries = _nonzero_entries(row)
    scale = lcm(*(d for _, _, d in entries))
    if scale == 1:
        return 1, {j: x for j, x, _ in entries}
    return scale, {j: (a * (scale // d), b * (scale // d))
                   for j, (a, b), d in entries}


def _gaussian_gcd(ar: int, ai: int, br: int, bi: int) -> _GaussInt:
    """A gcd of ar + ai*i and br + bi*i in Z[i]: Euclid, quotients rounded."""
    while br or bi:
        n = br * br + bi * bi
        xr, xi = ar * br + ai * bi, ai * br - ar * bi  # (a/b) * n
        qr, qi = (2 * xr + n) // (2 * n), (2 * xi + n) // (2 * n)
        ar, ai, br, bi = br, bi, ar - qr * br + qi * bi, ai - qr * bi - qi * br
    return ar, ai


def _make_primitive(row: _SparseRow, norms: int) -> _GaussInt:
    """Divide a row by its content in Z[i], and return the content.

    `norms` is the gcd of the norms of the entries, which the norm of the
    content divides.  The integer content g is divided out first, in one
    gcd.  What is left of the content divides norms / g^2 in Z[i], so
    Euclid starts from that integer and runs again only for an entry the
    current candidate does not divide.
    """
    g = gcd(*chain.from_iterable(row.values()))
    if g != 1:
        for j, (x, y) in row.items():
            row[j] = (x // g, y // g)
    cr, ci = norms // (g * g), 0
    if cr == 1:
        return g, 0
    n = cr * cr
    for x, y in row.values():
        # (x + y*i) / (cr + ci*i) is (x + y*i)(cr - ci*i) / n
        if (x * cr + y * ci) % n or (y * cr - x * ci) % n:
            cr, ci = _gaussian_gcd(x, y, cr, ci)
            n = cr * cr + ci * ci
            if n == 1:
                return g, 0
    for j, (x, y) in row.items():
        row[j] = ((x * cr + y * ci) // n, (y * cr - x * ci) // n)
    return g * cr, g * ci


def _eliminate(matrix: Mat, reduce_above: bool = True) -> _Reduction:
    """Sparse fraction-free Gauss-Jordan elimination over Z[i].

    Columns are taken left to right.  The pivot of a column comes from the
    rows not yet used as pivots that are nonzero there; among them the one
    with the fewest nonzero entries is taken, ties going to the lowest
    input row (Markowitz's rule, restricted to the column).  Every other
    such row becomes p * row - f * pivot_row, where p is the pivot entry
    and f the row's entry in the pivot column, both first divided by their
    common integer factor, and is then divided by its content, the gcd in
    Z[i] of its entries.  A column index lists the rows nonzero in each
    column, so a step touches only the rows that hold the pivot column,
    and only their nonzero entries.

    The content keeps coefficients as small as Bareiss's.  A row not yet
    used as a pivot is zero in every earlier pivot column and lies in the
    span of its input row and the input rows of the earlier pivots; that
    fixes it up to a scalar, and the primitive vector on that line divides
    the vector of minors of the input that Bareiss elimination would hold.
    Dividing by the integer content alone is not enough: a factor such as
    2 + i can stay behind and grows with every step.

    With `reduce_above` the rows already used as pivots are cleared in the
    pivot column too, which leaves each pivot row a multiple of a row of
    the reduced echelon form.  Without it the pivot rows are never
    touched again, which finds the same pivots at less cost: rank,
    determinant and the complement pick need no more.

    The pivot columns, the lexicographically first independent columns,
    and the reduced echelon form do not depend on which row supplies a
    pivot.  The determinant does, by the recorded factors: each update
    multiplies it by p/g, and the pivot rows in step order are triangular.
    """
    scales: List[int] = []
    rows: List[_SparseRow] = []
    for row in matrix.data:
        scale, int_row = _integer_row(row)
        scales.append(scale)
        rows.append(int_row)
    index: List[Set[int]] = [set() for _ in range(matrix.ncols)]
    for r, row in enumerate(rows):
        for j in row:
            index[j].add(r)
    live = [True] * len(rows)
    remaining = sum(1 for row in rows if row)  # live rows that are nonzero
    pivots: List[int] = []
    sources: List[int] = []
    updates: List[Tuple[_GaussInt, _GaussInt]] = []
    for col, hits in enumerate(index):
        if not remaining:
            break
        candidates = [r for r in hits if live[r]]
        if not candidates:
            continue
        _, source = min((len(rows[r]), r) for r in candidates)
        live[source] = False
        remaining -= 1
        pivot_row = rows[source]
        pr, pi = pivot_row[col]
        for r in hits if reduce_above else candidates:
            if r == source:
                continue
            row = rows[r]
            fr, fi = row.pop(col)
            g = gcd(pr, pi, fr, fi)
            ar, ai, br, bi = pr // g, pi // g, fr // g, fi // g
            if ai:
                for j, (x, y) in row.items():
                    row[j] = (ar * x - ai * y, ar * y + ai * x)
            elif ar != 1:
                for j, (x, y) in row.items():
                    row[j] = (ar * x, ar * y)
            for j, (u, v) in pivot_row.items():
                if j == col:
                    continue
                if bi:
                    u, v = br * u - bi * v, br * v + bi * u
                else:
                    u, v = br * u, br * v
                old = row.get(j)
                if old is None:
                    row[j] = (-u, -v)
                    index[j].add(r)
                else:
                    x, y = old[0] - u, old[1] - v
                    if x or y:
                        row[j] = (x, y)
                    else:
                        del row[j]
                        index[j].discard(r)
            if not row:
                if live[r]:
                    remaining -= 1
                continue
            # the content's norm divides every entry's norm, so mostly this
            # one gcd shows that the row is primitive already
            norms = gcd(*[x * x + y * y for x, y in row.values()])
            content = (1, 0) if norms == 1 else _make_primitive(row, norms)
            updates.append(((ar, ai), content))
        pivots.append(col)
        sources.append(source)
    return _Reduction([rows[r] for r in sources], pivots, sources, scales,
                      updates)


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

    The reduced echelon form is unique, so neither the row that supplies
    each pivot nor the order of the updates shows in the result: it is
    reproducible entry for entry across runs and platforms.
    """
    reduction = _eliminate(matrix)
    data = []
    for row, col in zip(reduction.rows, reduction.pivots):
        pivot = row[col]
        dense = [ZERO] * matrix.ncols
        for j, x in row.items():
            dense[j] = _quotient(x, pivot)
        data.append(tuple(dense))
    data.extend([(ZERO,) * matrix.ncols] * (matrix.nrows - len(data)))
    return Mat(matrix.nrows, matrix.ncols, tuple(data)), reduction.pivots


def rank(matrix: Mat) -> int:
    """The number of pivots; no reduced matrix is built."""
    return len(_eliminate(matrix, reduce_above=False).pivots)


def right_nullspace(matrix: Mat) -> List[Tuple[GaussianRational, ...]]:
    """A basis of {v : M v = 0}, one vector per free column.

    Each basis vector has a 1 in its free column and zeros in the other
    free columns, so the output is canonical: it depends only on the
    kernel.
    """
    reduced, pivots = rref(matrix)
    pivot_set = set(pivots)
    free = [j for j in range(matrix.ncols) if j not in pivot_set]
    basis = []
    for j in free:
        vec = [ZERO] * matrix.ncols
        vec[j] = ONE
        for r, pcol in enumerate(pivots):
            x = reduced.data[r][j]
            if x:
                vec[pcol] = -x
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


def _gaussian_product(factors: Iterable[_GaussInt]) -> _GaussInt:
    re, im = 1, 0
    for x, y in factors:
        re, im = re * x - im * y, re * y + im * x
    return re, im


def _permutation_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            if j != start:
                sign = -sign
    return sign


def det(matrix: Mat) -> GaussianRational:
    """The determinant, read off one elimination without reduction above.

    The pivot rows, taken in step order, form an upper triangular matrix
    whose determinant is the product of the pivots.  It differs from the
    determinant of the input by the order of the rows, the lcm that
    cleared each row of denominators, and the factor p/g of each update.
    """
    if matrix.nrows != matrix.ncols:
        raise ValueError("determinant of a non-square matrix")
    reduction = _eliminate(matrix, reduce_above=False)
    if len(reduction.pivots) < matrix.nrows:
        return ZERO
    diagonal = [row[col] for row, col in zip(reduction.rows, reduction.pivots)]
    multipliers = [p for p, _ in reduction.updates]
    contents = [g for _, g in reduction.updates]
    sign = _permutation_sign(reduction.sources)
    return _quotient(_gaussian_product([(sign, 0)] + diagonal + contents),
                     _gaussian_product([(prod(reduction.scales), 0)] + multipliers))


def leading_principal_minors(matrix: Mat) -> List[GaussianRational]:
    """Determinants of the top-left k x k blocks, k = 1..n."""
    if matrix.nrows != matrix.ncols:
        raise ValueError("principal minors of a non-square matrix")
    return [det(Mat(k, k, tuple(row[:k] for row in matrix.data[:k])))
            for k in range(1, matrix.nrows + 1)]


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
