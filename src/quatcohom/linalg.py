"""Small exact linear algebra over Q(i).

Matrices are immutable and sparse.  Each row is held as one positive
integer d and a dict from column to the Gaussian integer (re, im) of each
nonzero entry, so that the entry in column j is (re + im*i)/d; zeros are
left out, and gcd(d, every re, every im) = 1.  That form is canonical, so
`==` and `hash` compare ints, and every operation costs about the nonzero
entries it touches: at real dimension 20 the operators hold one or two
nonzero entries per row.  `data`, `row`, `col` and `[i, j]` are read-only
dense views in Gaussian rationals, built on demand, for printing and for
the few callers that index entries.  Rows are never changed once they are
in a matrix, so matrices share them freely.

All elimination goes through one routine, `_eliminate`: sparse
fraction-free Gauss-Jordan elimination on Gaussian integers.  It takes the
rows as they are, the integer row of row (d, entries) being its entries and
its scale d.  The pivot of each column comes from the sparsest row that can
supply it, and an update touches only the rows nonzero in the pivot
column, and only their nonzero entries; each updated row is divided by its
content in Z[i], which keeps the integers as small as Bareiss
elimination's.  `rref`, `rank`, `pivot_columns`, `kernel_basis`,
`right_nullspace`, `solve`, `inverse`, `det`, `leading_principal_minors`
and `complement_basis` are all read off that routine; `rank`,
`pivot_columns`, `det` and the complement pick need only the pivots, so
they skip the reduction above the pivots and build no reduced matrix.
Which row supplies a pivot does not change the pivot columns or the
reduced echelon form, which is unique, so the reduced form is canonical.
A `Subspace` keeps its canonical basis, the nonzero rows of that form, as a
matrix; subspaces are compared and hashed through it.  Subspaces are
built as row spaces, kernels and column spaces of matrices, and the
callers take them as kernels and images of named operators: there is no
intersection here, and a dimension of an intersection or a quotient is
read off ranks.

Gaussian rationals are read as integers through `GaussianRational.numerator`
(the Gaussian integer a + b*i) and `denominator` (the positive d of
(a + b*i)/d), and built through `GaussianRational.from_integers`, which
brings them to lowest terms.
"""
from __future__ import annotations

from itertools import chain
from math import gcd, lcm, prod
from typing import (Dict, Iterable, List, Mapping, NamedTuple, Sequence, Set,
                    Tuple)

from .errors import NotASubspace
from .scalars import ZERO, GaussianRational, ScalarLike

Row = Tuple[GaussianRational, ...]

_GaussInt = Tuple[int, int]
_Entries = Dict[int, _GaussInt]
# (d, entries): the row whose entry in column j is entries[j] / d
_SparseRow = Tuple[int, _Entries]

_ZERO_ROW: _SparseRow = (1, {})
_from_integers = GaussianRational.from_integers


def _coerce_entry(value: ScalarLike) -> GaussianRational:
    out = GaussianRational._coerce(value)
    if out is NotImplemented:
        raise TypeError(f"matrix entries must be scalars, got {value!r}")
    return out


def _lowest_terms(d: int, entries: _Entries) -> _SparseRow:
    """The row entries / d, for d > 0 and no zero entry, in canonical form."""
    if not entries:
        return _ZERO_ROW
    if d != 1:
        g = gcd(d, *chain.from_iterable(entries.values()))
        if g != 1:
            d //= g
            entries = {j: (x // g, y // g) for j, (x, y) in entries.items()}
    return d, entries


def _scalar_row(items: Iterable[Tuple[int, ScalarLike]]) -> _SparseRow:
    """The sparse row with the given (column, scalar) entries.

    Over the lcm of the entry denominators the row is in lowest terms
    already: a prime power exactly dividing the lcm exactly divides some
    entry's denominator, and that entry's numerator is prime to it.
    """
    nonzero = []
    for j, x in items:
        if type(x) is not GaussianRational:
            x = _coerce_entry(x)
        if x:
            nonzero.append((j, x.numerator, x.denominator))
    if not nonzero:
        return _ZERO_ROW
    d = lcm(*(f for _, _, f in nonzero))
    if d == 1:
        return 1, {j: x for j, x, _ in nonzero}
    return d, {j: (a * (d // f), b * (d // f)) for j, (a, b), f in nonzero}


def _dense_row(row: _SparseRow, ncols: int) -> Row:
    d, entries = row
    dense = [ZERO] * ncols
    for j, (x, y) in entries.items():
        dense[j] = _from_integers(x, y, d)
    return tuple(dense)


def _add_rows(left: _SparseRow, right: _SparseRow, sign: int) -> _SparseRow:
    """left + sign * right."""
    (d, a), (f, b) = left, right
    if not b:
        return left
    den = d if d == f else lcm(d, f)
    m, n = den // d, sign * (den // f)
    out = dict(a) if m == 1 else {j: (x * m, y * m) for j, (x, y) in a.items()}
    for j, (x, y) in b.items():
        x, y = x * n, y * n
        old = out.get(j)
        if old is None:
            out[j] = (x, y)
        else:
            x, y = old[0] + x, old[1] + y
            if x or y:
                out[j] = (x, y)
            else:
                del out[j]
    return _lowest_terms(den, out)


class Mat:
    """An immutable nrows x ncols matrix over Q(i), stored as sparse rows.

    `Mat(nrows, ncols, rows)` takes the rows densely, as sequences of
    scalars.  Zero-by-n and n-by-zero shapes are legal and show up
    constantly as boundary maps in top and bottom degrees.
    """

    __slots__ = ("nrows", "ncols", "_rows", "_data")

    def __init__(self, nrows: int, ncols: int,
                 rows: Sequence[Sequence[ScalarLike]]) -> None:
        if len(rows) != nrows:
            raise ValueError(f"expected {nrows} rows, got {len(rows)}")
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged rows")
        _init(self, nrows, ncols,
              tuple(_scalar_row(enumerate(row)) for row in rows))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[ScalarLike]], ncols: int = -1) -> "Mat":
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        if rows:
            ncols = len(rows[0])
        elif ncols < 0:
            raise ValueError("empty matrix needs an explicit column count")
        return cls(len(rows), ncols, rows)

    @classmethod
    def from_entries(cls, nrows: int, ncols: int,
                     entries: Mapping[Tuple[int, int], ScalarLike]) -> "Mat":
        """The matrix with the given (row, column) entries, zero elsewhere."""
        by_row: List[List[Tuple[int, ScalarLike]]] = [[] for _ in range(nrows)]
        for (i, j), value in entries.items():
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise IndexError(f"entry ({i}, {j}) outside a {nrows}x{ncols} matrix")
            by_row[i].append((j, value))
        return _new_mat(nrows, ncols, tuple(_scalar_row(items) for items in by_row))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Mat":
        return _new_mat(nrows, ncols, (_ZERO_ROW,) * nrows)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return _new_mat(n, n, tuple((1, {i: (1, 0)}) for i in range(n)))

    @classmethod
    def column(cls, entries: Sequence[ScalarLike]) -> "Mat":
        return cls.from_rows([[x] for x in entries], ncols=1)

    # -- immutability, equality and copying ----------------------------------

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Mat is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Mat is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return Mat, (self.nrows, self.ncols, self.data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.nrows == other.nrows and self.ncols == other.ncols
                and self._rows == other._rows)

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols,
                     tuple((d, frozenset(e.items())) for d, e in self._rows)))

    # -- dense views -----------------------------------------------------------

    @property
    def data(self) -> Tuple[Row, ...]:
        """Every entry, as one tuple of Gaussian rationals per row."""
        if self._data is None:
            _set_data(self, tuple(_dense_row(row, self.ncols) for row in self._rows))
        return self._data

    def __getitem__(self, key: Tuple[int, int]) -> GaussianRational:
        i, j = key
        d, entries = self._rows[i]
        if j < 0:
            j += self.ncols
        if not 0 <= j < self.ncols:
            raise IndexError("column index out of range")
        value = entries.get(j)
        return ZERO if value is None else _from_integers(value[0], value[1], d)

    def row(self, i: int) -> Row:
        return _dense_row(self._rows[i], self.ncols)

    def col(self, j: int) -> Row:
        return tuple(self[i, j] for i in range(self.nrows))

    def columns(self) -> List[Row]:
        return list(self.transpose().data)

    # -- structure -------------------------------------------------------------

    def transpose(self) -> "Mat":
        gathered: List[List[Tuple[int, _GaussInt, int]]] = [[] for _ in range(self.ncols)]
        for i, (d, entries) in enumerate(self._rows):
            for j, value in entries.items():
                gathered[j].append((i, value, d))
        rows = []
        for column in gathered:
            den = lcm(*(d for _, _, d in column))
            if den == 1:
                rows.append((1, {i: value for i, value, _ in column}))
            else:
                rows.append(_lowest_terms(den, {
                    i: (x * (den // d), y * (den // d)) for i, (x, y), d in column
                }))
        return _new_mat(self.ncols, self.nrows, tuple(rows))

    def conj(self) -> "Mat":
        return _new_mat(self.nrows, self.ncols, tuple(
            (d, {j: (x, -y) for j, (x, y) in entries.items()})
            for d, entries in self._rows
        ))

    def conj_transpose(self) -> "Mat":
        return self.transpose().conj()

    def block(self, rows: Iterable[int], cols: range) -> "Mat":
        """The submatrix on the given rows and a contiguous range of columns."""
        start, stop = cols.start, cols.stop
        if cols.step != 1 or not 0 <= start <= stop <= self.ncols:
            raise ValueError(f"columns {cols} are not a block of 0..{self.ncols - 1}")
        out = []
        for i in rows:
            d, entries = self._rows[i]
            if start == 0 and stop == self.ncols:
                out.append((d, entries))
                continue
            kept = {j - start: v for j, v in entries.items() if start <= j < stop}
            out.append((d, kept) if len(kept) == len(entries) else _lowest_terms(d, kept))
        return _new_mat(len(out), stop - start, tuple(out))

    def hstack(self, other: "Mat") -> "Mat":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in hstack")
        # Over the lcm of the two denominators the joined row is in lowest
        # terms: each prime power of the lcm exactly divides one of them.
        n = self.ncols
        rows = []
        for (d, a), (f, b) in zip(self._rows, other._rows):
            if not b:
                rows.append((d, a))
                continue
            shifted = {j + n: v for j, v in b.items()}
            if not a:
                rows.append((f, shifted))
                continue
            den = d if d == f else lcm(d, f)
            m, k = den // d, den // f
            joined = dict(a) if m == 1 else {j: (x * m, y * m) for j, (x, y) in a.items()}
            if k == 1:
                joined.update(shifted)
            else:
                for j, (x, y) in shifted.items():
                    joined[j] = (x * k, y * k)
            rows.append((den, joined))
        return _new_mat(self.nrows, n + other.ncols, tuple(rows))

    def vstack(self, other: "Mat") -> "Mat":
        if self.ncols != other.ncols:
            raise ValueError("column count mismatch in vstack")
        return _new_mat(self.nrows + other.nrows, self.ncols, self._rows + other._rows)

    def is_zero(self) -> bool:
        return not any(entries for _, entries in self._rows)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix addition")
        return _new_mat(self.nrows, self.ncols, tuple(
            _add_rows(a, b, 1) for a, b in zip(self._rows, other._rows)))

    def __sub__(self, other: "Mat") -> "Mat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix subtraction")
        return _new_mat(self.nrows, self.ncols, tuple(
            _add_rows(a, b, -1) for a, b in zip(self._rows, other._rows)))

    def __neg__(self) -> "Mat":
        return _new_mat(self.nrows, self.ncols, tuple(
            (d, {j: (-x, -y) for j, (x, y) in entries.items()})
            for d, entries in self._rows
        ))

    def scale(self, factor: ScalarLike) -> "Mat":
        factor = _coerce_entry(factor)
        if not factor:
            return Mat.zeros(self.nrows, self.ncols)
        (p, q), f = factor.numerator, factor.denominator
        rows = []
        for d, entries in self._rows:
            if q:
                scaled = {j: (p * x - q * y, p * y + q * x) for j, (x, y) in entries.items()}
            else:
                scaled = {j: (p * x, p * y) for j, (x, y) in entries.items()}
            rows.append(_lowest_terms(d * f, scaled))
        return _new_mat(self.nrows, self.ncols, tuple(rows))

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: ({self.nrows}x{self.ncols}) @ "
                f"({other.nrows}x{other.ncols})"
            )
        # All of other is brought over one denominator once, so each output
        # row is a Gaussian-integer combination over the product of its own
        # denominator and that one, accumulated over nonzero entries only.
        den = lcm(*(d for d, _ in other._rows))
        b_rows = [list(e.items()) if d == den
                  else [(j, (x * (den // d), y * (den // d))) for j, (x, y) in e.items()]
                  for d, e in other._rows]
        rows = []
        for d, entries in self._rows:
            acc: Dict[int, _GaussInt] = {}
            get = acc.get
            for k, (ar, ai) in entries.items():
                if ai:
                    for j, (br, bi) in b_rows[k]:
                        re, im = ar * br - ai * bi, ar * bi + ai * br
                        old = get(j)
                        acc[j] = (re, im) if old is None else (old[0] + re, old[1] + im)
                else:
                    for j, (br, bi) in b_rows[k]:
                        old = get(j)
                        acc[j] = ((ar * br, ar * bi) if old is None
                                  else (old[0] + ar * br, old[1] + ar * bi))
            if len(entries) > 1:
                acc = {j: v for j, v in acc.items() if v[0] or v[1]}
            rows.append(_lowest_terms(d * den, acc))
        return _new_mat(self.nrows, other.ncols, tuple(rows))

    def apply(self, vector: Sequence[ScalarLike]) -> Tuple[GaussianRational, ...]:
        if len(vector) != self.ncols:
            raise ValueError("vector length does not match column count")
        f, v = _scalar_row(enumerate(vector))
        get = v.get
        out = []
        for d, entries in self._rows:
            re = im = 0
            for j, (x, y) in entries.items():
                w = get(j)
                if w is not None:
                    re += x * w[0] - y * w[1]
                    im += x * w[1] + y * w[0]
            out.append(_from_integers(re, im, d * f) if re or im else ZERO)
        return tuple(out)

    def apply_conjugated(self, vector: Sequence[ScalarLike]) -> Tuple[GaussianRational, ...]:
        """Apply to the entrywise conjugate of the vector.

        Antilinear operators are stored as a plain matrix plus the
        convention that the input is conjugated first; this is that action.
        """
        return self.apply([_coerce_entry(x).conjugate() for x in vector])

    # -- display ---------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Mat({self.nrows}, {self.ncols}, {self.data!r})"

    def __str__(self) -> str:
        if not self.nrows:
            return f"<empty {self.nrows}x{self.ncols}>"
        cells = [[str(x) for x in row] for row in self.data]
        width = max((len(c) for row in cells for c in row), default=0)
        return "\n".join(
            "[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells
        )


_new = object.__new__
_set_nrows = Mat.nrows.__set__  # type: ignore[attr-defined]
_set_ncols = Mat.ncols.__set__  # type: ignore[attr-defined]
_set_rows = Mat._rows.__set__  # type: ignore[attr-defined]
_set_data = Mat._data.__set__  # type: ignore[attr-defined]


def _init(mat: Mat, nrows: int, ncols: int, rows: Tuple[_SparseRow, ...]) -> None:
    _set_nrows(mat, nrows)
    _set_ncols(mat, ncols)
    _set_rows(mat, rows)
    _set_data(mat, None)


def _new_mat(nrows: int, ncols: int, rows: Tuple[_SparseRow, ...]) -> Mat:
    """A matrix of rows already in canonical sparse form."""
    mat = _new(Mat)
    _init(mat, nrows, ncols, rows)
    return mat


# ---------------------------------------------------------------------------
# Elimination.  Every routine below that reduces a matrix goes through
# `_eliminate`, which works on the integer rows of the matrix, copied into
# dicts of its own.
# ---------------------------------------------------------------------------


class _Reduction(NamedTuple):
    # the pivot rows in step order; with reduce_above they are multiples
    # of the rows of the reduced echelon form, without it the entries
    # above the pivots are left unreduced
    rows: List[_Entries]
    pivots: List[int]  # pivot column of each step
    sources: List[int]  # the input row that supplied each step's pivot
    scales: List[int]  # the positive integer each input row was multiplied by
    # the multiplier p and the content g of every update that left a
    # nonzero row: row <- (p * row - f * pivot_row) / g
    updates: List[Tuple[_GaussInt, _GaussInt]]


def _gaussian_gcd(ar: int, ai: int, br: int, bi: int) -> _GaussInt:
    """A gcd of ar + ai*i and br + bi*i in Z[i]: Euclid, quotients rounded."""
    while br or bi:
        n = br * br + bi * bi
        xr, xi = ar * br + ai * bi, ai * br - ar * bi  # (a/b) * n
        qr, qi = (2 * xr + n) // (2 * n), (2 * xi + n) // (2 * n)
        ar, ai, br, bi = br, bi, ar - qr * br + qi * bi, ai - qr * bi - qi * br
    return ar, ai


def _make_primitive(row: _Entries, norms: int) -> _GaussInt:
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

    Row (d, entries) of the matrix enters as the integer row `entries`,
    which is d times the row.  Columns are taken left to right.  The pivot
    of a column comes from the rows not yet used as pivots that are
    nonzero there; among them the one with the fewest nonzero entries is
    taken, ties going to the lowest input row (Markowitz's rule,
    restricted to the column).  Every other such row becomes
    p * row - f * pivot_row, where p is the pivot entry and f the row's
    entry in the pivot column, both first divided by their common integer
    factor, and is then divided by its content, the gcd in Z[i] of its
    entries.  A column index lists the rows nonzero in each column, so a
    step touches only the rows that hold the pivot column, and only their
    nonzero entries.

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
    scales = [d for d, _ in matrix._rows]
    rows = [dict(entries) for _, entries in matrix._rows]
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
    return _from_integers(a, b, c)


def rref(matrix: Mat) -> Tuple[Mat, List[int]]:
    """Reduced row echelon form and the list of pivot columns.

    The reduced echelon form is unique, so neither the row that supplies
    each pivot nor the order of the updates shows in the result: it is
    reproducible entry for entry across runs and platforms.  Each pivot
    row is divided by its pivot p by multiplying it by the conjugate of p
    over the norm of p.
    """
    reduction = _eliminate(matrix)
    rows = []
    for row, col in zip(reduction.rows, reduction.pivots):
        pr, pi = row[col]
        if pi:
            rows.append(_lowest_terms(pr * pr + pi * pi, {
                j: (x * pr + y * pi, y * pr - x * pi) for j, (x, y) in row.items()
            }))
        elif pr < 0:
            rows.append(_lowest_terms(-pr, {j: (-x, -y) for j, (x, y) in row.items()}))
        else:
            rows.append(_lowest_terms(pr, row))
    rows.extend([_ZERO_ROW] * (matrix.nrows - len(rows)))
    return _new_mat(matrix.nrows, matrix.ncols, tuple(rows)), reduction.pivots


def rank(matrix: Mat) -> int:
    """The number of pivots; no reduced matrix is built."""
    return len(_eliminate(matrix, reduce_above=False).pivots)


def pivot_columns(matrix: Mat) -> List[int]:
    """The lexicographically first independent columns; nothing is reduced."""
    return _eliminate(matrix, reduce_above=False).pivots


def kernel_basis(matrix: Mat) -> Mat:
    """A basis of {v : M v = 0} as the rows of a matrix, one per free column.

    Each basis vector has a 1 in its free column and zeros in the other
    free columns, so the output is canonical: it depends only on the
    kernel.  Its other entries are minus the free column of the reduced
    echelon form, read off the sparse reduced rows.
    """
    reduced, pivots = rref(matrix)
    pivot_set = set(pivots)
    hits: Dict[int, List[Tuple[int, _GaussInt, int]]] = {}
    for (d, entries), pcol in zip(reduced._rows, pivots):
        for j, value in entries.items():
            if j not in pivot_set:
                hits.setdefault(j, []).append((pcol, value, d))
    rows = []
    for j in range(matrix.ncols):
        if j in pivot_set:
            continue
        found = hits.get(j, ())
        den = lcm(*(d for _, _, d in found))
        vector = {j: (den, 0)}
        for pcol, (x, y), d in found:
            vector[pcol] = (-x * (den // d), -y * (den // d))
        rows.append(_lowest_terms(den, vector))
    return _new_mat(len(rows), matrix.ncols, tuple(rows))


def right_nullspace(matrix: Mat) -> List[Row]:
    """The rows of `kernel_basis`, as dense vectors."""
    return list(kernel_basis(matrix).data)


def solve(matrix: Mat, rhs: Sequence[ScalarLike]):
    """One solution of M x = rhs, or None if the system is inconsistent."""
    rhs_col = Mat.column(list(rhs))
    if rhs_col.nrows != matrix.nrows:
        raise ValueError("right hand side length does not match row count")
    n = matrix.ncols
    reduced, pivots = rref(matrix.hstack(rhs_col))
    if n in pivots:
        return None
    solution = [ZERO] * n
    for r, pcol in enumerate(pivots):
        solution[pcol] = reduced[r, n]
    return tuple(solution)


def inverse(matrix: Mat) -> Mat:
    if matrix.nrows != matrix.ncols:
        raise ValueError("only square matrices have inverses")
    n = matrix.nrows
    reduced, pivots = rref(matrix.hstack(Mat.identity(n)))
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return reduced.block(range(n), range(n, 2 * n))


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
    determinant of the input by the order of the rows, the denominator of
    each row, and the factor p/g of each update.
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
    return [det(matrix.block(range(k), range(k)))
            for k in range(1, matrix.nrows + 1)]


# ---------------------------------------------------------------------------
# Subspaces.
# ---------------------------------------------------------------------------


class Subspace:
    """A subspace of Q(i)^n, held as its canonical basis.

    `basis` is a matrix whose rows are the nonzero rows of the reduced row
    echelon form of any spanning set, and `rows` is its dense view.  Two
    Subspace objects are equal exactly when they describe the same
    subspace, so they can sit in sets and serve as dictionary keys; every
    constructor below preserves the normalization.
    `Subspace(ambient_dim, rows)` takes rows that are already canonical.
    """

    __slots__ = ("basis",)

    def __init__(self, ambient_dim: int, rows: Sequence[Sequence[ScalarLike]]) -> None:
        _set_basis(self, Mat(len(rows), ambient_dim, rows))

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence[ScalarLike]],
                     ambient_dim: int) -> "Subspace":
        material = [list(v) for v in vectors]
        for v in material:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        return cls.row_space(Mat(len(material), ambient_dim, material))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return _subspace(Mat.zeros(0, ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return _subspace(Mat.identity(ambient_dim))

    @classmethod
    def row_space(cls, matrix: Mat) -> "Subspace":
        """The span of the rows of a matrix."""
        if not matrix.nrows:
            return cls.zero(matrix.ncols)
        reduced, pivots = rref(matrix)
        return _subspace(reduced.block(range(len(pivots)), range(matrix.ncols)))

    @classmethod
    def column_space(cls, matrix: Mat) -> "Subspace":
        return cls.row_space(matrix.transpose())

    @classmethod
    def kernel(cls, matrix: Mat) -> "Subspace":
        return cls.row_space(kernel_basis(matrix))

    @property
    def ambient_dim(self) -> int:
        return self.basis.ncols

    @property
    def rows(self) -> Tuple[Row, ...]:
        return self.basis.data

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Subspace is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Subspace is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return Subspace, (self.ambient_dim, self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.basis == other.basis

    def __hash__(self) -> int:
        return hash(self.basis)

    def contains(self, vector: Sequence[ScalarLike]) -> bool:
        if len(vector) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return rank(self.basis.vstack(Mat(1, self.ambient_dim, [vector]))) == self.dim

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.row_space(self.basis.vstack(other.basis))

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces live in different ambient spaces")

    def __repr__(self) -> str:
        return f"Subspace({self.ambient_dim}, {self.rows!r})"

    def __str__(self) -> str:
        return f"<{self.dim}-dim subspace of C^{self.ambient_dim}>"


_set_basis = Subspace.basis.__set__  # type: ignore[attr-defined]


def _subspace(basis: Mat) -> Subspace:
    """The subspace whose canonical basis is the rows of `basis`."""
    space = _new(Subspace)
    _set_basis(space, basis)
    return space


def complement_basis(big: Subspace, small: Subspace) -> Mat:
    """Rows of `big`'s basis completing a basis of `small` to one of `big`.

    Greedy over the canonical rows of `big`: a row is kept when it is not
    in the span of `small` and the rows before it.  Those are exactly the
    pivot columns among the `big` columns of [small^T | big^T], so one
    elimination picks them all.  The same elimination checks containment:
    the rows of `big` are independent, so `small` lies in `big` exactly
    when the rank of both together is dim `big`.
    """
    big._check_ambient(small)
    pivots = pivot_columns(small.basis.vstack(big.basis).transpose())
    if len(pivots) != big.dim:
        raise NotASubspace("complement requested inside a non-subspace")
    return big.basis.block([c - small.dim for c in pivots if c >= small.dim],
                           range(big.ambient_dim))


def complement_representatives(big: Subspace, small: Subspace) -> List[Row]:
    """The rows of `complement_basis`, as dense vectors."""
    return list(complement_basis(big, small).data)


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


def _realify(matrix: Mat, sign: int) -> Mat:
    """[[Re, -sign Im], [Im, sign Re]]: sign 1 for linear maps, -1 for antilinear.

    Each block row holds the real and imaginary parts of one row over the
    same denominator, so it is in lowest terms as the row was.
    """
    n = matrix.ncols
    top, bottom = [], []
    for d, entries in matrix._rows:
        upper: _Entries = {}
        lower: _Entries = {}
        for j, (x, y) in entries.items():
            if x:
                upper[j] = (x, 0)
                lower[j + n] = (sign * x, 0)
            if y:
                upper[j + n] = (-sign * y, 0)
                lower[j] = (y, 0)
        top.append((d, upper))
        bottom.append((d, lower))
    return _new_mat(2 * matrix.nrows, 2 * n, tuple(top + bottom))


def realify_linear(matrix: Mat) -> Mat:
    """Real form [[Re, -Im], [Im, Re]] of a complex-linear map."""
    return _realify(matrix, 1)


def realify_antilinear(matrix: Mat) -> Mat:
    """Real form [[Re, Im], [Im, -Re]] of v -> M conj(v)."""
    return _realify(matrix, -1)
