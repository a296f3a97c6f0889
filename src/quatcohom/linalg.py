"""Small exact linear algebra over Q(i).

Matrices are immutable and sparse.  Each row is held as one positive
integer d and a dict from column to the Gaussian integer (re, im) of each
nonzero entry, so that the entry in column j is (re + im*i)/d; zeros are
left out, and gcd(d, every re, every im) = 1.  That form is canonical, so
`==` and `hash` compare ints, and every operation costs about the nonzero
entries it touches: at real dimension 20 the operators hold one or two
nonzero entries per row.  `data` and `[i, j]` are read-only dense views in
Gaussian rationals, built on demand, for printing and for the few callers
that index entries; `row_terms` gives one row's nonzero entries alone.
Rows are never changed once they are in a matrix, so matrices share them
freely.

A form is a one-row matrix of its coordinates, and a list of forms, such
as a kernel or a class basis, is a matrix with one form per row.  An
operator acts on forms only by products, or by the relabelling of a
`SignedPermutation`; there is no separate vector type.

Elimination goes through two routines, both on Gaussian integers and both
taking the rows as they are, the integer row of row (d, entries) being its
entries.  `_eliminate` is sparse fraction-free Gauss-Jordan elimination.
The pivot of each column comes from the sparsest row that can supply it,
and an update touches only the rows nonzero in the pivot column, and only
their nonzero entries; each updated row and each pivot is divided by its
content in Z[i], which keeps the integers as small as Bareiss's.  `rref`,
`rank`, `pivot_columns`, `kernel_basis`, `solve`, `inverse`, `row_basis`,
`kernel_and_row_basis` and `complement_basis` are read off it; `rank`,
`pivot_columns` and the complement pick need only the pivots, so they
skip the reduction above the pivots and build no reduced matrix.  Which
row supplies a pivot does not change the pivot columns or the reduced
echelon form, which is unique, so the reduced form is canonical.

`det` and `leading_principal_minors` are read off `_diagonal_pass`, Bareiss
elimination down the diagonal.  The minors need the natural pivot order:
each pivot is a leading minor only while the rows keep their order and
their scale, which the Markowitz row choice and the content division do
not keep.

A subspace is a matrix whose rows are a basis of it.  `row_basis` gives
the canonical one, the nonzero rows of the reduced echelon form, so two
such matrices are equal exactly when their rows span the same space.  The
callers hold only kernels of named operators so; an image is handed over
as the operator, whose columns span it, as `complement_basis` takes it.
There is no intersection here, and a dimension of an intersection or a
quotient is read off ranks.

A signed permutation matrix, one entry +1 or -1 in each row and each
column, is a `SignedPermutation`: two tuples of ints, no scalars.  It
composes, inverts (its inverse is its transpose) and multiplies a `Mat`
from either side by moving and negating rows or entries, with no
arithmetic; `mat()` gives its `Mat` form for the callers that need one.

`bilinear_rows` evaluates a bilinear map with integer coefficients over
one denominator, such as a Lie bracket, on pairs of rows, summing
Gaussian integers and returning the values as the rows of one matrix.

Gaussian rationals are read as integers through `GaussianRational.numerator`
(the Gaussian integer a + b*i) and `denominator` (the positive d of
(a + b*i)/d), and built through `GaussianRational.from_integers`, which
brings them to lowest terms.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from math import gcd, lcm, prod
from typing import (Dict, Iterable, List, Mapping, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from .errors import NotASubspace
from .memo import memo
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

    def row_terms(self, i: int) -> List[Tuple[int, GaussianRational]]:
        """The nonzero entries of row i, as (column, value) in column order."""
        d, entries = self._rows[i]
        return [(j, _from_integers(x, y, d)) for j, (x, y) in sorted(entries.items())]

    # -- structure -------------------------------------------------------------

    def transpose(self) -> "Mat":
        columns: List[_Entries] = [{} for _ in range(self.ncols)]
        for i, (_, entries) in enumerate(self._rows):
            for j, value in entries.items():
                columns[j][i] = value
        dens = [d for d, _ in self._rows]
        if all(d == 1 for d in dens):  # integer rows: the columns are in lowest terms
            return _new_mat(self.ncols, self.nrows, tuple((1, c) for c in columns))
        rows = []
        for column in columns:
            den = lcm(*(dens[i] for i in column))
            rows.append((1, column) if den == 1 else _lowest_terms(den, {
                i: (x * (den // dens[i]), y * (den // dens[i])) for i, (x, y) in column.items()
            }))
        return _new_mat(self.ncols, self.nrows, tuple(rows))

    def conj(self) -> "Mat":
        return _new_mat(self.nrows, self.ncols, tuple(
            (d, {j: (x, -y) for j, (x, y) in entries.items()})
            for d, entries in self._rows
        ))

    def block(self, rows: Iterable[int], cols: range) -> "Mat":
        """The submatrix on the given rows and a contiguous range of columns."""
        start, stop = cols.start, cols.stop
        if cols.step != 1 or not 0 <= start <= stop <= self.ncols:
            raise ValueError(f"columns {cols} are not a block of 0..{self.ncols - 1}")
        if start == 0 and stop == self.ncols:  # whole rows, shared
            picked = tuple(self._rows[i] for i in rows)
            return _new_mat(len(picked), stop, picked)
        out = []
        for i in rows:
            d, entries = self._rows[i]
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
# Signed permutations.  Negating the entries of a canonical row leaves it
# canonical, so relabelling builds its rows without a gcd.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignedPermutation:
    """The n x n matrix whose column j is signs[j] times unit vector targets[j].

    `targets` is a permutation of 0..n-1 and each sign is 1 or -1.  The
    operations move and negate entries and compute nothing else.
    """

    targets: Tuple[int, ...]
    signs: Tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.targets)
        if len(self.signs) != n or sorted(self.targets) != list(range(n)):
            raise ValueError("targets must be a permutation of 0..n-1, with one sign each")
        if any(s != 1 and s != -1 for s in self.signs):
            raise ValueError("signs must be 1 or -1")

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(tuple(range(n)), (1,) * n)

    @property
    def size(self) -> int:
        return len(self.targets)

    def __neg__(self) -> "SignedPermutation":
        return SignedPermutation(self.targets, tuple(-s for s in self.signs))

    def _check(self, size: int, what: str) -> None:
        if size != self.size:
            raise ValueError(
                f"shape mismatch: {what} of size {size} against a signed "
                f"permutation of size {self.size}")

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """The product self @ other, which applies other first."""
        self._check(other.size, "a signed permutation")
        targets, signs = self.targets, self.signs
        return SignedPermutation(
            tuple(targets[t] for t in other.targets),
            tuple(signs[t] * s for t, s in zip(other.targets, other.signs)))

    @memo
    def inverse(self) -> "SignedPermutation":
        """The inverse, which is the transpose; built once."""
        targets = [0] * self.size
        signs = [1] * self.size
        for j, (t, s) in enumerate(zip(self.targets, self.signs)):
            targets[t] = j
            signs[t] = s
        return SignedPermutation(tuple(targets), tuple(signs))

    def first_difference(self, other: "SignedPermutation") -> Optional[int]:
        """The first column in which the two differ, or None if they are equal."""
        self._check(other.size, "a signed permutation")
        pairs = zip(self.targets, self.signs, other.targets, other.signs)
        return next((j for j, (t, s, u, v) in enumerate(pairs) if t != u or s != v), None)

    def mat(self) -> Mat:
        return self.relabel_rows(Mat.identity(self.size))

    def relabel_rows(self, matrix: Mat) -> Mat:
        """The product self @ matrix: row i of the matrix, times signs[i],
        becomes row targets[i]."""
        self._check(matrix.nrows, "a matrix with rows")
        rows: List[_SparseRow] = [_ZERO_ROW] * self.size
        for (d, entries), t, s in zip(matrix._rows, self.targets, self.signs):
            rows[t] = (d, entries) if s > 0 else (d, {
                j: (-x, -y) for j, (x, y) in entries.items()})
        return _new_mat(self.size, matrix.ncols, tuple(rows))

    def relabel_columns(self, matrix: Mat) -> Mat:
        """The product matrix @ self: column targets[j] of the matrix, times
        signs[j], becomes column j."""
        self._check(matrix.ncols, "a matrix with columns")
        back = self.inverse()
        where, signs = back.targets, back.signs
        return _new_mat(matrix.nrows, self.size, tuple(
            (d, {where[k]: (x, y) if signs[k] > 0 else (-x, -y)
                 for k, (x, y) in entries.items()})
            for d, entries in matrix._rows))


# ---------------------------------------------------------------------------
# Bilinear maps with integer coefficients, on the integer rows.
# ---------------------------------------------------------------------------


def bilinear_rows(table: Sequence[Sequence[Tuple[int, int, int]]], den: int,
                  left: Mat, right: Mat, pairs: Iterable[Tuple[int, int]]) -> Mat:
    """The values of a bilinear map on pairs of rows, one row per pair.

    `table[a]` lists the (k, j, c), c an integer, with beta(e_a, e_j)_k =
    c / den summed over the list, so beta(x, y)_k is the sum of
    x_a c y_j / den over every a and every (k, j, c) of `table[a]`; the
    output has len(table) columns.  Row n of the result is beta(left_s,
    right_t) for the n-th pair (s, t).  Rows (d, X) and (f, Y) give it as
    the Gaussian-integer sum of X_a c Y_j over den * d * f, so no scalar is
    built.
    """
    if left.ncols != len(table) or right.ncols != len(table):
        raise ValueError(f"a bilinear map on {len(table)} coordinates applied to "
                         f"rows of length {left.ncols} and {right.ncols}")
    lrows, rrows = left._rows, right._rows
    rows = []
    for s, t in pairs:
        (d, x), (f, y) = lrows[s], rrows[t]
        acc: Dict[int, _GaussInt] = {}
        get, y_get = acc.get, y.get
        for a, (xr, xi) in x.items():
            for k, j, c in table[a]:
                w = y_get(j)
                if w is not None:
                    yr, yi = w
                    re, im = c * (xr * yr - xi * yi), c * (xr * yi + xi * yr)
                    old = get(k)
                    acc[k] = (re, im) if old is None else (old[0] + re, old[1] + im)
        rows.append(_lowest_terms(den * d * f, {
            k: v for k, v in acc.items() if v[0] or v[1]}))
    return _new_mat(len(rows), len(table), tuple(rows))


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


def _gaussian_gcd(ar: int, ai: int, br: int, bi: int) -> _GaussInt:
    """A gcd of ar + ai*i and br + bi*i in Z[i]: Euclid, quotients rounded."""
    while br or bi:
        n = br * br + bi * bi
        xr, xi = ar * br + ai * bi, ai * br - ar * bi  # (a/b) * n
        qr, qi = (2 * xr + n) // (2 * n), (2 * xi + n) // (2 * n)
        ar, ai, br, bi = br, bi, ar - qr * br + qi * bi, ai - qr * bi - qi * br
    return ar, ai


def _make_primitive(row: _Entries) -> None:
    """Divide a nonzero row by its content in Z[i], in one Euclid pass.

    The candidate starts as the first entry and becomes its gcd with each
    entry it does not divide, unless their norms are coprime, which shows
    the row primitive.  A unit candidate ends the pass too.
    """
    entries = iter(row.values())
    cr, ci = next(entries)
    n = cr * cr + ci * ci
    if n == 1:
        return
    for x, y in entries:
        # (x + y*i) / (cr + ci*i) is (x + y*i)(cr - ci*i) / n
        if (x * cr + y * ci) % n or (y * cr - x * ci) % n:
            if gcd(n, x * x + y * y) == 1:
                return
            cr, ci = _gaussian_gcd(x, y, cr, ci)
            n = cr * cr + ci * ci
            if n == 1:
                return
    for j, (x, y) in row.items():
        row[j] = ((x * cr + y * ci) // n, (y * cr - x * ci) // n)


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
    entries, as is an input row taken as a pivot.  A column index lists
    the rows nonzero in each column that some row holds, so a step
    touches only the rows that hold the pivot column, and only their
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
    touched again, which finds the same pivots at less cost: rank and the
    complement pick need no more.

    The pivot columns, the lexicographically first independent columns,
    and the reduced echelon form do not depend on which row supplies a
    pivot.
    """
    rows = [dict(entries) for _, entries in matrix._rows]
    index: Dict[int, Set[int]] = defaultdict(set)
    for r, row in enumerate(rows):
        for j in row:
            index[j].add(r)
    live = [True] * len(rows)
    primitive = [False] * len(rows)  # an input row is not made primitive yet
    remaining = sum(1 for row in rows if row)  # live rows that are nonzero
    pivot_rows: List[_Entries] = []
    pivots: List[int] = []
    for col in sorted(index):  # fill-in comes only in columns held already
        if not remaining:
            break
        hits = index[col]
        candidates = [r for r in hits if live[r]]
        if not candidates:
            continue
        _, source = min((len(rows[r]), r) for r in candidates)
        live[source] = False
        remaining -= 1
        pivot_row = rows[source]
        pr, pi = pivot_row[col]
        # a row with a unit entry is primitive already
        if not primitive[source] and pr * pr + pi * pi != 1:
            _make_primitive(pivot_row)
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
            if row:
                _make_primitive(row)
                primitive[r] = True
            elif live[r]:
                remaining -= 1
        pivot_rows.append(pivot_row)
        pivots.append(col)
    return _Reduction(pivot_rows, pivots)


def _diagonal_pass(matrix: Mat) -> Tuple[List[_GaussInt], int, int]:
    """Fraction-free Bareiss elimination down the diagonal of a square matrix.

    Row (d, entries) enters as its integer row `entries`.  Step k pivots on
    the diagonal entry p, swapping in the first lower row nonzero in column
    k only when that entry is zero, and each lower row becomes
    (p * row - f * pivot_row) / q, f its entry in column k and q the
    previous pivot; the division is exact.  Until the first swap the pivots
    are the leading principal minors of the integer matrix, in order; the
    last pivot is its determinant times the sign of the swaps.

    Returns the pivots, the step of the first zero diagonal entry (n if
    none) and the sign of the swaps.  A column with no nonzero entry on or
    below the diagonal stops the pass short: the matrix is singular.
    """
    n = matrix.nrows
    rows = [entries for _, entries in matrix._rows]  # replaced, never changed
    pivots: List[_GaussInt] = []
    first_zero = n
    sign = 1
    qr, qi = 1, 0
    for k in range(n):
        if k not in rows[k]:
            first_zero = min(first_zero, k)
            found = next((r for r in range(k + 1, n) if k in rows[r]), None)
            if found is None:
                break
            rows[k], rows[found] = rows[found], rows[k]
            sign = -sign
        pivot_row = rows[k]
        pr, pi = pivot_row[k]
        # dividing by q is multiplying by its conjugate, then dividing by
        # its norm; a real q divides directly
        den = qr * qr + qi * qi if qi else qr
        for r in range(k + 1, n):
            row = rows[r]
            fr, fi = row.get(k, (0, 0))
            out = {}  # column k comes out zero, so it is dropped with the zeros
            for j in row.keys() | pivot_row.keys():
                x, y = row.get(j, (0, 0))
                u, v = pivot_row.get(j, (0, 0))
                re = pr * x - pi * y - fr * u + fi * v
                im = pr * y + pi * x - fr * v - fi * u
                if re or im:
                    if qi:
                        re, im = re * qr + im * qi, im * qr - re * qi
                    out[j] = (re // den, im // den)
            rows[r] = out
        pivots.append((pr, pi))
        qr, qi = pr, pi
    return pivots, first_zero, sign


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
    echelon form, read off the sparse reduced rows; a reduced row is zero
    left of its pivot, so they sit only at pivot columns before the free
    column, and each row's last nonzero column is its free column
    (`last_nonzero_columns` reads them).  So v -> v[free columns] is
    injective on the kernel, and the rows are the identity there.
    """
    return _kernel_rows(*rref(matrix))


def kernel_and_row_basis(matrix: Mat) -> Tuple[Mat, Mat]:
    """`kernel_basis` and `row_basis` of one matrix, read off one rref.

    With the bilinear pairing the row space is exactly the set of vectors
    that every kernel vector annihilates.
    """
    reduced, pivots = rref(matrix)
    return (_kernel_rows(reduced, pivots),
            reduced.block(range(len(pivots)), range(matrix.ncols)))


def _kernel_rows(reduced: Mat, pivots: List[int]) -> Mat:
    """The kernel basis read off a reduced echelon form and its pivots."""
    pivot_set = set(pivots)
    hits: Dict[int, List[Tuple[int, _GaussInt, int]]] = {}
    for (d, entries), pcol in zip(reduced._rows, pivots):
        for j, value in entries.items():
            if j not in pivot_set:
                hits.setdefault(j, []).append((pcol, value, d))
    rows = []
    for j in range(reduced.ncols):
        if j in pivot_set:
            continue
        found = hits.get(j, ())
        den = lcm(*(d for _, _, d in found))
        vector = {j: (den, 0)}
        for pcol, (x, y), d in found:
            vector[pcol] = (-x * (den // d), -y * (den // d))
        rows.append(_lowest_terms(den, vector))
    return _new_mat(len(rows), reduced.ncols, tuple(rows))


def last_nonzero_columns(matrix: Mat) -> List[int]:
    """The last nonzero column of each row; no row may be zero.

    On a `kernel_basis` these are the free columns, in increasing order.
    """
    columns = []
    for _, entries in matrix._rows:
        if not entries:
            raise ValueError("a zero row has no last nonzero column")
        columns.append(max(entries))
    return columns


def solve(matrix: Mat, rhs: Mat) -> Optional[Mat]:
    """One solution of M x = rhs, for a one-column rhs, as a one-column
    matrix; None if the system is inconsistent."""
    if rhs.ncols != 1 or rhs.nrows != matrix.nrows:
        raise ValueError(f"right hand side of shape {rhs.nrows}x{rhs.ncols}, "
                         f"expected {matrix.nrows}x1")
    n = matrix.ncols
    reduced, pivots = rref(matrix.hstack(rhs))
    if n in pivots:
        return None
    return Mat.from_entries(n, 1, {(pcol, 0): reduced[r, n] for r, pcol in enumerate(pivots)})


def inverse(matrix: Mat) -> Mat:
    if matrix.nrows != matrix.ncols:
        raise ValueError("only square matrices have inverses")
    n = matrix.nrows
    reduced, pivots = rref(matrix.hstack(Mat.identity(n)))
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return reduced.block(range(n), range(n, 2 * n))


def det(matrix: Mat) -> GaussianRational:
    """The determinant: the signed last pivot of `_diagonal_pass`, over the
    product of the row denominators."""
    if matrix.nrows != matrix.ncols:
        raise ValueError("determinant of a non-square matrix")
    pivots, _, sign = _diagonal_pass(matrix)
    return _last_minor(matrix, pivots, sign)


def _last_minor(matrix: Mat, pivots: List[_GaussInt], sign: int) -> GaussianRational:
    """The determinant from the `_diagonal_pass` of the matrix: 0 if the
    pass stopped short, else its signed last pivot over the product of
    the row denominators."""
    if len(pivots) < matrix.nrows:
        return ZERO
    x, y = pivots[-1] if pivots else (1, 0)
    return _from_integers(sign * x, sign * y, prod(d for d, _ in matrix._rows))


def leading_principal_minors(matrix: Mat) -> List[GaussianRational]:
    """Determinants of the top-left k x k blocks, k = 1..n.

    Up to the first zero diagonal entry of `_diagonal_pass`, the k-th minor
    is the k-th pivot over the product of the first k row denominators.
    That zero entry is the next minor, the last minor is the determinant
    read off the same pass, and each minor in between takes a `det` of its
    own block, which a positive-definite matrix never needs.
    """
    n = matrix.nrows
    if n != matrix.ncols:
        raise ValueError("principal minors of a non-square matrix")
    pivots, first_zero, sign = _diagonal_pass(matrix)
    minors = []
    scale = 1
    for (x, y), (d, _) in zip(pivots[:first_zero], matrix._rows):
        scale *= d
        minors.append(_from_integers(x, y, scale))
    if first_zero < n:
        minors.append(ZERO)
        minors.extend(det(matrix.block(range(k), range(k)))
                      for k in range(first_zero + 2, n))
        if first_zero + 1 < n:
            minors.append(_last_minor(matrix, pivots, sign))
    return minors


def row_basis(matrix: Mat) -> Mat:
    """The canonical basis of the row space: the nonzero rows of the rref.

    The reduced echelon form is unique, so two matrices have equal row
    bases exactly when their rows span the same space.
    """
    reduced, pivots = rref(matrix)
    return reduced.block(range(len(pivots)), range(matrix.ncols))


def complement_basis(big: Mat, small: Mat) -> Mat:
    """Rows of `big` that complete the span of `small` to the span of `big`.

    The rows of `big` must be independent; the columns of `small`, such as
    an operator's, need only span.
    Greedy over the rows of `big`: a row is kept when it is not in the span
    of `small` and the rows before it.
    Those are exactly the pivot columns among the `big` columns of
    [small | big^T], so one elimination picks them all.  The same
    elimination checks containment: `small` lies in the span of `big`
    exactly when the rank of both together is the number of rows of `big`.
    """
    pivots = pivot_columns(small.hstack(big.transpose()))
    if len(pivots) != big.nrows:
        raise NotASubspace("complement requested inside a non-subspace")
    return big.block([c - small.ncols for c in pivots if c >= small.ncols],
                     range(big.ncols))


# ---------------------------------------------------------------------------
# Realification.  A row in C^n becomes (re parts | im parts) in Q^{2n};
# complex-linear and antilinear maps become real 2n x 2n block matrices.
# ---------------------------------------------------------------------------


def complexify(matrix: Mat) -> Mat:
    """The rows (Re | Im) of a realification, as the complex rows Re + Im*i.

    Each row keeps its denominator and its integers, so it stays in lowest
    terms.  An odd width or an entry that is not real is refused.
    """
    if matrix.ncols % 2:
        raise ValueError(f"realified rows have even width, got {matrix.ncols}")
    n = matrix.ncols // 2
    rows = []
    for d, entries in matrix._rows:
        if any(y for _, y in entries.values()):
            raise ValueError("realified rows must have real entries")
        re = {j: x for j, (x, _) in entries.items() if j < n}
        im = {j - n: x for j, (x, _) in entries.items() if j >= n}
        rows.append((d, {j: (re.get(j, 0), im.get(j, 0)) for j in re.keys() | im.keys()}))
    return _new_mat(matrix.nrows, n, tuple(rows))


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
