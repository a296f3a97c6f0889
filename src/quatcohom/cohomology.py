"""Cohomological invariants of a pair of anticommuting differentials.

The object of study is a graded space with two degree-one operators del
and del_J satisfying del^2 = del_J^2 = del del_J + del_J del = 0, given
concretely as exact matrices per degree.  Every dimension in the table
(the four cohomology theories, the six Varouchas spaces, the E2 page) is
a sum of ranks of a few named operators per degree: del, del_J, del
del_J ("ddj"), the stacked pair [del; del_J] ("stacked"), the side-by-side
pair [del | del_J] ("side"), and the 2x2 block operator
(v, w) -> (del v, del_J v - del w) ("e2_num") for E2.  Each degree keeps
two records, each built once: the split of del_p and the ranks read off
it.  No subspace is built to count one.

No block operator is eliminated to find its rank.  Each follows from one
split of del_p per degree: K_p = `kernel_basis(del_p)`, whose rows are a
basis of ker del_p, and r = dim_p - rows of K_p, the rank of del_p.  K_p
is the identity on its free columns F_p, so v -> v[F_p] is injective on
ker del_p: columns inside ker del_p have the rank, and the linear
dependencies, of their rows F_p.  The constructor's checks put the
columns there.  del^2 = 0 puts del_p in ker del_{p+1} and ddj_p in ker
del_{p+2}; del del_J = -del_J del puts del_J of a del-closed vector in ker
del, so JK_p = del_J_p K_p^T and the page-one images lie in ker del_{p+1}.
So JK_p is formed once, on its free-coordinate rows only, as
del_J_p[F_{p+1}] K_p^T, and the rank record of degree p takes four
eliminations besides K_p's:

    rank stacked = r + rank JK          (ker del ∩ ker del_J in ker del)
    rank e2_num  = r + rank [del | JK]  (del-closed v with del_J v exact)
    rank ddj     = rank ddj[F_{p+2}]
    rank del_J and rank side from one pass over [del_J | del].

The first three see rows F_{p+1} or F_{p+2}; the last sees every row,
since the columns of del_J need not lie in ker del.  Pivots are the
lexicographically first independent columns, so the pivots among the
first m columns number the rank of those columns: in [del_J | del] they
give rank del_J, and all of them rank side; in [del | JK] the pivots among
del's columns must number r, a cross-check between two eliminations.

The E2 denominator's operator (x, y) -> (del y, del x + del_J y) is
e2_num with its two column blocks swapped and the second one negated, so
it has the same rank and is never named: E2 reads e2_num one degree down.

`closed(p)` hands K_p over as a basis of ker del_p; the Bott-Chern and
Aeppli class bases are built where they are read, in `slstructure`.  The
product del del_J is formed once, by the constructor's anticommutation
check, and kept as "ddj".

The second route to E2 is independent in method: it iterates the first
page on explicit representatives, which is subspace arithmetic over Q(i),
and must agree with the rank formula.  It shares with the rank route only
K and the rows of del at K's free columns.  The representatives are the
rows of K_p picked by one pass over [del_{p-1}[F_p] | I]: the pivots among
the identity's columns are the rows that complete Im del to ker del, the
rows `complement_basis(K_p, del_{p-1})` picks on every row, and the pivots
among del's columns must number rank del_{p-1}.  The class coordinates of
the del_J images are solved on rows F_{p+1}, once a product with del has
shown that the images lie in ker del, where the restriction is exact.  The
kernel basis is a pure function of del_p, so a second elimination of del
would return the same rows and could catch nothing; the tests compare the
cached kernel with a fresh one instead.

A MatrixComplex built from a hypercomplex structure carries the extra
Jbar symmetry between del and del_J; the symmetry-dependent identities
are only enforced in that case, so the class can also host arbitrary
anticommuting pairs (useful for stress-testing the E2 computations).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .errors import InternalInconsistency, TheoremViolation
from .linalg import (Mat, kernel_basis, last_nonzero_columns, pivot_columns,
                     rank, rref)
from .memo import memo

if TYPE_CHECKING:
    from .quaternionic import QuaternionicComplex

class MatrixComplex:
    """Two anticommuting differentials presented degree by degree.

    `dims[p]` is the dimension of the degree-p space for p in 0..top;
    `del_mats[p]` and `delj_mats[p]` map degree p to p+1 (the map out of
    the top degree is synthesized as zero).
    """

    def __init__(self, dims: Sequence[int], del_mats: Sequence[Mat],
                 delj_mats: Sequence[Mat],
                 quaternionic_dim: Optional[int] = None):
        self.dims = tuple(dims)
        self.top = len(self.dims) - 1
        if len(del_mats) != self.top or len(delj_mats) != self.top:
            raise ValueError("expected one matrix per degree 0..top-1")
        self._del = list(del_mats)
        self._delj = list(delj_mats)
        self.quaternionic_dim = quaternionic_dim
        self._ddj: List[Mat] = []
        self._check_shapes()

    def _check_shapes(self) -> None:
        for p in range(self.top):
            for name, mats in (("del", self._del), ("del_J", self._delj)):
                mat = mats[p]
                if (mat.nrows, mat.ncols) != (self.dims[p + 1], self.dims[p]):
                    raise ValueError(
                        f"{name} at degree {p} has shape {mat.nrows}x{mat.ncols}, "
                        f"expected {self.dims[p + 1]}x{self.dims[p]}"
                    )
        for p in range(self.top):
            if not (self.delta(p + 1) @ self.delta(p)).is_zero():
                raise ValueError(f"del^2 != 0 out of degree {p}")
            if not (self.delta_j(p + 1) @ self.delta_j(p)).is_zero():
                raise ValueError(f"del_J^2 != 0 out of degree {p}")
            # del del_J is kept: it is the operator ddj out of degree p
            self._ddj.append(self.delta(p + 1) @ self.delta_j(p))
            anti = self._ddj[p] + self.delta_j(p + 1) @ self.delta(p)
            if not anti.is_zero():
                raise ValueError(f"del and del_J do not anticommute out of degree {p}")

    @classmethod
    def from_quaternionic(cls, cx: "QuaternionicComplex") -> "MatrixComplex":
        top = cx.half
        dims = [len(cx.hol_basis(p)) for p in range(top + 1)]
        dels = [cx.operator_matrix("del", p) for p in range(top)]
        deljs = [cx.operator_matrix("del_J", p) for p in range(top)]
        return cls(dims, dels, deljs, quaternionic_dim=cx.n)

    # -- degree-indexed access, zero-padded outside 0..top ------------------

    def dim(self, p: int) -> int:
        return self.dims[p] if 0 <= p <= self.top else 0

    def delta(self, p: int) -> Mat:
        if 0 <= p < self.top:
            return self._del[p]
        return Mat.zeros(self.dim(p + 1), self.dim(p))

    def delta_j(self, p: int) -> Mat:
        if 0 <= p < self.top:
            return self._delj[p]
        return Mat.zeros(self.dim(p + 1), self.dim(p))

    def ddj(self, p: int) -> Mat:
        """del del_J out of degree p, formed once by the constructor's
        anticommutation check."""
        if 0 <= p < self.top:
            return self._ddj[p]
        return Mat.zeros(self.dim(p + 2), self.dim(p))

    # -- the split of del and the named operators' ranks --------------------

    @memo
    def _split(self, p: int) -> Tuple[Mat, List[int]]:
        """The split of del_p, built once: K_p = `kernel_basis(del_p)`, whose
        rows are a basis of ker del_p, and its free columns F_p."""
        kernel = kernel_basis(self.delta(p))
        return kernel, last_nonzero_columns(kernel)

    def closed(self, p: int) -> Mat:
        """K_p, the split's basis of ker del_p, one vector per row."""
        return self._split(p)[0]

    def _free_rows(self, matrix: Mat, p: int) -> Mat:
        """The rows F_p of a matrix into degree p: its columns' coordinates
        on the kernel basis of del_p, if they lie in that kernel."""
        return matrix.block(self._split(p)[1], range(matrix.ncols))

    @memo
    def _block_ranks(self, p: int) -> Dict[str, int]:
        """The ranks of del_J, side, ddj, stacked and e2_num out of degree p,
        read off the split of del_p and built once.

        One pass over [del_J_p | del_p] on every row gives del_J and side;
        JK_p is formed once, and [del_p | JK_p] and ddj_p are taken on free
        rows (see the module docstring).
        """
        dim, r = self.dim(p), self.rank("del", p)
        pivots = pivot_columns(self.delta_j(p).hstack(self.delta(p)))
        jk = self._free_rows(self.delta_j(p), p + 1) @ self._split(p)[0].transpose()
        e2_pivots = pivot_columns(self._free_rows(self.delta(p), p + 1).hstack(jk))
        if bisect_left(e2_pivots, dim) != r:
            raise InternalInconsistency("the pivots and the kernel of del at "
                                        f"degree {p} disagree on its rank")
        return {
            "del_J": bisect_left(pivots, dim),
            "side": len(pivots),
            "ddj": rank(self._free_rows(self.ddj(p), p + 2)),
            "stacked": r + rank(jk),
            "e2_num": r + len(e2_pivots),
        }

    def rank(self, name: str, p: int) -> int:
        """Rank of one operator out of degree p; zero outside 0..top-1, where
        a name other than the six of the module docstring raises KeyError
        there as it does inside.

        The rank of del is dim_p - rows of K_p; the others come from the
        degree's block ranks.
        """
        if not 0 <= p < self.top:
            if name not in ("del", "del_J", "side", "ddj", "stacked", "e2_num"):
                raise KeyError(name)
            return 0
        if name == "del":
            return self.dim(p) - self._split(p)[0].nrows
        return self._block_ranks(p)[name]

    # -- cohomology dimensions ----------------------------------------------
    #
    # Every dimension is a sum of ranks.  Kernels and images have dimension
    # dim - rank and rank; dim(U ∩ V) = dim U + dim V - dim(U + V); and
    # del del_J = -del_J del gives dim(ker del ∩ im del_J) = rank del_J -
    # rank del del_J one degree down, and likewise with del and del_J
    # exchanged.

    def h_del(self, p: int) -> int:
        return self.dim(p) - self.rank("del", p) - self.rank("del", p - 1)

    def h_delj(self, p: int) -> int:
        return self.dim(p) - self.rank("del_J", p) - self.rank("del_J", p - 1)

    def h_bc(self, p: int) -> int:
        return self.dim(p) - self.rank("stacked", p) - self.rank("ddj", p - 2)

    def h_ae(self, p: int) -> int:
        return self.dim(p) - self.rank("ddj", p) - self.rank("side", p - 1)

    def varouchas(self, p: int) -> Tuple[int, int, int, int, int, int]:
        """The six defect dimensions (a, b, c, d, e, f) at degree p."""
        r = self.rank
        ddj0, ddj1, ddj2 = r("ddj", p), r("ddj", p - 1), r("ddj", p - 2)
        a = r("del", p - 1) + r("del_J", p - 1) - r("side", p - 1) - ddj2
        b = r("del_J", p - 1) - ddj1 - ddj2
        c = r("del", p) - ddj0 - ddj1
        d = r("del", p - 1) - ddj1 - ddj2
        e = r("del_J", p) - ddj0 - ddj1
        f = r("del", p) + r("del_J", p) - r("stacked", p) - ddj0
        return a, b, c, d, e, f

    # -- the spectral sequence, both routes ---------------------------------

    def e2_formula(self, p: int) -> int:
        """dim E2 from the closed subspace description, by ranks.

        Numerator: del-closed v with del_J v del-exact, the projection of
        the kernel of e2_num, (v, w) -> (del v, del_J v - del w), whose
        kernel on v = 0 is ker del.  Denominator: del-exact forms plus
        del_J of del-closed forms one degree down, the second component
        of the image of (x, y) -> (del y, del x + del_J y) out of degree
        p-1, over the zero first one.  Swapping that operator's column
        blocks and negating the second gives e2_num at p-1, so its rank is
        read there.  Both ranks are r + rank [del | JK]: with K spanning
        ker del, the kernel of e2_num is the v = K^T c with del_J v in
        Im del, plus a w in ker del.  [del | JK] lies in ker del one degree
        up and is ranked on its free-coordinate rows (module docstring).
        """
        numerator = self.dim(p) - self.rank("e2_num", p) + self.rank("del", p)
        denominator = self.rank("e2_num", p - 1) - self.rank("del", p - 1)
        return numerator - denominator

    def _page_one(self, p: int) -> Mat:
        """Page-one representatives at degree p, one per column.

        The rows of the split's kernel basis K_p span ker del, and the
        columns of del one degree down span Im del inside it.  On the free
        rows F_p, K_p is the identity, so the pivots among I's columns of
        [del_{p-1}[F_p] | I] are the rows of K_p that complete Im del to
        ker del: their columns are the representatives.  The pivots among
        del's columns must number its rank, which fails when K_p misses
        part of Im del or K_{p-1} miscounts that rank.
        """
        kernel = self._split(p)[0]
        below = self._free_rows(self.delta(p - 1), p)
        pivots = pivot_columns(below.hstack(Mat.identity(kernel.nrows)))
        exact = bisect_left(pivots, below.ncols)
        r = self.rank("del", p - 1)
        if exact != r:
            raise InternalInconsistency(
                f"Im del is not inside ker del at degree {p}: the pick finds "
                f"{exact} pivots among the columns of del, whose rank is {r}")
        picked = [c - below.ncols for c in pivots[exact:]]
        return kernel.block(picked, range(kernel.ncols)).transpose()

    def _class_coords(self, vectors: Mat, p: int, reps: Mat) -> Mat:
        """Coordinates of del-closed vectors on the page-one representatives.

        `vectors` holds one vector per column and `reps` is `_page_one(p)`.
        The vectors must lie in ker del, where the free rows F_p are
        exact coordinates, so that is checked first.  On those rows, in
        [reps | del | vectors] the representatives are the first pivots
        and del one degree down adds a basis of Im del, so one elimination
        gives every vector's unique coordinates on those pivots at once.
        Row r of the result holds the coordinates on representative r.
        """
        if not vectors.ncols:
            return Mat.zeros(reps.ncols, 0)
        if not (self.delta(p) @ vectors).is_zero():
            raise InternalInconsistency(
                "del_J image failed to land in ker del at the page-one level"
            )
        k = reps.ncols
        start = k + self.dim(p - 1)
        reduced, pivots = rref(self._free_rows(reps, p)
                               .hstack(self._free_rows(self.delta(p - 1), p))
                               .hstack(self._free_rows(vectors, p)))
        if pivots[:k] != list(range(k)) or (pivots and pivots[-1] >= start):
            raise InternalInconsistency(
                f"the page-one representatives and Im del do not span ker del at degree {p}"
            )
        return reduced.block(range(k), range(start, start + vectors.ncols))

    @memo
    def e2_pages_all(self) -> List[int]:
        """dim E2 for every degree, by explicit page iteration.

        Page one is modeled on complement representatives of Im del inside
        ker del; the induced differential is del_J followed by reduction to
        those representatives.  Page two is the homology of that matrix,
        each rank of d1 taken once.  This route shares only the kernel
        basis of del, and the rows of del at its free columns, with the
        rank formula of e2_formula: it never forms JK or the rank route's
        pivot passes, and the two must agree.
        """
        page_one = [self._page_one(p) for p in range(self.top + 1)]
        d1: Dict[int, Mat] = {}
        for p in range(self.top + 1):
            src = page_one[p]
            if p == self.top:
                d1[p] = Mat.zeros(0, src.ncols)
            else:
                # del_J of every representative at once, one per column
                d1[p] = self._class_coords(self.delta_j(p) @ src, p + 1, page_one[p + 1])
        ranks = [rank(d1[p]) for p in range(self.top + 1)]
        return [page_one[p].ncols - ranks[p] - (ranks[p - 1] if p else 0)
                for p in range(self.top + 1)]

    def e2(self, p: int) -> int:
        by_formula = self.e2_formula(p)
        by_pages = self.e2_pages_all()[p] if 0 <= p <= self.top else 0
        if by_formula != by_pages:
            raise InternalInconsistency(
                f"E2 at degree {p}: rank formula gives {by_formula}, "
                f"page iteration gives {by_pages}"
            )
        return by_formula

    # -- the full table ------------------------------------------------------

    @memo
    def table(self) -> "CohomologyTable":
        degrees = range(self.top + 1)
        h_del = [self.h_del(p) for p in degrees]
        h_delj = [self.h_delj(p) for p in degrees]
        h_bc = [self.h_bc(p) for p in degrees]
        h_ae = [self.h_ae(p) for p in degrees]
        var = [self.varouchas(p) for p in degrees]
        e2 = [self.e2(p) for p in degrees]

        for p in degrees:
            a, b, c, d, e, f = var[p]
            if a - b + h_del[p] - h_ae[p] + c != 0:
                raise InternalInconsistency(
                    f"first exactness sum fails at degree {p}: "
                    f"{a}-{b}+{h_del[p]}-{h_ae[p]}+{c} != 0"
                )
            if d - h_bc[p] + h_del[p] - e + f != 0:
                raise InternalInconsistency(
                    f"second exactness sum fails at degree {p}: "
                    f"{d}-{h_bc[p]}+{h_del[p]}-{e}+{f} != 0"
                )
            if e2[p] > h_del[p]:
                raise InternalInconsistency(
                    f"dim E2 exceeds dim E1 at degree {p}"
                )
        if self.quaternionic_dim is not None:
            if h_del != h_delj:
                raise InternalInconsistency(
                    f"h_del {h_del} and h_delJ {h_delj} differ on a "
                    "Jbar-symmetric complex"
                )
            for p in degrees:
                a, b, c, d, e, f = var[p]
                if b != d or c != e:
                    raise InternalInconsistency(
                        f"Jbar pairing b=d, c=e fails at degree {p}: {var[p]}"
                    )
                if p + 1 <= self.top:
                    if e != var[p + 1][1] or c != var[p + 1][3]:
                        raise InternalInconsistency(
                            f"degree-shift identities e(p)=b(p+1), c(p)=d(p+1) "
                            f"fail at degree {p}"
                        )
        return CohomologyTable(
            top_degree=self.top,
            quaternionic_dim=self.quaternionic_dim,
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


@dataclass(frozen=True)
class CohomologyTable:
    """All computed dimensions, indexed by degree 0..top_degree."""

    top_degree: int
    quaternionic_dim: Optional[int]
    h_del: Tuple[int, ...]
    h_delj: Tuple[int, ...]
    h_bc: Tuple[int, ...]
    h_ae: Tuple[int, ...]
    a: Tuple[int, ...]
    b: Tuple[int, ...]
    c: Tuple[int, ...]
    d: Tuple[int, ...]
    e: Tuple[int, ...]
    f: Tuple[int, ...]
    dim_e1: Tuple[int, ...]
    dim_e2: Tuple[int, ...]
    delta: Tuple[int, ...]

    @property
    def degrees(self) -> range:
        return range(self.top_degree + 1)


def frolicher_degenerate(table: CohomologyTable) -> bool:
    """Whether the spectral sequence degenerates at page one."""
    return table.dim_e1 == table.dim_e2


def non_hkt_degrees(table: CohomologyTable) -> Tuple[int, ...]:
    """The defect degrees h_BC + h_AE - 2 dim E2, with sanity enforcement.

    Nonnegativity holds in complete generality; for quaternionic dimension
    two the degrees in odd degree vanish and the middle one is 0 or 2.  A
    violation means the input was not what it claimed to be, or the engine
    is wrong, and either way it must not pass silently.
    """
    for p in table.degrees:
        if table.delta[p] < 0:
            raise TheoremViolation(
                f"negative defect degree {table.delta[p]} at degree {p}"
            )
    if table.quaternionic_dim == 2:
        if table.delta[1] != 0 or table.delta[3] != 0:
            raise TheoremViolation(
                f"odd defect degrees must vanish in quaternionic dimension 2, "
                f"got {table.delta[1]} and {table.delta[3]}"
            )
        if table.delta[2] not in (0, 2):
            raise TheoremViolation(
                f"middle defect degree must be 0 or 2, got {table.delta[2]}"
            )
    return table.delta


def ddj_lemma_holds(table: CohomologyTable) -> bool:
    """Whether every del-closed del_J-exact form is del del_J-exact.

    Two equivalent characterizations are evaluated: vanishing of all the
    B spaces, and the equality h_BC + h_AE = 2 dim E2 in every degree.
    """
    by_b = all(x == 0 for x in table.b)
    by_equality = all(
        table.h_bc[p] + table.h_ae[p] == 2 * table.dim_e2[p]
        for p in table.degrees
    )
    if by_b != by_equality:
        raise TheoremViolation(
            "the two characterizations of the del del_J lemma disagree: "
            f"B-spaces trivial={by_b}, dimension equality={by_equality}"
        )
    return by_b
