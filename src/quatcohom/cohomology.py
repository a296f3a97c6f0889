"""Cohomological invariants of a pair of anticommuting differentials.

The object of study is a graded space with two degree-one operators del
and del_J satisfying del^2 = del_J^2 = del del_J + del_J del = 0, given
concretely as exact matrices per degree.  Every dimension in the table
(the four cohomology theories, the six Varouchas spaces, the E2 page) is
a sum of ranks of a few named operators per degree: del, del_J, del
del_J ("ddj"), the stacked pair [del; del_J] ("stacked"), the side-by-side
pair [del | del_J] ("side"), and two 2x2 block operators for E2.  The
ranks are cached per complex, so no subspace is built to count one.  A
space itself, as for class representatives, is the kernel or image of one
named operator, cached beside the ranks: ker del ∩ ker del_J is the
kernel of "stacked" and im del + im del_J the image of "side".  The
second route to E2 is independent: it iterates the first page on explicit
representatives, which is subspace arithmetic over Q(i), and must agree
with the rank formula.

A MatrixComplex built from a hypercomplex structure carries the extra
Jbar symmetry between del and del_J; the symmetry-dependent identities
are only enforced in that case, so the class can also host arbitrary
anticommuting pairs (useful for stress-testing the E2 computations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .errors import InternalInconsistency, TheoremViolation
from .linalg import Mat, Subspace, kernel_basis, pivot_columns, rank, rref

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
                 quaternionic_dim: Optional[int] = None,
                 has_jbar_symmetry: bool = False,
                 check: bool = True):
        self.dims = tuple(dims)
        self.top = len(self.dims) - 1
        if len(del_mats) != self.top or len(delj_mats) != self.top:
            raise ValueError("expected one matrix per degree 0..top-1")
        self._del = list(del_mats)
        self._delj = list(delj_mats)
        self.quaternionic_dim = quaternionic_dim
        self.has_jbar_symmetry = has_jbar_symmetry
        self._subspaces: Dict[Tuple[str, str, int], Subspace] = {}
        self._ranks: Dict[Tuple[str, int], int] = {}
        self._pages: Optional[List[int]] = None
        self._table: Optional["CohomologyTable"] = None
        if check:
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
            anti = self.delta(p + 1) @ self.delta_j(p) + self.delta_j(p + 1) @ self.delta(p)
            if not anti.is_zero():
                raise ValueError(f"del and del_J do not anticommute out of degree {p}")

    @classmethod
    def from_quaternionic(cls, cx: "QuaternionicComplex") -> "MatrixComplex":
        top = cx.half
        dims = [len(cx.hol_basis(p)) for p in range(top + 1)]
        dels = [cx.partial_matrix(p) for p in range(top)]
        deljs = [cx.partial_j_matrix(p) for p in range(top)]
        return cls(dims, dels, deljs, quaternionic_dim=cx.n,
                   has_jbar_symmetry=True)

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
        return self.delta(p + 1) @ self.delta_j(p)

    # -- the named operators: ranks, kernels and images ---------------------

    def _operator(self, name: str, p: int) -> Mat:
        if name == "del":
            return self.delta(p)
        if name == "del_J":
            return self.delta_j(p)
        if name == "ddj":
            return self.ddj(p)
        if name == "stacked":  # [del; del_J], kernel ker del ∩ ker del_J
            return self.delta(p).vstack(self.delta_j(p))
        if name == "side":  # [del | del_J], image im del + im del_J
            return self.delta(p).hstack(self.delta_j(p))
        zero = Mat.zeros(self.dim(p + 1), self.dim(p))
        if name == "e2_num":  # (v, w) -> (del v, del_J v - del w)
            return self.delta(p).hstack(zero).vstack(
                self.delta_j(p).hstack(-self.delta(p)))
        if name == "e2_den":  # (x, y) -> (del y, del x + del_J y)
            return zero.hstack(self.delta(p)).vstack(
                self.delta(p).hstack(self.delta_j(p)))
        raise KeyError(name)

    def _rank(self, name: str, p: int) -> int:
        """Rank of one operator out of degree p; zero outside 0..top-1."""
        if not 0 <= p < self.top:
            return 0
        key = (name, p)
        if key not in self._ranks:
            self._ranks[key] = rank(self._operator(name, p))
        return self._ranks[key]

    def kernel(self, name: str, p: int) -> Subspace:
        """Kernel of one operator out of degree p, a subspace of degree p."""
        key = ("kernel", name, p)
        if key not in self._subspaces:
            self._subspaces[key] = Subspace.kernel(self._operator(name, p))
        return self._subspaces[key]

    def image(self, name: str, p: int) -> Subspace:
        """Image of one operator out of degree p, as in `_rank`."""
        key = ("image", name, p)
        if key not in self._subspaces:
            self._subspaces[key] = Subspace.column_space(self._operator(name, p))
        return self._subspaces[key]

    # -- cohomology dimensions ----------------------------------------------
    #
    # Every dimension is a sum of ranks.  Kernels and images have dimension
    # dim - rank and rank; dim(U ∩ V) = dim U + dim V - dim(U + V); and
    # del del_J = -del_J del gives dim(ker del ∩ im del_J) = rank del_J -
    # rank del del_J one degree down, and likewise with del and del_J
    # exchanged.

    def h_del(self, p: int) -> int:
        return self.dim(p) - self._rank("del", p) - self._rank("del", p - 1)

    def h_delj(self, p: int) -> int:
        return self.dim(p) - self._rank("del_J", p) - self._rank("del_J", p - 1)

    def h_bc(self, p: int) -> int:
        return self.dim(p) - self._rank("stacked", p) - self._rank("ddj", p - 2)

    def h_ae(self, p: int) -> int:
        return self.dim(p) - self._rank("ddj", p) - self._rank("side", p - 1)

    def varouchas(self, p: int) -> Tuple[int, int, int, int, int, int]:
        """The six defect dimensions (a, b, c, d, e, f) at degree p."""
        r = self._rank
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
        the kernel of (v, w) -> (del v, del_J v - del w), whose kernel on
        v = 0 is ker del.  Denominator: del-exact forms plus del_J of
        del-closed forms one degree down, the second component of the image
        of (x, y) -> (del y, del x + del_J y) over the zero first one.
        """
        numerator = self.dim(p) - self._rank("e2_num", p) + self._rank("del", p)
        denominator = self._rank("e2_den", p - 1) - self._rank("del", p - 1)
        return numerator - denominator

    def _page_one(self, p: int) -> Tuple[Mat, Mat]:
        """Page-one representatives at degree p and a basis of Im del.

        The rows of the kernel basis of del span ker del, and the columns
        of del one degree down span Im del inside it.  One pivot pick over
        [del | kernel basis^T] keeps the independent columns of del, a
        basis of Im del, and completes it to a basis of ker del with rows
        of the kernel basis: those are the representatives.  Both come
        back as the rows of a matrix.
        """
        kernel = kernel_basis(self.delta(p))
        image = self.delta(p - 1)
        k = image.ncols
        pivots = pivot_columns(image.hstack(kernel.transpose()))
        if len(pivots) != kernel.nrows:
            raise InternalInconsistency(f"Im del is not inside ker del at degree {p}")
        reps = kernel.block([c - k for c in pivots if c >= k], range(self.dim(p)))
        exact = image.transpose().block([c for c in pivots if c < k], range(self.dim(p)))
        return reps, exact

    def _class_coords(self, vectors: Mat, p: int, page: Tuple[Mat, Mat]) -> Mat:
        """Coordinates of del-closed vectors on the page-one representatives.

        `vectors` holds one vector per column and `page` is `_page_one(p)`.
        The representatives and the basis of Im del are independent, so one
        elimination of [reps | Im del | vectors] gives every vector's
        unique coordinates at once.  Row r of the result holds the
        coordinates on representative r.
        """
        reps, exact = page
        if not vectors.ncols:
            return Mat.zeros(reps.nrows, 0)
        k = reps.nrows + exact.nrows
        reduced, pivots = rref(reps.vstack(exact).transpose().hstack(vectors))
        if pivots != list(range(k)):
            raise InternalInconsistency(
                "del_J image failed to land in ker del at the page-one level"
            )
        return reduced.block(range(reps.nrows), range(k, k + vectors.ncols))

    def e2_pages_all(self) -> List[int]:
        """dim E2 for every degree, by explicit page iteration.

        Page one is modeled on complement representatives of Im del inside
        ker del; the induced differential is del_J followed by reduction to
        those representatives.  Page two is the homology of that matrix.
        This route shares nothing with the rank formula of e2_formula,
        which is the point: the two must agree.
        """
        if self._pages is not None:
            return self._pages
        page_one = [self._page_one(p) for p in range(self.top + 1)]
        d1: Dict[int, Mat] = {}
        for p in range(self.top + 1):
            src = page_one[p][0]
            if p == self.top:
                d1[p] = Mat.zeros(0, src.nrows)
            else:
                # del_J of every representative at once, one per column
                pushed = self.delta_j(p) @ src.transpose()
                d1[p] = self._class_coords(pushed, p + 1, page_one[p + 1])
        pages = []
        for p in range(self.top + 1):
            incoming = rank(d1[p - 1]) if p - 1 in d1 else 0
            outgoing = rank(d1[p])
            pages.append(page_one[p][0].nrows - outgoing - incoming)
        self._pages = pages
        return pages

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

    def table(self) -> "CohomologyTable":
        if self._table is not None:
            return self._table
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
        if self.has_jbar_symmetry:
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
        self._table = CohomologyTable(
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
        return self._table


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

    def varouchas_row(self, p: int) -> Tuple[int, int, int, int, int, int]:
        return (self.a[p], self.b[p], self.c[p], self.d[p], self.e[p], self.f[p])


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
