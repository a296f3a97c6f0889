"""Hodge star, dualities, decompositions and the degree map.

The volume form is the top coframe monomial phi^1 ^ ... ^ phi^2n, which
the complex checks to be holomorphic and Jbar-real when it is built.
Integration is normalized so that the volume form against its conjugate
gives one, so the integral of a (2n,0)-form against the conjugate volume
form is its one coordinate.  A form is a one-row `Mat` of its coordinates
on the monomial bases of `QuaternionicComplex`, a list of forms a `Mat`
with one form per row, and every wedge product this layer needs
into the top degree is the bilinear wedge matrix.  That matrix is a signed
permutation, built from integer index work as a `SignedPermutation`.  The
star operator is not implemented by a sign rule: it is solved degree by
degree from its defining wedge relation, as the inverse of the wedge
matrix, and the sign rule then serves as an independent cross-check in
the test suite.  Products with either relabel rows or columns.

All dimensions reported by the decompositions are exact.  Every space
read is the kernel of one operator or an image, handed over as the
operator whose columns span it, and intersections and sums of such spaces
are only counted, by ranks.  The Bott-Chern and Aeppli class bases are
built here, each once per degree, and the pairing and the degree map
read them.  The self-dual split
builds no space at all: each closed (anti-)self-dual locus plus the exact
forms, and their sum, is counted by ranks of star -+ 1 stacked on del and
of the star's relabelling of del, with no kernel taken.
The fixed loci of the antilinear involution Jbar are only real subspaces,
so the plus and minus summands are tracked through a realification of the
coefficient space; their intersection and sum are genuinely complex and
are reported in complex dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Tuple

from .cohomology import MatrixComplex
from .errors import (
    DecompositionFailure,
    InternalInconsistency,
    NotAeppliClosed,
    NotGauduchon,
    NotSL2,
    RepresentativeDependence,
    TheoremViolation,
)
from .linalg import (
    Mat,
    SignedPermutation,
    complement_basis,
    complexify,
    kernel_basis,
    rank,
    realify_linear,
    row_basis,
)
from .memo import memo
from .metrics import omega_power
from .quaternionic import QuaternionicComplex
from .scalars import GaussianRational


@dataclass(frozen=True)
class PairingResult:
    """Duality pairing between degree p and degree 2n-p classes.

    The representatives are the rows of `bc_basis` and `ae_basis`.
    """

    p: int
    matrix: Mat
    invertible: bool
    bc_basis: Mat
    ae_basis: Mat


@dataclass(frozen=True)
class DecompositionReport:
    """Self-dual and Jbar-fixed decompositions of the middle cohomology.

    The Jbar plus and minus subgroups are real subspaces of H^{2,0}; their
    real dimensions are reported together with the halved values (which
    may be half-integral), while intersection and sum are closed under
    multiplication by i and are reported in complex dimensions.  The
    representatives of each locus are the rows of one matrix.
    """

    phi_plus_dim: Optional[int]
    phi_minus_dim: Optional[int]
    phi_direct: Optional[bool]
    jbar_plus_real_dim: int
    jbar_minus_real_dim: int
    jbar_plus_dim: Fraction
    jbar_minus_dim: Fraction
    intersection_dim: int
    sum_dim: int
    complement_dim: int
    pure: bool
    full: bool
    representatives_plus: Mat
    representatives_minus: Mat

    @property
    def pure_and_full(self) -> bool:
        return self.pure and self.full


def _side(mc: MatrixComplex, p: int) -> Mat:
    """[del | del_J] out of degree p; its columns span Im del + Im del_J."""
    return mc.delta(p).hstack(mc.delta_j(p))


class SLStructure:
    """Volume-form dependent layer over one quaternionic complex."""

    def __init__(self, cx: QuaternionicComplex, mc: MatrixComplex):
        self.cx = cx
        self.mc = mc

    # -- the Hodge star ------------------------------------------------------

    @memo
    def wedge_matrix(self, p: int) -> SignedPermutation:
        """W[i][k], the volume coefficient of m_i ^ m'_k.

        m_i and m'_k run over the degree p and 2n-p monomial bases.  A
        product of two such monomials is a multiple of the volume form only
        when m'_k is the complement of m_i; every other product repeats a
        generator and vanishes.  So each row has one nonzero entry, the
        coefficient of m_i wedged with its complement, the sign of the
        permutation that sorts the two: W is the signed permutation sending
        column k to that sign times row i.
        """
        if p < 0 or p > self.cx.half:
            raise ValueError(f"no (p,0) forms at p={p}")
        top = set(range(self.cx.half))
        src = self.cx.hol_basis(p)
        tgt = {mono: k for k, mono in enumerate(self.cx.hol_basis(self.cx.half - p))}
        targets = [0] * len(src)
        signs = [1] * len(src)
        # sorting m_i ^ complement moves the k-th generator g of m_i past
        # the g - k complement generators below it
        shift = p * (p - 1) // 2
        for i, mono in enumerate(src):
            k = tgt[tuple(sorted(top.difference(mono)))]
            targets[k] = i
            signs[k] = -1 if (sum(mono) - shift) % 2 else 1
        return SignedPermutation(tuple(targets), tuple(signs))

    def star_matrix(self, p: int) -> SignedPermutation:
        """Matrix of the star on (p,0), solved from the wedge relation.

        The star matrix is W^{-1} for the wedge matrix W of `wedge_matrix`,
        which makes m_i ^ star(m_j) = delta_ij * Phi exact by construction.
        W is a signed permutation, so W^{-1} is its transpose, which the
        permutation builds once.
        """
        return self.wedge_matrix(p).inverse()

    # -- duality pairing -----------------------------------------------------

    @memo
    def _bc_representatives(self, p: int) -> Mat:
        """The Bott-Chern class basis at degree p, built once: the rows of
        the canonical basis of ker del ∩ ker del_J that complete Im ddj."""
        mc = self.mc
        closed = row_basis(kernel_basis(mc.delta(p).vstack(mc.delta_j(p))))
        return complement_basis(closed, mc.ddj(p - 2))

    @memo
    def _ae_representatives(self, p: int) -> Mat:
        """The Aeppli class basis at degree p, built once: the rows of the
        canonical basis of ker ddj that complete Im del + Im del_J."""
        closed = row_basis(kernel_basis(self.mc.ddj(p)))
        return complement_basis(closed, _side(self.mc, p - 1))

    def pairing_matrix(self, p: int) -> PairingResult:
        """Pairing of degree-p against degree-(2n-p) classes by wedging.

        Entries are integrals of representative wedges against the
        conjugate volume form.  Wedging the (2n,0) product with the
        conjugate volume form carries the leading monomial to the full one
        with sign +1, so the integral of a ^ b is the volume coefficient
        of a ^ b, which is bilinear: a W b^T for the wedge matrix W.
        Well-definedness is not taken on faith: by bilinearity it suffices
        that every generator of either degeneracy space pairs to zero
        against the other side's representatives, and that is checked.
        The generators are the columns of ddj and of side, so each check
        is one product: ae W^{-1} ddj and bc W side vanish.
        """
        half = self.cx.half
        q = half - p
        bc = self._bc_representatives(p)
        ae = self._ae_representatives(q)
        if bc.nrows != ae.nrows:
            raise TheoremViolation(
                f"duality mismatch: h_BC({p}) = {bc.nrows} but h_AE({half - p}) = {ae.nrows}"
            )
        if self.mc.h_del(p) != self.mc.h_del(q):
            raise TheoremViolation(
                f"h_del({p}) != h_del({q}) despite the volume-form symmetry"
            )
        wedge = self.wedge_matrix(p)
        bc_wedge = wedge.relabel_columns(bc)
        matrix = bc_wedge @ ae.transpose()
        if not (wedge.inverse().relabel_columns(ae) @ self.mc.ddj(p - 2)).is_zero():
            raise RepresentativeDependence(
                f"pairing at degree {p} moves under shifts of the "
                "representatives by exact forms"
            )
        if not (bc_wedge @ _side(self.mc, q - 1)).is_zero():
            raise RepresentativeDependence(
                f"pairing at degree {p} moves under shifts of the dual "
                "representatives by degenerate forms"
            )
        invertible = rank(matrix) == bc.nrows
        return PairingResult(p=p, matrix=matrix, invertible=invertible,
                             bc_basis=bc, ae_basis=ae)

    # -- self-dual / anti-self-dual decomposition (middle degree, n=2) ------

    @memo
    def sd_asd_decomposition(self) -> Tuple[int, int, bool]:
        """Images of closed (anti-)self-dual forms inside H^{2,0}.

        Only available in quaternionic dimension 2, where the star squares
        to +1 on (2,0) and splits it into honest complex eigenspaces.
        Computed once per structure.
        """
        if self.cx.n != 2:
            raise NotSL2(
                f"the middle self-dual decomposition needs quaternionic "
                f"dimension 2, got {self.cx.n}"
            )
        mc, star = self.mc, self.star_matrix(2)
        d, e, dim = mc.delta(2), mc.delta(1), mc.dim(2)
        s_mat, identity = star.mat(), Mat.identity(dim)
        # the closed (anti-)self-dual forms are ker [S -+ 1; D], and they
        # meet Im E, which lies in ker D, where S E -+ E vanishes
        star_e = star.relabel_rows(e)
        big_plus = dim - rank((s_mat - identity).vstack(d)) + rank(star_e - e)
        big_minus = dim - rank((s_mat + identity).vstack(d)) + rank(star_e + e)
        # S^2 = 1 splits x into (x + Sx)/2 + (x - Sx)/2, so the two loci
        # sum to ker [D; D S], which meets Im E where D S E vanishes
        d_star = star.relabel_columns(d)
        both = dim - rank(d.vstack(d_star)) + rank(d_star @ e)
        # both big spaces contain Im del and lie in ker del, so they meet in
        # Im del and span ker del exactly when the dimensions say so, by
        # dim(U ∩ V) = dim U + dim V - dim(U + V)
        exact_dim = mc.rank("del", 1)
        direct = big_plus + big_minus - both == exact_dim
        exhausts = both == dim - mc.rank("del", 2)
        if not (direct and exhausts):
            raise DecompositionFailure(
                "self-dual and anti-self-dual images do not split the "
                f"middle cohomology: direct={direct}, exhausts={exhausts}"
            )
        return big_plus - exact_dim, big_minus - exact_dim, True

    # -- Jbar-fixed decomposition -------------------------------------------

    @memo
    def jbar_decomposition(self) -> DecompositionReport:
        """Real and imaginary parts of H^{2,0} with respect to Jbar.

        The plus and minus loci are swapped into each other by i, so both
        have equal real dimension; the supports of purity and fullness are
        the complex intersection and sum.  Computed once per structure.
        """
        cx = self.cx
        # over the reals: ker and im of the realified del are the realified
        # ker and im of del, so im_real has twice the rank of del; the plus
        # locus is one kernel, and i times it, (re, im) -> (-im, re), is
        # the minus locus, while im_real is a complex subspace that i keeps
        real_del = realify_linear(self.mc.delta(1))
        im_real = 2 * self.mc.rank("del", 1)
        big_plus = row_basis(cx.hkt_space.vstack(real_del.transpose()))
        size = big_plus.ncols // 2
        times_i = SignedPermutation(tuple(range(size, 2 * size)) + tuple(range(size)),
                                    (-1,) * size + (1,) * size)
        big_minus = row_basis(times_i.relabel_columns(big_plus))

        # both contain im_real: dim(U ∩ V) = dim U + dim V - dim(U + V)
        plus_real = big_plus.nrows - im_real
        minus_real = big_minus.nrows - im_real
        sum_real = rank(big_plus.vstack(big_minus)) - im_real
        inter_real = plus_real + minus_real - sum_real
        if inter_real % 2 or sum_real % 2:
            raise InternalInconsistency(
                "intersection and sum of the Jbar loci must be complex "
                f"subspaces; got real dimensions {inter_real} and {sum_real}"
            )
        h2 = self.mc.h_del(2)
        report = DecompositionReport(
            phi_plus_dim=None,
            phi_minus_dim=None,
            phi_direct=None,
            jbar_plus_real_dim=plus_real,
            jbar_minus_real_dim=minus_real,
            jbar_plus_dim=Fraction(plus_real, 2),
            jbar_minus_dim=Fraction(minus_real, 2),
            intersection_dim=inter_real // 2,
            sum_dim=sum_real // 2,
            complement_dim=h2 - sum_real // 2,
            pure=inter_real == 0,
            full=sum_real // 2 == h2,
            representatives_plus=complexify(complement_basis(big_plus, real_del)),
            representatives_minus=complexify(complement_basis(big_minus, real_del)),
        )
        if cx.n == 2 and not report.pure_and_full:
            raise TheoremViolation(
                "quaternionic dimension 2 requires the Jbar decomposition to "
                f"be pure and full; got intersection {report.intersection_dim} "
                f"and complement {report.complement_dim}"
            )
        return report

    def decomposition_report(self) -> DecompositionReport:
        """The Jbar report, with the star summands filled in when n=2."""
        report = self.jbar_decomposition()
        if self.cx.n != 2:
            return report
        dim_plus, dim_minus, direct = self.sd_asd_decomposition()
        return replace(report, phi_plus_dim=dim_plus, phi_minus_dim=dim_minus,
                       phi_direct=direct)

    # -- the degree map on first Aeppli classes ------------------------------

    def _degree_covector(self, omega: Mat) -> Mat:
        """The degree map as a one-row covector on the (1,0) basis.

        The integral of del(alpha) ^ Omega^{n-1} against the conjugate
        volume form is the bilinear form (D_1 alpha)^T W Omega^{n-1} for
        the wedge matrix W out of degree two, since wedging the (2n,0)
        product with the conjugate volume form keeps its leading
        coefficient; so the covector is the row Omega^{n-1} W^T D_1, the
        relabelled power times D_1.  Omega must satisfy the Gauduchon
        equation: on a nilpotent structure that check guards a ddj out of
        degree 2n-2 that should vanish.
        """
        power = omega_power(self.cx, omega)
        if not (self.mc.ddj(2 * self.cx.n - 2) @ power.transpose()).is_zero():
            raise NotGauduchon(
                "degree map needs del del_J of Omega^{n-1} to vanish"
            )
        covector = self.wedge_matrix(2).inverse().relabel_columns(power) @ self.mc.delta(1)
        if not (covector @ _side(self.mc, 0)).is_zero():
            raise RepresentativeDependence(
                "degree map moved under a trivial representative shift"
            )
        return covector

    def degree_profile(self, omega: Mat) -> Tuple[GaussianRational, ...]:
        """Degree of each first-Aeppli basis class, in the order of the
        basis rows, with the bound check.

        In quaternionic dimension 2 the kernel of the degree map is
        exactly the degree-one del-cohomology, which forces h_AE at degree
        one to exceed h_del by at most one; in higher dimension the map is
        still computed but the exactness statement is not available.  The
        covector is taken once, and the degrees of the classes, and of
        the del-closed forms, are one product with it each.
        """
        covector = self._degree_covector(omega)
        reps, closed = self._ae_representatives(1), self.mc.closed(1)
        if not (self.mc.ddj(1) @ reps.vstack(closed).transpose()).is_zero():
            raise NotAeppliClosed("representative is not del del_J-closed")
        h_ae, h_del = self.mc.h_ae(1), self.mc.h_del(1)
        if self.cx.n == 2 and h_ae > h_del + 1:
            raise TheoremViolation(
                f"h_AE(1) = {h_ae} exceeds h_del(1) + 1 = {h_del + 1}"
            )
        if not (covector @ closed.transpose()).is_zero():
            raise TheoremViolation(
                "degree map does not vanish on a del-closed class"
            )
        return (covector @ reps.transpose()).data[0]
