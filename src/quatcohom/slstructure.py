"""Holomorphic volume form, Hodge star, dualities and decompositions.

The coframe monomials are declared unitary, which fixes the Hermitian
inner product h on each Lambda^{p,0} and normalizes integration so that
the pairing of the volume form with its conjugate is one.  The star
operator is not implemented by a sign rule: it is solved degree by degree
from its defining wedge relation, and the sign rule then serves as an
independent cross-check in the test suite.

All dimensions reported by the decompositions are exact.  Every space
read is the kernel or image of one operator, as in the matrix complex,
and intersections and sums of such spaces are only counted, by ranks.
The fixed loci of the antilinear involution Jbar are only real subspaces,
so the plus and minus summands are tracked through a realification of the
coefficient space; their intersection and sum are genuinely complex and
are reported in complex dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .cohomology import MatrixComplex
from .errors import (
    DecompositionFailure,
    InternalInconsistency,
    NotAeppliClosed,
    NotGauduchon,
    NotHolomorphic,
    NotReal,
    NotSL2,
    RepresentativeDependence,
    SingularGram,
    TheoremViolation,
)
from .exterior import Form
from .linalg import (
    Mat,
    Subspace,
    complement_basis,
    complement_representatives,
    complexify_vector,
    inverse,
    kernel_basis,
    rank,
    realify_antilinear,
    realify_linear,
)
from .quaternionic import QuaternionicComplex
from .scalars import ZERO, GaussianRational


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

    @property
    def bc_representatives(self) -> Tuple[Tuple[GaussianRational, ...], ...]:
        return self.bc_basis.data

    @property
    def ae_representatives(self) -> Tuple[Tuple[GaussianRational, ...], ...]:
        return self.ae_basis.data


@dataclass(frozen=True)
class DecompositionReport:
    """Self-dual and Jbar-fixed decompositions of the middle cohomology.

    The Jbar plus and minus subgroups are real subspaces of H^{2,0}; their
    real dimensions are reported together with the halved values (which
    may be half-integral), while intersection and sum are closed under
    multiplication by i and are reported in complex dimensions.
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
    representatives_plus: Tuple[Tuple[GaussianRational, ...], ...]
    representatives_minus: Tuple[Tuple[GaussianRational, ...], ...]

    @property
    def pure_and_full(self) -> bool:
        return self.pure and self.full


class SLStructure:
    """Volume-form dependent layer over one quaternionic complex."""

    def __init__(self, cx: QuaternionicComplex, mc: Optional[MatrixComplex] = None):
        self.cx = cx
        self.mc = mc if mc is not None else MatrixComplex.from_quaternionic(cx)
        self._wedges: Dict[int, Mat] = {}
        self._stars: Dict[int, Mat] = {}
        self._sd_asd: Optional[Tuple[int, int, bool]] = None
        self._jbar: Optional[DecompositionReport] = None
        self._top_mono = tuple(range(cx.dimension))
        self.phi = Form.monomial(tuple(range(cx.half)))
        self.phi_bar = cx.conj(self.phi)
        self._validate_volume_form()

    # -- volume form and integration ----------------------------------------

    def _validate_volume_form(self) -> None:
        bad = self.cx.partial_bar(self.phi)
        if not bad.is_zero():
            raise NotHolomorphic(
                "the coframe top form is not holomorphic: its differential has "
                f"the (2n,1) component {self.cx.render_form(bad)}"
            )
        if self.cx.jbar(self.phi) != self.phi:
            raise NotReal("the coframe top form is not Jbar-real")

    def volume_form(self) -> Form:
        return self.phi

    def integrate(self, form: Form) -> GaussianRational:
        """Coefficient of the full top monomial.

        Normalized so that the volume form against its conjugate gives 1;
        every lower-degree term integrates to zero.
        """
        return form.coefficient(self._top_mono)

    def hermitian_product(self, f: Form, g: Form) -> GaussianRational:
        """h(f, g) with the coframe monomials declared orthonormal."""
        p, q = self.cx.bidegree(f)
        if (p, q) != self.cx.bidegree(g):
            raise ValueError("hermitian product needs forms of equal bidegree")
        total = ZERO
        for mono, coeff in f.terms.items():
            total = total + coeff * g.coefficient(mono).conjugate()
        return total

    # -- the Hodge star ------------------------------------------------------

    def wedge_matrix(self, p: int) -> Mat:
        """W[i][k], the volume coefficient of m_i ^ m'_k.

        m_i and m'_k run over the degree p and 2n-p monomial bases.  A
        product of two such monomials is a multiple of the volume form only
        when m'_k is the complement of m_i; every other product repeats a
        generator and vanishes.  So each row has one nonzero entry, the
        coefficient of m_i wedged with its complement.
        """
        if p in self._wedges:
            return self._wedges[p]
        if p < 0 or p > self.cx.half:
            raise ValueError(f"no (p,0) forms at p={p}")
        top = tuple(range(self.cx.half))
        src = self.cx.hol_basis(p)
        tgt = {mono: k for k, mono in enumerate(self.cx.hol_basis(self.cx.half - p))}
        entries = {}
        for i, mono in enumerate(src):
            other = tuple(x for x in top if x not in mono)
            entries[i, tgt[other]] = (
                Form.monomial(mono).wedge(Form.monomial(other)).coefficient(top))
        wedge = Mat.from_entries(len(src), len(tgt), entries)
        self._wedges[p] = wedge
        return wedge

    def star_matrix(self, p: int) -> Mat:
        """Matrix of the star on (p,0), solved from the wedge relation.

        The star matrix is W^{-1} for the wedge matrix W of `wedge_matrix`,
        which makes m_i ^ star(m_j) = delta_ij * Phi exact by construction.
        """
        if p in self._stars:
            return self._stars[p]
        wedge = self.wedge_matrix(p)
        try:
            star = inverse(wedge)
        except ValueError:
            raise SingularGram(
                f"wedge pairing between degrees {p} and {self.cx.half - p} is degenerate"
            ) from None
        self._stars[p] = star
        return star

    def star(self, form: Form) -> Form:
        p, q = self.cx.bidegree(form)
        if q:
            raise ValueError("the star is defined on (p,0)-forms")
        mat = self.star_matrix(p)
        return self.cx.from_coords(mat.apply(self.cx.coords(form, p)), self.cx.half - p)

    # -- duality pairing -----------------------------------------------------

    def _bc_representatives(self, p: int) -> Mat:
        return complement_basis(self.mc.kernel("stacked", p),
                                self.mc.image("ddj", p - 2))

    def _ae_representatives(self, p: int) -> Mat:
        return complement_basis(self.mc.kernel("ddj", p),
                                self.mc.image("side", p - 1))

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
        ae_columns = ae.transpose()
        matrix = bc @ wedge @ ae_columns
        if not (self.mc.image("ddj", p - 2).basis @ wedge @ ae_columns).is_zero():
            raise RepresentativeDependence(
                f"pairing at degree {p} moves under shifts of the "
                "representatives by exact forms"
            )
        ae_degenerate = self.mc.image("side", q - 1).basis
        if not (bc @ wedge @ ae_degenerate.transpose()).is_zero():
            raise RepresentativeDependence(
                f"pairing at degree {p} moves under shifts of the dual "
                "representatives by degenerate forms"
            )
        invertible = rank(matrix) == bc.nrows
        return PairingResult(p=p, matrix=matrix, invertible=invertible,
                             bc_basis=bc, ae_basis=ae)

    # -- self-dual / anti-self-dual decomposition (middle degree, n=2) ------

    def sd_asd_decomposition(self) -> Tuple[int, int, bool]:
        """Images of closed (anti-)self-dual forms inside H^{2,0}.

        Only available in quaternionic dimension 2, where the star squares
        to +1 on (2,0) and splits it into honest complex eigenspaces.
        Computed once per structure.
        """
        if self._sd_asd is None:
            self._sd_asd = self._decompose_sd_asd()
        return self._sd_asd

    def _decompose_sd_asd(self) -> Tuple[int, int, bool]:
        if self.cx.n != 2:
            raise NotSL2(
                f"the middle self-dual decomposition needs quaternionic "
                f"dimension 2, got {self.cx.n}"
            )
        star = self.star_matrix(2)
        identity = Mat.identity(star.ncols)
        d = self.mc.delta(2)
        # the closed (anti-)self-dual forms, and the exact ones
        plus = kernel_basis((star - identity).vstack(d))
        minus = kernel_basis((star + identity).vstack(d))
        exact = self.mc.image("del", 1).basis
        # both big spaces contain Im del and lie in ker del, so they meet in
        # Im del and span ker del exactly when the dimensions say so, by
        # dim(U ∩ V) = dim U + dim V - dim(U + V)
        big_plus = rank(plus.vstack(exact))
        big_minus = rank(minus.vstack(exact))
        both = rank(plus.vstack(minus).vstack(exact))
        direct = big_plus + big_minus - both == exact.nrows
        exhausts = both == self.mc.kernel("del", 2).dim
        if not (direct and exhausts):
            raise DecompositionFailure(
                "self-dual and anti-self-dual images do not split the "
                f"middle cohomology: direct={direct}, exhausts={exhausts}"
            )
        return big_plus - exact.nrows, big_minus - exact.nrows, True

    # -- Jbar-fixed decomposition -------------------------------------------

    def jbar_decomposition(self) -> DecompositionReport:
        """Real and imaginary parts of H^{2,0} with respect to Jbar.

        The plus and minus loci are swapped into each other by i, so both
        have equal real dimension; the supports of purity and fullness are
        the complex intersection and sum.  Computed once per structure.
        """
        if self._jbar is None:
            self._jbar = self._decompose_jbar()
        return self._jbar

    def _decompose_jbar(self) -> DecompositionReport:
        cx = self.cx
        # over the reals: ker and im of the realified del are the realified
        # ker and im of del, and each locus is one kernel
        d_real = realify_linear(self.mc.delta(2))
        jbar_real = realify_antilinear(cx.jbar_matrix(2))
        identity = Mat.identity(d_real.ncols)
        im_real = Subspace.column_space(realify_linear(self.mc.delta(1)))
        big_plus = Subspace.row_space(
            kernel_basis(d_real.vstack(jbar_real - identity)).vstack(im_real.basis))
        big_minus = Subspace.row_space(
            kernel_basis(d_real.vstack(jbar_real + identity)).vstack(im_real.basis))

        # both contain im_real: dim(U ∩ V) = dim U + dim V - dim(U + V)
        plus_real = big_plus.dim - im_real.dim
        minus_real = big_minus.dim - im_real.dim
        sum_real = rank(big_plus.basis.vstack(big_minus.basis)) - im_real.dim
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
            representatives_plus=tuple(
                complexify_vector(v)
                for v in complement_representatives(big_plus, im_real)
            ),
            representatives_minus=tuple(
                complexify_vector(v)
                for v in complement_representatives(big_minus, im_real)
            ),
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

    def degree_map(self, omega: Form, alpha: Form) -> GaussianRational:
        """Integral of del(alpha) against Omega^{n-1} and the volume form.

        Requires Omega to satisfy the Gauduchon equation and alpha to be a
        legitimate degree-one Aeppli representative.
        """
        cx = self.cx
        om_pow = Form.unit()
        for _ in range(cx.n - 1):
            om_pow = om_pow.wedge(omega)
        if not cx.partial(cx.partial_j(om_pow)).is_zero():
            raise NotGauduchon(
                "degree map needs del del_J of Omega^{n-1} to vanish"
            )
        p, q = cx.bidegree(alpha)
        if (p, q) != (1, 0):
            raise NotAeppliClosed(f"expected a (1,0)-form, got ({p},{q})")
        if not cx.partial(cx.partial_j(alpha)).is_zero():
            raise NotAeppliClosed("representative is not del del_J-closed")
        value = self.integrate(cx.partial(alpha).wedge(om_pow).wedge(self.phi_bar))
        for shift in self.mc.image("side", 0).rows:
            moved = alpha + cx.from_coords(shift, 1)
            other = self.integrate(
                cx.partial(moved).wedge(om_pow).wedge(self.phi_bar)
            )
            if other != value:
                raise RepresentativeDependence(
                    "degree map moved under a trivial representative shift"
                )
        return value

    def degree_profile(self, omega: Form) -> List[Tuple[Tuple[GaussianRational, ...], GaussianRational]]:
        """Degree of each first-Aeppli basis class, with the bound check.

        In quaternionic dimension 2 the kernel of the degree map is
        exactly the degree-one del-cohomology, which forces h_AE at degree
        one to exceed h_del by at most one; in higher dimension the map is
        still computed but the exactness statement is not available.
        """
        values = []
        for rep in self._ae_representatives(1).data:
            alpha = self.cx.from_coords(rep, 1)
            values.append((tuple(rep), self.degree_map(omega, alpha)))
        h_ae, h_del = self.mc.h_ae(1), self.mc.h_del(1)
        if self.cx.n == 2 and h_ae > h_del + 1:
            raise TheoremViolation(
                f"h_AE(1) = {h_ae} exceeds h_del(1) + 1 = {h_del + 1}"
            )
        for rep in self.mc.kernel("del", 1).rows:
            alpha = self.cx.from_coords(rep, 1)
            if self.degree_map(omega, alpha) != ZERO:
                raise TheoremViolation(
                    "degree map does not vanish on a del-closed class"
                )
        return values
