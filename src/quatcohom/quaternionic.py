"""The (p,q) complex of an instantiated hypercomplex algebra.

Everything here works in the complexified coframe: generators 0..2n-1 are
the paired (1,0)-forms phi^1..phi^{2n}, generators 2n..4n-1 their
conjugates.  Bidegree of a monomial is read off by counting indices in
each half.

Each operator is one exact matrix out of the (p,0) basis, built from its
values on the generators.  d of each generator is read off the structure
constants through `model`'s bracket kernel on integer rows, once, at
construction: the brackets of every pair of columns of the inverse basis
change come back as one matrix, and one product with the coframe gives
d of every generator.  Construction checks integrability and that d of
each conjugate generator is d of its generator conjugated; only the
(2,0) and (1,1) parts of d of the (1,0) generators are kept.  del and
del_bar are derivations: on a monomial m = phi^{g_0} ^ phi^{g_1} ^ ...,
the Leibniz rule gives d(m) = sum_k (-1)^k d phi^{g_k} ^ (m without
g_k), with the (2,0) parts for del and the (1,1) parts for del_bar.  It
also carries the conjugation check to every degree, and conjugation
keeps each monomial's place, so del_bar out of (0,p) is del out of (p,0)
conjugated.  J is an algebra map sending each (1,0) generator to plus or
minus one (0,1) generator, so out of the (p,0) basis it is a signed
permutation, built from integer index work and held as a
`SignedPermutation` (`index_map`).  It is the only one built from the
generators; J^2 = -1 gives the rest by inversion.  J out of (0,p) is
(-1)^p J(p,0)^{-1}, so Jbar = J∘conj out of (p,0) is that same map.
del_J = J^{-1} del_bar J on (p,0)-forms is J(p+1,0)^{-1} conj(del(p,0))
J(p,0), with no sign: del out of (p,0) conjugated, with its rows and
columns relabelled, and no product formed.  Inside the engine a form is
a one-row `Mat` of its coordinates on these bases, and a list of forms a
`Mat` with one form per row; the operators act on them by products, and
`render_coords` prints one form in phi labels.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, starmap
from math import comb
from operator import gt
from typing import Dict, List, Mapping, Optional, Tuple

from .errors import (
    DimensionBudgetError,
    IntegrabilityViolation,
    InternalInconsistency,
    NotHolomorphic,
    NotReal,
    ValidationFailure,
)
from .exterior import Mono, merge_monomials, render_terms
from .linalg import (Mat, SignedPermutation, kernel_basis, realify_antilinear,
                     realify_linear, row_basis)
from .memo import memo
from .model import (
    AlgebraSpec,
    InstantiatedAlgebra,
    ValidationReport,
    _basis_change,
    _build_coframe,
    _coframe_differentials,
    instantiate,
    validate_hypercomplex,
)
from .scalars import ONE, ZERO, GaussianRational, RationalLike

_MATRIX_NAMES = ("del", "del_bar", "del_J")
_INDEX_MAP_NAMES = ("J", "Jbar")

# The largest middle (n,0) basis, C(2n, n), of a structure the engine
# builds operators for: 12870 at real dimension 32, where the sparse direct
# sum example3+example3+torus8 builds in 1.3-2.1 s and reports in 6.5-7.6 s
# (138 MB).  It counts forms, not work, so it does not bound a dense input
# (see README).  Real dimension 36 has 48620 forms in the middle degree.
MAX_MIDDLE_BASIS = 12870


class QuaternionicComplex:
    """Operator algebra attached to one validated structure instance."""

    def __init__(self, inst: InstantiatedAlgebra, coframe: Mat,
                 report: ValidationReport):
        self.inst = inst
        self.coframe = coframe
        self.report = report
        self.dimension = inst.dimension
        self.half = inst.dimension // 2
        self.n = inst.dimension // 4

        m, half = self.dimension, self.half
        b, c = _basis_change(coframe)
        # the (2,0) parts of d of the (1,0) generators give del, the (1,1)
        # parts del_bar; d of each conjugate generator must be d of its
        # generator with indices moved by 2n and coefficients conjugated
        self._del_parts: List[List[Tuple[Mono, GaussianRational]]] = [[] for _ in range(half)]
        self._del_bar_parts: List[List[Tuple[Mono, GaussianRational]]] = [[] for _ in range(half)]
        d_gens = _coframe_differentials(inst, b, c, m, list(combinations(range(m), 2)))
        for g, d_g in enumerate(d_gens[:half]):
            conj_terms = {}
            for pair, coeff in d_g:
                p, q = self.bidegree_of_mono(pair)
                if q == 2:
                    raise IntegrabilityViolation(
                        f"d of {self.render_mono((g,))} has the ({p},{q}) "
                        f"component {render_terms([(pair, coeff)], self.render_mono)}"
                    )
                (self._del_parts if p == 2 else self._del_bar_parts)[g].append((pair, coeff))
                sign, conj_pair = merge_monomials(*(((s + half) % m,) for s in pair))
                conj_terms[conj_pair] = coeff.conjugate() if sign > 0 else -coeff.conjugate()
            if conj_terms != dict(d_gens[g + half]):
                raise InternalInconsistency(
                    f"d of {self.render_mono((g + half,))} is not the conjugate "
                    f"of d of {self.render_mono((g,))}")
        # row r of b J^T b^-1 is J phi^r in this coframe, which the
        # J-pairing makes plus or minus one generator; only the (1,0) rows
        # are read, since every map is derived from J out of (p,0)
        self._j_gens: List[Tuple[int, int]] = []
        j_rows = b.block(range(half), range(m)) @ inst.mat_j.transpose() @ c
        for r in range(half):
            image = j_rows.row_terms(r)
            if len(image) != 1 or image[0][1] not in (ONE, -ONE):
                raise InternalInconsistency(
                    f"J does not send coframe generator {r + 1} to a signed generator")
            self._j_gens.append((image[0][0], 1 if image[0][1] == ONE else -1))

        # the top form phi^1 ^ ... ^ phi^2n must be holomorphic and Jbar-real;
        # del_bar out of (2n,0) is the one column of its image
        d_top = self.operator_matrix("del_bar", half)
        if not d_top.is_zero():
            raise NotHolomorphic(
                "the coframe top form is not holomorphic: its differential has "
                f"the (2n,1) component {self.render_coords(d_top.transpose(), half, 1)}"
            )
        if self.index_map("Jbar", half) != SignedPermutation.identity(1):
            raise NotReal("the coframe top form is not Jbar-real")

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, spec: AlgebraSpec,
              bindings: Optional[Mapping[str, RationalLike]] = None) -> "QuaternionicComplex":
        half = spec.dimension // 2
        middle = comb(half, half // 2)
        if middle > MAX_MIDDLE_BASIS:
            raise DimensionBudgetError(
                f"real dimension {spec.dimension} is too large: its middle "
                f"({half // 2},0) basis has {middle} forms, more than the "
                f"limit of {MAX_MIDDLE_BASIS} (real dimension 32)"
            )
        inst = instantiate(spec, bindings)
        report = validate_hypercomplex(spec, bindings, inst)
        if not report.ok:
            raise ValidationFailure(
                f"structure {spec.name or '<unnamed>'} is invalid: "
                + report.summary()
            )
        return cls(inst, _build_coframe(inst), report)

    # -- bookkeeping -------------------------------------------------------

    def bidegree_of_mono(self, mono: Mono) -> Tuple[int, int]:
        p = sum(1 for idx in mono if idx < self.half)
        return p, len(mono) - p

    # -- bases and coordinates ---------------------------------------------

    def hol_basis(self, p: int) -> List[Mono]:
        if p < 0 or p > self.half:
            return []
        return [tuple(c) for c in combinations(range(self.half), p)]

    def bidegree_basis(self, p: int, q: int) -> List[Mono]:
        if q < 0 or q > self.half:
            return []
        anti = [tuple(c) for c in combinations(range(self.half, self.dimension), q)]
        return [h + a for h in self.hol_basis(p) for a in anti]

    @memo
    def _index(self, p: int, q: int) -> Dict[Mono, int]:
        """Position of each (p,q) monomial in `bidegree_basis(p, q)`."""
        return {m: k for k, m in enumerate(self.bidegree_basis(p, q))}

    # -- operator matrices -------------------------------------------------

    def _derivation(self, parts: List[List[Tuple[Mono, GaussianRational]]],
                    p: int, target: Tuple[int, int]) -> Mat:
        """The derivation with d phi^g = parts[g] on the (1,0) generators,
        out of the (p,0) basis into the target bidegree, which every part
        raises it to."""
        src = self.hol_basis(p)
        index = self._index(*target)
        entries: Dict[Tuple[int, int], GaussianRational] = {}
        for col, mono in enumerate(src):
            for k, g in enumerate(mono):
                rest = mono[:k] + mono[k + 1:]
                for pair, coeff in parts[g]:
                    sign, merged = merge_monomials(pair, rest)
                    if not sign:
                        continue
                    key = index[merged], col
                    value = coeff if sign == (-1) ** k else -coeff
                    entries[key] = entries.get(key, ZERO) + value
        return Mat.from_entries(len(index), len(src), entries)

    def _j_map(self, p: int) -> SignedPermutation:
        """J out of the (p,0) basis into (0,p): the algebra map sending
        phi^g to sign * phi^target, for _j_gens[g] = (target, sign)."""
        index = self._index(0, p)
        image = [target for target, _ in self._j_gens]
        negative = [sign < 0 for _, sign in self._j_gens]
        targets, signs = [], []
        for mono in self.hol_basis(p):
            images = [image[g] for g in mono]
            # the signs of the images, and the inversions of their order
            sign = sum(map(negative.__getitem__, mono))
            sign += sum(starmap(gt, combinations(images, 2)))
            targets.append(index[tuple(sorted(images))])
            signs.append(-1 if sign % 2 else 1)
        return SignedPermutation(tuple(targets), tuple(signs))

    @memo
    def index_map(self, which: str, p: int) -> SignedPermutation:
        """J or Jbar out of the (p,0) monomial basis, built once.

        J lands in (0,p), Jbar in (p,0).  Jbar, which is antilinear, is the
        map applied to the conjugated coordinates; a signed permutation is
        real, so it is its own conjugate.  Jbar is (-1)^p J(p,0)^{-1}, read
        as a map of (p,0): J^2 = (-1)^p on p-forms makes it J out of (0,p),
        and conjugation keeps each monomial's place.
        """
        if which == "J":
            return self._j_map(p)
        if which == "Jbar":
            back = self.index_map("J", p).inverse()
            return -back if p % 2 else back
        raise ValueError(f"{which!r} is not a signed permutation; "
                         f"choose from {_INDEX_MAP_NAMES}")

    @memo
    def operator_matrix(self, which: str, p: int) -> Mat:
        """Exact matrix of an operator out of the (p,0) monomial basis, built once.

        del lands in (p+1,0), del_bar in (p,1) and del_J in (p+1,0).
        """
        if which == "del":
            return self._derivation(self._del_parts, p, (p + 1, 0))
        if which == "del_bar":
            return self._derivation(self._del_bar_parts, p, (p, 1))
        if which == "del_J":
            # J(p+1,0)^{-1} del_bar(0,p) J(p,0), by relabelling, with
            # del_bar out of (0,p) read as del out of (p,0) conjugated
            return self.index_map("J", p + 1).inverse().relabel_rows(
                self.index_map("J", p).relabel_columns(self.operator_matrix("del", p).conj()))
        raise ValueError(f"unknown operator {which!r}; choose from {_MATRIX_NAMES}")

    @cached_property
    def hkt_space(self) -> Mat:
        """Realified del-closed (2,0)-forms with Jbar = 1, as the canonical
        basis of the HKT candidates.

        The kernel of the realified del out of degree 2 stacked on
        Jbar_real - 1, taken and reduced once: the HKT verdict, the
        suite's hkt-flag-decoupling and the Jbar decomposition read it.
        The minus locus is i times this one.
        """
        d_real = realify_linear(self.operator_matrix("del", 2))
        jbar_real = realify_antilinear(self.index_map("Jbar", 2).mat())
        return row_basis(kernel_basis(
            d_real.vstack(jbar_real - Mat.identity(d_real.ncols))))

    @cached_property
    def sg_space(self) -> Mat:
        """Realified Jbar-real (2,0)-forms with del_J-exact del, as the
        canonical basis of the strongly Gauduchon candidates.

        The pairs (omega, w) with del omega = del_J w and Jbar omega = omega
        are the kernel of the realified [del | -del_J; Jbar - 1 | 0]; the
        omega block of its kernel basis spans the forms, since the
        projection of a span is the span of the projections.
        """
        d_real = realify_linear(self.operator_matrix("del", 2))
        dj_real = realify_linear(self.operator_matrix("del_J", 2))
        jbar_real = realify_antilinear(self.index_map("Jbar", 2).mat())
        wide = d_real.ncols
        top = d_real.hstack(-dj_real)
        bottom = (jbar_real - Mat.identity(wide)).hstack(Mat.zeros(wide, wide))
        pairs = kernel_basis(top.vstack(bottom))
        return row_basis(pairs.block(range(pairs.nrows), range(wide)))

    # -- display -------------------------------------------------------------

    def render_mono(self, mono: Mono) -> str:
        hol = "".join(str(idx + 1) for idx in mono if idx < self.half)
        anti = "".join(str(idx - self.half + 1) for idx in mono if idx >= self.half)
        if not hol and not anti:
            return "1"
        if not anti:
            return f"phi^{{{hol}}}"
        return f"phi^{{{hol}|{anti}}}"

    def render_coords(self, form: Mat, p: int, q: int = 0) -> str:
        """A form, one row of coordinates on the (p,q) basis, printed."""
        basis = self.bidegree_basis(p, q)
        if (form.nrows, form.ncols) != (1, len(basis)):
            raise ValueError(f"expected a 1x{len(basis)} form, "
                             f"got a {form.nrows}x{form.ncols} matrix")
        return render_terms(((basis[k], c) for k, c in form.row_terms(0)), self.render_mono)
