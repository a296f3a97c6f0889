"""The (p,q) complex of an instantiated hypercomplex algebra.

Everything here works in the complexified coframe: generators 0..2n-1 are
the paired (1,0)-forms phi^1..phi^{2n}, generators 2n..4n-1 their
conjugates.  Bidegree of a monomial is read off by counting indices in
each half.  The operators supplied are d and its bidegree components
(del, del_bar), the twisted differential del_J, the J action, conjugation
and their composition Jbar = J∘conj, plus exact matrices of each on the
lexicographic monomial bases.

del_J is computed from its definition: on a (p,0)-form f,
del_J f = J^{-1}(del_bar(J f)), and J^{-1} equals (-1)^k J on k-forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    DimensionMismatch,
    IntegrabilityViolation,
    ValidationFailure,
)
from .exterior import ExteriorAlgebra, Form, Mono
from .linalg import Mat, kernel_basis, realify_antilinear, realify_linear
from .model import (
    AlgebraSpec,
    InstantiatedAlgebra,
    QuaternionicCoframe,
    ValidationReport,
    _basis_change,
    _build_coframe,
    instantiate,
    validate_hypercomplex,
)
from .scalars import GaussianRational, RationalLike

_MATRIX_NAMES = ("del", "del_bar", "del_J", "Jbar", "ddJ")


class QuaternionicComplex:
    """Operator algebra attached to one validated structure instance."""

    def __init__(self, inst: InstantiatedAlgebra, coframe: QuaternionicCoframe,
                 report: Optional[ValidationReport] = None):
        self.inst = inst
        self.coframe = coframe
        self.report = report
        self.dimension = inst.dimension
        self.half = inst.dimension // 2
        self.n = inst.dimension // 4
        self.name = inst.name

        b, c = _basis_change(coframe.rows, self.dimension)
        self._to_e = b      # row r: psi^r over the real coframe
        self._to_psi = c    # row j: e^j over the psi basis, as columns of c
        m = self.dimension
        e_images = [
            Form.from_terms({(s,): c.data[j][s] for s in range(m)})
            for j in range(m)
        ]
        d_psi = []
        for r in range(m):
            d_e = Form.zero()
            for j in range(m):
                coeff = b.data[r][j]
                if coeff:
                    d_e = d_e + inst.algebra.d_images[j].scale(coeff)
            d_psi.append(inst.algebra.map_gens(d_e, e_images))
        self.psi = ExteriorAlgebra(m, d_psi)
        self._e_images = e_images

        j_images = []
        for r in range(m):
            w = inst.mat_j.apply(b.data[r])
            j_images.append(inst.algebra.map_gens(
                Form.from_terms({(j,): w[j] for j in range(m)}), e_images
            ))
        self._j_images = j_images
        self._conj_images = [
            Form.generator((r + self.half) % m) for r in range(m)
        ]
        self._matrices: Dict[Tuple[str, int], Mat] = {}
        self._jbar_loci: Dict[int, Mat] = {}
        self._sg_locus: Optional[Mat] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, spec: AlgebraSpec,
              bindings: Optional[Mapping[str, RationalLike]] = None,
              validate: bool = True) -> "QuaternionicComplex":
        inst = instantiate(spec, bindings)
        report = None
        if validate:
            report = validate_hypercomplex(spec, bindings, inst)
            if not report.ok:
                raise ValidationFailure(
                    f"structure {spec.name or '<unnamed>'} is invalid: "
                    + report.summary(),
                    report=report,
                )
        return cls(inst, _build_coframe(inst), report)

    # -- bookkeeping -------------------------------------------------------

    def _check(self, form: Form) -> Form:
        for mono in form.terms:
            for idx in mono:
                if not 0 <= idx < self.dimension:
                    raise DimensionMismatch(
                        f"generator index {idx} outside 0..{self.dimension - 1}"
                    )
        return form

    def bidegree_of_mono(self, mono: Mono) -> Tuple[int, int]:
        p = sum(1 for idx in mono if idx < self.half)
        return p, len(mono) - p

    def bidegree(self, form: Form) -> Tuple[int, int]:
        """The (p,q) type of a form of pure bidegree."""
        self._check(form)
        found = {self.bidegree_of_mono(m) for m in form.terms}
        if len(found) > 1:
            raise ValueError(f"form mixes bidegrees {sorted(found)}")
        return found.pop() if found else (0, 0)

    def project(self, form: Form, p: int, q: int) -> Form:
        self._check(form)
        return Form.from_terms({
            mono: coeff for mono, coeff in form.terms.items()
            if self.bidegree_of_mono(mono) == (p, q)
        })

    # -- operators on forms ------------------------------------------------

    def d(self, form: Form) -> Form:
        return self.psi.d(self._check(form))

    def _d_component(self, form: Form, dp: int, dq: int) -> Form:
        p, q = self.bidegree(form)
        image = self.d(form)
        wanted = self.project(image, p + dp, q + dq)
        other = self.project(image, p + 1, q) + self.project(image, p, q + 1)
        if image != other:
            stray = image - other
            raise IntegrabilityViolation(
                f"d of a ({p},{q})-form has components outside "
                f"({p + 1},{q}) and ({p},{q + 1}): {self.render_form(stray)}"
            )
        return wanted

    def partial(self, form: Form) -> Form:
        """The (p+1,q) component of d."""
        return self._d_component(form, 1, 0)

    def partial_bar(self, form: Form) -> Form:
        """The (p,q+1) component of d."""
        return self._d_component(form, 0, 1)

    def j(self, form: Form) -> Form:
        return self.psi.map_gens(self._check(form), self._j_images)

    def conj(self, form: Form) -> Form:
        return self.psi.map_gens(self._check(form), self._conj_images,
                                 conjugate_coeffs=True)

    def jbar(self, form: Form) -> Form:
        """The antilinear map J∘conj; preserves (p,0)."""
        return self.j(self.conj(form))

    def partial_j(self, form: Form) -> Form:
        """Twisted differential on (p,0)-forms.

        J f has type (0,p); del_bar raises it to (0,p+1); the leading
        J^{-1} contributes the sign (-1)^{p+1} when rewritten through J.
        """
        p, q = self.bidegree(form)
        if q:
            raise ValueError(f"del_J is defined on (p,0)-forms, got ({p},{q})")
        image = self.j(self.partial_bar(self.j(form)))
        return image if (p + 1) % 2 == 0 else -image

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

    def coords(self, form: Form, p: int, q: int = 0) -> Tuple[GaussianRational, ...]:
        self._check(form)
        basis = self.bidegree_basis(p, q)
        covered = set(basis)
        for mono in form.terms:
            if mono not in covered:
                raise ValueError(
                    f"term {mono!r} is not a ({p},{q}) monomial"
                )
        return tuple(form.coefficient(m) for m in basis)

    def from_coords(self, coords: Sequence, p: int, q: int = 0) -> Form:
        basis = self.bidegree_basis(p, q)
        if len(coords) != len(basis):
            raise ValueError("coordinate vector has the wrong length")
        return Form.from_terms(dict(zip(basis, coords)))

    # -- operator matrices -------------------------------------------------

    def _matrix_of(self, op, src: List[Mono], tgt_p: int, tgt_q: int) -> Mat:
        """The matrix of op from the monomials src to the (tgt_p, tgt_q) basis."""
        tgt = self.bidegree_basis(tgt_p, tgt_q)
        index = {mono: r for r, mono in enumerate(tgt)}
        entries = {}
        for c, mono in enumerate(src):
            for image, coeff in op(Form.monomial(mono)).terms.items():
                r = index.get(image)
                if r is None:
                    raise ValueError(
                        f"term {image!r} is not a ({tgt_p},{tgt_q}) monomial"
                    )
                entries[r, c] = coeff
        return Mat.from_entries(len(tgt), len(src), entries)

    def operator_matrix(self, which: str, p: int) -> Mat:
        """Exact matrix of an operator out of the (p,0) monomial basis.

        Antilinear operators (Jbar) are stored as the matrix applied to
        the conjugated coordinate vector.
        """
        if which not in _MATRIX_NAMES:
            raise ValueError(f"unknown operator {which!r}; choose from {_MATRIX_NAMES}")
        key = (which, p)
        if key not in self._matrices:
            src = self.hol_basis(p)
            if which == "del":
                mat = self._matrix_of(self.partial, src, p + 1, 0)
            elif which == "del_bar":
                mat = self._matrix_of(self.partial_bar, src, p, 1)
            elif which == "del_J":
                mat = self._matrix_of(self.partial_j, src, p + 1, 0)
            elif which == "Jbar":
                mat = self._matrix_of(self.jbar, src, p, 0)
            else:  # ddJ
                mat = self.operator_matrix("del", p + 1) @ self.operator_matrix("del_J", p)
            self._matrices[key] = mat
        return self._matrices[key]

    def partial_matrix(self, p: int) -> Mat:
        return self.operator_matrix("del", p)

    def partial_j_matrix(self, p: int) -> Mat:
        return self.operator_matrix("del_J", p)

    def ddj_matrix(self, p: int) -> Mat:
        return self.operator_matrix("ddJ", p)

    def jbar_matrix(self, p: int) -> Mat:
        return self.operator_matrix("Jbar", p)

    def jbar_locus(self, sign: int) -> Mat:
        """Realified del-closed (2,0)-forms with Jbar = sign, as kernel rows.

        The kernel basis of the realified del out of degree 2 stacked on
        Jbar_real - sign, computed once per sign: the HKT candidate space
        and the Jbar decomposition both read the sign +1 one.
        """
        if sign not in self._jbar_loci:
            d_real = realify_linear(self.partial_matrix(2))
            jbar_real = realify_antilinear(self.jbar_matrix(2))
            shift = Mat.identity(d_real.ncols).scale(sign)
            self._jbar_loci[sign] = kernel_basis(d_real.vstack(jbar_real - shift))
        return self._jbar_loci[sign]

    def sg_locus(self) -> Mat:
        """Realified Jbar-real (2,0)-forms with del_J-exact del, as spanning rows.

        The pairs (omega, w) with del omega = del_J w and Jbar omega = omega
        are the kernel of the realified [del | -del_J; Jbar - 1 | 0]; the
        omega block of its kernel basis spans the forms, since the
        projection of a span is the span of the projections.  Computed
        once: the report's verdict and the suite's both read it.
        """
        if self._sg_locus is None:
            d_real = realify_linear(self.partial_matrix(2))
            dj_real = realify_linear(self.partial_j_matrix(2))
            jbar_real = realify_antilinear(self.jbar_matrix(2))
            wide = d_real.ncols
            top = d_real.hstack(-dj_real)
            bottom = (jbar_real - Mat.identity(wide)).hstack(Mat.zeros(wide, wide))
            pairs = kernel_basis(top.vstack(bottom))
            self._sg_locus = pairs.block(range(pairs.nrows), range(wide))
        return self._sg_locus

    # -- conversions and display -------------------------------------------

    def from_real(self, form: Form) -> Form:
        """Rewrite a form over the real coframe in the phi basis."""
        return self.inst.algebra.map_gens(self._check(form), self._e_images)

    def to_real(self, form: Form) -> Form:
        """Rewrite a phi-basis form over the real coframe."""
        images = [
            Form.from_terms({(j,): self._to_e.data[r][j] for j in range(self.dimension)})
            for r in range(self.dimension)
        ]
        return self.psi.map_gens(self._check(form), images)

    def render_mono(self, mono: Mono) -> str:
        hol = "".join(str(idx + 1) for idx in mono if idx < self.half)
        anti = "".join(str(idx - self.half + 1) for idx in mono if idx >= self.half)
        if not hol and not anti:
            return "1"
        if not anti:
            return f"phi^{{{hol}}}"
        return f"phi^{{{hol}|{anti}}}"

    def render_form(self, form: Form) -> str:
        if form.is_zero():
            return "0"
        parts = []
        for mono in sorted(form.terms):
            coeff = form.terms[mono]
            label = self.render_mono(mono)
            if label == "1":
                parts.append(f"({coeff})")
            else:
                parts.append(f"({coeff})*{label}")
        return " + ".join(parts)
