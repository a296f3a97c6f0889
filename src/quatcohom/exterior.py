"""Exterior algebra over Q(i).

A form is a sparse map from strictly increasing generator-index tuples to
nonzero Gaussian rational coefficients.  Generators are indexed from zero;
labels for display are the caller's business.  Forms carry the d^2 e^k
and the integrability defect named in a validation message, the
rendering of classes and certificates, and the wedge power Omega^{n-1}
of a metric candidate; everywhere else the engine holds a form as its
coordinate tuple on a monomial basis.  There is no differential here:
the structural checks read the structure constants as term lists in
`model`, and the operators of the (p,q) complex are exact matrices,
built in `quaternionic` from generator data.  `merge_monomials` is the
sign rule all of them share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence, Tuple

from .scalars import ONE, ZERO, GaussianRational, ScalarLike

Mono = Tuple[int, ...]


def merge_monomials(a: Mono, b: Mono) -> Tuple[int, Mono]:
    """Sorted concatenation with the sign of the sorting permutation.

    Returns (0, ()) when the two monomials share a generator.  The sign is
    the parity of the number of transpositions needed, counted by how many
    elements of `a` each element of `b` must pass.
    """
    if set(a) & set(b):
        return 0, ()
    sign = 1
    merged = list(a)
    for x in b:
        pos = len(merged)
        while pos > 0 and merged[pos - 1] > x:
            pos -= 1
        if (len(merged) - pos) % 2:
            sign = -sign
        merged.insert(pos, x)
    return sign, tuple(merged)


@dataclass(frozen=True)
class Form:
    """A finite Q(i)-combination of wedge monomials."""

    terms: Mapping[Mono, GaussianRational] = field(default_factory=dict)

    @classmethod
    def from_terms(cls, terms: Mapping[Mono, ScalarLike]) -> "Form":
        clean: Dict[Mono, GaussianRational] = {}
        for mono, coeff in terms.items():
            coeff = GaussianRational._coerce(coeff)
            if coeff is NotImplemented:
                raise TypeError(f"bad coefficient {terms[mono]!r}")
            if tuple(sorted(set(mono))) != tuple(mono):
                raise ValueError(f"monomial {mono!r} is not strictly increasing")
            if not coeff.is_zero():
                clean[tuple(mono)] = coeff
        return cls(clean)

    @classmethod
    def zero(cls) -> "Form":
        return cls({})

    @classmethod
    def generator(cls, index: int) -> "Form":
        return cls({(index,): ONE})

    @classmethod
    def monomial(cls, indices: Sequence[int], coeff: ScalarLike = 1) -> "Form":
        return cls.from_terms({tuple(indices): coeff})

    @classmethod
    def unit(cls) -> "Form":
        return cls({(): ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        return len({len(m) for m in self.terms}) <= 1

    def degree(self) -> int:
        """Degree of a homogeneous form; zero for the zero form."""
        degrees = {len(m) for m in self.terms}
        if len(degrees) > 1:
            raise ValueError("form is not homogeneous")
        return degrees.pop() if degrees else 0

    def coefficient(self, mono: Sequence[int]) -> GaussianRational:
        return self.terms.get(tuple(mono), ZERO)

    def __add__(self, other: "Form") -> "Form":
        acc = dict(self.terms)
        for mono, coeff in other.terms.items():
            new = acc.get(mono, ZERO) + coeff
            if new.is_zero():
                acc.pop(mono, None)
            else:
                acc[mono] = new
        return Form(acc)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __neg__(self) -> "Form":
        return Form({m: -c for m, c in self.terms.items()})

    def scale(self, factor: ScalarLike) -> "Form":
        factor = GaussianRational._coerce(factor)
        if factor.is_zero():
            return Form.zero()
        return Form({m: factor * c for m, c in self.terms.items()})

    def __mul__(self, factor: ScalarLike) -> "Form":
        return self.scale(factor)

    __rmul__ = __mul__

    def wedge(self, other: "Form") -> "Form":
        acc: Dict[Mono, GaussianRational] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                sign, merged = merge_monomials(ma, mb)
                if not sign:
                    continue
                new = acc.get(merged, ZERO) + ca * cb * sign
                if new.is_zero():
                    acc.pop(merged, None)
                else:
                    acc[merged] = new
        return Form(acc)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return dict(self.terms) == dict(other.terms)

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            coeff = self.terms[mono]
            label = "1" if not mono else "e" + "".join(str(k + 1) for k in mono)
            parts.append(f"({coeff})*{label}" if mono else f"({coeff})")
        return " + ".join(parts)
