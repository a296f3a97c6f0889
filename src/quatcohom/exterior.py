"""Monomials of the exterior algebra over Q(i), and how to print a form.

A monomial is a strictly increasing tuple of generator indices, counted
from zero.  The engine holds a form as a one-row `linalg.Mat` of its
coordinates on a monomial basis, or as a list of (monomial, coefficient)
pairs: the d^2 e^k and the integrability defect a validation message
names, the terms of d of a generator, the wedge power Omega^{n-1} of a
metric candidate while it is accumulated.
There is no differential here: the structural checks read the structure
constants as term lists in `model`, and the operators of the (p,q)
complex are exact matrices, built in `quaternionic` from generator data.
`merge_monomials` is the sign rule all of them share, and `render_terms`
prints a form with the caller's labels: `e124` in validation messages,
`phi^{12|3}` in reports.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Tuple

from .scalars import GaussianRational

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


def render_terms(terms: Iterable[Tuple[Mono, GaussianRational]],
                 label: Callable[[Mono], str]) -> str:
    """Print (monomial, coefficient) pairs as "(c)*label + ...".

    Zero coefficients are dropped and the rest follow in monomial order;
    the unit monomial prints as its bare "(c)", and no term as "0".
    """
    parts = [f"({coeff})*{label(mono)}" if mono else f"({coeff})"
             for mono, coeff in sorted(terms, key=itemgetter(0)) if coeff]
    return " + ".join(parts) or "0"
