"""Shared builders for the test suite.

Houses `Form`, a form as a sparse map from monomials to coefficients,
which the engine's coordinate tuples, term lists and wedge power
Omega^{n-1} are checked against, the deliberately broken structures,
the generators of validated random variants (coefficient scalings,
rational coframe changes and direct sums), a Hypothesis strategy drawing
2-step nilpotent hypercomplex structures on H + H from the kernel of
their integrability constraints, the brute-force harness producing random double-differential
complexes directly as matrices (Koszul complexes with dense differentials
among them), the block operators whose ranks the cohomology table reads
off a split of del, a reference Gaussian rational held as a
pair of Fractions that the engine's scalar is checked against, two
reference eliminations that the sparse kernel is checked against (plain
Gauss-Jordan on Gaussian rationals, and dense fraction-free Bareiss
elimination over Z[i]), a reference matrix product, the subspace lattice
(intersection, containment and quotient dimension), and a reference
cohomology table and middle-degree decomposition computed by subspace
arithmetic that the rank formulas and the operator kernels and images
are checked against, the brackets and coframe differentials over every
coordinate that the structure-constant kernel of validation is checked
against, the exterior algebra with its differential extended to every
form, whose d^2 the Jacobi check is checked against, and the operators
of a quaternionic complex applied form by form, which the
generator-built operator matrices and the coordinate degree map are
checked against.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, lcm, prod
from random import Random
from types import SimpleNamespace
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple, Union

from hypothesis import strategies as st

from quatcohom import AlgebraSpec, CohomologyTable, GaussianRational, MatrixComplex
from quatcohom.errors import (DivisionByZero, IntegrabilityViolation,
                              InternalInconsistency, NotASubspace)
from quatcohom.exterior import Mono, merge_monomials
from quatcohom.linalg import (Mat, Row, complexify, inverse, kernel_basis,
                              rank, realify_antilinear, row_basis, solve)
from quatcohom.model import _basis_change, instantiate
from quatcohom.scalars import ONE, ZERO, ScalarLike
from quatcohom.slstructure import DecompositionReport, SLStructure


# ---------------------------------------------------------------------------
# Forms as sparse maps from monomials to coefficients: the oracle the
# engine's coordinate tuples and term lists are checked against.
# ---------------------------------------------------------------------------


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


def from_coords(cx, coords: Sequence, p: int, q: int = 0) -> Form:
    """The form with these coordinates on the (p,q) basis of `cx`."""
    basis = cx.bidegree_basis(p, q)
    if len(coords) != len(basis):
        raise ValueError("coordinate vector has the wrong length")
    return Form.from_terms(dict(zip(basis, coords)))


# ---------------------------------------------------------------------------
# Deliberately broken structures and validated variants.
# ---------------------------------------------------------------------------


def skew_pairs(dim: int, pairs: Sequence[Tuple[int, int, int]]) -> List[List[int]]:
    """Endomorphism table sending e^a to s*e^b for each (a, b, s)."""
    rows = [[0] * dim for _ in range(dim)]
    for a, b, s in pairs:
        rows[b - 1][a - 1] = s
        rows[a - 1][b - 1] = -s
    return rows


I4 = skew_pairs(4, [(1, 2, 1), (3, 4, 1)])
J4 = skew_pairs(4, [(1, 3, 1), (4, 2, 1)])


def jacobi_broken_spec() -> AlgebraSpec:
    # d(e^34) = e^124 != 0, so d fails to square to zero
    return AlgebraSpec.create(
        4,
        {3: [(1, 2, 1)], 4: [(3, 4, 1)]},
        I4, J4,
        name="jacobi-broken",
    )


def relation_broken_spec() -> AlgebraSpec:
    # J sends both e^1 to e^3 and e^2 to +e^4: J^2 != -Id on e^2
    bad_j = skew_pairs(4, [(1, 3, 1), (2, 4, 1)])
    bad_j[3][1] = 1
    bad_j[1][3] = -1
    return AlgebraSpec.create(4, {}, I4, bad_j, name="relation-broken")


def nonintegrable_spec() -> AlgebraSpec:
    # quaternion relations hold, I is integrable, J is not:
    # d e^4 = e^12 acquires a (0,2)-component in the J eigenbasis
    return AlgebraSpec.create(
        4,
        {4: [(1, 2, 1)]},
        I4, J4,
        name="nonintegrable",
    )


def i_nonintegrable_spec() -> AlgebraSpec:
    # nonintegrable_spec with I and J swapped: the quaternion relations
    # still hold (K changes sign), and now I, the structure the complex is
    # built on, is the one that is not integrable
    return AlgebraSpec.create(
        4,
        {4: [(1, 2, 1)]},
        J4, I4,
        name="i-nonintegrable",
    )


def solvable_spec() -> AlgebraSpec:
    # the Lie algebra of real hyperbolic 4-space, de^k = e^1 ^ e^k for
    # k = 2, 3, 4: a valid hypercomplex structure on a solvable algebra
    # whose lower central series stops at span(e_2, e_3, e_4), not at zero
    return AlgebraSpec.create(
        4,
        {2: [(1, 2, 1)], 3: [(1, 3, 1)], 4: [(1, 4, 1)]},
        I4, J4,
        name="solvable",
    )


def affine_complex_spec() -> AlgebraSpec:
    # the complex affine group: hypercomplex and integrable but not
    # nilpotent, and its invariant volume form is not holomorphic
    return AlgebraSpec.create(
        4,
        {3: [(1, 3, 1), (2, 4, 1)], 4: [(1, 4, 1), (2, 3, -1)]},
        I4, J4,
        name="affine-complex",
    )


# ---------------------------------------------------------------------------
# Validated variants of a constant-coefficient spec.
# ---------------------------------------------------------------------------


def _constant_matrix(spec: AlgebraSpec, which: str, bindings=None) -> List[List[Fraction]]:
    inst = instantiate(spec, bindings)
    mat = inst.mat_i if which == "i" else inst.mat_j
    return [[Fraction(x.re) for x in row] for row in mat.data]


def scaled_variant(spec: AlgebraSpec, factor: Fraction,
                   bindings=None) -> AlgebraSpec:
    """Multiply every structure constant by a nonzero rational.

    Any declared parameters must be bound here; the result is a
    parameter-free structure with the bindings baked in.
    """
    assert factor != 0
    structure = {
        k: [(i, j, Fraction(c.evaluate(bindings or {}).re) * factor)
            for i, j, c in terms]
        for k, terms in spec.structure
    }
    return AlgebraSpec.create(
        spec.dimension, structure,
        _constant_matrix(spec, "i", bindings),
        _constant_matrix(spec, "j", bindings),
        name=f"{spec.name}-scaled",
    )


def direct_sum_spec(*specs: AlgebraSpec) -> AlgebraSpec:
    """The direct sum of parameter-free structures.

    Each summand's coframe is shifted past the earlier ones and I, J act
    block-diagonally, so the sum is again hypercomplex and nilpotent.  A
    sum with a torus R^{4k} is a product with a complex whose differentials
    vanish, so every dimension row of the sum is the other summand's row
    convolved with binomial(2k, .).
    """
    m = sum(spec.dimension for spec in specs)
    structure: Dict[int, List[Tuple[int, int, Fraction]]] = {}
    tables = {"i": [[Fraction(0)] * m for _ in range(m)],
              "j": [[Fraction(0)] * m for _ in range(m)]}
    offset = 0
    for spec in specs:
        for k, terms in spec.structure:
            structure[k + offset] = [
                (i + offset, j + offset, Fraction(c.constant_value().re))
                for i, j, c in terms
            ]
        for which, table in tables.items():
            for r, row in enumerate(_constant_matrix(spec, which)):
                table[r + offset][offset:offset + spec.dimension] = row
        offset += spec.dimension
    return AlgebraSpec.create(
        m, structure, tables["i"], tables["j"],
        name="+".join(spec.name for spec in specs),
    )


# ---------------------------------------------------------------------------
# Drawn 2-step nilpotent structures on H + H: v = span(e_1..e_4) and
# z = span(e_5..e_8), I and J the standard blocks on both, and de^k nonzero
# only for k in z and only over pairs in v.  Jacobi holds and the algebra is
# 2-step nilpotent whatever the constants; the Nijenhuis tensors of I and J
# are linear in them, so the integrable ones are the kernel of one exact
# matrix, built here with the reference bracket and elimination.
# ---------------------------------------------------------------------------


def _block_diagonal(table: Sequence[Sequence[int]], copies: int) -> List[List[int]]:
    n = len(table)
    return [[table[r % n][c % n] if r // n == c // n else 0 for c in range(n * copies)]
            for r in range(n * copies)]


HH_I = _block_diagonal(I4, 2)
HH_J = _block_diagonal(J4, 2)
# the 24 unknowns, (k, i, j) 0-based: the coefficient of e^i ^ e^j in de^k
HH_UNKNOWNS = [(k, i, j) for k in range(4, 8) for i, j in combinations(range(4), 2)]


def hh_algebra(values: Sequence) -> SimpleNamespace:
    """What `reference_bracket` reads of an instance, for the unknowns set
    to `values`."""
    structure: List[List[Tuple[int, int, GaussianRational]]] = [[] for _ in range(8)]
    for (k, i, j), value in zip(HH_UNKNOWNS, values):
        if value:
            structure[k].append((i, j, GaussianRational(value)))
    return SimpleNamespace(dimension=8, structure=structure)


def _vector_action(table: Sequence[Sequence[int]], x: Sequence) -> Row:
    """The endomorphism on vectors dual to the coframe table: (A x)_j =
    sum_l table[l][j] x_l."""
    return tuple(sum((table[l][j] * x[l] for l in range(len(x))), ZERO)
                 for j in range(len(x)))


def _pairs_of_v(table: Sequence[Sequence[int]]):
    """(x, y, A x, A y) for each pair x, y of basis vectors of v."""
    unit = Mat.identity(8).data
    for x, y in combinations(range(4), 2):
        yield unit[x], unit[y], _vector_action(table, unit[x]), _vector_action(table, unit[y])


def hh_abelian_defect(alg, table: Sequence[Sequence[int]]) -> List[Row]:
    """[A x, A y] - [x, y] for the pairs of basis vectors of v: all zero
    exactly when the structure A is abelian."""
    return [tuple(a - b for a, b in zip(reference_bracket(alg, ax, ay),
                                        reference_bracket(alg, x, y)))
            for x, y, ax, ay in _pairs_of_v(table)]


def _nijenhuis(alg, table: Sequence[Sequence[int]]) -> List[GaussianRational]:
    """The Nijenhuis tensor of A on the pairs of basis vectors of v, its
    only nonzero values since z is central and A preserves it."""
    out: List[GaussianRational] = []
    for x, y, ax, ay in _pairs_of_v(table):
        out += [p - q - r - s for p, q, r, s in zip(
            reference_bracket(alg, ax, ay),
            _vector_action(table, reference_bracket(alg, ax, y)),
            _vector_action(table, reference_bracket(alg, x, ay)),
            reference_bracket(alg, x, y))]
    return out


@cache
def hh_integrability_matrix() -> Mat:
    """The Nijenhuis tensors of I and J as a linear map of the unknowns:
    one column per unknown, its tensors at that unknown one, the rest zero."""
    columns = [_nijenhuis(alg, HH_I) + _nijenhuis(alg, HH_J)
               for alg in (hh_algebra([int(n == u) for u in range(len(HH_UNKNOWNS))])
                           for n in range(len(HH_UNKNOWNS)))]
    return Mat(len(columns[0]), len(columns), tuple(zip(*columns)))


@cache
def hh_integrable_kernel() -> Tuple[Tuple[int, ...], ...]:
    """A basis of the integrable constants, each scaled to coprime integers."""
    basis = []
    for vector in reference_nullspace(*reference_rref(hh_integrability_matrix())):
        den = lcm(*(x.re.denominator for x in vector))
        ints = [int(x.re * den) for x in vector]
        basis.append(tuple(x // gcd(*ints) for x in ints))
    return tuple(basis)


def hh_constants(spec: AlgebraSpec) -> List[Fraction]:
    """The unknowns read off a parameter-free spec on H + H."""
    values = {(k - 1, i - 1, j - 1): Fraction(c.constant_value().re)
              for k, terms in spec.structure for i, j, c in terms}
    return [values.get(unknown, Fraction(0)) for unknown in HH_UNKNOWNS]


@st.composite
def hh_structures(draw) -> AlgebraSpec:
    """An integrable structure on H + H: one to three kernel rows with
    small integer weights; a row drawn twice may cancel, down to the torus."""
    kernel = hh_integrable_kernel()
    rows = draw(st.lists(st.sampled_from(range(len(kernel))), min_size=1, max_size=3))
    values = [0] * len(HH_UNKNOWNS)
    for row in rows:
        weight = draw(st.sampled_from([-2, -1, 1, 2]))
        values = [v + weight * x for v, x in zip(values, kernel[row])]
    structure: Dict[int, List[Tuple[int, int, int]]] = {}
    for (k, i, j), value in zip(HH_UNKNOWNS, values):
        if value:
            structure.setdefault(k + 1, []).append((i + 1, j + 1, value))
    return AlgebraSpec.create(8, structure, HH_I, HH_J, name="hh-drawn")


def random_gl(rng: Random, m: int, ops: int = 6) -> Mat:
    """Product of elementary row operations; invertible by construction."""
    rows = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    lambdas = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2)]
    for _ in range(ops):
        i = rng.randrange(m)
        j = rng.randrange(m)
        if i == j:
            continue
        lam = rng.choice(lambdas)
        for c in range(m):
            rows[i][c] += lam * rows[j][c]
    if rng.random() < 0.5:
        i, j = rng.randrange(m), rng.randrange(m)
        rows[i], rows[j] = rows[j], rows[i]
    return Mat.from_rows(rows)


HERMITIAN_KINDS = ("definite", "indefinite", "singular", "zero-corner")


def random_hermitian(rng: Random, n: int, kind: str) -> Mat:
    """A Hermitian n x n matrix B^H D B, with B invertible and D real diagonal.

    D is positive for "definite", has both signs for "indefinite" (n >= 2)
    and has a zero for "singular".  "zero-corner" is an indefinite one with
    its top-left entry set to zero, so its first leading minor vanishes.
    B is `random_gl` times an upper triangular matrix with Gaussian
    rational entries and a nonzero diagonal.
    """
    def entry(nonzero: bool) -> GaussianRational:
        while True:
            x = GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                 Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            if x or not nonzero:
                return x

    upper = Mat.from_rows([[entry(i == j) if i <= j else ZERO for j in range(n)]
                           for i in range(n)])
    b = random_gl(rng, n) @ upper
    diagonal = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(n)]
    if kind in ("indefinite", "zero-corner"):
        for i in rng.sample(range(n), max(1, n // 2)):
            diagonal[i] = -diagonal[i]
    elif kind == "singular":
        diagonal[rng.randrange(n)] = Fraction(0)
    elif kind != "definite":
        raise ValueError(f"unknown kind {kind!r}")
    d = Mat.from_entries(n, n, {(i, i): x for i, x in enumerate(diagonal)})
    h = b.conj().transpose() @ d @ b
    if kind == "zero-corner":
        rows = [list(row) for row in h.data]
        rows[0][0] = ZERO
        h = Mat.from_rows(rows)
    return h


def coframe_variant(spec: AlgebraSpec, p_mat: Mat,
                    name: str = "") -> AlgebraSpec:
    """The same structure written in the coframe f^a = sum_b P[a][b] e^b.

    Endomorphism tables conjugate as M' = (P^-1)^T M P^T for the column
    convention (A f^a) = sum_c M'[c][a] f^c; the structure constants are
    pushed through the substitution e = P^-1 f of the exterior algebra.
    """
    m = spec.dimension
    p_inv = inverse(p_mat)
    e_in_f = [
        Form.from_terms({(a,): p_inv.data[b][a] for a in range(m)})
        for b in range(m)
    ]

    structure: Dict[int, List[Tuple[int, int, Fraction]]] = {}
    old = {k: terms for k, terms in spec.structure}
    for a in range(m):
        df = Form.zero()
        for b in range(m):
            coeff = p_mat.data[a][b]
            if coeff.is_zero() or (b + 1) not in old:
                continue
            for i, j, c in old[b + 1]:
                val = GaussianRational(c.constant_value().re) * coeff
                df = df + e_in_f[i - 1].wedge(e_in_f[j - 1]).scale(val)
        terms = []
        for (u, v), val in sorted(df.terms.items()):
            terms.append((u + 1, v + 1, Fraction(val.re)))
        if terms:
            structure[a + 1] = terms

    def transform(which: str) -> List[List[Fraction]]:
        mat = Mat.from_rows(_constant_matrix(spec, which))
        out = p_inv.transpose() @ mat @ p_mat.transpose()
        return [[Fraction(x.re) for x in row] for row in out.data]

    return AlgebraSpec.create(
        m, structure, transform("i"), transform("j"),
        name=name or f"{spec.name}-coframe",
    )


# ---------------------------------------------------------------------------
# Random double complexes, generated directly as matrices.
# ---------------------------------------------------------------------------


def _random_scalar(rng: Random) -> GaussianRational:
    pool = [0, 0, 1, -1, 2, Fraction(1, 2), -Fraction(1, 2)]
    re = rng.choice(pool)
    im = rng.choice(pool) if rng.random() < 0.4 else 0
    return GaussianRational(re, im)


def _wedge_matrices(k: int, one_form: Form) -> List[Mat]:
    """Left wedge by a one-form on each graded piece of a k-generator algebra."""
    bases = [list(combinations(range(k), p)) for p in range(k + 1)]
    mats = []
    for p in range(k):
        rows = []
        for target in bases[p + 1]:
            row = []
            for source in bases[p]:
                wedged = one_form.wedge(Form.monomial(source))
                row.append(wedged.coefficient(target))
            rows.append(row)
        mats.append(Mat.from_rows(rows, ncols=len(bases[p])))
    return mats


def _conjugated(rng: Random, dims: Sequence[int],
                *differentials: List[Mat]) -> List[List[Mat]]:
    """Every differential rewritten in one random basis per degree."""
    basis = [random_gl(rng, d, ops=4) for d in dims]
    basis_inv = [inverse(b) for b in basis]
    return [[basis[p + 1] @ mats[p] @ basis_inv[p] for p in range(len(dims) - 1)]
            for mats in differentials]


def random_double_complex(rng: Random, k: int = 4,
                          conjugate: bool = False) -> MatrixComplex:
    """Two anticommuting square-zero differentials on a k-generator algebra.

    Left multiplication by one-forms u and v squares to zero and
    anticommutes identically, for any choice of u and v; an optional
    basis conjugation per degree hides the monomial structure without
    changing any dimension.
    """
    u = Form.from_terms({(g,): _random_scalar(rng) for g in range(k)})
    v = Form.from_terms({(g,): _random_scalar(rng) for g in range(k)})
    dims = [len(list(combinations(range(k), p))) for p in range(k + 1)]
    del_mats = _wedge_matrices(k, u)
    delj_mats = _wedge_matrices(k, v)
    if conjugate:
        del_mats, delj_mats = _conjugated(rng, dims, del_mats, delj_mats)
    return MatrixComplex(dims, del_mats, delj_mats)


_NONZERO_PARTS = (1, -1, 2, Fraction(1, 2), -Fraction(1, 2))


def koszul_pair(rng: Random, k: int = 6) -> Tuple[MatrixComplex, MatrixComplex]:
    """A Koszul double complex on k generators and a basis-conjugated twin.

    del and del_J wedge by one-forms u and v whose every coefficient is a
    nonzero Gaussian rational, so no entry a wedge can reach is zero.
    Wedge by a nonzero one-form is exact (the Koszul complex), so h_del
    vanishes in every degree; the twin is the same complex written in a
    random basis per degree, so its table is the same.
    """
    def one_form() -> Form:
        return Form.from_terms({(g,): GaussianRational(
            rng.choice(_NONZERO_PARTS),
            rng.choice(_NONZERO_PARTS) if rng.random() < 0.4 else 0)
            for g in range(k)})

    u, v = one_form(), one_form()
    dims = [len(list(combinations(range(k), p))) for p in range(k + 1)]
    del_mats, delj_mats = _wedge_matrices(k, u), _wedge_matrices(k, v)
    twin = _conjugated(rng, dims, del_mats, delj_mats)
    return (MatrixComplex(dims, del_mats, delj_mats),
            MatrixComplex(dims, *twin))


def direct_sum_complex(a: MatrixComplex, b: MatrixComplex) -> MatrixComplex:
    assert a.top == b.top
    dims = [a.dims[p] + b.dims[p] for p in range(a.top + 1)]

    def block(x: Mat, y: Mat) -> Mat:
        rows = []
        for r in x.data:
            rows.append(list(r) + [0] * y.ncols)
        for r in y.data:
            rows.append([0] * x.ncols + list(r))
        return Mat.from_rows(rows, ncols=x.ncols + y.ncols)

    del_mats = [block(a.delta(p), b.delta(p)) for p in range(a.top)]
    delj_mats = [block(a.delta_j(p), b.delta_j(p)) for p in range(a.top)]
    return MatrixComplex(dims, del_mats, delj_mats)


# ---------------------------------------------------------------------------
# Reference scalar: Q(i) as a pair of normalised Fractions, the engine's
# former representation.  Every operation of quatcohom's GaussianRational
# is checked against it.
# ---------------------------------------------------------------------------

_ReferenceScalar = Union[int, Fraction, "ReferenceGaussianRational"]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational value, got {value!r}")


@dataclass(frozen=True, eq=False)
class ReferenceGaussianRational:
    """An element of Q(i) as a pair of Fractions: the engine's former scalar."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- involutions -------------------------------------------------------

    def conjugate(self) -> "ReferenceGaussianRational":
        return ReferenceGaussianRational(self.re, -self.im)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value: _ReferenceScalar) -> "ReferenceGaussianRational":
        if isinstance(value, ReferenceGaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return ReferenceGaussianRational(_as_fraction(value))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: _ReferenceScalar) -> "ReferenceGaussianRational":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ReferenceGaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: _ReferenceScalar) -> "ReferenceGaussianRational":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ReferenceGaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: _ReferenceScalar) -> "ReferenceGaussianRational":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "ReferenceGaussianRational":
        return ReferenceGaussianRational(-self.re, -self.im)

    def __mul__(self, other: _ReferenceScalar) -> "ReferenceGaussianRational":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:
            return ReferenceGaussianRational(self.re * other.re)
        return ReferenceGaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "ReferenceGaussianRational":
        norm = self.re * self.re + self.im * self.im
        if not norm:
            raise DivisionByZero("inverse of zero in Q(i)")
        return ReferenceGaussianRational(self.re / norm, -self.im / norm)

    def __truediv__(self, other: _ReferenceScalar) -> "ReferenceGaussianRational":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: _ReferenceScalar) -> "ReferenceGaussianRational":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    # -- equality and display ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ReferenceGaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if self.im == 1:
            imag = "i"
        elif self.im == -1:
            imag = "-i"
        else:
            imag = f"{self.im}*i"
        if not self.re:
            return imag
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{mag}*i"
        return f"{self.re}{sign}{imag}"

    def __repr__(self) -> str:
        return f"ReferenceGaussianRational({self.re!r}, {self.im!r})"


# ---------------------------------------------------------------------------
# Reference elimination: plain Gauss-Jordan in GaussianRational arithmetic,
# pivot scaled to one at every step.  Slow, but shares no code with the
# fraction-free kernel of quatcohom.linalg.
# ---------------------------------------------------------------------------


def reference_rref(matrix: Mat) -> Tuple[Mat, List[int]]:
    rows = [list(row) for row in matrix.data]
    pivots: List[int] = []
    pivot_row = 0
    for col in range(matrix.ncols):
        found = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col]:
                found = r
                break
        if found is None:
            continue
        rows[pivot_row], rows[found] = rows[found], rows[pivot_row]
        inv = rows[pivot_row][col].inverse()
        rows[pivot_row] = [inv * x for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    reduced = Mat(matrix.nrows, matrix.ncols, tuple(tuple(r) for r in rows))
    return reduced, pivots


def reference_det(matrix: Mat) -> GaussianRational:
    assert matrix.nrows == matrix.ncols
    rows = [list(row) for row in matrix.data]
    n = matrix.nrows
    result = ONE
    for col in range(n):
        found = None
        for r in range(col, n):
            if rows[r][col]:
                found = r
                break
        if found is None:
            return ZERO
        if found != col:
            rows[col], rows[found] = rows[found], rows[col]
            result = -result
        result = result * rows[col][col]
        inv = rows[col][col].inverse()
        for r in range(col + 1, n):
            if rows[r][col]:
                factor = rows[r][col] * inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return result


def reference_minors(matrix: Mat) -> List[GaussianRational]:
    return [
        reference_det(Mat.from_rows([row[:k] for row in matrix.data[:k]], ncols=k))
        for k in range(1, matrix.nrows + 1)
    ]


def reference_matmul(a: Mat, b: Mat) -> Mat:
    """The textbook product, summed entry by entry in Gaussian rationals."""
    return Mat(a.nrows, b.ncols, tuple(
        tuple(sum((row[k] * b.data[k][j] for k in range(a.ncols)), ZERO)
              for j in range(b.ncols))
        for row in a.data
    ))


# ---------------------------------------------------------------------------
# Reference matrix: dense tuples of Gaussian rationals, every operation
# entry by entry, as the engine's Mat was before it stored sparse rows.
# Every operation and view of quatcohom's Mat is checked against it.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceMat:
    nrows: int
    ncols: int
    data: Tuple[Row, ...]

    @classmethod
    def from_rows(cls, rows, ncols: int) -> "ReferenceMat":
        data = tuple(tuple(GaussianRational._coerce(x) for x in row) for row in rows)
        assert all(len(row) == ncols for row in data)
        return cls(len(data), ncols, data)

    def transpose(self) -> "ReferenceMat":
        return ReferenceMat(self.ncols, self.nrows, tuple(
            tuple(row[j] for row in self.data) for j in range(self.ncols)))

    def conj(self) -> "ReferenceMat":
        return self._map(lambda x: x.conjugate())

    def __neg__(self) -> "ReferenceMat":
        return self._map(lambda x: -x)

    def scale(self, factor) -> "ReferenceMat":
        return self._map(lambda x: factor * x)

    def _map(self, fn) -> "ReferenceMat":
        return ReferenceMat(self.nrows, self.ncols,
                            tuple(tuple(fn(x) for x in row) for row in self.data))

    def __add__(self, other: "ReferenceMat") -> "ReferenceMat":
        return ReferenceMat(self.nrows, self.ncols, tuple(
            tuple(x + y for x, y in zip(r, s)) for r, s in zip(self.data, other.data)))

    def __sub__(self, other: "ReferenceMat") -> "ReferenceMat":
        return self + -other

    def __matmul__(self, other: "ReferenceMat") -> "ReferenceMat":
        return ReferenceMat(self.nrows, other.ncols, tuple(
            tuple(sum((row[k] * other.data[k][j] for k in range(self.ncols)), ZERO)
                  for j in range(other.ncols))
            for row in self.data))

    def hstack(self, other: "ReferenceMat") -> "ReferenceMat":
        return ReferenceMat(self.nrows, self.ncols + other.ncols,
                            tuple(r + s for r, s in zip(self.data, other.data)))

    def vstack(self, other: "ReferenceMat") -> "ReferenceMat":
        return ReferenceMat(self.nrows + other.nrows, self.ncols, self.data + other.data)

    def block(self, rows: Sequence[int], cols: range) -> "ReferenceMat":
        return ReferenceMat(len(rows), len(cols),
                            tuple(tuple(self.data[i][j] for j in cols) for i in rows))

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.data for x in row)


def assert_canonical_rows(matrix: Mat) -> None:
    """Each stored row is (d, entries) with d > 0, no zero entry, every
    column in range, and gcd(d, every part) = 1."""
    assert len(matrix._rows) == matrix.nrows
    for d, entries in matrix._rows:
        assert isinstance(d, int) and d > 0
        assert all(0 <= j < matrix.ncols for j in entries)
        assert all(x or y for x, y in entries.values())
        assert gcd(d, *(part for value in entries.values() for part in value)) == 1


# ---------------------------------------------------------------------------
# Reference fraction-free elimination: dense Bareiss elimination over Z[i].
# Every row is updated at every step and each update divides exactly by
# the previous pivot; the pivot of a column is the first row with a nonzero
# entry there.  It shares no code with the sparse kernel, and unlike it
# each step's pivot is a minor of the row-scaled input.
# ---------------------------------------------------------------------------

GaussInt = Tuple[int, int]
DenseIntRow = Tuple[List[int], List[int]]


class BareissReduction(NamedTuple):
    # den times the reduced echelon form, pivot rows first; without
    # reduce_above the entries above the pivots are left unreduced
    rows: List[DenseIntRow]
    pivots: List[int]  # pivot column of each elimination step
    den: GaussInt  # the value every pivot entry ends with; 1 without pivots
    steps: List[Tuple[GaussInt, bool]]  # pivot of each step, and whether a swap preceded it
    scales: List[int]  # the positive integer each input row was multiplied by


def _dense_integer_row(row: Row) -> Tuple[int, DenseIntRow]:
    """The row times the lcm of its denominators, split into re and im."""
    scale = lcm(*(x.denominator for x in row))
    re_part = [x.numerator[0] * (scale // x.denominator) for x in row]
    im_part = [x.numerator[1] * (scale // x.denominator) for x in row]
    return scale, (re_part, im_part)


def exact_quotient(re: List[int], im: List[int], dr: int, di: int) -> DenseIntRow:
    """Divide a row by dr + di*i, which must divide every entry in Z[i]."""
    if di:
        # multiply by the conjugate, then divide by the norm
        norm = dr * dr + di * di
        re, im = ([x * dr + y * di for x, y in zip(re, im)],
                  [y * dr - x * di for x, y in zip(re, im)])
    else:
        norm = dr
    q_re = [x // norm for x in re]
    q_im = [y // norm for y in im]
    # Floor remainders all carry the divisor's sign, so they vanish one by
    # one exactly when they vanish in total.
    if sum(q_re) * norm != sum(re) or sum(q_im) * norm != sum(im):
        raise InternalInconsistency(
            f"fraction-free elimination: inexact division by {dr}{di:+d}*i"
        )
    return q_re, q_im


def reference_eliminate(matrix: Mat, reduce_above: bool = True) -> BareissReduction:
    """Fraction-free Gauss-Jordan elimination over Z[i] (Bareiss, 1968).

    Step k takes the pivot p in the first row at or below the k-th that is
    nonzero in the current column, and replaces every other row by
    (p * row - f * pivot_row) / d, where f is the row's entry in the pivot
    column and d the previous step's pivot.  The division is exact: each
    entry is then a minor of the integer matrix.  After the last step
    every pivot entry equals the last pivot and the rows are that pivot
    times the reduced echelon form.  With `reduce_above` false only the
    rows below each pivot are updated: plain Bareiss elimination.
    """
    scales: List[int] = []
    rows: List[DenseIntRow] = []
    for row in matrix.data:
        scale, int_row = _dense_integer_row(row)
        scales.append(scale)
        rows.append(int_row)
    nrows = matrix.nrows
    pivots: List[int] = []
    steps: List[Tuple[GaussInt, bool]] = []
    dr, di = 1, 0
    i = 0
    for col in range(matrix.ncols):
        if i == nrows:
            break
        for found in range(i, nrows):
            if rows[found][0][col] or rows[found][1][col]:
                break
        else:
            continue
        swapped = found != i
        if swapped:
            rows[i], rows[found] = rows[found], rows[i]
        b_re, b_im = rows[i]
        pr, pi = b_re[col], b_im[col]
        divide = (dr, di) != (1, 0)
        for r in range(0 if reduce_above else i + 1, nrows):
            a_re, a_im = rows[r]
            if r == i or not (any(a_re) or any(a_im)):
                continue
            fr, fi = a_re[col], a_im[col]
            if pi or fi:
                re = [pr * x - pi * y - fr * u + fi * v
                      for x, y, u, v in zip(a_re, a_im, b_re, b_im)]
                im = [pr * y + pi * x - fr * v - fi * u
                      for x, y, u, v in zip(a_re, a_im, b_re, b_im)]
            else:
                re = [pr * x - fr * u for x, u in zip(a_re, b_re)]
                im = [pr * y - fr * v for y, v in zip(a_im, b_im)]
            rows[r] = exact_quotient(re, im, dr, di) if divide else (re, im)
        pivots.append(col)
        steps.append(((pr, pi), swapped))
        dr, di = pr, pi
        i += 1
    return BareissReduction(rows, pivots, (dr, di), steps, scales)


def _gauss_quotient(value: GaussInt, by: GaussInt) -> GaussianRational:
    """(a + b*i) / (c + d*i) as a Gaussian rational."""
    return GaussianRational(*value) / GaussianRational(*by)


def bareiss_rref(matrix: Mat) -> Tuple[Mat, List[int]]:
    reduction = reference_eliminate(matrix)
    rank_ = len(reduction.pivots)
    data = [
        tuple(_gauss_quotient((x, y), reduction.den) for x, y in zip(re, im))
        for re, im in reduction.rows[:rank_]
    ]
    data.extend([(ZERO,) * matrix.ncols] * (matrix.nrows - rank_))
    return Mat(matrix.nrows, matrix.ncols, tuple(data)), reduction.pivots


def bareiss_det(matrix: Mat) -> GaussianRational:
    assert matrix.nrows == matrix.ncols
    reduction = reference_eliminate(matrix, reduce_above=False)
    if len(reduction.pivots) < matrix.nrows:
        return ZERO
    # the last pivot is the determinant of the row-scaled, row-swapped matrix
    swaps = sum(swapped for _, swapped in reduction.steps)
    return _gauss_quotient(reduction.den, ((-1) ** swaps * prod(reduction.scales), 0))


def bareiss_minors(matrix: Mat) -> List[GaussianRational]:
    """Leading principal minors from one Bareiss pass where it suffices.

    While elimination pivots down the diagonal without a swap, the pivot
    of step k is the (k+1)-th leading minor of the row-scaled matrix.  The
    first minor that breaks that run is zero; each later one takes a
    determinant of its own.
    """
    assert matrix.nrows == matrix.ncols
    reduction = reference_eliminate(matrix, reduce_above=False)
    out: List[GaussianRational] = []
    scale = 1
    for k, (col, (value, swapped)) in enumerate(zip(reduction.pivots, reduction.steps)):
        if col != k or swapped:
            break
        scale *= reduction.scales[k]
        out.append(_gauss_quotient(value, (scale, 0)))
    if len(out) < matrix.nrows:
        out.append(ZERO)
    for k in range(len(out) + 1, matrix.nrows + 1):
        out.append(bareiss_det(Mat.from_rows([row[:k] for row in matrix.data[:k]], ncols=k)))
    return out


def reference_nullspace(reduced: Mat, pivots: List[int]) -> List[Tuple[GaussianRational, ...]]:
    """Kernel basis read densely off a reduced echelon form."""
    free = [j for j in range(reduced.ncols) if j not in pivots]
    basis = []
    for j in free:
        vec = [ZERO] * reduced.ncols
        vec[j] = ONE
        for r, pcol in enumerate(pivots):
            vec[pcol] = -reduced.data[r][j]
        basis.append(tuple(vec))
    return basis


# ---------------------------------------------------------------------------
# Reference subspace lattice.  A space is the matrix of its canonical basis,
# `row_basis` of any spanning set.  The engine takes every space as the
# kernel or image of a named operator and counts intersections and sums by
# ranks; these build the intersections themselves, for the oracles below.
# ---------------------------------------------------------------------------


def kernel_space(matrix: Mat) -> Mat:
    return row_basis(kernel_basis(matrix))


def column_space(matrix: Mat) -> Mat:
    return row_basis(matrix.transpose())


def span(vectors: Sequence[Sequence], ambient_dim: int) -> Mat:
    return row_basis(Mat.from_rows(list(vectors), ncols=ambient_dim))


def space_sum(u: Mat, v: Mat) -> Mat:
    return row_basis(u.vstack(v))


def contains_space(big: Mat, small: Mat) -> bool:
    """Whether small lies in big: the basis rows are independent, so
    exactly when adding small's rows leaves the rank at dim big."""
    return rank(big.vstack(small)) == big.nrows


def intersect(u: Mat, v: Mat) -> Mat:
    """Intersection via the kernel of the stacked basis matrix.

    A vector in both spaces is U^T a = V^T b; solving the homogeneous
    system [U^T | -V^T] (a, b) = 0 and reading off a U gives a spanning
    set of the intersection.
    """
    if u.ncols != v.ncols:
        raise ValueError("subspaces live in different ambient spaces")
    if not u.nrows or not v.nrows:
        return Mat.zeros(0, u.ncols)
    stacked = u.transpose().hstack(-v.transpose())
    null = kernel_basis(stacked)
    return row_basis(null.block(range(null.nrows), range(u.nrows)) @ u)


def quotient_dim(big: Mat, small: Mat) -> int:
    if not contains_space(big, small):
        raise NotASubspace(
            "quotient requested by a space that is not contained in the numerator"
        )
    return big.nrows - small.nrows


# ---------------------------------------------------------------------------
# Reference cohomology: every column of the table by subspace arithmetic,
# building, intersecting and summing the actual subspaces.  The engine reads
# the same numbers off ranks, where the two exactness sums hold by algebra;
# here they do not, so this is where the lattice operations stay checked.
# ---------------------------------------------------------------------------


def reference_complement_representatives(big: Mat, small: Mat) -> List[Row]:
    """Greedy over the canonical rows of big, one containment test per row."""
    if not contains_space(big, small):
        raise NotASubspace("complement requested inside a non-subspace")
    current = small
    out = []
    for row in big.data:
        one = Mat.from_rows([row], ncols=big.ncols)
        if not contains_space(current, one):
            out.append(row)
            current = space_sum(current, one)
    return out


def ker_del(mc: MatrixComplex, p: int) -> Mat:
    return kernel_space(mc.delta(p))


def im_del(mc: MatrixComplex, p: int) -> Mat:
    """Im del inside degree p."""
    return column_space(mc.delta(p - 1))


def reference_class_coords(mc: MatrixComplex, vector, p: int,
                           reps: Dict[int, List]) -> Tuple:
    """Page-one coordinates of one del-closed vector, by its own solve."""
    rep_list = reps.get(p, [])
    columns = list(rep_list) + list(im_del(mc, p).data)
    if not columns:
        assert not any(x for x in vector)
        return ()
    solution = solve(Mat.from_rows(columns, ncols=mc.dim(p)).transpose(),
                     Mat.from_rows([[x] for x in vector], ncols=1))
    if solution is None:
        raise InternalInconsistency("vector outside ker del")
    return solution.transpose().data[0][: len(rep_list)]


def reference_e2(mc: MatrixComplex, p: int) -> int:
    """dim E2 as the quotient of two subspaces.

    Numerator: del-closed v with del_J v del-exact.  Denominator:
    del-exact forms plus del_J of del-closed forms one degree down.
    """
    dp = mc.dim(p)
    top_block = mc.delta(p).hstack(Mat.zeros(mc.dim(p + 1), dp))
    bottom_block = mc.delta_j(p).hstack(-mc.delta(p))
    stacked = top_block.vstack(bottom_block)
    numerator = span([vec[:dp] for vec in kernel_space(stacked).data], dp)
    pushed = list((ker_del(mc, p - 1) @ mc.delta_j(p - 1).transpose()).data)
    denominator = space_sum(im_del(mc, p), span(pushed, dp))
    return quotient_dim(numerator, denominator)


BLOCK_NAMES = ("stacked", "side", "e2_num", "e2_den")


def reference_block(mc: MatrixComplex, name: str, p: int) -> Mat:
    """One block operator out of degree p, built as a matrix.

    `MatrixComplex` reads the ranks of these off a split of del_p and
    never builds the E2 blocks; eliminating the blocks themselves is the
    reference those ranks are checked against.
    """
    d, dj = mc.delta(p), mc.delta_j(p)
    if name == "stacked":  # [del; del_J]
        return d.vstack(dj)
    if name == "side":  # [del | del_J]
        return d.hstack(dj)
    zero = Mat.zeros(mc.dim(p + 1), mc.dim(p))
    if name == "e2_num":  # (v, w) -> (del v, del_J v - del w)
        return d.hstack(zero).vstack(dj.hstack(-d))
    if name == "e2_den":  # (x, y) -> (del y, del x + del_J y)
        return zero.hstack(d).vstack(d.hstack(dj))
    raise KeyError(name)


def reference_table(mc: MatrixComplex) -> CohomologyTable:
    """The cohomology table of mc by subspace arithmetic alone."""
    degrees = range(mc.top + 1)
    ker_d = [ker_del(mc, p) for p in degrees]
    im_d = [im_del(mc, p) for p in degrees]
    ker_dj = [kernel_space(mc.delta_j(p)) for p in degrees]
    im_dj = [column_space(mc.delta_j(p - 1)) for p in degrees]
    ker_ddj = [kernel_space(mc.ddj(p)) for p in degrees]
    im_ddj = [column_space(mc.ddj(p - 2)) for p in degrees]
    h_del = [quotient_dim(ker_d[p], im_d[p]) for p in degrees]
    h_delj = [quotient_dim(ker_dj[p], im_dj[p]) for p in degrees]
    h_bc = [quotient_dim(intersect(ker_d[p], ker_dj[p]), im_ddj[p]) for p in degrees]
    h_ae = [quotient_dim(ker_ddj[p], space_sum(im_d[p], im_dj[p])) for p in degrees]
    var = []
    for p in degrees:
        var.append((
            quotient_dim(intersect(im_d[p], im_dj[p]), im_ddj[p]),
            quotient_dim(intersect(ker_d[p], im_dj[p]), im_ddj[p]),
            quotient_dim(ker_ddj[p], space_sum(ker_d[p], im_dj[p])),
            quotient_dim(intersect(im_d[p], ker_dj[p]), im_ddj[p]),
            quotient_dim(ker_ddj[p], space_sum(im_d[p], ker_dj[p])),
            quotient_dim(ker_ddj[p], space_sum(ker_d[p], ker_dj[p])),
        ))
    e2 = [reference_e2(mc, p) for p in degrees]
    return CohomologyTable(
        top_degree=mc.top,
        quaternionic_dim=mc.quaternionic_dim,
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


# ---------------------------------------------------------------------------
# Reference decompositions of the middle cohomology: the same report by
# intersecting and summing the subspaces themselves.
# ---------------------------------------------------------------------------


def _realified_complex_subspace(space: Mat) -> Mat:
    # the realified rows of v and i v, for each basis vector v, are
    # (Re v, Im v) and (-Im v, Re v); realify_antilinear stacks the first
    # kind above minus the second
    return row_basis(realify_antilinear(space))


def reference_sd_asd(sl: SLStructure) -> Tuple[int, int, bool]:
    star = sl.star_matrix(2).mat()
    identity = Mat.identity(star.ncols)
    ker, im = ker_del(sl.mc, 2), im_del(sl.mc, 2)
    big_plus = space_sum(intersect(kernel_space(star - identity), ker), im)
    big_minus = space_sum(intersect(kernel_space(star + identity), ker), im)
    direct = intersect(big_plus, big_minus) == im
    exhausts = space_sum(big_plus, big_minus) == ker
    return quotient_dim(big_plus, im), quotient_dim(big_minus, im), direct and exhausts


def reference_decomposition(sl: SLStructure) -> DecompositionReport:
    """`SLStructure.decomposition_report` by the subspace lattice."""
    mc = sl.mc
    ker_real = _realified_complex_subspace(ker_del(mc, 2))
    im_real = _realified_complex_subspace(im_del(mc, 2))
    jbar_real = realify_antilinear(sl.cx.index_map("Jbar", 2).mat())
    identity = Mat.identity(jbar_real.ncols)
    big_plus = space_sum(intersect(kernel_space(jbar_real - identity), ker_real), im_real)
    big_minus = space_sum(intersect(kernel_space(jbar_real + identity), ker_real), im_real)
    plus_real = quotient_dim(big_plus, im_real)
    minus_real = quotient_dim(big_minus, im_real)
    inter = quotient_dim(intersect(big_plus, big_minus), im_real) // 2
    total = quotient_dim(space_sum(big_plus, big_minus), im_real) // 2
    h2 = quotient_dim(ker_del(mc, 2), im_del(mc, 2))
    phi = reference_sd_asd(sl) if sl.cx.n == 2 else (None, None, None)
    return DecompositionReport(
        phi_plus_dim=phi[0],
        phi_minus_dim=phi[1],
        phi_direct=phi[2],
        jbar_plus_real_dim=plus_real,
        jbar_minus_real_dim=minus_real,
        jbar_plus_dim=Fraction(plus_real, 2),
        jbar_minus_dim=Fraction(minus_real, 2),
        intersection_dim=inter,
        sum_dim=total,
        complement_dim=h2 - total,
        pure=inter == 0,
        full=total == h2,
        representatives_plus=complexify(Mat.from_rows(
            reference_complement_representatives(big_plus, im_real), ncols=big_plus.ncols)),
        representatives_minus=complexify(Mat.from_rows(
            reference_complement_representatives(big_minus, im_real), ncols=big_minus.ncols)),
    )


# ---------------------------------------------------------------------------
# The structural checks by the coordinate routes the bracket kernel
# replaced: brackets over every coordinate and every term, d of a covector
# by wedging dense forms, and d^2 by the differential extended to forms.
# ---------------------------------------------------------------------------


class ExteriorAlgebra:
    """Lambda(V) for an n-dimensional space with a fixed differential.

    `d_images[k]` is d of generator k.  The differential is extended by
    d(a ^ b) = da ^ b + (-1)^|a| a ^ db, so on a monomial each slot
    contributes with the sign of its position.
    """

    def __init__(self, ngens: int, d_images: Sequence[Form]):
        if len(d_images) != ngens:
            raise ValueError("one differential image per generator is required")
        self.ngens = ngens
        self.d_images = [Form(dict(img.terms)) for img in d_images]

    def d(self, form: Form) -> Form:
        total = Form.zero()
        for mono, coeff in form.terms.items():
            for pos, gen in enumerate(mono):
                rest = Form.monomial(mono[:pos] + mono[pos + 1:])
                sign = -1 if pos % 2 else 1
                total = total + (self.d_images[gen].wedge(rest)).scale(coeff * sign)
        return total


def reference_algebra(inst) -> ExteriorAlgebra:
    """The exterior algebra of the real coframe, with each de^k built as a
    form from the term list `inst` stores."""
    return ExteriorAlgebra(inst.dimension, [
        Form.from_terms({(i, j): c for i, j, c in terms}) for terms in inst.structure])


def reference_bracket(inst, u: Sequence[GaussianRational],
                      v: Sequence[GaussianRational]) -> Row:
    """[u, v] in coordinates, read off the structure equations.

    de^k(X, Y) = -e^k([X, Y]) identifies the coefficient of e^i^e^j in
    de^k with minus the e_k-component of [e_i, e_j].
    """
    m = inst.dimension
    out = [ZERO] * m
    for k in range(m):
        for i, j, coeff in inst.structure[k]:
            factor = u[i] * v[j] - u[j] * v[i]
            out[k] = out[k] - coeff * factor
    return tuple(out)


def reference_nilpotency_step(inst):
    """The step of the lower central series, or None when it does not
    reach zero within the dimension: each term is spanned by the brackets
    of the basis vectors with the previous term."""
    m = inst.dimension
    basis = Mat.identity(m).data
    current = Mat.identity(m)
    for step in range(1, m + 1):
        produced = [reference_bracket(inst, u, v) for u in basis for v in current.data]
        nxt = row_basis(Mat(len(produced), m, produced))
        if nxt.nrows == current.nrows:
            return None
        if nxt.nrows == 0:
            return step
        current = nxt
    return None


def reference_differentials_in_basis(inst, b: Mat, c: Mat, count: int) -> List[Form]:
    """d of the first `count` covectors of a basis, written in that basis.

    Row r of `b` is psi^r over the real coframe and row j of its inverse
    `c` is e^j over the psi, so d psi^r is sum_j b[r][j] de^j with each e^j
    replaced by its row of `c`.
    """
    e_in_psi = [Form.from_terms({(s,): x for s, x in enumerate(row)}) for row in c.data]
    out = []
    for r in range(count):
        d_psi = Form.zero()
        for j, coeff in enumerate(b.data[r]):
            if coeff:
                for k, l, value in inst.structure[j]:
                    d_psi = d_psi + e_in_psi[k].wedge(e_in_psi[l]).scale(coeff * value)
        out.append(d_psi)
    return out


# ---------------------------------------------------------------------------
# The operators form by form: the reference the generator-built matrices
# of QuaternionicComplex are checked against.
# ---------------------------------------------------------------------------


def map_gens(form: Form, images: Sequence[Form],
             conjugate_coeffs: bool = False) -> Form:
    """Extend generator -> images[generator] as an algebra map.

    With `conjugate_coeffs` the scalar coefficients are conjugated too,
    which is the action of an antilinear algebra map.
    """
    total = Form.zero()
    for mono, coeff in form.terms.items():
        acc = Form.unit()
        for gen in mono:
            acc = acc.wedge(images[gen])
        total = total + acc.scale(coeff.conjugate() if conjugate_coeffs else coeff)
    return total


class FormRoute:
    """The operators of a QuaternionicComplex, applied to one form at a time.

    d psi^r is d of the real covector psi^r rewritten in the psi coframe
    by substituting each e^j, and d is extended to every form by
    `ExteriorAlgebra.d`; del and del_bar are its bidegree components.  J
    and conjugation are applied as algebra maps, J from the real J table
    and conjugation as psi^g -> psi^{g+2n} with conjugated coefficients,
    and del_J = J^{-1} del_bar J.  A matrix is built by applying its
    operator to every basis monomial.
    """

    def __init__(self, cx) -> None:
        self.cx = cx
        inst, m, half = cx.inst, cx.dimension, cx.half
        b, c = _basis_change(cx.coframe)
        e_images = [Form.from_terms({(s,): c.data[j][s] for s in range(m)})
                    for j in range(m)]
        d_e_images = reference_algebra(inst).d_images
        d_psi = []
        for r in range(m):
            d_e = Form.zero()
            for j in range(m):
                d_e = d_e + d_e_images[j].scale(b.data[r][j])
            d_psi.append(map_gens(d_e, e_images))
        self.psi = ExteriorAlgebra(m, d_psi)
        self.j_images = []
        # row r of b J^T is J applied to the coefficients of psi^r
        for w in (b @ inst.mat_j.transpose()).data:
            self.j_images.append(map_gens(
                Form.from_terms({(j,): w[j] for j in range(m)}), e_images))
        self.conj_images = [Form.generator((r + half) % m) for r in range(m)]

    def bidegree(self, form: Form) -> Tuple[int, int]:
        found = {self.cx.bidegree_of_mono(mono) for mono in form.terms}
        if len(found) > 1:
            raise ValueError(f"form mixes bidegrees {sorted(found)}")
        return found.pop() if found else (0, 0)

    def project(self, form: Form, p: int, q: int) -> Form:
        return Form.from_terms({
            mono: coeff for mono, coeff in form.terms.items()
            if self.cx.bidegree_of_mono(mono) == (p, q)})

    def _d_component(self, form: Form, dp: int, dq: int) -> Form:
        p, q = self.bidegree(form)
        image = self.psi.d(form)
        if image != self.project(image, p + 1, q) + self.project(image, p, q + 1):
            raise IntegrabilityViolation(f"d of a ({p},{q})-form leaves two bidegrees")
        return self.project(image, p + dp, q + dq)

    def partial(self, form: Form) -> Form:
        return self._d_component(form, 1, 0)

    def partial_bar(self, form: Form) -> Form:
        return self._d_component(form, 0, 1)

    def j(self, form: Form) -> Form:
        return map_gens(form, self.j_images)

    def conj(self, form: Form) -> Form:
        return map_gens(form, self.conj_images, conjugate_coeffs=True)

    def jbar(self, form: Form) -> Form:
        return self.j(self.conj(form))

    def partial_j(self, form: Form) -> Form:
        p = self.bidegree(form)[0]
        image = self.j(self.partial_bar(self.j(form)))
        return image if (p + 1) % 2 == 0 else -image

    def route(self, which: str, p: int, q: int):
        """One operator, applied form by form, and the bidegree it sends
        (p,q) to: del, del_bar and del_J as named in
        `QuaternionicComplex.operator_matrix`, J and Jbar as in its
        `index_map`, ddj as in `MatrixComplex.ddj`, and conj."""
        return {
            "del": (self.partial, (p + 1, q)),
            "del_bar": (self.partial_bar, (p, q + 1)),
            "del_J": (self.partial_j, (p + 1, q)),
            "ddj": (lambda f: self.partial(self.partial_j(f)), (p + 2, q)),
            "Jbar": (self.jbar, (p, q)),
            "J": (self.j, (q, p)),
            "conj": (self.conj, (q, p)),
        }[which]

    def operator_matrix(self, which: str, p: int, q: int = 0) -> Mat:
        """The matrix of a `route` operator out of the (p,q) basis, from
        its value on every basis monomial."""
        op, target = self.route(which, p, q)
        tgt = {mono: r for r, mono in enumerate(self.cx.bidegree_basis(*target))}
        src = self.cx.bidegree_basis(p, q)
        entries = {}
        for col, mono in enumerate(src):
            for image, coeff in op(Form.monomial(mono)).terms.items():
                entries[tgt[image], col] = coeff
        return Mat.from_entries(len(tgt), len(src), entries)


def form_wedge_matrix(cx, p: int) -> Mat:
    """`SLStructure.wedge_matrix(p)` as a general matrix: W[i][k] is the
    top-monomial coefficient of m_i ^ m'_k, wedged as forms.  Every product
    with a monomial that repeats a generator of m_i is zero, which leaves
    the one with its complement."""
    top = tuple(range(cx.half))
    tgt = {mono: k for k, mono in enumerate(cx.hol_basis(cx.half - p))}
    entries = {}
    for i, mono in enumerate(cx.hol_basis(p)):
        other = tuple(g for g in top if g not in mono)
        product = Form.monomial(mono).wedge(Form.monomial(other))
        entries[i, tgt[other]] = product.coefficient(top)
    return Mat.from_entries(len(cx.hol_basis(p)), len(tgt), entries)


def form_omega_power(cx, omega: Sequence) -> Form:
    """Omega^{n-1} for omega the coordinates of Omega on the (2,0) basis,
    wedged form by form from the unit."""
    form, power = from_coords(cx, omega, 2), Form.unit()
    for _ in range(cx.n - 1):
        power = power.wedge(form)
    return power


def form_degree_map(route: FormRoute, omega: Sequence, alpha: Sequence) -> GaussianRational:
    """The degree map wedged form by form: the full-monomial coefficient
    of del(alpha) ^ Omega^{n-1} ^ conj(phi), for phi the top coframe
    monomial and omega, alpha coordinates on the (2,0) and (1,0) bases."""
    cx = route.cx
    power = form_omega_power(cx, omega)
    phi_bar = route.conj(Form.monomial(range(cx.half)))
    product = route.partial(from_coords(cx, alpha, 1)).wedge(power).wedge(phi_bar)
    return product.coefficient(range(cx.dimension))
