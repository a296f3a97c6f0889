"""Seeded inputs, operations and output oracles of the benchmark workloads.

Functions here import quatcohom when they are called, not when this module
is loaded, so that run.py can drop the package from ``sys.modules`` and
time a fresh import as part of set-up.

An operation ("op") is one call into quatcohom.  ``Op.run`` is the timed
part; ``Op.check`` inspects its result afterwards and returns an error
message or ``None``.  Checks of one pass share a dict, which is how an op
compares its output with an earlier op of the same pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from random import Random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

DIGESTS_FILE = Path(__file__).resolve().parent / "corpus_digests.json"

# Published rows of example1 (acceptance criterion 1) and the torus rows.
EXAMPLE1_H_DEL = (1, 3, 4, 3, 1)
EXAMPLE1_H_BC = (1, 2, 5, 4, 1)

# The bundled instances of corpus-cli: name and --param arguments.
BUNDLED = (
    ("example1", ()),
    ("torus8", ()),
    ("example2", ("--param", "t=1/3")),
    ("example2", ("--param", "t=1/2")),
    ("example3", ()),
)

# Complexes per pass of dense-complex, each run plain and conjugated.  Two
# seeded pairs give 4 ops of about 2-4 s each, so a pass takes 9-15 s.
DENSE_PAIRS = 2
DENSE_GENERATORS = 6

# Passes a timed run makes at least, so that its fastest pass is the best of
# several.  A pass takes 15-26 s on corpus-cli, 9-15 s on dense-complex
# and about 20 s on ladder16.
MIN_PASSES = {"corpus-cli": 3, "ladder16": 2, "dense-complex": 3}


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any, Dict[str, Any]], Optional[str]]


# ---------------------------------------------------------------------------
# Oracles built in the benchmark.
# ---------------------------------------------------------------------------


def binomial_row(n: int) -> Tuple[int, ...]:
    """binomial(n, p) for p = 0..n: every dimension row of the torus R^{2n}."""
    row = [1]
    for _ in range(n):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    return tuple(row)


def convolve(a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    """Dimension row of a product: the Kunneth formula for g + R^{4k}."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


# ---------------------------------------------------------------------------
# Spec-level constructions.
# ---------------------------------------------------------------------------


def _real(expr, bindings) -> Fraction:
    value = expr.evaluate(bindings)
    if not value.is_real():
        raise ValueError(f"coefficient {expr} is not real")
    return Fraction(value.re)


def baked_spec(spec, bindings=None, scale: Fraction = Fraction(1), name: str = ""):
    """The structure with its parameters bound and constants scaled.

    Scaling every structure constant by a nonzero rational gives an
    isomorphic algebra, so every reported dimension and verdict is kept.
    """
    from quatcohom import AlgebraSpec

    bindings = bindings or {}
    structure = {
        k: [(i, j, _real(c, bindings) * scale) for i, j, c in terms]
        for k, terms in spec.structure
    }

    def table(rows):
        return [[_real(x, bindings) for x in row] for row in rows]

    return AlgebraSpec.create(
        spec.dimension, structure, table(spec.op_i), table(spec.op_j),
        name=name or spec.name,
    )


def direct_sum_spec(parts: Sequence[Tuple[Any, Fraction]], name: str = ""):
    """Direct sum of parameter-free structures, each with its constants scaled.

    The coframe of each summand is shifted past the earlier ones and I, J
    act block-diagonally, so the sum is again hypercomplex and nilpotent.
    """
    from quatcohom import AlgebraSpec

    dim = sum(spec.dimension for spec, _ in parts)
    structure: Dict[int, List[Tuple[int, int, Fraction]]] = {}
    op_i = [[Fraction(0)] * dim for _ in range(dim)]
    op_j = [[Fraction(0)] * dim for _ in range(dim)]
    offset = 0
    for spec, scale in parts:
        for k, terms in spec.structure:
            structure[k + offset] = [
                (i + offset, j + offset, _real(c, {}) * scale) for i, j, c in terms
            ]
        for target, source in ((op_i, spec.op_i), (op_j, spec.op_j)):
            for r, row in enumerate(source):
                for c, x in enumerate(row):
                    target[r + offset][c + offset] = _real(x, {})
        offset += spec.dimension
    return AlgebraSpec.create(
        dim, structure, op_i, op_j,
        name=name or "+".join(spec.name for spec, _ in parts),
    )


def _seeded_rational(rng: Random) -> Fraction:
    """A nonzero rational other than 1 with small numerator and denominator."""
    while True:
        value = Fraction(rng.choice((1, -1)) * rng.randint(1, 3), rng.randint(1, 3))
        if value != 1:
            return value


# ---------------------------------------------------------------------------
# corpus-cli: every subcommand on every instance through cli.main.
# ---------------------------------------------------------------------------


def commands(quaternionic_dim: int) -> List[Tuple[str, ...]]:
    """Subcommands that exit 0 on a valid instance of this dimension.

    ``hkt`` exits 1 by design unless the quaternionic dimension is 2, and
    ``--p`` is kept to the valid range 0..2n.
    """
    out: List[Tuple[str, ...]] = [
        ("validate",),
        ("report", "--format", "json"),
        ("report", "--format", "table"),
        ("decompose",),
    ]
    out += [("pairing", "--p", str(p)) for p in range(2 * quaternionic_dim + 1)]
    out.append(("suite",))
    if quaternionic_dim == 2:
        out.append(("hkt",))
    return out


def run_cli(argv: Sequence[str]) -> Tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI invocation."""
    from quatcohom import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _exit_error(code: int, stderr: str) -> str:
    return f"exit code {code}, expected 0: {stderr.strip()}"


def bundled_ops() -> List[Tuple[str, str, Tuple[str, ...], Tuple[str, ...]]]:
    """(label, instance, argv, command) per bundled instance and subcommand."""
    from quatcohom import load_corpus

    ops = []
    for name, params in BUNDLED:
        n = load_corpus(name).dimension // 4
        for command in commands(n):
            argv = (command[0], name) + params + command[1:]
            ops.append((" ".join(argv), name, argv, command))
    return ops


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_SUITE_LINE = re.compile(r"^(\s*)(PASS|FAIL|N/A)\s+([\w.-]+):.*$", re.M)


def _comparable(command: Tuple[str, ...], stdout: str):
    """The part of an output that must not depend on the family member.

    Names and the numeric details of suite checks may differ; dimensions,
    decompositions, verdict answers and check statuses may not.
    """
    if command == ("report", "--format", "json"):
        doc = json.loads(stdout)
        return (doc["cohomology"], doc["decomposition"],
                doc["verdicts"]["hkt"]["answer"],
                doc["verdicts"]["strongly_gauduchon"]["answer"],
                [entry["status"] for entry in doc["suite"]])
    lines = [line for line in stdout.splitlines()
             if not line.startswith("structure: ")]
    return _SUITE_LINE.sub(r"\1\2 \3", "\n".join(lines))


def corpus_cli(seed: int, workdir: Path) -> List[Op]:
    from quatcohom import load_corpus, serialize_spec

    digests = json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))
    ops: List[Op] = []

    def bundled_check(label, name, command):
        def check(result, shared):
            code, stdout, stderr = result
            if code != 0:
                return _exit_error(code, stderr)
            if name == "example1":
                shared[command] = stdout
            if stdout_digest(stdout) != digests[label]:
                return "stdout differs from the recorded digest"
            return None
        return check

    for label, name, argv, command in bundled_ops():
        ops.append(Op(label, lambda argv=argv: run_cli(argv),
                      bundled_check(label, name, command)))

    rng = Random(seed)
    family = []
    while len(family) < 2:
        den = rng.randint(3, 9)
        t = Fraction(rng.randint(1, den - 1), den)
        if t != Fraction(1, 2) and t not in family:
            family.append(t)
    example2 = load_corpus("example2")
    extras = [
        (f"example2[t={t}]", baked_spec(example2, {"t": t}, name=f"example2-t={t}"))
        for t in family
    ]
    scale = _seeded_rational(rng)
    extras.append((f"example1[x{scale}]",
                   baked_spec(load_corpus("example1"), scale=scale,
                              name="example1-scaled")))

    workdir.mkdir(parents=True, exist_ok=True)

    def family_check(command):
        def check(result, shared):
            code, stdout, stderr = result
            if code != 0:
                return _exit_error(code, stderr)
            if _comparable(command, stdout) != _comparable(command, shared[command]):
                return "output differs from example1's"
            return None
        return check

    for index, (tag, spec) in enumerate(extras):
        path = workdir / f"seed{seed}-extra{index}.json"
        path.write_text(serialize_spec(spec), encoding="utf-8")
        for command in commands(spec.dimension // 4):
            argv = (command[0], str(path)) + command[1:]
            ops.append(Op(f"{command[0]} {tag} " + " ".join(command[1:]),
                          lambda argv=argv: run_cli(argv), family_check(command)))
    return ops


# ---------------------------------------------------------------------------
# ladder16: the full report of example1 + torus8 at real dimension 16.
# ---------------------------------------------------------------------------


def ladder16_spec(seed: int):
    from quatcohom import load_corpus

    rng = Random(seed)
    parts = [(load_corpus("example1"), _seeded_rational(rng)),
             (load_corpus("torus8"), _seeded_rational(rng))]
    return direct_sum_spec(parts, name="example1+torus8")


def ladder16(seed: int, workdir: Path) -> List[Op]:
    spec = ladder16_spec(seed)
    torus = binomial_row(4)
    expected = {
        "h_bc": convolve(EXAMPLE1_H_BC, torus),
        "h_del": convolve(EXAMPLE1_H_DEL, torus),
        "dim_e2": convolve(EXAMPLE1_H_DEL, torus),
    }

    def run():
        from quatcohom import report

        doc = report.build_report(spec)
        return doc, report.to_json(doc)

    def check(result, shared):
        doc, text = result
        rows = doc["cohomology"]["rows"]
        for key, row in expected.items():
            got = tuple(r[key] for r in rows)
            if got != row:
                return f"{key} {got} differs from the torus oracle {row}"
        failed = [e["name"] for e in doc["suite"] if e["status"] == "fail"]
        if failed:
            return "suite checks failed: " + ", ".join(failed)
        if json.loads(text)["cohomology"] != doc["cohomology"]:
            return "to_json does not round-trip the cohomology section"
        return None

    return [Op("report example1+torus8", run, check)]


# ---------------------------------------------------------------------------
# dense-complex: MatrixComplex and its table on seeded dense complexes.
# ---------------------------------------------------------------------------

# tests/support.py draws from the same values with zeros added; leaving
# the zeros out makes every matrix dense and the one-forms never zero.
_SCALARS = (1, -1, 2, Fraction(1, 2), Fraction(-1, 2))
_BASIS_STEPS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2))


def _scalar(rng: Random):
    from quatcohom import GaussianRational

    im = rng.choice(_SCALARS) if rng.random() < 0.4 else 0
    return GaussianRational(rng.choice(_SCALARS), im)


def wedge_matrices(k: int, one_form: Sequence) -> Tuple[List[int], List]:
    """Left wedge by a one-form, degree by degree, on k generators."""
    from quatcohom.linalg import Mat

    bases = [list(combinations(range(k), p)) for p in range(k + 1)]
    mats = []
    for p in range(k):
        index = {mono: r for r, mono in enumerate(bases[p + 1])}
        rows = [[0] * len(bases[p]) for _ in bases[p + 1]]
        for c, mono in enumerate(bases[p]):
            for g in range(k):
                if g in mono:
                    continue
                sign = -1 if sum(1 for s in mono if s < g) % 2 else 1
                rows[index[tuple(sorted(mono + (g,)))]][c] = one_form[g] * sign
        mats.append(Mat.from_rows(rows, ncols=len(bases[p])))
    return [len(b) for b in bases], mats


def _random_basis(rng: Random, m: int, steps: int = 4):
    """A product of elementary row operations, invertible by construction."""
    from quatcohom.linalg import Mat

    rows = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    for _ in range(steps):
        i, j = rng.randrange(m), rng.randrange(m)
        if i == j:
            continue
        lam = rng.choice(_BASIS_STEPS)
        rows[i] = [a + lam * b for a, b in zip(rows[i], rows[j])]
    if rng.random() < 0.5:
        i, j = rng.randrange(m), rng.randrange(m)
        rows[i], rows[j] = rows[j], rows[i]
    return Mat.from_rows(rows)


def dense_complexes(seed: int, pairs: int = DENSE_PAIRS) -> List[Tuple]:
    """Per pair: dims, del and del_J matrices, and both conjugated by a basis change.

    Wedging by two one-forms u, v gives square-zero anticommuting
    differentials; conjugating by an invertible map in each degree keeps
    every dimension.
    """
    from quatcohom.linalg import inverse

    k = DENSE_GENERATORS
    rng = Random(seed)
    out = []
    for _ in range(pairs):
        u = [_scalar(rng) for _ in range(k)]
        v = [_scalar(rng) for _ in range(k)]
        dims, dels = wedge_matrices(k, u)
        _, deljs = wedge_matrices(k, v)
        basis = [_random_basis(rng, d) for d in dims]
        basis_inv = [inverse(b) for b in basis]
        conj = [[basis[p + 1] @ mats[p] @ basis_inv[p] for p in range(k)]
                for mats in (dels, deljs)]
        out.append((dims, dels, deljs, conj[0], conj[1]))
    return out


def dense_complex(seed: int, workdir: Path) -> List[Op]:
    ops: List[Op] = []

    def run_table(dims, dels, deljs):
        from quatcohom import MatrixComplex

        return MatrixComplex(dims, dels, deljs).table()

    def plain_check(index):
        def check(table, shared):
            shared[index] = table
            if any(table.h_del):
                return f"h_del {table.h_del} is not zero (Koszul exactness)"
            return None
        return check

    def twin_check(index):
        def check(table, shared):
            if table != shared[index]:
                return "conjugated complex's table differs from its twin's"
            return None
        return check

    for index, (dims, dels, deljs, cdels, cdeljs) in enumerate(dense_complexes(seed)):
        ops.append(Op(f"plain {index}",
                      lambda a=(dims, dels, deljs): run_table(*a), plain_check(index)))
        ops.append(Op(f"conjugated {index}",
                      lambda a=(dims, cdels, cdeljs): run_table(*a), twin_check(index)))
    return ops


BUILDERS: Dict[str, Callable[[int, Path], List[Op]]] = {
    "corpus-cli": corpus_cli,
    "ladder16": ladder16,
    "dense-complex": dense_complex,
}

WORKLOADS = tuple(BUILDERS)
