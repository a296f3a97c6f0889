"""Reading and writing the JSON description format.

A document carries name, dimension, parameter list, the structure table
(list of {k, terms}), the I and J coefficient tables, optionally K and a
metadata object.  Everything else is a schema violation, reported with
the JSON path to the offending field so that hand-edited files stay
debuggable.  A structure may not list one index pair twice within one
de^k.  The tables hold mostly the same few entries, so each distinct one
is parsed once per document.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from importlib import resources
from typing import Dict, List, Sequence, Tuple

from .errors import CoefficientParseError, DivisionByZero, SchemaError
from .model import AlgebraSpec
from .scalars import (
    MAX_DIGITS,
    ParamExpr,
    exceeds_digits,
    parse_coefficient,
    parse_rational,
)

_TOP_FIELDS = {"name", "dimension", "parameters", "structure", "I", "J", "K", "metadata"}


def parse_spec(text: str) -> AlgebraSpec:
    """Parse one JSON document into an algebra description."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from None
    except RecursionError:
        raise SchemaError("not valid JSON: nested too deeply") from None
    except ValueError:  # Python's limit on the digits of an integer it reads
        raise SchemaError("not valid JSON: an integer has more than "
                          f"{sys.get_int_max_str_digits()} digits") from None
    return spec_from_document(doc)


def spec_from_document(doc: object) -> AlgebraSpec:
    if not isinstance(doc, dict):
        raise SchemaError("top level: expected an object")
    unknown = sorted(set(doc) - _TOP_FIELDS)
    if unknown:
        raise SchemaError(f"top level: unknown field(s) {', '.join(unknown)}")
    for field in ("name", "dimension", "structure", "I", "J"):
        if field not in doc:
            raise SchemaError(f"top level: missing field '{field}'")
    name = doc["name"]
    if not isinstance(name, str):
        raise SchemaError("name: expected a string")
    dim = doc["dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SchemaError("dimension: expected a positive integer")
    parameters = doc.get("parameters", [])
    if not isinstance(parameters, list) or not all(isinstance(p, str) for p in parameters):
        raise SchemaError("parameters: expected a list of strings")
    for idx, p in enumerate(parameters):
        if not p.isidentifier():
            raise SchemaError(f"parameters[{idx}]: '{p}' is not a valid name")
        if p == "i":
            raise SchemaError(f"parameters[{idx}]: 'i' is reserved for the imaginary unit")
    if len(set(parameters)) != len(parameters):
        raise SchemaError("parameters: duplicate names")

    structure = _read_structure(doc["structure"], dim, parameters)
    read: Dict[Tuple[type, object], ParamExpr] = {}
    op_i = _read_matrix(doc["I"], "I", dim, parameters, read)
    op_j = _read_matrix(doc["J"], "J", dim, parameters, read)
    op_k = None
    if "K" in doc:
        op_k = _read_matrix(doc["K"], "K", dim, parameters, read)
    description = ""
    if "metadata" in doc:
        meta = doc["metadata"]
        if not isinstance(meta, dict):
            raise SchemaError("metadata: expected an object")
        description = str(meta.get("description", ""))
    for path, text in (("name", name), ("metadata.description", description)):
        try:  # a JSON string may hold a lone surrogate, which no output can print
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise SchemaError(f"{path}: holds a lone surrogate, not UTF-8 text") from None
    return AlgebraSpec.create(
        dimension=dim,
        structure=structure,
        op_i=op_i,
        op_j=op_j,
        op_k=op_k,
        parameters=parameters,
        name=name,
        description=description,
    )


def _read_structure(raw: object, dim: int,
                    parameters: Sequence[str]) -> Dict[int, list]:
    if not isinstance(raw, list):
        raise SchemaError("structure: expected a list")
    out: Dict[int, list] = {}
    for idx, entry in enumerate(raw):
        path = f"structure[{idx}]"
        if not isinstance(entry, dict) or set(entry) != {"k", "terms"}:
            raise SchemaError(f"{path}: expected an object with fields k, terms")
        k = entry["k"]
        if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= dim:
            raise SchemaError(f"{path}.k: expected an integer in 1..{dim}")
        if k in out:
            raise SchemaError(f"{path}.k: duplicate differential for generator {k}")
        terms = entry["terms"]
        if not isinstance(terms, list):
            raise SchemaError(f"{path}.terms: expected a list")
        seen = set()
        packed = []
        for tdx, term in enumerate(terms):
            tpath = f"{path}.terms[{tdx}]"
            if not isinstance(term, dict) or set(term) != {"i", "j", "coeff"}:
                raise SchemaError(f"{tpath}: expected an object with fields i, j, coeff")
            i, j = term["i"], term["j"]
            for label, value in (("i", i), ("j", j)):
                if not isinstance(value, int) or isinstance(value, bool):
                    raise SchemaError(f"{tpath}.{label}: expected an integer")
            if not 1 <= i < j <= dim:
                raise SchemaError(
                    f"{tpath}: indices must satisfy 1 <= i < j <= {dim}, got ({i}, {j})"
                )
            if (i, j) in seen:
                raise SchemaError(f"{tpath}: duplicate index pair ({i}, {j})")
            seen.add((i, j))
            packed.append((i, j, _read_coefficient(term["coeff"], tpath + ".coeff", parameters)))
        out[k] = packed
    return out


def _read_matrix(raw: object, label: str, dim: int, parameters: Sequence[str],
                 read: Dict[Tuple[type, object], ParamExpr]) -> List[List[ParamExpr]]:
    """The table's entries, each distinct one parsed once.

    `read` holds the entries parsed so far in this document, keyed on type
    and value, so that 1 and true stay apart.  Only what parsed is kept, so
    a bad entry raises at its first occurrence, with its own path.
    """
    if not isinstance(raw, list) or len(raw) != dim:
        raise SchemaError(f"{label}: expected a {dim}x{dim} matrix")
    rows = []
    for r, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != dim:
            raise SchemaError(f"{label}[{r}]: expected {dim} entries")
        parsed = []
        for c, entry in enumerate(row):
            key = (type(entry), entry) if type(entry) in (int, str) else None
            expr = read.get(key) if key else None
            if expr is None:
                expr = _read_coefficient(entry, f"{label}[{r}][{c}]", parameters)
                if key:
                    read[key] = expr
            parsed.append(expr)
        rows.append(parsed)
    return rows


def _read_coefficient(raw: object, path: str,
                      parameters: Sequence[str]) -> ParamExpr:
    if isinstance(raw, bool) or isinstance(raw, float):
        raise SchemaError(
            f"{path}: floating point and boolean coefficients are not allowed; "
            "use integers or rational strings"
        )
    if isinstance(raw, int):
        if exceeds_digits(raw):
            raise SchemaError(f"{path}: integer has more than {MAX_DIGITS} digits")
        return ParamExpr.constant(raw, parameters)
    if isinstance(raw, str):
        try:
            return parse_coefficient(raw, parameters)
        except (CoefficientParseError, DivisionByZero) as exc:
            raise SchemaError(f"{path}: {exc}") from None
    raise SchemaError(f"{path}: expected an integer or a coefficient string")


# -- serialization ----------------------------------------------------------


def document_from_spec(spec: AlgebraSpec) -> dict:
    doc: dict = {
        "name": spec.name,
        "dimension": spec.dimension,
        "parameters": list(spec.parameters),
        "structure": [
            {
                "k": k,
                "terms": [
                    {"i": i, "j": j, "coeff": str(coeff)}
                    for i, j, coeff in terms
                ],
            }
            for k, terms in spec.structure
        ],
        "I": [[str(x) for x in row] for row in spec.op_i],
        "J": [[str(x) for x in row] for row in spec.op_j],
    }
    if spec.op_k is not None:
        doc["K"] = [[str(x) for x in row] for row in spec.op_k]
    if spec.description:
        doc["metadata"] = {"description": spec.description}
    return doc


def serialize_spec(spec: AlgebraSpec) -> str:
    return json.dumps(document_from_spec(spec), indent=2, sort_keys=True) + "\n"


# -- the bundled corpus -----------------------------------------------------

_CORPUS = resources.files(__package__) / "corpus"


def corpus_names() -> List[str]:
    return sorted(
        entry.name[: -len(".json")]
        for entry in _CORPUS.iterdir()
        if entry.name.endswith(".json")
    )


def load_corpus(name: str) -> AlgebraSpec:
    entry = _CORPUS / f"{name}.json"
    if not entry.is_file():
        raise SchemaError(
            f"no bundled description named '{name}'; available: "
            + ", ".join(corpus_names())
        )
    return parse_spec(entry.read_text(encoding="utf-8"))


def load_spec_file(path: str) -> AlgebraSpec:
    """Read a description from disk, falling back to the bundled corpus.

    A bare name like 'example1.json' or 'example1' resolves to the bundled
    file of that name when no such file exists in the working directory.
    """
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as exc:
                raise SchemaError(
                    f"not valid UTF-8: {exc.reason} at byte {exc.start}"
                ) from None
        return parse_spec(text)
    base = os.path.basename(path)
    if base == path:
        name = base[: -len(".json")] if base.endswith(".json") else base
        if (_CORPUS / f"{name}.json").is_file():
            return load_corpus(name)
    raise FileNotFoundError(f"no such file: {path}")


# -- parameter bindings -----------------------------------------------------


def parse_binding_args(pairs: Sequence[str], spec: AlgebraSpec) -> Dict[str, Fraction]:
    """Turn --param name=value strings into exact bindings for a spec."""
    bindings: Dict[str, Fraction] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SchemaError(f"--param '{pair}': expected name=value")
        name, _, value = pair.partition("=")
        name = name.strip()
        if name not in spec.parameters:
            declared = ", ".join(spec.parameters) if spec.parameters else "none"
            raise SchemaError(
                f"--param '{name}': not a declared parameter (declared: {declared})"
            )
        if name in bindings:
            raise SchemaError(f"--param '{name}': bound twice")
        try:
            parsed = parse_rational(value.strip())
        except (CoefficientParseError, DivisionByZero) as exc:
            raise SchemaError(f"--param '{pair}': {exc}") from None
        if not parsed.is_real():
            raise SchemaError(f"--param '{pair}': parameter values must be real")
        bindings[name] = parsed.re
    for name in spec.parameters:
        if name not in bindings:
            raise SchemaError(f"parameter {name} requires --param")
    return bindings
