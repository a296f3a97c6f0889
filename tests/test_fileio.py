import json
from fractions import Fraction

import pytest

from quatcohom import (
    corpus_names,
    load_corpus,
    load_spec_file,
    parse_binding_args,
    parse_spec,
    serialize_spec,
)
from quatcohom.errors import PoleAtBinding, SchemaError
from quatcohom.fileio import document_from_spec, spec_from_document
from quatcohom.model import AlgebraSpec, instantiate, validate_hypercomplex
from quatcohom.report import build_report, to_json


def test_corpus_is_complete():
    assert set(corpus_names()) == {
        "example1", "example2", "example3", "torus8"}


def test_round_trip_documents():
    for name in corpus_names():
        spec = load_corpus(name)
        text = serialize_spec(spec)
        again = parse_spec(text)
        assert document_from_spec(again) == document_from_spec(spec)
        assert serialize_spec(again) == text


def _example1_doc():
    return json.loads(serialize_spec(load_corpus("example1")))


def test_missing_required_field_named():
    doc = _example1_doc()
    del doc["J"]
    with pytest.raises(SchemaError, match="J"):
        spec_from_document(doc)


def test_unknown_field_rejected():
    doc = _example1_doc()
    doc["extra"] = 1
    with pytest.raises(SchemaError, match="extra"):
        spec_from_document(doc)


def test_bad_structure_entries():
    doc = _example1_doc()
    doc["structure"][0]["terms"][0]["i"] = 9
    with pytest.raises(SchemaError, match="structure"):
        spec_from_document(doc)
    doc = _example1_doc()
    doc["structure"][0]["terms"].append(
        dict(doc["structure"][0]["terms"][0]))
    with pytest.raises(SchemaError):
        spec_from_document(doc)


def test_repeated_pairs_merge_so_a_serialized_spec_loads():
    # AlgebraSpec.create merges a repeated pair of one de^k into one term,
    # the sum, where it first occurs, and a cancelling pair into a zero
    # term; the loader still refuses the pair twice in a file, and the
    # file serialize_spec writes loads, validates and reports the same
    spec = load_corpus("example1")
    structure = {k: list(terms) for k, terms in spec.structure}
    i, j, c = structure[6][0]
    structure[6][1:1] = [(i, j, "3"), (5, 6, "2"), (i, j, "-3"), (5, 6, "-2")]
    merged = AlgebraSpec.create(spec.dimension, structure, spec.op_i, spec.op_j,
                                name=spec.name)
    assert [(i, j, str(c)) for i, j, c in merged.structure[0][1]] == [
        (1, 2, "1"), (5, 6, "0"), (3, 4, "1")]
    loaded = parse_spec(serialize_spec(merged))
    assert document_from_spec(loaded) == document_from_spec(merged)
    assert validate_hypercomplex(loaded) == validate_hypercomplex(merged)
    assert validate_hypercomplex(merged).ok
    report = to_json(build_report(merged))
    assert to_json(build_report(loaded)) == report
    assert json.loads(report)["cohomology"] == build_report(spec)["cohomology"]


def test_bad_coefficient_reports_path():
    doc = _example1_doc()
    doc["I"][0][1] = "1//2"
    with pytest.raises(SchemaError, match=r"I\["):
        spec_from_document(doc)
    doc = _example1_doc()
    doc["I"][0][1] = 0.5
    with pytest.raises(SchemaError):
        spec_from_document(doc)


def test_table_entries_read_once_still_fail_at_their_first_path():
    # a bad entry repeated across I and J is refused at its first place
    doc = _example1_doc()
    doc["I"][1][2] = doc["I"][5][6] = doc["J"][0][3] = "1+"
    with pytest.raises(SchemaError, match=r"^I\[1\]\[2\]: "):
        spec_from_document(doc)
    # the integer 1 is read, true is refused, in either order
    for one, true in (((1, 0), (3, 2)), ((3, 2), (1, 0))):
        doc = _example1_doc()
        doc["I"][one[0]][one[1]] = 1
        doc["I"][true[0]][true[1]] = True
        with pytest.raises(SchemaError, match=rf"^I\[{true[0]}\]\[{true[1]}\]: .*boolean"):
            spec_from_document(doc)
        doc["I"][true[0]][true[1]] = 1
        assert spec_from_document(doc) == load_corpus("example1")


def test_a_pole_in_a_repeated_zero_entry_is_still_evaluated():
    # 0/(t-1/2) is zero at every other t, and a pole at t = 1/2 however
    # often it is repeated
    doc = json.loads(serialize_spec(load_corpus("example2")))
    for r, c in ((0, 0), (2, 5), (7, 1)):
        doc["I"][r][c] = doc["J"][r][c] = "0/(t-1/2)"
    spec = spec_from_document(doc)
    third = {"t": Fraction(1, 3)}
    assert instantiate(spec, third) == instantiate(load_corpus("example2"), third)
    with pytest.raises(PoleAtBinding, match="denominator vanishes at t=1/2"):
        instantiate(spec, {"t": Fraction(1, 2)})


def test_invalid_json_reports_position():
    with pytest.raises(SchemaError, match="line"):
        parse_spec("{ not json }")


def test_reserved_parameter_name():
    doc = _example1_doc()
    doc["parameters"] = ["i"]
    with pytest.raises(SchemaError):
        spec_from_document(doc)


def test_load_spec_file(tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(serialize_spec(load_corpus("example1")))
    spec = load_spec_file(str(path))
    assert spec.dimension == 8
    # bare names fall back to the bundled corpus
    assert load_spec_file("torus8").name == "torus8"
    with pytest.raises(OSError):
        load_spec_file("no-such-structure.json")


def test_binding_args():
    spec = load_corpus("example2")
    assert parse_binding_args(["t=1/2"], spec) == {"t": Fraction(1, 2)}
    with pytest.raises(SchemaError, match="requires --param"):
        parse_binding_args([], spec)
    with pytest.raises(SchemaError, match="not a declared"):
        parse_binding_args(["s=1"], spec)
    with pytest.raises(SchemaError, match="twice"):
        parse_binding_args(["t=1", "t=2"], spec)
    with pytest.raises(SchemaError, match="real"):
        parse_binding_args(["t=i"], spec)
    with pytest.raises(SchemaError):
        parse_binding_args(["t"], spec)
