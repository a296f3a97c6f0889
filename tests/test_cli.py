import hashlib
import importlib.util
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from math import isqrt
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from quatcohom import cli, load_corpus, serialize_spec
from quatcohom.cli import main
from quatcohom.errors import DivisionByZero, EngineError, TheoremViolation
from quatcohom.fileio import load_spec_file
from quatcohom.metrics import MAX_SEARCH_SIZE
from quatcohom.scalars import MAX_TERMS

from support import (coframe_variant, direct_sum_spec, i_nonintegrable_spec,
                     jacobi_broken_spec, nonintegrable_spec, random_gl,
                     relation_broken_spec, solvable_spec)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_table_matches_published_rows(capsys):
    code, out, _ = run(capsys, "report", "example1", "--format", "table")
    assert code == 0
    assert "(1,0) |     3 |       3 |    2 |    4" in out
    assert "(2,0) |     4 |       4 |    5 |    5" in out
    assert "(3,0) |     3 |       3 |    4 |    2" in out
    assert "(1,0) | 0 | 0 | 1 | 0 | 1 | 0" in out
    assert "(2,0) | 1 | 1 | 1 | 1 | 1 | 1" in out
    assert "(3,0) | 0 | 1 | 0 | 1 | 0 | 0" in out
    assert "degenerates at first page: yes" in out
    assert "HKT: no" in out


def test_report_json_deterministic_and_consistent(capsys):
    code, out1, _ = run(capsys, "report", "example1", "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "report", "example1", "--format", "json")
    assert out1 == out2
    doc = json.loads(out1)
    _, table_out, _ = run(capsys, "report", "example1", "--format", "table")
    # every number of the structured document appears in the text mode
    for row in doc["cohomology"]["rows"]:
        cells = [f"({row['p']},0)"] + [
            str(row[k]) for k in ("h_del", "h_del_j", "h_bc", "h_ae",
                                  "a", "b", "c", "d", "e", "f",
                                  "dim_e1", "dim_e2", "delta")]
        assert any(
            all(c in line for c in cells)
            for line in table_out.splitlines()
        )


def test_unbound_parameter_exit_and_message(capsys):
    code, _, err = run(capsys, "report", "example2")
    assert code == 2
    assert "parameter t requires --param" in err


def test_hkt_yes_with_certificate(capsys):
    code, out, _ = run(capsys, "hkt", "example2", "--param", "t=1/2")
    assert code == 0
    assert out.splitlines()[0] == "HKT: yes"
    assert "Omega =" in out


def test_hkt_no(capsys):
    code, out, _ = run(capsys, "hkt", "example1")
    assert code == 0
    assert out.splitlines()[0] == "HKT: no"


def test_hkt_search_bounds_accepted(capsys):
    code, out, _ = run(capsys, "hkt", "example2", "--param", "t=1/2",
                       "--search-denominator-bound", "2",
                       "--search-coeff-bound", "1")
    assert code == 0
    assert out.splitlines()[0] == "HKT: yes"


def test_hkt_search_bounds_up_to_the_limit_accepted(capsys):
    den = 100
    code, out, err = run(capsys, "hkt", "example2", "--param", "t=1/3",
                         "--search-denominator-bound", str(den),
                         "--search-coeff-bound", str(MAX_SEARCH_SIZE // den ** 2))
    assert (code, err) == (0, "")
    assert out.splitlines()[0] in ("HKT: yes", "HKT: no")


@pytest.mark.parametrize("den, coeff", [
    (100, MAX_SEARCH_SIZE // 100 ** 2 + 1),
    (isqrt(MAX_SEARCH_SIZE) + 1, 1),
    (10 ** 9, 2),
])
def test_hkt_search_bounds_beyond_the_limit_exit_two(capsys, den, coeff):
    code, out, err = run(capsys, "hkt", "example1",
                         "--search-denominator-bound", str(den),
                         "--search-coeff-bound", str(coeff))
    assert (code, out) == (2, "")
    assert err == ("error: search bounds too large: coefficient bound times "
                   f"denominator bound squared is {coeff * den ** 2}, "
                   f"at most {MAX_SEARCH_SIZE}\n")


@pytest.mark.parametrize("den, coeff", [("-1", "2"), ("4", "-1")])
def test_hkt_negative_search_bounds_exit_two(capsys, den, coeff):
    code, out, err = run(capsys, "hkt", "example1",
                         "--search-denominator-bound", den,
                         "--search-coeff-bound", coeff)
    assert (code, out) == (2, "")
    assert err == ("error: search bounds must be nonnegative, got denominator "
                   f"bound {den} and coefficient bound {coeff}\n")


def test_validate_good_and_broken(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", "example1")
    assert code == 0
    assert "jacobi: ok" in out

    path = tmp_path / "broken.json"
    path.write_text(serialize_spec(jacobi_broken_spec()))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "jacobi: FAIL" in out


def test_reused_parser_prints_what_a_fresh_one_prints(capsys):
    # the parser is built once per process; no option of one call, an
    # appended --param least of all, may reach the next
    calls = [
        ("report", "example2", "--param", "t=1/3", "--format", "json"),
        ("report", "example2", "--param", "t=2"),
        ("validate", "example2"),
        ("validate", "example2", "--param", "t=3/4", "--param", "t=3/4"),
        ("pairing", "example1", "--p", "1"),
        ("pairing", "example1", "--p", "2"),
        ("pairing", "example1"),
        ("hkt", "example2", "--param", "t=1/2"),
        ("report", "example1", "--format", "table"),
        ("report", "example1"),
    ]

    def outcome(argv):
        try:
            return run(capsys, *argv)
        except SystemExit as exc:  # a usage error, such as a missing --p
            captured = capsys.readouterr()
            return exc.code, captured.out, captured.err

    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert [code for code, _, _ in fresh] == [0, 0, 2, 2, 0, 0, 2, 0, 0, 0]
    cli._build_parser.cache_clear()
    assert [outcome(argv) for argv in calls] == fresh
    assert cli._build_parser() is cli._build_parser()
    assert cli._build_parser().parse_args(["validate", "example2"]).param == []


def test_report_on_invalid_structure_exits_one(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(serialize_spec(jacobi_broken_spec()))
    code, _, err = run(capsys, "report", str(path))
    assert code == 1
    assert "invalid" in err


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "example3")
    assert code == 0
    assert "pure: no (intersection dim 2)" in out
    assert "full: no (complement dim 2)" in out


def test_pairing(capsys):
    code, out, _ = run(capsys, "pairing", "example1", "--p", "1")
    assert code == 0
    assert "invertible" in out


@pytest.mark.parametrize("degree", ["9", "-1", "5"])
def test_pairing_degree_out_of_range_exits_two(capsys, degree):
    code, out, err = run(capsys, "pairing", "example1", "--p", degree)
    assert code == 2
    assert out == ""
    assert err == f"error: --p {degree}: expected a degree in 0..4\n"


@pytest.mark.parametrize("degree", ["9", "-1", "5"])
def test_pairing_degree_is_checked_before_the_structure(capsys, tmp_path, degree):
    # J is not integrable, so building the session would exit 1: the
    # degree is refused first, with the message a valid structure gets
    path = tmp_path / "invalid.json"
    path.write_text(serialize_spec(direct_sum_spec(nonintegrable_spec(), nonintegrable_spec())))
    code, out, err = run(capsys, "pairing", str(path), "--p", degree)
    assert code == 2
    assert out == ""
    assert err == f"error: --p {degree}: expected a degree in 0..4\n"


def test_pairing_degree_range_ends_accepted(capsys):
    for degree in ("0", "4"):
        code, out, _ = run(capsys, "pairing", "example1", "--p", degree)
        assert code == 0
        assert out.startswith(f"pairing of H_BC({degree}) with H_AE({4 - int(degree)}): ")


def test_division_by_zero_in_binding_exits_two(capsys):
    code, out, err = run(capsys, "validate", "example2", "--param", "t=1/0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --param 't=1/0': ")
    assert len(err.splitlines()) == 1


def test_division_by_zero_in_coefficient_exits_two(capsys, tmp_path):
    doc = json.loads(serialize_spec(load_corpus("example1")))
    doc["structure"][0]["terms"][0]["coeff"] = "1/0"
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: structure[0].terms[0].coeff: ")
    assert len(err.splitlines()) == 1


def test_engine_division_by_zero_stays_exit_three(capsys, monkeypatch):
    import quatcohom.cli as cli

    def boom(args):
        raise DivisionByZero("inverse of zero in Q(i)")

    monkeypatch.setitem(cli._COMMANDS, "report", boom)
    code, _, err = run(capsys, "report", "example1")
    assert code == 3
    assert "DivisionByZero" in err


def test_suite_command(capsys):
    code, out, _ = run(capsys, "suite", "torus8")
    assert code == 0
    assert "0 failures" in out
    assert "PASS" in out


@pytest.mark.parametrize("seed", range(6))
def test_star_checks_pass_in_another_real_coframe(capsys, tmp_path, seed):
    # example1 in a random real coframe: its del is not real in the psi
    # basis, and the star is complex-linear, so the Stokes identity the
    # star checks state holds with the transpose of del
    spec = coframe_variant(load_corpus("example1"), random_gl(Random(seed), 8))
    path = tmp_path / "variant.json"
    path.write_text(serialize_spec(spec))
    code, out, _ = run(capsys, "suite", str(path))
    lines = out.splitlines()
    assert ("PASS star-adjoint: the adjoint of del is -star del star in every degree"
            in lines)
    assert "PASS star-laplacian: star commutes with the del-Laplacian in every degree" in lines
    assert code == 0


def test_nonintegrable_structure_is_refused_before_the_operators(capsys, tmp_path):
    # every command validates first, so the constructor's own integrability
    # check is never what the command line reports
    path = tmp_path / "nonintegrable.json"
    path.write_text(serialize_spec(i_nonintegrable_spec()))
    code, out, err = run(capsys, "report", str(path))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "structure I" in err


_I4 = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
_J4 = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]


def _torus_file(tmp_path, dimension):
    """An abelian structure of the given real dimension, I and J block
    diagonal with one standard 4x4 block per quaternionic dimension."""
    def blocks(block):
        return [[block[r % 4][c % 4] if r // 4 == c // 4 else 0
                 for c in range(dimension)] for r in range(dimension)]

    path = tmp_path / f"torus{dimension}.json"
    path.write_text(json.dumps({
        "name": f"torus{dimension}", "dimension": dimension, "parameters": [],
        "structure": [], "I": blocks(_I4), "J": blocks(_J4)}))
    return path


@pytest.mark.parametrize("command", [("report",), ("pairing", "--p", "0"), ("suite",)])
def test_structure_past_the_dimension_budget_exits_two(capsys, monkeypatch, tmp_path,
                                                       command):
    import quatcohom.quaternionic as quaternionic

    def unreachable(*args, **kwargs):
        raise AssertionError("a structure past the budget reached instantiation")

    # the refusal comes before anything is built for the structure
    monkeypatch.setattr(quaternionic, "instantiate", unreachable)
    path = _torus_file(tmp_path, 36)
    start = time.perf_counter()
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == ("error: real dimension 36 is too large: its middle (9,0) "
                   "basis has 48620 forms, more than the limit of 12870 "
                   "(real dimension 32)\n")


def test_validate_runs_past_the_dimension_budget(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", str(_torus_file(tmp_path, 36)))
    assert code == 0
    assert "quaternionic relations: ok" in out


def test_structure_at_the_dimension_budget_is_not_refused(monkeypatch, tmp_path):
    import quatcohom.quaternionic as quaternionic

    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    # real dimension 32 passes the budget and goes on to instantiation
    monkeypatch.setattr(quaternionic, "instantiate", reached)
    with pytest.raises(Reached):
        quaternionic.QuaternionicComplex.build(load_spec_file(str(_torus_file(tmp_path, 32))))


def test_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "report", "does-not-exist.json")
    assert code == 2
    assert "no such file" in err


def test_theorem_violation_maps_to_exit_three(capsys, monkeypatch):
    import quatcohom.cli as cli

    def boom(args):
        raise TheoremViolation("cross-check failed")

    monkeypatch.setitem(cli._COMMANDS, "report", boom)
    code, _, err = run(capsys, "report", "example1")
    assert code == 3
    assert "cross-check failed" in err


# the exit code of every engine error, by class name: 2 for an input the
# engine cannot read or refuses, 1 for an invalid structure, and 3, kept
# for engine bugs, for everything else
EXIT_CODES = {
    "EngineError": 3,
    "InputError": 2,
    "CoefficientParseError": 2,
    "UnboundParameter": 2,
    "PoleAtBinding": 2,
    "SchemaError": 2,
    "SearchBoundError": 2,
    "DimensionBudgetError": 2,
    "InvalidStructure": 1,
    "ValidationFailure": 1,
    "EigenspaceDimensionError": 1,
    "NotSL2": 1,
    "NotHolomorphic": 1,
    "NotReal": 1,
    "NotBidegree20": 1,
    "DivisionByZero": 3,
    "DimensionMismatch": 3,
    "IntegrabilityViolation": 3,
    "NotASubspace": 3,
    "InternalInconsistency": 3,
    "TheoremViolation": 3,
    "RepresentativeDependence": 3,
    "DecompositionFailure": 3,
    "NotGauduchon": 3,
    "NotAeppliClosed": 3,
}


def _engine_error_classes():
    found, todo = [], [EngineError]
    while todo:
        cls = todo.pop()
        if cls.__module__.startswith("quatcohom") and cls not in found:
            found.append(cls)
            todo.extend(cls.__subclasses__())
    return found


def test_every_engine_error_maps_to_its_exit_code(capsys, monkeypatch):
    # a new error class must be pinned here, so that it cannot fall through
    # to exit 3 unnoticed
    classes = _engine_error_classes()
    assert sorted(cls.__name__ for cls in classes) == sorted(EXIT_CODES)
    for cls in classes:
        def boom(args, cls=cls):
            raise cls(f"{cls.__name__} raised")

        monkeypatch.setitem(cli._COMMANDS, "report", boom)
        code, out, err = run(capsys, "report", "example1")
        assert code == EXIT_CODES[cls.__name__], cls.__name__
        assert not out and err.count("\n") == 1
        assert f"{cls.__name__} raised" in err


def test_file_that_is_not_utf8_exits_two(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + serialize_spec(load_corpus("example1")).encode("utf-16-le"))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: not valid UTF-8: invalid start byte at byte 0\n"


@pytest.mark.parametrize("coeff", ["(" * 5000 + "1" + ")" * 5000, "-" * 5000 + "1"])
def test_deeply_nested_coefficient_exits_two(capsys, tmp_path, coeff):
    doc = json.loads(serialize_spec(load_corpus("example1")))
    doc["structure"][0]["terms"][0]["coeff"] = coeff
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err == ("error: structure[0].terms[0].coeff: "
                   "nesting deeper than 50 levels at position 50\n")


def test_nesting_up_to_the_limit_accepted(capsys, tmp_path):
    doc = json.loads(serialize_spec(load_corpus("example1")))
    doc["structure"][0]["terms"][0]["coeff"] = "(" * 50 + "1" + ")" * 50
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(doc))
    code, _, _ = run(capsys, "validate", str(path))
    assert code == 0


def _example2_with_entry(tmp_path, coeff):
    doc = json.loads(serialize_spec(load_corpus("example2")))
    doc["I"][0][1] = coeff
    path = tmp_path / "powers.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("power", ["65", "-65"])
def test_exponent_beyond_the_limit_exits_two(capsys, tmp_path, power):
    # t/(1-t) written through a power of 1+t
    path = _example2_with_entry(tmp_path, f"t*(1+t)^{power}/((1-t)*(1+t)^{power})")
    code, out, err = run(capsys, "validate", path, "--param", "t=1/3")
    assert code == 2
    assert out == ""
    assert err == (f"error: I[0][1]: exponent {power} at position 8 "
                   "exceeds 64 in absolute value\n")


@pytest.mark.parametrize("power", ["64", "-64"])
def test_exponent_up_to_the_limit_accepted(capsys, tmp_path, power):
    path = _example2_with_entry(tmp_path, f"t*(1+t)^{power}/((1-t)*(1+t)^{power})")
    code, _, err = run(capsys, "validate", path, "--param", "t=1/3")
    assert (code, err) == (0, "")


# t/(1-t) through factors of 1+t whose degrees reach MAX_DEGREE = 128 exactly
DEGREE_128 = "t*(1+t)*((1+t)^2)^63/((1-t)*(1+t)*((1+t)^2)^63)"


def test_degree_up_to_the_limit_accepted(capsys, tmp_path):
    path = _example2_with_entry(tmp_path, DEGREE_128)
    code, _, err = run(capsys, "validate", path, "--param", "t=1/3")
    assert (code, err) == (0, "")


@pytest.mark.parametrize("coeff, message", [
    (DEGREE_128.replace("t*(1+t)*", "t*(1+t)^2*"),
     "degree 129 at position 9 exceeds 128"),
    ("t*((1+t)^64)^64/((1-t)*((1+t)^64)^64)",
     "degree 4096 at position 12 exceeds 128"),
])
def test_degree_beyond_the_limit_exits_two(capsys, tmp_path, coeff, message):
    path = _example2_with_entry(tmp_path, coeff)
    code, out, err = run(capsys, "validate", path, "--param", "t=1/3")
    assert code == 2
    assert out == ""
    assert err == f"error: I[0][1]: {message}\n"


@pytest.mark.parametrize("coeff, position", [("1" * 5000, 0), ("2^" + "1" * 5000, 2)])
def test_integer_literal_beyond_the_digit_limit_exits_two(capsys, tmp_path, coeff, position):
    # past Python's own 4300-digit limit on int(), which would raise
    doc = json.loads(serialize_spec(load_corpus("example1")))
    doc["structure"][0]["terms"][0]["coeff"] = coeff
    path = tmp_path / "digits.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err == ("error: structure[0].terms[0].coeff: integer literal at "
                   f"position {position} has 5000 digits, more than 1000\n")


def _set_dimension(doc, value):
    doc["dimension"] = value


def _set_i_entry(doc, value):
    doc["I"][0][1] = value


@pytest.mark.parametrize("place", [_set_dimension, _set_i_entry])
def test_json_integer_beyond_pythons_digit_limit_exits_two(capsys, tmp_path, place):
    # json.loads itself refuses an integer past Python's 4300-digit limit
    doc = json.loads(serialize_spec(load_corpus("example1")))
    place(doc, None)
    path = tmp_path / "long.json"
    # written without str(int), which the limit refuses too
    path.write_text(json.dumps(doc).replace("null", "1" + "0" * 5000))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("field", ["name", "description"])
@pytest.mark.parametrize("command", [("report",), ("report", "--format", "json"), ("validate",)])
def test_lone_surrogate_in_a_free_text_field_exits_two(capsys, tmp_path, field, command):
    doc = json.loads(serialize_spec(load_corpus("example1")))
    if field == "name":
        doc["name"] = "x\ud800"
    else:
        doc["metadata"] = {"description": "x\ud800"}
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_integer_literal_up_to_the_digit_limit_accepted(capsys, tmp_path):
    # 10^999 / 10^999, written out in full
    one = "1" + "0" * 999
    path = _example2_with_entry(tmp_path, f"t*{one}/((1-t)*{one})")
    code, _, err = run(capsys, "validate", path, "--param", "t=1/3")
    assert (code, err) == (0, "")


def _example1_over_eight_parameters(tmp_path, expr):
    # example1 with the parameters a..h declared and its first structure
    # constant written as expr - expr + c, which cancels back to c
    doc = json.loads(serialize_spec(load_corpus("example1")))
    doc["parameters"] = list("abcdefgh")
    term = doc["structure"][0]["terms"][0]
    term["coeff"] = f"({expr})-({expr})+{term['coeff']}"
    path = tmp_path / "terms.json"
    path.write_text(json.dumps(doc))
    bindings = [arg for name in "abcdefgh" for arg in ("--param", f"{name}=1/2")]
    return ["validate", str(path)] + bindings


@pytest.mark.parametrize("expr, counts", [
    ("(a+b+c+d+e+f+g+h)^16", (330, 330)),
    ("((1+a+b)^13)^2", (105, 105)),
])
def test_products_beyond_the_term_budget_exit_two_at_once(capsys, tmp_path, expr, counts):
    # (a+...+h)^16 has 245157 terms; its last squaring is refused before
    # it is expanded, where expanding it once took more than a minute
    argv = _example1_over_eight_parameters(tmp_path, expr)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    s, t = counts
    assert (code, out) == (2, "")
    assert err == (f"error: structure[0].terms[0].coeff: a product of {s} and "
                   f"{t} terms may expand to {s * t} terms, more than {MAX_TERMS}\n")


def test_products_up_to_the_term_budget_accepted(capsys, tmp_path):
    # (1+a+b)^12 has 91 terms, and 91 * 91 = 8281 is just under the budget
    argv = _example1_over_eight_parameters(tmp_path, "((1+a+b)^12)^2")
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")


def _example1_with_first_coefficient(tmp_path, coeff):
    doc = json.loads(serialize_spec(load_corpus("example1")))
    doc["structure"][0]["terms"][0]["coeff"] = coeff
    path = tmp_path / "height.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("coeff, position", [
    # (10^1000 - 1)^64 has 64000 digits, past Python's limit on printing ints
    ("9" * 1000 + "^64", 1000),
    # the least integer with 1001 digits, as a power and as a product
    ("(10^50)^20", 7),
    ("1/((10^50)^10*(10^50)^10)", 13),
])
def test_constant_beyond_the_digit_limit_exits_two(capsys, tmp_path, coeff, position):
    path = _example1_with_first_coefficient(tmp_path, coeff)
    code, out, err = run(capsys, "validate", path)
    assert code == 2
    assert out == ""
    assert err == ("error: structure[0].terms[0].coeff: value at position "
                   f"{position} has more than 1000 digits\n")


def test_json_integer_beyond_the_digit_limit_exits_two(capsys, tmp_path):
    doc = json.loads(serialize_spec(load_corpus("example1")))
    doc["structure"][0]["terms"][0]["coeff"] = 10 ** 1000
    path = tmp_path / "integer.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: structure[0].terms[0].coeff: integer has more than 1000 digits\n"


@pytest.mark.parametrize("coeff", ["t*(10^37)^27/((1-t)*(10^37)^27)",
                                   "t*(10^37)^27*9/((1-t)*(10^37)^27*9)"])
def test_constant_up_to_the_digit_limit_accepted(capsys, tmp_path, coeff):
    # 10^999 and 9 * 10^999 have 1000 digits, the most a value may have
    path = _example2_with_entry(tmp_path, coeff)
    code, _, err = run(capsys, "validate", path, "--param", "t=1/3")
    assert (code, err) == (0, "")


def test_evaluated_value_beyond_the_digit_limit_exits_two(capsys, tmp_path):
    # t/(1-t) at t = 10^600 is a 601-digit value over a 601-digit one, but
    # t^2/(1-t)^2 there has 1201 digits on each side
    ok = _example2_with_entry(tmp_path, "t/(1-t)")
    code, _, err = run(capsys, "validate", ok, "--param", f"t={10 ** 600}")
    assert err == "" and code in (0, 1)
    path = _example2_with_entry(tmp_path, "t^2/(1-t)^2")
    code, out, err = run(capsys, "validate", path, "--param", f"t={10 ** 600}")
    assert code == 2
    assert out == ""
    # evaluation names entries from one, as in "I[1][2] must be real"
    assert err == f"error: I[1][2]: value at t={10 ** 600} has more than 1000 digits\n"


def test_line_break_in_echoed_input_stays_one_line(capsys, tmp_path):
    doc = json.loads(serialize_spec(load_corpus("example1")))
    doc["a\nb\u2028c"] = 0
    path = tmp_path / "field.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == "error: top level: unknown field(s) a\\nb\\u2028c\n"


def test_deeply_nested_json_exits_two(capsys, tmp_path):
    path = tmp_path / "arrays.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: not valid JSON: nested too deeply\n"


# stdout digests of every subcommand on every bundled structure, recorded
# at a commit whose outputs are known to be right; read only
CORPUS_DIGESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "corpus_digests.json")
    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("label", sorted(CORPUS_DIGESTS))
def test_corpus_output_byte_identical(capsys, label):
    code, out, err = run(capsys, *label.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CORPUS_DIGESTS[label]


# the flat torus of real dimension 4, quaternionic dimension 1: the
# smallest structure, where Omega^{n-1} is the unit form
TORUS4 = {
    "name": "torus4", "dimension": 4, "parameters": [], "structure": [],
    "I": [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
    "J": [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]],
}
TORUS4_REPORT_DIGEST = "a4070c17ce90269b3a24bea8330f3d8a76d028aa05e86207616cae03f12f8afe"


def test_quaternionic_dimension_one_digest_and_every_subcommand(capsys, tmp_path):
    path = tmp_path / "torus4.json"
    path.write_text(json.dumps(TORUS4))
    spec = str(path)
    for argv in (("validate",), ("report", "--format", "table"), ("decompose",),
                 ("pairing", "--p", "0"), ("pairing", "--p", "1"),
                 ("pairing", "--p", "2")):
        code, out, err = run(capsys, argv[0], spec, *argv[1:])
        assert (code, err) == (0, ""), argv
        assert out
    code, out, err = run(capsys, "suite", spec)
    assert (code, err) == (0, "")
    assert out.endswith("38 checks, 0 failures\n")
    code, out, err = run(capsys, "report", spec, "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TORUS4_REPORT_DIGEST
    code, out, err = run(capsys, "hkt", spec)
    assert (code, out) == (1, "")
    assert err == "error: existence is only decided in quaternionic dimension 2, got 1\n"
    code, out, err = run(capsys, "pairing", spec, "--p", "3")
    assert (code, out) == (2, "")
    assert err == "error: --p 3: expected a degree in 0..2\n"


# validate's stdout and report's one-line error on structures that fail
# each structural check, as SHA-256 digests recorded before the checks
# were moved onto the bracket kernel: (validate stdout, report stderr)
INVALID_DIGESTS = {
    "jacobi-broken": ("99397c4f341cf5e3d307e10a0cf9dbf7fc624a623a8e9f1a2157016205b38a92",
                     "13e6a92af24ba86996b07f68577a287656b37515c0a98a7a8c298780d0af470b"),
    "relation-broken": ("1ab89da654612cdde1ebc1fa1dfd1dd70e7b563b7ef851f489b7bfdaa15ae726",
                       "98ec9445f45a7d0deee76c8cbb0c192c4b762bb21ca0d4ae999a25938f047b6e"),
    "nonintegrable": ("55f01c213a4daf428cadfe6197cb7cd77c28d2f640837c5c20b4e8f98f9cdc0d",
                     "5c74a71371a1728b1e2cc4a5081028b426b393ed7b190a32d65334447c87e4ce"),
    "i-nonintegrable": ("5d72df6ddba1a001d714c69e6e0b1acefb4d0b89e14b41a990aa707ae66d4043",
                       "78048e7e5b657c30072508156dd0807161b822d02a19c2461828614d50b7ab67"),
    "solvable": ("24ab377d81477ef83c61303e25f12716756d2d3be7ec34284a84f8a74a239d1c",
                "280febe3830d2e9adc748e84bf3a01d9f1f50919c6a798a88cdb672d5125927c"),
}


@pytest.mark.parametrize("make", [jacobi_broken_spec, relation_broken_spec,
                                  nonintegrable_spec, i_nonintegrable_spec,
                                  solvable_spec])
def test_invalid_structure_messages_digest(capsys, tmp_path, make):
    spec = make()
    path = tmp_path / "invalid.json"
    path.write_text(serialize_spec(spec))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, err) == (1, "")
    validate_digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    code, out, err = run(capsys, "report", str(path))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith(f"error: structure {spec.name} is invalid: ")
    report_digest = hashlib.sha256(err.encode("utf-8")).hexdigest()
    assert (validate_digest, report_digest) == INVALID_DIGESTS[spec.name]


# -- fuzzing: any file ends in exit 0, 1 or 2 with at most one line of error --


def _run_quietly(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def _assert_clean_exit(code, err):
    assert code in (0, 1, 2)
    assert len(err.splitlines()) <= 1
    assert "Traceback" not in err


json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)
EXAMPLE1 = json.loads(serialize_spec(load_corpus("example1")))


@settings(max_examples=150, deadline=None)
@given(json_values)
def test_fuzz_arbitrary_json_document(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    _assert_clean_exit(*_run_quietly("validate", str(path)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(EXAMPLE1) + ["extra"]), json_values)
def test_fuzz_one_field_of_a_valid_document(tmp_path_factory, field, value):
    doc = json.loads(json.dumps(EXAMPLE1))
    doc[field] = value
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    _assert_clean_exit(*_run_quietly("validate", str(path)))


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=30)
       | st.text(alphabet="0123456789+-*/^()i. ", max_size=30))
def test_fuzz_coefficient_string(tmp_path_factory, coeff):
    doc = json.loads(json.dumps(EXAMPLE1))
    doc["structure"][0]["terms"][0]["coeff"] = coeff
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    _assert_clean_exit(*_run_quietly("report", str(path), "--format", "json"))


# -- command-line usage errors: one line, exit 2 -------------------------------


@pytest.mark.parametrize("argv, message", [
    (("hkt", "example1", "--search-denominator-bound", "x"),
     "argument --search-denominator-bound: invalid int value: 'x'"),
    (("pairing", "example1"), "the following arguments are required: --p"),
])
def test_usage_error_is_one_line_exit_two(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hkt", "--help"])
    captured = capsys.readouterr()
    assert exc.value.code == 0
    assert captured.out.startswith("usage: quatcohom hkt ")
    assert captured.err == ""


# search bounds are drawn from the values below, so c * D^2 <= 9 * 9^2
_ARGV_VALUES = ("0", "1", "2", "4", "9", "-1", "x", "", "t=1/2", "t=1/0",
                "json", "table", "example1")
assert 9 * 9 ** 2 <= MAX_SEARCH_SIZE
argv_tokens = st.sampled_from(
    ("--param", "--format", "--search-denominator-bound", "--search-coeff-bound",
     "--p", "--p=1", "--help", "--bogus", "-x", "--", "-"),
) | st.sampled_from(_ARGV_VALUES)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(("validate", "report", "hkt", "decompose", "pairing",
                        "suite", "bogus")),
       st.sampled_from(("example1", "torus8")),
       st.lists(argv_tokens, max_size=5))
def test_fuzz_command_line(command, spec, tokens):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([command, spec, *tokens])
        except SystemExit as exc:  # argparse's own exit: usage error or --help
            code = exc.code
    _assert_clean_exit(code, err.getvalue())


def test_every_traced_name_resolves():
    # the benchmark's traced run wraps these names and exits 1 on one that
    # is missing, so renaming or deleting any of them breaks it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, attr in tracer.TARGETS:
        module = importlib.import_module(f"quatcohom.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), (module_name, attr)
        else:
            assert callable(getattr(module, attr, None)), (module_name, attr)
