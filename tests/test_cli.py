import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quatcohom import load_corpus, serialize_spec
from quatcohom.cli import main
from quatcohom.errors import DivisionByZero, TheoremViolation
from quatcohom.metrics import MAX_SEARCH_SIZE

from support import jacobi_broken_spec


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


def test_integer_literal_up_to_the_digit_limit_accepted(capsys, tmp_path):
    # 10^999 / 10^999, written out in full
    one = "1" + "0" * 999
    path = _example2_with_entry(tmp_path, f"t*{one}/((1-t)*{one})")
    code, _, err = run(capsys, "validate", path, "--param", "t=1/3")
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
