import copy
import operator
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from quatcohom import GaussianRational, ParamExpr, parse_coefficient, parse_rational
from quatcohom.errors import (CoefficientParseError, DivisionByZero, PoleAtBinding,
                              UnboundParameter)
from quatcohom.scalars import MAX_DIGITS, _poly_eval

from support import ReferenceGaussianRational

fractions = st.fractions(
    min_value=-100, max_value=100, max_denominator=12)
scalars = st.builds(GaussianRational, fractions, fractions)


@given(scalars, scalars, scalars)
def test_ring_laws(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + GaussianRational() == x
    assert x * GaussianRational(1) == x


@given(scalars)
def test_conjugation_and_norm(x):
    norm = x * x.conjugate()
    assert norm.is_real()
    assert norm.re >= 0
    assert x.conjugate().conjugate() == x


@given(scalars)
def test_field_inverse(x):
    if x.is_zero():
        with pytest.raises(DivisionByZero):
            x.inverse()
    else:
        assert x * x.inverse() == GaussianRational(1)


@given(scalars)
def test_print_parse_round_trip(x):
    assert parse_rational(str(x)) == x


def test_parse_forms():
    assert parse_rational("3/4") == GaussianRational(Fraction(3, 4))
    assert parse_rational("-i") == GaussianRational(0, -1)
    assert parse_rational("2*i") == GaussianRational(0, 2)
    assert parse_rational("1/2 - 3*i") == GaussianRational(
        Fraction(1, 2), Fraction(-3))
    assert parse_rational("(1+i)*(1-i)") == GaussianRational(2)


def test_parse_rejects_garbage():
    for text in ("", "1//2", "t", "1 +", "2**3", "i i"):
        with pytest.raises(CoefficientParseError):
            parse_rational(text)


def test_digits_that_are_not_decimal_are_refused():
    # "²" passes str.isdigit but not int(); decimal digits of any script
    # still read as integers
    for text in ("²", "2²", "t^²"):
        with pytest.raises(CoefficientParseError, match="unexpected character"):
            parse_coefficient(text, ("t",))
    assert parse_rational("\u0663") == GaussianRational(3)


def _full_parse(text):
    """The value or the error of the full parser, past any fast path."""
    try:
        return parse_coefficient(text).constant_value()
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)


def _parse(text):
    try:
        return parse_rational(text)
    except Exception as exc:
        return type(exc), str(exc)


literal_digits = st.text("0123456789", min_size=1, max_size=30)
rational_literals = st.tuples(
    st.sampled_from(["", "-"]), literal_digits,
    st.one_of(st.none(), literal_digits.filter(lambda text: int(text) != 0)),
).map(lambda t: t[0] + t[1] + ("" if t[2] is None else "/" + t[2]))


@given(rational_literals, st.booleans())
def test_printed_forms_parse_as_the_full_parser_does(literal, imaginary):
    # plain rational literals, times i or not, against Fraction's reading
    # of the same literal, an oracle outside the parser
    value = Fraction(literal)
    if imaginary:
        assert parse_rational(literal + "*i") == GaussianRational(0, value)
    else:
        assert parse_rational(literal) == GaussianRational(value)


@pytest.mark.parametrize("text", [
    "1/0", "0/0*i", "1+1/0*i", "1" * 1001, "(10^50)^20",
    # 2 * (10^1000 - 1) over 6 has 1001 digits before it is reduced
    "1/2+" + "9" * 1000 + "/3*i",
], ids=["zero-den", "zero-den-imag", "zero-den-mixed", "long-literal", "tall-power",
        "tall-sum"])
def test_printed_forms_fall_back_to_the_full_parser_errors(text):
    assert _parse(text) == _full_parse(text)
    assert isinstance(_parse(text), tuple)


def test_param_expr_evaluation():
    expr = parse_coefficient("t/(1-t)", ["t"])
    assert expr.evaluate({"t": Fraction(1, 2)}) == GaussianRational(1)
    assert expr.evaluate({"t": Fraction(1, 3)}) == GaussianRational(
        Fraction(1, 2))
    with pytest.raises(PoleAtBinding):
        expr.evaluate({"t": Fraction(1)})


@pytest.mark.parametrize("text, params", [
    (text, params)
    for text in ("0", "3/4", "(2+i)/(1-i)", "t - t", "(2*t - t) - t + 5", "2^-3", "(1/3)/(1/6)")
    for params in ((), ("t",), ("s", "t"))
    if "t" not in text or "t" in params])
def test_parameter_free_value_matches_the_polynomial_evaluation(text, params):
    expr = parse_coefficient(text, params)
    assert not expr.used_parameters()
    values = [Fraction(0)] * len(params)
    expected = _poly_eval(expr.num, values) / _poly_eval(expr.den, values)
    assert expr.evaluate({}) == expected
    assert expr.evaluate({name: Fraction(7) for name in params}) == expected
    assert expr.constant_value() == expected


def test_parameter_free_value_keeps_every_check():
    tall = GaussianRational(10 ** MAX_DIGITS)
    for params, bindings in (((), {}), (("t",), {"t": Fraction(2)})):
        with pytest.raises(CoefficientParseError,
                           match=f"^value has more than {MAX_DIGITS} digits$"):
            ParamExpr.constant(tall, params).evaluate(bindings)
        pole = ParamExpr(params, ParamExpr.constant(1, params).num, ())
        with pytest.raises(PoleAtBinding, match="^denominator vanishes at the binding$"):
            pole.evaluate(bindings)
    with pytest.raises(TypeError):
        ParamExpr.constant(1, ("t",)).evaluate({"t": 0.5})
    expr = parse_coefficient("1/(t-2)", ["s", "t"])
    with pytest.raises(PoleAtBinding, match="^denominator vanishes at t=2$"):
        expr.evaluate({"s": Fraction(1), "t": Fraction(2)})
    with pytest.raises(UnboundParameter):
        expr.evaluate({"s": Fraction(1)})


def test_param_expr_round_trip():
    for text in ("t", "(t-1)/t", "1/t", "-t", "t*t - 2"):
        expr = parse_coefficient(text, ["t"])
        again = parse_coefficient(str(expr), ["t"])
        for value in (Fraction(2), Fraction(-1, 3), Fraction(5, 7)):
            assert expr.evaluate({"t": value}) == again.evaluate({"t": value})


def test_imaginary_unit_reserved_as_parameter():
    with pytest.raises(CoefficientParseError):
        parse_coefficient("i + t", ["i", "t"])


@given(fractions, fractions)
def test_real_fast_path_matches_general_product(a, b):
    x = GaussianRational(a)
    y = GaussianRational(b)
    assert x * y == GaussianRational(a * b)
    assert (x * GaussianRational(0, 1)) * (y * GaussianRational(0, 1)) == \
        GaussianRational(-a * b)


# ---------------------------------------------------------------------------
# The scalar against the reference pair-of-Fractions implementation.
# ---------------------------------------------------------------------------

# small values hit zero, units and equal denominators; large ones carry
# denominators up to 10^15 and numerators sharing factors with them
parts = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                     Fraction(-3, 2), Fraction(2, 3)]),
    st.builds(Fraction, st.integers(-10**18, 10**18), st.integers(1, 10**15)),
)
plain = st.one_of(parts, st.integers(-10**6, 10**6), st.sampled_from([0, 1, -1]))
pairs = st.builds(lambda re, im: (GaussianRational(re, im),
                                  ReferenceGaussianRational(re, im)),
                  parts, parts)
# an operand: a scalar with its reference twin, or an int or Fraction as is
operands = st.one_of(pairs, plain.map(lambda x: (x, x)))


def assert_matches(value, ref):
    assert type(value) is GaussianRational
    (a, b), d = value.numerator, value.denominator
    assert d > 0 and gcd(a, b, d) == 1
    assert (type(value.re), type(value.im)) == (Fraction, Fraction)
    assert (value.re, value.im) == (ref.re, ref.im)


OPERATORS = [operator.add, operator.sub, operator.mul, operator.truediv]


@pytest.mark.parametrize("op", OPERATORS, ids=lambda op: op.__name__)
@given(operands, operands)
def test_binary_operators_match_reference(op, x, y):
    (x, x_ref), (y, y_ref) = x, y
    # int and Fraction operands on the left exercise the reflected operators
    assume(isinstance(x, GaussianRational) or isinstance(y, GaussianRational))
    try:
        expected = op(x_ref, y_ref)
    except DivisionByZero:
        with pytest.raises(DivisionByZero):
            op(x, y)
        return
    assert_matches(op(x, y), expected)


@given(pairs)
def test_unary_operations_match_reference(x):
    x, ref = x
    assert_matches(-x, -ref)
    assert_matches(x.conjugate(), ref.conjugate())
    if ref.is_zero():
        for divide in (x.inverse, lambda: 1 / x, lambda: Fraction(1, 3) / x):
            with pytest.raises(DivisionByZero):
                divide()
    else:
        assert_matches(x.inverse(), ref.inverse())
    assert (x.is_zero(), x.is_real(), bool(x)) == (ref.is_zero(), ref.is_real(), bool(ref))
    assert str(x) == str(ref)
    assert repr(x) == repr(ref).replace("ReferenceGaussianRational", "GaussianRational")
    assert hash(x) == hash(ref)


@given(pairs, operands)
def test_equality_and_hash_match_reference(x, y):
    (x, x_ref), (y, y_ref) = x, y
    assert (x == y) == (x_ref == y_ref)
    assert (y == x) == (y_ref == x_ref)
    assert (x != y) == (x_ref != y_ref)
    if x == y:
        assert hash(x) == hash(y)
    assert x == GaussianRational(x_ref.re, x_ref.im)


@given(parts)
def test_real_values_equal_and_hash_as_their_fraction(value):
    x = GaussianRational(value)
    assert x == value and value == x
    assert hash(x) == hash(value)
    if value.denominator == 1:
        assert x == int(value) and hash(x) == hash(int(value))


def test_equal_numerators_over_other_denominators_differ():
    half = GaussianRational(Fraction(1, 2))
    assert half != Fraction(1, 3) and Fraction(1, 3) != half
    assert GaussianRational(1) != Fraction(1, 2) and half != 1


@given(st.integers(-10**18, 10**18), st.integers(-10**18, 10**18),
       st.integers(-10**15, 10**15))
def test_from_integers_normalises(a, b, d):
    if not d:
        with pytest.raises(DivisionByZero):
            GaussianRational.from_integers(a, b, d)
        return
    value = GaussianRational.from_integers(a, b, d)
    assert_matches(value, ReferenceGaussianRational(Fraction(a, d), Fraction(b, d)))


def test_constructor_takes_rationals_only():
    assert GaussianRational() == 0 and GaussianRational(True) == 1
    assert GaussianRational(re=Fraction(4, 6), im=3) == GaussianRational(Fraction(2, 3), 3)
    for bad in (0.5, "1", None, GaussianRational(1)):
        with pytest.raises(TypeError):
            GaussianRational(bad)
        with pytest.raises(TypeError):
            GaussianRational(0, bad)


def test_scalars_are_immutable():
    x = GaussianRational(Fraction(1, 2), 3)
    for name in ("re", "im", "numerator", "denominator", "_a", "_b", "_d", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    with pytest.raises(AttributeError):
        del x._a
    assert x == GaussianRational(Fraction(1, 2), 3)
    assert copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x
