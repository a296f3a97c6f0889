"""Exact scalar arithmetic: Gaussian rationals and parametric coefficients.

All arithmetic in the engine is exact.  Plain scalars live in Q(i) and are
stored as one Gaussian integer over one positive integer, (a + b*i)/d with
gcd(a, b, d) = 1.  That form is canonical, so equality compares three ints,
and each ring operation is integer arithmetic followed by at most one gcd;
`Fraction` values are built only when the real or imaginary part is asked
for.  Other modules read a scalar's integers through `numerator` and
`denominator` and build one from integers through `from_integers`.

Coefficients read from input files may mention declared formal
parameters; those are kept symbolically as a ratio of polynomials and
only turned into Gaussian rationals once a rational value is bound to
every parameter.

The accepted literal syntax is small: integers, fractions ``p/q``, the
imaginary unit ``i``, declared parameter names, the four arithmetic
operators and parentheses, e.g. ``"1/2+1/3*i"`` or ``"(2*t-1)/(2*(t-1))"``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterator, Mapping, Optional, Sequence, Tuple, Union

from .errors import (
    CoefficientParseError,
    DivisionByZero,
    PoleAtBinding,
    UnboundParameter,
)

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "GaussianRational"]


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational value, got {value!r}")


class GaussianRational:
    """An element of Q(i), held as (a + b*i)/d in lowest terms.

    a, b and d are plain ints with d > 0 and gcd(a, b, d) = 1, so the form
    is canonical: two values are equal exactly when their three ints are,
    and zero is 0/1.  `numerator` and `denominator` give the Gaussian
    integer a + b*i and the integer d; `re` and `im` give the real and
    imaginary parts as `Fraction`s.  Instances are immutable.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0) -> None:
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(f"expected a rational value, got {part!r}")
        # Both parts are in lowest terms, so over the lcm of their
        # denominators gcd(a, b, d) = 1 already.
        p, q = re.denominator, im.denominator
        d = lcm(p, q)
        _set_a(self, re.numerator * (d // p))
        _set_b(self, im.numerator * (d // q))
        _set_d(self, d)

    @staticmethod
    def from_integers(a: int, b: int, d: int) -> "GaussianRational":
        """(a + b*i)/d, brought to lowest terms with a positive denominator."""
        if not d:
            raise DivisionByZero("zero denominator in Q(i)")
        if d < 0:
            a, b, d = -a, -b, -d
        return _reduced(a, b, d)

    @property
    def numerator(self) -> Tuple[int, int]:
        """The Gaussian integer a + b*i of (a + b*i)/d, as the pair (a, b)."""
        return self._a, self._b

    @property
    def denominator(self) -> int:
        """The positive integer d of (a + b*i)/d."""
        return self._d

    @property
    def re(self) -> Fraction:
        """The real part a/d."""
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        """The imaginary part b/d."""
        return Fraction(self._b, self._d)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"GaussianRational is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"GaussianRational is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def is_real(self) -> bool:
        return not self._b

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    # -- involutions -------------------------------------------------------

    def conjugate(self) -> "GaussianRational":
        return _canonical(self._a, -self._b, self._d)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value: ScalarLike) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return _canonical(value.numerator, 0, value.denominator)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, f = self._d, other._d
        if d == f:
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * f + other._a * d, self._b * f + other._b * d,
                        d * f)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, f = self._d, other._d
        if d == f:
            return _reduced(self._a - other._a, self._b - other._b, d)
        return _reduced(self._a * f - other._a * d, self._b * f - other._b * d,
                        d * f)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "GaussianRational":
        return _canonical(-self._a, -self._b, self._d)

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        if not (b or e):
            return _reduced(a * c, 0, self._d * other._d)
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        a, b, d = self._a, self._b, self._d
        norm = a * a + b * b
        if not norm:
            raise DivisionByZero("inverse of zero in Q(i)")
        return _reduced(a * d, -b * d, norm)

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, e, f = self._a, self._b, other._a, other._b, other._d
        if e:
            # multiply through by the conjugate of c + e*i
            norm = c * c + e * e
            return _reduced((a * c + b * e) * f, (b * c - a * e) * f,
                            self._d * norm)
        if not c:
            raise DivisionByZero("inverse of zero in Q(i)")
        if c < 0:
            c, f = -c, -f
        return _reduced(a * f, b * f, self._d * c)

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    # -- equality and display ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        if isinstance(other, (int, Fraction)):
            return (not self._b and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        if not self._b:
            return hash(self._a) if self._d == 1 else hash(self.re)
        return hash((self.re, self.im))

    def __str__(self) -> str:
        re, im = self.re, self.im
        if not im:
            return str(re)
        if im == 1:
            imag = "i"
        elif im == -1:
            imag = "-i"
        else:
            imag = f"{im}*i"
        if not re:
            return imag
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        imag = "i" if mag == 1 else f"{mag}*i"
        return f"{re}{sign}{imag}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__
_set_a = GaussianRational._a.__set__  # type: ignore[attr-defined]
_set_b = GaussianRational._b.__set__  # type: ignore[attr-defined]
_set_d = GaussianRational._d.__set__  # type: ignore[attr-defined]
_coerce = GaussianRational._coerce


def _canonical(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b*i)/d of three ints already in canonical form."""
    value = _new(GaussianRational)
    _set_a(value, a)
    _set_b(value, b)
    _set_d(value, d)
    return value


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for d > 0, divided through by gcd(a, b, d)."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _canonical(a, b, d)


ZERO = GaussianRational()
ONE = GaussianRational(Fraction(1))
I_UNIT = GaussianRational(Fraction(0), Fraction(1))


# ---------------------------------------------------------------------------
# Parametric coefficients.
#
# A polynomial in the declared parameters is a map from exponent tuples to
# Gaussian rational coefficients; a ParamExpr is a ratio of two such
# polynomials.  No gcd cancellation is attempted between numerator and
# denominator: the representation mirrors the way the expression was
# written, and a denominator that vanishes at a binding is reported as a
# pole even when the singularity would be removable after cancellation.
# ---------------------------------------------------------------------------

Exponents = Tuple[int, ...]
PolyTerms = Tuple[Tuple[Exponents, GaussianRational], ...]


def _poly_const(value: GaussianRational, nparams: int) -> PolyTerms:
    if value.is_zero():
        return ()
    return (((0,) * nparams, value),)


def _poly_add(a: PolyTerms, b: PolyTerms) -> PolyTerms:
    acc = dict(a)
    for exps, coeff in b:
        new = acc.get(exps, ZERO) + coeff
        if new.is_zero():
            acc.pop(exps, None)
        else:
            acc[exps] = new
    return tuple(sorted(acc.items()))


def _poly_neg(a: PolyTerms) -> PolyTerms:
    return tuple((exps, -coeff) for exps, coeff in a)


def _poly_mul(a: PolyTerms, b: PolyTerms) -> PolyTerms:
    acc: dict = {}
    for ea, ca in a:
        for eb, cb in b:
            exps = tuple(x + y for x, y in zip(ea, eb))
            new = acc.get(exps, ZERO) + ca * cb
            if new.is_zero():
                acc.pop(exps, None)
            else:
                acc[exps] = new
    return tuple(sorted(acc.items()))


def _poly_degree(a: PolyTerms) -> int:
    return max((sum(exps) for exps, _ in a), default=0)


def _poly_eval(a: PolyTerms, values: Sequence[Fraction]) -> GaussianRational:
    total = ZERO
    for exps, coeff in a:
        factor = Fraction(1)
        for value, power in zip(values, exps):
            factor *= value ** power
        total = total + coeff * factor
    return total


def _poly_str(a: PolyTerms, params: Sequence[str]) -> str:
    if not a:
        return "0"
    parts = []
    for exps, coeff in a:
        names = [
            name if power == 1 else f"{name}^{power}"
            for name, power in zip(params, exps)
            if power
        ]
        if not names:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append("*".join(names))
        else:
            parts.append(f"({coeff})*" + "*".join(names))
    return " + ".join(parts)


@dataclass(frozen=True)
class ParamExpr:
    """A rational function of the declared parameters over Q(i)."""

    params: Tuple[str, ...]
    num: PolyTerms
    den: PolyTerms

    @classmethod
    def constant(cls, value: ScalarLike, params: Sequence[str] = ()) -> "ParamExpr":
        value = GaussianRational._coerce(value)
        nparams = len(params)
        return cls(tuple(params), _poly_const(value, nparams),
                   _poly_const(ONE, nparams))

    @classmethod
    def variable(cls, name: str, params: Sequence[str]) -> "ParamExpr":
        index = list(params).index(name)
        nparams = len(params)
        exps = tuple(1 if k == index else 0 for k in range(nparams))
        return cls(tuple(params), ((exps, ONE),), _poly_const(ONE, nparams))

    # -- arithmetic (used by the parser) -----------------------------------

    def _check(self, other: "ParamExpr") -> None:
        if self.params != other.params:
            raise ValueError("mixed parameter contexts in coefficient arithmetic")

    def __add__(self, other: "ParamExpr") -> "ParamExpr":
        self._check(other)
        num = _poly_add(_poly_mul(self.num, other.den),
                        _poly_mul(other.num, self.den))
        return ParamExpr(self.params, num, _poly_mul(self.den, other.den))

    def __sub__(self, other: "ParamExpr") -> "ParamExpr":
        self._check(other)
        num = _poly_add(_poly_mul(self.num, other.den),
                        _poly_neg(_poly_mul(other.num, self.den)))
        return ParamExpr(self.params, num, _poly_mul(self.den, other.den))

    def __neg__(self) -> "ParamExpr":
        return ParamExpr(self.params, _poly_neg(self.num), self.den)

    def __mul__(self, other: "ParamExpr") -> "ParamExpr":
        self._check(other)
        return ParamExpr(self.params, _poly_mul(self.num, other.num),
                         _poly_mul(self.den, other.den))

    def __truediv__(self, other: "ParamExpr") -> "ParamExpr":
        self._check(other)
        if not other.num:
            raise DivisionByZero("division by an identically zero expression")
        return ParamExpr(self.params, _poly_mul(self.num, other.den),
                         _poly_mul(self.den, other.num))

    def __pow__(self, n: int) -> "ParamExpr":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return ParamExpr.constant(ONE, self.params) / self ** (-n)
        result = ParamExpr.constant(ONE, self.params)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- inspection and evaluation -----------------------------------------

    def degrees(self) -> Tuple[int, int]:
        """Total degrees of the numerator and of the denominator."""
        return _poly_degree(self.num), _poly_degree(self.den)

    def used_parameters(self) -> Tuple[str, ...]:
        used = set()
        for terms in (self.num, self.den):
            for exps, _ in terms:
                for name, power in zip(self.params, exps):
                    if power:
                        used.add(name)
        return tuple(name for name in self.params if name in used)

    def is_constant(self) -> bool:
        return not self.used_parameters()

    def constant_value(self) -> GaussianRational:
        """The value of a parameter-free expression."""
        return self.evaluate({})

    def evaluate(self, bindings: Mapping[str, RationalLike]) -> GaussianRational:
        """Exact value at a rational point of parameter space.

        Raises UnboundParameter if a parameter that actually occurs has no
        binding, PoleAtBinding if the denominator vanishes there, and
        CoefficientParseError if the value has a numerator or denominator
        of more than MAX_DIGITS digits.
        """
        for name in self.used_parameters():
            if name not in bindings:
                raise UnboundParameter(f"parameter {name!r} has no value")
        values = [_as_fraction(bindings.get(name, 0)) for name in self.params]
        den = _poly_eval(self.den, values)
        point = ", ".join(
            f"{name}={bindings[name]}" for name in self.used_parameters()
        )
        if den.is_zero():
            raise PoleAtBinding(f"denominator vanishes at {point or 'the binding'}")
        value = _poly_eval(self.num, values) / den
        if _too_tall(value):
            at = f" at {point}" if point else ""
            raise CoefficientParseError(
                f"value{at} has more than {MAX_DIGITS} digits"
            )
        return value

    def __str__(self) -> str:
        num = _poly_str(self.num, self.params)
        if self.den == _poly_const(ONE, len(self.params)):
            return num
        return f"({num})/({_poly_str(self.den, self.params)})"


# ---------------------------------------------------------------------------
# Parsing.
# ---------------------------------------------------------------------------

_TOKEN_OPS = set("+-*/()^")


def _tokenize(text: str) -> Iterator[Tuple[str, str, int]]:
    pos = 0
    size = len(text)
    while pos < size:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _TOKEN_OPS:
            yield ("op", ch, pos)
            pos += 1
            continue
        # isdecimal, not isdigit: int() reads every decimal digit, but not
        # superscripts such as "²", which isdigit accepts
        if ch.isdecimal():
            start = pos
            while pos < size and text[pos].isdecimal():
                pos += 1
            yield ("int", text[start:pos], start)
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < size and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            yield ("name", text[start:pos], start)
            continue
        raise CoefficientParseError(
            f"unexpected character {ch!r} at position {pos}"
        )
    yield ("end", "", size)


# Parentheses and prefix signs nest at most this deep.  Each level costs
# the recursive descent a handful of stack frames, so the limit keeps any
# input well inside the interpreter's recursion limit.
MAX_NESTING = 50

# Exponents are at most this large in absolute value.  Powers are expanded
# into polynomials whose size and coefficients grow with the exponent, so
# the limit bounds the work one literal can ask for.
MAX_EXPONENT = 64

# Numerators and denominators of a coefficient have total degree at most
# this.  Powers of powers multiply their exponents, so the exponent budget
# alone lets ((1+t)^64)^64 ask for degree 4096; each product is checked
# before it is expanded.  Without declared parameters every expression is
# a constant, and nothing is checked.
MAX_DEGREE = 128

# Integer literals have at most this many digits, well inside the limit
# Python puts on converting digit strings to int.  So do the numerators
# and denominators of every value the parser builds and of every evaluated
# coefficient: without that bound, powers of powers of a long literal grow
# without limit, and a value past Python's limit on converting ints to
# digit strings cannot even be printed.
MAX_DIGITS = 1000

# The least integer with more than MAX_DIGITS digits, and the bit length
# below which no integer reaches it.
_DIGITS_BOUND = 10 ** MAX_DIGITS
_DIGITS_BITS = _DIGITS_BOUND.bit_length() - 1


def exceeds_digits(n: int) -> bool:
    """Whether |n| has more than MAX_DIGITS decimal digits.

    Decided by bit length, without converting n to decimal: only an
    integer within one bit of the bound is compared with it.
    """
    n = abs(n)
    return n.bit_length() > _DIGITS_BITS and n >= _DIGITS_BOUND


def _too_tall(value: GaussianRational) -> bool:
    """Whether the numerator or denominator of a value exceeds MAX_DIGITS digits."""
    (a, b), d = value.numerator, value.denominator
    return exceeds_digits(a) or exceeds_digits(b) or exceeds_digits(d)


class _Parser:
    """Recursive descent over the +,-,*,/,^ grammar with parentheses."""

    def __init__(self, text: str, params: Sequence[str]):
        self.text = text
        self.params = tuple(params)
        self.tokens = list(_tokenize(text))
        self.index = 0
        self.depth = 0

    def nested(self, parse: Callable[[], ParamExpr], pos: int) -> ParamExpr:
        """Run one nested parse, refusing nesting beyond MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise CoefficientParseError(
                f"nesting deeper than {MAX_NESTING} levels at position {pos}"
            )
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def integer(self, value: str, pos: int) -> int:
        """An integer literal, refusing more than MAX_DIGITS digits."""
        if len(value) > MAX_DIGITS:
            raise CoefficientParseError(
                f"integer literal at position {pos} has {len(value)} digits, "
                f"more than {MAX_DIGITS}"
            )
        return int(value)

    def checked(self, degree: int, pos: int) -> None:
        """Refuse an operation whose result would exceed MAX_DEGREE."""
        if degree > MAX_DEGREE:
            raise CoefficientParseError(
                f"degree {degree} at position {pos} exceeds {MAX_DEGREE}"
            )

    def bounded(self, node: ParamExpr, pos: int) -> ParamExpr:
        """Refuse a result with a coefficient of more than MAX_DIGITS digits."""
        for _, coeff in node.num + node.den:
            if _too_tall(coeff):
                raise CoefficientParseError(
                    f"value at position {pos} has more than {MAX_DIGITS} digits"
                )
        return node

    def peek(self) -> Tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> Tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def parse(self) -> ParamExpr:
        expr = self.expression()
        kind, value, pos = self.peek()
        if kind != "end":
            raise CoefficientParseError(
                f"unexpected {value!r} at position {pos} in {self.text!r}"
            )
        return expr

    def expression(self) -> ParamExpr:
        node = self.term()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                right = self.term()
                if self.params:
                    (an, ad), (bn, bd) = node.degrees(), right.degrees()
                    self.checked(max(an + bd, bn + ad, ad + bd), pos)
                node = self.bounded(node + right if value == "+" else node - right, pos)
            else:
                return node

    def term(self) -> ParamExpr:
        node = self.unary()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                right = self.unary()
                if self.params:
                    (an, ad), (bn, bd) = node.degrees(), right.degrees()
                    if value == "/":
                        bn, bd = bd, bn
                    self.checked(max(an + bn, ad + bd), pos)
                node = self.bounded(node * right if value == "*" else node / right, pos)
            else:
                return node

    def unary(self) -> ParamExpr:
        kind, value, pos = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            node = self.nested(self.unary, pos)
            return node if value == "+" else -node
        return self.power()

    def power(self) -> ParamExpr:
        node = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            n = self.exponent()
            if self.params:
                self.checked(max(node.degrees()) * abs(n), pos)
            node = self.bounded(node ** n, pos)
        return node

    def exponent(self) -> int:
        kind, value, pos = self.advance()
        start = pos
        negative = False
        if kind == "op" and value == "-":
            negative = True
            kind, value, pos = self.advance()
        if kind != "int":
            raise CoefficientParseError(
                f"exponent must be an integer literal at position {pos}"
            )
        n = self.integer(value, pos)
        if n > MAX_EXPONENT:
            raise CoefficientParseError(
                f"exponent {'-' if negative else ''}{n} at position {start} "
                f"exceeds {MAX_EXPONENT} in absolute value"
            )
        return -n if negative else n

    def atom(self) -> ParamExpr:
        kind, value, pos = self.advance()
        if kind == "int":
            return ParamExpr.constant(self.integer(value, pos), self.params)
        if kind == "name":
            if value == "i":
                return ParamExpr.constant(I_UNIT, self.params)
            if value in self.params:
                return ParamExpr.variable(value, self.params)
            raise CoefficientParseError(
                f"unknown name {value!r} at position {pos}; "
                f"declared parameters: {list(self.params) or 'none'}"
            )
        if kind == "op" and value == "(":
            node = self.nested(self.expression, pos)
            kind, value, pos = self.advance()
            if not (kind == "op" and value == ")"):
                raise CoefficientParseError(f"expected ')' at position {pos}")
            return node
        raise CoefficientParseError(
            f"unexpected {value or 'end of input'!r} at position {pos}"
        )


def parse_coefficient(text: str, parameters: Sequence[str] = ()) -> ParamExpr:
    """Parse a coefficient expression over the declared parameters."""
    if "i" in parameters:
        raise CoefficientParseError("'i' is reserved for the imaginary unit")
    return _Parser(text, parameters).parse()


# The forms GaussianRational.__str__ prints: a real part a or a/b,
# optionally followed by a signed imaginary part i or c*i or c/d*i; or an
# imaginary part alone, optionally negative.  Digits are ASCII only.
_PRINTED = re.compile(
    r"(?:(-?[0-9]+)(?:/([0-9]+))?(?:([+-])(?:([0-9]+)(?:/([0-9]+))?\*)?i)?"
    r"|(-?)(?:([0-9]+)(?:/([0-9]+))?\*)?i)"
)


def _parse_printed(text: str) -> Optional[GaussianRational]:
    """The value of a literal in a printed form, or None to parse it fully.

    The value is (p*s + r*q*i) / (q*s) for the literal p/q + r/s*i, which
    are the integers the full parser builds for it.  A literal with more
    than MAX_DIGITS digits, a zero denominator, or one of those integers
    past MAX_DIGITS digits is left to the full parser, so the values and
    the errors are the full parser's.
    """
    match = _PRINTED.fullmatch(text)
    if match is None:
        return None
    re_num, re_den, sign, im_num, im_den, im_sign, pure_num, pure_den = match.groups()
    if re_num is None:
        re_num, re_den, im_num, im_den = "0", None, pure_num, pure_den
        sign = im_sign or "+"
    elif sign is None:
        im_num = "0"
    if any(x is not None and len(x.lstrip("-")) > MAX_DIGITS
           for x in (re_num, re_den, im_num, im_den)):
        return None
    p, q = int(re_num), int(re_den or 1)
    r, s = int(im_num or 1), int(im_den or 1)
    if not (q and s):
        return None
    if sign == "-":
        r = -r
    a, b, d = p * s, r * q, q * s
    if exceeds_digits(a) or exceeds_digits(b) or exceeds_digits(d):
        return None
    return GaussianRational.from_integers(a, b, d)


def parse_rational(text: str) -> GaussianRational:
    """Parse a parameter-free scalar literal into an exact value.

    Literals in the forms GaussianRational prints are read directly;
    everything else goes through the full parser.
    """
    value = _parse_printed(text)
    if value is None:
        value = parse_coefficient(text).constant_value()
    return value
