"""Exact scalar arithmetic: Gaussian rationals and parametric coefficients.

All arithmetic in the engine is exact.  Plain scalars live in Q(i) and are
stored as a pair of `fractions.Fraction` values, which keeps every number
in lowest terms with a positive denominator by construction.  Coefficients
read from input files may mention declared formal parameters; those are
kept symbolically as a ratio of polynomials and only turned into Gaussian
rationals once a rational value is bound to every parameter.

The accepted literal syntax is small: integers, fractions ``p/q``, the
imaginary unit ``i``, declared parameter names, the four arithmetic
operators and parentheses, e.g. ``"1/2+1/3*i"`` or ``"(2*t-1)/(2*(t-1))"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence, Tuple, Union

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


@dataclass(frozen=True, eq=False)
class GaussianRational:
    """An element of Q(i), held as exact real and imaginary parts."""

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

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value: ScalarLike) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(_as_fraction(value))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:
            return GaussianRational(self.re * other.re)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        norm = self.re * self.re + self.im * self.im
        if not norm:
            raise DivisionByZero("inverse of zero in Q(i)")
        return GaussianRational(self.re / norm, -self.im / norm)

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    # -- equality and display ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
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
        return f"GaussianRational({self.re!r}, {self.im!r})"


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
        binding, and PoleAtBinding if the denominator vanishes there.
        """
        for name in self.used_parameters():
            if name not in bindings:
                raise UnboundParameter(f"parameter {name!r} has no value")
        values = [_as_fraction(bindings.get(name, 0)) for name in self.params]
        den = _poly_eval(self.den, values)
        if den.is_zero():
            point = ", ".join(
                f"{name}={bindings[name]}" for name in self.used_parameters()
            )
            raise PoleAtBinding(f"denominator vanishes at {point or 'the binding'}")
        return _poly_eval(self.num, values) / den

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
        if ch.isdigit():
            start = pos
            while pos < size and text[pos].isdigit():
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
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                right = self.term()
                node = node + right if value == "+" else node - right
            else:
                return node

    def term(self) -> ParamExpr:
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                right = self.unary()
                node = node * right if value == "*" else node / right
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
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            node = node ** self.exponent()
        return node

    def exponent(self) -> int:
        kind, value, pos = self.advance()
        negative = False
        if kind == "op" and value == "-":
            negative = True
            kind, value, pos = self.advance()
        if kind != "int":
            raise CoefficientParseError(
                f"exponent must be an integer literal at position {pos}"
            )
        n = int(value)
        return -n if negative else n

    def atom(self) -> ParamExpr:
        kind, value, pos = self.advance()
        if kind == "int":
            return ParamExpr.constant(int(value), self.params)
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


def parse_rational(text: str) -> GaussianRational:
    """Parse a parameter-free scalar literal into an exact value."""
    return parse_coefficient(text).constant_value()
