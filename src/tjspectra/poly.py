"""Sparse multivariate polynomials with integer coefficients (at most 3 variables).

Terms are stored as a map from exponent tuples to nonzero int
coefficients; the constructor rejects any other coefficient type, so no
inexact number enters the engine.  The arithmetic itself works on those
term maps (:func:`add_terms`, :func:`mul_terms`, :func:`pow_terms`), so
only the ``Poly`` a caller gets back is validated.  The text grammar
accepted by :func:`parse_poly` covers the input syntax used throughout this
package:

    poly    := term (('+' | '-') term)*       (optional leading sign)
    term    := factor ('*' factor)*
    factor  := base ('^' natural)?
    base    := integer | variable | '(' poly ')'

Variables are x, y, z (the first ``nvars`` of them).  Whitespace is ignored.
"""

from dataclasses import dataclass, field
from operator import add

from .errors import PolySyntaxError, TooManyVariables

VAR_NAMES = ("x", "y", "z")
MAX_VARS = 3

Exponent = tuple[int, ...]
IntPoly = dict[Exponent, int]


def _check_nvars(nvars: int) -> None:
    if not 1 <= nvars <= MAX_VARS:
        raise TooManyVariables(f"nvars must be in [1, {MAX_VARS}]")


def add_terms(p: IntPoly, q: IntPoly) -> IntPoly:
    """The term map of p + q, without the terms that cancel."""
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def neg_terms(p: IntPoly) -> IntPoly:
    return {e: -c for e, c in p.items()}


def mul_terms(p: IntPoly, q: IntPoly) -> IntPoly:
    """The term map of p * q, without the terms that cancel."""
    out: IntPoly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(map(add, e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def pow_terms(p: IntPoly, k: int, nvars: int) -> IntPoly:
    """The term map of p ** k (p ** 0 is 1, also for p = 0); ValueError for k < 0.

    A one-term base is raised directly; any other by repeated squaring.
    """
    if k < 0:
        raise ValueError("negative power")
    if len(p) == 1:
        ((e, c),) = p.items()
        return {tuple(k * x for x in e): c ** k}
    result: IntPoly = {(0,) * nvars: 1}
    while k:
        if k & 1:
            result = mul_terms(result, p)
        k >>= 1
        if k:
            p = mul_terms(p, p)
    return result


@dataclass(frozen=True)
class Poly:
    """A polynomial in nvars variables.  Construction raises TypeError for
    a coefficient that is not an int (a Fraction, float or bool), ValueError
    for a zero coefficient or an exponent that is not a tuple of nvars
    non-negative ints, and TooManyVariables for nvars outside [1, MAX_VARS]."""

    terms: IntPoly = field(default_factory=dict)
    nvars: int = 2

    def __post_init__(self):
        _check_nvars(self.nvars)
        for e, c in self.terms.items():
            if type(c) is not int:
                raise TypeError(f"coefficients must be int, not {type(c).__name__}")
            if not c:
                raise ValueError(f"zero coefficient at exponent {e!r}")
            if (type(e) is not tuple or len(e) != self.nvars
                    or not all(type(k) is int and k >= 0 for k in e)):
                raise ValueError(f"exponent {e!r} is not a tuple of "
                                 f"{self.nvars} non-negative ints")

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly({}, nvars)

    @staticmethod
    def constant(c: int, nvars: int) -> "Poly":
        if c == 0:
            return Poly.zero(nvars)
        return Poly({(0,) * nvars: c}, nvars)

    @staticmethod
    def monomial(exps: Exponent, coeff: int = 1) -> "Poly":
        if coeff == 0:
            return Poly.zero(len(exps))
        return Poly({tuple(exps): coeff}, len(exps))

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.nvars, 0)

    def _same_nvars(self, other: "Poly") -> None:
        if other.nvars != self.nvars:
            raise ValueError(f"operands have {self.nvars} and {other.nvars} variables")

    def __add__(self, other: "Poly") -> "Poly":
        self._same_nvars(other)
        return Poly(add_terms(self.terms, other.terms), self.nvars)

    def __neg__(self) -> "Poly":
        return Poly(neg_terms(self.terms), self.nvars)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._same_nvars(other)
        return Poly(mul_terms(self.terms, other.terms), self.nvars)

    def __pow__(self, k: int) -> "Poly":
        return Poly(pow_terms(self.terms, k, self.nvars), self.nvars)

    def derivative(self, var: int) -> "Poly":
        out: IntPoly = {}
        for e, c in self.terms.items():
            if e[var] == 0:
                continue
            de = list(e)
            de[var] -= 1
            out[tuple(de)] = c * e[var]
        return Poly(out, self.nvars)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            c = self.terms[e]
            factors = []
            for v, p in enumerate(e):
                if p == 1:
                    factors.append(VAR_NAMES[v])
                elif p > 1:
                    factors.append(f"{VAR_NAMES[v]}^{p}")
            if not factors:
                body = str(abs(c))
            else:
                mono = "*".join(factors)
                body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            parts.append(("- " if c < 0 else "+ ") + body)
        head = parts[0]
        head = "-" + head[2:] if head.startswith("- ") else head[2:]
        return " ".join([head] + parts[1:])


def jacobian(f: Poly) -> list[Poly]:
    """All first partial derivatives of f, one per variable."""
    return [f.derivative(v) for v in range(f.nvars)]


class _Parser:
    def __init__(self, text: str, nvars: int):
        _check_nvars(nvars)
        self.text = text
        self.pos = 0
        self.nvars = nvars

    def error(self, message):
        raise PolySyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self):
        ch = self.peek()
        self.pos += 1
        return ch

    def parse(self) -> Poly:
        p = self.parse_sum()
        if self.peek():
            self.error(f"unexpected character {self.peek()!r}")
        return Poly(p, self.nvars)

    def parse_sum(self) -> IntPoly:
        negate = self.peek() in ("+", "-") and self.take() == "-"
        p = neg_terms(self.parse_term()) if negate else self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.take()
            t = self.parse_term()
            p = add_terms(p, neg_terms(t) if op == "-" else t)
        return p

    def parse_term(self) -> IntPoly:
        p = self.parse_factor()
        while self.peek() == "*":
            self.take()
            p = mul_terms(p, self.parse_factor())
        return p

    def parse_factor(self) -> IntPoly:
        base = self.parse_base()
        if self.peek() == "^":
            self.take()
            return pow_terms(base, self.parse_natural(), self.nvars)
        return base

    def parse_base(self) -> IntPoly:
        ch = self.peek()
        if ch == "(":
            self.take()
            p = self.parse_sum()
            if self.peek() != ")":
                self.error("expected ')'")
            self.take()
            return p
        if ch.isdigit():
            c = self.parse_natural()
            return {(0,) * self.nvars: c} if c else {}
        if ch in VAR_NAMES:
            idx = VAR_NAMES.index(ch)
            if idx >= self.nvars:
                self.error(f"variable {ch!r} not available with nvars={self.nvars}")
            self.take()
            return {tuple(int(v == idx) for v in range(self.nvars)): 1}
        self.error("expected a number, variable, or '('")

    def parse_natural(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a natural number")
        return int(self.text[start:self.pos])


def parse_poly(text: str, nvars: int = 2) -> Poly:
    """Parse and fully expand a polynomial expression."""
    return _Parser(text, nvars).parse()
