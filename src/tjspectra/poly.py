"""Sparse multivariate polynomials with integer coefficients (at most 3 variables).

A ``Poly`` stores one map from packed monomials to nonzero int
coefficients, the map the engine (:mod:`~tjspectra.localg`) computes with.
A packed monomial is one int, the sum of e_v times packed x_v: the total
degree in the top field, and e[n-1], ..., e[0] below it in fields of
W = :data:`FIELD_BITS` = 16 bits (:class:`_Packing`), so int order is the
order of ``localg._lead_key`` and a product of monomials is ``+``.  Every
term of every ``Poly`` has total degree at most :data:`MAX_DEGREE` =
2^(W-1) - 1, the one limit, which the engine takes too: so no exponent
reaches the guard bit on top of its field and no field carries.  A term
past it raises TjspectraError with the engine's message, where the term
is made: in the constructor, :func:`mul_terms`, :func:`pow_terms` and
the parser.  ``Poly.terms`` is a view by exponent tuple.  Terms are
checked once, where a caller hands them over: the constructor, and with
it ``Poly.monomial``, ``Poly.constant`` and ``Poly.zero``, rejects any
other coefficient type, so no inexact number enters the engine.  The
results the package builds itself need no second check, so
:func:`_unchecked` builds them: the arithmetic, ``derivative`` and the
parser work on term maps (:func:`add_terms`, :func:`mul_terms`,
:func:`pow_terms`, :func:`derivative_terms`) whose coefficients are ints
of checked ``Poly``s or ``int(token)``, and whose monomials are sums and
differences of checked ones; ints stay ints under sums and products, and
a sum that reaches zero is dropped.  The standard bases of
:mod:`~tjspectra.localg` come from checked generators the same way.  The text grammar accepted by
:func:`parse_poly` covers the input syntax used throughout this package:

    poly    := term (('+' | '-') term)*       (optional leading sign)
    term    := factor ('*' factor)*
    factor  := base ('^' natural)?
    base    := natural | variable | '(' poly ')'

A natural is a run of the ASCII digits 0-9; any other digit character,
such as a superscript, is a syntax error.  Variables are x, y, z (the first
``nvars`` of them).  The text is split once into tokens, each a natural or
one non-space character (in ASCII text, by ``str.split`` once each other
character is spaced out), and the grammar runs over that list.  Whitespace
may separate any two tokens but never splits a number: "1 2" is two numbers,
which is a syntax error.  Inside a term, number and variable factors are
multiplied straight into one coefficient and one packed monomial
(``m += k * x_v``); only a parenthesised group becomes a term map.  A
group's power goes through ``pow_terms``, which starts from the group
itself, and a product of groups through ``mul_terms``; a term with no
variable factor scales its group by the number and sign, with no product.
A term's group powers are expanded at its end.  The term keeps one
running degree, over its variable factors and its group powers (each the
group's degree times the exponent), checked against :data:`MAX_DEGREE` as
each factor is read: past it, the term raises TjspectraError with the
engine's message before any power is expanded, as their expansion could
run for minutes.  For the same reason a power past MAX_DEGREE of a number,
or of a group of degree 0, raises TjspectraError as it is read.  A syntax
error names the character position of the token where the grammar
failed, or the length of the text at its end.
"""

import re
from operator import mul

from .errors import PolySyntaxError, TjspectraError

VAR_NAMES = ("x", "y", "z")
MAX_VARS = 3
MAX_DEGREE = (1 << 15) - 1  # the largest total degree of a term of a Poly, and of the engine
FIELD_BITS = MAX_DEGREE.bit_length() + 1  # W: the width of each packed field, guard bit on top
_FIELD_MASK = (1 << FIELD_BITS) - 1       # reads one field

Exponent = tuple[int, ...]
IntPoly = dict[Exponent, int]  # terms by exponent tuple: the view Poly.terms
PackedPoly = dict[int, int]    # terms by packed monomial: what a Poly stores


def _check_nvars(nvars: int) -> None:
    if type(nvars) is not int:
        raise TypeError(f"nvars must be an int, not {type(nvars).__name__}")
    if not 1 <= nvars <= MAX_VARS:
        raise TjspectraError(f"nvars must be in [1, {MAX_VARS}]")


def _too_large(degree: int) -> TjspectraError:
    return TjspectraError(f"a term of degree {degree} is beyond the engine's "
                          f"limit of {MAX_DEGREE}")


def _unpack(m: int, offsets: range) -> Exponent:
    """The exponents of the packed monomial m, its fields at the offsets."""
    return tuple([(m >> k) & _FIELD_MASK for k in offsets])


class _Packing:
    """The int encoding of the monomials in nvars variables (module
    docstring; the engine's arithmetic on it: :mod:`~tjspectra.localg`)."""

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.shift = nvars * FIELD_BITS   # the degree field starts here
        self.guard = sum(1 << (FIELD_BITS - 1 + v * FIELD_BITS) for v in range(nvars))
        self.offsets = range(0, self.shift, FIELD_BITS)
        self.ones = sum(1 << k for k in self.offsets)  # 1 in each exponent field
        # x_v packed: one in field v and one in the degree field
        self.variables = tuple((1 << self.shift) + (1 << k) for k in self.offsets)
        # the support mask of x_v^k, k > 0 -> v; and of x_v^k, or of 1, -> the
        # variables it is a pure power of: v alone, or every variable for 1
        self.axis = {1 << (FIELD_BITS - 1 + k): v for v, k in enumerate(self.offsets)}
        self.axes = {0: range(nvars), **{mask: (v,) for mask, v in self.axis.items()}}
        # the lcm keeps the exponent fields, and their product by `ones << W`
        # holds their sum in the degree field
        self._exponents = (1 << self.shift) - 1
        self._sum_up = self.ones << FIELD_BITS
        self._degree_field = _FIELD_MASK << self.shift

    def support(self, m: int) -> int:
        """The guard bits of the variables with a nonzero exponent in the
        packed monomial m: a field with e > 0 keeps its guard bit when 1
        is subtracted, one with e = 0 borrows it."""
        return ((m | self.guard) - self.ones) & self.guard

    def lcm(self, a: int, b: int) -> int:
        """The packed lcm of two packed monomials of degree at most
        MAX_DEGREE: the larger exponent in each field, and their sum, at
        most 2*MAX_DEGREE < 2^W, in the degree field."""
        ge = ((a | self.guard) - b) & self.guard  # guard bits where a's exponent >= b's
        x = (b ^ ((a ^ b) & (ge - (ge >> (FIELD_BITS - 1))))) & self._exponents
        return x | ((x * self._sum_up) & self._degree_field)

    def pack(self, e: Exponent) -> int:
        """The packed monomial of e, of degree at most MAX_DEGREE."""
        return sum(map(mul, e, self.variables))

    def unpack(self, m: int) -> Exponent:
        return _unpack(m, self.offsets)


_PACKINGS = {nvars: _Packing(nvars) for nvars in range(1, MAX_VARS + 1)}


def add_terms(p: PackedPoly, q: PackedPoly) -> PackedPoly:
    """The term map of p + q, without the terms that cancel."""
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def neg_terms(p: PackedPoly) -> PackedPoly:
    return {e: -c for e, c in p.items()}


def mul_terms(p: PackedPoly, q: PackedPoly, nvars: int) -> PackedPoly:
    """The term map of p * q, without the terms that cancel; TjspectraError
    for its degree past MAX_DEGREE.  Under the limit no field carries, so
    max(p) + max(q) is the product's top term, which cannot cancel, and its
    degree field holds deg p + deg q."""
    if p and q and (degree := (max(p) + max(q)) >> nvars * FIELD_BITS) > MAX_DEGREE:
        raise _too_large(degree)
    out: PackedPoly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = m1 + m2
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def pow_terms(p: PackedPoly, k: int, nvars: int) -> PackedPoly:
    """A new term map of p ** k by repeated squaring, starting from the
    first factor (p ** 0 is 1, also for p = 0, and p ** 1 a copy of p);
    ValueError for k < 0.  A power whose degree k * deg p passes MAX_DEGREE
    is refused before the first product, as its squaring could run for
    minutes."""
    if k < 0:
        raise ValueError("negative power")
    if k < 2:
        return dict(p) if k else {0: 1}
    if (degree := k * (max(p, default=0) >> nvars * FIELD_BITS)) > MAX_DEGREE:
        raise _too_large(degree)
    result = None  # k > 1, so the factor p itself is never returned
    while True:
        if k & 1:
            result = p if result is None else mul_terms(result, p, nvars)
        k >>= 1
        if not k:
            return result
        p = mul_terms(p, p, nvars)


def derivative_terms(p: PackedPoly, var: int, nvars: int) -> PackedPoly:
    """The term map of dp/dx_var: c*m gives c*e_var * m/x_var, where m/x_var
    is m minus packed x_var."""
    packing = _PACKINGS[nvars]
    k, x_v = packing.offsets[var], packing.variables[var]  # field var starts at bit k
    return {m - x_v: c * e for m, c in p.items() if (e := (m >> k) & _FIELD_MASK)}


def _read_only(self, name, *value):  # __setattr__ and __delattr__ of an immutable record
    raise AttributeError(f"cannot assign to or delete field {name!r}")


class Poly:
    """A polynomial in nvars variables, stored packed (module docstring).
    Construction checks the terms a caller hands over: it raises TypeError
    for a coefficient or an nvars that is not an int (a Fraction, float or
    bool), ValueError for a zero coefficient or an exponent that is not a
    tuple of nvars non-negative ints, and TjspectraError for nvars outside
    [1, MAX_VARS] or a term of degree past MAX_DEGREE.  The results of the
    arithmetic and the parser are built unchecked (module docstring)."""

    __slots__ = ("packed", "nvars")
    __setattr__ = __delattr__ = _read_only  # immutable; __eq__ with no __hash__: unhashable

    def __init__(self, terms: IntPoly | None = None, nvars: int = 2):
        terms = {} if terms is None else terms
        _check_nvars(nvars)
        packing = _PACKINGS[nvars]
        variables, shift = packing.variables, packing.shift
        packed: PackedPoly = {}
        for e, c in terms.items():
            if type(c) is not int:
                raise TypeError(f"coefficients must be int, not {type(c).__name__}")
            if not c:
                raise ValueError(f"zero coefficient at exponent {e!r}")
            if type(e) is tuple and len(e) == nvars:
                m = 0
                for k, x_v in zip(e, variables):  # checks and packs in one pass
                    if type(k) is not int or k < 0:
                        break
                    m += k * x_v
                else:
                    if m >> shift > MAX_DEGREE:  # the degree, or more where a field carried
                        raise _too_large(sum(e))
                    packed[m] = c
                    continue
            raise ValueError(f"exponent {e!r} is not a tuple of {nvars} non-negative ints")
        _set_packed(self, packed)
        _set_nvars(self, nvars)

    @property
    def terms(self) -> IntPoly:
        """The terms by exponent tuple, in the packed map's order, anew on each read."""
        offsets = _PACKINGS[self.nvars].offsets
        return {_unpack(m, offsets): c for m, c in self.packed.items()}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.packed == other.packed and self.nvars == other.nvars

    def __repr__(self) -> str:
        return f"Poly(terms={self.terms!r}, nvars={self.nvars!r})"

    def __reduce__(self):
        return Poly, (self.terms, self.nvars)

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly({}, nvars)

    @staticmethod
    def constant(c: int, nvars: int) -> "Poly":
        _check_nvars(nvars)  # before nvars repeats a tuple
        return Poly.monomial((0,) * nvars, c)

    @staticmethod
    def monomial(exps: Exponent, coeff: int = 1) -> "Poly":
        """coeff * x^exps; an int 0 gives zero once the constructor has
        checked the exponents with 1 in its place."""
        p = Poly({tuple(exps): 1 if coeff == 0 and type(coeff) is int else coeff}, len(exps))
        return p if coeff else Poly.zero(p.nvars)

    def is_zero(self) -> bool:
        return not self.packed

    def constant_term(self) -> int:
        return self.packed.get(0, 0)

    def _same_nvars(self, other: "Poly") -> None:
        if other.nvars != self.nvars:
            raise ValueError(f"operands have {self.nvars} and {other.nvars} variables")

    def __add__(self, other: "Poly") -> "Poly":
        self._same_nvars(other)
        return _unchecked(add_terms(self.packed, other.packed), self.nvars)

    def __neg__(self) -> "Poly":
        return _unchecked(neg_terms(self.packed), self.nvars)

    def __sub__(self, other: "Poly") -> "Poly":
        self._same_nvars(other)
        return _unchecked(add_terms(self.packed, neg_terms(other.packed)), self.nvars)

    def __mul__(self, other: "Poly") -> "Poly":
        self._same_nvars(other)
        return _unchecked(mul_terms(self.packed, other.packed, self.nvars), self.nvars)

    def __pow__(self, k: int) -> "Poly":
        if type(k) is not int:  # a float or a bool would reach pow_terms' bit tests
            raise TypeError(f"the power must be an int, not {type(k).__name__}")
        return _unchecked(pow_terms(self.packed, k, self.nvars), self.nvars)

    def derivative(self, var: int) -> "Poly":
        return _unchecked(derivative_terms(self.packed, var, self.nvars), self.nvars)

    def __str__(self) -> str:
        if not self.packed:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
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


_set_packed, _set_nvars = Poly.packed.__set__, Poly.nvars.__set__  # the slots' own setters


def _unchecked(packed: PackedPoly, nvars: int) -> Poly:
    """A Poly of terms the package built itself from a checked Poly or from
    ints it parsed, so they need no check: nonzero int coefficients, as each
    sum that reaches zero is dropped, and packed monomials of degree at
    most MAX_DEGREE.  ``packed`` must be a map no caller edits."""
    p = object.__new__(Poly)
    _set_packed(p, packed)
    _set_nvars(p, nvars)
    return p


def jacobian(f: Poly) -> list[Poly]:
    """All first partial derivatives of f, one per variable."""
    return [f.derivative(v) for v in range(f.nvars)]


_TOKEN = re.compile(r"[0-9]+|\S")  # a run of ASCII digits, or one non-space character
_SPACED = {c: f" {chr(c)} " for c in range(128) if not (chr(c).isdigit() or chr(c).isspace())}
_VARIABLES = {n: dict(zip(VAR_NAMES, packing.variables)) for n, packing in _PACKINGS.items()}


class _TokenError(Exception):
    """A syntax error at a token index; parse_poly maps it to a character position."""


def _parse_sum(tokens: list[str], i: int, variables: dict[str, int]) -> tuple[PackedPoly, int]:
    """The poly that starts at token i, and the index of the token after it.

    ``tokens`` ends with "", and ``variables`` maps each available variable
    name to its packed monomial.  A syntax error raises _TokenError.  Each
    pass of the outer loop reads one term and adds it to the result.  Number
    and variable factors go into one coefficient and one packed monomial m;
    only a group is a term map.  The term's degree, over m and the group
    powers, is checked as each factor is read, and the group powers are
    expanded at the end of the term.  In the factor loop, i is the index of
    a factor's base, then of the factor's last token.  A token is a natural
    exactly when "0" <= token < ":", as a token that starts with an ASCII
    digit is a run of them.
    """
    nvars = len(variables)
    shift = nvars * FIELD_BITS  # the degree field starts here
    out: PackedPoly = {}
    op = tokens[i]  # a sign before the first term is optional
    while True:
        if op == "+" or op == "-":
            i += 1
        coeff, m, degree, powers = -1 if op == "-" else 1, 0, 0, None
        while True:
            token = tokens[i]
            x_v = variables.get(token)
            if x_v is None:
                if token == "(":
                    base, i = _parse_sum(tokens, i + 1, variables)
                    if tokens[i] != ")":
                        raise _TokenError("expected ')'", i)
                elif not "0" <= token < ":":
                    if token in VAR_NAMES:
                        raise _TokenError(f"variable {token!r} not available with nvars={nvars}", i)
                    raise _TokenError("expected a number, variable, or '('", i)
            k = 1
            if tokens[i + 1] == "^":
                i += 2
                if not "0" <= tokens[i] < ":":
                    raise _TokenError("expected a natural number", i)
                k = int(tokens[i])
            if x_v is not None:
                m += k * x_v
                degree += k
            elif token == "(":
                degree += k * (max(base, default=0) >> shift)
                if powers is None:
                    powers = []
                powers.append((base, k))
            elif k <= MAX_DEGREE:
                coeff *= int(token) ** k
            if degree > MAX_DEGREE:  # refused before any power is expanded
                raise _too_large(degree)
            if k > MAX_DEGREE:  # of a number, or a group of degree 0: it could run for minutes
                raise TjspectraError(f"a power of {k} is beyond the limit of {MAX_DEGREE}")
            if tokens[i + 1] != "*":
                break
            i += 2
        if not coeff:
            terms = ()
        elif powers is None:
            terms = ((m, coeff),)
        else:
            group = None
            for base, k in powers:
                if k != 1:  # a group alone is already expanded
                    base = pow_terms(base, k, nvars)
                group = base if group is None else mul_terms(group, base, nvars)
            if m:
                terms = mul_terms(group, {m: coeff}, nvars).items()
            else:  # a bare number or sign scales the group
                terms = ((e, coeff * c) for e, c in group.items())
        for e, c in terms:
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        op = tokens[i + 1]
        if op != "+" and op != "-":
            return out, i + 1
        i += 1


def parse_poly(text: str, nvars: int = 2) -> Poly:
    """Parse and fully expand a polynomial expression; PolySyntaxError at
    the character position of the token where the grammar fails, and
    TjspectraError for a term of degree beyond MAX_DEGREE, or a power beyond
    it of a number, as soon as the factor that passes it is read."""
    _check_nvars(nvars)
    tokens = text.translate(_SPACED).split() if text.isascii() else _TOKEN.findall(text)
    tokens.append("")
    try:
        p, i = _parse_sum(tokens, 0, _VARIABLES[nvars])
        if tokens[i]:
            raise _TokenError(f"unexpected character {tokens[i][0]!r}", i)
    except _TokenError as exc:
        message, index = exc.args
        starts = [m.start() for m in _TOKEN.finditer(text)] + [len(text)]
        raise PolySyntaxError(message, starts[index]) from None
    return _unchecked(p, nvars)
