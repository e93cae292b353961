import re
import subprocess
import sys
from fractions import Fraction as F
from operator import add, mul, sub

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tjspectra.errors import PolySyntaxError, TjspectraError
from tjspectra.localg import _lead_key, local_std_basis
from tjspectra.poly import (_SPACED, _TOKEN, MAX_DEGREE, VAR_NAMES, Poly, jacobian, parse_poly,
                            pow_terms)


def test_parse_three_terms():
    f = parse_poly("x^7+y^7+x^5*y^5")
    assert f.terms == {(7, 0): 1, (0, 7): 1, (5, 5): 1}


def test_parse_binomial_expansion():
    f = parse_poly("(y^2-x^3)^2-x^5*y")
    assert f.terms == {(0, 4): 1, (3, 2): -2, (6, 0): 1, (5, 1): -1}


def test_parse_syntax_error_reports_position():
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly("x^^2")
    assert exc.value.position == 2


def test_parse_coefficients_and_signs():
    f = parse_poly("-2*x + 3*y^2 - 1")
    assert f.terms == {(1, 0): -2, (0, 2): 3, (0, 0): -1}


def test_parse_nested_groups():
    f = parse_poly("(x+y)^2")
    assert f.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_parse_three_variables():
    f = parse_poly("x*y*z+z^3", nvars=3)
    assert f.terms == {(1, 1, 1): 1, (0, 0, 3): 1}


def test_variable_unavailable():
    with pytest.raises(PolySyntaxError):
        parse_poly("x+z", nvars=2)
    with pytest.raises(TjspectraError, match=r"^nvars must be in \[1, 3\]$"):
        parse_poly("x", nvars=4)


def test_parse_rejects_trailing_garbage():
    with pytest.raises(PolySyntaxError):
        parse_poly("x^2)")


def parse_error_in_a_child(text):
    """The TjspectraError line of parse_poly(text), or "", from a child
    process with a timeout: a parser that expands a power before it checks
    the degree runs for minutes, which then fails the test instead of
    hanging the run."""
    code = ("import sys\nfrom tjspectra.errors import TjspectraError\n"
            "from tjspectra.poly import parse_poly\n"
            "try:\n    parse_poly(sys.argv[1])\nexcept TjspectraError as exc:\n"
            "    print(type(exc).__name__, exc, sep=': ')\n")
    r = subprocess.run([sys.executable, "-c", code, text], capture_output=True, text=True,
                       timeout=20)
    assert (r.returncode, r.stderr) == (0, "")
    return r.stdout


def test_group_powers_of_a_term_are_refused_by_their_degree_sum():
    # each power has degree 30000, their product 60000; nothing is expanded
    assert parse_error_in_a_child("(x^2+y^3)^10000*(x^2+y^3)^10000") == (
        "TjspectraError: a term of degree 60000 is beyond the engine's limit of 32767\n")
    # one power past the limit is refused as it is read, before the rest of the term
    assert parse_error_in_a_child("(x^2+y)^20000*(") == (
        "TjspectraError: a term of degree 40000 is beyond the engine's limit of 32767\n")
    # variable factors count too, in the one running degree of the term
    assert parse_error_in_a_child("x^16384*(x+y)^16384") == (
        "TjspectraError: a term of degree 32768 is beyond the engine's limit of 32767\n")
    assert parse_error_in_a_child("(x+y)^2*y^32766*(") == (
        "TjspectraError: a term of degree 32768 is beyond the engine's limit of 32767\n")
    assert parse_poly("x^32767").terms == {(32767, 0): 1}
    assert parse_poly("x^32764*(x+y)^2*(x-y)") == parse_poly("x^32764*(x^3+x^2*y-x*y^2-y^3)")


def test_a_number_power_past_the_limit_is_refused_as_it_is_read():
    # 9^30000000 alone takes about 40 s; a base of degree 1 or more is
    # refused by its degree
    for text, k in (("9^30000000*x^2+y^2", 30000000), ("(9)^30000000*x^2+y^2", 30000000),
                    ("x^2+(x-x)^32768*(", 32768)):
        assert parse_error_in_a_child(text) == (
            f"TjspectraError: a power of {k} is beyond the limit of 32767\n")
    assert parse_error_in_a_child("x^40000") == (
        "TjspectraError: a term of degree 40000 is beyond the engine's limit of 32767\n")
    assert parse_poly("2^32767*x").terms == {(1, 0): 2 ** 32767}
    assert parse_poly("(x-x)^32767+(3)^2").terms == {(0, 0): 9}


def test_jacobian_simple():
    f = parse_poly("x^3+y^3")
    fx, fy = jacobian(f)
    assert fx.terms == {(2, 0): 3}
    assert fy.terms == {(0, 2): 3}


def test_jacobian_constant():
    f = Poly.constant(5, 2)
    assert all(g.is_zero() for g in jacobian(f))


def test_jacobian_mixed_terms():
    f = parse_poly("x^5+y^4+x^3*y^2")
    fx, fy = jacobian(f)
    assert fx.terms == {(4, 0): 5, (2, 2): 3}
    assert fy.terms == {(0, 3): 4, (3, 1): 2}


def test_poly_arithmetic_cancellation():
    f = parse_poly("x^2+y")
    assert (f - f).is_zero()
    assert (f * Poly.zero(2)).is_zero()


def test_pow_zero_and_one():
    f = parse_poly("x+1")
    assert (f ** 0).terms == {(0, 0): F(1)}
    assert f ** 1 == f


def test_pow_one_is_a_new_map():
    p = {(1, 0): 2, (0, 1): -1}
    assert pow_terms(p, 1, 2) == p
    assert pow_terms(p, 1, 2) is not p
    f = parse_poly("x+1")
    assert (f ** 1).terms == f.terms
    assert (f ** 1).terms is not f.terms


@pytest.mark.parametrize("text", ["x^0", "(x+y)^0", "(-2*y)^0", "0^0", "(x-x)^0"])
def test_power_zero_is_one(text):
    assert parse_poly(text).terms == {(0, 0): 1}


@pytest.mark.parametrize("text", ["x", "-3*x*y^2", "x+1", "0"])
def test_negative_power_raises(text):
    with pytest.raises(ValueError, match="negative power"):
        parse_poly(text) ** -1


@pytest.mark.parametrize("k", [2.0, 1.0, 0.0, True, False, F(2), "2", None])
def test_a_power_that_is_not_an_int_raises(k):
    # refused before pow_terms, whose bit tests take 1.0 and True for 1
    with pytest.raises(TypeError, match=f"^the power must be an int, not {type(k).__name__}$"):
        parse_poly("x+1") ** k


@pytest.mark.parametrize("op", [add, sub, mul])
def test_mixed_nvars_raise(op):
    p, q = Poly({(1, 0): 1}, 2), Poly({(1, 0, 1): 1}, 3)
    with pytest.raises(ValueError):
        op(p, q)
    with pytest.raises(ValueError):
        op(q, p)


# --- the parser against its first form, which combined checked Polys ---

def _ref_mul(p, q):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return Poly({e: c for e, c in out.items() if c}, p.nvars)


def _ref_pow(p, k):
    result = Poly.constant(1, p.nvars)
    while k:
        if k & 1:
            result = _ref_mul(result, p)
        p = _ref_mul(p, p)
        k >>= 1
    return result


def _ref_add(p, q, sign=1):
    out = dict(p.terms)
    for e, c in q.terms.items():
        out[e] = out.get(e, 0) + sign * c
    return Poly({e: c for e, c in out.items() if c}, p.nvars)


class _RefParser:
    def __init__(self, text, nvars):
        self.text, self.pos, self.nvars = text, 0, nvars

    def error(self, message):
        raise PolySyntaxError(message, self.pos)

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self):
        ch = self.peek()
        self.pos += 1
        return ch

    def parse(self):
        p = self.parse_sum()
        if self.peek():
            self.error(f"unexpected character {self.peek()!r}")
        return p

    def parse_sum(self):
        negate = self.peek() in ("+", "-") and self.take() == "-"
        p = self.parse_term()
        if negate:
            p = _ref_add(Poly.zero(self.nvars), p, -1)
        while self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
            p = _ref_add(p, self.parse_term(), sign)
        return p

    def parse_term(self):
        p = self.parse_factor()
        while self.peek() == "*":
            self.take()
            p = _ref_mul(p, self.parse_factor())
        return p

    def parse_factor(self):
        base = self.parse_base()
        if self.peek() == "^":
            self.take()
            return _ref_pow(base, self.parse_natural())
        return base

    def parse_base(self):
        ch = self.peek()
        if ch == "(":
            self.take()
            p = self.parse_sum()
            if self.peek() != ")":
                self.error("expected ')'")
            self.take()
            return p
        if ch.isdigit():
            return Poly.constant(self.parse_natural(), self.nvars)
        if ch in VAR_NAMES:
            idx = VAR_NAMES.index(ch)
            if idx >= self.nvars:
                self.error(f"variable {ch!r} not available with nvars={self.nvars}")
            self.take()
            return Poly.monomial(tuple(int(v == idx) for v in range(self.nvars)))
        self.error("expected a number, variable, or '('")

    def parse_natural(self):
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a natural number")
        return int(self.text[start:self.pos])


@st.composite
def expressions(draw):
    """Valid input text in 1-3 variables: signs, constants, nested groups
    and powers up to 8 (up to 3 on a group, so that nested powers stay
    small), with random spaces and tabs between any two tokens and at both
    ends (never inside a number)."""
    nvars = draw(st.integers(1, 3))
    atoms = st.one_of(st.integers(0, 20).map(str), st.sampled_from(VAR_NAMES[:nvars])
                      ).map(lambda t: [t])

    def extend(inner):
        group = inner.map(lambda t: ["(", *t, ")"])
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*"), group).map(lambda t: [*t[0], t[1], *t[2]]),
            st.tuples(st.sampled_from("-+"), inner.filter(lambda t: t[0] not in "+-")
                      ).map(lambda t: [t[0], *t[1]]),
            st.tuples(group, st.integers(0, 3)).map(lambda t: [*t[0], "^", str(t[1])]),
            st.tuples(atoms, st.integers(0, 8)).map(lambda t: [*t[0], "^", str(t[1])]),
        )

    tokens = draw(st.recursive(atoms, extend, max_leaves=8))
    gaps = draw(st.lists(st.sampled_from(["", "", "", " ", "\t", "  ", " \t "]),
                         min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return "".join(gap + token for gap, token in zip(gaps, tokens + [""])), nvars


@given(expressions())
# a group scaled by a bare number or sign, before or after it, by 0, and a group to the 0
@example(("2*(x+y)^3", 2))
@example(("-(x-y)^2", 2))
@example(("(x+y)^2*3", 2))
@example(("0*(x+y)^2", 2))
@example(("(x+y)^0", 2))
@settings(max_examples=300, deadline=None)
def test_parser_matches_reference(case):
    text, nvars = case
    assert parse_poly(text, nvars) == _RefParser(text, nvars).parse()


def parse_outcome(parse, text, nvars):
    try:
        return parse(text, nvars)
    except PolySyntaxError as exc:
        return str(exc), exc.position


@given(st.text(st.characters(max_codepoint=127)))
@example("1 2\x1cx\x0b^\t34")
@settings(max_examples=300)
def test_ascii_text_splits_into_the_tokens_of_the_regex(text):
    # parse_poly splits ASCII text with str.split once every character
    # that is neither a digit nor whitespace is spaced out
    assert text.translate(_SPACED).split() == _TOKEN.findall(text)


ASCII_TEXTS = st.text(st.sampled_from("0123456789xyz+-*^() \t\x0b\x1c.w"), max_size=16)


@given(ASCII_TEXTS, st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_parser_matches_reference_on_any_ascii_text(text, nvars):
    assume(not re.search(r"[0-9]{2}", text))  # powers below 10 stay small
    assert parse_outcome(parse_poly, text, nvars) == parse_outcome(
        lambda t, n: _RefParser(t, n).parse(), text, nvars)


BAD_INPUTS = [("x^^2", 2), ("x^2)", 2), ("(x+y", 2), ("", 2), ("x+", 2), ("2*", 2),
              ("x^", 2), ("x+z", 2), ("x^-1", 2), ("x y", 2), ("x**2", 2), ("3.5*x", 2),
              ("w", 3), ("x*-y", 3), ("+-x", 1), ("(x)(y)", 2), ("y", 1),
              # whitespace between tokens, so positions map back past it
              ("x ^ ^2", 2), (" (x+y ", 2), ("x^2 3", 2), ("x+\t", 2), ("1 2", 2),
              ("\t", 2), (" x *\t( y + z )", 2), ("x ^\t", 1), ("2 x", 2),
              ("( x ) ( y )", 2), ("x^ 12 34", 2), ("  - - x", 1)]


@pytest.mark.parametrize("text,nvars", BAD_INPUTS)
def test_bad_input_errors_match_reference(text, nvars):
    with pytest.raises(PolySyntaxError) as want:
        _RefParser(text, nvars).parse()
    with pytest.raises(PolySyntaxError) as got:
        parse_poly(text, nvars)
    assert (str(got.value), got.value.position) == (str(want.value), want.value.position)


@pytest.mark.parametrize("text,message,position", [
    ("x^\u00b2", "expected a natural number", 2),                 # x^², a superscript two
    ("\u00b2*x", "expected a number, variable, or '('", 0),       # ²*x
    ("x^\u0663+y^2", "expected a natural number", 2),             # x^٣, an Arabic-Indic three
    ("3\u0663*x", "unexpected character '\u0663'", 1),
])
def test_non_ascii_digits_are_syntax_errors(text, message, position):
    # str.isdigit accepts these; the grammar's natural numbers are ASCII only
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly(text)
    assert str(exc.value) == f"{message} (at position {position})"
    assert exc.value.position == position


INEXACT = [F(1, 2), F(3), 0.5, True, 0.0, False, F(0)]


@pytest.mark.parametrize("coeff", INEXACT, ids=repr)
@pytest.mark.parametrize("build", [
    lambda c: Poly({(1, 0): c}, 2),
    lambda c: Poly.constant(c, 2),
    lambda c: Poly.monomial((1, 2), c),
], ids=["Poly", "constant", "monomial"])
def test_non_int_coefficients_raise(build, coeff):
    with pytest.raises(TypeError):
        build(coeff)


@pytest.mark.parametrize("terms", [
    {(3,): 1, (0, 3): 1},
    {(1, -1): 1},
    {(1.0, 0): 1},
    {(2, 0): 0},
])
def test_malformed_terms_raise(terms):
    with pytest.raises(ValueError):
        Poly(terms, 2)


@pytest.mark.parametrize("exps", [(-1, 0), (1.0, 0), (True, 0)], ids=repr)
def test_a_zero_coefficient_does_not_skip_the_exponent_check(exps):
    with pytest.raises(ValueError, match=re.escape(f"exponent {exps!r} is not a tuple of")):
        Poly.monomial(exps, 0)
    assert Poly.monomial((1, 0), 0) == Poly.constant(0, 2) == Poly.zero(2)


@pytest.mark.parametrize("terms, error, message", [
    ({(1, 0): F(1, 2)}, TypeError, "coefficients must be int, not Fraction"),
    ({(1, 0): True}, TypeError, "coefficients must be int, not bool"),
    ({(-1, 0.5): 0.5}, TypeError, "coefficients must be int, not float"),
    ({(2, 0): 0}, ValueError, "zero coefficient at exponent (2, 0)"),
    ({(-1, 0): 0}, ValueError, "zero coefficient at exponent (-1, 0)"),
    ({(3,): 1}, ValueError, "exponent (3,) is not a tuple of 2 non-negative ints"),
    ({(1, 0, 0): 1}, ValueError, "exponent (1, 0, 0) is not a tuple of 2 non-negative ints"),
    ({(1, -1): 1}, ValueError, "exponent (1, -1) is not a tuple of 2 non-negative ints"),
    ({(1.0, 0): 1}, ValueError, "exponent (1.0, 0) is not a tuple of 2 non-negative ints"),
    ({(True, 0): 1}, ValueError, "exponent (True, 0) is not a tuple of 2 non-negative ints"),
    ({(0, False): 1}, ValueError, "exponent (0, False) is not a tuple of 2 non-negative ints"),
    ({"ab": 1}, ValueError, "exponent 'ab' is not a tuple of 2 non-negative ints"),
    ({(1, 0): 1, (0, -2): 3}, ValueError,
     "exponent (0, -2) is not a tuple of 2 non-negative ints"),
], ids=repr)
def test_invalid_terms_name_the_first_bad_term(terms, error, message):
    with pytest.raises(error) as exc:
        Poly(terms, 2)
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("nvars", [0, 4])
def test_nvars_out_of_range_raises(nvars):
    with pytest.raises(TjspectraError, match=r"nvars must be in \[1, 3\]"):
        Poly({}, nvars)


def test_the_constructor_keeps_a_copy_of_the_terms():
    # the map is checked once, so a later edit of the caller's map must not reach the Poly
    terms = {(2, 0): 1, (0, 3): 1}
    p = Poly(terms, 2)
    terms[(1, 1)] = 0.5
    assert p.terms == {(2, 0): 1, (0, 3): 1}
    assert (p + Poly.zero(2)).terms == {(2, 0): 1, (0, 3): 1}


@pytest.mark.parametrize("nvars, name", [(2.0, "float"), (True, "bool"), (False, "bool"),
                                         ("2", "str"), (None, "NoneType"), (F(2), "Fraction")])
def test_nvars_of_another_type_raises(nvars, name):
    message = f"^nvars must be an int, not {name}$"
    with pytest.raises(TypeError, match=message):
        Poly({(2, 0): 1, (0, 3): 1}, nvars)
    with pytest.raises(TypeError, match=message):
        parse_poly("x^3", nvars=nvars)
    with pytest.raises(TypeError, match=message):
        Poly.zero(nvars)
    with pytest.raises(TypeError, match=message):
        Poly.constant(1, nvars)


# --- every Poly the package builds unchecked passes the public constructor ---

def assert_checked(r):
    """r is a Poly that the constructor accepts unchanged: int nvars,
    nonzero int coefficients and exponents of nvars non-negative ints."""
    assert type(r) is Poly
    assert Poly(dict(r.terms), r.nvars) == r


@st.composite
def poly_pairs(draw):
    """Two polys in the same 1-3 variables, with coefficients of either
    sign and now and then beyond a machine word, so that sums cancel."""
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    coeffs = st.one_of(st.integers(-3, 3), st.sampled_from([2 ** 70, -(2 ** 70)])).filter(bool)
    p, q = (Poly(draw(st.dictionaries(exps, coeffs, max_size=4)), nvars) for _ in range(2))
    return p, draw(st.one_of(st.just(p), st.just(-p), st.just(q)))


@given(poly_pairs(), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_arithmetic_results_pass_the_constructor(pq, k):
    p, q = pq
    for r in (p + q, p - q, -p, p * q, p ** k, *jacobian(p)):  # jacobian: each p.derivative(v)
        assert_checked(r)


@given(poly_pairs(), st.lists(st.integers(1, 5), min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_standard_basis_generators_pass_the_constructor(pq, pure):
    # pure powers of every variable keep the ideal zero-dimensional and the engine fast
    p, q = pq
    gens = [p, q] + [Poly.monomial(tuple(pure[v] * (w == v) for w in range(p.nvars)))
                     for v in range(p.nvars)]
    for r in local_std_basis(gens).generators:
        assert_checked(r)


@given(ASCII_TEXTS, st.integers(1, 3))
@example("(x-x)*y+2-2", 2)
@settings(max_examples=300, deadline=None)
def test_parsed_polys_pass_the_constructor(text, nvars):
    assume(not re.search(r"[0-9]{2}", text))  # powers below 10 stay small
    try:
        r = parse_poly(text, nvars)
    except PolySyntaxError:
        return
    assert_checked(r)


# --- the one degree limit: every term of every Poly has degree at most MAX_DEGREE ---

def too_large(degree):
    return f"^a term of degree {degree} is beyond the engine's limit of 32767$"


def spread(degree, nvars):
    """An exponent tuple of the given degree, spread evenly over nvars variables."""
    return tuple(degree // nvars + (v < degree % nvars) for v in range(nvars))


def test_each_build_takes_a_term_of_the_largest_degree():
    for nvars in (1, 2, 3):
        for e in [tuple(MAX_DEGREE * (w == v) for w in range(nvars)) for v in range(nvars)] + [
                spread(MAX_DEGREE, nvars)]:
            text = "*".join(f"{name}^{k}" for name, k in zip(VAR_NAMES, e))
            low = tuple(k - (k == max(e) and e.index(k) == v) for v, k in enumerate(e))
            one = tuple(a - b for a, b in zip(e, low))
            for p in (Poly({e: 1}, nvars), Poly.monomial(e), parse_poly(text, nvars),
                      Poly.monomial(low) * Poly.monomial(one)):
                assert p.terms == {e: 1} and p.nvars == nvars
        x = Poly.monomial(tuple(int(w == 0) for w in range(nvars)))
        assert (x ** MAX_DEGREE).terms == {(MAX_DEGREE,) + (0,) * (nvars - 1): 1}


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_a_term_past_the_limit_is_refused(nvars):
    """Degree MAX_DEGREE + 1 = 32768, in each variable and spread over all
    of them: each way of building such a term raises one TjspectraError
    with the engine's message, naming the degree of the term (for the
    parser, of the term read so far)."""
    for v in range(nvars):
        x_v = tuple(int(w == v) for w in range(nvars))
        e = tuple(k * (MAX_DEGREE + 1) for k in x_v)
        name = VAR_NAMES[v]
        builds = [
            (lambda: parse_poly(f"{name}^32768+{name}", nvars), 32768),
            (lambda: parse_poly(f"{name}^32767*{name}*{name}^4", nvars), 32768),
            (lambda: Poly({x_v: 1, e: 3}, nvars), 32768),
            (lambda: Poly({spread(32768, nvars): 1}, nvars), 32768),
            (lambda: Poly.monomial(e, -1), 32768),
            (lambda: Poly.monomial(tuple(MAX_DEGREE * k for k in x_v)) * Poly.monomial(x_v),
             32768),
            (lambda: Poly.monomial(tuple(16384 * k for k in x_v)) ** 2, 32768),
            (lambda: (Poly.monomial(tuple(16384 * k for k in x_v)) + Poly.constant(1, nvars))
             ** 3, 49152),
            (lambda: (Poly.constant(1, nvars) + Poly.monomial(tuple(20000 * k for k in x_v)))
             * (Poly.monomial(tuple(15000 * k for k in x_v)) + Poly.monomial(x_v)), 35000),
        ]
        for build, degree in builds:
            with pytest.raises(TjspectraError, match=too_large(degree)):
                build()


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_an_exponent_past_its_field_is_refused(nvars):
    """Exponent 65536 and more, past a 16-bit field, is past the degree
    limit too, and stays refused: each way of building it raises one
    TjspectraError with the engine's message, naming the degree of the
    term (for the parser, of the term read so far)."""
    for v in range(nvars):
        x_v = tuple(int(w == v) for w in range(nvars))
        e = tuple(k * 65536 for k in x_v)
        name = VAR_NAMES[v]
        builds = [
            (lambda: parse_poly(f"{name}^65536+{name}", nvars), 65536),
            (lambda: parse_poly(f"{name}*{name}^65535*{name}^4", nvars), 65536),
            (lambda: parse_poly(f"2*{name}^70000*({name}+1)", nvars), 70000),
            (lambda: Poly({x_v: 1, e: 3}, nvars), 65536),
            (lambda: Poly.monomial(e, -1), 65536),
            (lambda: Poly.monomial(e, 0), 65536),
            (lambda: Poly.monomial(tuple(MAX_DEGREE * k for k in x_v)) ** 3, 3 * MAX_DEGREE),
        ]
        for build, degree in builds:
            with pytest.raises(TjspectraError, match=too_large(degree)):
                build()


def test_a_power_past_a_field_is_refused_before_its_first_squaring():
    """(x+1)^65536, past a field, and (x+1)^32768, past the limit, are
    refused by their degree k * deg p before any product; squaring up to
    (x+1)^16384 runs for minutes, which then fails the test instead of
    hanging the run."""
    code = ("from tjspectra.errors import TjspectraError\n"
            "from tjspectra.poly import Poly\n"
            "for k in (65536, 32768):\n"
            "    try:\n        (Poly.monomial((1, 0)) + Poly.constant(1, 2)) ** k\n"
            "    except TjspectraError as exc:\n        print(type(exc).__name__, exc, sep=': ')\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == "".join(f"TjspectraError: a term of degree {k} is beyond the engine's "
                               "limit of 32767\n" for k in (65536, 32768))
    # the error names k * deg p, whatever the power the squaring would pass the limit at
    p = Poly.monomial((10922,)) + Poly.constant(1, 1)
    assert (p ** 3).terms == {(32766,): 1, (21844,): 3, (10922,): 3, (0,): 1}
    for k in (4, 5, 7, 1 << 40):
        with pytest.raises(TjspectraError, match=too_large(k * 10922)):
            p ** k
    p = Poly.monomial((16382, 1)) + Poly.monomial((0, 2))
    assert (p ** 2).terms == {(32764, 2): 1, (16382, 3): 2, (0, 4): 1}
    with pytest.raises(TjspectraError, match=too_large(3 * 16383)):
        p ** 3


@st.composite
def wide_polys(draw, nvars=None):
    """A Poly in 1-3 variables (or nvars) whose terms reach the degree
    limit, in one variable or spread over several."""
    if nvars is None:
        nvars = draw(st.integers(1, 3))
    degrees = st.one_of(st.integers(0, 3), st.integers(MAX_DEGREE - 3, MAX_DEGREE),
                        st.integers(0, MAX_DEGREE))

    def exponent():
        degree = draw(degrees)
        cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=nvars - 1,
                                    max_size=nvars - 1)))
        return tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree]))

    coefficient = st.integers(-3, 3).filter(bool)
    return Poly({exponent(): draw(coefficient) for _ in range(draw(st.integers(0, 6)))}, nvars)


def degree(p):
    return max(map(sum, p.terms), default=0)


def has_degree_or_names_it(build, want):
    """build() makes a Poly of degree want when want is at most MAX_DEGREE,
    and raises naming want when it is more; the Poly is returned, or None."""
    if want > MAX_DEGREE:
        with pytest.raises(TjspectraError, match=too_large(want)):
            build()
        return None
    r = build()
    assert degree(r) == want
    return r


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_a_product_and_a_power_have_their_degree_or_name_it(data):
    """p * q has degree deg p + deg q, as its top term cannot cancel, or
    raises naming it; p ** k likewise with k * deg p.  Large powers are
    taken of one term, so that the expansion stays fast."""
    p = data.draw(wide_polys(), "p")
    q = data.draw(wide_polys(p.nvars), "q")
    r = has_degree_or_names_it(lambda: p * q, degree(p) + degree(q) if p.terms and q.terms else 0)
    if r is not None:
        assert r == _ref_mul(p, q)
    k = data.draw(st.integers(0, 3), "k")
    has_degree_or_names_it(lambda: p ** k, k * degree(p))
    term = Poly(dict(list(p.terms.items())[:1]), p.nvars)
    k = data.draw(st.one_of(st.integers(0, 3), st.integers(0, 2 * MAX_DEGREE + 2)), "k for a term")
    has_degree_or_names_it(lambda: term ** k, k * degree(term))


@given(wide_polys())
@settings(max_examples=200)
def test_packed_monomials_sort_as_lead_key_sorts_the_terms_view(p):
    # the view lists the terms in the packed map's order
    assert len(p.packed) == len(p.terms)
    exponents = dict(zip(p.packed, p.terms))
    assert [exponents[m] for m in sorted(p.packed)] == sorted(p.terms, key=_lead_key)
    assert Poly(p.terms, p.nvars) == p
    assert p.constant_term() == p.terms.get((0,) * p.nvars, 0)
