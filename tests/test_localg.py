import pickle
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tjspectra import cli, localg
from tjspectra.errors import TjspectraError
from tjspectra.families import swh_instance
from tjspectra.localg import (FIELD_BITS, INFINITE, MAX_DEGREE, StdBasisResult,
                              _colength_of_leads,
                              _lead_key, _monomials_up_to, _Packing,
                              colength_oracle, local_std_basis, milnor, tjurina)
from tjspectra.poly import MAX_VARS, Poly, jacobian, parse_poly
from tjspectra.verify import ORACLE_CAP, ORACLE_CORPUS, ORACLE_CORPUS_3, swh_grid


def gens_of(*texts):
    return [parse_poly(t) for t in texts]


def ref_order_key(e):
    """The local degree order, written apart from the engine's key for the
    reference loops below: larger key = larger monomial, lower total degree
    first, ties by reverse lexicographic with x > y > z."""
    return (-sum(e), tuple(-c for c in reversed(e)))


def test_order_prefers_low_degree():
    # the last pair ties on degree: x > y under revlex with x > y
    for big, small in [((1, 0), (2, 0)), ((1, 0), (0, 2)), ((1, 0), (0, 1))]:
        assert ref_order_key(big) > ref_order_key(small)
        for p in ({small: 1, big: 1}, {big: 1, small: 1}):
            assert min(p, key=_lead_key) == big


def test_std_basis_monomial_ideal():
    r = local_std_basis(gens_of("x^2", "y^2"))
    assert set(r.lead_exponents) >= {(2, 0), (0, 2)}
    assert r.colength == 4


def test_std_basis_unit_multiple():
    # x^3 + x^4 = x^3(1 + x): lead ideal (y, x^3), colength 3
    r = local_std_basis(gens_of("y", "x^3+x^4"))
    assert r.colength == 3
    assert r.colength == colength_oracle(gens_of("y", "x^3+x^4"), 8)


def test_std_basis_generators_have_int_coefficients():
    f = parse_poly("7*x^6+5*x^4*y^5-3*x*y^7")
    r = local_std_basis(jacobian(f) + [f])
    assert all(type(c) is int for g in r.generators for c in g.terms.values())


def test_oracle_pivots_are_ints():
    gens = gens_of("3*x^2+2*y^3", "5*y^2")
    pivots = _span_pivots(gens, 6)
    assert pivots
    assert all(type(c) is int for row in pivots.values() for c in row.values())
    assert all(gcd(*row.values()) == 1 for row in pivots.values())
    assert colength_oracle(gens, 6) == local_std_basis(gens).colength


def test_std_basis_infinite_colength():
    r = local_std_basis(gens_of("x*y^2", "x^2*y"))
    assert r.colength == INFINITE


def test_std_basis_deterministic():
    a = local_std_basis(gens_of("7*x^6+5*x^4*y^5", "7*y^6+5*x^5*y^4"))
    b = local_std_basis(gens_of("7*x^6+5*x^4*y^5", "7*y^6+5*x^5*y^4"))
    assert a == b


def test_milnor_and_tjurina_build_no_generator(monkeypatch):
    f = parse_poly("x^7+y^7+x^5*y^5")
    jac = jacobian(f)

    def refuse(*args, **kwargs):
        raise AssertionError("the engine built a generator")

    monkeypatch.setattr(localg, "Poly", refuse)
    monkeypatch.setattr(localg, "_unchecked", refuse)  # the builder local_std_basis uses
    monkeypatch.setattr(localg, "StdBasisResult", refuse)
    # every Poly Jacobian, poly.jacobian's included, is built by Poly.derivative
    monkeypatch.setattr(Poly, "derivative", refuse)
    assert milnor(f) == 36
    assert tjurina(f) == 35
    # the patches do catch a build: a Jacobian, and the generators that
    # local_std_basis builds before its result
    with pytest.raises(AssertionError, match="built a generator"):
        jacobian(f)
    with pytest.raises(AssertionError, match="built a generator"):
        local_std_basis(jac)
    monkeypatch.setattr(localg, "StdBasisResult", StdBasisResult)
    with pytest.raises(AssertionError, match="built a generator"):
        local_std_basis(jac)


def reference_number(f, ideal):
    """milnor(f) or tjurina(f) the long way: the input checks, then
    local_std_basis on the Poly Jacobian (and f), which packs each
    generator itself."""
    if ideal == "tjurina" and f.constant_term():
        raise TjspectraError("tjurina number requires f(0) = 0")
    degree = max(map(sum, f.terms), default=0)
    if degree > MAX_DEGREE:
        raise TjspectraError(f"a term of degree {degree} is beyond the engine's "
                             f"limit of {MAX_DEGREE}")
    name, if_zero = {"milnor": ("Jacobian ideal", "all partial derivatives vanish identically"),
                     "tjurina": ("ideal (df, f)", "zero polynomial")}[ideal]
    gens = [g for g in jacobian(f) + ([f] if ideal == "tjurina" else []) if not g.is_zero()]
    if not gens:
        raise TjspectraError(if_zero)
    colength = local_std_basis(gens).colength
    if colength == INFINITE:
        raise TjspectraError(f"{name} of {f} has infinite colength")
    return colength


def outcome(fn, *args):
    try:
        return fn(*args)
    except TjspectraError as exc:
        return type(exc), str(exc)


@st.composite
def engine_polys(draw):
    """f in 1-3 variables.  Each variable is left out of f, so that its
    partial vanishes, or f holds a pure power of it: a small one, or one at
    the top of a field or just beyond.  The other terms are in the
    variables with a small power, strictly above the Newton diagonal those
    powers span, so the singularity is isolated in them and the engine
    stays fast.  Coefficients are of either sign and share a factor, and
    now and then a constant term makes tjurina refuse f."""
    nvars = draw(st.integers(1, 3))
    coefficient = st.integers(-4, 4).filter(bool)
    top = st.integers(MAX_DEGREE - 2, MAX_DEGREE + 1)
    powers = [draw(st.one_of(st.none(), st.integers(1, 6), top)) for _ in range(nvars)]
    small = [k if k is not None and k <= 6 else None for k in powers]
    terms = {}
    for e in draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars), max_size=4)):
        if all(small[v] or not k for v, k in enumerate(e)) and sum(
                Fraction(k, small[v]) for v, k in enumerate(e) if k) > 1:
            terms[e] = draw(coefficient)
    for v, k in enumerate(powers):
        if k is not None:
            terms[tuple(k if w == v else 0 for w in range(nvars))] = draw(coefficient)
    if draw(st.integers(0, 3)) == 0:
        terms[(0,) * nvars] = draw(coefficient)
    content = draw(st.sampled_from([1, 2, 6]))
    return Poly({e: content * c for e, c in terms.items()}, nvars)


@given(engine_polys())
# two draws that took minutes before the one-term cut
@example(parse_poly("x^3*z^3-2*x^5-2*y^32767+4*z^4", nvars=3))
@example(parse_poly("6*x^32766-4*y^3+8*y^2+8*z^32765", nvars=3))
@example(parse_poly(f"6*x^{MAX_DEGREE}-4*y^2"))
@example(parse_poly(f"x^{MAX_DEGREE + 1}+y^{MAX_DEGREE + 3}+x*y"))
@example(parse_poly("3*x^2-3*x^3", nvars=3))
@example(parse_poly("0"))
@settings(max_examples=200, deadline=None)
def test_milnor_and_tjurina_match_the_std_basis_of_the_poly_jacobian(f):
    for ideal, number in (("milnor", milnor), ("tjurina", tjurina)):
        assert outcome(number, f) == outcome(reference_number, f, ideal)


def euler_remainder(f):
    """D*f - sum (D/p_v)*x_v*df/dx_v when f has exactly one pure power
    x_v^(p_v) of each variable, D = lcm(p_v); None otherwise.  Poly
    arithmetic throughout, apart from the engine's packed route."""
    powers = {}
    for e in f.terms:
        support = [v for v, k in enumerate(e) if k]
        if len(support) == 1:
            powers.setdefault(support[0], []).append(e[support[0]])
    if len(powers) < f.nvars or any(len(p) > 1 for p in powers.values()):
        return None
    d = lcm(*(p for p, in powers.values()))
    g = Poly.constant(d, f.nvars) * f
    for v, (p,) in powers.items():
        x_v = tuple(int(w == v) for w in range(f.nvars))
        g = g - Poly.monomial(x_v, d // p) * f.derivative(v)
    return g


def tjurina_tail(f):
    """What tjurina hands the engine after the partials: the monomial of
    f's Euler remainder when it has one term, nothing when it is 0, and f
    itself otherwise."""
    g = euler_remainder(f)
    if g is not None and len(g.terms) < 2:
        return [Poly.monomial(e) for e in g.terms]
    return [f]


@given(engine_polys())
@example(parse_poly(f"6*x^{MAX_DEGREE}-4*y^2"))
@example(parse_poly(f"x^{MAX_DEGREE}+y^{MAX_DEGREE - 1}+x^2*y^3"))
@example(parse_poly(f"x^{MAX_DEGREE + 1}+y^2"))
@example(parse_poly("x^2+y^3+z^4+x*y*z^2", nvars=3))
@example(parse_poly("x^5+y^5+x^3*y^3+x^2*y^4"))  # a remainder of two terms
@example(parse_poly("x^3+y^4+x^5"))               # two pure powers of x
@settings(max_examples=200, deadline=None)
def test_the_packed_front_end_hands_the_engine_the_content_free_jacobian(f):
    """milnor and tjurina form the partials on f's packed terms: the
    generators they pass to _std_int are the nonzero Poly partials,
    content-free and packed, in that order, and nothing is unpacked on the
    way.  tjurina then passes f's Euler remainder where it has at most one
    term (its monomial, or nothing for a weighted homogeneous f) and f
    otherwise.  Past the degree limit, or for tjurina with a constant
    term, the engine is not called."""
    packing = localg._PACKINGS[f.nvars]
    passed, unpacked = [], []
    std_int, unpack = localg._std_int, _Packing.unpack

    def spy(gens, packing):
        passed.append(list(gens))
        return std_int(passed[-1], packing)

    def counting(self, m):
        unpacked.append(m)
        return unpack(self, m)

    packs = max(map(sum, f.terms), default=0) <= MAX_DEGREE
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(localg, "_std_int", spy)
        patch.setattr(_Packing, "unpack", counting)
        for number, with_f in ((milnor, False), (tjurina, True)):
            passed.clear()
            outcome(number, f)
            gens = [g for g in jacobian(f) if not g.is_zero()]
            if with_f and not f.is_zero():
                gens += tjurina_tail(f)
            if packs and gens and not (with_f and f.constant_term()):
                want = [{packing.pack(e): c for e, c in localg._strip_content(g.terms).items()}
                        for g in gens]
                assert [list(g.items()) for g in passed[0]] == [list(g.items()) for g in want]
            else:
                assert passed == []
    assert unpacked == []


@st.composite
def one_term_remainders(draw):
    """One pure power x_v^(2..9) of each of 1-3 variables, plus one term
    with exponents 0..5 anywhere: below the Newton diagonal, on it, a
    constant, or on a pure power, whose coefficient it changes or cancels."""
    nvars = draw(st.integers(1, 3))
    coefficient = st.sampled_from([-3, -2, -1, 1, 2, 3])
    terms = {tuple(draw(st.integers(2, 9)) if w == v else 0 for w in range(nvars)):
             draw(coefficient) for v in range(nvars)}
    e = draw(st.tuples(*[st.integers(0, 5)] * nvars))
    terms[e] = terms.get(e, 0) + draw(coefficient)
    return Poly({e: c for e, c in terms.items() if c}, nvars)


@given(one_term_remainders())
@example(parse_poly("x^7+y^7+x^5*y^5"))        # above the diagonal: tau 35
@example(parse_poly("x^7+y^7+x^2*y^2"))        # below it
@example(parse_poly("x^3+y^4+2*x^2*y^2"))      # on it: weighted homogeneous
@example(parse_poly("x^3+y^4-x^3"))            # a cancelled pure power
@example(parse_poly("x^5+2*x^3", nvars=1))     # two pure powers of x
@settings(max_examples=300, deadline=None)
def test_tjurina_with_a_one_term_euler_remainder_matches_the_std_basis(f):
    assert outcome(tjurina, f) == outcome(reference_number, f, "tjurina")


def _public(r):
    return r.generators, r.lead_exponents, r.colength


def test_std_basis_result_is_plain_data():
    ideals = [("7*x^6+5*x^4*y^5", "7*y^6+5*x^5*y^4"), ("x^2", "y^2"), ("x^2", "y^2", "x*y"),
              ("x*y^2", "x^2*y"), ("y", "x^3+x^4")]
    results = [local_std_basis(gens_of(*texts)) for texts in ideals]
    results.append(local_std_basis([parse_poly("x^2", nvars=3), parse_poly("y^2", nvars=3)]))
    again = local_std_basis(gens_of(*ideals[0]))
    assert again == results[0]
    for r in results:
        assert pickle.loads(pickle.dumps(r)) == r
        assert repr(r) == (f"StdBasisResult(generators={r.generators!r}, "
                           f"lead_exponents={r.lead_exponents!r}, colength={r.colength!r})")
        for s in results:
            assert (r == s) == (_public(r) == _public(s))


def test_milnor_tjurina_counterexample():
    f = parse_poly("x^7+y^7+x^5*y^5")
    assert milnor(f) == 36
    assert tjurina(f) == 35


def test_milnor_tjurina_swh_5411():
    f = parse_poly("x^5+y^4+x^3*y^2")
    assert milnor(f) == 12
    assert tjurina(f) == 11


def test_milnor_rejects_non_isolated():
    with pytest.raises(TjspectraError,
                       match=r"^Jacobian ideal of x\^2\*y\^2 has infinite colength$"):
        milnor(parse_poly("x^2*y^2"))


def test_tjurina_rejects_nonzero_constant():
    with pytest.raises(TjspectraError, match=r"^tjurina number requires f\(0\) = 0$"):
        tjurina(parse_poly("1+x^2+y^2"))


def test_colength_oracle_monomial():
    assert colength_oracle(gens_of("x^2", "y^2"), 6) == 4


def test_colength_oracle_x3y3():
    assert colength_oracle(gens_of("3*x^2", "3*y^2"), 6) == 4
    assert milnor(parse_poly("x^3+y^3")) == 4


def test_colength_oracle_unstable_on_non_isolated():
    assert colength_oracle(gens_of("x*y^2", "x^2*y"), 8) is None


@pytest.mark.parametrize("gens", [[], [parse_poly("x^2"), parse_poly("y^2+z^2", nvars=3)]],
                         ids=["no generators", "mixed nvars"])
@pytest.mark.parametrize("colength", [local_std_basis, lambda gens: colength_oracle(gens, 6)],
                         ids=["engine", "oracle"])
def test_generators_are_checked_up_front(colength, gens):
    with pytest.raises(ValueError, match="generator"):
        colength(gens)


def test_oracle_rejects_a_negative_cap():
    with pytest.raises(ValueError, match="degree_cap"):
        colength_oracle(gens_of("x^2", "y^2"), -1)


@pytest.mark.parametrize("text", ORACLE_CORPUS)
def test_oracle_equivalence(text):
    gens = [g for g in jacobian(parse_poly(text)) if not g.is_zero()]
    assert local_std_basis(gens).colength == colength_oracle(gens, ORACLE_CAP)


def test_puiseux_polynomial_numbers():
    f = parse_poly("(y^2-x^3)^2-x^5*y")
    assert milnor(f) == 16
    assert tjurina(f) == 14


@pytest.mark.parametrize("text", ORACLE_CORPUS)
def test_mu_at_least_tau(text):
    f = parse_poly(text)
    assert milnor(f) >= tjurina(f)


def test_weighted_homogeneous_mu_equals_tau():
    for a, b in [(2, 3), (3, 3), (4, 5), (6, 7)]:
        f = parse_poly(f"x^{a}+y^{b}")
        assert milnor(f) == tjurina(f) == (a - 1) * (b - 1)


def test_three_variables():
    f = parse_poly("x^2+y^2+z^2", nvars=3)
    assert milnor(f) == 1
    f = parse_poly("x^3+y^3+z^3", nvars=3)
    assert milnor(f) == 8


def test_swh_family_cross_checks():
    # closed-form mu and tau of the deformation family vs the engine
    for p in swh_grid(9):
        inst = swh_instance(p)
        assert milnor(inst.defining_poly) == (p.a - 1) * (p.b - 1)
        assert tjurina(inst.defining_poly) == inst.tau


# --- pins of the fast paths against their earlier, direct forms ---

def _span_pivots(gens, cap):
    """The pivot rows of localg._pivot_rows, keyed by their lead monomial
    and with their terms on exponent tuples."""
    columns, pivots = localg._pivot_rows(gens, cap)
    return {columns[lead]: {columns[k]: c for k, c in piv.items()}
            for lead, piv in pivots.items()}


def _fraction_reduce(row, pivots):
    """Reduce row by Fraction pivot rows, each with lead coefficient 1,
    until its lead has no pivot; the remainder is empty exactly when row
    lies in their span."""
    while row:
        lead = max(row, key=ref_order_key)
        piv = pivots.get(lead)
        if piv is None:
            break
        factor = row[lead]
        for e, c in piv.items():
            s = row.get(e, 0) - factor * c
            if s:
                row[e] = s
            else:
                row.pop(e, None)
    return row


def _fraction_span_pivots(gens, cap):
    """The oracle's row reduction as first written, over Fraction, with
    every monomial multiple of every generator reduced and no row skipped:
    every pivot row is divided by its lead coefficient."""
    pivots = {}
    nvars = gens[0].nvars
    for g in gens:
        min_deg = min(sum(e) for e in g.terms)
        for m in _monomials_up_to(nvars, cap - min_deg):
            row = {}
            for e, c in g.terms.items():
                ee = tuple(a + b for a, b in zip(e, m))
                if sum(ee) <= cap:
                    row[ee] = c
            row = _fraction_reduce(row, pivots)
            if row:
                lead = max(row, key=ref_order_key)
                pivots[lead] = {e: Fraction(c) / row[lead] for e, c in row.items()}
    return pivots


def assert_integer_pivots_span_the_fraction_pivots(gens, cap):
    """The oracle's pivots have the leads of the elimination that skips no
    row, and each of its rows lies in that span: with equal dimensions,
    the two spans are equal."""
    got = _span_pivots(gens, cap)
    want = _fraction_span_pivots(gens, cap)
    assert set(got) == set(want)
    for lead, row in got.items():
        assert min(row, key=_lead_key) == lead
        assert not _fraction_reduce(dict(row), want)


@pytest.mark.parametrize("text", ORACLE_CORPUS)
def test_integer_pivots_are_multiples_of_fraction_pivots(text):
    f = parse_poly(text)
    gens = [g for g in jacobian(f) if not g.is_zero()] + [f]
    assert_integer_pivots_span_the_fraction_pivots(gens, ORACLE_CAP)


@pytest.mark.parametrize("text, cap", ORACLE_CORPUS_3)
def test_integer_pivots_are_multiples_of_fraction_pivots_in_3_variables(text, cap):
    f = parse_poly(text, nvars=3)
    gens = [g for g in jacobian(f) if not g.is_zero()] + [f]
    assert_integer_pivots_span_the_fraction_pivots(gens, cap)


def _oracle_dim(gens, cap):
    pivots = _span_pivots(gens, cap)
    return len(_monomials_up_to(gens[0].nvars, cap)) - len(pivots), set(pivots)


def _two_elimination_oracle(gens, cap):
    """colength_oracle as first written: one elimination at cap N and one
    at N+1, each read for its own dimension."""
    nvars = gens[0].nvars
    dim_n, leads = _oracle_dim(gens, cap)
    dim_n1, _ = _oracle_dim(gens, cap + 1)
    if dim_n != dim_n1:
        return None
    for v in range(nvars):
        if not any(e[v] > 0 and all(e[w] == 0 for w in range(nvars) if w != v)
                   for e in leads):
            return None
    return dim_n


def assert_oracle_matches_two_eliminations(gens, cap):
    assert colength_oracle(gens, cap) == _two_elimination_oracle(gens, cap)
    low = {e for e in _span_pivots(gens, cap + 1) if sum(e) <= cap}
    assert low == set(_span_pivots(gens, cap))


@st.composite
def oracle_cases(draw):
    """One to three random polynomials in 2 or 3 variables, with a pure
    power of some variables (isolated or not), and a cap that may be too
    low for the oracle to settle."""
    nvars = draw(st.integers(2, 3))
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    terms = st.dictionaries(exps, st.integers(-3, 3).filter(bool), min_size=1, max_size=4)
    gens = [Poly(t, nvars) for t in draw(st.lists(terms, min_size=1, max_size=3))]
    for v in range(nvars):
        if draw(st.booleans()):
            k = draw(st.integers(1, 5))
            gens.append(Poly.monomial(tuple(k if w == v else 0 for w in range(nvars))))
    return gens, draw(st.integers(0, 9 if nvars == 2 else 6))


@given(oracle_cases())
@settings(max_examples=150, deadline=None)
def test_oracle_matches_two_eliminations_on_random_ideals(case):
    assert_oracle_matches_two_eliminations(*case)


@given(oracle_cases())
@settings(max_examples=150, deadline=None)
def test_integer_pivots_are_multiples_of_fraction_pivots_on_random_ideals(case):
    assert_integer_pivots_span_the_fraction_pivots(*case)


@given(oracle_cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_skipped_rows_keep_the_span_of_shuffled_and_repeated_generators(case, data):
    """The oracle skips the multiples of a generator by leads that earlier
    generators made; the leads and the answer do not depend on the order
    of the generators or on repeats among them."""
    gens, cap = case
    mixed = data.draw(st.permutations(gens + data.draw(st.lists(st.sampled_from(gens),
                                                                max_size=3))))
    assert_integer_pivots_span_the_fraction_pivots(mixed, cap)
    assert set(_span_pivots(mixed, cap)) == set(_fraction_span_pivots(gens, cap))
    assert colength_oracle(mixed, cap) == colength_oracle(gens, cap)


def test_oracle_reads_no_packing(monkeypatch):
    """The oracle checks the engine, so it must not share the engine's
    packing: with _Packing broken it still counts every colength."""
    cases = []
    for text in ORACLE_CORPUS:
        f = parse_poly(text)
        jac = [g for g in jacobian(f) if not g.is_zero()]
        cases += [(jac, milnor(f)), (jac + [f], tjurina(f))]

    def broken(*args):
        raise AssertionError("the oracle read the packing")

    monkeypatch.setattr(_Packing, "pack", broken)
    monkeypatch.setattr(_Packing, "unpack", broken)
    with pytest.raises(AssertionError, match="packing"):
        local_std_basis(cases[0][0])
    for gens, colength in cases:
        assert colength_oracle(gens, ORACLE_CAP) == colength


def fresh_columns(nvars, cap):
    """The oracle's column table built anew, apart from _columns."""
    monomials = sorted((e for e in product(range(cap + 1), repeat=nvars) if sum(e) <= cap),
                       key=_lead_key)
    powers = [(cap + 1) ** v for v in range(nvars)]
    codes = [sum(map(mul, e, powers)) for e in monomials]
    rank = [None] * (cap + 1) ** nvars
    for r, code in enumerate(codes):
        rank[code] = r
    axis = [e.index(max(e)) if sum(e) == max(e) > 0 else None for e in monomials]
    return monomials, codes, [sum(e) for e in monomials], powers, rank, axis


def test_the_column_table_is_a_fresh_sort_that_no_elimination_changes():
    for nvars in range(1, MAX_VARS + 1):
        for cap in range(16):
            table = localg._columns(nvars, cap)
            assert [list(part) for part in table] == list(fresh_columns(nvars, cap))
            assert all(type(part) is tuple for part in table)
    f = parse_poly("x^3+y^3+2*x^2*y^2")
    gens = [g for g in jacobian(f) if not g.is_zero()] + [f]
    table = localg._columns(2, 7)
    localg._pivot_rows(gens, 7)
    assert localg._columns(2, 7) is table
    assert [list(part) for part in table] == list(fresh_columns(2, 7))


def test_oracle_answers_do_not_depend_on_the_caps_called_between():
    cases = []
    for text, nvars in [(t, 2) for t in ORACLE_CORPUS[:6]] + [(t, 3) for t, _ in ORACLE_CORPUS_3]:
        f = parse_poly(text, nvars=nvars)
        cases.append([g for g in jacobian(f) if not g.is_zero()] + [f])
    caps = [0, 3, 5, 8, 11]
    localg._columns.cache_clear()
    want = {(i, cap): colength_oracle(gens, cap) for cap in caps for i, gens in enumerate(cases)}
    # other caps and numbers of variables, and more pairs than the cache
    # keeps, come in between
    for cap in reversed(range(20)):
        colength_oracle(gens_of("x^2", "y^2"), cap)
        localg._columns(3, cap % 13)
        localg._columns(1, cap)
        for i, gens in enumerate(cases):
            if cap in caps:
                assert colength_oracle(gens, cap) == want[i, cap]
    assert localg._columns.cache_info().currsize <= 16


@pytest.mark.parametrize("text", ORACLE_CORPUS)
def test_oracle_matches_two_eliminations_on_the_corpus(text):
    f = parse_poly(text)
    jac = [g for g in jacobian(f) if not g.is_zero()]
    assert_oracle_matches_two_eliminations(jac, ORACLE_CAP)
    assert_oracle_matches_two_eliminations(jac + [f], ORACLE_CAP)


@pytest.mark.parametrize("texts, cap", [(("x*y^2", "x^2*y"), 8), (("x^5", "5*y^4"), 3)],
                         ids=["non-isolated", "cap too low"])
def test_oracle_matches_two_eliminations_when_unsettled(texts, cap):
    gens = gens_of(*texts)
    assert _two_elimination_oracle(gens, cap) is None
    assert_oracle_matches_two_eliminations(gens, cap)


def _ref_lead(p):
    return max(p, key=ref_order_key)


def _ref_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _ref_ecart(p, lm):
    return max(sum(e) for e in p) - sum(lm)


def _ref_content_free(p):
    g = 0
    for c in p.values():
        g = gcd(g, c)
    return {e: c // g for e, c in p.items()} if g > 1 else p


def _ref_without_multiples(p, monomials):
    """p content-free, without the terms that one of the monomials divides."""
    return _ref_content_free({e: c for e, c in p.items()
                              if not any(_ref_divides(u, e) for u in monomials)})


def _ref_combine(f, df, a, g, dg, b, corner, monomials):
    """a * x^df * f - b * x^dg * g, content removed, without the terms of
    degree corner or more (corner None: keep every term) and those that
    one of the monomials divides."""
    out = {}
    for p, d, k in ((f, df, a), (g, dg, -b)):
        for e, c in p.items():
            e = tuple(x + y for x, y in zip(e, d))
            if corner is None or sum(e) < corner:
                out[e] = out.get(e, 0) + k * c
    return _ref_without_multiples({e: c for e, c in out.items() if c}, monomials)


def _ref_cancel(f, lm_f, g, lm_g, lcm, corner, monomials):
    cf, cg = f[lm_f], g[lm_g]
    d = gcd(cf, cg)
    return _ref_combine(f, tuple(x - y for x, y in zip(lcm, lm_f)), cg // d,
                        g, tuple(x - y for x, y in zip(lcm, lm_g)), cf // d, corner,
                        monomials)


def _ref_corner(basis):
    """The highest corner of the leads: with a pure power x_v^p_v among them
    for every variable v, sum(p_v - 1) + 1, else None."""
    leads = [_ref_lead(g) for g in basis]
    nvars = len(leads[0])
    powers = [min((e[v] for e in leads if sum(e) == e[v]), default=None)
              for v in range(nvars)]
    if None in powers:
        return None
    return sum(p - 1 for p in powers) + 1


def _ref_mora_nf(f, basis, corner, monomials):
    pool = [(g, _ref_lead(g), _ref_ecart(g, _ref_lead(g))) for g in basis]
    h = f
    while h:
        lm_h = _ref_lead(h)
        best = None
        for g, lm_g, ec in pool:
            if _ref_divides(lm_g, lm_h) and (best is None or ec < best[2]):
                best = (g, lm_g, ec)
        if best is None:
            return h
        ec_h = _ref_ecart(h, lm_h)
        if best[2] > ec_h:
            pool.append((h, lm_h, ec_h))
        h = _ref_cancel(h, lm_h, best[0], best[1], lm_h, corner, monomials)
    return h


def _ref_std(gens, cut=True, chain=True, formed=None):
    """The standard-basis loop as first written, re-sorting every pending
    pair on each step and recomputing every lead and the highest corner:
    local_std_basis must return the same generators in the same order.
    With cut=True the terms that the monomial of a one-term basis element
    divides are dropped too, from each generator as it enters and from
    every combined polynomial.  With cut=False no term is ever dropped;
    with chain=False no pair is skipped by the chain criterion.  `formed`,
    a list, gets the pair of each S-polynomial formed that is not wholly
    cut."""
    basis = []

    def one_term():
        return [_ref_lead(g) for g in basis if len(g) == 1] if cut else []

    for g in gens:
        g = _ref_without_multiples(g, one_term())
        if g:
            basis.append(g)
    pairs = []
    unfinished = set()  # pairs not yet popped whose leads are not coprime

    def coprime(i, j):
        return all(a == 0 or b == 0 for a, b in zip(_ref_lead(basis[i]), _ref_lead(basis[j])))

    def add_pairs(j):
        for i in range(j):
            pairs.append((i, j))
            if not coprime(i, j):
                unfinished.add((i, j))

    def lcm(i, j):
        return tuple(max(a, b) for a, b in zip(_ref_lead(basis[i]), _ref_lead(basis[j])))

    def done(a, b):
        return (min(a, b), max(a, b)) not in unfinished

    for j in range(len(basis)):
        add_pairs(j)
    while pairs:
        pairs.sort(key=lambda ij: sum(lcm(*ij)), reverse=True)
        i, j = pairs.pop()
        unfinished.discard((i, j))
        if coprime(i, j):
            continue
        m = lcm(i, j)
        if chain and any(k not in (i, j) and _ref_divides(_ref_lead(basis[k]), m)
                         and done(i, k) and done(j, k) for k in range(len(basis))):
            continue
        corner = _ref_corner(basis) if cut else None
        if formed is not None and (corner is None or sum(m) < corner):
            formed.append((i, j))
        lm_i, lm_j = _ref_lead(basis[i]), _ref_lead(basis[j])
        monomials = one_term()
        h = _ref_mora_nf(_ref_cancel(basis[i], lm_i, basis[j], lm_j, m, corner, monomials),
                         basis, corner, monomials)
        if h:
            basis.append(h)
            add_pairs(len(basis) - 1)
    return basis


def _int_poly(p):
    return _ref_content_free(dict(p.terms))


def assert_matches_reference(gens):
    got = local_std_basis(gens)
    want = _ref_std([_int_poly(g) for g in gens])
    assert [_int_poly(g) for g in got.generators] == want
    assert got.lead_exponents == tuple(_ref_lead(g) for g in want)
    untruncated = _ref_std([_int_poly(g) for g in gens], cut=False, chain=False)
    nvars = gens[0].nvars
    assert got.colength == brute_force_colength([_ref_lead(g) for g in untruncated], nvars)


# the slowest engine-corpus items: a Puiseux ideal and a 3-variable one
TAIL_CORPUS = ["(y^6-x^7)^3-x^26*y^4", "x^4+y^5+z^3+x^2*y*z"]


def jacobian_and_tjurina_ideals(text):
    f = parse_poly(text, nvars=3 if "z" in text else 2)
    jac = [g for g in jacobian(f) if not g.is_zero()]
    return jac, jac + [f]


@pytest.mark.parametrize("text", ORACLE_CORPUS + TAIL_CORPUS)
def test_std_basis_matches_reference_loop(text):
    for gens in jacobian_and_tjurina_ideals(text):
        assert_matches_reference(gens)
        assert formed_s_pairs(gens)[1] == reference_s_pairs(gens)


@pytest.mark.parametrize("texts", [("x*y^2", "x^2*y"), ("y", "x^3+x^4"),
                                   ("x^2", "y^2"), ("1+x", "y^3"),
                                   # colength 6; a chain criterion that lets a pair
                                   # still pending vouch for a skip gives 7
                                   ("x*y^2-2*x^2", "x^2+2*y^3+3*x^4+2*x^4*y", "x^3", "y^5")])
def test_std_basis_matches_reference_loop_on_fixed_ideals(texts):
    assert_matches_reference(gens_of(*texts))


CHAIN_CRITERION_CASES = [  # (ideal, polynomial, nvars, colength, oracle cap)
    pytest.param("jacobian", "x^2+y^4+z^3+x*y*z+x^2*y^3*z^2", 3, 6, 8, id="jacobian"),
    pytest.param("tjurina", "(y^2-x^3)^2-x^6*y", 2, 16, 14, id="tjurina"),
    # a pair skipped by the criterion vouches for a later skip: 4 S-polynomials
    # formed, 5 if only formed pairs vouched, 7 without the criterion
    pytest.param("tjurina", "(y^2-x^5)^2-x^11*y", 2, 30, 17, id="skip-vouches"),
]


def formed_s_pairs(gens):
    """local_std_basis(gens) and the S-polynomials its pair loop forms, in
    order, each as the exponents of its two leads and their lcm."""
    packing = localg._PACKINGS[gens[0].nvars]
    combine, std_code = localg._combine, localg._std_int.__code__
    formed = []

    def counting(f, df, a, g, *rest):
        # made by the pair loop itself: an S-polynomial, not a reduction step
        if sys._getframe(1).f_code is std_code:
            formed.append(tuple(map(packing.unpack, (min(f), min(g), min(f) + df))))
        return combine(f, df, a, g, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(localg, "_combine", counting)
        result = local_std_basis(gens)
    return result, formed


def reference_s_pairs(gens, chain=True):
    """The S-polynomials that _ref_std forms, in the form of formed_s_pairs."""
    formed = []
    leads = [_ref_lead(g) for g in _ref_std([_int_poly(g) for g in gens], chain=chain,
                                            formed=formed)]
    return [(leads[i], leads[j], tuple(map(max, leads[i], leads[j]))) for i, j in formed]


@pytest.mark.parametrize("ideal, text, nvars, colength, cap", CHAIN_CRITERION_CASES)
def test_chain_criterion_skips_s_polynomials(ideal, text, nvars, colength, cap):
    f = parse_poly(text, nvars=nvars)
    gens = [g for g in jacobian(f) if not g.is_zero()] + ([f] if ideal == "tjurina" else [])
    got, formed = formed_s_pairs(gens)
    assert formed == reference_s_pairs(gens)
    assert len(formed) < len(reference_s_pairs(gens, chain=False))
    assert got.colength == colength == colength_oracle(gens, cap)


@st.composite
def small_ideals(draw):
    """One or two random polynomials plus a pure power of every variable: a
    zero-dimensional ideal, so the normal forms stay inside the box under
    the pure powers (without them, coefficients can grow for minutes)."""
    nvars = draw(st.integers(2, 3))
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    terms = st.dictionaries(exps, st.integers(-3, 3).filter(bool), min_size=1, max_size=4)
    gens = [Poly(t, nvars) for t in draw(st.lists(terms, min_size=1, max_size=2))]
    for v in range(nvars):
        k = draw(st.integers(1, 6))
        gens.append(Poly.monomial(tuple(k if w == v else 0 for w in range(nvars))))
    return gens


@given(small_ideals())
@settings(max_examples=100, deadline=None)
def test_std_basis_matches_reference_loop_on_random_ideals(gens):
    assert_matches_reference(gens)


@given(small_ideals())
@settings(max_examples=100, deadline=None)
def test_engine_forms_the_reference_s_pairs_on_random_ideals(gens):
    assert formed_s_pairs(gens)[1] == reference_s_pairs(gens)


def pure_power_bounds(leads, nvars):
    """The least pure-power exponent among the leads of each variable, or None."""
    return [min((e[v] for e in leads if sum(e) == e[v]), default=None) for v in range(nvars)]


def brute_force_colength(leads, nvars):
    """Monomials of the box under the pure powers that no lead divides."""
    bounds = pure_power_bounds(leads, nvars)
    if None in bounds:
        return INFINITE
    return sum(1 for m in product(*(range(b) for b in bounds))
               if not any(_ref_divides(e, m) for e in leads))


@st.composite
def lead_sets(draw):
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 6)] * nvars)
    leads = draw(st.lists(exps, max_size=8))
    # usually add a pure power of every variable, else INFINITE dominates
    for v in range(nvars):
        if draw(st.booleans()) or draw(st.booleans()):
            leads.append(tuple(draw(st.integers(0, 7)) if w == v else 0 for w in range(nvars)))
    return nvars, leads


def packed_colength(leads, nvars):
    """_colength_of_leads on the leads packed as the engine packs them."""
    packing = localg._PACKINGS[nvars]
    return _colength_of_leads([packing.pack(e) for e in leads], pure_power_bounds(leads, nvars))


def test_staircase_colength_reads_duplicate_and_non_minimal_leads():
    # x^2, x^3, x*y, x^2*y^2, y^3, y^3: standard monomials 1, y, y^2, x
    leads = [(2, 0), (3, 0), (1, 1), (2, 2), (0, 3), (0, 3)]
    assert packed_colength(leads, 2) == brute_force_colength(leads, 2) == 4


@given(lead_sets())
@example((3, [(0, 0, 0)]))  # the unit ideal: every bound is 0
@example((1, [(5,), (3,), (7,)]))  # one variable
@settings(max_examples=200)
def test_staircase_colength_matches_box_count(case):
    nvars, leads = case
    assert packed_colength(leads, nvars) == brute_force_colength(leads, nvars)


def test_staircase_colength_of_pure_powers_is_their_product():
    # the box under these pure powers holds 268M monomials, too many to count
    leads = [(16382, 0, 0), (0, 16383, 0), (0, 0, 1)]
    assert packed_colength(leads, 3) == 16382 * 16383 == 268386306


@given(small_ideals())
@example([Poly({(1, 1): 1}, 2)])                    # no pure power: INFINITE
@example([Poly({(0, 0): 2, (1, 0): 1}, 2), Poly({(0, 1): 1}, 2)])  # the unit ideal
@settings(max_examples=50, deadline=None)
def test_std_int_pure_powers_are_the_lead_bounds(gens):
    nvars = gens[0].nvars
    packing = localg._PACKINGS[nvars]
    packed = [{packing.pack(e): c for e, c in g.terms.items()} for g in gens]
    _, lms, pure = localg._std_int(packed, packing)
    assert pure == pure_power_bounds([packing.unpack(m) for m in lms], nvars)


# --- packed monomials, the degree limit and the highest-corner cut ---

@st.composite
def exponent_pairs(draw):
    """Two packable exponent tuples in 1-3 variables, with exponents near the
    top of what a field may hold as often as small ones."""
    nvars = draw(st.integers(1, 3))
    part = MAX_DEGREE // nvars
    k = st.one_of(st.integers(0, 3), st.integers(part // 2 - 3, part // 2),
                  st.integers(part - 3, part))
    return nvars, draw(st.tuples(*[k] * nvars)), draw(st.tuples(*[k] * nvars))


@given(exponent_pairs())
@settings(max_examples=300)
def test_packed_monomials_keep_order_product_and_divisibility(case):
    nvars, a, b = case
    packing = _Packing(nvars)
    pa, pb = packing.pack(a), packing.pack(b)
    assert packing.unpack(pa) == a and packing.unpack(pb) == b
    assert (pa < pb) == (_lead_key(a) < _lead_key(b))
    assert (not (pb - pa) & packing.guard) == _ref_divides(a, b)
    if sum(a) + sum(b) <= MAX_DEGREE:
        assert pa + pb == packing.pack(tuple(x + y for x, y in zip(a, b)))


@st.composite
def heavy_pairs(draw):
    """Two packable exponent tuples in 1-3 variables, each of degree near
    MAX_DEGREE and nearly all of it in one field: when the two heavy fields
    differ, the lcm degree is near 2*MAX_DEGREE."""
    nvars = draw(st.integers(1, 3))

    def heavy():
        e = draw(st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars))
        v = draw(st.integers(0, nvars - 1))
        e[v] = 0
        e[v] = MAX_DEGREE - sum(e) - draw(st.integers(0, 3))
        return tuple(e)

    return nvars, heavy(), heavy()


@given(st.one_of(exponent_pairs(), heavy_pairs()))
@example((2, (MAX_DEGREE, 0), (0, MAX_DEGREE)))  # the largest lcm degree
@example((3, (0, 0, 0), (1, 0, 0)))
@settings(max_examples=300)
def test_packed_support_and_lcm_match_the_exponent_tuples(case):
    nvars, a, b = case
    packing = _Packing(nvars)
    pa, pb = packing.pack(a), packing.pack(b)
    sa, sb = packing.support(pa), packing.support(pb)
    nonzero = [v for v, k in enumerate(a) if k]
    assert sa == sum(1 << (FIELD_BITS - 1 + v * FIELD_BITS) for v in nonzero)
    if len(nonzero) <= 1:  # a pure power, or 1
        assert list(packing.axes[sa]) == (nonzero or list(range(nvars)))
    else:
        assert sa not in packing.axes
    # the product criterion
    assert (not sa & sb) == (not any(map(mul, a, b)))
    lcm, want = packing.lcm(pa, pb), tuple(map(max, a, b))
    assert lcm >> packing.shift == sum(want) <= 2 * MAX_DEGREE
    assert packing.unpack(lcm) == want
    if sum(want) <= MAX_DEGREE:
        assert lcm == packing.pack(want)


def test_the_pair_loop_builds_no_exponent_tuple(monkeypatch):
    cases = []
    for text in TAIL_CORPUS:
        for gens in jacobian_and_tjurina_ideals(text):
            packing = localg._PACKINGS[gens[0].nvars]
            packed = [{packing.pack(e): c for e, c in g.terms.items()} for g in gens]
            cases.append((packed, packing, localg._std_int(packed, packing)))

    def refuse(self, e):
        raise AssertionError("the engine packed an exponent tuple")

    unpacked, unpack = [], _Packing.unpack

    def counting(self, m):
        unpacked.append(m)
        return unpack(self, m)

    monkeypatch.setattr(_Packing, "pack", refuse)
    monkeypatch.setattr(_Packing, "unpack", counting)
    for packed, packing, want in cases:
        unpacked.clear()
        got = localg._std_int(packed, packing)
        assert got == want
        assert unpacked == []


def test_degree_limit_is_an_input_error(capsys):
    assert milnor(parse_poly(f"x^{MAX_DEGREE}+y^2")) == MAX_DEGREE - 1
    assert tjurina(parse_poly(f"x^{MAX_DEGREE}+y^2")) == MAX_DEGREE - 1
    with pytest.raises(TjspectraError, match=f"^a term of degree {MAX_DEGREE + 1} is beyond "
                                             f"the engine's limit of {MAX_DEGREE}$"):
        local_std_basis(gens_of(f"x^{MAX_DEGREE + 1}", "y^2"))
    assert cli.main(["milnor", "--poly", f"x^{MAX_DEGREE + 1}+y^2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: a term of degree {MAX_DEGREE + 1} is beyond the engine's "
                   f"limit of {MAX_DEGREE}\n")


def test_the_largest_exponent_of_a_field_is_kept_and_the_engine_refuses_it(capsys):
    top = (1 << FIELD_BITS) - 1
    message = f"a term of degree {top} is beyond the engine's limit of {MAX_DEGREE}"
    f = parse_poly(f"x^{top}+y^2")
    assert f.terms == {(top, 0): 1, (0, 2): 1}
    for number in (milnor, tjurina, lambda f: local_std_basis([f])):
        with pytest.raises(TjspectraError, match=f"^{message}$"):
            number(f)
    assert cli.main(["milnor", "--poly", f"x^{top}+y^2"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    # one more is refused as the term is read, and the error names that term
    assert cli.main(["tjurina", "--poly", f"x^{top + 1}*y+y^80000"]) == 1
    assert capsys.readouterr() == ("", f"error: a term of degree {top + 2} is beyond the "
                                       f"engine's limit of {MAX_DEGREE}\n")


def test_degree_limit_holds_for_the_terms_the_engine_forms(monkeypatch):
    # the inputs have degree at most 4, but before the leads hold a power
    # of x an S-polynomial forms a term of degree 6: that raises, never cut
    gens = gens_of("x^2*y", "y^3+x^4")
    assert local_std_basis(gens).colength == 10
    monkeypatch.setattr(localg, "MAX_DEGREE", 4)
    with pytest.raises(TjspectraError, match="degree 6"):
        local_std_basis(gens)


def test_the_cut_drops_terms_beyond_a_corner_under_the_limit(monkeypatch):
    # the leads x^2 and y^3 put the corner at degree 4: the terms of degree
    # 4 and more that the engine forms are cut, not counted as beyond the limit
    gens = gens_of("x^2+x*y^3", "y^3+x^3*y", "x*y^2+x^4")
    want = local_std_basis(gens).colength
    monkeypatch.setattr(localg, "MAX_DEGREE", 4)
    assert local_std_basis(gens).colength == want == colength_oracle(gens, 8)


SLOW_WITHOUT_THE_CUT = [  # (command, polynomial, nvars, number, oracle cap)
    ("milnor", "x^2+y^4+z^3+x*y*z+x^2*y^3*z^2", 3, 6, 8),
    ("tjurina", "x^6+y^5-3*x^3*y^3-2*x^5*y^3-x^6*y^5", 2, 18, 24),
]


@pytest.mark.parametrize("command, text, nvars, number, cap", SLOW_WITHOUT_THE_CUT,
                         ids=[case[0] for case in SLOW_WITHOUT_THE_CUT])
def test_inputs_that_ran_for_minutes_without_the_cut(command, text, nvars, number, cap):
    # in a subprocess with a timeout, so that a slow engine fails the test
    # rather than hanging the suite
    r = subprocess.run([sys.executable, "-m", "tjspectra.cli", command, "--poly", text,
                        "--nvars", str(nvars)], capture_output=True, text=True, timeout=20)
    assert (r.returncode, r.stdout, r.stderr) == (0, f"{number}\n", "")
    f = parse_poly(text, nvars=nvars)
    gens = [g for g in jacobian(f) if not g.is_zero()] + ([f] if command == "tjurina" else [])
    assert colength_oracle(gens, cap) == number


WITHIN_20_S = [  # (command, polynomial, nvars, number)
    # the oracle checks these two in ORACLE_CORPUS_3 and CHAIN_CRITERION_CASES
    ("milnor", "x^2+y^4+z^4+x*y^3*z", 3, 9),
    ("tjurina", "(y^2-x^3)^2-x^6*y", 2, 16),
    # pure powers at the top of a 16-bit field; the staircase of the first
    # holds 268M monomials
    ("milnor", "x^16383+y^16384+z^2", 3, 268386306),
    ("tjurina", "x^32767+y^2", 2, 32766),
    # 52 s and 83-87 s before the one-term cut
    ("tjurina", "x^3*z^3-2*x^5-2*y^32767+4*z^4", 3, 393192),
    ("tjurina", "6*x^32766-4*y^3+8*y^2+8*z^32765", 3, 1073512460),
]


@pytest.mark.parametrize("command, text, nvars, number", WITHIN_20_S,
                         ids=[f"{case[0]} {case[1]}" for case in WITHIN_20_S])
def test_engine_commands_finish_within_20_s(command, text, nvars, number):
    r = subprocess.run([sys.executable, "-m", "tjspectra.cli", command, "--poly", text,
                        "--nvars", str(nvars)], capture_output=True, text=True, timeout=20)
    assert (r.returncode, r.stdout, r.stderr) == (0, f"{number}\n", "")


# Before the one-term cut, tjurina slowed about cubically in k here: f's
# term -2*y^k, which the one-term generator y^(k-1) of the Jacobian divides,
# kept one Mora normal form running about 0.7 k steps on a two-term
# remainder whose lead climbed to the highest corner while its coefficients
# grew, and the content gcds took most of the time (52 s at k = 32767)
ONE_LARGE_POWER = "x^3*z^3-2*x^5-2*y^{}+4*z^4"


@pytest.mark.parametrize("k", [1000, 2000, 32767])
def test_one_large_pure_power_gives_twelve_k_minus_one(k):
    f = parse_poly(ONE_LARGE_POWER.format(k), nvars=3)
    assert milnor(f) == tjurina(f) == 12 * (k - 1)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_one_large_pure_power_matches_the_oracle(k):
    f = parse_poly(ONE_LARGE_POWER.format(k), nvars=3)
    gens = [g for g in jacobian(f) if not g.is_zero()]
    assert milnor(f) == colength_oracle(gens, 12) == 12 * (k - 1)
    assert tjurina(f) == colength_oracle(gens + [f], 12) == 12 * (k - 1)


STALLING_ENGINE = [  # (polynomial in 3 variables, mu, tau); milnor or tjurina stalls on each
    ("x^6 + 3*x^3*y^2 - x^2*y*z^2 - 2*x*y^4 - y^2*z^2 - z^4 + 2*y^3", 30, 27),
    ("3*x^4*y^3*z^3 + 2*x^7 - 2*x^2*y^4 - 3*y^5 - 3*z^5 - y^2*z^2", 66, 58),
    ("x^7 + x^4*y^3 - 3*y^3*z^4 + x^2*y*z^2 + 2*y^5 + 2*z^4", 70, 56),
    ("3*y^7 - x^3*z^3 - 3*x*y^3*z - 2*x*y^2*z^2 - z^5 - x^4", 55, 46),
    ("-x^4*z^4 + 2*x^7 + x^4*y*z - 2*x^2*y^2*z^2 + 3*z^6 - 3*x^3*y*z + 2*y^4", 64, 57),
    ("-3*x^3*y^4*z^3 + 2*x^7 - y^7 + 2*x*y^3*z + 3*y^4*z - z^4", 73, 66),
    ("-3*x^4*y*z^4 + 3*y^6 - x^5 + x*y^3*z + x*y^2*z^2 + 3*z^5 + x*y*z", 15, 14),
    ("3*x^3*y^4*z^2 - 3*x^3*y*z^4 + y^7 - 3*x^6 + 2*x^2*y^3 + z^5 + 3*y*z^2", 30, 27),
    ("2*x^4*y^4*z + 3*x*y^2*z^2 - z^5 - x^3*z + 2*y^4 + 2*x^3", 24, 22),
]


@pytest.mark.parametrize("text, mu, tau", STALLING_ENGINE, ids=[case[0] for case in STALLING_ENGINE])
def test_oracle_certifies_the_inputs_where_the_engine_stalls(text, mu, tau):
    # the oracle alone: milnor or tjurina runs past 15 s on each of these
    f = parse_poly(text, nvars=3)
    jac = [g for g in jacobian(f) if not g.is_zero()]
    assert (colength_oracle(jac, 12), colength_oracle(jac + [f], 12)) == (mu, tau)


class _Handed(Exception):
    pass


def handed_to_the_engine(f):
    """The generators tjurina(f) passes to _std_int, unpacked; the engine
    itself does not run."""
    def stop(gens, packing):
        raise _Handed([{packing.unpack(m): c for m, c in g.items()} for g in gens])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(localg, "_std_int", stop)
        with pytest.raises(_Handed) as handed:
            tjurina(f)
    return handed.value.args[0]


# the inputs where a multi-term Euler remainder in place of f made tjurina
# run past 40 s and take 3.7-4.0 s (the second has two pure powers of z);
# (polynomial, nvars, tau)
SLOW_WITH_A_MULTI_TERM_REMAINDER = [
    ("-x^4*y^4*z^4 - 2*x^3*y^2*z^3 - 2*x^3*y*z^3 + 2*x^5 + 2*y^5 + 3*x*y^2 - z^2", 3, 6),
    ("-2*x^4*y^3 + 3*y^5 + 3*x^4 + y*z^3 + 3*z^3 - 3*z^2", 3, 12),
]
F_GOES_IN = (  # (polynomial, nvars, tau or None)
    [(text, 3, None) for text, _, _ in STALLING_ENGINE] + SLOW_WITH_A_MULTI_TERM_REMAINDER
    + [("x^5+y^5+x^3*y^3+x^2*y^4", 2, 15),  # a remainder of two terms
       ("x^3+y^4+x^5", 2, 6)])              # two pure powers of x


@pytest.mark.parametrize("text, nvars, tau", F_GOES_IN, ids=[case[0] for case in F_GOES_IN])
def test_f_itself_goes_to_the_engine_unless_its_euler_remainder_is_one_term(text, nvars, tau):
    f = parse_poly(text, nvars=nvars)
    g = euler_remainder(f)
    assert g is None or len(g.terms) > 1
    assert handed_to_the_engine(f)[-1] == f.terms
    if tau is not None:  # None where tjurina stalls
        assert tjurina(f) == tau


def test_swh_hands_the_engine_its_corner_monomial():
    # swh(a, b, c, d) = x^a + y^b + x^(a-1-c)*y^(b-1-d): the extra term
    # alone lies off the weighted-degree-1 face
    for p in swh_grid(9):
        f = swh_instance(p).defining_poly
        corner = (p.a - 1 - p.c, p.b - 1 - p.d)
        assert handed_to_the_engine(f)[-1] == {corner: 1}


# --- transformations with known answers, built with Poly arithmetic alone ---

def substitute(f, images):
    """f(images[0], ..., images[n-1]), expanded with Poly * and ** alone."""
    nvars = images[0].nvars
    out = Poly.zero(nvars)
    for e, c in f.terms.items():
        term = Poly.constant(c, nvars)
        for image, k in zip(images, e):
            term = term * image ** k
        out = out + term
    return out


def variable(v, nvars):
    return Poly.monomial(tuple(int(w == v) for w in range(nvars)))


def number_of(number, f):
    """number(f), or the error it raises with f's printed form replaced by "f"."""
    try:
        return number(f)
    except TjspectraError as exc:
        return type(exc), str(exc).replace(str(f), "f")


@st.composite
def source_polys(draw, max_vars):
    """f in 1..max_vars variables with f(0) = 0: a pure power x_v^(2..5) of
    each variable, plus up to two terms with exponents 0..3 strictly above
    the Newton diagonal that the powers span.  Now and then one variable
    has no pure power and appears in no term, so that f is not isolated."""
    nvars = draw(st.integers(1, max_vars))
    coefficient = st.sampled_from([-2, -1, 1, 2, 3])
    powers = [draw(st.integers(2, 5)) for _ in range(nvars)]
    if nvars > 1 and draw(st.integers(0, 4)) == 0:
        powers[draw(st.integers(0, nvars - 1))] = None
    terms = {tuple(p if w == v else 0 for w in range(nvars)): draw(coefficient)
             for v, p in enumerate(powers) if p}
    for e in draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars), max_size=2)):
        if all(p or not k for p, k in zip(powers, e)) and sum(
                Fraction(k, p) for p, k in zip(powers, e) if k) > 1:
            terms[e] = draw(coefficient)
    return Poly(terms, nvars)


@given(source_polys(2), st.integers(2, 4))
@example(parse_poly("x^7+y^7+x^5*y^5"), 4)
@example(parse_poly("(y^4-x^5)^2-x^11*y"), 3)
@settings(max_examples=150, deadline=None)
def test_a_suspension_multiplies_mu_and_tau_by_k_minus_1(f, k):
    """f(x, y) + z^k, or f(x) + y^k: the Milnor and Tjurina algebras are
    those of f tensored with C[z]/(z^(k-1)) (Thom-Sebastiani)."""
    nvars = f.nvars + 1
    g = substitute(f, [variable(v, nvars) for v in range(f.nvars)]) + variable(f.nvars, nvars) ** k
    for number in (milnor, tjurina):
        want = number_of(number, f)
        assert number_of(number, g) == (want * (k - 1) if type(want) is int else want)


@given(source_polys(3), st.data())
@settings(max_examples=150, deadline=None)
def test_a_unit_multiple_keeps_mu_and_tau(f, data):
    """(1 + x_v)*f: the Tjurina ideal is the same, and mu is a topological
    invariant of the germ."""
    v = data.draw(st.integers(0, f.nvars - 1))
    g = (Poly.constant(1, f.nvars) + variable(v, f.nvars)) * f
    for number in (milnor, tjurina):
        assert number_of(number, g) == number_of(number, f)


@st.composite
def triangular_images(draw, nvars):
    """x_i + h_i(x_(i+1), ...) for each variable, each h_i of degree 1-2
    with no constant term, or 0: an invertible change of coordinates."""
    images = []
    for i in range(nvars):
        later = [e for e in product(range(3), repeat=nvars)
                 if 1 <= sum(e) <= 2 and not any(e[:i + 1])]
        h = draw(st.dictionaries(st.sampled_from(later), st.sampled_from([-2, -1, 1, 2]),
                                 max_size=2)) if later else {}
        images.append(variable(i, nvars) + Poly(h, nvars))
    return images


@given(source_polys(3), st.data())
@example(parse_poly("x^2+y^3+z^4", nvars=3), None)
@settings(max_examples=150, deadline=None)
def test_a_triangular_change_of_coordinates_keeps_mu_and_tau(f, data):
    """x_i -> x_i + h_i(x_(i+1), ...), expanded by substitution with ** and *."""
    images = (data.draw(triangular_images(f.nvars)) if data is not None else
              [parse_poly(t, nvars=3) for t in ("x+y*z-y^2", "y+z+z^2", "z")])
    g = substitute(f, images)
    for number in (milnor, tjurina):
        assert number_of(number, g) == number_of(number, f)
