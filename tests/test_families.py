import json
from fractions import Fraction as F
from itertools import groupby, product
from math import ceil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tjspectra import localg
from tjspectra.errors import InternalConsistencyError, InvalidFamilyParameters, TjspectraError
from tjspectra.families import (FAMILIES, BrieskornParams, PuiseuxParams, SwhParams,
                                ThreeMonomialParams, TjurinaInstance, _lattice_instance,
                                _three_monomial_lattice, puiseux_instance, puiseux_spectrum,
                                swh_instance, three_monomial_instance)
from tjspectra.localg import colength_oracle
from tjspectra.poly import Poly, jacobian, parse_poly
from tjspectra.spectra import make_spectrum, stats_of_values
from tjspectra.verify import THREE_MONOMIAL_TUPLES, swh_grid

PUISEUX_REFERENCE = (Path(__file__).resolve().parent.parent
                     / "benchmarks" / "reference" / "puiseux-seed0.json")


def test_brieskorn_smallest():
    s = BrieskornParams(2, 3).instance().spectrum
    assert s.values == (F(5, 6), F(7, 6))


def test_brieskorn_77():
    s = BrieskornParams(7, 7).instance().spectrum
    assert s.mu == 36
    assert s.values[0] == F(2, 7)
    assert s.values[-1] == F(12, 7)


def test_brieskorn_54_matches_deformed_spectrum():
    s = BrieskornParams(5, 4).instance().spectrum
    expected = sorted(F(4 * p + 5 * q, 20) for p in range(1, 5) for q in range(1, 4))
    assert list(s.values) == expected


def test_brieskorn_degenerate():
    with pytest.raises(InvalidFamilyParameters, match=r"^need a, b >= 2, got \(1, 5\)$"):
        BrieskornParams(1, 5).instance()
    with pytest.raises(InvalidFamilyParameters, match=r"^need a, b >= 2, got \(5, 1\)$"):
        BrieskornParams(5, 1).instance()


def test_family_table_names_each_parameter():
    assert {name: list(params._fields) for name, params in FAMILIES.items()} == {
        "brieskorn": ["a", "b"],
        "swh": ["a", "b", "c", "d"],
        "three-monomial": ["a", "b", "c", "d"],
        "puiseux": ["a", "b", "d", "q", "r"],
    }


# small grids that hold valid tuples and tuples that break each condition
VALIDITY_GRIDS = {
    "brieskorn": (range(-1, 5), range(-1, 5)),
    "swh": (range(0, 8), range(0, 8), range(-1, 4), range(-1, 4)),
    "three-monomial": (range(0, 5), range(0, 5), range(-1, 18), range(-1, 18)),
    "puiseux": (range(0, 5), range(0, 4), range(0, 3), range(-3, 3), range(0, 3)),
}


def refusal(call):
    """The message of the InvalidFamilyParameters that call raises, or None."""
    try:
        call()
    except InvalidFamilyParameters as exc:
        return str(exc)


@pytest.mark.parametrize("family", VALIDITY_GRIDS)
def test_instance_refuses_exactly_what_validate_refuses(family):
    grid = [FAMILIES[family](*t) for t in product(*VALIDITY_GRIDS[family])]
    refusals = [(refusal(p.instance), refusal(p.validate)) for p in grid]
    assert all(built == validated for built, validated in refusals)
    assert {validated is None for _, validated in refusals} == {False, True}


@pytest.mark.parametrize("params, swh, assumed", [
    (BrieskornParams(5, 4), True, False),
    (SwhParams(7, 7, 1, 1), True, False),
    (ThreeMonomialParams(2, 4, 7, 6), False, False),
    (PuiseuxParams(3, 2, 2, 1, 1), False, True),
])
def test_instance_says_whether_swh_and_whether_subset_assumed(params, swh, assumed):
    inst = params.instance()
    assert (inst.swh, inst.subset_assumed) == (swh, assumed)
    assert inst.tau == len(inst.tjurina_indices)
    # both build with the engine's tau, so cross_check does not compute it again
    assert inst.tau_checked == isinstance(params, (ThreeMonomialParams, PuiseuxParams))


def test_puiseux_subset_is_the_assumed_bottom_tau_indices():
    inst = PuiseuxParams(3, 2, 2, -1, 1).instance()
    assert inst.tau == 14
    assert inst.tjurina_indices == frozenset(range(1, 15))


def test_swh_7711():
    inst = swh_instance(SwhParams(7, 7, 1, 1))
    assert (inst.mu, inst.tau) == (36, 35)
    missing = [inst.spectrum.value_at(i) for i in range(1, 37)
               if i not in inst.tjurina_indices]
    assert missing == [F(12, 7)]
    assert inst.defining_poly.terms == {(7, 0): 1, (0, 7): 1, (5, 5): 1}


def test_swh_5411():
    inst = swh_instance(SwhParams(5, 4, 1, 1))
    inst.cross_check()
    assert (inst.mu, inst.tau) == (12, 11)
    assert inst.defining_poly.terms == {(5, 0): 1, (0, 4): 1, (3, 2): 1}
    expected = sorted(F(4 * p + 5 * q, 20) for p in range(1, 5) for q in range(1, 4))
    assert list(inst.spectrum.values) == expected


def test_swh_invalid_params():
    with pytest.raises(InvalidFamilyParameters):
        swh_instance(SwhParams(4, 4, 2, 1))
    for m in (3, 4):  # the weighted degree condition fails on the diagonal
        with pytest.raises(InvalidFamilyParameters):
            swh_instance(SwhParams(m, m, 1, 1))


def test_swh_excluded_value_multiset():
    a, b, c, d = 9, 8, 2, 3
    inst = swh_instance(SwhParams(a, b, c, d))
    assert inst.tau == (a - 1) * (b - 1) - c * d
    missing = sorted(inst.spectrum.value_at(i) for i in range(1, inst.mu + 1)
                     if i not in inst.tjurina_indices)
    expected = sorted(F(i, a) + F(j, b)
                      for i in range(a - c, a) for j in range(b - d, b))
    assert missing == expected


def test_swh_value_sum_check_catches_a_swapped_tjurina_index(monkeypatch, capsys):
    from tjspectra import cli, families
    real = families._lattice_instance

    def swapped(*args, **kwargs):
        # trade one Tjurina index for a missing one of another value: tau stays
        inst = real(*args, **kwargs)
        s, tj = inst.spectrum, inst.tjurina_indices
        out = next(i for i in range(1, s.mu + 1) if i not in tj)
        into = next(i for i in sorted(tj) if s.value_at(i) != s.value_at(out))
        return inst._replace(tjurina_indices=(tj - {into}) | {out})

    monkeypatch.setattr(families, "_lattice_instance", swapped)
    message = "Tjurina value sum disagrees with the closed form"
    with pytest.raises(InternalConsistencyError, match=f"^{message}$"):
        swh_instance(SwhParams(7, 7, 1, 1))
    assert cli.main(["check", "swh", "--a", "7", "--b", "7", "--c", "1", "--d", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"internal error: {message}\n"


def test_level_initial_segment_invariant():
    for params in [SwhParams(7, 7, 1, 1), SwhParams(9, 9, 2, 2), SwhParams(8, 5, 1, 1)]:
        inst = swh_instance(params)
        s = inst.spectrum
        for _, group in groupby(range(1, s.mu + 1), key=s.value_at):
            flags = [i in inst.tjurina_indices for i in group]
            # within one level the Tjurina members form an initial run
            assert flags == sorted(flags, reverse=True)


def test_three_monomial_2476():
    inst = three_monomial_instance(ThreeMonomialParams(2, 4, 7, 6))
    inst.cross_check()
    assert inst.mu - inst.tau == (2 - 1) * (4 - 1) + max(2 * 4 - 6 - 1, 0) == 4
    assert inst.defining_poly.terms == {(2, 4): 1, (7, 0): 1, (0, 6): 1}


def test_three_monomial_empty_extra_wall():
    # 2b = 6 <= d+1 = 8: no extra excluded wall
    inst = three_monomial_instance(ThreeMonomialParams(2, 3, 9, 7))
    inst.cross_check()
    assert inst.mu - inst.tau == 2


def test_three_monomial_invalid():
    with pytest.raises(InvalidFamilyParameters):
        three_monomial_instance(ThreeMonomialParams(3, 2, 9, 9))
    with pytest.raises(InvalidFamilyParameters):
        three_monomial_instance(ThreeMonomialParams(2, 3, 4, 5))
    # negative exponents satisfy a*d + b*c < c*d but name no polynomial
    with pytest.raises(InvalidFamilyParameters, match="c and d must be positive"):
        three_monomial_instance(ThreeMonomialParams(2, 3, -1, -1))


@pytest.mark.parametrize("tpl", THREE_MONOMIAL_TUPLES)
def test_three_monomial_cross_checks(tpl):
    a, b, c, d = tpl
    inst = three_monomial_instance(ThreeMonomialParams(*tpl))
    inst.cross_check()
    assert inst.mu - inst.tau == (a - 1) * (b - 1) + max(2 * b - d - 1, 0) + max(2 * a - c - 1, 0)


def valid_three_monomial(*ranges):
    """Every valid ThreeMonomialParams in the product of the ranges."""
    for t in product(*ranges):
        p = ThreeMonomialParams(*t)
        try:
            p.validate()
        except InvalidFamilyParameters:
            continue
        yield p


# a <= 5, b <= 7 and c, d <= 20: 2728 valid tuples
SMALL_THREE_MONOMIAL = (range(2, 6), range(3, 8), range(1, 21), range(1, 21))


def test_three_monomial_tau_is_the_engines_on_a_grid():
    """Every valid tuple builds, with the engine's tau."""
    grid = list(valid_three_monomial(*SMALL_THREE_MONOMIAL))
    assert len(grid) == 2728
    for p in grid:
        f = Poly({(p.a, p.b): 1, (p.c, 0): 1, (0, p.d): 1}, 2)
        assert three_monomial_instance(p).tau == localg.tjurina(f), p


def test_three_monomial_3_4_4_17_has_tau_40():
    # 2a - c - 1 = 1 point lies on Lambda_2's wall; the oracle is the slow
    # route, capped at mu = 47 >= tau
    p = ThreeMonomialParams(3, 4, 4, 17)
    assert sum(tj for _, tj in _three_monomial_lattice(p)) == 40
    f = parse_poly("x^3*y^4+x^4+y^17")
    assert (localg.milnor(f), colength_oracle(jacobian(f) + [f], 47)) == (47, 40)
    inst = three_monomial_instance(p)
    assert (inst.mu, inst.tau) == (47, 40)


def newton_order(p, i, j):
    """nu(x^i y^j) for f = x^a y^b + x^c + y^d: the lesser of the two edge
    functionals, each 1 on its edge of the Newton polygon."""
    a, b, c, d = p
    return min(F(i, c) + F(j * (c - a), b * c), F(j, d) + F(i * (d - b), a * d))


def newton_ideal(p, alpha):
    """The minimal generators of N_alpha, the monomials x^i y^j with
    nu(x^(i+1) y^(j+1)) >= alpha: the least such j of each column i, while
    it falls.  Both edge functionals must reach alpha, and each bounds j
    from below."""
    a, b, c, d = p
    gens, i, j = [], 0, None
    while j != 0:
        least = max(0, ceil((alpha * b * c - (i + 1) * b) / (c - a)) - 1,
                    ceil(alpha * d - F((i + 1) * (d - b), a)) - 1)
        assert newton_order(p, i + 1, least + 1) >= alpha
        assert least == 0 or newton_order(p, i + 1, least) < alpha
        if j is None or least < j:
            j = least
            gens.append(Poly.monomial((i, j)))
        i += 1
    return gens


def assert_tjurina_levels(p):
    """#{Tjurina values < alpha} = colength(J_f + (f) + N_alpha) at each
    spectral value alpha (M. Saito, Math. Ann. 281, 1988): the per-level
    route, independent of the lattice rule."""
    inst = three_monomial_instance(p)
    values = inst.spectrum.values
    tjurina = [values[i - 1] for i in inst.tjurina_indices]
    f = inst.defining_poly
    for alpha in sorted(set(values)):
        colength = localg.local_std_basis(jacobian(f) + [f] + newton_ideal(p, alpha)).colength
        assert colength == sum(v < alpha for v in tjurina), (p, alpha)


def test_three_monomial_tjurina_values_match_the_per_level_colengths():
    """The tuples with 2a > c + 1, where Lambda_2's wall is not empty, and
    THREE_MONOMIAL_TUPLES."""
    walled = [p for p in valid_three_monomial(*SMALL_THREE_MONOMIAL) if 2 * p.a > p.c + 1]
    assert len(walled) == 17
    for p in walled + [ThreeMonomialParams(*t) for t in THREE_MONOMIAL_TUPLES]:
        assert_tjurina_levels(p)


def test_puiseux_c1_spectrum():
    p = PuiseuxParams(3, 2, 2, -1, 1)
    assert (p.c, p.e) == (1, 13)
    inst = puiseux_instance(p)
    inst.cross_check()
    assert inst.mu == 16
    expected = sorted([F(5, 12), F(11, 12), F(13, 12), F(19, 12)]
                      + [F(1, 2) + F(k, 13) for k in range(1, 13)])
    assert list(inst.spectrum.values) == expected


def test_puiseux_c5():
    p = PuiseuxParams(3, 2, 2, 1, 1)
    assert (p.c, p.e) == (5, 17)
    inst = puiseux_instance(p)
    inst.cross_check()
    assert (inst.mu, inst.tau) == (20, 18)
    assert inst.defining_poly == parse_poly("(y^2-x^3)^2-x^7*y")


@pytest.mark.parametrize("params", [(3, 2, 2, 1, 1), (5, 2, 2, 1, 1), (4, 3, 2, 1, 1)])
def test_puiseux_tau_matches_the_oracle(params):
    # tau <= mu puts every monomial of degree mu in (J_f, f), so the cap mu
    # needs nothing from the engine
    inst = puiseux_instance(PuiseuxParams(*params))
    f = inst.defining_poly
    assert inst.tau == colength_oracle(jacobian(f) + [f], inst.mu)


def test_puiseux_gcd_violation():
    with pytest.raises(InvalidFamilyParameters, match=r"^gcd\(a, b\) = 2 != 1$"):
        puiseux_instance(PuiseuxParams(4, 2, 3, 1, 1))


def test_puiseux_invalid_ordering():
    with pytest.raises(InvalidFamilyParameters):
        puiseux_instance(PuiseuxParams(2, 3, 2, 1, 1))


def test_generated_spectra_complete_and_centered():
    spectra = [swh_instance(p).spectrum for p in swh_grid(9)]
    spectra += [three_monomial_instance(ThreeMonomialParams(*t)).spectrum
                for t in THREE_MONOMIAL_TUPLES]
    spectra += [puiseux_spectrum(PuiseuxParams(3, 2, 2, (c - 3) // 2, 1))
                for c in range(1, 22, 2)]
    spectra.append(BrieskornParams(5, 4).instance().spectrum)
    for s in spectra:
        mu = s.mu
        assert all(s.values[i] + s.values[mu - 1 - i] == 2 for i in range(mu))
        assert stats_of_values(s.values).av == 1  # n/2 with n = 2


def test_mu_one_spectrum_is_legal():
    s = BrieskornParams(2, 2).instance().spectrum
    assert s.mu == 1 and s.values == (F(1),)


@pytest.mark.parametrize("a", range(2, 13))
def test_brieskorn_matches_the_lattice_sums(a):
    for b in range(2, 13):
        expected = sorted(F(i, a) + F(j, b) for i in range(1, a) for j in range(1, b))
        assert list(BrieskornParams(a, b).instance().spectrum.values) == expected


def reference_puiseux_values(params):
    """Sorted Puiseux spectrum by Fraction sums, compares and reflections:
    the slow route for the integer numerators of puiseux_spectrum."""
    a, b, d, e = params.a, params.b, params.d, params.e
    lower = []
    for i in range(1, e):
        for j in range(1, d):
            x = F(i, e) + F(j, d)
            if x < 1:
                lower.append(x)
    for i in range(1, a):
        for j in range(1, b):
            y = F(i, a) + F(j, b)
            if y < 1:
                lower.extend((y + k) / d for k in range(d))
    return sorted(lower + [2 - v for v in lower])


def puiseux_grid():
    """Valid PuiseuxParams with d in 1..3 and q in -4..4 for small a, b, r,
    then every tuple of the seed-0 puiseux-sweep benchmark."""
    for a, b, d, q, r in product(range(3, 7), range(2, 6), range(1, 4), range(-4, 5), range(1, 5)):
        p = PuiseuxParams(a, b, d, q, r)
        try:
            p.validate()
        except InvalidFamilyParameters:
            continue
        yield p
    for row in json.loads(PUISEUX_REFERENCE.read_text()):
        yield PuiseuxParams(*map(int, row["params"].split(",")))


def test_puiseux_spectrum_matches_fraction_reference():
    grid = list(dict.fromkeys(puiseux_grid()))
    assert {p.d for p in grid} == {1, 2, 3}
    assert any(p.q < 0 for p in grid)
    assert len(grid) == 303
    for p in grid:
        s = puiseux_spectrum(p)
        assert list(s.values) == reference_puiseux_values(p), p
        assert all(type(v) is F for v in s.values), p


def reference_lattice(pairs, f, family_tag, swh):
    """The instance by a keyed sort of the (value, is_tjurina) pairs and
    make_spectrum: the slow route for the integer sort of _lattice_instance."""
    ordered = sorted(pairs, key=lambda p: (p[0], not p[1]))
    spectrum = make_spectrum([v for v, _ in ordered], n=2)
    indices = frozenset(i for i, (_, tj) in enumerate(ordered, 1) if tj)
    return TjurinaInstance(spectrum, indices, f, family_tag, swh=swh, subset_assumed=False)


def assert_matches_reference(inst, pairs):
    expected = reference_lattice(pairs, inst.defining_poly, inst.family_tag, inst.swh)
    assert inst == expected, inst.family_tag
    assert all(type(v) is F for v in inst.spectrum.values), inst.family_tag


def test_swh_matches_the_keyed_sort_reference():
    grid = list(swh_grid(12))
    assert len(grid) == 423
    for p in grid:
        a, b, c, d = p
        pairs = [(F(i, a) + F(j, b), i < a - c or j < b - d)
                 for i in range(1, a) for j in range(1, b)]
        assert_matches_reference(swh_instance(p), pairs)


def three_monomial_grid():
    """THREE_MONOMIAL_TUPLES, then every valid tuple with a in 2..4, b in
    3..6 and c, d in 5..14."""
    yield from map(ThreeMonomialParams._make, THREE_MONOMIAL_TUPLES)
    yield from valid_three_monomial(range(2, 5), range(3, 7), range(5, 15), range(5, 15))


def test_three_monomial_matches_the_keyed_sort_reference():
    grid = list(dict.fromkeys(three_monomial_grid()))
    # the product holds every tuple of THREE_MONOMIAL_TUPLES but (3, 4, 4, 17)
    assert len(grid) == 601
    for p in grid:
        inst = three_monomial_instance(p)
        assert inst.tau_checked  # by the engine, at build
        assert_matches_reference(inst._replace(tau_checked=False),
                                 list(_three_monomial_lattice(p)))


@st.composite
def lattice_pairs(draw):
    """(value, is_tjurina) pairs over a few small mixed denominators, so that
    equal values recur with both flags, in any order.  They are symmetric
    about 1 unless one value is moved or one pair added, which may also put
    a value outside (0, 2)."""
    dens = draw(st.lists(st.sampled_from([1, 2, 3, 4, 6, 9, 12]), min_size=1, max_size=3))
    value = st.sampled_from(dens).flatmap(
        lambda d: st.integers(1, d).map(lambda k: F(k, d) if d > 1 else k))
    lower = draw(st.lists(st.tuples(value, st.booleans()), max_size=20))
    pairs = lower + [(2 - v, draw(st.booleans())) for v, _ in lower]
    change = draw(st.sampled_from(["none", "none", "move", "add"]))
    shift = draw(value) - draw(st.sampled_from([0, 1, 2]))
    if change == "move" and pairs:
        i = draw(st.integers(0, len(pairs) - 1))
        pairs[i] = (pairs[i][0] + shift, pairs[i][1])
    elif change == "add":
        pairs.append((1 + shift, draw(st.booleans())))
    return draw(st.permutations(pairs))


def outcome(build, *args):
    """The instance that build returns, or the type and message it raises."""
    try:
        return build(*args)
    except TjspectraError as exc:
        return type(exc), str(exc)


@given(lattice_pairs())
@settings(max_examples=300)
def test_lattice_instance_matches_the_keyed_sort_reference(pairs):
    f = Poly({(2, 0): 1, (0, 3): 1}, 2)
    try:
        expected = reference_lattice(pairs, f, "lattice", False)
    except ValueError as exc:  # a family spectrum that fails a check is an internal error
        expected = InternalConsistencyError, str(exc)
    assert outcome(_lattice_instance, iter(pairs), f, "lattice", False) == expected
    if isinstance(expected, TjurinaInstance):
        assert all(type(v) is F for v in expected.spectrum.values)
