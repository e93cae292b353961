"""Randomized invariant checks: the sum-of-squares identity, the single-swap
identities, shift invariance, the one-point reduction chain, soundness of
the sufficient failure criterion, integer power sums against Fraction
sums, and the standard-basis engine against the linear-algebra oracle."""

import random
import re
from fractions import Fraction as F
from itertools import product
from math import ceil, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tjspectra.conjecture import (enumerate_candidates, prop41_step,
                                  remark32_compare, thm31_verdict)
from tjspectra.errors import InternalConsistencyError, InvalidFamilyParameters
from tjspectra.families import (BrieskornParams, PuiseuxParams, SwhParams,
                                ThreeMonomialParams, TjurinaInstance, swh_instance)
from tjspectra.localg import colength_oracle, local_std_basis, milnor
from tjspectra.poly import Poly, jacobian
from tjspectra.spectra import (make_spectrum, spectrum_of_numerators,
                               stats_of_values, subset_stats)
from tjspectra.verify import THREE_MONOMIAL_TUPLES, swh_grid

rationals = st.fractions(min_value=F(1, 60), max_value=F(119, 60),
                         max_denominator=60)


@given(st.lists(rationals, min_size=1, max_size=20))
def test_identity_43(values):
    tau = len(values)
    st_ = stats_of_values(values)
    lhs = sum(((v - st_.av) ** 2 for v in values), F(0))
    rhs = sum((v * v for v in values), F(0)) - tau * st_.av ** 2
    assert lhs == rhs == tau * st_.var


DERIVED = ("tau", "av", "var", "alpha_min", "alpha_max", "delta")


def derived(st):
    """The six statistics a SubsetStats record derives from its power sums."""
    return tuple(getattr(st, name) for name in DERIVED)


def reference_stats(values):
    """The six derived statistics by direct Fraction sums: the slow route
    that the integer power sums of stats_of_values are compared against."""
    tau = len(values)
    s1 = sum(values, F(0))
    s2 = sum((v * v for v in values), F(0))
    av = s1 / tau
    var = s2 / tau - av * av
    lo, hi = min(values), max(values)
    # F(...) keeps the width exact when every value is an int
    return (tau, av, var, lo, hi, var - F(hi - lo) / 12)


# large primes and prime powers make the common denominator a product of
# big coprime factors
big_denominators = st.sampled_from([2**31 - 1, 10**9 + 7, 998244353, 3**25, 5**17])
mixed_values = st.one_of(
    st.integers(-1000, 1000),
    st.fractions(min_value=F(-3), max_value=F(3), max_denominator=360),
    st.builds(F, st.integers(-10**12, 10**12), big_denominators),
)


@given(st.lists(mixed_values, min_size=1, max_size=25),
       st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=25),
       st.one_of(st.integers(1, 360), big_denominators))
def test_integer_power_sums_match_fraction_sums(values, nums, L):
    # rational values, and int numerators over L, as a spectrum passes them
    for got, want in ((stats_of_values(values), reference_stats(values)),
                      (stats_of_values(nums, L), reference_stats([F(k, L) for k in nums])),
                      (stats_of_values(values, L), reference_stats([v / F(L) for v in values]))):
        assert derived(got) == want
        assert all(type(x) is int for x in got)
        assert all(type(x) is F for x in derived(got)[1:])
    for x in (True, 0.5):
        with pytest.raises(TypeError):
            stats_of_values(nums + [x], L)
    for bad in (0, -3):
        with pytest.raises(ValueError, match=f"^L must be positive, got {bad}$"):
            stats_of_values(nums, bad)
    for bad in (True, F(1, 2), 2.0):
        with pytest.raises(TypeError, match=f"^L must be an int, not {type(bad).__name__}$"):
            stats_of_values(nums, bad)


@given(st.lists(mixed_values, max_size=10),
       st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.booleans()),
       st.integers(0, 10))
def test_float_input_raises_type_error(values, x, at):
    values.insert(at, x)
    with pytest.raises(TypeError):
        stats_of_values(values)


@given(st.lists(rationals, min_size=2, max_size=15),
       st.fractions(min_value=F(-5), max_value=F(5), max_denominator=24))
def test_shift_invariance(values, shift):
    a = stats_of_values(values)
    b = stats_of_values([v + shift for v in values])
    assert a.var == b.var
    assert a.alpha_max - a.alpha_min == b.alpha_max - b.alpha_min
    assert a.delta == b.delta


@given(st.lists(rationals, min_size=2, max_size=12, unique=True), rationals)
def test_identity_37_single_swap(base, beta_p):
    beta = max(base)
    if beta <= beta_p:
        return
    swapped = sorted(base)[:-1] + [beta_p]
    s1 = sum((v * v for v in base), F(0))
    s2 = sum((v * v for v in swapped), F(0))
    assert s1 - s2 == (beta - beta_p) * (beta + beta_p)
    out = remark32_compare(base, swapped)  # internally asserts both identities
    assert out.case in ("max_drops", "max_fixed", "inapplicable")


def test_identity_43_bulk_randomized():
    rng = random.Random(43)
    for _ in range(10_000):
        tau = rng.randint(1, 12)
        values = [F(rng.randint(1, 199), rng.randint(100, 120)) for _ in range(tau)]
        st_ = stats_of_values(values)
        lhs = sum(((v - st_.av) ** 2 for v in values), F(0))
        assert lhs == sum((v * v for v in values), F(0)) - tau * st_.av ** 2


def test_identity_37_bulk_randomized():
    rng = random.Random(37)
    for _ in range(10_000):
        tau = rng.randint(2, 10)
        values = [F(rng.randint(1, 60), rng.randint(20, 40)) for _ in range(tau)]
        beta = max(values)
        beta_p = beta - F(rng.randint(1, 10), 17)
        if beta_p <= 0:
            continue
        swapped = sorted(values)[:-1] + [beta_p]
        s1 = sum((v * v for v in values), F(0))
        s2 = sum((v * v for v in swapped), F(0))
        assert s1 - s2 == (beta - beta_p) * (beta + beta_p)
        st1, st2 = stats_of_values(values), stats_of_values(swapped)
        assert tau * (st1.av ** 2 - st2.av ** 2) == (beta - beta_p) * (st1.av + st2.av)


def test_prop41_chain_randomized():
    # whenever the extremes survive and hypothesis (alpha_i0 - av)^2 >= w/12
    # holds, the scaled defects satisfy tau*delta_T >= tau'*delta_T'
    rng = random.Random(41)
    spectra = [BrieskornParams(a, b).instance().spectrum for a, b in
               [(7, 7), (5, 4), (9, 8), (6, 6), (12, 5)]]
    checked = 0
    trials = 0
    while checked < 1_000 and trials < 50_000:
        trials += 1
        s = rng.choice(spectra)
        size = rng.randint(3, s.mu)
        T = rng.sample(range(1, s.mu + 1), size)
        i0 = rng.choice(T)
        out = prop41_step(s, T, i0)
        if not (out.hypothesis_42 and out.extremes_preserved):
            continue
        checked += 1
        st_t = subset_stats(s, T)
        st_rest = subset_stats(s, [i for i in T if i != i0])
        assert len(T) * st_t.delta >= (len(T) - 1) * st_rest.delta
        if out.guaranteed:
            assert st_rest.delta <= 0
    assert checked >= 1_000


def test_thm31_soundness_over_sweep():
    params = list(swh_grid(12)) + [SwhParams(51, 51, 1, 1), SwhParams(60, 60, 1, 1)]
    for p in params:
        inst = swh_instance(p)
        verdict = thm31_verdict(inst)
        if verdict.guaranteed_failure:
            assert subset_stats(inst.spectrum, inst.tjurina_indices).delta > 0


def reference_thm31(inst):
    """Theorem 3.1's verdict by Fraction formulas over reference_stats: the
    slow route for the integer comparisons of thm31_verdict.  Returns the
    five flags, and the message of the first invariant that fails or None."""
    s = inst.spectrum
    mu, av, _, lo, top, full_delta = reference_stats(list(s.values))
    tau, av_t, _, _, top_t, delta_t = reference_stats(
        [s.value_at(i) for i in sorted(inst.tjurina_indices)])
    mu_ne_tau = mu != tau
    av_condition = av_t <= av
    width_condition = top - lo <= 2
    cond_3_3 = F(mu, 12) * (top - top_t) >= (mu - tau) * top ** 2
    guaranteed = inst.swh and mu_ne_tau and (width_condition or av_condition) and cond_3_3
    flags = (mu_ne_tau, av_condition, width_condition, cond_3_3, guaranteed)
    if full_delta > 0 or (inst.swh and full_delta != 0):
        return flags, f"{inst.family_tag}: full-spectrum delta = {full_delta}"
    if guaranteed and delta_t <= 0:
        return flags, f"{inst.family_tag}: thm31 fires but delta = {delta_t}"
    return flags, None


def assert_verdict_matches_reference(inst):
    """thm31_verdict gives the reference's flags, or raises its message."""
    flags, error = reference_thm31(inst)
    if error is None:
        assert tuple(thm31_verdict(inst))[1:] == flags, inst.family_tag
    else:
        with pytest.raises(InternalConsistencyError, match=f"^{re.escape(error)}$"):
            thm31_verdict(inst)
    return flags, error


def family_instances():
    """swh_grid(12), swh(48,48,1,1), THREE_MONOMIAL_TUPLES and a small
    Puiseux grid, each with its Tjurina subset and with the drop-max subset
    of sweep."""
    params = list(swh_grid(12)) + [SwhParams(48, 48, 1, 1)]  # where Theorem 3.1 fires
    params += [ThreeMonomialParams(*t) for t in THREE_MONOMIAL_TUPLES]
    for t in product(range(3, 6), range(2, 5), range(1, 4), range(-2, 3), range(1, 3)):
        p = PuiseuxParams(*t)
        try:
            p.validate()
        except InvalidFamilyParameters:
            continue
        params.append(p)
    for p in params:
        inst = p.instance()
        yield inst
        if inst.mu > 1:
            yield inst._replace(tjurina_indices=frozenset(range(1, inst.mu)))


def test_thm31_verdict_matches_the_fraction_reference_on_family_grids():
    outcomes = [assert_verdict_matches_reference(inst) for inst in family_instances()]
    assert all(error is None for _, error in outcomes)
    # av_T <= av and width <= 2 hold on every curve here; the tests below
    # put each condition on its boundary
    columns = list(zip(*(flags for flags, _ in outcomes)))
    assert all(set(columns[i]) == {False, True} for i in (0, 3, 4))


def synthetic(values, n, indices, swh):
    """An instance of the values with the given 1-based subset, built for
    thm31_verdict, which reads only its spectrum, subset, swh and tag."""
    return TjurinaInstance(make_spectrum(values, n), frozenset(indices), None,
                           "synthetic", swh, False)


def with_centre(lower, n, extra):
    """The values of lower, their mirrors about n/2, and enough copies of
    n/2 (then extra more) that delta <= 0, so that with swh unset the
    verdict returns rather than raising."""
    centre = F(n, 2)
    devs = [centre - v for v in lower]
    width = 2 * max(devs)
    # Var = 2 sum d^2 / mu <= width / 12 once mu >= 24 sum d^2 / width
    need = ceil(24 * sum(d * d for d in devs) / width) - 2 * len(lower) if width else 0
    return lower + [n - v for v in lower] + [centre] * (max(need, 0) + extra)


lower_halves = st.lists(st.fractions(min_value=F(1, 60), max_value=F(1), max_denominator=60),
                        min_size=1, max_size=12)


@given(lower_halves, st.integers(0, 3), st.data(), st.booleans())
def test_thm31_verdict_on_the_av_boundary(lower, extra, data, swh):
    # a subset closed under alpha_i <-> alpha_{mu+1-i} has av_T = av = 1
    values = with_centre(lower, 2, extra)
    mu = len(values)
    picks = data.draw(st.sets(st.integers(1, mu), min_size=1))
    flags, _ = assert_verdict_matches_reference(
        synthetic(values, 2, picks | {mu + 1 - i for i in picks}, swh))
    assert flags[1]


@given(st.lists(st.fractions(min_value=F(1, 2), max_value=F(3, 2), max_denominator=60),
                max_size=12), st.integers(0, 3), st.data(), st.booleans())
def test_thm31_verdict_on_the_width_boundary(lower, extra, data, swh):
    # n = 3, with alpha_1 = 1/2 and alpha_mu = 5/2
    values = with_centre([F(1, 2)] + lower, 3, extra)
    tj = data.draw(st.sets(st.integers(1, len(values)), min_size=1))
    flags, _ = assert_verdict_matches_reference(synthetic(values, 3, tj, swh))
    assert flags[2]


@given(st.fractions(min_value=F(5, 4), max_value=F(7, 4), max_denominator=12),
       st.integers(1, 3), st.integers(0, 20),
       st.lists(st.fractions(min_value=0, max_value=1, max_denominator=12),
                min_size=1, max_size=4), st.booleans())
def test_thm31_verdict_on_the_3_3_boundary(top, gap, extra, shape, swh):
    # alpha_mu = top repeated gap times, and the subset drops those copies;
    # its largest value t solves mu/12 * (top - t) = gap * top^2, and mu is
    # large enough that t >= 1, so the spectrum can be symmetric about 1
    mu = max(ceil(12 * gap * top ** 2 / (top - 1)), 2 * gap + 2) + extra
    t = top - 12 * gap * top ** 2 / mu
    middle = [1 + sign * shape[i % len(shape)] * (t - 1)
              for i in range((mu - 2 * gap - 2) // 2) for sign in (-1, 1)]
    middle += [F(1)] * (mu % 2)
    values = [2 - top] * gap + [2 - t] + middle + [t] + [top] * gap
    inst = synthetic(values, 2, range(1, mu - gap + 1), swh)
    flags, _ = assert_verdict_matches_reference(inst)
    assert flags[3]


@given(st.lists(st.integers(1, 6), min_size=1, max_size=6), st.data(), st.booleans(),
       st.booleans())
def test_thm31_verdict_on_the_delta_boundary(devs, data, doubled, swh):
    # numerators 12S +- e*mu*E and z copies of 12S over L = 12S, with
    # S = sum e^2 and E = max e, have delta = 0 whenever mu*E^2 < 12S; a
    # doubled multiset keeps delta = 0, and so does one copy of it
    big, s2, m = max(devs), sum(e * e for e in devs), len(devs)
    z = data.draw(st.integers(0, ceil(12 * s2 / big ** 2) - 2 * m - 1))
    mu = 2 * m + z
    nums = [12 * s2 + sign * e * mu * big for e in devs for sign in (-1, 1)] + [12 * s2] * z
    if doubled:
        tj = range(1, 4 * m + 2 * z, 2)
        nums += nums
    else:
        tj = data.draw(st.sets(st.integers(1, mu), min_size=1))
    s = spectrum_of_numerators(nums, 12 * s2, 2)
    inst = TjurinaInstance(s, frozenset(tj), None, "synthetic", swh, False)
    assert stats_of_values(s.values).delta == 0
    if doubled:
        assert subset_stats(s, tj).delta == 0
    assert_verdict_matches_reference(inst)


def test_statistics_and_verdict_build_no_fraction(monkeypatch):
    insts = [swh_instance(SwhParams(7, 7, 1, 1)), swh_instance(SwhParams(48, 48, 1, 1)),
             ThreeMonomialParams(2, 4, 7, 6).instance(), PuiseuxParams(3, 2, 2, 1, 1).instance()]
    assert thm31_verdict(insts[1]).guaranteed_failure
    built = []
    real_new = F.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting_new)
    for inst in insts:
        stats_of_values(inst.spectrum.nums, inst.spectrum.L)
        thm31_verdict(inst)
    assert built == []
    F(1, 2)  # the patch counts
    assert built == [(1, 2)]


def test_remark32_agrees_with_direct_ordering_on_candidates():
    s = BrieskornParams(7, 7).instance().spectrum
    res = enumerate_candidates(s, 6)
    by_tau = {}
    for r in res.records:
        by_tau.setdefault(r.tau_prime, []).append(r)
    checked = 0
    for recs in by_tau.values():
        for i in range(len(recs)):
            for j in range(len(recs)):
                if i == j:
                    continue
                vi = [s.value_at(k) for k in range(1, 37) if k not in recs[i].missing]
                vj = [s.value_at(k) for k in range(1, 37) if k not in recs[j].missing]
                try:
                    out = remark32_compare(vi, vj)
                except ValueError as exc:  # not a single swap, or beta < beta'
                    assert str(exc).startswith(("multisets must differ", "need beta > beta'"))
                    continue
                checked += 1
                if out.prediction == "delta_greater":
                    assert recs[i].stats.delta > recs[j].stats.delta
                elif out.prediction == "delta_less":
                    assert recs[i].stats.delta < recs[j].stats.delta
    assert checked > 0


@given(st.integers(2, 12), st.integers(2, 12))
@settings(max_examples=40, deadline=None)
def test_complete_spectrum_properties(a, b):
    s = BrieskornParams(a, b).instance().spectrum
    mu = s.mu
    for i in range(mu):
        assert s.values[i] + s.values[mu - 1 - i] == 2
    assert stats_of_values(s.values).av == 1


@given(st.lists(rationals, min_size=1, max_size=10))
def test_sorting_idempotence(values):
    s = make_spectrum(values + [2 - v for v in values], n=2)
    assert make_spectrum(s.values, n=2).values == s.values


@st.composite
def semi_quasihomogeneous(draw):
    """x^a + y^b (a, b <= 6) or x^a + y^b + z^c (a, b, c <= 4), plus up to
    three small integer multiples of monomials strictly above the Newton
    boundary, of any degree up to a + b (+ c); mu is (a - 1)(b - 1)(c - 1).

    Terms of high degree are what the engine's highest-corner cut drops:
    without it, x^2 + y^4 + z^3 + xyz + x^2 y^3 z^2 took minutes.
    """
    nvars = draw(st.integers(2, 3))
    top = 6 if nvars == 2 else 4
    weights = draw(st.tuples(*[st.integers(2, top)] * nvars))
    terms = {tuple(w if u == v else 0 for u in range(nvars)): 1
             for v, w in enumerate(weights)}
    above = [e for e in product(*(range(w + 1) for w in weights))
             if sum(F(k, w) for k, w in zip(e, weights)) > 1]
    extras = draw(st.lists(st.sampled_from(above), max_size=3, unique=True)) if above else []
    for e in extras:  # never a pure power, which lies on the boundary
        terms[e] = draw(st.integers(-3, 3).filter(bool))
    return Poly(terms, nvars), weights


@given(semi_quasihomogeneous())
@settings(max_examples=30, deadline=None)
def test_engine_matches_oracle_on_semi_quasihomogeneous(case):
    f, weights = case
    assert milnor(f) == prod(w - 1 for w in weights)
    gens = [g for g in jacobian(f) if not g.is_zero()]
    assert local_std_basis(gens).colength == colength_oracle(gens, sum(weights))
