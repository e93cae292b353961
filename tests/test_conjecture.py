from fractions import Fraction as F

import pytest

from tjspectra.conjecture import (closed_form_tau_delta_322,
                                  enumerate_candidates, mple_failure_bound,
                                  prop41_step, remark32_compare, thm31_verdict)
from tjspectra.errors import InternalConsistencyError
from tjspectra.families import (BrieskornParams, PuiseuxParams, SwhParams, ThreeMonomialParams,
                                puiseux_instance, swh_instance, three_monomial_instance)
from tjspectra.spectra import stats_of_values, subset_stats


def full_instance(a, b):
    return BrieskornParams(a, b).instance()


def test_defect_counterexample():
    # oracle: direct summation over the 35 Tjurina values
    vals = sorted(F(i + j, 7) for i in range(1, 7) for j in range(1, 7))[:-1]
    assert stats_of_values(vals).delta == F(3, 9604)
    inst = swh_instance(SwhParams(7, 7, 1, 1))
    assert subset_stats(inst.spectrum, inst.tjurina_indices).delta == F(3, 9604)


def test_defect_full_subset_is_zero():
    inst = full_instance(6, 6)
    assert subset_stats(inst.spectrum, inst.tjurina_indices).delta == 0


def test_defect_6611_nonpositive():
    inst = swh_instance(SwhParams(6, 6, 1, 1))
    assert subset_stats(inst.spectrum, inst.tjurina_indices).delta <= 0


def test_thm31_51():
    v = thm31_verdict(swh_instance(SwhParams(51, 51, 1, 1)))
    # 2500/12 * 1/51 = 625/153 >= (100/51)^2 = 10000/2601
    assert F(625, 153) >= F(10000, 2601)
    assert v.cond_3_3 and v.guaranteed_failure


def test_thm31_77_sufficiency_not_necessity():
    inst = swh_instance(SwhParams(7, 7, 1, 1))
    v = thm31_verdict(inst)
    assert not v.cond_3_3  # 3/7 < 144/49
    assert not v.guaranteed_failure
    assert subset_stats(inst.spectrum, inst.tjurina_indices).delta > 0


def test_thm31_weighted_homogeneous():
    v = thm31_verdict(full_instance(5, 5))
    assert not v.mu_ne_tau and not v.guaranteed_failure


def test_thm31_verdict_checks_hertlings_equality_when_swh():
    inst = three_monomial_instance(ThreeMonomialParams(2, 4, 7, 6))
    delta = stats_of_values(inst.spectrum.values).delta
    assert delta < 0  # legal off swh, an error when swh
    thm31_verdict(inst)
    with pytest.raises(InternalConsistencyError,
                       match=rf"^three_monomial\(2,4,7,6\): full-spectrum delta = {delta}$"):
        thm31_verdict(inst._replace(swh=True))


def test_mple_bound():
    assert mple_failure_bound(50, 2, 1)        # 49^2 = 2401 >= 2400
    assert not mple_failure_bound(49, 2, 1)    # 2304 < 2352


@pytest.mark.parametrize("m, n, gap", [(1, 2, 1), (50, 0, 1), (50, 2, 0), (50, 2, -1)])
def test_mple_bound_domain(m, n, gap):
    with pytest.raises(ValueError,
                       match=rf"^need m >= 2, n >= 1, gap >= 1, got \({m}, {n}, {gap}\)$"):
        mple_failure_bound(m, n, gap)


def index_of_value(s, v):
    return next(i for i in range(1, s.mu + 1) if s.value_at(i) == v)


def test_prop41_interior_removal():
    s = full_instance(7, 7).spectrum
    out = prop41_step(s, range(1, 37), index_of_value(s, F(10, 7)))
    assert out.hypothesis_42 and out.extremes_preserved and out.guaranteed
    # conclusion holds: removing the point keeps delta non-positive
    rest = [i for i in range(1, 37) if i != index_of_value(s, F(10, 7))]
    assert subset_stats(s, rest).delta <= 0


def test_prop41_extremal_removal():
    s = full_instance(7, 7).spectrum
    out = prop41_step(s, range(1, 37), index_of_value(s, F(12, 7)))
    assert not out.extremes_preserved and not out.guaranteed


def test_prop41_center_point():
    s = full_instance(7, 7).spectrum
    out = prop41_step(s, range(1, 37), index_of_value(s, F(1)))
    assert not out.hypothesis_42 and not out.guaranteed


def test_prop41_errors():
    s = full_instance(7, 7).spectrum
    with pytest.raises(ValueError, match=r"^index 3 not in subset$"):
        prop41_step(s, [1, 2], 3)
    with pytest.raises(ValueError, match=r"^need \|T\| >= 2 to remove a point$"):
        prop41_step(s, [1], 1)


def test_remark32_max_fixed():
    out = remark32_compare([F(1, 2), F(3, 2), F(3, 2)], [F(1, 2), F(5, 4), F(3, 2)])
    assert out.case == "max_fixed" and out.prediction == "delta_greater"
    # direct check of the predicted ordering
    d1 = stats_of_values([F(1, 2), F(3, 2), F(3, 2)]).delta
    d2 = stats_of_values([F(1, 2), F(5, 4), F(3, 2)]).delta
    assert d1 == F(5, 36) and d2 == F(7, 72) and d1 > d2


def test_remark32_max_drops_condition_fails():
    out = remark32_compare([F(1, 2), F(3, 4), F(1)], [F(1, 2), F(3, 4), F(3, 4)])
    assert out.case == "max_drops" and out.prediction == "none"


def test_remark32_errors():
    with pytest.raises(ValueError, match="^multisets must differ by exactly one element$"):
        remark32_compare([F(1, 2), F(1)], [F(1, 2), F(1)])
    with pytest.raises(ValueError, match="^multisets must have equal size$"):
        remark32_compare([F(1, 2)], [F(1, 2), F(1)])
    with pytest.raises(ValueError, match="^need beta > beta', got 3/4 <= 1$"):
        remark32_compare([F(1, 2), F(3, 4)], [F(1, 2), F(1)])


def test_enumerate_slack_one():
    s = full_instance(7, 7).spectrum
    res = enumerate_candidates(s, 1)
    assert res.k == 31 and not res.clamped
    assert len(res.records) == 1
    rec = res.records[0]
    assert (rec.tau_prime, rec.j) == (35, 1)
    assert rec.missing == frozenset({36})
    assert rec.stats.delta == F(3, 9604)


def test_enumerate_slack_two():
    s = full_instance(7, 7).spectrum
    res = enumerate_candidates(s, 2)
    tau34 = [(r.j, sorted(r.missing)) for r in res.records if r.tau_prime == 34]
    assert tau34 == [(2, [35, 36]), (1, [31, 36])]


def test_enumerate_negative_slack_is_a_value_error():
    with pytest.raises(ValueError, match="^slack must be non-negative, got -1$"):
        enumerate_candidates(full_instance(7, 7).spectrum, -1)


def test_enumerate_clamp():
    s = full_instance(7, 7).spectrum
    res = enumerate_candidates(s, 100)
    assert res.clamped and res.slack == 36 - 31 + 1 == 6


def test_enumerate_no_values_past_alpha1_plus_one():
    s = full_instance(3, 2).spectrum
    res = enumerate_candidates(s, 10)
    assert res.k == s.mu + 1
    # only pure top-block candidates
    assert all(r.j == s.mu - r.tau_prime for r in res.records)


def test_enumerate_missing_block_shape():
    s = full_instance(7, 7).spectrum
    res = enumerate_candidates(s, 6)
    for r in res.records:
        assert len(r.missing) == 36 - r.tau_prime
        top = set(range(36 - r.j + 1, 37))
        middle = r.missing - top
        assert middle == set(range(res.k, res.k + len(middle)))
    # per tau', the number of candidates matches the loop guard
    for tau_prime in range(30, 36):
        gap = 36 - tau_prime
        want = sum(1 for j in range(1, gap + 1) if j == gap or tau_prime >= res.k)
        got = sum(1 for r in res.records if r.tau_prime == tau_prime)
        assert got == want


def test_closed_forms_at_one():
    assert closed_form_tau_delta_322(1, "nonconsecutive") == F(-2257, 28080)
    assert closed_form_tau_delta_322(1, "consecutive") == F(-46139, 340704)


def test_closed_forms_even_c():
    with pytest.raises(ValueError, match="^c must be a positive odd integer, got 2$"):
        closed_form_tau_delta_322(2, "nonconsecutive")
    with pytest.raises(ValueError, match="^c must be a positive odd integer, got 2$"):
        closed_form_tau_delta_322(2, "consecutive")


@pytest.mark.parametrize("c", range(1, 22, 2))
def test_closed_forms_match_pipeline(c):
    s = puiseux_instance(PuiseuxParams(3, 2, 2, (c - 3) // 2, 1)).spectrum
    mu = s.mu
    nc = (c + 14) * subset_stats(s, range(1, mu)).delta
    co = (c + 13) * subset_stats(s, range(1, mu - 1)).delta
    assert nc == closed_form_tau_delta_322(c, "nonconsecutive")
    assert co == closed_form_tau_delta_322(c, "consecutive")
    # the paper's rational functions, written out
    assert nc == -F(c**3 + 37 * c**2 + 455 * c + 1764,
                    144 * c**2 + 3744 * c + 24192)
    assert co == -F(c**4 + 59 * c**3 + 1247 * c**2 + 10992 * c + 33840,
                    144 * c**3 + 5328 * c**2 + 65664 * c + 269568)


def test_puiseux_322_gap_is_two_for_odd_c():
    for c in range(1, 16, 2):
        inst = puiseux_instance(PuiseuxParams(3, 2, 2, (c - 3) // 2, 1))
        inst.cross_check()
        assert inst.mu - inst.tau == 2
