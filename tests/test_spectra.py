import re
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tjspectra.families import BrieskornParams
from tjspectra.spectra import (Spectrum, make_spectrum, spectrum_of_numerators,
                               stats_of_values, subset_stats)


def test_make_spectrum_sorts():
    s = make_spectrum([F(7, 6), F(5, 6)], n=2)
    assert s.values == (F(5, 6), F(7, 6))
    assert s.mu == 2


def test_make_spectrum_eq45_multiset():
    vals = [F(4 * p + 5 * q, 20) for p in range(1, 5) for q in range(1, 4)]
    s = make_spectrum(vals, n=2)
    assert s.mu == 12
    assert s.values[0] == F(9, 20)
    assert s.values[-1] == F(31, 20)


def test_make_spectrum_symmetry_violation():
    with pytest.raises(ValueError, match=r"^alpha_2 \+ alpha_2 = 7/3 != 2$"):
        make_spectrum([F(5, 6), F(7, 6), F(7, 6)], n=2)
    with pytest.raises(ValueError, match=r"alpha_1 \+ alpha_2 = 3/2 != 2$"):
        make_spectrum([F(1, 2), F(1)], 2)


def test_make_spectrum_errors():
    with pytest.raises(ValueError, match="^a spectrum must contain at least one value$"):
        make_spectrum([], n=2)
    with pytest.raises(ValueError, match=r"^spectral value 5/2 outside \(0, 2\)$"):
        make_spectrum([F(5, 2)], n=2)
    with pytest.raises(ValueError, match=r"^spectral value 0 outside \(0, 2\)$"):
        make_spectrum([F(0)], n=2)


def test_sorting_idempotent():
    vals = [F(7, 6), F(5, 6), F(1)]
    s = make_spectrum(vals, n=2)
    assert make_spectrum(s.values, n=2).values == s.values


def test_subset_stats_brieskorn77_full():
    # independent oracle: direct exact summation over {i/7 + j/7}
    vals = [F(i, 7) + F(j, 7) for i in range(1, 7) for j in range(1, 7)]
    av = sum(vals, F(0)) / 36
    var = sum(((v - av) ** 2 for v in vals), F(0)) / 36
    s = BrieskornParams(7, 7).instance().spectrum
    st = subset_stats(s, range(1, 37))
    assert (st.av, st.var) == (av, var) == (F(1), F(5, 42))
    assert st.delta == 0


def test_subset_stats_singleton():
    s = BrieskornParams(7, 7).instance().spectrum
    st = subset_stats(s, [5])
    assert st.var == 0 and st.delta == 0


def test_stats_of_values_hand_example():
    st = stats_of_values([F(1, 2), F(3, 2), F(3, 2)])
    assert st.av == F(7, 6)
    assert st.var == F(2, 9)
    assert st.delta == F(2, 9) - F(1, 12) == F(5, 36)


def test_subset_stats_errors():
    s = BrieskornParams(2, 3).instance().spectrum
    with pytest.raises(ValueError, match="^statistics of an empty subset are undefined$"):
        subset_stats(s, [])
    with pytest.raises(ValueError, match=r"^subset index outside \[1, 2\]$"):
        subset_stats(s, [0, 1])


def test_subset_stats_counts_each_index_once_in_any_iterable():
    s = BrieskornParams(7, 5).instance().spectrum
    picks = [9, 2, 17, 2, 24, 9, 1, 24]
    want = stats_of_values([s.nums[i - 1] for i in sorted(set(picks))], s.L)
    for indices in (picks, (i for i in picks), frozenset(picks)):
        assert subset_stats(s, indices) == want
    for bad, error in (([], "statistics of an empty subset are undefined"),
                       ([1, s.mu + 1, 1], rf"subset index outside \[1, {s.mu}\]")):
        for indices in (bad, (i for i in bad), frozenset(bad)):
            with pytest.raises(ValueError, match=f"^{error}$"):
                subset_stats(s, indices)


@pytest.mark.parametrize("i", [0, -1, 3])
def test_value_at_outside_one_to_mu_raises_index_error(i):
    s = BrieskornParams(3, 2).instance().spectrum
    assert s.values == (F(5, 6), F(7, 6))
    assert (s.value_at(1), s.value_at(2)) == s.values
    with pytest.raises(IndexError):
        s.value_at(i)


def test_average_variance_width_brieskorn23():
    s = BrieskornParams(2, 3).instance().spectrum
    assert s.values == (F(5, 6), F(7, 6))
    st = stats_of_values(s.values)
    assert st.av == 1
    assert st.var == F(1, 36)
    assert st.alpha_max - st.alpha_min == F(1, 3)


def test_average_is_half_n_for_complete():
    for a, b in [(2, 3), (5, 4), (7, 7), (9, 6)]:
        assert stats_of_values(BrieskornParams(a, b).instance().spectrum.values).av == 1


def test_singleton_spectrum():
    s = make_spectrum([F(1)], n=2)
    st = stats_of_values(s.values)
    assert st.var == 0 and st.alpha_max - st.alpha_min == 0 and st.delta == 0


def test_hertling_defect_zero_on_brieskorn():
    for b in range(2, 13):
        for a in range(b, 13):
            s = BrieskornParams(a, b).instance().spectrum
            assert stats_of_values(s.values).delta == 0


def test_hertling_defect_eq45_spectrum():
    vals = [F(4 * p + 5 * q, 20) for p in range(1, 5) for q in range(1, 4)]
    assert stats_of_values(make_spectrum(vals, n=2).values).delta == 0


def test_variance_centers_at_average_not_half_n():
    # asymmetric multiset: centering at n/2 would give a different number
    st = stats_of_values([F(1, 2), F(3, 4)])
    assert st.av == F(5, 8)
    assert st.var == F(1, 64)


def reference_check(values, n):
    """Emptiness, range and symmetry checks on sorted Fractions, the slow
    route for the integer checks in spectrum_of_numerators: (exception type,
    message) or None."""
    vals = sorted(values)
    if not vals:
        return ValueError, "a spectrum must contain at least one value"
    if vals[0] <= 0 or vals[-1] >= n:
        bad = vals[0] if vals[0] <= 0 else vals[-1]
        return ValueError, f"spectral value {bad} outside (0, {n})"
    mu = len(vals)
    for i in range(mu):
        if vals[i] + vals[mu - 1 - i] != n:
            return ValueError, (f"alpha_{i + 1} + alpha_{mu - i} = "
                                f"{vals[i] + vals[mu - 1 - i]} != {n}")
    return None


@given(st.sampled_from([(2, 3), (5, 4), (7, 7), (9, 6)]), st.data(),
       st.fractions(min_value=F(-3), max_value=F(3), max_denominator=1009),
       st.booleans())
def test_integer_checks_match_fraction_checks(ab, data, shift, append):
    values = list(BrieskornParams(*ab).instance().spectrum.values)
    if append:
        values.append(values[-1] + shift)
    else:
        i = data.draw(st.integers(0, len(values) - 1))
        values[i] += shift
    expected = reference_check(values, 2)
    if expected is None:
        s = make_spectrum(values, n=2)
        assert s.values == tuple(sorted(values))
    else:
        with pytest.raises(expected[0], match=re.escape(expected[1]) + "$"):
            make_spectrum(values, n=2)


def test_make_spectrum_accepts_ints_and_rejects_floats():
    s = make_spectrum([1, F(1, 2), F(3, 2)], n=2)
    assert s.values == (F(1, 2), F(1), F(3, 2))
    assert all(type(v) is F for v in s.values)
    with pytest.raises(TypeError):
        make_spectrum([0.5, F(3, 2)], n=2)
    with pytest.raises(TypeError, match="not bool$"):
        make_spectrum([True, F(1, 2), F(3, 2)], n=2)


@pytest.mark.parametrize("nums, L, n, error, message", [
    ([True, True], 1, 2, TypeError, "spectral values must be int or Fraction, not bool"),
    ([1, 3.0], 2, 2, TypeError, "spectral values must be int or Fraction, not float"),
    (["1", "3"], 2, 2, TypeError, "spectral values must be int or Fraction, not str"),
    ([1, 3], True, 2, TypeError, "L must be an int, not bool"),
    ([1, 3], 2.0, 2, TypeError, "L must be an int, not float"),
    ([1, 3], 2, True, TypeError, "n must be an int, not bool"),
    ([2, 4], 3, 2.0, TypeError, "n must be an int, not float"),
    ([1], 0, 2, ValueError, "L must be positive, got 0"),
    ([1, 3], -2, 2, ValueError, "L must be positive, got -2"),
])
def test_spectrum_of_numerators_rejects_bad_types_and_L(nums, L, n, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        spectrum_of_numerators(nums, L, n)


def test_spectrum_of_numerators_takes_fractions():
    assert spectrum_of_numerators([F(1), F(3)], 2, 2) == make_spectrum([F(1, 2), F(3, 2)], 2)


# Each constructor and the statistics, called on values and, where it takes
# one, on an L; make_spectrum takes no L.
INPUT_RULE = {
    "make_spectrum": (lambda values: make_spectrum(values, 2), None),
    "spectrum_of_numerators": (lambda values: spectrum_of_numerators(values, 1, 2),
                               lambda L: spectrum_of_numerators([1, 3], L, 2)),
    "stats_of_values": (stats_of_values, lambda L: stats_of_values([1, 3], L)),
}


@pytest.mark.parametrize("name", list(INPUT_RULE))
def test_one_rule_checks_spectral_input(name):
    of_values, of_L = INPUT_RULE[name]
    for bad in (True, 0.5):
        with pytest.raises(TypeError, match="^spectral values must be int or Fraction, "
                                            f"not {type(bad).__name__}$"):
            of_values([bad, F(3, 2)])
    if of_L is None:
        return
    for L, error, message in ((True, TypeError, "L must be an int, not bool"),
                              (2.0, TypeError, "L must be an int, not float"),
                              (0, ValueError, "L must be positive, got 0"),
                              (-2, ValueError, "L must be positive, got -2")):
        with pytest.raises(error, match=f"^{message}$"):
            of_L(L)


def outcome(build, *args):
    """The Spectrum that build returns, or the type and message it raises."""
    try:
        return build(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def reference_spectrum(values):
    """The Spectrum of these Fractions, built from the Fractions alone: the
    sorted values, and their numerators over the lcm of their denominators,
    which is the lowest common denominator."""
    values = tuple(sorted(values))
    L = lcm(*(v.denominator for v in values))
    return Spectrum(values, tuple(v.numerator * (L // v.denominator) for v in values), L)


def reference_outcome(values, n):
    """What a spectrum constructor must give for these Fractions: the sorted
    Spectrum, or reference_check's exception type and message."""
    return reference_check(values, n) or reference_spectrum(values)


@given(st.integers(1, 60), st.integers(1, 3), st.booleans(),
       st.lists(st.integers(-5, 200), max_size=12), st.integers(-3, 3), st.integers(0, 23))
@example(6, 2, False, [0, 3], 0, 0)  # out of range at 0, the lower end
@example(6, 2, True, [3, 5], -1, 0)  # symmetric but for a pair sum below n
def test_numerator_constructor_matches_make_spectrum(L, n, mirror, nums, shift, index):
    if mirror:  # a symmetric multiset, with one numerator moved by shift
        nums = nums + [n * L - k for k in nums]
        if nums:
            nums[index % len(nums)] += shift
    values = [F(k, L) for k in nums]
    expected = reference_outcome(values, n)
    assert outcome(spectrum_of_numerators, nums, L, n) == expected
    assert outcome(make_spectrum, values, n) == expected


# each id names the check that fails
@pytest.mark.parametrize("nums, descending, message", [
    ([], False, "a spectrum must contain at least one value"),
    ([0, 3], False, "spectral value 0 outside (0, 2)"),
    ([3, 12], False, "spectral value 2 outside (0, 2)"),
    ([3, 5, 7], True, "alpha_1 + alpha_3 = 5/3 != 2"),
], ids=["nums0-False-EmptySpectrum", "nums1-False-ValueOutOfRange",
        "nums2-False-ValueOutOfRange", "nums3-True-SymmetryViolation"])
def test_numerator_constructor_raises_what_make_spectrum_raises(nums, descending, message):
    nums = sorted(nums, reverse=descending)  # the order given must not matter
    values = [F(k, 6) for k in nums]
    expected = reference_outcome(values, 2)
    assert expected == (ValueError, message)
    assert outcome(spectrum_of_numerators, nums, 6, 2) == expected
    assert outcome(make_spectrum, values, 2) == expected


@given(st.integers(1, 60), st.integers(1, 3), st.integers(1, 6),
       st.lists(st.integers(0, 200), min_size=1, max_size=12), st.integers(-3, 3),
       st.integers(0, 23))
@example(6, 2, 4, [2, 4], 0, 0)   # every numerator even: L = 6 reduces to 3
@example(6, 2, 3, [0, 5], 0, 0)   # out of range at 0, the lower end
@example(6, 2, 5, [3, 5], -1, 0)  # symmetric but for a pair sum below n
def test_numerators_are_kept_in_lowest_terms(L, n, m, half, shift, index):
    # a symmetric multiset of numerators in [0, nL], with one moved by shift
    nums = [k % (n * L + 1) for k in half]
    nums += [n * L - k for k in nums]
    nums[index % len(nums)] += shift
    values = [F(k, L) for k in nums]
    expected = reference_outcome(values, n)
    scaled = outcome(spectrum_of_numerators, [m * k for k in nums], m * L, n)
    assert scaled == outcome(spectrum_of_numerators, nums, L, n) == expected
    assert outcome(make_spectrum, values, n) == expected
    if isinstance(scaled, Spectrum):
        assert gcd(scaled.L, *scaled.nums) == 1
        assert scaled.values == tuple(F(k, scaled.L) for k in scaled.nums)
