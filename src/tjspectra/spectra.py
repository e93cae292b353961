"""Spectra of isolated hypersurface singularities and their variance statistics.

A spectrum is a weakly increasing multiset of exact rationals in (0, n)
with the symmetry alpha_i + alpha_{mu+1-i} = n, checked at construction.
All statistics here are exact; the defect
``delta = Var - width/12`` is the quantity whose sign the (generalized)
Hertling conjecture constrains.

Arithmetic runs on integers.  A spectrum is built from int numerators k
over one denominator L (:func:`spectrum_of_numerators`), which runs the
range and symmetry checks on the numerators, reduces them and L to lowest
terms, and builds each distinct value's ``Fraction`` once;
:func:`make_spectrum` takes rational values and maps them to numerators
over their least common denominator first.  A :class:`Spectrum` keeps its
numerators and L beside its values, and every statistic of a spectrum is
an integer power sum over those numerators (``stats_of_values(s.nums,
s.L)``).  A :class:`SubsetStats` record holds only ints, over its caller's
L; its rational statistics are built as ``Fraction``s when they are read,
and the sign of its defect is the sign of the int ``scaled_delta``.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, NamedTuple, Sequence


class Spectrum(NamedTuple):
    values: tuple[Fraction, ...]  # weakly increasing, symmetric about n/2
    nums: tuple[int, ...]         # values[i] == nums[i] / L ...
    L: int                        # ... in lowest terms: gcd(L, *nums) == 1

    @property
    def mu(self) -> int:
        return len(self.values)

    def value_at(self, i: int) -> Fraction:
        """1-based access, matching the alpha_i indexing convention; an index
        outside 1..mu raises IndexError, as a tuple does."""
        if i < 1:
            raise IndexError(f"spectrum index {i} outside [1, {self.mu}]")
        return self.values[i - 1]


class SubsetStats(NamedTuple):
    """Statistics of a multiset of tau values k_i / L as integer power sums.

    The record is over its caller's L, which need not be in lowest terms
    with the numerators; each rational property below is a ``Fraction`` in
    lowest terms, built when it is read.
    """
    tau: int
    L: int
    s1: int     # sum k_i
    s2: int     # sum k_i^2
    k_min: int
    k_max: int

    @property
    def av(self) -> Fraction:
        return Fraction(self.s1, self.tau * self.L)

    @property
    def var(self) -> Fraction:
        # sum (a_i - av)^2 = sum a_i^2 - tau * av^2, over tau
        return Fraction(self.tau * self.s2 - self.s1 * self.s1, (self.tau * self.L) ** 2)

    @property
    def alpha_min(self) -> Fraction:
        return Fraction(self.k_min, self.L)

    @property
    def alpha_max(self) -> Fraction:
        return Fraction(self.k_max, self.L)

    @property
    def scaled_delta(self) -> int:
        """12 tau^2 L^2 * delta, an int with the sign of delta."""
        tau = self.tau
        return (12 * (tau * self.s2 - self.s1 * self.s1)
                - tau * tau * self.L * (self.k_max - self.k_min))

    @property
    def delta(self) -> Fraction:
        """Var - (alpha_max - alpha_min) / 12."""
        return Fraction(self.scaled_delta, 12 * (self.tau * self.L) ** 2)

    def av_le(self, other: "SubsetStats") -> bool:
        """Whether self.av <= other.av, compared on ints."""
        return self.s1 * other.tau * other.L <= other.s1 * self.tau * self.L


def _over_common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of exact rationals over their least common denominator.

    Returns ``(nums, L)`` with ``values[i] == nums[i] / L``.  Ints count as
    ``n/1``; bools, floats and every other type raise TypeError, so that no
    inexact number or truth value enters the arithmetic.
    """
    for t in set(map(type, values)):
        if issubclass(t, bool) or not issubclass(t, (int, Fraction)):
            raise TypeError(f"spectral values must be int or Fraction, not {t.__name__}")
    pairs = [v.as_integer_ratio() for v in values]
    dens = {d for _, d in pairs}
    L = lcm(*dens)
    scale = {d: L // d for d in dens}
    return [k * scale[d] for k, d in pairs], L


def spectrum_of_numerators(nums: Iterable[int], L: int, n: int) -> Spectrum:
    """Spectrum of the values k/L for the int numerators k, in any order.
    The values must lie in (0, n), that is 0 < k < nL, and satisfy
    k_i + k_{mu+1-i} = nL; no values, values that fail either check, or
    an L below 1 raise ValueError, and a numerator, L or n that is not an
    int (a bool included) TypeError.  The spectrum keeps the numerators
    and L divided by gcd(L, *nums), so equal values give equal spectra
    whatever L the caller chose; each distinct value's ``Fraction`` is
    built once."""
    for name, x in (("L", L), ("n", n)):
        if type(x) is not int:
            raise TypeError(f"{name} must be an int, not {type(x).__name__}")
    if L < 1:
        raise ValueError(f"L must be positive, got {L}")
    nums = sorted(nums)
    for t in set(map(type, nums)) - {int}:
        raise TypeError(f"numerators must be ints, not {t.__name__}")
    if not nums:
        raise ValueError("a spectrum must contain at least one value")
    top = n * L
    if nums[0] <= 0 or nums[-1] >= top:
        bad = nums[0] if nums[0] <= 0 else nums[-1]
        raise ValueError(f"spectral value {Fraction(bad, L)} outside (0, {n})")
    for i, pair_sum in enumerate(map(add, nums, reversed(nums))):
        if pair_sum != top:
            raise ValueError(
                f"alpha_{i + 1} + alpha_{len(nums) - i} = {Fraction(pair_sum, L)} != {n}")
    g = gcd(L, *nums)
    if g > 1:
        L //= g
        nums = [k // g for k in nums]
    value = {k: Fraction(k, L) for k in set(nums)}
    return Spectrum(tuple(map(value.__getitem__, nums)), tuple(nums), L)


def make_spectrum(values: Iterable[Fraction], n: int) -> Spectrum:
    """Spectrum of int or Fraction values, in any order: their numerators
    over the least common denominator, through :func:`spectrum_of_numerators`."""
    nums, L = _over_common_denominator(list(values))
    return spectrum_of_numerators(nums, L, n)


def stats_of_values(values: Sequence[Fraction], L: int = 1) -> SubsetStats:
    """Exact statistics of the multiset {v / L} for ints and Fractions v.

    When every value is an int, the values are the numerators k_i over L,
    as ``stats_of_values(s.nums, s.L)`` passes them, and no value is
    converted; otherwise they are first mapped to numerators over their
    least common denominator, which multiplies L.  The record keeps the
    power sums S1 = sum k_i and S2 = sum k_i^2 and the extreme numerators,
    and builds no ``Fraction``; the property tests compare each derived
    statistic with a Fraction-sum reference.
    An empty multiset or an L below 1 raises ValueError, and a bool or a
    float among the values, or an L that is not an int, TypeError.
    """
    if type(L) is not int:
        raise TypeError(f"L must be an int, not {type(L).__name__}")
    if L < 1:
        raise ValueError(f"L must be positive, got {L}")
    tau = len(values)
    if tau == 0:
        raise ValueError("statistics of an empty subset are undefined")
    if set(map(type, values)) == {int}:
        nums = values
    else:
        nums, scale = _over_common_denominator(values)
        L *= scale
    return SubsetStats(tau, L, sum(nums), sum(map(mul, nums, nums)), min(nums), max(nums))


def subset_stats(s: Spectrum, indices: Iterable[int]) -> SubsetStats:
    """Statistics of the sub-multiset selected by 1-based indices, each
    counted once, over s.L; no index, or one outside 1..mu, raises
    ValueError."""
    idx = frozenset(indices)  # a frozenset is not copied
    if idx and (min(idx) < 1 or max(idx) > s.mu):
        raise ValueError(f"subset index outside [1, {s.mu}]")
    nums = s.nums
    return stats_of_values([nums[i - 1] for i in idx], s.L)
