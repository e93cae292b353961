"""Spectra of isolated hypersurface singularities and their variance statistics.

A spectrum is a weakly increasing multiset of exact rationals in (0, n)
with the symmetry alpha_i + alpha_{mu+1-i} = n, checked at construction.
All statistics here are exact; the defect
``delta = Var - width/12`` is the quantity whose sign the (generalized)
Hertling conjecture constrains.

Arithmetic runs on integers.  A spectrum is built from numerators k over
one denominator L (:func:`spectrum_of_numerators`), which runs the range
and symmetry checks on the numerators, reduces them and L to lowest terms,
and builds each distinct value's ``Fraction`` once; :func:`make_spectrum`
is the same constructor over L = 1.  Spectral input is checked in one
place, the private ``_numerators``: L must be a positive int, and every
value an int or a ``Fraction``; Fractions are mapped to int numerators
over their least common denominator, and ints pass unchanged.  Numerators
the package has already checked are a private tuple type, ``_Checked``,
which ``_numerators`` returns after the L checks with no per-value type
scan: a spectrum's ``nums``, the int lists the families build, and the
subsets :func:`subset_stats` takes from a spectrum's ``nums``: one slice
for a run of indices lo..hi, such as a Puiseux top block, a drop-max
subset or an swh Tjurina set with c = d = 1, and a gather index by index
for any other set.  Anything
a caller hands over, a ``Spectrum`` it builds included, is scanned.  A
:class:`Spectrum` keeps its numerators and L beside its values, and every
statistic of a spectrum is an integer power sum over those numerators
(``stats_of_values(s.nums, s.L)``).  A :class:`SubsetStats` record holds
only ints, over its caller's L; its rational statistics are built as
``Fraction``s when they are read, and the sign of its defect is the sign
of the int ``scaled_delta``.
"""

from fractions import Fraction
from itertools import islice, repeat
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, NamedTuple, Sequence


class _Checked(tuple):
    """Int numerators that the package built itself or has checked, such as
    a :class:`Spectrum`'s ``nums``: :func:`_numerators` returns them with no
    per-value type scan.  Equal to, and printed as, the plain tuple."""
    __slots__ = ()


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


def _numerators(values: Sequence[Fraction], L: int) -> tuple[Sequence[int], int]:
    """Int numerators of the values v / L over one denominator: the one
    check of spectral input.

    Returns ``(nums, L')`` with ``values[i] / L == nums[i] / L'``.  Int
    values are already numerators and pass unchanged, with L, and
    ``_Checked`` values pass with no type scan; Fractions
    are mapped over their least common denominator D, and L' = L * D.
    An L that is not an int (a bool included) raises TypeError, and an L
    below 1 ValueError; a bool, a float or any other value that is not an
    int or a Fraction raises TypeError, so that no inexact number or truth
    value enters the arithmetic.
    """
    if type(L) is not int:
        raise TypeError(f"L must be an int, not {type(L).__name__}")
    if L < 1:
        raise ValueError(f"L must be positive, got {L}")
    if type(values) is _Checked:
        return values, L
    types = set(map(type, values))
    if types <= {int}:
        return values, L
    for t in types:
        if issubclass(t, bool) or not issubclass(t, (int, Fraction)):
            raise TypeError(f"spectral values must be int or Fraction, not {t.__name__}")
    pairs = [v.as_integer_ratio() for v in values]
    dens = {d for _, d in pairs}
    D = lcm(*dens)
    scale = {d: D // d for d in dens}
    return [k * scale[d] for k, d in pairs], L * D


def spectrum_of_numerators(nums: Iterable[int], L: int, n: int) -> Spectrum:
    """Spectrum of the values k/L for the numerators k, in any order.
    The numerators are ints, or Fractions that :func:`_numerators` maps to
    ints over a larger L first.  The values must lie in (0, n), that is
    0 < k < nL, and satisfy k_i + k_{mu+1-i} = nL; no values, values that
    fail either check, or an L below 1 raise ValueError, and a numerator
    that is not an int or a Fraction, or an L or n that is not an int (a
    bool included), TypeError.  The spectrum keeps the numerators and L
    divided by gcd(L, *nums), so equal values give equal spectra whatever
    L the caller chose; each distinct value's ``Fraction`` is built once."""
    if type(n) is not int:
        raise TypeError(f"n must be an int, not {type(n).__name__}")
    nums, L = _numerators(nums if type(nums) is _Checked else list(nums), L)
    nums = sorted(nums)
    if not nums:
        raise ValueError("a spectrum must contain at least one value")
    top = n * L
    if nums[0] <= 0 or nums[-1] >= top:
        bad = nums[0] if nums[0] <= 0 else nums[-1]
        raise ValueError(f"spectral value {Fraction(bad, L)} outside (0, {n})")
    # pair sum i equals pair sum mu-1-i, so the first half holds the first failure
    half = islice(nums, (len(nums) + 1) // 2)
    for i, pair_sum in enumerate(map(add, half, reversed(nums))):
        if pair_sum != top:
            raise ValueError(
                f"alpha_{i + 1} + alpha_{len(nums) - i} = {Fraction(pair_sum, L)} != {n}")
    g = gcd(L, *nums)
    if g > 1:
        L //= g
        nums = [k // g for k in nums]
    keys = set(nums)
    value = dict(zip(keys, map(Fraction, keys, repeat(L))))
    return Spectrum(tuple(map(value.__getitem__, nums)), _Checked(nums), L)


def make_spectrum(values: Iterable[Fraction], n: int) -> Spectrum:
    """Spectrum of int or Fraction values, in any order: the values over
    L = 1, through :func:`spectrum_of_numerators`."""
    return spectrum_of_numerators(values, 1, n)


def stats_of_values(values: Sequence[Fraction], L: int = 1) -> SubsetStats:
    """Exact statistics of the multiset {v / L} for ints and Fractions v.

    When every value is an int, the values are the numerators k_i over L,
    as ``stats_of_values(s.nums, s.L)`` passes them, and no value is
    converted; otherwise :func:`_numerators` first maps them to numerators
    over their least common denominator, which multiplies L.  The record
    keeps the power sums S1 = sum k_i and S2 = sum k_i^2 and the extreme
    numerators, and builds no ``Fraction``; the property tests compare
    each derived statistic with a Fraction-sum reference.
    An empty multiset or an L below 1 raises ValueError, and a bool or a
    float among the values, or an L that is not an int, TypeError.
    """
    nums, L = _numerators(values, L)
    tau = len(nums)
    if tau == 0:
        raise ValueError("statistics of an empty subset are undefined")
    return SubsetStats(tau, L, sum(nums), sum(map(mul, nums, nums)), min(nums), max(nums))


def subset_stats(s: Spectrum, indices: Iterable[int]) -> SubsetStats:
    """Statistics of the sub-multiset selected by 1-based indices, each
    counted once, over s.L; no index, or one outside 1..mu, raises
    ValueError.  A run of indices lo..hi in checked ``nums`` is read as the
    slice ``nums[lo - 1:hi]``, and stays checked; any other set, and any
    run in a caller's ``nums``, is gathered index by index, so ``nums``
    shorter than ``values`` raises IndexError rather than being cut."""
    idx = frozenset(indices)  # a frozenset is not copied
    nums = s.nums
    checked = type(nums) is _Checked  # the package built it mu long
    subset = ()
    if idx:
        lo, hi = min(idx), max(idx)
        if lo < 1 or hi > s.mu:
            raise ValueError(f"subset index outside [1, {s.mu}]")
        if checked and hi - lo + 1 == len(idx):  # distinct, so all of lo..hi
            subset = nums[lo - 1:hi]
        else:
            subset = [nums[i - 1] for i in idx]
    return stats_of_values(_Checked(subset) if checked else subset, s.L)
