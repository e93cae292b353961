"""Variance-defect evaluation for Tjurina spectra.

Covers the defect of an instance, the sufficient-failure criterion for
semi-weighted-homogeneous singularities, the single-swap deformation
comparison, the one-point subset reduction step, the enumeration of
hypothetical Tjurina spectra below tau = mu of a weighted-homogeneous
spectrum, and the closed-form products tau*delta for the (3, 2, 2)
two-Puiseux-pair family.
"""

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from typing import Iterable, Literal, NamedTuple, Sequence

from .errors import InternalConsistencyError
from .families import TjurinaInstance
from .spectra import Spectrum, SubsetStats, stats_of_values, subset_stats


class Thm31Verdict(NamedTuple):
    tjurina: SubsetStats    # statistics over the Tjurina subset
    mu_ne_tau: bool
    av_condition: bool      # av over T <= av over the full spectrum
    width_condition: bool   # alpha_mu - alpha_1 <= 2
    cond_3_3: bool          # mu/12 * (alpha_mu - max T value) >= (mu - tau) * alpha_mu^2
    guaranteed_failure: bool


def thm31_verdict(inst: TjurinaInstance) -> Thm31Verdict:
    """Sufficient condition for the inequality to fail, which the theorem
    states only for semi-weighted-homogeneous instances (``inst.swh``).

    All flags are exact comparisons of ints: each rational condition is
    multiplied through by its positive denominators, and the sign of a
    defect is the sign of ``scaled_delta``.  guaranteed_failure implies
    tjurina.delta > 0, that is, the generalized Hertling inequality fails
    (sufficiency only, not necessity).

    Two invariants are checked on every call, and a violation raises
    InternalConsistencyError: Hertling's inequality, delta <= 0 over the
    full spectrum, with equality when ``inst.swh``; and Theorem 3.1's
    conclusion, tjurina.delta > 0 whenever guaranteed_failure holds.
    """
    full = stats_of_values(inst.spectrum.nums, inst.spectrum.L)
    tj = subset_stats(inst.spectrum, inst.tjurina_indices)
    mu, tau = full.tau, tj.tau
    L, top = full.L, full.k_max
    mu_ne_tau = mu != tau
    av_condition = tj.av_le(full)
    width_condition = top - full.k_min <= 2 * L
    # (3.3) multiplied by 12 L^2 tj.L
    cond_3_3 = mu * L * (top * tj.L - tj.k_max * L) >= 12 * (mu - tau) * top * top * tj.L
    guaranteed = (inst.swh and mu_ne_tau and (width_condition or av_condition) and cond_3_3)
    full_sign = full.scaled_delta
    if full_sign > 0 or (inst.swh and full_sign != 0):  # Hertling's inequality; = 0 when swh
        raise InternalConsistencyError(f"{inst.family_tag}: full-spectrum delta = {full.delta}")
    if guaranteed and tj.scaled_delta <= 0:  # Theorem 3.1's conclusion
        raise InternalConsistencyError(f"{inst.family_tag}: thm31 fires but delta = {tj.delta}")
    return Thm31Verdict(tj, mu_ne_tau, av_condition, width_condition, cond_3_3, guaranteed)


def mple_failure_bound(m: int, n: int, gap: int) -> bool:
    """Ordinary m-ple point criterion: (m-1)^n >= 12 m n^2 (mu - tau)."""
    if m < 2 or n < 1 or gap < 1:
        raise ValueError(f"need m >= 2, n >= 1, gap >= 1, got ({m}, {n}, {gap})")
    return (m - 1) ** n >= 12 * m * n * n * gap


class Prop41Outcome(NamedTuple):
    hypothesis_42: bool       # (alpha_i0 - av_T)^2 >= width_T / 12
    extremes_preserved: bool  # min and max survive the removal of i0
    guaranteed: bool          # conclusion delta_{T minus i0} <= 0 is forced


def prop41_step(s: Spectrum, T: Iterable[int], i0: int) -> Prop41Outcome:
    """One-point reduction: when the extremes survive and the removed value
    is far enough from the mean, non-positivity of delta is inherited."""
    T = sorted(set(T))
    if i0 not in T:
        raise ValueError(f"index {i0} not in subset")
    if len(T) < 2:
        raise ValueError("need |T| >= 2 to remove a point")
    st = subset_stats(s, T)
    rest = [i for i in T if i != i0]
    rest_vals = [s.value_at(i) for i in rest]
    extremes = (min(rest_vals) == st.alpha_min and max(rest_vals) == st.alpha_max)
    hyp = (s.value_at(i0) - st.av) ** 2 >= (st.alpha_max - st.alpha_min) / 12
    return Prop41Outcome(hypothesis_42=hyp, extremes_preserved=extremes,
                         guaranteed=extremes and hyp and st.delta <= 0)


class SwapComparison(NamedTuple):
    case: Literal["max_drops", "max_fixed", "inapplicable"]
    prediction: Literal["delta_less", "delta_greater", "none"]


def remark32_compare(t_values: Sequence[Fraction],
                     t_prime_values: Sequence[Fraction]) -> SwapComparison:
    """Compare defects of two same-size Tjurina value multisets differing by
    one element (beta in T swapped for beta' < beta in T').

    When the maximum drops by exactly beta - beta', delta(T) < delta(T')
    is predicted if beta + beta' <= av + av' + tau/12; when the maximum is
    unchanged, delta(T) > delta(T') is predicted if beta + beta' >= av + av'.
    """
    if len(t_values) != len(t_prime_values):
        raise ValueError("multisets must have equal size")
    ct, ct2 = Counter(t_values), Counter(t_prime_values)
    only_t, only_t2 = ct - ct2, ct2 - ct
    if sum(only_t.values()) != 1 or sum(only_t2.values()) != 1:
        raise ValueError("multisets must differ by exactly one element")
    beta = next(iter(only_t))
    beta_p = next(iter(only_t2))
    if beta <= beta_p:
        raise ValueError(f"need beta > beta', got {beta} <= {beta_p}")

    tau = len(t_values)
    st, st2 = stats_of_values(t_values), stats_of_values(t_prime_values)

    # exact single-swap identities (checked on every call); sum v^2 = tau * (Var + av^2)
    s2 = tau * (st.var + st.av ** 2)
    s2p = tau * (st2.var + st2.av ** 2)
    if s2 - s2p != (beta - beta_p) * (beta + beta_p):
        raise InternalConsistencyError("sum-of-squares swap identity failed")
    if tau * (st.av ** 2 - st2.av ** 2) != (beta - beta_p) * (st.av + st2.av):
        raise InternalConsistencyError("mean swap identity failed")

    if st.alpha_max - st2.alpha_max == beta - beta_p:
        if beta + beta_p <= st.av + st2.av + Fraction(tau, 12):
            return SwapComparison("max_drops", "delta_less")
        return SwapComparison("max_drops", "none")
    if st.alpha_max == st2.alpha_max:
        if beta + beta_p >= st.av + st2.av:
            return SwapComparison("max_fixed", "delta_greater")
        return SwapComparison("max_fixed", "none")
    return SwapComparison("inapplicable", "none")


class CandidateRecord(NamedTuple):
    """One hypothetical Tjurina spectrum: drop a top block of size j and a
    middle block starting at the first index past alpha_1 + 1."""
    tau_prime: int
    j: int
    missing: frozenset[int]
    stats: SubsetStats


class EnumerationResult(NamedTuple):
    k: int            # first 1-based index with alpha_k > alpha_1 + 1 (mu+1 if none)
    slack: int        # effective slack after clamping
    clamped: bool
    records: tuple[CandidateRecord, ...]


def enumerate_candidates(s: Spectrum, slack: int) -> EnumerationResult:
    """All candidate Tjurina spectra for mu-constant deformations of a
    weighted-homogeneous point (tau = mu) with Tjurina number down to
    mu - slack.

    For each tau' the missing set is a top block {mu-j+1..mu} plus a middle
    block {k..k+mu-tau'-j-1}; j runs from mu-tau' down to 1, admitted when
    j = mu-tau' (no middle block) or tau' >= k.  A negative slack raises
    ValueError.
    """
    mu = s.mu
    if slack < 0:
        raise ValueError(f"slack must be non-negative, got {slack}")
    k = bisect_right(s.nums, s.nums[0] + s.L) + 1  # alpha_1 + 1 is (k_1 + L) / L
    clamped = False
    if k > mu - slack + 1:
        slack = mu - k + 1
        clamped = True

    records = []
    for tau_prime in range(mu, mu - slack - 1, -1):
        gap = mu - tau_prime
        for j in range(gap, 0, -1):
            if not (j == gap or tau_prime >= k):
                continue
            middle = frozenset(range(k, k + gap - j))
            top = frozenset(range(mu - j + 1, mu + 1))
            missing = middle | top
            retained = [i for i in range(1, mu + 1) if i not in missing]
            if len(retained) != tau_prime:
                raise InternalConsistencyError(
                    f"retained count {len(retained)} != tau' = {tau_prime}")
            records.append(CandidateRecord(
                tau_prime=tau_prime, j=j, missing=missing,
                stats=subset_stats(s, retained)))
    return EnumerationResult(k=k, slack=slack, clamped=clamped,
                             records=tuple(records))


def closed_form_tau_delta_322(c: int,
                              mode: Literal["nonconsecutive", "consecutive"]) -> Fraction:
    """tau * delta for the (3, 2, 2) Puiseux family with odd parameter c.

    nonconsecutive: T drops only the top index (|T| = c + 14);
    consecutive: T drops the top two indices (|T| = c + 13).
    """
    if c < 1 or c % 2 == 0:
        raise ValueError(f"c must be a positive odd integer, got {c}")
    if mode == "nonconsecutive":
        return Fraction(-(c**3 + 37 * c**2 + 455 * c + 1764),
                        144 * c**2 + 3744 * c + 24192)
    if mode == "consecutive":
        return Fraction(-(c**4 + 59 * c**3 + 1247 * c**2 + 10992 * c + 33840),
                        144 * c**3 + 5328 * c**2 + 65664 * c + 269568)
    raise ValueError(f"unknown mode {mode!r}")
