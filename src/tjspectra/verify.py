"""Built-in verification suite behind the `verify` subcommand.

Every check recomputes a known quantity end to end and compares exactly;
a failure prints the discrepancy and the command exits with code 2.  The
test suite runs the same `CHECKS` and draws its corpora and grids from here.
"""

from fractions import Fraction
from itertools import product

from . import localg
from .conjecture import closed_form_tau_delta_322, enumerate_candidates
from .errors import InternalConsistencyError, InvalidFamilyParameters
from .families import (BrieskornParams, PuiseuxParams, SwhParams, ThreeMonomialParams,
                       puiseux_spectrum, swh_instance, three_monomial_instance)
from .poly import jacobian, parse_poly
from .spectra import stats_of_values, subset_stats

COUNTEREXAMPLE_DELTA = Fraction(3, 9604)

THREE_MONOMIAL_TUPLES = [(2, 4, 7, 6), (2, 3, 9, 7), (2, 3, 7, 10),
                         (2, 4, 9, 9), (3, 4, 8, 9), (2, 5, 6, 11), (3, 4, 4, 17)]

# polynomials whose Jacobian and Tjurina ideals the standard basis and the
# oracle must agree on
ORACLE_CORPUS = ["x^3+y^3", "x^2+y^2", "x^5+y^4", "(y^2-x^3)^2-x^5*y",
                 "x^5+y^4+x^3*y^2", "x^4+y^4+x^2*y^2", "x^3+x*y^3",
                 "x^2*y+y^4", "x^6+y^3", "x^3-y^2", "x^7+y^7+x^5*y^5"]
ORACLE_CAP = 14
# three-variable polynomials for the same check, with their oracle caps
ORACLE_CORPUS_3 = [("x^2+y^4+z^3+x*y*z+x^2*y^3*z^2", 8), ("x^2+y^4+z^4+x*y^3*z", 10)]


def swh_grid(a_max):
    """Every valid SwhParams with b <= a <= a_max."""
    for a in range(2, a_max + 1):
        for b in range(2, a + 1):
            for c, d in product(range(1, (a + 1) // 2), range(1, (b + 1) // 2)):
                p = SwhParams(a, b, c, d)
                try:
                    p.validate()
                except InvalidFamilyParameters:
                    continue
                yield p


def check_counterexample():
    inst = swh_instance(SwhParams(7, 7, 1, 1))
    if (inst.mu, inst.tau) != (36, 35):
        return f"swh(7,7,1,1) gave (mu, tau) = ({inst.mu}, {inst.tau})"
    delta = subset_stats(inst.spectrum, inst.tjurina_indices).delta
    if delta != COUNTEREXAMPLE_DELTA:
        return f"delta = {delta}, expected {COUNTEREXAMPLE_DELTA}"


def check_counterexample_localg():
    f = parse_poly("x^7+y^7+x^5*y^5")
    mu, tau = localg.milnor(f), localg.tjurina(f)
    if (mu, tau) != (36, 35):
        return f"engine gave (mu, tau) = ({mu}, {tau}), expected (36, 35)"


def check_sign_pattern():
    valid = [p.a for p in swh_grid(12) if p == SwhParams(p.a, p.a, 1, 1)]
    if valid != list(range(5, 13)):
        return f"swh(m,m,1,1) is valid for m in {valid}, expected 5..12"
    for m in valid:
        inst = swh_instance(SwhParams(m, m, 1, 1))
        delta = subset_stats(inst.spectrum, inst.tjurina_indices).delta
        if (delta > 0) != (m >= 7):
            return f"m = {m}: delta = {delta} has the wrong sign"


def check_small_grid():
    for p in swh_grid(7):
        inst = swh_instance(p)
        delta = subset_stats(inst.spectrum, inst.tjurina_indices).delta
        if delta > 0 and p != SwhParams(7, 7, 1, 1):
            return f"positive delta at (a,b,c,d)=({p.a},{p.b},{p.c},{p.d}): {delta}"


def check_weighted_homogeneous_equality():
    for b in range(2, 13):
        for a in range(b, 13):
            s = BrieskornParams(a, b).instance().spectrum
            d = stats_of_values(s.nums, s.L).delta
            if d != 0:
                return f"brieskorn({a},{b}) defect = {d}, expected 0"


def check_closed_forms_322():
    for c in range(1, 22, 2):
        s = puiseux_spectrum(PuiseuxParams(3, 2, 2, (c - 3) // 2, 1))
        # T drops the top 1 (nonconsecutive) or 2 (consecutive) of mu = c + 15
        for mode, dropped in (("nonconsecutive", 1), ("consecutive", 2)):
            got = (c + 15 - dropped) * subset_stats(s, range(1, s.mu + 1 - dropped)).delta
            want = closed_form_tau_delta_322(c, mode)
            if got != want:
                return f"c = {c}: {mode} tau*delta = {got}, expected {want}"


def check_three_monomial_localg():
    for a, b, c, d in THREE_MONOMIAL_TUPLES:
        try:
            three_monomial_instance(ThreeMonomialParams(a, b, c, d)).cross_check()
        except InternalConsistencyError as exc:
            return f"(a,b,c,d)=({a},{b},{c},{d}): {exc}"


def check_enumeration_parity():
    s = BrieskornParams(7, 7).instance().spectrum
    result = enumerate_candidates(s, 10)
    if result.k != 31:
        return f"k = {result.k}, expected 31"
    if not (result.clamped and result.slack == 6):
        return f"slack = {result.slack} (clamped = {result.clamped}), expected clamp to 6"
    top = [r for r in result.records if r.tau_prime == 35]
    if len(top) != 1 or top[0].stats.delta != COUNTEREXAMPLE_DELTA:
        return "tau' = 35 candidate does not reproduce the counterexample delta"


def check_oracle_equivalence():
    cases = ([(text, 2, ORACLE_CAP) for text in ORACLE_CORPUS]
             + [(text, 3, cap) for text, cap in ORACLE_CORPUS_3])
    for text, nvars, cap in cases:
        f = parse_poly(text, nvars=nvars)
        jac = [g for g in jacobian(f) if not g.is_zero()]
        for ideal, gens, number in (("Jacobian ideal", jac, "milnor"),
                                    ("ideal (df, f)", jac + [f], "tjurina")):
            basis = localg.local_std_basis(gens)
            oracle = localg.colength_oracle(gens, cap)
            direct = getattr(localg, number)(f)
            if not basis.colength == oracle == direct:
                return (f"{ideal} of {text}: standard basis gives {basis.colength}, "
                        f"oracle {oracle}, {number} {direct}")
    # non-isolated case rejected by both routes
    gens = [parse_poly("x*y^2"), parse_poly("x^2*y")]
    if localg.local_std_basis(gens).colength != localg.INFINITE:
        return "x*y^2, x^2*y: standard basis did not detect infinite colength"
    if localg.colength_oracle(gens, 10) is not None:
        return "x*y^2, x^2*y: oracle converged on a non-isolated ideal"


CHECKS = [
    ("counterexample swh(7,7,1,1) delta = 3/9604", check_counterexample),
    ("counterexample mu/tau via standard basis", check_counterexample_localg),
    ("sign pattern a=b=m, c=d=1, m in [3,12]", check_sign_pattern),
    ("non-positive delta on the b<=a<=7 grid except (7,7,1,1)", check_small_grid),
    ("weighted-homogeneous equality, Brieskorn a,b <= 12", check_weighted_homogeneous_equality),
    ("(3,2,2) closed forms, odd c in [1,21]", check_closed_forms_322),
    ("three-monomial mu/tau cross-checks", check_three_monomial_localg),
    ("enumeration parity on x^7+y^7", check_enumeration_parity),
    ("standard basis vs truncated linear-algebra oracle", check_oracle_equivalence),
]


def run_checks() -> int:
    """Run all checks, printing one line each; return 0 when everything
    passes, 2 otherwise."""
    failed = 0
    for name, fn in CHECKS:
        message = fn()
        if message is None:
            print(f"PASS     {name}")
        else:
            print(f"FAIL     {name}: {message}")
            failed += 1
    return 2 if failed else 0
