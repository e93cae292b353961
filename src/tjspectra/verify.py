"""Built-in verification suite behind the `verify` subcommand.

Every check recomputes a known quantity end to end and compares exactly;
a failure prints the discrepancy and the command exits with code 2.
Checks that need the standard-basis engine can be skipped.
"""

from fractions import Fraction

from . import localg
from .conjecture import closed_form_tau_delta_322, enumerate_candidates, tjurina_defect
from .errors import InvalidFamilyParameters
from .families import (PuiseuxParams, SwhParams, ThreeMonomialParams,
                       brieskorn_two_var, puiseux_spectrum, swh_instance,
                       three_monomial_instance)
from .poly import parse_poly
from .spectra import hertling_defect, subset_stats

NEEDS_LOCALG = "localg"

COUNTEREXAMPLE_DELTA = Fraction(3, 9604)

THREE_MONOMIAL_TUPLES = [(2, 4, 7, 6), (2, 3, 9, 7), (2, 3, 7, 10),
                         (2, 4, 9, 9), (3, 4, 8, 9), (2, 5, 6, 11)]


def check_counterexample():
    inst = swh_instance(SwhParams(7, 7, 1, 1))
    if (inst.mu, inst.tau) != (36, 35):
        return f"swh(7,7,1,1) gave (mu, tau) = ({inst.mu}, {inst.tau})"
    delta = tjurina_defect(inst)
    if delta != COUNTEREXAMPLE_DELTA:
        return f"delta = {delta}, expected {COUNTEREXAMPLE_DELTA}"


def check_counterexample_localg():
    f = parse_poly("x^7+y^7+x^5*y^5")
    mu, tau = localg.milnor(f), localg.tjurina(f)
    if (mu, tau) != (36, 35):
        return f"engine gave (mu, tau) = ({mu}, {tau}), expected (36, 35)"


def check_sign_pattern():
    for m in range(3, 13):
        try:
            inst = swh_instance(SwhParams(m, m, 1, 1))
        except InvalidFamilyParameters:
            if m >= 5:
                return f"swh({m},{m},1,1) unexpectedly invalid"
            continue
        delta = tjurina_defect(inst)
        if (delta > 0) != (m >= 7):
            return f"m = {m}: delta = {delta} has the wrong sign"


def check_small_grid():
    for a in range(2, 8):
        for b in range(2, a + 1):
            for c in range(1, (a - 1) // 2 + 1):
                for d in range(1, (b - 1) // 2 + 1):
                    try:
                        inst = swh_instance(SwhParams(a, b, c, d))
                    except InvalidFamilyParameters:
                        continue
                    delta = tjurina_defect(inst)
                    if delta > 0 and (a, b, c, d) != (7, 7, 1, 1):
                        return f"positive delta at (a,b,c,d)=({a},{b},{c},{d}): {delta}"


def check_weighted_homogeneous_equality():
    for b in range(2, 13):
        for a in range(b, 13):
            d = hertling_defect(brieskorn_two_var(a, b))
            if d != 0:
                return f"brieskorn({a},{b}) defect = {d}, expected 0"


def check_closed_forms_322():
    for c in range(1, 22, 2):
        s = puiseux_spectrum(PuiseuxParams(3, 2, 2, (c - 3) // 2, 1))
        mu = s.mu
        got_nc = (c + 14) * subset_stats(s, range(1, mu)).delta
        got_co = (c + 13) * subset_stats(s, range(1, mu - 1)).delta
        want_nc = closed_form_tau_delta_322(c, "nonconsecutive")
        want_co = closed_form_tau_delta_322(c, "consecutive")
        if got_nc != want_nc:
            return f"c = {c}: nonconsecutive tau*delta = {got_nc}, expected {want_nc}"
        if got_co != want_co:
            return f"c = {c}: consecutive tau*delta = {got_co}, expected {want_co}"


def check_three_monomial_localg():
    for a, b, c, d in THREE_MONOMIAL_TUPLES:
        try:
            three_monomial_instance(ThreeMonomialParams(a, b, c, d), cross_check=True)
        except Exception as exc:
            return f"(a,b,c,d)=({a},{b},{c},{d}): {exc}"


def check_enumeration_parity():
    s = brieskorn_two_var(7, 7)
    result = enumerate_candidates(s, s.mu, 10)
    if result.k != 31:
        return f"k = {result.k}, expected 31"
    if not (result.clamped and result.slack == 6):
        return f"slack = {result.slack} (clamped = {result.clamped}), expected clamp to 6"
    top = [r for r in result.records if r.tau_prime == 35]
    if len(top) != 1 or top[0].stats.delta != COUNTEREXAMPLE_DELTA:
        return "tau' = 35 candidate does not reproduce the counterexample delta"


def check_oracle_equivalence():
    corpus = ["x^3+y^3", "x^2+y^2", "x^5+y^4", "(y^2-x^3)^2-x^5*y",
              "x^5+y^4+x^3*y^2", "x^4+y^4+x^2*y^2", "x^3+x*y^3",
              "x^2*y+y^4", "x^6+y^3", "x^3-y^2"]
    for text in corpus:
        f = parse_poly(text)
        gens = [g for g in (f.derivative(0), f.derivative(1)) if not g.is_zero()]
        basis = localg.local_std_basis(gens)
        oracle = localg.colength_oracle(gens, 12)
        if basis.colength != oracle:
            return f"{text}: standard basis gives {basis.colength}, oracle {oracle}"
    # non-isolated case rejected by both routes
    gens = [parse_poly("x*y^2"), parse_poly("x^2*y")]
    if localg.local_std_basis(gens).colength != localg.INFINITE:
        return "x*y^2, x^2*y: standard basis did not detect infinite colength"
    if localg.colength_oracle(gens, 10) is not None:
        return "x*y^2, x^2*y: oracle converged on a non-isolated ideal"


CHECKS = [
    ("counterexample swh(7,7,1,1) delta = 3/9604", check_counterexample, None),
    ("counterexample mu/tau via standard basis", check_counterexample_localg, NEEDS_LOCALG),
    ("sign pattern a=b=m, c=d=1, m in [3,12]", check_sign_pattern, None),
    ("non-positive delta on the b<=a<=7 grid except (7,7,1,1)", check_small_grid, None),
    ("weighted-homogeneous equality, Brieskorn a,b <= 12", check_weighted_homogeneous_equality, None),
    ("(3,2,2) closed forms, odd c in [1,21]", check_closed_forms_322, None),
    ("three-monomial mu/tau cross-checks", check_three_monomial_localg, NEEDS_LOCALG),
    ("enumeration parity on x^7+y^7", check_enumeration_parity, None),
    ("standard basis vs truncated linear-algebra oracle", check_oracle_equivalence, NEEDS_LOCALG),
]


def run_checks(skip_localg: bool = False, out=None) -> int:
    """Run all checks; return 0 when everything passes, 2 otherwise."""
    import sys
    out = out or sys.stdout
    failed = 0
    for name, fn, requirement in CHECKS:
        if skip_localg and requirement == NEEDS_LOCALG:
            print(f"SKIPPED  {name}", file=out)
            continue
        message = fn()
        if message is None:
            print(f"PASS     {name}", file=out)
        else:
            print(f"FAIL     {name}: {message}", file=out)
            failed += 1
    return 2 if failed else 0
