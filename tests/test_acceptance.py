"""Acceptance suite: every criterion of `tjspectra verify` (verify.CHECKS)
must pass within its runtime budget.  The criteria themselves live only in
tjspectra.verify; the unit tests hold what a criterion does not assert."""

import time

import pytest

from tjspectra import localg, verify

# seconds per check, keyed by the check function
BUDGET_S = {
    verify.check_counterexample: 1,
    verify.check_counterexample_localg: 1,
    verify.check_sign_pattern: 5,
    verify.check_small_grid: 5,
    verify.check_weighted_homogeneous_equality: 1,
    verify.check_closed_forms_322: 1,
    verify.check_three_monomial_localg: 60,
    verify.check_enumeration_parity: 5,
    verify.check_oracle_equivalence: 60,
}


@pytest.mark.parametrize("name, fn", verify.CHECKS, ids=[name for name, _ in verify.CHECKS])
def test_check(name, fn):
    start = time.monotonic()
    assert fn() is None
    elapsed = time.monotonic() - start
    assert elapsed < BUDGET_S[fn], f"{name}: {elapsed:.2f}s over budget"


def test_every_check_has_a_budget():
    assert set(BUDGET_S) == {fn for _, fn in verify.CHECKS}


def test_three_monomial_check_propagates_programming_errors(monkeypatch):
    def broken(params):
        raise TypeError("not a check failure")

    monkeypatch.setattr(verify, "three_monomial_instance", broken)
    with pytest.raises(TypeError, match="not a check failure"):
        verify.check_three_monomial_localg()


def test_three_monomial_check_reports_a_tau_the_engine_contradicts(monkeypatch):
    real = localg.tjurina
    monkeypatch.setattr(localg, "tjurina", lambda f: real(f) + 1)
    assert verify.check_three_monomial_localg() == (
        "(a,b,c,d)=(2,4,7,6): tau = 24 but the engine computes 25 for x^7 + x^2*y^4 + y^6")


@pytest.mark.parametrize("number", ["milnor", "tjurina"])
def test_oracle_check_compares_milnor_and_tjurina(monkeypatch, number):
    real = getattr(localg, number)
    monkeypatch.setattr(localg, number, lambda f: real(f) + 1)
    message = verify.check_oracle_equivalence()
    assert message.startswith("Jacobian ideal of x^3+y^3" if number == "milnor"
                              else "ideal (df, f) of x^3+y^3")
    assert message.endswith(f"standard basis gives 4, oracle 4, {number} 5")
