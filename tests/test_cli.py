import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

CLI = [sys.executable, "-m", "tjspectra.cli"]


def run(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


def test_spectrum_swh_counterexample():
    r = run("spectrum", "swh", "--a", "7", "--b", "7", "--c", "1", "--d", "1")
    assert r.returncode == 0
    assert "mu = 36" in r.stdout
    assert "tau = 35" in r.stdout
    assert "missing: 12/7" in r.stdout
    assert "tjurina_subset" not in r.stdout  # computed, not assumed


def test_spectrum_brieskorn():
    r = run("spectrum", "brieskorn", "--a", "2", "--b", "3")
    assert r.returncode == 0
    assert "spectrum: 5/6 7/6" in r.stdout
    from tjspectra.families import BrieskornParams
    from tjspectra.poly import parse_poly
    assert BrieskornParams(2, 3).instance().defining_poly == parse_poly("x^2+y^3")


@pytest.mark.parametrize("command", ["spectrum", "check"])
def test_puiseux_says_tjurina_subset_is_assumed(command):
    r = run(command, "puiseux", "--a", "3", "--b", "2", "--d", "2", "--q", "1", "--r", "1")
    assert r.returncode == 0
    assert "tjurina_subset: assumed-top-block" in r.stdout.splitlines()


def test_spectrum_invalid_params_exit_1():
    r = run("spectrum", "swh", "--a", "4", "--b", "4", "--c", "2", "--d", "1")
    assert r.returncode == 1
    assert "c < a/2" in r.stderr


def test_three_monomial_negative_exponents_are_input_errors():
    # (2, 3, -1, -1) satisfies a*d + b*c < c*d, but x^-1 is no monomial
    r = run("spectrum", "three-monomial", "--a", "2", "--b", "3", "--c", "-1", "--d", "-1")
    assert r.returncode == 1
    assert r.stderr == "error: c and d must be positive\n"
    r = run("sweep", "three-monomial", "--a", "2", "--b", "3", "--c=-3:-1", "--d=-3:-1")
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout.splitlines() == [  # the header, every tuple skipped
        "family\tparams\tmu\ttau\tdelta_exact\tdelta_decimal\tthm31\tav_obs"]


def test_check_counterexample():
    r = run("check", "swh", "--a", "7", "--b", "7", "--c", "1", "--d", "1")
    assert r.returncode == 0
    assert "delta = 3/9604 (+)" in r.stdout
    assert "tjurina_subset" not in r.stdout  # computed, not assumed


def test_check_makes_one_tjurina_statistics_pass(monkeypatch, capsys):
    from tjspectra import cli, conjecture, spectra
    real = spectra.stats_of_values
    lengths = []

    def counted(values, L=1):
        lengths.append(len(values))
        return real(values, L)

    for module in (spectra, conjecture, cli):
        monkeypatch.setattr(module, "stats_of_values", counted)
    assert cli.main(["check", "swh", "--a", "7", "--b", "7", "--c", "1", "--d", "1"]) == 0
    assert lengths == [36, 35]  # the full spectrum, then the Tjurina subset
    with open(os.path.join(os.path.dirname(__file__), "golden", "check-swh.txt")) as fh:
        assert capsys.readouterr().out == fh.read()


@pytest.mark.parametrize("argv, calls", [
    (["sweep", "puiseux", "--a", "3", "--b", "2", "--d", "2", "--q", "1", "--r", "1"], []),
    # the one call maps the 36 lattice values of swh(7,7,1,1) in _lattice_instance
    (["check", "swh", "--a", "7", "--b", "7", "--c", "1", "--d", "1"], [36]),
], ids=["sweep-puiseux", "check-swh"])
def test_statistics_convert_no_fractions(monkeypatch, capsys, argv, calls):
    from tjspectra import cli, families, spectra
    real = spectra._numerators
    lengths = []

    def counted(values, L):  # counts only calls that convert: ints pass unchanged
        if set(map(type, values)) - {int}:
            lengths.append(len(values))
        return real(values, L)

    holders = [mod for name, mod in sorted(sys.modules.items())
               if name.split(".")[0] == "tjspectra" and vars(mod).get(real.__name__) is real]
    assert {families, spectra} <= set(holders)
    for module in holders:
        monkeypatch.setattr(module, real.__name__, counted)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out
    assert lengths == calls


def test_check_nonpositive_is_not_an_error():
    r = run("check", "swh", "--a", "5", "--b", "5", "--c", "1", "--d", "1")
    assert r.returncode == 0
    assert "(-)" in r.stdout or "(0)" in r.stdout


def test_check_brieskorn_zero():
    r = run("check", "brieskorn", "--a", "6", "--b", "6")
    assert r.returncode == 0
    assert "delta = 0 (0)" in r.stdout


def test_enumerate_single_row():
    r = run("enumerate", "--poly", "x^7+y^7", "--slack", "1")
    assert r.returncode == 0
    rows = [l for l in r.stdout.splitlines() if l.startswith("tau'")]
    assert len(rows) == 1
    assert "tau' = 35" in rows[0] and "3/9604" in rows[0]


def test_enumerate_clamp_message():
    r = run("enumerate", "--poly", "x^7+y^7", "--slack", "100")
    assert r.returncode == 0
    assert "A replaced by 6" in r.stdout


def test_enumerate_trivial_poly():
    r = run("enumerate", "--poly", "x^3+y^2")
    assert r.returncode == 0
    assert not [l for l in r.stdout.splitlines() if l.startswith("tau'")]


def test_enumerate_rejects_non_brieskorn():
    r = run("enumerate", "--poly", "x^3+x*y")
    assert r.returncode == 1


def test_enumerate_accepts_brieskorn_in_either_order(capsys):
    from tjspectra import cli
    outputs = []
    for poly in ("x^7+y^7", "y^7+x^7"):
        assert cli.main(["enumerate", "--poly", poly]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and "tau' = 35" in outputs[0]


@pytest.mark.parametrize("poly", ["2*x^7+y^7", "x+y^5", "x^2*y+y^3", "x^3", "x^3+y^3+x*y"])
def test_enumerate_rejects_other_polynomials(capsys, poly):
    from tjspectra import cli
    assert cli.main(["enumerate", "--poly", poly]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "enumerate supports only Brieskorn polynomials" in err


def test_milnor_tjurina_commands():
    assert run("milnor", "--poly", "x^7+y^7+x^5*y^5").stdout.strip() == "36"
    assert run("tjurina", "--poly", "x^7+y^7+x^5*y^5").stdout.strip() == "35"


@pytest.mark.parametrize("command", ["milnor", "tjurina"])
def test_poly_may_start_with_a_minus(capsys, command):
    # argparse would take "-x^2-y^3" for an option; main attaches it to --poly
    from tjspectra import cli
    for argv in (["--poly", "-x^2-y^3"], ["--poly=-x^2-y^3"],
                 ["--poly", "-x^2-y^3", "--nvars", "2"], ["--nvars", "2", "--poly", "-x^2-y^3"]):
        assert cli.main([command] + argv) == 0
        assert capsys.readouterr() == ("2\n", "")
    assert cli.main([command, "--poly", "-x^2-z^3", "--nvars", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1
    assert "expected one argument" not in err  # the value reached the engine


def test_milnor_non_isolated_exit_1():
    r = run("milnor", "--poly", "x^2*y^2")
    assert r.returncode == 1


def test_sweep_sign_pattern():
    r = run("sweep", "swh", "--a", "3:12", "--b", "3:12", "--c", "1", "--d", "1")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0].split("\t") == ["family", "params", "mu", "tau", "delta_exact",
                                    "delta_decimal", "thm31", "av_obs"]
    diag = {}
    for line in lines[1:]:
        fields = line.split("\t")
        a, b, c, d = map(int, fields[1].split(","))
        if a == b:
            diag[a] = fields[4]
    # a = b = 3, 4 are invalid for this family and must be absent
    assert set(diag) == set(range(5, 13))
    for m, delta in diag.items():
        assert delta.startswith("-") != (m >= 7)


def test_sweep_deterministic_and_roundtrip():
    args = ("sweep", "swh", "--a", "5:7", "--b", "5:7", "--c", "1", "--d", "1")
    r1, r2 = run(*args), run(*args)
    assert r1.stdout == r2.stdout and r1.returncode == 0
    from tjspectra.rational import format_ratio
    from fractions import Fraction
    for line in r1.stdout.splitlines()[1:]:
        exact = line.split("\t")[4]
        assert format_ratio(Fraction(exact)) == exact


def test_sweep_prints_each_tuple_once(capsys):
    from tjspectra import cli
    assert cli.main(["sweep", "swh", "--a", "8,7,7", "--b", "7", "--c", "1,1", "--d", "1"]) == 0
    rows = [line.split("\t")[1] for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == ["7,7,1,1", "8,7,1,1"]


@pytest.mark.parametrize("args", [
    ["sweep", "swh", "--a", "5:9", "--b", "5:9", "--c", "1:2", "--d", "1:2"],
    ["sweep", "puiseux", "--a", "4:9", "--b", "2:5", "--d", "1:3", "--q", "4:6", "--r", "1",
     "--format", "json"],
], ids=["swh", "puiseux"])
def test_sweep_jobs_match_serial(monkeypatch, capsys, args):
    import concurrent.futures
    from tjspectra import cli
    made = []

    # a real pool: two worker processes unpickle and run cli.sweep_row
    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers=max_workers)

    assert cli.main(args + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert cli.main(args + ["--jobs", "2"]) == 0
    assert made == [2]
    assert capsys.readouterr().out == serial


@pytest.mark.parametrize("q", ["-1:9", "-3,-1"])
def test_sweep_takes_a_negative_range_after_the_flag(capsys, q):
    from tjspectra import cli
    head = ["sweep", "puiseux", "--a", "3", "--b", "2", "--d", "2"]
    assert cli.main(head + [f"--q={q}", "--r", "1"]) == 0
    joined = capsys.readouterr().out
    assert cli.main(head + ["--q", q, "--r", "1"]) == 0
    assert capsys.readouterr().out == joined
    assert len(joined.splitlines()) > 1


def test_sweep_json_rationals_are_strings():
    r = run("sweep", "brieskorn", "--a", "3:4", "--b", "3:4", "--format", "json")
    rows = json.loads(r.stdout)
    assert rows and all(isinstance(row["delta_exact"], str) for row in rows)
    assert rows == sorted(rows, key=lambda row: [int(x) for x in row["params"].split(",")])


def test_sweep_empty_range_exit_1():
    r = run("sweep", "swh", "--a", "5", "--b", "5", "--c", "1")
    assert r.returncode == 1  # missing --d


def test_sweep_puiseux_drop_max_matches_closed_form():
    from tjspectra.conjecture import closed_form_tau_delta_322
    from fractions import Fraction
    r = run("sweep", "puiseux", "--a", "3", "--b", "2", "--d", "2",
            "--q=-1:9", "--r", "1", "--subset", "drop-max")
    assert r.returncode == 0
    for line in r.stdout.splitlines()[1:]:
        fields = line.split("\t")
        q = int(fields[1].split(",")[3])
        c = 2 * q + 3
        delta = Fraction(fields[4])
        assert (c + 14) * delta == closed_form_tau_delta_322(c, "nonconsecutive")


def test_verify_passes():
    from tjspectra.verify import CHECKS
    r = run("verify")
    assert r.returncode == 0
    assert r.stdout.splitlines() == [f"PASS     {name}" for name, _ in CHECKS]


def test_verify_detects_corruption(monkeypatch, capsys):
    # mutation test run in-process: corrupt a closed-form constant
    from tjspectra import verify as verify_mod
    from tjspectra import conjecture
    from fractions import Fraction

    real = conjecture.closed_form_tau_delta_322

    def corrupted(c, mode):
        return real(c, mode) + Fraction(1, 10**9)

    monkeypatch.setattr(verify_mod, "closed_form_tau_delta_322", corrupted)
    assert verify_mod.run_checks() == 2
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "closed forms" in out


def test_ratio_roundtrip():
    from tjspectra.rational import format_ratio
    from fractions import Fraction
    for r in [Fraction(3, 9604), Fraction(-2257, 28080), Fraction(5), Fraction(0)]:
        assert Fraction(format_ratio(r)) == r


def test_cli_import_skips_process_pool():
    code = ("import sys, tjspectra.cli; "
            "sys.exit('concurrent.futures.process' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_cli_import_skips_verify():
    code = ("import sys, tjspectra.cli; "
            "sys.exit('tjspectra.verify' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_engine_tau_above_mu_exits_2(monkeypatch, capsys):
    from tjspectra import cli, families
    params = families.PuiseuxParams(3, 2, 2, 1, 1)
    mu = families.puiseux_spectrum(params).mu
    monkeypatch.setattr(families.localg, "tjurina", lambda f: mu + 1)
    assert cli.main(["check", "puiseux", "--a", "3", "--b", "2", "--d", "2",
                     "--q", "1", "--r", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"internal error: the engine computes tau = {mu + 1} outside [1, mu = {mu}]" in err


def test_puiseux_tau_at_or_below_three_quarters_of_mu_exits_2(monkeypatch, capsys):
    # 4*tau > 3*mu holds for every branch, so tau = 3*mu//4 is an engine fault
    from tjspectra import cli, families
    argv = ["check", "puiseux", "--a", "3", "--b", "2", "--d", "2", "--q", "1", "--r", "1"]
    milnor = families.localg.milnor
    monkeypatch.setattr(families.localg, "tjurina", lambda f: 3 * milnor(f) // 4 + 1)
    assert cli.main(argv) == 0
    mu = families.puiseux_spectrum(families.PuiseuxParams(3, 2, 2, 1, 1)).mu
    assert f"mu = {mu}  tau = {3 * mu // 4 + 1}\n" in capsys.readouterr().out
    monkeypatch.setattr(families.localg, "tjurina", lambda f: 3 * milnor(f) // 4)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"internal error: the engine computes tau = {3 * mu // 4} <= 3*mu/4 ")
    assert len(err.splitlines()) == 1


def test_family_spectrum_failing_its_check_exits_2(monkeypatch, capsys):
    # a family spectrum that fails its own symmetry check is the program's
    # fault, not the input's; the spectrum constructors given such values
    # as library arguments raise ValueError
    from tjspectra import cli, families
    from tjspectra.spectra import make_spectrum, spectrum_of_numerators
    monkeypatch.setattr(families, "spectrum_of_numerators",
                        lambda nums, L, n: spectrum_of_numerators(sorted(nums)[:-1], L, n))
    for argv in (["check", "brieskorn", "--a", "5", "--b", "4"],
                 ["spectrum", "swh", "--a", "7", "--b", "7", "--c", "1", "--d", "1"],
                 ["sweep", "puiseux", "--a", "3", "--b", "2", "--d", "2", "--q", "1", "--r", "1"],
                 ["enumerate", "--poly", "x^7+y^7"]):
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert len(err.splitlines()) == 1, err
        assert err.startswith("internal error: alpha_1 + alpha_"), err

    for build, args, message in (
            (make_spectrum, ([], 2), "a spectrum must contain at least one value"),
            (spectrum_of_numerators, ([], 6, 2), "a spectrum must contain at least one value"),
            (make_spectrum, ([F(5, 2)], 2), "spectral value 5/2 outside (0, 2)"),
            (spectrum_of_numerators, ([0, 3], 6, 2), "spectral value 0 outside (0, 2)"),
            (make_spectrum, ([F(1, 2), F(1)], 2), "alpha_1 + alpha_2 = 3/2 != 2"),
            (spectrum_of_numerators, ([7, 5, 3], 6, 2), "alpha_1 + alpha_3 = 5/3 != 2")):
        with pytest.raises(ValueError) as exc:
            build(*args)
        assert (type(exc.value), str(exc.value)) == (ValueError, message)


SWH_ARGS = ["sweep", "swh", "--a", "5:7", "--b", "5:7", "--c", "1", "--d", "1"]


def test_sweep_internal_error_exits_2(monkeypatch, capsys):
    from tjspectra import cli, families
    from tjspectra.errors import InternalConsistencyError

    def broken(params):
        raise InternalConsistencyError("closed-form check failed")

    monkeypatch.setattr(families, "swh_instance", broken)
    assert cli.main(SWH_ARGS) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "internal error: closed-form check failed" in err


@pytest.mark.parametrize("family, flags", [
    ("brieskorn", ["--a", "5", "--b", "4"]),
    ("swh", ["--a", "5", "--b", "4", "--c", "1", "--d", "1"]),
    ("three-monomial", ["--a", "2", "--b", "4", "--c", "7", "--d", "6"]),
    ("puiseux", ["--a", "3", "--b", "2", "--d", "2", "--q", "1", "--r", "1"]),
])
def test_cross_check_runs_the_engine(monkeypatch, capsys, family, flags):
    from tjspectra import cli, localg
    real = localg.milnor
    monkeypatch.setattr(localg, "milnor", lambda f: real(f) + 1)
    assert cli.main(["check", family] + flags) == 0
    assert cli.main(["check", family] + flags + ["--cross-check"]) == 2
    assert "internal error: mu = " in capsys.readouterr().err


@pytest.mark.parametrize("family, flags, error, code", [
    ("brieskorn", ["--a", "5", "--b", "4"], "InternalConsistencyError", 2),
    ("swh", ["--a", "5", "--b", "4", "--c", "1", "--d", "1"], "InternalConsistencyError", 2),
    # the engine confirmed tau when the instance was built, so cross_check
    # has nothing to compare; the CLI builds the instance anew, and the
    # build's own engine check fails
    ("three-monomial", ["--a", "2", "--b", "4", "--c", "7", "--d", "6"],
     "InternalConsistencyError", 2),
    # the Puiseux subset is assumed from the engine's own tau: nothing to compare
    ("puiseux", ["--a", "3", "--b", "2", "--d", "2", "--q", "1", "--r", "1"], None, 0),
])
def test_cross_check_tau_mismatch(monkeypatch, capsys, family, flags, error, code):
    from tjspectra import cli, errors, localg
    from tjspectra.families import FAMILIES
    inst = FAMILIES[family](**{k[2:]: int(v) for k, v in zip(flags[::2], flags[1::2])}).instance()
    real = localg.tjurina
    monkeypatch.setattr(localg, "tjurina", lambda f: real(f) + 1)
    if inst.tau_checked:
        inst.cross_check()
    else:
        with pytest.raises(getattr(errors, error), match=f"tau = {inst.tau} but the engine"):
            inst.cross_check()
    assert cli.main(["check", family] + flags + ["--cross-check"]) == code
    assert ("tau = " in capsys.readouterr().err) == (error is not None)


# c < 2a - 1 puts a point on the wall over the diagonal; the lattice counts
# tau = 40, as the engine and colength_oracle do
MIRRORED_WALL = ["three-monomial", "--a", "3", "--b", "4", "--c", "4", "--d", "17"]
MIRRORED_WALL_LINES = {
    "check": ["mu = 47  tau = 40", "delta = -1008419/66585600 (-) ~ -0.0151447009564"],
    "spectrum": ["mu = 47", "tau = 40"],
}


@pytest.mark.parametrize("flags", [[], ["--cross-check"]])
@pytest.mark.parametrize("command", ["check", "spectrum"])
def test_three_monomial_3_4_4_17_prints_tau_40(monkeypatch, capsys, command, flags):
    from tjspectra import cli, localg
    real, calls = localg.tjurina, []

    def counted(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(localg, "tjurina", counted)
    assert cli.main([command] + MIRRORED_WALL + flags) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[1:3] == MIRRORED_WALL_LINES[command]
    # the check at build; --cross-check recomputes mu only
    assert len(calls) == 1


def test_sweep_lists_three_monomial_tuples_on_the_mirrored_wall(capsys):
    from tjspectra import cli
    assert cli.main(["sweep", "three-monomial", "--a", "3", "--b", "4",
                     "--c", "4:8", "--d", "17:18"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert [row.split("\t")[1] for row in out.splitlines()[1:]] == [
        f"3,4,{c},{d}" for c in range(4, 9) for d in (17, 18)]


def test_sweep_exits_2_when_the_engine_contradicts_a_three_monomial_tau(monkeypatch, capsys):
    from tjspectra import cli, localg
    real = localg.tjurina
    monkeypatch.setattr(localg, "tjurina", lambda f: real(f) + 1)
    assert cli.main(["sweep", "three-monomial", "--a", "2", "--b", "4",
                     "--c", "7", "--d", "6:7"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: tau = 24 but the engine computes 25 for x^7 + x^2*y^4 + y^6\n"


FRONTIER = ["swh", "--a", "48", "--b", "48", "--c", "1", "--d", "1"]  # thm31 fires from m = 48


def with_delta(st, delta):
    """A fault injected through the integer fields: the record over 12 tau q
    times st.L, where q is delta's denominator, with st's tau, av, alpha_min
    and alpha_max but the given delta."""
    from fractions import Fraction
    from tjspectra.spectra import SubsetStats
    f = 12 * st.tau * Fraction(delta).denominator
    L, s1, lo, hi = (f * x for x in (st.L, st.s1, st.k_min, st.k_max))
    s2 = (s1 * s1 + Fraction(st.tau ** 2 * L * (hi - lo), 12) + delta * (st.tau * L) ** 2) / st.tau
    assert s2.denominator == 1
    out = SubsetStats(st.tau, L, s1, s2.numerator, lo, hi)
    assert (out.av, out.alpha_min, out.alpha_max, out.delta) == (
        st.av, st.alpha_min, st.alpha_max, delta)
    return out


@pytest.mark.parametrize("name, value, message", [
    ("stats_of_values", 1, "full-spectrum delta = 1"),
    ("subset_stats", -1, "thm31 fires but delta = -1"),
    ("subset_stats", 0, "thm31 fires but delta = 0"),
], ids=["full-delta-nonzero", "thm31-without-positive-delta", "thm31-with-zero-delta"])
def test_sweep_row_invariant_violation_exits_2(monkeypatch, capsys, name, value, message):
    from tjspectra import cli, conjecture
    real = getattr(conjecture, name)
    monkeypatch.setattr(conjecture, name, lambda *args: with_delta(real(*args), value))
    # the drop-max subset of swh(m,m,1,1) is its Tjurina subset, so drop-max rows are checked too
    for argv in (["check"] + FRONTIER, ["sweep"] + FRONTIER,
                 ["sweep"] + FRONTIER + ["--subset", "drop-max"]):
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"internal error: swh(48,48,1,1): {message}\n"


@pytest.mark.parametrize("family, flags, tag", [
    ("three-monomial", ["--a", "2", "--b", "4", "--c", "7", "--d", "6"], "three_monomial(2,4,7,6)"),
    ("puiseux", ["--a", "3", "--b", "2", "--d", "2", "--q", "1", "--r", "1"],
     "puiseux(3,2,2,q=1,r=1)"),
], ids=["three-monomial", "puiseux"])
def test_hertling_inequality_violation_exits_2(monkeypatch, capsys, family, flags, tag):
    from fractions import Fraction
    from tjspectra import cli, conjecture
    real = conjecture.stats_of_values
    for delta, status in ((Fraction(-1, 7), 0), (Fraction(1, 7), 2)):  # off swh, < 0 is legal
        monkeypatch.setattr(conjecture, "stats_of_values",
                            lambda values, L=1: with_delta(real(values, L), delta))
        assert cli.main(["check", family] + flags) == status
        out, err = capsys.readouterr()
    assert out == ""
    assert err == f"internal error: {tag}: full-spectrum delta = 1/7\n"


@pytest.mark.parametrize("m, fires, delta", [
    (47, "false", "82849/58556172 (+)"),
    (48, "true", "7391/5308416 (+)"),
])
def test_check_thm31_frontier_at_c_d_1(capsys, m, fires, delta):
    from tjspectra import cli
    assert cli.main(["check", "swh", "--a", str(m), "--b", str(m), "--c", "1", "--d", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"thm31_guaranteed_failure = {fires}" in lines
    assert any(line.startswith(f"delta = {delta} ~ ") for line in lines)


def test_closed_stdout_exits_1_with_nothing_on_stderr():
    # about 470 KB of output, far over a pipe buffer, so a write must fail
    proc = subprocess.Popen(CLI + ["spectrum", "brieskorn", "--a", "200", "--b", "199"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(1) == b"f"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_stdout_closed_before_start_exits_1_with_nothing_on_stderr():
    # the output fits in stdout's buffer, so the first failing write is main's flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run(CLI + ["spectrum", "brieskorn", "--a", "5", "--b", "4"],
                           stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (r.returncode, r.stderr) == (1, b"")


def test_sweep_drop_max_skips_single_value_spectrum(capsys):
    from tjspectra import cli
    assert cli.main(["sweep", "brieskorn", "--a", "2:3", "--b", "2",
                     "--subset", "drop-max"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [r.split("\t")[1] for r in rows] == ["3,2"]


GROUP_POWERS_PAST_THE_LIMIT = [
    ["milnor", "--poly", "(x^2+y^3)^100000"],   # refused before the power is expanded
    ["milnor", "--poly", "(x^2+y^3)^10000*(x^2+y^3)^10000"],  # the powers' degrees sum past it
    # a power of a number past the limit, refused before 9^30000000 is computed
    ["milnor", "--poly", "9^30000000*x^2+y^2"],
    ["milnor", "--poly", "(9)^30000000*x^2+y^2"],
]


@pytest.mark.parametrize("argv", [
    ["sweep", "swh", "--a", "x", "--b", "5", "--c", "1", "--d", "1"],
    ["sweep", "swh", "--a", "5:7,", "--b", "5", "--c", "1", "--d", "1"],
    ["enumerate", "--poly", "x^7+y^7", "--slack", "-1"],
    ["spectrum", "swh", "--a", "7", "--b", "7", "--c", "1", "--d", "1", "--q", "3"],
    ["sweep", "brieskorn", "--a", "3", "--b", "3", "--c", "1"],
    ["spectrum", "swh", "--a", "x", "--b", "7", "--c", "1", "--d", "1"],
    ["sweep", "swh", "--b", "5", "--c", "1", "--d", "1", "--a"],
    ["milnor", "--poly", "x^\u00b2+y^3"],        # a superscript two
    ["tjurina", "--poly", "x^\u0663+y^2"],       # an Arabic-Indic three
    ["check", "brieskorn", "--a", "1", "--b", "5"],  # an exponent below 2
    ["check", "puiseux", "--a", "4", "--b", "2", "--d", "3", "--q", "1", "--r", "1"],  # gcd 2
    ["milnor", "--poly", "x^2+y^3", "--nvars", "4"],
    ["milnor", "--poly", "x^2*y^2"],            # not an isolated singularity
    ["tjurina", "--poly", "1+x^2+y^3"],         # f(0) != 0
    ["milnor", "--poly", "x^40000+y^2"],        # a degree beyond MAX_DEGREE
    ["milnor", "--poly", "x^70000+y^2"],        # an exponent beyond a packed field
    *GROUP_POWERS_PAST_THE_LIMIT,
    ["check", "brieskorn", "--a", "40000", "--b", "2"],  # a Poly term beyond MAX_DEGREE
    ["sweep", "swh", "--a", "32768", "--b", "3", "--c", "1", "--d", "1"],
])
def test_bad_input_exits_1_with_one_error_line(capsys, argv):
    from tjspectra import cli
    if argv in GROUP_POWERS_PAST_THE_LIMIT:
        # in a child process with a timeout: a parser that expands a power
        # before it checks the degree fails the test rather than hanging the run
        r = subprocess.run(CLI + argv, capture_output=True, text=True, timeout=20)
        code, out, err = r.returncode, r.stdout, r.stderr
    else:
        code = cli.main(argv)
        out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_enumerate_negative_slack_exits_1(capsys):
    from tjspectra import cli
    assert cli.main(["enumerate", "--poly", "x^7+y^7", "--slack", "-1"]) == 1
    assert capsys.readouterr() == ("", "error: slack must be non-negative, got -1\n")


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
def test_help_exits_0(capsys, argv):
    from tjspectra import cli
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tjspectra")


def test_sweep_jobs_below_one_exit_1(capsys):
    from tjspectra import cli
    assert cli.main(SWH_ARGS + ["--jobs", "0"]) == 1
    assert "--jobs must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("jobs, cpus, workers", [
    ("64", 3, 3),    # clamped to the CPU count
    ("64", 16, 9),   # clamped to the 9 tuples
    ("2", 16, 2),
    ("4", 1, None),  # one CPU: serial, no pool
    ("1", 16, None),
])
def test_sweep_jobs_are_clamped(monkeypatch, capsys, jobs, cpus, workers):
    import concurrent.futures
    from tjspectra import cli
    made = []

    class FakePool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    assert cli.main(SWH_ARGS + ["--jobs", jobs]) == 0
    assert made == ([] if workers is None else [workers])
    assert len(capsys.readouterr().out.splitlines()) == 1 + 9


# --- one parser shared by every main() call in the process ---

CHECK_SWH = ["check", "swh", "--a", "7", "--b", "7", "--c", "1", "--d", "1"]
PUISEUX_SWEEP = ["sweep", "puiseux", "--a", "3", "--b", "2", "--d", "2", "--q=-1:9", "--r", "1"]


def _golden(name):
    with open(os.path.join(os.path.dirname(__file__), "golden", f"{name}.txt")) as fh:
        return fh.read()


def _fresh_stdout(argv):
    """stdout of the CLI in a new interpreter, which builds its own parser."""
    r = run(*argv)
    assert (r.returncode, r.stderr) == (0, "")
    return r.stdout


@pytest.mark.parametrize("pair", [
    (SWH_ARGS + ["--format", "json"], SWH_ARGS),
    (PUISEUX_SWEEP + ["--subset", "drop-max"], PUISEUX_SWEEP),
], ids=["json-and-tsv", "drop-max-and-tjurina"])
@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_repeated_main_calls_print_what_fresh_processes_print(capsys, pair, order):
    from tjspectra import cli
    for argv in pair[::order]:
        assert cli.main(argv) == 0
        assert capsys.readouterr() == (_fresh_stdout(argv), "")


@pytest.mark.parametrize("bad", [
    CHECK_SWH + ["--bogus", "1"],
    ["check", "swh", "--a", "x", "--b", "7", "--c", "1", "--d", "1"],
    ["check", "nonesuch", "--a", "7"],
])
def test_bad_flag_leaves_the_next_main_call_unchanged(capsys, bad):
    from tjspectra import cli
    assert cli.main(bad) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert cli.main(CHECK_SWH) == 0
    assert capsys.readouterr() == (_golden("check-swh"), "")


def test_cross_check_does_not_carry_to_the_next_main_call(monkeypatch, capsys):
    from tjspectra import cli, localg
    polys = []
    real = localg.milnor

    def counted(f):
        polys.append(f)
        return real(f)

    monkeypatch.setattr(localg, "milnor", counted)
    assert cli.main(CHECK_SWH + ["--cross-check"]) == 0
    assert len(polys) == 1
    assert cli.main(CHECK_SWH) == 0
    assert len(polys) == 1  # the engine ran for the first call only
    assert capsys.readouterr() == (2 * _golden("check-swh"), "")


def test_main_looks_up_each_subcommand_when_called(monkeypatch, capsys):
    from tjspectra import cli
    assert cli.main(["milnor", "--poly", "x^2+y^3"]) == 0  # the parser now exists
    assert cli.build_parser() is cli.build_parser()
    called = []

    def recorder(args):
        called.append(args.command)
        return 0

    monkeypatch.setattr(cli, "cmd_sweep", recorder)
    monkeypatch.setattr(cli, "cmd_colength", recorder)
    assert cli.main(SWH_ARGS) == 0
    assert cli.main(["tjurina", "--poly", "x^2+y^3"]) == 0
    assert called == ["sweep", "tjurina"]
    assert capsys.readouterr().out == "2\n"  # only the unpatched first call printed
