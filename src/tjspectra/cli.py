"""Command-line surface.

Subcommands: spectrum | check | enumerate | sweep | milnor | tjurina | verify.
Exit codes: 0 success, 1 input error or a stdout closed early (as by
`| head`, with nothing on stderr), 2 internal consistency failure, a family
spectrum that fails its own range or symmetry check included.
All rationals are printed as "p/q"; decimal columns are advisory renderings
with 12 significant digits.
"""

import argparse
import functools
import os
import sys
from fractions import Fraction
from itertools import product, repeat

from . import localg
from .conjecture import enumerate_candidates, thm31_verdict
from .errors import InternalConsistencyError, InvalidFamilyParameters, TjspectraError
from .families import FAMILIES, BrieskornParams
from .poly import parse_poly
from .rational import decimal_str, format_ratio
from .spectra import stats_of_values, subset_stats

FLAGS = sorted({name for params in FAMILIES.values() for name in params._fields})
FLAG_OPTIONS = {f"--{name}" for name in FLAGS}

POLY_HELP = "polynomial in x, y, z; it may start with '-', as in --poly -x^2-y^3"

TSV_COLUMNS = ("family", "params", "mu", "tau", "delta_exact", "delta_decimal",
               "thm31", "av_obs")


def sign_marker(x: Fraction) -> str:
    return "+" if x > 0 else ("-" if x < 0 else "0")


# --- subcommand bodies ---

def _instance(args):
    """The instance that the family and its flags on the command line name."""
    inst = FAMILIES[args.family](**_family_values(args)).instance()
    if args.cross_check:
        inst.cross_check()
    return inst


def _print_heading(inst):
    print(f"family: {inst.family_tag}")
    if inst.subset_assumed:
        print("tjurina_subset: assumed-top-block")


def cmd_spectrum(args):
    inst = _instance(args)
    s = inst.spectrum
    _print_heading(inst)
    print(f"mu = {s.mu}")
    print(f"tau = {inst.tau}")
    print("spectrum:", " ".join(format_ratio(v) for v in s.values))
    mask = "".join("1" if i in inst.tjurina_indices else "0"
                   for i in range(1, s.mu + 1))
    print(f"tjurina_mask: {mask}")
    missing = [format_ratio(s.value_at(i)) for i in range(1, s.mu + 1)
               if i not in inst.tjurina_indices]
    print("missing:", " ".join(missing) if missing else "(none)")
    return 0


def cmd_check(args):
    inst = _instance(args)
    v = thm31_verdict(inst)
    delta = v.tjurina.delta
    _print_heading(inst)
    print(f"mu = {inst.mu}  tau = {inst.tau}")
    print(f"delta = {format_ratio(delta)} ({sign_marker(delta)}) ~ {decimal_str(delta)}")
    print(f"thm31_guaranteed_failure = {str(v.guaranteed_failure).lower()}")
    print(f"av_tj_le_av = {str(v.av_condition).lower()}")
    return 0


def cmd_enumerate(args):
    if args.slack < 0:
        raise TjspectraError(f"slack must be non-negative, got {args.slack}")
    a, b = _brieskorn_exponents(parse_poly(args.poly))
    s = BrieskornParams(a, b).instance().spectrum
    result = enumerate_candidates(s, args.slack)
    print(f"mu = {s.mu}  tau = {s.mu}  k = {result.k}")
    if result.clamped:
        print(f"A replaced by {result.slack}")
    for rec in result.records:
        delta = rec.stats.delta
        print(f"tau' = {rec.tau_prime}  j = {rec.j}  max_index = {s.mu - rec.j}  "
              f"delta = {format_ratio(delta)} ~ {decimal_str(delta)}")
    return 0


def _brieskorn_exponents(f):
    """(a, b) when f is x^a + y^b with a, b >= 2; any other f is an input error."""
    if f.nvars == 2 and len(f.terms) == 2:
        (_, b), (a, _) = sorted(f.terms)
        if min(a, b) >= 2 and f.terms == {(a, 0): 1, (0, b): 1}:
            return a, b
    raise TjspectraError("enumerate supports only Brieskorn polynomials x^a + y^b")


def _parse_range(text):
    """Accept "5", "3:12" (inclusive), or "1,3,5"."""
    lo, colon, hi = text.partition(":")
    try:
        if colon:
            return list(range(int(lo), int(hi) + 1))
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise TjspectraError(f"bad range {text!r}: expected N, LO:HI or N,N,...") from None


def sweep_row(family, values, subset):
    """One sweep row, or None when the tuple is invalid for the family or
    the requested subset is empty; any other failure propagates."""
    try:
        inst = FAMILIES[family](**values).instance()
    except InvalidFamilyParameters:
        return None
    if subset == "drop-max":
        if inst.mu == 1:
            return None
        subset_inst = inst._replace(tjurina_indices=frozenset(range(1, inst.mu)))
    else:
        subset_inst = inst
    st = subset_stats(inst.spectrum, subset_inst.tjurina_indices)
    full = stats_of_values(inst.spectrum.nums, inst.spectrum.L)
    v = thm31_verdict(subset_inst)
    delta = st.delta
    return {
        "family": family,
        "params": ",".join(map(str, values.values())),
        "mu": inst.mu,
        "tau": inst.tau,
        "delta_exact": format_ratio(delta),
        "delta_decimal": decimal_str(delta),
        "thm31": str(v.guaranteed_failure).lower(),
        "av_obs": str(st.av_le(full)).lower(),
    }


def cmd_sweep(args):
    raw = _family_values(args)
    ranges = [_parse_range(text) for text in raw.values()]
    if any(not r for r in ranges):
        raise TjspectraError("empty parameter range")
    if args.jobs < 1:
        raise TjspectraError(f"--jobs must be at least 1, got {args.jobs}")
    values = [dict(zip(raw, t)) for t in product(*(sorted(set(r)) for r in ranges))]
    row_args = (repeat(args.family), values, repeat(args.subset))
    workers = min(args.jobs, os.cpu_count() or 1, len(values))
    if workers > 1:
        # imported here: loading the process pool costs every other CLI call
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(sweep_row, *row_args))
    else:
        rows = list(map(sweep_row, *row_args))
    rows = [r for r in rows if r is not None]
    if args.format == "json":
        # imported here: loading json costs every other CLI call
        import json
        print(json.dumps(rows, indent=2))
    else:
        out = ["\t".join(TSV_COLUMNS)]
        out.extend("\t".join(str(r[c]) for c in TSV_COLUMNS) for r in rows)
        sys.stdout.write("\n".join(out) + "\n")
    return 0


def cmd_colength(args):
    """`milnor` or `tjurina`: the localg function the subcommand names."""
    print(getattr(localg, args.command)(parse_poly(args.poly, nvars=args.nvars)))
    return 0


def cmd_verify(args):
    # imported here: loading the verification suite costs every other CLI call
    from .verify import run_checks
    return run_checks()


def _family_values(args):
    """The family's flag values by parameter name; a missing flag, or one
    the family does not take, is an input error."""
    names = FAMILIES[args.family]._fields
    for name in FLAGS:
        given = getattr(args, name) is not None
        if given != (name in names):
            verb = "requires" if name in names else "takes no"
            raise TjspectraError(f"family {args.family!r} {verb} --{name}")
    return {name: getattr(args, name) for name in names}


def _add_family_flags(sub, **flag_options):
    sub.add_argument("family", choices=sorted(FAMILIES))
    for name in FLAGS:
        sub.add_argument(f"--{name}", **flag_options)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise TjspectraError(message)


@functools.cache
def build_parser():
    """The parser every `main` call shares; callers must not mutate it.  A
    subcommand stores its `cmd_*` name, which `main` looks up on each call."""
    parser = _Parser(prog="tjspectra",
                     description="Exact Tjurina spectra and Hertling variance defects")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, text in (
            ("spectrum", "cmd_spectrum", "print a family spectrum"),
            ("check", "cmd_check", "defect and failure-criterion verdict for one instance")):
        p = sub.add_parser(name, help=text)
        _add_family_flags(p, type=int)
        p.add_argument("--cross-check", action="store_true",
                       help="recompute mu/tau with the local standard-basis engine")
        p.set_defaults(func=fn)

    p = sub.add_parser("enumerate", help="candidate Tjurina spectra of a Brieskorn polynomial")
    p.add_argument("--poly", required=True, help=POLY_HELP)
    p.add_argument("--slack", type=int, default=10,
                   help="how far below tau the candidate Tjurina numbers may go")
    p.set_defaults(func="cmd_enumerate")

    p = sub.add_parser("sweep", help="tabulate defects over parameter ranges (TSV or JSON)")
    _add_family_flags(p, help="integer, lo:hi range, or comma list")
    p.add_argument("--subset", choices=["tjurina", "drop-max"], default="tjurina",
                   help="index subset the delta column is computed over")
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most the CPU count and the tuple count")
    p.set_defaults(func="cmd_sweep")

    for name in ("milnor", "tjurina"):
        p = sub.add_parser(name, help=f"{name} number via local standard basis")
        p.add_argument("--poly", required=True, help=POLY_HELP)
        p.add_argument("--nvars", type=int, default=2)
        p.set_defaults(func="cmd_colength")

    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.set_defaults(func="cmd_verify")
    return parser


def _attach_negative_values(argv):
    """Rewrite "--q -1:9" as "--q=-1:9", and "--poly -x" as "--poly=-x" for
    any --poly value: argparse takes a token that starts with "-" and is
    not a plain number for an option, not a value."""
    out = []
    for arg in argv:
        if out and arg[:1] == "-" and (out[-1] == "--poly" or (
                out[-1] in FLAG_OPTIONS and arg[1:2].isdigit())):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    argv = _attach_negative_values(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        status = globals()[args.func](args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader is gone; the flush at interpreter exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except TjspectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
