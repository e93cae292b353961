"""Seeded inputs, passes and correctness gates of the benchmark workloads.

A workload object is built from a seed alone and holds the inputs the
program sees as a list of ``calls``: ``sweep`` command lines for the sweeps,
polynomial items for the engine corpus.  ``run_call`` feeds one of them
through the public entry points (``cli.main`` with stdout captured, or
``localg.milnor``, ``localg.tjurina`` and ``localg.colength_oracle``); a pass
runs every call once.  ``check`` judges the outputs of every pass with checks
that do not reuse the code under test: expected rows come from the families'
``validate()`` methods, mu and tau from closed forms or integer lattice
counts, and, for the default seed, each row must equal the committed
reference in ``reference/``.

Inputs are work-balanced: every seed gives the same number of items within
a few percent and the same spread of item sizes (mu), so that items per
second and the latency percentiles can be compared across seeds.

Run this file directly to rewrite the references for the default seed.
"""

import json
import os
import random
from contextlib import redirect_stdout
from io import StringIO
from itertools import product
from math import gcd

from tjspectra import cli, localg, poly
from tjspectra.errors import InvalidFamilyParameters
from tjspectra.families import PuiseuxParams, SwhParams

DEFAULT_SEED = 0
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
TSV_HEADER = "family\tparams\tmu\ttau\tdelta_exact\tdelta_decimal\tthm31\tav_obs"


class Failures:
    """Items attempted and the reasons the failed ones failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def item(self, ok, why):
        self.attempted += 1
        if not ok:
            self.failed.append(why)


def run_cli(argv):
    """Run the CLI in-process; return its stdout or raise on a non-zero exit."""
    buf = StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"tjspectra {' '.join(argv)} exited {code}")
    return buf.getvalue()


def _reference(name):
    with open(os.path.join(REFERENCE_DIR, name)) as fh:
        return fh.read()


def _join(values):
    return ",".join(map(str, values))


def _valid(params):
    try:
        params.validate()
    except InvalidFamilyParameters:
        return False
    return True


# --- independent closed forms ----------------------------------------------

def puiseux_mu(a, b, d, q, r):
    """Milnor number of (y^b - x^a)^d - x^(ad+q) y^r by integer lattice count:
    twice the number of spectral values below 1."""
    e = a * b * d + b * q + a * r
    # i/e + j/d < 1 for 0 < i, j: i < e(d - j)/d; and i/a + j/b < 1 likewise
    lower = sum(-(-e * (d - j) // d) - 1 for j in range(1, d))
    lower += d * sum(-(-b * (a - i) // a) - 1 for i in range(1, a))
    return 2 * lower


# --- sweeps ----------------------------------------------------------------

class Sweep:
    """``sweep`` command lines whose rows, over all calls of a pass, are checked
    against the tuples ``validate()`` accepts."""

    def run_call(self, argv, rec):
        return run_cli(argv)

    def check(self, passes, fails):
        expected = self.expected_rows()
        reference = None
        if self.seed == DEFAULT_SEED:
            reference = self._rows(_reference(self.reference), Failures(), {})
        for outputs in passes:
            rows = {}
            for out in outputs:
                if out is not None:
                    self._rows(out, fails, rows)
            for key, t in expected.items():
                row = rows.pop(key, None)
                if row is None:
                    fails.item(False, f"{key}: valid tuple has no row")
                    continue
                why = self._check_row(t, row)
                if why is None and reference is not None and reference.get(key) != row:
                    why = f"{key}: row differs from the reference"
                fails.item(why is None, why)
            for key in rows:
                fails.item(False, f"{key}: row for a tuple validate() rejects")


class SwhSweep(Sweep):
    """``sweep swh`` over A x B x {1,2,3} x {1,2,3}, TSV output.

    One of A, B is {5, 7, 16, 17}, the other {5, p, 23 - p, 17} with p drawn
    from 8..11, and the seed also picks which is which.  All eight grids have
    the same median (96) and 90th percentile (240) of (a-1)(b-1) over their
    valid rows, so the latency percentiles land on rows of the same size for
    every seed.  There is one call per pair (a, b), so that a pass is many
    short calls and the fastest of many repetitions of each call can be
    taken.
    """

    name = "swh-sweep"
    family = "swh"
    reference = "swh-seed0.tsv"

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random(seed)
        p = rng.choice((8, 9, 10, 11))
        sides = [[5, 7, 16, 17], [5, p, 23 - p, 17]]
        rng.shuffle(sides)
        self.a_values, self.b_values = sorted(sides[0]), sorted(sides[1])
        self.calls = [["sweep", "swh", "--a", str(a), "--b", str(b), "--c", "1:3", "--d", "1:3"]
                      for a, b in product(self.a_values, self.b_values)]

    def expected_rows(self):
        """params text -> (a, b, c, d) for every tuple validate() accepts."""
        tuples = product(self.a_values, self.b_values, (1, 2, 3), (1, 2, 3))
        return {_join(t): t for t in tuples if _valid(SwhParams(*t))}

    def work(self):
        rows = self.expected_rows().values()
        return {"rows": len(rows), "sum_mu": sum((a - 1) * (b - 1) for a, b, _, _ in rows)}

    def _rows(self, out, fails, rows):
        lines = out.split("\n")
        if lines[0] != TSV_HEADER or lines[-1] != "":
            fails.item(False, "malformed TSV header or trailer")
            return rows
        for line in lines[1:-1]:
            fields = line.split("\t")
            if len(fields) != 8 or fields[0] != self.family or fields[1] in rows:
                fails.item(False, f"malformed or repeated row {line!r}")
                continue
            rows[fields[1]] = line
        return rows

    def _check_row(self, t, line):
        a, b, c, d = t
        fields = line.split("\t")
        mu, tau = (a - 1) * (b - 1), (a - 1) * (b - 1) - c * d
        if fields[2:4] != [str(mu), str(tau)]:
            return f"{fields[1]}: mu, tau = {fields[2:4]}, closed form gives {mu}, {tau}"
        return None

    def reference_text(self, outputs):
        return TSV_HEADER + "\n" + "".join(out.split("\n", 1)[1] for out in outputs)


class PuiseuxSweep(Sweep):
    """``sweep puiseux`` with JSON output over A x B x {2,3} x Q x {1}, one
    call per pair (a, b).

    A and B are fixed; most of their product fails validation (a > b,
    gcd(a, b) = 1, gcd(c, d) = 1).  Q is {4, 6} and, drawn by the seed, one
    of the pairs {3, 7} and {1, 9}: both have mean 5 and the same parities
    and residues mod 3, so both give 100 valid rows with the same median and
    90th-percentile mu.
    """

    name = "puiseux-sweep"
    family = "puiseux"
    reference = "puiseux-seed0.json"

    A = (4, 5, 7, 9, 11)
    B = (2, 3, 4, 5, 7)
    D = (2, 3)
    R = (1,)

    def __init__(self, seed):
        self.seed = seed
        j = random.Random(seed).choice((2, 4))
        self.q_values = sorted((4, 6, 5 - j, 5 + j))
        self.calls = [["sweep", "puiseux", "--a", str(a), "--b", str(b), "--d", _join(self.D),
                       f"--q={_join(self.q_values)}", "--r", _join(self.R), "--format", "json"]
                      for a, b in product(self.A, self.B)]

    def expected_rows(self):
        tuples = product(self.A, self.B, self.D, self.q_values, self.R)
        return {_join(t): t for t in tuples if _valid(PuiseuxParams(*t))}

    def work(self):
        rows = self.expected_rows().values()
        return {"rows": len(rows), "sum_mu": sum(puiseux_mu(*t) for t in rows)}

    def _rows(self, out, fails, rows):
        try:
            parsed = json.loads(out)
        except ValueError:
            fails.item(False, "stdout is not JSON")
            return rows
        for row in parsed:
            key = row.get("params")
            if row.get("family") != self.family or key in rows:
                fails.item(False, f"malformed or repeated row {row!r}")
                continue
            rows[key] = row
        return rows

    def _check_row(self, t, row):
        mu = puiseux_mu(*t)
        if row["mu"] != mu:
            return f"{row['params']}: mu = {row['mu']}, lattice count gives {mu}"
        if not 1 <= row["tau"] <= mu:
            return f"{row['params']}: tau = {row['tau']} outside [1, mu = {mu}]"
        return None

    def reference_text(self, outputs):
        return json.dumps([row for out in outputs for row in json.loads(out)], indent=2) + "\n"


# --- engine corpus ---------------------------------------------------------

def _swh_polys():
    for a, b, c, d in product(range(6, 17), range(6, 17), (1, 2, 3), (1, 2, 3)):
        if 2 * c < a and 2 * d < b and (1 + c) * b + (1 + d) * a < a * b:
            mu = (a - 1) * (b - 1)
            yield f"x^{a}+y^{b}+x^{a - 1 - c}*y^{b - 1 - d}", 2, mu, mu - c * d, a + b


def _three_monomial_polys():
    for a, b, c, d in product(range(2, 5), range(3, 7), range(5, 15), range(5, 17)):
        if a < b and a * d + b * c < c * d:
            # Kouchnirenko: twice the area under the Newton polygon, minus
            # its intercepts, plus one.
            yield f"x^{a}*y^{b}+x^{c}+y^{d}", 2, c * b + a * d - c - d + 1, None, c + d


def _puiseux_polys():
    for a, b, d, q, r in product(range(3, 8), range(2, 7), (2, 3), range(6), range(1, 6)):
        if a > b > r and gcd(a, b) == 1 and gcd(b * q + a * r, d) == 1:
            yield (f"(y^{b}-x^{a})^{d}-x^{a * d + q}*y^{r}", 2, puiseux_mu(a, b, d, q, r),
                   None, (a + b) * d + a)


def _brieskorn_pham_polys():
    for a, b, k in product(range(3, 10), range(3, 10), (2, 3)):
        for i, j in product(range(1, a), range(1, b)):
            if i * b + j * a > a * b:
                yield f"x^{a}+y^{b}+{k}*x^{i}*y^{j}", 2, (a - 1) * (b - 1), None, a + b


def _brieskorn_pham_3_polys():
    for a, b, c in product(range(2, 6), repeat=3):
        for i, j, k in product(range(a), range(b), range(c)):
            if (i > 0) + (j > 0) + (k > 0) >= 2 and i * b * c + j * a * c + k * a * b > a * b * c:
                yield (f"x^{a}+y^{b}+z^{c}+x^{i}*y^{j}*z^{k}", 3,
                       (a - 1) * (b - 1) * (c - 1), None, None)


class EngineCorpus:
    """``milnor`` and ``tjurina`` on a seeded corpus of 2- and 3-variable
    polynomials, and ``colength_oracle`` on the Tjurina ideals of a subset.

    Each family always contributes its four largest-mu candidates, so the
    slowest items, where the tail percentile lands, are the same for every
    seed.  The other candidates are sorted by mu and cut into four equal
    buckets, and the seed draws the same number from every bucket.  The
    oracle runs on the two smallest candidates of each two-variable family,
    with a degree cap past the point where their Tjurina ideals contain
    every monomial.
    """

    name = "engine-corpus"
    reference = "engine-seed0.json"

    FAMILIES = (_swh_polys, _three_monomial_polys, _puiseux_polys, _brieskorn_pham_polys,
                _brieskorn_pham_3_polys)
    LARGEST = 4
    PER_BUCKET = 8
    ORACLES = 2

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random(seed)
        picked, oracle = {}, []
        for family in self.FAMILIES:
            candidates = sorted(set(family()), key=lambda p: (p[2], p[0]))
            rest = candidates[:-self.LARGEST]
            size = len(rest) // 4
            for p in candidates[-self.LARGEST:] + [
                    p for bucket in range(4)
                    for p in rng.sample(rest[bucket * size:(bucket + 1) * size], self.PER_BUCKET)]:
                picked[p[0]] = p
            if candidates[0][4] is not None:
                oracle.extend(candidates[:self.ORACLES])
                picked.update((p[0], p) for p in candidates[:self.ORACLES])
        self.polys = [p[:4] for p in picked.values()]  # (text, nvars, mu, tau or None)
        self.calls = []                                # (kind, text, nvars, degree cap)
        for text, nvars, _, _ in self.polys:
            self.calls.append(("milnor", text, nvars, None))
            self.calls.append(("tjurina", text, nvars, None))
        self.calls.extend(("oracle", text, nvars, cap) for text, nvars, _, _, cap in oracle)

    @staticmethod
    def key(item):
        return f"{item[0]}:{item[1]}"

    @staticmethod
    def solve(kind, text, nvars, cap):
        f = poly.parse_poly(text, nvars=nvars)
        if kind == "milnor":
            return localg.milnor(f)
        if kind == "tjurina":
            return localg.tjurina(f)
        gens = [g for g in poly.jacobian(f) if not g.is_zero()] + [f]
        return localg.colength_oracle(gens, cap)

    def run_call(self, item, rec):
        return rec.run_item(self.key(item), self.solve, *item)

    def reference_text(self, outputs):
        return json.dumps(dict(zip(map(self.key, self.calls), outputs)),
                          indent=0, sort_keys=True) + "\n"

    def work(self):
        return {"ideals": len(self.polys), "items": len(self.calls),
                "sum_mu": sum(p[2] for p in self.polys)}

    def check(self, passes, fails):
        expected = {text: (mu, tau) for text, _, mu, tau in self.polys}
        reference = None
        if self.seed == DEFAULT_SEED:
            reference = json.loads(_reference(self.reference))
        for outputs in passes:
            results = dict(zip(map(self.key, self.calls), outputs))
            for item in self.calls:
                kind, text = item[:2]
                key = self.key(item)
                got = results.get(key)
                mu, tau = expected[text]
                if kind == "milnor":
                    ok = got == mu
                elif kind == "tjurina":
                    ok = type(got) is int and 1 <= got <= mu and tau in (None, got)
                else:
                    ok = got is not None and got == results.get(f"tjurina:{text}")
                why = None if ok else f"{key} = {got}; mu = {mu}, tau = {tau}"
                if ok and reference is not None and reference.get(key) != got:
                    why = f"{key} = {got}, reference has {reference.get(key)}"
                fails.item(why is None, why)


WORKLOADS = {w.name: w for w in (SwhSweep, PuiseuxSweep, EngineCorpus)}


class _NoRecorder:
    def run_item(self, key, fn, *args):
        return fn(*args)


def write_references():
    """Rewrite reference/ from the current program for the default seed."""
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for cls in (SwhSweep, PuiseuxSweep, EngineCorpus):
        w = cls(DEFAULT_SEED)
        outputs = [w.run_call(call, _NoRecorder()) for call in w.calls]
        with open(os.path.join(REFERENCE_DIR, w.reference), "w") as fh:
            fh.write(w.reference_text(outputs))


if __name__ == "__main__":
    write_references()
