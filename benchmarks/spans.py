"""Spans, counts and item timings recorded around tjspectra's public functions.

A :class:`Recorder` replaces module attributes with wrappers for the length
of a ``with recorder.patch(...)`` block and puts every original back on exit.
Each target function is replaced in every ``tjspectra`` module that holds it,
because callers resolve the name in their own module (``cli.sweep_row`` calls
``cli.thm31_verdict``, ``conjecture.thm31_verdict`` calls
``conjecture.stats_of_values``, and so on).

Two patch levels exist.  ``ITEM_TARGETS`` wraps only the item boundary
(``cli.sweep_row``), with one clock read on each side; the untraced runs use
it to time rows.  ``TRACE_TARGETS`` wraps every public function the layer
metrics name and records a span per call: name, start, end, parent span and
item key.  Spans and counts stay in memory until the caller writes them out.
"""

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from math import ceil
from time import perf_counter

TAIL_LADDER = (50, 90, 95, 99, 99.5, 99.9, 99.95, 99.99)
TAIL_BEYOND = 10


def tail_percentile(samples, beyond=TAIL_BEYOND):
    """Highest ladder percentile with at least ``beyond`` samples above it.

    Uses the nearest-rank definition.  Returns ``(percentile, value)``.
    """
    xs = sorted(samples)
    n = len(xs)
    best = None
    for p in TAIL_LADDER:
        rank = ceil(Fraction(str(p)) * n / 100)
        if rank >= 1 and n - rank >= beyond:
            best = (p, xs[rank - 1])
    if best is None:
        raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")
    return best


def self_times(spans):
    """Total self time per span name.

    A span's self time is its duration minus the time its direct children
    cover.  Children of one span run one after another in one thread, so
    the covered time is the sum of their durations.
    """
    covered = defaultdict(float)
    for _sid, parent, _name, start, end, _item in spans:
        if parent is not None:
            covered[parent] += end - start
    out = defaultdict(float)
    for sid, _parent, name, start, end, _item in spans:
        out[name] += (end - start) - covered[sid]
    return dict(out)


def _count_mu(args, out):
    return (("families.values", out.mu),)


def _count_stats(args, out):
    return (("spectra.stats_calls", 1), ("spectra.values_summed", len(args[0])))


def _count_std_basis(args, out):
    return (("localg.std_basis_calls", 1), ("localg.basis_size", len(out.generators)))


# (module, attribute, count hook).  The span name is "<module>.<attribute>".
TRACE_TARGETS = (
    ("families", "swh_instance", _count_mu),
    ("families", "three_monomial_instance", _count_mu),
    ("families", "puiseux_spectrum", _count_mu),
    ("families", "puiseux_instance", None),
    ("spectra", "make_spectrum", None),
    ("spectra", "stats_of_values", _count_stats),
    ("spectra", "subset_stats", None),
    ("conjecture", "thm31_verdict", None),
    ("rational", "format_ratio", None),
    ("rational", "decimal_str", None),
    ("poly", "parse_poly", None),
    ("localg", "milnor", None),
    ("localg", "tjurina", None),
    ("localg", "local_std_basis", _count_std_basis),
    ("localg", "colength_oracle", None),
    ("cli", "cmd_sweep", None),
    ("cli", "sweep_row", None),
)
ITEM_TARGETS = (("cli", "sweep_row", None),)


def _row_key(args):
    family, values, subset = args
    return f"{family}:{','.join(f'{k}={v}' for k, v in values.items())}:{subset}"


class Recorder:
    """Records item timings, and spans and counts when ``trace`` is set."""

    def __init__(self, trace=False):
        self.trace = trace
        self.items = []      # (key, seconds, produced a result)
        self.spans = []      # (id, parent, name, start, end, item key)
        self.counts = Counter()
        self._stack = []
        self._next_id = 0
        self._item = None

    # --- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name, item_key=None):
        """Record one span around the block, as a child of the open span."""
        outer_item = self._item
        if item_key is not None:
            self._item = item_key
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, self._item))
            self._item = outer_item

    def _call(self, name, fn, args, kwargs, item_key=None, count=None):
        with self.span(name, item_key):
            out = fn(*args, **kwargs)
        if count is not None:
            for key, n in count(args, out):
                self.counts[key] += n
        if item_key is not None:
            _, _, _, start, end, _ = self.spans[-1]
            self._item_done(item_key, end - start, out)
        return out

    def _item_done(self, key, seconds, out):
        self.items.append((key, seconds, out is not None))

    def run_item(self, key, fn, *args):
        """Run one benchmark item outside the sweep CLI (the engine corpus)."""
        if self.trace:
            return self._call("item", fn, args, {}, item_key=key)
        start = perf_counter()
        out = fn(*args)
        self._item_done(key, perf_counter() - start, out)
        return out

    # --- patching ----------------------------------------------------------

    def _wrapper(self, name, fn, count, boundary):
        rec = self

        if not self.trace:
            def timed(*args, **kwargs):
                start = perf_counter()
                out = fn(*args, **kwargs)
                rec._item_done(_row_key(args), perf_counter() - start, out)
                return out
            return timed

        def traced(*args, **kwargs):
            key = _row_key(args) if boundary else None
            return rec._call(name, fn, args, kwargs, item_key=key, count=count)
        return traced

    @contextmanager
    def patch(self):
        """Wrap the targets for this recorder's level; restore them on exit."""
        targets = TRACE_TARGETS if self.trace else ITEM_TARGETS
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "tjspectra" or n.startswith("tjspectra."))]
        saved = []
        try:
            for mod_name, attr, count in targets:
                original = getattr(sys.modules[f"tjspectra.{mod_name}"], attr)
                wrapper = self._wrapper(f"{mod_name}.{attr}", original, count,
                                        (mod_name, attr) == ("cli", "sweep_row"))
                for mod in modules:
                    if vars(mod).get(attr) is original:
                        saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)
