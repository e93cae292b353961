"""The machine's speed at the moment of a measurement, from fixed kernels.

The benchmark runs on a few cores of a shared host whose speed changes
by up to 1.8x for tens of seconds at a time, whatever the program does.
:func:`calibration_s` times a fixed stdlib-only kernel (exact rational
arithmetic, like the program's) right next to each measured call, and
:func:`to_reference` rescales a measured time to what it would have been
had the kernel taken ``REFERENCE_S``.  Set-up time is mostly process
start and imports, which slow down less than arithmetic, so it is
rescaled instead by the start of a bare interpreter timed just before
(:func:`interpreter_start_s`, ``REFERENCE_START_S``).  Times reported this
way are "seconds at reference speed": the host's speed cancels, the
program's does not, because neither kernel uses anything from tjspectra.
"""

import gc
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# The kernels' times on an unloaded core of the 2-vCPU machine the
# benchmark was written on; they only fix the scale of the reported times.
REFERENCE_S = 0.0006
REFERENCE_START_S = 0.036


def _kernel():
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i % 97, i)
    return total


def calibration_s():
    """Seconds the arithmetic kernel takes now.

    The collector is off meanwhile, so that a collection of the program's
    objects is charged to the program and not to the kernel.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def interpreter_start_s(cwd):
    """Seconds a bare interpreter takes now to start and exit in ``cwd``."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=cwd, check=True)
    return perf_counter() - start


def to_reference(seconds, calibration, reference=REFERENCE_S):
    """``seconds`` measured while a kernel took ``calibration`` seconds,
    rescaled to a machine on which it takes ``reference``."""
    return seconds * reference / calibration
