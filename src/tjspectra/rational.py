"""Exact rational numbers and their text renderings.

Every quantity in this package (spectral numbers, averages, variances,
defects) is an exact ``fractions.Fraction``; floats never enter any
computation path.  Decimal strings are produced only at the reporting
boundary.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

DECIMAL_DIGITS = 12


def format_ratio(r: Fraction) -> str:
    """Render a rational as "p/q" ("p" when the denominator is 1)."""
    return str(r)


def decimal_str(r: Fraction) -> str:
    """Advisory decimal rendering with DECIMAL_DIGITS significant digits."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        return str(Decimal(r.numerator) / Decimal(r.denominator))
