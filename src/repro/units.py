"""Time-unit constants and helpers.

Internally the whole library measures *time in seconds* as ``float64``
(both "true" simulation time and local clock readings) and *drift rates*
as dimensionless ratios (seconds of clock error per second of true time,
so ``1e-6`` is 1 ppm — one microsecond of divergence per second).

These helpers exist so that model parameters taken from the paper can be
written in their natural unit (``4.29 * units.USEC``) instead of raw
powers of ten, and so that reports can render times in a human unit.
"""

from __future__ import annotations

import math

__all__ = [
    "SEC",
    "MSEC",
    "USEC",
    "NSEC",
    "PPM",
    "PPB",
    "MINUTE",
    "HOUR",
    "format_seconds",
    "format_rate",
]

#: One second (the base unit).
SEC: float = 1.0
#: One millisecond in seconds.
MSEC: float = 1e-3
#: One microsecond in seconds.
USEC: float = 1e-6
#: One nanosecond in seconds.
NSEC: float = 1e-9
#: One minute in seconds.
MINUTE: float = 60.0
#: One hour in seconds.
HOUR: float = 3600.0

#: Parts per million, the natural unit of clock drift rates.
PPM: float = 1e-6
#: Parts per billion, the natural unit of drift *instability*.
PPB: float = 1e-9

_SCALES = (
    (1.0, "s"),
    (1e-3, "ms"),
    (1e-6, "us"),
    (1e-9, "ns"),
)


def format_seconds(value: float, digits: int = 3) -> str:
    """Render a duration in the largest unit that keeps it >= 1.

    Parameters
    ----------
    value:
        Duration in seconds.  May be negative (sign is preserved).
    digits:
        Significant decimal digits after the point.

    Examples
    --------
    >>> format_seconds(4.29e-6)
    '4.290 us'
    >>> format_seconds(-0.25)
    '-250.000 ms'
    >>> format_seconds(0.0)
    '0.000 s'
    """
    if value == 0.0 or not math.isfinite(value):
        return f"{value:.{digits}f} s"
    mag = abs(value)
    for scale, suffix in _SCALES:
        if mag >= scale:
            return f"{value / scale:.{digits}f} {suffix}"
    scale, suffix = _SCALES[-1]
    return f"{value / scale:.{digits}f} {suffix}"


def format_rate(rate: float) -> str:
    """Render a drift rate in ppm (or ppb when below 0.01 ppm).

    Examples
    --------
    >>> format_rate(2.5e-6)
    '2.50 ppm'
    >>> format_rate(3e-9)
    '3.00 ppb'
    """
    if rate != 0.0 and abs(rate) < 0.01 * PPM:
        return f"{rate / PPB:.2f} ppb"
    return f"{rate / PPM:.2f} ppm"
