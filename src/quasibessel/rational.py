"""Exact parsing of shifting indices into fractions.

Shifting indices, the power on the zeroth-order factor, and the series step
must sit on a common lattice, so they are carried as exact fractions from the
moment they are parsed.  Inputs arrive as decimal strings, integers or
Fractions; binary floats are rejected because recovering the intended
fraction from a float is ill-posed.  The lattice itself (N_LCD and N_gcf) is
built by ``series.compute_step`` with ``math.lcm`` and ``math.gcd`` on these
fractions; Python integers are arbitrary precision, so none of it can
overflow.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

__all__ = [
    "RationalLike",
    "parse_decimal",
    "as_rational",
]

RationalLike = Union[Fraction, int, str]

# optional sign, integer digits, optional fractional part ("3", "-2.1", "0.80")
_DECIMAL_RE = re.compile(r"[+-]?\d+(?:\.\d*)?")


def parse_decimal(text: str) -> Fraction:
    """Parse a finite decimal string into an exact, reduced fraction.

    >>> parse_decimal("0.8")
    Fraction(4, 5)
    >>> parse_decimal("3")
    Fraction(3, 1)
    """
    s = text.strip()
    if not _DECIMAL_RE.fullmatch(s):
        raise ValueError(f"not a finite decimal string: {text!r}")
    return Fraction(s)


def as_rational(value: RationalLike) -> Fraction:
    """Coerce a decimal string, int, or Fraction to an exact Fraction.

    Floats are rejected on purpose: exactness of the shifting indices is what
    makes the step lattice computable, and a float does not carry the decimal
    the user meant.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bool is an int subclass; do not accept it
        raise TypeError("expected a rational value, got bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_decimal(value)
    if isinstance(value, float):
        raise TypeError(
            f"refusing to convert float {value!r}; pass a decimal string "
            "or a Fraction so the value stays exact"
        )
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")
