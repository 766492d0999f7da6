"""Exact rational scalars and their "p/q" string form.

Rationals are `fractions.Fraction` throughout: arbitrary-precision, always
in lowest terms with a positive denominator, so equality is structural.
"""

import re
from fractions import Fraction

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (optionally signed) into a Fraction.

    Raises ValueError for anything else: decimals, exponents, digit
    separators and a zero denominator included."""
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {text!r}")
    body = text.strip()
    if not _RATIONAL.fullmatch(body):
        raise ValueError(f"expected a rational \"p/q\" or \"p\", got {text!r}")
    try:
        return Fraction(body)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(value: Fraction) -> str:
    """Format a Fraction as "p/q", or just "p" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
