"""Exact rational scalars, their "p/q" string form, and the JSON writer of
the package's output.

Rationals are `fractions.Fraction` throughout: arbitrary-precision, always
in lowest terms with a positive denominator, so equality is structural.
"""

import re
from fractions import Fraction
from math import isfinite

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
# the characters that json's ensure_ascii escapes: '"', '\' and all but
# printable ASCII; the short escapes first, then \uXXXX in lowercase hex
_ESCAPED = re.compile(r'[\\"]|[^\ -~]')
_SHORT_ESCAPES = {
    "\\": "\\\\", '"': '\\"', "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"
}


def _escape(match) -> str:
    char = match.group()
    if char in _SHORT_ESCAPES:
        return _SHORT_ESCAPES[char]
    code = ord(char)
    if code < 0x10000:
        return f"\\u{code:04x}"
    code -= 0x10000  # an astral character is written as a surrogate pair
    return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"


def _quote(text: str) -> str:
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'  # printable ASCII without '"' or '\\' is written as is
    return '"' + _ESCAPED.sub(_escape, text) + '"'


def _text(value, newline: str, step: str, comma: str) -> str:
    """The JSON text of value, which starts at the indentation newline
    ("" on one line); each level of nesting adds step to it."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float) and isfinite(value):
        return float.__repr__(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + step
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(_quote(key) + ": " + _text(item, inner, step, comma))
        return "{" + inner + (comma + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + step
        items = [_text(item, inner, step, comma) for item in value]
        return "[" + inner + (comma + inner).join(items) + newline + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dumps(value, indent: int | None = None) -> str:
    """The JSON text of value, equal byte for byte to
    ``json.dumps(value, indent=indent)``, for the values the package writes:
    dicts with str keys, lists and tuples of them, str (with json's
    ensure_ascii escapes, astral characters as surrogate pairs), int, bool,
    None and finite float.  Anything else raises TypeError.

    The package writes all its JSON output with it, so that a run imports
    no ``json``, whose decoder it never uses; ``json`` is imported only to
    read a matrix file (``RatMatrix.from_json``)."""
    if indent is None:
        return _text(value, "", "", ", ")
    return _text(value, "\n", " " * indent, ",")


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
