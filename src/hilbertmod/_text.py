"""Input text: quoted excerpts, and integers checked before ``int()`` reads them.

``int()`` refuses more than 4,300 digits with a message that names the
interpreter setting ``sys.set_int_max_str_digits``; callers test
``over_digit_cap`` first, so that their message names the program's limit.
"""

__all__ = ["MAX_DIGITS", "excerpt", "over_digit_cap"]

MAX_DIGITS = 4300  # digits of one integer, as many as int() accepts


def excerpt(text: str, limit: int = 40) -> str:
    """``text`` quoted, cut to its first ``limit`` characters when longer."""
    if len(text) <= limit:
        return repr(text)
    return f"{text[:limit]!r}... ({len(text)} characters)"


def over_digit_cap(text: str) -> bool:
    """More than MAX_DIGITS decimal digits, counted as ``int()`` counts them."""
    return len(text) > MAX_DIGITS and sum(map(str.isdecimal, text)) > MAX_DIGITS
