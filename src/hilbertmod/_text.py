"""Input text: quoted excerpts, integers checked before ``int()``, messages cut to length.

``int()`` refuses more than 4,300 digits with a message that names the
interpreter setting ``sys.set_int_max_str_digits``; callers test
``over_digit_cap`` first, so that their message names the program's limit.
"""

__all__ = ["MAX_DIGITS", "MAX_MESSAGE", "clip", "excerpt", "over_digit_cap"]

MAX_DIGITS = 4300  # digits of one integer, as many as int() accepts
MAX_MESSAGE = 250  # characters of one printed error message


def excerpt(text: str, limit: int = 40) -> str:
    """``text`` quoted, cut to its first ``limit`` characters when longer."""
    if len(text) <= limit:
        return repr(text)
    return f"{text[:limit]!r}... ({len(text)} characters)"


def over_digit_cap(text: str) -> bool:
    """More than MAX_DIGITS decimal digits, counted as ``int()`` counts them."""
    return len(text) > MAX_DIGITS and sum(map(str.isdecimal, text)) > MAX_DIGITS


def clip(message: str) -> str:
    """``message`` cut to its first MAX_MESSAGE characters when longer."""
    if len(message) <= MAX_MESSAGE:
        return message
    return f"{message[:MAX_MESSAGE]}... ({len(message)} characters)"
