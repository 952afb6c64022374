"""Input text: quoted excerpts, integers checked before ``int()``, messages cut to length.

``int()`` refuses more than 4,300 digits with a message that names the
interpreter setting ``sys.set_int_max_str_digits``; callers test
``over_digit_cap`` first, so that their message names the program's limit.
"""

__all__ = ["MAX_DIGITS", "MAX_MESSAGE", "clip", "excerpt", "over_digit_cap"]

MAX_DIGITS = 4300  # digits of one integer, as many as int() accepts
MAX_MESSAGE = 250  # bytes of one printed error message, as UTF-8


def excerpt(text: str, limit: int = 40) -> str:
    """``text`` quoted, cut to its first ``limit`` characters when longer."""
    if len(text) <= limit:
        return repr(text)
    return f"{text[:limit]!r}... ({len(text)} characters)"


def over_digit_cap(text: str) -> bool:
    """More than MAX_DIGITS decimal digits, counted as ``int()`` counts them."""
    return len(text) > MAX_DIGITS and sum(map(str.isdecimal, text)) > MAX_DIGITS


def clip(message: str) -> str:
    """``message`` cut to its first MAX_MESSAGE bytes when longer, never inside a character.

    Bytes are counted as stderr writes them: UTF-8, and a lone surrogate
    (an undecodable byte of the command line) as its backslash escape.
    """
    data = message.encode("utf-8", "backslashreplace")
    if len(data) <= MAX_MESSAGE:
        return message
    end = MAX_MESSAGE
    while data[end] & 0xC0 == 0x80:  # the first byte left out continues a character
        end -= 1
    return f"{data[:end].decode()}... ({len(message)} characters)"
