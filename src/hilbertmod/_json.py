"""The canonical JSON writer behind ``cli.canonical_json``, loaded on its first call.

It writes by shape: a long list of uniform rows in one pass (``_uniform_rows``),
every other container item by item, with no call for a plain int or str leaf.
json's C encoder serves only ``indent=None``, and with an indent json runs its
pure-Python encoder, which costs several times this writer on a ``ranks`` table.
"""

from json.encoder import encode_basestring_ascii as quote

__all__ = ["write"]


def write(value, put, indent: str) -> None:
    """Append ``value`` as json would; ``indent`` is a newline and the current spaces."""
    if isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = indent + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(value):
            item = value[key]
            name = quote(key) if type(key) is str else _key(key)
            kind = type(item)
            if kind is int:
                put(f"{sep}{name}: {item}")
            elif kind is str:
                put(f"{sep}{name}: {quote(item)}")
            elif isinstance(item, (dict, list, tuple)):
                put(f"{sep}{name}: ")
                write(item, put, inner)
            else:
                put(f"{sep}{name}: {_scalar(item)}")
            sep = comma
        put(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        # eight rows or fewer cost less item by item than their layout does
        text = _uniform_rows(value, indent) if len(value) > 8 else None
        if text is not None:
            put(text)
            return
        inner = indent + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            kind = type(item)
            if kind is int:
                put(f"{sep}{item}")
            elif kind is str:
                put(sep + quote(item))
            elif isinstance(item, (dict, list, tuple)):
                put(sep)
                write(item, put, inner)
            else:
                put(sep + _scalar(item))
            sep = comma
        put(indent + "]")
    else:
        put(_scalar(value))


def _uniform_rows(rows, indent: str) -> str | None:
    """A nonempty list of uniform rows as json writes it at ``indent``, else None.

    Uniform: all tuples or all lists of one length, or all dicts with one set of str
    keys, each column plain ints only or plain strs only.  The text between leaves is
    laid out once, each column fills its slots, each distinct string quoted once.
    """
    kind = type(rows[0])
    if kind not in (tuple, list, dict) or not rows[0] \
            or set(map(type, rows)) != {kind} or set(map(len, rows)) != {len(rows[0])} \
            or kind is dict and set(map(type, rows[0])) != {str}:
        return None
    inner, deeper = indent + "  ", indent + "    "
    if kind is dict:
        names = sorted(rows[0])  # a row lacking one of these gets a None, which fails below
        columns = [list(map(dict.get, rows, [name] * len(rows))) for name in names]
        labels, start, end = [quote(name) + ": " for name in names], "{" + deeper, inner + "}"
    else:
        columns, labels, start, end = zip(*rows), [""] * len(rows[0]), "[" + deeper, inner + "]"
    row = [piece for label in labels for piece in ("," + deeper + label, None)]
    row[0] = end + "," + inner + start + labels[0]
    pieces = row * len(rows)
    pieces[0] = "[" + inner + start + labels[0]
    for i, column in enumerate(columns):
        kinds = set(map(type, column))  # exact: bools, floats, None and subclasses fail
        if kinds == {int}:
            column = map(str, column)
        elif kinds == {str}:
            column = map({text: quote(text) for text in set(column)}.__getitem__, column)
        else:
            return None
        pieces[i * 2 + 1::len(row)] = column
    return "".join(pieces) + end + indent + "]"


def _key(key) -> str:
    """A dict key that is not a plain str, as json writes it or refuses it."""
    if not (key is None or isinstance(key, (str, int, float))):  # bool is an int
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return quote(key if isinstance(key, str) else _scalar(key))


def _scalar(value) -> str:
    """A leaf as json writes it."""
    if isinstance(value, str):
        return quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == float("inf"):
            return "Infinity"
        if value == float("-inf"):
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
