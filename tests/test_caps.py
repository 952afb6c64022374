"""Every cap constant in src/ is listed here, and the docs name each one.

A cap changed in code but not in the docs, or a new cap the docs leave out,
fails here instead of drifting.
"""

import importlib
import re
from pathlib import Path

from hilbertmod import cli

ROOT = Path(__file__).resolve().parent.parent

# name -> (module, value, phrase).  The phrase, with {v} for the value as the
# docs write it (10^k, or the digits), must appear in the cli docstring's cap
# paragraph and in README's cap list, read without backquotes, line breaks
# or thousands separators.
CAPS = {
    "MAX_D": ("quadfield", 10**12, "square-free d <= {v}"),
    "MAX_ORDER": ("cyclicreps", 10**7, "cyclic orders n <= {v}"),
    "MAX_CLASS_ENTRIES": ("assembler", 10**4, "{v} --classes entries"),
    "MAX_CLASS_COUNT": ("assembler", 10**100, "{v} in --classes"),
    "MAX_DEGREES": ("cli", 10**4, "{v} ranks --q degrees"),
    "MAX_DIGITS": ("_text", 4300, "at most {v} digits in every integer"),
    "MAX_ABS_DISCRIMINANT": ("classnumbers", 10**8, "|D| <= {v} for classnum"),
    "MAX_CLASSES": ("pchain", 10**4, "m <= {v}"),
    "MAX_TORSION_SUMMANDS": ("abgroups", 10**4, "{v} torsion summands"),
    "MAX_FREE_RANK": ("abgroups", 10**100, "{v} in --ab"),
    "MAX_MESSAGE": ("_text", 250, "error: message is cut at {v} characters"),
}


def _written(value: int) -> str:
    power = len(str(value)) - 1
    return f"10^{power}" if value == 10**power and power > 1 else str(value)


def _plain(text: str) -> str:
    text = re.sub(r"(?<=\d),(?=\d{3}\b)", "", text.replace("`", ""))
    return " ".join(text.split())


def _paragraph(text: str, start: str) -> str:
    found = [p for p in re.split(r"\n\s*\n", text) if start in p]
    assert len(found) == 1, start
    return _plain(found[0])


def test_every_cap_constant_is_listed():
    declared = {}
    for path in (ROOT / "src" / "hilbertmod").glob("*.py"):
        for name in re.findall(r"^(MAX_\w+) = ", path.read_text(), re.M):
            declared[name] = path.stem
    assert declared == {name: module for name, (module, _, _) in CAPS.items()}


def test_caps_equal_the_documented_values():
    for name, (module, value, _) in CAPS.items():
        assert getattr(importlib.import_module(f"hilbertmod.{module}"), name) == value, name


def test_cli_docstring_and_readme_name_every_cap():
    docs = {"cli docstring": _paragraph(cli.__doc__, "Inputs are capped"),
            "README": _paragraph((ROOT / "README.md").read_text(), "Every CLI input is capped")}
    for name, (_, value, phrase) in CAPS.items():
        for where, text in docs.items():
            assert phrase.format(v=_written(value)) in text, (name, where)
