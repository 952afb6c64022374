"""Every cap constant in src/ is listed here, and the docs name each one.

A cap changed in code but not in the docs, or a new cap the docs leave out,
fails here instead of drifting.  The ledger gives each cap on time its
worst known argv that a shell can pass.  Each runs as a cold process, as a
shell would start it, and must exit 0 within 5 s with nothing on stderr;
three of them must also print known values: the q = -1 row of S at 10^4
degrees, the allowed orders of the largest prime d, and the 20,001 chains
of the sl poset at m = 10^4, p = 1.
"""

import importlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hilbertmod import cli

from test_many_divisors import many_divisor_orders, many_divisor_spec

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


# The worst known argv at each cap, every argument under Linux's 128 KiB.  S
# is the --classes spec of tests/test_many_divisors.py: 10^4 orders n <= 10^7
# with the most (divisor, prime) pairs for the F_p coset counts.

def _field_at_the_largest_prime():
    # the prime 999999999989, the d whose square-free test divides longest
    return ["field", "999999999989", "--approx", "--json"]


def _s_ranks_at_10_to_4_degrees():
    # S's q = -1 row dominates, as in ``ranks --classes S --q=-1`` and
    # ``whitehead --classes S --q -1``, which take about as long (1.3-1.7 s)
    return ["ranks", "--classes", many_divisor_spec(),
            "--q=" + ",".join(map(str, range(-5000, 5000))), "--json"]


def _s_ranks_at_4300_digit_degrees():
    # 30 degrees of 4,300 digits fill one argument
    return ["ranks", "--classes", many_divisor_spec(),
            "--q=" + ",".join(str(10**4299 + k) for k in range(30)), "--json"]


def _s_prefix_at_the_count_cap():
    # as many orders of S, ascending, at count 10^100 as fit in one argument
    entries, size = [], -1
    for n in many_divisor_orders():
        entry = f"{n}:{10**100}"
        size += len(entry) + 1
        if size >= 128 * 1024:
            break
        entries.append(entry)
    return ["ranks", "--classes", ",".join(entries), "--q=-1,0,1,2,5,7", "--json"]


def _s_whitehead_sl_with_a_long_ab():
    ab = f"Z^{10**100} + " + " + ".join(["Z/99999999"] * 10**4)
    return ["whitehead", "--classes", many_divisor_spec(), "--mode", "sl", "--q", "1",
            "--ab", ab, "--json"]


def _classnum_near_the_cap():
    # the largest class number, 19,400, among the 2,000 discriminants next to -10^8
    return ["classnum", "-99996959", "--json"]


def _chains_at_the_class_cap():
    return ["chains", "--poset", "sl", "--m", "10000", "--p", "1", "--json"]


# cap name -> its worst known argv.  MAX_MESSAGE bounds the bytes of a
# message, not time, and has no entry.
LEDGER = {
    "MAX_D": _field_at_the_largest_prime,
    "MAX_ORDER": _s_ranks_at_10_to_4_degrees,
    "MAX_CLASS_ENTRIES": _s_ranks_at_10_to_4_degrees,
    "MAX_CLASS_COUNT": _s_prefix_at_the_count_cap,
    "MAX_DEGREES": _s_ranks_at_10_to_4_degrees,
    "MAX_DIGITS": _s_ranks_at_4300_digit_degrees,
    "MAX_ABS_DISCRIMINANT": _classnum_near_the_cap,
    "MAX_CLASSES": _chains_at_the_class_cap,
    "MAX_TORSION_SUMMANDS": _s_whitehead_sl_with_a_long_ab,
    "MAX_FREE_RANK": _s_whitehead_sl_with_a_long_ab,
}

# argv -> (what to read from its JSON result, the value it must have)
EXPECTED = {
    _s_ranks_at_10_to_4_degrees: (
        lambda result: next(row["value"] for row in result["rows"] if row["q"] == -1), 169532890),
    _field_at_the_largest_prime: (lambda result: result["allowed_orders"], [2, 3]),
    _chains_at_the_class_cap: (
        lambda result: (result["count"], len(result["chains"])), (20001, 20001)),
}


def test_the_ledger_covers_every_cap_on_time():
    # CAPS lists every MAX_* constant in src/ (test_every_cap_constant_is_listed)
    assert set(LEDGER) == set(CAPS) - {"MAX_MESSAGE"}
    for argv in set(LEDGER.values()):
        assert max(len(arg.encode()) for arg in argv()) < 128 * 1024, argv.__name__


@pytest.mark.parametrize("make_argv", sorted(set(LEDGER.values()), key=lambda f: f.__name__),
                         ids=lambda f: f.__name__.strip("_"))
def test_ledger_argv_answers_within_5_s(make_argv):
    """The argv as a shell would start it: a fresh ``python -S -m hilbertmod.cli``."""
    argv = make_argv()
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-S", "-m", "hilbertmod.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    elapsed = time.monotonic() - start
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr[:300]
    assert elapsed < 5.0, elapsed
    payload = json.loads(proc.stdout)
    assert payload["command"] == argv[0]
    if make_argv in EXPECTED:
        read, value = EXPECTED[make_argv]
        assert read(payload["result"]) == value
