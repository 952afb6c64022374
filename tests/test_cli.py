"""Command-line surface: outputs, exit codes, and the JSON envelope."""

import enum
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hilbertmod import _json, classnumbers, cli
from hilbertmod.abgroups import MAX_FREE_RANK, AbGroupExpr
from hilbertmod._text import MAX_MESSAGE, clip
from hilbertmod.assembler import (
    MAX_CLASS_COUNT,
    MAX_CLASS_ENTRIES,
    ClassCounts,
    GroupData,
    class_counts_for_field,
    rank_diff,
    rank_diff_from_case_table,
)
from hilbertmod.cli import (
    EXIT_INVALID_INPUT,
    EXIT_MISSING_ABELIANIZATION,
    EXIT_MISSING_CLASS_DATA,
    EXIT_OK,
    MAX_DEGREES,
    canonical_json,
    main,
)
from hilbertmod.finitek import RankCase, rank_K_cyclic, rank_case
from hilbertmod.quadfield import FieldSpec

from oracles import kp_formula, mult_order, reference_json, rp_formula

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == EXIT_OK, err
    return json.loads(out)


def _exit_and_output(capsys, *argv):
    """``run_cli``'s answer, with the code of argparse's SystemExit as the exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse exits on -h and on errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def within_5_s(run, capsys, *argv):
    """``run(capsys, *argv)``'s answer, asserting that it came within 5 s.

    In process this bound is a tripwire for regressions.  The 5 s promise
    is a cold-process one, kept by the ledger in ``tests/test_caps.py``, as
    the ``cli`` docstring says.
    """
    start = time.monotonic()
    answer = run(capsys, *argv)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, ([arg[:40] for arg in argv[:6]], elapsed)
    return answer


# ---------------------------------------------------------------------------
# field
# ---------------------------------------------------------------------------

def test_field_rejects_non_square_free(capsys):
    # 4 * (10^18 + 3): the square-free test stops at the square 4 instead
    # of trial-dividing the large cofactor.
    for d in ("12", "4000000000000000012"):
        code, _, err = within_5_s(run_cli, capsys, "field", d)
        assert code == EXIT_INVALID_INPUT
        assert "square-free" in err


# ---------------------------------------------------------------------------
# field goldens: stdout bytes pinned for a fixed list of d
# ---------------------------------------------------------------------------
# GOLDEN_STDOUT is the one table of stdout goldens, keyed by the full argv;
# each section below adds its rows, and test_golden_stdout reads them all.
# --json bytes are pinned as compact JSON; the expected stdout is its
# canonical form (sorted keys, two-space indent) plus print's newline.
# --approx bytes are pinned verbatim.

GOLDEN_STDOUT = {
    ("field", "2", "--json"): (
        '{"command":"field","inputs":{"approx":false,"d":2}'
        ',"provenance":{"allowed_orders":"computed"'
        ',"trace_candidates":"computed"},"result":{"allowed_orders":[2,3,4]'
        ',"d":2,"integral_basis":["1","sqrt(2)"],"omega":"sqrt(2)"'
        ',"trace_candidates":[{"psl_order":3,"trace":"-1"},{"psl_order":4'
        ',"trace":"-sqrt(2)"},{"psl_order":2,"trace":"0"},{"psl_order":4'
        ',"trace":"sqrt(2)"},{"psl_order":3,"trace":"1"}]}'
        ',"schema_version":"1"}'
    ),
    ("field", "3", "--json"): (
        '{"command":"field","inputs":{"approx":false,"d":3}'
        ',"provenance":{"allowed_orders":"computed"'
        ',"trace_candidates":"computed"},"result":{"allowed_orders":[2,3,6]'
        ',"d":3,"integral_basis":["1","sqrt(3)"],"omega":"sqrt(3)"'
        ',"trace_candidates":[{"psl_order":3,"trace":"-1"},{"psl_order":6'
        ',"trace":"-sqrt(3)"},{"psl_order":2,"trace":"0"},{"psl_order":6'
        ',"trace":"sqrt(3)"},{"psl_order":3,"trace":"1"}]}'
        ',"schema_version":"1"}'
    ),
    ("field", "5", "--json"): (
        '{"command":"field","inputs":{"approx":false,"d":5}'
        ',"provenance":{"allowed_orders":"computed"'
        ',"trace_candidates":"computed"},"result":{"allowed_orders":[2,3,5]'
        ',"d":5,"integral_basis":["1","(1+sqrt(5))/2"]'
        ',"omega":"(1+sqrt(5))/2","trace_candidates":[{"psl_order":3'
        ',"trace":"-1"},{"psl_order":5,"trace":"-1/2 - 1/2*sqrt(5)"}'
        ',{"psl_order":5,"trace":"-1/2 + 1/2*sqrt(5)"},{"psl_order":2'
        ',"trace":"0"},{"psl_order":5,"trace":"1/2 - 1/2*sqrt(5)"}'
        ',{"psl_order":5,"trace":"1/2 + 1/2*sqrt(5)"},{"psl_order":3'
        ',"trace":"1"}]},"schema_version":"1"}'
    ),
    ("field", "6", "--json"): (
        '{"command":"field","inputs":{"approx":false,"d":6}'
        ',"provenance":{"allowed_orders":"computed"'
        ',"trace_candidates":"computed"},"result":{"allowed_orders":[2,3]'
        ',"d":6,"integral_basis":["1","sqrt(6)"],"omega":"sqrt(6)"'
        ',"trace_candidates":[{"psl_order":3,"trace":"-1"},{"psl_order":2'
        ',"trace":"0"},{"psl_order":3,"trace":"1"}]},"schema_version":"1"}'
    ),
    ("field", "7", "--json"): (
        '{"command":"field","inputs":{"approx":false,"d":7}'
        ',"provenance":{"allowed_orders":"computed"'
        ',"trace_candidates":"computed"},"result":{"allowed_orders":[2,3]'
        ',"d":7,"integral_basis":["1","sqrt(7)"],"omega":"sqrt(7)"'
        ',"trace_candidates":[{"psl_order":3,"trace":"-1"},{"psl_order":2'
        ',"trace":"0"},{"psl_order":3,"trace":"1"}]},"schema_version":"1"}'
    ),
    ("field", "13", "--json"): (
        '{"command":"field","inputs":{"approx":false,"d":13}'
        ',"provenance":{"allowed_orders":"computed"'
        ',"trace_candidates":"computed"},"result":{"allowed_orders":[2,3]'
        ',"d":13,"integral_basis":["1","(1+sqrt(13))/2"]'
        ',"omega":"(1+sqrt(13))/2","trace_candidates":[{"psl_order":3'
        ',"trace":"-1"},{"psl_order":2,"trace":"0"},{"psl_order":3'
        ',"trace":"1"}]},"schema_version":"1"}'
    ),
    ("field", "17", "--json"): (
        '{"command":"field","inputs":{"approx":false,"d":17}'
        ',"provenance":{"allowed_orders":"computed"'
        ',"trace_candidates":"computed"},"result":{"allowed_orders":[2,3]'
        ',"d":17,"integral_basis":["1","(1+sqrt(17))/2"]'
        ',"omega":"(1+sqrt(17))/2","trace_candidates":[{"psl_order":3'
        ',"trace":"-1"},{"psl_order":2,"trace":"0"},{"psl_order":3'
        ',"trace":"1"}]},"schema_version":"1"}'
    ),
    ("field", "10007", "--json"): (
        '{"command":"field","inputs":{"approx":false,"d":10007}'
        ',"provenance":{"allowed_orders":"computed"'
        ',"trace_candidates":"computed"},"result":{"allowed_orders":[2,3]'
        ',"d":10007,"integral_basis":["1","sqrt(10007)"]'
        ',"omega":"sqrt(10007)","trace_candidates":[{"psl_order":3'
        ',"trace":"-1"},{"psl_order":2,"trace":"0"},{"psl_order":3'
        ',"trace":"1"}]},"schema_version":"1"}'
    ),
    ("field", "2", "--approx"): """\
field Q(sqrt(2))
integral basis: 1, sqrt(2)
trace candidates (5):
  -1  order 3  ~ (-1.000000, -1.000000)
  -sqrt(2)  order 4  ~ (-1.414214, 1.414214)
  0  order 2  ~ (0.000000, 0.000000)
  sqrt(2)  order 4  ~ (1.414214, -1.414214)
  1  order 3  ~ (1.000000, 1.000000)
allowed orders: 2, 3, 4
""",
    ("field", "3", "--approx"): """\
field Q(sqrt(3))
integral basis: 1, sqrt(3)
trace candidates (5):
  -1  order 3  ~ (-1.000000, -1.000000)
  -sqrt(3)  order 6  ~ (-1.732051, 1.732051)
  0  order 2  ~ (0.000000, 0.000000)
  sqrt(3)  order 6  ~ (1.732051, -1.732051)
  1  order 3  ~ (1.000000, 1.000000)
allowed orders: 2, 3, 6
""",
    ("field", "5", "--approx"): """\
field Q(sqrt(5))
integral basis: 1, (1+sqrt(5))/2
trace candidates (7):
  -1  order 3  ~ (-1.000000, -1.000000)
  -1/2 - 1/2*sqrt(5)  order 5  ~ (-1.618034, 0.618034)
  -1/2 + 1/2*sqrt(5)  order 5  ~ (0.618034, -1.618034)
  0  order 2  ~ (0.000000, 0.000000)
  1/2 - 1/2*sqrt(5)  order 5  ~ (-0.618034, 1.618034)
  1/2 + 1/2*sqrt(5)  order 5  ~ (1.618034, -0.618034)
  1  order 3  ~ (1.000000, 1.000000)
allowed orders: 2, 3, 5
""",
    ("field", "6", "--approx"): """\
field Q(sqrt(6))
integral basis: 1, sqrt(6)
trace candidates (3):
  -1  order 3  ~ (-1.000000, -1.000000)
  0  order 2  ~ (0.000000, 0.000000)
  1  order 3  ~ (1.000000, 1.000000)
allowed orders: 2, 3
""",
    ("field", "7", "--approx"): """\
field Q(sqrt(7))
integral basis: 1, sqrt(7)
trace candidates (3):
  -1  order 3  ~ (-1.000000, -1.000000)
  0  order 2  ~ (0.000000, 0.000000)
  1  order 3  ~ (1.000000, 1.000000)
allowed orders: 2, 3
""",
    ("field", "13", "--approx"): """\
field Q(sqrt(13))
integral basis: 1, (1+sqrt(13))/2
trace candidates (3):
  -1  order 3  ~ (-1.000000, -1.000000)
  0  order 2  ~ (0.000000, 0.000000)
  1  order 3  ~ (1.000000, 1.000000)
allowed orders: 2, 3
""",
    ("field", "17", "--approx"): """\
field Q(sqrt(17))
integral basis: 1, (1+sqrt(17))/2
trace candidates (3):
  -1  order 3  ~ (-1.000000, -1.000000)
  0  order 2  ~ (0.000000, 0.000000)
  1  order 3  ~ (1.000000, 1.000000)
allowed orders: 2, 3
""",
    ("field", "10007", "--approx"): """\
field Q(sqrt(10007))
integral basis: 1, sqrt(10007)
trace candidates (3):
  -1  order 3  ~ (-1.000000, -1.000000)
  0  order 2  ~ (0.000000, 0.000000)
  1  order 3  ~ (1.000000, 1.000000)
allowed orders: 2, 3
""",
}


# ---------------------------------------------------------------------------
# ranks
# ---------------------------------------------------------------------------

def test_ranks_builtin_field(capsys):
    payload = run_json(capsys, "ranks", "5", "--q", "5,7,1,2,0,-1")
    rows = {row["q"]: row["value"] for row in payload["result"]["rows"]}
    assert rows == {5: 8, 7: 6, 1: 2, 2: 0, 0: 0, -1: 0}
    assert payload["result"]["m"] == 6
    assert payload["provenance"]["class_counts"] == "paper-table"
    assert payload["provenance"]["rows"] == "computed"
    # A list starting with a negative degree needs the --q=LIST form.
    payload = run_json(capsys, "ranks", "5", "--q=-1,7")
    assert [(row["q"], row["value"]) for row in payload["result"]["rows"]] == [(-1, 0), (7, 6)]


def test_ranks_evaluates_rank_diff_once_per_row_of_the_rank_table(capsys, monkeypatch):
    # rank_diff depends on q only through its row, so a long degree list
    # costs six evaluations at most, and every row still reads rank_diff's value
    calls = []
    monkeypatch.setattr(cli, "rank_diff", lambda g, q: calls.append(q) or rank_diff(g, q))
    degrees = range(-12, 2000)
    payload = run_json(capsys, "ranks", "5", "--q=" + ",".join(map(str, degrees)))
    assert sorted(rank_case(q).value for q in calls) == sorted(row.value for row in RankCase)
    g = GroupData(FieldSpec(5), class_counts_for_field(FieldSpec(5)))
    assert ([(row["q"], row["value"]) for row in payload["result"]["rows"]]
            == [(q, rank_diff(g, q)) for q in degrees])


def test_ranks_generic_classes_match_field(capsys):
    by_field = run_json(capsys, "ranks", "5", "--q", "7")
    generic = run_json(capsys, "ranks", "--classes", "2:2,3:2,5:2", "--q", "7")
    assert (by_field["result"]["rows"][0]["value"]
            == generic["result"]["rows"][0]["value"] == 6)
    assert generic["provenance"]["class_counts"] == "computed"


def test_ranks_missing_class_data(capsys):
    code, _, err = run_cli(capsys, "ranks", "7", "--q", "1")
    assert code == EXIT_MISSING_CLASS_DATA
    assert "--classes" in err


def test_ranks_requires_some_input(capsys):
    code, _, _ = run_cli(capsys, "ranks", "--q", "1")
    assert code == EXIT_INVALID_INPUT
    code, _, err = run_cli(capsys, "ranks", "5", "--q", "1,x")
    assert code == EXIT_INVALID_INPUT
    assert "bad degree list" in err


@pytest.mark.parametrize("degrees, message", [
    ("", "error: empty degree list\n"),
    (",", "error: empty entry in degree list ','\n"),
    ("1,,2", "error: empty entry in degree list '1,,2'\n"),
])
def test_ranks_rejects_empty_degree_lists_and_entries(capsys, degrees, message):
    assert run_cli(capsys, "ranks", "5", "--q=" + degrees) == (EXIT_INVALID_INPUT, "", message)


@pytest.mark.parametrize("argv, message", [
    (("ranks", "5", "--q=" + "9" * 5000),
     "error: degrees must have at most 4300 digits, got a longer entry in "),
    (("ranks", "5", "--q=1,-" + "9" * 4301 + ",2"),
     "error: degrees must have at most 4300 digits, got a longer entry in "),
    (("ranks", "--classes", "9" * 5000 + ":1", "--q=1"),
     "error: group order must be in [1, 10^7], got 5000 characters\n"),
])
def test_integers_past_4300_digits_exit_2_under_a_program_limit(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_INVALID_INPUT, "")
    assert err.startswith(message)
    assert "set_int_max_str_digits" not in err
    assert len(err) < 200  # a bounded prefix of the list, not all of it


def test_ranks_answers_degrees_of_4300_digits(capsys):
    q = 10**4300 - 1  # 4,300 nines: q > 2 and q = 3 mod 4
    payload = run_json(capsys, "ranks", "5", f"--q=-{q}, {q} ")
    assert [(row["q"], row["value"]) for row in payload["result"]["rows"]] == [(-q, 0), (q, 6)]


def test_bad_degree_list_quotes_a_bounded_prefix(capsys):
    degrees = ",".join(["1"] * 2000 + ["x"])
    code, _, err = run_cli(capsys, "ranks", "5", "--q=" + degrees)
    assert code == EXIT_INVALID_INPUT
    assert err == (f"error: bad degree list {degrees[:40]!r}... (4001 characters): "
                   "invalid literal for int() with base 10: 'x'\n")


@pytest.mark.parametrize("spec", [
    ",".join(f"{n}:1" for n in range(2, 5000)) + ",",  # 4,998 entries and an empty one
    "x" * 5000,  # one entry without a colon
], ids=["empty-entry", "no-colon"])
def test_class_spec_messages_quote_a_bounded_excerpt(capsys, spec):
    code, out, err = run_cli(capsys, "ranks", "--classes", spec, "--q", "1")
    assert (code, out) == (EXIT_INVALID_INPUT, "")
    assert len(err.encode()) < 500, len(err)
    assert f"... ({len(spec)} characters)" in err, err


def test_short_class_spec_messages_keep_their_bytes(capsys):
    for spec, err in (("2:1,,3:1", "error: empty entry in class spec '2:1,,3:1'\n"),
                      ("2:1,3", "error: expected order:count, got '3'\n")):
        assert run_cli(capsys, "ranks", "--classes", spec, "--q", "1") == (EXIT_INVALID_INPUT, "", err)


# ---------------------------------------------------------------------------
# whitehead
# ---------------------------------------------------------------------------

def test_whitehead_psl_golden(capsys):
    payload = run_json(capsys, "whitehead", "5", "--mode", "psl", "--q", "1")
    assert payload["result"]["whitehead"]["render"] == "Z^2"


def test_whitehead_generic_modular(capsys):
    payload = run_json(capsys, "whitehead", "--classes", "2:1,3:1",
                       "--mode", "sl", "--q", "1", "--ab", "Z/6")
    wh = payload["result"]["whitehead"]
    assert wh["free_rank"] == 0
    assert wh["torsion"] == [2, 6]


def test_whitehead_missing_abelianization(capsys):
    code, _, err = run_cli(capsys, "whitehead", "--classes", "2:2,3:2",
                           "--mode", "sl", "--q", "1")
    assert code == EXIT_MISSING_ABELIANIZATION
    assert "abelianization" in err


def test_whitehead_sl_rejects_high_q(capsys):
    code, _, _ = run_cli(capsys, "whitehead", "5", "--mode", "sl", "--q", "2")
    assert code == EXIT_INVALID_INPUT


def test_whitehead_class_count_past_sys_maxsize(capsys):
    # Wh_1(Z_2) = Z^(r(2) - q(2)) = Z^0 and Wh_1(Z_5) = Z^(3 - 2); at q = -1,
    # K_{-1}(Z[Z_2]) has rank 1 - q(2) + (k_2 - r_2) = 1 - 2 + (2 - 1) = 0 and
    # leaves its symbolic 2-torsion summand.  Copies of torsion-free
    # expressions scale by k, however large.
    k = 10**19
    for classes, q, expected in ((f"2:{k}", "1", "0"), (f"2:{k},5:{k}", "1", f"Z^{k}"),
                                 (f"2:{k}", "-1", f"{k}*K-1tors(Z_2)")):
        code, out, err = run_cli(capsys, "whitehead", "--classes", classes, "--q", q)
        assert (code, err) == (EXIT_OK, ""), classes
        assert out == f"Wh_{q} of PSL2(O_k), k = generic: {expected}\n", classes


WH_SL = ("whitehead", "--classes", "2:1,3:1", "--mode", "sl", "--q", "1")


@pytest.mark.parametrize("ab, message", [
    ("Z^-3 + Z^5", "error: free rank exponents must be nonnegative, got 'Z^-3'\n"),
    ("+".join(["Z/2"] * 10001), "error: at most 10^4 torsion summands are supported, "),
    ("Q" * 6000, "error: cannot parse abelian group summand 'QQQQ"),
    ("Z/" + "x" * 6000, "error: invalid literal for int() with base 10: 'xxxx"),
    ("Z^" + "9" * 5000, "error: integers in an abelian group must have at most 4300 digits, "),
    ("Z/" + "9" * 5000, "error: integers in an abelian group must have at most 4300 digits, "),
    ("9" * 5000 + "*Z/2", "error: integers in an abelian group must have at most 4300 digits, "),
    (f"Z^{MAX_FREE_RANK + 1}", "error: free rank must be at most 10^100, "),
    (f"2*Z^{MAX_FREE_RANK}", "error: free rank must be at most 10^100, "),
    (f"Z^{MAX_FREE_RANK} + Z", "error: free rank must be at most 10^100, "),
], ids=["negative-exponent", "10001-summands", "bad-summand", "bad-torsion-order",
        "huge-exponent", "huge-torsion-order", "huge-multiplicity", "rank-past-cap",
        "scaled-rank-past-cap", "summed-rank-past-cap"])
def test_ab_rejects_negative_exponents_and_long_input_in_a_bounded_message(capsys, ab, message):
    code, out, err = run_cli(capsys, *WH_SL, "--ab", ab)
    assert (code, out) == (EXIT_INVALID_INPUT, "")
    assert err.startswith(message)
    assert "set_int_max_str_digits" not in err
    assert len(err) < 300


def test_ab_free_rank_up_to_its_cap(capsys):
    for ab in (f"Z^{MAX_FREE_RANK}", f"Z^{MAX_FREE_RANK - 1} + Z", "Z^0 + Z^3"):
        code, out, err = run_cli(capsys, *WH_SL, "--ab", ab)
        assert (code, err) == (EXIT_OK, ""), ab
        assert out == f"Wh_1 of SL2(O_k), k = generic: {AbGroupExpr.parse(ab)} + Z/2\n", ab


# ---------------------------------------------------------------------------
# reps / classnum / chains
# ---------------------------------------------------------------------------

def test_reps(capsys):
    payload = run_json(capsys, "reps", "5")
    assert payload["result"] == {
        "n": 5, "r": 3, "c": 2, "q": 2,
        "local": {"5": {"k_p": 2, "r_p": 1}},
    }
    code, out, _ = run_cli(capsys, "reps", "5")
    assert code == EXIT_OK
    assert "r=3 c=2 q=2" in out and "k_p=2 r_p=1" in out


def test_classnum(capsys):
    payload = run_json(capsys, "classnum", "-23")
    assert payload["result"]["class_number"] == 3
    assert payload["result"]["reduced_forms"] == [[1, 1, 6], [2, -1, 3], [2, 1, 3]]
    code, _, _ = run_cli(capsys, "classnum", "-7")
    assert code == EXIT_OK
    code, _, _ = run_cli(capsys, "classnum", "-5")
    assert code == EXIT_INVALID_INPUT


def test_classnum_enumerates_once(capsys, monkeypatch):
    calls = []

    def counting(D, _inner=classnumbers.reduced_forms):
        calls.append(D)
        return _inner(D)

    # cli binds the name at import, so both sites are patched.
    monkeypatch.setattr(classnumbers, "reduced_forms", counting)
    monkeypatch.setattr(cli, "reduced_forms", counting)
    payload = run_json(capsys, "classnum", "-23")
    assert payload["result"]["class_number"] == 3
    assert calls == [-23]


def test_classnum_just_inside_the_cap(capsys):
    payload = within_5_s(run_json, capsys, "classnum", "-99999999")
    assert payload["result"]["class_number"] == len(payload["result"]["reduced_forms"]) == 6976


# classnum --json bytes as the trial-division enumeration printed them: compact
# JSON for the short answers, the SHA-256 of the bytes for the long ones.
GOLDEN_STDOUT |= {
    ("classnum", "-3", "--json"): (
        '{"command":"classnum","inputs":{"D":-3},"provenance":{"class_number":"computed",'
        '"reduced_forms":"computed"},"result":{"D":-3,"class_number":1,"reduced_forms":[[1,1,1]]},'
        '"schema_version":"1"}'
    ),
    ("classnum", "-4", "--json"): (
        '{"command":"classnum","inputs":{"D":-4},"provenance":{"class_number":"computed",'
        '"reduced_forms":"computed"},"result":{"D":-4,"class_number":1,"reduced_forms":[[1,0,1]]},'
        '"schema_version":"1"}'
    ),
    ("classnum", "-75", "--json"): (
        '{"command":"classnum","inputs":{"D":-75},"provenance":{"class_number":"computed",'
        '"reduced_forms":"computed"},"result":{"D":-75,"class_number":2,'
        '"reduced_forms":[[1,1,19],[3,3,7]]},"schema_version":"1"}'
    ),
    ("classnum", "-260", "--json"): (
        '{"command":"classnum","inputs":{"D":-260},"provenance":{"class_number":"computed",'
        '"reduced_forms":"computed"},"result":{"D":-260,"class_number":8,'
        '"reduced_forms":[[1,0,65],[2,2,33],[3,-2,22],[3,2,22],[5,0,13],[6,-2,11],[6,2,11],'
        '[9,8,9]]},"schema_version":"1"}'
    ),
    ("classnum", "-3299", "--json"):
        "28bdc4ceefdf71076c48609217e673a266184070f37985faad1576d1a25c5736",
    ("classnum", "-100075", "--json"):
        "81801316b12d43afbc5ba361191cffa78843cfcf3494d5f3b966ebcfdb324e57",
    ("classnum", "-6537839", "--json"):
        "887dff744c3e38a48ae3644cc7f7a98f14dc1dbec438594b5e7b6681078dd699",
}


@pytest.mark.parametrize("argv, limit", [
    (("classnum", "-1000000007"), "10^8"),
    (("field", "1000000000000000003"), "10^12"),
    (("reps", "2000000014"), "10^7"),
    (("ranks", "--classes", "2000000014:1", "--q=-1"), "10^7"),
    (("chains", "--poset", "sl", "--m", "10001", "--p", "1"), "10^4"),
    (("whitehead", "--classes", "2:1,3:1", "--mode", "sl", "--q", "1",
      "--ab", "1000000000*Z/2", "--json"), "10^4"),
    (("ranks", "--classes", "2000000014:1", "--q", "0"), "10^7"),
    (("whitehead", "--classes", "2000000014:1", "--q", "2"), "10^7"),
    (("ranks", "5", "--q=" + ",".join(["-1"] * (MAX_DEGREES + 1))), "10^4"),
    (("ranks", "--classes", ",".join(f"{n}:1" for n in range(2, MAX_CLASS_ENTRIES + 3)),
      "--q=-1"), "10^4"),
    (("whitehead", "--classes", ",".join(f"{n}:1" for n in range(2, MAX_CLASS_ENTRIES + 3)),
      "--q", "-1"), "10^4"),
    # a sum of two 4,300-digit counts has more digits than int-to-str accepts
    (("ranks", "--classes", f"2:{'9' * 4300},3:{'9' * 4300}", "--q", "5"), "10^100"),
    (("whitehead", "--classes", f"5:{'9' * 4300},7:{'9' * 4300}", "--q", "1"), "10^100"),
    (("ranks", "--classes", f"2:{'9' * 5000}", "--q", "5"), "10^100"),
    (("ranks", "--classes", f"2:{MAX_CLASS_COUNT + 1}", "--q", "5", "--json"), "10^100"),
])
def test_input_caps_exit_2_naming_the_limit(capsys, argv, limit):
    code, _, err = within_5_s(run_cli, capsys, *argv)
    assert code == EXIT_INVALID_INPUT
    assert limit in err


def test_class_counts_at_the_cap(capsys):
    k = MAX_CLASS_COUNT
    payload = run_json(capsys, "ranks", "--classes", f"2:{k},3:{k}", "--q=5,-1")
    assert payload["result"]["m"] == 2 * k
    # q = 5: each class adds r(n) - 1 = 1; q = -1: K_{-1}(Z[Z_2]) and K_{-1}(Z[Z_3]) have rank 0
    assert [row["value"] for row in payload["result"]["rows"]] == [2 * k, 0]
    code, out, err = run_cli(capsys, "whitehead", "--classes", f"2:{k},5:{k}", "--q", "1")
    assert (code, err) == (EXIT_OK, "")
    # Wh_1(Z_2) = 0 and Wh_1(Z_5) = Z^1
    assert out == f"Wh_1 of PSL2(O_k), k = generic: Z^{k}\n"


def test_chains(capsys):
    code, _, err = run_cli(capsys, "chains", "--poset", "psl", "--m", "-1", "--p", "0")
    assert code == EXIT_INVALID_INPUT
    assert "nonnegative" in err


def test_reps_large_order_in_bounded_time(capsys):
    payload = within_5_s(run_json, capsys, "reps", "1000000")
    assert payload["result"] == {
        "n": 1000000, "r": 500001, "c": 499999, "q": 49,
        "local": {"2": {"k_p": 49, "r_p": 7}, "5": {"k_p": 84, "r_p": 12}},
    }
    for p, local in payload["result"]["local"].items():
        assert local == {"k_p": kp_formula(1000000, int(p)), "r_p": rp_formula(1000000, int(p))}


def test_ranks_large_order_q_minus_1_in_bounded_time(capsys):
    # 9999926 = 2 * 4999963: each q = -1 degree needs ord_4999963(2), which
    # exponent descent finds in a few modular powers.
    n, degrees = 9999926, 8
    payload = within_5_s(run_json, capsys, "ranks", "--classes", f"{n}:1",
                         "--q=" + ",".join(["-1"] * degrees))
    # Carter's rank 1 - q(n) + sum over p | n of (k_p - r_p), where q(n) = 4,
    # k_2 - r_2 = r_2 = 1 + (l - 1)/ord_l(2) and k_l - r_l = 2 for l = n/2.
    half = n // 2
    expected = (half - 1) // mult_order(2, half)
    assert [row["value"] for row in payload["result"]["rows"]] == [expected] * degrees


def test_whitehead_many_classes_in_bounded_time(capsys):
    # One class of each order 2..5999: the direct sum is canonicalized once,
    # not once per class.
    orders = range(2, 6000)
    classes = ",".join(f"{n}:1" for n in orders)
    for q in (1, -1):
        payload = within_5_s(run_json, capsys, "whitehead", "--classes", classes, "--q", str(q))
        wh = payload["result"]["whitehead"]
        assert wh["free_rank"] == sum(rank_K_cyclic(n, q) for n in orders), q
        # one symbolic summand per class: SK1(Z_n) for n > 6 at q = 1, K-1tors(Z_n) at q = -1
        assert len(wh["symbolic"]) == len(orders) - (5 if q == 1 else 0), q


def test_chains_long_p_in_bounded_time(capsys):
    for poset, m, p in (("psl", 40, 20), ("sl", 24, 12), ("psl", 1, 10**9)):
        payload = within_5_s(run_json, capsys, "chains", "--poset", poset, "--m", str(m),
                             "--p", str(p))
        assert payload["result"]["count"] == 0, poset


def test_ranks_at_the_degree_cap(capsys):
    degrees = range(-6, MAX_DEGREES - 6)  # every row of the rank table, many times over
    payload = within_5_s(run_json, capsys, "ranks", "5", "--q=" + ",".join(map(str, degrees)))
    g = GroupData(source="generic", class_counts=class_counts_for_field(FieldSpec(5)))
    assert ([(row["q"], row["value"]) for row in payload["result"]["rows"]]
            == [(q, rank_diff_from_case_table(g, q)) for q in degrees])


def _primes_below(hi, count):
    """The count largest primes below hi, by a sieve of the window under hi."""
    lo = hi - 40 * count
    window = bytearray([1]) * (hi - lo)
    for p in range(2, int(hi**0.5) + 1):
        start = max(p * p, -(-lo // p) * p)
        window[start - lo::p] = bytes(len(range(start - lo, hi - lo, p)))
    return [lo + i for i, flag in enumerate(window) if flag][-count:]


@pytest.fixture(scope="module")
def twice_primes_at_the_class_cap():
    """10^4 classes of orders 2q, q prime, just under 10^7: each q = -1 row
    needs ord_q(2), and each order has a prime factor near 5 * 10^6.  Returns
    the --classes spec and the case-table rank difference per degree."""
    orders = [2 * q for q in _primes_below(5 * 10**6, MAX_CLASS_ENTRIES)]
    spec = ",".join(f"{n}:1" for n in orders)
    g = GroupData(source="generic", class_counts=ClassCounts.parse(spec))
    return spec, {q: rank_diff_from_case_table(g, q) for q in (-1, 0, 1, 2, 5, 7)}


@pytest.mark.parametrize("degrees", ["-1", "-1,0,1,2,5,7"])
def test_ranks_at_the_class_cap(capsys, twice_primes_at_the_class_cap, degrees):
    spec, expected = twice_primes_at_the_class_cap
    payload = within_5_s(run_json, capsys, "ranks", "--classes", spec, "--q=" + degrees)
    assert payload["result"]["m"] == MAX_CLASS_ENTRIES
    assert ({row["q"]: row["value"] for row in payload["result"]["rows"]}
            == {int(q): expected[int(q)] for q in degrees.split(",")})


def test_whitehead_at_the_class_cap(capsys, twice_primes_at_the_class_cap):
    spec, expected = twice_primes_at_the_class_cap
    payload = within_5_s(run_json, capsys, "whitehead", "--classes", spec, "--q", "-1")
    # rank H_{-1} vanishes, so the free rank of Wh_{-1} is the rank difference
    wh = payload["result"]["whitehead"]
    assert wh["free_rank"] == expected[-1]
    assert len(wh["symbolic"]) == MAX_CLASS_ENTRIES


def test_ranks_at_the_class_cap_of_the_largest_primes(capsys):
    # 10^4 prime orders just under 10^7: every q = -1 row factors each order
    # up to its square root 3162, through the table of small primes.
    orders = _primes_below(10**7, MAX_CLASS_ENTRIES)
    spec = ",".join(f"{n}:1" for n in orders)
    degrees = (-1, 0, 1, 2, 5, 7)
    payload = within_5_s(run_json, capsys, "ranks", "--classes", spec,
                         "--q=" + ",".join(map(str, degrees)))
    g = GroupData(source="generic", class_counts=ClassCounts.parse(spec))
    assert ([(row["q"], row["value"]) for row in payload["result"]["rows"]]
            == [(q, rank_diff_from_case_table(g, q)) for q in degrees])


def test_internal_error_exits_1_with_its_traceback(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    help_text, declare, _, render = cli._COMMANDS["reps"]
    monkeypatch.setitem(cli._COMMANDS, "reps", (help_text, declare, broken, render))
    for argv in (("reps", "5"), ("reps", "5", "--json")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.splitlines()[0] == "internal error: boom"
        assert "Traceback" in err and "RuntimeError: boom" in err


# ---------------------------------------------------------------------------
# Parser: integer arguments, help width and help text
# ---------------------------------------------------------------------------

def run_argparse_error(capsys, *argv):
    """Exit code and stderr of a command line that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return exc.value.code, captured.err


def test_every_integer_argument_goes_through_one_bounded_type():
    parser = cli.build_parser()
    typed = {(name, action.dest): action.type
             for name, sub in parser._subparsers._group_actions[0].choices.items()
             for action in sub._actions if action.type is not None}
    assert set(typed) == {("field", "d"), ("ranks", "d"), ("whitehead", "d"), ("whitehead", "q"),
                          ("reps", "n"), ("classnum", "D"), ("chains", "m"), ("chains", "p")}
    assert set(typed.values()) == {cli._int_arg}


@pytest.mark.parametrize("argv, message", [
    (("reps", "9" * 5000), "argument n: integers must have at most 4300 digits, "),
    (("whitehead", "5", "--q", "9" * 5000),
     "argument --q: integers must have at most 4300 digits, "),
    (("reps", "x" * 5000), "argument n: invalid int value: 'xxxxxxxxxxxxxxxxxxxx'... "),
    (("whitehead", "5", "--q", "x" * 5000), "argument --q: invalid int value: 'xxxx"),
], ids=["reps-nines", "whitehead-q-nines", "reps-letters", "whitehead-q-letters"])
def test_integer_arguments_quote_a_bounded_prefix(capsys, monkeypatch, argv, message):
    monkeypatch.setenv("COLUMNS", "80")
    code, err = run_argparse_error(capsys, *argv)
    assert code == EXIT_INVALID_INPUT
    assert message in err
    assert "set_int_max_str_digits" not in err
    assert len(err) < 300


def test_short_bad_integer_keeps_argparses_message(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_argparse_error(capsys, "reps", "abc") == (EXIT_INVALID_INPUT, (
        "usage: hilbertmod reps [-h] [--json] n\n"
        "hilbertmod reps: error: argument n: invalid int value: 'abc'\n"))


def test_integer_arguments_accept_what_int_accepts(capsys):
    for text in (" 7 ", "+7", "0_7", "\u0667"):  # U+0667 is the Arabic-Indic digit 7
        assert run_json(capsys, "reps", text)["result"]["n"] == 7, text
    # 4,300 digits still parse; the command then names its own cap
    code, _, err = run_cli(capsys, "classnum", "-" + "9" * 4300)
    assert code == EXIT_INVALID_INPUT
    assert "10^8" in err


HELP_WIDTH_CHILD = """
import json, os, shutil, sys
from hilbertmod.cli import _help_width
widths = []
for value in (None, "", "0", "-3", "abc", "40", "300"):
    os.environ.pop("COLUMNS", None)
    if value is not None:
        os.environ["COLUMNS"] = value
    widths.append((_help_width(), shutil.get_terminal_size().columns - 2))
print(json.dumps(widths), file=sys.stderr)
"""


def _help_widths(stdout):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("COLUMNS", None)
    proc = subprocess.run([sys.executable, "-c", HELP_WIDTH_CHILD], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, check=True)
    return json.loads(proc.stderr)


def test_help_width_is_what_argparse_computes_with_stdout_on_a_pipe():
    widths = _help_widths(subprocess.PIPE)
    assert [ours for ours, _ in widths] == [78, 78, 78, 78, 78, 38, 298]
    assert [ours for ours, _ in widths] == [stock for _, stock in widths]


def test_help_width_is_what_argparse_computes_with_stdout_on_a_terminal():
    import fcntl
    import struct
    import termios

    leader, follower = os.openpty()
    try:
        fcntl.ioctl(follower, termios.TIOCSWINSZ, struct.pack("HHHH", 24, 123, 0, 0))
        widths = _help_widths(follower)
    finally:
        os.close(leader)
        os.close(follower)
    assert [ours for ours, _ in widths] == [121, 121, 121, 121, 121, 38, 298]
    assert [ours for ours, _ in widths] == [stock for _, stock in widths]


def _help_goldens():
    """(columns, argv, text) of each -h golden, captured before argparse was given a width."""
    name = "help-py313.txt" if sys.version_info >= (3, 13) else "help.txt"
    text = (Path(__file__).parent / "golden" / name).read_text()
    parts = re.split(r"^==> COLUMNS=(\d+) hilbertmod (.*) <==\n", text, flags=re.M)
    return [(parts[i], parts[i + 1].split(), parts[i + 2]) for i in range(1, len(parts), 3)]


def test_help_output_matches_the_goldens(capsys, monkeypatch):
    goldens = _help_goldens()
    assert len(goldens) == 14
    for columns, argv, text in goldens:
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr().out == text, (columns, argv)


COMMANDS = ["field", "ranks", "whitehead", "reps", "classnum", "chains"]


@pytest.mark.parametrize("command", COMMANDS)
def test_a_parser_for_one_command_registers_it_alone_with_the_full_usage(monkeypatch, command):
    for columns in ("80", "20"):
        monkeypatch.setenv("COLUMNS", columns)
        full, named = cli.build_parser(), cli.build_parser(command)
        full_subs = full._subparsers._group_actions[0].choices
        subs = named._subparsers._group_actions[0].choices
        assert list(subs) == [command] and list(full_subs) == COMMANDS
        # the top level names all six choices in its usage, the only text it prints
        assert named.format_usage() == full.format_usage(), columns
        assert subs[command].format_help() == full_subs[command].format_help(), columns
        assert subs[command].format_usage() == full_subs[command].format_usage(), columns


# main builds one sub-parser when the first argument names it, else all six;
# tools/identity.py replays these argv too
EDGE_ARGV = [[], ["-h"], ["-h", "ranks"], ["ranks", "-h"], ["--", "ranks", "5", "--q", "1"],
             ["-"], ["-", "ranks"], ["-5", "ranks"], ["--json"],
             ["--json", "ranks", "5", "--q", "1"], ["bogus"], ["--he", "ranks"],
             ["ranks", "5", "--q", "1", "extra"], ["ranks"], ["field", "5", "ranks"],
             ["ranks", "--", "5", "--q", "1"], ["reps", "-h", "extra"]]


@pytest.mark.parametrize("argv", EDGE_ARGV, ids=[" ".join(argv) or "no-arguments"
                                                 for argv in EDGE_ARGV])
def test_main_answers_as_the_parser_of_every_command_does(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    answer = _exit_and_output(capsys, *argv)
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: build_parser(None))
    assert _exit_and_output(capsys, *argv) == answer


# parsers built per call: the top level and one sub-parser, or all six
PARSERS_BUILT = [(["ranks", "5", "--q", "1"], 2), (["reps", "5"], 2),
                 (["chains", "--poset", "sl", "--m", "6", "--p", "2"], 2),
                 ([], 7), (["-h"], 7), (["bogus"], 7), (["--json", "ranks", "5", "--q", "1"], 7),
                 (["-5", "ranks"], 7)]


@pytest.mark.parametrize("argv, built", PARSERS_BUILT,
                         ids=[" ".join(argv) or "no-arguments" for argv, _ in PARSERS_BUILT])
def test_main_builds_the_top_level_and_only_the_named_sub_parser(capsys, monkeypatch, argv,
                                                                 built):
    inits = []

    def counting(self, *args, _inner=cli._Parser.__init__, **kwargs):
        inits.append(kwargs.get("prog"))
        _inner(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    _exit_and_output(capsys, *argv)
    monkeypatch.undo()
    assert len(inits) == built, inits


def test_command_errors_name_the_action_command(capsys, monkeypatch):
    # a metavar on the subparsers action would name it here in place of "command"
    monkeypatch.setenv("COLUMNS", "80")
    usage = "usage: hilbertmod [-h] {field,ranks,whitehead,reps,classnum,chains} ...\n"
    code, out, err = _exit_and_output(capsys, "bogus")
    assert (code, out) == (EXIT_INVALID_INPUT, "")
    assert err.startswith(usage + "hilbertmod: error: argument command: invalid choice: 'bogus'")
    assert _exit_and_output(capsys) == (
        EXIT_INVALID_INPUT, "", usage + "hilbertmod: error: the following arguments are required: "
                                        "command\n")


def test_unrecognized_arguments_print_the_wrapped_top_level_usage(capsys, monkeypatch):
    # at 20 columns every part of the usage takes a line of its own; Python
    # 3.13 keeps a sub-parser's "..." on the line of its choices
    monkeypatch.setenv("COLUMNS", "20")
    choices = "       {field,ranks,whitehead,reps,classnum,chains}"
    usage = ("usage: hilbertmod\n       [-h]\n"
             + (f"{choices} ...\n" if sys.version_info >= (3, 13) else f"{choices}\n       ...\n"))
    assert cli.build_parser().format_usage() == usage
    assert _exit_and_output(capsys, "ranks", "5", "--q", "1", "extra") == (
        EXIT_INVALID_INPUT, "", usage + "hilbertmod: error: unrecognized arguments: extra\n")


# ---------------------------------------------------------------------------
# chains goldens: stdout bytes pinned for psl and sl, m in {0, 3, 6},
# p in {0, 1, 2}; --json bytes are pinned as compact JSON, as for field.
# ---------------------------------------------------------------------------

GOLDEN_STDOUT |= {
    ("chains", "--poset", "psl", "--m", "0", "--p", "0", "--json"): (
        '{"command":"chains","inputs":{"m":0,"p":0,"poset":"psl"}'
        ',"provenance":{"chains":"computed","count":"computed"}'
        ',"result":{"chains":[["G/1"]],"count":1},"schema_version":"1"}'
    ),
    ("chains", "--poset", "psl", "--m", "0", "--p", "1", "--json"): (
        '{"command":"chains","inputs":{"m":0,"p":1,"poset":"psl"}'
        ',"provenance":{"chains":"computed","count":"computed"}'
        ',"result":{"chains":[],"count":0},"schema_version":"1"}'
    ),
    ("chains", "--poset", "psl", "--m", "0", "--p", "2", "--json"): (
        '{"command":"chains","inputs":{"m":0,"p":2,"poset":"psl"}'
        ',"provenance":{"chains":"computed","count":"computed"}'
        ',"result":{"chains":[],"count":0},"schema_version":"1"}'
    ),
    ("chains", "--poset", "psl", "--m", "3", "--p", "0", "--json"): (
        '{"command":"chains","inputs":{"m":3,"p":0,"poset":"psl"}'
        ',"provenance":{"chains":"computed","count":"computed"}'
        ',"result":{"chains":[["G/1"],["G/M1"],["G/M2"],["G/M3"]]'
        ',"count":4},"schema_version":"1"}'
    ),
    ("chains", "--poset", "psl", "--m", "3", "--p", "1", "--json"): (
        '{"command":"chains","inputs":{"m":3,"p":1,"poset":"psl"}'
        ',"provenance":{"chains":"computed","count":"computed"}'
        ',"result":{"chains":[["G/1","G/M1"],["G/1","G/M2"],["G/1","G/M3"]]'
        ',"count":3},"schema_version":"1"}'
    ),
    ("chains", "--poset", "psl", "--m", "3", "--p", "2", "--json"): (
        '{"command":"chains","inputs":{"m":3,"p":2,"poset":"psl"}'
        ',"provenance":{"chains":"computed","count":"computed"}'
        ',"result":{"chains":[],"count":0},"schema_version":"1"}'
    ),
    ("chains", "--poset", "psl", "--m", "6", "--p", "0", "--json"): (
        '{"command":"chains","inputs":{"m":6,"p":0,"poset":"psl"}'
        ',"provenance":{"chains":"computed","count":"computed"}'
        ',"result":{"chains":[["G/1"],["G/M1"],["G/M2"],["G/M3"],["G/M4"]'
        ',["G/M5"],["G/M6"]],"count":7},"schema_version":"1"}'
    ),
    ("chains", "--poset", "psl", "--m", "6", "--p", "1", "--json"): (
        '{"command":"chains","inputs":{"m":6,"p":1,"poset":"psl"}'
        ',"provenance":{"chains":"computed","count":"computed"}'
        ',"result":{"chains":[["G/1","G/M1"],["G/1","G/M2"],["G/1","G/M3"]'
        ',["G/1","G/M4"],["G/1","G/M5"],["G/1","G/M6"]],"count":6}'
        ',"schema_version":"1"}'
    ),
    ("chains", "--poset", "psl", "--m", "6", "--p", "2", "--json"): (
        '{"command":"chains","inputs":{"m":6,"p":2,"poset":"psl"}'
        ',"provenance":{"chains":"computed","count":"computed"}'
        ',"result":{"chains":[],"count":0},"schema_version":"1"}'
    ),
    ("chains", "--poset", "sl", "--m", "0", "--p", "0", "--json"): (
        '{"command":"chains","inputs":{"m":0,"p":0,"poset":"sl"}'
        ',"provenance":{"chains":"computed","count":"computed"}'
        ',"result":{"chains":[["G/1"],["G/{+-I}"]],"count":2}'
        ',"schema_version":"1"}'
    ),
    ("chains", "--poset", "sl", "--m", "0", "--p", "1", "--json"): (
        '{"command":"chains","inputs":{"m":0,"p":1,"poset":"sl"}'
        ',"provenance":{"chains":"computed","count":"computed"}'
        ',"result":{"chains":[["G/1","G/{+-I}"]],"count":1}'
        ',"schema_version":"1"}'
    ),
    ("chains", "--poset", "sl", "--m", "0", "--p", "2", "--json"): (
        '{"command":"chains","inputs":{"m":0,"p":2,"poset":"sl"}'
        ',"provenance":{"chains":"computed","count":"computed"}'
        ',"result":{"chains":[],"count":0},"schema_version":"1"}'
    ),
    ("chains", "--poset", "sl", "--m", "3", "--p", "0", "--json"): (
        '{"command":"chains","inputs":{"m":3,"p":0,"poset":"sl"}'
        ',"provenance":{"chains":"computed","count":"computed"}'
        ',"result":{"chains":[["G/1"],["G/{+-I}"],["G/M1"],["G/M2"]'
        ',["G/M3"]],"count":5},"schema_version":"1"}'
    ),
    ("chains", "--poset", "sl", "--m", "3", "--p", "1", "--json"): (
        '{"command":"chains","inputs":{"m":3,"p":1,"poset":"sl"}'
        ',"provenance":{"chains":"computed","count":"computed"}'
        ',"result":{"chains":[["G/1","G/{+-I}"],["G/1","G/M1"],["G/1"'
        ',"G/M2"],["G/1","G/M3"],["G/{+-I}","G/M1"],["G/{+-I}","G/M2"]'
        ',["G/{+-I}","G/M3"]],"count":7},"schema_version":"1"}'
    ),
    ("chains", "--poset", "sl", "--m", "3", "--p", "2", "--json"): (
        '{"command":"chains","inputs":{"m":3,"p":2,"poset":"sl"}'
        ',"provenance":{"chains":"computed","count":"computed"}'
        ',"result":{"chains":[["G/1","G/{+-I}","G/M1"],["G/1","G/{+-I}"'
        ',"G/M2"],["G/1","G/{+-I}","G/M3"]],"count":3}'
        ',"schema_version":"1"}'
    ),
    ("chains", "--poset", "sl", "--m", "6", "--p", "0", "--json"): (
        '{"command":"chains","inputs":{"m":6,"p":0,"poset":"sl"}'
        ',"provenance":{"chains":"computed","count":"computed"}'
        ',"result":{"chains":[["G/1"],["G/{+-I}"],["G/M1"],["G/M2"]'
        ',["G/M3"],["G/M4"],["G/M5"],["G/M6"]],"count":8}'
        ',"schema_version":"1"}'
    ),
    ("chains", "--poset", "sl", "--m", "6", "--p", "1", "--json"): (
        '{"command":"chains","inputs":{"m":6,"p":1,"poset":"sl"}'
        ',"provenance":{"chains":"computed","count":"computed"}'
        ',"result":{"chains":[["G/1","G/{+-I}"],["G/1","G/M1"],["G/1"'
        ',"G/M2"],["G/1","G/M3"],["G/1","G/M4"],["G/1","G/M5"],["G/1"'
        ',"G/M6"],["G/{+-I}","G/M1"],["G/{+-I}","G/M2"],["G/{+-I}","G/M3"]'
        ',["G/{+-I}","G/M4"],["G/{+-I}","G/M5"],["G/{+-I}","G/M6"]]'
        ',"count":13},"schema_version":"1"}'
    ),
    ("chains", "--poset", "sl", "--m", "6", "--p", "2", "--json"): (
        '{"command":"chains","inputs":{"m":6,"p":2,"poset":"sl"}'
        ',"provenance":{"chains":"computed","count":"computed"}'
        ',"result":{"chains":[["G/1","G/{+-I}","G/M1"],["G/1","G/{+-I}"'
        ',"G/M2"],["G/1","G/{+-I}","G/M3"],["G/1","G/{+-I}","G/M4"],["G/1"'
        ',"G/{+-I}","G/M5"],["G/1","G/{+-I}","G/M6"]],"count":6}'
        ',"schema_version":"1"}'
    ),
    ("chains", "--poset", "psl", "--m", "0", "--p", "0"): """\
psl poset with m=0: 1 chains at p=0
  G/1
""",
    ("chains", "--poset", "psl", "--m", "0", "--p", "1"):
        'psl poset with m=0: 0 chains at p=1\n',
    ("chains", "--poset", "psl", "--m", "0", "--p", "2"):
        'psl poset with m=0: 0 chains at p=2\n',
    ("chains", "--poset", "psl", "--m", "3", "--p", "0"): """\
psl poset with m=3: 4 chains at p=0
  G/1
  G/M1
  G/M2
  G/M3
""",
    ("chains", "--poset", "psl", "--m", "3", "--p", "1"): """\
psl poset with m=3: 3 chains at p=1
  G/1 < G/M1
  G/1 < G/M2
  G/1 < G/M3
""",
    ("chains", "--poset", "psl", "--m", "3", "--p", "2"):
        'psl poset with m=3: 0 chains at p=2\n',
    ("chains", "--poset", "psl", "--m", "6", "--p", "0"): """\
psl poset with m=6: 7 chains at p=0
  G/1
  G/M1
  G/M2
  G/M3
  G/M4
  G/M5
  G/M6
""",
    ("chains", "--poset", "psl", "--m", "6", "--p", "1"): """\
psl poset with m=6: 6 chains at p=1
  G/1 < G/M1
  G/1 < G/M2
  G/1 < G/M3
  G/1 < G/M4
  G/1 < G/M5
  G/1 < G/M6
""",
    ("chains", "--poset", "psl", "--m", "6", "--p", "2"):
        'psl poset with m=6: 0 chains at p=2\n',
    ("chains", "--poset", "sl", "--m", "0", "--p", "0"): """\
sl poset with m=0: 2 chains at p=0
  G/1
  G/{+-I}
""",
    ("chains", "--poset", "sl", "--m", "0", "--p", "1"): """\
sl poset with m=0: 1 chains at p=1
  G/1 < G/{+-I}
""",
    ("chains", "--poset", "sl", "--m", "0", "--p", "2"):
        'sl poset with m=0: 0 chains at p=2\n',
    ("chains", "--poset", "sl", "--m", "3", "--p", "0"): """\
sl poset with m=3: 5 chains at p=0
  G/1
  G/{+-I}
  G/M1
  G/M2
  G/M3
""",
    ("chains", "--poset", "sl", "--m", "3", "--p", "1"): """\
sl poset with m=3: 7 chains at p=1
  G/1 < G/{+-I}
  G/1 < G/M1
  G/1 < G/M2
  G/1 < G/M3
  G/{+-I} < G/M1
  G/{+-I} < G/M2
  G/{+-I} < G/M3
""",
    ("chains", "--poset", "sl", "--m", "3", "--p", "2"): """\
sl poset with m=3: 3 chains at p=2
  G/1 < G/{+-I} < G/M1
  G/1 < G/{+-I} < G/M2
  G/1 < G/{+-I} < G/M3
""",
    ("chains", "--poset", "sl", "--m", "6", "--p", "0"): """\
sl poset with m=6: 8 chains at p=0
  G/1
  G/{+-I}
  G/M1
  G/M2
  G/M3
  G/M4
  G/M5
  G/M6
""",
    ("chains", "--poset", "sl", "--m", "6", "--p", "1"): """\
sl poset with m=6: 13 chains at p=1
  G/1 < G/{+-I}
  G/1 < G/M1
  G/1 < G/M2
  G/1 < G/M3
  G/1 < G/M4
  G/1 < G/M5
  G/1 < G/M6
  G/{+-I} < G/M1
  G/{+-I} < G/M2
  G/{+-I} < G/M3
  G/{+-I} < G/M4
  G/{+-I} < G/M5
  G/{+-I} < G/M6
""",
    ("chains", "--poset", "sl", "--m", "6", "--p", "2"): """\
sl poset with m=6: 6 chains at p=2
  G/1 < G/{+-I} < G/M1
  G/1 < G/{+-I} < G/M2
  G/1 < G/{+-I} < G/M3
  G/1 < G/{+-I} < G/M4
  G/1 < G/{+-I} < G/M5
  G/1 < G/{+-I} < G/M6
""",
}


# ---------------------------------------------------------------------------
# ranks, whitehead and reps goldens: stdout bytes pinned, plain and --json,
# for built-in and --classes inputs and an --ab input.
# ---------------------------------------------------------------------------

GOLDEN_STDOUT |= {
    ("ranks", "5", "--q", "1,2,3,5,7,9,-1,0", "--json"): (
        '{"command":"ranks","inputs":{"classes":null,"d":5,"q":[1,2,3,5,7,9,-1,0]}'
        ',"provenance":{"class_counts":"paper-table","m":"paper-table"'
        ',"rows":"computed"},"result":{"class_counts":{"2":2,"3":2'
        ',"5":2},"group":"Q(sqrt(5))","m":6,"rows":[{"case":"q=1"'
        ',"q":1,"value":2},{"case":"otherwise","q":2,"value":0}'
        ',{"case":"q>2, q=3 mod 4","q":3,"value":6},{"case":"q>2, q=1 mod 4"'
        ',"q":5,"value":8},{"case":"q>2, q=3 mod 4","q":7,"value":6}'
        ',{"case":"q>2, q=1 mod 4","q":9,"value":8},{"case":"q=-1"'
        ',"q":-1,"value":0},{"case":"q=0","q":0,"value":0}]},"schema_version":"1"}'
    ),
    ("ranks", "--classes", "2:1,3:1,4:2,6:1", "--q=-1,0,1,3,5", "--json"): (
        '{"command":"ranks","inputs":{"classes":"2:1,3:1,4:2,6:1"'
        ',"d":null,"q":[-1,0,1,3,5]},"provenance":{"class_counts":"computed"'
        ',"m":"computed","rows":"computed"},"result":{"class_counts":{"2":1'
        ',"3":1,"4":2,"6":1},"group":"generic","m":5,"rows":[{"case":"q=-1"'
        ',"q":-1,"value":1},{"case":"q=0","q":0,"value":0},{"case":"q=1"'
        ',"q":1,"value":0},{"case":"q>2, q=3 mod 4","q":3,"value":5}'
        ',{"case":"q>2, q=1 mod 4","q":5,"value":9}]},"schema_version":"1"}'
    ),
    ("ranks", "--classes", "7:3,12:1", "--q", "5,7", "--json"): (
        '{"command":"ranks","inputs":{"classes":"7:3,12:1","d":null'
        ',"q":[5,7]},"provenance":{"class_counts":"computed","m":"computed"'
        ',"rows":"computed"},"result":{"class_counts":{"12":1'
        ',"7":3},"group":"generic","m":4,"rows":[{"case":"q>2, q=1 mod 4"'
        ',"q":5,"value":15},{"case":"q>2, q=3 mod 4","q":7,"value":14}]}'
        ',"schema_version":"1"}'
    ),
    ("whitehead", "5", "--mode", "sl", "--q", "1", "--json"): (
        '{"command":"whitehead","inputs":{"ab":null,"classes":null'
        ',"d":5,"mode":"sl","q":1},"provenance":{"abelianization":"paper-table"'
        ',"class_counts":"paper-table","whitehead":"computed"}'
        ',"result":{"abelianization":{"free_rank":0,"render":"0"'
        ',"symbolic":[],"torsion":[]},"group":"Q(sqrt(5))","mode":"sl"'
        ',"q":1,"whitehead":{"free_rank":2,"render":"Z^2 + Z/2"'
        ',"symbolic":[],"torsion":[2]}},"schema_version":"1"}'
    ),
    ("whitehead", "--classes", "2:2,3:2,7:1,12:2", "--q", "1", "--json"): (
        '{"command":"whitehead","inputs":{"ab":null,"classes":"2:2,3:2,7:1,12:2"'
        ',"d":null,"mode":"psl","q":1},"provenance":{"abelianization":"computed"'
        ',"class_counts":"computed","whitehead":"computed"},"result":{"abelianization":null'
        ',"group":"generic","mode":"psl","q":1,"whitehead":{"free_rank":4'
        ',"render":"Z^4 + 2*SK1(Z_12) + SK1(Z_7)","symbolic":[{"multiplicity":2'
        ',"token":"SK1(Z_12)"},{"multiplicity":1,"token":"SK1(Z_7)"}]'
        ',"torsion":[]}},"schema_version":"1"}'
    ),
    ("whitehead", "--classes", "2:2,3:2,7:1,12:2", "--q", "-1", "--json"): (
        '{"command":"whitehead","inputs":{"ab":null,"classes":"2:2,3:2,7:1,12:2"'
        ',"d":null,"mode":"psl","q":-1},"provenance":{"abelianization":"computed"'
        ',"class_counts":"computed","whitehead":"computed"},"result":{"abelianization":null'
        ',"group":"generic","mode":"psl","q":-1,"whitehead":{"free_rank":4'
        ',"render":"Z^4 + 2*K-1tors(Z_12) + 2*K-1tors(Z_2) + 2*K-1tors(Z_3) + K-1tors(Z_7)"'
        ',"symbolic":[{"multiplicity":2,"token":"K-1tors(Z_12)"}'
        ',{"multiplicity":2,"token":"K-1tors(Z_2)"},{"multiplicity":2'
        ',"token":"K-1tors(Z_3)"},{"multiplicity":1,"token":"K-1tors(Z_7)"}]'
        ',"torsion":[]}},"schema_version":"1"}'
    ),
    ("whitehead", "--classes", "2:1,3:1", "--mode", "sl", "--q", "1", "--ab", "Z^2 + 3*Z/2",
     "--json"): (
        '{"command":"whitehead","inputs":{"ab":"Z^2 + 3*Z/2","classes":"2:1,3:1"'
        ',"d":null,"mode":"sl","q":1},"provenance":{"abelianization":"computed"'
        ',"class_counts":"computed","whitehead":"computed"}'
        ',"result":{"abelianization":{"free_rank":2'
        ',"render":"Z^2 + 3*Z/2","symbolic":[],"torsion":[2,2,2]}'
        ',"group":"generic","mode":"sl","q":1,"whitehead":{"free_rank":2'
        ',"render":"Z^2 + 4*Z/2","symbolic":[],"torsion":[2,2,2,2]}}'
        ',"schema_version":"1"}'
    ),
    ("reps", "1", "--json"): (
        '{"command":"reps","inputs":{"n":1},"provenance":{"c":"computed"'
        ',"local":"computed","q":"computed","r":"computed"},"result":{"c":0'
        ',"local":{},"n":1,"q":1,"r":1},"schema_version":"1"}'
    ),
    ("reps", "12", "--json"): (
        '{"command":"reps","inputs":{"n":12},"provenance":{"c":"computed"'
        ',"local":"computed","q":"computed","r":"computed"},"result":{"c":5'
        ',"local":{"2":{"k_p":6,"r_p":2},"3":{"k_p":6,"r_p":3}}'
        ',"n":12,"q":6,"r":7},"schema_version":"1"}'
    ),
    ("reps", "360", "--json"): (
        '{"command":"reps","inputs":{"n":360},"provenance":{"c":"computed"'
        ',"local":"computed","q":"computed","r":"computed"},"result":{"c":179'
        ',"local":{"2":{"k_p":32,"r_p":8},"3":{"k_p":39,"r_p":13}'
        ',"5":{"k_p":44,"r_p":22}},"n":360,"q":24,"r":181},"schema_version":"1"}'
    ),
    ("ranks", "5", "--q", "1,2,3,5,7,9,-1,0"): """\
Q(sqrt(5)): m = 6 conjugacy classes (2:2, 3:2, 5:2)
q=1    2      (q=1)
q=2    0      (otherwise)
q=3    6      (q>2, q=3 mod 4)
q=5    8      (q>2, q=1 mod 4)
q=7    6      (q>2, q=3 mod 4)
q=9    8      (q>2, q=1 mod 4)
q=-1   0      (q=-1)
q=0    0      (q=0)
""",
    ("ranks", "--classes", "2:1,3:1,4:2,6:1", "--q=-1,0,1,3,5"): """\
generic: m = 5 conjugacy classes (2:1, 3:1, 4:2, 6:1)
q=-1   1      (q=-1)
q=0    0      (q=0)
q=1    0      (q=1)
q=3    5      (q>2, q=3 mod 4)
q=5    9      (q>2, q=1 mod 4)
""",
    ("ranks", "--classes", "7:3,12:1", "--q", "5,7"): """\
generic: m = 4 conjugacy classes (7:3, 12:1)
q=5    15     (q>2, q=1 mod 4)
q=7    14     (q>2, q=3 mod 4)
""",
    ("whitehead", "5", "--mode", "sl", "--q", "1"): """\
Wh_1 of SL2(O_k), k = Q(sqrt(5)): Z^2 + Z/2
""",
    ("whitehead", "--classes", "2:2,3:2,7:1,12:2", "--q", "1"): """\
Wh_1 of PSL2(O_k), k = generic: Z^4 + 2*SK1(Z_12) + SK1(Z_7)
""",
    ("whitehead", "--classes", "2:2,3:2,7:1,12:2", "--q", "-1"): """\
Wh_-1 of PSL2(O_k), k = generic: Z^4 + 2*K-1tors(Z_12) + 2*K-1tors(Z_2) + 2*K-1tors(Z_3) + K-1tors(Z_7)
""",
    ("whitehead", "--classes", "2:1,3:1", "--mode", "sl", "--q", "1", "--ab", "Z^2 + 3*Z/2"): """\
Wh_1 of SL2(O_k), k = generic: Z^2 + 4*Z/2
""",
    ("reps", "1"): """\
Z_1: r=1 c=0 q=1
""",
    ("reps", "12"): """\
Z_12: r=7 c=5 q=6
  p=2: k_p=6 r_p=2
  p=3: k_p=6 r_p=3
""",
    ("reps", "360"): """\
Z_360: r=181 c=179 q=24
  p=2: k_p=32 r_p=8
  p=3: k_p=39 r_p=13
  p=5: k_p=44 r_p=22
""",
}


# ---------------------------------------------------------------------------
# Text rendered from the result: stdout bytes pinned before the text of each
# subcommand was rendered from the result it returns, for the larger outputs
# (as SHA-256) and the whitehead lines of the perfbench degree_table workload.
# ---------------------------------------------------------------------------

# the 240 degrees of the d = 5 ranks request in perfbench's degree_table, seed 1
DEGREE_TABLE_DEGREES = [
    -6, 1736, 1832, 1373, 525, 148, 252, 672, 947, 1109, 1202, 962, 1405, 1894, 1606, 1000,
    294, 1569, 1979, 624, 570, 684, 594, 304, 517, 735, 1340, 1039, 1985, 739, 126, 1195,
    563, 1545, 46, 454, 272, 1607, 491, 1807, 1149, 1892, 1491, 1824, 819, 345, 1900, 1594,
    1273, 640, 1723, 142, 835, 330, 1705, 938, 1353, 778, 1602, 1384, 81, 12, 114, 1255,
    797, 935, 1866, 1595, 1212, 785, 242, 1755, 63, 1758, 206, 1630, 1015, 509, 412, 1329,
    1827, 1644, 593, 862, 407, 994, 476, 746, 1939, 1718, 668, 1725, 408, 523, 1379, 167,
    740, 717, 220, 884, 92, 1962, 1700, 1248, 1790, 763, 1981, 1649, 325, 124, 1019, 1535,
    336, 208, 940, 899, 1251, 1408, 557, 1434, 851, 1645, 1757, 888, 314, 552, 1622, 318,
    1792, 863, 539, 369, 1526, 988, 1160, 139, 578, 186, 519, 289, 418, 932, 553, 1301,
    729, 941, 1710, 1189, 1937, 885, 1765, 1237, 1867, 1025, 1240, 1137, 1033, 1002, 480,
    410, 1119, 1355, 39, 422, 366, 1940, 1054, 488, 423, 1547, 207, 1163, 98, 1764, 1203,
    1369, 798, 1232, 1589, 1082, 638, 709, 236, 263, 1076, 215, 644, 464, 48, 1706, 1919,
    1588, 1214, 1913, 790, 1626, 1648, 1343, 1882, 1218, 518, 1504, 1775, 919, 1944, 1489,
    1951, 660, 1257, 1950, 989, 363, -5, 656, 1194, 1181, 203, 1453, 1280, 1920, 993, 1326,
    1110, 82, 648, 1703, 1502, 1172, 1966, 436, 796, 679, 1468, 1879, 764, 984, 945, 1412,
    241, 1254,
]

GOLDEN_STDOUT |= {
    ("ranks", "5", "--q=" + ",".join(map(str, DEGREE_TABLE_DEGREES))):
        "d6f9ffacd0b8cd1f99e1ffe56f7af2e76974c101517835a1009f050a25b51900",
    ("ranks", "5", "--q=" + ",".join(map(str, DEGREE_TABLE_DEGREES)), "--json"):
        "2fc71f34938acc604bf916b376100e2b6f06583a27acb6f2cc2abc29a6692370",
    ("classnum", "-6537839"):
        "7f51f23090a898e736bf8276f40aa1a69776d138c3aaba49389bcf01bc7b988d",
    ("chains", "--poset", "sl", "--m", "18", "--p", "1"):
        "68ebe38ccbee3e3b3de5a6e382400a09df7f03a8576b5b43df381833229c877c",
    ("whitehead", "5", "--mode", "psl", "--q", "-2"):
        "Wh_-2 of PSL2(O_k), k = Q(sqrt(5)): 0\n",
    ("whitehead", "5", "--mode", "psl", "--q", "-1"):
        "Wh_-1 of PSL2(O_k), k = Q(sqrt(5)): "
        "2*K-1tors(Z_2) + 2*K-1tors(Z_3) + 2*K-1tors(Z_5)\n",
    ("whitehead", "5", "--mode", "psl", "--q", "0"):
        "Wh_0 of PSL2(O_k), k = Q(sqrt(5)): 2*Wh0(Z_5)\n",
    ("whitehead", "5", "--mode", "psl", "--q", "1"):
        "Wh_1 of PSL2(O_k), k = Q(sqrt(5)): Z^2\n",
    ("whitehead", "5", "--mode", "sl", "--q", "-1"):
        "Wh_-1 of SL2(O_k), k = Q(sqrt(5)): "
        "2*K-1tors(Z_2) + 2*K-1tors(Z_3) + 2*K-1tors(Z_5)\n",
    ("whitehead", "5", "--mode", "sl", "--q", "0"):
        "Wh_0 of SL2(O_k), k = Q(sqrt(5)): Z + 2*Wh0(Z_5)\n",
    # sl at q = 1 is pinned with the ranks, whitehead and reps goldens
}


@pytest.mark.parametrize("argv", GOLDEN_STDOUT, ids=[
    " ".join(arg if len(arg) <= 40 else arg[:36] + "..." for arg in argv) for argv in GOLDEN_STDOUT])
def test_golden_stdout(capsys, argv):
    """stdout verbatim, or the canonical form of compact --json bytes, or the
    SHA-256 of the bytes where the table holds 64 hex digits."""
    assert len(DEGREE_TABLE_DEGREES) == 240
    expected = GOLDEN_STDOUT[argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    if re.fullmatch("[0-9a-f]{64}", expected):
        out = hashlib.sha256(out.encode()).hexdigest()
    elif "--json" in argv:
        expected = json.dumps(json.loads(expected), sort_keys=True, indent=2) + "\n"
    assert out == expected


# ---------------------------------------------------------------------------
# Envelope contract
# ---------------------------------------------------------------------------

def test_json_round_trip_is_byte_identical(capsys):
    commands = [
        ("field", "5"),
        ("ranks", "5", "--q", "5,1,0"),
        ("whitehead", "5", "--mode", "sl", "--q", "1"),
        ("reps", "12"),
        ("classnum", "-23"),
        ("chains", "--poset", "sl", "--m", "3", "--p", "1"),
    ]
    for argv in commands:
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == EXIT_OK
        assert out == reference_json(json.loads(out)) + "\n", argv


class _Str(str):
    pass


class _StrEnum(str, enum.Enum):
    KEY = "k\u00e9y"


class _Int(int):
    pass


def test_canonical_json_writes_what_json_dumps_writes(capsys):
    approx = run_json(capsys, "field", "5", "--approx")
    assert any(isinstance(x, float) for c in approx["result"]["trace_candidates"]
               for x in c["approx_embeddings"])
    payloads = [
        approx,
        {}, [], (), "", 0, -1, 1.5, None, True, False,
        {"empty": {}, "list": [], "tuple": (), "nested": {"a": [[], {}, [[{}]]]}},
        {"b": True, "a": False, "c": None, "d": [True, False, None]},
        {"floats": [0.0, -0.0, 1e-7, 1e16, 1e300, -2.5, 0.1 + 0.2, float("inf"),
                    float("-inf"), float("nan")]},
        {"ints": [-1, -10**40, 10**4000, -(10**4000), 2**63, 0]},
        {"caf\u00e9": "\u2603 snow", "tab\tkey": "line\nbreak", "\x00\x1f\x7f": "\"q\" \\ /",
         "\ud83d\ude00": ["\U0001f600", "\ud800"], "": ""},
        {"tuples": (1, (2, (3,)), ("x", {"y": ()}))},
        {"z": 1, "A": 2, "a": 3, "10": 4, "9": 5, " ": 6},
        {3: "int keys", 10: "sort as ints"}, {2.5: 1, 0.5: 2}, {None: 0}, {True: 1},
        {_Str("k"): 1, "j": 2}, {_StrEnum.KEY: [1]}, {_Int(10): 1, _Int(9): 2},
        [{"rows": [{"q": q, "value": -q * 10**30, "case": "q>2"} for q in range(-3, 9)]}],
    ]
    for payload in payloads:
        assert canonical_json(payload) == reference_json(payload), payload


# Keys and strings that a layout or quoting slip would mangle.
_KEYS = ["q", "case", "value", "a{b", "}", "{}", '"x"', "caf\u00e9", "\u2603", "", "back\\slash"]
_STRS = ["", "q=0", "G/{+-I}", "{0}", "%s", '"q"', "tab\t", "\u00e9", "\U0001f600", "\ud800"]
# Leaves no uniform column may hold: exact types only.
_ODD_LEAVES = [True, False, 1.5, float("nan"), None, _Int(7), _Str("q"), [], {}, (), [1], {"q": 1}]


def _random_rows(rng):
    """Rows of one kind and shape, each column plain ints only or plain strs only."""
    kinds = [rng.choice([int, str]) for _ in range(rng.randint(1, 4))]
    leaf = {int: lambda: rng.choice([0, -1, rng.randrange(-10**30, 10**30)]),
            str: lambda: rng.choice(_STRS)}
    shape = rng.choice([tuple, list, dict])
    keys = rng.sample(_KEYS, len(kinds))
    rows = []
    for _ in range(rng.choice([1, 2, 8, 9, 10, 40])):
        leaves = [leaf[kind]() for kind in kinds]
        if shape is dict:
            order = rng.sample(range(len(keys)), len(keys))  # insertion order varies
            rows.append({keys[i]: leaves[i] for i in order})
        else:
            rows.append(shape(leaves))
    return rows


def _near_miss(rng, rows):
    """``rows``, two or more, with one defect that makes them not uniform."""
    rows = list(rows)
    i = rng.randrange(len(rows))
    row, defect = rows[i], rng.choice(["leaf", "length", "empty", "kind", "key"])
    if defect == "leaf":  # an odd leaf in an otherwise uniform column
        row = dict(row) if isinstance(row, dict) else list(row)
        row[rng.choice(list(row) if isinstance(row, dict) else range(len(row)))] = \
            rng.choice(_ODD_LEAVES)
        rows[i] = tuple(row) if isinstance(rows[i], tuple) else row
    elif defect == "length":  # a row one leaf longer or shorter
        if isinstance(row, dict):
            items = list(row.items())
            rows[i] = dict(items[1:] if rng.random() < 0.5 else [*items, ("zz", 1)])
        else:
            rows[i] = type(row)(row[1:] if rng.random() < 0.5 else [*row, 1])
    elif defect == "empty":  # empty inner containers, some or all
        rows = [type(r)() for r in rows] if rng.random() < 0.5 else rows
        rows[i] = type(row)()
    elif defect == "kind":  # one row of another kind, or no row at all
        other = {tuple: list, list: tuple, dict: list}[type(row)]
        rows[i] = rng.choice([other(row.values() if isinstance(row, dict) else row), 7, "row"])
    else:  # another str key, int keys, or str-subclass keys (these stand out in the first row)
        if not isinstance(row, dict):
            rows[i] = {"q": 1}
        else:
            how = rng.choice(["other", "int", "subclass"])
            i = 0 if how == "subclass" else i
            items = list(rows[i].items())
            if how == "other":
                items[0] = ("zz", items[0][1])
            rows[i] = {(k if how == "other" else n if how == "int" else _Str(k)): v
                       for n, (k, v) in enumerate(items)}
    return rows


def test_canonical_json_matches_json_on_random_rows_and_near_misses():
    rng = random.Random(26)
    for _ in range(1500):
        rows = _random_rows(rng)
        uniform = len(rows) == 1 or rng.random() < 0.5
        if not uniform:
            rows = _near_miss(rng, rows)
        text = _json._uniform_rows(rows, "\n")  # the one-pass writer takes uniform rows only
        assert (text is not None) == uniform
        assert text is None or text == reference_json(rows)
        payload = rng.choice([rows, tuple(rows), {"result": {"rows": rows}, "n": len(rows)},
                              [rows, {"x": rows}]])
        assert canonical_json(payload) == reference_json(payload), payload


def test_canonical_json_matches_json_on_large_envelopes(capsys, monkeypatch):
    payloads = []
    write = cli.canonical_json
    monkeypatch.setattr(cli, "canonical_json", lambda p: payloads.append(p) or write(p))
    for argv in (["classnum", "-99999999"], ["chains", "--poset", "sl", "--m", "40", "--p", "2"],
                 ["ranks", "5", "--q=" + ",".join(map(str, range(-6, MAX_DEGREES - 6)))]):
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == EXIT_OK
        assert out == reference_json(payloads[-1]) + "\n", argv[0]
    forms, chains, rows = (p["result"][k] for p, k in zip(
        payloads, ["reduced_forms", "chains", "rows"]))
    assert (len(forms), len(chains), len(rows)) == (6976, 40, MAX_DEGREES)
    assert type(forms[0]) is tuple and type(chains[0]) is tuple and type(rows[0]) is dict


def test_every_numeric_result_tagged(capsys):
    for argv in [("field", "5"), ("ranks", "5", "--q", "1"), ("reps", "5")]:
        payload = run_json(capsys, *argv)
        assert payload["provenance"], argv
        assert set(payload["provenance"].values()) <= {"paper-table", "computed"}


@pytest.mark.parametrize("payload", [
    {"x": object()}, {(1, 2): "x"},
    {"rows": [{"q": q, "case": "q=0"} for q in range(9)] + [{"q": object(), "case": "q=0"}]},
    [(a, -a, 1) for a in range(12)] + [(1, object(), 1)] + [(a, a, a) for a in range(5)],
], ids=["object-value", "tuple-key", "object-in-uniform-dict-rows", "object-in-int-tuples"])
def test_canonical_json_refuses_what_json_refuses(payload):
    with pytest.raises(TypeError) as expected:
        json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True)
    with pytest.raises(TypeError) as got:
        canonical_json(payload)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("entry", [":1", "2:", "2:1:1", "a:b", "2:1.5"])
def test_malformed_class_entries_name_the_grammar(capsys, entry):
    assert run_cli(capsys, "ranks", "--classes", entry, "--q", "1") == (
        EXIT_INVALID_INPUT, "", f"error: expected order:count, got {entry!r}\n")


NINES = "9" * 4300  # as many digits as the digit gate lets through
# Each command line's message quotes a whole input, and the first 100
# characters of its stderr before messages were cut (COLUMNS=80).
LONG_MESSAGES = {
    "invalid-choice": (("whitehead", "5", "--q", "1", "--mode", "x" * 5000),
                       "usage: hilbertmod whitehead [-h] [--classes CLASSES] "
                       "[--mode {psl,sl}] --q Q\n" + " " * 23),
    "unknown-command": (("x" * 5000,),
                        "usage: hilbertmod [-h] {field,ranks,whitehead,reps,classnum,chains} "
                        "...\nhilbertmod: error: argument "),
    "unrecognized": (("reps", "5", "x" * 5000),
                     "usage: hilbertmod [-h] {field,ranks,whitehead,reps,classnum,chains} "
                     "...\nhilbertmod: error: unrecogni"),
    "reps": (("reps", NINES), "error: group order must be in [1, 10^7], got " + NINES),
    "field": (("field", NINES), "error: d must be a square-free integer in [2, 10^12], got "
                                + NINES),
    "classnum": (("classnum", "-" + NINES), "error: |D| must be at most 10^8, got D = -" + NINES),
    "chains": (("chains", "--poset", "psl", "--m", NINES, "--p", "0"),
               "error: number of maximal classes must be at most 10^4, got " + NINES),
    "class-order": (("ranks", "--classes", NINES + ":1", "--q", "1"),
                    "error: group order must be in [1, 10^7], got " + NINES),
    "disallowed-orders": (("ranks", "2", "--classes",
                           ",".join(f"{n}:1" for n in range(7, 10007)), "--q", "1"),
                          "error: orders [" + ", ".join(map(str, range(7, 40)))),
}


@pytest.mark.parametrize("argv, start", LONG_MESSAGES.values(), ids=LONG_MESSAGES.keys())
def test_long_messages_are_cut_where_printed(capsys, monkeypatch, argv, start):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _exit_and_output(capsys, *argv)
    assert (code, out) == (EXIT_INVALID_INPUT, "")
    assert len(err.encode()) < 500, len(err)
    assert len(start) >= 100 and err[:100] == start[:100]
    assert re.search(r"\.\.\. \(\d+ characters\)\n$", err), err[-80:]


# one character of each UTF-8 width, and an undecodable command-line byte,
# which stderr writes as its six-byte escape
WIDE_CHARACTERS = {"1-byte": "x", "2-byte": "\u00e9", "3-byte": "\u20ac",
                   "4-byte": "\U0001f600", "undecodable": "\udcff"}


@pytest.mark.parametrize("char", WIDE_CHARACTERS.values(), ids=WIDE_CHARACTERS.keys())
def test_long_messages_are_cut_by_their_bytes(capsys, monkeypatch, char):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _exit_and_output(capsys, "reps", "5", char * 5000)
    assert (code, out) == (EXIT_INVALID_INPUT, "")
    assert len(err.encode("utf-8", "backslashreplace")) < 500, err[-80:]
    assert re.search(r"\.\.\. \(\d+ characters\)\n$", err), err[-80:]


@pytest.mark.parametrize("char", list(WIDE_CHARACTERS.values())[:4],
                         ids=list(WIDE_CHARACTERS)[:4])
def test_clip_keeps_whole_characters_within_the_bound(char):
    fits = MAX_MESSAGE // len(char.encode())
    assert clip(char * fits) == char * fits
    assert clip(char * (fits + 1)) == f"{char * fits}... ({fits + 1} characters)"
