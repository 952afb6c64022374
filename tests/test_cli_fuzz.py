"""Seeded grammar fuzzer for all six subcommands.

About 600 ``ranks`` and ``whitehead`` argv drawn from a small grammar: field
discriminants, ``--classes`` specs, degree lists, modes and ``--ab`` values,
each valid, edge-case, huge or malformed (``--ab`` integers past 4,300
digits and free ranks past 10^100 among them), including lists just under
and just over the 10^4 caps.  About 400 more ``field``, ``reps``, ``classnum``
and ``chains`` argv draw each integer the same way, with the values at and
just past each cap.  Every call must exit 0, 2, 3 or 4 within 5 s, with
a few hundred bytes of stderr at most and no interpreter limit named;
``--json`` output must re-serialize, by json's own encoder, to the same
bytes; and every ``ranks`` row that is printed must equal the case-table
route and, where the E1 page can be built (m <= 10^4 classes), the
E1-column route.  The parser built for an argv's command alone must parse
it as the parser of all six does.
"""

import contextlib
import io
import json
import random
import time

from hilbertmod import cli
from hilbertmod.assembler import (
    MAX_CLASS_ENTRIES,
    ClassCounts,
    GroupData,
    class_counts_for_field,
    rank_diff_from_case_table,
)
from hilbertmod.cli import MAX_DEGREES
from hilbertmod.pchain import MAX_CLASSES, build_E1, psl_poset, rank_E1_column
from hilbertmod.quadfield import FieldSpec

from oracles import reference_json

SEED = 20150
CALLS = 600
OTHER_CALLS = 400
HUGE = "9" * 40

FIELDS = ["5", "2", "3", "13", "7", "1", "0", "-5", "4", "1000003", "10000000000000",
          HUGE, "x", "5.0", ""]
BAD_CLASSES = ["", ",", "2", "2:", ":1", "2:1:1", "a:b", "2:1,", "0:1", "1:1", "2:0",
               "2:-1", "-3:1", "2:1,2:1", "3:1,2:1", "10000001:1", f"{HUGE}:1", "2:1.5",
               " 2 : 1 ", "2_0:1", f"2:{HUGE}", f"2:{HUGE},3:{HUGE}",
               "2:" + "9" * 4300, "5:" + "9" * 4300 + ",7:" + "9" * 4300]
BAD_DEGREES = ["", ",", "1,,2", "x", "1.5", "1,x", f"{HUGE}", f"-{HUGE}", " 7 ", "0x5",
               "1e3", "9" * 5000]
BAD_AB = ["", "Z/1", "Z/0", "Z^-1", "-1*Z/2", "0*Z", "Q", "Z/2 +", "+", "Z^x",
          "10000*Z/2", "10001*Z/2", "Z^2 + 3*Z/2", f"Z^{HUGE}", "Z/" + HUGE,
          "Z^-3 + Z^5", "Z^" + "9" * 5000, "Z/" + "9" * 5000, "9" * 5000 + "*Z/2",
          "Z^" + "9" * 4300, "x" * 6000 + "*Z", "Z/" + "x" * 6000, "Q" * 6000,
          "+".join(["Z/2"] * 10001), f"Z^{10**100}", f"Z^{10**100 + 1}", "Z^1_0 + Z/0x2"]


def _classes(rng):
    roll = rng.random()
    if roll < 0.25:
        return rng.choice(BAD_CLASSES)
    if roll < 0.5:
        orders = sorted(rng.sample(range(2, 7), rng.randint(1, 5)))
    elif roll < 0.75:
        orders = sorted(rng.sample(range(2, 10**7 + 1), rng.randint(1, 4)))
    else:
        orders = sorted(rng.sample(range(2, 3000), rng.randint(1, 40)))
    return ",".join(f"{n}:{rng.choice([1, 1, 2, 3, 10**19])}" for n in orders)


def _degrees(rng):
    roll = rng.random()
    if roll < 0.2:
        return rng.choice(BAD_DEGREES)
    pool = [rng.randint(-12, 80), rng.randint(-10**30, 10**30), -1, 0, 1]
    return ",".join(str(rng.choice(pool)) for _ in range(rng.randint(1, 12)))


def _source(rng):
    """Positional d and --classes, either, both or neither."""
    argv = []
    if rng.random() < 0.4:
        argv.append(rng.choice(FIELDS))
    if rng.random() < 0.8:
        argv += ["--classes", _classes(rng)]
    return argv


def _argv(rng):
    if rng.random() < 0.5:
        degrees = _degrees(rng)
        argv = ["ranks", *_source(rng)]
        # "--q -1,7" is an argparse error; "--q=-1,7" is the documented form
        argv += rng.choice([["--q=" + degrees], ["--q", degrees]])
    else:
        argv = ["whitehead", *_source(rng), "--q",
                str(rng.choice([-3, -1, 0, 1, 1, 1, 2, 7, 10**30, -10**30]))
                if rng.random() < 0.9 else rng.choice(["x", HUGE, ""])]
        if rng.random() < 0.7:
            argv += ["--mode", rng.choice(["psl", "sl", "sl", "PSL", ""])]
        if rng.random() < 0.5:
            argv += ["--ab", rng.choice(["0", "Z/6", "Z + Z/3"] + BAD_AB)]
    if rng.random() < 0.5:
        argv.append("--json")
    return argv


def _at_the_caps():
    """Lists just under and just over the --q and --classes caps."""
    under = ",".join(f"{n}:1" for n in range(2, MAX_CLASS_ENTRIES + 2))
    over = ",".join(f"{n}:1" for n in range(2, MAX_CLASS_ENTRIES + 3))
    cycle = ",".join(str(q) for q in range(-6, MAX_DEGREES - 6))
    return [
        ["ranks", "5", "--q=" + cycle],
        ["ranks", "5", "--q=" + cycle + ",1", "--json"],
        ["ranks", "--classes", under, "--q=0,1,2,5,7", "--json"],
        ["ranks", "--classes", over, "--q=1"],
        ["whitehead", "--classes", under, "--q", "1", "--json"],
        ["whitehead", "--classes", over, "--q", "1"],
    ]


def _other_at_the_caps():
    """One argv at the cap of each of chains, classnum, reps and field."""
    return [["chains", "--poset", "sl", "--m", "10000", "--p", "1", "--json"],
            ["classnum", str(-10**8), "--json"], ["reps", str(10**7), "--json"],
            ["field", "999999999989", "--approx", "--json"]]


MALFORMED = ["", "x", "5.0", "1e3", "0x5", " 7 ", "1_000", "--", HUGE, "-" + HUGE,
             "9" * 5000]


def _int(rng, valid, edges):
    """One integer argument: valid, at an edge or cap, or huge and malformed."""
    roll = rng.random()
    if roll < 0.6:
        return str(valid(rng))
    if roll < 0.9:
        return rng.choice(edges)
    return rng.choice(MALFORMED)


def _other_argv(rng):
    command = rng.choice(["field", "reps", "classnum", "chains"])
    if command == "field":
        argv = ["field", _int(rng, lambda r: r.randint(2, 10**4),
                              ["1", "0", "-5", "4", "2", "3", "5", "13", "1000003",
                               "999999999989", str(10**12), str(10**12 + 1)])]
        if rng.random() < 0.5:
            argv.append("--approx")
    elif command == "reps":
        argv = ["reps", _int(rng, lambda r: r.choice([r.randint(1, 5000), r.randint(1, 10**7)]),
                             ["0", "1", "-1", "2", "720720", "9699690", "9999991",
                              str(10**7), str(10**7 + 1)])]
    elif command == "classnum":
        argv = ["classnum", _int(rng, lambda r: -r.randint(3, 10**5),
                                 ["-3", "-4", "0", "1", "3", "-1", "-2", "-5", "-100075",
                                  "-99999999", str(-10**8), str(-10**8 - 1)])]
    else:
        argv = ["chains"]
        if rng.random() < 0.95:
            argv += ["--poset", rng.choice(["psl", "sl", "sl", "PSL", ""])]
        if rng.random() < 0.95:
            argv += ["--m", _int(rng, lambda r: r.randint(0, 60), ["-1", "0", "1", "10001"])]
        if rng.random() < 0.95:
            argv += ["--p", _int(rng, lambda r: r.randint(-2, 6), ["-1", "0", "1", HUGE])]
    if rng.random() < 0.5:
        argv.append("--json")
    return argv


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue(), time.monotonic() - start


def _ranks_rows(argv, out):
    """(q, value) rows printed by ``ranks``, from the text or the envelope."""
    if "--json" in argv:
        return [(row["q"], row["value"]) for row in json.loads(out)["result"]["rows"]]
    rows = []
    for line in out.splitlines()[1:]:
        q, value, _ = line[2:].split(maxsplit=2)
        rows.append((int(q), int(value)))
    return rows


def _check_ranks(argv, out):
    parsed = cli.build_parser().parse_args([a for a in argv if a != "--json"])
    counts = (ClassCounts.parse(parsed.classes) if parsed.classes is not None
              else class_counts_for_field(FieldSpec(parsed.d)))
    g = GroupData(source="generic", class_counts=counts)
    page = (build_E1(psl_poset(counts), relative_to_trivial=False, class_counts=counts)
            if counts.m <= MAX_CLASSES else None)
    table, pagewise = {}, {}
    for q, value in _ranks_rows(argv, out):
        if q not in table:
            table[q] = rank_diff_from_case_table(g, q)
            if page is not None:
                pagewise[q] = rank_E1_column(page, 0, q) - rank_E1_column(page, 1, q)
        assert value == table[q], (argv[:3], q)
        assert page is None or value == pagewise[q], (argv[:3], q)


def test_fuzzed_ranks_and_whitehead_argv():
    rng = random.Random(SEED)
    argvs = _at_the_caps() + [_argv(rng) for _ in range(CALLS)]
    codes = []
    for argv in argvs:
        code, out, err, elapsed = _call(argv)
        codes.append(code)
        _check_call(argv, code, out, err, elapsed)
        if code == 0 and argv[0] == "ranks":
            _check_ranks(argv, out)
    # the grammar reaches every exit code it allows
    assert set(codes) == {0, 2, 3, 4}


def test_fuzzed_field_reps_classnum_chains_argv():
    rng = random.Random(SEED + 1)
    codes = set()
    for argv in _other_at_the_caps() + [_other_argv(rng) for _ in range(OTHER_CALLS)]:
        code, out, err, elapsed = _call(argv)
        codes.add(code)
        _check_call(argv, code, out, err, elapsed)
    # these four subcommands read no class data and no abelianization
    assert codes == {0, 2}


def _parsed(parser, argv):
    """The namespace that ``parser`` makes of ``argv``, or its exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, err.getvalue()


def test_a_parser_for_one_command_parses_as_the_full_parser():
    rng, other_rng = random.Random(SEED), random.Random(SEED + 1)
    argvs = _at_the_caps() + [_argv(rng) for _ in range(CALLS)]
    argvs += _other_at_the_caps() + [_other_argv(other_rng) for _ in range(OTHER_CALLS)]
    full = cli.build_parser()
    named = {command: cli.build_parser(command) for command in {argv[0] for argv in argvs}}
    assert len(named) == 6
    for argv in argvs:
        assert _parsed(named[argv[0]], argv) == _parsed(full, argv), argv[:6]


def _check_call(argv, code, out, err, elapsed):
    assert code in (0, 2, 3, 4), (argv[:6], code, err[-500:])
    assert elapsed < 5.0, (argv[:6], elapsed)
    if code == 0 and "--json" in argv:
        assert out == reference_json(json.loads(out)) + "\n", argv[:6]
    if code != 0:
        assert out == "" and err, argv[:6]
    # a bounded excerpt of any long input, and the program's own limits
    assert len(err) < 500 and "set_int_max_str_digits" not in err, (argv[:6], err[:500])
