"""Command line front end: every pipeline stage with machine-readable output.

Subcommands
    field N                    integral basis, elliptic trace census, orders
    ranks [N] --q LIST         rank K_q(Z[G]) - rank H_q(BG; K(Z)) per q
    whitehead [N] --mode M     Whitehead group expressions
    reps N                     representation counts of Z_N
    classnum D                 class number of an imaginary discriminant
    chains --poset P --m M --p P   chain census of the orbit poset

Exact values are printed as exact strings; decimal approximations appear
only behind ``--approx`` and are labeled as such.  ``--json`` switches to a
canonical JSON envelope (schema_version "1") whose serialization is
byte-stable under re-parsing: ``canonical_json`` writes the bytes of
``json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True)``.
Every numeric result carries a provenance tag: "paper-table" for values
taken from the built-in published tables, "computed" for everything
derived here.

``main`` dispatches through ``_COMMANDS``: a row's runner returns (result,
provenance), and only what is printed is rendered: the envelope under
``--json``, else the row's text renderer.  ``inputs`` echo the parsed
arguments other than ``--json``, the ``ranks`` degrees as integers.

Inputs are capped so that every command answers in bounded time:
square-free d <= 10^12, cyclic orders n <= 10^7 (``reps`` and ``--classes``),
10^4 ``--classes`` entries, class counts <= 10^100 in ``--classes``,
10^4 ``ranks --q`` degrees, at most 4300 digits in every integer (each
integer argument, each degree and each ``--ab`` integer), |D| <= 10^8 for
``classnum``, m <= 10^4 classes for ``chains``, 10^4 torsion summands and
free rank at most 10^100 in ``--ab``.  Past a cap the command exits 2 and
the message names the limit.  Every ``error:`` message is cut at 250 characters,
or fewer where a character takes more than one byte: at 250 bytes of UTF-8,
never inside a character.  Every argv a shell can pass (each argument under
Linux's 128 KiB) answers within 5 s; in-process ``main(argv)`` past that is
bounded by the caps, not promised 5 s: ``ranks 5 --q=`` with 10^4 degrees of
4300 digits takes 5.8 s (Python 3.11, 2 vCPUs).

A call whose first argument names a subcommand builds the top level and
that sub-parser only: argparse hands it the rest of the command line, and
the top level then prints at most its usage, whose choice list stays whole.
Every other call registers all six, which ``-h``, the invalid-choice error
and the missing-command error list.

Exit codes: 0 success, 2 invalid input, 3 missing class data,
4 missing abelianization, 1 internal error (its traceback follows on stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from ._text import MAX_DIGITS, clip, excerpt, over_digit_cap
from .abgroups import AbGroupExpr
from .assembler import (
    ClassCounts,
    GroupData,
    MissingAbelianizationError,
    MissingClassDataError,
    Mode,
    PERFECT_FIELDS,
    class_counts_for_field,
    rank_diff,
    whitehead_psl,
    whitehead_sl,
)
from .cyclicreps import rep_counts
from .classnumbers import reduced_forms
from .finitek import rank_case
from .pchain import enumerate_pchains, psl_poset, sl_poset
from .quadfield import FieldSpec, elliptic_trace_candidates, allowed_orders

__all__ = ["main", "canonical_json"]

SCHEMA_VERSION = "1"
MAX_DEGREES = 10**4  # degrees in one ``ranks --q`` list

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID_INPUT = 2
EXIT_MISSING_CLASS_DATA = 3
EXIT_MISSING_ABELIANIZATION = 4
_EXIT_CODES = {MissingClassDataError: EXIT_MISSING_CLASS_DATA,
               MissingAbelianizationError: EXIT_MISSING_ABELIANIZATION}  # other errors: 2


def canonical_json(payload) -> str:
    """The bytes of ``json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True)``."""
    from ._json import write  # on first use: no plain-text command needs its code or json
    parts = []
    write(payload, parts.append, "\n")
    return "".join(parts)


def _int_arg(text: str) -> int:
    """The argparse ``type=`` of every integer argument: ``int()``, within 4300 digits.

    The value is quoted through ``excerpt``: up to 20 characters it reads as
    argparse's own ``invalid int value: 'x'``, and a longer one is cut there.
    """
    if over_digit_cap(text):
        raise argparse.ArgumentTypeError(
            f"integers must have at most 4300 digits, got {excerpt(text, 20)}")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {excerpt(text, 20)}") from None


def _parse_q_list(text: str) -> list[int]:
    parts = text.split(",")
    # checked before int(), which would name an interpreter setting instead
    if max(map(len, parts)) > MAX_DIGITS and any(map(over_digit_cap, parts)):
        raise ValueError(f"degrees must have at most 4300 digits, "
                         f"got a longer entry in {excerpt(text)}")
    try:
        degrees = list(map(int, parts))
    except ValueError as exc:
        if not text.strip():
            raise ValueError("empty degree list") from None
        if not all(map(str.strip, parts)):
            raise ValueError(f"empty entry in degree list {excerpt(text)}") from None
        raise ValueError(f"bad degree list {excerpt(text)}: {exc}") from exc
    if len(degrees) > MAX_DEGREES:
        raise ValueError(f"at most 10^4 degrees per --q list are supported, got {len(degrees)}")
    return degrees


def _group_inputs(args) -> tuple[ClassCounts, FieldSpec | str, str]:
    """Resolve d / --classes into class counts; returns provenance tag too."""
    if args.d is None and args.classes is None:
        raise ValueError("pass a field discriminant d or --classes order:count,...")
    if args.d is not None:
        field = FieldSpec(args.d)
        if args.classes is not None:
            return ClassCounts.parse(args.classes), field, "computed"
        return class_counts_for_field(field), field, "paper-table"
    return ClassCounts.parse(args.classes), "generic", "computed"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_field(args) -> tuple[dict, dict]:
    field = FieldSpec(args.d)
    cand_payload = []
    for cand in elliptic_trace_candidates(field):
        entry = {"trace": str(cand), "psl_order": cand.psl_order}
        if args.approx:
            entry["approx_embeddings"] = list(cand.embeddings())
        cand_payload.append(entry)
    result = {
        "d": field.d,
        "omega": field.omega_str(),
        "integral_basis": ["1", field.omega_str()],
        "trace_candidates": cand_payload,
        "allowed_orders": list(allowed_orders(field)),
    }
    return result, {"trace_candidates": "computed", "allowed_orders": "computed"}


def _field_text(args, result) -> str:
    candidates = result["trace_candidates"]
    lines = [
        f"field Q(sqrt({result['d']}))",
        f"integral basis: 1, {result['omega']}",
        f"trace candidates ({len(candidates)}):",
    ]
    for entry in candidates:
        line = f"  {entry['trace']}  order {entry['psl_order']}"
        if args.approx:
            line += "  ~ ({:.6f}, {:.6f})".format(*entry["approx_embeddings"])
        lines.append(line)
    lines.append("allowed orders: " + ", ".join(map(str, result["allowed_orders"])))
    return "\n".join(lines)


def _cmd_ranks(args) -> tuple[dict, dict]:
    counts, source, counts_tag = _group_inputs(args)
    g = GroupData(source=source, class_counts=counts, mode=Mode.PSL)
    args.q = _parse_q_list(args.q)  # the inputs echo lists the parsed degrees
    rows = []
    by_row = {}  # rank_diff depends on q only through its row of the rank table
    for q in args.q:
        # keyed by the row's label: a str hashes in C, an Enum member in Python
        case_label = rank_case(q)._value_
        value = by_row.get(case_label)
        if value is None:
            value = by_row[case_label] = rank_diff(g, q)
        rows.append({"q": q, "value": value, "case": case_label})
    result = {
        "group": g.label(),
        "class_counts": {str(n): c for n, c in counts.entries},
        "m": counts.m,
        "rows": rows,
    }
    return result, {"class_counts": counts_tag, "m": counts_tag, "rows": "computed"}


def _ranks_text(args, result) -> str:
    classes = ", ".join(f"{n}:{c}" for n, c in result["class_counts"].items())
    lines = [f"{result['group']}: m = {result['m']} conjugacy classes ({classes})"]
    lines += [f"q={row['q']:<4d} {row['value']:<6d} ({row['case']})" for row in result["rows"]]
    return "\n".join(lines)


def _cmd_whitehead(args) -> tuple[dict, dict]:
    counts, source, counts_tag = _group_inputs(args)
    mode = Mode(args.mode)
    ab = None
    ab_tag = "computed"
    if args.ab is not None:
        ab = AbGroupExpr.parse(args.ab)
    elif isinstance(source, FieldSpec) and source.d in PERFECT_FIELDS:
        ab = AbGroupExpr.zero()  # the projective group is known perfect
        ab_tag = "paper-table"
    g = GroupData(source=source, class_counts=counts, mode=mode, abelianization=ab)
    if mode is Mode.PSL:
        expr = whitehead_psl(g, args.q)
    else:
        expr = whitehead_sl(g, args.q)
    result = {
        "group": g.label(),
        "mode": mode.value,
        "q": args.q,
        "whitehead": expr.to_json(),
        "abelianization": ab.to_json() if ab is not None else None,
    }
    provenance = {"whitehead": "computed", "class_counts": counts_tag,
                  "abelianization": ab_tag}
    return result, provenance


def _whitehead_text(args, result) -> str:
    return (f"Wh_{result['q']} of {result['mode'].upper()}2(O_k), k = {result['group']}: "
            f"{result['whitehead']['render']}")


def _cmd_reps(args) -> tuple[dict, dict]:
    rc = rep_counts(args.n)
    result = {
        "n": rc.n,
        "r": rc.r,
        "c": rc.c,
        "q": rc.q,
        "local": {str(p): {"k_p": kp, "r_p": rp} for p, kp, rp in rc.local},
    }
    provenance = {"r": "computed", "c": "computed", "q": "computed", "local": "computed"}
    return result, provenance


def _reps_text(args, result) -> str:
    lines = [f"Z_{result['n']}: r={result['r']} c={result['c']} q={result['q']}"]
    lines += [f"  p={p}: k_p={local['k_p']} r_p={local['r_p']}"
              for p, local in result["local"].items()]
    return "\n".join(lines)


def _cmd_classnum(args) -> tuple[dict, dict]:
    forms = reduced_forms(args.D)  # (a, b, c) tuples, written as JSON arrays
    result = {"D": args.D, "class_number": len(forms), "reduced_forms": forms}
    return result, {"class_number": "computed", "reduced_forms": "computed"}


def _classnum_text(args, result) -> str:
    return (f"h({result['D']}) = {result['class_number']}\n"
            f"reduced forms: {', '.join(map(str, result['reduced_forms']))}")


def _cmd_chains(args) -> tuple[dict, dict]:
    factory = psl_poset if args.poset == "psl" else sl_poset
    chains = enumerate_pchains(factory(args.m), args.p)
    result = {"count": len(chains), "chains": chains}
    return result, {"count": "computed", "chains": "computed"}


def _chains_text(args, result) -> str:
    lines = [f"{args.poset} poset with m={args.m}: {result['count']} chains at p={args.p}"]
    lines += ["  " + " < ".join(nodes) for nodes in result["chains"]]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def _help_width() -> int:
    """The help width argparse picks: ``shutil.get_terminal_size().columns - 2``.

    That is COLUMNS when it is a positive int, else the width of the
    terminal on ``sys.__stdout__``, else 80, computed here without shutil.
    """
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns or 80
        except (AttributeError, ValueError, OSError):
            columns = 80
    return columns - 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's messages quote whole values
        super().error(clip(message))


def _field_arguments(p) -> None:
    p.add_argument("d", type=_int_arg, help="square-free integer in [2, 10^12]")
    p.add_argument("--approx", action="store_true",
                   help="also print decimal approximations (approximate!)")


def _ranks_arguments(p) -> None:
    p.add_argument("d", type=_int_arg, nargs="?", default=None)
    p.add_argument("--classes", help="order:count pairs, e.g. 2:2,3:2,5:2")
    p.add_argument("--q", required=True,
                   help="comma-separated degrees; write --q=-1,7 when the list "
                        "starts with a negative degree")


def _whitehead_arguments(p) -> None:
    p.add_argument("d", type=_int_arg, nargs="?", default=None)
    p.add_argument("--classes", help="order:count pairs, e.g. 2:1,3:1")
    p.add_argument("--mode", choices=["psl", "sl"], default="psl")
    p.add_argument("--q", type=_int_arg, required=True)
    p.add_argument("--ab", help='abelianization of the projective group, e.g. "Z/6" '
                                'or "0"; at most 10^4 torsion summands')


def _reps_arguments(p) -> None:
    p.add_argument("n", type=_int_arg)


def _classnum_arguments(p) -> None:
    p.add_argument("D", type=_int_arg)


def _chains_arguments(p) -> None:
    p.add_argument("--poset", choices=["psl", "sl"], required=True)
    p.add_argument("--m", type=_int_arg, required=True,
                   help="number of maximal conjugacy classes, at most 10^4")
    p.add_argument("--p", type=_int_arg, required=True, help="chain length index")


# Per subcommand: help line, argument declarer, runner returning (result,
# provenance) and text renderer, in the order -h and invalid-choice errors list them.
_COMMANDS = {
    "field": ("elliptic trace census of Q(sqrt(d))", _field_arguments,
              _cmd_field, _field_text),
    "ranks": ("rank differences per degree q", _ranks_arguments, _cmd_ranks, _ranks_text),
    "whitehead": ("Whitehead group expression", _whitehead_arguments,
                  _cmd_whitehead, _whitehead_text),
    "reps": ("representation counts of Z_n", _reps_arguments, _cmd_reps, _reps_text),
    "classnum": ("class number of a discriminant D < 0", _classnum_arguments,
                 _cmd_classnum, _classnum_text),
    "chains": ("chain census of an orbit poset", _chains_arguments, _cmd_chains, _chains_text),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser with sub-parser ``command`` only, or all six when None.

    With one sub-parser registered, the top-level usage still lists all six
    choices: the subparsers action gets them as its metavar.  It gets none
    when all six are registered, since a metavar would rename the action in
    the invalid-choice and missing-command errors.
    """
    # Every parser's formatters get their width up front.  Without one, each
    # formatter argparse makes (one per argument, to check its metavar) asks
    # shutil for the terminal size, and importing shutil costs about 5 ms of
    # every cold start.
    formatter = partial(argparse.HelpFormatter, width=_help_width())
    parser = _Parser(
        prog="hilbertmod",
        description="Exact Whitehead-group and K-theory rank calculator "
                    "for Hilbert modular groups over real quadratic fields.",
        formatter_class=formatter,
    )
    # A prog of its own spares add_subparsers formatting the top-level usage
    # to name the sub-parsers; with no positional argument before it, that
    # usage reads "hilbertmod" too.
    sub = parser.add_subparsers(
        prog="hilbertmod", dest="command", required=True,
        parser_class=partial(_Parser, formatter_class=formatter),
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}")
    for name in _COMMANDS if command is None else [command]:
        help_text, declare, _, _ = _COMMANDS[name]
        p_cmd = sub.add_parser(name, help=help_text)
        declare(p_cmd)
        p_cmd.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A leading subcommand name gets the rest of argv, so only its sub-parser
    # is built; any other argv may end in a message that lists all six.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    _, _, run, render = _COMMANDS[args.command]
    try:
        result, provenance = run(args)
        if args.json:
            inputs = {k: v for k, v in vars(args).items() if k not in ("command", "json")}
            print(canonical_json({
                "schema_version": SCHEMA_VERSION,
                "command": args.command,
                "inputs": inputs,
                "result": result,
                "provenance": provenance,
            }))
        else:
            print(render(args, result))
        return EXIT_OK
    except (MissingClassDataError, MissingAbelianizationError, ValueError) as exc:
        print(f"error: {clip(str(exc))}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), EXIT_INVALID_INPUT)
    except Exception as exc:
        import traceback  # on first use: only an internal error prints one
        print(f"internal error: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
