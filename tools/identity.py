"""Same-behaviour digests: one fixed corpus through the CLI and the rank routes.

    python tools/identity.py                # digests of this tree's src/
    python tools/identity.py --against REV  # also run REV's src/; list what differs

The corpus:

* the argv of both fuzz tests of ``tests/test_cli_fuzz.py`` (seeds ``SEED``
  and ``SEED + 1``, with their at-the-caps argv);
* the README commands;
* ``-h`` and ``--help`` at the top and under every subcommand, and the edge
  argv of ``tests/test_cli.py`` (``EDGE_ARGV``);
* the first 300 requests (seed 11) of perfbench's three in-process
  workloads, each argv run as given and with ``--json`` toggled, and their
  library rank routes, recorded as value lists;
* both library rank routes at ``ROW_DEGREES``, one degree per row of the
  rank table, on each group source those route requests use (the five of
  ``degree_table``), since its sampled degree lists need not hold 0 or 1;
  and on the same sources the two relative first pages, over ``psl_poset``
  and over ``sl_poset``, as their columns and column ranks at
  ``ROW_DEGREES``, so that each of the three pages ``build_E1`` builds is
  covered.

That is 2,742 items.

Each argv runs in process through ``hilbertmod.cli.main`` at COLUMNS=80,
and its exit code, stdout and stderr are hashed.  One SHA-256 is printed per
subcommand (argv that name none count as "top", the library routes as
"routes") and one for the whole corpus.  The digests are for one Python
version: argparse's help text differs between versions.

With ``--against REV``, REV is checked out with ``git worktree`` in a
temporary directory, the same corpus runs there with REV's ``src/`` in a
child process, and the worktree is removed.  Every item whose exit code,
stdout or stderr differ is listed, and the exit status is 1 if any do.

Stdlib only, apart from the pytest that ``tests/test_cli.py`` imports, and
kept out of tier-1: one run takes about 5 s (Python 3.11, 2 vCPUs).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("field", "ranks", "whitehead", "reps", "classnum", "chains")
WORKLOADS = ("census_sweep", "degree_table", "heavy_inputs")
ROW_DEGREES = [-2, -1, 0, 1, 5, 7]  # one degree per row of the rank table
RELATIVE_PAGES = {"psl_relative": "psl_poset", "sl_relative": "sl_poset"}  # kind -> builder


def corpus() -> list:
    """The items ``[kind, payload]``: kind "cli" with an argv, or a library
    route "case_table", "e1" or one of ``RELATIVE_PAGES`` with its
    ``[d, classes, qs]``."""
    import test_cli
    import test_cli_fuzz as fuzz
    import test_readme
    import workloads

    rng, other_rng = random.Random(fuzz.SEED), random.Random(fuzz.SEED + 1)
    argvs = fuzz._at_the_caps() + [fuzz._argv(rng) for _ in range(fuzz.CALLS)]
    argvs += fuzz._other_at_the_caps()
    argvs += [fuzz._other_argv(other_rng) for _ in range(fuzz.OTHER_CALLS)]
    argvs += test_readme.readme_argvs()
    argvs += [[*level, flag] for level in [[], *([c] for c in COMMANDS)]
              for flag in ("-h", "--help")]
    argvs += test_cli.EDGE_ARGV
    items = [["cli", argv] for argv in argvs]
    for workload in WORKLOADS:
        for _, kind, payload in workloads.take(workload, 11, 300):
            if kind == "cli":
                toggled = ([a for a in payload if a != "--json"] if "--json" in payload
                           else [*payload, "--json"])
                items += [["cli", list(payload)], ["cli", toggled]]
            else:
                items.append([kind, list(payload)])
    routes = [payload for kind, payload in items if kind != "cli"]
    for d, classes in dict.fromkeys((d, classes) for d, classes, _ in routes):
        items += [[route, [d, classes, ROW_DEGREES]]
                  for route in ("case_table", "e1", *RELATIVE_PAGES)]
    return items


def relative_page(kind: str, d, classes, qs) -> list:
    """The relative first page over the poset ``kind`` names: each column
    as ``[p, [[token kind, order, multiplicity], ...]]``, then each
    column's rank at every degree of ``qs``."""
    from hilbertmod import pchain
    from hilbertmod.assembler import ClassCounts, class_counts_for_field
    from hilbertmod.quadfield import FieldSpec

    counts = (ClassCounts.parse(classes) if classes is not None
              else class_counts_for_field(FieldSpec(d)))
    poset = getattr(pchain, RELATIVE_PAGES[kind])(counts)
    page = pchain.build_E1(poset, relative_to_trivial=True, class_counts=counts)
    columns = [[p, [[token.kind.value, token.order, mult] for token, mult in column.items()]]
               for p, column in page.items()]
    return [columns, [[pchain.rank_E1_column(page, p, q) for p in page] for q in qs]]


def group(kind: str, payload) -> str:
    if kind != "cli":
        return "routes"
    named = next((arg for arg in payload if not arg.startswith("-")), None)
    return named if named in COMMANDS else "top"


def outcomes(items) -> list:
    """[exit code, SHA-256 of stdout, SHA-256 of stderr] per item, run in this process."""
    from hilbertmod import cli
    from run import InProcess  # perfbench's library routes, on the modules cli loaded

    def sha(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8", "backslashreplace")).hexdigest()

    results = []
    for kind, payload in items:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if kind == "cli":
                    code = cli.main(list(payload))
                else:
                    route = relative_page if kind in RELATIVE_PAGES else InProcess._route
                    print(json.dumps(route(kind, *payload)))
                    code = 0
            except SystemExit as exc:  # argparse exits on -h and on a rejected argv
                code = exc.code
            except Exception as exc:  # a library route that raises
                print(repr(exc), file=sys.stderr)
                code = 1
        results.append([code, sha(out.getvalue()), sha(err.getvalue())])
    return results


def digests(items, results) -> dict:
    """One SHA-256 per group and one, "combined", over every item in order."""
    hashes = {}
    for (kind, payload), result in zip(items, results):
        line = json.dumps([kind, payload, *result]).encode() + b"\n"
        for name in (group(kind, payload), "combined"):
            hashes.setdefault(name, [0, hashlib.sha256()])
            hashes[name][0] += 1
            hashes[name][1].update(line)
    return {name: (count, h.hexdigest()) for name, (count, h) in hashes.items()}


@contextlib.contextmanager
def worktree(rev: str):
    """REV checked out with ``git worktree`` in a temporary directory, removed afterwards."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "rev"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tree), rev], check=True)
        try:
            yield tree
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=True)


def against(rev: str, items, results) -> int:
    """Run the corpus on REV's src/ in a child process; list every item that differs."""
    with worktree(rev) as tree:
        corpus_file = tree.parent / "corpus.json"
        corpus_file.write_text(json.dumps(items))
        child = subprocess.run(
            [sys.executable, __file__, "--replay", str(corpus_file), "--src", str(tree / "src")],
            capture_output=True, text=True)
    if child.returncode != 0:
        print(f"the run on {rev} failed:\n{child.stderr}", file=sys.stderr)
        return 2
    theirs = json.loads(child.stdout)
    differ = 0
    for (kind, payload), ours, other in zip(items, results, theirs):
        parts = [part for part, a, b in zip(("exit code", "stdout", "stderr"), ours, other)
                 if a != b]
        if parts:
            differ += 1
            print(f"differs ({', '.join(parts)}): {kind} {json.dumps(payload)[:160]}")
    print(f"{differ} of {len(items)} items differ from {rev}")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--against", metavar="REV", help="git revision to compare with")
    parser.add_argument("--replay", metavar="FILE", help=argparse.SUPPRESS)
    parser.add_argument("--src", default=str(ROOT / "src"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ["COLUMNS"] = "80"
    sys.path[:0] = [args.src, str(ROOT / "perfbench"), str(ROOT / "tests")]
    if args.replay:  # the child of --against: print the outcomes as JSON
        print(json.dumps(outcomes(json.loads(Path(args.replay).read_text()))))
        return 0
    items = corpus()
    results = outcomes(items)
    for name, (count, digest) in sorted(digests(items, results).items(),
                                        key=lambda kv: (kv[0] == "combined", kv[0])):
        print(f"{name:<10} {count:>5}  {digest}")
    return against(args.against, items, results) if args.against else 0


if __name__ == "__main__":
    sys.exit(main())
