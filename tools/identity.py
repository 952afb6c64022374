"""Same-behaviour digests: one fixed corpus through the CLI and the rank routes.

    python tools/identity.py                # digests of this tree's src/
    python tools/identity.py --against REV  # also run REV's src/; list what differs

The corpus:

* the argv of both fuzz tests of ``tests/test_cli_fuzz.py`` (seeds ``SEED``
  and ``SEED + 1``, with their at-the-caps argv);
* the README commands;
* ``-h`` and ``--help`` at the top and under every subcommand, and the edge
  argv ``[]``, ``bogus``, ``-``, ``-5 ranks``, ``--json``, ``--he ranks``,
  ``ranks 5 --q 1 extra``, ``ranks``, ``field 5 ranks``,
  ``ranks -- 5 --q 1`` and ``reps -h extra``;
* the first 300 requests (seed 11) of perfbench's three in-process
  workloads, each argv run as given and with ``--json`` toggled, and their
  library rank routes, recorded as value lists.

Each argv runs in process through ``hilbertmod.cli.main`` at COLUMNS=80,
and its exit code, stdout and stderr are hashed.  One SHA-256 is printed per
subcommand (argv that name none count as "top", the library routes as
"routes") and one for the whole corpus.  The digests are for one Python
version: argparse's help text differs between versions.

With ``--against REV``, REV is checked out with ``git worktree`` in a
temporary directory, the same corpus runs there with REV's ``src/`` in a
child process, and the worktree is removed.  Every item whose exit code,
stdout or stderr differ is listed, and the exit status is 1 if any do.

Stdlib only, and kept out of tier-1: one run takes about 5 s (Python 3.11,
2 vCPUs).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("field", "ranks", "whitehead", "reps", "classnum", "chains")
WORKLOADS = ("census_sweep", "degree_table", "heavy_inputs")
EDGE_ARGV = [[], ["bogus"], ["-"], ["-5", "ranks"], ["--json"], ["--he", "ranks"],
             ["ranks", "5", "--q", "1", "extra"], ["ranks"], ["field", "5", "ranks"],
             ["ranks", "--", "5", "--q", "1"], ["reps", "-h", "extra"]]


def corpus() -> list:
    """The items ``[kind, payload]``: kind "cli" with an argv, or a library
    route "case_table" or "e1" with its ``[d, classes, qs]``."""
    import test_cli_fuzz as fuzz
    import test_readme
    import workloads

    rng, other_rng = random.Random(fuzz.SEED), random.Random(fuzz.SEED + 1)
    argvs = fuzz._at_the_caps() + [fuzz._argv(rng) for _ in range(fuzz.CALLS)]
    argvs += fuzz._other_at_the_caps()
    argvs += [fuzz._other_argv(other_rng) for _ in range(fuzz.OTHER_CALLS)]
    argvs += [shlex.split(line, comments=True)[1:]
              for line in test_readme._block("## Command line", "sh")
              if line.startswith("hilbertmod ")]
    argvs += [[*level, flag] for level in [[], *([c] for c in COMMANDS)]
              for flag in ("-h", "--help")]
    argvs += EDGE_ARGV
    items = [["cli", argv] for argv in argvs]
    for workload in WORKLOADS:
        for _, kind, payload in workloads.take(workload, 11, 300):
            if kind == "cli":
                toggled = ([a for a in payload if a != "--json"] if "--json" in payload
                           else [*payload, "--json"])
                items += [["cli", list(payload)], ["cli", toggled]]
            else:
                items.append([kind, list(payload)])
    return items


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
                    print(json.dumps(InProcess._route(kind, *payload)))
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


def against(rev: str, items, results) -> int:
    """Run the corpus on REV's src/ in a child process; list every item that differs."""
    with tempfile.TemporaryDirectory() as tmp:
        tree, corpus_file = Path(tmp) / "rev", Path(tmp) / "corpus.json"
        corpus_file.write_text(json.dumps(items))
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tree), rev], check=True)
        try:
            child = subprocess.run(
                [sys.executable, __file__, "--replay", str(corpus_file), "--src", str(tree / "src")],
                capture_output=True, text=True)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=True)
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
