"""Cold-start timing: the README commands as fresh processes, this tree against REV.

    python tools/coldtime.py --against REV

Each ``hilbertmod ...`` line of the README's command block runs as
``python -S -m hilbertmod.cli ARGV`` with ``PYTHONDONTWRITEBYTECODE=1``,
from a copy of this tree's ``src/`` without ``__pycache__``, so that every
run compiles the package as a fresh checkout does.  REV is checked out with
``git worktree`` in a temporary directory (``identity.worktree``), its
``src/`` runs the same way, and the worktree is removed afterwards.

One sample is the wall time of one process.  A round runs every command
once on each side; within a round the side that goes first alternates
from command to command, and from round to round.  ``ROUNDS`` rounds give
100 samples per side (ten do not resolve 5 ms).  The output is a Markdown
table of each side's median and quartiles in ms, the change in the median
and the number of paired runs this tree won.  A command that exits nonzero
stops the run.

Stdlib only, and kept out of tier-1: one run takes about 11 s (Python 3.11,
2 vCPUs).
"""

from __future__ import annotations

import argparse
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from identity import ROOT, worktree

ROUNDS = 10  # of the ten README commands, per side


def wall_ms(src: Path, argv) -> float:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-S", "-m", "hilbertmod.cli", *argv],
                          cwd=src.parent, env=env, capture_output=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{shlex.join(argv)} exited {proc.returncode} from {src}:\n"
                         f"{proc.stderr.decode(errors='replace')}")
    return elapsed * 1e3


def measure(sides: dict, argvs) -> dict:
    """``{side: [ms, ...]}``, the i-th sample of each side from the same command and round."""
    samples = {name: [] for name in sides}
    names = list(sides)
    for r in range(ROUNDS):
        for i, argv in enumerate(argvs):
            for name in names if (r + i) % 2 == 0 else names[::-1]:
                samples[name].append(wall_ms(sides[name], argv))
    return samples


def table(samples: dict) -> str:
    lines = ["| side | samples | median ms | quartiles ms |", "|---|---:|---:|---|"]
    for name, times in samples.items():
        q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
        lines.append(f"| {name} | {len(times)} | {median:.1f} | [{q1:.1f}, {q3:.1f}] |")
    (here, here_ms), (rev, rev_ms) = samples.items()
    here_median, rev_median = statistics.median(here_ms), statistics.median(rev_ms)
    won = sum(a < b for a, b in zip(here_ms, rev_ms))
    lines += ["", f"{here} - {rev}: {here_median - rev_median:+.1f} ms in the median "
                  f"({(here_median / rev_median - 1) * 100:+.1f} %); {here} faster in "
                  f"{won} of {len(here_ms)} paired runs"]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--against", metavar="REV", required=True,
                        help="git revision to compare with")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from test_readme import readme_argvs

    with tempfile.TemporaryDirectory() as tmp, worktree(args.against) as tree:
        here = Path(tmp) / "tree" / "src"
        shutil.copytree(ROOT / "src", here, ignore=shutil.ignore_patterns("__pycache__"))
        print(table(measure({"this tree": here, args.against: tree / "src"}, readme_argvs())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
