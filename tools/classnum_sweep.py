"""The reduced-form enumeration against the two oracles of tests/oracles.py.

    python tools/classnum_sweep.py

``classnumbers.reduced_forms`` is compared with ``oracles.reduced_forms_scan``
(every a and b tried) on every discriminant in [-10^4, -3], and with
``oracles.reduced_forms_trial_division`` (every divisor tried, one b at a
time) on SAMPLE discriminants drawn with seed SEED from [-10^7, -3].  The
first list that differs is printed with its discriminant and the exit
status is 1; otherwise one line of counts per comparison is printed and the
exit status is 0.

Stdlib only, and kept out of tier-1: one run takes about 2 s (Python 3.11,
2 vCPUs).
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from hilbertmod.classnumbers import is_discriminant, reduced_forms
from oracles import reduced_forms_scan, reduced_forms_trial_division

SCAN_LOW = -10**4
SAMPLE, SEED, SAMPLE_LOW = 40, 29, -10**7


def sample() -> list[int]:
    """SAMPLE distinct discriminants in [SAMPLE_LOW, -3], drawn with seed SEED."""
    rng, drawn = random.Random(SEED), {}
    while len(drawn) < SAMPLE:
        D = rng.randrange(SAMPLE_LOW, -2)
        if is_discriminant(D):
            drawn[D] = None
    return list(drawn)


def sweep(name: str, oracle, discriminants) -> int:
    """Compare on each discriminant; print the counts and return 0, or
    print the first that differs and return 1."""
    forms = 0
    for D in discriminants:
        got = reduced_forms(D)
        if got != oracle(D):
            print(f"reduced_forms({D}) differs from {name}({D})")
            return 1
        forms += len(got)
    print(f"{name}: {len(discriminants)} discriminants from {min(discriminants)} to "
          f"{max(discriminants)}, {forms} forms, 0 differ")
    return 0


def main() -> int:
    scanned = [D for D in range(SCAN_LOW, -2) if is_discriminant(D)]
    return (sweep("reduced_forms_scan", reduced_forms_scan, scanned)
            or sweep("reduced_forms_trial_division", reduced_forms_trial_division, sample()))


if __name__ == "__main__":
    sys.exit(main())
