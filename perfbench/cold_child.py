"""Traced cold request: ``python -S perfbench/cold_child.py ARGV...``.

Imports ``hilbertmod.cli`` (found through PYTHONPATH), installs the same
wrappers as the in-process traced run, runs ``main(ARGV)`` with its stdout
untouched, and writes the folded layer totals to stderr as a last line
starting with ``perfbench-trace ``.  The parent replaces the wall time by the
process's wall time, which includes interpreter start and import.
"""

import json
import sys
import time

from tracer import Tracer

TRACE_PREFIX = "perfbench-trace "


def main(argv) -> int:
    import hilbertmod.cli  # noqa: F401  main is looked up after the wrappers are installed

    tracer = Tracer()
    tracer.install()
    tracer.begin()
    t0 = time.perf_counter_ns()
    try:
        code = sys.modules["hilbertmod.cli"].main(argv)
    finally:
        tracer.end(time.perf_counter_ns() - t0)
        sys.stdout.flush()
        print(TRACE_PREFIX + json.dumps(tracer.totals.to_dict()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
