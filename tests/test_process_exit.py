"""How a CLI process ends: ``cli.run``, the entry of ``python -m hilbertmod.cli``.

``run`` flushes the answer and ends the process with ``os._exit``, so these
tests start real processes.  A closed stdout pipe exits 141 quietly in
either buffering mode, ``-h`` included; a closed stderr keeps the exit
status and puts nothing on stdout; an ``atexit`` hook still runs; a
profiler or a running thread keeps the interpreter's normal exit, and
without them no teardown runs at all.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
FINAL_LINE = "  p=5: k_p=2 r_p=1\n"  # of `reps 5`


def _python(*args, **env):
    return subprocess.run([sys.executable, "-S", *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC), **env))


def _as_main(prelude: str) -> str:
    """A program that runs ``prelude``, then ``hilbertmod reps 5`` as ``__main__``."""
    return (f"import runpy, sys\n{prelude}\n"
            "sys.argv = ['hilbertmod', 'reps', '5']\n"
            "runpy.run_module('hilbertmod.cli', run_name='__main__')\n")


def _in_shell(redirection: str, argv):
    """``python -S -m hilbertmod.cli argv`` started by sh with ``redirection``."""
    return subprocess.run(["sh", "-c", f'"$@" {redirection}', "sh", sys.executable, "-S",
                           "-m", "hilbertmod.cli", *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [["field", "5"], ["field", "5", "--json"], ["-h"]])
def test_closed_stdout_pipe_exits_141_and_prints_nothing(argv, unbuffered):
    """Buffered, the answer fails at ``run``'s flush; unbuffered, at ``main``'s
    print, or for ``-h`` at argparse's write, which would otherwise ignore it."""
    read, write = os.pipe()
    os.close(read)  # every write to the pipe now fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-S", "-m", "hilbertmod.cli", *argv],
                              stdout=write, stderr=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=str(SRC),
                                       PYTHONUNBUFFERED=unbuffered))
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


@pytest.mark.parametrize("redirection", ["2>&-", "2</dev/null"])
@pytest.mark.parametrize("argv, code", [
    (["field", "4"], 2), (["bogus"], 2), (["ranks", "7", "--q", "1"], 3),
    (["whitehead", "--classes", "2:1,3:1", "--mode", "sl", "--q", "1"], 4)])
def test_closed_stderr_keeps_the_exit_status_and_stdout_empty(argv, code, redirection):
    """Closed at start, ``sys.stderr`` is None, where ``print`` and argparse's
    usage would fall back to stdout; read-only, each write fails (EBADF)."""
    proc = _in_shell(redirection, argv)
    assert (proc.returncode, proc.stdout) == (code, "")


def test_help_on_a_stdout_closed_at_start_prints_nothing():
    """``sys.stdout`` is None, where argparse would write the help to stderr."""
    proc = _in_shell(">&-", ["-h"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_atexit_hook_runs_before_the_process_ends():
    proc = _python("-c", _as_main("import atexit; atexit.register(print, 'atexit hook ran')"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith(FINAL_LINE + "atexit hook ran\n")


def test_a_profiler_keeps_the_normal_exit_and_prints_its_stats():
    proc = _python("-m", "cProfile", "-m", "hilbertmod.cli", "field", "5")
    answer, _, stats = proc.stdout.partition("allowed orders: 2, 3, 5\n")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert answer.startswith("field Q(sqrt(5))\n") and "function calls" in stats


def test_a_running_thread_keeps_the_normal_exit():
    proc = _python("-c", _as_main(
        "import threading, time\n"
        "threading.Thread(target=lambda: (time.sleep(0.2), print('thread done'))).start()"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert FINAL_LINE in proc.stdout and "thread done\n" in proc.stdout


def test_no_teardown_runs_after_the_answer():
    """A finalizer that the interpreter's teardown would run does not run."""
    prelude = ("import os\n"
               "class Loud:\n"
               "    def __del__(self, write=os.write):\n"
               "        write(1, b'teardown ran')\n"
               "loud = Loud()")
    proc = _python("-c", _as_main(prelude))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "Z_5: r=3 c=2 q=2\n" + FINAL_LINE, "")
