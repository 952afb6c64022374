"""How a CLI process ends: ``cli.run``, the entry of ``python -m hilbertmod.cli``.

``run`` flushes the answer and ends the process with ``os._exit``, so these
tests start real processes, all through ``cold``.  One table gives the exit
status of each failed or closed stream, the same buffered or not: 141 when
stdout's reader has gone, 120 when stdout cannot take the answer or
``-h``, else ``main``'s status; two more tests run the pipe row for every
kind of answer and the closed-stderr rows for every error status.  An
``atexit`` hook still runs; a profiler or a running thread keeps the
interpreter's normal exit, and without them no teardown runs at all.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
FINAL_LINE = "  p=5: k_p=2 r_p=1\n"  # of `reps 5`


def cold(*args, redirection="", unbuffered="", **streams) -> subprocess.CompletedProcess:
    """``python -S args`` in a fresh process, its output captured as text.

    PYTHONPATH is src and PYTHONUNBUFFERED is ``unbuffered`` ("" buffers,
    "1" does not), both set here, so that no run inherits its buffering
    from the environment that runs the tests.  A ``redirection`` such as
    ``2>&-`` has sh start the process with it; ``streams`` (``stdout=fd``,
    say) replace the captured ones.
    """
    command = [sys.executable, "-S", *args]
    if redirection:
        command = ["sh", "-c", f'"$@" {redirection}', "sh", *command]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED=unbuffered)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    return subprocess.run(command, text=True, env=env, **streams)


def _as_main(prelude: str) -> str:
    """A program that runs ``prelude``, then ``hilbertmod reps 5`` as ``__main__``."""
    return (f"import runpy, sys\n{prelude}\n"
            "sys.argv = ['hilbertmod', 'reps', '5']\n"
            "runpy.run_module('hilbertmod.cli', run_name='__main__')\n")


# An answer, -h, an error of main's and one of argparse's.
ARGV = (["field", "5"], ["-h"], ["ranks", "7", "--q", "1"], ["bogus"])
# Stream condition -> the exit status of each ARGV entry, buffered or not.
# "pipe" is a stdout pipe whose reader has closed; the rest are sh redirections.
# Closed at start, a stream is None; read-only, each write fails with EBADF.
STREAM_STATUS = {
    "pipe":        (141, 141, 3, 2),
    ">&-":         (0, 0, 3, 2),
    "1</dev/null": (120, 120, 3, 2),
    ">/dev/full":  (120, 120, 3, 2),
    "2>&-":        (0, 0, 3, 2),
    "2</dev/null": (0, 0, 3, 2),
    "2>/dev/full": (0, 0, 3, 2),
}


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("condition, argv, status", [
    (condition, argv, status) for condition, row in STREAM_STATUS.items()
    for argv, status in zip(ARGV, row)], ids=lambda value: " ".join(value)
    if isinstance(value, list) else None)
def test_exit_status_per_stream(condition, argv, status, unbuffered):
    """Buffered, a stdout error meets ``run``'s flush; unbuffered, ``main``'s
    print or argparse's help.  Either way ``run`` decides the status, and
    stderr says at most one ``error:`` line about it.  A failed stderr puts
    nothing on stdout instead."""
    command = ("-m", "hilbertmod.cli", *argv)
    if condition == "pipe":
        read, write = os.pipe()
        os.close(read)  # every write to the pipe now fails with EPIPE
        try:
            proc = cold(*command, unbuffered=unbuffered, stdout=write)
        finally:
            os.close(write)
    else:
        proc = cold(*command, redirection=condition, unbuffered=unbuffered)
    assert proc.returncode == status, proc.stderr
    if status:
        assert proc.stdout in ("", None)
    if status in (0, 141):
        assert proc.stderr == ""
    if status == 120:
        assert proc.stderr.startswith("error: cannot write to stdout: ")
        assert proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [["field", "5"], ["field", "5", "--json"], ["-h"]])
def test_closed_stdout_pipe_exits_141_and_prints_nothing(argv, unbuffered):
    """The table's pipe row for each way an answer reaches stdout: text,
    ``--json`` and argparse's help."""
    read, write = os.pipe()
    os.close(read)  # every write to the pipe now fails with EPIPE
    try:
        proc = cold("-m", "hilbertmod.cli", *argv, unbuffered=unbuffered, stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


@pytest.mark.parametrize("redirection", ["2>&-", "2</dev/null"])
@pytest.mark.parametrize("argv, code", [
    (["field", "4"], 2), (["bogus"], 2), (["ranks", "7", "--q", "1"], 3),
    (["whitehead", "--classes", "2:1,3:1", "--mode", "sl", "--q", "1"], 4)])
def test_closed_stderr_keeps_the_exit_status_and_stdout_empty(argv, code, redirection):
    """The table's closed-stderr rows for each of main's error statuses,
    buffered and not.  Closed at start, ``sys.stderr`` is None, where
    ``print`` and argparse's usage would fall back to stdout; read-only,
    each write fails (EBADF)."""
    for unbuffered in ("", "1"):
        proc = cold("-m", "hilbertmod.cli", *argv, redirection=redirection,
                    unbuffered=unbuffered)
        assert (proc.returncode, proc.stdout) == (code, ""), unbuffered


def test_atexit_hook_runs_before_the_process_ends():
    proc = cold("-c", _as_main("import atexit; atexit.register(print, 'atexit hook ran')"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith(FINAL_LINE + "atexit hook ran\n")


def test_a_profiler_keeps_the_normal_exit_and_prints_its_stats():
    proc = cold("-m", "cProfile", "-m", "hilbertmod.cli", "field", "5")
    answer, _, stats = proc.stdout.partition("allowed orders: 2, 3, 5\n")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert answer.startswith("field Q(sqrt(5))\n") and "function calls" in stats


def test_a_running_thread_keeps_the_normal_exit():
    proc = cold("-c", _as_main(
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
    proc = cold("-c", _as_main(prelude))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "Z_5: r=3 c=2 q=2\n" + FINAL_LINE, "")
