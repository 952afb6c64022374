"""README drift: its command block and library example must still run as shown."""

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from hilbertmod import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _block(heading: str, lang: str) -> list[str]:
    """Lines of the first ``lang`` code block after the ``heading`` line."""
    match = re.search(rf"^{re.escape(heading)}$.*?^```{lang}\n(.*?)^```$", README,
                      re.MULTILINE | re.DOTALL)
    assert match, heading
    return match.group(1).splitlines()


def _commands() -> list[str]:
    """The ``hilbertmod ...`` lines of the README's command block."""
    return [ln for ln in _block("## Command line", "sh") if ln.startswith("hilbertmod ")]


def readme_argvs() -> list[list[str]]:
    """The argv after ``hilbertmod`` of each README command, as a shell splits it."""
    return [shlex.split(line, comments=True)[1:] for line in _commands()]


def test_readme_commands_exit_zero(capsys):
    lines = _commands()
    assert len(lines) == 10
    for line, argv in zip(lines, readme_argvs()):
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0, line
        if "# => " in line:
            assert out.rstrip().endswith(line.split("# => ", 1)[1].strip()), (line, out)


def _main_status(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse's -h and usage errors
        return exc.code


def test_main_module_matches_in_process_main(capsys, monkeypatch):
    """``python -S -m hilbertmod.cli`` prints what ``cli.main`` prints, exit code too.

    Beyond the README commands: exits 2, 3 and 4, an argparse error, ``-h``
    (at the width COLUMNS sets), and stdout closed at start (``>&-``),
    where ``print`` writes nowhere and the status is ``main``'s.
    """
    argvs = readme_argvs()
    argvs.append(argvs[-1] + ["--json"])
    argvs += [["field", "4"], ["ranks", "7", "--q", "1"],
              ["whitehead", "--classes", "2:1,3:1", "--mode", "sl", "--q", "1"],
              ["bogus"], ["-h"]]
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-S", "-m", "hilbertmod.cli"]
    for argv in argvs:
        code = _main_status(argv)
        captured = capsys.readouterr()
        proc = subprocess.run([*command, *argv], capture_output=True, text=True, env=env)
        expected = (code, captured.out, captured.err)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected, argv
    for argv in (["field", "5"], ["field", "4"]):
        with contextlib.redirect_stdout(None):
            code = _main_status(argv)
        proc = subprocess.run(["sh", "-c", '"$@" >&-', "sh", *command, *argv],
                              stderr=subprocess.PIPE, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (code, capsys.readouterr().err), argv


def test_readme_library_example_prints_its_comments():
    code = _block("## Library example", "python")
    expected = [ln.split("# ", 1)[1].strip() for ln in code if ln.lstrip().startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec("\n".join(code), {})
    assert out.getvalue().splitlines() == expected
