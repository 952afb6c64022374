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


def test_readme_commands_exit_zero(capsys):
    lines = [ln for ln in _block("## Command line", "sh") if ln.startswith("hilbertmod ")]
    assert len(lines) == 10
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0, line
        if "# => " in line:
            assert out.rstrip().endswith(line.split("# => ", 1)[1].strip()), (line, out)


def test_main_module_matches_in_process_main(capsys):
    """``python -S -m hilbertmod.cli`` prints what ``cli.main`` prints, exit code too."""
    lines = [ln for ln in _block("## Command line", "sh") if ln.startswith("hilbertmod ")]
    argvs = [shlex.split(line, comments=True)[1:] for line in lines]
    argvs.append(argvs[-1] + ["--json"])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in argvs:
        code = cli.main(argv)
        captured = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-S", "-m", "hilbertmod.cli", *argv],
                              capture_output=True, text=True, env=env)
        expected = (code, captured.out, captured.err)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected, argv


def test_readme_library_example_prints_its_comments():
    code = _block("## Library example", "python")
    expected = [ln.split("# ", 1)[1].strip() for ln in code if ln.lstrip().startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec("\n".join(code), {})
    assert out.getvalue().splitlines() == expected
