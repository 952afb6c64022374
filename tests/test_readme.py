"""README drift: its command block and library example must still run as shown."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from hilbertmod import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


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


def test_readme_library_example_prints_its_comments():
    code = _block("## Library example", "python")
    expected = [ln.split("# ", 1)[1].strip() for ln in code if ln.lstrip().startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec("\n".join(code), {})
    assert out.getvalue().splitlines() == expected
