"""What a fresh ``import hilbertmod.cli`` loads.

A README command runs in a new interpreter, so every module its import
pulls in is paid for on each call.  The records are plain classes and
``canonical_json`` imports ``json`` on first use, so none of the heavy
modules below may load.  Every pipeline module must: the traced cold
child of ``perfbench`` imports only ``hilbertmod.cli`` and then looks each
traced module up in ``sys.modules``.

Running a command must not load ``shutil`` (argparse imports it to size
help text, and it pulls in the compression modules), ``fractions`` or
``decimal`` (the trace census holds integers, so not even ``field`` builds
a ``Fraction``) or ``json`` (only ``--json`` serializes: ``canonical_json``
imports its writer, ``hilbertmod._json``, and with it json, on first use).
"""

from test_process_exit import cold

NOT_LOADED = ("dataclasses", "inspect", "typing", "ast", "json")
LOADED = ("hilbertmod.quadfield", "hilbertmod.cyclicreps", "hilbertmod.finitek",
          "hilbertmod.assembler", "hilbertmod.pchain", "hilbertmod.classnumbers",
          "hilbertmod.cli")


def test_cli_import_loads_no_heavy_module_and_every_pipeline_module():
    names = NOT_LOADED + LOADED
    code = f"import hilbertmod.cli, sys; print(*[n in sys.modules for n in {names!r}])"
    proc = cold("-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded = dict(zip(names, proc.stdout.split()))
    assert [n for n in NOT_LOADED if loaded[n] == "True"] == []
    assert [n for n in LOADED if loaded[n] != "True"] == []


# Plain-text commands; run in one process, they load none of these.  The
# --json command then loads json and none of the others.
COMMANDS = (["reps", "5"], ["classnum", "-23"], ["chains", "--poset", "sl", "--m", "6", "--p", "2"],
            ["ranks", "5", "--q", "5,7,1,0,-1"], ["whitehead", "5", "--mode", "sl", "--q", "1"],
            ["field", "5", "--approx"])
JSON_COMMAND = ["field", "5", "--json"]
NOT_LOADED_BY_COMMANDS = ("fractions", "decimal", "shutil", "bz2", "lzma", "zlib", "json")
FIELD_5 = """\
field Q(sqrt(5))
integral basis: 1, (1+sqrt(5))/2
trace candidates (7):
  -1  order 3
  -1/2 - 1/2*sqrt(5)  order 5
  -1/2 + 1/2*sqrt(5)  order 5
  0  order 2
  1/2 - 1/2*sqrt(5)  order 5
  1/2 + 1/2*sqrt(5)  order 5
  1  order 3
allowed orders: 2, 3, 5
"""


def test_commands_load_neither_shutil_nor_fractions():
    code = (
        "import io, sys\n"
        "from hilbertmod.cli import main\n"
        "real, sys.stdout = sys.stdout, io.StringIO()\n"
        f"codes = [main(argv) for argv in {COMMANDS!r}]\n"
        f"loaded = [n for n in {NOT_LOADED_BY_COMMANDS!r} if n in sys.modules]\n"
        f"codes.append(main({JSON_COMMAND!r}))\n"
        f"after_json = [n for n in {NOT_LOADED_BY_COMMANDS!r} if n in sys.modules]\n"
        "sys.stdout = real\n"
        "print(codes, loaded, after_json)\n"
        "main(['field', '5'])\n"
    )
    proc = cold("-c", code)
    assert proc.returncode == 0, proc.stderr
    summary, _, field = proc.stdout.partition("\n")
    assert summary == "[0, 0, 0, 0, 0, 0, 0] [] ['json']"
    assert field == FIELD_5
