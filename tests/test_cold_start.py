"""What a fresh ``import hilbertmod.cli`` loads.

A README command runs in a new interpreter, so every module its import
pulls in is paid for on each call.  The records are plain classes and
``canonical_json`` imports ``json`` on first use, so none of the heavy
modules below may load.  Every pipeline module must: the traced cold
child of ``perfbench`` imports only ``hilbertmod.cli`` and then looks each
traced module up in ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

NOT_LOADED = ("dataclasses", "inspect", "typing", "ast", "json")
LOADED = ("hilbertmod.quadfield", "hilbertmod.cyclicreps", "hilbertmod.finitek",
          "hilbertmod.assembler", "hilbertmod.pchain", "hilbertmod.classnumbers",
          "hilbertmod.cli")


def test_cli_import_loads_no_heavy_module_and_every_pipeline_module():
    names = NOT_LOADED + LOADED
    code = f"import hilbertmod.cli, sys; print(*[n in sys.modules for n in {names!r}])"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    loaded = dict(zip(names, proc.stdout.split()))
    assert [n for n in NOT_LOADED if loaded[n] == "True"] == []
    assert [n for n in LOADED if loaded[n] != "True"] == []
