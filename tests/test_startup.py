"""What a fresh ``import opreduce.cli`` loads.

Every CLI process pays for its imports before any command runs, so the
package keeps heavy standard modules out of its import graph: its records
are slotted classes, not dataclasses (which import ``inspect``, ``ast``,
``dis`` and ``tokenize``), and its abstract types come from
``collections.abc``, not ``typing``.  ``-S`` keeps ``site`` and its ``.pth``
files from loading modules on the package's behalf.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
NOT_LOADED = ("dataclasses", "inspect", "typing")

PROGRAM = f"""
import json, sys
import opreduce.cli
print(json.dumps([opreduce.cli.__file__, [m for m in {NOT_LOADED!r} if m in sys.modules]]))
"""


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    run = subprocess.run(
        [sys.executable, "-S", "-c", PROGRAM],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    path, loaded = json.loads(run.stdout)
    assert Path(path).resolve().is_relative_to(SRC_DIR)
    assert loaded == []
