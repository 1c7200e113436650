"""The service layer stands on the library alone.

``import repro.service`` must load neither the experiment harness nor
the process-pool layer: a fresh interpreter checks ``sys.modules``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = (
    "import sys, repro.service; "
    "print(sorted(m for m in sys.modules "
    "if m.startswith(('repro.experiments', 'repro.parallel'))))"
)


def test_service_import_loads_neither_experiments_nor_parallel():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert result.stdout.strip() == "[]"
