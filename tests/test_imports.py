"""Import-time contract: heavy optional dependencies load where they are used."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_leaves_scipy_stats_and_special_unloaded():
    # A fresh interpreter: this test process may already have imported them.
    probe = ("import sys, repro.scenarios.cli; "
             "print(sorted(m for m in ('scipy.stats', 'scipy.special', 'scipy.linalg') "
             "if m in sys.modules))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
