"""``import repro`` stays lean: heavy optional modules load on first use."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_scipy_ndimage_not_imported_eagerly():
    # Connected-component labelling imports scipy.ndimage lazily; a
    # module-level import would add ~70 ms to every service start.
    # Nothing in the package forks a process pool, so multiprocessing
    # must not load either.
    code = (
        "import sys, repro, repro.service; "
        "print('scipy.ndimage' in sys.modules, 'multiprocessing' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"
