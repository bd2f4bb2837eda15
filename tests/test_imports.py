"""Each module of the package imports on its own.

The package re-exports nothing, so no import of ``recal`` loads the modules
in a fixed order first. A module imported alone in a fresh interpreter shows
an import cycle that a fixed order would hide.
"""
from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import recal

MODULES = sorted(module.name for module in pkgutil.iter_modules(recal.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone_in_a_fresh_interpreter(tmp_path, module):
    source = str(Path(recal.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", f"import recal.{module}"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": source}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
