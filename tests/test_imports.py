"""Each module of the package imports on its own, and each of its functions
and classes has a use outside the tests.

The package re-exports nothing, so no import of ``recal`` loads the modules
in a fixed order first. A module imported alone in a fresh interpreter shows
an import cycle that a fixed order would hide.
"""
from __future__ import annotations

import ast
import os
import pkgutil
import re
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


def test_every_top_level_function_and_class_is_used_by_the_package_or_the_benchmark():
    # no function exists only for a test: each is named in the package past its own definition, or in the benchmark
    root = Path(__file__).parents[1]
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted((root / "src" / "recal").glob("*.py"))]
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    bench = "\n".join(path.read_text(encoding="utf-8") for path in sorted((root / "bench").glob("*.py")))
    defined = [node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert len(defined) > 100
    assert [name for name in defined if name not in used and not re.search(rf"\b{name}\b", bench)] == []
