from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import evokernel

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_all_names_resolve_once_in_sorted_order():
    names = evokernel.__all__
    assert [name for name in names if not hasattr(evokernel, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_readme_python_examples_run():
    """Each README example runs as written, so a renamed or deleted public name shows here."""
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    for block in blocks:
        done = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("path", sorted((SRC / "evokernel").glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    """Every module-level import is read as a name in its module, or re-exported in ``__all__``."""
    tree = ast.parse(path.read_text())
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in imported if name not in used | exported] == []
