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


def test_every_private_module_name_is_read():
    """Every module-level private function, class and constant of the package is read, as a
    name or an attribute outside its own definition, somewhere in ``src/``; an import or a
    docstring's mention is no read. Dunder names are left out."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    definitions = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            definitions += [(module, name, node) for name in names if name.startswith("_") and not name.endswith("__")]
    reads = [
        (getattr(node, "id", None) or node.attr, node)
        for tree in trees.values()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)) or isinstance(node, ast.Attribute)
    ]
    unread = []
    for module, name, definition in definitions:
        own = {id(node) for node in ast.walk(definition)}
        if not any(read == name and id(node) not in own for read, node in reads):
            unread.append(f"{module}:{name}")
    assert unread == []
