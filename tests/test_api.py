"""The public surface: the package's export list and the README quick start."""

import ast
import re
import types
from pathlib import Path

import pytest

import mssmf

README = Path(__file__).resolve().parent.parent / "README.md"
SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "mssmf").glob("*.py"))


def test_every_exported_name_resolves():
    missing = [name for name in mssmf.__all__ if not hasattr(mssmf, name)]
    assert missing == []


def test_export_list_is_sorted_and_unique():
    assert mssmf.__all__ == sorted(set(mssmf.__all__))


def test_public_attributes_are_exactly_the_export_list():
    public = {
        name
        for name, obj in vars(mssmf).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert public == set(mssmf.__all__)


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_quick_start"})


def _unused_imports(tree: ast.Module):
    """Names bound by the module-level imports of tree that the module
    neither reads nor lists in __all__."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []
