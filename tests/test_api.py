"""The public surface: the package's export list and the README quick start."""

import re
import types
from pathlib import Path

import mssmf

README = Path(__file__).resolve().parent.parent / "README.md"


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
