"""The README's Python examples run against the current API, and its
Layout block lists the package's modules."""

import re
from pathlib import Path

import pytest

import xagsynth

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


def test_export_list_names_each_public_name_once():
    names = xagsynth.__all__
    assert len(set(names)) == len(names)
    assert all(hasattr(xagsynth, name) for name in names)
    namespace = {}
    exec("from xagsynth import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(names)


@pytest.mark.parametrize("block", BLOCKS)
def test_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {})


def test_layout_names_each_module_once():
    layout = re.search(r"^## Layout\n\n```\n(.*?)^```", TEXT, re.M | re.S).group(1)
    package = Path(xagsynth.__file__).parent
    modules = sorted(p.name for p in package.glob("*.py") if p.name != "__init__.py")
    assert sorted(re.findall(r"\b\w+\.py\b", layout)) == modules
