"""The package's public surface: export lists and the README quick start."""

import importlib
import re
import types
from pathlib import Path

import pytest

import signoise

README = Path(__file__).resolve().parent.parent / "README.md"

LIBRARY_MODULES = [
    "model",
    "sampling",
    "increments",
    "simulate",
    "likelihood",
    "information",
    "estimate",
    "experiments",
]


def _exports(name):
    """Names ``signoise`` should take from one module: its ``__all__``, or its error classes."""
    module = importlib.import_module(f"signoise.{name}")
    if name == "errors":
        return module, [
            key
            for key, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == module.__name__
        ]
    return module, list(module.__all__)


@pytest.mark.parametrize("name", ["errors"] + LIBRARY_MODULES)
def test_module_exports_are_reexported_unchanged(name):
    module, names = _exports(name)
    for key in names:
        value = getattr(module, key)
        assert getattr(signoise, key, None) is value, key
        assert getattr(value, "__module__", module.__name__) == module.__name__, key


def test_package_exports_exactly_the_module_lists():
    listed = [key for name in ["errors"] + LIBRARY_MODULES for key in _exports(name)[1]]
    public = {
        key
        for key, value in vars(signoise).items()
        if not key.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(listed) == len(set(listed))
    assert set(listed) == public


def test_readme_quick_start_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library quick start") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
