"""The package's public surface: export lists and the README quick start."""

import importlib
import re
import types
from pathlib import Path

import pytest

import signoise
from signoise import errors

README = Path(__file__).resolve().parent.parent / "README.md"

LIBRARY_MODULES = [
    "errors",
    "model",
    "sampling",
    "increments",
    "simulate",
    "likelihood",
    "information",
    "estimate",
    "experiments",
]


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_module_exports_are_reexported_unchanged(name):
    module = importlib.import_module(f"signoise.{name}")
    for key in module.__all__:
        value = getattr(module, key)
        assert getattr(signoise, key, None) is value, key
        assert getattr(value, "__module__", module.__name__) == module.__name__, key


def test_errors_exports_every_exception_class_it_defines():
    defined = [
        key
        for key, value in vars(errors).items()
        if isinstance(value, type) and value.__module__ == errors.__name__
    ]
    assert sorted(errors.__all__) == sorted(defined)


def test_package_exports_exactly_the_module_lists():
    modules = [importlib.import_module(f"signoise.{name}") for name in LIBRARY_MODULES]
    listed = [key for module in modules for key in module.__all__]
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
