"""The package's exports are resolved from their submodules on first use."""

import importlib

import pytest

import randcert

from conftest import run_python


@pytest.mark.parametrize("name", randcert.__all__)
def test_export_is_its_submodules_object(name):
    obj = getattr(randcert, name)
    assert obj.__module__.startswith("randcert.")
    assert obj is getattr(importlib.import_module(obj.__module__), name)


def test_dir_lists_exports():
    assert set(randcert.__all__) <= set(dir(randcert))
    assert "__version__" in dir(randcert)


def test_star_import():
    namespace = {}
    exec("from randcert import *", namespace)
    assert {k for k in namespace if k != "__builtins__"} == set(randcert.__all__)


def test_submodule_by_attribute():
    assert randcert.simgen is importlib.import_module("randcert.simgen")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        randcert.no_such_name
    assert not hasattr(randcert, "no_such_name")


def test_import_leaves_numpy_unloaded():
    code = "import sys, randcert; print(randcert.__version__, 'numpy' in sys.modules)"
    assert run_python(code).stdout.split() == [randcert.__version__, "False"]
