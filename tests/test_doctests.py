"""The docstring examples of every ``unital`` module run and pass."""

import doctest
import importlib
import pkgutil

import pytest

import unital

MODULES = ["unital"] + sorted(
    m.name for m in pkgutil.iter_modules(unital.__path__, "unital."))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    # doctest walks unital's namespace, and a lazy layer executed during
    # that walk would add the modules it imports to it
    for layer in unital._LAYERS:
        vars(getattr(unital, layer))
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_abelian_examples_are_collected():
    module = importlib.import_module("unital.abelian")
    assert doctest.testmod(module).attempted >= 8
