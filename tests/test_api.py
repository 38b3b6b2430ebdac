"""The public surface: every exported name resolves, so `from cktomo
import *` cannot raise on a dangling `__all__` entry."""

import importlib
import pkgutil

import pytest

import cktomo

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(cktomo.__path__) if m.name != "__main__")


def test_star_import():
    namespace = {}
    exec("from cktomo import *", namespace)
    assert set(cktomo.__all__) <= namespace.keys()


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    module = importlib.import_module(f"cktomo.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
