"""The public surface: every exported name resolves, so `from cktomo
import *` cannot raise on a dangling `__all__` entry."""

import importlib
import pkgutil
import subprocess
import sys

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


def test_lazy_modules_resolve_after_a_cold_import():
    # evolution and invariants load on the first use of one of their names
    # (PEP 562); in a fresh process every exported name still resolves, is
    # listed by dir() and is bound by a star import
    code = """
import sys, cktomo
print(sorted(m for m in ("cktomo.evolution", "cktomo.invariants") if m in sys.modules))
print(sorted(set(cktomo.__all__) - set(dir(cktomo))), hasattr(cktomo, "no_such_name"))
print(cktomo.relative_residual(cktomo.Fock(1), 0.1, 1.0, 0.5, 1.0, 1e-3, cktomo.make_params(0.1)) < 1e-5)
print(cktomo.relative_residual is cktomo.evolution.relative_residual, cktomo.DualPoint.__module__)
namespace = {}
exec("from cktomo import *", namespace)
print(sorted(set(cktomo.__all__) - namespace.keys()))
"""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=120)
    assert res.returncode == 0, res.stderr.decode()
    assert res.stdout.decode().splitlines() == [
        "[]", "[] False", "True", "True cktomo.invariants", "[]"
    ]
