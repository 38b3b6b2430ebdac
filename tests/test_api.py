"""The public surface: every exported name resolves, so `from cktomo
import *` cannot raise on a dangling `__all__` entry, and every name the
README points at exists."""

import functools
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cktomo

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(cktomo.__path__) if m.name != "__main__")
README = Path(__file__).resolve().parents[1] / "README.md"
# `module.name` or `module.Class.attr`, optionally written `cktomo.module...`
_REFERENCE = re.compile(r"(?<![\w./])(?:cktomo\.)?([a-z_]+)\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)")


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


def _readme_references():
    """Every dotted name inside a backticked README span whose first part
    is a cktomo module, as `module.name`, in order of first appearance."""
    refs = {}
    for span in re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8")):
        for m in _REFERENCE.finditer(span):
            if m.group(1) in SUBMODULES:
                refs[f"{m.group(1)}.{m.group(2)}"] = None
    return list(refs)


def test_readme_references_found():
    assert len(_readme_references()) >= 25


@pytest.mark.parametrize("ref", _readme_references())
def test_readme_reference_resolves(ref):
    module, *attrs = ref.split(".")
    functools.reduce(getattr, attrs, importlib.import_module(f"cktomo.{module}"))
