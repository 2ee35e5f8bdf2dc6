"""The package's public surface. Tier-1 runs no demo, so these checks stand
in for them: every name a demo imports from ``pmm`` resolves, ``pmm.__all__``
lists only names that exist, and importing the CLI leaves scipy's
interpolate, spatial and sparse subpackages unloaded."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import pmm

ROOT = pathlib.Path(__file__).resolve().parents[1]


def demo_imports():
    """(demo file, module, name) for every ``from pmm... import name`` in
    the demos; (demo file, module, None) for a plain ``import pmm...``."""
    found = []
    for path in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pmm":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "pmm"]
    return found


def test_cli_import_leaves_interpolate_and_spatial_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, pmm.cli; print(','.join(m for m in "
            "('scipy.interpolate', 'scipy.spatial', 'scipy.sparse') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == ""


def test_all_names_resolve():
    assert len(set(pmm.__all__)) == len(pmm.__all__)
    for name in pmm.__all__:
        assert hasattr(pmm, name), name


def test_demos_import_from_pmm():
    assert demo_imports(), "no demo imports pmm"


@pytest.mark.parametrize("demo,module,name", demo_imports())
def test_demo_import_resolves(demo, module, name):
    imported = importlib.import_module(module)
    assert name is None or hasattr(imported, name), f"{demo}: from {module} import {name}"
