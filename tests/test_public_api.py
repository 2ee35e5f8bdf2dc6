"""The package's public surface: every demo runs to exit 0, every name a
demo imports from ``pmm`` resolves, ``pmm.__all__`` lists only names that
exist, and importing the CLI leaves scipy's interpolate, spatial and sparse
subpackages unloaded."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import pmm

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_with_src(args, **kwargs):
    """``subprocess.run`` of the interpreter with ``src`` on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300, **kwargs)


def demo_imports():
    """(demo file, module, name) for every ``from pmm... import name`` in
    the demos; (demo file, module, None) for a plain ``import pmm...``."""
    found = []
    for path in DEMOS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pmm":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "pmm"]
    return found


def test_cli_import_leaves_interpolate_and_spatial_unloaded():
    code = ("import sys, pmm.cli; print(','.join(m for m in "
            "('scipy.interpolate', 'scipy.spatial', 'scipy.sparse') if m in sys.modules))")
    assert run_with_src(["-c", code], check=True).stdout.strip() == ""


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(tmp_path, demo):
    # from an empty directory, so a demo that writes files leaves none in the repo
    proc = run_with_src([str(demo)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


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
