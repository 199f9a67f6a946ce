"""Smoke tests of the public surface: every demo script runs to the end, and
every name a module exports in ``__all__`` resolves."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hnmaxwell

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
MODULES = sorted(info.name for info in pkgutil.iter_modules(hnmaxwell.__path__))


def test_demos_found():
    assert DEMOS, "no demos/0*.py scripts"


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"hnmaxwell.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
