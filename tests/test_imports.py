import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fbgvib"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_and_on_its_own(module):
    # fbgvib/__init__.py imports every module in a fixed order; a bare
    # package object in its place makes the module under test the first
    # one loaded, so an import cycle through it fails here.
    probe = ("import importlib, sys, types\n"
             "package = types.ModuleType('fbgvib')\n"
             f"package.__path__ = [{str(PACKAGE)!r}]\n"
             "sys.modules['fbgvib'] = package\n"
             f"importlib.import_module('fbgvib.{module}')\n")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
