import ast
import importlib
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


#: What perfbench/run.py reads from the package besides the traced functions.
BENCHMARK_READS = {"filtering": ("transient_samples",),
                   "sweep": ("DEFAULT_SHAPE_CUTOFF_HZ", "SETTLE_TIME_CONSTANTS",
                             "DEFAULT_DISCARD_FRACTION", "default_rpm_grid")}


def benchmark_wrapped():
    """perfbench/tracing.py's WRAPPED table, read from its source unexecuted."""
    path = PACKAGE.parents[1] / "perfbench" / "tracing.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no WRAPPED table in perfbench/tracing.py")


def test_every_name_the_benchmark_uses_exists():
    missing = [f"{module}.{name}"
               for table in (benchmark_wrapped(), BENCHMARK_READS)
               for module, names in table.items()
               for name in names
               if not hasattr(importlib.import_module(f"fbgvib.{module}"), name)]
    assert missing == []
