import ast
import importlib
import importlib.util
import inspect
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


#: What perfbench reads from the package besides the traced functions; the
#: module "" is the package itself.
BENCHMARK_READS = {"": ("__version__",),
                   "filtering": ("transient_samples",),
                   "shape": ("default_calibration",),
                   "sweep": ("DEFAULT_SHAPE_CUTOFF_HZ", "SETTLE_TIME_CONSTANTS",
                             "DEFAULT_DISCARD_FRACTION", "default_rpm_grid"),
                   "vib_model": ("Scenario", "BendProfile")}

#: Parameters that perfbench/tracing.py's counters read by name from the
#: bound arguments of a traced call.
COUNTED_PARAMETERS = {"dataio.parse_trace_csv": ("path",),
                      "dataio.atomic_write_text": ("text",),
                      "spectral.find_peaks": ("freqs", "mags", "max_freq_hz"),
                      "filtering.apply_zero_phase": ("x",),
                      "events.detect_steps": ("x", "window_s", "sample_rate_hz")}


def package_module(name):
    return importlib.import_module(f"fbgvib.{name}" if name else "fbgvib")


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
               if not hasattr(package_module(module), name)]
    for function, names in COUNTED_PARAMETERS.items():
        module, name = function.split(".")
        parameters = inspect.signature(getattr(package_module(module), name)).parameters
        missing += [f"{function}({p})" for p in names if p not in parameters]
    calibration = package_module("shape").default_calibration()
    missing += [f"CalibrationModel.{name}"
                for name in ("base_wavelengths_nm", "sensitivities_nm_per_invm")
                if not hasattr(calibration, name)]
    assert missing == []


def benchmark_module(name):
    """perfbench/<name>.py, loaded from its file under a name of its own."""
    path = PACKAGE.parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_layer_suite_runs(tmp_path):
    # As `perfbench/run.py --trace 1` runs it: four recorded sweep files,
    # then every traced function once under its span.
    run, tracing = benchmark_module("run"), benchmark_module("tracing")
    sweep, vib_model = package_module("sweep"), package_module("vib_model")
    sweep_dir = tmp_path / "sweep"
    sweep_dir.mkdir()
    for i, rpm in enumerate(sweep.default_rpm_grid()[-4:]):
        run.write_sweep_file(sweep_dir, rpm, vib_model.default_params(), 1 + i)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        values = tracing.layer_suite(tracer, str(tmp_path), 1, str(sweep_dir))
    finally:
        restore()
    assert values == 450_000
    called = {name for name, *_ in tracer.spans}
    assert {"sweep.ingest_sweep_dir", "sweep.analyze_sweep_points", "sweep.run_sweep",
            "spectral.find_peaks", "filtering.apply_zero_phase"} <= called


def imports_the_package(node):
    """Whether an AST node imports a module of fbgvib, relatively or by name."""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").startswith("fbgvib")
    return isinstance(node, ast.Import) and any(
        alias.name.startswith("fbgvib") for alias in node.names)


def test_no_function_imports_a_package_module():
    # An import inside a function hides a cycle from the import order that
    # test_module_imports_first_and_on_its_own checks; the layering is
    # errors -> dataio -> shape -> vib_model, each imported at the top.
    nested = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested |= {f"{path.name}:{node.lineno}" for node in ast.walk(func)
                           if imports_the_package(node)}
    assert nested == set()


def test_the_shape_cutoff_has_one_owner():
    from fbgvib import spectral, sweep

    assert sweep.DEFAULT_SHAPE_CUTOFF_HZ is spectral.DEFAULT_SHAPE_CUTOFF_HZ
