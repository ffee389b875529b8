import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
import types
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
    # errors -> dataio -> filtering, shape, vib_model -> spectral, sweep,
    # each imported at the top.
    nested = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested |= {f"{path.name}:{node.lineno}" for node in ast.walk(func)
                           if imports_the_package(node)}
    assert nested == set()


def test_the_shape_cutoff_has_one_owner():
    from fbgvib import dataio, spectral, sweep

    assert sweep.DEFAULT_SHAPE_CUTOFF_HZ is spectral.DEFAULT_SHAPE_CUTOFF_HZ
    assert sweep.DEFAULT_SHAPE_CUTOFF_HZ is dataio.DEFAULT_SHAPE_CUTOFF_HZ


def loaded_modules(code):
    """The fbgvib modules a fresh interpreter holds after running ``code``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    probe = (code + "\nimport sys\n"
             "print(sorted(m for m in sys.modules if m.startswith('fbgvib')))\n")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
    return ast.literal_eval(result.stdout.splitlines()[-1])


def test_importing_the_package_loads_none_of_its_modules():
    assert loaded_modules("import fbgvib") == ["fbgvib"]


#: The modules each subcommand loads besides cli, dataio and errors.
COMMAND_MODULES = {"simulate": ("vib_model",), "analyze": ("filtering", "spectral"),
                   "filter": ("filtering",), "shape": ("shape",), "detect": ("events",),
                   "sweep": ("sweep", "vib_model")}


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    vib_model, dataio = package_module("vib_model"), package_module("dataio")
    path = tmp_path_factory.mktemp("trace") / "t.csv"
    scenario = vib_model.Scenario(rpm=120.0, duration_s=3.0)
    dataio.write_trace_csv(path, vib_model.simulate(scenario, vib_model.default_params()))
    return str(path)


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_a_command_loads_only_the_modules_it_runs(tmp_path, trace_path, command):
    out = str(tmp_path / "out.csv")
    argv = {"simulate": ["--rpm", "120", "--duration", "3"],
            "analyze": [trace_path, "--rpm-hint", "120"], "filter": [trace_path, "--rpm", "120"],
            "shape": [trace_path], "detect": [trace_path],
            "sweep": ["--rpm-min", "600", "--rpm-max", "2400", "--points", "10"]}[command]
    code = f"from fbgvib.cli import main\nassert main({[command, *argv, '--out', out]!r}) == 0"
    modules = {"cli", "dataio", "errors", *COMMAND_MODULES[command]}
    assert loaded_modules(code) == ["fbgvib"] + [f"fbgvib.{m}" for m in sorted(modules)]


def test_every_public_name_is_the_object_its_module_defines():
    package = package_module("")
    assert len(package.__all__) == 52 and set(package.__all__) <= set(dir(package))
    for name in package.__all__:
        value = getattr(package, name)
        if isinstance(value, types.ModuleType):
            assert value is package_module(name)
        else:
            home = importlib.import_module(value.__module__)
            assert home.__name__.startswith("fbgvib.") and getattr(home, name) is value


def test_a_star_import_binds_every_public_name():
    code = ("from fbgvib import *\nimport fbgvib\n"
            "assert len(fbgvib.__all__) == 52\n"
            "assert [n for n in fbgvib.__all__ if n not in globals()] == []")
    assert len(loaded_modules(code)) == 9  # the package and its eight modules
